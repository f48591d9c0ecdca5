"""Success judgment for single responses, and the scored outcome file.

A response succeeds when its extracted numeric answer equals the
triplet's reference value. Correction is judged by the final numeric
answer only; the quality of the explanation around it is not assessed.
Backend failures score as unsuccessful with their own reason so that
rate denominators still cover every cell.

An Outcome checks what it may hold when it is built, so one that names
no mode or gives an unknown reason exists nowhere: not from score, not
in a scored file, not in a report. write_scored and load_scored are the
one writer and reader of that file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from ._schema import dump, dump_line, read_jsonl, write_atomic
from .errors import DataError
from .extraction import extract
from .prompting import MISPAIRED, DopLevel, TaskKind, mode_for
from .triplets import Triplet

REASON_MATCHED = "matched"
REASON_MISMATCHED = "mismatched"
REASON_NO_EXTRACTION = "no-extraction"
REASON_BACKEND_ERROR = "backend-error"

REASONS = (
    REASON_MATCHED,
    REASON_MISMATCHED,
    REASON_NO_EXTRACTION,
    REASON_BACKEND_ERROR,
)


@dataclass(frozen=True)
class Outcome:
    """The scored result of one evaluation cell."""

    triplet_id: str
    task: TaskKind
    dop: DopLevel | None
    model: str
    template_id: str
    extracted: str | None
    success: bool
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in REASONS:
            raise DataError(
                f"scored outcome: unknown reason {self.reason!r}, "
                f"expected one of {list(REASONS)}"
            )
        if mode_for(self.task, self.dop) is None:
            why = MISPAIRED.get(
                self.task,
                f"unknown task {self.task!r}, expected one of {[task.value for task in TaskKind]}",
            )
            raise DataError(f"scored outcome: {why}")

    def to_dict(self) -> dict[str, Any]:
        return dump(self)


def score(
    triplet: Triplet,
    response_text: str | None,
    task: TaskKind,
    dop: DopLevel | None,
    *,
    model: str = "",
    template_id: str = "",
    error: str | None = None,
) -> Outcome:
    """Judge one response against the triplet's reference value."""
    extracted, reason = None, REASON_BACKEND_ERROR
    if error is None and response_text is not None:
        answer = extract(response_text)
        if answer is None:
            reason = REASON_NO_EXTRACTION
        else:
            extracted = answer.canonical
            reason = REASON_MATCHED if answer == triplet.reference_value else REASON_MISMATCHED
    success = reason == REASON_MATCHED
    return Outcome(triplet.id, task, dop, model, template_id, extracted, success, reason)


def write_scored(outcomes: Iterable[Outcome], path: str | Path) -> Path:
    return write_atomic(path, (dump_line(outcome) + "\n" for outcome in outcomes))


def load_scored(path: str | Path) -> list[Outcome]:
    """Read a scored outcome file. A second outcome for the same (model,
    triplet, task, mode) raises, naming both lines."""
    outcomes = []
    first_line: dict[tuple[Any, ...], int] = {}
    for lineno, outcome in read_jsonl(path, "scored outcome", DataError, Outcome):
        dop = outcome.dop and outcome.dop.value
        key = (outcome.model, outcome.triplet_id, outcome.task.value, dop)
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise DataError(
                f"{path} lines {first} and {lineno}: duplicate outcome for (model, "
                f"triplet, task, dop) {key}"
            )
        outcomes.append(outcome)
    return outcomes
