"""Success judgment for single responses, and the scored outcome file.

A response succeeds when its extracted numeric answer equals the
triplet's reference value. Correction is judged by the final numeric
answer only; the quality of the explanation around it is not assessed.
Backend failures score as unsuccessful with their own reason so that
rate denominators still cover every cell.

An Outcome checks what it may hold when it is built, so one that names
no mode, gives an unknown reason or succeeds without a match exists
nowhere: not from score, not in a scored file, not in a report.
write_scored and load_scored are the one writer and reader of that
file, and load_scored builds each outcome through those checks; only
Outcome(...) refuses a (task, dop) pair that names no mode. score
judges one cell, named by its PromptMode, which always names a mode:
it takes the mode's task and dop members, picks the reason as it
judges, and fills a slotted Outcome without its frozen __init__, so
its outcome is the one __init__ would build from the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from ._schema import dump_line, read_jsonl, restorer, write_atomic
from .errors import DataError
from .extraction import extract
from .prompting import MISPAIRED, DopLevel, PromptMode, TaskKind, mode_for
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


@dataclass(frozen=True, slots=True)
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
        if self.success != (self.reason == REASON_MATCHED):
            raise DataError(
                f"scored outcome: success {self.success!r} disagrees with reason "
                f"{self.reason!r}; an outcome succeeds exactly when it is matched"
            )


_new_outcome = restorer(Outcome)


def score(
    triplet: Triplet,
    response_text: str | None,
    mode: PromptMode,
    *,
    model: str = "",
    template_id: str = "",
    error: str | None = None,
) -> Outcome:
    """Judge one response in mode's cell against the triplet's reference
    value.

    Outcome's checks hold by construction: mode's task and dop name a
    mode, the reason is one of REASONS, and success is
    reason == "matched"."""
    extracted, success, reason = None, False, REASON_BACKEND_ERROR
    if error is None and response_text is not None:
        answer = extract(response_text)
        if answer is None:
            reason = REASON_NO_EXTRACTION
        else:
            extracted = answer.canonical
            success = answer.value == triplet.reference_value.value
            reason = REASON_MATCHED if success else REASON_MISMATCHED
    return _new_outcome(
        triplet.id, mode.task, mode.dop, model, template_id, extracted, success, reason
    )


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
