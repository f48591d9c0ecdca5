"""Success judgment for single responses.

A response succeeds when its extracted numeric answer equals the
triplet's reference value. Correction is judged by the final numeric
answer only; the quality of the explanation around it is not assessed.
Backend failures score as unsuccessful with their own reason so that
rate denominators still cover every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ._schema import dump, load
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

    def to_dict(self) -> dict[str, Any]:
        return dump(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any], lineno: int | None = None) -> "Outcome":
        where = f" at line {lineno}" if lineno is not None else ""
        outcome = load(cls, payload, "scored outcome", DataError, where)
        if outcome.reason not in REASONS:
            raise DataError(
                f"scored outcome{where}: unknown reason {outcome.reason!r}, "
                f"expected one of {list(REASONS)}"
            )
        if mode_for(outcome.task, outcome.dop) is None:
            raise DataError(f"scored outcome{where}: {MISPAIRED[outcome.task]}")
        return outcome


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
    base = dict(
        triplet_id=triplet.id,
        task=task,
        dop=dop,
        model=model,
        template_id=template_id,
    )
    if error is not None or response_text is None:
        return Outcome(
            **base, extracted=None, success=False, reason=REASON_BACKEND_ERROR
        )
    answer = extract(response_text)
    if answer is None:
        return Outcome(
            **base, extracted=None, success=False, reason=REASON_NO_EXTRACTION
        )
    matched = answer == triplet.reference_value
    return Outcome(
        **base,
        extracted=answer.canonical,
        success=matched,
        reason=REASON_MATCHED if matched else REASON_MISMATCHED,
    )
