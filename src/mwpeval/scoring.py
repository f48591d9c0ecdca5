"""Success judgment for single responses and joint reasoning/correction outcomes.

A response succeeds when its extracted numeric answer equals the
triplet's reference value. Correction is judged by the final numeric
answer only; the quality of the explanation around it is not assessed.
Backend failures score as unsuccessful with their own reason so that
rate denominators still cover every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ._schema import dump, load
from .errors import DataError
from .extraction import DEFAULT_TOLERANCE, extract, equal
from .prompting import DopLevel, TaskKind
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
    tolerance: float = DEFAULT_TOLERANCE,
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
    matched = equal(answer, triplet.reference_value, tolerance)
    return Outcome(
        **base,
        extracted=answer.canonical,
        success=matched,
        reason=REASON_MATCHED if matched else REASON_MISMATCHED,
    )


class Quadrant(str, Enum):
    SRSC = "sRsC"
    SRUC = "sRuC"
    URSC = "uRsC"
    URUC = "uRuC"


_QUADRANT_BY_STATES = {
    (True, True): Quadrant.SRSC,
    (True, False): Quadrant.SRUC,
    (False, True): Quadrant.URSC,
    (False, False): Quadrant.URUC,
}


@dataclass(frozen=True)
class JointOutcome:
    """Reasoning and correction success for one triplet, under one mode."""

    triplet_id: str
    reasoning_success: bool
    correction_success: bool

    @property
    def quadrant(self) -> Quadrant:
        return _QUADRANT_BY_STATES[(self.reasoning_success, self.correction_success)]


def join(reasoning: Outcome, correction: Outcome) -> JointOutcome:
    """Pair one reasoning outcome with one correction outcome."""
    if reasoning.triplet_id != correction.triplet_id:
        raise DataError(
            f"cannot join outcomes for different triplets: "
            f"{reasoning.triplet_id!r} vs {correction.triplet_id!r}"
        )
    if reasoning.task is not TaskKind.REASONING:
        raise DataError(f"first argument must be a reasoning outcome, got {reasoning.task.value}")
    if correction.task is not TaskKind.CORRECTION:
        raise DataError(f"second argument must be a correction outcome, got {correction.task.value}")
    return JointOutcome(
        triplet_id=reasoning.triplet_id,
        reasoning_success=reasoning.success,
        correction_success=correction.success,
    )
