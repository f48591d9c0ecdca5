"""Aggregate rates over joint outcomes.

Conventions, fixed here and relied on everywhere else:

* quadrant counts partition the triplets: n = sRsC + sRuC + uRsC + uRuC;
* r_rate = (sRsC + sRuC) / n, the reasoning success rate;
* c_rate = (sRsC + uRsC) / n, the correction success rate;
* e_r = sRsC / (sRsC + uRsC): of the triplets whose wrong solution got
  corrected, how many were also solved directly;
* e_c = sRsC / (sRsC + sRuC): of the triplets solved directly, how many
  also got corrected.

e_r and e_c are undefined when their denominator is 0 and are reported
as None, never 0 or NaN. With every quadrant populated, e_r > e_c holds
exactly when uRsC < sRuC.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DataError
from .prompting import DopLevel, TaskKind
from .scoring import JointOutcome, Outcome, Quadrant


@dataclass(frozen=True)
class QuadrantCounts:
    srsc: int
    sruc: int
    ursc: int
    uruc: int

    def __post_init__(self) -> None:
        for name in ("srsc", "sruc", "ursc", "uruc"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise DataError(f"quadrant count {name} must be a non-negative int, got {value!r}")

    @property
    def n(self) -> int:
        return self.srsc + self.sruc + self.ursc + self.uruc

    def to_dict(self) -> dict[str, int]:
        return {
            Quadrant.SRSC.value: self.srsc,
            Quadrant.SRUC.value: self.sruc,
            Quadrant.URSC.value: self.ursc,
            Quadrant.URUC.value: self.uruc,
        }


def quadrants(joints: Iterable[JointOutcome]) -> QuadrantCounts:
    """Count joint outcomes per quadrant. Duplicate triplet ids raise."""
    seen: set[str] = set()
    tally = {q: 0 for q in Quadrant}
    for joint in joints:
        if joint.triplet_id in seen:
            raise DataError(f"duplicate joint outcome for triplet {joint.triplet_id!r}")
        seen.add(joint.triplet_id)
        tally[joint.quadrant] += 1
    return QuadrantCounts(
        srsc=tally[Quadrant.SRSC],
        sruc=tally[Quadrant.SRUC],
        ursc=tally[Quadrant.URSC],
        uruc=tally[Quadrant.URUC],
    )


def rates(counts: QuadrantCounts) -> tuple[float, float]:
    """(r_rate, c_rate). Raises on an empty population."""
    if counts.n == 0:
        raise DataError("rates are undefined over zero triplets")
    return (
        (counts.srsc + counts.sruc) / counts.n,
        (counts.srsc + counts.ursc) / counts.n,
    )


def e_ratios(counts: QuadrantCounts) -> tuple[float | None, float | None]:
    """(e_r, e_c); None where the denominator is empty."""
    e_r = counts.srsc / (counts.srsc + counts.ursc) if counts.srsc + counts.ursc else None
    e_c = counts.srsc / (counts.srsc + counts.sruc) if counts.srsc + counts.sruc else None
    return e_r, e_c


def dop_pass_rates(outcomes: Iterable[Outcome]) -> dict[DopLevel, float]:
    """Correction success rate per mode over scored outcomes.

    All outcomes must come from one model; mixing models in one pool
    would average incomparable things."""
    models: set[str] = set()
    totals: dict[DopLevel, int] = {}
    hits: dict[DopLevel, int] = {}
    for outcome in outcomes:
        if outcome.task is not TaskKind.CORRECTION:
            continue
        models.add(outcome.model)
        if len(models) > 1:
            raise DataError(f"outcomes mix models: {sorted(models)}")
        assert outcome.dop is not None
        totals[outcome.dop] = totals.get(outcome.dop, 0) + 1
        hits[outcome.dop] = hits.get(outcome.dop, 0) + int(outcome.success)
    return {level: hits[level] / totals[level] for level in totals}


# Resamples drawn per index matrix: bounds the draw at _CHUNK x n int64
# instead of resamples x n, without changing the generator's stream.
_CHUNK = 100


def bootstrap_ci(
    successes: Sequence[Any],
    resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Percentile bootstrap intervals for success rates.

    successes holds one row per observation and one 0/1 column per rate
    (a flat sequence is one column). Every column is resampled with the
    same draw of rows, and one interval is returned per column.
    Deterministic for a given seed; record the seed wherever the
    interval is reported.
    """
    if resamples < 100:
        raise DataError(f"resamples must be >= 100 for a usable interval, got {resamples}")
    if not 0 < level < 1:
        raise DataError(f"level must be in (0, 1), got {level}")
    if len(successes) == 0:
        raise DataError("cannot bootstrap zero observations")
    table = np.asarray(successes)
    if not np.isin(table, (0, 1)).all():
        raise DataError("bootstrap successes must all be 0 or 1")
    n = len(table)
    columns = table.astype(np.int64).reshape(n, -1).T.copy()
    rng = np.random.default_rng(seed)
    stats = np.empty((len(columns), resamples))
    for start in range(0, resamples, _CHUNK):
        picks = rng.integers(0, n, size=(min(_CHUNK, resamples - start), n))
        for column, out in zip(columns, stats):
            out[start : start + len(picks)] = column.take(picks).sum(axis=1) / n
    alpha = (1.0 - level) / 2.0
    lows, highs = np.quantile(stats, [alpha, 1.0 - alpha], axis=1)
    return [(float(low), float(high)) for low, high in zip(lows, highs)]


UNDEFINED_MARK = "—"


def round_rate(value: float, places: int = 3) -> float:
    """Half-up presentation rounding, e.g. 0.8595 -> 0.86 at 2 places."""
    return float(format_rate(value, places))


def format_rate(value: float | None, places: int = 3) -> str:
    """Fixed-width decimal string; an em dash for undefined values."""
    if value is None:
        return UNDEFINED_MARK
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
