"""Quadrant counting, rates, ratios, and bootstrap intervals."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwpeval import (
    DataError,
    DopLevel,
    JointOutcome,
    QuadrantCounts,
    TaskKind,
    bootstrap_ci,
    dop_pass_rates,
    e_ratios,
    format_rate,
    quadrants,
    rates,
)
from mwpeval.metrics import UNDEFINED_MARK
from mwpeval.scoring import Outcome


def joint(i: int, r: bool, c: bool) -> JointOutcome:
    return JointOutcome(f"t{i:03d}", r, c)


def joints_from_counts(counts: QuadrantCounts) -> list[JointOutcome]:
    out = []
    i = 0
    for r, c, n in [
        (True, True, counts.srsc),
        (True, False, counts.sruc),
        (False, True, counts.ursc),
        (False, False, counts.uruc),
    ]:
        for _ in range(n):
            out.append(joint(i, r, c))
            i += 1
    return out


def correction_outcome(i: int, dop: DopLevel, success: bool) -> Outcome:
    return Outcome(
        triplet_id=f"t{i:03d}",
        task=TaskKind.CORRECTION,
        dop=dop,
        model="m",
        template_id="x@00000000",
        extracted="1" if success else "2",
        success=success,
        reason="matched" if success else "mismatched",
    )


# quadrants and rates


def test_quadrants_partition_the_joints():
    counts = quadrants(joints_from_counts(QuadrantCounts(8, 6, 2, 4)))
    assert counts == QuadrantCounts(8, 6, 2, 4)
    assert counts.n == 20
    assert counts.to_dict() == {"sRsC": 8, "sRuC": 6, "uRsC": 2, "uRuC": 4}


def test_quadrants_reject_duplicate_triplets():
    pair = [joint(1, True, True), joint(1, False, False)]
    with pytest.raises(DataError, match="duplicate"):
        quadrants(pair)


def test_rates_from_known_counts():
    r, c = rates(QuadrantCounts(8, 6, 2, 4))
    assert r == 14 / 20
    assert c == 10 / 20


def test_rates_need_data():
    with pytest.raises(DataError):
        rates(QuadrantCounts(0, 0, 0, 0))


def test_counts_must_be_non_negative():
    with pytest.raises(DataError):
        QuadrantCounts(-1, 0, 0, 0)


def test_e_ratios_from_known_counts():
    e_r, e_c = e_ratios(QuadrantCounts(8, 6, 2, 4))
    assert e_r == 8 / 10
    assert e_c == 8 / 14


def test_e_ratios_undefined_when_denominator_empty():
    # nothing corrected: e_r has no denominator
    assert e_ratios(QuadrantCounts(0, 5, 0, 5)) == (None, 0.0)
    # nothing reasoned: e_c has no denominator
    assert e_ratios(QuadrantCounts(0, 0, 5, 5)) == (0.0, None)


def test_dop_pass_rates_per_level():
    outcomes = [
        correction_outcome(1, DopLevel.SP, False),
        correction_outcome(2, DopLevel.SP, True),
        correction_outcome(1, DopLevel.SA, True),
        correction_outcome(2, DopLevel.SA, True),
    ]
    got = dop_pass_rates(outcomes)
    assert got == {DopLevel.SP: 0.5, DopLevel.SA: 1.0}


def test_dop_pass_rates_ignore_reasoning_outcomes():
    reasoning = Outcome(
        triplet_id="t001",
        task=TaskKind.REASONING,
        dop=None,
        model="other",  # a different model name must not trip the mix check
        template_id="x@00000000",
        extracted="1",
        success=True,
        reason="matched",
    )
    got = dop_pass_rates([reasoning, correction_outcome(1, DopLevel.SP, True)])
    assert got == {DopLevel.SP: 1.0}


def test_dop_pass_rates_refuse_mixed_models():
    a = correction_outcome(1, DopLevel.SP, True)
    b = Outcome(**{**a.to_dict(), "model": "other", "task": TaskKind.CORRECTION,
                   "dop": DopLevel.SP, "triplet_id": "t002"})
    with pytest.raises(DataError, match="mix models"):
        dop_pass_rates([a, b])


# bootstrap


def mean(xs):
    return sum(xs) / len(xs)


def test_bootstrap_on_constant_data_is_degenerate():
    assert bootstrap_ci([1] * 50) == [(1.0, 1.0)]


def test_bootstrap_is_deterministic_per_seed():
    data = [0] * 40 + [1] * 60
    first = bootstrap_ci(data, seed=7)
    second = bootstrap_ci(data, seed=7)
    other = bootstrap_ci(data, seed=8)
    assert first == second
    assert first != other


def test_bootstrap_brackets_the_point_estimate():
    data = [0] * 40 + [1] * 60
    [(low, high)] = bootstrap_ci(data)
    assert low <= 0.6 <= high
    assert 0.0 < low < high < 1.0


def test_bootstrap_input_validation():
    with pytest.raises(DataError, match="resamples"):
        bootstrap_ci([1], resamples=99)
    with pytest.raises(DataError, match="level"):
        bootstrap_ci([1], level=1.0)
    with pytest.raises(DataError, match="zero observations"):
        bootstrap_ci([])
    with pytest.raises(DataError, match="0 or 1"):
        bootstrap_ci([0.5, 1.0])


def oracle_bootstrap(column, resamples, level, seed):
    """The per-resample loop bootstrap_ci replaced, kept as the reference
    its intervals must equal to the bit."""
    rng = np.random.default_rng(seed)
    n = len(column)
    stats = np.empty(resamples, dtype=float)
    for i in range(resamples):
        picks = rng.integers(0, n, size=n)
        stats[i] = sum(column[j] for j in picks) / n
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(low), float(high)


@pytest.mark.parametrize("n", [7, 20, 401, 1000])
@pytest.mark.parametrize("resamples", [100, 250, 1001])
def test_bootstrap_matches_the_per_resample_loop_bit_for_bit(n, resamples):
    rnd = random.Random(n * resamples)
    r = [rnd.random() < 0.7 for _ in range(n)]
    c = [rnd.random() < 0.4 for _ in range(n)]
    seed = n + resamples
    expected = [oracle_bootstrap(col, resamples, 0.9, seed) for col in (r, c)]
    assert bootstrap_ci(list(zip(r, c)), resamples, 0.9, seed) == expected
    assert bootstrap_ci(r, resamples, 0.9, seed) == expected[:1]
    assert bootstrap_ci([[x] for x in c], resamples, 0.9, seed) == expected[1:]



# presentation rounding


def test_format_rate_is_half_up():
    assert format_rate(0.8755) == "0.876"
    assert format_rate(0.0005) == "0.001"
    assert format_rate(0.9285) == "0.929"


def test_format_rate_renders_undefined_as_a_dash():
    assert format_rate(None) == UNDEFINED_MARK
    assert format_rate(0.5) == "0.500"
    assert format_rate(8 / 14) == "0.571"


# properties

quadrant_counts = st.builds(
    QuadrantCounts,
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(0, 40),
)


@given(quadrant_counts.filter(lambda c: c.n > 0))
def test_rates_match_per_joint_averages(counts):
    joints = joints_from_counts(counts)
    r, c = rates(counts)
    assert r == pytest.approx(mean([j.reasoning_success for j in joints]))
    assert c == pytest.approx(mean([j.correction_success for j in joints]))
    assert quadrants(joints) == counts


@given(quadrant_counts)
def test_ratio_order_tracks_the_off_diagonal(counts):
    """e_r > e_c exactly when fewer cells were corrected-not-reasoned
    than reasoned-not-corrected."""
    e_r, e_c = e_ratios(counts)
    if e_r is None or e_c is None or counts.srsc == 0:
        return
    assert (e_r > e_c) == (counts.ursc < counts.sruc)


@given(quadrant_counts.filter(lambda c: c.n > 0))
def test_rates_stay_in_unit_interval(counts):
    r, c = rates(counts)
    assert 0.0 <= r <= 1.0
    assert 0.0 <= c <= 1.0
