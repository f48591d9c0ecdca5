"""Quadrant counting, rates, ratios, and bootstrap intervals."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwpeval import (
    DataError,
    QuadrantCounts,
    bootstrap_ci,
    e_ratios,
    format_rate,
    quadrants,
    rates,
)
from mwpeval.metrics import UNDEFINED_MARK


def pairs_from_counts(counts: QuadrantCounts) -> list[tuple[bool, bool]]:
    return (
        [(True, True)] * counts.srsc
        + [(True, False)] * counts.sruc
        + [(False, True)] * counts.ursc
        + [(False, False)] * counts.uruc
    )


# quadrants and rates


def test_quadrants_partition_the_joints():
    counts = quadrants(pairs_from_counts(QuadrantCounts(8, 6, 2, 4)))
    assert counts == QuadrantCounts(8, 6, 2, 4)
    assert counts.n == 20


def test_quadrants_reject_pairs_that_are_not_two_bools():
    with pytest.raises(DataError, match="bool"):
        quadrants([(True, True), (True, None)])


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


def test_a_count_may_not_be_a_bool():
    with pytest.raises(DataError, match="sruc must be a non-negative int, got True"):
        QuadrantCounts(0, True, 0, 0)


def test_e_ratios_from_known_counts():
    e_r, e_c = e_ratios(QuadrantCounts(8, 6, 2, 4))
    assert e_r == 8 / 10
    assert e_c == 8 / 14
    # sRsC equal to uRsC, then to sRuC: each denominator is a sum, not a difference
    assert e_ratios(QuadrantCounts(3, 1, 3, 1)) == (0.5, 0.75)
    assert e_ratios(QuadrantCounts(3, 3, 1, 1)) == (0.75, 0.5)


def test_e_ratios_undefined_when_denominator_empty():
    # nothing corrected: e_r has no denominator
    assert e_ratios(QuadrantCounts(0, 5, 0, 5)) == (None, 0.0)
    # nothing reasoned: e_c has no denominator
    assert e_ratios(QuadrantCounts(0, 0, 5, 5)) == (0.0, None)


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
    # no seed is seed 0, whose interval here differs from seed 1's (0.51, 0.70)
    assert bootstrap_ci(data) == bootstrap_ci(data, seed=0) == [(0.51, 0.69)]


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
    with pytest.raises(DataError, match="seed"):
        bootstrap_ci([1], seed=-1)
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
    pairs = pairs_from_counts(counts)
    random.Random(counts.n).shuffle(pairs)
    r, c = rates(counts)
    assert r == pytest.approx(mean([solved for solved, _ in pairs]))
    assert c == pytest.approx(mean([corrected for _, corrected in pairs]))
    assert quadrants(pairs) == counts


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
