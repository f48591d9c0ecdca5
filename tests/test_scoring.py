"""Scoring single responses and joining them into quadrants."""

from __future__ import annotations

import json

import pytest

from mwpeval import DataError, DopLevel, Quadrant, TaskKind
from mwpeval.scoring import (
    REASON_BACKEND_ERROR,
    REASON_MATCHED,
    REASON_MISMATCHED,
    REASON_NO_EXTRACTION,
    JointOutcome,
    Outcome,
    join,
    score,
)

from conftest import make_triplet

SP = DopLevel.SP


def scored(text, task=TaskKind.REASONING, dop=None, **kwargs):
    return score(make_triplet(), text, task, dop, **kwargs)


def test_matching_answer_succeeds():
    outcome = scored("6 * 4 = 24.\nFinal answer: 24")
    assert outcome.success
    assert outcome.reason == REASON_MATCHED
    assert outcome.extracted == "24"


def test_wrong_answer_is_mismatched():
    outcome = scored("6 + 4 = 10.\nFinal answer: 10")
    assert not outcome.success
    assert outcome.reason == REASON_MISMATCHED
    assert outcome.extracted == "10"


def test_numberless_response_is_no_extraction():
    outcome = scored("I cannot tell.")
    assert not outcome.success
    assert outcome.reason == REASON_NO_EXTRACTION
    assert outcome.extracted is None


def test_backend_error_scores_as_failure():
    outcome = scored(None, error="connection refused")
    assert not outcome.success
    assert outcome.reason == REASON_BACKEND_ERROR
    assert outcome.extracted is None


def test_error_wins_even_with_response_text():
    # a recorded error means the response is not trustworthy
    outcome = scored("Final answer: 24", error="timeout mid-stream")
    assert outcome.reason == REASON_BACKEND_ERROR


def test_tolerance_is_honored_for_float_references():
    triplet = make_triplet(
        reference_solution="The scale reads 24.0000004 grams.",
        reference_numeric="24.0000004",
        brief_explanation=None,
    )
    close = score(triplet, "Final answer: 24.0000008", TaskKind.REASONING, None)
    assert close.reason == REASON_MISMATCHED  # both exact, compared exactly
    # equal-value spellings still match exactly
    spelled = score(triplet, "Final answer: 24.00000040", TaskKind.REASONING, None)
    assert spelled.success


def test_outcome_round_trips_through_dict():
    outcome = scored("Final answer: 24", task=TaskKind.CORRECTION, dop=SP, model="m")
    payload = json.loads(json.dumps(outcome.to_dict()))
    assert Outcome.from_dict(payload) == outcome


def test_outcome_dict_schema_is_strict():
    payload = scored("Final answer: 24").to_dict()
    payload["note"] = "extra"
    with pytest.raises(DataError, match="unexpected"):
        Outcome.from_dict(payload)
    del payload["note"]
    del payload["reason"]
    with pytest.raises(DataError, match="missing"):
        Outcome.from_dict(payload)


def test_unknown_reason_rejected():
    payload = scored("Final answer: 24").to_dict()
    payload["reason"] = "gut-feeling"
    with pytest.raises(DataError, match="reason"):
        Outcome.from_dict(payload)


# joining


def outcome_pair(r_ok: bool, c_ok: bool) -> tuple[Outcome, Outcome]:
    r_text = "Final answer: 24" if r_ok else "Final answer: 1"
    c_text = "Final answer: 24" if c_ok else "Final answer: 1"
    return (
        scored(r_text),
        scored(c_text, task=TaskKind.CORRECTION, dop=SP),
    )


@pytest.mark.parametrize(
    "r_ok,c_ok,quadrant",
    [
        (True, True, Quadrant.SRSC),
        (True, False, Quadrant.SRUC),
        (False, True, Quadrant.URSC),
        (False, False, Quadrant.URUC),
    ],
)
def test_quadrant_mapping(r_ok, c_ok, quadrant):
    joint = join(*outcome_pair(r_ok, c_ok))
    assert joint.quadrant is quadrant
    assert joint.triplet_id == "x01"


def test_join_rejects_mismatched_triplets():
    reasoning, correction = outcome_pair(True, True)
    other = score(
        make_triplet(id="x99"), "Final answer: 24", TaskKind.CORRECTION, SP
    )
    with pytest.raises(DataError, match="different triplets"):
        join(reasoning, other)


def test_join_rejects_swapped_arguments():
    reasoning, correction = outcome_pair(True, True)
    with pytest.raises(DataError, match="reasoning outcome"):
        join(correction, correction)
    with pytest.raises(DataError, match="correction outcome"):
        join(reasoning, reasoning)


def test_joint_outcome_quadrant_is_pure():
    assert JointOutcome("t", True, False).quadrant is Quadrant.SRUC
    assert JointOutcome("t", False, True).quadrant is Quadrant.URSC
