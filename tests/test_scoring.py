"""Scoring single responses and counting them into quadrants."""

from __future__ import annotations

import itertools
import json
import re

import pytest

from mwpeval import DataError, DopLevel, Quadrant, TaskKind, quadrants
from mwpeval.prompting import MISPAIRED, MODES, mode_for
from mwpeval.scoring import (
    REASON_BACKEND_ERROR,
    REASON_MATCHED,
    REASON_MISMATCHED,
    REASON_NO_EXTRACTION,
    REASONS,
    Outcome,
    load_scored,
    score,
    write_scored,
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


def test_near_miss_reference_is_a_mismatch():
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


@pytest.mark.parametrize("task,dop", [("reasoning", "sp"), ("correction", None)])
def test_outcome_task_and_dop_must_form_a_mode(tmp_path, task, dop):
    payload = {**scored("Final answer: 24").to_dict(), "task": task, "dop": dop}
    with pytest.raises(DataError, match="^scored outcome: the .* task"):
        Outcome(**{**payload, "task": TaskKind(task), "dop": dop and DopLevel(dop)})
    # Read from a file, the refusal names the path and the line.
    path = tmp_path / "scored.jsonl"
    path.write_text("\n\n\n" + json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 4: scored outcome: the .* task"):
        load_scored(path)


def test_a_task_string_that_names_no_task_is_refused_by_name():
    fields = dict(triplet_id="t", dop=None, model="m", template_id="x",
                  extracted=None, success=False, reason="matched")
    with pytest.raises(DataError, match="^scored outcome: unknown task 'solve'"):
        Outcome(task="solve", **fields)
    # a plain string that names a task still builds, as from a record
    assert Outcome(task="reasoning", **fields).task == TaskKind.REASONING


def test_what_an_outcome_may_hold_is_what_a_scored_file_may_hold(tmp_path):
    # Every (task, dop) pair, every reason and one unknown reason: an
    # outcome is built exactly when the pair names a mode and the reason
    # is known, and every outcome built reads back from a scored file.
    built = []
    for task, dop in itertools.product(TaskKind, (None, *DopLevel)):
        names_a_mode = mode_for(task, dop) is not None
        for reason in (*REASONS, "gut-feeling"):
            fields = dict(triplet_id=f"t-{reason}", task=task, dop=dop, model="m",
                          template_id="x@0", extracted=None, success=False, reason=reason)
            if names_a_mode and reason in REASONS:
                built.append(Outcome(**fields))
                continue
            with pytest.raises(DataError, match="^scored outcome: "):
                Outcome(**fields)
        if not names_a_mode:
            with pytest.raises(DataError, match=re.escape(MISPAIRED[task])):
                scored("#### 2", task=task, dop=dop)
    assert len(built) == len(MODES) * len(REASONS)
    assert load_scored(write_scored(built, tmp_path / "scored.jsonl")) == built


# counting into quadrants


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
    reasoning, correction = outcome_pair(r_ok, c_ok)
    counts = quadrants([(reasoning.success, correction.success)])
    assert counts.to_dict() == {q.value: int(q is quadrant) for q in Quadrant}
