"""Scoring single responses and counting them into quadrants."""

from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwpeval import DataError, DopLevel, PromptMode, Quadrant, QuadrantCounts, TaskKind, quadrants
from mwpeval._schema import dump, load
from mwpeval.extraction import extract
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


def scored(text, mode=PromptMode.REASONING, **kwargs):
    return score(make_triplet(), text, mode, **kwargs)


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
    close = score(triplet, "Final answer: 24.0000008", PromptMode.REASONING)
    assert close.reason == REASON_MISMATCHED  # both exact, compared exactly
    # equal-value spellings still match exactly
    spelled = score(triplet, "Final answer: 24.00000040", PromptMode.REASONING)
    assert spelled.success


def test_outcome_round_trips_through_dict():
    outcome = scored("Final answer: 24", PromptMode.SP, model="m")
    payload = json.loads(json.dumps(dump(outcome)))
    assert load(Outcome, payload, "scored outcome", DataError) == outcome


def test_outcome_dict_schema_is_strict():
    payload = dump(scored("Final answer: 24"))
    payload["note"] = "extra"
    with pytest.raises(DataError, match="unexpected"):
        load(Outcome, payload, "scored outcome", DataError)
    del payload["note"]
    del payload["reason"]
    with pytest.raises(DataError, match="missing"):
        load(Outcome, payload, "scored outcome", DataError)


def test_unknown_reason_rejected():
    payload = dump(scored("Final answer: 24"))
    payload["reason"] = "gut-feeling"
    with pytest.raises(DataError, match="reason"):
        load(Outcome, payload, "scored outcome", DataError)


@pytest.mark.parametrize("task,dop", [("reasoning", "sp"), ("correction", None)])
def test_outcome_task_and_dop_must_form_a_mode(tmp_path, task, dop):
    payload = {**dump(scored("Final answer: 24")), "task": task, "dop": dop}
    with pytest.raises(DataError, match="^scored outcome: the .* task"):
        Outcome(**{**payload, "task": TaskKind(task), "dop": dop and DopLevel(dop)})
    # Read from a file, the refusal names the path and the line.
    path = tmp_path / "scored.jsonl"
    path.write_text("\n\n\n" + json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 4: scored outcome: the .* task"):
        load_scored(path)


def test_a_task_string_that_names_no_task_is_refused_by_name():
    fields = dict(triplet_id="t", dop=None, model="m", template_id="x",
                  extracted=None, success=False, reason="no-extraction")
    with pytest.raises(DataError, match="^scored outcome: unknown task 'solve'"):
        Outcome(task="solve", **fields)
    # a plain string that names a task still builds, as from a record
    assert Outcome(task="reasoning", **fields).task == TaskKind.REASONING


def test_what_an_outcome_may_hold_is_what_a_scored_file_may_hold(tmp_path):
    # Every (task, dop) pair, every reason and one unknown reason, each
    # with either success: an outcome is built exactly when the pair
    # names a mode, the reason is known and success is reason ==
    # "matched", and every outcome built reads back from a scored file.
    # A pair that names no mode is refused with why the task cannot
    # take that dop.
    built = []
    for task, dop in itertools.product(TaskKind, (None, *DopLevel)):
        names_a_mode = mode_for(task, dop) is not None
        for reason, success in itertools.product((*REASONS, "gut-feeling"), (False, True)):
            fields = dict(triplet_id=f"t-{reason}", task=task, dop=dop, model="m",
                          template_id="x@0", extracted=None, success=success, reason=reason)
            if names_a_mode and reason in REASONS and success == (reason == REASON_MATCHED):
                built.append(Outcome(**fields))
                continue
            with pytest.raises(DataError, match="^scored outcome: "):
                Outcome(**fields)
        if not names_a_mode:
            with pytest.raises(DataError, match=re.escape(MISPAIRED[task])):
                Outcome("t", task, dop, "m", "x@0", None, False, REASON_NO_EXTRACTION)
    assert len(built) == len(MODES) * len(REASONS)
    assert load_scored(write_scored(built, tmp_path / "scored.jsonl")) == built


def built_by_init(triplet, text, mode, *, model, template_id, error):
    """score's outcome as Outcome.__init__ builds it, every check run,
    from the rules score states."""
    extracted, reason = None, REASON_BACKEND_ERROR
    if error is None and text is not None:
        answer = extract(text)
        if answer is None:
            reason = REASON_NO_EXTRACTION
        else:
            extracted = answer.canonical
            reason = REASON_MATCHED if answer == triplet.reference_value else REASON_MISMATCHED
    return Outcome(
        triplet.id, *mode.value, model, template_id, extracted, reason == REASON_MATCHED, reason
    )


# Each reason's reply: a tail that ends the drawn text's last number (or
# its lack of one) in the reference value, another value, or no number.
REPLY_TAILS = {
    REASON_MATCHED: st.sampled_from(["\n#### 24", " The answer is 24.", " = 24.0", " $24"]),
    REASON_MISMATCHED: st.sampled_from(["\n#### 25", " Final answer: -24", " = 24.5", " 3/4"]),
    REASON_NO_EXTRACTION: st.just(""),
    REASON_BACKEND_ERROR: st.just(" 24"),
}


@given(
    st.sampled_from(MODES),
    st.sampled_from(REASONS),
    st.data(),
    st.text(max_size=8),
    st.text(max_size=8),
)
def test_score_gives_the_outcome_init_builds(mode, reason, data, model, template_id):
    """For every mode and every reason, score's outcome equals the one
    Outcome.__init__ builds from the mode's (task, dop) members, field for
    field and in each field's exact type."""
    digitless = st.text(st.characters(blacklist_categories=["Nd"]), max_size=20)
    text = data.draw(digitless if reason == REASON_NO_EXTRACTION else st.text(max_size=20))
    text += data.draw(REPLY_TAILS[reason])
    error = data.draw(st.text(max_size=8)) if reason == REASON_BACKEND_ERROR else None
    if reason == REASON_BACKEND_ERROR and data.draw(st.booleans()):
        text = None
    args = (make_triplet(), text, mode)
    fields = dict(model=model, template_id=template_id, error=error)
    expected = built_by_init(*args, **fields)
    got = score(*args, **fields)
    assert type(got) is Outcome
    assert got.reason == reason
    assert (got.task, got.dop) == mode.value
    for name in Outcome.__dataclass_fields__:
        assert type(getattr(got, name)) is type(getattr(expected, name))
        assert getattr(got, name) == getattr(expected, name)


# counting into quadrants


def outcome_pair(r_ok: bool, c_ok: bool) -> tuple[Outcome, Outcome]:
    r_text = "Final answer: 24" if r_ok else "Final answer: 1"
    c_text = "Final answer: 24" if c_ok else "Final answer: 1"
    return (
        scored(r_text),
        scored(c_text, PromptMode.SP),
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
    assert counts == QuadrantCounts(**{q.name.lower(): int(q is quadrant) for q in Quadrant})
