"""Prompt templates, rendering, and content addressing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mwpeval import (
    DataError,
    Dataset,
    ExperimentConfig,
    GenerationParams,
    ModelSpec,
    Outcome,
    UsageError,
    build_reports,
)
from mwpeval.prompting import (
    ALL_DOP_LEVELS,
    CORRECTION_MODES,
    MODES,
    NO_EXPLANATION,
    REASONING_MODE,
    REASONING_ONLY,
    REQUIRED_PLACEHOLDERS,
    PLACEHOLDER,
    DopLevel,
    PromptMode,
    TaskKind,
    Template,
    TemplateRegistry,
    compute_content_hash,
    mode_for,
    render,
    skip_reason,
)
from mwpeval.runner import build_cells

from conftest import make_triplet

REGISTRY = TemplateRegistry.load()


# modes


def test_reasoning_mode_has_no_dop_level():
    assert REASONING_MODE.task is TaskKind.REASONING
    assert REASONING_MODE.dop is None
    assert REASONING_MODE.key == "reasoning|-"


def test_correction_modes_cover_all_levels():
    assert set(CORRECTION_MODES) == set(ALL_DOP_LEVELS)
    assert CORRECTION_MODES[DopLevel.SP].key == "correction|sp"
    assert CORRECTION_MODES[DopLevel.SA].template_name == "correction_dop_sa"


def test_invalid_mode_combinations_rejected():
    # The five modes are the enum's only members, so a mispaired mode
    # cannot be built: pairs that name none look up as None.
    assert tuple(PromptMode) == MODES
    assert len(MODES) == 5
    for task, dop in [(TaskKind.REASONING, DopLevel.SP), (TaskKind.CORRECTION, None), ("solve", None)]:
        assert mode_for(task, dop) is None
    # Calling the enum looks a member up and creates none. Before 3.12 a
    # second argument names the members of a new enum, which raises too.
    with pytest.raises((TypeError, ValueError)):
        PromptMode("solve", DopLevel.SP)
    with pytest.raises(ValueError):
        PromptMode("solve")
    assert tuple(PromptMode) == MODES


# The mode vocabulary, in table order: key, (task, dop) as a record stores it.
VOCABULARY = [
    ("reasoning|-", "reasoning", None),
    ("correction|sp", "correction", "sp"),
    ("correction|dop_na", "correction", "dop_na"),
    ("correction|dop_be", "correction", "dop_be"),
    ("correction|dop_sa", "correction", "dop_sa"),
]


def test_the_mode_table_names_reads_back_orders_and_admits_each_mode(fixture_dataset):
    assert [(m.key, *m.record_fields.values()) for m in MODES] == VOCABULARY
    for mode, (_, task, dop) in zip(MODES, VOCABULARY):
        assert mode_for(task, dop) is mode
        assert mode_for(TaskKind(task), dop and DopLevel(dop)) is mode
        assert mode_for(**mode.record_fields) is mode
    assert mode_for("reasoning", "sp") is mode_for("correction", None) is None

    # Report rows follow the table, whatever order the outcomes come in.
    outcomes = [
        Outcome(t.id, mode.task, mode.dop, "m", "x@0", None, True, "matched")
        for t in fixture_dataset
        for mode in MODES
    ]
    random.Random(3).shuffle(outcomes)
    assert [r.mode for r in build_reports(outcomes)] == [m.dop for m in MODES[1:]]
    # An outcome that names no mode cannot be built, so none reaches a report.
    for task, dop in [(TaskKind.REASONING, DopLevel.SP), (TaskKind.CORRECTION, None)]:
        with pytest.raises(DataError, match=r"scored outcome: the \w+ task"):
            Outcome("t01", task, dop, "m", "x@0", None, True, "matched")

    # A cell exists exactly when the skip rule gives no reason: render
    # refuses the others, and build_cells counts them as the rule does.
    def spoil(t):
        if t.id == "t05":
            return dataclasses.replace(t, brief_explanation=None)
        if t.id in ("t06", "t11"):
            return dataclasses.replace(t, wrong_solution="", meta={"reasoning_only": True})
        return t

    dataset = Dataset([spoil(t) for t in fixture_dataset], source="spoiled")
    tally: Counter[str | None] = Counter()
    for triplet in dataset:
        for mode in MODES:
            reason = skip_reason(triplet, mode)
            tally[reason] += 1
            if reason is None:
                render(triplet, mode, registry=REGISTRY)
            else:
                with pytest.raises(DataError, match=f"{triplet.id} .*{reason}"):
                    render(triplet, mode, registry=REGISTRY)
    assert tally == {None: 91, REASONING_ONLY: 8, NO_EXPLANATION: 1}
    config = ExperimentConfig("d", ModelSpec("m", "scripted:x"), "out")
    cells, cached, skipped, no_explanation = build_cells(dataset, config)
    assert (len(cells), cached, skipped, no_explanation) == (91, 0, 8, 1)


def test_generation_params_validate():
    with pytest.raises(UsageError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(UsageError):
        GenerationParams(max_tokens=0)
    assert GenerationParams().to_dict() == {"temperature": 0.0, "max_tokens": 1024}


# rendering


def test_reasoning_prompt_contains_question_only():
    triplet = make_triplet()
    prompt = render(triplet, REASONING_MODE, registry=REGISTRY)
    assert triplet.question in prompt.text
    assert triplet.wrong_solution not in prompt.text
    assert prompt.triplet_id == triplet.id
    assert prompt.mode is REASONING_MODE


def test_correction_prompt_contains_question_and_wrong_solution():
    triplet = make_triplet()
    prompt = render(triplet, CORRECTION_MODES[DopLevel.SP], registry=REGISTRY)
    assert triplet.question in prompt.text
    assert triplet.wrong_solution in prompt.text
    # the plain level must not leak any reference material
    assert triplet.reference_numeric not in prompt.text
    assert triplet.reference_solution not in prompt.text


def test_each_dop_level_adds_its_resource_verbatim():
    triplet = make_triplet()
    by_level = {
        DopLevel.NA: triplet.reference_numeric,
        DopLevel.BE: triplet.brief_explanation,
        DopLevel.SA: triplet.reference_solution,
    }
    for level, resource in by_level.items():
        prompt = render(triplet, CORRECTION_MODES[level], registry=REGISTRY)
        assert resource in prompt.text, level


def test_full_solution_level_carries_most_context():
    # the resource ladder grows strictly from the plain level to the
    # full-solution level for this triplet
    triplet = make_triplet()
    sp = render(triplet, CORRECTION_MODES[DopLevel.SP], registry=REGISTRY)
    sa = render(triplet, CORRECTION_MODES[DopLevel.SA], registry=REGISTRY)
    assert triplet.reference_solution in sa.text
    assert triplet.reference_solution not in sp.text


def test_reasoning_only_triplet_cannot_be_corrected():
    triplet = make_triplet(wrong_solution="", meta={"reasoning_only": True})
    with pytest.raises(DataError, match="reasoning-only"):
        render(triplet, CORRECTION_MODES[DopLevel.SP], registry=REGISTRY)


def test_missing_explanation_blocks_the_be_level():
    triplet = make_triplet(brief_explanation=None)
    with pytest.raises(DataError, match="brief explanation"):
        render(triplet, CORRECTION_MODES[DopLevel.BE], registry=REGISTRY)
    # but the other levels still work
    render(triplet, CORRECTION_MODES[DopLevel.NA], registry=REGISTRY)


def test_substitution_is_single_pass():
    # braces inside triplet text must come through literally, not expand
    triplet = make_triplet(
        question="Compute {{question}} plus 6 eggs in 4 boxes?",
    )
    prompt = render(triplet, REASONING_MODE, registry=REGISTRY)
    assert "Compute {{question}} plus 6 eggs" in prompt.text


# Pieces of triplet text that a substitution could mistake for a
# placeholder, an escape or a group reference.
BRACED_TEXT = st.lists(
    st.sampled_from(["{{question}}", "{{", "}}", "{", "}", "\\", "\\1", "\\g<0>", "a", " ", "\n", "é"]),
    max_size=8,
).map("".join)


def substituted(template_text: str, triplet) -> str:
    """The reference render: one regex substitution over the template."""
    values = {
        "question": triplet.question,
        "wrong_solution": triplet.wrong_solution,
        "numeric_answer": triplet.reference_numeric,
        "brief_explanation": triplet.brief_explanation,
        "reference_solution": triplet.reference_solution,
    }
    return PLACEHOLDER.sub(lambda match: values[match.group(1)], template_text)


@given(
    question=BRACED_TEXT,
    wrong_solution=BRACED_TEXT,
    brief_explanation=BRACED_TEXT,
    reference_solution=BRACED_TEXT,
    around=st.lists(BRACED_TEXT, min_size=3, max_size=3),
)
def test_render_fills_a_template_as_one_regex_substitution(
    question, wrong_solution, brief_explanation, reference_solution, around
):
    triplet = make_triplet(
        question=question,
        wrong_solution=wrong_solution,
        brief_explanation=brief_explanation,
        reference_solution=reference_solution,
    )
    # a reasoning template whose own text is braced around two placeholders
    reasoning = "{{question}}".join(around)
    assume(set(PLACEHOLDER.findall(reasoning)) == {"question"})
    templates = {mode.template_name: REGISTRY.get(mode) for mode in MODES}
    templates["reasoning"] = Template("reasoning", "reasoning@braced", reasoning)
    for registry in (REGISTRY, TemplateRegistry(templates)):
        for mode in MODES:
            text = render(triplet, mode, registry=registry).text
            assert text == substituted(registry.get(mode).text, triplet)


# registry loading


def test_registry_lists_five_templates():
    ids = REGISTRY.template_ids()
    assert set(ids) == set(REQUIRED_PLACEHOLDERS)
    for name, template_id in ids.items():
        assert template_id.startswith(name + "@")
        assert len(template_id.split("@")[1]) == 8


def test_custom_dir_overrides_one_template(tmp_path):
    custom = (
        "Solve it.\n\nProblem:\n{{question}}\n\nEnd with: Final answer: <number>\n"
    )
    (tmp_path / "reasoning.txt").write_text(custom, encoding="utf-8")
    registry = TemplateRegistry.load(tmp_path)
    assert registry.get(REASONING_MODE).text == custom
    # untouched templates keep their bundled ids
    default = REGISTRY.template_ids()
    loaded = registry.template_ids()
    assert loaded["correction_sp"] == default["correction_sp"]
    assert loaded["reasoning"] != default["reasoning"]


def test_unknown_template_file_warned_and_ignored(tmp_path):
    (tmp_path / "mystery.txt").write_text("{{question}}", encoding="utf-8")
    with pytest.warns(UserWarning, match="mystery"):
        registry = TemplateRegistry.load(tmp_path)
    assert registry.template_ids() == REGISTRY.template_ids()


def test_missing_template_dir_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError, match="not found"):
        TemplateRegistry.load(tmp_path / "absent")


def test_override_with_wrong_placeholders_rejected(tmp_path):
    (tmp_path / "reasoning.txt").write_text("no placeholders", encoding="utf-8")
    with pytest.raises(DataError, match="placeholders"):
        TemplateRegistry.load(tmp_path)
    (tmp_path / "reasoning.txt").write_text(
        "{{question}} and {{wrong_solution}}", encoding="utf-8"
    )
    with pytest.raises(DataError, match="placeholders"):
        TemplateRegistry.load(tmp_path)


def test_a_template_filed_under_another_key_is_refused():
    templates = {mode.template_name: REGISTRY.get(mode) for mode in MODES}
    templates["reasoning"], templates["correction_sp"] = (
        templates["correction_sp"],
        templates["reasoning"],
    )
    with pytest.raises(DataError, match="template 'correction_sp' is filed as 'reasoning'"):
        TemplateRegistry(templates)


def test_a_template_under_an_unknown_name_is_refused_naming_the_known_ones():
    templates = {mode.template_name: REGISTRY.get(mode) for mode in MODES}
    templates["extra"] = Template("extra", "extra@00000000", "{{question}}")
    known = "correction_dop_be, correction_dop_na, correction_dop_sa, correction_sp, reasoning"
    message = f"unknown template 'extra'; known names: {known}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        TemplateRegistry(templates)


# content addressing


def test_content_hash_changes_with_every_ingredient():
    params = GenerationParams()
    base = compute_content_hash("reasoning@aaaaaaaa", "text", params)
    assert compute_content_hash("reasoning@bbbbbbbb", "text", params) != base
    assert compute_content_hash("reasoning@aaaaaaaa", "other", params) != base
    hot = GenerationParams(temperature=0.7)
    assert compute_content_hash("reasoning@aaaaaaaa", "text", hot) != base
    assert compute_content_hash("reasoning@aaaaaaaa", "text", params) == base


def hash_as_first_written(template_id: str, text: str, params: GenerationParams) -> str:
    """The content hash built from one json.dumps of the whole payload,
    as it was before the part ahead of the text was hashed once."""
    payload = json.dumps(
        {"template_id": template_id, "text": text, "params": params.to_dict()},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


TRICKY_TEXT = st.text(
    alphabet=st.sampled_from(['"', "\\", "\n", "\u2028", "\u0085", "\x00", "é", "€", "😀", "{", "}", "a", " "]),
    max_size=12,
)


@given(
    template_id=st.sampled_from(["reasoning@aaaaaaaa", 'correction_sp@"q\\"', "t@é"]),
    texts=st.lists(st.one_of(TRICKY_TEXT, st.text(max_size=12)), min_size=1, max_size=3),
    temperature=st.one_of(
        st.sampled_from([0, 0.0, 1, 1.0]), st.floats(0, 2, allow_nan=False)
    ),
    max_tokens=st.sampled_from([1, 256, 1024]),
)
def test_content_hash_equals_one_dump_of_the_whole_payload(template_id, texts, temperature, max_tokens):
    params = GenerationParams(temperature=temperature, max_tokens=max_tokens)
    for text in texts:
        assert compute_content_hash(template_id, text, params) == hash_as_first_written(
            template_id, text, params
        )


def test_equal_params_of_other_types_keep_their_own_hashes():
    # 0 == 0.0, yet the payload dumps them apart
    as_int, as_float = GenerationParams(temperature=0), GenerationParams(temperature=0.0)
    for params in (as_int, as_float, as_int):
        assert compute_content_hash("t@1", "x", params) == hash_as_first_written("t@1", "x", params)
    assert compute_content_hash("t@1", "x", as_int) != compute_content_hash("t@1", "x", as_float)


def test_rendered_prompts_differ_by_triplet_and_mode():
    a = make_triplet()
    b = make_triplet(
        id="x02",
        question="A crate holds 9 pears. How many pears in 3 crates?",
        reference_solution="Three crates hold 9 * 3 = 27 pears.",
        reference_numeric="27",
        brief_explanation="Three crates hold 9 * 3 = 27 pears.",
        wrong_solution="9 + 3 = 12 pears.",
    )
    hashes = set()
    for triplet in (a, b):
        for mode in [REASONING_MODE, *CORRECTION_MODES.values()]:
            hashes.add(render(triplet, mode, registry=REGISTRY).content_hash)
    assert len(hashes) == 10


def test_same_render_is_deterministic():
    triplet = make_triplet()
    first = render(triplet, REASONING_MODE, registry=REGISTRY)
    second = render(triplet, REASONING_MODE, registry=REGISTRY)
    assert first.content_hash == second.content_hash
    assert first.text == second.text
