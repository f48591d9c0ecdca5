"""The compiled line codec against the generic one, in both directions.

Each schema class's line encoder must write exactly what json_value
gives for the dumped dict, its decoder must accept and refuse exactly
what the generic load does, the fast JSON path must agree with
json.loads, and a fresh run must log the line of the RunRecord its
values build.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwpeval import (
    BackendError,
    CompletionResult,
    ConfigurationError,
    DataError,
    Dataset,
    ExperimentConfig,
    ModelSpec,
    Outcome,
    RunRecord,
    TaskKind,
    Triplet,
    run,
    save_dataset,
)
from mwpeval import _schema
from mwpeval._schema import dump, dump_line, json_value, line_encoder, load, read_jsonl
from mwpeval.prompting import MODES, DopLevel, TemplateRegistry, mode_for, render
from mwpeval.scoring import REASONS

from conftest import make_triplet

# Text that JSON escapes every way it can: control characters, quotes
# and backslashes, and non-ASCII, among it U+0085 and U+2028, which
# JSON leaves as they are but str.splitlines breaks a line at.
texts = st.text(
    alphabet=st.one_of(
        st.characters(codec="utf-8"), st.sampled_from('\x00\x1f\x7f\x85\u2028\u2029"\\%\xe9')
    ),
    max_size=20,
)
# A str-enum value stands where a str may.
strings = texts | st.sampled_from([*TaskKind, *DopLevel])
floats = st.floats()  # NaN and both infinities included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)

records = st.builds(
    RunRecord,
    run_id=strings,
    triplet_id=strings,
    model=strings,
    task=strings,
    dop=st.none() | strings,
    template_id=strings,
    content_hash=strings,
    prompt_text=strings,
    response_text=st.none() | strings,
    error=st.none() | strings,
    attempts=st.integers() | st.booleans(),
    latency_ms=floats | st.integers(),
    created_at=strings,
)
triplets = st.builds(
    Triplet,
    id=strings,
    question=strings,
    reference_solution=strings,
    reference_numeric=strings,
    brief_explanation=st.none() | strings,
    wrong_solution=strings,
    source=strings,
    meta=st.dictionaries(texts, json_values, max_size=3),
)
outcomes = st.builds(
    lambda mode, **fields: Outcome(task=mode.task, dop=mode.dop, **fields),
    mode=st.sampled_from(MODES),
    triplet_id=strings,
    model=strings,
    template_id=strings,
    extracted=st.none() | strings,
    success=st.booleans(),
    reason=st.sampled_from(REASONS),
)


# the encoder


@given(st.one_of(records, triplets, outcomes))
def test_a_line_is_what_json_value_gives_for_the_dumped_dict(obj):
    line = dump_line(obj)
    assert line == json_value(dump(obj)) == json.dumps(dump(obj), ensure_ascii=False)
    values = [getattr(obj, name) for name in _schema._schema(type(obj)).order]
    encode = line_encoder(type(obj))
    assert encode(*values) == line
    assert encode(**dict(zip(_schema._schema(type(obj)).order, values))) == line


@given(strings)
def test_json_text_is_written_as_it_is(text):
    record = RunRecord("r", "t", "m", "reasoning", None, "i", "h", text, None, None, 1, 0.0, "c")
    values = [getattr(record, name) for name in _schema._schema(RunRecord).order]
    values[7] = _schema.JsonText(json_value(text))
    assert line_encoder(RunRecord)(*values) == record.to_json_line()


# the decoder


def valid_payload(obj) -> dict:
    return json.loads(dump_line(obj))


@st.composite
def payloads(draw):
    """A payload for RunRecord or Triplet: a valid one, or one with a key
    left out, a key added, a value of any JSON type in place of one, or
    no object at all."""
    obj = draw(st.one_of(records, triplets))
    payload = valid_payload(obj)
    change = draw(st.sampled_from(["none", "drop", "add", "retype", "not an object"]))
    if change == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif change == "add":
        payload[draw(texts)] = draw(json_values)
    elif change == "retype":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(json_values)
    elif change == "not an object":
        payload = draw(json_values)
    return type(obj), payload


def outcome_of(build) -> tuple:
    try:
        value = build()
    except (DataError, ConfigurationError) as exc:
        return "refused", type(exc), str(exc)
    return "built", type(value), repr(value), value


@given(payloads(), st.sampled_from([DataError, ConfigurationError]))
def test_the_decoder_accepts_and_refuses_what_the_generic_load_does(drawn, error):
    cls, payload = drawn
    schema = _schema._schema(cls)
    generic = outcome_of(lambda: _schema._load(schema, cls, payload, "thing", error, " at line 3"))
    assert outcome_of(lambda: load(cls, payload, "thing", error, " at line 3")) == generic
    decoded = schema.decode(payload)
    if decoded is not None:
        assert generic[0] == "built"
        assert (type(decoded), repr(decoded), decoded) == generic[1:]
    elif error is DataError:  # a config may leave out defaulted keys
        assert generic[0] == "refused"


def test_only_the_classes_built_without_init_have_a_decoder():
    with_decoder = [
        cls
        for cls in (RunRecord, Triplet, Outcome, ModelSpec, ExperimentConfig)
        if _schema._schema(cls).decode is not None
    ]
    assert with_decoder == [RunRecord, Triplet]


# the fast JSON path


# JSON whitespace is " \t\n\r"; str.isspace also takes the rest.
around = st.lists(
    st.sampled_from(
        [
            "", "\n", " ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
            "\xa0", "\u2028", "\u3000", "\ufeff",
        ]
    ),
    max_size=2,
).map("".join)


def decoded(decode, text: str) -> tuple:
    try:
        value = decode(text)
    except ValueError as exc:
        return "refused", type(exc), str(exc)
    return "decoded", json.dumps(value)


@given(around, json_values.map(json.dumps) | texts, around)
def test_the_fast_json_path_agrees_with_json_loads(before, body, after):
    text = before + body + after
    assert decoded(_schema._json_line, text) == decoded(json.loads, text)


@pytest.mark.parametrize("tail", ["\x0b", "\x1c", "\u2028", "\xa0", " ", "\r"])
def test_a_line_with_a_trailing_character_reads_as_json_loads_reads_it(tmp_path, tail):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}' + tail + "\n", encoding="utf-8")

    def rows():
        return list(read_jsonl(path, "row", DataError))

    try:
        expected = [(1, json.loads('{"a": 1}' + tail + "\n"))]
    except ValueError as exc:
        with pytest.raises(DataError, match=re.escape(f"line 1: invalid JSON: {exc}")):
            rows()
    else:
        assert rows() == expected


# a fresh run's line


class Replies:
    """Answers each mode as drawn: a CompletionResult, or a BackendError
    with the drawn message."""

    def __init__(self, replies: dict) -> None:
        self.replies = replies

    def complete(self, prompt):
        reply = self.replies[prompt.mode]
        if isinstance(reply, str):
            raise BackendError(reply)
        return reply


non_blank = texts.filter(str.strip)
replies = st.one_of(
    texts,
    st.builds(CompletionResult, text=texts, latency_ms=floats, attempts=st.integers(1, 10**20)),
)


@given(
    non_blank,
    non_blank,
    non_blank,
    st.none() | non_blank,
    st.fixed_dictionaries({mode: replies for mode in MODES}),
)
def test_a_fresh_runs_line_is_the_line_of_the_record_its_values_build(
    triplet_id, question, wrong_solution, brief_explanation, drawn
):
    triplet = make_triplet(
        id=triplet_id,
        question=question,
        wrong_solution=wrong_solution,
        brief_explanation=brief_explanation,
    )
    with tempfile.TemporaryDirectory() as tmp:
        config = ExperimentConfig(
            dataset=str(save_dataset(Dataset([triplet]), Path(tmp) / "d.jsonl")),
            model=ModelSpec(name="m\xf6del", endpoint="http://unused.invalid"),
            output_dir=str(Path(tmp) / "out"),
        )
        run(config, backend=Replies(drawn))
        lines = (Path(tmp) / "out" / "records.jsonl").read_text(encoding="utf-8").split("\n")
        run_id = json.loads((Path(tmp) / "out" / "manifest.json").read_text())["run_id"]
    assert lines.pop() == ""
    assert len(lines) == (5 if brief_explanation is not None else 4)
    registry = TemplateRegistry.load()
    for line in lines:
        logged = json.loads(line)
        mode = mode_for(logged["task"], logged["dop"])
        prompt = render(triplet, mode, config.model.params, registry)
        reply = drawn[mode]
        failed = isinstance(reply, str)
        record = RunRecord(
            run_id=run_id,
            triplet_id=triplet.id,
            model=config.model.name,
            **mode.record_fields,
            template_id=prompt.template_id,
            content_hash=prompt.content_hash,
            prompt_text=prompt.text,
            response_text=None if failed else reply.text,
            error=reply if failed else None,
            attempts=0 if failed else reply.attempts,
            latency_ms=0.0 if failed else reply.latency_ms,
            created_at=logged["created_at"],
        )
        assert line == json.dumps(dump(record), ensure_ascii=False) == record.to_json_line()
