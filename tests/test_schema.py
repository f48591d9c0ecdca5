"""The one strict codec behind every file the harness reads or writes."""

from __future__ import annotations

import dataclasses
import datetime
import gc
import itertools
import json
import os
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mwpeval
from mwpeval import (
    ConfigurationError,
    DataError,
    Dataset,
    DopLevel,
    ExperimentConfig,
    ModelSpec,
    Outcome,
    RunRecord,
    TaskKind,
    Triplet,
    load_dataset,
    published_reports,
    save_dataset,
    score,
    write_report_bundle,
    write_scored,
)
from mwpeval._schema import dump, json_text, load, utc_now, write_atomic
from mwpeval.cli import main

from conftest import DATA_DIR, load_line, make_triplet


def triplet_payload() -> dict:
    return json.loads(make_triplet().to_json_line())


def record_payload() -> dict:
    return dict(
        run_id="r1",
        triplet_id="x01",
        model="m",
        task="reasoning",
        dop=None,
        template_id="reasoning@deadbeef",
        content_hash="c" * 64,
        prompt_text="...",
        response_text="#### 24",
        error=None,
        attempts=1,
        latency_ms=3.5,
        created_at="2024-01-01T00:00:00Z",
    )


def outcome_payload() -> dict:
    outcome = score(make_triplet(), "Final answer: 24", TaskKind.CORRECTION, DopLevel.SP)
    return json.loads(json.dumps(outcome.to_dict()))


def model_payload() -> dict:
    return {"name": "m", "endpoint": "scripted:responses.jsonl"}


def config_payload() -> dict:
    return {"dataset": "d.jsonl", "model": model_payload(), "output_dir": "out"}


# name -> (loader taking a decoded payload, valid payload, error class,
#          a wrong-typed field, an unknown enum value or None)
LOADERS = {
    "triplet": (
        lambda p: load(Triplet, p, "triplet", DataError, " at line 7"),
        triplet_payload,
        DataError,
        ("question", 5),
        None,
    ),
    "run record": (
        lambda p: load(RunRecord, p, "run record", DataError, " at line 7"),
        record_payload,
        DataError,
        ("attempts", "1"),
        None,
    ),
    "scored outcome": (
        lambda p: load(Outcome, p, "scored outcome", DataError, " at line 7"),
        outcome_payload,
        DataError,
        ("success", "false"),
        ("task", "solve"),
    ),
    "config": (
        ExperimentConfig.from_dict,
        config_payload,
        ConfigurationError,
        ("concurrency", "2"),
        ("modes", ["sp", "dop_xx"]),
    ),
    "model config": (
        lambda p: load(ModelSpec, p, "model config", ConfigurationError),
        model_payload,
        ConfigurationError,
        ("timeout", "5"),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_payload_loads(name):
    loader, valid, _, _, _ = LOADERS[name]
    assert loader(valid()) is not None


@pytest.mark.parametrize("value", [5, None, [1, 2], "text"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_non_object_is_rejected(name, value):
    loader, _, error, _, _ = LOADERS[name]
    with pytest.raises(error, match="not a JSON object"):
        loader(value)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_wrong_typed_field_is_rejected(name):
    loader, valid, error, (key, bad), _ = LOADERS[name]
    payload = {**valid(), key: bad}
    with pytest.raises(error, match=repr(key)) as info:
        loader(payload)
    if error is DataError:
        assert "line 7" in str(info.value)


def test_a_post_init_refusal_names_the_line():
    payload = {**outcome_payload(), "task": "reasoning", "dop": "sp"}
    message = "the reasoning task takes no correction mode"
    with pytest.raises(DataError, match=f"^scored outcome at line 7: {message}$"):
        load(Outcome, payload, "scored outcome", DataError, " at line 7")
    with pytest.raises(DataError, match=f"^scored outcome: {message}$"):
        load(Outcome, payload, "scored outcome", DataError)


@pytest.mark.parametrize(
    "name", sorted(name for name, spec in LOADERS.items() if spec[4] is not None)
)
def test_unknown_enum_value_is_rejected(name):
    loader, valid, error, _, (key, bad) = LOADERS[name]
    with pytest.raises(error, match=repr(key)):
        loader({**valid(), key: bad})


def test_success_string_is_not_a_boolean():
    payload = {**outcome_payload(), "success": "false"}
    with pytest.raises(DataError, match="'success' must be a boolean"):
        load(Outcome, payload, "scored outcome", DataError)


def test_bool_is_not_a_number():
    with pytest.raises(ConfigurationError, match="'timeout'"):
        load(ModelSpec, {**model_payload(), "timeout": True}, "model config", ConfigurationError)
    with pytest.raises(DataError, match="'attempts'"):
        load(RunRecord, {**record_payload(), "attempts": True}, "run record", DataError)


def test_int_for_float_is_kept_as_given():
    spec = load(ModelSpec, {**model_payload(), "timeout": 30}, "model config", ConfigurationError)
    assert json.dumps(spec.to_dict()["timeout"]) == "30"


def test_configs_take_defaults_but_data_files_do_not():
    spec = load(ModelSpec, model_payload(), "model config", ConfigurationError)
    assert spec.timeout == 120.0
    payload = triplet_payload()
    del payload["meta"]
    with pytest.raises(DataError, match="missing required keys"):
        load(Triplet, payload, "triplet", DataError)


def test_nested_config_round_trips_and_names_its_part():
    config = ExperimentConfig.from_dict(
        {**config_payload(), "tasks": ["correction"], "modes": ["dop_na", "sp"]}
    )
    assert config.tasks == (TaskKind.CORRECTION,)
    assert config.modes == (DopLevel.NA, DopLevel.SP)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    bad = {**config_payload(), "model": {**model_payload(), "retry": {"max_attempts": 2.5}}}
    with pytest.raises(ConfigurationError, match="bad config: bad model: retry: 'max_attempts'"):
        ExperimentConfig.from_dict(bad)


# a loaded value is the value __init__ builds


def built_values() -> list:
    return [RunRecord(**record_payload()), make_triplet()]


@pytest.mark.parametrize("built", built_values(), ids=lambda value: type(value).__name__)
def test_a_loaded_value_is_the_built_one(built):
    cls = type(built)
    loaded = load_line(cls, built.to_json_line())
    assert type(loaded) is cls
    assert loaded == built
    assert repr(loaded) == repr(built)
    assert dump(loaded) == dump(built)
    key = {RunRecord: "triplet_id", Triplet: "id"}[cls]
    changed = dataclasses.replace(loaded, **{key: "x02"})
    assert type(changed) is cls
    assert changed == dataclasses.replace(built, **{key: "x02"}) != loaded
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(loaded, field.name, getattr(loaded, field.name))
    if cls is RunRecord:  # a Triplet's meta dict makes it unhashable
        assert hash(loaded) == hash(built)


def test_a_loaded_triplet_keeps_its_reference_value_cached():
    loaded = load_line(Triplet, make_triplet().to_json_line())
    first = loaded.reference_value
    assert first.value == 24
    assert loaded.reference_value is first


def test_loaded_records_take_no_more_memory_than_built_ones():
    payloads = [
        json.loads(json.dumps({**record_payload(), "run_id": f"r{i}"})) for i in range(1000)
    ]
    load(RunRecord, payloads[0], "run record", DataError)  # tables built untraced

    def traced(build) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            kept = [build(payload) for payload in payloads]
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    built = traced(lambda payload: RunRecord(**payload))
    loaded = traced(lambda payload: load(RunRecord, payload, "run record", DataError))
    assert loaded <= built


texts = st.text(max_size=20)
record_fields = st.fixed_dictionaries(
    {
        "run_id": texts,
        "triplet_id": texts,
        "model": texts,
        "task": texts,
        "dop": st.none() | texts,
        "template_id": texts,
        "content_hash": texts,
        "prompt_text": texts,
        "response_text": st.none() | texts,
        "error": st.none() | texts,
        "attempts": st.integers(),
        "latency_ms": st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
        "created_at": texts,
    }
)


@given(record_fields)
def test_any_record_reads_back_as_built(fields):
    record = RunRecord(**fields)
    loaded = load_line(RunRecord, record.to_json_line())
    assert loaded == record
    assert loaded.to_json_line() == record.to_json_line()


@given(record_fields)
def test_a_record_line_is_what_json_dumps_gives(fields):
    record = RunRecord(**fields)
    assert record.to_json_line() == json.dumps(dump(record), ensure_ascii=False)


@given(
    st.builds(
        make_triplet,
        id=texts,
        question=texts,
        brief_explanation=st.none() | texts,
        meta=st.dictionaries(texts, st.none() | st.booleans() | st.integers() | texts),
    )
)
def test_any_triplet_reads_back_as_built(triplet):
    loaded = load_line(Triplet, triplet.to_json_line())
    assert loaded == triplet
    assert loaded.to_json_line() == triplet.to_json_line()


# every timestamp is one format, formatted once per second

TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ")


def utc_text(second: int) -> str:
    return datetime.datetime.fromtimestamp(second, datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def test_utc_now_is_the_current_utc_second():
    before = datetime.datetime.now(datetime.timezone.utc)
    now = utc_now()
    after = datetime.datetime.now(datetime.timezone.utc)
    assert TIMESTAMP.fullmatch(now)
    assert now in {t.strftime("%Y-%m-%dT%H:%M:%SZ") for t in (before, after)}


def test_utc_now_changes_exactly_at_a_second_boundary(monkeypatch):
    boundary = 1_700_000_000 * 10**9
    clock = iter([boundary - 10**9, boundary - 1, boundary - 1, boundary, boundary + 10**9 - 1])
    monkeypatch.setattr(time, "time_ns", lambda: next(clock))
    texts = [utc_now() for _ in range(5)]
    early, late = utc_text(1_699_999_999), utc_text(1_700_000_000)
    assert texts == [early, early, early, late, late]
    assert late == "2023-11-14T22:13:20Z"


def test_utc_now_across_threads_gives_each_call_its_own_second(monkeypatch):
    """8 threads x 1,000 calls on a clock that moves 10 ms per read, so
    the threads race across 80 second boundaries: each call gets the
    text of the second its own clock read fell in."""
    ticks = itertools.count(1_700_000_000 * 10**9, 10**7)
    read = threading.local()

    def time_ns():
        read.ns = next(ticks)
        return read.ns

    monkeypatch.setattr(time, "time_ns", time_ns)
    wrong: list[tuple[int, str]] = []
    start = threading.Barrier(8)

    def calls():
        start.wait()
        for _ in range(1000):
            text = utc_now()
            if text != utc_text(read.ns // 10**9):
                wrong.append((read.ns, text))

    threads = [threading.Thread(target=calls) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert next(ticks) == (1_700_000_000 + 80) * 10**9


# every whole file is replaced, never cut


def test_write_atomic_streams_chunks_into_a_new_dir(tmp_path):
    path = tmp_path / "new" / "dir" / "rows.jsonl"
    assert write_atomic(path, (f"{i}\n" for i in range(3))) == path
    assert path.read_text(encoding="utf-8") == "0\n1\n2\n"
    assert write_atomic(str(path), "é\r\n") == path
    assert path.read_bytes() == "é\r\n".encode("utf-8")
    assert [p.name for p in path.parent.iterdir()] == ["rows.jsonl"]


def test_json_text_is_the_one_json_file_encoding():
    assert json_text({"b": "é", "a": [1]}) == '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'


class Killed(Exception):
    """Stands for a process killed part way through a write."""


def first(count: int) -> Dataset:
    fixture = load_dataset(DATA_DIR / "fixture_triplets.jsonl")
    return Dataset(fixture.triplets[:count], source=f"first-{count}")


def outcomes(count: int) -> list[Outcome]:
    return [score(t, "#### 24", TaskKind.REASONING, None, model="m") for t in first(count)]


def cut_after(rows, count):
    for index, row in enumerate(rows):
        if index == count:
            raise Killed(f"killed after {count} rows")
        yield row


# Each writes the old file under tmp_path, then returns the write that
# would replace it with other bytes.


def dataset_write(tmp_path, monkeypatch):
    path = save_dataset(first(20), tmp_path / "d.jsonl")
    return lambda: save_dataset(first(5), path)


def rejects_write(tmp_path, monkeypatch):
    def ingest(source, name):
        argv = ["ingest", "--source", source, "--input", str(DATA_DIR / name),
                "--output", str(tmp_path / f"{source}.jsonl"),
                "--rejects", str(tmp_path / "rejects.json")]
        assert main(argv) == 0

    ingest("mathdial", "mathdial_sample.jsonl")
    return lambda: ingest("triplets", "fixture_triplets.jsonl")


def scored_write(tmp_path, monkeypatch):
    path = write_scored(outcomes(20), tmp_path / "scored.jsonl")
    return lambda: write_scored(outcomes(5), path)


def report_write(tmp_path, monkeypatch):
    reports = published_reports()
    write_report_bundle(reports, tmp_path / "report")
    return lambda: write_report_bundle(reports[:3], tmp_path / "report")


def dataset_write_cut_after_3_rows(tmp_path, monkeypatch):
    path = save_dataset(first(20), tmp_path / "d.jsonl")
    smaller = first(5)
    to_json_line = Triplet.to_json_line
    calls = itertools.count()

    def cut(self):
        if next(calls) == 3:
            raise Killed("killed after 3 rows")
        return to_json_line(self)

    monkeypatch.setattr(Triplet, "to_json_line", cut)
    return lambda: save_dataset(smaller, path)


def scored_write_cut_after_3_rows(tmp_path, monkeypatch):
    path = write_scored(outcomes(20), tmp_path / "scored.jsonl")
    return lambda: write_scored(cut_after(outcomes(5), 3), path)


REPORT_FILES = ["report.json", "report.md", "report.csv", "chart_data.json", "chart.svg"]


@pytest.mark.parametrize(
    "target, prepare",
    [
        ("d.jsonl", dataset_write),
        ("d.jsonl.manifest.json", dataset_write),
        ("rejects.json", rejects_write),
        ("scored.jsonl", scored_write),
        *((f"report/{name}", report_write) for name in REPORT_FILES),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_a_write_killed_before_its_rename_leaves_the_old_file_whole(
    tmp_path, monkeypatch, target, prepare
):
    write = prepare(tmp_path, monkeypatch)
    path = tmp_path / target
    before = path.read_bytes()
    replace_file = os.replace

    def killed_at_the_target(source, destination):
        if Path(destination) == path:
            raise Killed("killed between the temp write and the replace")
        replace_file(source, destination)

    monkeypatch.setattr(mwpeval._schema.os, "replace", killed_at_the_target)
    with pytest.raises(Killed):
        write()
    assert path.read_bytes() == before
    assert list(tmp_path.rglob("*.tmp")) == []
    monkeypatch.undo()
    write()  # the same write, not killed, does change the file
    assert path.read_bytes() != before


@pytest.mark.parametrize(
    "target, prepare",
    [
        ("d.jsonl", dataset_write_cut_after_3_rows),
        ("scored.jsonl", scored_write_cut_after_3_rows),
    ],
    ids=["dataset", "scored"],
)
def test_a_write_killed_part_way_through_its_rows_leaves_the_old_file_whole(
    tmp_path, monkeypatch, target, prepare
):
    write = prepare(tmp_path, monkeypatch)
    path = tmp_path / target
    before = path.read_bytes()
    with pytest.raises(Killed):
        write()
    assert path.read_bytes() == before
    assert list(tmp_path.rglob("*.tmp")) == []
