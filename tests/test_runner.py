"""Run orchestration: record log, caching, resume, and rescoring."""

from __future__ import annotations

import fcntl
import json
import logging
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwpeval import (
    CompletionResult,
    DataError,
    Dataset,
    DopLevel,
    ExperimentConfig,
    GenerationParams,
    ModelSpec,
    Outcome,
    RetryPolicy,
    ScriptedBackend,
    TaskKind,
    Triplet,
    UsageError,
    build_reports,
    load_dataset,
    load_records,
    load_scored,
    rescore,
    run,
    save_dataset,
    write_scored,
)
import mwpeval._schema
import mwpeval.prompting
import mwpeval.runner
import mwpeval.triplets
from mwpeval.prompting import CORRECTION_MODES, REASONING_MODE, TemplateRegistry, render
from mwpeval.runner import RunRecord, _RecordWriter, _stream_records, build_cells, index_records

from conftest import (
    DATA_DIR,
    fixture_without_explanation,
    load_line,
    load_whole_log,
    make_triplet,
)

FIXTURE_DATASET = DATA_DIR / "fixture_triplets.jsonl"
SCRIPTED = DATA_DIR / "scripted_responses.jsonl"
GOLDEN_HASHES = DATA_DIR / "golden_hashes.txt"


def record_with(**overrides) -> RunRecord:
    fields = dict(
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
    fields.update(overrides)
    return RunRecord(**fields)


def sp_config(output_dir: Path, **overrides) -> ExperimentConfig:
    fields = dict(
        dataset=str(FIXTURE_DATASET),
        model=ModelSpec(name="fixture-model", endpoint=f"scripted:{SCRIPTED}"),
        output_dir=str(output_dir),
        modes=(DopLevel.SP,),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class ExplodingBackend:
    """Delegates until the fuse burns, then raises on every call.
    Simulates a crash."""

    def __init__(self, inner, fuse: int, error: type[BaseException] = RuntimeError):
        self.inner = inner
        self.fuse = fuse
        self.error = error
        self.calls = 0
        self.raised: list[BaseException] = []
        self._lock = threading.Lock()

    def complete(self, prompt):
        with self._lock:
            self.calls += 1
            if self.calls > self.fuse:
                self.raised.append(self.error("simulated crash"))
                raise self.raised[-1]
        return self.inner.complete(prompt)


# record log


def test_record_round_trips():
    record = record_with()
    assert load_line(RunRecord, record.to_json_line()) == record


def test_record_schema_is_strict():
    payload = json.loads(record_with().to_json_line())
    payload["notes"] = "hm"
    with pytest.raises(DataError, match="unexpected"):
        load_line(RunRecord, json.dumps(payload))


def test_record_mode_property():
    assert record_with().mode.key == "reasoning|-"
    assert record_with(task="correction", dop="dop_be").mode.key == "correction|dop_be"


@pytest.mark.parametrize(
    "task, dop",
    [("solve", None), ("correction", None), ("reasoning", "sp"), ("correction", "dop_xx")],
)
def test_record_mode_refuses_unknown_pairs(task, dop):
    with pytest.raises(DataError, match=r"triplet 'x01'.*unknown \(task, dop\) pair"):
        record_with(task=task, dop=dop).mode
    # A scored outcome refuses the same pairs.
    outcome = {"triplet_id": "x01", "task": task, "dop": dop, "model": "m",
               "template_id": "t@0", "extracted": None, "success": False,
               "reason": "no-extraction"}
    with pytest.raises(DataError, match="scored outcome"):
        mwpeval._schema.load(Outcome, outcome, "scored outcome", DataError)


def test_load_records_missing_file_is_empty(tmp_path):
    assert load_records(tmp_path / "records.jsonl") == []


def test_torn_final_line_is_dropped(tmp_path):
    path = tmp_path / "records.jsonl"
    good = record_with().to_json_line()
    path.write_text(good + "\n" + good[: len(good) // 2], encoding="utf-8")
    records = load_records(path)
    assert len(records) == 1


def test_torn_middle_line_is_corruption(tmp_path):
    path = tmp_path / "records.jsonl"
    good = record_with().to_json_line()
    path.write_text("{torn\n" + good + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_records(path)


def test_torn_multibyte_tail_is_dropped(tmp_path):
    path = tmp_path / "records.jsonl"
    good = record_with().to_json_line().encode()
    wide = record_with(prompt_text="€" * 20).to_json_line().encode()
    cut = wide.index("€".encode()) + 1  # inside the first euro sign
    path.write_bytes(good + b"\n" + wide[:cut])
    assert load_records(path) == [record_with()]


def test_line_separators_inside_strings_are_not_line_breaks(tmp_path):
    path = tmp_path / "records.jsonl"
    record = record_with(response_text="a\u2028b\u0085c #### 24")
    path.write_text(record.to_json_line() + "\n", encoding="utf-8")
    assert load_records(path) == [record]


@pytest.mark.parametrize("after", ["\n", "   \n", " \t"])
def test_a_torn_line_followed_by_a_blank_line_is_corruption(tmp_path, after):
    path = tmp_path / "records.jsonl"
    good = record_with().to_json_line()
    path.write_text(good + "\n" + good[:-5] + "\n" + after, encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_records(path)


def test_index_keeps_latest_but_never_drops_a_success():
    ok = record_with(response_text="#### 24", error=None)
    newer_error = record_with(response_text=None, error="boom", attempts=0)
    retried_ok = record_with(response_text="#### 25")
    kept = []
    key = ("m", "x01", REASONING_MODE)

    def keep(record, mode):
        assert mode is record.mode
        kept.append(record)
        return record

    # success then error: the success stays, and the error is never kept
    assert index_records([ok, newer_error], keep)[key] is ok
    assert kept == [ok]
    # error then success: the success replaces it
    assert index_records([newer_error, ok], keep)[key] is ok
    # success then success: latest wins
    assert index_records([ok, retried_ok], keep)[key] is retried_ok
    # only what keep returns is held per key
    texts = index_records([ok, newer_error], lambda record, mode: record.response_text)
    assert texts == {key: "#### 24"}
    # the key is the cell's identity, with the shared mode, whatever its hash
    (only,) = index_records([ok, replace(retried_ok, content_hash="d" * 64)], keep)
    assert only == key and only[2] is REASONING_MODE
    others = [
        replace(ok, model="m2"),
        replace(ok, triplet_id="x02"),
        replace(ok, task="correction", dop="sp"),
    ]
    assert len(index_records([ok, *others], keep)) == 4


# cell planning


def rendered(cells, config):
    """The planned (triplet, mode) cells rendered as a run renders them."""
    registry = TemplateRegistry.load(config.templates_dir)
    return [render(triplet, mode, config.model.params, registry) for triplet, mode in cells]


def test_build_cells_covers_tasks_times_modes(fixture_dataset, tmp_path):
    config = sp_config(tmp_path, modes=tuple(DopLevel))
    cells, cached, skipped, no_explanation = build_cells(fixture_dataset, config)
    assert len(cells) == 20 + 20 * 4
    assert cached == skipped == no_explanation == 0


def test_build_cells_matches_the_golden_hashes(fixture_dataset, tmp_path):
    """Every fixture cell's content hash under the default params. A
    render change fails here until this file is regenerated."""
    config = sp_config(tmp_path, modes=tuple(DopLevel))
    cells, _, _, _ = build_cells(fixture_dataset, config)
    got = [f"{c.triplet_id} {c.mode.key} {c.content_hash}" for c in rendered(cells, config)]
    assert got == GOLDEN_HASHES.read_text(encoding="utf-8").splitlines()


def test_build_cells_skips_reasoning_only_in_correction(tmp_path):
    solver_only = make_triplet(
        id="g01",
        question="A pack holds 8 pens. How many pens are in 3 packs?",
        reference_solution="Three packs hold 8 * 3 = 24 pens.",
        brief_explanation="Three packs hold 8 * 3 = 24 pens.",
        wrong_solution="",
        meta={"reasoning_only": True},
    )
    dataset = Dataset([make_triplet(), solver_only])
    config = sp_config(tmp_path, modes=(DopLevel.SP, DopLevel.NA))
    cells, cached, skipped, no_explanation = build_cells(dataset, config)
    assert skipped == 2  # one per correction mode
    assert no_explanation == 0
    assert len(cells) == 2 + 2


def test_build_cells_rejects_duplicate_prompt_content(tmp_path):
    twin = make_triplet(id="x02")  # same texts as x01, different id
    dataset = Dataset([make_triplet(), twin])
    config = sp_config(tmp_path)
    with pytest.raises(DataError, match="collision"):
        build_cells(dataset, config)


# experiment config


def test_config_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown config keys"):
        ExperimentConfig.from_dict(
            {"dataset": "d", "model": {"name": "m", "endpoint": "e"}, "output_dir": "o", "oops": 1}
        )


def test_config_requires_dataset_model_output():
    with pytest.raises(UsageError, match="missing required key"):
        ExperimentConfig.from_dict({"dataset": "d"})


def test_config_validates_fields(tmp_path):
    with pytest.raises(UsageError, match="concurrency"):
        sp_config(tmp_path, concurrency=0)
    with pytest.raises(UsageError, match="repeat"):
        sp_config(tmp_path, modes=(DopLevel.SP, DopLevel.SP))
    with pytest.raises(UsageError, match="at least one mode"):
        sp_config(tmp_path, modes=())


def test_config_file_round_trip(tmp_path):
    config = sp_config(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert ExperimentConfig.from_json_file(path) == config
    with pytest.raises(UsageError, match="not found"):
        ExperimentConfig.from_json_file(tmp_path / "absent.json")


# running


def test_run_completes_all_cells(tmp_path):
    config = sp_config(tmp_path / "out")
    backend = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=backend)

    assert summary.total_cells == 40
    assert summary.fresh == 40
    assert summary.cached == 0
    assert summary.failed == 0
    assert backend.calls == 40

    records = load_records(summary.records_path)
    assert len(records) == 40
    assert all(r.error is None for r in records)

    manifest = json.loads((summary.run_dir / "manifest.json").read_text())
    assert manifest["cells"] == {
        "total": 40,
        "cached": 0,
        "fresh": 40,
        "failed": 0,
        "skipped_reasoning_only": 0,
        "skipped_no_explanation": 0,
    }
    assert manifest["model"] == "fixture-model"
    assert len(manifest["dataset"]["digest"]) == 64
    assert (summary.run_dir / "config.json").exists()


def test_rerun_is_free(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert summary.cached == 40
    assert summary.fresh == 0
    assert second.calls == 0  # nothing was re-queried


def test_interrupted_run_resumes_without_redoing_work(tmp_path):
    config = sp_config(tmp_path / "out")
    first = ExplodingBackend(ScriptedBackend(SCRIPTED), fuse=20)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run(config, backend=first)
    assert first.inner.calls == 20
    assert len(load_records(Path(config.output_dir) / "records.jsonl")) == 20

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert summary.cached == 20
    assert summary.fresh == 20
    assert summary.failed == 0
    assert second.calls == 20
    # across both runs every cell was queried exactly once
    assert first.inner.calls + second.calls == summary.total_cells


def complete_log(directory: Path) -> bytes:
    config = sp_config(directory)
    run(config, backend=ScriptedBackend(SCRIPTED))
    return (directory / "records.jsonl").read_bytes()


def test_resume_after_a_torn_tail_appends_on_a_fresh_line(tmp_path):
    lines = complete_log(tmp_path / "full").splitlines(keepends=True)
    out = tmp_path / "out"
    shutil.copytree(tmp_path / "full", out)
    (out / "records.jsonl").write_bytes(b"".join(lines[:10]) + lines[10][:-40])
    config = sp_config(out)
    first = run(config, backend=ScriptedBackend(SCRIPTED))
    assert (first.cached, first.fresh) == (10, 30)
    second = run(config, backend=ScriptedBackend(SCRIPTED))
    assert (second.cached, second.fresh) == (40, 0)
    assert len(load_whole_log(out / "records.jsonl")) == 40


def test_a_whole_final_record_without_newline_is_kept(tmp_path):
    log = complete_log(tmp_path / "out")
    path = tmp_path / "out" / "records.jsonl"
    path.write_bytes(log[:-1])
    summary = run(sp_config(tmp_path / "out"), backend=ScriptedBackend(SCRIPTED))
    assert (summary.cached, summary.fresh) == (40, 0)
    assert path.read_bytes() == log


def resume_twice_after(tmp_path: Path, tail: bytes) -> tuple[bytes, bytes]:
    """Resume a copy of a complete log cut to its first 10 records plus
    tail, twice; return the 10 records' bytes and the log after both."""
    lines = complete_log(tmp_path / "full").splitlines(keepends=True)
    out = tmp_path / "out"
    shutil.copytree(tmp_path / "full", out)
    kept = b"".join(lines[:10])
    (out / "records.jsonl").write_bytes(kept + tail)
    config = sp_config(out)
    backend = ScriptedBackend(SCRIPTED)
    first = run(config, backend=backend)
    second = run(config, backend=backend)
    assert ((first.cached, first.fresh), (second.cached, second.fresh)) == ((10, 30), (40, 0))
    assert backend.calls == 30
    records = load_whole_log(out / "records.jsonl")
    assert len({(r.triplet_id, r.mode) for r in records}) == len(records) == 40
    return kept, (out / "records.jsonl").read_bytes()


@pytest.mark.parametrize("newline", [b"", b"\n"], ids=["bare", "newline"])
def test_a_final_json_line_that_is_no_record_is_dropped_then_cut(tmp_path, caplog, newline):
    with caplog.at_level(logging.WARNING, logger="mwpeval._schema"):
        kept, log = resume_twice_after(tmp_path, b'{"unknown": 1}' + newline)
    assert "dropping torn final run record line 11" in caplog.text
    assert log.startswith(kept) and b"unknown" not in log


def test_a_torn_final_record_longer_than_64_kib_is_cut(tmp_path):
    torn = record_with(prompt_text="x" * (1 << 17)).to_json_line().encode()[:-20]
    assert len(torn) > 1 << 16
    kept, log = resume_twice_after(tmp_path, torn)
    assert log.startswith(kept) and b"x" * 100 not in log


@pytest.fixture(scope="module")
def fixture_log(tmp_path_factory) -> tuple[Path, bytes]:
    directory = tmp_path_factory.mktemp("full") / "out"
    return directory, complete_log(directory)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_torn_tail_resumes_twice_with_each_cell_once(fixture_log, data):
    directory, log = fixture_log
    offset = data.draw(st.integers(0, len(log)), label="offset")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        shutil.copytree(directory, out)
        (out / "records.jsonl").write_bytes(log[:offset])
        config = sp_config(out)
        for _ in range(2):
            summary = run(config, backend=ScriptedBackend(SCRIPTED))
            assert summary.cached + summary.fresh == 40
        assert summary.fresh == 0
        records = load_whole_log(out / "records.jsonl")
        hashes = [r.content_hash for r in records]
        assert len(hashes) == len(set(hashes)) == 40


def test_dop_be_skips_triplets_without_an_explanation(tmp_path):
    dataset_path, scripted_path = fixture_without_explanation(tmp_path, "t05")
    config = sp_config(
        tmp_path / "out",
        dataset=str(dataset_path),
        model=ModelSpec(name="fixture-model", endpoint=f"scripted:{scripted_path}"),
        modes=(DopLevel.SP, DopLevel.BE),
    )
    summary = run(config)
    assert summary.skipped_no_explanation == 1
    assert (summary.total_cells, summary.fresh, summary.failed) == (59, 59, 0)
    manifest = json.loads((summary.run_dir / "manifest.json").read_text())
    assert manifest["cells"]["skipped_no_explanation"] == 1

    outcomes = rescore(config.output_dir, config.dataset)
    ids = {
        mode: {o.triplet_id for o in outcomes if o.dop is mode}
        for mode in (None, DopLevel.SP, DopLevel.BE)
    }
    assert "t05" in ids[None] and "t05" in ids[DopLevel.SP]
    assert ids[DopLevel.BE] == ids[DopLevel.SP] - {"t05"}
    totals = {report.mode: report.counts.n for report in build_reports(outcomes)}
    assert totals == {DopLevel.SP: 20, DopLevel.BE: 19}


def test_failed_cells_record_the_error_and_retry_on_request(tmp_path):
    # a scripted file missing one key produces one failed cell
    rows = [json.loads(l) for l in SCRIPTED.read_text().splitlines() if l.strip()]
    partial = tmp_path / "partial.jsonl"
    with partial.open("w", encoding="utf-8") as handle:
        for row in rows:
            if row["key"] != "t20|correction|sp":
                handle.write(json.dumps(row) + "\n")

    config = sp_config(tmp_path / "out")
    summary = run(config, backend=ScriptedBackend(partial))
    assert summary.fresh == 39
    assert summary.failed == 1
    errors = [r for r in load_records(summary.records_path) if r.error]
    assert len(errors) == 1
    assert errors[0].triplet_id == "t20"
    assert errors[0].attempts == 0

    # plain rerun leaves the failure cached
    summary = run(config, backend=ScriptedBackend(SCRIPTED))
    assert summary.fresh == 0 and summary.cached == 40

    # retry_failed re-queries exactly the failed cell
    retry = ScriptedBackend(SCRIPTED)
    summary = run(sp_config(tmp_path / "out", retry_failed=True), backend=retry)
    assert summary.fresh == 1 and summary.cached == 39
    assert retry.calls == 1
    outcomes = rescore(config.output_dir, config.dataset)
    assert all(o.reason != "backend-error" for o in outcomes)


def test_output_dir_is_bound_to_its_identity(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))

    # same directory, different dataset content: refuse
    triplets = [make_triplet(id=f"n{i:02d}", question=f"How much is {i} plus {24 - i}?",
                             reference_solution=f"Adding gives {i} + {24 - i} = 24.",
                             wrong_solution="The sum is 25.")
                for i in range(1, 3)]
    other = tmp_path / "other.jsonl"
    save_dataset(Dataset(triplets, source="unit"), other)
    with pytest.raises(DataError, match="fresh output_dir"):
        run(sp_config(tmp_path / "out", dataset=str(other)),
            backend=ScriptedBackend(SCRIPTED))


def test_a_resume_may_change_the_model_transport_settings(tmp_path):
    run(sp_config(tmp_path / "out"), backend=ScriptedBackend(SCRIPTED))
    model = ModelSpec(
        name="fixture-model",
        endpoint=f"scripted:{SCRIPTED}",
        auth_env="FIXTURE_MODEL_KEY",
        timeout=300.0,
        retry=RetryPolicy(max_attempts=2),
        requests_per_second=0.5,
    )
    backend = ScriptedBackend(SCRIPTED)
    summary = run(sp_config(tmp_path / "out", model=model), backend=backend)
    assert (summary.fresh, summary.cached) == (0, 40)
    assert backend.calls == 0


@pytest.mark.parametrize(
    "change",
    [
        {"endpoint": "http://localhost:1/v1"},
        {"name": "other-model"},
        {"params": GenerationParams(temperature=0.7)},
        {"params": GenerationParams(temperature=0)},  # == 0.0, but hashes apart
    ],
    ids=["endpoint", "name", "params", "params-type"],
)
def test_a_resume_may_not_change_what_shapes_a_completion(tmp_path, change):
    run(sp_config(tmp_path / "out"), backend=ScriptedBackend(SCRIPTED))
    fields = {"name": "fixture-model", "endpoint": f"scripted:{SCRIPTED}", **change}
    with pytest.raises(DataError, match="fresh output_dir"):
        run(sp_config(tmp_path / "out", model=ModelSpec(**fields)),
            backend=ScriptedBackend(SCRIPTED))


def test_a_custom_template_is_what_the_backend_receives_and_binds_the_output_dir(
    tmp_path, fixture_dataset
):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "reasoning.txt").write_text(
        "Solve this.\n{{question}}\nEnd with: Final answer: <number>\n", encoding="utf-8"
    )
    inner = ScriptedBackend(SCRIPTED)
    sent = []

    class Recording:
        def complete(self, prompt):
            sent.append(prompt)
            return inner.complete(prompt)

    config = sp_config(tmp_path / "out", templates_dir=str(templates))
    assert run(config, backend=Recording()).fresh == 40
    texts = {p.triplet_id: p.text for p in sent if p.mode.task is TaskKind.REASONING}
    assert texts == {
        t.id: f"Solve this.\n{t.question}\nEnd with: Final answer: <number>\n"
        for t in fixture_dataset
    }
    corrections = [p for p in sent if p.mode.task is TaskKind.CORRECTION]
    assert len(corrections) == 20
    assert not any(p.text.startswith("Solve this.") for p in corrections)

    # an edited template against the same output dir: refuse
    (templates / "reasoning.txt").write_text("Edited.\n{{question}}\n", encoding="utf-8")
    with pytest.raises(DataError, match="fresh output_dir"):
        run(config, backend=ScriptedBackend(SCRIPTED))


def test_a_config_json_that_is_not_an_object_is_a_data_error(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    (tmp_path / "out" / "config.json").write_text("[1]\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"config\.json must hold a JSON object, got list"):
        run(config, backend=ScriptedBackend(SCRIPTED))


def test_concurrency_reaches_the_same_records(tmp_path):
    solo = sp_config(tmp_path / "solo")
    pooled = sp_config(tmp_path / "pooled", concurrency=4)
    run(solo, backend=ScriptedBackend(SCRIPTED))
    run(pooled, backend=ScriptedBackend(SCRIPTED))
    assert rescore(solo.output_dir, solo.dataset) == rescore(
        pooled.output_dir, pooled.dataset
    )


def test_concurrency_one_appends_in_cell_order(tmp_path, fixture_dataset):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    cells, _, _, _ = build_cells(fixture_dataset, config)
    logged = load_records(Path(config.output_dir) / "records.jsonl")
    assert [r.content_hash for r in logged] == [c.content_hash for c in rendered(cells, config)]


# The fields that differ between two runs of the same cells, each with
# the fixed value the golden log holds instead.
VOLATILE_FIELDS = (
    (re.compile(rb'"run_id": "[0-9a-f]{12}"'), b'"run_id": "-"'),
    (re.compile(rb'"latency_ms": [0-9.e+-]+'), b'"latency_ms": 0.0'),
    (re.compile(rb'"created_at": "\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ"'), b'"created_at": "-"'),
)


def test_a_fresh_run_writes_the_golden_log_byte_for_byte(tmp_path, monkeypatch):
    """A scripted run over all five modes, 60 of whose 100 cells fail for
    want of a scripted response. The scripted file is named relative to
    the data dir, so that the logged errors name no machine's path."""
    monkeypatch.chdir(DATA_DIR)
    model = ModelSpec(name="fixture-model", endpoint=f"scripted:{SCRIPTED.name}")
    config = all_modes_config(tmp_path / "out", model=model)
    summary = run(config)
    assert (summary.fresh, summary.failed) == (40, 60)
    log = (Path(config.output_dir) / "records.jsonl").read_bytes()
    for pattern, fixed in VOLATILE_FIELDS:
        log, count = pattern.subn(fixed, log)
        assert count == log.count(b"\n") == 100
    assert log == (DATA_DIR / "golden_records.jsonl").read_bytes()


class GaugedBackend:
    """Each call waits at a barrier of `width` parties, so calls pass in
    groups of exactly `width`; records the most calls seen in flight."""

    def __init__(self, inner, width: int):
        self.inner = inner
        self.barrier = threading.Barrier(width, timeout=10)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.threads: set[str] = set()

    def complete(self, prompt):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.current_thread().name)
        try:
            self.barrier.wait()
            return self.inner.complete(prompt)
        finally:
            with self.lock:
                self.in_flight -= 1


@pytest.mark.parametrize("concurrency", [1, 2, 4, 8])
def test_in_flight_cells_are_exactly_concurrency(tmp_path, concurrency):
    threads_before = threading.active_count()
    backend = GaugedBackend(ScriptedBackend(SCRIPTED), concurrency)
    summary = run(sp_config(tmp_path / "out", concurrency=concurrency), backend=backend)
    assert (summary.fresh, summary.failed) == (40, 0)
    assert backend.peak == concurrency
    assert len(backend.threads) == concurrency
    assert threading.active_count() == threads_before


def test_concurrency_above_the_pending_cells_starts_one_thread_per_cell(tmp_path):
    config = sp_config(tmp_path / "out", concurrency=16)
    first = ExplodingBackend(ScriptedBackend(SCRIPTED), fuse=37)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run(sp_config(tmp_path / "out"), backend=first)
    threads_before = threading.active_count()
    backend = GaugedBackend(ScriptedBackend(SCRIPTED), 3)
    summary = run(config, backend=backend)
    assert (summary.cached, summary.fresh, summary.failed) == (37, 3, 0)
    assert backend.peak == len(backend.threads) == 3
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("fuse", [0, 1, 13, 39])
def test_a_crash_at_concurrency_stops_dispatch_and_resumes_once(tmp_path, fuse):
    config = sp_config(tmp_path / "out", concurrency=4)
    log = Path(config.output_dir) / "records.jsonl"
    threads_before = threading.active_count()
    first = ExplodingBackend(ScriptedBackend(SCRIPTED), fuse=fuse)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run(config, backend=first)
    assert threading.active_count() == threads_before
    # the first failure stops all pulls: each of the four workers enters
    # at most one call past the fuse, and every successful call landed
    assert first.calls <= fuse + 4
    assert first.inner.calls <= fuse
    assert len(load_whole_log(log)) == first.inner.calls

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert (summary.cached, summary.fresh, summary.failed) == (first.inner.calls, second.calls, 0)
    assert first.inner.calls + second.calls == summary.total_cells
    hashes = [r.content_hash for r in load_whole_log(log)]
    assert len(hashes) == len(set(hashes)) == 40


class OneCrash:
    """Call `at` raises; every later call takes 50 ms and succeeds, long
    enough for the failure to stop dispatch while it is in flight."""

    def __init__(self, inner, at: int):
        self.inner = inner
        self.at = at
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt):
        with self._lock:
            self.calls += 1
            number = self.calls
        if number == self.at:
            raise RuntimeError("simulated crash")
        if number > self.at:
            time.sleep(0.05)
        return self.inner.complete(prompt)


def test_the_first_failure_stops_further_pulls(tmp_path):
    config = sp_config(tmp_path / "out", concurrency=4)
    first = OneCrash(ScriptedBackend(SCRIPTED), at=8)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run(config, backend=first)
    # the three other workers each finish at most one call in flight
    assert first.calls <= 8 + 3
    records = load_records(Path(config.output_dir) / "records.jsonl")
    assert len(records) == first.calls - 1


def test_a_worker_that_cannot_start_stops_the_run(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out", concurrency=4)
    threads_before = threading.active_count()
    backend = ScriptedBackend(SCRIPTED)
    start = threading.Thread.start
    starts = []

    def start_two(thread):
        starts.append(thread)
        if len(starts) > 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_two)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        run(config, backend=backend)
    monkeypatch.undo()
    assert threading.active_count() == threads_before
    # the two workers that started finish what they took, then stop
    records = load_records(Path(config.output_dir) / "records.jsonl")
    assert len(records) == backend.calls
    summary = run(config, backend=ScriptedBackend(SCRIPTED))
    assert (summary.cached, summary.fresh) == (len(records), 40 - len(records))


@pytest.mark.parametrize("concurrency", [1, 4])
def test_keyboard_interrupt_in_a_worker_propagates_and_the_log_resumes(tmp_path, concurrency):
    config = sp_config(tmp_path / "out", concurrency=concurrency)
    log = Path(config.output_dir) / "records.jsonl"
    threads_before = threading.active_count()
    first = ExplodingBackend(ScriptedBackend(SCRIPTED), fuse=10, error=KeyboardInterrupt)
    with pytest.raises(KeyboardInterrupt) as excinfo:
        run(config, backend=first)
    assert any(exc is excinfo.value for exc in first.raised)
    assert threading.active_count() == threads_before
    assert first.calls <= 10 + concurrency
    assert len(load_whole_log(log)) == first.inner.calls == 10

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert (summary.cached, summary.fresh) == (10, 30)
    assert len(load_whole_log(log)) == 40


class CtrlCBackend:
    """Once `width` calls are in flight, sends SIGINT to the main thread
    (as Ctrl-C does while run() waits); every call takes 20 ms, so the
    main thread sees the interrupt long before the cells run out."""

    def __init__(self, inner, width: int):
        self.inner = inner
        self.gate = threading.Barrier(width, timeout=10)
        self.lock = threading.Lock()
        self.fired = False
        self.succeeded = 0

    def complete(self, prompt):
        if not self.fired and self.gate.wait() == 0:
            self.fired = True
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.02)
        result = self.inner.complete(prompt)
        with self.lock:
            self.succeeded += 1
        return result


@pytest.mark.skipif(
    threading.current_thread() is not threading.main_thread()
    or signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
    reason="needs the default SIGINT handler on the main thread",
)
def test_ctrl_c_while_waiting_stops_dispatch_and_the_log_resumes(tmp_path):
    config = sp_config(tmp_path / "out", concurrency=3)
    log = Path(config.output_dir) / "records.jsonl"
    threads_before = threading.active_count()
    first = CtrlCBackend(ScriptedBackend(SCRIPTED), width=3)
    with pytest.raises(KeyboardInterrupt):
        run(config, backend=first)
    assert first.fired
    assert threading.active_count() == threads_before
    # the cells in flight finished and landed
    assert 3 <= first.succeeded < 40
    assert len(load_whole_log(log)) == first.succeeded

    summary = run(config, backend=ScriptedBackend(SCRIPTED))
    assert (summary.cached, summary.fresh) == (first.succeeded, 40 - first.succeeded)


def test_a_second_writer_on_the_same_output_dir_is_refused(tmp_path):
    config = sp_config(tmp_path / "out")
    with pytest.raises(RuntimeError, match="simulated crash"):
        run(config, backend=ExplodingBackend(ScriptedBackend(SCRIPTED), fuse=10))
    out = Path(config.output_dir)
    log_before = (out / "records.jsonl").read_bytes()
    config_before = (out / "config.json").read_bytes()

    backend = ScriptedBackend(SCRIPTED)
    with (out / "records.jsonl").open("rb") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(UsageError, match=re.escape(str(out))):
            run(config, backend=backend)
    assert backend.calls == 0
    assert (out / "records.jsonl").read_bytes() == log_before
    assert (out / "config.json").read_bytes() == config_before
    assert not (out / "manifest.json").exists()

    # the lock goes with its holder
    summary = run(config, backend=backend)
    assert (summary.cached, summary.fresh) == (10, 30)


def test_run_builds_its_backend_once_from_the_model_spec(tmp_path, monkeypatch):
    specs = []

    def create_backend(spec):
        specs.append(spec)
        return ScriptedBackend(SCRIPTED)

    monkeypatch.setattr(mwpeval.runner, "create_backend", create_backend)
    config = sp_config(tmp_path / "out", concurrency=3)
    assert run(config).fresh == 40
    assert specs == [config.model]


class ClosingBackend(ScriptedBackend):
    """A scripted backend that counts close() calls, and raises after
    `fuse` completions when one is set."""

    def __init__(self, fuse: int | None = None):
        super().__init__(SCRIPTED)
        self.fuse = fuse
        self.closed = 0

    def complete(self, prompt):
        if self.fuse is not None and self.calls >= self.fuse:
            raise RuntimeError("simulated crash")
        return super().complete(prompt)

    def close(self):
        self.closed += 1


def test_run_closes_the_backend_it_creates_and_never_one_passed_in(tmp_path, monkeypatch):
    built = []

    def create_backend(spec):
        built.append(ClosingBackend(fuse=None if len(built) == 0 else 5))
        return built[-1]

    monkeypatch.setattr(mwpeval.runner, "create_backend", create_backend)
    assert run(sp_config(tmp_path / "a")).fresh == 40
    assert [b.closed for b in built] == [1]
    with pytest.raises(RuntimeError, match="simulated crash"):
        run(sp_config(tmp_path / "b"))
    assert [b.closed for b in built] == [1, 1]  # closed when the run fails too

    given = ClosingBackend()
    assert run(sp_config(tmp_path / "c"), backend=given).fresh == 40
    assert given.closed == 0 and len(built) == 2


def test_run_hashes_the_dataset_once(tmp_path, fixture_dataset, monkeypatch):
    serialised = []
    to_json_line = Triplet.to_json_line

    def counting(self):
        serialised.append(self.id)
        return to_json_line(self)

    monkeypatch.setattr(Triplet, "to_json_line", counting)
    run(sp_config(tmp_path / "out"), backend=ScriptedBackend(SCRIPTED))
    # the digest is read for the cache identity and for the manifest
    assert len(serialised) == len(fixture_dataset)


# rescoring


def test_rescore_parses_each_reference_once(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    parsed = []
    parse_numeric = mwpeval.triplets.parse_numeric

    def counting(text):
        parsed.append(text)
        return parse_numeric(text)

    monkeypatch.setattr(mwpeval.triplets, "parse_numeric", counting)
    outcomes = rescore(config.output_dir, config.dataset)
    assert len(outcomes) == 40
    assert 0 < len(parsed) <= 20  # fixture triplets, each scored twice


def test_a_cached_rerun_and_a_rescore_look_up_each_records_mode_once(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out", modes=tuple(DopLevel))
    run(config, backend=FixedBackend())
    logged = len(load_whole_log(Path(config.output_dir) / "records.jsonl"))
    assert logged == 100
    lookups = []
    mode = RunRecord.mode

    def counting(record):
        lookups.append(record.triplet_id)
        return mode.fget(record)

    monkeypatch.setattr(RunRecord, "mode", property(counting))
    summary = run(config, backend=FixedBackend())
    assert (summary.cached, summary.fresh) == (100, 0)
    assert len(lookups) == logged
    lookups.clear()
    assert len(rescore(config.output_dir, config.dataset)) == 100
    assert len(lookups) == logged


def test_rescore_is_deterministic_and_sorted(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    once = rescore(config.output_dir, config.dataset)
    twice = rescore(config.output_dir, config.dataset)
    assert once == twice
    keys = [(o.triplet_id, o.task.value, o.dop.value if o.dop else "") for o in once]
    assert keys == sorted(keys)
    assert len(once) == 40


def test_rescore_rejects_wrong_dataset(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    stranger = Dataset([make_triplet()], source="unit")
    with pytest.raises(DataError, match="unknown triplet id"):
        rescore(config.output_dir, stranger)


def test_rescore_requires_records(tmp_path):
    with pytest.raises(DataError, match="no record log"):
        rescore(tmp_path, FIXTURE_DATASET)


def test_scored_outcomes_round_trip(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    outcomes = rescore(config.output_dir, config.dataset)
    path = tmp_path / "scored.jsonl"
    write_scored(outcomes, path)
    assert load_scored(path) == outcomes


# the record log is streamed, never held


class FixedBackend:
    """Answers every cell with the same text and counts its calls."""

    def __init__(self, text: str = "#### 24") -> None:
        self.text = text
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return CompletionResult(text=self.text, latency_ms=0.0, attempts=1)


def test_a_cached_rerun_and_a_rescore_never_load_the_whole_log(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    log = Path(config.output_dir) / "records.jsonl"
    log_before = log.read_bytes()
    outcomes = rescore(config.output_dir, config.dataset)

    def refuse(path):
        raise AssertionError(f"{path} was loaded whole")

    monkeypatch.setattr(mwpeval.runner, "load_records", refuse)
    backend = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=backend)
    assert (summary.total_cells, summary.cached, summary.fresh, backend.calls) == (40, 40, 0, 0)
    assert log.read_bytes() == log_before
    assert rescore(config.output_dir, config.dataset) == outcomes


def test_repeated_records_for_one_key_resolve_the_same_in_run_and_rescore(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    log = Path(config.output_dir) / "records.jsonl"
    records = load_whole_log(log)
    baseline = rescore(config.output_dir, config.dataset)
    assert all(o.reason == "matched" for o in baseline[:4])

    def failed(record):
        return replace(record, response_text=None, error="HTTP 503", attempts=0, latency_ms=0.0)

    ok_then_error, error_then_ok, ok_then_ok, error_only = records[:4]
    rewritten = [
        ok_then_error, failed(ok_then_error),
        failed(error_then_ok), error_then_ok,
        ok_then_ok, replace(ok_then_ok, response_text="#### 99999"),
        failed(error_only),
        *records[4:],
    ]
    log.write_text("".join(r.to_json_line() + "\n" for r in rewritten), encoding="utf-8")

    by_triplet = {
        o.triplet_id: o.reason for o in rescore(config.output_dir, config.dataset) if o.dop is None
    }
    assert [by_triplet[r.triplet_id] for r in records[:4]] == [
        "matched", "matched", "mismatched", "backend-error"
    ]
    assert len(by_triplet) == 20

    backend = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=backend)
    assert (summary.cached, summary.fresh, backend.calls) == (40, 0, 0)
    summary = run(sp_config(tmp_path / "out", retry_failed=True), backend=backend)
    assert (summary.cached, summary.fresh, summary.failed, backend.calls) == (39, 1, 0, 1)
    assert load_whole_log(log)[-1].triplet_id == error_only.triplet_id


def eggs(n: int) -> list[Triplet]:
    """n triplets with distinct texts."""
    return [
        make_triplet(
            id=f"e{i:03d}",
            question=f"A box holds {i} eggs. How many eggs are in 4 boxes?",
            reference_solution=f"Four boxes hold {i} * 4 = {4 * i} eggs.",
            reference_numeric=str(4 * i),
            brief_explanation=f"Four boxes hold {i} * 4 = {4 * i} eggs.",
            wrong_solution=f"{i} + 4 = {i + 4} eggs.",
        )
        for i in range(1, n + 1)
    ]


def test_a_cached_rerun_holds_less_than_its_log(tmp_path):
    config = ExperimentConfig(
        dataset=str(save_dataset(Dataset(eggs(120), source="unit"), tmp_path / "eggs.jsonl")),
        model=ModelSpec(name="m", endpoint="unused"),
        output_dir=str(tmp_path / "out"),
    )
    run(config, backend=FixedBackend())
    log_bytes = (tmp_path / "out" / "records.jsonl").stat().st_size

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        summary = run(config, backend=FixedBackend())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (summary.cached, summary.fresh) == (600, 0)
    # holding every record, or every cached cell's prompt, costs more
    # than the log itself
    assert peak < log_bytes


def test_a_hash_collision_writes_no_config_and_a_rerun_without_it_runs(tmp_path):
    dataset_path = tmp_path / "twins.jsonl"
    save_dataset(Dataset([make_triplet(), make_triplet(id="x02")], source="unit"), dataset_path)
    config = sp_config(tmp_path / "out", dataset=str(dataset_path))
    backend = FixedBackend()
    with pytest.raises(DataError, match="collision"):
        run(config, backend=backend)
    assert backend.calls == 0
    assert not (tmp_path / "out" / "config.json").exists()

    save_dataset(Dataset([make_triplet()], source="unit"), dataset_path)
    summary = run(config, backend=backend)
    assert (summary.total_cells, summary.fresh, summary.failed) == (2, 2, 0)
    assert (tmp_path / "out" / "config.json").exists()


# resume by cell identity


def all_modes_config(output_dir: Path, **overrides) -> ExperimentConfig:
    return sp_config(output_dir, modes=tuple(DopLevel), **overrides)


def counting_render(monkeypatch) -> list:
    """Count the renders run() makes; returns the list of rendered cells."""
    rendered = []
    render = mwpeval.runner.render

    def counting(triplet, mode, *args, **kwargs):
        rendered.append((triplet.id, mode))
        return render(triplet, mode, *args, **kwargs)

    monkeypatch.setattr(mwpeval.runner, "render", counting)
    return rendered


def rewrite_identity(run_dir: Path, edit) -> None:
    path = run_dir / "config.json"
    bound = json.loads(path.read_text(encoding="utf-8"))
    edit(bound["identity"])
    path.write_text(json.dumps(bound, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def test_a_cached_rerun_renders_at_most_one_cell_per_mode(tmp_path, monkeypatch):
    config = all_modes_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    rendered = counting_render(monkeypatch)
    backend = FixedBackend()
    summary = run(config, backend=backend)
    assert (summary.cached, summary.fresh, backend.calls) == (100, 0, 0)
    assert len(rendered) <= 5
    assert len(set(mode for _, mode in rendered)) == len(rendered)


def test_a_resume_renders_only_its_pending_cells_and_the_spot_checks(tmp_path, monkeypatch):
    run(sp_config(tmp_path / "out"), backend=FixedBackend())
    rendered = counting_render(monkeypatch)
    summary = run(all_modes_config(tmp_path / "out"), backend=FixedBackend())
    assert (summary.cached, summary.fresh) == (40, 60)
    checked = [(t, m) for t, m in rendered if m.dop in (None, DopLevel.SP)]
    assert len(checked) == 2  # the first logged cell of each mode
    assert len(rendered) == 60 + 2


def test_a_dir_bound_before_the_renderer_was_recorded_resumes(tmp_path, monkeypatch):
    config = all_modes_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    rewrite_identity(tmp_path / "out", lambda identity: identity.pop("renderer"))
    rendered = counting_render(monkeypatch)
    backend = FixedBackend()
    summary = run(config, backend=backend)
    assert (summary.cached, summary.fresh, backend.calls) == (100, 0, 0)
    assert len(rendered) <= 5
    bound = json.loads((tmp_path / "out" / "config.json").read_text(encoding="utf-8"))
    assert bound["identity"]["renderer"] == mwpeval.runner.RENDERER


def test_a_dir_bound_to_another_renderer_is_refused(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    rewrite_identity(tmp_path / "out", lambda identity: identity.update(renderer="sha256/0"))
    backend = FixedBackend()
    with pytest.raises(DataError, match="fresh output_dir"):
        run(config, backend=backend)
    assert backend.calls == 0


def test_rescore_keeps_one_outcome_per_cell_identity(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=ScriptedBackend(SCRIPTED))
    log = Path(config.output_dir) / "records.jsonl"
    first = load_whole_log(log)[0]
    # the same cell logged again under another hash, as an older renderer
    # would have written it: the later record wins, as it does in run()
    again = replace(first, content_hash="d" * 64, response_text="#### 99999")
    with log.open("a", encoding="utf-8") as handle:
        handle.write(again.to_json_line() + "\n")
    outcomes = rescore(config.output_dir, config.dataset)
    assert len(outcomes) == 40
    (mine,) = [o for o in outcomes if (o.triplet_id, o.dop) == (first.triplet_id, None)]
    assert mine.reason == "mismatched"


def test_run_refuses_a_logged_record_with_an_unknown_task_and_dop(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    log = Path(config.output_dir) / "records.jsonl"
    stray = replace(load_whole_log(log)[-1], task="solve", dop=None)
    with log.open("a", encoding="utf-8") as handle:
        handle.write(stray.to_json_line() + "\n")
    with pytest.raises(DataError, match=r"unknown \(task, dop\) pair \('solve', None\)"):
        run(config, backend=FixedBackend())


def test_a_changed_render_under_the_same_renderer_is_refused(tmp_path, monkeypatch):
    config = all_modes_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    log_before = (tmp_path / "out" / "records.jsonl").read_bytes()
    render = mwpeval.runner.render

    def one_character_off(triplet, mode, params, registry):
        cell = render(triplet, mode, params, registry)
        text = cell.text.replace("Final answer", "Final Answer", 1)
        content_hash = mwpeval.prompting.compute_content_hash(cell.template_id, text, params)
        return replace(cell, text=text, content_hash=content_hash)

    monkeypatch.setattr(mwpeval.runner, "render", one_character_off)
    backend = FixedBackend()
    with pytest.raises(DataError, match=r"cell t01/reasoning\|- \(content hash [0-9a-f]{64}\)"):
        run(config, backend=backend)
    assert backend.calls == 0
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == log_before


def collision_before_identity_keys(dataset, config, registry):
    """The check build_cells made while cells were keyed by content hash:
    every cell rendered, and the first hash two cells share refused.
    Returns the pair of cells, or None."""
    first = {}
    for task in config.tasks:
        levels = [None] if task is TaskKind.REASONING else config.modes
        for level in levels:
            mode = REASONING_MODE if level is None else CORRECTION_MODES[level]
            for triplet in dataset:
                if level is not None and triplet.reasoning_only:
                    continue
                if level is DopLevel.BE and triplet.brief_explanation is None:
                    continue
                content_hash = render(triplet, mode, config.model.params, registry).content_hash
                if content_hash in first:
                    return first[content_hash], f"{triplet.id}/{mode.key}"
                first[content_hash] = f"{triplet.id}/{mode.key}"
    return None


SHORT_TEXTS = ["Two?", "Two? ", "How many?", "6 + 4 = 10."]
REFERENCES = [("Four boxes hold 24.", "24"), ("It is 7.", "7")]


@st.composite
def small_triplets(draw, index):
    solution, numeric = draw(st.sampled_from(REFERENCES))
    reasoning_only = draw(st.booleans())
    return make_triplet(
        id=f"p{index}",
        question=draw(st.sampled_from(SHORT_TEXTS)),
        reference_solution=solution,
        reference_numeric=numeric,
        brief_explanation=draw(st.sampled_from([None, *SHORT_TEXTS[:2]])),
        wrong_solution="" if reasoning_only else draw(st.sampled_from(SHORT_TEXTS)),
        meta={"reasoning_only": True} if reasoning_only else {},
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 4),
    tasks=st.sampled_from([(TaskKind.REASONING,), (TaskKind.CORRECTION,), tuple(TaskKind)]),
    modes=st.lists(st.sampled_from(list(DopLevel)), min_size=1, max_size=4, unique=True),
)
def test_the_dataset_check_refuses_exactly_what_the_hash_check_refused(data, n, tasks, modes):
    dataset = Dataset([data.draw(small_triplets(i)) for i in range(n)], source="unit")
    config = sp_config(Path("unused"), tasks=tasks, modes=tuple(modes))
    registry = TemplateRegistry.load()
    expected = collision_before_identity_keys(dataset, config, registry)
    if expected is None:
        build_cells(dataset, config)
    else:
        a, b = expected
        with pytest.raises(DataError, match=f"collision between cells {re.escape(a)} and {re.escape(b)};"):
            build_cells(dataset, config)


# config.json is rewritten only when it changes, and then atomically


def test_an_unchanged_rerun_leaves_config_json_alone(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    path = tmp_path / "out" / "config.json"
    before = path.stat()
    time.sleep(0.01)
    run(config, backend=FixedBackend())
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_a_failed_config_write_leaves_the_old_file_whole(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    path = tmp_path / "out" / "config.json"
    before = path.read_bytes()
    slower = replace(config.model, requests_per_second=0.5)  # changes the file's bytes

    def killed(source, target):
        raise OSError("killed between the temp write and the replace")

    monkeypatch.setattr(mwpeval._schema.os, "replace", killed)
    with pytest.raises(OSError, match="killed"):
        run(replace(config, model=slower), backend=FixedBackend())
    assert path.read_bytes() == before
    json.loads(before)
    # and the temp file is gone
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "config.json", "manifest.json", "records.jsonl"
    ]

    monkeypatch.undo()
    summary = run(replace(config, model=slower), backend=FixedBackend())
    assert (summary.cached, summary.fresh) == (40, 0)
    assert json.loads(path.read_text())["config"]["model"]["requests_per_second"] == 0.5


def test_a_logged_record_of_an_unknown_triplet_is_refused(tmp_path):
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    log = Path(config.output_dir) / "records.jsonl"
    stray = record_with(model="fixture-model", triplet_id="nope").to_json_line() + "\n"
    log.write_text(stray + log.read_text(encoding="utf-8"), encoding="utf-8")
    backend = FixedBackend()
    with pytest.raises(DataError, match="unknown triplet id 'nope'"):
        run(config, backend=backend)
    assert backend.calls == 0


def test_a_log_without_its_config_json_is_refused(tmp_path):
    # Without config.json nothing ties the logged hashes to a dataset, and
    # the spot check re-renders only the first record of each mode: an
    # edited t02 would be counted as cached with its stale answer.
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    out = Path(config.output_dir)
    (out / "config.json").unlink()
    log_before = (out / "records.jsonl").read_bytes()
    triplets = list(load_dataset(FIXTURE_DATASET))
    assert triplets[1].id == "t02"
    triplets[1] = replace(triplets[1], question=triplets[1].question + " Explain.")
    edited = save_dataset(Dataset(triplets, source="unit"), tmp_path / "edited.jsonl")
    backend = FixedBackend()
    with pytest.raises(DataError, match="config.json is missing.*use a fresh output_dir"):
        run(replace(config, dataset=str(edited)), backend=backend)
    assert backend.calls == 0
    assert (out / "records.jsonl").read_bytes() == log_before
    assert not (out / "config.json").exists()


def test_a_failed_manifest_write_leaves_the_old_manifest_whole(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out")
    run(config, backend=FixedBackend())
    path = tmp_path / "out" / "manifest.json"
    before = path.read_bytes()
    replace_file = os.replace

    def killed_at_the_manifest(source, target):
        if Path(target).name == "manifest.json":
            raise OSError("killed between the temp write and the replace")
        replace_file(source, target)

    monkeypatch.setattr(mwpeval._schema.os, "replace", killed_at_the_manifest)
    with pytest.raises(OSError, match="killed"):
        run(config, backend=FixedBackend())
    assert path.read_bytes() == before
    json.loads(before)
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "config.json", "manifest.json", "records.jsonl"
    ]


# each cell is rendered by the worker that sends it


class RenderGauge:
    """A backend that notes, at each call, how many renders runner has made."""

    def __init__(self, monkeypatch):
        self.renders = 0
        self.seen: list[int] = []

        def counted(*args, **kwargs):
            self.renders += 1
            return render(*args, **kwargs)

        monkeypatch.setattr(mwpeval.runner, "render", counted)

    def complete(self, prompt):
        self.seen.append(self.renders)
        return CompletionResult(text="#### 24", latency_ms=0.0, attempts=1)


def test_the_kth_backend_call_follows_exactly_k_renders(tmp_path, monkeypatch):
    gauge = RenderGauge(monkeypatch)
    summary = run(sp_config(tmp_path / "out"), backend=gauge)
    assert summary.fresh == 40
    assert gauge.seen == list(range(1, 41))


def test_a_render_error_in_a_worker_aborts_the_run_and_the_log_resumes(tmp_path, monkeypatch):
    config = sp_config(tmp_path / "out")
    renders = []

    def third_fails(*args, **kwargs):
        renders.append(args[0].id)
        if len(renders) == 3:
            raise DataError("render failed on the third cell")
        return render(*args, **kwargs)

    monkeypatch.setattr(mwpeval.runner, "render", third_fails)
    backend = ScriptedBackend(SCRIPTED)
    with pytest.raises(DataError, match="third cell"):
        run(config, backend=backend)
    log = Path(config.output_dir) / "records.jsonl"
    assert [r.triplet_id for r in load_whole_log(log)] == renders[:2]
    assert backend.calls == 2
    assert not (Path(config.output_dir) / "manifest.json").exists()

    monkeypatch.undo()
    summary = run(config, backend=ScriptedBackend(SCRIPTED))
    assert (summary.cached, summary.fresh, summary.failed) == (2, 38, 0)
    hashes = [r.content_hash for r in load_whole_log(log)]
    assert len(hashes) == len(set(hashes)) == 40


@pytest.mark.parametrize("concurrency", [1, 4])
def test_dispatch_logs_progress_every_five_percent_and_once_at_the_end(
    tmp_path, caplog, concurrency
):
    rows = [json.loads(l) for l in SCRIPTED.read_text().splitlines() if l.strip()]
    partial = tmp_path / "partial.jsonl"
    partial.write_text(
        "".join(json.dumps(row) + "\n" for row in rows if row["key"] != "t20|correction|sp"),
        encoding="utf-8",
    )
    config = sp_config(tmp_path / "out", concurrency=concurrency)
    with caplog.at_level(logging.INFO, logger="mwpeval.runner"):
        run(config, backend=ScriptedBackend(partial))
    *progress, final = [r.getMessage() for r in caplog.records if r.name == "mwpeval.runner"]
    pattern = re.compile(r"(\d+)/40 cells \(\d+%\), \d+ cells/s, [01] failed, ETA \d+ s$")
    done = [int(pattern.match(message)[1]) for message in progress]
    # 5 % of 40 cells is 2: one line per 2 cells, and none at the end
    assert done == list(range(2, 40, 2))
    assert re.match(r"completed 40/40 cells in [\d.]+ s \(\d+ cells/s\), 1 failed$", final)

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="mwpeval.runner"):
        run(config, backend=ScriptedBackend(SCRIPTED))
    assert not [r for r in caplog.records if r.name == "mwpeval.runner"]


def test_a_stopped_dispatch_says_so_in_its_last_progress_line(tmp_path, caplog):
    config = sp_config(tmp_path / "out")
    with caplog.at_level(logging.INFO, logger="mwpeval.runner"):
        with pytest.raises(RuntimeError, match="simulated crash"):
            run(config, backend=ExplodingBackend(ScriptedBackend(SCRIPTED), fuse=10))
    final = [r.getMessage() for r in caplog.records if r.name == "mwpeval.runner"][-1]
    assert final.startswith("stopped after 10/40 cells in ")


# the record log is appended without a lock


def test_concurrent_appends_of_large_records_never_interleave(tmp_path):
    path = tmp_path / "records.jsonl"
    writer = _RecordWriter(path)
    sizes = random.Random(8)
    expected = {}
    for thread in range(8):
        for i in range(4):
            size = sizes.randrange(100 << 10, (1 << 20) + 1)
            # three UTF-8 bytes per character, distinct per thread
            text = chr(0x4E00 + thread) * (size // 3)
            expected[f"t{thread}-{i}"] = text
    start = threading.Barrier(8, timeout=10)

    def append_all(thread):
        start.wait()
        for i in range(4):
            key = f"t{thread}-{i}"
            writer.append(record_with(triplet_id=key, prompt_text=expected[key]).to_json_line())

    workers = [threading.Thread(target=append_all, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        writer.close()
    assert not any(worker.is_alive() for worker in workers)
    records = load_whole_log(path)
    assert sorted(r.triplet_id for r in records) == sorted(expected)
    assert all(r.prompt_text == expected[r.triplet_id] for r in records)


def test_a_short_write_raises_and_leaves_a_tail_the_next_run_mends(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    writer = _RecordWriter(path)
    first = record_with(triplet_id="x01")
    writer.append(first.to_json_line())
    write = os.write

    def half_written(fd, data):
        return write(fd, data[: len(data) // 2] if fd == writer._fd else data)

    monkeypatch.setattr(mwpeval.runner.os, "write", half_written)
    with pytest.raises(OSError, match="short write"):
        writer.append(record_with(triplet_id="x02").to_json_line())
    monkeypatch.undo()
    writer.close()
    assert not path.read_bytes().endswith(b"\n")
    torn: list[int] = []
    assert list(_stream_records(path, torn.append)) == [first]
    assert torn == [len(first.to_json_line()) + 1]
    writer = _RecordWriter(path)
    writer.mend(*torn)
    writer.close()
    assert load_whole_log(path) == [first]


# real kills: a SIGKILLed run resumes to the same results


KILLABLE_RUN = """
import sys, time
from mwpeval import ExperimentConfig, ScriptedBackend, run

class Slow:
    def __init__(self, inner):
        self.inner = inner

    def complete(self, prompt):
        time.sleep(float(sys.argv[3]))
        return self.inner.complete(prompt)

config = ExperimentConfig.from_json_file(sys.argv[1])
print("ready", flush=True)
run(config, backend=Slow(ScriptedBackend(sys.argv[2])))
"""


@pytest.mark.parametrize("concurrency", [1, 4])
def test_a_run_killed_at_seeded_times_resumes_to_an_unkilled_runs_results(tmp_path, concurrency):
    """SIGKILL lands anywhere from binding config.json to writing
    manifest.json. Power loss is not covered: what a kill leaves is what
    the process wrote, while a power cut can also lose or reorder what
    the page cache held."""
    config = sp_config(tmp_path / "out", concurrency=concurrency)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    package_root = str(Path(mwpeval.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    }
    sleep_s = 0.01
    delays = random.Random(concurrency)
    out = Path(config.output_dir)
    log = out / "records.jsonl"

    def start():
        child = subprocess.Popen(
            [sys.executable, "-c", KILLABLE_RUN, str(config_path), str(SCRIPTED), str(sleep_s)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert child.stdout.readline() == "ready\n"
        return child

    for _ in range(4):
        # a delay up to a little past the end of what is left to send
        left = 40 - len(load_records(log))
        child = start()
        time.sleep(delays.uniform(0, 1.2 * left * sleep_s / concurrency + 0.03))
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
        if (out / "config.json").exists():
            json.loads((out / "config.json").read_bytes())
    child = start()
    assert child.wait(timeout=60) == 0
    child.stdout.close()

    records = load_whole_log(out / "records.jsonl")
    successes = [(r.triplet_id, r.mode) for r in records if r.error is None]
    assert len(successes) == len(set(successes)) == 40
    json.loads((out / "config.json").read_bytes())
    json.loads((out / "manifest.json").read_bytes())
    backend = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=backend)  # not refused: the flock went with the child
    assert (summary.cached, summary.fresh, backend.calls) == (40, 0, 0)

    unkilled = sp_config(tmp_path / "unkilled")
    run(unkilled, backend=ScriptedBackend(SCRIPTED))
    killed_scored = write_scored(rescore(out, config.dataset), tmp_path / "killed.jsonl")
    unkilled_scored = write_scored(rescore(unkilled.output_dir, config.dataset), tmp_path / "unkilled.jsonl")
    assert killed_scored.read_bytes() == unkilled_scored.read_bytes()
