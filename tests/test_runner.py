"""Run orchestration: record log, caching, resume, and rescoring."""

from __future__ import annotations

import fcntl
import json
import re
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwpeval import (
    DataError,
    Dataset,
    DopLevel,
    ExperimentConfig,
    ModelSpec,
    ScriptedBackend,
    TaskKind,
    Triplet,
    UsageError,
    build_reports,
    load_records,
    load_scored,
    rescore,
    run,
    save_dataset,
    write_scored,
)
import mwpeval.runner
import mwpeval.triplets
from mwpeval.prompting import TemplateRegistry
from mwpeval.runner import RunRecord, build_cells, index_records

from conftest import DATA_DIR, fixture_without_explanation, make_triplet

FIXTURE_DATASET = DATA_DIR / "fixture_triplets.jsonl"
SCRIPTED = DATA_DIR / "scripted_responses.jsonl"


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
    assert RunRecord.from_json_line(record.to_json_line()) == record


def test_record_schema_is_strict():
    payload = json.loads(record_with().to_json_line())
    payload["notes"] = "hm"
    with pytest.raises(DataError, match="unexpected"):
        RunRecord.from_json_line(json.dumps(payload))


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


def test_torn_tail_can_be_made_strict(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(record_with().to_json_line()[:-5], encoding="utf-8")
    with pytest.raises(DataError):
        load_records(path, tolerate_torn_tail=False)


def test_index_keeps_latest_but_never_drops_a_success():
    ok = record_with(response_text="#### 24", error=None)
    newer_error = record_with(response_text=None, error="boom", attempts=0)
    retried_ok = record_with(response_text="#### 25")
    # success then error: the success stays
    assert index_records([ok, newer_error])[("m", "c" * 64)] is ok
    # error then success: the success replaces it
    assert index_records([newer_error, ok])[("m", "c" * 64)] is ok
    # success then success: latest wins
    assert index_records([ok, retried_ok])[("m", "c" * 64)] is retried_ok


# cell planning


def test_build_cells_covers_tasks_times_modes(fixture_dataset, tmp_path):
    config = sp_config(tmp_path, modes=tuple(DopLevel))
    registry = TemplateRegistry.load()
    cells, skipped, no_explanation = build_cells(fixture_dataset, config, registry)
    assert len(cells) == 20 + 20 * 4
    assert skipped == no_explanation == 0


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
    cells, skipped, no_explanation = build_cells(dataset, config, TemplateRegistry.load())
    assert skipped == 2  # one per correction mode
    assert no_explanation == 0
    assert len(cells) == 2 + 2


def test_build_cells_rejects_duplicate_prompt_content(tmp_path):
    twin = make_triplet(id="x02")  # same texts as x01, different id
    dataset = Dataset([make_triplet(), twin])
    config = sp_config(tmp_path)
    with pytest.raises(DataError, match="collision"):
        build_cells(dataset, config, TemplateRegistry.load())


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
    assert len(load_records(out / "records.jsonl", tolerate_torn_tail=False)) == 40


def test_a_whole_final_record_without_newline_is_kept(tmp_path):
    log = complete_log(tmp_path / "out")
    path = tmp_path / "out" / "records.jsonl"
    path.write_bytes(log[:-1])
    summary = run(sp_config(tmp_path / "out"), backend=ScriptedBackend(SCRIPTED))
    assert (summary.cached, summary.fresh) == (40, 0)
    assert path.read_bytes() == log


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
        records = load_records(out / "records.jsonl", tolerate_torn_tail=False)
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
    cells, _, _ = build_cells(fixture_dataset, config, TemplateRegistry.load())
    logged = load_records(Path(config.output_dir) / "records.jsonl")
    assert [r.content_hash for r in logged] == [c.content_hash for c in cells]


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
    assert len(load_records(log, tolerate_torn_tail=False)) == first.inner.calls

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert (summary.cached, summary.fresh, summary.failed) == (first.inner.calls, second.calls, 0)
    assert first.inner.calls + second.calls == summary.total_cells
    hashes = [r.content_hash for r in load_records(log, tolerate_torn_tail=False)]
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
    assert len(load_records(log, tolerate_torn_tail=False)) == first.inner.calls == 10

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert (summary.cached, summary.fresh) == (10, 30)
    assert len(load_records(log, tolerate_torn_tail=False)) == 40


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
    assert len(load_records(log, tolerate_torn_tail=False)) == first.succeeded

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


def test_run_sizes_the_backend_it_creates_to_concurrency(tmp_path, monkeypatch):
    sizes = []

    def create_backend(spec, concurrency=1):
        sizes.append(concurrency)
        return ScriptedBackend(SCRIPTED)

    monkeypatch.setattr(mwpeval.runner, "create_backend", create_backend)
    run(sp_config(tmp_path / "out", concurrency=3))
    assert sizes == [3]


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
