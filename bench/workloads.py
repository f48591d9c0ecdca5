"""The benchmark's workloads and the pipeline iteration they share.

One iteration is what a user of the harness waits for: run, rescore,
report, from a dataset already on disk to a report bundle written. It
drives the package only through its public API and then checks every
output against the oracle in synth.py.

fresh-stub     paper-scale data into an empty output dir, answered by a
               zero-latency in-process stub: render, hash, dispatch and
               append dominate.
cached-rerun   the same data and config over a complete log: run() must
               make no backend call, so the resume scan, rescore and a
               1000-resample bootstrap dominate.
http-stub      400 triplets through HttpChatBackend into a local server
               that refuses a seeded 5% of first attempts with 429: the
               only workload that crosses the HTTP client and its retry.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import requests

import mwpeval
from mwpeval import (
    BootstrapSpec,
    ExperimentConfig,
    HttpChatBackend,
    ModelSpec,
    RetryPolicy,
    TemplateRegistry,
    build_reports,
    load_dataset,
    load_records,
    render,
    rescore,
    run,
    save_dataset,
    write_report_bundle,
    write_scored,
)

import http_stub
import synth
from tracing import GapClock, Tracer, durations, quantile, self_time

PAPER_TRIPLETS = 2861
HTTP_TRIPLETS = 400
CONCURRENCY = 2
RATE_429 = 0.05
STUB_SPEC = ModelSpec(name="bench-model", endpoint="stub:in-process")
PREPARE_TIMEOUT_S = 120.0
REPEAT_S = 1.0
MAX_REPEATS = 20


@dataclass
class Iteration:
    """Timings and checks of one pipeline iteration."""

    cells: int
    outcomes: int
    failed_cells: int
    setup_s: float
    run_s: float
    rescore_s: float
    report_s: float
    pipeline_s: float
    digests: tuple[str, ...]
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


class _Workload:
    name = ""
    triplets = PAPER_TRIPLETS
    bootstrap: BootstrapSpec | None = None
    spec = STUB_SPEC

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.dataset = synth.make_dataset(seed, self.triplets)
        self.dataset_path = save_dataset(self.dataset, work / "dataset.jsonl")
        self.cells = len(self.dataset) * len(synth.MODES)
        self.replies = synth.answers(seed, self.dataset)
        self.reasons = {
            (t.id, mode.key): synth.expected_reason(seed, t.id, mode.key)
            for t in self.dataset
            for mode in synth.MODES
        }
        self.quadrants = synth.expected_quadrants(seed, self.dataset)

    def prepare(self, run_dir: Path) -> None:
        """Untimed: put the output dir in its starting state."""

    def backend(self):
        return synth.StubBackend(self.replies)

    def finish(self, run_dir: Path, calls: int, summary) -> tuple[list[str], dict[str, float]]:
        """Untimed, after the pipeline: workload-specific problems found
        and layer counts only this workload can supply."""
        problems = []
        if calls != self.cells or summary.fresh != self.cells or summary.cached:
            problems.append(
                f"expected {self.cells} fresh cells and backend calls, got "
                f"fresh={summary.fresh} cached={summary.cached} calls={calls}"
            )
        return problems, {}

    def close(self) -> None:
        pass


class FreshStub(_Workload):
    name = "fresh-stub"


def make_log(dataset_path: str, run_dir: str, seed: int) -> None:
    """A complete fresh run into run_dir. CachedRerun runs this in a
    child process, so the parent's peak memory is the rerun's alone."""
    replies = synth.answers(seed, load_dataset(dataset_path))
    config = ExperimentConfig(
        dataset=dataset_path, model=STUB_SPEC, output_dir=run_dir, concurrency=CONCURRENCY
    )
    summary = run(config, backend=synth.StubBackend(replies))
    if summary.failed:
        raise RuntimeError(f"{summary.failed} cells failed while preparing the log")


class CachedRerun(_Workload):
    name = "cached-rerun"
    bootstrap = BootstrapSpec(resamples=1000, level=0.95, seed=0)

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.prepared = work / "prepared"
        paths = [str(Path(mwpeval.__file__).resolve().parent.parent)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        subprocess.run(
            [sys.executable, __file__, str(self.dataset_path), str(self.prepared), str(seed)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            check=True,
            timeout=PREPARE_TIMEOUT_S,
        )

    def prepare(self, run_dir: Path) -> None:
        run_dir.mkdir(parents=True)
        for name in ("records.jsonl", "config.json"):
            shutil.copyfile(self.prepared / name, run_dir / name)

    def finish(self, run_dir: Path, calls: int, summary) -> tuple[list[str], dict[str, float]]:
        problems = []
        if calls or summary.fresh or summary.cached != self.cells:
            problems.append(
                f"expected all {self.cells} cells cached and no backend call, got "
                f"fresh={summary.fresh} cached={summary.cached} calls={calls}"
            )
        return problems, {}


class HttpStub(_Workload):
    name = "http-stub"
    triplets = HTTP_TRIPLETS

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        registry = TemplateRegistry.load()
        by_key: dict[str, str] = {}
        for t in self.dataset:
            for mode in synth.MODES:
                text = render(t, mode, STUB_SPEC.params, registry).text
                by_key[http_stub.prompt_key(text)] = self.replies[(t.id, mode.key)]
        self.expected_429 = sum(http_stub.injects_429(seed, k, RATE_429) for k in by_key)
        replies_path = work / "http_replies.json"
        replies_path.write_text(json.dumps(by_key), encoding="utf-8")
        self.server = http_stub.StubServer(replies_path, seed, RATE_429)
        self.spec = ModelSpec(
            name=STUB_SPEC.name,
            endpoint=self.server.url,
            timeout=30.0,
            retry=RetryPolicy(max_attempts=5, base_delay=0.002, max_delay=0.05),
            requests_per_second=1e6,
        )
        self._session: requests.Session | None = None

    def backend(self):
        self._session = requests.Session()
        return HttpChatBackend(self.spec, session=self._session, rng=random.Random(self.seed))

    def finish(self, run_dir: Path, calls: int, summary) -> tuple[list[str], dict[str, float]]:
        self._session.close()
        problems, _ = super().finish(run_dir, calls, summary)
        counts = self.server.take()
        wanted = self.cells + self.expected_429
        if counts.injected_429 != self.expected_429 or counts.requests != wanted:
            problems.append(
                f"expected {wanted} requests with {self.expected_429} refused, server saw "
                f"{counts.requests} with {counts.injected_429} refused"
            )
        attempts = sum(r.attempts for r in load_records(run_dir / "records.jsonl"))
        if attempts != counts.requests:
            problems.append(f"records claim {attempts} attempts, server saw {counts.requests} requests")
        return problems, {
            "backends.requests_per_cell": counts.requests / self.cells,
            "backends.requests_per_connection": counts.requests / max(counts.connections, 1),
        }

    def close(self) -> None:
        self.server.close()


WORKLOADS = {w.name: w for w in (FreshStub, CachedRerun, HttpStub)}


class _CallClock:
    """Outermost backend wrapper: counts calls and notes when the first
    one began, which ends run()'s set-up."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0
        self.first_call: float | None = None

    def complete(self, prompt):
        with self._lock:
            if self.first_call is None:
                self.first_call = time.perf_counter()
            self.calls += 1
        return self._inner.complete(prompt)


def _stage(fn, repeat: bool):
    """(seconds, result) of fn. Each call starts from a collected heap,
    as each command of the CLI starts in a fresh process; otherwise a
    full collection lands in some calls and not others. With repeat, a
    stage shorter than REPEAT_S runs again until REPEAT_S has passed and
    the mean time counts, so short stages are not dominated by noise."""
    times = []
    while True:
        gc.collect()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        if not repeat or sum(times) >= REPEAT_S or len(times) >= MAX_REPEATS:
            return statistics.fmean(times), result


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def iterate(workload: _Workload, run_dir: Path, tracer: Tracer | None = None) -> Iteration:
    """One timed pipeline iteration, with tracing when tracer is given."""
    workload.prepare(run_dir)
    inner = workload.backend()
    gaps = GapClock(inner) if tracer else None
    clock = _CallClock(gaps or inner)
    config = ExperimentConfig(
        dataset=str(workload.dataset_path),
        model=workload.spec,
        output_dir=str(run_dir),
        concurrency=CONCURRENCY,
    )
    call = tracer.call if tracer else _direct
    gc.collect()
    with tracer.installed() if tracer else nullcontext():
        t0 = time.perf_counter()
        summary = call("runner.run", run, config, backend=clock)
        run_s = time.perf_counter() - t0
        rescore_s, outcomes = _stage(
            lambda: call("runner.rescore", rescore, run_dir, workload.dataset_path),
            repeat=tracer is None,
        )
        write_s, scored = _stage(
            lambda: write_scored(outcomes, run_dir / "scored.jsonl"), repeat=False
        )

        def report():
            reports = call("report.build_reports", build_reports, outcomes, workload.bootstrap)
            return reports, call(
                "report.write_report_bundle",
                write_report_bundle,
                reports,
                run_dir / "report",
                meta={"scored_file": scored.name, "outcomes": len(outcomes)},
                bootstrap=workload.bootstrap,
            )

        report_s, (reports, paths) = _stage(report, repeat=tracer is None)
    problems, layers = workload.finish(run_dir, clock.calls, summary)
    problems += _check(workload, summary, outcomes, reports)
    it = Iteration(
        cells=summary.total_cells,
        outcomes=len(outcomes),
        failed_cells=summary.failed,
        setup_s=(clock.first_call or t0 + run_s) - t0,
        run_s=run_s,
        rescore_s=rescore_s,
        report_s=report_s,
        pipeline_s=run_s + rescore_s + write_s + report_s,
        digests=tuple(_digest(p) for p in (scored, paths["markdown"], paths["csv"])),
        problems=problems,
    )
    if tracer:
        it.spans, counts = tracer.take()
        it.layers = _layers(it.spans, counts, gaps, summary) | layers
    return it


def _check(workload: _Workload, summary, outcomes, reports) -> list[str]:
    """Every output against the oracle; returns the problems found."""
    problems = []
    if summary.total_cells != workload.cells or summary.failed:
        problems.append(
            f"expected {workload.cells} cells and no failure, got "
            f"{summary.total_cells} cells and {summary.failed} failed"
        )
    got = {(o.triplet_id, f"{o.task.value}|{o.dop.value if o.dop else '-'}"): o.reason for o in outcomes}
    wrong = sum(got.get(key) != reason for key, reason in workload.reasons.items())
    if wrong or len(got) != len(workload.reasons):
        problems.append(f"{wrong} of {len(workload.reasons)} outcomes disagree with the oracle")
    modes = {}
    for report in reports:
        modes[report.mode.value] = report
        want = workload.quadrants.get(report.mode.value)
        if report.counts != want:
            problems.append(f"{report.mode.value}: report counts {report.counts}, oracle {want}")
        if workload.bootstrap is not None and not (
            report.r_ci and report.c_ci
            and report.r_ci[0] <= report.r_rate <= report.r_ci[1]
            and report.c_ci[0] <= report.c_rate <= report.c_ci[1]
        ):
            problems.append(f"{report.mode.value}: bootstrap intervals missing or off the estimate")
    if sorted(modes) != sorted(workload.quadrants):
        problems.append(f"report modes {sorted(modes)}, expected {sorted(workload.quadrants)}")
    return problems


def _layers(spans, counts, gaps: GapClock, summary) -> dict[str, float]:
    render_s = durations(spans, "prompting.render")
    score_s = durations(spans, "scoring.score")
    complete_s = durations(spans, "backends.complete")
    bootstrap_s = durations(spans, "metrics.bootstrap_ci")
    return {
        "triplets.load_dataset.calls": len(durations(spans, "triplets.load_dataset")),
        "triplets.load_dataset.s": sum(durations(spans, "triplets.load_dataset")),
        "extraction.extract.calls": counts["extraction.extract"],
        "prompting.render.calls": len(render_s),
        "prompting.render.s": sum(render_s),
        "prompting.render.us_p50": quantile(render_s, 0.5) * 1e6,
        "runner.build_cells.s": sum(durations(spans, "runner.build_cells")),
        "runner.load_records.s": sum(durations(spans, "runner.load_records")),
        "runner.index_records.s": sum(durations(spans, "runner.index_records")),
        "runner.run.self_s": self_time(spans, "runner.run"),
        "runner.dispatch_gap_us_p50": quantile(gaps.gaps, 0.5) * 1e6,
        "runner.dispatch_gap_us_p99": quantile(gaps.gaps, 0.99) * 1e6,
        "runner.log_bytes_per_cell": summary.records_path.stat().st_size / summary.total_cells,
        "backends.complete.calls": len(complete_s),
        "backends.complete.ms_p50": quantile(complete_s, 0.5) * 1e3,
        "backends.complete.ms_p99": quantile(complete_s, 0.99) * 1e3,
        "backends.requests_per_cell": 0.0,
        "backends.requests_per_connection": 0.0,
        "scoring.score.calls": len(score_s),
        "scoring.score.us_p50": quantile(score_s, 0.5) * 1e6,
        "runner.rescore.self_s": self_time(spans, "runner.rescore"),
        "metrics.bootstrap_ci.calls": len(bootstrap_s),
        "metrics.bootstrap_ci.s": sum(bootstrap_s),
        "report.build_reports.self_s": self_time(spans, "report.build_reports"),
        "report.write_report_bundle.s": sum(durations(spans, "report.write_report_bundle")),
    }


if __name__ == "__main__":
    make_log(sys.argv[1], sys.argv[2], int(sys.argv[3]))
