"""Benchmark of the mwpeval harness: one workload per invocation.

    python3 bench/run.py --workload fresh-stub --seed 1 --seconds 40 --trace 0

Repeats the workload's pipeline iteration (run, rescore, report) for
--seconds seconds, checks every output, and prints each metric with its
unit, then as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones over the untraced iterations: setup_s
is their median, the rates are total work over total stage time, and
pipeline_s is their mean. With --trace 1 untraced and traced iterations
alternate, the metrics are the per-layer ones (medians over traced
iterations) plus the tracing overhead, and the spans are written to
.bench_work/traces/.
--workload all runs each workload in its own process and prints them all.

The package is imported from src/ of the checkout this file sits in;
without it the benchmark exits with code 2. Scratch files go under
.bench_work/ of that checkout and are removed at exit; the output
digests of each workload and seed (digests.json) and the spans stay.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def declared(kind: str, field: str = "unit") -> dict[str, str]:
    """name -> field of each entry of BENCHMARK.json's list kind, which
    is the one list of the benchmark's workloads and metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry[field] for entry in spec[kind]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*declared("workloads", "why"), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, work: Path) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    # The benchmark's own long-lived objects (inputs, oracle) are moved
    # out of the collector's reach, so timings carry the package's
    # collection work only.
    gc.collect()
    gc.freeze()
    untraced: list = []
    traced: list = []
    try:
        deadline = time.perf_counter() + args.seconds
        spent: list[float] = []
        i = 0
        # An iteration starts only if one of typical length still ends
        # by the deadline, so a run lasts --seconds, not up to one
        # iteration more.
        while i < 1 + args.trace or time.perf_counter() + statistics.median(spent) <= deadline:
            tracer = tracing.Tracer() if args.trace and i % 2 else None
            run_dir = work / f"iteration-{i}"
            began = time.perf_counter()
            it = workloads.iterate(workload, run_dir, tracer)
            (traced if tracer else untraced).append(it)
            shutil.rmtree(run_dir)
            spent.append(time.perf_counter() - began)
            print(
                f"iteration {i}{' traced' if tracer else ''}: setup_s={it.setup_s:.4f} "
                f"run_s={it.run_s:.4f} rescore_s={it.rescore_s:.4f} "
                f"report_s={it.report_s:.5f} pipeline_s={it.pipeline_s:.4f}"
            )
            i += 1
    finally:
        workload.close()

    iterations = untraced + traced
    problems = [p for it in iterations for p in it.problems]
    if len({it.digests for it in iterations}) != 1:
        problems.append("scored/report digests differ between iterations")
    problems += check_digests(f"{args.workload}:{args.seed}", iterations[0].digests)
    attempted = sum(it.cells for it in iterations)
    failed = sum(it.failed_cells for it in iterations) + len(problems)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: statistics.median(it.layers[name] for it in traced) for name in traced[0].layers
        }
        metrics["trace.overhead_s"] = statistics.median(
            it.pipeline_s for it in traced
        ) - statistics.median(it.pipeline_s for it in untraced)
        tracing.write_spans(
            WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
            [it.spans for it in traced],
        )
        units = declared("per_layer")
    else:
        metrics = {
            # On a shared host the CPU's speed can switch between levels
            # every few seconds; the median of a handful of iterations
            # jumps between them, so rates and pipeline_s average the run.
            "setup_s": statistics.median(it.setup_s for it in untraced),
            "run_cells_per_s": sum(it.cells for it in untraced) / sum(it.run_s for it in untraced),
            "rescore_cells_per_s": sum(it.outcomes for it in untraced)
            / sum(it.rescore_s for it in untraced),
            "pipeline_s": statistics.fmean(it.pipeline_s for it in untraced),
            "ok_cell_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    print(f"{args.workload}: {len(untraced)} untraced, {len(traced)} traced iterations")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def check_digests(key: str, digests: tuple[str, ...]) -> list[str]:
    """Outputs for one workload and seed must not change between runs."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if key in known:
        return [] if known[key] == list(digests) else [f"outputs differ from an earlier run of {key}"]
    known[key] = list(digests)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in declared("workloads", "why"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        *_, last = proc.stdout.splitlines()
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mwpeval" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'mwpeval'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            result = measure(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
