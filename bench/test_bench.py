"""Tests of the benchmark's own parts on tiny inputs.

Run with: python -m pytest bench
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
import requests

from mwpeval import (
    ALL_DOP_LEVELS,
    ExperimentConfig,
    HttpChatBackend,
    ModelSpec,
    RetryPolicy,
    build_reports,
    load_dataset,
    rescore,
    run,
    save_dataset,
)

import http_stub
import synth
import tracing
import workloads


def test_generator_is_seeded_and_valid(tmp_path: Path) -> None:
    a = synth.make_dataset(3, 40)
    assert a.digest == synth.make_dataset(3, 40).digest
    assert a.digest != synth.make_dataset(4, 40).digest
    loaded = load_dataset(save_dataset(a, tmp_path / "d.jsonl"))
    assert loaded.digest == a.digest
    assert len({len(t.question) for t in a}) > 5


def test_generator_questions_are_unique_at_paper_scale() -> None:
    dataset = synth.make_dataset(0, workloads.PAPER_TRIPLETS)
    assert len({t.question for t in dataset}) == len(dataset)


def test_oracle_matches_the_scored_pipeline(tmp_path: Path) -> None:
    dataset = synth.make_dataset(5, 60)
    path = save_dataset(dataset, tmp_path / "d.jsonl")
    config = ExperimentConfig(
        dataset=str(path), model=workloads.STUB_SPEC, output_dir=str(tmp_path / "run"), concurrency=2
    )
    summary = run(config, backend=synth.StubBackend(synth.answers(5, dataset)))
    assert summary.fresh == summary.total_cells == 60 * len(synth.MODES)
    outcomes = rescore(summary.run_dir, path)
    for o in outcomes:
        key = f"{o.task.value}|{o.dop.value if o.dop else '-'}"
        assert o.reason == synth.expected_reason(5, o.triplet_id, key)
    assert {o.reason for o in outcomes} == {"matched", "mismatched", "no-extraction"}
    expected = synth.expected_quadrants(5, dataset)
    reports = build_reports(outcomes)
    assert [r.mode for r in reports] == list(ALL_DOP_LEVELS)
    for report in reports:
        assert report.counts == expected[report.mode.value]


def test_stub_server_refuses_first_attempts_and_counts_connections(tmp_path: Path) -> None:
    prompts = [f"prompt number {i}" for i in range(60)]
    replies = {http_stub.prompt_key(p): f"Final answer: {i}" for i, p in enumerate(prompts)}
    refused = sum(http_stub.injects_429(9, k, 0.2) for k in replies)
    assert 0 < refused < len(prompts)
    path = tmp_path / "replies.json"
    path.write_text(json.dumps(replies), encoding="utf-8")
    server = http_stub.StubServer(path, seed=9, rate_429=0.2)
    try:
        spec = ModelSpec(
            name="m", endpoint=server.url, requests_per_second=1e6,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        for _ in range(2):
            session = requests.Session()
            backend = HttpChatBackend(spec, session=session, rng=random.Random(0))
            attempts = 0
            for i, p in enumerate(prompts):
                result = backend.complete(_Prompt(p))  # the client reads only .text
                assert result.text == f"Final answer: {i}"
                attempts += result.attempts
            session.close()
            counts = server.take()
            assert counts == http_stub.Counts(len(prompts) + refused, 1, refused)
            assert attempts == counts.requests
    finally:
        server.close()
    assert server._process.poll() is not None


class _Prompt:
    def __init__(self, text: str) -> None:
        self.text = text


def test_self_time_subtracts_the_union_of_children() -> None:
    spans = [
        tracing.Span(1, "parent", 0.0, 10.0, None),
        tracing.Span(2, "child", 1.0, 4.0, 1),
        tracing.Span(3, "child", 3.0, 5.0, 1),  # overlaps the first child
        tracing.Span(4, "grandchild", 1.5, 2.0, 2),
    ]
    assert tracing.self_time(spans, "parent") == pytest.approx(6.0)
    assert tracing.self_time(spans, "child") == pytest.approx(4.5)


@pytest.mark.parametrize("kind", [workloads.FreshStub, workloads.CachedRerun, workloads.HttpStub])
def test_workload_iterations_pass_their_checks(kind, tmp_path: Path) -> None:
    small = type(kind.__name__, (kind,), {"triplets": 12})
    workload = small(7, tmp_path)
    try:
        plain = workloads.iterate(workload, tmp_path / "a")
        traced = workloads.iterate(workload, tmp_path / "b", tracing.Tracer())
    finally:
        workload.close()
    assert plain.problems == traced.problems == []
    assert plain.digests == traced.digests
    layers = traced.layers
    assert layers["prompting.render.calls"] == 12 * len(synth.MODES)
    assert (layers["metrics.bootstrap_ci.calls"] > 0) == (kind is workloads.CachedRerun)
    assert (layers["backends.complete.calls"] > 0) == (kind is workloads.HttpStub)


def test_checks_catch_wrong_answers(tmp_path: Path) -> None:
    workload = type("Small", (workloads.FreshStub,), {"triplets": 12})(7, tmp_path)
    key = next(k for k, reason in workload.reasons.items() if reason == "matched")
    workload.replies[key] = "No number here."
    assert workloads.iterate(workload, tmp_path / "run").problems
