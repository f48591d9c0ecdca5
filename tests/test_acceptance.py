"""Acceptance suite.

Eight checks, each pinned to a frozen oracle: the bundled published
rate table, the hand-annotated extraction corpus, the 20-triplet
fixture with hand-enumerated outcomes, and two constructed backends.
Tolerances are stated inline and must not be widened.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import pytest

from mwpeval import (
    CompletionResult,
    DopLevel,
    ExperimentConfig,
    ModelSpec,
    ScriptedBackend,
    TaskKind,
    build_reports,
    load_dataset,
    rescore,
    run,
    scan_numbers,
    verify_published,
)
from mwpeval.cli import main
from mwpeval.extraction import extract, parse_numeric
from mwpeval.metrics import format_rate
from mwpeval.prompting import ALL_DOP_LEVELS, CORRECTION_MODES, TemplateRegistry, render

from conftest import DATA_DIR, read_jsonl

FIXTURE_DATASET = DATA_DIR / "fixture_triplets.jsonl"
SCRIPTED = DATA_DIR / "scripted_responses.jsonl"
README = Path(__file__).parent.parent / "README.md"


# 1. published rate recomputation, within +/-0.002, under a second


def test_published_rates_recompute_within_tolerance():
    started = time.monotonic()
    report = verify_published()
    elapsed = time.monotonic() - started

    assert report.rate_tolerance == 0.002
    assert len(report.rows) == 12
    for row in report.rows:
        published, computed = row.published, row.computed
        assert row.r_ok, f"{published.model}: R {computed.r_rate} vs printed {published.r_rate}"
        assert row.c_ok, f"{published.model}: C {computed.c_rate} vs printed {published.c_rate}"

    by_model = {row.published.model: row for row in report.rows}
    gpt4 = by_model["GPT-4-0613"]
    assert gpt4.computed.r_rate == (2152 + 306) / 2861
    assert format_rate(gpt4.computed.r_rate) == "0.859"
    gpt35 = by_model["GPT-3.5-turbo"]
    assert gpt35.computed.c_rate == (659 + 325) / 2861
    assert format_rate(gpt35.computed.c_rate) == "0.344"

    assert elapsed < 1.0


def test_verify_paper_command_exits_zero(capsys):
    assert main(["verify-paper"]) == 0
    assert "all rows check out" in capsys.readouterr().out


# 2. quadrant conservation: every row sums to the dataset size, exactly


def test_all_rows_sum_to_dataset_size():
    report = verify_published()
    assert report.dataset_size == 2861
    for row in report.rows:
        n = row.computed.counts.n
        assert n == 2861, f"{row.published.model} sums to {n}"


# 3. e_r > e_c for every model; GPT-4 values within +/-0.001 of hand-derived


def test_conditional_ratios_order_and_values():
    report = verify_published()
    for row in report.rows:
        e_r, e_c = row.computed.e_r, row.computed.e_c
        assert e_r is not None and e_c is not None
        assert e_r > e_c, f"{row.published.model}: e_r {e_r} <= e_c {e_c}"

    gpt4 = {row.published.model: row for row in report.rows}["GPT-4-0613"]
    assert gpt4.computed.e_r == pytest.approx(0.929, abs=1e-3)
    assert gpt4.computed.e_c == pytest.approx(0.876, abs=1e-3)
    # the derivation pinned: 2152/(2152+165) and 2152/(2152+306)
    assert gpt4.computed.e_r == 2152 / 2317
    assert gpt4.computed.e_c == 2152 / 2458


# 4. pipeline equals the hand-enumerated oracle exactly, in under 5 seconds


def test_pipeline_matches_oracle_exactly(tmp_path):
    started = time.monotonic()

    config = ExperimentConfig(
        dataset=str(FIXTURE_DATASET),
        model=ModelSpec(name="fixture-model", endpoint=f"scripted:{SCRIPTED}"),
        output_dir=str(tmp_path / "out"),
        modes=(DopLevel.SP,),
    )
    summary = run(config, backend=ScriptedBackend(SCRIPTED))
    assert summary.total_cells == 40
    assert summary.failed == 0

    outcomes = rescore(config.output_dir, config.dataset)

    with (DATA_DIR / "oracle_outcomes.csv").open(encoding="utf-8") as handle:
        oracle_rows = list(csv.DictReader(handle))
    assert len(outcomes) == len(oracle_rows) == 40
    got_rows = [
        {
            "triplet_id": o.triplet_id,
            "task": o.task.value,
            "dop": o.dop.value if o.dop else "-",
            "success": str(o.success).lower(),
            "reason": o.reason,
            "extracted": o.extracted or "",
        }
        for o in outcomes
    ]
    assert got_rows == oracle_rows  # zero tolerance, order included

    oracle = json.loads((DATA_DIR / "oracle_metrics.json").read_text())
    [report] = build_reports(outcomes)
    assert report.to_dict()["quadrants"] == oracle["quadrants"]
    assert report.counts.n == oracle["n"]
    assert report.r_rate == oracle["r_rate"]
    assert report.c_rate == oracle["c_rate"]
    assert report.e_r == oracle["e_r"]
    assert report.e_c == oracle["e_c"]
    # the oracle's per-mode correction rate is the report's C rate
    assert {report.mode.value: report.c_rate} == oracle["dop_pass_rates"]

    assert time.monotonic() - started < 5.0


# 5. extraction corpus: >=100 rows, >=95% agreement, case texts exact


def test_extraction_corpus_agreement():
    corpus = read_jsonl(DATA_DIR / "extraction_corpus.jsonl")
    assert len(corpus) >= 100

    hits = 0
    for row in corpus:
        got = extract(row["text"])
        if row["expected"] is None:
            hits += got is None
        else:
            hits += got is not None and got.value == parse_numeric(row["expected"]).value
    assert hits / len(corpus) >= 0.95

    cases = {
        "case-study-reasoning": "2240",
        "case-study-wrong-solution": "1120",
        "case-study-correction": "2800",
    }
    seen = {}
    for row in corpus:
        if row["note"] in cases:
            seen[row["note"]] = extract(row["text"]).canonical
    assert seen == cases


# 6. diagnostic prompting: an oracle that answers iff the prompt holds the
# reference numeric passes 0% at sp and 100% at every dop level


class NumericEchoBackend:
    """Succeeds exactly when the prompt text contains the reference value."""

    def __init__(self, dataset):
        self._reference = {t.id: t.reference_value for t in dataset}

    def complete(self, prompt) -> CompletionResult:
        reference = self._reference[prompt.triplet_id]
        found = any(
            token.value == reference.value for token in scan_numbers(prompt.text)
        )
        if found:
            text = f"Final answer: {reference.canonical}"
        else:
            text = "There is no way to tell from here."
        return CompletionResult(text=text, latency_ms=0.0, attempts=1)


def test_dop_levels_deliver_their_resource(tmp_path):
    dataset = load_dataset(FIXTURE_DATASET)

    config = ExperimentConfig(
        dataset=str(FIXTURE_DATASET),
        model=ModelSpec(name="echo-oracle", endpoint="scripted:unused"),
        output_dir=str(tmp_path / "out"),
        tasks=(TaskKind.CORRECTION,),
        modes=ALL_DOP_LEVELS,
    )
    summary = run(config, backend=NumericEchoBackend(dataset))
    assert summary.total_cells == 80
    assert summary.failed == 0

    outcomes = rescore(config.output_dir, dataset)
    by_mode: dict[str, list[bool]] = {}
    for outcome in outcomes:
        by_mode.setdefault(outcome.dop.value, []).append(outcome.success)
    measured = {mode: sum(successes) / len(successes) for mode, successes in by_mode.items()}
    assert measured == {
        "sp": 0.0,
        "dop_na": 1.0,
        "dop_be": 1.0,
        "dop_sa": 1.0,
    }


def test_every_dop_prompt_contains_its_resource_verbatim():
    dataset = load_dataset(FIXTURE_DATASET)
    registry = TemplateRegistry.load()
    for triplet in dataset:
        resources = {
            DopLevel.NA: triplet.reference_numeric,
            DopLevel.BE: triplet.brief_explanation,
            DopLevel.SA: triplet.reference_solution,
        }
        for level, resource in resources.items():
            prompt = render(triplet, CORRECTION_MODES[level], registry=registry)
            assert resource in prompt.text, (triplet.id, level)


# 7. idempotence and resume


class _Fused:
    """Delegates until the fuse burns, then raises."""

    def __init__(self, inner, fuse: int):
        self.inner = inner
        self.fuse = fuse
        self.started = 0

    def complete(self, prompt):
        self.started += 1
        if self.started > self.fuse:
            raise RuntimeError("interrupted")
        return self.inner.complete(prompt)


def test_identical_rerun_issues_zero_fresh_calls(tmp_path):
    config = ExperimentConfig(
        dataset=str(FIXTURE_DATASET),
        model=ModelSpec(name="fixture-model", endpoint=f"scripted:{SCRIPTED}"),
        output_dir=str(tmp_path / "out"),
        modes=(DopLevel.SP,),
    )
    run(config, backend=ScriptedBackend(SCRIPTED))
    again = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=again)
    assert summary.fresh == 0
    assert summary.cached == summary.total_cells == 40
    assert again.calls == 0


def test_interrupted_run_resumes_to_exactly_the_cell_count(tmp_path):
    config = ExperimentConfig(
        dataset=str(FIXTURE_DATASET),
        model=ModelSpec(name="fixture-model", endpoint=f"scripted:{SCRIPTED}"),
        output_dir=str(tmp_path / "out"),
        modes=(DopLevel.SP,),
    )
    first = _Fused(ScriptedBackend(SCRIPTED), fuse=20)
    with pytest.raises(RuntimeError):
        run(config, backend=first)
    assert first.inner.calls == 20  # half the 40 cells

    second = ScriptedBackend(SCRIPTED)
    summary = run(config, backend=second)
    assert summary.fresh == 20
    assert summary.cached == 20
    assert first.inner.calls + second.calls == summary.total_cells == 40


# 8. the live experiments are documented as not desk-reproducible,
# together with the exact commands that would rerun them


def test_readme_states_reproducibility_limits_and_commands():
    text = README.read_text(encoding="utf-8")
    assert "not reproducible at desk scale" in text
    assert "## Reproducing the live experiments" in text
    for command in (
        "mwpeval ingest --source mathdial",
        "mwpeval run --config",
        "mwpeval rescore",
        "mwpeval report",
        "mwpeval verify-paper",
    ):
        assert command in text, command
    # credentials come from the environment, never from config values
    assert "auth_env" in text
