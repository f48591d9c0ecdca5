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
    dop_pass_rates,
    e_ratios,
    load_dataset,
    quadrants,
    rates,
    rescore,
    run,
    scan_numbers,
    verify_published,
)
from mwpeval.cli import main
from mwpeval.extraction import extract, parse_numeric
from mwpeval.metrics import format_rate
from mwpeval.prompting import ALL_DOP_LEVELS, CORRECTION_MODES, TemplateRegistry, render
from mwpeval.scoring import join

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
        assert row.r_ok, f"{row.model}: R {row.computed_r} vs printed {row.printed_r}"
        assert row.c_ok, f"{row.model}: C {row.computed_c} vs printed {row.printed_c}"

    by_model = {row.model: row for row in report.rows}
    gpt4 = by_model["GPT-4-0613"]
    assert gpt4.computed_r == (2152 + 306) / 2861
    assert format_rate(gpt4.computed_r) == "0.859"
    gpt35 = by_model["GPT-3.5-turbo"]
    assert gpt35.computed_c == (659 + 325) / 2861
    assert format_rate(gpt35.computed_c) == "0.344"

    assert elapsed < 1.0


def test_verify_paper_command_exits_zero(capsys):
    assert main(["verify-paper"]) == 0
    assert "all rows check out" in capsys.readouterr().out


# 2. quadrant conservation: every row sums to the dataset size, exactly


def test_all_rows_sum_to_dataset_size():
    report = verify_published()
    assert report.dataset_size == 2861
    for row in report.rows:
        assert row.n == 2861, f"{row.model} sums to {row.n}"


# 3. e_r > e_c for every model; GPT-4 values within +/-0.001 of hand-derived


def test_conditional_ratios_order_and_values():
    report = verify_published()
    for row in report.rows:
        assert row.e_r is not None and row.e_c is not None
        assert row.e_r > row.e_c, f"{row.model}: e_r {row.e_r} <= e_c {row.e_c}"

    gpt4 = {row.model: row for row in report.rows}["GPT-4-0613"]
    assert gpt4.e_r == pytest.approx(0.929, abs=1e-3)
    assert gpt4.e_c == pytest.approx(0.876, abs=1e-3)
    # the derivation pinned: 2152/(2152+165) and 2152/(2152+306)
    assert gpt4.e_r == 2152 / 2317
    assert gpt4.e_c == 2152 / 2458


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
    reasoning = {o.triplet_id: o for o in outcomes if o.task is TaskKind.REASONING}
    corrections = [o for o in outcomes if o.task is TaskKind.CORRECTION]
    joints = [join(reasoning[o.triplet_id], o) for o in corrections]
    counts = quadrants(joints)
    assert counts.to_dict() == oracle["quadrants"]
    assert counts.n == oracle["n"]
    r_rate, c_rate = rates(counts)
    assert r_rate == oracle["r_rate"]
    assert c_rate == oracle["c_rate"]
    e_r, e_c = e_ratios(counts)
    assert e_r == oracle["e_r"]
    assert e_c == oracle["e_c"]
    assert {k.value: v for k, v in dop_pass_rates(corrections).items()} == oracle[
        "dop_pass_rates"
    ]

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
    measured = {k.value: v for k, v in dop_pass_rates(outcomes).items()}
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
