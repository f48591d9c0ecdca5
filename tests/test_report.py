"""Report building, rendering, and the published-results check."""

from __future__ import annotations

import csv
import dataclasses
import json
import re
from importlib import resources
from xml.etree import ElementTree

import pytest

from mwpeval import (
    BootstrapSpec,
    DataError,
    DopLevel,
    QuadrantCounts,
    TaskKind,
    build_reports,
    load_published,
    published_reports,
    verify_published,
    write_report_bundle,
)
from mwpeval import report as report_module
from mwpeval.report import (
    chart_data,
    render_csv,
    render_markdown,
    render_svg,
    report_from_counts,
)
from mwpeval.scoring import Outcome

from conftest import DATA_DIR

MODEL = "fixture-model"
GOLDEN_DIR = DATA_DIR / "golden_report"

# triplet ids by planned quadrant: both tasks succeed (t01-t08), only
# reasoning (t09-t14), only correction (t15-t16), neither (t17-t20)
R_SUCCESS = {f"t{i:02d}" for i in range(1, 15)}
C_SUCCESS = {f"t{i:02d}" for i in range(1, 9)} | {"t15", "t16"}
ALL_IDS = [f"t{i:02d}" for i in range(1, 21)]


def outcome(
    tid: str, task: TaskKind, dop: DopLevel | None, success: bool, model: str = MODEL
) -> Outcome:
    return Outcome(
        triplet_id=tid,
        task=task,
        dop=dop,
        model=model,
        template_id="x@00000000",
        extracted="1" if success else None,
        success=success,
        reason="matched" if success else "no-extraction",
    )


def sp_outcomes() -> list[Outcome]:
    out = [outcome(t, TaskKind.REASONING, None, t in R_SUCCESS) for t in ALL_IDS]
    out += [
        outcome(t, TaskKind.CORRECTION, DopLevel.SP, t in C_SUCCESS) for t in ALL_IDS
    ]
    return out


def test_build_reports_computes_the_planned_quadrants():
    reports = build_reports(sp_outcomes())
    assert len(reports) == 1
    report = reports[0]
    assert report.model == MODEL
    assert report.mode is DopLevel.SP
    assert report.counts == QuadrantCounts(8, 6, 2, 4)
    assert report.r_rate == 14 / 20
    assert report.c_rate == 10 / 20
    assert report.e_r == 8 / 10
    assert report.e_c == 8 / 14
    assert report.r_ci is None and report.c_ci is None


def test_build_reports_orders_modes_by_resource_ladder():
    outcomes = [outcome(t, TaskKind.REASONING, None, True) for t in ALL_IDS]
    for level in (DopLevel.SA, DopLevel.SP, DopLevel.BE, DopLevel.NA):
        outcomes += [
            outcome(t, TaskKind.CORRECTION, level, True) for t in ALL_IDS
        ]
    reports = build_reports(outcomes)
    assert [r.mode for r in reports] == [
        DopLevel.SP,
        DopLevel.NA,
        DopLevel.BE,
        DopLevel.SA,
    ]


def test_build_reports_requires_a_reasoning_partner():
    orphl = [outcome("t01", TaskKind.CORRECTION, DopLevel.SP, True)]
    with pytest.raises(DataError, match="no reasoning outcome"):
        build_reports(orphl)


def test_build_reports_rejects_a_duplicate_reasoning_outcome():
    outcomes = sp_outcomes() + [outcome("t05", TaskKind.REASONING, None, False)]
    with pytest.raises(
        DataError, match=f"model {MODEL}: duplicate reasoning outcome for triplet t05"
    ):
        build_reports(outcomes)


def test_build_reports_rejects_a_duplicate_correction():
    outcomes = sp_outcomes() + [outcome("t07", TaskKind.CORRECTION, DopLevel.SP, True)]
    with pytest.raises(DataError, match="duplicate sp correction outcome for triplet t07"):
        build_reports(outcomes)


@pytest.mark.parametrize("name", ["a\nb", "x\x01y"])
def test_build_reports_refuses_a_model_name_with_a_control_character(name):
    outcomes = sp_outcomes() + [
        dataclasses.replace(o, model=name) for o in sp_outcomes()
    ]
    with pytest.raises(DataError, match="control character") as raised:
        build_reports(outcomes)
    assert repr(name) in str(raised.value)


def test_build_reports_checks_each_model_name_once(monkeypatch):
    seen = []
    monkeypatch.setattr(report_module, "control_character", lambda name: seen.append(name))
    outcomes = sp_outcomes() + [dataclasses.replace(o, model="R&D <7b>") for o in sp_outcomes()]
    assert {r.model for r in build_reports(outcomes)} == {MODEL, "R&D <7b>"}
    assert sorted(seen) == sorted([MODEL, "R&D <7b>"])


def test_build_reports_requires_corrections():
    only_reasoning = [outcome("t01", TaskKind.REASONING, None, True)]
    with pytest.raises(DataError, match="no correction outcomes"):
        build_reports(only_reasoning)


def test_bootstrap_intervals_bracket_their_rates():
    spec = BootstrapSpec(resamples=200, seed=3)
    report = build_reports(sp_outcomes(), bootstrap=spec)[0]
    assert report.r_ci is not None and report.c_ci is not None
    assert report.r_ci[0] <= report.r_rate <= report.r_ci[1]
    assert report.c_ci[0] <= report.c_rate <= report.c_ci[1]
    again = build_reports(sp_outcomes(), bootstrap=spec)[0]
    assert again.r_ci == report.r_ci and again.c_ci == report.c_ci


def test_bootstrap_intervals_match_earlier_versions_bit_for_bit():
    report = build_reports(sp_outcomes(), bootstrap=BootstrapSpec(resamples=200, seed=3))[0]
    assert report.r_ci == (0.5, 0.9012500000000003)
    assert report.c_ci == (0.25, 0.75)


# rendering


def test_markdown_rows_echo_the_rounded_source_values():
    report = build_reports(sp_outcomes())[0]
    text = render_markdown([report], meta={"dataset": "fixture"})
    lines = text.splitlines()
    assert lines[0] == "# Solving vs correction rates"
    assert "- dataset: fixture" in lines
    row = next(l for l in lines if l.startswith(f"| {MODEL}"))
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells == [
        MODEL, "sp", "20", "0.700", "0.500", "8", "6", "2", "4", "0.800", "0.571",
    ]


def test_markdown_renders_undefined_ratios_as_a_dash():
    report = report_from_counts(QuadrantCounts(0, 0, 5, 5), "m", DopLevel.SP)
    assert report.e_c is None
    text = render_markdown([report])
    assert "—" in text


def test_markdown_adds_ci_columns_only_when_present():
    report = build_reports(sp_outcomes())[0]
    plain = render_markdown([report])
    assert "R-rate CI" not in plain
    with_ci = render_markdown(
        [build_reports(sp_outcomes(), bootstrap=BootstrapSpec(resamples=200))[0]]
    )
    assert "R-rate CI" in with_ci and "[" in with_ci


def test_csv_uses_empty_cells_for_undefined():
    report = report_from_counts(QuadrantCounts(0, 0, 5, 5), "m", DopLevel.SP)
    text = render_csv([report])
    header, row = text.strip().splitlines()
    assert header.startswith("model,mode,n,srsc")
    fields = row.split(",")
    assert fields[0] == "m"
    assert fields[10] == ""  # e_c has no denominator
    assert fields[7] == "0.000"


def test_csv_rounds_like_the_markdown():
    report = build_reports(sp_outcomes())[0]
    row = render_csv([report]).strip().splitlines()[1]
    assert ",0.700,0.500,0.800,0.571," in row


def test_chart_data_one_series_per_mode():
    outcomes = [outcome(t, TaskKind.REASONING, None, True) for t in ALL_IDS]
    for level in DopLevel:
        outcomes += [
            outcome(t, TaskKind.CORRECTION, level, t in C_SUCCESS) for t in ALL_IDS
        ]
    chart = chart_data(build_reports(outcomes))
    assert chart["metric"] == "c_rate"
    assert chart["models"] == [MODEL]
    assert [s["mode"] for s in chart["series"]] == ["sp", "dop_na", "dop_be", "dop_sa"]
    for series in chart["series"]:
        assert series["points"] == [{"model": MODEL, "value": 0.5}]


def test_svg_has_a_bar_per_defined_point():
    chart = chart_data(build_reports(sp_outcomes()))
    svg = render_svg(chart)
    assert svg.startswith("<svg ")
    assert svg.count("<rect") == 1
    assert "0.500" in svg


def test_every_artifact_parses_back_a_model_name_with_markup(tmp_path):
    names = ["R&D <7b>", 'a,"b"', "p|q"]
    reports = [report_from_counts(QuadrantCounts(8, 6, 2, 4), name, DopLevel.SP) for name in names]
    paths = write_report_bundle(reports, tmp_path)

    svg = ElementTree.parse(paths["svg"]).getroot()
    texts = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert all(name in texts for name in names)

    with paths["csv"].open(encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert [row[0] for row in rows] == names
    assert all(len(row) == len(header) for row in rows)

    table = [line for line in paths["markdown"].read_text("utf-8").splitlines() if line[:1] == "|"]
    cells = [
        [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line[1:-1])]
        for line in table
    ]
    assert [row[0] for row in cells[2:]] == names
    assert all(len(row) == len(cells[0]) for row in cells)


def test_report_bundle_is_deterministic(tmp_path):
    reports = build_reports(sp_outcomes())
    meta = {"dataset": "fixture", "digest": "abc123"}
    first = write_report_bundle(reports, tmp_path / "a", meta=meta)
    second = write_report_bundle(reports, tmp_path / "b", meta=meta)
    assert set(first) == {"json", "markdown", "csv", "chart", "svg"}
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes(), key


def golden_outcomes() -> list[Outcome]:
    """Two models, all four modes, in a scrambled order. For beta, dop_be
    covers only triplets it failed to solve, so that row's E_c is undefined."""
    ids = [f"g{i:02d}" for i in range(24)]
    out = []
    for m, model in enumerate(("beta", "alpha")):
        solved = {t for i, t in enumerate(ids) if (i * (m + 3)) % 5 < 3}
        out += [outcome(t, TaskKind.REASONING, None, t in solved, model) for t in ids]
        for k, level in enumerate((DopLevel.SA, DopLevel.NA, DopLevel.SP, DopLevel.BE)):
            covered = ids
            if model == "beta" and level is DopLevel.BE:
                covered = [t for t in ids if t not in solved]
            out += [
                outcome(t, TaskKind.CORRECTION, level, (i * (k + 2) + m) % 7 < 3, model)
                for i, t in enumerate(covered)
            ]
    return [out[(i * 37) % len(out)] for i in range(len(out))]


def test_report_bundle_matches_the_golden_files(tmp_path):
    spec = BootstrapSpec(1000, 0.95, 0)
    outcomes = golden_outcomes()
    reports = build_reports(outcomes, spec)
    assert any(r.model == "beta" and r.mode is DopLevel.BE and r.e_c is None for r in reports)
    meta = {"outcomes": len(outcomes), "scored_file": "golden.jsonl"}
    paths = write_report_bundle(reports, tmp_path, meta=meta, bootstrap=spec)
    for path in paths.values():
        assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes(), path.name


def test_a_column_added_to_the_table_reaches_every_artifact(tmp_path, monkeypatch):
    dummy = report_module.Column("dummy", "Dummy", "dummy", "count", lambda r: 2 * r.counts.n)
    monkeypatch.setattr(report_module, "COLUMNS", report_module.COLUMNS + (dummy,))
    paths = write_report_bundle(build_reports(sp_outcomes()), tmp_path)
    assert json.loads(paths["json"].read_text("utf-8"))["reports"][0]["dummy"] == 40
    header, _, row = [l for l in paths["markdown"].read_text("utf-8").splitlines() if l[:1] == "|"]
    assert header.endswith(" | Dummy |") and row.endswith(" | 40 |")
    header, row = paths["csv"].read_text("utf-8").splitlines()
    assert header.endswith(",dummy") and row.endswith(",40")


@pytest.mark.parametrize("meta", [{"scored_file": "a\n- injected: 1\nb.jsonl"}, {"digest\r": "abc"}])
def test_report_bundle_refuses_meta_with_a_control_character(tmp_path, meta):
    [key] = meta
    with pytest.raises(DataError, match=re.escape(f"report meta {key!r} holds the control")):
        write_report_bundle(build_reports(sp_outcomes()), tmp_path / "out", meta=meta)
    assert not (tmp_path / "out").exists()


def test_report_json_carries_everything(tmp_path):
    reports = build_reports(sp_outcomes())
    paths = write_report_bundle(reports, tmp_path, meta={"k": "v"})
    payload = json.loads(paths["json"].read_text())
    assert payload["meta"] == {"k": "v"}
    assert payload["bootstrap"] is None
    assert payload["reports"][0]["quadrants"] == {
        "sRsC": 8,
        "sRuC": 6,
        "uRsC": 2,
        "uRuC": 4,
    }
    assert payload["reports"][0]["n"] == 20


# published reference results


def test_bundled_table_verifies():
    report = verify_published()
    assert len(report.rows) == 12
    assert report.ok
    rendered = report.render()
    assert "all rows check out" in rendered
    assert "FAIL" not in rendered


def test_bundled_table_covers_every_model_once():
    table = load_published()
    names = [row.model for row in table.rows]
    assert len(names) == len(set(names)) == 12
    assert table.dataset_size == 2861
    assert all(row.counts.n == 2861 for row in table.rows)


def test_published_reports_render_through_the_pipeline():
    reports = published_reports()
    assert len(reports) == 12
    text = render_markdown(reports)
    # bare counts have no mode; the column renders a placeholder
    assert "| - |" in text.replace("  ", " ")


def test_broken_table_fails_verification(tmp_path):
    table = {
        "dataset_size": 100,
        "rate_tolerance": 0.002,
        "rows": [
            {
                "model": "made-up",
                "r_rate": 0.9,
                "c_rate": 0.9,
                "srsc": 10,
                "sruc": 10,
                "ursc": 10,
                "uruc": 10,
            }
        ],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    report = verify_published(path)
    assert not report.ok
    row = report.rows[0]
    assert not row.sum_ok  # 40 != 100
    assert not row.r_ok
    assert "FAIL" in report.render()


def test_load_published_input_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_published(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        load_published(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"rows": []}), encoding="utf-8")
    with pytest.raises(DataError, match="wrong shape"):
        load_published(wrong)


# One wrongly typed value per field of the published table: a float()
# or int() cast would read each as a number and verify the table.
@pytest.mark.parametrize(
    "field, value, row",
    [
        ("rate_tolerance", True, False),
        ("dataset_size", 2861.9, False),
        ("r_rate", "0.859", True),
        ("c_rate", False, True),
        ("srsc", True, True),
        ("sruc", 306.0, True),
        ("ursc", "165", True),
        ("uruc", None, True),
        ("model", ["GPT-4"], True),
        ("note", 5, True),
    ],
)
def test_a_published_value_of_the_wrong_type_is_refused(tmp_path, field, value, row):
    table = json.loads((resources.files("mwpeval") / "data" / "published_results.json").read_text())
    (table["rows"][0] if row else table)[field] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    with pytest.raises(DataError, match=f"wrong shape: {field} must be"):
        load_published(path)
