"""Rate reports and their renderings, plus published-results verification.

Everything here is deterministic: the same scored outcomes and options
produce byte-identical Markdown, CSV, chart data and SVG, so report
artifacts can be diffed across reruns. Rendered tables show rates after
half-up rounding to three places; report.json keeps full precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Sequence
from xml.sax.saxutils import escape

from ._schema import control_character, dump, json_text, read_json, write_atomic
from .errors import DataError, UsageError
from .metrics import (
    QuadrantCounts,
    UNDEFINED_MARK,
    bootstrap_ci,
    check_bootstrap,
    e_ratios,
    format_rate,
    quadrants,
    rates,
    successes_by_mode,
)
from .prompting import CORRECTION_MODES, REASONING_MODE, DopLevel
from .scoring import Outcome


@dataclass(frozen=True)
class BootstrapSpec:
    resamples: int = 1000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        check_bootstrap(self.resamples, self.level, self.seed, UsageError)

    def to_dict(self) -> dict[str, Any]:
        return dump(self)


@dataclass(frozen=True)
class RateReport:
    """Rates for one model under one correction mode (mode None when the
    report was built from bare quadrant counts)."""

    model: str
    mode: DopLevel | None
    counts: QuadrantCounts
    r_rate: float
    c_rate: float
    e_r: float | None
    e_c: float | None
    r_ci: tuple[float, float] | None = None
    c_ci: tuple[float, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "mode": self.mode.value if self.mode else None,
            "n": self.counts.n,
            "quadrants": self.counts.to_dict(),
            "r_rate": self.r_rate,
            "c_rate": self.c_rate,
            "e_r": self.e_r,
            "e_c": self.e_c,
            "r_ci": list(self.r_ci) if self.r_ci else None,
            "c_ci": list(self.c_ci) if self.c_ci else None,
        }


def report_from_counts(
    counts: QuadrantCounts, model: str, mode: DopLevel | None = None,
    r_ci: tuple[float, float] | None = None, c_ci: tuple[float, float] | None = None,
) -> RateReport:
    r_rate, c_rate = rates(counts)
    e_r, e_c = e_ratios(counts)
    return RateReport(
        model=model, mode=mode, counts=counts,
        r_rate=r_rate, c_rate=c_rate, e_r=e_r, e_c=e_c, r_ci=r_ci, c_ci=c_ci,
    )


def build_reports(
    outcomes: Iterable[Outcome], bootstrap: BootstrapSpec | None = None
) -> list[RateReport]:
    """One RateReport per (model, correction mode) present in outcomes.

    Each row's counts and intervals come from one list of (reasoning
    success, correction success) pairs, one pair per corrected triplet.
    A model name holding a control character is refused, since no
    report artifact can show it."""
    by_model = successes_by_mode(outcomes)
    for model in by_model:
        control = control_character(model)
        if control is not None:
            raise DataError(
                f"model name {model!r} holds the control character {control!r}; "
                "no report can show it"
            )
    reports: list[RateReport] = []
    for model in sorted(by_model):
        by_mode = by_model[model]
        reasoning = by_mode.get(REASONING_MODE, {})
        modes = [mode for mode in CORRECTION_MODES.values() if mode in by_mode]
        if not modes:
            raise DataError(f"model {model}: no correction outcomes; nothing to report")
        for mode in modes:
            pairs = []
            for triplet_id, corrected in by_mode[mode].items():
                solved = reasoning.get(triplet_id)
                if solved is None:
                    raise DataError(
                        f"triplet {triplet_id} has a correction outcome "
                        "but no reasoning outcome; run both tasks before reporting"
                    )
                pairs.append((solved, corrected))
            r_ci = c_ci = None
            if bootstrap is not None:
                r_ci, c_ci = bootstrap_ci(
                    pairs, bootstrap.resamples, bootstrap.level, bootstrap.seed
                )
            reports.append(report_from_counts(quadrants(pairs), model, mode.dop, r_ci, c_ci))
    return reports


def _mode_label(mode: DopLevel | None) -> str:
    return mode.value if mode else "-"


def _ci_text(ci: tuple[float, float] | None) -> str:
    if ci is None:
        return UNDEFINED_MARK
    return f"[{format_rate(ci[0])}, {format_rate(ci[1])}]"


def render_markdown(
    reports: Sequence[RateReport], meta: dict[str, Any] | None = None
) -> str:
    """Markdown report: metadata bullets, then one row per (model, mode).
    A `|` in a cell is written `\\|`, so it cannot split the row."""
    with_ci = any(r.r_ci or r.c_ci for r in reports)
    lines = ["# Solving vs correction rates", ""]
    for key in sorted(meta or {}):
        lines.append(f"- {key}: {meta[key]}")
    if meta:
        lines.append("")
    header = [
        "Model", "Mode", "n", "R-rate", "C-rate",
        "sR+sC", "sR+uC", "uR+sC", "uR+uC", "E_r", "E_c",
    ]
    if with_ci:
        header += ["R-rate CI", "C-rate CI"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for report in reports:
        c = report.counts
        row = [
            report.model, _mode_label(report.mode), str(c.n),
            format_rate(report.r_rate), format_rate(report.c_rate),
            *map(str, (c.srsc, c.sruc, c.ursc, c.uruc)),
            format_rate(report.e_r), format_rate(report.e_c),
        ]
        if with_ci:
            row += [_ci_text(report.r_ci), _ci_text(report.c_ci)]
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
    lines.append("")
    return "\n".join(lines)


def render_csv(reports: Sequence[RateReport]) -> str:
    """CSV with the same presentation rounding as the Markdown table;
    undefined ratios are empty cells, and a field that needs it is
    quoted."""
    def cell(value: float | None) -> str:
        return "" if value is None else format_rate(value)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "model", "mode", "n", "srsc", "sruc", "ursc", "uruc", "r_rate", "c_rate", "e_r", "e_c",
        "r_ci_low", "r_ci_high", "c_ci_low", "c_ci_high",
    ])
    for report in reports:
        c = report.counts
        r_ci = report.r_ci or (None, None)
        c_ci = report.c_ci or (None, None)
        row = [
            report.model, _mode_label(report.mode),
            *map(str, (c.n, c.srsc, c.sruc, c.ursc, c.uruc)),
            *map(cell, (report.r_rate, report.c_rate, report.e_r, report.e_c, *r_ci, *c_ci)),
        ]
        writer.writerow(row)
    return out.getvalue()


def chart_data(reports: Sequence[RateReport]) -> dict[str, Any]:
    """Correction rate per model, one series per mode."""
    models = list(dict.fromkeys(report.model for report in reports))
    modes = list(dict.fromkeys(report.mode for report in reports))
    series = []
    for mode in modes:
        points = [
            {"model": r.model, "value": r.c_rate}
            for r in reports
            if r.mode == mode
        ]
        series.append({"mode": _mode_label(mode), "points": points})
    return {"metric": "c_rate", "models": models, "series": series}


_SERIES_COLORS = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2")


def render_svg(chart: dict[str, Any]) -> str:
    """A small static grouped bar chart of the chart data, model names
    XML-escaped. Presentation only; report.json is the machine-readable
    artifact."""
    models: list[str] = chart["models"]
    series: list[dict[str, Any]] = chart["series"]
    bar = 18
    gap = 6
    group_gap = 16
    left = 150
    top = 30
    scale = 360.0
    group_h = len(series) * (bar + gap) - gap + group_gap
    height = top + len(models) * group_h + 30
    width = left + int(scale) + 120
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{left}" y="16" font-weight="bold">{chart["metric"]} by model and mode</text>',
    ]
    values = {(s["mode"], p["model"]): p["value"] for s in series for p in s["points"]}
    for gi, model in enumerate(models):
        gy = top + gi * group_h
        parts.append(
            f'<text x="{left - 8}" y="{gy + group_h / 2 - group_gap / 2}" '
            f'text-anchor="end">{escape(model)}</text>'
        )
        for si, s in enumerate(series):
            value = values.get((s["mode"], model))
            if value is None:
                continue
            y = gy + si * (bar + gap)
            w = max(1, round(value * scale))
            color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
            parts.append(
                f'<rect x="{left}" y="{y}" width="{w}" height="{bar}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{left + w + 4}" y="{y + bar - 4}">'
                f'{s["mode"]} {format_rate(value)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report_bundle(
    reports: Sequence[RateReport],
    out_dir: str | Path,
    meta: dict[str, Any] | None = None,
    bootstrap: BootstrapSpec | None = None,
) -> dict[str, Path]:
    """Write report.json, report.md, report.csv, chart_data.json and
    chart.svg into out_dir. Each file is replaced atomically on its own,
    not the bundle as a unit. Returns the paths."""
    out_dir = Path(out_dir)
    payload = {
        "meta": dict(sorted((meta or {}).items())),
        "bootstrap": bootstrap.to_dict() if bootstrap else None,
        "reports": [r.to_dict() for r in reports],
    }
    chart = chart_data(reports)
    return {
        "json": write_atomic(out_dir / "report.json", json_text(payload)),
        "markdown": write_atomic(out_dir / "report.md", render_markdown(reports, meta)),
        "csv": write_atomic(out_dir / "report.csv", render_csv(reports)),
        "chart": write_atomic(out_dir / "chart_data.json", json_text(chart)),
        "svg": write_atomic(out_dir / "chart.svg", render_svg(chart)),
    }


# --- published reference results ---------------------------------------


@dataclass(frozen=True)
class PublishedRow:
    model: str
    r_rate: float
    c_rate: float
    counts: QuadrantCounts
    note: str | None = None


@dataclass(frozen=True)
class PublishedTable:
    dataset_size: int
    rate_tolerance: float
    rows: tuple[PublishedRow, ...]


_NUMBER = (int, float)
_TEXT_OR_NULL = (str, type(None))
_WANTED = {_NUMBER: "a number", int: "an int", str: "a string", _TEXT_OR_NULL: "a string or null"}


def _typed(mapping: dict[str, Any], name: str, kind: type | tuple[type, ...]) -> Any:
    """mapping[name], or TypeError when it is not of kind: a bool is an
    int to Python, but a flag is neither a rate nor a count."""
    value = mapping[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {_WANTED[kind]}, got {value!r}")
    return value


def load_published(path: str | Path | None = None) -> PublishedTable:
    """The bundled reference table, or one in the same JSON format.

    Its shape is checked by hand: a row's optional note key does not fit
    the codec's rule that a data file carries every key."""
    if path is None:
        path = resources.files("mwpeval") / "data" / "published_results.json"
    payload = read_json(path, "published results file", DataError)
    try:
        rows = tuple(
            PublishedRow(
                model=_typed(row, "model", str),
                r_rate=float(_typed(row, "r_rate", _NUMBER)),
                c_rate=float(_typed(row, "c_rate", _NUMBER)),
                counts=QuadrantCounts(
                    *(_typed(row, name, int) for name in ("srsc", "sruc", "ursc", "uruc"))
                ),
                note=_typed(row, "note", _TEXT_OR_NULL) if "note" in row else None,
            )
            for row in payload["rows"]
        )
        return PublishedTable(
            dataset_size=_typed(payload, "dataset_size", int),
            rate_tolerance=float(_typed(payload, "rate_tolerance", _NUMBER)),
            rows=rows,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"published results file has wrong shape: {exc}") from exc


@dataclass(frozen=True)
class VerifiedRow:
    model: str
    n: int
    sum_ok: bool
    printed_r: float
    computed_r: float
    r_ok: bool
    printed_c: float
    computed_c: float
    c_ok: bool
    e_r: float | None
    e_c: float | None
    order_ok: bool
    note: str | None

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.r_ok and self.c_ok and self.order_ok


@dataclass(frozen=True)
class VerificationReport:
    dataset_size: int
    rate_tolerance: float
    rows: tuple[VerifiedRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        def mark(flag: bool) -> str:
            return "ok" if flag else "FAIL"

        lines = [
            f"recomputing published rates from quadrant counts "
            f"(n={self.dataset_size}, tolerance {self.rate_tolerance})",
            "",
            f"{'model':<22} {'sum':>6} {'R printed':>10} {'R computed':>11} "
            f"{'C printed':>10} {'C computed':>11} {'E_r':>7} {'E_c':>7} {'E_r>E_c':>8}  verdict",
        ]
        for row in self.rows:
            verdict = mark(row.ok)
            if row.note:
                verdict += f"  ({row.note})"
            lines.append(
                f"{row.model:<22} {row.n:>4}{'' if row.sum_ok else '!':<2} "
                f"{format_rate(row.printed_r):>10} {format_rate(row.computed_r):>11} "
                f"{format_rate(row.printed_c):>10} {format_rate(row.computed_c):>11} "
                f"{format_rate(row.e_r):>7} {format_rate(row.e_c):>7} "
                f"{mark(row.order_ok):>8}  {verdict}"
            )
        lines.append("")
        lines.append(f"overall: {'all rows check out' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify_published(path: str | Path | None = None) -> VerificationReport:
    """Recompute every published row from its quadrant counts and check
    row sums, both rates, and the e_r > e_c ordering."""
    table = load_published(path)
    verified = []
    for row in table.rows:
        counts = row.counts
        computed_r, computed_c = rates(counts)
        e_r, e_c = e_ratios(counts)
        verified.append(
            VerifiedRow(
                model=row.model,
                n=counts.n,
                sum_ok=counts.n == table.dataset_size,
                printed_r=row.r_rate,
                computed_r=computed_r,
                r_ok=abs(computed_r - row.r_rate) <= table.rate_tolerance,
                printed_c=row.c_rate,
                computed_c=computed_c,
                c_ok=abs(computed_c - row.c_rate) <= table.rate_tolerance,
                e_r=e_r,
                e_c=e_c,
                order_ok=e_r is not None and e_c is not None and e_r > e_c,
                note=row.note,
            )
        )
    return VerificationReport(
        dataset_size=table.dataset_size,
        rate_tolerance=table.rate_tolerance,
        rows=tuple(verified),
    )


def published_reports(path: str | Path | None = None) -> list[RateReport]:
    """RateReports recomputed from the published quadrant counts, for
    rendering through the normal report pipeline."""
    table = load_published(path)
    return [report_from_counts(row.counts, row.model) for row in table.rows]
