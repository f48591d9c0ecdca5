"""Rate reports and their renderings, plus published-results verification.

Everything here is deterministic: the same scored outcomes and options
produce byte-identical Markdown, CSV, chart data and SVG, so report
artifacts can be diffed across reruns.

Each column of report.json, report.md and report.csv is declared once,
in COLUMNS, in the order all three keep (Markdown alone moves the lead
columns up to follow n). report.json keeps the value read at full
precision; the column's kind decides the Markdown and CSV cells: text
as given, "-" for None; a count as the integer; a rate by format_rate
(half up to three places), "—" in Markdown and an empty CSV cell for
None; an interval as "[lo, hi]", in a Markdown column shown only when
some row has one, and as two CSV cells, _low and _high.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Literal, Sequence
from xml.sax.saxutils import escape

from ._schema import control_character, dump, json_text, read_json, write_atomic
from .errors import DataError, UsageError
from .metrics import (
    Quadrant, QuadrantCounts, bootstrap_ci, check_bootstrap, e_ratios, format_rate, quadrants,
    rates, successes_by_mode,
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
        payload: dict[str, Any] = {}
        for column in COLUMNS:
            into = payload.setdefault(column.group, {}) if column.group else payload
            into[column.key] = column.read(self)
        return payload


@dataclass(frozen=True)
class Column:
    """One report column, for report.json, report.md and report.csv
    alike (see the module docstring)."""

    key: str
    markdown: str
    csv: str
    kind: Literal["text", "count", "rate", "interval"]
    read: Callable[[RateReport], Any]
    group: str | None = None
    lead: bool = False

    @property
    def csv_headers(self) -> tuple[str, ...]:
        return (f"{self.csv}_low", f"{self.csv}_high") if self.kind == "interval" else (self.csv,)

    def markdown_cell(self, value: Any) -> str:
        if self.kind == "interval" and value is not None:
            return f"[{format_rate(value[0])}, {format_rate(value[1])}]"
        if self.kind in ("rate", "interval"):
            return format_rate(value)
        return "-" if value is None else str(value)

    def csv_cells(self, value: Any) -> list[str]:
        if value is None and self.kind in ("rate", "interval"):
            return [""] * len(self.csv_headers)
        if self.kind == "interval":
            return [format_rate(bound) for bound in value]
        return [self.markdown_cell(value)]


COLUMNS: tuple[Column, ...] = (
    Column("model", "Model", "model", "text", attrgetter("model")),
    Column("mode", "Mode", "mode", "text", lambda r: r.mode.value if r.mode else None),
    Column("n", "n", "n", "count", attrgetter("counts.n")),
    Column(Quadrant.SRSC.value, "sR+sC", "srsc", "count", attrgetter("counts.srsc"), "quadrants"),
    Column(Quadrant.SRUC.value, "sR+uC", "sruc", "count", attrgetter("counts.sruc"), "quadrants"),
    Column(Quadrant.URSC.value, "uR+sC", "ursc", "count", attrgetter("counts.ursc"), "quadrants"),
    Column(Quadrant.URUC.value, "uR+uC", "uruc", "count", attrgetter("counts.uruc"), "quadrants"),
    Column("r_rate", "R-rate", "r_rate", "rate", attrgetter("r_rate"), lead=True),
    Column("c_rate", "C-rate", "c_rate", "rate", attrgetter("c_rate"), lead=True),
    Column("e_r", "E_r", "e_r", "rate", attrgetter("e_r")),
    Column("e_c", "E_c", "e_c", "rate", attrgetter("e_c")),
    Column("r_ci", "R-rate CI", "r_ci", "interval", attrgetter("r_ci")),
    Column("c_ci", "C-rate CI", "c_ci", "interval", attrgetter("c_ci")),
)


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
        _check_showable(model, f"model name {model!r}")
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


def _check_showable(text: str, what: str) -> None:
    control = control_character(text)
    if control is not None:
        raise DataError(f"{what} holds the control character {control!r}; no report can show it")


def _markdown_columns(reports: Sequence[RateReport]) -> list[Column]:
    """COLUMNS in Markdown order, the lead columns moved up to follow n,
    less any interval column that no row has."""
    shown = [c for c in COLUMNS if c.kind != "interval" or any(map(c.read, reports))]
    rest = [c for c in shown if not c.lead]
    at = [c.key for c in rest].index("n") + 1
    return rest[:at] + [c for c in shown if c.lead] + rest[at:]


def render_markdown(
    reports: Sequence[RateReport], meta: dict[str, Any] | None = None
) -> str:
    """Markdown report: metadata bullets, then one row per (model, mode).
    A `|` in a cell is written `\\|`, so it cannot split the row."""
    columns = _markdown_columns(reports)
    lines = ["# Solving vs correction rates", ""]
    for key in sorted(meta or {}):
        lines.append(f"- {key}: {meta[key]}")
    if meta:
        lines.append("")
    lines.append("| " + " | ".join(column.markdown for column in columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for report in reports:
        row = [column.markdown_cell(column.read(report)) for column in columns]
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
    lines.append("")
    return "\n".join(lines)


def render_csv(reports: Sequence[RateReport]) -> str:
    """CSV with the same presentation rounding as the Markdown table;
    undefined ratios are empty cells, and a field that needs it is
    quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([header for column in COLUMNS for header in column.csv_headers])
    for report in reports:
        writer.writerow([cell for c in COLUMNS for cell in c.csv_cells(c.read(report))])
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
        series.append({"mode": mode.value if mode else "-", "points": points})
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
    not the bundle as a unit. Returns the paths. A meta key or value
    holding a control character is refused before any file is written:
    in report.md it could end the line and forge one of its own."""
    for key, value in (meta or {}).items():
        _check_showable(f"{key}{value}", f"report meta {key!r}")
    out_dir = Path(out_dir)
    payload = {
        "meta": meta or {},
        "bootstrap": dump(bootstrap) if bootstrap else None,
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
    """A published row beside the report recomputed from its counts."""

    published: PublishedRow
    computed: RateReport
    sum_ok: bool
    r_ok: bool
    c_ok: bool

    @property
    def order_ok(self) -> bool:
        e_r, e_c = self.computed.e_r, self.computed.e_c
        return e_r is not None and e_c is not None and e_r > e_c

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
            published, computed = row.published, row.computed
            verdict = mark(row.ok)
            if published.note:
                verdict += f"  ({published.note})"
            lines.append(
                f"{published.model:<22} {computed.counts.n:>4}{'' if row.sum_ok else '!':<2} "
                f"{format_rate(published.r_rate):>10} {format_rate(computed.r_rate):>11} "
                f"{format_rate(published.c_rate):>10} {format_rate(computed.c_rate):>11} "
                f"{format_rate(computed.e_r):>7} {format_rate(computed.e_c):>7} "
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
        computed = report_from_counts(row.counts, row.model)
        verified.append(
            VerifiedRow(
                published=row,
                computed=computed,
                sum_ok=row.counts.n == table.dataset_size,
                r_ok=abs(computed.r_rate - row.r_rate) <= table.rate_tolerance,
                c_ok=abs(computed.c_rate - row.c_rate) <= table.rate_tolerance,
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
    return [row.computed for row in verify_published(path).rows]
