"""Command line interface.

Subcommands: ingest, run, rescore, report, verify-paper, inspect.
Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure. Errors print one line to stderr, or a JSON object with
--json-errors. Credentials are read only from the environment variables
named in model configs and are never echoed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from ._schema import read_json, read_jsonl
from .errors import (
    DataError,
    HarnessError,
    UsageError,
    VerificationError,
)
from .prompting import (
    ALL_DOP_LEVELS,
    CORRECTION_MODES,
    REASONING_MODE,
    DopLevel,
    GenerationParams,
    PromptMode,
    TemplateRegistry,
    render,
)
from .report import (
    BootstrapSpec,
    build_reports,
    published_reports,
    verify_published,
    write_report_bundle,
)
from .runner import (
    ExperimentConfig,
    load_scored,
    rescore,
    run,
    write_scored,
)
from .triplets import (
    TOOL_VERSION,
    Dataset,
    Rejection,
    _utc_now,
    ingest_gsm8k,
    ingest_mathdial,
    load_dataset,
    save_dataset,
)

class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError instead of exiting with code 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def cmd_ingest(args: argparse.Namespace) -> int:
    input_path = Path(args.input)
    output_path = Path(args.output)

    if args.field_map and args.source != "mathdial":
        raise UsageError(f"--field-map applies to --source mathdial only, not {args.source}")
    rejections: list[Rejection] = []
    if args.source == "triplets":
        dataset = load_dataset(input_path)
        dataset.source = args.source_name or dataset.source
        dataset.created_at = _utc_now()
    else:
        field_map = None
        if args.field_map:
            raw = args.field_map
            if raw.startswith("@"):
                field_map = read_json(raw[1:], "--field-map file", UsageError)
            else:
                try:
                    field_map = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise UsageError(f"--field-map is not valid JSON: {exc}") from exc
            if not isinstance(field_map, dict):
                raise UsageError("--field-map must be a JSON object")
            for key, value in field_map.items():
                if value is not None and not isinstance(value, str):
                    raise UsageError(
                        f"--field-map value for {key!r} must be a source field name "
                        f"or null, got {value!r:.60}"
                    )
        # Rejections of both kinds are numbered by 0-based input line.
        lines: list[int] = []
        records: list[Any] = []

        def reject(lineno: int, exc: ValueError) -> None:
            rejections.append(Rejection(lineno - 1, f"invalid JSON: {exc}"))

        for lineno, record in read_jsonl(input_path, "source record", DataError, bad=reject):
            lines.append(lineno - 1)
            records.append(record)
        source_name = args.source_name or args.source
        if args.source == "mathdial":
            triplets, unmapped = ingest_mathdial(records, field_map, source=source_name)
        else:
            triplets, unmapped = ingest_gsm8k(records, source=source_name)
        rejections += [replace(r, index=lines[r.index]) for r in unmapped]
        rejections.sort(key=lambda r: r.index)
        dataset = Dataset(triplets, source=source_name)

    save_dataset(dataset, output_path)
    rejects_path = Path(args.rejects) if args.rejects else Path(str(output_path) + ".rejects.json")
    rejects_path.write_text(
        json.dumps(
            {
                "kept": len(dataset),
                "rejected": len(rejections),
                "rejections": [r.to_dict() for r in rejections],
            },
            ensure_ascii=False,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(
        f"ingested {len(dataset)} triplets from {input_path} "
        f"({len(rejections)} rejected); digest {dataset.digest}"
    )
    print(f"wrote {output_path} and {rejects_path}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    summary = run(config)
    print(
        f"run complete in {summary.run_dir}: {summary.total_cells} cells, "
        f"{summary.cached} cached, {summary.fresh} fresh, {summary.failed} failed"
        + (
            f", {summary.skipped_reasoning_only} reasoning-only cells skipped"
            if summary.skipped_reasoning_only
            else ""
        )
        + (
            f", {summary.skipped_no_explanation} dop_be cells without a brief "
            "explanation skipped"
            if summary.skipped_no_explanation
            else ""
        )
    )
    if summary.failed:
        print(
            f"warning: {summary.failed} cells failed; rerun the same config to "
            "keep cached cells, or set retry_failed to requery failures",
            file=sys.stderr,
        )
    return 0


def cmd_rescore(args: argparse.Namespace) -> int:
    outcomes = rescore(args.run, args.dataset)
    path = write_scored(outcomes, args.output)
    print(f"scored {len(outcomes)} outcomes into {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if bool(args.scored) == bool(args.counts):
        raise UsageError("pass exactly one of --scored or --counts")
    bootstrap = None
    if args.bootstrap:
        bootstrap = BootstrapSpec(resamples=args.bootstrap, level=args.level, seed=args.seed)
    if args.scored:
        outcomes = load_scored(args.scored)
        reports = build_reports(outcomes, bootstrap)
        meta = {"scored_file": Path(args.scored).name, "outcomes": len(outcomes)}
    else:
        reports = published_reports(args.counts if args.counts != "builtin" else None)
        meta = {"counts_file": args.counts}
    paths = write_report_bundle(reports, args.out_dir, meta=meta, bootstrap=bootstrap)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


def cmd_verify_paper(args: argparse.Namespace) -> int:
    report = verify_published(args.fixture)
    print(report.render())
    if not report.ok:
        raise VerificationError("published results failed verification")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    triplet = dataset.by_id.get(args.id)
    if triplet is None:
        raise DataError(f"no triplet {args.id!r} in {args.dataset}")
    registry = TemplateRegistry.load(args.templates)
    params = GenerationParams()
    modes: list[PromptMode] = [REASONING_MODE]
    if not triplet.reasoning_only:
        modes += [CORRECTION_MODES[level] for level in ALL_DOP_LEVELS]
    else:
        print(f"note: {triplet.id} is reasoning-only; correction modes do not apply\n")
    for mode in modes:
        if mode.dop is DopLevel.BE and triplet.brief_explanation is None:
            print(f"=== {mode.key} ===\n(skipped: no brief explanation)\n")
            continue
        prompt = render(triplet, mode, params, registry)
        print(f"=== {mode.key} ===")
        print(f"template: {prompt.template_id}")
        print(f"content hash: {prompt.content_hash}")
        print(prompt.text)
        print()
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mwpeval",
        description=(
            "Evaluate language models on solving math word problems versus "
            "correcting wrong solutions, with diagnostic correction prompts."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    parser.add_argument(
        "--json-errors",
        action="store_true",
        help="print errors as one-line JSON objects on stderr",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert source records into a triplet dataset")
    p.add_argument("--source", choices=("mathdial", "gsm8k", "triplets"), required=True)
    p.add_argument("--input", required=True, help="source JSONL file")
    p.add_argument("--output", required=True, help="triplet JSONL to write")
    p.add_argument(
        "--field-map",
        help="JSON object (or @file) mapping triplet fields to mathdial source fields",
    )
    p.add_argument("--rejects", help="rejection report path (default: <output>.rejects.json)")
    p.add_argument("--source-name", help="source label stored on each triplet")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="execute or resume an experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("rescore", help="score recorded responses against a dataset")
    p.add_argument("--run", required=True, help="run directory or records.jsonl")
    p.add_argument("--dataset", required=True, help="triplet JSONL the run used")
    p.add_argument("--output", required=True, help="scored outcome JSONL to write")
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("report", help="render rate tables and chart data")
    p.add_argument("--scored", help="scored outcome JSONL from rescore")
    p.add_argument(
        "--counts",
        help="quadrant-counts JSON instead of scored outcomes "
        "('builtin' for the bundled published table)",
    )
    p.add_argument("--out-dir", required=True, help="directory for report artifacts")
    p.add_argument("--bootstrap", type=int, default=0, help="bootstrap resamples (0 = off)")
    p.add_argument("--level", type=float, default=0.95, help="bootstrap confidence level")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed, recorded in report.json")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "verify-paper",
        help="recompute the bundled published results table and check it",
    )
    p.add_argument("--fixture", help="alternative published-results JSON")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("inspect", help="print every prompt for one triplet")
    p.add_argument("--dataset", required=True)
    p.add_argument("--id", required=True, help="triplet id to inspect")
    p.add_argument("--templates", help="custom template directory")
    p.set_defaults(func=cmd_inspect)

    return parser


def _emit_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps({"error": exc.__class__.__name__, "message": str(exc)}),
            file=sys.stderr,
        )
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json-errors" in argv
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        as_json = args.json_errors
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args)
    except UsageError as exc:
        _emit_error(exc, as_json)
        return 1
    except VerificationError as exc:
        _emit_error(exc, as_json)
        return 3
    except HarnessError as exc:
        _emit_error(exc, as_json)
        return 2


if __name__ == "__main__":
    sys.exit(main())
