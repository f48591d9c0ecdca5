"""Experiment runner: content-addressed, append-only, resumable.

A run expands the dataset into cells, one per (triplet, task, mode).
An output dir is bound (config.json) to the dataset digest, the template
ids, the model's params and the renderer, which together fix each
cell's prompt and content hash; inside it, (model name, triplet id,
mode) is the cache key. A cell already answered is never rendered, and
a pending one is rendered by the worker that sends it. Records append to
records.jsonl, one full line per completed cell, each with its content
hash, so a killed run loses at most its in-flight cells and a rerun with
the same config replays everything already on disk and dispatches only
the remainder. Rerunning a completed run performs zero backend calls.

Backend errors are recorded on the affected cell and do not abort the
run; anything else (including interrupts) does abort, leaving the log
ready for resumption.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from ._schema import (
    JsonText, dump, json_text, line_encoder, load, read_json, read_jsonl, utc_now,
    write_atomic,
)
from .backends import Backend, ModelSpec, create_backend
from .errors import BackendError, ConfigurationError, DataError, UsageError
from .prompting import (
    HASH_ALGORITHM,
    NO_EXPLANATION,
    REASONING_ONLY,
    ALL_DOP_LEVELS,
    DopLevel,
    PromptMode,
    TaskKind,
    TemplateRegistry,
    mode_for,
    render,
    skip_reason,
    template_inputs,
)
from .scoring import Outcome, score
from .triplets import TOOL_VERSION, Dataset, Triplet, load_dataset

log = logging.getLogger(__name__)

# The version of render and compute_content_hash an output dir is bound
# to. Bump it with any change to a rendered prompt or its hash, and
# regenerate tests/data/golden_hashes.txt.
RENDERER = f"{HASH_ALGORITHM}/1"
# Identities written before the renderer was recorded were made by this one.
_UNRECORDED_RENDERER = "sha256/1"


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One completed cell: the prompt sent and what came back. task and
    dop stay plain strings, cheaper to load than enums; mode reads them
    back. Slotted, a record holds no __dict__, so one loaded from a log
    costs no more memory than one built by __init__."""

    run_id: str
    triplet_id: str
    model: str
    task: str
    dop: str | None
    template_id: str
    content_hash: str
    prompt_text: str
    response_text: str | None
    error: str | None
    attempts: int
    latency_ms: float
    created_at: str

    @property
    def mode(self) -> PromptMode:
        mode = mode_for(self.task, self.dop)
        if mode is None:
            raise DataError(
                f"record for triplet {self.triplet_id!r} has an unknown "
                f"(task, dop) pair {(self.task, self.dop)!r}"
            )
        return mode


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    model: ModelSpec
    output_dir: str
    tasks: tuple[TaskKind, ...] = (TaskKind.REASONING, TaskKind.CORRECTION)
    modes: tuple[DopLevel, ...] = ALL_DOP_LEVELS
    concurrency: int = 1
    templates_dir: str | None = None
    retry_failed: bool = False

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise UsageError(f"concurrency must be >= 1, got {self.concurrency}")
        if not self.tasks:
            raise UsageError("tasks must name at least one of reasoning, correction")
        if TaskKind.CORRECTION in self.tasks and not self.modes:
            raise UsageError("correction runs need at least one mode")
        if len(set(self.tasks)) != len(self.tasks) or len(set(self.modes)) != len(self.modes):
            raise UsageError("tasks and modes must not repeat")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return load(cls, read_json(path, "config file", UsageError), "config", ConfigurationError)


@dataclass
class RunSummary:
    run_dir: Path
    records_path: Path
    total_cells: int
    cached: int
    fresh: int
    failed: int
    skipped_reasoning_only: int
    skipped_no_explanation: int


def load_records(path: str | Path) -> list[RunRecord]:
    """Read an append-only record log; an absent log reads as empty.

    A torn final line (the signature of a killed writer) is dropped with
    a warning; a torn line anywhere else is corruption and raises.
    """
    return list(_stream_records(Path(path)))


def _stream_records(
    path: Path, torn: Callable[[int], None] = lambda offset: None
) -> Iterator[RunRecord]:
    """The records of a log one at a time, read as load_records reads
    them, so a caller keeps only what it takes from each. A dropped torn
    final line is passed to torn as the byte offset where it starts."""
    if path.exists():
        for _, record in read_jsonl(path, "run record", DataError, RunRecord, torn_tail=torn):
            yield record


_Kept = TypeVar("_Kept")


CellKey = tuple[str, str, PromptMode]


def index_records(
    records: Iterable[RunRecord], keep: Callable[[RunRecord, PromptMode], _Kept]
) -> dict[CellKey, _Kept]:
    """keep(record, its mode) of the latest record per cell, keyed by
    (model, triplet id, mode); a success is never displaced by a later
    error, and keep sees only the records that take their key's place.
    A record whose (task, dop) pair names no mode raises DataError."""
    index: dict[CellKey, _Kept] = {}
    succeeded: set[CellKey] = set()
    for record in records:
        mode = record.mode
        key = (record.model, record.triplet_id, mode)
        if record.error is None:
            succeeded.add(key)
        elif key in succeeded:
            continue
        index[key] = keep(record, mode)
    return index


Cell = tuple[Triplet, PromptMode]


def build_cells(
    dataset: Dataset,
    config: ExperimentConfig,
    answered: Callable[[str, PromptMode], bool] = lambda triplet_id, mode: False,
) -> tuple[list[Cell], int, int, int]:
    """The pending (triplet, mode) cells in dispatch order: the config's
    modes in its order of tasks and modes, each over the triplets it
    applies to by skip_reason. Two triplets that give a mode's template
    equal values would give it equal prompts, so they are refused; a
    cell that answered(triplet id, mode) accepts is then only counted.
    Nothing is rendered: each cell is rendered by the worker that sends
    it. Returns (pending cells, answered cells, skipped reasoning-only
    cells, skipped cells without an explanation)."""
    pending: list[Cell] = []
    cached = 0
    skips: Counter[str] = Counter()
    # Each task paired with no dop and with every configured dop: the
    # pairs that name a mode are the config's modes, in its order.
    modes = (mode_for(task, dop) for task in config.tasks for dop in (None, *config.modes))
    for mode in filter(None, modes):
        values = template_inputs(mode)
        first_by_values: dict[Any, str] = {}
        for triplet in dataset:
            reason = skip_reason(triplet, mode)
            if reason is not None:
                skips[reason] += 1
                continue
            other = first_by_values.setdefault(values(triplet), triplet.id)
            if other != triplet.id:
                raise DataError(
                    f"prompt collision between cells {other}/{mode.key} and "
                    f"{triplet.id}/{mode.key}; triplet texts are probably duplicated"
                )
            if answered(triplet.id, mode):
                cached += 1
            else:
                pending.append((triplet, mode))
    skipped, no_explanation = skips[REASONING_ONLY], skips[NO_EXPLANATION]
    if skipped:
        log.warning(
            "excluded %d correction cells for reasoning-only triplets", skipped
        )
    if no_explanation:
        log.warning(
            "excluded %d dop_be cells for triplets without a brief explanation",
            no_explanation,
        )
    return pending, cached, skipped, no_explanation


class _RecordWriter:
    """Appends each record as one whole line, from any thread, unlocked.

    Each record is one os.write to an O_APPEND descriptor: Linux places
    and writes it under the file's own lock, so the lines of concurrent
    appends to a regular file never interleave. A short write raises,
    leaving a torn tail that the next run's resume scan drops and its
    writer's mend cuts: this class is the one code that writes or cuts
    the log. The descriptor also carries an exclusive advisory lock for
    as long as the writer is open, so an output dir admits one run at a
    time.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self._fd)
            raise UsageError(
                f"{path.parent} is in use by another run; an output dir "
                "admits one writer at a time"
            ) from None

    def mend(self, torn_at: int | None = None) -> None:
        """Make the log end in a whole line before the first append: cut
        the torn final line that the resume scan dropped at byte torn_at,
        and end a whole final line with its missing newline."""
        if torn_at is not None:
            os.ftruncate(self._fd, torn_at)
        size = os.fstat(self._fd).st_size
        if size and os.pread(self._fd, 1, size - 1) != b"\n":
            os.write(self._fd, b"\n")

    def append(self, record_line: str) -> None:
        """Append one record's line, line_encoder(RunRecord)'s text."""
        line = (record_line + "\n").encode("utf-8")
        written = os.write(self._fd, line)
        if written != len(line):
            raise OSError(
                f"short write to {self._path}: {written} of {len(line)} bytes of a record"
            )

    def close(self) -> None:
        os.close(self._fd)


def _cache_identity(config: ExperimentConfig, dataset: Dataset, registry: TemplateRegistry) -> dict[str, Any]:
    return {
        "dataset_digest": dataset.digest,
        "model": dump(config.model),
        "renderer": RENDERER,
        "template_ids": registry.template_ids(),
    }


# Model settings that shape how a completion is fetched, not its content:
# a resume may change them, e.g. to slow down after rate-limit errors.
_TRANSPORT_FIELDS = frozenset({"auth_env", "retry", "requests_per_second", "timeout"})


def _binding(identity: Any) -> str:
    """The part of a cache identity that binds an output dir, as JSON
    text: all of it but the model's transport settings. An identity
    without a renderer was written by _UNRECORDED_RENDERER. Text, not
    the dict, is compared, since a temperature of 0 == 0.0 but the two
    hash apart."""
    if isinstance(identity, dict) and isinstance(identity.get("model"), dict):
        model = {k: v for k, v in identity["model"].items() if k not in _TRANSPORT_FIELDS}
        identity = {"renderer": _UNRECORDED_RENDERER, **identity, "model": model}
    return json.dumps(identity, sort_keys=True)


def _triplet_of(record: RunRecord, dataset: Dataset) -> Triplet:
    """The triplet that a logged record answers."""
    triplet = dataset.by_id.get(record.triplet_id)
    if triplet is None:
        raise DataError(
            f"logged record references unknown triplet id {record.triplet_id!r}; "
            "the log does not belong to this dataset"
        )
    return triplet


def _spot_check(
    records: dict[PromptMode, RunRecord],
    dataset: Dataset,
    config: ExperimentConfig,
    registry: TemplateRegistry,
) -> None:
    """Re-render the cells of records, one per mode, and compare each
    hash with the one logged. This catches a render change shipped
    without a new RENDERER on the few cells checked; checking every
    record needs a full re-render, which a resume does not make."""
    for mode, record in records.items():
        triplet = _triplet_of(record, dataset)
        cell = render(triplet, mode, config.model.params, registry)
        if cell.content_hash != record.content_hash:
            raise DataError(
                f"the logged record for cell {record.triplet_id}/{cell.mode.key} "
                f"(content hash {record.content_hash}) does not match that cell as "
                f"rendered now; rendering changed under renderer {RENDERER}, so "
                "use a fresh output_dir"
            )


def _dispatch(cells: list[Cell], work: Callable[[Cell], bool], concurrency: int) -> tuple[int, int]:
    """Complete cells on min(concurrency, len(cells)) threads. Each
    thread pulls the next cell when it finishes one, so exactly
    `concurrency` cells are in flight; work(cell) runs outside the lock.
    Returns (succeeded, failed). Progress is logged at INFO at most once
    per 5 % of the cells, and once at the end.

    The first exception (from a worker, from starting one, or a
    KeyboardInterrupt reaching the waiting main thread) stops all
    further pulls; cells in flight finish, and that exception is
    re-raised once every worker is joined.
    """
    remaining = iter(cells)
    lock = threading.Lock()
    all_exited = threading.Condition(lock)
    succeeded = failed = exited = 0
    abort: BaseException | None = None
    started = time.perf_counter()
    step = -(-len(cells) // 20)
    next_report = step

    def stop(exc: BaseException) -> None:
        nonlocal abort
        with lock:
            if abort is None:
                abort = exc

    def worker() -> None:
        nonlocal succeeded, failed, exited, next_report
        ok: bool | None = None
        try:
            while True:
                with lock:
                    if ok is not None:
                        if ok:
                            succeeded += 1
                        else:
                            failed += 1
                        # Logged under the lock, so lines come in count order.
                        if next_report <= succeeded + failed < len(cells):
                            next_report += step
                            _log_progress(succeeded + failed, failed, len(cells), started)
                    if abort is not None:
                        return
                    cell = next(remaining, None)
                if cell is None:
                    return
                ok = work(cell)
        except BaseException as exc:
            stop(exc)
        finally:
            with lock:
                exited += 1
                all_exited.notify()

    threads: list[threading.Thread] = []
    try:
        for i in range(min(concurrency, len(cells))):
            # Listed before start(), so a Ctrl-C inside start() still
            # joins the thread; a thread that cannot start is dropped.
            threads.append(threading.Thread(target=worker, name=f"mwpeval-cell-{i}"))
            try:
                threads[-1].start()
            except RuntimeError:
                threads.pop()
                raise
        # Wait on a condition, not in Thread.join: a join interrupted by
        # Ctrl-C can mark a thread that is still running as stopped. The
        # wait wakes every 0.1 s because a SIGINT that lands just before
        # it blocks is otherwise acted on only when the wait ends.
        with all_exited:
            while not all_exited.wait_for(lambda: exited == len(threads), 0.1):
                pass
    except BaseException as exc:  # a failed start, or Ctrl-C while waiting
        stop(exc)
    for thread in threads:
        thread.join()
    if cells:
        elapsed = time.perf_counter() - started
        log.info(
            "%s %d/%d cells in %.1f s (%.0f cells/s), %d failed",
            "stopped after" if abort is not None else "completed",
            succeeded + failed,
            len(cells),
            elapsed,
            (succeeded + failed) / max(elapsed, 1e-9),
            failed,
        )
    if abort is not None:
        raise abort
    return succeeded, failed


def _log_progress(done: int, failed: int, total: int, started: float) -> None:
    rate = done / max(time.perf_counter() - started, 1e-9)
    log.info(
        "%d/%d cells (%d%%), %.0f cells/s, %d failed, ETA %.0f s",
        done,
        total,
        100 * done // total,
        rate,
        failed,
        (total - done) / rate,
    )


def run(config: ExperimentConfig, backend: Backend | None = None) -> RunSummary:
    """Execute (or resume) the experiment described by config."""
    dataset = load_dataset(config.dataset)
    registry = TemplateRegistry.load(config.templates_dir)

    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    records_path = run_dir / "records.jsonl"
    # Opening the writer locks the output dir until the manifest is written.
    writer = _RecordWriter(records_path)
    built = None  # a backend run() made itself, and so closes
    try:
        identity = _cache_identity(config, dataset, registry)
        identity_path = run_dir / "config.json"
        if identity_path.exists():
            previous = read_json(identity_path, "run config", DataError)
            if not isinstance(previous, dict):
                raise DataError(
                    f"{identity_path} must hold a JSON object, got {type(previous).__name__}"
                )
            if _binding(previous.get("identity")) != _binding(identity):
                raise DataError(
                    f"{run_dir} already holds records for a different "
                    "dataset/model/template/renderer combination; use a fresh output_dir"
                )

        # Per cache key, only whether its record succeeded is kept, plus
        # the first record of each mode for the spot check.
        model_name = config.model.name
        first_of_mode: dict[PromptMode, RunRecord] = {}

        def keep(record: RunRecord, mode: PromptMode) -> bool:
            if record.model == model_name:
                first_of_mode.setdefault(mode, record)
            return record.error is None

        torn: list[int] = []  # where the scan dropped a torn final line
        succeeded = index_records(_stream_records(records_path, torn.append), keep)
        if succeeded and not identity_path.exists():
            # Nothing fixes these records' hashes, so their cell
            # identities cannot stand for them.
            raise DataError(
                f"{records_path} holds records but {identity_path} is missing, so "
                "nothing binds them to a dataset/model/template/renderer "
                "combination; use a fresh output_dir"
            )
        _spot_check(first_of_mode, dataset, config, registry)

        def answered(triplet_id: str, mode: PromptMode) -> bool:
            ok = succeeded.get((model_name, triplet_id, mode))
            return ok is not None and (ok or not config.retry_failed)

        pending, cached, skipped, no_explanation = build_cells(dataset, config, answered)
        total = len(pending) + cached
        # Bound only now, so a dataset that fails build_cells binds no dir.
        bound = json_text({"config": dump(config), "identity": identity})
        if not identity_path.exists() or identity_path.read_bytes() != bound.encode("utf-8"):
            write_atomic(identity_path, bound)
        writer.mend(*torn)

        if backend is None and pending:
            backend = built = create_backend(config.model)

        run_id = uuid.uuid4().hex[:12]
        record_line = line_encoder(RunRecord)

        def work(cell: Cell) -> bool:
            """Render one cell, complete it and append its record. True
            means success. The record's line is encoded straight from
            the cell's values, with the prompt text as render encoded it
            for the content hash: it is the line of the RunRecord those
            values build, with no RunRecord built."""
            prompt = render(*cell, config.model.params, registry)
            try:
                result = backend.complete(prompt)
                response, error = result.text, None
                attempts, latency = result.attempts, result.latency_ms
            except BackendError as exc:
                response, error, attempts, latency = None, str(exc), 0, 0.0
            mode_fields = prompt.mode.record_fields  # passed by name: ** would build a dict
            writer.append(
                record_line(
                    run_id=run_id,
                    triplet_id=prompt.triplet_id,
                    model=model_name,
                    task=mode_fields["task"],
                    dop=mode_fields["dop"],
                    template_id=prompt.template_id,
                    content_hash=prompt.content_hash,
                    prompt_text=JsonText(prompt.text_json),
                    response_text=response,
                    error=error,
                    attempts=attempts,
                    latency_ms=latency,
                    created_at=utc_now(),
                )
            )
            return error is None

        fresh, failed = _dispatch(pending, work, config.concurrency)

        manifest = {
            "run_id": run_id,
            "created_at": utc_now(),
            "tool_version": TOOL_VERSION,
            "hash_algorithm": HASH_ALGORITHM,
            "model": config.model.name,
            "generation_params": dump(config.model.params),
            "dataset": {
                "path": str(config.dataset),
                "digest": dataset.digest,
                "count": len(dataset),
            },
            "template_ids": registry.template_ids(),
            "tasks": [t.value for t in config.tasks],
            "modes": [m.value for m in config.modes],
            "cells": {
                "total": total,
                "cached": cached,
                "fresh": fresh,
                "failed": failed,
                "skipped_reasoning_only": skipped,
                "skipped_no_explanation": no_explanation,
            },
        }
        write_atomic(run_dir / "manifest.json", json_text(manifest))
    finally:
        writer.close()
        if built is not None:
            built.close()
    return RunSummary(
        run_dir=run_dir,
        records_path=records_path,
        total_cells=total,
        cached=cached,
        fresh=fresh,
        failed=failed,
        skipped_reasoning_only=skipped,
        skipped_no_explanation=no_explanation,
    )


def rescore(
    records_path: str | Path,
    dataset: Dataset | str | Path,
) -> list[Outcome]:
    """Re-judge recorded responses against the dataset, deterministically.

    Each record is scored as the log streams, and one outcome is kept
    per cache key, chosen as run() chooses the record it caches. The
    result is sorted, so rescoring the same inputs twice is
    byte-identical.
    """
    if not isinstance(dataset, Dataset):
        dataset = load_dataset(dataset)
    records_path = Path(records_path)
    if records_path.is_dir():
        records_path = records_path / "records.jsonl"
    if not records_path.exists():
        raise DataError(f"no record log at {records_path}")

    by_id = dataset.by_id

    def score_record(record: RunRecord, mode: PromptMode) -> Outcome:
        triplet = by_id.get(record.triplet_id) or _triplet_of(record, dataset)
        return score(
            triplet,
            record.response_text,
            mode,
            model=record.model,
            template_id=record.template_id,
            error=record.error,
        )

    by_cell = index_records(_stream_records(records_path), score_record)
    # By triplet id, then mode key; the cells of several models keep log order.
    return [by_cell[cell] for cell in sorted(by_cell, key=lambda cell: (cell[1], cell[2].key))]

