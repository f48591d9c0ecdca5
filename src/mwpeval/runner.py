"""Experiment runner: content-addressed, append-only, resumable.

A run expands the dataset into cells, one per (triplet, task, mode).
Each cell's prompt gets a content hash, and (model name, content hash)
is the cache key. Records append to records.jsonl, one full line per
completed cell, so a killed run loses at most its in-flight cells and a
rerun with the same config replays everything already on disk and
dispatches only the remainder. Rerunning a completed run performs zero
backend calls.

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
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from ._schema import dump, dump_line, load, load_line, read_json, read_jsonl
from .backends import Backend, ModelSpec, create_backend
from .errors import BackendError, ConfigurationError, DataError, UsageError
from .prompting import (
    CORRECTION_MODES,
    HASH_ALGORITHM,
    REASONING_MODE,
    ALL_DOP_LEVELS,
    DopLevel,
    PromptMode,
    RenderedPrompt,
    TaskKind,
    TemplateRegistry,
    render,
)
from .scoring import Outcome, score
from .triplets import TOOL_VERSION, Dataset, Triplet, _utc_now, load_dataset

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class RunRecord:
    """One completed cell: the prompt sent and what came back."""

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

    def to_json_line(self) -> str:
        return dump_line(self)

    @classmethod
    def from_json_line(cls, line: str | bytes, lineno: int | None = None) -> "RunRecord":
        where = f" at line {lineno}" if lineno is not None else ""
        return load_line(cls, line, "run record", DataError, where)

    @property
    def mode(self) -> PromptMode:
        mode = _MODES_BY_FIELDS.get((self.task, self.dop))
        if mode is None:
            raise DataError(
                f"record for triplet {self.triplet_id!r} has an unknown "
                f"(task, dop) pair {(self.task, self.dop)!r}"
            )
        return mode


# RunRecord keeps task and dop as plain strings (cheaper to load than
# enums); this table is the one place they are read back as a mode.
_MODES_BY_FIELDS = {
    (mode.task.value, mode.dop.value if mode.dop else None): mode
    for mode in (REASONING_MODE, *CORRECTION_MODES.values())
}


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

    def to_dict(self) -> dict[str, Any]:
        return dump(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExperimentConfig":
        return load(cls, payload, "config", ConfigurationError)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, "config file", UsageError))


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


def _stream_records(path: Path) -> Iterator[RunRecord]:
    """The records of a log one at a time, read as load_records reads
    them, so a caller keeps only what it takes from each."""
    if path.exists():
        for _, record in read_jsonl(path, "run record", DataError, RunRecord, torn_tail=True):
            yield record


def _mend_tail(path: Path) -> None:
    """Make a log end in a whole line before appending to it: cut off a
    torn final line (the one load_records drops), or end a whole final
    record with its missing newline."""
    if not path.exists():
        return
    with path.open("r+b") as handle:
        start = size = handle.seek(0, os.SEEK_END)
        tail = b""
        while start and tail.find(b"\n", 0, len(tail) - 1) < 0:
            step = min(start, 1 << 16)
            start -= step
            handle.seek(start)
            tail = handle.read(step) + tail
        line_start = start + tail.rfind(b"\n", 0, len(tail) - 1) + 1
        line = tail[line_start - start :]
        if line.strip():
            try:
                RunRecord.from_json_line(line)
            except DataError:
                handle.truncate(line_start)
                return
        if size and not line.endswith(b"\n"):
            handle.seek(size)
            handle.write(b"\n")


_Kept = TypeVar("_Kept")


def index_records(
    records: Iterable[RunRecord], keep: Callable[[RunRecord], _Kept]
) -> dict[tuple[str, str], _Kept]:
    """keep(record) of the latest record per (model, content hash); a
    success is never displaced by a later error, and keep sees only the
    records that take their key's place."""
    index: dict[tuple[str, str], _Kept] = {}
    succeeded: set[tuple[str, str]] = set()
    for record in records:
        key = (record.model, record.content_hash)
        if record.error is None:
            succeeded.add(key)
        elif key in succeeded:
            continue
        index[key] = keep(record)
    return index


def build_cells(
    dataset: Dataset,
    config: ExperimentConfig,
    registry: TemplateRegistry,
    answered: Callable[[str], bool] = lambda content_hash: False,
) -> tuple[list[RenderedPrompt], int, int, int]:
    """One rendered prompt per (triplet, task, mode) cell, with
    reasoning-only triplets excluded from correction and triplets
    without a brief explanation excluded from dop_be. Every cell's hash
    is checked for a collision; a cell whose hash answered() accepts is
    then only counted, so its text is not kept. Returns (pending cells,
    answered cells, skipped reasoning-only cells, skipped cells without
    an explanation)."""
    pending: list[RenderedPrompt] = []
    first_by_hash: dict[str, tuple[str, PromptMode]] = {}
    cached = skipped = no_explanation = 0

    def plan(triplet: Triplet, mode: PromptMode) -> None:
        nonlocal cached
        cell = render(triplet, mode, config.model.params, registry)
        other = first_by_hash.get(cell.content_hash)
        if other is not None:
            raise DataError(
                "content hash collision between cells "
                f"{other[0]}/{other[1].key} and "
                f"{cell.triplet_id}/{mode.key}; triplet texts "
                "are probably duplicated"
            )
        first_by_hash[cell.content_hash] = (cell.triplet_id, mode)
        if answered(cell.content_hash):
            cached += 1
        else:
            pending.append(cell)

    for task in config.tasks:
        if task is TaskKind.REASONING:
            for triplet in dataset:
                plan(triplet, REASONING_MODE)
        else:
            for mode_level in config.modes:
                mode = CORRECTION_MODES[mode_level]
                for triplet in dataset:
                    if triplet.reasoning_only:
                        skipped += 1
                        continue
                    if mode_level is DopLevel.BE and triplet.brief_explanation is None:
                        no_explanation += 1
                        continue
                    plan(triplet, mode)
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
    """Serialized append-and-flush so each record lands as one full line.

    The log's handle also carries an exclusive advisory lock for as long
    as the writer is open, so an output dir admits one run at a time.
    """

    def __init__(self, path: Path) -> None:
        self._handle = path.open("a", encoding="utf-8")
        try:
            fcntl.flock(self._handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._handle.close()
            raise UsageError(
                f"{path.parent} is in use by another run; an output dir "
                "admits one writer at a time"
            ) from None
        self._lock = threading.Lock()

    def append(self, record: RunRecord) -> None:
        line = record.to_json_line() + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def _cache_identity(config: ExperimentConfig, dataset: Dataset, registry: TemplateRegistry) -> dict[str, Any]:
    return {
        "dataset_digest": dataset.digest,
        "model": config.model.to_dict(),
        "template_ids": registry.template_ids(),
    }


# Model settings that shape how a completion is fetched, not its content:
# a resume may change them, e.g. to slow down after rate-limit errors.
_TRANSPORT_FIELDS = frozenset({"auth_env", "retry", "requests_per_second", "timeout"})


def _binding(identity: Any) -> Any:
    """The part of a cache identity that binds an output dir: all of it
    but the model's transport settings."""
    if not isinstance(identity, dict) or not isinstance(identity.get("model"), dict):
        return identity
    model = {k: v for k, v in identity["model"].items() if k not in _TRANSPORT_FIELDS}
    return {**identity, "model": model}


def _dispatch(
    cells: list[RenderedPrompt], work: Callable[[RenderedPrompt], bool], concurrency: int
) -> tuple[int, int]:
    """Complete cells on min(concurrency, len(cells)) threads. Each
    thread pulls the next cell when it finishes one, so exactly
    `concurrency` cells are in flight. Returns (succeeded, failed).

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

    def stop(exc: BaseException) -> None:
        nonlocal abort
        with lock:
            if abort is None:
                abort = exc

    def worker() -> None:
        nonlocal succeeded, failed, exited
        ok: bool | None = None
        try:
            while True:
                with lock:
                    if ok is not None:
                        if ok:
                            succeeded += 1
                        else:
                            failed += 1
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
    if abort is not None:
        raise abort
    return succeeded, failed


def run(config: ExperimentConfig, backend: Backend | None = None) -> RunSummary:
    """Execute (or resume) the experiment described by config."""
    dataset = load_dataset(config.dataset)
    registry = TemplateRegistry.load(config.templates_dir)

    run_dir = Path(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    records_path = run_dir / "records.jsonl"
    # Opening the writer locks the output dir until the manifest is written.
    writer = _RecordWriter(records_path)
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
                    "dataset/model/template combination; use a fresh output_dir"
                )

        # Per cache key, only whether its record succeeded is kept.
        succeeded = index_records(
            _stream_records(records_path), lambda record: record.error is None
        )

        def answered(content_hash: str) -> bool:
            ok = succeeded.get((config.model.name, content_hash))
            return ok is not None and (ok or not config.retry_failed)

        pending, cached, skipped, no_explanation = build_cells(
            dataset, config, registry, answered
        )
        total = len(pending) + cached
        # Bound only now, so a dataset that fails build_cells binds no dir.
        identity_path.write_text(
            json.dumps(
                {"config": config.to_dict(), "identity": identity},
                ensure_ascii=False,
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        _mend_tail(records_path)

        if backend is None and pending:
            backend = create_backend(config.model, config.concurrency)

        run_id = uuid.uuid4().hex[:12]

        def work(prompt: RenderedPrompt) -> bool:
            """Complete one cell and append its record. True means success."""
            base = dict(
                run_id=run_id,
                triplet_id=prompt.triplet_id,
                model=config.model.name,
                task=prompt.mode.task.value,
                dop=prompt.mode.dop.value if prompt.mode.dop else None,
                template_id=prompt.template_id,
                content_hash=prompt.content_hash,
                prompt_text=prompt.text,
            )
            try:
                result = backend.complete(prompt)
                record = RunRecord(
                    **base,
                    response_text=result.text,
                    error=None,
                    attempts=result.attempts,
                    latency_ms=result.latency_ms,
                    created_at=_utc_now(),
                )
            except BackendError as exc:
                record = RunRecord(
                    **base,
                    response_text=None,
                    error=str(exc),
                    attempts=0,
                    latency_ms=0.0,
                    created_at=_utc_now(),
                )
            writer.append(record)
            return record.error is None

        fresh, failed = _dispatch(pending, work, config.concurrency)

        manifest = {
            "run_id": run_id,
            "created_at": _utc_now(),
            "tool_version": TOOL_VERSION,
            "hash_algorithm": HASH_ALGORITHM,
            "model": config.model.name,
            "generation_params": config.model.params.to_dict(),
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
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    finally:
        writer.close()
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

    def score_record(record: RunRecord) -> Outcome:
        triplet = dataset.by_id.get(record.triplet_id)
        if triplet is None:
            raise DataError(
                f"record references unknown triplet id {record.triplet_id!r}; "
                "was the right dataset supplied?"
            )
        mode = record.mode
        return score(
            triplet,
            record.response_text,
            mode.task,
            mode.dop,
            model=record.model,
            template_id=record.template_id,
            error=record.error,
        )

    outcomes = list(index_records(_stream_records(records_path), score_record).values())
    outcomes.sort(key=lambda o: (o.triplet_id, o.task.value, o.dop.value if o.dop else ""))
    return outcomes


def write_scored(outcomes: Iterable[Outcome], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for outcome in outcomes:
            handle.write(dump_line(outcome) + "\n")
    return path


def load_scored(path: str | Path) -> list[Outcome]:
    """Read a scored outcome file. A second outcome for the same (model,
    triplet, task, mode) raises, naming both lines."""
    outcomes = []
    first_line: dict[tuple[Any, ...], int] = {}
    for lineno, payload in read_jsonl(path, "scored outcome", DataError):
        try:
            outcome = Outcome.from_dict(payload)
        except DataError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from None
        key = (payload["model"], payload["triplet_id"], payload["task"], payload["dop"])
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise DataError(
                f"{path} lines {first} and {lineno}: duplicate outcome for (model, "
                f"triplet, task, dop) {key}"
            )
        outcomes.append(outcome)
    return outcomes
