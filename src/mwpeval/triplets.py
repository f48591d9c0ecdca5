"""Triplet datasets: question, reference solution, and a wrong solution.

A triplet carries everything one evaluation cell needs: the question,
the reference solution with its canonical numeric answer, an incorrect
solution to be corrected, and an optional brief explanation used as a
mid-strength diagnostic resource. Datasets are JSONL files, one triplet
per line, with a manifest sidecar carrying a content digest so runs can
pin exactly which data they saw.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import __version__ as TOOL_VERSION
from ._schema import dump_line, json_text, read_json, read_jsonl, utc_now, write_atomic
from .errors import DataError, UsageError
from .extraction import NumericAnswer, extract, parse_numeric, scan_numbers

DEFAULT_MATHDIAL_FIELD_MAP = {
    "id": "qid",
    "question": "question",
    "reference_solution": "ground_truth",
    "wrong_solution": "student_incorrect_solution",
}
# The triplet fields a MathDial field map may name a source field for.
_MATHDIAL_FIELD_MAP_KEYS = (*DEFAULT_MATHDIAL_FIELD_MAP, "brief_explanation")
# No wrong_solution: a GSM8K problem yields a reasoning-only triplet.
GSM8K_FIELD_MAP = {"id": "id", "question": "question", "reference_solution": "answer"}

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+|\n+")


@dataclass(frozen=True)
class Triplet:
    """One evaluation unit. brief_explanation may be None; such triplets
    are excluded from diagnostic levels that need it."""

    id: str
    question: str
    reference_solution: str
    reference_numeric: str
    brief_explanation: str | None
    wrong_solution: str
    source: str
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def reasoning_only(self) -> bool:
        return bool(self.meta.get("reasoning_only"))

    @cached_property
    def reference_value(self) -> NumericAnswer:
        """Parsed once per instance: the parse validate() makes is the
        one every later score reuses."""
        parsed = parse_numeric(self.reference_numeric)
        if parsed is None:
            raise DataError(
                f"triplet {self.id}: reference_numeric "
                f"{self.reference_numeric!r} is not a canonical numeric string"
            )
        return parsed

    def validate(self) -> None:
        if not self.id or not self.id.strip():
            raise DataError("triplet has an empty id")
        if not self.question.strip():
            raise DataError(f"triplet {self.id}: question is empty")
        if not self.reference_solution.strip():
            raise DataError(f"triplet {self.id}: reference_solution is empty")
        if not self.wrong_solution.strip() and not self.reasoning_only:
            raise DataError(
                f"triplet {self.id}: wrong_solution is empty and the triplet "
                "is not flagged reasoning_only"
            )
        if self.brief_explanation is not None and not self.brief_explanation.strip():
            raise DataError(f"triplet {self.id}: brief_explanation is blank, use null")
        reference = self.reference_value
        extracted = extract(self.reference_solution)
        if extracted is None or extracted != reference:
            found = None if extracted is None else extracted.canonical
            raise DataError(
                f"triplet {self.id}: reference_solution extracts {found!r} "
                f"but reference_numeric is {self.reference_numeric!r}"
            )

    def to_json_line(self) -> str:
        return dump_line(self)


def derive_brief_explanation(
    reference_solution: str, reference_numeric: str
) -> str | None:
    """Last sentence of the reference solution containing the reference value."""
    reference = parse_numeric(reference_numeric)
    if reference is None:
        return None
    sentences = [s.strip() for s in _SENTENCE_SPLIT.split(reference_solution)]
    for sentence in reversed(sentences):
        if not sentence:
            continue
        if any(token.value == reference.value for token in scan_numbers(sentence)):
            return sentence
    return None


class Dataset:
    """Ordered triplets plus identifying metadata and a content digest.
    Building one validates every triplet."""

    def __init__(
        self,
        triplets: Iterable[Triplet],
        source: str = "unknown",
        created_at: str | None = None,
    ) -> None:
        self.triplets: list[Triplet] = list(triplets)
        self.source = source
        self.created_at = created_at or utc_now()
        seen: dict[str, int] = {}
        for i, triplet in enumerate(self.triplets):
            triplet.validate()
            if triplet.id in seen:
                raise DataError(
                    f"duplicate triplet id {triplet.id!r} "
                    f"(positions {seen[triplet.id]} and {i})"
                )
            seen[triplet.id] = i
        self.by_id: dict[str, Triplet] = {t.id: t for t in self.triplets}

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    @cached_property
    def digest(self) -> str:
        """Hashed on first read only: a Dataset is fixed once built."""
        hasher = hashlib.sha256()
        for triplet in self.triplets:
            hasher.update(triplet.to_json_line().encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()

    def manifest(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "count": len(self.triplets),
            "digest": self.digest,
            "created_at": self.created_at,
            "tool_version": TOOL_VERSION,
        }


def manifest_path_for(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".manifest.json")


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write the dataset JSONL plus its manifest sidecar. Returns the path."""
    path = write_atomic(path, (triplet.to_json_line() + "\n" for triplet in dataset.triplets))
    write_atomic(manifest_path_for(path), json_text(dataset.manifest()))
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a triplet JSONL file. Its manifest sidecar, if
    present, supplies the source label and creation time."""
    path = Path(path)
    triplets = [triplet for _, triplet in read_jsonl(path, "triplet", DataError, Triplet)]
    sidecar = manifest_path_for(path)
    meta = read_json(sidecar, "manifest sidecar", DataError) if sidecar.exists() else {}
    if not isinstance(meta, dict):
        raise DataError(f"manifest sidecar {sidecar} is not a JSON object")
    for name in ("source", "created_at"):
        if not isinstance(meta.get(name, ""), str):
            raise DataError(
                f"manifest sidecar {sidecar}: {name} must be a string, got {meta[name]!r}"
            )
    return Dataset(
        triplets, source=meta.get("source", path.name), created_at=meta.get("created_at")
    )


@dataclass(frozen=True)
class Rejection:
    index: int
    reason: str
    record_id: str | None = None


def _require_text(record: dict[str, Any], key: str | None) -> str | None:
    if key is None:
        return None
    value = record.get(key)
    if isinstance(value, (int, float)):
        value = str(value)
    if not isinstance(value, str) or not value.strip():
        return None
    return value


def _ingest(
    records: Iterable[dict[str, Any]], mapping: dict[str, Any], source: str
) -> tuple[list[Triplet], list[Rejection]]:
    """Map source records onto triplets.

    mapping names the source field of each triplet field. A field mapped
    to None reads as missing: a missing id numbers the triplet by
    position, and a missing required text rejects the record. A mapping
    without a wrong_solution key yields reasoning-only triplets. An
    unmapped brief_explanation is derived as the last sentence of the
    reference solution containing the reference value. Records that
    cannot be mapped are rejected with a reason. A rejection rate above
    50% aborts, since it almost always means the mapping is wrong.
    """
    reasoning_only = "wrong_solution" not in mapping
    required = ["question", "reference_solution"]
    if not reasoning_only:
        required.append("wrong_solution")
    triplets: list[Triplet] = []
    rejections: list[Rejection] = []
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            rejections.append(Rejection(index, "record is not a JSON object"))
            continue
        record_id = _require_text(record, mapping.get("id"))
        texts = {name: _require_text(record, mapping[name]) for name in required}
        problems = [name for name, value in texts.items() if value is None]
        if problems:
            rejections.append(
                Rejection(
                    index,
                    "missing or blank source fields: "
                    + ", ".join(f"{p} ({mapping[p]!r})" for p in problems),
                    record_id,
                )
            )
            continue
        reference_solution = texts["reference_solution"]
        reference = extract(reference_solution)
        if reference is None:
            rejections.append(
                Rejection(index, "no numeric answer in reference_solution", record_id)
            )
            continue
        meta: dict[str, Any] = {"reasoning_only": True} if reasoning_only else {}
        explanation_key = mapping.get("brief_explanation")
        explanation = _require_text(record, explanation_key) if explanation_key else None
        if explanation is not None:
            meta["be_derivation"] = "source"
        else:
            explanation = derive_brief_explanation(
                reference_solution, reference.canonical
            )
            if explanation is not None:
                meta["be_derivation"] = "last-sentence"
        triplet = Triplet(
            id=record_id or f"{source}-{index:04d}",
            question=texts["question"],
            reference_solution=reference_solution,
            reference_numeric=reference.canonical,
            brief_explanation=explanation,
            wrong_solution=texts.get("wrong_solution", ""),
            source=source,
            meta=meta,
        )
        triplets.append(triplet)
    total = len(triplets) + len(rejections)
    if len(rejections) > total / 2:
        raise DataError(
            f"{len(rejections)} of {total} records rejected; the field map "
            f"{mapping!r} most likely does not match this source"
        )
    return triplets, rejections


def ingest_mathdial(
    records: Iterable[dict[str, Any]],
    field_map: dict[str, str] | None = None,
    source: str = "mathdial",
) -> tuple[list[Triplet], list[Rejection]]:
    """Map tutoring-dialog records onto triplets; field_map overrides
    DEFAULT_MATHDIAL_FIELD_MAP entry by entry. A field map that is not a
    dict, a key that names no mappable triplet field, or a value that is
    neither a source field name nor None raises UsageError."""
    if field_map is not None and not isinstance(field_map, dict):
        raise UsageError("--field-map must be a JSON object")
    unknown = sorted(set(field_map or ()) - set(_MATHDIAL_FIELD_MAP_KEYS))
    if unknown:
        raise UsageError(
            f"unknown field map keys {unknown}; accepted keys are {list(_MATHDIAL_FIELD_MAP_KEYS)}"
        )
    for key, value in (field_map or {}).items():
        if value is not None and not isinstance(value, str):
            raise UsageError(
                f"--field-map value for {key!r} must be a source field name "
                f"or null, got {value!r:.60}"
            )
    return _ingest(records, {**DEFAULT_MATHDIAL_FIELD_MAP, **(field_map or {})}, source)


def ingest_gsm8k(
    records: Iterable[dict[str, Any]], source: str = "gsm8k"
) -> tuple[list[Triplet], list[Rejection]]:
    """Map grade-school problem records (question + worked answer) onto
    reasoning-only triplets, which are excluded from correction runs."""
    return _ingest(records, GSM8K_FIELD_MAP, source)
