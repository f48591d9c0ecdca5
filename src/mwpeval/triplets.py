"""Triplet datasets: question, reference solution, and a wrong solution.

A triplet carries everything one evaluation cell needs: the question,
the reference solution with its canonical numeric answer, an incorrect
solution to be corrected, and an optional brief explanation used as a
mid-strength diagnostic resource. Datasets are JSONL files, one triplet
per line, with a manifest sidecar carrying a content digest so runs can
pin exactly which data they saw.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import __version__ as TOOL_VERSION
from ._schema import dump, load
from .errors import DataError
from .extraction import NumericAnswer, extract, parse_numeric, scan_numbers

DEFAULT_MATHDIAL_FIELD_MAP = {
    "id": "qid",
    "question": "question",
    "reference_solution": "ground_truth",
    "wrong_solution": "student_incorrect_solution",
}

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
        return json.dumps(dump(self), ensure_ascii=False)

    @classmethod
    def from_json_line(cls, line: str, lineno: int | None = None) -> "Triplet":
        """Decode one JSONL row and check its keys and value types.
        Values are validated once, when a Dataset is built."""
        where = f" at line {lineno}" if lineno is not None else ""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON{where}: {exc}") from exc
        return load(cls, payload, "triplet", DataError, where)


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
        self.created_at = created_at or _utc_now()
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


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def manifest_path_for(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".manifest.json")


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write the dataset JSONL plus its manifest sidecar. Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for triplet in dataset.triplets:
            handle.write(triplet.to_json_line() + "\n")
    manifest_path_for(path).write_text(
        json.dumps(dataset.manifest(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a triplet JSONL file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    triplets = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            triplets.append(Triplet.from_json_line(line, lineno))
    source = path.name
    created_at = None
    sidecar = manifest_path_for(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
            source = meta.get("source", source)
            created_at = meta.get("created_at")
        except (json.JSONDecodeError, AttributeError) as exc:
            raise DataError(f"unreadable manifest sidecar {sidecar}: {exc}") from exc
    return Dataset(triplets, source=source, created_at=created_at)


@dataclass(frozen=True)
class Rejection:
    index: int
    reason: str
    record_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return dump(self)


def _require_text(record: dict[str, Any], key: str | None) -> str | None:
    if key is None:
        return None
    value = record.get(key)
    if isinstance(value, (int, float)):
        value = str(value)
    if not isinstance(value, str) or not value.strip():
        return None
    return value


def ingest_mathdial(
    records: Iterable[dict[str, Any]],
    field_map: dict[str, str] | None = None,
    source: str = "mathdial",
) -> tuple[list[Triplet], list[Rejection]]:
    """Map tutoring-dialog records onto triplets.

    field_map maps triplet fields to source record fields; unmapped
    brief_explanation is derived as the last sentence of the reference
    solution containing the reference value. Records that cannot be
    mapped are rejected with a reason. A rejection rate above 50%
    aborts, since it almost always means the field map is wrong.
    """
    mapping = dict(DEFAULT_MATHDIAL_FIELD_MAP)
    if field_map:
        mapping.update(field_map)
    triplets: list[Triplet] = []
    rejections: list[Rejection] = []
    total = 0
    for index, record in enumerate(records):
        total += 1
        if not isinstance(record, dict):
            rejections.append(Rejection(index, "record is not a JSON object"))
            continue
        record_id = _require_text(record, mapping.get("id"))
        question = _require_text(record, mapping["question"])
        reference_solution = _require_text(record, mapping["reference_solution"])
        wrong_solution = _require_text(record, mapping["wrong_solution"])
        problems = [
            name
            for name, value in [
                ("question", question),
                ("reference_solution", reference_solution),
                ("wrong_solution", wrong_solution),
            ]
            if value is None
        ]
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
        reference = extract(reference_solution)
        if reference is None:
            rejections.append(
                Rejection(index, "no numeric answer in reference_solution", record_id)
            )
            continue
        meta: dict[str, Any] = {}
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
            question=question,
            reference_solution=reference_solution,
            reference_numeric=reference.canonical,
            brief_explanation=explanation,
            wrong_solution=wrong_solution,
            source=source,
            meta=meta,
        )
        triplets.append(triplet)
    if total and len(rejections) > total / 2:
        raise DataError(
            f"{len(rejections)} of {total} records rejected; the field map "
            f"{mapping!r} most likely does not match this source"
        )
    return triplets, rejections


def ingest_gsm8k(
    records: Iterable[dict[str, Any]], source: str = "gsm8k"
) -> tuple[list[Triplet], list[Rejection]]:
    """Map grade-school problem records (question + worked answer) onto
    reasoning-only triplets. These carry no wrong solution and are
    excluded from correction runs."""
    triplets: list[Triplet] = []
    rejections: list[Rejection] = []
    total = 0
    for index, record in enumerate(records):
        total += 1
        if not isinstance(record, dict):
            rejections.append(Rejection(index, "record is not a JSON object"))
            continue
        record_id = _require_text(record, "id")
        question = _require_text(record, "question")
        answer = _require_text(record, "answer")
        if question is None or answer is None:
            rejections.append(
                Rejection(index, "missing or blank question/answer fields", record_id)
            )
            continue
        reference = extract(answer)
        if reference is None:
            rejections.append(
                Rejection(index, "no numeric answer in answer text", record_id)
            )
            continue
        meta: dict[str, Any] = {"reasoning_only": True}
        explanation = derive_brief_explanation(answer, reference.canonical)
        if explanation is not None:
            meta["be_derivation"] = "last-sentence"
        triplet = Triplet(
            id=record_id or f"{source}-{index:04d}",
            question=question,
            reference_solution=answer,
            reference_numeric=reference.canonical,
            brief_explanation=explanation,
            wrong_solution="",
            source=source,
            meta=meta,
        )
        triplets.append(triplet)
    if total and len(rejections) > total / 2:
        raise DataError(
            f"{len(rejections)} of {total} records rejected; input does not "
            "look like a question/answer problem file"
        )
    return triplets, rejections
