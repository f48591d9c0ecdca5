"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import settings

from mwpeval import DataError, Dataset, RunRecord, Triplet, load_dataset, save_dataset
from mwpeval import _schema

DATA_DIR = Path(__file__).parent / "data"

# A deeper search than the default 100 examples, for CI's property step:
# python -m pytest --hypothesis-profile ci tests/test_extraction.py ...
settings.register_profile("ci", max_examples=1000, deadline=None)


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_line(cls: type, line: str, where: str = ""):
    """cls loaded from one JSONL line, strict in keys and types, as
    read_jsonl loads each line of a file."""
    return _schema.load(cls, json.loads(line), cls.__name__, DataError, where)


def load_whole_log(path: Path) -> list[RunRecord]:
    """Every record of a log that must have no torn line: unlike
    load_records, a torn final line raises here."""
    return [record for _, record in _schema.read_jsonl(path, "run record", DataError, RunRecord)]


def make_triplet(**overrides) -> Triplet:
    """A valid triplet with every field filled; override what the test needs."""
    fields = dict(
        id="x01",
        question="A box holds 6 eggs. How many eggs are in 4 boxes?",
        reference_solution="Each box holds 6 eggs. Four boxes hold 6 * 4 = 24 eggs.",
        reference_numeric="24",
        brief_explanation="Four boxes hold 6 * 4 = 24 eggs.",
        wrong_solution="6 + 4 = 10 eggs.",
        source="unit",
        meta={},
    )
    fields.update(overrides)
    return Triplet(**fields)


@pytest.fixture(scope="session")
def fixture_dataset() -> Dataset:
    return load_dataset(DATA_DIR / "fixture_triplets.jsonl")


@pytest.fixture()
def scripted_path() -> Path:
    return DATA_DIR / "scripted_responses.jsonl"


def fixture_without_explanation(tmp_path: Path, triplet_id: str) -> tuple[Path, Path]:
    """The fixture dataset with one triplet's brief explanation nulled,
    and scripted responses that also answer every dop_be cell."""
    fixture = load_dataset(DATA_DIR / "fixture_triplets.jsonl")
    nulled = Dataset(
        [
            dataclasses.replace(t, brief_explanation=None) if t.id == triplet_id else t
            for t in fixture
        ],
        source="fixture-nulled",
    )
    dataset_path = save_dataset(nulled, tmp_path / "nulled.jsonl")
    scripted_path = tmp_path / "scripted.jsonl"
    with scripted_path.open("w", encoding="utf-8") as handle:
        for row in read_jsonl(DATA_DIR / "scripted_responses.jsonl"):
            handle.write(json.dumps(row) + "\n")
            if row["key"].endswith("|correction|sp"):
                be_key = row["key"].replace("|sp", "|dop_be")
                handle.write(json.dumps({**row, "key": be_key}) + "\n")
    return dataset_path, scripted_path
