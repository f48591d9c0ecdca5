"""Triplet schema, dataset digests, and corpus ingestion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwpeval import DataError, Dataset, Triplet, load_dataset, save_dataset
from mwpeval.triplets import (
    derive_brief_explanation,
    ingest_gsm8k,
    ingest_mathdial,
    manifest_path_for,
)

from conftest import DATA_DIR, make_triplet, read_jsonl


# schema


def test_valid_triplet_round_trips_byte_identically():
    triplet = make_triplet()
    line = triplet.to_json_line()
    again = Triplet.from_json_line(line)
    assert again == triplet
    assert again.to_json_line() == line


def test_json_field_order_is_fixed():
    line = make_triplet().to_json_line()
    # the order README "Data model" documents
    assert tuple(json.loads(line).keys()) == (
        "id",
        "question",
        "reference_solution",
        "reference_numeric",
        "brief_explanation",
        "wrong_solution",
        "source",
        "meta",
    )


def test_missing_key_rejected():
    payload = json.loads(make_triplet().to_json_line())
    del payload["wrong_solution"]
    with pytest.raises(DataError, match="missing"):
        Triplet.from_json_line(json.dumps(payload))


def test_extra_key_rejected():
    payload = json.loads(make_triplet().to_json_line())
    payload["difficulty"] = "hard"
    with pytest.raises(DataError, match="unexpected"):
        Triplet.from_json_line(json.dumps(payload))


def test_reference_mismatch_rejected():
    bad = make_triplet(reference_numeric="25")
    with pytest.raises(DataError, match="extracts"):
        bad.validate()


def test_numberless_reference_solution_rejected():
    bad = make_triplet(reference_solution="It follows from the problem.")
    with pytest.raises(DataError, match="extracts"):
        bad.validate()


def test_empty_wrong_solution_needs_reasoning_only_flag():
    with pytest.raises(DataError, match="reasoning_only"):
        make_triplet(wrong_solution="").validate()
    make_triplet(wrong_solution="", meta={"reasoning_only": True}).validate()


def test_blank_explanation_must_be_null():
    with pytest.raises(DataError, match="blank"):
        make_triplet(brief_explanation="   ").validate()
    make_triplet(brief_explanation=None).validate()


def test_duplicate_ids_rejected():
    with pytest.raises(DataError, match="duplicate"):
        Dataset([make_triplet(), make_triplet()])


# brief explanation derivation


def test_derive_picks_last_sentence_with_the_value():
    text = "First there were 24 cartons. We eat 4. That leaves 24 - 4 = 20."
    assert derive_brief_explanation(text, "20") == "That leaves 24 - 4 = 20."


def test_derive_skips_sentences_without_the_value():
    text = "The total is 20 stamps. Final check done."
    assert derive_brief_explanation(text, "20") == "The total is 20 stamps."


def test_derive_returns_none_when_value_absent():
    assert derive_brief_explanation("No trace of it here.", "20") is None


# dataset files


def test_digest_depends_only_on_content(tmp_path):
    data = Dataset([make_triplet()], source="unit")
    same = Dataset([make_triplet()], source="other-name")
    assert data.digest == same.digest
    changed = Dataset([make_triplet(question="A box holds 7 eggs?")])
    assert changed.digest != data.digest


def test_save_load_round_trip_with_manifest(tmp_path):
    path = tmp_path / "set.jsonl"
    data = Dataset([make_triplet(), make_triplet(id="x02")], source="unit")
    save_dataset(data, path)
    sidecar = manifest_path_for(path)
    assert sidecar.exists()
    manifest = json.loads(sidecar.read_text())
    assert manifest["count"] == 2
    assert manifest["digest"] == data.digest
    assert manifest["source"] == "unit"

    loaded = load_dataset(path)
    assert loaded.digest == data.digest
    assert loaded.source == "unit"
    assert [t.id for t in loaded] == ["x01", "x02"]


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "set.jsonl"
    path.write_text(make_triplet().to_json_line() + "\n\n\n", encoding="utf-8")
    assert len(load_dataset(path)) == 1


def test_load_reports_line_number_on_bad_row(tmp_path):
    path = tmp_path / "set.jsonl"
    path.write_text(make_triplet().to_json_line() + "\n{broken\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(path)


def test_load_dataset_validates_each_row_once(monkeypatch):
    calls = []
    validate = Triplet.validate

    def counted(self):
        calls.append(self.id)
        validate(self)

    monkeypatch.setattr(Triplet, "validate", counted)
    dataset = load_dataset(DATA_DIR / "fixture_triplets.jsonl")
    assert sorted(calls) == sorted(t.id for t in dataset)
    assert len(calls) == len(dataset) == 20


def test_load_dataset_refuses_a_reference_that_does_not_extract(tmp_path):
    path = tmp_path / "set.jsonl"
    bad = make_triplet(id="x02", reference_numeric="25")
    path.write_text(
        make_triplet().to_json_line() + "\n" + bad.to_json_line() + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="x02: reference_solution extracts '24'"):
        load_dataset(path)


def test_missing_dataset_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_dataset(tmp_path / "absent.jsonl")


def test_fixture_dataset_loads(fixture_dataset):
    assert len(fixture_dataset) == 20
    assert fixture_dataset.by_id["t01"].reference_numeric == "224"


# dialogue-corpus ingestion


def test_mathdial_sample_ingests_with_two_rejections():
    records = read_jsonl(DATA_DIR / "mathdial_sample.jsonl")
    kept, rejected = ingest_mathdial(records)
    assert [t.id for t in kept] == ["md-101", "md-102", "md-103", "md-104", "md-105"]
    reasons = {r.record_id: r.reason for r in rejected}
    assert "no numeric answer" in reasons["md-106"]
    assert "student_incorrect_solution" in reasons["md-107"]
    # derived explanations carry their provenance in meta
    assert all(t.meta["be_derivation"] == "last-sentence" for t in kept)


def test_mathdial_custom_field_map():
    records = [
        {
            "key": "alt-1",
            "problem": "What is 6 times 9?",
            "solution": "Multiplying gives 6 * 9 = 54.",
            "attempt": "6 + 9 = 15.",
        }
    ]
    kept, rejected = ingest_mathdial(
        records,
        field_map={
            "id": "key",
            "question": "problem",
            "reference_solution": "solution",
            "wrong_solution": "attempt",
        },
    )
    assert not rejected
    assert kept[0].id == "alt-1"
    assert kept[0].reference_numeric == "54"


def test_mathdial_explanation_from_source_field():
    records = [
        {
            "qid": "md-1",
            "question": "What is 6 times 9?",
            "ground_truth": "Multiplying gives 6 * 9 = 54.",
            "student_incorrect_solution": "6 + 9 = 15.",
            "teacher_hint": "Six nines are 54.",
        }
    ]
    kept, _ = ingest_mathdial(records, field_map={"brief_explanation": "teacher_hint"})
    assert kept[0].brief_explanation == "Six nines are 54."
    assert kept[0].meta["be_derivation"] == "source"


def test_mathdial_majority_rejection_aborts():
    records = [{"nonsense": True}, {"more": 1}, {"again": 2}]
    with pytest.raises(DataError, match="field map"):
        ingest_mathdial(records)


def test_mathdial_generates_ids_when_unmapped():
    records = [
        {
            "question": "What is 6 times 9?",
            "ground_truth": "Multiplying gives 6 * 9 = 54.",
            "student_incorrect_solution": "6 + 9 = 15.",
        }
    ]
    kept, _ = ingest_mathdial(records, field_map={"id": None}, source="mathdial")
    assert kept[0].id == "mathdial-0000"


def test_gsm8k_records_become_reasoning_only():
    records = [
        {
            "id": "g-1",
            "question": "What is 6 times 9?",
            "answer": "Six times nine. 6 * 9 = 54\n#### 54",
        }
    ]
    kept, rejected = ingest_gsm8k(records)
    assert not rejected
    triplet = kept[0]
    assert triplet.reasoning_only
    assert triplet.wrong_solution == ""
    assert triplet.reference_numeric == "54"
    triplet.validate()


def test_gsm8k_rejects_numberless_answers():
    good = {
        "id": "g-2",
        "question": "What is 6 times 9?",
        "answer": "Six times nine. 6 * 9 = 54\n#### 54",
    }
    records = [
        {"id": "g-1", "question": "Why?", "answer": "Because."},
        good,
        {**good, "id": "g-3"},
    ]
    kept, rejected = ingest_gsm8k(records)
    assert [t.id for t in kept] == ["g-2", "g-3"]
    assert "no numeric answer" in rejected[0].reason


def test_gsm8k_majority_rejection_aborts():
    records = [{"id": "g-1", "question": "Why?", "answer": "Because."}]
    with pytest.raises(DataError, match="rejected"):
        ingest_gsm8k(records)


# fuzzed record shapes must never crash ingestion, only reject

junk_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=10), st.lists(st.integers(), max_size=2)
)
junk_records = st.lists(
    st.one_of(
        st.dictionaries(st.text(max_size=8), junk_values, max_size=4),
        st.integers(),
        st.text(max_size=8),
    ),
    max_size=6,
)


@given(junk_records)
def test_ingestion_survives_junk(records):
    try:
        kept, rejected = ingest_mathdial(records)
    except DataError:
        return  # majority-rejection abort is an acceptable outcome
    assert len(kept) + len(rejected) == len(records)
    for triplet in kept:
        triplet.validate()
