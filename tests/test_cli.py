"""Command line behavior: exit codes, output files, error channels."""

from __future__ import annotations

import fcntl
import json
import shutil
from pathlib import Path

import pytest

from mwpeval import Triplet
from mwpeval.cli import main

from conftest import DATA_DIR, fixture_without_explanation

FIXTURE_DATASET = DATA_DIR / "fixture_triplets.jsonl"
SCRIPTED = DATA_DIR / "scripted_responses.jsonl"
MATHDIAL = DATA_DIR / "mathdial_sample.jsonl"


def write_config(tmp_path: Path, **overrides) -> Path:
    payload = {
        "dataset": str(FIXTURE_DATASET),
        "model": {"name": "fixture-model", "endpoint": f"scripted:{SCRIPTED}"},
        "output_dir": str(tmp_path / "out"),
        "modes": ["sp"],
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# exit codes and error channels


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["verify-paper", "--frobnicate"]) == 1


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_json_errors_flag_emits_structured_errors(capsys):
    code = main(
        [
            "--json-errors",
            "rescore",
            "--run",
            "/nonexistent",
            "--dataset",
            str(FIXTURE_DATASET),
            "--output",
            "/tmp/never-written.jsonl",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "DataError"
    assert "no record log" in payload["message"]


def test_json_errors_cover_usage_failures(capsys):
    assert main(["--json-errors"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "UsageError"


def test_data_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, dataset=str(tmp_path / "missing.jsonl"))
    assert main(["run", "--config", str(config)]) == 2
    assert "not found" in capsys.readouterr().err


# verify-paper


def test_verify_paper_passes_on_bundled_table(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "all rows check out" in out
    assert out.count("ok") >= 12


def test_verify_paper_fails_with_exit_3(tmp_path, capsys):
    bad = {
        "dataset_size": 10,
        "rate_tolerance": 0.002,
        "rows": [
            {"model": "x", "r_rate": 0.9, "c_rate": 0.1,
             "srsc": 1, "sruc": 1, "ursc": 1, "uruc": 1}
        ],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["verify-paper", "--fixture", str(path)]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "error:" in captured.err


# ingest


def test_ingest_mathdial_sample(tmp_path, capsys):
    output = tmp_path / "triplets.jsonl"
    code = main(
        [
            "ingest",
            "--source",
            "mathdial",
            "--input",
            str(MATHDIAL),
            "--output",
            str(output),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ingested 5 triplets" in out
    assert "2 rejected" in out
    assert output.exists()
    assert Path(str(output) + ".manifest.json").exists()
    rejects = json.loads(Path(str(output) + ".rejects.json").read_text())
    assert rejects["kept"] == 5
    assert rejects["rejected"] == 2
    assert {r["record_id"] for r in rejects["rejections"]} == {"md-106", "md-107"}


def test_ingest_reports_unparseable_lines_once(tmp_path):
    source = tmp_path / "source.jsonl"
    good = {
        "qid": "md-1",
        "question": "What is 6 times 9?",
        "ground_truth": "Multiplying gives 6 * 9 = 54.",
        "student_incorrect_solution": "6 + 9 = 15.",
    }
    with source.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(good) + "\n")
        handle.write("{this is not json\n")
        handle.write(json.dumps({**good, "qid": "md-2"}) + "\n")
    output = tmp_path / "out.jsonl"
    assert main(["ingest", "--source", "mathdial", "--input", str(source),
                 "--output", str(output)]) == 0
    rejects = json.loads(Path(str(output) + ".rejects.json").read_text())
    assert rejects["kept"] == 2
    assert rejects["rejected"] == 1
    assert "invalid JSON" in rejects["rejections"][0]["reason"]


def test_ingest_numbers_every_rejection_by_input_line(tmp_path):
    source = tmp_path / "source.jsonl"
    good = {
        "qid": "md-1",
        "question": "What is 6 times 9?",
        "ground_truth": "Multiplying gives 6 * 9 = 54.",
        "student_incorrect_solution": "6 + 9 = 15.",
    }
    source.write_text(
        json.dumps(good) + "\n"
        + "\n"
        + "{this is not json\n"
        + json.dumps({**good, "qid": "md-2"}) + "\n"
        + json.dumps({**good, "qid": "md-3"}) + "\n",
        encoding="utf-8",
    )
    output = tmp_path / "out.jsonl"
    assert main(["ingest", "--source", "mathdial", "--input", str(source),
                 "--output", str(output)]) == 0
    rejects = json.loads(Path(str(output) + ".rejects.json").read_text())
    assert rejects["kept"] == 3
    assert rejects["rejected"] == 1
    [only] = rejects["rejections"]
    assert only["index"] == 2
    assert only["reason"].startswith("invalid JSON")


def test_ingest_gsm8k(tmp_path):
    source = tmp_path / "gsm.jsonl"
    source.write_text(
        json.dumps(
            {
                "id": "g-1",
                "question": "What is 6 times 9?",
                "answer": "Multiply. 6 * 9 = 54\n#### 54",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    output = tmp_path / "out.jsonl"
    assert main(["ingest", "--source", "gsm8k", "--input", str(source),
                 "--output", str(output)]) == 0
    row = json.loads(output.read_text().splitlines()[0])
    assert row["meta"]["reasoning_only"] is True
    assert row["wrong_solution"] == ""


def test_ingest_existing_triplets_revalidates(tmp_path, capsys):
    output = tmp_path / "copy.jsonl"
    assert main(["ingest", "--source", "triplets", "--input", str(FIXTURE_DATASET),
                 "--output", str(output)]) == 0
    assert "ingested 20 triplets" in capsys.readouterr().out
    assert output.read_text() == FIXTURE_DATASET.read_text()


@pytest.mark.parametrize(
    "source, input_path, kept",
    [("mathdial", MATHDIAL, 5), ("triplets", FIXTURE_DATASET, 20)],
    ids=["mathdial", "triplets"],
)
def test_ingest_validates_and_serialises_each_kept_triplet_once(
    tmp_path, monkeypatch, source, input_path, kept
):
    validated, serialised = [], []
    validate, to_json_line = Triplet.validate, Triplet.to_json_line

    def counting_validate(self):
        validated.append(self.id)
        return validate(self)

    def counting_to_json_line(self):
        serialised.append(self.id)
        return to_json_line(self)

    monkeypatch.setattr(Triplet, "validate", counting_validate)
    monkeypatch.setattr(Triplet, "to_json_line", counting_to_json_line)
    assert main(["ingest", "--source", source, "--input", str(input_path),
                 "--output", str(tmp_path / "out.jsonl")]) == 0
    assert len(validated) == kept  # building the Dataset is the one gate
    assert len(serialised) == 2 * kept  # the rows written, then the digest


def test_ingest_existing_triplets_relabels_and_restamps(tmp_path):
    source = tmp_path / "in.jsonl"
    shutil.copy(FIXTURE_DATASET, source)
    Path(str(source) + ".manifest.json").write_text(
        json.dumps({"source": "old", "created_at": "2000-01-01T00:00:00Z"}), encoding="utf-8"
    )
    output = tmp_path / "out.jsonl"
    assert main(["ingest", "--source", "triplets", "--input", str(source),
                 "--output", str(output), "--source-name", "relabelled"]) == 0
    manifest = json.loads(Path(str(output) + ".manifest.json").read_text())
    assert manifest["source"] == "relabelled"
    assert manifest["created_at"] != "2000-01-01T00:00:00Z"
    assert output.read_text() == FIXTURE_DATASET.read_text()


def test_ingest_bad_field_map_is_a_usage_error(tmp_path, capsys):
    assert main(["ingest", "--source", "mathdial", "--input", str(MATHDIAL),
                 "--output", str(tmp_path / "x.jsonl"),
                 "--field-map", "{broken"]) == 1
    assert "field-map" in capsys.readouterr().err


# run, rescore, report pipeline


def test_run_reports_dop_be_cells_skipped_for_a_missing_explanation(tmp_path, capsys):
    dataset_path, scripted_path = fixture_without_explanation(tmp_path, "t05")
    config = write_config(
        tmp_path,
        dataset=str(dataset_path),
        model={"name": "fixture-model", "endpoint": f"scripted:{scripted_path}"},
        modes=["dop_be"],
    )
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "39 cells, 0 cached, 39 fresh, 0 failed" in out
    assert "1 dop_be cells without a brief explanation skipped" in out


def test_pipeline_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path)

    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "40 cells, 0 cached, 40 fresh, 0 failed" in out

    # re-running is free and says so
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "40 cached, 0 fresh" in out

    scored = tmp_path / "scored.jsonl"
    assert main(["rescore", "--run", str(tmp_path / "out"),
                 "--dataset", str(FIXTURE_DATASET),
                 "--output", str(scored)]) == 0
    assert "scored 40 outcomes" in capsys.readouterr().out

    # rescoring is deterministic at the byte level
    first = scored.read_bytes()
    assert main(["rescore", "--run", str(tmp_path / "out"),
                 "--dataset", str(FIXTURE_DATASET),
                 "--output", str(scored)]) == 0
    capsys.readouterr()
    assert scored.read_bytes() == first

    report_dir = tmp_path / "report"
    assert main(["report", "--scored", str(scored),
                 "--out-dir", str(report_dir)]) == 0
    capsys.readouterr()
    payload = json.loads((report_dir / "report.json").read_text())
    row = payload["reports"][0]
    assert row["r_rate"] == 14 / 20
    assert row["c_rate"] == 10 / 20
    assert (report_dir / "report.md").exists()
    assert (report_dir / "report.csv").exists()
    assert (report_dir / "chart_data.json").exists()
    assert (report_dir / "chart.svg").exists()


def test_report_from_builtin_counts(tmp_path, capsys):
    report_dir = tmp_path / "report"
    assert main(["report", "--counts", "builtin", "--out-dir", str(report_dir)]) == 0
    capsys.readouterr()
    csv_rows = (report_dir / "report.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 1 + 12


def test_report_requires_exactly_one_input(tmp_path, capsys):
    assert main(["report", "--out-dir", str(tmp_path)]) == 1
    assert main(["report", "--scored", "a", "--counts", "b",
                 "--out-dir", str(tmp_path)]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_report_with_bootstrap_records_the_spec(tmp_path, capsys):
    config = write_config(tmp_path)
    main(["run", "--config", str(config)])
    scored = tmp_path / "scored.jsonl"
    main(["rescore", "--run", str(tmp_path / "out"),
          "--dataset", str(FIXTURE_DATASET), "--output", str(scored)])
    report_dir = tmp_path / "report"
    assert main(["report", "--scored", str(scored), "--out-dir", str(report_dir),
                 "--bootstrap", "200", "--seed", "11"]) == 0
    capsys.readouterr()
    payload = json.loads((report_dir / "report.json").read_text())
    assert payload["bootstrap"] == {"resamples": 200, "level": 0.95, "seed": 11}
    row = payload["reports"][0]
    assert row["r_ci"][0] <= row["r_rate"] <= row["r_ci"][1]


def test_rescore_of_a_record_with_an_unknown_task_is_a_data_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    log = tmp_path / "out" / "records.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["task"] = "solve"
    lines[0] = json.dumps(record)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["rescore", "--run", str(tmp_path / "out"), "--dataset",
                 str(FIXTURE_DATASET), "--output", str(tmp_path / "scored.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "('solve', None)" in err and record["triplet_id"] in err


def test_report_on_a_malformed_scored_file_is_a_data_error(tmp_path, capsys):
    row = {"triplet_id": "t01", "task": "solve", "dop": None, "model": "m",
           "template_id": "reasoning@0", "extracted": "1", "success": True,
           "reason": "matched"}
    scored = tmp_path / "bad.jsonl"
    scored.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert main(["report", "--scored", str(scored),
                 "--out-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert "'task'" in err and "line 1" in err


def test_run_on_an_output_dir_in_use_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    with (out / "records.jsonl").open("a") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        assert main(["run", "--config", str(config)]) == 1
    assert str(out) in capsys.readouterr().err
    assert (out / "records.jsonl").read_bytes() == b""
    assert not (out / "config.json").exists()


def test_run_with_a_mistyped_model_field_is_a_usage_error(tmp_path, capsys):
    model = {"name": "fixture-model", "endpoint": f"scripted:{SCRIPTED}", "timeout": "5"}
    config = write_config(tmp_path, model=model)
    assert main(["run", "--config", str(config)]) == 1
    assert "'timeout'" in capsys.readouterr().err


# inspect


def test_inspect_prints_every_applicable_prompt(capsys):
    assert main(["inspect", "--dataset", str(FIXTURE_DATASET), "--id", "t01"]) == 0
    out = capsys.readouterr().out
    assert out.count("===") == 2 * 5  # five sections, fenced twice each
    assert "reasoning|-" in out
    assert "correction|dop_sa" in out
    assert out.count("content hash:") == 5
    # the question appears in every prompt
    assert out.count("14 boxes") >= 5


def test_inspect_unknown_id_is_a_data_error(capsys):
    assert main(["inspect", "--dataset", str(FIXTURE_DATASET), "--id", "zz"]) == 2
    assert "no triplet" in capsys.readouterr().err
