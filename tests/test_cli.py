"""Command line behavior: exit codes, output files, error channels."""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import shutil
from pathlib import Path

import pytest

import mwpeval
import mwpeval.prompting
import mwpeval.runner
from mwpeval import Triplet
from mwpeval.cli import main

from conftest import DATA_DIR, fixture_without_explanation

FIXTURE_DATASET = DATA_DIR / "fixture_triplets.jsonl"
SCRIPTED = DATA_DIR / "scripted_responses.jsonl"
MATHDIAL = DATA_DIR / "mathdial_sample.jsonl"
GSM8K = DATA_DIR / "gsm8k_sample.jsonl"
GOLDEN_INGEST = DATA_DIR / "golden_ingest"
PUBLISHED = Path(mwpeval.__file__).with_name("data") / "published_results.json"


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


def test_ingest_mathdial_matches_the_golden_files(tmp_path, capsys):
    output = tmp_path / "triplets.jsonl"
    rejects = Path(str(output) + ".rejects.json")
    assert main(["ingest", "--source", "mathdial", "--input", str(MATHDIAL),
                 "--output", str(output)]) == 0
    # the manifest sidecar is left out: it carries created_at
    assert output.read_bytes() == (GOLDEN_INGEST / "mathdial_triplets.jsonl").read_bytes()
    assert rejects.read_bytes() == (GOLDEN_INGEST / "mathdial_rejects.json").read_bytes()
    digest = hashlib.sha256(output.read_bytes()).hexdigest()
    assert capsys.readouterr().out == (
        f"ingested 5 triplets from {MATHDIAL} (2 rejected); digest {digest}\n"
        f"wrote {output} and {rejects}\n"
    )


def test_ingest_gsm8k_sample_keeps_the_golden_rows(tmp_path):
    output = tmp_path / "triplets.jsonl"
    assert main(["ingest", "--source", "gsm8k", "--input", str(GSM8K),
                 "--output", str(output)]) == 0
    assert output.read_bytes() == (GOLDEN_INGEST / "gsm8k_triplets.jsonl").read_bytes()
    rejects = json.loads(Path(str(output) + ".rejects.json").read_text())
    assert (rejects["kept"], rejects["rejected"]) == (6, 5)
    assert [(r["index"], r["record_id"]) for r in rejects["rejections"]] == [
        (2, None), (3, "gs-04"), (5, "gs-06"), (6, None), (8, "gs-08")
    ]
    reasons = {r["index"]: r["reason"] for r in rejects["rejections"]}
    assert reasons[2] == "record is not a JSON object"
    assert reasons[3] == "missing or blank source fields: question ('question')"
    assert reasons[5] == "missing or blank source fields: reference_solution ('answer')"
    assert reasons[6].startswith("invalid JSON: ")
    assert reasons[8] == "no numeric answer in reference_solution"


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


@pytest.mark.parametrize("value", ['["a"]', '{"a": 1}', "3", "true"])
def test_ingest_refuses_a_field_map_value_that_is_not_a_name(tmp_path, capsys, value):
    output = tmp_path / "x.jsonl"
    assert main(["ingest", "--source", "mathdial", "--input", str(MATHDIAL),
                 "--output", str(output), "--field-map", f'{{"question": {value}}}']) == 1
    err = capsys.readouterr().err
    assert "--field-map value for 'question' must be a source field name or null" in err
    assert "Traceback" not in err
    assert not output.exists()


@pytest.mark.parametrize(
    "source, input_path",
    [("gsm8k", GSM8K), ("triplets", FIXTURE_DATASET)],
    ids=["gsm8k", "triplets"],
)
def test_ingest_refuses_a_field_map_outside_mathdial(tmp_path, capsys, source, input_path):
    output = tmp_path / "x.jsonl"
    assert main(["ingest", "--source", source, "--input", str(input_path),
                 "--output", str(output), "--field-map", '{"question": "nope"}']) == 1
    assert "--field-map applies to --source mathdial only" in capsys.readouterr().err
    assert not output.exists()


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


@pytest.mark.parametrize(
    "task,dop,message",
    [
        ("correction", None, "the correction task needs a mode"),
        ("reasoning", "sp", "the reasoning task takes no correction mode"),
    ],
)
def test_report_on_a_scored_line_whose_task_and_dop_disagree(
    tmp_path, capsys, task, dop, message
):
    rows = [
        {"triplet_id": "t01", "task": "reasoning", "dop": None, "model": "m",
         "template_id": "reasoning@0", "extracted": "1", "success": True,
         "reason": "matched"},
        {"triplet_id": "t01", "task": task, "dop": dop, "model": "m",
         "template_id": "correction_sp@0", "extracted": "1", "success": True,
         "reason": "matched"},
    ]
    scored = tmp_path / "bad.jsonl"
    scored.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert main(["report", "--scored", str(scored),
                 "--out-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert f"{scored} line 2: scored outcome: " in err and message in err
    assert not (tmp_path / "report").exists()


def test_report_on_a_repeated_scored_line_is_a_data_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    scored = tmp_path / "scored.jsonl"
    assert main(["rescore", "--run", str(tmp_path / "out"), "--dataset",
                 str(FIXTURE_DATASET), "--output", str(scored)]) == 0
    lines = scored.read_text(encoding="utf-8").splitlines(keepends=True)
    scored.write_text("".join(lines + lines[-1:]), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--scored", str(scored),
                 "--out-dir", str(tmp_path / "report")]) == 2
    last = json.loads(lines[-1])
    err = capsys.readouterr().err
    assert "duplicate" in err and last["triplet_id"] in err
    assert f"lines {len(lines)} and {len(lines) + 1}" in err
    assert not (tmp_path / "report").exists()


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


def test_run_refuses_a_render_change_that_kept_the_renderer_version(
    tmp_path, capsys, monkeypatch
):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    records = (tmp_path / "out" / "records.jsonl").read_bytes()
    render = mwpeval.runner.render

    def one_character_off(triplet, mode, params, registry):
        cell = render(triplet, mode, params, registry)
        text = cell.text[:-1] + "?"
        content_hash = mwpeval.prompting.compute_content_hash(cell.template_id, text, params)
        return dataclasses.replace(cell, text=text, content_hash=content_hash)

    monkeypatch.setattr(mwpeval.runner, "render", one_character_off)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    first = json.loads(records.splitlines()[0])
    assert f"cell {first['triplet_id']}/reasoning|- (content hash {first['content_hash']})" in err
    assert "fresh output_dir" in err
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == records


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


def test_inspect_a_reasoning_only_triplet_prints_its_reasoning_prompt_alone(tmp_path, capsys):
    dataset = tmp_path / "gsm8k.jsonl"
    assert main(["ingest", "--source", "gsm8k", "--input", str(GSM8K),
                 "--output", str(dataset)]) == 0
    capsys.readouterr()
    assert main(["inspect", "--dataset", str(dataset), "--id", "gs-01"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(
        "note: gs-01 is reasoning-only; correction modes do not apply\n\n"
        "=== reasoning|- ===\n"
    )
    assert out.count("===") == 2
    assert "correction|" not in out
    assert "12 loaves a day" in out


def test_inspect_a_triplet_without_a_brief_explanation_skips_dop_be(tmp_path, capsys):
    dataset_path, _ = fixture_without_explanation(tmp_path, "t05")
    assert main(["inspect", "--dataset", str(dataset_path), "--id", "t05"]) == 0
    out = capsys.readouterr().out
    assert "=== correction|dop_be ===\n(skipped: no brief explanation)\n\n" in out
    assert out.count("===") == 2 * 5
    assert out.count("content hash:") == 4
    assert "correction|dop_sa" in out


# inputs that are not UTF-8, missing or not files


def spoil(path: Path, line: int) -> Path:
    """Put one byte that is not UTF-8 after the first quote of a line."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"\n".join(lines))
    return path


def copied(source: Path, tmp_path: Path) -> Path:
    return Path(shutil.copy(source, tmp_path / source.name))


def fixture_run(tmp_path: Path) -> Path:
    """The run dir of a complete sp run over the fixture dataset."""
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    return tmp_path / "out"


def spoiled_dataset(tmp_path):
    path = spoil(copied(FIXTURE_DATASET, tmp_path), 3)
    return ["inspect", "--dataset", str(path), "--id", "t01"], path, 2, 3


def spoiled_sidecar(tmp_path):
    dataset = copied(FIXTURE_DATASET, tmp_path)
    sidecar = Path(str(dataset) + ".manifest.json")
    sidecar.write_text(json.dumps({"source": "fixture"}, indent=2), encoding="utf-8")
    return ["inspect", "--dataset", str(dataset), "--id", "t01"], spoil(sidecar, 2), 2, None


def spoiled_records(tmp_path):
    log = spoil(fixture_run(tmp_path) / "records.jsonl", 2)
    argv = ["rescore", "--run", str(log.parent), "--dataset", str(FIXTURE_DATASET),
            "--output", str(tmp_path / "scored.jsonl")]
    return argv, log, 2, 2


def spoiled_run_config(tmp_path):
    identity = spoil(fixture_run(tmp_path) / "config.json", 2)
    return ["run", "--config", str(tmp_path / "config.json")], identity, 2, None


def spoiled_scored(tmp_path):
    scored = tmp_path / "scored.jsonl"
    assert main(["rescore", "--run", str(fixture_run(tmp_path)), "--dataset",
                 str(FIXTURE_DATASET), "--output", str(scored)]) == 0
    argv = ["report", "--scored", str(spoil(scored, 2)), "--out-dir", str(tmp_path / "r")]
    return argv, scored, 2, 2


def spoiled_scripted(tmp_path):
    path = spoil(copied(SCRIPTED, tmp_path), 5)
    config = write_config(tmp_path, model={"name": "m", "endpoint": f"scripted:{path}"})
    return ["run", "--config", str(config)], path, 2, 5


def spoiled_config(tmp_path):
    path = spoil(write_config(tmp_path), 1)
    return ["run", "--config", str(path)], path, 1, None


def spoiled_published(tmp_path):
    path = spoil(copied(PUBLISHED, tmp_path), 2)
    return ["verify-paper", "--fixture", str(path)], path, 2, None


def spoiled_field_map(tmp_path):
    path = tmp_path / "field_map.json"
    path.write_text(json.dumps({"id": "qid"}), encoding="utf-8")
    argv = ["ingest", "--source", "mathdial", "--input", str(MATHDIAL), "--output",
            str(tmp_path / "x.jsonl"), "--field-map", f"@{spoil(path, 1)}"]
    return argv, path, 1, None


def dataset_is_a_dir(tmp_path):
    return ["inspect", "--dataset", str(tmp_path), "--id", "t01"], tmp_path, 2, None


def scored_is_a_dir(tmp_path):
    return ["report", "--scored", str(tmp_path), "--out-dir", str(tmp_path / "r")], tmp_path, 2, None


def config_is_a_dir(tmp_path):
    return ["run", "--config", str(tmp_path)], tmp_path, 1, None


def field_map_is_missing(tmp_path):
    path = tmp_path / "absent.json"
    argv = ["ingest", "--source", "mathdial", "--input", str(MATHDIAL), "--output",
            str(tmp_path / "x.jsonl"), "--field-map", f"@{path}"]
    return argv, path, 1, None


@pytest.mark.parametrize(
    "case",
    [
        spoiled_dataset,
        spoiled_sidecar,
        spoiled_records,
        spoiled_run_config,
        spoiled_scored,
        spoiled_scripted,
        spoiled_config,
        spoiled_published,
        spoiled_field_map,
        dataset_is_a_dir,
        scored_is_a_dir,
        config_is_a_dir,
        field_map_is_missing,
    ],
    ids=lambda case: case.__name__,
)
def test_an_unreadable_input_exits_with_its_code_naming_the_file(tmp_path, capsys, case):
    argv, path, code, line = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert str(path) in err
    if line is not None:
        assert f"line {line}" in err
    if path.name == "absent.json":
        assert "not found" in err


def test_ingest_rejects_a_line_that_is_not_utf8_and_keeps_the_rest(tmp_path):
    source = spoil(copied(MATHDIAL, tmp_path), 1)
    output = tmp_path / "out.jsonl"
    assert main(["ingest", "--source", "mathdial", "--input", str(source),
                 "--output", str(output)]) == 0
    rejects = json.loads(Path(str(output) + ".rejects.json").read_text())
    assert rejects["kept"] == 4
    assert [r["index"] for r in rejects["rejections"]] == [0, 5, 6]
    assert rejects["rejections"][0]["reason"].startswith("invalid JSON")
