"""The one strict codec behind every file the harness reads or writes."""

from __future__ import annotations

import json

import pytest

from mwpeval import (
    ConfigurationError,
    DataError,
    DopLevel,
    ExperimentConfig,
    ModelSpec,
    Outcome,
    RunRecord,
    TaskKind,
    Triplet,
    score,
)

from conftest import make_triplet


def triplet_payload() -> dict:
    return json.loads(make_triplet().to_json_line())


def record_payload() -> dict:
    return dict(
        run_id="r1",
        triplet_id="x01",
        model="m",
        task="reasoning",
        dop=None,
        template_id="reasoning@deadbeef",
        content_hash="c" * 64,
        prompt_text="...",
        response_text="#### 24",
        error=None,
        attempts=1,
        latency_ms=3.5,
        created_at="2024-01-01T00:00:00Z",
    )


def outcome_payload() -> dict:
    outcome = score(make_triplet(), "Final answer: 24", TaskKind.CORRECTION, DopLevel.SP)
    return json.loads(json.dumps(outcome.to_dict()))


def model_payload() -> dict:
    return {"name": "m", "endpoint": "scripted:responses.jsonl"}


def config_payload() -> dict:
    return {"dataset": "d.jsonl", "model": model_payload(), "output_dir": "out"}


# name -> (loader taking a decoded payload, valid payload, error class,
#          a wrong-typed field, an unknown enum value or None)
LOADERS = {
    "triplet": (
        lambda p: Triplet.from_json_line(json.dumps(p), 7),
        triplet_payload,
        DataError,
        ("question", 5),
        None,
    ),
    "run record": (
        lambda p: RunRecord.from_json_line(json.dumps(p), 7),
        record_payload,
        DataError,
        ("attempts", "1"),
        None,
    ),
    "scored outcome": (
        lambda p: Outcome.from_dict(p, 7),
        outcome_payload,
        DataError,
        ("success", "false"),
        ("task", "solve"),
    ),
    "config": (
        ExperimentConfig.from_dict,
        config_payload,
        ConfigurationError,
        ("concurrency", "2"),
        ("modes", ["sp", "dop_xx"]),
    ),
    "model config": (
        ModelSpec.from_dict,
        model_payload,
        ConfigurationError,
        ("timeout", "5"),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_payload_loads(name):
    loader, valid, _, _, _ = LOADERS[name]
    assert loader(valid()) is not None


@pytest.mark.parametrize("value", [5, None, [1, 2], "text"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_non_object_is_rejected(name, value):
    loader, _, error, _, _ = LOADERS[name]
    with pytest.raises(error, match="not a JSON object"):
        loader(value)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_wrong_typed_field_is_rejected(name):
    loader, valid, error, (key, bad), _ = LOADERS[name]
    payload = {**valid(), key: bad}
    with pytest.raises(error, match=repr(key)) as info:
        loader(payload)
    if error is DataError:
        assert "line 7" in str(info.value)


@pytest.mark.parametrize(
    "name", sorted(name for name, spec in LOADERS.items() if spec[4] is not None)
)
def test_unknown_enum_value_is_rejected(name):
    loader, valid, error, _, (key, bad) = LOADERS[name]
    with pytest.raises(error, match=repr(key)):
        loader({**valid(), key: bad})


def test_success_string_is_not_a_boolean():
    payload = {**outcome_payload(), "success": "false"}
    with pytest.raises(DataError, match="'success' must be a boolean"):
        Outcome.from_dict(payload)


def test_bool_is_not_a_number():
    with pytest.raises(ConfigurationError, match="'timeout'"):
        ModelSpec.from_dict({**model_payload(), "timeout": True})
    with pytest.raises(DataError, match="'attempts'"):
        RunRecord.from_json_line(json.dumps({**record_payload(), "attempts": True}))


def test_int_for_float_is_kept_as_given():
    spec = ModelSpec.from_dict({**model_payload(), "timeout": 30})
    assert json.dumps(spec.to_dict()["timeout"]) == "30"


def test_configs_take_defaults_but_data_files_do_not():
    assert ModelSpec.from_dict(model_payload()).timeout == 120.0
    payload = triplet_payload()
    del payload["meta"]
    with pytest.raises(DataError, match="missing required keys"):
        Triplet.from_json_line(json.dumps(payload))


def test_nested_config_round_trips_and_names_its_part():
    config = ExperimentConfig.from_dict(
        {**config_payload(), "tasks": ["correction"], "modes": ["dop_na", "sp"]}
    )
    assert config.tasks == (TaskKind.CORRECTION,)
    assert config.modes == (DopLevel.NA, DopLevel.SP)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    bad = {**config_payload(), "model": {**model_payload(), "retry": {"max_attempts": 2.5}}}
    with pytest.raises(ConfigurationError, match="bad config: bad model: retry: 'max_attempts'"):
        ExperimentConfig.from_dict(bad)
