"""Config loading and the metrics CSV."""

import numpy as np
import pytest

from prismlab.config import (CSV_HEADER, MetricRecord, RunConfig, load_config,
                             read_metrics, save_config, write_metrics)
from prismlab.errors import ConfigError


def _write(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return path


def test_empty_file_gives_defaults(tmp_path):
    assert load_config(_write(tmp_path, "  \n")) == RunConfig()


def test_save_load_round_trip(tmp_path):
    cfg = RunConfig(model="la", d=8, seeds=[4, 5], lr=3e-4)
    save_config(cfg, tmp_path / "cfg.json")
    assert load_config(tmp_path / "cfg.json") == cfg


def test_numpy_scalar_fields_round_trip_as_python_numbers(tmp_path):
    # save_config raised a bare TypeError: int64 is not JSON serializable.
    cfg = RunConfig(d=np.int64(8), l=np.int32(1), v=np.int64(32), n=np.int64(24),
                    steps=np.int64(0), batch=np.int16(2), lr=np.float32(1e-3))
    assert all(type(getattr(cfg, f)) is int for f in ("d", "l", "v", "n", "steps", "batch"))
    assert type(cfg.lr) is float and cfg.lr == float(np.float32(1e-3))
    save_config(cfg, tmp_path / "cfg.json")
    assert load_config(tmp_path / "cfg.json") == cfg


@pytest.mark.parametrize("name, low", [("d", 1), ("batch", 1), ("steps", 0)])
def test_int_field_below_its_floor_is_named(name, low):
    with pytest.raises(ConfigError, match=f"config field '{name}' must be >= {low}, got -1"):
        RunConfig(**{name: -1})


def test_unknown_keys_are_named(tmp_path):
    path = _write(tmp_path, '{"model": "la", "zeta": 1, "bogus": 2}')
    with pytest.raises(ConfigError, match="unknown config key.*bogus, zeta"):
        load_config(path)


def test_parse_error_gives_line_and_column(tmp_path):
    path = _write(tmp_path, '{\n  "d": 8,\n  "n": }\n')
    with pytest.raises(ConfigError, match="line 3, column 8"):
        load_config(path)


def test_top_level_must_be_object(tmp_path):
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_config(_write(tmp_path, "[1, 2]"))


@pytest.mark.parametrize("text, name", [
    ('{"seeds": 3}', "seeds"),
    ('{"d": "16"}', "d"),
    ('{"lr": "x"}', "lr"),
    ('{"steps": null}', "steps"),
    ('{"seeds": ["a"]}', "seeds"),
    ('{"d": true}', "d"),
])
def test_wrongly_typed_value_names_field(tmp_path, text, name):
    with pytest.raises(ConfigError, match=f"config field '{name}'"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("text", ['{"lr": NaN}', '{"lr": Infinity}'])
def test_non_finite_lr_is_refused(tmp_path, text):
    with pytest.raises(ConfigError, match="config field 'lr' must be positive and finite"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("text", ['{"seeds": [-1]}', '{"seeds": [1, 2, -3]}'])
def test_negative_seeds_are_refused(tmp_path, text):
    with pytest.raises(ConfigError, match="config field 'seeds' must be .*non-negative"):
        load_config(_write(tmp_path, text))


def _record(step, loss):
    return MetricRecord(run_id="la-mqar-s1", model="la", task="mqar", seed=1,
                        step=step, loss=loss, accuracy=0.25, tokens_per_s=1234.5)


def test_metrics_round_trip_header_written_once(tmp_path):
    path = tmp_path / "metrics.csv"
    first, second = _record(10, 1.5), _record(20, 0.125)
    write_metrics([first], path)
    write_metrics([second], path)
    assert read_metrics(path) == [first, second]
    assert path.read_text().count(",".join(CSV_HEADER)) == 1


def test_metrics_row_text_is_pinned():
    # The round trip alone would pass a writer and parser wrong the same way.
    rec = MetricRecord(run_id="la-mqar-s1", model="la", task="mqar", seed=1, step=10,
                       loss=1 / 3, accuracy=0.25, tokens_per_s=1234567.0)
    assert CSV_HEADER == ("run_id", "model", "task", "seed", "step", "loss",
                          "accuracy", "tokens_per_s")
    assert rec.to_row() == "la-mqar-s1,la,mqar,1,10,0.333333,0.25,1.23457e+06"


@pytest.mark.parametrize("row", ["a,b,c,x,1,1.0,0.5,3", "a,b,c,1,1,nan?,0.5,3",
                                 "a,b,c,1,1,1.0,0.5,fast"])
def test_metrics_row_that_does_not_parse_raises_config_error(row):
    with pytest.raises(ConfigError, match="bad metrics row") as exc:
        MetricRecord.from_row(row)
    assert row in str(exc.value)
