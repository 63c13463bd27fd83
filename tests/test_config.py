"""Config loading and the metrics CSV."""

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
