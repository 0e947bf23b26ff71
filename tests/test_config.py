"""Configuration loading, validation, hashing, and component builders."""

import pytest

from aesimc import cli
from aesimc.config import RunConfig
from aesimc.crossbar import ConfigError
from aesimc.pipeline import BankFarm, Pipeline
from aesimc.sequencer import LaneLayout, ParallelismConfig


def test_defaults_build_a_working_pipeline():
    config = RunConfig()
    assert config["geometry.rows"] == 16
    assert config["banks"] == 1
    pipe = config.pipeline()
    assert isinstance(pipe, Pipeline)
    assert pipe.schedule.total_cycles_per_block == 26
    assert isinstance(config.bank_farm(banks=2), BankFarm)


def test_default_config_builds_the_default_model():
    config = RunConfig()
    assert config.layout() == LaneLayout()
    assert config.parallelism() == ParallelismConfig()


@pytest.mark.parametrize("key, value", [
    ("layout.t_row", 99),
    ("geometry.rows", 8),
    ("layout.scratch_rows", (13, 14, 15)),
])
def test_builders_reject_an_invalid_model(key, value):
    config = RunConfig({key: value})
    with pytest.raises(ConfigError):
        config.pipeline()
    with pytest.raises(ConfigError):
        config.bank_farm()


def test_unknown_key_rejected_with_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("banks=2\nwarp.factor=9\n")
    with pytest.raises(ConfigError, match=r":2: unknown config key"):
        RunConfig.load(str(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("banks\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        RunConfig.load(str(path))


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("banks=two\n")
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig.load(str(path))


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nbanks=4\n")
    assert RunConfig.load(str(path))["banks"] == 4


def test_hash_stable_under_key_reordering(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("banks=2\nparallelism.m2_units=3\nparallelism.sbox_units=4\n")
    b.write_text("parallelism.sbox_units=4\nparallelism.m2_units=3\nbanks=2\n")
    assert RunConfig.load(str(a)).config_hash() == RunConfig.load(str(b)).config_hash()


def test_hash_changes_when_a_knob_changes():
    assert RunConfig().config_hash() != RunConfig({"banks": 2}).config_hash()


def test_declared_total_checked_against_stage_sum(tmp_path, capsys):
    # the total is always the stage sum, so declaring it is not a knob
    for total in (26, 25):
        path = tmp_path / "run.cfg"
        path.write_text("schedule.total_cycles_per_block=%d\n" % total)
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.load(str(path))
        argv = ["verify", "--blocks", "1", "--config", str(path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["freq.f_rf_hz=20e6", "freq.f_uniform_hz=20e6"])
def test_table_clocks_are_not_keys(tmp_path, capsys, line):
    # Thr*, E and DPR are defined at the published tables' clocks
    assert len(RunConfig().entries) == 30
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=":1: unknown config key"):
        RunConfig.load(str(path))
    assert cli.main(["metrics", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_unknown_schedule_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        RunConfig({"schedule.preset": "slow13"})


def test_cost_overrides_flow_into_schedule(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "cost.sbox_eval.cycles=2\ncost.m2_eval.cycles=2\n"
        "cost.sa_xor.cycles=2\ncost.row_write.cycles=2\n"
        "cost.buffer_writeback.cycles=2\ncost.row_read.cycles=2\n"
        "cost.offset_write.cycles=2\n"
    )
    config = RunConfig.load(str(path))
    assert config.pipeline().schedule.total_cycles_per_block == 52


def test_layout_list_values_parse(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("layout.data_rows=1,2,3,4\nlayout.key_rows=5,6,7,8\n"
                    "layout.m2_rows=9,10,11,12\nlayout.t_row=0\n"
                    "layout.scratch_rows=13,14\n")
    config = RunConfig.load(str(path))
    assert config.layout().data_rows == (1, 2, 3, 4)
    # the layout still drives a correct encryption
    ct, _, _ = config.pipeline().run_block(
        bytes.fromhex("00112233445566778899aabbccddeeff"),
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
    )
    assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_canonical_form_round_trips(tmp_path):
    config = RunConfig({"banks": 3})
    path = tmp_path / "canon.cfg"
    path.write_text(config.canonical())
    assert RunConfig.load(str(path)).config_hash() == config.config_hash()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_floats_rejected(tmp_path, raw):
    path = tmp_path / "run.cfg"
    path.write_text("metrics.power_w=%s\n" % raw)
    with pytest.raises(ConfigError, match="non-finite"):
        RunConfig.load(str(path))
    with pytest.raises(ConfigError, match="non-finite"):
        RunConfig({"cost.row_read.energy_pj": float(raw)})
