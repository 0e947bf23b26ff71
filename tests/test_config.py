"""Configuration loading, validation, hashing, and component builders."""

import contextlib
import io
import re

import pytest

from aesimc import cli
from aesimc.config import RunConfig
from aesimc.crossbar import ConfigError
from aesimc.pipeline import BankFarm, Pipeline
from aesimc.sequencer import ParallelismConfig


def test_defaults_build_a_working_pipeline():
    config = RunConfig()
    assert config["banks"] == 1
    pipe = config.pipeline()
    assert isinstance(pipe, Pipeline)
    # the rows of the lane row map: 0..14
    assert pipe.program.rows == 15
    assert pipe.schedule.total_cycles_per_block == 26
    assert isinstance(config.bank_farm(banks=2), BankFarm)


def test_default_config_builds_the_default_model():
    config = RunConfig()
    assert config.parallelism() == ParallelismConfig()


@pytest.mark.parametrize("key, value", [
    ("geometry.cols", 3),
    ("schedule.crosslane_extra_cycles_per_byte", -1),
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
    assert len(RunConfig().entries) == 22
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=":1: unknown config key"):
        RunConfig.load(str(path))
    assert cli.main(["metrics", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "geometry.rows=16", "cost.row_read.cycles=2", "cost.offset_write.cycles=2",
    "layout.data_rows=0,1,2,3", "layout.key_rows=4,5,6,7",
    "layout.m2_rows=8,9,10,11", "layout.t_row=12", "layout.scratch_rows=13,14",
    "layout.bytes_per_row=1", "layout.bytes_per_row=4",
])
def test_knobs_that_change_no_result_are_not_keys(tmp_path, capsys, line):
    # the lane's rows and their map are fixed: another map only relabels
    # the trace's rows, and a row holds two bytes; no stage's budget reads
    # the latency of a ROW_READ or an OFFSET_WRITE
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=":1: unknown config key"):
        RunConfig.load(str(path))
    pts = tmp_path / "pts.txt"
    pts.write_text("00112233445566778899aabbccddeeff\n")
    for argv in (["verify", "--blocks", "1"], ["metrics"], ["sweep"],
                 ["encrypt", str(pts), str(pts)]):
        assert cli.main(argv + ["--config", str(path)]) == cli.EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err


def test_unknown_schedule_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        RunConfig({"schedule.preset": "slow13"})


def test_cost_overrides_flow_into_schedule(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "cost.sbox_eval.cycles=2\ncost.m2_eval.cycles=2\n"
        "cost.sa_xor.cycles=2\ncost.row_write.cycles=2\n"
        "cost.buffer_writeback.cycles=2\n"
    )
    config = RunConfig.load(str(path))
    assert config.pipeline().schedule.total_cycles_per_block == 52


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


# -- every key can change a result ----------------------------------------

# One accepted value other than the default for every key. Each must
# change some output of verify, encrypt --trace, sweep or metrics.
NON_DEFAULT_VALUES = {
    "banks": 2,
    "pipeline.initiation_interval": 1,
    "schedule.crosslane_extra_cycles_per_byte": 1,
    "freq.f_max_hz": 100e6,
    "metrics.slices": 500,
    "metrics.power_w": 0.1,
    "metrics.ciphers": 20000,
    "parallelism.sbox_units": 1,
    "parallelism.m2_units": 1,
    "cost.row_write.cycles": 2,
    "cost.sa_xor.cycles": 2,
    "cost.sbox_eval.cycles": 2,
    "cost.m2_eval.cycles": 2,
    "cost.buffer_writeback.cycles": 2,
    "cost.row_read.energy_pj": 1.0,
    "cost.row_write.energy_pj": 1.0,
    "cost.sa_xor.energy_pj": 1.0,
    "cost.sbox_eval.energy_pj": 1.0,
    "cost.m2_eval.energy_pj": 1.0,
    "cost.offset_write.energy_pj": 1.0,
    "cost.buffer_writeback.energy_pj": 1.0,
}
# The one exception. geometry.cols changes no result either, but the
# benchmark's sweep workload (perfbench/workloads.py) sets it to get a
# fresh program per request; it goes when that workload stops.
EXEMPT_KEYS = {"geometry.cols"}

# a config hash: the outputs are compared without them
CONFIG_HASH = re.compile(r"\b[0-9a-f]{16}\b")


def _outputs(directory, overrides):
    """stdout and stderr of verify, encrypt --trace, a one-point sweep and
    metrics, and the trace, under the config of overrides; every command
    must succeed."""
    directory.mkdir()
    cfg = directory / "run.cfg"
    cfg.write_text(RunConfig(overrides).canonical())
    pts = directory / "pts.txt"
    pts.write_text("00112233445566778899aabbccddeeff\n")
    key = directory / "key.txt"
    key.write_text("000102030405060708090a0b0c0d0e0f\n")
    trace = directory / "trace.jsonl"
    outputs = []
    for argv in (
        ["verify", "--blocks", "3"],
        ["encrypt", str(pts), str(key), "--trace", str(trace)],
        ["sweep", "--sbox-units", "2", "--m2-units", "2", "--blocks", "3"],
        ["metrics"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--config", str(cfg)])
        assert code == cli.EXIT_OK, (argv, err.getvalue())
        outputs += [out.getvalue(), err.getvalue()]
    outputs.append(trace.read_text())
    return [CONFIG_HASH.sub("<hash>", text) for text in outputs]


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("default") / "run", {})


def test_the_table_names_every_key_but_the_exempt_one():
    assert set(NON_DEFAULT_VALUES) == set(RunConfig().entries) - EXEMPT_KEYS
    defaults = RunConfig().entries
    assert all(defaults[k] != v for k, v in NON_DEFAULT_VALUES.items())


@pytest.mark.parametrize("key", sorted(NON_DEFAULT_VALUES))
def test_every_key_changes_a_result(tmp_path, default_outputs, key):
    outputs = _outputs(tmp_path / "run", {key: NON_DEFAULT_VALUES[key]})
    assert outputs != default_outputs
