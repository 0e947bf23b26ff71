"""Exit codes, determinism, and artifact formats of the command line."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aesimc import cli
from aesimc.config import RunConfig

PT_HEX = "00112233445566778899aabbccddeeff"
KEY_HEX = "000102030405060708090a0b0c0d0e0f"
CT_HEX = "69c4e0d86a7b0430d8cdb78070b4c55a"


def write(path, text):
    path.write_text(text)
    return str(path)


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- encrypt ------------------------------------------------------------


def test_encrypt_writes_published_vector(tmp_path, capsys):
    pts = write(tmp_path / "pts.txt", PT_HEX + "\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    out = tmp_path / "cts.txt"
    assert cli.main(["encrypt", pts, key, "--out", str(out)]) == 0
    assert out.read_text() == CT_HEX + "\n"
    assert "cycles_per_block=26" in capsys.readouterr().err


def test_encrypt_rejects_malformed_hex_with_line_number(tmp_path, capsys):
    pts = write(tmp_path / "pts.txt", PT_HEX + "\n" + "zz\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    assert cli.main(["encrypt", pts, key]) == cli.EXIT_INPUT
    assert ":2:" in capsys.readouterr().err


def test_encrypt_rejects_non_hex_of_right_length(tmp_path, capsys):
    pts = write(tmp_path / "pts.txt", "g" * 32 + "\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    assert cli.main(["encrypt", pts, key]) == cli.EXIT_INPUT
    assert "invalid hex" in capsys.readouterr().err


# 32 characters, but the two spaces leave 15 bytes
SHORT_HEX = "00 11 2233445566778899aabbccddee"


@pytest.mark.parametrize("pt_lines, key_line, bad", [
    ([SHORT_HEX], KEY_HEX, "pts"),
    ([SHORT_HEX] * 16, KEY_HEX, "pts"),
    ([PT_HEX], SHORT_HEX, "key"),
], ids=["one-plaintext", "sixteen-plaintexts", "key"])
def test_encrypt_rejects_a_line_that_is_not_16_bytes(
        tmp_path, capsys, pt_lines, key_line, bad):
    pts = write(tmp_path / "pts.txt", "".join(line + "\n" for line in pt_lines))
    key = write(tmp_path / "key.txt", key_line + "\n")
    assert len(SHORT_HEX) == 32 and len(bytes.fromhex(SHORT_HEX)) == 15
    assert cli.main(["encrypt", pts, key]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    path = pts if bad == "pts" else key
    assert err == "input error: %s:1: expected 16 bytes, got 15\n" % path


def test_encrypt_empty_input_gives_empty_output(tmp_path):
    pts = write(tmp_path / "pts.txt", "")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    out = tmp_path / "cts.txt"
    assert cli.main(["encrypt", pts, key, "--out", str(out)]) == 0
    assert out.read_text() == ""
    # a trace left by an earlier run does not survive
    tr = write(tmp_path / "trace.jsonl", "stale\n")
    assert cli.main(["encrypt", pts, key, "--out", str(out), "--trace", tr]) == 0
    assert (tmp_path / "trace.jsonl").read_text() == ""


def test_encrypt_requires_exactly_one_key(tmp_path):
    pts = write(tmp_path / "pts.txt", PT_HEX + "\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n" + KEY_HEX + "\n")
    assert cli.main(["encrypt", pts, key]) == cli.EXIT_INPUT


def test_encrypt_is_deterministic(tmp_path):
    pts = write(tmp_path / "pts.txt", (PT_HEX + "\n") * 5)
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    hashes = set()
    for name in ("a", "b"):
        out = tmp_path / (name + ".txt")
        tr = tmp_path / (name + ".jsonl")
        assert cli.main(
            ["encrypt", pts, key, "--out", str(out), "--trace", str(tr)]
        ) == 0
        hashes.add((sha256_file(out), sha256_file(tr)))
    assert len(hashes) == 1


def test_trace_jsonl_schema(tmp_path):
    pts = write(tmp_path / "pts.txt", PT_HEX + "\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    tr = tmp_path / "trace.jsonl"
    assert cli.main(["encrypt", pts, key, "--out", str(tmp_path / "o"),
                     "--trace", str(tr)]) == 0
    lines = tr.read_text().splitlines()
    assert lines
    for line in lines[:50]:
        event = json.loads(line)
        assert set(event) == {
            "cycle", "bank", "lane", "op", "row", "col_mask", "energy_pJ"
        }


def test_fixture_vectors_encrypt_correctly(tmp_path):
    from importlib import resources

    text = (resources.files("aesimc.data") / "fips_vectors.txt").read_text()
    for line in text.splitlines():
        pt_hex, key_hex, ct_hex = line.split()
        pts = write(tmp_path / "pts.txt", pt_hex + "\n")
        key = write(tmp_path / "key.txt", key_hex + "\n")
        out = tmp_path / "ct.txt"
        assert cli.main(["encrypt", pts, key, "--out", str(out)]) == 0
        assert out.read_text().strip() == ct_hex


# -- verify -------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    assert cli.main(["verify", "--blocks", "50", "--seed", "3"]) == 0
    assert "verified blocks=50" in capsys.readouterr().out


def test_verify_output_stable_across_runs_and_banks(capsys):
    def result(banks):
        assert cli.main(
            ["verify", "--blocks", "40", "--seed", "5", "--banks", banks]
        ) == 0
        out = capsys.readouterr().out
        return out.split("result_sha256=")[1].strip()

    assert result("1") == result("1") == result("4")


def wrong_golden(monkeypatch, *plaintexts):
    """Have verify's oracle give a wrong golden ciphertext, each byte
    with its low bit flipped, for the blocks of these plaintexts."""
    real = cli._golden_blocks

    def golden(pts, keys):
        out = real(pts, keys)
        for pt in plaintexts:
            out[(pts == np.frombuffer(pt, dtype=np.uint8)).all(axis=1)] ^= 1
        return out

    monkeypatch.setattr(cli, "_golden_blocks", golden)


def test_verify_reports_mismatch(monkeypatch, capsys):
    # force disagreement to exercise the failure path
    wrong_golden(monkeypatch, bytes(cli._random_blocks(0, 1)[0][0]))
    assert cli.main(["verify", "--blocks", "2"]) == cli.EXIT_MISMATCH
    assert "mismatch at block 0" in capsys.readouterr().out


def test_verify_reports_a_mismatch_in_a_later_chunk(monkeypatch, capsys):
    # blocks 4-7 are the second chunk; block 6 is its third block
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 4)
    pts, keys = cli._random_blocks(3, 10)
    pt, key = bytes(pts[6]), bytes(keys[6])
    ct = cli.gfref.encrypt_block(pt, key)
    wrong = bytes(b ^ 1 for b in ct)
    wrong_golden(monkeypatch, pt)
    assert cli.main(["verify", "--blocks", "10", "--seed", "3"]) == (
        cli.EXIT_MISMATCH)
    assert capsys.readouterr().out == (
        "mismatch at block 6: pt=%s key=%s imc=%s golden=%s\n"
        % (pt.hex(), key.hex(), ct.hex(), wrong.hex()))


def test_verify_reports_the_first_of_two_mismatches_in_a_chunk(
        monkeypatch, capsys):
    # blocks 2 and 5 of the one chunk both disagree: the lower is reported
    pts, keys = cli._random_blocks(3, 10)
    pt, key = bytes(pts[2]), bytes(keys[2])
    ct = cli.gfref.encrypt_block(pt, key)
    wrong = bytes(b ^ 1 for b in ct)
    wrong_golden(monkeypatch, pt, bytes(pts[5]))
    assert cli.main(["verify", "--blocks", "10", "--seed", "3"]) == (
        cli.EXIT_MISMATCH)
    assert capsys.readouterr().out == (
        "mismatch at block 2: pt=%s key=%s imc=%s golden=%s\n"
        % (pt.hex(), key.hex(), ct.hex(), wrong.hex()))


def test_verify_rejects_nonpositive_blocks(capsys):
    assert cli.main(["verify", "--blocks", "0"]) == cli.EXIT_CONFIG


# (blocks, banks) -> (cycles_total, energy_pJ_total, result_sha256) of
# `verify --seed 0`; the larger counts span several chunks of blocks
VERIFY_PINS = {
    (1, 1): ("26", "187905.604720",
             "5796eda4de07d4143139e23e54976b1436a98c280d398eb126ef62d71692ef94"),
    (1000, 4): ("6500", "187905604.719764",
                "a5f0de16e9bf26cc79b5b95babd1434207f21f2bd5cbc0325175def04a9f1bb5"),
    (8193, 3): ("71006", "1539510619.469026",
                "3e66ccf124732e8173fb7b609717c38e2e53f97c04b293d32c2fdb36a7e4a7e5"),
    (20000, 7): ("74308", "3758112094.395280",
                 "216f32aa8d46fcda38cbecda86f1e7432cdb1860709df23fefe8bc7725da365d"),
}


@pytest.mark.parametrize("blocks, banks", VERIFY_PINS)
def test_verify_figures_are_pinned(blocks, banks, capsys):
    assert cli.main(["verify", "--blocks", str(blocks), "--seed", "0",
                     "--banks", str(banks)]) == 0
    fields = dict(f.split("=", 1) for f in capsys.readouterr().out.split()
                  if "=" in f)
    assert (fields["cycles_total"], fields["energy_pJ_total"],
            fields["result_sha256"]) == VERIFY_PINS[blocks, banks]


def test_random_blocks_follow_seeded_generator():
    import random

    pts, keys = cli._random_blocks(42, 2)
    rng = random.Random(42)
    assert bytes(pts[0]) == rng.randbytes(16)
    assert bytes(keys[0]) == rng.randbytes(16)
    # drawn in chunks, as `verify` draws past VERIFY_CHUNK blocks
    rng = random.Random(42)
    chunks = [cli._draw_blocks(rng, n) for n in (1, 3)]
    assert all(np.array_equal(a, b) for a, b in zip(
        cli._random_blocks(42, 4),
        (np.concatenate(parts) for parts in zip(*chunks))))


# -- metrics ------------------------------------------------------------


def test_metrics_writes_comparison_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert cli.main(["metrics", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Thr=536.12" in stdout
    assert "FLAG III/AES-IMC/ E_uJ" in stdout
    header = out.read_text().splitlines()[0]
    assert header == "metric,baseline,baseline_value,aes_imc_value,ratio"


def test_metrics_audit_does_not_move_with_the_config(tmp_path, capsys):
    # the audit recomputes the published rows at their own clocks, so a
    # config changes the AES-IMC row and nothing else
    def audit(argv):
        assert cli.main(["metrics"] + argv) == 0
        return capsys.readouterr().out.splitlines()[2:]

    cfg = write(tmp_path / "run.cfg",
                "freq.f_max_hz=50e6\nmetrics.power_w=0.5\n")
    assert audit(["--config", cfg]) == audit([])


def test_metrics_empty_dataset_gives_zero_rows(tmp_path, capsys):
    empty = write(tmp_path / "empty.csv", "")
    assert cli.main(["metrics", "--baselines", empty]) == 0
    assert "0 comparison rows" in capsys.readouterr().out


def test_metrics_malformed_dataset_exits_3(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "foo,bar\n1,2\n")
    assert cli.main(["metrics", "--baselines", bad]) == cli.EXIT_CONFIG
    assert "malformed" in capsys.readouterr().err


BASELINE_HEADER = (
    "table,work_label,device,state_bits,key_bits,ff,lut,slc,fmax_MHz,L,"
    "thr_Mbps,thr_per_slc,thr_star_Mbps,P_value,P_unit,E_uJ,E_per_bit_nJ,"
    "area_um2,ciphers,dpr_GBps"
)
# a published Table I row, and the cells each malformed case changes
BASELINE_ROW = dict(zip(BASELINE_HEADER.split(","), (
    "I,[47],XC6SLX16-3CSG324,64,128,200,202,58,160.21,55,186.42,3.214,15.78,"
    ",,,,,,").split(",")))
MALFORMED_ROWS = {
    "non-numeric": ({"state_bits": "abc"}, "", ":2: state_bits is not a finite number"),
    "non-finite": ({"fmax_MHz": "inf"}, "", ":2: fmax_MHz is not a finite number"),
    "unit-without-value": ({"table": "II", "P_unit": "mW", "E_uJ": "1.5"}, "",
                           ":2: P_unit without P_value"),
    "unknown-unit": ({"table": "II", "P_value": "98", "P_unit": "kW",
                      "E_uJ": "1.5"}, "", ":2: P_unit must be mW or W"),
    "extra-columns": ({}, ",7", ":2: more cells than header columns"),
    "zero-published": ({"thr_Mbps": "0"}, "", "I/[47]/XC6SLX16-3CSG324: "
                       "published thr_Mbps is 0"),
}


@pytest.mark.parametrize("case", MALFORMED_ROWS)
def test_metrics_malformed_baseline_row_exits_3(tmp_path, capsys, case):
    cells, tail, message = MALFORMED_ROWS[case]
    row = ",".join({**BASELINE_ROW, **cells}.values()) + tail
    bad = write(tmp_path / "bad.csv", BASELINE_HEADER + "\n" + row + "\n")
    assert cli.main(["metrics", "--baselines", bad]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("dataset/config error:")
    assert message in err


# -- config handling ------------------------------------------------------


def test_bad_config_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "no.such.key=1\n")
    pts = write(tmp_path / "pts.txt", PT_HEX + "\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    assert cli.main(["encrypt", pts, key, "--config", cfg]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--blocks", "1", "--config", cfg]) == cli.EXIT_CONFIG


def test_config_hash_appears_in_outputs(tmp_path, capsys):
    from aesimc.config import RunConfig

    expected = RunConfig().config_hash()
    assert cli.main(["verify", "--blocks", "1"]) == 0
    assert "config=%s" % expected in capsys.readouterr().out


# -- sweep --------------------------------------------------------------


def test_sweep_csv_is_deterministic(tmp_path):
    args = ["sweep", "--sbox-units", "1:2", "--m2-units", "1:2",
            "--banks", "1,2", "--blocks", "64"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2


def test_sweep_banks_halve_wall_cycles(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--sbox-units", "2", "--m2-units", "2",
                     "--banks", "1,2", "--blocks", "1000",
                     "--out", str(out)]) == 0
    import csv

    rows = list(csv.DictReader(out.read_text().splitlines()))
    walls = {r["banks"]: int(r["wall_cycles_for_blocks"]) for r in rows}
    assert walls["1"] == 2 * walls["2"]


def test_sweep_rows_carry_their_point_config_hash(tmp_path):
    import csv

    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--sbox-units", "1,3", "--m2-units", "2",
                     "--banks", "1,2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    for row in rows:
        point = RunConfig({
            "parallelism.sbox_units": int(row["sbox_units"]),
            "parallelism.m2_units": int(row["m2_units"]),
            "banks": int(row["banks"]),
        })
        assert row["config_hash"] == point.config_hash()


def test_sweep_figures_are_those_of_a_simulated_block(tmp_path):
    cfg = write(tmp_path / "run.cfg", "cost.sbox_eval.cycles=3\n"
                "schedule.crosslane_extra_cycles_per_byte=2\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    import csv

    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 16
    config = RunConfig.load(cfg)
    for row in rows:
        point = RunConfig({**config.entries,
                           "parallelism.sbox_units": int(row["sbox_units"]),
                           "parallelism.m2_units": int(row["m2_units"])})
        _, cycles, energy = point.pipeline().run_block(
            bytes.fromhex(PT_HEX), bytes.fromhex(KEY_HEX))
        assert int(row["cycles_per_block"]) == cycles == 206
        assert row["energy_per_block_pJ"] == "%.6f" % energy


@pytest.mark.parametrize("bad", ["0:2", "3:1", "x", "", "2,1", "1,1", "2,2"])
def test_sweep_rejects_invalid_ranges(bad, capsys):
    assert cli.main(["sweep", "--sbox-units", bad]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("f_max", ["-1", "0"])
def test_sweep_rejects_a_clock_that_metrics_rejects(tmp_path, capsys, f_max):
    cfg = write(tmp_path / "run.cfg", "freq.f_max_hz=%s\n" % f_max)
    assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dataset/config error: "
                            "f_max_hz must be strictly positive\n")


# -- robustness -----------------------------------------------------------


@pytest.mark.parametrize("line", [
    "parallelism.sbox_units=0",
    "parallelism.m2_units=-1",
    "pipeline.initiation_interval=-2",
    "geometry.cols=3",
    "schedule.crosslane_extra_cycles_per_byte=-1",
])
def test_metrics_rejects_what_verify_rejects(tmp_path, capsys, line):
    cfg = write(tmp_path / "run.cfg", line + "\n")
    empty = write(tmp_path / "empty.txt", "")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    assert cli.main(["verify", "--blocks", "1", "--config", cfg]) == cli.EXIT_CONFIG
    assert cli.main(["metrics", "--config", cfg]) == cli.EXIT_CONFIG
    assert cli.main(["encrypt", empty, key, "--config", cfg]) == cli.EXIT_CONFIG
    assert "Thr=" not in capsys.readouterr().out


def test_metrics_invalid_frequency_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "freq.f_max_hz=-1\n")
    assert cli.main(["metrics", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("dataset/config error:")
    assert "f_max_hz" in err


def test_non_finite_power_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "metrics.power_w=nan\n")
    assert cli.main(["metrics", "--config", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "E=nan" not in captured.out


# an int of 401 digits is finite, but too large for the float that the
# metric formulas and the schedule figures take it as
@pytest.mark.parametrize("key", ["metrics.ciphers", "metrics.slices",
                                 "cost.sbox_eval.cycles"])
def test_a_number_too_large_for_a_float_exits_3(tmp_path, capsys, key):
    cfg = write(tmp_path / "run.cfg", "%s=%s\n" % (key, "1" * 401))
    for argv in (["metrics"], ["sweep", "--sbox-units", "1", "--m2-units", "1"]):
        assert cli.main(argv + ["--config", cfg]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: non-finite value for %s" % key)


def test_non_finite_energy_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "cost.row_read.energy_pj=inf\n")
    assert cli.main(["verify", "--blocks", "1", "--config", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "energy_pJ_total=inf" not in captured.out


# -- file errors ------------------------------------------------------------

NOT_UTF8 = b"\xff\xfe" + PT_HEX.encode() + b"\n"

FILE_ERRORS = {
    "missing-input": (["encrypt", "missing.txt", "key.txt"], cli.EXIT_INPUT),
    "missing-key": (["encrypt", "pts.txt", "missing.txt"], cli.EXIT_INPUT),
    "non-utf8-input": (["encrypt", "bad.txt", "key.txt"], cli.EXIT_INPUT),
    "non-utf8-key": (["encrypt", "pts.txt", "bad.txt"], cli.EXIT_INPUT),
    "encrypt-out": (["encrypt", "pts.txt", "key.txt", "--out", "no/dir"],
                    cli.EXIT_CONFIG),
    "encrypt-trace": (["encrypt", "pts.txt", "key.txt", "--trace", "no/dir"],
                      cli.EXIT_CONFIG),
    "sweep-out": (["sweep", "--sbox-units", "1", "--m2-units", "1",
                   "--out", "no/dir"], cli.EXIT_CONFIG),
    "metrics-out": (["metrics", "--out", "no/dir"], cli.EXIT_CONFIG),
    "missing-config": (["verify", "--blocks", "1", "--config", "missing.cfg"],
                       cli.EXIT_CONFIG),
    "non-utf8-config": (["verify", "--blocks", "1", "--config", "bad.txt"],
                        cli.EXIT_CONFIG),
    "non-utf8-baselines": (["metrics", "--baselines", "bad.txt"],
                           cli.EXIT_CONFIG),
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_errors_exit_with_their_code(tmp_path, monkeypatch, capsys, case):
    argv, code = FILE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "pts.txt", PT_HEX + "\n")
    write(tmp_path / "key.txt", KEY_HEX + "\n")
    (tmp_path / "bad.txt").write_bytes(NOT_UTF8)
    assert cli.main(argv) == code
    prefix = "input error:" if code == cli.EXIT_INPUT else "file error:"
    assert capsys.readouterr().err.splitlines()[-1].startswith(prefix)


# -- exit codes under generated config files ---------------------------------

CONFIG_KEYS = sorted(RunConfig().entries)

config_values = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-1e3, 1e9).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "", "1.5", "0x10", "two"]),
    st.lists(st.integers(-2, 20), max_size=5).map(
        lambda xs: ",".join(map(str, xs))),
    st.text(st.characters(exclude_categories=("Cs", "Cc")), max_size=6),
)
config_lines = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), config_values).map(
        lambda kv: ("%s=%s" % kv).encode()),
    st.sampled_from(["warp.factor=9", "seed=1", "schedule.preset=ref26",
                     "layout.bytes_per_row=2",
                     "schedule.total_cycles_per_block=26",
                     "metrics.block_size_bits=64",
                     "metrics.bytes_per_cipher=16",
                     "freq.f_rf_hz=20e6", "freq.f_uniform_hz=20e6",
                     "geometry.rows=16", "cost.row_read.cycles=1",
                     "cost.offset_write.cycles=1",
                     "layout.data_rows=0,1,2,3", "layout.key_rows=4,5,6,7",
                     "layout.m2_rows=8,9,10,11", "layout.t_row=12",
                     "layout.scratch_rows=13,14",
                     "banks"]).map(str.encode),
    st.binary(max_size=6),
)
ZERO_CYCLES = b"".join(b"cost.%s.cycles=0\n" % kind for kind in (
    b"row_write", b"sa_xor", b"sbox_eval", b"m2_eval", b"buffer_writeback",
)) + b"pipeline.initiation_interval=1\n"


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(config_lines, max_size=4).map(b"\n".join))
@example(NOT_UTF8)
@example(ZERO_CYCLES)
def test_generated_configs_end_in_a_documented_exit_code(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    pts = write(tmp_path / "pts.txt", PT_HEX + "\n")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    for argv in (
        ["verify", "--blocks", "2"],
        ["sweep", "--sbox-units", "1", "--m2-units", "2", "--blocks", "3",
         "--out", str(tmp_path / "sweep.csv")],
        ["metrics", "--out", str(tmp_path / "cmp.csv")],
        ["encrypt", pts, key, "--out", str(tmp_path / "ct.txt")],
    ):
        assert cli.main(argv + ["--config", str(cfg)]) in (0, 2, 3)


# -- a closed stdout ------------------------------------------------------------


class ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["sweep", "--sbox-units", "1", "--m2-units", "1:2"],
    ["verify", "--blocks", "2"],
    ["metrics"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_0_quietly(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


class StdoutClosedAtFlush(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_a_finished_commands_code(monkeypatch, capsys):
    # the mismatch line is written, then the reader is found gone at the
    # last flush: the mismatch is still reported by the exit code
    wrong_golden(monkeypatch, bytes(cli._random_blocks(0, 1)[0][0]))
    monkeypatch.setattr(sys, "stdout", StdoutClosedAtFlush())
    assert cli.main(["verify", "--blocks", "2"]) == cli.EXIT_MISMATCH
    assert capsys.readouterr().err == ""


def _cli_process(argv, stdout, **kwargs):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "aesimc.cli"] + argv,
                            stdout=stdout, stderr=subprocess.PIPE, env=env,
                            **kwargs)


def test_reader_closing_the_pipe_early_exits_0_quietly():
    # about 140 KB of CSV, more than a pipe holds: the writer meets the
    # closed end while it runs
    with _cli_process(["sweep", "--banks", "1:128"], subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"sbox_units,")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == cli.EXIT_OK


def test_output_into_a_closed_pipe_exits_0_quietly():
    # a few lines, still buffered when the command returns: they meet the
    # closed end at the last flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _cli_process(["metrics"], write_end) as proc:
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=120) == cli.EXIT_OK
    finally:
        os.close(write_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("command", ["encrypt", "metrics"])
def test_output_file_into_a_closed_pipe_exits_3(tmp_path, command):
    # a broken pipe on an --out or --trace file is an unwritable output,
    # not a closed stdout: exit 3, and stdout keeps what it was given
    read_end, write_end = os.pipe()
    os.close(read_end)
    target = "/dev/fd/%d" % write_end
    if command == "encrypt":
        pts, key = tmp_path / "pt.txt", tmp_path / "key.txt"
        pts.write_text(PT_HEX + "\n")
        key.write_text(KEY_HEX + "\n")
        argv, printed = ["encrypt", str(pts), str(key), "--trace", target], b""
    else:
        argv, printed = ["metrics", "--out", target], b"# regenerated"
    try:
        with _cli_process(argv, subprocess.PIPE, pass_fds=(write_end,)) as proc:
            out, err = proc.communicate(timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_CONFIG
    assert b"file error: [Errno 32] Broken pipe" in err
    assert out.startswith(printed)
