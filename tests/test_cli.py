"""Exit codes, determinism, and artifact formats of the command line."""

import hashlib
import json

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


def test_encrypt_empty_input_gives_empty_output(tmp_path):
    pts = write(tmp_path / "pts.txt", "")
    key = write(tmp_path / "key.txt", KEY_HEX + "\n")
    out = tmp_path / "cts.txt"
    assert cli.main(["encrypt", pts, key, "--out", str(out)]) == 0
    assert out.read_text() == ""


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


def test_verify_reports_mismatch(monkeypatch, capsys):
    # force disagreement to exercise the failure path
    monkeypatch.setattr(
        cli.gfref, "encrypt_block", lambda pt, key: b"\x00" * 16
    )
    assert cli.main(["verify", "--blocks", "2"]) == cli.EXIT_MISMATCH
    assert "mismatch at block 0" in capsys.readouterr().out


def test_verify_rejects_nonpositive_blocks(capsys):
    assert cli.main(["verify", "--blocks", "0"]) == cli.EXIT_CONFIG


def test_random_blocks_follow_seeded_generator():
    import random

    pts, keys = cli._random_blocks(42, 2)
    rng = random.Random(42)
    assert bytes(pts[0]) == rng.randbytes(16)
    assert bytes(keys[0]) == rng.randbytes(16)


# -- metrics ------------------------------------------------------------


def test_metrics_writes_comparison_csv(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert cli.main(["metrics", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Thr=536.12" in stdout
    assert "FLAG III/AES-IMC/ E_uJ" in stdout
    header = out.read_text().splitlines()[0]
    assert header == "metric,baseline,baseline_value,aes_imc_value,ratio"


def test_metrics_empty_dataset_gives_zero_rows(tmp_path, capsys):
    empty = write(tmp_path / "empty.csv", "")
    assert cli.main(["metrics", "--baselines", empty]) == 0
    assert "0 comparison rows" in capsys.readouterr().out


def test_metrics_malformed_dataset_exits_3(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "foo,bar\n1,2\n")
    assert cli.main(["metrics", "--baselines", bad]) == cli.EXIT_CONFIG
    assert "malformed" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", ["0:2", "3:1", "x", "", "2,1"])
def test_sweep_rejects_invalid_ranges(bad, capsys):
    assert cli.main(["sweep", "--sbox-units", bad]) == cli.EXIT_CONFIG


# -- robustness -----------------------------------------------------------


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


def test_non_finite_energy_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "cost.row_read.energy_pj=inf\n")
    assert cli.main(["verify", "--blocks", "1", "--config", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "energy_pJ_total=inf" not in captured.out


@pytest.mark.parametrize("bytes_per_row", [1, 4])
def test_unsupported_bytes_per_row_exits_3(tmp_path, capsys, bytes_per_row):
    cfg = write(tmp_path / "run.cfg", "layout.bytes_per_row=%d\n" % bytes_per_row)
    assert cli.main(["verify", "--blocks", "1", "--config", cfg]) == cli.EXIT_CONFIG
    assert "bytes_per_row" in capsys.readouterr().err


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
                     "layout.bytes_per_row=2", "banks"]).map(str.encode),
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
