"""Metric formulas, the bundled baseline dataset, and the table audit."""

import pytest

from aesimc.config import RunConfig
from aesimc.metrics import (
    MetricsError,
    UnknownBaseline,
    aes_imc_row,
    audit_baselines,
    compare_against_baselines,
    data_processing_rate,
    dpr_ratio,
    energy_per_bit,
    energy_per_block,
    load_baselines,
    throughput,
    throughput_per_slice,
    throughput_star,
)


# the default config's inputs of the AES-IMC row
ROW_INPUTS = {"f_max_hz": 108.9e6, "latency_cycles": 26, "slices": 468,
              "power_W": 0.098, "ciphers": 24096}


def test_config_builds_the_row_of_its_inputs():
    assert RunConfig().aes_imc_row() == aes_imc_row(**ROW_INPUTS)


# -- formula values -----------------------------------------------------


def test_throughput_row_values():
    row = RunConfig().aes_imc_row()
    assert row["thr_Mbps"] == pytest.approx(536.12, rel=1e-3)
    assert row["thr_star_Mbps"] == pytest.approx(66.76, rel=1e-3)
    assert row["thr_per_slc"] == pytest.approx(1.144, rel=5e-3)


def test_energy_row_values():
    row = RunConfig().aes_imc_row()
    assert row["E_uJ"] == pytest.approx(0.18, rel=0.05)
    assert row["E_per_bit_nJ"] == pytest.approx(1.406, rel=0.05)


def test_dpr_row_value():
    assert RunConfig().aes_imc_row()["dpr_GBps"] == pytest.approx(445, rel=0.01)


def test_row_has_the_columns_of_the_published_aes_imc_rows():
    published = set()
    for r in load_baselines():
        if r.work_label == "AES-IMC":
            published.update(r.fields)
    assert set(aes_imc_row(**ROW_INPUTS)) <= published


def test_formulas_against_plain_arithmetic():
    # duplicate-route oracle: spell each formula out longhand
    assert throughput(108.9e6, 128, 26) == 108.9e6 * 128 / 26
    assert throughput_star(13.56e6, 128, 26) == 13.56e6 * 128 / 26
    assert throughput_per_slice(1000.0, 4) == 250.0
    assert energy_per_block(0.098, 26, 13.56e6) == 0.098 * 26 / 13.56e6
    assert energy_per_bit(1.28e-7, 128) == 1e-9
    assert data_processing_rate(24096, 30e6, 16, 26) == 24096 * 30e6 * 16 / 26


def test_throughput_monotonicity():
    assert throughput(108.9e6, 128, 13) > throughput(108.9e6, 128, 26)
    assert energy_per_block(0.098, 52, 13.56e6) > energy_per_block(
        0.098, 26, 13.56e6
    )
    assert data_processing_rate(24096, 30e6, 16, 52) < data_processing_rate(
        24096, 30e6, 16, 26
    )


def test_round_trip_energy_identity():
    e = energy_per_block(0.098, 26, 13.56e6)
    assert energy_per_bit(e, 128) * 128 == pytest.approx(e, rel=1e-12)


def test_formula_input_validation():
    with pytest.raises(MetricsError):
        throughput(108.9e6, 128, 0)
    with pytest.raises(MetricsError):
        throughput_per_slice(1.0, 0)
    with pytest.raises(MetricsError):
        energy_per_block(0.098, 26, 0)
    with pytest.raises(MetricsError):
        data_processing_rate(0, 30e6, 16, 26)


@pytest.mark.parametrize("name", sorted(ROW_INPUTS))
def test_row_rejects_an_input_at_zero(name):
    with pytest.raises(MetricsError, match="%s must be strictly positive" % name):
        aes_imc_row(**{**ROW_INPUTS, name: 0})


# -- bundled dataset ----------------------------------------------------


def test_bundled_dataset_loads():
    rows = load_baselines()
    assert len(rows) == 50
    tables = {r.table for r in rows}
    assert tables == {"I", "II", "III", "IV"}
    ours = [r for r in rows if r.work_label == "AES-IMC"]
    assert len(ours) == 4
    row1 = next(r for r in ours if r.table == "I")
    assert row1.fields["L"] == 26 and row1.fields["slc"] == 468


def test_power_units_resolve_to_watts():
    rows = load_baselines()
    by_key = {r.key: r for r in rows}
    assert by_key["II/[47]/Xc6slx16-3csg324"].fields["P_W"] == pytest.approx(
        21.31e-3
    )
    assert by_key["II/AES-IMC/Xc7A100T-CSG324"].fields["P_W"] == pytest.approx(
        0.098
    )


def test_empty_dataset_gives_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_baselines(str(path)) == []


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(MetricsError):
        load_baselines(str(path))


# -- audit --------------------------------------------------------------


def test_audit_reproduces_tables_one_and_two():
    entries = audit_baselines(load_baselines())
    perf_energy = [e for e in entries if e.table in ("I", "II")]
    assert perf_energy, "tables I/II must contribute audit entries"
    bad = [e for e in perf_energy if not e.ok]
    assert bad == []


def test_audit_flags_known_inconsistent_entries():
    entries = audit_baselines(load_baselines())
    flagged = {(e.row_key, e.column) for e in entries if not e.ok}
    assert ("III/CMOS ASIC [45]/", "thr_Mbps") in flagged
    assert ("III/AES-IMC/", "E_uJ") in flagged
    assert ("IV/DW-AES Baseline [52]/", "dpr_GBps") in flagged
    # nothing else in table IV disagrees
    assert {k for k, _ in flagged if k.startswith("IV/")} == {
        "IV/DW-AES Baseline [52]/"
    }


def test_dpr_ratios_match_reported_speedups():
    rows = load_baselines()
    assert dpr_ratio(rows, "CMOS ASIC [45]") == pytest.approx(171.8, rel=0.01)
    assert dpr_ratio(rows, "Memristive CMOL [46]") == pytest.approx(69.7, rel=0.01)
    with pytest.raises(UnknownBaseline):
        dpr_ratio(rows, "no-such-work")


# -- comparison records -------------------------------------------------


def test_compare_emits_ratio_records():
    rows = load_baselines()
    records = compare_against_baselines(RunConfig().aes_imc_row(), rows)
    assert records
    for rec in records:
        assert rec["ratio"] == pytest.approx(
            rec["aes_imc_value"] / rec["baseline_value"], rel=1e-12
        )
