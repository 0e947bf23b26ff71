"""Performance/energy metric formulas and the table-reproduction audit.

Implements throughput (at maximum and at fixed RF frequency), throughput
per slice, energy per block and per bit, and the data processing rate
under a fixed area budget, plus regeneration of the published comparison
tables from a bundled dataset with explicit flagging of entries that the
formulas cannot reproduce.
"""

import csv
import math
from dataclasses import dataclass
from importlib import resources

from .gfref import BLOCK_BYTES

# Clocks of the published tables: Thr* and E at the RF clock, DPR at the
# uniform clock. The audit and the AES-IMC row use these and no others.
F_RF_HZ = 13.56e6
F_UNIFORM_HZ = 30e6
# AES-128 blocks, the only size the simulator encrypts
BYTES_PER_CIPHER = BLOCK_BYTES
BLOCK_SIZE_BITS = 8 * BLOCK_BYTES

_TEXT_COLUMNS = ("table", "work_label", "device", "P_unit")
# the AES-IMC row's columns that compare_against_baselines reads
_COMPARED = ("thr_Mbps", "thr_star_Mbps", "E_uJ", "E_per_bit_nJ", "dpr_GBps")
_WATTS_PER_UNIT = {"mW": 1e-3, "W": 1.0}


class MetricsError(Exception):
    pass


class UnknownBaseline(MetricsError):
    pass


def throughput(f_max_hz, block_size_bits, latency_cycles):
    """Maximum throughput in bits/s: F_max * B_size / L."""
    if latency_cycles < 1:
        raise MetricsError("latency must be >= 1 cycle")
    return f_max_hz * block_size_bits / latency_cycles


def throughput_per_slice(thr_bps, slices):
    """Throughput divided by occupied slices."""
    if slices < 1:
        raise MetricsError("slices must be >= 1")
    return thr_bps / slices


def throughput_star(f_rf_hz, block_size_bits, latency_cycles):
    """Throughput at the fixed RF frequency (13.56 MHz by default)."""
    if latency_cycles < 1:
        raise MetricsError("latency must be >= 1 cycle")
    return f_rf_hz * block_size_bits / latency_cycles


def energy_per_block(power_W, latency_cycles, f_rf_hz):
    """Energy in joules to process one block: P * L / F."""
    if f_rf_hz <= 0:
        raise MetricsError("frequency must be positive")
    return power_W * latency_cycles / f_rf_hz


def energy_per_bit(energy_J, block_size_bits):
    """Energy per processed bit."""
    if block_size_bits < 1:
        raise MetricsError("block size must be >= 1 bit")
    return energy_J / block_size_bits


def data_processing_rate(ciphers, f_hz, bytes_per_cipher, latency_cycles):
    """Encrypted bytes/s across all ciphers fitting the area budget.

    Evaluated at the 30 MHz uniform clock: only that frequency
    reproduces every published DPR row."""
    if min(ciphers, f_hz, bytes_per_cipher, latency_cycles) <= 0:
        raise MetricsError("all DPR inputs must be positive")
    return ciphers * f_hz * bytes_per_cipher / latency_cycles


def aes_imc_row(f_max_hz, latency_cycles, slices, power_W, ciphers):
    """The AES-IMC row in the baseline CSV's column names and units: Thr
    at F_max, Thr* and E at the tables' RF clock, DPR at their uniform
    clock, so the row compares with the published rows on their basis."""
    inputs = {"f_max_hz": f_max_hz, "latency_cycles": latency_cycles,
              "slices": slices, "power_W": power_W, "ciphers": ciphers}
    for name, value in inputs.items():
        if value <= 0:
            raise MetricsError("%s must be strictly positive" % name)
    thr = throughput(f_max_hz, BLOCK_SIZE_BITS, latency_cycles)
    energy = energy_per_block(power_W, latency_cycles, F_RF_HZ)
    return {
        "thr_Mbps": thr / 1e6,
        "thr_per_slc": throughput_per_slice(thr, slices) / 1e6,
        "thr_star_Mbps": throughput_star(
            F_RF_HZ, BLOCK_SIZE_BITS, latency_cycles) / 1e6,
        "E_uJ": energy * 1e6,
        "E_per_bit_nJ": energy_per_bit(energy, BLOCK_SIZE_BITS) * 1e9,
        "dpr_GBps": data_processing_rate(
            ciphers, F_UNIFORM_HZ, BYTES_PER_CIPHER, latency_cycles) / 1e9,
    }


# -- bundled baseline dataset -------------------------------------------

@dataclass(frozen=True)
class BaselineRow:
    """One published table row, ingested verbatim."""

    table: str
    work_label: str
    device: str
    fields: dict  # numeric columns; absent entries omitted

    @property
    def key(self):
        return "%s/%s/%s" % (self.table, self.work_label, self.device)


def load_baselines(path=None):
    """Read the baseline CSV (bundled dataset unless a path is given). A
    malformed row raises MetricsError naming its line."""
    if path is None:
        ref = resources.files("aesimc.data") / "baselines.csv"
        text = ref.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    rows = []
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None:
        return rows
    expected = {
        "table", "work_label", "device", "state_bits", "key_bits", "ff",
        "lut", "slc", "fmax_MHz", "L", "thr_Mbps", "thr_per_slc",
        "thr_star_Mbps", "P_value", "P_unit", "E_uJ", "E_per_bit_nJ",
        "area_um2", "ciphers", "dpr_GBps",
    }
    if set(reader.fieldnames) != expected:
        raise MetricsError("malformed baseline dataset header")
    for rec in reader:
        where = "%s:%d" % (path or "baselines.csv", reader.line_num)
        if None in rec:
            raise MetricsError("%s: more cells than header columns" % where)
        fields = {}
        for col, raw in rec.items():
            if col in _TEXT_COLUMNS or raw is None or raw.strip() == "":
                continue
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise MetricsError("%s: %s is not a finite number: %r"
                                   % (where, col, raw))
            fields[col] = value
        unit = rec.get("P_unit")
        if unit:
            if unit not in _WATTS_PER_UNIT:
                raise MetricsError("%s: P_unit must be mW or W, not %r" % (where, unit))
            if "P_value" not in fields:
                raise MetricsError("%s: P_unit without P_value" % where)
            fields["P_W"] = fields["P_value"] * _WATTS_PER_UNIT[unit]
        rows.append(
            BaselineRow(
                table=rec["table"],
                work_label=rec["work_label"],
                device=rec["device"],
                fields=fields,
            )
        )
    return rows


def _published_tolerance(published, base_rel):
    """Relative tolerance: the stated base, widened to one unit in the
    last published digit (tables print rounded or truncated figures)."""
    text = ("%g" % published)
    if "e" in text or "E" in text:
        return base_rel
    decimals = len(text.split(".")[1]) if "." in text else 0
    ulp = 10.0 ** -decimals
    return max(base_rel, ulp / abs(published))


@dataclass(frozen=True)
class AuditEntry:
    row_key: str
    table: str
    column: str
    published: float
    derived: float
    rel_error: float
    tolerance: float
    ok: bool


def audit_baselines(rows):
    """Recompute every derivable published column, at the clocks the
    tables were computed at, and compare against the printed value.
    Entries outside tolerance are flagged (ok=False), never silently
    accepted; a published value of 0 has no relative error and is
    rejected."""
    entries = []

    def check(row, column, published, derived, base_rel=0.01):
        if published == 0:
            raise MetricsError("%s: published %s is 0" % (row.key, column))
        tol = _published_tolerance(published, base_rel)
        rel = abs(derived - published) / abs(published)
        entries.append(
            AuditEntry(row.key, row.table, column, published, derived,
                       rel, tol, rel <= tol)
        )

    for row in rows:
        f = row.fields
        state = f.get("state_bits")
        L = f.get("L")
        if row.table in ("I", "III"):
            if "thr_Mbps" in f and "fmax_MHz" in f and state and L:
                thr = throughput(f["fmax_MHz"] * 1e6, state, L) / 1e6
                check(row, "thr_Mbps", f["thr_Mbps"], thr)
                if "thr_per_slc" in f and "slc" in f:
                    check(row, "thr_per_slc", f["thr_per_slc"],
                          thr / f["slc"])
            if "thr_star_Mbps" in f and state and L:
                check(row, "thr_star_Mbps", f["thr_star_Mbps"],
                      throughput_star(F_RF_HZ, state, L) / 1e6)
        if row.table in ("II", "III") and "P_W" in f and L:
            energy_J = energy_per_block(f["P_W"], L, F_RF_HZ)
            if "E_uJ" in f:
                check(row, "E_uJ", f["E_uJ"], energy_J * 1e6)
            if "E_per_bit_nJ" in f and state:
                check(row, "E_per_bit_nJ", f["E_per_bit_nJ"],
                      energy_per_bit(energy_J, state) * 1e9, base_rel=0.05)
        if row.table == "IV" and "dpr_GBps" in f and "ciphers" in f and L:
            dpr = data_processing_rate(
                f["ciphers"], F_UNIFORM_HZ, BYTES_PER_CIPHER, L
            ) / 1e9
            check(row, "dpr_GBps", f["dpr_GBps"], dpr)
    return entries


def compare_against_baselines(row, rows):
    """Ratio of the AES-IMC row to each baseline row's published figures.
    Returns one record per (metric, baseline) pair."""
    records = []
    for baseline in rows:
        for metric in _COMPARED:
            published = baseline.fields.get(metric)
            if published is None or published == 0:
                continue
            records.append(
                {
                    "metric": metric,
                    "baseline": baseline.key,
                    "baseline_value": published,
                    "aes_imc_value": row[metric],
                    "ratio": row[metric] / published,
                }
            )
    return records


def dpr_ratio(rows, baseline_label):
    """DPR of AES-IMC over a named baseline, both recomputed by Eq-form
    from the published (ciphers, L) inputs."""
    by_label = {r.work_label: r for r in rows if r.table == "IV"}
    if baseline_label not in by_label or "AES-IMC" not in by_label:
        raise UnknownBaseline(baseline_label)

    def dpr_of(row):
        return data_processing_rate(
            row.fields["ciphers"], F_UNIFORM_HZ, BYTES_PER_CIPHER,
            row.fields["L"],
        )

    return dpr_of(by_label["AES-IMC"]) / dpr_of(by_label[baseline_label])

