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

# Clocks and sizes of the published tables; the audit recomputes the
# published rows at these.
F_RF_HZ = 13.56e6
F_UNIFORM_HZ = 30e6
BLOCK_SIZE_BITS = 128
BYTES_PER_CIPHER = 16

_TEXT_COLUMNS = ("table", "work_label", "device", "P_unit")
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


@dataclass(frozen=True)
class MetricsInput:
    """Inputs of the metric formulas; RunConfig.metrics_input builds the
    AES-IMC row's from the run configuration."""

    f_max_hz: float
    latency_cycles: int
    slices: int
    power_W: float
    ciphers: int
    f_rf_hz: float
    f_uniform_hz: float
    block_size_bits: int
    bytes_per_cipher: int

    def __post_init__(self):
        for name in (
            "f_max_hz", "latency_cycles", "slices", "power_W", "ciphers",
            "f_rf_hz", "f_uniform_hz", "block_size_bits", "bytes_per_cipher",
        ):
            if getattr(self, name) <= 0:
                raise MetricsError("%s must be strictly positive" % name)


@dataclass(frozen=True)
class MetricsReport:
    thr_bps: float
    thr_per_slc: float
    thr_star_bps: float
    energy_J: float
    energy_per_bit_J: float
    dpr_Bps: float

    def to_dict(self):
        return {
            "thr_bps": self.thr_bps,
            "thr_per_slc": self.thr_per_slc,
            "thr_star_bps": self.thr_star_bps,
            "energy_J": self.energy_J,
            "energy_per_bit_J": self.energy_per_bit_J,
            "dpr_Bps": self.dpr_Bps,
        }


def build_report(inp):
    """Populate every metric from its defining formula."""
    thr = throughput(inp.f_max_hz, inp.block_size_bits, inp.latency_cycles)
    energy = energy_per_block(inp.power_W, inp.latency_cycles, inp.f_rf_hz)
    return MetricsReport(
        thr_bps=thr,
        thr_per_slc=throughput_per_slice(thr, inp.slices),
        thr_star_bps=throughput_star(
            inp.f_rf_hz, inp.block_size_bits, inp.latency_cycles
        ),
        energy_J=energy,
        energy_per_bit_J=energy_per_bit(energy, inp.block_size_bits),
        dpr_Bps=data_processing_rate(
            inp.ciphers, inp.f_uniform_hz, inp.bytes_per_cipher,
            inp.latency_cycles,
        ),
    )


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


def audit_baselines(rows, f_rf_hz=F_RF_HZ, f_uniform_hz=F_UNIFORM_HZ):
    """Recompute every derivable published column and compare against
    the printed value. Entries outside tolerance are flagged (ok=False),
    never silently accepted; a published value of 0 has no relative error
    and is rejected."""
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
                      throughput_star(f_rf_hz, state, L) / 1e6)
        if row.table in ("II", "III") and "P_W" in f and L:
            energy_J = energy_per_block(f["P_W"], L, f_rf_hz)
            if "E_uJ" in f:
                check(row, "E_uJ", f["E_uJ"], energy_J * 1e6)
            if "E_per_bit_nJ" in f and state:
                check(row, "E_per_bit_nJ", f["E_per_bit_nJ"],
                      energy_per_bit(energy_J, state) * 1e9, base_rel=0.05)
        if row.table == "IV" and "dpr_GBps" in f and "ciphers" in f and L:
            dpr = data_processing_rate(
                f["ciphers"], f_uniform_hz, BYTES_PER_CIPHER, L
            ) / 1e9
            check(row, "dpr_GBps", f["dpr_GBps"], dpr)
    return entries


def compare_against_baselines(report, rows, labels=None):
    """Ratio of the regenerated AES-IMC metrics to each baseline row's
    published figures. Returns one record per (metric, baseline) pair."""
    if labels is not None:
        known = {r.work_label for r in rows}
        for label in labels:
            if label not in known:
                raise UnknownBaseline(label)
        rows = [r for r in rows if r.work_label in labels]
    ours = {
        "thr_Mbps": report.thr_bps / 1e6,
        "thr_star_Mbps": report.thr_star_bps / 1e6,
        "E_uJ": report.energy_J * 1e6,
        "E_per_bit_nJ": report.energy_per_bit_J * 1e9,
        "dpr_GBps": report.dpr_Bps / 1e9,
    }
    records = []
    for row in rows:
        for metric, our_value in ours.items():
            published = row.fields.get(metric)
            if published is None or published == 0:
                continue
            records.append(
                {
                    "metric": metric,
                    "baseline": row.key,
                    "baseline_value": published,
                    "aes_imc_value": our_value,
                    "ratio": our_value / published,
                }
            )
    return records


def dpr_ratio(rows, baseline_label, f_uniform_hz=F_UNIFORM_HZ):
    """DPR of AES-IMC over a named baseline, both recomputed by Eq-form
    from the published (ciphers, L) inputs."""
    by_label = {r.work_label: r for r in rows if r.table == "IV"}
    if baseline_label not in by_label or "AES-IMC" not in by_label:
        raise UnknownBaseline(baseline_label)

    def dpr_of(row):
        return data_processing_rate(
            row.fields["ciphers"], f_uniform_hz, BYTES_PER_CIPHER,
            row.fields["L"],
        )

    return dpr_of(by_label["AES-IMC"]) / dpr_of(by_label[baseline_label])

