"""Run configuration: flat key=value files with dotted section prefixes,
validated against a complete default set. Unknown keys are rejected and
the configuration hash is stable under key reordering."""

import hashlib
import math

from .crossbar import ConfigError, CostTable, MICRO_OP_KINDS, OpCost
from .pipeline import BankFarm, Pipeline, Schedule
from .sequencer import LaneLayout, ParallelismConfig

_INT_LIST_KEYS = {
    "layout.data_rows",
    "layout.key_rows",
    "layout.m2_rows",
    "layout.scratch_rows",
}


def _default_entries():
    entries = {
        "geometry.rows": 16,
        "geometry.cols": 16,
        "layout.data_rows": (0, 1, 2, 3),
        "layout.key_rows": (4, 5, 6, 7),
        "layout.m2_rows": (8, 9, 10, 11),
        "layout.t_row": 12,
        "layout.scratch_rows": (13, 14, 15),
        "layout.bytes_per_row": 2,
        "parallelism.sbox_units": 2,
        "parallelism.m2_units": 2,
        "schedule.preset": "ref26",
        "schedule.total_cycles_per_block": 0,  # 0 = derived, else checked
        "schedule.crosslane_extra_cycles_per_byte": 0,
        "pipeline.initiation_interval": 0,  # 0 = block latency
        "banks": 1,
        "seed": 0,
        "freq.f_max_hz": 108.9e6,
        "freq.f_rf_hz": 13.56e6,
        "freq.f_uniform_hz": 30e6,
        "metrics.slices": 468,
        "metrics.power_w": 0.098,
        "metrics.ciphers": 24096,
        "metrics.bytes_per_cipher": 16,
        "metrics.block_size_bits": 128,
    }
    for kind, cost in CostTable.default().entries.items():
        entries["cost.%s.cycles" % kind.lower()] = cost.cycles
        entries["cost.%s.energy_pj" % kind.lower()] = cost.energy_pJ
    return entries


def _parse_value(key, raw, default):
    raw = raw.strip()
    try:
        if key in _INT_LIST_KEYS:
            return tuple(int(x) for x in raw.split(",") if x.strip() != "")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError("bad value for %s: %r" % (key, raw))
    return raw


class RunConfig:
    """All simulator knobs, resolved from defaults plus an optional
    key=value override file."""

    def __init__(self, overrides=None):
        self.entries = _default_entries()
        for key, value in (overrides or {}).items():
            if key not in self.entries:
                raise ConfigError("unknown config key: %s" % key)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError("non-finite value for %s: %r" % (key, value))
            self.entries[key] = value
        if self.entries["schedule.preset"] != "ref26":
            raise ConfigError(
                "unknown schedule preset: %s" % self.entries["schedule.preset"]
            )

    @classmethod
    def load(cls, path=None):
        if path is None:
            return cls()
        defaults = _default_entries()
        overrides = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        "%s:%d: expected key=value" % (path, lineno)
                    )
                key, raw = line.split("=", 1)
                key = key.strip()
                if key not in defaults:
                    raise ConfigError(
                        "%s:%d: unknown config key: %s" % (path, lineno, key)
                    )
                overrides[key] = _parse_value(key, raw, defaults[key])
        return cls(overrides)

    def __getitem__(self, key):
        return self.entries[key]

    # -- canonical form and hash ----------------------------------------

    def canonical(self):
        lines = []
        for key in sorted(self.entries):
            value = self.entries[key]
            if isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append("%s=%s" % (key, text))
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    # -- component builders ---------------------------------------------

    def cost_table(self):
        return CostTable(
            {
                kind: OpCost(
                    self.entries["cost.%s.cycles" % kind.lower()],
                    self.entries["cost.%s.energy_pj" % kind.lower()],
                )
                for kind in MICRO_OP_KINDS
            }
        )

    def layout(self):
        return LaneLayout(
            data_rows=tuple(self.entries["layout.data_rows"]),
            key_rows=tuple(self.entries["layout.key_rows"]),
            m2_rows=tuple(self.entries["layout.m2_rows"]),
            t_row=self.entries["layout.t_row"],
            scratch_rows=tuple(self.entries["layout.scratch_rows"]),
            bytes_per_row=self.entries["layout.bytes_per_row"],
        )

    def parallelism(self):
        return ParallelismConfig(
            sbox_units=self.entries["parallelism.sbox_units"],
            m2_units=self.entries["parallelism.m2_units"],
        )

    def schedule(self, cost_table=None):
        sched = Schedule.from_cost_table(
            cost_table or self.cost_table(),
            crosslane_extra_cycles_per_byte=self.entries[
                "schedule.crosslane_extra_cycles_per_byte"
            ],
        )
        declared = self.entries["schedule.total_cycles_per_block"]
        if declared:
            return Schedule(sched.stages, declared_total=declared)
        return sched

    def pipeline_kwargs(self, trace_detail=False):
        cost = self.cost_table()
        ii = self.entries["pipeline.initiation_interval"]
        return {
            "cost_table": cost,
            "schedule": self.schedule(cost),
            "layout": self.layout(),
            "parallelism": self.parallelism(),
            "rows": self.entries["geometry.rows"],
            "cols": self.entries["geometry.cols"],
            "initiation_interval": ii if ii else None,
            "trace_detail": trace_detail,
            "config_hash": self.config_hash(),
        }

    def pipeline(self, trace_detail=False):
        return Pipeline(**self.pipeline_kwargs(trace_detail=trace_detail))

    def bank_farm(self, banks=None, trace_detail=False):
        return BankFarm(
            banks=banks if banks is not None else self.entries["banks"],
            **self.pipeline_kwargs(trace_detail=trace_detail),
        )
