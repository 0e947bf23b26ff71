"""Run configuration: flat key=value files with dotted section prefixes,
validated against a complete default set. The layout, parallelism and
cost defaults are those of the model classes that own them. Unknown keys
are rejected and the configuration hash is stable under key reordering."""

import hashlib
import math
from dataclasses import fields

from .crossbar import ConfigError, CostTable, MICRO_OP_KINDS, OpCost
from .pipeline import BankFarm, Pipeline, Schedule
from .sequencer import LaneLayout, ParallelismConfig

# Config sections whose keys are the fields of a model class, with the
# class's own defaults.
_MODELS = {"layout": LaneLayout, "parallelism": ParallelismConfig}


def _default_entries():
    entries = {
        "geometry.rows": 16,
        "geometry.cols": 16,
        "schedule.crosslane_extra_cycles_per_byte": 0,
        "pipeline.initiation_interval": 0,  # 0 = block latency
        "banks": 1,
        "freq.f_max_hz": 108.9e6,
        "freq.f_rf_hz": 13.56e6,
        "freq.f_uniform_hz": 30e6,
        "metrics.slices": 468,
        "metrics.power_w": 0.098,
        "metrics.ciphers": 24096,
        "metrics.bytes_per_cipher": 16,
        "metrics.block_size_bits": 128,
    }
    for section, model in _MODELS.items():
        for field in fields(model):
            entries["%s.%s" % (section, field.name)] = field.default
    for kind, cost in CostTable.default().entries.items():
        entries["cost.%s.cycles" % kind.lower()] = cost.cycles
        entries["cost.%s.energy_pj" % kind.lower()] = cost.energy_pJ
    return entries


def _parse_value(key, raw, default):
    """raw parsed as the type of the key's default; a tuple default takes
    a comma-separated list of ints."""
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            return tuple(int(x) for x in raw.split(",") if x.strip() != "")
        return type(default)(raw)
    except ValueError:
        raise ConfigError("bad value for %s: %r" % (key, raw))


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
            if isinstance(self.entries[key], tuple):
                value = tuple(value)
            self.entries[key] = value

    @classmethod
    def load(cls, path=None):
        if path is None:
            return cls()
        defaults = _default_entries()
        overrides = {}
        with open(path, encoding="utf-8") as fh:
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

    def _model(self, section):
        model = _MODELS[section]
        return model(**{f.name: self.entries["%s.%s" % (section, f.name)]
                        for f in fields(model)})

    def layout(self):
        return self._model("layout")

    def parallelism(self):
        return self._model("parallelism")

    def metrics_input(self):
        """The AES-IMC row's metric inputs: this config's clocks and
        published figures, at the latency of its schedule."""
        # imported here so that building a pipeline does not load metrics
        from .metrics import MetricsInput

        e = self.entries
        return MetricsInput(
            f_max_hz=e["freq.f_max_hz"],
            latency_cycles=Schedule.from_cost_table(
                self.cost_table(), e["schedule.crosslane_extra_cycles_per_byte"]
            ).total_cycles_per_block,
            slices=e["metrics.slices"],
            power_W=e["metrics.power_w"],
            ciphers=e["metrics.ciphers"],
            f_rf_hz=e["freq.f_rf_hz"],
            f_uniform_hz=e["freq.f_uniform_hz"],
            block_size_bits=e["metrics.block_size_bits"],
            bytes_per_cipher=e["metrics.bytes_per_cipher"],
        )

    def pipeline_kwargs(self, trace_detail=False):
        ii = self.entries["pipeline.initiation_interval"]
        return {
            "cost_table": self.cost_table(),
            "crosslane_extra_cycles_per_byte": self.entries[
                "schedule.crosslane_extra_cycles_per_byte"],
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
