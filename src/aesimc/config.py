"""Run configuration: flat key=value files with dotted section prefixes,
validated against a complete default set. A model knob's default is
that of the class or parameter it sets. Unknown keys are rejected and
the configuration hash is stable under key reordering."""

import hashlib
import inspect
import math

from .crossbar import ConfigError, CostTable, MICRO_OP_KINDS, OpCost
from .pipeline import BankFarm, Pipeline
from .program import STAGES
from .sequencer import ParallelismConfig

# Config keys that set a Pipeline, BankFarm or ParallelismConfig
# parameter, and default to it.
_PARAMS = {
    "geometry.cols": (Pipeline, "cols"),
    "schedule.crosslane_extra_cycles_per_byte": (
        Pipeline, "crosslane_extra_cycles_per_byte"),
    "pipeline.initiation_interval": (Pipeline, "initiation_interval"),
    "parallelism.sbox_units": (ParallelismConfig, "sbox_units"),
    "parallelism.m2_units": (ParallelismConfig, "m2_units"),
    "banks": (BankFarm, "banks"),
}
_PARAM_DEFAULTS = {key: inspect.signature(cls).parameters[param].default
                   for key, (cls, param) in _PARAMS.items()}

# The kinds whose latency some stage's budget sums; the others' latencies
# change no result, so they are not keys and keep their default.
_TIMED_KINDS = tuple(kind for kind in MICRO_OP_KINDS
                     if any(kind in st.critical_path for st in STAGES))
_DEFAULT_CYCLES = {kind: cost.cycles
                   for kind, cost in CostTable.default().entries.items()}


def _default_entries():
    entries = {
        **_PARAM_DEFAULTS,
        "freq.f_max_hz": 108.9e6,
        "metrics.slices": 468,
        "metrics.power_w": 0.098,
        "metrics.ciphers": 24096,
    }
    for kind, cost in CostTable.default().entries.items():
        if kind in _TIMED_KINDS:
            entries["cost.%s.cycles" % kind.lower()] = cost.cycles
        entries["cost.%s.energy_pj" % kind.lower()] = cost.energy_pJ
    return entries


def _parse_value(key, raw, default):
    """raw parsed as the type of the key's default."""
    raw = raw.strip()
    try:
        return type(default)(raw)
    except ValueError:
        raise ConfigError("bad value for %s: %r" % (key, raw))


def _finite(value):
    """Whether a number converts to a finite float, as the metric formulas
    and the reported figures take it."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class RunConfig:
    """All simulator knobs, resolved from defaults plus an optional
    key=value override file."""

    def __init__(self, overrides=None):
        self.entries = _default_entries()
        for key, value in (overrides or {}).items():
            if key not in self.entries:
                raise ConfigError("unknown config key: %s" % key)
            if not _finite(value):
                raise ConfigError("non-finite value for %s: %r" % (key, value))
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
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append("%s=%s" % (key, text))
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    # -- component builders ---------------------------------------------

    def cost_table(self):
        return CostTable(
            {
                kind: OpCost(
                    self.entries.get("cost.%s.cycles" % kind.lower(),
                                     _DEFAULT_CYCLES[kind]),
                    self.entries["cost.%s.energy_pj" % kind.lower()],
                )
                for kind in MICRO_OP_KINDS
            }
        )

    def _params(self, cls):
        """The keyword arguments of cls that config keys set."""
        return {param: self.entries[key]
                for key, (owner, param) in _PARAMS.items() if owner is cls}

    def parallelism(self):
        return ParallelismConfig(**self._params(ParallelismConfig))

    def aes_imc_row(self):
        """The AES-IMC row of the comparison tables (metrics.aes_imc_row):
        this config's F_max and published figures, at the latency of its
        schedule. The whole pipeline is built, so a config that no
        pipeline accepts is rejected here too."""
        # imported here so that building a pipeline does not load metrics
        from . import metrics

        e = self.entries
        return metrics.aes_imc_row(
            f_max_hz=e["freq.f_max_hz"],
            latency_cycles=self.pipeline().schedule.total_cycles_per_block,
            slices=e["metrics.slices"],
            power_W=e["metrics.power_w"],
            ciphers=e["metrics.ciphers"],
        )

    def pipeline_kwargs(self, trace_detail=False):
        kwargs = self._params(Pipeline)
        kwargs.update(cost_table=self.cost_table(),
                      parallelism=self.parallelism(), trace_detail=trace_detail,
                      config_hash=self.config_hash())
        return kwargs

    def pipeline(self, trace_detail=False):
        return Pipeline(**self.pipeline_kwargs(trace_detail=trace_detail))

    def bank_farm(self, banks=None, trace_detail=False):
        return BankFarm(
            banks=banks if banks is not None else self.entries["banks"],
            **self.pipeline_kwargs(trace_detail=trace_detail),
        )
