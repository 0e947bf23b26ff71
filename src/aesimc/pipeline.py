"""Round scheduling and cycle/energy accounting across the two lanes and
across banks. The default calibrated preset ("ref26") totals 26 cycles per
128-bit block: load, initial AddRoundKey, nine 2-cycle rounds, a 2-cycle
final round without MixColumns, and a 4-cycle drain/readout. The stages
and their critical paths are those of aesimc.program.STAGES.

A Pipeline compiles its configuration's program (see aesimc.program)
and folds its counts, energy and trace events when it is built, without
the data; a run only moves the whole batch through that program."""

from dataclasses import dataclass

import numpy as np

from .crossbar import ConfigError, CostTable, TraceRecorder
from .program import STAGES, TraceEvents, compile_program
from .sequencer import COLS, ParallelismConfig


def _block_pairs(plaintexts, keys):
    """Plaintexts and keys as (n, 16) uint8 arrays, one key per block."""
    plaintexts = np.asarray(plaintexts, dtype=np.uint8)
    keys = np.asarray(keys, dtype=np.uint8)
    if plaintexts.size % 16 or keys.size % 16:
        raise ConfigError(
            "inputs must be whole 16-byte blocks: %d plaintext bytes, "
            "%d key bytes" % (plaintexts.size, keys.size)
        )
    plaintexts = plaintexts.reshape(-1, 16)
    keys = keys.reshape(-1, 16)
    if len(plaintexts) != len(keys):
        raise ConfigError(
            "%d plaintext blocks but %d keys" % (len(plaintexts), len(keys))
        )
    if len(plaintexts) < 1:
        raise ConfigError("need at least one block")
    return plaintexts, keys


# Default port penalty, in cycles per byte moved between the lanes
CROSSLANE_EXTRA_CYCLES_PER_BYTE = 0


@dataclass(frozen=True)
class ScheduleStage:
    name: str
    cycles: int


class Schedule:
    """Ordered stage budgets along one block's critical path, and the
    start cycle of each stage by name."""

    def __init__(self, stages):
        self.stages = list(stages)
        self.starts = {}
        total = 0
        for st in self.stages:
            if st.cycles < 0:
                raise ConfigError("negative stage budget: %s" % st.name)
            self.starts[st.name] = total
            total += st.cycles
        if total < 1:
            raise ConfigError("schedule must take at least one cycle")
        self.total_cycles_per_block = total

    @classmethod
    def from_cost_table(cls, cost,
                        crosslane_extra_cycles_per_byte=CROSSLANE_EXTRA_CYCLES_PER_BYTE):
        """Reference 26-cycle decomposition. With unit latencies: 1 load +
        1 initial ARK + 9 x 2-cycle rounds + 2-cycle final round + 4
        drain = 26. Each stage's budget is the sum of the cost-table
        latencies of its critical path, plus the per-byte port penalty
        for each byte it moves between lanes."""
        return cls([
            ScheduleStage(st.name, sum(cost[kind].cycles for kind in st.critical_path)
                          + crosslane_extra_cycles_per_byte * st.crosslane_bytes)
            for st in STAGES
        ])


@dataclass
class AggregateReport:
    blocks: int
    cycles_total: int
    energy_pJ_total: float
    cycles_per_block: int
    energy_per_block_pJ: float
    config_hash: str


class Pipeline:
    """One bank: a lane pair plus its schedule. Correctness never
    depends on the cost table, schedule, or parallelism knobs; those
    affect only the reported cycles and energy. The program is compiled
    and its counts and energy folded here, once; a lane too narrow for
    the row map is rejected here too."""

    def __init__(self, cost_table=None,
                 crosslane_extra_cycles_per_byte=CROSSLANE_EXTRA_CYCLES_PER_BYTE,
                 parallelism=None, cols=COLS,
                 initiation_interval=0, trace_detail=False, config_hash=""):
        self.cost_table = cost_table or CostTable.default()
        self.schedule = Schedule.from_cost_table(
            self.cost_table, crosslane_extra_cycles_per_byte)
        self.config_hash = config_hash
        if initiation_interval < 0:
            raise ConfigError("initiation interval must be >= 0 "
                              "(0 = block latency)")
        self.initiation_interval = (initiation_interval
                                    or self.schedule.total_cycles_per_block)
        # shared with every Pipeline of the same parallelism and lane width
        self.program = compile_program(parallelism or ParallelismConfig(), cols)
        self.trace = TraceRecorder(detail=trace_detail)
        self.trace.counts.update(self.program.counts)
        self.trace.energy_pJ = self.program.energy_pJ(self.cost_table)
        if trace_detail:
            self.trace.events = TraceEvents(self.program, self.cost_table,
                                            self.schedule.starts)

    def run_batch(self, plaintexts, keys):
        """Encrypt a batch of independent blocks through one identical
        micro-op sequence. Returns (ciphertexts, cycles_per_block,
        energy_per_block_pJ)."""
        plaintexts, keys = _block_pairs(plaintexts, keys)
        return (self.program.run(plaintexts, keys),
                self.schedule.total_cycles_per_block, self.trace.energy_pJ)

    def run_block(self, plaintext, key):
        """Encrypt one 16-byte block; returns (ct, cycles, energy_pJ)."""
        cts, cycles, energy = self.run_batch(
            np.frombuffer(bytes(plaintext), dtype=np.uint8).reshape(1, 16),
            np.frombuffer(bytes(key), dtype=np.uint8).reshape(1, 16),
        )
        return bytes(cts[0]), cycles, energy

    def stream_cycles(self, n_blocks):
        """Fill latency plus (n-1) initiation intervals."""
        if n_blocks < 1:
            raise ConfigError("need at least one block")
        return (
            self.schedule.total_cycles_per_block
            + (n_blocks - 1) * self.initiation_interval
        )


class BankFarm:
    """Independent banks encrypting blocks concurrently, fed round-robin.
    Every bank runs the same program, so one pass over all blocks serves
    them all; the banks set only the wall-clock cycles. A shared key
    generator is modeled per lane pair; results are independent of the
    bank count."""

    def __init__(self, banks=1, **pipeline_kwargs):
        if banks < 1:
            raise ConfigError("banks must be >= 1")
        self.banks = banks
        self.pipeline = Pipeline(**pipeline_kwargs)

    def run_banked(self, plaintexts, keys):
        cts, _, _ = self.pipeline.run_batch(plaintexts, keys)
        return cts, self.report(len(cts))

    def report(self, n):
        """The farm's figures for n blocks dealt round-robin to its banks;
        they depend on the count alone, not on the data."""
        pipe = self.pipeline
        energy_per_block = pipe.trace.energy_pJ
        # summed bank by bank, as the banks would report their shares
        energy_total = 0.0
        for b in range(min(self.banks, n)):
            energy_total += energy_per_block * len(range(b, n, self.banks))
        return AggregateReport(
            blocks=n,
            cycles_total=pipe.stream_cycles(-(-n // self.banks)),
            energy_pJ_total=energy_total,
            cycles_per_block=pipe.schedule.total_cycles_per_block,
            energy_per_block_pJ=energy_per_block,
            config_hash=pipe.config_hash,
        )
