"""Round scheduling and cycle/energy accounting across the two lanes and
across banks. The default calibrated preset ("ref26") totals 26 cycles per
128-bit block: load, initial AddRoundKey, nine 2-cycle rounds, a 2-cycle
final round without MixColumns, and a 4-cycle drain/readout. The stages
and their critical paths are those of aesimc.program.STAGES.

A Pipeline runs its configuration's compiled program (see
aesimc.program) on the whole batch at once; counts, energy and trace
events are a fold over the program, computed without the data."""

from dataclasses import dataclass

import numpy as np

from .crossbar import ConfigError, CostTable, TraceRecorder
from .program import STAGES, TraceEvents, compile_program
from .sequencer import LaneLayout, ParallelismConfig


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
    def from_cost_table(cls, cost, crosslane_extra_cycles_per_byte=0):
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

    def to_dict(self):
        return {
            "blocks": self.blocks,
            "cycles_total": self.cycles_total,
            "energy_pJ_total": self.energy_pJ_total,
            "cycles_per_block": self.cycles_per_block,
            "energy_per_block_pJ": self.energy_per_block_pJ,
            "config_hash": self.config_hash,
        }


class Pipeline:
    """One bank: a lane pair plus its schedule. Correctness never
    depends on the cost table, schedule, or parallelism knobs; those
    affect only the reported cycles and energy."""

    def __init__(self, cost_table=None, crosslane_extra_cycles_per_byte=0,
                 layout=None, parallelism=None, rows=16, cols=16, bank=0,
                 initiation_interval=None, trace_detail=False,
                 config_hash=""):
        self.cost_table = cost_table or CostTable.default()
        self.schedule = Schedule.from_cost_table(
            self.cost_table, crosslane_extra_cycles_per_byte)
        self.layout = layout or LaneLayout()
        self.parallelism = parallelism or ParallelismConfig()
        self.rows = rows
        self.cols = cols
        self.bank = bank
        self.trace_detail = trace_detail
        self.config_hash = config_hash
        if initiation_interval is None:
            initiation_interval = self.schedule.total_cycles_per_block
        if initiation_interval < 1:
            raise ConfigError("initiation interval must be >= 1")
        self.initiation_interval = initiation_interval
        self.trace = TraceRecorder(detail=trace_detail)

    def program(self):
        """The compiled program of this configuration, shared with every
        Pipeline of the same layout, parallelism and geometry."""
        return compile_program(self.layout, self.parallelism, self.rows, self.cols)

    def run_batch(self, plaintexts, keys):
        """Encrypt a batch of independent blocks through one identical
        micro-op sequence. Returns (ciphertexts, cycles_per_block,
        energy_per_block_pJ)."""
        plaintexts, keys = _block_pairs(plaintexts, keys)
        program = self.program()
        cts = program.run(plaintexts, keys)
        trace = self.trace
        trace.reset()
        trace.counts.update(program.counts)
        trace.energy_pJ = program.energy_pJ(self.cost_table)
        if trace.detail:
            trace.events = TraceEvents(program, self.cost_table,
                                       self.schedule.starts, self.bank)
        return cts, self.schedule.total_cycles_per_block, trace.energy_pJ

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
        pipe = self.pipeline
        cts, per_block, energy_per_block = pipe.run_batch(plaintexts, keys)
        n = len(cts)
        # summed bank by bank, as the banks would report their shares
        energy_total = 0.0
        for b in range(min(self.banks, n)):
            energy_total += energy_per_block * len(range(b, n, self.banks))
        return cts, AggregateReport(
            blocks=n,
            cycles_total=pipe.stream_cycles(-(-n // self.banks)),
            energy_pJ_total=energy_total,
            cycles_per_block=per_block,
            energy_per_block_pJ=energy_total / n,
            config_hash=pipe.config_hash,
        )
