"""AES phases on the crossbar lane pair of one bank.

The 128-bit state is split across two 64-bit lanes: lane 0 owns state
columns 0-1, lane 1 owns columns 2-3. A byte occupies two adjacent cells
of a lane row: high nibble at the even column, low nibble at the odd
one. AddRoundKey runs as SA XORs, SubBytes through decoded S-box logic
with configurable parallelism, ShiftRows as offset writes (fused with the
SubBytes staging), MixColumns through the M-2 LUT and the shared-term
decomposition, and round-key generation overwrites the key rows.
ShiftRows is the only phase that moves bytes between lanes; those
transfers go through a modeled cross-lane port and are counted.

The sequence itself is the compiled program of aesimc.program, over its
fixed lane row map; this module holds its parallelism and the stepwise
sequencer.
"""

from dataclasses import dataclass

import numpy as np

from . import gfref
from .crossbar import ConfigError
from .program import (  # noqa: F401  (InvalidRound, KeyGenState: re-exported)
    LAYOUT,
    InvalidRound,
    KeyGenState,
    Machine,
    SequencerError,
    compile_program,
)


# Cells per row of one lane's crossbar, by default
COLS = 16


class LaneBusy(SequencerError):
    pass


@dataclass(frozen=True)
class ParallelismConfig:
    """Number of parallel S-box and M-2 LUT evaluation units per lane."""

    sbox_units: int = 2
    m2_units: int = 2

    def __post_init__(self):
        if self.sbox_units < 1 or self.m2_units < 1:
            raise ConfigError("parallelism units must be >= 1")


class LanePairSequencer:
    """Steps one bank's lane pair through the compiled program one AES
    phase at a time, charging each phase's micro-ops to the trace as it
    runs. Pipeline.run_batch runs the same program whole; this stepwise
    form lets the state be inspected between phases."""

    def __init__(self, cost_table, trace, parallelism=None, batch=1):
        if batch < 1:
            raise ConfigError("batch must be >= 1")
        self.layout = LAYOUT
        self.parallelism = parallelism or ParallelismConfig()
        self.cost_table = cost_table
        self.trace = trace
        self.batch = batch
        self.program = compile_program(self.parallelism, COLS)
        self.machine = Machine(batch, self.program.rows)
        self.busy = False
        self.crosslane_bytes = 0

    def _run(self, phase):
        self.machine.execute(phase.instrs)
        self.crosslane_bytes += phase.crosslane_bytes
        for op in phase.ops:
            self.trace.emit(self.cost_table, op.lane, op.kind, op.row, op.cols, op.count)

    def _step(self, name, rnd=1):
        self._run(self.program.phase(name, rnd))

    def load_block(self, plaintext, key):
        """Map state columns 0-1 into lane 0 and 2-3 into lane 1; same
        for the key. Also seeds the shared key generator."""
        if self.busy:
            raise LaneBusy("lanes not idle")
        self.machine.inputs = tuple(
            np.asarray(blocks, dtype=np.uint8).reshape(self.batch, 16)
            for blocks in (plaintext, key)
        )
        self.crosslane_bytes = 0
        self._step("load", 0)
        self.busy = True

    def readout_block(self):
        """Inverse of the load_block mapping."""
        if not self.busy:
            raise LaneBusy("nothing loaded")
        self._step("readout", gfref.N_ROUNDS)
        self.busy = False
        return self.machine.output

    def peek_state(self):
        """Zero-cost decoded 4x4 state (verification only)."""
        return self.machine.state(self.layout.data_rows)

    # -- AES phases -----------------------------------------------------

    def seq_add_round_key(self):
        self._step("add_round_key", 0)

    def seq_sub_bytes(self):
        self._step("sub_bytes")

    def seq_shift_rows(self):
        if not self.machine.sub:
            raise SequencerError("seq_shift_rows before seq_sub_bytes")
        self._step("shift_rows")

    def seq_mix_columns(self):
        self._step("mix_columns")

    def seq_key_round_update(self, rnd):
        """Advance the shared key generator and overwrite the key rows
        with the new round key."""
        if self.machine.keygen is None:
            raise SequencerError("no key loaded")
        self._step("key_update", rnd)
