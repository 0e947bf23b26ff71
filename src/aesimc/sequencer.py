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

The sequence itself is the compiled program of aesimc.program; this
module holds its configuration and the stepwise sequencer.
"""

from dataclasses import dataclass

import numpy as np

from . import gfref
from .crossbar import ConfigError
from .program import (  # noqa: F401  (InvalidRound, KeyGenState: re-exported)
    InvalidRound,
    KeyGenState,
    Machine,
    SequencerError,
    compile_program,
)


class LaneBusy(SequencerError):
    pass


@dataclass(frozen=True)
class LaneLayout:
    """Row assignment inside one lane's crossbar."""

    data_rows: tuple = (0, 1, 2, 3)
    key_rows: tuple = (4, 5, 6, 7)
    m2_rows: tuple = (8, 9, 10, 11)
    t_row: int = 12
    scratch_rows: tuple = (13, 14, 15)
    # fixed by the datapath: a lane row holds one byte of each of the
    # lane's two state columns
    bytes_per_row = 2

    def validate(self, rows):
        groups = [
            list(self.data_rows),
            list(self.key_rows),
            list(self.m2_rows),
            [self.t_row],
            list(self.scratch_rows),
        ]
        flat = [r for g in groups for r in g]
        if len(set(flat)) != len(flat):
            raise ConfigError("lane layout row sets overlap")
        if any(r < 0 or r >= rows for r in flat):
            raise ConfigError("lane layout row outside geometry")
        if len(self.data_rows) != 4 or len(self.key_rows) != 4:
            raise ConfigError("need 4 data rows and 4 key rows")
        if len(self.m2_rows) != 4:
            raise ConfigError("need 4 M-2 buffer rows")
        if len(self.scratch_rows) < 2:
            raise ConfigError("need at least 2 scratch rows")


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

    def __init__(self, cost_table, trace, layout=None, parallelism=None,
                 rows=16, cols=16, bank=0, batch=1):
        if batch < 1:
            raise ConfigError("batch must be >= 1")
        self.layout = layout or LaneLayout()
        self.parallelism = parallelism or ParallelismConfig()
        self.cost_table = cost_table
        self.trace = trace
        self.bank = bank
        self.batch = batch
        self.program = compile_program(self.layout, self.parallelism, rows, cols)
        self.machine = Machine(batch, rows)
        self.busy = False
        self.crosslane_bytes = 0

    def _run(self, phase):
        self.machine.execute(phase.instrs)
        self.crosslane_bytes += phase.crosslane_bytes
        for lane, kind, row, col_mask, count in phase.ops:
            self.trace.emit(self.cost_table, self.bank, lane, kind, row,
                            col_mask, count)

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

    def peek_key_state(self):
        return self.machine.state(self.layout.key_rows)

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

    def encrypt_loaded(self):
        """Run every phase between load and readout: the initial
        AddRoundKey plus the 10 rounds."""
        for phase in self.program.phases[1:-1]:
            self._run(phase)
