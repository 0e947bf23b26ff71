"""Behavioral model of the memristor crossbar: 4-bit cells, word-line /
bit-line addressing, sense amplifiers (capacitor + latch per column),
row buffers, and per-operation latency/energy accounting.

CrossbarArray is the single-op model: each primitive checks its
addresses and values and charges one trace event. Whole blocks run
through the compiled program in aesimc.program instead, which executes
the same micro-op kinds a row operation at a time and charges them to
the same TraceRecorder ledger. The cell grid carries a batch dimension;
control flow never depends on data, so cost events are recorded once per
logical operation, not per block.
"""

from dataclasses import dataclass

import numpy as np

MICRO_OP_KINDS = (
    "ROW_READ",
    "ROW_WRITE",
    "SA_XOR",
    "SBOX_EVAL",
    "M2_EVAL",
    "OFFSET_WRITE",
    "BUFFER_WRITEBACK",
)


class CrossbarError(Exception):
    pass


class AddressOutOfRange(CrossbarError):
    pass


class ValueOutOfRange(CrossbarError):
    pass


class UninitializedSense(CrossbarError):
    pass


class EmptyBuffer(CrossbarError):
    pass


class ConfigError(CrossbarError):
    pass


@dataclass(frozen=True)
class OpCost:
    cycles: int
    energy_pJ: float


class CostTable:
    """Latency/energy per micro-op kind. All kinds must be present."""

    def __init__(self, entries):
        missing = [k for k in MICRO_OP_KINDS if k not in entries]
        if missing:
            raise ConfigError("CostTable missing entries: %s" % ", ".join(missing))
        unknown = [k for k in entries if k not in MICRO_OP_KINDS]
        if unknown:
            raise ConfigError("CostTable unknown kinds: %s" % ", ".join(unknown))
        for kind, cost in entries.items():
            if cost.cycles < 0 or cost.energy_pJ < 0:
                raise ConfigError("negative cost for %s" % kind)
        self.entries = dict(entries)

    def __getitem__(self, kind):
        return self.entries[kind]

    @classmethod
    def default(cls):
        # Calibrated preset: unit latencies make the default
        # schedule total 26 cycles per block; energies are calibrated so
        # one block's trace sums to P*L/F_RF = 0.098 W * 26 / 13.56 MHz
        # ~= 187,906 pJ (see tests/test_pipeline.py).
        return cls(
            {
                "ROW_READ": OpCost(1, 48.54187670363317),
                "ROW_WRITE": OpCost(1, 194.1675068145327),
                "SA_XOR": OpCost(1, 24.270938351816586),
                "SBOX_EVAL": OpCost(1, 121.35469175908293),
                "M2_EVAL": OpCost(1, 121.35469175908293),
                "OFFSET_WRITE": OpCost(1, 24.270938351816586),
                "BUFFER_WRITEBACK": OpCost(1, 194.1675068145327),
            }
        )


@dataclass
class MicroOpEvent:
    """One timed, energy-costed in-memory operation in the trace."""

    cycle: int
    bank: int
    lane: int
    op: str
    row: int
    col_mask: tuple
    energy_pJ: float

    def to_dict(self):
        return {
            "cycle": self.cycle,
            "bank": self.bank,
            "lane": self.lane,
            "op": self.op,
            "row": self.row,
            "col_mask": list(self.col_mask),
            "energy_pJ": self.energy_pJ,
        }


class TraceRecorder:
    """Accumulates cost events. Event objects are only materialized when
    detail is on; counters and the energy total are always maintained."""

    def __init__(self, detail=False):
        self.detail = detail
        self.events = []
        self.counts = {k: 0 for k in MICRO_OP_KINDS}
        self.energy_pJ = 0.0

    def emit(self, cost_table, lane, op, row, col_mask, count=1):
        cost = cost_table[op]
        self.counts[op] += count
        energy = cost.energy_pJ * count
        self.energy_pJ += energy
        if self.detail:
            # stepwise events carry no schedule cycle; there is one bank
            self.events.append(
                MicroOpEvent(0, 0, lane, op, row, tuple(col_mask), energy)
            )


class CrossbarArray:
    """One crossbar lane: rows x cols grid of 4-bit cells plus per-column
    sense amplifiers (capacitor + latch) and a row buffer. Reads are
    non-destructive; writes go through the row buffer unless addressed
    directly with write_cell."""

    def __init__(self, rows, cols, cost_table, trace, lane=0, batch=1):
        if rows < 1 or cols < 1 or batch < 1:
            raise ConfigError("geometry must be positive")
        self.rows = rows
        self.cols = cols
        self.batch = batch
        self.cost = cost_table
        self.trace = trace
        self.lane = lane
        self.cells = np.zeros((batch, rows, cols), dtype=np.uint8)
        self.sa_capacitor = np.zeros((batch, cols), dtype=np.uint8)
        self.sa_latch = np.zeros((batch, cols), dtype=np.uint8)
        self.cap_loaded = np.zeros(cols, dtype=bool)
        self.latch_loaded = np.zeros(cols, dtype=bool)
        self.row_buffer = np.zeros((batch, cols), dtype=np.uint8)
        self.buffer_staged = np.zeros(cols, dtype=bool)

    # -- address / value validation -------------------------------------

    def _check_row(self, row):
        if not 0 <= row < self.rows:
            raise AddressOutOfRange("row %d outside [0, %d)" % (row, self.rows))

    def _check_col(self, col):
        if not 0 <= col < self.cols:
            raise AddressOutOfRange("col %d outside [0, %d)" % (col, self.cols))

    @staticmethod
    def _check_nibble(v):
        arr = np.asarray(v)
        if arr.min() < 0 or arr.max() > 15:
            raise ValueOutOfRange("cell value outside [0, 15]")

    # -- spec operations ------------------------------------------------

    def write_cell(self, row, col, v, batched=False):
        """Program one cell. Batched per-row writes cost one ROW_WRITE;
        pass batched=True for all but the first cell of such a group."""
        self._check_row(row)
        self._check_col(col)
        self._check_nibble(v)
        self.cells[:, row, col] = v
        if not batched:
            self.trace.emit(self.cost, self.lane, "ROW_WRITE", row, (col,))

    def write_row(self, row, cols, values):
        """Program several cells of one row for a single ROW_WRITE cost.

        values is either one nibble per column, or a (batch, n) array."""
        self._check_row(row)
        cols = list(cols)
        for col in cols:
            self._check_col(col)
        arr = np.asarray(values)
        self._check_nibble(arr)
        self.cells[:, row, cols] = arr
        self.trace.emit(self.cost, self.lane, "ROW_WRITE", row, tuple(cols))

    def read_row_to_capacitor(self, row, col_mask):
        """Non-destructively copy selected cells into the SA capacitors."""
        self._check_row(row)
        for col in col_mask:
            self._check_col(col)
        cols = list(col_mask)
        if cols:
            self.sa_capacitor[:, cols] = self.cells[:, row, cols]
            self.cap_loaded[cols] = True
        self.trace.emit(self.cost, self.lane, "ROW_READ", row, tuple(cols))
        return self.cells[:, row, cols].copy()

    def read_row_to_latch(self, row, col_mask):
        """Non-destructively copy selected cells into the SA latches."""
        self._check_row(row)
        for col in col_mask:
            self._check_col(col)
        cols = list(col_mask)
        if cols:
            self.sa_latch[:, cols] = self.cells[:, row, cols]
            self.latch_loaded[cols] = True
        self.trace.emit(self.cost, self.lane, "ROW_READ", row, tuple(cols))
        return self.cells[:, row, cols].copy()

    def sa_xor(self, col_mask):
        """Per-column XOR of capacitor and latch; result stays in the
        latch. One SA_XOR covers all selected columns (column-parallel)."""
        cols = list(col_mask)
        for col in cols:
            self._check_col(col)
            if not (self.cap_loaded[col] and self.latch_loaded[col]):
                raise UninitializedSense("SA column %d not fully loaded" % col)
        if cols:
            self.sa_latch[:, cols] ^= self.sa_capacitor[:, cols]
        self.trace.emit(self.cost, self.lane, "SA_XOR", -1, tuple(cols))
        return self.sa_latch[:, cols].copy()

    def offset_write(self, src_col, dst_col, v):
        """Stage a value into the row buffer at dst_col; src_col records
        where the value originated (ShiftRows address offsetting)."""
        self._check_col(src_col)
        self._check_col(dst_col)
        self._check_nibble(v)
        self.row_buffer[:, dst_col] = v
        self.buffer_staged[dst_col] = True
        self.trace.emit(
            self.cost, self.lane, "OFFSET_WRITE", -1, (src_col, dst_col)
        )

    def write_back_row(self, row):
        """Copy staged row-buffer columns into the row, then clear the
        buffer. Columns never staged keep their prior cell values."""
        self._check_row(row)
        cols = [c for c in range(self.cols) if self.buffer_staged[c]]
        if not cols:
            raise EmptyBuffer("write_back_row with nothing staged")
        self.cells[:, row, cols] = self.row_buffer[:, cols]
        self.buffer_staged[:] = False
        self.trace.emit(
            self.cost, self.lane, "BUFFER_WRITEBACK", row, tuple(cols)
        )

    # -- cost-only peripheral evaluations -------------------------------

    def count_eval(self, kind, row, cols, batches):
        """Record peripheral LUT evaluation cost (S-box or M-2 batches)."""
        if kind not in ("SBOX_EVAL", "M2_EVAL"):
            raise ConfigError("count_eval expects SBOX_EVAL or M2_EVAL")
        self.trace.emit(self.cost, self.lane, kind, row, tuple(cols), batches)

    # -- zero-cost inspection (debug / verification only) ----------------

    def peek_row(self, row):
        self._check_row(row)
        return self.cells[:, row, :].copy()

    def peek_cell(self, row, col):
        self._check_row(row)
        self._check_col(col)
        return self.cells[:, row, col].copy()
