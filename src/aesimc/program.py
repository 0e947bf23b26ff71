"""The AES round sequence as one compiled micro-op program per
configuration, and the interpreter that runs it.

STAGES defines the round sequence once: compile_program lays the program
out from it and Schedule.from_cost_table budgets its stages. Control flow
never depends on the data, so compile_program builds the whole sequence
once per (parallelism, cols) and caches it, over the fixed lane row map
LAYOUT. Each phase of the program holds its instructions, each of which
runs one row operation on both lanes of a (row, batch, lane, nibble)
cell tensor, and, in trace order, the crossbar micro-ops those
instructions stand for. Costs are a fold over the micro-ops and never
touch the data.
"""

import json
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import gfref
from .crossbar import ConfigError, CrossbarError, MICRO_OP_KINDS, MicroOpEvent

SBOX_ARR = np.array(gfref.SBOX, dtype=np.uint8)
M2_ARR = np.array([gfref.xtime(x) for x in range(256)], dtype=np.uint8)

# rcon first bytes for rounds 1..10
RCON = (None, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)
# RotWord of the last key word W3 (bytes 12..15)
_ROT_WORD = np.array([13, 14, 15, 12], dtype=np.intp)

# The four nibble cells of a lane row: two bytes, high nibble first.
CELL_COLS = (0, 1, 2, 3)

# The row map of one lane's crossbar: data rows 0-3, key rows 4-7, M-2
# buffer rows 8-11, the shared-term row T and two scratch rows. A lane
# row holds bytes_per_row bytes, one of each of the lane's two state
# columns.
LAYOUT = namedtuple(
    "LaneLayout", "data_rows key_rows m2_rows t_row scratch_rows bytes_per_row"
)((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), 12, (13, 14), 2)

# ShiftRows: state column c of row r takes the byte of column
# (c + r) % 4. Lane L owns columns 2L and 2L + 1, so the bytes whose
# source is in the other lane cross the lane port.
SHIFT_SOURCES = tuple(tuple((c + r) % 4 for c in range(4)) for r in range(4))
CROSSLANE_BYTES = sum(src // 2 != c // 2
                      for row in SHIFT_SOURCES for c, src in enumerate(row))


class Stage(namedtuple("Stage", "name rnd phases critical_path crosslane_bytes")):
    """One schedule stage of the round sequence: its round, the program
    phases it runs in order, the micro-op kinds on its critical path in
    the calibrated preset (their latencies sum to its budget) and the
    bytes it moves between lanes."""

    __slots__ = ()


def _round_stage(rnd):
    # MixColumns is skipped in the last round; an SA XOR takes the M-2
    # evaluation's place on its critical path.
    last = rnd == gfref.N_ROUNDS
    mix = () if last else ("mix_columns",)
    return Stage("round_%d" % rnd, rnd,
                 ("sub_bytes", "shift_rows") + mix + ("key_update", "add_round_key"),
                 ("SBOX_EVAL", "SA_XOR" if last else "M2_EVAL"), CROSSLANE_BYTES)


STAGES = (
    Stage("load", 0, ("load",), ("ROW_WRITE",), 0),
    Stage("initial_ark", 0, ("add_round_key",), ("SA_XOR",), 0),
    *(_round_stage(rnd) for rnd in range(1, gfref.N_ROUNDS + 1)),
    Stage("drain", gfref.N_ROUNDS, ("readout",), ("BUFFER_WRITEBACK",) * 4, 0),
)


class SequencerError(CrossbarError):
    pass


class InvalidRound(SequencerError):
    pass


def _ceil_div(a, b):
    return -(-a // b)


class KeyGenState:
    """Shared key generator: holds the current round-key bytes and
    produces the next round key via RotWord/SubWord/rcon."""

    def __init__(self, key_bytes):
        # (batch, 16), big-endian word order W0..W3
        self.key = np.array(key_bytes, dtype=np.uint8, order="C")
        self.round = 0

    def next_round(self, rnd):
        if not 1 <= rnd <= gfref.N_ROUNDS:
            raise InvalidRound("round %d outside 1..%d" % (rnd, gfref.N_ROUNDS))
        if rnd != self.round + 1:
            raise InvalidRound(
                "round %d requested after round %d" % (rnd, self.round)
            )
        prev = self.key
        t = SBOX_ARR.take(prev.take(_ROT_WORD, axis=1))  # RotWord, SubWord
        t[:, 0] ^= RCON[rnd]
        # XOR whole 4-byte words, whose byte order an XOR ignores: the new
        # W0 is W0 ^ t, each later W_i is W_i ^ the new W_(i-1)
        words = prev.view(np.uint32)
        new = np.empty_like(words)
        np.bitwise_xor(words[:, 0], t.view(np.uint32)[:, 0], out=new[:, 0])
        for i in (1, 2, 3):
            np.bitwise_xor(words[:, i], new[:, i - 1], out=new[:, i])
        self.key = new.view(np.uint8)
        self.round = rnd
        return self.key


# -- state <-> lane mapping and nibble packing ----------------------------
# state[r][c] = block byte 4c + r. Lane L owns state columns 2L and 2L+1,
# so lane bytes are indexed (row, batch, lane, slot) with c = 2L + slot,
# the row first as in the cell tensor.


def _lane_bytes(blocks):
    """(batch, 16) blocks -> (row, batch, lane, slot) bytes."""
    return blocks.reshape(-1, 2, 2, 4).transpose(3, 0, 1, 2)


def _blocks(lane_bytes):
    return lane_bytes.transpose(1, 2, 3, 0).reshape(-1, 16)


_BYTE = np.arange(256, dtype=np.uint8)
# Byte -> its (high, low) nibble pair, looked up as one 16-bit word.
_NIBBLE_PAIRS = np.stack((_BYTE >> 4, _BYTE & 0x0F), axis=-1).view(np.uint16)[:, 0]


def _split(byte_vals):
    """(..., n) bytes -> (..., 2n) nibbles, high then low per byte."""
    return _NIBBLE_PAIRS.take(byte_vals).view(np.uint8)


def _join(nibbles):
    return (nibbles[..., 0::2] << 4) | nibbles[..., 1::2]


# -- instructions ----------------------------------------------------------
# Each runs one row operation, or one whole-state load, key write or
# readout, on both lanes of a Machine. Row operands are fixed at compile
# time: an int for one row, a slice for several.


def _load(m, data, key):
    pts, keys = m.inputs
    m.cells[data] = _split(_lane_bytes(pts))
    m.cells[key] = _split(_lane_bytes(keys))
    m.keygen = KeyGenState(keys)


def _xor_rows(m, dst, a, b):
    cells = m.cells
    np.bitwise_xor(cells[a], cells[b], out=cells[dst])


def _sbox_row(m, r, row):
    m.sub[r] = SBOX_ARR[_join(m.cells[row])]


def _shift_row(m, r, row, perm):
    # the S-box outputs of row r, by state column, rotated by perm
    rotated = m.sub.pop(r).reshape(-1, 4)[:, perm]
    m.cells[row] = _split(rotated).reshape(-1, 2, 4)


def _m2_row(m, row, dst):
    m.cells[dst] = _split(M2_ARR[_join(m.cells[row])])


def _mix_row(m, row, t, m2, m2_next):
    cells = m.cells
    cells[row] ^= cells[t] ^ cells[m2] ^ cells[m2_next]


def _key_update(m, key, rnd):
    m.cells[key] = _split(_lane_bytes(m.keygen.next_round(rnd)))


def _readout(m, data):
    m.output = _blocks(_join(m.cells[data]))


class Machine:
    """Execution state of one lane pair for a batch of blocks: the
    (row, batch, lane, nibble) cell tensor, holding the four nibble cells
    of each lane row, the S-box outputs held per row between SubBytes and
    ShiftRows, and the shared key generator. The row comes first, so each
    row operand cells[r] is one contiguous block of the batch."""

    def __init__(self, batch, rows):
        self.cells = np.zeros((rows, batch, 2, len(CELL_COLS)), dtype=np.uint8)
        self.inputs = None  # (plaintexts, keys) for the load instruction
        self.output = None  # ciphertexts from the readout instruction
        self.sub = {}
        self.keygen = None

    def execute(self, instrs):
        for fn, args, _ in instrs:
            fn(self, *args)

    def state(self, rows):
        """The 4x4 state held in rows, decoded at no cost (for checks)."""
        lane_bytes = _join(self.cells[list(rows)])
        return lane_bytes.transpose(1, 0, 2, 3).reshape(-1, 4, 4)


# -- the program -------------------------------------------------------------


class Op(namedtuple("Op", "lane kind row cols count")):
    """count issues of micro-op kind on lane at row (-1: none) and columns
    cols; an OFFSET_WRITE's cols are its (source, destination) nibbles."""

    __slots__ = ()


class Instr(namedtuple("Instr", "fn args ops")):
    """fn(machine, *args) runs the instruction on both lanes; ops are the
    micro-ops both lanes issue for it, lane 0's first."""

    __slots__ = ()


class Phase(namedtuple("Phase", "name rnd stage instrs ops crosslane_bytes")):
    """One AES phase: its instructions and, in trace order, their micro-ops,
    lane 0's first. stage names the schedule stage the phase runs in."""

    __slots__ = ()


def _instr(fn, args, ops):
    """An instruction whose lanes each issue ops, (kind, row, cols, count)."""
    return Instr(fn, args, tuple(Op(lane, *op) for lane in (0, 1) for op in ops))


def _phase(name, instrs, crosslane_bytes=0):
    ops = tuple(op for lane in (0, 1) for ins in instrs for op in ins.ops
                if op.lane == lane)
    return Phase(name, 0, None, tuple(instrs), ops, crosslane_bytes)


class Program:
    """The whole-block micro-op program of one configuration: its phases
    in order, their instructions flattened for a run, the per-kind
    micro-op counts of one block, and the cell rows a run needs: one more
    than the highest row its micro-ops address. Built and validated by
    compile_program, then shared and never modified."""

    def __init__(self, phases):
        self.phases = tuple(phases)
        self.rows = 1 + max(op.row for ph in self.phases for op in ph.ops)
        self.instrs = tuple(i for ph in self.phases for i in ph.instrs)
        counts = dict.fromkeys(MICRO_OP_KINDS, 0)
        for ph in self.phases:
            for op in ph.ops:
                counts[op.kind] += op.count
        self.counts = MappingProxyType(counts)
        self.n_ops = sum(len(ph.ops) for ph in self.phases)
        self._index = {(ph.name, ph.rnd): ph for ph in self.phases}
        self._energy = {}

    def phase(self, name, rnd):
        if (name, rnd) not in self._index:
            raise InvalidRound("no %s phase in round %d" % (name, rnd))
        return self._index[name, rnd]

    def run(self, plaintexts, keys):
        """Encrypt (batch, 16) uint8 blocks; returns the ciphertexts."""
        m = Machine(len(plaintexts), self.rows)
        m.inputs = (plaintexts, keys)
        m.execute(self.instrs)
        return m.output

    def energy_pJ(self, cost_table):
        """Energy of one pass, summed in program order as charging the
        micro-ops one by one would; computed once per cost table."""
        energies = tuple(cost_table[k].energy_pJ for k in MICRO_OP_KINDS)
        if energies not in self._energy:
            energy = dict(zip(MICRO_OP_KINDS, energies))
            total = 0.0
            for ph in self.phases:
                for op in ph.ops:
                    total += energy[op.kind] * op.count
            self._energy[energies] = total
        return self._energy[energies]


class TraceEvents:
    """A run's trace events in program order, each stamped with the start
    cycle of its stage and with bank 0: a bank farm runs one pass. An
    event is made only when it is read, so a trace holds no memory per
    event."""

    def __init__(self, program, cost_table, stage_starts):
        self.program = program
        self.energy = {k: cost_table[k].energy_pJ for k in MICRO_OP_KINDS}
        self.stage_starts = stage_starts

    def __len__(self):
        return self.program.n_ops

    def __iter__(self):
        energy = self.energy
        for ph in self.program.phases:
            cycle = self.stage_starts[ph.stage]
            for op in ph.ops:
                yield MicroOpEvent(cycle, 0, op.lane, op.kind, op.row, op.cols,
                                   energy[op.kind] * op.count)

    def jsonl(self):
        """The trace as JSON lines, one text chunk per phase: each event's
        line is json.dumps(event.to_dict(), sort_keys=True). Each distinct
        ops tuple (rounds 1-9 share theirs) is formatted once per call
        into a template whose only slot is its stage's start cycle."""
        dumps = json.dumps
        head = '{"bank": 0, "col_mask": '
        masks, kinds, templates = {}, {}, {}
        for ph in self.program.phases:
            pieces = templates.get(ph.ops)
            if pieces is None:
                # the lines of ph.ops, split where their cycles go
                pieces, tail = [], ""
                for lane, kind, row, col_mask, count in ph.ops:
                    mask = masks.get(col_mask)
                    if mask is None:
                        mask = masks[col_mask] = dumps(list(col_mask))
                    op = kinds.get((kind, count))
                    if op is None:
                        op = kinds[kind, count] = (
                            dumps(self.energy[kind] * count), dumps(kind))
                    pieces.append(tail + head + mask + ', "cycle": ')
                    tail = ', "energy_pJ": %s, "lane": %d, "op": %s, "row": %d}\n' % (
                        op[0], lane, op[1], row)
                pieces.append(tail)
                templates[ph.ops] = pieces
            yield dumps(self.stage_starts[ph.stage]).join(pieces)


def _row_index(rows):
    """Ascending contiguous rows as a slice."""
    return slice(rows[0], rows[-1] + 1)


def _read(row):
    return [("ROW_READ", row, CELL_COLS, 1)]


def _stage(dst_row, src_cols=CELL_COLS):
    """Offset writes of four nibbles from src_cols into row-buffer
    columns 0-3, then one write-back into dst_row."""
    return [("OFFSET_WRITE", -1, (src, dst), 1)
            for dst, src in enumerate(src_cols)] + [
        ("BUFFER_WRITEBACK", dst_row, CELL_COLS, 1)]


def _xor(dst, a, b):
    """Row a to the SA capacitors, row b to the latches, SA XOR, then the
    latches staged and written back into row dst."""
    return _instr(_xor_rows, (dst, a, b),
                  _read(a) + _read(b) + [("SA_XOR", -1, CELL_COLS, 1)] + _stage(dst))


@lru_cache(maxsize=32)
def compile_program(parallelism, cols):
    """Build the program of one configuration over LAYOUT. The lane width
    is checked here, once; the interpreter does no per-op checks."""
    if 2 * LAYOUT.bytes_per_row > cols:
        raise ConfigError("lane too narrow for bytes_per_row")
    D, K, M = LAYOUT.data_rows, LAYOUT.key_rows, LAYOUT.m2_rows
    s0, s1 = LAYOUT.scratch_rows
    t = LAYOUT.t_row
    data, key = _row_index(D), _row_index(K)
    sbox_batches = _ceil_div(LAYOUT.bytes_per_row, parallelism.sbox_units)
    m2_batches = _ceil_div(LAYOUT.bytes_per_row, parallelism.m2_units)

    load = _phase("load", [_instr(_load, (data, key), [
        ("ROW_WRITE", row, CELL_COLS, 1)
        for r in range(4) for row in (D[r], K[r])])])
    ark = _phase("add_round_key", [_xor(D[r], D[r], K[r]) for r in range(4)])
    sub = _phase("sub_bytes", [
        _instr(_sbox_row, (r, D[r]),
               _read(D[r]) + [("SBOX_EVAL", D[r], CELL_COLS, sbox_batches)])
        for r in range(4)])
    # ShiftRows: the S-box output of source column s sits at slot s % 2
    # of its lane's row.
    shift = []
    for r, src in enumerate(SHIFT_SOURCES):
        nibbles = [2 * (s % 2) + h for s in src[:2] for h in (0, 1)]
        perm = np.array(src)
        perm.flags.writeable = False
        shift.append(_instr(_shift_row, (r, D[r], perm), _stage(D[r], nibbles)))
    shift = _phase("shift_rows", shift, CROSSLANE_BYTES)
    # MixColumns: (a) M-2 of every data byte into the buffer rows, (b) the
    # shared term T = s0^s1^s2^s3 by pairwise XORs through scratch rows,
    # (c) per row: T, XOR in 2*S_i, 2*S_{i+1} and S_i, over the data row.
    mix = [_instr(_m2_row, (D[r], M[r]),
                  _read(D[r]) + [("M2_EVAL", D[r], CELL_COLS, m2_batches)]
                  + _stage(M[r])) for r in range(4)]
    mix += [_xor(s0, D[0], D[1]), _xor(s1, D[2], D[3]), _xor(t, s0, s1)]
    for r in range(4):
        ops = _read(t)
        for src in (M[r], M[(r + 1) % 4], D[r]):
            ops += _read(src) + [("SA_XOR", -1, CELL_COLS, 1)]
        mix.append(_instr(_mix_row, (D[r], t, M[r], M[(r + 1) % 4]),
                          ops + _stage(D[r])))
    mix = _phase("mix_columns", mix)
    key_update = _phase("key_update", [_instr(_key_update, (key, 0), [
        ("ROW_WRITE", row, CELL_COLS, 1) for row in K])])
    readout = _phase("readout", [_instr(_readout, (data,), [
        _read(row)[0] for row in D])])
    built = {ph.name: ph for ph in (load, ark, sub, shift, mix, key_update, readout)}

    # The round sequence, each phase stamped with its stage and round; a
    # key update writes the round key of its own round.
    phases = []
    for st in STAGES:
        for name in st.phases:
            ph = built[name]._replace(rnd=st.rnd, stage=st.name)
            if name == "key_update":
                ph = ph._replace(
                    instrs=(ph.instrs[0]._replace(args=(key, st.rnd)),))
            phases.append(ph)
    return Program(phases)
