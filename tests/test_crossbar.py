"""Operation contracts of the crossbar model: addressing, value ranges,
sense-amplifier XOR, row buffer semantics, and trace accounting."""

import numpy as np
import pytest

from aesimc.crossbar import (
    AddressOutOfRange,
    ConfigError,
    CostTable,
    CrossbarArray,
    EmptyBuffer,
    MICRO_OP_KINDS,
    OpCost,
    TraceRecorder,
    UninitializedSense,
    ValueOutOfRange,
)


def make_array(detail=False, batch=1, cost=None):
    trace = TraceRecorder(detail=detail)
    return CrossbarArray(16, 16, cost or CostTable.default(), trace, batch=batch), trace


# -- cost table ---------------------------------------------------------


def test_cost_table_requires_all_kinds():
    entries = {k: OpCost(1, 1.0) for k in MICRO_OP_KINDS}
    CostTable(entries)  # complete: ok
    del entries["SA_XOR"]
    with pytest.raises(ConfigError):
        CostTable(entries)


def test_cost_table_rejects_unknown_kind():
    entries = {k: OpCost(1, 1.0) for k in MICRO_OP_KINDS}
    entries["TELEPORT"] = OpCost(1, 1.0)
    with pytest.raises(ConfigError):
        CostTable(entries)


def test_cost_table_rejects_negative_cost():
    entries = {k: OpCost(1, 1.0) for k in MICRO_OP_KINDS}
    entries["ROW_READ"] = OpCost(-1, 1.0)
    with pytest.raises(ConfigError):
        CostTable(entries)


# -- addressing and value range ----------------------------------------


def test_write_cell_rejects_bad_addresses():
    xb, _ = make_array()
    with pytest.raises(AddressOutOfRange):
        xb.write_cell(16, 0, 1)
    with pytest.raises(AddressOutOfRange):
        xb.write_cell(0, -1, 1)


def test_cells_hold_only_nibbles():
    xb, _ = make_array()
    with pytest.raises(ValueOutOfRange):
        xb.write_cell(0, 0, 16)
    with pytest.raises(ValueOutOfRange):
        xb.write_row(0, [0, 1], [3, 17])
    xb.write_cell(0, 0, 15)
    assert int(xb.peek_cell(0, 0)[0]) == 15


def test_write_row_costs_one_row_write():
    xb, trace = make_array()
    xb.write_row(2, [0, 1, 2, 3], [1, 2, 3, 4])
    assert trace.counts["ROW_WRITE"] == 1
    assert list(xb.peek_row(2)[0, :4]) == [1, 2, 3, 4]


# -- sense amplifier XOR ------------------------------------------------


def test_sa_xor_exhaustive_nibble_pairs():
    # all 256 (a, b) nibble pairs in one batched shot
    pairs = [(a, b) for a in range(16) for b in range(16)]
    xb, _ = make_array(batch=len(pairs))
    xb.cells[:, 0, 0] = [a for a, _ in pairs]
    xb.cells[:, 1, 0] = [b for _, b in pairs]
    xb.read_row_to_capacitor(0, [0])
    xb.read_row_to_latch(1, [0])
    out = xb.sa_xor([0])
    assert all(int(out[i, 0]) == (a ^ b) for i, (a, b) in enumerate(pairs))


def test_sa_xor_requires_loaded_columns():
    xb, _ = make_array()
    with pytest.raises(UninitializedSense):
        xb.sa_xor([0])
    xb.read_row_to_capacitor(0, [0])
    with pytest.raises(UninitializedSense):
        xb.sa_xor([0])  # latch side still empty
    xb.read_row_to_latch(1, [0])
    xb.sa_xor([0])


def test_reads_are_non_destructive():
    xb, _ = make_array()
    xb.write_row(3, [0, 1], [5, 9])
    before = xb.peek_row(3).copy()
    xb.read_row_to_capacitor(3, [0, 1])
    xb.read_row_to_latch(3, [0, 1])
    assert np.array_equal(xb.peek_row(3), before)


# -- row buffer ---------------------------------------------------------


def test_write_back_requires_staged_data():
    xb, _ = make_array()
    with pytest.raises(EmptyBuffer):
        xb.write_back_row(0)


def test_write_back_touches_only_staged_columns():
    xb, _ = make_array()
    xb.write_row(0, [0, 1, 2], [7, 8, 9])
    xb.offset_write(1, 1, 4)
    xb.write_back_row(0)
    assert list(xb.peek_row(0)[0, :3]) == [7, 4, 9]
    # buffer cleared after write-back
    with pytest.raises(EmptyBuffer):
        xb.write_back_row(0)


def test_offset_write_records_source_and_destination():
    xb, trace = make_array(detail=True)
    xb.offset_write(3, 5, 2)
    assert trace.events[-1].op == "OFFSET_WRITE"
    assert trace.events[-1].col_mask == (3, 5)


# -- trace accounting ---------------------------------------------------


def test_trace_energy_is_sum_of_op_energies():
    cost = CostTable.default()
    xb, trace = make_array(detail=True, cost=cost)
    xb.write_row(0, [0, 1], [1, 2])
    xb.read_row_to_capacitor(0, [0, 1])
    xb.read_row_to_latch(0, [0, 1])
    xb.sa_xor([0, 1])
    expected = (
        cost["ROW_WRITE"].energy_pJ
        + 2 * cost["ROW_READ"].energy_pJ
        + cost["SA_XOR"].energy_pJ
    )
    assert trace.energy_pJ == pytest.approx(expected, rel=1e-12)
    assert sum(e.energy_pJ for e in trace.events) == pytest.approx(
        trace.energy_pJ, rel=1e-12
    )


def test_identical_op_sequences_produce_identical_traces():
    def run():
        xb, trace = make_array(detail=True)
        xb.write_row(1, [0, 1], [3, 4])
        xb.read_row_to_capacitor(1, [0, 1])
        xb.read_row_to_latch(1, [0, 1])
        xb.sa_xor([0, 1])
        return [e.to_dict() for e in trace.events], trace.counts, trace.energy_pJ

    assert run() == run()


def test_counts_only_mode_skips_event_objects():
    xb, trace = make_array(detail=False)
    xb.write_row(0, [0], [1])
    assert trace.events == []
    assert trace.counts["ROW_WRITE"] == 1


def test_count_eval_batches_accumulate():
    xb, trace = make_array()
    xb.count_eval("SBOX_EVAL", 0, [0, 1], 3)
    xb.count_eval("M2_EVAL", 0, [0, 1], 2)
    assert trace.counts["SBOX_EVAL"] == 3
    assert trace.counts["M2_EVAL"] == 2
    with pytest.raises(ConfigError):
        xb.count_eval("ROW_READ", 0, [0], 1)


def test_geometry_must_be_positive():
    trace = TraceRecorder()
    with pytest.raises(ConfigError):
        CrossbarArray(0, 16, CostTable.default(), trace)
