"""Schedule, streaming, banking and energy accounting of the pipeline."""

import random

import numpy as np
import pytest

from aesimc.crossbar import ConfigError, CostTable, MICRO_OP_KINDS, OpCost
from aesimc.pipeline import BankFarm, Pipeline, Schedule


def random_pairs(seed, n):
    rng = random.Random(seed)
    return (
        np.array([bytearray(rng.randbytes(16)) for _ in range(n)], dtype=np.uint8),
        np.array([bytearray(rng.randbytes(16)) for _ in range(n)], dtype=np.uint8),
    )


PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CT = "69c4e0d86a7b0430d8cdb78070b4c55a"


def test_default_schedule_totals_26_cycles():
    sched = Schedule.from_cost_table(CostTable.default())
    assert sched.total_cycles_per_block == 26
    names = [st.name for st in sched.stages]
    assert names[0] == "load" and names[1] == "initial_ark"
    assert names[-1] == "drain" and len(names) == 13


def test_schedule_rejects_declared_total_mismatch():
    # a schedule rejects a stage budget below zero and a total of zero
    with pytest.raises(ConfigError, match="negative stage budget: round_1"):
        Schedule.from_cost_table(CostTable.default(),
                                 crosslane_extra_cycles_per_byte=-1)
    zero = CostTable({k: OpCost(0, 1.0) for k in MICRO_OP_KINDS})
    with pytest.raises(ConfigError, match="at least one cycle"):
        Schedule.from_cost_table(zero)
    with pytest.raises(ConfigError, match="at least one cycle"):
        Pipeline(cost_table=zero)


def test_crosslane_penalty_lands_on_every_round():
    # 8 bytes cross the lane port in each of the 10 rounds
    pipe = Pipeline(crosslane_extra_cycles_per_byte=2)
    ct, cycles, energy = pipe.run_block(PT, KEY)
    assert ct.hex() == CT
    assert cycles == 26 + 10 * 16 == 186
    assert energy == Pipeline().run_block(PT, KEY)[2]
    budgets = {st.name: st.cycles for st in pipe.schedule.stages}
    assert budgets["round_1"] == budgets["round_10"] == 2 + 16
    assert budgets["load"] == budgets["initial_ark"] == 1


def test_doubled_latencies_double_the_recomputed_schedule():
    base = Schedule.from_cost_table(CostTable.default())
    doubled = Schedule.from_cost_table(CostTable.default().scaled_latency(2))
    assert doubled.total_cycles_per_block == 2 * base.total_cycles_per_block


def test_run_block_reproduces_published_vector_and_latency():
    ct, cycles, energy = Pipeline().run_block(PT, KEY)
    assert ct.hex() == CT
    assert cycles == 26
    assert energy > 0


def test_per_block_energy_matches_power_times_latency():
    # P * L / F = 0.098 W * 26 / 13.56 MHz in picojoules
    _, _, energy = Pipeline().run_block(PT, KEY)
    assert energy == pytest.approx(0.098 * 26 / 13.56e6 * 1e12, rel=1e-9)
    assert energy == pytest.approx(0.18e6, rel=0.05)


def test_zero_energy_table_keeps_cycles():
    cost = CostTable({k: OpCost(1, 0.0) for k in MICRO_OP_KINDS})
    pipe = Pipeline(cost_table=cost)
    ct, cycles, energy = pipe.run_block(PT, KEY)
    assert ct.hex() == CT
    assert cycles == 26
    assert energy == 0.0


def test_costs_do_not_affect_correctness():
    cost = CostTable(
        {k: OpCost(3, 7.5 * i) for i, k in enumerate(MICRO_OP_KINDS, start=1)}
    )
    ct, cycles, _ = Pipeline(cost_table=cost).run_block(PT, KEY)
    assert ct.hex() == CT
    assert cycles == Schedule.from_cost_table(cost).total_cycles_per_block


def test_stream_cycles_formula():
    pipe = Pipeline()
    assert pipe.stream_cycles(1) == 26
    assert pipe.stream_cycles(10) == 26 + 9 * pipe.initiation_interval
    pipelined = Pipeline(initiation_interval=2)
    assert pipelined.stream_cycles(10) == 26 + 9 * 2
    with pytest.raises(ConfigError):
        pipe.stream_cycles(0)


def test_trace_events_sum_to_reported_energy():
    pipe = Pipeline(trace_detail=True)
    _, _, energy = pipe.run_block(PT, KEY)
    assert sum(e.energy_pJ for e in pipe.trace.events) == pytest.approx(
        energy, rel=1e-9
    )
    cycles = [e.cycle for e in pipe.trace.events]
    assert cycles == sorted(cycles)
    assert cycles[0] == 0 and cycles[-1] < 26


# energy_pJ_total of the 37 blocks below: each bank's share is summed in
# bank order, so the last digit moves with the split
BANKED_ENERGY_PJ = {
    1: 6952507.374631268,
    2: 6952507.374631268,
    4: 6952507.374631269,
    8: 6952507.374631269,
}


@pytest.mark.parametrize("banks", [1, 2, 4, 8])
def test_banked_results_independent_of_bank_count(banks):
    pts, keys = random_pairs(202, 37)
    ref_cts, _ = BankFarm(banks=1).run_banked(pts, keys)
    cts, report = BankFarm(banks=banks).run_banked(pts, keys)
    assert np.array_equal(cts, ref_cts)
    assert report.blocks == 37
    # wall-clock cycles follow the most loaded bank
    most_loaded = -(-37 // banks)
    assert report.cycles_total == 26 + (most_loaded - 1) * 26
    assert report.energy_pJ_total == BANKED_ENERGY_PJ[banks]


def test_more_banks_reduce_wall_cycles():
    pts, keys = random_pairs(203, 64)
    walls = [
        BankFarm(banks=b).run_banked(pts, keys)[1].cycles_total for b in (1, 2, 4)
    ]
    assert walls[0] == 2 * walls[1] == 4 * walls[2]


def test_bank_farm_validates_inputs():
    with pytest.raises(ConfigError):
        BankFarm(banks=0)
    with pytest.raises(ConfigError):
        BankFarm(banks=1).run_banked(
            np.empty((0, 16), dtype=np.uint8), np.empty((0, 16), dtype=np.uint8)
        )


def test_mismatched_plaintext_and_key_counts_rejected():
    pts, keys = random_pairs(204, 5)
    with pytest.raises(ConfigError, match="5 plaintext blocks but 3 keys"):
        Pipeline().run_batch(pts, keys[:3])
    with pytest.raises(ConfigError, match="3 plaintext blocks but 5 keys"):
        BankFarm(banks=2).run_banked(pts[:3], keys)
    with pytest.raises(ConfigError, match="whole 16-byte blocks"):
        Pipeline().run_batch(pts.ravel()[:20], keys[:1])
