"""Equivalence pins for the compiled micro-op program: the trace, the
per-block op counts and energy are fixed values, and ciphertexts match
the gfref reference for every parallelism setting."""

import copy
import hashlib
import json
import random

import numpy as np
import pytest

from aesimc import cli, gfref
from aesimc.config import RunConfig
from aesimc.crossbar import ConfigError, CostTable, TraceRecorder
from aesimc.pipeline import Pipeline
from aesimc.program import LAYOUT, Machine, SequencerError, compile_program
from aesimc.sequencer import LanePairSequencer, ParallelismConfig

PT_HEX = "00112233445566778899aabbccddeeff"
KEY_HEX = "000102030405060708090a0b0c0d0e0f"

# sha256 of `encrypt --trace` for the FIPS-197 vector above: 3,168 events
TRACE_SHA256 = "5ec7cf074fdd4e6af1e1b8e1de22103bc072003bd7bca0f2e2b8973d095ae296"

BLOCK_COUNTS = {
    "ROW_READ": 732,
    "ROW_WRITE": 96,
    "SA_XOR": 358,
    "SBOX_EVAL": 80,
    "M2_EVAL": 72,
    "OFFSET_WRITE": 1464,
    "BUFFER_WRITEBACK": 366,
}
BLOCK_ENERGY_PJ = 187905.604719764

# energy per block by (sbox_units, m2_units); units beyond the two bytes
# of a lane row change nothing
UNIT_ENERGY_PJ = {
    (1, 1): 206351.51786714414,
    (1, 2): 197613.98006049005,
    (2, 1): 196643.14252641777,
    (2, 2): BLOCK_ENERGY_PJ,
}


def random_pairs(seed, n):
    rng = random.Random(seed)
    pts = np.empty((n, 16), dtype=np.uint8)
    keys = np.empty((n, 16), dtype=np.uint8)
    for i in range(n):
        pts[i] = bytearray(rng.randbytes(16))
        keys[i] = bytearray(rng.randbytes(16))
    return pts, keys


def test_trace_jsonl_is_pinned(tmp_path, capsys):
    (tmp_path / "pts.txt").write_text(PT_HEX + "\n")
    (tmp_path / "key.txt").write_text(KEY_HEX + "\n")
    tr = tmp_path / "trace.jsonl"
    assert cli.main(["encrypt", str(tmp_path / "pts.txt"),
                     str(tmp_path / "key.txt"), "--out",
                     str(tmp_path / "ct.txt"), "--trace", str(tr)]) == 0
    assert hashlib.sha256(tr.read_bytes()).hexdigest() == TRACE_SHA256
    capsys.readouterr()


@pytest.mark.parametrize("sbox_units", range(1, 5))
@pytest.mark.parametrize("m2_units", range(1, 5))
def test_trace_jsonl_renders_each_event_as_json_dumps(sbox_units, m2_units):
    config = RunConfig({"parallelism.sbox_units": sbox_units,
                        "parallelism.m2_units": m2_units,
                        "schedule.crosslane_extra_cycles_per_byte": 2,
                        "cost.sa_xor.energy_pj": 0.0,
                        "cost.m2_eval.energy_pj": 1e-7})
    pipe = config.pipeline(trace_detail=True)
    pipe.run_block(bytes(16), bytes(16))
    events = pipe.trace.events
    assert "".join(events.jsonl()) == "".join(
        json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events)


def test_trace_templates_follow_each_cost_table_and_schedule():
    # three cost tables and two schedules over one program, rendered in
    # turn: each rendering is its own trace; -0.0 prints apart from 0.0
    pipes = [RunConfig(entries).pipeline(trace_detail=True) for entries in (
        {},
        {"cost.sa_xor.energy_pj": 0.0},
        {"cost.sa_xor.energy_pj": -0.0},
        {"schedule.crosslane_extra_cycles_per_byte": 2},
    )]
    assert len({id(pipe.program) for pipe in pipes}) == 1
    expected = ["".join(json.dumps(e.to_dict(), sort_keys=True) + "\n"
                        for e in pipe.trace.events) for pipe in pipes]
    assert len(set(expected)) == len(pipes)
    for _ in range(2):
        for pipe, text in zip(pipes, expected):
            assert "".join(pipe.trace.events.jsonl()) == text


@pytest.mark.parametrize("batch", [1, 64])
def test_machine_rows_are_contiguous_and_decode_to_the_fips_state(batch):
    program = compile_program(ParallelismConfig(), 16)
    m = Machine(batch, program.rows)
    # (row, batch, lane, nibble): a row operand is one contiguous block
    assert m.cells.shape == (program.rows, batch, 2, 4)
    assert all(m.cells[r].flags.c_contiguous for r in range(program.rows))
    pt = np.frombuffer(bytes.fromhex(PT_HEX), dtype=np.uint8)
    key = np.frombuffer(bytes.fromhex(KEY_HEX), dtype=np.uint8)
    m.inputs = (np.tile(pt, (batch, 1)), np.tile(key, (batch, 1)))
    m.execute(program.phase("load", 0).instrs)
    # FIPS-197 section 3.4: s[r][c] = in[r + 4c]
    for rows, block in ((LAYOUT.data_rows, pt), (LAYOUT.key_rows, key)):
        state = np.tile(block.reshape(4, 4).T, (batch, 1, 1))
        assert np.array_equal(m.state(rows), state)


@pytest.mark.parametrize("batch", [1, 7])
def test_block_counts_and_energy_are_pinned(batch):
    pipe = Pipeline()
    pts, keys = random_pairs(300 + batch, batch)
    _, cycles, energy = pipe.run_batch(pts, keys)
    assert cycles == 26
    assert energy == BLOCK_ENERGY_PJ
    assert pipe.trace.counts == BLOCK_COUNTS
    assert pipe.trace.energy_pJ == BLOCK_ENERGY_PJ


@pytest.mark.parametrize("sbox_units", range(1, 5))
@pytest.mark.parametrize("m2_units", range(1, 5))
def test_run_batch_matches_gfref(sbox_units, m2_units):
    pipe = Pipeline(parallelism=ParallelismConfig(sbox_units, m2_units))
    key = (min(sbox_units, 2), min(m2_units, 2))
    for batch in (1, 7, 256):
        pts, keys = random_pairs(1000 * sbox_units + 10 * m2_units + batch,
                                 batch)
        cts, cycles, energy = pipe.run_batch(pts, keys)
        assert cts.shape == (batch, 16)
        for i in range(batch):
            assert bytes(cts[i]) == gfref.encrypt_block(
                bytes(pts[i]), bytes(keys[i]))
        assert cycles == 26
        assert energy == UNIT_ENERGY_PJ[key]


def test_bank_farms_share_one_compiled_program():
    config = RunConfig()
    farms = [config.bank_farm(banks=2), config.bank_farm(banks=3)]
    pts, keys = random_pairs(400, 6)
    results = [farm.run_banked(pts, keys)[0] for farm in farms]
    assert np.array_equal(results[0], results[1])
    programs = {id(farm.pipeline.program) for farm in farms}
    assert len(programs) == 1
    # one fold serves every bank
    assert all(farm.pipeline.trace.energy_pJ == BLOCK_ENERGY_PJ
               for farm in farms)


WRITE_KINDS = ("ROW_WRITE", "BUFFER_WRITEBACK")


def _op_rows(ins, kinds):
    """The (row, lane) cells that ins's ops of the given kinds address."""
    return {(op.row, op.lane) for op in ins.ops if op.kind in kinds}


def test_each_instructions_ops_name_the_rows_it_reads_and_writes():
    program = compile_program(ParallelismConfig(), 16)
    pts, keys = cli._random_blocks(11, 8)
    m = Machine(len(pts), program.rows)
    m.inputs = (pts, keys)
    for ins in program.instrs:
        reads = _op_rows(ins, ("ROW_READ",))
        writes = _op_rows(ins, WRITE_KINDS)
        probe = copy.deepcopy(m)
        before = m.cells.copy()
        m.execute([ins])
        # the rows fn changes are rows its ops write
        changed = np.nonzero((m.cells != before).any(axis=(1, 3)))
        assert set(zip(*changed)) <= writes, ins
        # nothing it does not read can change what it writes
        for row in range(program.rows):
            for lane in (0, 1):
                if (row, lane) not in reads:
                    probe.cells[row, :, lane] ^= 0x0F
        probe.execute([ins])
        for row, lane in writes:
            assert np.array_equal(probe.cells[row, :, lane],
                                  m.cells[row, :, lane]), ins
        assert probe.sub.keys() == m.sub.keys(), ins
        assert all(np.array_equal(probe.sub[r], m.sub[r]) for r in m.sub), ins
        assert np.array_equal(probe.output, m.output), ins


def test_every_instruction_and_every_written_row_is_load_bearing():
    # Mutation testing (DeMillo, Lipton & Sayward, 1978): skipping any one
    # instruction, or flipping one bit of a row an instruction writes just
    # after it runs, must give a wrong ciphertext or raise. A mutant that
    # survives names a dead instruction, to be deleted.
    program = compile_program(ParallelismConfig(), 16)
    pts, keys = cli._random_blocks(2022, 64)
    expected = np.array([list(gfref.encrypt_block(bytes(pt), bytes(key)))
                         for pt, key in zip(pts, keys)], dtype=np.uint8)
    instrs = program.instrs

    def survives(mutant, rest):
        try:
            mutant.execute(rest)
        # a ShiftRows with no S-box outputs, a key update with no key
        # generator or one out of round order
        except (KeyError, AttributeError, SequencerError):
            return False
        return np.array_equal(mutant.output, expected)

    m = Machine(len(pts), program.rows)
    m.inputs = (pts, keys)
    survivors, flips = [], 0
    for i, ins in enumerate(instrs):
        if survives(copy.deepcopy(m), instrs[i + 1:]):
            survivors.append(("skip", i))
        m.execute([ins])
        for row in sorted({row for row, _ in _op_rows(ins, WRITE_KINDS)}):
            mutant = copy.deepcopy(m)
            mutant.cells[row, :, 0, 0] ^= 1
            flips += 1
            if survives(mutant, instrs[i + 1:]):
                survivors.append(("flip", i, row))
    assert np.array_equal(m.output, expected)
    assert survivors == []
    assert (len(instrs), flips) == (235, 231)


def test_stepwise_phases_match_the_whole_program():
    pts, keys = random_pairs(600, 5)
    pipe = Pipeline(trace_detail=True)
    cts, _, _ = pipe.run_batch(pts, keys)
    trace = TraceRecorder(detail=True)
    seq = LanePairSequencer(CostTable.default(), trace, batch=5)
    seq.load_block(pts, keys)
    seq.seq_add_round_key()
    for rnd in range(1, 11):
        seq.seq_sub_bytes()
        seq.seq_shift_rows()
        if rnd < 10:
            seq.seq_mix_columns()
        seq.seq_key_round_update(rnd)
        seq.seq_add_round_key()
    assert np.array_equal(seq.readout_block(), cts)
    assert trace.counts == pipe.trace.counts
    assert trace.energy_pJ == pipe.trace.energy_pJ
    strip = [(e.lane, e.op, e.row, e.col_mask, e.energy_pJ) for e in trace.events]
    assert strip == [(e.lane, e.op, e.row, e.col_mask, e.energy_pJ)
                     for e in pipe.trace.events]
    assert seq.crosslane_bytes == 80


def test_compile_rejects_unsupported_configurations():
    # a lane row holds two bytes, four nibble cells
    with pytest.raises(ConfigError, match="lane too narrow for bytes_per_row"):
        compile_program(ParallelismConfig(), 3)
    with pytest.raises(ConfigError, match="lane too narrow for bytes_per_row"):
        Pipeline(cols=3)
