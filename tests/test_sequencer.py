"""Phase-level checks of the lane-pair sequencer against the software
reference, plus the parallelism and cross-lane accounting properties."""

import random

import numpy as np
import pytest

from aesimc import gfref
from aesimc.crossbar import CostTable, TraceRecorder
from aesimc.sequencer import (
    ConfigError,
    InvalidRound,
    KeyGenState,
    LaneBusy,
    LanePairSequencer,
    ParallelismConfig,
    SequencerError,
)


def make_seq(batch=1, parallelism=None):
    trace = TraceRecorder()
    seq = LanePairSequencer(
        CostTable.default(), trace, parallelism=parallelism, batch=batch
    )
    return seq, trace


def key_state(seq):
    """Zero-cost decoded 4x4 round key held in the key rows."""
    return seq.machine.state(seq.layout.key_rows)


def encrypt_loaded(seq):
    """Step every phase between load and readout: the initial
    AddRoundKey plus the 10 rounds."""
    seq.seq_add_round_key()
    for rnd in range(1, 11):
        seq.seq_sub_bytes()
        seq.seq_shift_rows()
        if rnd < 10:
            seq.seq_mix_columns()
        seq.seq_key_round_update(rnd)
        seq.seq_add_round_key()


def golden_state(block):
    return np.array(
        [[gfref.state_from_block(block)[r][c] for c in range(4)] for r in range(4)],
        dtype=np.uint8,
    )


def random_pairs(seed, n):
    rng = random.Random(seed)
    return (
        np.array([bytearray(rng.randbytes(16)) for _ in range(n)], dtype=np.uint8),
        np.array([bytearray(rng.randbytes(16)) for _ in range(n)], dtype=np.uint8),
    )


# -- state mapping ------------------------------------------------------


def test_load_and_readout_round_trip():
    seq, _ = make_seq()
    pt = bytes(range(16))
    key = bytes(range(16, 32))
    seq.load_block(np.frombuffer(pt, np.uint8).reshape(1, 16),
                   np.frombuffer(key, np.uint8).reshape(1, 16))
    assert np.array_equal(seq.peek_state()[0], golden_state(pt))
    assert np.array_equal(key_state(seq)[0], golden_state(key))
    assert bytes(seq.readout_block()[0]) == pt


# -- per-phase equivalence with the software reference ------------------


def phase_fixture(seed=101, batch=32):
    seq, trace = make_seq(batch=batch)
    pts, keys = random_pairs(seed, batch)
    seq.load_block(pts, keys)
    return seq, pts, keys


def test_add_round_key_matches_reference():
    seq, pts, keys = phase_fixture()
    seq.seq_add_round_key()
    for i in range(len(pts)):
        st = gfref.add_round_key(
            gfref.state_from_block(bytes(pts[i])),
            gfref.round_key_bytes(gfref.expand_key(bytes(keys[i])), 0),
        )
        assert np.array_equal(seq.peek_state()[i], np.array(st))


def test_sub_bytes_shift_rows_matches_reference():
    seq, pts, _ = phase_fixture(seed=102)
    seq.seq_sub_bytes()
    seq.seq_shift_rows()
    for i in range(len(pts)):
        st = gfref.shift_rows(gfref.sub_bytes(gfref.state_from_block(bytes(pts[i]))))
        assert np.array_equal(seq.peek_state()[i], np.array(st))


def test_mix_columns_matches_reference():
    seq, pts, _ = phase_fixture(seed=103)
    seq.seq_sub_bytes()
    seq.seq_shift_rows()
    seq.seq_mix_columns()
    for i in range(len(pts)):
        st = gfref.mix_columns(
            gfref.shift_rows(gfref.sub_bytes(gfref.state_from_block(bytes(pts[i]))))
        )
        assert np.array_equal(seq.peek_state()[i], np.array(st))


def test_key_round_update_matches_reference():
    seq, _, keys = phase_fixture(seed=104)
    for rnd in range(1, 11):
        seq.seq_key_round_update(rnd)
        for i in (0, 7, 31):
            expected = gfref.round_key_bytes(gfref.expand_key(bytes(keys[i])), rnd)
            assert np.array_equal(
                key_state(seq)[i], golden_state(bytes(expected))
            )


# -- end-to-end ---------------------------------------------------------

FIPS_VECTORS = (
    ("3243f6a8885a308d313198a2e0370734",
     "2b7e151628aed2a6abf7158809cf4f3c",
     "3925841d02dc09fbdc118597196a0b32"),
    ("00112233445566778899aabbccddeeff",
     "000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
)


def test_encrypt_fips_vectors():
    for pt_hex, key_hex, ct_hex in FIPS_VECTORS:
        seq, _ = make_seq()
        seq.load_block(
            np.frombuffer(bytes.fromhex(pt_hex), np.uint8).reshape(1, 16),
            np.frombuffer(bytes.fromhex(key_hex), np.uint8).reshape(1, 16),
        )
        encrypt_loaded(seq)
        assert bytes(seq.readout_block()[0]).hex() == ct_hex


def test_encrypt_random_batch_matches_reference():
    batch = 256
    seq, _ = make_seq(batch=batch)
    pts, keys = random_pairs(105, batch)
    seq.load_block(pts, keys)
    encrypt_loaded(seq)
    cts = seq.readout_block()
    for i in range(batch):
        assert bytes(cts[i]) == gfref.encrypt_block(bytes(pts[i]), bytes(keys[i]))


# -- parallelism and cross-lane accounting ------------------------------


@pytest.mark.parametrize("units", range(1, 9))
def test_sub_bytes_batches_follow_sbox_units(units):
    seq, trace = make_seq(parallelism=ParallelismConfig(sbox_units=units))
    pts, keys = random_pairs(106, 1)
    seq.load_block(pts, keys)
    trace.counts["SBOX_EVAL"] = 0
    seq.seq_sub_bytes()
    bpr = seq.layout.bytes_per_row
    expected_per_row = -(-bpr // units)
    # 2 lanes x 4 data rows
    assert trace.counts["SBOX_EVAL"] == 8 * expected_per_row


def test_shift_rows_crosses_eight_bytes_per_block():
    seq, _, _ = phase_fixture(seed=107, batch=4)
    seq.seq_sub_bytes()
    seq.seq_shift_rows()
    assert seq.crosslane_bytes == 8


def test_ciphertext_invariant_under_parallelism():
    pts, keys = random_pairs(108, 16)
    reference = None
    for sbox_units in (1, 2, 4):
        for m2_units in (1, 3):
            seq, _ = make_seq(
                batch=16,
                parallelism=ParallelismConfig(sbox_units, m2_units),
            )
            seq.load_block(pts, keys)
            encrypt_loaded(seq)
            cts = seq.readout_block().tobytes()
            if reference is None:
                reference = cts
            assert cts == reference


# -- protocol errors ----------------------------------------------------


def test_key_rounds_must_advance_in_order():
    key = np.zeros((1, 16), dtype=np.uint8)
    keygen = KeyGenState(key)
    with pytest.raises(InvalidRound):
        keygen.next_round(2)
    keygen.next_round(1)
    with pytest.raises(InvalidRound):
        keygen.next_round(1)
    with pytest.raises(InvalidRound):
        keygen.next_round(11)


def test_lane_busy_protocol():
    seq, _ = make_seq()
    pts, keys = random_pairs(109, 1)
    with pytest.raises(LaneBusy):
        seq.readout_block()
    seq.load_block(pts, keys)
    with pytest.raises(LaneBusy):
        seq.load_block(pts, keys)
    seq.readout_block()
    seq.load_block(pts, keys)  # idle again


def test_shift_rows_requires_pending_sub_bytes():
    seq, _ = make_seq()
    pts, keys = random_pairs(110, 1)
    seq.load_block(pts, keys)
    with pytest.raises(SequencerError):
        seq.seq_shift_rows()


def test_parallelism_units_must_be_positive():
    with pytest.raises(ConfigError):
        ParallelismConfig(sbox_units=0)
