"""GF(2^8) arithmetic and golden AES reference, checked against
independent oracles: a carry-less polynomial multiply, exhaustive inverse
search, the published FIPS-197 S-box table and worked examples. The
batched form of the reference that `verify` runs is pinned to
encrypt_block."""

import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from aesimc import cli, gfref
from aesimc.gfref import (
    MIX_MATRIX,
    T0,
    T1,
    T2,
    T3,
    add_round_key,
    block_from_state,
    encrypt_block,
    expand_key,
    gf_inverse,
    gf_mul,
    mix_columns,
    mul3,
    round_key_bytes,
    sbox_computed,
    sbox_lut,
    shift_rows,
    state_from_block,
    sub_bytes,
    xtime,
)


def clmul_mod(a, b, poly=0x11B):
    """Oracle: carry-less multiply as polynomials over GF(2), then reduce
    by long division. Independent of the shift-and-xor implementation."""
    product = 0
    for i in range(8):
        if (b >> i) & 1:
            product ^= a << i
    for shift in range(product.bit_length() - 9, -1, -1):
        if (product >> (shift + 8)) & 1:
            product ^= poly << shift
    return product


def inverse_by_search(a):
    """Oracle: exhaustive search for b with a*b = 1, using clmul_mod."""
    if a == 0:
        return 0
    for b in range(1, 256):
        if clmul_mod(a, b) == 1:
            return b
    raise AssertionError("no inverse found for 0x%02x" % a)


# FIPS-197 Figure 7: the published S-box table.
FIPS_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)


class TestXtime:
    def test_zero(self):
        assert xtime(0x00) == 0x00

    def test_no_overflow(self):
        # oracle: clmul_mod(0x57, 2) = 0xAE
        assert clmul_mod(0x57, 0x02) == 0xAE
        assert xtime(0x57) == 0xAE

    def test_overflow_branch(self):
        assert clmul_mod(0xAE, 0x02) == 0x47
        assert xtime(0xAE) == 0x47

    def test_exhaustive_vs_oracle(self):
        for a in range(256):
            assert xtime(a) == clmul_mod(a, 0x02)


class TestMul3:
    def test_zero(self):
        assert mul3(0x00) == 0x00

    def test_examples(self):
        assert clmul_mod(0x57, 0x03) == 0xF9
        assert mul3(0x57) == 0xF9
        # operand from the worked MixColumns column (0x00, 0x44, 0x88, 0xCC)
        assert clmul_mod(0x44, 0x03) == 0xCC
        assert mul3(0x44) == 0xCC

    def test_exhaustive_vs_oracle(self):
        for a in range(256):
            assert mul3(a) == clmul_mod(a, 0x03)


def test_product_tables_match_the_oracle():
    for a in range(256):
        assert gfref.XTIME[a] == clmul_mod(a, 2)
        assert gfref.MUL3[a] == clmul_mod(a, 3)
    assert len(gfref.XTIME) == len(gfref.MUL3) == 256


class TestGfMul:
    def test_identity(self):
        for a in range(256):
            assert gf_mul(a, 0x01) == a

    def test_matches_xtime(self):
        for a in range(256):
            assert gf_mul(0x02, a) == xtime(a)
            assert gf_mul(a, 0x03) == mul3(a)

    def test_inverse_pair(self):
        assert clmul_mod(0x53, 0xCA) == 0x01
        assert gf_mul(0x53, 0xCA) == 0x01

    def test_exhaustive_vs_oracle(self):
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == clmul_mod(a, b)


class TestGfInverse:
    def test_conventions(self):
        assert gf_inverse(0x00) == 0x00
        assert gf_inverse(0x01) == 0x01

    def test_known_pair(self):
        assert inverse_by_search(0x53) == 0xCA
        assert gf_inverse(0x53) == 0xCA

    def test_exhaustive(self):
        for a in range(256):
            assert gf_inverse(a) == inverse_by_search(a)

    def test_product_is_one(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inverse(a)) == 0x01


class TestSbox:
    def test_zero_maps_to_affine_constant(self):
        assert sbox_computed(0x00) == 0x63
        assert FIPS_SBOX[0x00] == 0x63

    def test_known_value(self):
        assert sbox_computed(0x53) == 0xED
        assert FIPS_SBOX[0x53] == 0xED

    def test_matches_fips_table(self):
        for a in range(256):
            assert sbox_computed(a) == FIPS_SBOX[a]

    def test_lut_equals_computed(self):
        for a in range(256):
            assert sbox_lut(a) == sbox_computed(a)


class TestStateLayout:
    def test_column_major_round_trip(self):
        block = bytes(range(16))
        state = state_from_block(block)
        assert state[1][0] == 0x01 and state[0][1] == 0x04
        assert block_from_state(state) == block

    def test_bad_length(self):
        with pytest.raises(ValueError):
            state_from_block(b"\x00" * 15)


class TestSubBytes:
    def test_all_zero(self):
        state = state_from_block(b"\x00" * 16)
        assert block_from_state(sub_bytes(state)) == b"\x63" * 16

    def test_bytewise_decomposition(self):
        rng = random.Random(1)
        block = bytes(rng.randrange(256) for _ in range(16))
        out = sub_bytes(state_from_block(block))
        assert block_from_state(out) == bytes(sbox_lut(b) for b in block)


class TestShiftRows:
    def test_row_rotation(self):
        state = [[0] * 4, [0xA, 0xB, 0xC, 0xD], [0] * 4, [0] * 4]
        assert shift_rows(state)[1] == [0xB, 0xC, 0xD, 0xA]

    def test_identical_columns_unchanged(self):
        state = [[r] * 4 for r in range(4)]
        assert shift_rows(state) == state

    def test_fourth_power_is_identity(self):
        rng = random.Random(2)
        state = [[rng.randrange(256) for _ in range(4)] for _ in range(4)]
        out = state
        for _ in range(4):
            out = shift_rows(out)
        assert out == state


class TestMixColumns:
    def test_all_zero(self):
        state = [[0] * 4 for _ in range(4)]
        assert mix_columns(state) == state

    def test_worked_column(self):
        # column (0x00, 0x44, 0x88, 0xCC):
        # out0 = 2*00 ^ 3*44 ^ 88 ^ CC, via the clmul oracle
        expected = (
            clmul_mod(0x00, 2) ^ clmul_mod(0x44, 3) ^ 0x88 ^ 0xCC
        )
        assert expected == 0x88
        state = [[0x00] * 4, [0x44] * 4, [0x88] * 4, [0xCC] * 4]
        assert mix_columns(state)[0][0] == expected

    def test_fips_round1(self):
        # FIPS-197 Appendix B, round 1: after ShiftRows -> after MixColumns
        after_shift = [
            [0xD4, 0xE0, 0xB8, 0x1E],
            [0xBF, 0xB4, 0x41, 0x27],
            [0x5D, 0x52, 0x11, 0x98],
            [0x30, 0xAE, 0xF1, 0xE5],
        ]
        after_mix = [
            [0x04, 0xE0, 0x48, 0x28],
            [0x66, 0xCB, 0xF8, 0x06],
            [0x81, 0x19, 0xD3, 0x26],
            [0xE5, 0x9A, 0x7A, 0x4C],
        ]
        assert mix_columns(after_shift) == after_mix

    def test_shared_term_decomposition(self):
        # T = s0^s1^s2^s3; out0 = T ^ 2*s0 ^ 2*s1 ^ s0 must equal the
        # matrix form 2*s0 ^ 3*s1 ^ s2 ^ s3. Exhaustive per-byte sweeps
        # per position plus random columns.
        def matrix_row0(col):
            return (
                clmul_mod(col[0], 2)
                ^ clmul_mod(col[1], 3)
                ^ col[2]
                ^ col[3]
            )

        def shared_term_row0(col):
            t = col[0] ^ col[1] ^ col[2] ^ col[3]
            return t ^ clmul_mod(col[0], 2) ^ clmul_mod(col[1], 2) ^ col[0]

        for pos in range(4):
            for v in range(256):
                col = [0x35] * 4
                col[pos] = v
                assert shared_term_row0(col) == matrix_row0(col)
        rng = random.Random(3)
        for _ in range(10000):
            col = [rng.randrange(256) for _ in range(4)]
            assert shared_term_row0(col) == matrix_row0(col)


class TestAddRoundKey:
    def test_zero_key_identity(self):
        state = state_from_block(bytes(range(16)))
        assert add_round_key(state, b"\x00" * 16) == state

    def test_involution(self):
        rng = random.Random(4)
        block = bytes(rng.randrange(256) for _ in range(16))
        key = bytes(rng.randrange(256) for _ in range(16))
        state = state_from_block(block)
        assert add_round_key(add_round_key(state, key), key) == state

    def test_fips_initial(self):
        # FIPS-197 Appendix B: input ^ key = round-0 output
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        out = add_round_key(state_from_block(pt), key)
        expected = bytes(p ^ k for p, k in zip(pt, key))
        assert block_from_state(out) == expected


class TestExpandKey:
    def test_zero_key(self):
        # W_4 = SubWord(RotWord(0)) ^ rcon_1 = 0x63636363 ^ 0x01000000
        words = expand_key(b"\x00" * 16)
        assert words[4] == 0x62636363

    def test_first_words_equal_key(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        words = expand_key(key)
        assert words[:4] == [0x2B7E1516, 0x28AED2A6, 0xABF71588, 0x09CF4F3C]

    def test_fips_appendix_a(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        words = expand_key(key)
        assert words[4:8] == [0xA0FAFE17, 0x88542CB1, 0x23A33939, 0x2A6C7605]
        assert words[40:44] == [0xD014F9A8, 0xC9EE2589, 0xE13F0CC8, 0xB6630CA6]

    def test_round_key_slicing(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        words = expand_key(key)
        assert round_key_bytes(words, 0) == key


class TestEncryptBlock:
    def test_fips_appendix_c(self):
        ct = encrypt_block(
            bytes.fromhex("00112233445566778899aabbccddeeff"),
            bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        )
        assert ct == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_fips_appendix_b(self):
        ct = encrypt_block(
            bytes.fromhex("3243f6a8885a308d313198a2e0370734"),
            bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
        )
        assert ct == bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

    def test_injective_under_fixed_key(self):
        rng = random.Random(5)
        key = bytes(rng.randrange(256) for _ in range(16))
        pts = {bytes(rng.randrange(256) for _ in range(16)) for _ in range(1000)}
        cts = {encrypt_block(pt, key) for pt in pts}
        # a collision would indicate a broken permutation
        assert len(cts) == len(pts)


# sha256 of the ciphertexts of 10^4 pairs drawn from random.Random(2022),
# 16 plaintext bytes then 16 key bytes per pair, as `verify` draws them
SEEDED_BLOCKS_SHA256 = (
    "65341bbd62b98f6dbfb26a967d35e954f0ac3f679ecc8a6cafad3e8288fcb81e")


def test_encrypt_block_is_pinned_over_seeded_blocks():
    rng = random.Random(2022)
    digest = hashlib.sha256()
    for _ in range(10 ** 4):
        pt = rng.randbytes(16)
        digest.update(encrypt_block(pt, rng.randbytes(16)))
    assert digest.hexdigest() == SEEDED_BLOCKS_SHA256


# -- the batched word form that `verify` runs: cli._golden_blocks ----------


def scalar_golden(pts, keys):
    """encrypt_block block by block, as an (n, 16) uint8 array."""
    return np.array([list(encrypt_block(bytes(pt), bytes(key)))
                     for pt, key in zip(pts, keys)], dtype=np.uint8)


def test_batched_form_is_pinned_over_the_same_seeded_blocks():
    pts, keys = cli._random_blocks(2022, 10 ** 4)
    cts = cli._golden_blocks(pts, keys)
    assert cts.shape == (10 ** 4, 16) and cts.dtype == np.uint8
    assert hashlib.sha256(cts.tobytes()).hexdigest() == SEEDED_BLOCKS_SHA256


def test_batched_form_on_every_fips_vector():
    from importlib import resources

    text = (resources.files("aesimc.data") / "fips_vectors.txt").read_text()
    rows = [[bytes.fromhex(h) for h in line.split()]
            for line in text.splitlines()]
    pts, keys, cts = (np.frombuffer(b"".join(col), dtype=np.uint8).reshape(-1, 16)
                      for col in zip(*rows))
    assert (cli._golden_blocks(pts, keys) == cts).all()
    assert (scalar_golden(pts, keys) == cts).all()
    # and each vector as a batch of one
    for pt, key, ct in zip(pts, keys, cts):
        assert (cli._golden_blocks(pt[None], key[None]) == ct).all()


@pytest.mark.parametrize("key_byte", [0x00, 0xFF])
def test_batched_form_under_an_all_zero_or_all_ones_key(key_byte):
    pts = cli._random_blocks(11, 64)[0]
    keys = np.full((64, 16), key_byte, dtype=np.uint8)
    assert (cli._golden_blocks(pts, keys) == scalar_golden(pts, keys)).all()


def test_batched_form_reads_the_strided_blocks_verify_draws():
    # plaintext and key are every other 16 bytes of one draw: neither
    # array is contiguous, so they cannot be viewed as words in place
    pts, keys = cli._draw_blocks(random.Random(4), 33)
    assert not pts.flags.c_contiguous and not keys.flags.c_contiguous
    before = pts.tobytes(), keys.tobytes()
    assert (cli._golden_blocks(pts, keys) == scalar_golden(pts, keys)).all()
    assert (pts.tobytes(), keys.tobytes()) == before


def test_round_tables_hold_sbox_times_each_mixcolumns_column():
    # entry a of Tj is S(a) times column j of the (2 3 1 1) circulant,
    # byte row r of the word holding the factor MIX_MATRIX[r][j]
    assert MIX_MATRIX[0] == (2, 3, 1, 1)
    for j, table in enumerate((T0, T1, T2, T3)):
        assert len(table) == 256
        column = [MIX_MATRIX[r][j] for r in range(4)]
        for a in range(256):
            s = sbox_lut(a)
            assert table[a].to_bytes(4, "big") == bytes(
                gf_mul(s, c) for c in column)


def test_round_tables_are_byte_rotations_of_t0():
    for j, table in enumerate((T1, T2, T3), start=1):
        for word, rotated in zip(T0, table):
            assert rotated == (word >> 8 * j | word << 32 - 8 * j) & 0xFFFFFFFF


def stepwise_encrypt(plaintext, key):
    """The FIPS-197 specification form, composed from the step functions."""
    words = expand_key(key)
    state = add_round_key(state_from_block(plaintext),
                          round_key_bytes(words, 0))
    for rnd in range(1, 11):
        state = shift_rows(sub_bytes(state))
        if rnd < 10:
            state = mix_columns(state)
        state = add_round_key(state, round_key_bytes(words, rnd))
    return block_from_state(state)


@pytest.mark.parametrize("pt, key, ct", [
    # FIPS-197 Appendix B and Appendix C.1
    ("3243f6a8885a308d313198a2e0370734", "2b7e151628aed2a6abf7158809cf4f3c",
     "3925841d02dc09fbdc118597196a0b32"),
    ("00112233445566778899aabbccddeeff", "000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
])
def test_word_form_equals_the_stepwise_form_on_fips_vectors(pt, key, ct):
    pt, key = bytes.fromhex(pt), bytes.fromhex(key)
    assert stepwise_encrypt(pt, key) == encrypt_block(pt, key) == bytes.fromhex(ct)


def test_word_form_equals_the_stepwise_form_on_seeded_blocks():
    rng = random.Random(7)
    for _ in range(1000):
        pt, key = rng.randbytes(16), rng.randbytes(16)
        assert encrypt_block(pt, key) == stepwise_encrypt(pt, key)


@pytest.mark.parametrize("size", [15, 17])
def test_encrypt_block_rejects_a_plaintext_or_key_of_the_wrong_size(size):
    with pytest.raises(ValueError):
        encrypt_block(b"\x00" * size, b"\x00" * 16)
    with pytest.raises(ValueError):
        encrypt_block(b"\x00" * 16, b"\x00" * size)
    with pytest.raises(ValueError):
        expand_key(b"\x00" * size)


def test_encrypt_block_accepts_any_bytes_like_input():
    pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    for kind in (bytes, bytearray, memoryview):
        ct = encrypt_block(kind(pt), kind(key))
        assert type(ct) is bytes and ct == expected


def test_gfref_imports_no_numpy_and_no_other_package_module():
    # a fresh interpreter that finds this aesimc first
    package_root = os.path.dirname(os.path.dirname(gfref.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, aesimc.gfref; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("aesimc")] == [
        "aesimc", "aesimc.gfref"]
