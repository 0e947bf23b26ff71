"""Golden AES-128 encryption reference and GF(2^8) arithmetic toolkit.

Pure-Python, bit-exact implementation used as the correctness oracle for
the in-memory-computing simulator. State follows the standard column-major
convention: byte k of a 128-bit block lands at row k % 4, column k // 4.

Two forms of the cipher live here. The step functions (sub_bytes,
shift_rows, mix_columns, add_round_key) are the FIPS-197 specification
form on a 4x4 byte state; the tests check each against worked examples.
encrypt_block is the word form of Daemen & Rijmen, *The Design of
Rijndael* (ch. 4): the state is four big-endian 32-bit column words,
and each of rounds 1-9 computes an output column as
T0[a] ^ T1[b] ^ T2[c] ^ T3[d] ^ w, where a, b, c, d are the bytes
ShiftRows brings into that column. T0..T3 hold S(x) times each column
of the MixColumns matrix (2 3 1 1), so one lookup does SubBytes and its
share of MixColumns. They are built at import from SBOX, XTIME and MUL3,
which come from the GF(2^8) arithmetic below, and use the matrix form
of MixColumns: the oracle shares nothing with the shared-term
decomposition the simulator runs. `aesimc verify` runs this word form
over whole chunks of blocks in numpy, from these same tables (T0..T3,
SBOX_AT_ROW, RCON); this module itself stays pure Python.
"""

import struct
from operator import xor

# Reduction modulus x^8 + x^4 + x^3 + x + 1
AES_POLY = 0x11B

N_ROUNDS = 10
BLOCK_BYTES = 16


def xtime(a):
    """Multiply by 2 in GF(2^8): left shift, reduce by 0x11B on overflow."""
    a <<= 1
    if a & 0x100:
        a ^= AES_POLY
    return a


def mul3(a):
    """Multiply by 3 in GF(2^8): 3*a = 2*a XOR a."""
    return xtime(a) ^ a


# Products by 2 and by 3 of every byte, for the round functions.
XTIME = tuple(xtime(a) for a in range(256))
MUL3 = tuple(mul3(a) for a in range(256))


def gf_mul(a, b):
    """Carry-less product of a and b reduced mod x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result


def gf_inverse(a):
    """Multiplicative inverse in GF(2^8); inverse(0) is defined as 0.

    Computed as a^254 by square-and-multiply (a^255 = 1 for a != 0).
    """
    if a == 0:
        return 0
    result = 1
    power = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = gf_mul(result, power)
        power = gf_mul(power, power)
        exponent >>= 1
    return result


def _affine(a):
    # b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i, c = 0x63
    out = 0
    for i in range(8):
        bit = (
            (a >> i)
            ^ (a >> ((i + 4) % 8))
            ^ (a >> ((i + 5) % 8))
            ^ (a >> ((i + 6) % 8))
            ^ (a >> ((i + 7) % 8))
            ^ (0x63 >> i)
        ) & 1
        out |= bit << i
    return out


def sbox_computed(a):
    """S-box from first principles: GF inverse then the affine transform."""
    return _affine(gf_inverse(a))


SBOX = tuple(sbox_computed(x) for x in range(256))


def sbox_lut(a):
    """S-box by table lookup; identical to sbox_computed by construction."""
    return SBOX[a]


def state_from_block(block):
    """Load 16 bytes into a 4x4 state matrix, column-major."""
    if len(block) != BLOCK_BYTES:
        raise ValueError("block must be 16 bytes, got %d" % len(block))
    return [list(block[r::4]) for r in range(4)]


def block_from_state(state):
    """Inverse of state_from_block."""
    return bytes(b for col in zip(*state) for b in col)


def sub_bytes(state):
    return [[SBOX[b] for b in row] for row in state]


def shift_rows(state):
    """Rotate row i left by i byte positions; row 0 is unchanged."""
    s0, s1, s2, s3 = state
    return [s0[:], s1[1:] + s1[:1], s2[2:] + s2[:2], s3[3:] + s3[:3]]


def mix_columns(state):
    """Each column times the circulant matrix (2 3 1 1): output row r is
    2*s_r ^ 3*s_(r+1) ^ s_(r+2) ^ s_(r+3), by table lookup."""
    s0, s1, s2, s3 = state
    x, m = XTIME, MUL3
    return [
        [x[a] ^ m[b] ^ c ^ d for a, b, c, d in zip(s0, s1, s2, s3)],
        [x[a] ^ m[b] ^ c ^ d for a, b, c, d in zip(s1, s2, s3, s0)],
        [x[a] ^ m[b] ^ c ^ d for a, b, c, d in zip(s2, s3, s0, s1)],
        [x[a] ^ m[b] ^ c ^ d for a, b, c, d in zip(s3, s0, s1, s2)],
    ]


def add_round_key(state, round_key):
    """XOR a 16-byte round key (column-major order) into the state: row r
    takes every fourth key byte from byte r on."""
    s0, s1, s2, s3 = state
    k = round_key
    return [list(map(xor, s0, k[0::4])), list(map(xor, s1, k[1::4])),
            list(map(xor, s2, k[2::4])), list(map(xor, s3, k[3::4]))]


# MixColumns as the circulant matrix (2 3 1 1): output row r of a column
# is the sum over rows c of MIX_MATRIX[r][c] times input row c.
MIX_MATRIX = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
# products by 1, 2 and 3 of every byte (range(256)[s] is s)
_PRODUCTS = {1: range(256), 2: XTIME, 3: MUL3}


def _column_table(column):
    """S(x) times one column of MIX_MATRIX, as a big-endian word for
    every x: what an input byte x contributes to its output column."""
    m0, m1, m2, m3 = (_PRODUCTS[c] for c in column)
    return tuple(m0[s] << 24 | m1[s] << 16 | m2[s] << 8 | m3[s] for s in SBOX)


# Tj serves the byte in row j of the input column; each is T0 rotated
# right by 8j bits.
T0, T1, T2, T3 = (_column_table(column) for column in zip(*MIX_MATRIX))
# S(x) placed in byte row r of a word, for the final round and SubWord.
SBOX_AT_ROW = tuple(tuple(s << 24 - 8 * r for s in SBOX) for r in range(4))


def _rcon_words():
    words, rcon = [], 0x01
    for _ in range(N_ROUNDS):
        words.append(rcon << 24)
        rcon = XTIME[rcon]
    return tuple(words)


RCON = _rcon_words()
_WORDS = struct.Struct(">4I")


def expand_key(key):
    """AES-128 key expansion: 44 32-bit words W_0..W_43."""
    if len(key) != 16:
        raise ValueError("key must be 16 bytes, got %d" % len(key))
    s0, s1, s2, s3 = SBOX_AT_ROW
    w0, w1, w2, w3 = words = list(_WORDS.unpack(key))
    for rcon in RCON:
        # W[4r] = W[4r-4] ^ SubWord(RotWord(W[4r-1])) ^ rcon, then
        # W[j] = W[j-4] ^ W[j-1] for the three words after it
        w0 ^= (s0[w3 >> 16 & 255] ^ s1[w3 >> 8 & 255] ^ s2[w3 & 255]
               ^ s3[w3 >> 24] ^ rcon)
        w1 ^= w0
        w2 ^= w1
        w3 ^= w2
        words += (w0, w1, w2, w3)
    return words


def round_key_bytes(words, round_index):
    """Round key for round_index (0..10) as 16 bytes, column-major."""
    return b"".join(
        w.to_bytes(4, "big") for w in words[4 * round_index:4 * round_index + 4]
    )


def encrypt_block(plaintext, key):
    """Standard AES-128 encryption of one 16-byte block, in word form.

    Column j of a round's output takes row r from input column j + r
    (mod 4, ShiftRows), so its four lookups read the top byte of column j,
    the second byte of column j+1, and so on.
    """
    if len(plaintext) != BLOCK_BYTES:
        raise ValueError("block must be 16 bytes, got %d" % len(plaintext))
    w = expand_key(key)
    t0, t1, t2, t3 = T0, T1, T2, T3
    c0, c1, c2, c3 = _WORDS.unpack(plaintext)
    c0 ^= w[0]
    c1 ^= w[1]
    c2 ^= w[2]
    c3 ^= w[3]
    for i in range(4, 40, 4):
        c0, c1, c2, c3 = (
            t0[c0 >> 24] ^ t1[c1 >> 16 & 255] ^ t2[c2 >> 8 & 255]
            ^ t3[c3 & 255] ^ w[i],
            t0[c1 >> 24] ^ t1[c2 >> 16 & 255] ^ t2[c3 >> 8 & 255]
            ^ t3[c0 & 255] ^ w[i + 1],
            t0[c2 >> 24] ^ t1[c3 >> 16 & 255] ^ t2[c0 >> 8 & 255]
            ^ t3[c1 & 255] ^ w[i + 2],
            t0[c3 >> 24] ^ t1[c0 >> 16 & 255] ^ t2[c1 >> 8 & 255]
            ^ t3[c2 & 255] ^ w[i + 3],
        )
    # the final round has no MixColumns: plain S-box bytes
    s0, s1, s2, s3 = SBOX_AT_ROW
    return _WORDS.pack(
        s0[c0 >> 24] ^ s1[c1 >> 16 & 255] ^ s2[c2 >> 8 & 255]
        ^ s3[c3 & 255] ^ w[40],
        s0[c1 >> 24] ^ s1[c2 >> 16 & 255] ^ s2[c3 >> 8 & 255]
        ^ s3[c0 & 255] ^ w[41],
        s0[c2 >> 24] ^ s1[c3 >> 16 & 255] ^ s2[c0 >> 8 & 255]
        ^ s3[c1 & 255] ^ w[42],
        s0[c3 >> 24] ^ s1[c0 >> 16 & 255] ^ s2[c1 >> 8 & 255]
        ^ s3[c2 & 255] ^ w[43],
    )
