"""Golden AES-128 encryption reference and GF(2^8) arithmetic toolkit.

Pure-Python, bit-exact implementation used as the correctness oracle for
the in-memory-computing simulator. State follows the standard column-major
convention: byte k of a 128-bit block lands at row k % 4, column k // 4.
The round functions look bytes up in tables (SBOX, XTIME, MUL3) built
from the arithmetic below; MixColumns keeps the matrix form, so it is
independent of the shared-term decomposition the simulator runs.
"""

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


def expand_key(key):
    """AES-128 key expansion: 44 32-bit words W_0..W_43."""
    if len(key) != 16:
        raise ValueError("key must be 16 bytes, got %d" % len(key))
    words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(4)]
    rcon = 0x01
    for _ in range(N_ROUNDS):
        # W[4r] = W[4r-4] ^ SubWord(RotWord(W[4r-1])) ^ rcon, then
        # W[j] = W[j-4] ^ W[j-1] for the three words after it
        t = words[-1]
        t = (
            (SBOX[(t >> 16) & 0xFF] ^ rcon) << 24
            | SBOX[(t >> 8) & 0xFF] << 16
            | SBOX[t & 0xFF] << 8
            | SBOX[t >> 24]
        )
        rcon = XTIME[rcon]
        for w in words[-4:]:
            t ^= w
            words.append(t)
    return words


def round_key_bytes(words, round_index):
    """Round key for round_index (0..10) as 16 bytes, column-major."""
    return b"".join(
        w.to_bytes(4, "big") for w in words[4 * round_index:4 * round_index + 4]
    )


def encrypt_block(plaintext, key):
    """Standard AES-128 encryption of one 16-byte block."""
    words = expand_key(key)
    state = state_from_block(plaintext)
    state = add_round_key(state, round_key_bytes(words, 0))
    for rnd in range(1, N_ROUNDS + 1):
        state = sub_bytes(state)
        state = shift_rows(state)
        if rnd < N_ROUNDS:
            state = mix_columns(state)
        state = add_round_key(state, round_key_bytes(words, rnd))
    return block_from_state(state)
