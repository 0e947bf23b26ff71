"""Command-line harness: encrypt files of hex blocks, verify the
simulator against the golden reference over seeded random blocks,
regenerate the published comparison tables, and sweep the parallelism /
bank knobs into a CSV report.

Exit codes: 0 ok, 1 verification mismatch, 2 input format error (also
an unreadable or non-UTF-8 encrypt input), 3 config/dataset error (also
an unreadable or non-UTF-8 config file, or an unwritable output). A
reader that closes stdout early is no error: a command it cuts short
exits 0, and one that had finished keeps its own code.
"""

import argparse
import csv
import hashlib
import os
import random
import sys
from functools import lru_cache

import numpy as np

from . import gfref, metrics
from .config import RunConfig
from .crossbar import ConfigError, CrossbarError
from .metrics import MetricsError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3


def _read_hex_blocks(path):
    """Read one 32-hex-char block per line; returns (blocks, error)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        return None, "%s: %s" % (path, exc)
    blocks = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if len(text) != 32:
            return None, "%s:%d: expected 32 hex chars, got %d" % (
                path, lineno, len(text)
            )
        try:
            block = bytes.fromhex(text)
        except ValueError:
            return None, "%s:%d: invalid hex" % (path, lineno)
        # fromhex skips whitespace, so 32 characters can hold fewer bytes
        if len(block) != gfref.BLOCK_BYTES:
            return None, "%s:%d: expected %d bytes, got %d" % (
                path, lineno, gfref.BLOCK_BYTES, len(block)
            )
        blocks.append(block)
    return blocks, None


# Blocks per pass of `verify`: memory stays bounded in --blocks.
VERIFY_CHUNK = 1 << 13


def _draw_blocks(rng, n):
    """The next n (pt, key) pairs of rng: 32 bytes per pair, plaintext
    first. One draw of 32*n bytes gives the same bytes as n pairs of
    16-byte draws, so drawing in chunks does not change the blocks."""
    pairs = np.frombuffer(rng.randbytes(32 * n), dtype=np.uint8).reshape(n, 2, 16)
    return pairs[:, 0], pairs[:, 1]


def _random_blocks(seed, n):
    """Seeded (pt, key) pairs. Generator: Python's Mersenne Twister
    (random.Random) drawing 32 bytes per pair, plaintext first."""
    return _draw_blocks(random.Random(seed), n)


# gfref's lookup tables as arrays, for the batched oracle of `verify`
_T_TABLES = np.array((gfref.T0, gfref.T1, gfref.T2, gfref.T3), dtype=np.uint32)
_SBOX_AT_ROW = np.array(gfref.SBOX_AT_ROW, dtype=np.uint32)
# ShiftRows: row r of output column j comes from input column
# _NEXT[r][j] = j + r (mod 4)
_NEXT = tuple((np.arange(4) + r) % 4 for r in range(4))


def _golden_blocks(pts, keys):
    """gfref.encrypt_block over a batch: (n, 16) uint8 plaintexts and
    keys in, (n, 16) uint8 ciphertexts out. It is the same word form on
    gfref's own tables: the state and the round key are (n, 4) arrays of
    big-endian column words, and each table lookup is one gather over
    all n blocks. It shares no code with the simulator's datapath."""
    state = np.ascontiguousarray(pts).view(">u4").astype(np.uint32)
    key = np.ascontiguousarray(keys).view(">u4").astype(np.uint32)
    state ^= key
    s0, s1, s2, s3 = _SBOX_AT_ROW
    for rnd, rcon in enumerate(gfref.RCON, start=1):
        # W[4r] = W[4r-4] ^ SubWord(RotWord(W[4r-1])) ^ rcon, then
        # W[j] = W[j-4] ^ W[j-1]: a running XOR along the four words
        w3 = key[:, 3]
        key[:, 0] ^= (s0.take(w3 >> 16 & 255) ^ s1.take(w3 >> 8 & 255)
                      ^ s2.take(w3 & 255) ^ s3.take(w3 >> 24) ^ rcon)
        key = np.bitwise_xor.accumulate(key, axis=1)
        # the final round has no MixColumns: plain S-box bytes
        t0, t1, t2, t3 = _T_TABLES if rnd < gfref.N_ROUNDS else _SBOX_AT_ROW
        state = (t0.take(state >> 24) ^ t1.take(state[:, _NEXT[1]] >> 16 & 255)
                 ^ t2.take(state[:, _NEXT[2]] >> 8 & 255)
                 ^ t3.take(state[:, _NEXT[3]] & 255) ^ key)
    return state.astype(">u4").view(np.uint8)


def cmd_encrypt(args):
    farm = RunConfig.load(args.config).bank_farm(
        banks=1, trace_detail=bool(args.trace))
    blocks, err = _read_hex_blocks(args.input)
    if err is None:
        key_blocks, err = _read_hex_blocks(args.key)
        if err is None and len(key_blocks) != 1:
            err = "%s: expected exactly one key line" % args.key
    if err is not None:
        print("input error: %s" % err, file=sys.stderr)
        return EXIT_INPUT

    lines = []
    if blocks:
        pts = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)
        keys = np.tile(
            np.frombuffer(key_blocks[0], dtype=np.uint8), (len(blocks), 1)
        )
        cts, report = farm.run_banked(pts, keys)
        lines = [bytes(ct).hex() for ct in cts]
        print(
            "blocks=%d cycles_per_block=%d energy_per_block_pJ=%.6f "
            "config=%s"
            % (
                report.blocks,
                report.cycles_per_block,
                report.energy_per_block_pJ,
                report.config_hash,
            ),
            file=sys.stderr,
        )
    if args.trace:
        # an empty input leaves an empty trace, not a stale one; the
        # trace is about 390 KB, so write it in 64 KiB pieces
        with open(args.trace, "w", buffering=1 << 16) as fh:
            if blocks:
                fh.writelines(farm.pipeline.trace.events.jsonl())
    out_text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out_text)
    else:
        sys.stdout.write(out_text)
    return EXIT_OK


def cmd_verify(args):
    if args.blocks < 1:
        print("config error: --blocks must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    farm = RunConfig.load(args.config).bank_farm(banks=args.banks)
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    for start in range(0, args.blocks, VERIFY_CHUNK):
        pts, keys = _draw_blocks(rng, min(VERIFY_CHUNK, args.blocks - start))
        cts, _ = farm.run_banked(pts, keys)
        golden = _golden_blocks(pts, keys)
        wrong = np.flatnonzero((cts != golden).any(axis=1))
        if wrong.size:
            at = wrong[0]
            print(
                "mismatch at block %d: pt=%s key=%s imc=%s golden=%s"
                % (start + at, pts[at].tobytes().hex(),
                   keys[at].tobytes().hex(), cts[at].tobytes().hex(),
                   golden[at].tobytes().hex())
            )
            return EXIT_MISMATCH
        digest.update(cts.tobytes())
    report = farm.report(args.blocks)
    print(
        "verified blocks=%d seed=%d banks=%d cycles_total=%d "
        "energy_pJ_total=%.6f config=%s result_sha256=%s"
        % (
            args.blocks,
            args.seed,
            farm.banks,
            report.cycles_total,
            report.energy_pJ_total,
            report.config_hash,
            digest.hexdigest(),
        )
    )
    return EXIT_OK


def cmd_metrics(args):
    config = RunConfig.load(args.config)
    rows = metrics.load_baselines(args.baselines)
    row = config.aes_imc_row()
    entries = metrics.audit_baselines(rows)
    records = metrics.compare_against_baselines(row, rows)
    print("# regenerated AES-IMC row (config=%s)" % config.config_hash())
    print(
        "Thr=%(thr_Mbps).2f Mbps  Thr/SLC=%(thr_per_slc).4f Mbps  "
        "Thr*=%(thr_star_Mbps).2f Mbps  E=%(E_uJ).4f uJ  "
        "E/bit=%(E_per_bit_nJ).4f nJ  DPR=%(dpr_GBps).2f GB/s" % row
    )
    for e in entries:
        print(
            "%s %s %s published=%g derived=%.6g rel_err=%.4f tol=%.4f"
            % (
                "pass" if e.ok else "FLAG",
                e.row_key,
                e.column,
                e.published,
                e.derived,
                e.rel_error,
                e.tolerance,
            )
        )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "metric", "baseline", "baseline_value",
                    "aes_imc_value", "ratio",
                ],
            )
            writer.writeheader()
            writer.writerows(records)
    print(
        "# audit: %d checks, %d flagged; %d comparison rows"
        % (len(entries), sum(1 for e in entries if not e.ok), len(records))
    )
    return EXIT_OK


def _parse_range(text, name):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError("invalid %s range: %r" % (name, text))
    if not values or any(v < 1 for v in values) or values != sorted(set(values)):
        raise ConfigError("invalid %s range: %r" % (name, text))
    return values


def cmd_sweep(args):
    config = RunConfig.load(args.config)
    sbox_values = _parse_range(args.sbox_units, "sbox_units")
    m2_values = _parse_range(args.m2_units, "m2_units")
    bank_values = _parse_range(str(args.banks), "banks")
    # rejects what `metrics` rejects, before any point is built
    config.aes_imc_row()
    f_max = config["freq.f_max_hz"]
    rows = []
    for sbox_units in sbox_values:
        for m2_units in m2_values:
            for banks in bank_values:
                point = RunConfig(
                    {
                        **config.entries,
                        "parallelism.sbox_units": sbox_units,
                        "parallelism.m2_units": m2_units,
                        "banks": banks,
                    }
                )
                # the farm's figures for the blocks: folds over the
                # point's program, no data
                report = point.bank_farm().report(args.blocks)
                cycles = report.cycles_per_block
                energy = report.energy_per_block_pJ
                rows.append(
                    {
                        "sbox_units": sbox_units,
                        "m2_units": m2_units,
                        "banks": banks,
                        "cycles_per_block": cycles,
                        "energy_per_block_pJ": "%.6f" % energy,
                        "thr_Mbps": "%.4f" % (metrics.throughput(
                            f_max, metrics.BLOCK_SIZE_BITS, cycles) / 1e6),
                        "energy_per_bit_nJ": "%.6f" % (metrics.energy_per_bit(
                            energy, metrics.BLOCK_SIZE_BITS) / 1e3),
                        "wall_cycles_for_blocks": report.cycles_total,
                        "blocks": args.blocks,
                        "config_hash": point.config_hash(),
                    }
                )
    fieldnames = list(rows[0].keys())
    if args.out:
        fh = open(args.out, "w", newline="")
    else:
        fh = sys.stdout
    writer = csv.DictWriter(fh, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        fh.close()
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="aesimc",
        description="Cycle/energy simulator for an in-memory-computing "
        "AES-128 datapath",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encrypt", help="encrypt hex blocks from a file")
    p_enc.add_argument("input", help="file of 32-hex-char plaintext lines")
    p_enc.add_argument("key", help="file with one 32-hex-char key line")
    p_enc.add_argument("--config")
    p_enc.add_argument("--out")
    p_enc.add_argument("--trace")
    p_enc.set_defaults(func=cmd_encrypt)

    p_ver = sub.add_parser(
        "verify", help="check the simulator against the golden reference"
    )
    p_ver.add_argument("--config")
    p_ver.add_argument("--blocks", type=int, default=10000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--banks", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_met = sub.add_parser(
        "metrics", help="regenerate and audit the published tables"
    )
    p_met.add_argument("--config")
    p_met.add_argument("--baselines", default=None,
                       help="baseline CSV (bundled dataset by default)")
    p_met.add_argument("--out", help="comparison CSV output path")
    p_met.set_defaults(func=cmd_metrics)

    p_swp = sub.add_parser("sweep", help="sweep parallelism/bank knobs")
    p_swp.add_argument("--config")
    p_swp.add_argument("--sbox-units", default="1:4",
                       help="range lo:hi or strictly increasing comma list")
    p_swp.add_argument("--m2-units", default="1:4")
    p_swp.add_argument("--banks", default="1")
    p_swp.add_argument("--blocks", type=int, default=1000)
    p_swp.add_argument("--seed", type=int, default=0,
                       help="accepted for symmetry with verify; sweep "
                       "simulates no data, so it changes no output")
    p_swp.add_argument("--out")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


class _Stdout:
    """Stands in for sys.stdout while a command runs and notes whether a
    write to it met a closed reader, so that a broken pipe on stdout is
    told apart from one on an --out or --trace file."""

    def __init__(self, stream):
        self.stream = stream
        self.reader_gone = False

    def write(self, text):
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            self.reader_gone = True
            raise

    def flush(self):
        try:
            self.stream.flush()
        except BrokenPipeError:
            self.reader_gone = True
            raise

    def __getattr__(self, name):
        return getattr(self.stream, name)


def _silence(stream):
    """Point a descriptor-backed stream at the null device, so that the
    interpreter's last flush of what the closed reader left unread fails
    nowhere. A stream without a descriptor (StringIO) is left as it is."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    args = build_parser().parse_args(argv)
    real_stdout = sys.stdout
    stdout = sys.stdout = _Stdout(real_stdout)
    try:
        try:
            code = args.func(args)
        except BrokenPipeError:
            if not stdout.reader_gone:
                raise
            # the reader of stdout has gone (`aesimc sweep | head -1`): it
            # wanted no more output, which is no error
            code = EXIT_OK
        try:
            stdout.flush()
        except BrokenPipeError:
            pass  # the reader left after the command's last write
        return code
    except CrossbarError as exc:
        print("config error: %s" % exc, file=sys.stderr)
    except MetricsError as exc:
        print("dataset/config error: %s" % exc, file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print("file error: %s" % exc, file=sys.stderr)
    finally:
        sys.stdout = real_stdout
        if stdout.reader_gone:
            _silence(real_stdout)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
