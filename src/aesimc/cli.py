"""Command-line harness: encrypt files of hex blocks, verify the
simulator against the golden reference over seeded random blocks,
regenerate the published comparison tables, and sweep the parallelism /
bank knobs into a CSV report.

Exit codes: 0 ok, 1 verification mismatch, 2 input format error (also
an unreadable or non-UTF-8 encrypt input), 3 config/dataset error (also
an unreadable or non-UTF-8 config file, or an unwritable output).
"""

import argparse
import csv
import hashlib
import json
import random
import sys

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
            blocks.append(bytes.fromhex(text))
        except ValueError:
            return None, "%s:%d: invalid hex" % (path, lineno)
    return blocks, None


def _random_blocks(seed, n):
    """Seeded (pt, key) pairs. Generator: Python's Mersenne Twister
    (random.Random) drawing 32 bytes per pair, plaintext first."""
    rng = random.Random(seed)
    pts = np.empty((n, 16), dtype=np.uint8)
    keys = np.empty((n, 16), dtype=np.uint8)
    for i in range(n):
        pts[i] = bytearray(rng.randbytes(16))
        keys[i] = bytearray(rng.randbytes(16))
    return pts, keys


def _write_trace(path, trace):
    with open(path, "w") as fh:
        for event in trace.events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


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
            _write_trace(args.trace, farm.pipeline.trace)
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
    pts, keys = _random_blocks(args.seed, args.blocks)
    cts, report = farm.run_banked(pts, keys)
    for i in range(args.blocks):
        expected = gfref.encrypt_block(bytes(pts[i]), bytes(keys[i]))
        if bytes(cts[i]) != expected:
            print(
                "mismatch at block %d: pt=%s key=%s imc=%s golden=%s"
                % (
                    i,
                    bytes(pts[i]).hex(),
                    bytes(keys[i]).hex(),
                    bytes(cts[i]).hex(),
                    expected.hex(),
                )
            )
            return EXIT_MISMATCH
    digest = hashlib.sha256(cts.tobytes()).hexdigest()
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
            digest,
        )
    )
    return EXIT_OK


def cmd_metrics(args):
    config = RunConfig.load(args.config)
    rows = metrics.load_baselines(args.baselines)
    report = metrics.build_report(config.metrics_input())
    entries = metrics.audit_baselines(
        rows, f_rf_hz=config["freq.f_rf_hz"],
        f_uniform_hz=config["freq.f_uniform_hz"],
    )
    records = metrics.compare_against_baselines(report, rows)
    print("# regenerated AES-IMC row (config=%s)" % config.config_hash())
    print(
        "Thr=%.2f Mbps  Thr/SLC=%.4f Mbps  Thr*=%.2f Mbps  E=%.4f uJ  "
        "E/bit=%.4f nJ  DPR=%.2f GB/s"
        % (
            report.thr_bps / 1e6,
            report.thr_per_slc / 1e6,
            report.thr_star_bps / 1e6,
            report.energy_J * 1e6,
            report.energy_per_bit_J * 1e9,
            report.dpr_Bps / 1e9,
        )
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
    if not values or any(v < 1 for v in values) or values != sorted(values):
        raise ConfigError("invalid %s range: %r" % (name, text))
    return values


def cmd_sweep(args):
    config = RunConfig.load(args.config)
    sbox_values = _parse_range(args.sbox_units, "sbox_units")
    m2_values = _parse_range(args.m2_units, "m2_units")
    bank_values = _parse_range(str(args.banks), "banks")
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
                # figures are folds over the point's program: no data
                pipe = point.pipeline()
                cycles = pipe.schedule.total_cycles_per_block
                energy = pipe.program().energy_pJ(pipe.cost_table)
                wall = pipe.stream_cycles(-(-args.blocks // banks))
                rows.append(
                    {
                        "sbox_units": sbox_units,
                        "m2_units": m2_units,
                        "banks": banks,
                        "cycles_per_block": cycles,
                        "energy_per_block_pJ": "%.6f" % energy,
                        "thr_Mbps": "%.4f" % (f_max * 128 / cycles / 1e6),
                        "energy_per_bit_nJ": "%.6f" % (energy / 128 / 1e3),
                        "wall_cycles_for_blocks": wall,
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
                       help="range lo:hi or comma list")
    p_swp.add_argument("--m2-units", default="1:4")
    p_swp.add_argument("--banks", default="1")
    p_swp.add_argument("--blocks", type=int, default=1000)
    p_swp.add_argument("--seed", type=int, default=0,
                       help="accepted for symmetry with verify; sweep "
                       "simulates no data, so it changes no output")
    p_swp.add_argument("--out")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CrossbarError as exc:
        print("config error: %s" % exc, file=sys.stderr)
    except MetricsError as exc:
        print("dataset/config error: %s" % exc, file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print("file error: %s" % exc, file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
