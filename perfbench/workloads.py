"""The four benchmark workloads, driven through aesimc's public API.

Each workload is a closed loop with one client: make() draws the next
request's inputs from the run's seeded generator, run() is the timed
call into the simulator, and check() verifies its output against the
gfref oracle outside the timed span. See NOTES.md for why each exists.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import math
import random

from aesimc import cli, gfref
from aesimc.config import RunConfig

from setup_probe import BUILD

# Captured before any tracing wrapper is installed, so the benchmark's own
# checks never show up as program work in the per-layer metrics.
ORACLE = gfref.encrypt_block

DEFAULT_CYCLES = 26
DEFAULT_ENERGY_PJ = 187905.6  # 0.098 W * 26 / 13.56 MHz, to 0.1 pJ


def _fields(text, marker):
    """key=value fields of the first output line that contains marker."""
    for line in text.splitlines():
        if marker in line:
            return dict(f.split("=", 1) for f in line.split() if "=" in f)
    return {}


def _same_energy(value, reference):
    return math.isclose(float(value), reference, rel_tol=1e-9)


class Reference:
    """Simulated figures of the default preset, read from outside the
    package: trace counts, the cost table and the schedule stages of one
    simulated block."""

    def __init__(self):
        pipe = BUILD["encrypt_traced"](RunConfig.load(None))
        _, self.cycles, self.energy_pJ = pipe.run_block(bytes(16), bytes(16))
        self.trace_events = len(pipe.trace.events)
        self.stream_cycles = pipe.stream_cycles
        cost = pipe.cost_table
        self.breakdown = {}
        energies = []
        for kind, count in pipe.trace.counts.items():
            energy = count * cost[kind].energy_pJ
            energies.append(energy)
            self.breakdown["sim.ops.%s.per_block" % kind] = (count, "count")
            self.breakdown["sim.energy_pj.%s.per_block" % kind] = (energy, "pJ")
        stage_cycles = 0
        for stage in pipe.schedule.stages:
            self.breakdown["sim.cycles.%s" % stage.name] = (stage.cycles, "cycle")
            stage_cycles += stage.cycles
        self.errors = []
        if stage_cycles != self.cycles:
            self.errors.append("stage cycles sum to %d, not %d"
                               % (stage_cycles, self.cycles))
        if not _same_energy(math.fsum(energies), self.energy_pJ):
            self.errors.append("op-kind energies sum to %r, not %r"
                               % (math.fsum(energies), self.energy_pJ))
        if self.cycles != DEFAULT_CYCLES or round(self.energy_pJ, 1) != DEFAULT_ENERGY_PJ:
            self.errors.append("default preset reads %r cycles, %r pJ"
                               % (self.cycles, self.energy_pJ))


class Workload:
    blocks = 1  # AES blocks simulated per request

    def __init__(self, rng, workdir, ref):
        self.rng = rng
        self.workdir = workdir
        self.ref = ref


class VerifyBulk(Workload):
    """`verify` of many seeded blocks on four banks, in-process."""

    blocks = 1000
    banks = 4

    def make(self, i):
        return self.rng.randrange(2**31)

    def run(self, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--blocks", str(self.blocks),
                           "--seed", str(seed), "--banks", str(self.banks)])
        return rc, out.getvalue()

    def check(self, seed, result):
        rc, text = result
        fields = _fields(text, "verified")
        if rc != 0 or not fields:
            return False
        # Same generator as `verify`: Mersenne Twister, 16 plaintext bytes
        # then 16 key bytes per block.
        rng = random.Random(seed)
        digest = hashlib.sha256()
        for _ in range(self.blocks):
            pt = rng.randbytes(16)
            digest.update(ORACLE(pt, rng.randbytes(16)))
        per_bank = -(-self.blocks // self.banks)
        return (
            fields["result_sha256"] == digest.hexdigest()
            and int(fields["cycles_total"]) == self.ref.stream_cycles(per_bank)
            and _same_energy(float(fields["energy_pJ_total"]) / self.blocks,
                             self.ref.energy_pJ)
        )


class BlockLatency(Workload):
    """One Pipeline built once; one fresh block per request."""

    def __init__(self, rng, workdir, ref):
        super().__init__(rng, workdir, ref)
        self.pipeline = BUILD["block_latency"](RunConfig.load(None))

    def make(self, i):
        return self.rng.randbytes(16), self.rng.randbytes(16)

    def run(self, inputs):
        return self.pipeline.run_block(*inputs)

    def check(self, inputs, result):
        ct, cycles, energy = result
        return (ct == ORACLE(*inputs) and cycles == self.ref.cycles
                and _same_energy(energy, self.ref.energy_pJ))


class SweepDesign(Workload):
    """The 48-point `sweep`, in-process. Request i runs on a crossbar
    with 16 + i columns: the extra columns change no result, but they
    make every request's 48 configs new to the process, so a cache keyed
    by configuration never hits, even across requests."""

    blocks = 48  # one simulated block per point
    units = range(1, 5)
    banks = (1, 2, 4)

    def make(self, i):
        config = self.workdir / "sweep.cfg"
        config.write_text("geometry.cols=%d\n" % (16 + i))
        return config, self.rng.randrange(2**31)

    def run(self, inputs):
        config, seed = inputs
        return cli.main(["sweep", "--config", str(config),
                         "--sbox-units", "1:4", "--m2-units", "1:4",
                         "--banks", "1,2,4", "--seed", str(seed),
                         "--out", str(self.workdir / "sweep.csv")])

    def check(self, inputs, rc):
        if rc != 0:
            return False
        with open(self.workdir / "sweep.csv", newline="") as fh:
            rows = {(int(r["sbox_units"]), int(r["m2_units"]), int(r["banks"])): r
                    for r in csv.DictReader(fh)}
        default = rows.get((2, 2, 1))
        return (
            set(rows) == set(itertools.product(self.units, self.units, self.banks))
            and int(default["cycles_per_block"]) == self.ref.cycles
            and round(float(default["energy_per_block_pJ"]), 1) == DEFAULT_ENERGY_PJ
        )


class EncryptTraced(Workload):
    """`encrypt` of a seeded file of 64 blocks under one key, with --trace."""

    blocks = 64

    def make(self, i):
        key = self.rng.randbytes(16)
        pts = [self.rng.randbytes(16) for _ in range(self.blocks)]
        (self.workdir / "pts.txt").write_text("".join(p.hex() + "\n" for p in pts))
        (self.workdir / "key.txt").write_text(key.hex() + "\n")
        return pts, key

    def run(self, inputs):
        err = io.StringIO()
        w = self.workdir
        with contextlib.redirect_stderr(err):
            rc = cli.main(["encrypt", str(w / "pts.txt"), str(w / "key.txt"),
                           "--out", str(w / "cts.txt"),
                           "--trace", str(w / "trace.jsonl")])
        return rc, err.getvalue()

    def check(self, inputs, result):
        pts, key = inputs
        rc, text = result
        fields = _fields(text, "cycles_per_block")
        if rc != 0 or not fields:
            return False
        cts = (self.workdir / "cts.txt").read_text().split()
        with open(self.workdir / "trace.jsonl", "rb") as fh:
            trace_lines = fh.read().count(b"\n")
        return (
            cts == [ORACLE(pt, key).hex() for pt in pts]
            and int(fields["cycles_per_block"]) == self.ref.cycles
            and _same_energy(fields["energy_per_block_pJ"], self.ref.energy_pJ)
            and trace_lines == self.ref.trace_events
        )


WORKLOADS = {
    "verify_bulk": VerifyBulk,
    "block_latency": BlockLatency,
    "sweep_design": SweepDesign,
    "encrypt_traced": EncryptTraced,
}
