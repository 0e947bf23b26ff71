"""Seeded host-time benchmark of the aesimc simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload as a closed loop with one client for --seconds of
timed requests, checks every request's output, prints every metric by
name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run alternates untraced and
traced requests and the metrics are the per-layer ones. A full report
goes to perfbench/out/BENCH_<workload>[_traced].json and, with tracing,
the spans to perfbench/out/spans_<workload>.jsonl.

Names starting with sim are simulated figures of the default preset.
Every other figure is host time, given at a reference speed: each timed
request or set-up is scaled by CAL_REF_S over the time of a fixed
calibration kernel run right before and right after it, which cancels
the host's own speed swings (see NOTES.md). Raw end-to-end times are
printed beside them.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
MIN_REQUESTS = 2  # measured requests per run, besides the warm-up
CAL_REF_S = 1.5e-3  # the calibration kernel's time at the reference speed

CROSSBAR_METHODS = ("write_row", "read_row_to_capacitor", "read_row_to_latch",
                    "sa_xor", "offset_write", "write_back_row", "count_eval")
SEQUENCER_PHASES = ("load_block", "seq_add_round_key", "seq_sub_bytes",
                    "seq_shift_rows", "seq_mix_columns",
                    "seq_key_round_update", "readout_block")

# (span name, fields reported per request); self_s excludes child spans.
LAYER_FIELDS = (
    [("gfref.encrypt_block", ("calls", "busy_s"))]
    + [("crossbar." + m, ("calls", "busy_s")) for m in CROSSBAR_METHODS]
    + [("sequencer." + p, ("calls", "busy_s", "self_s")) for p in SEQUENCER_PHASES]
    + [("pipeline.Pipeline.run_batch", ("busy_s", "self_s")),
       ("pipeline.BankFarm.run_banked", ("self_s",))]
    + [("config.RunConfig." + m, ("busy_s",)) for m in ("load", "bank_farm", "pipeline")]
    + [("cli.main", ("self_s",))]
)
FIELD_UNITS = {"calls": "count/req", "busy_s": "s/req", "self_s": "s/req"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_bulk", "block_latency",
                                 "sweep_design", "encrypt_traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _xtime(a):
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


def _kernel():
    # Small numpy indexing and reductions, as in the crossbar model ...
    a = np.zeros((8, 16), dtype=np.uint8)
    cols = [0, 1, 2, 3]
    acc = 0
    for i in range(150):
        a[:, cols] = i & 15
        acc += int(a[:, cols].max())
        acc = (acc * 31 + sum([(acc + j) & 0xFF for j in range(16)])) & 0xFFFF
    # ... and pure-Python byte arithmetic on lists, as in gfref.
    state = [[(r * 4 + c + acc) & 0xFF for c in range(4)] for r in range(4)]
    for rnd in range(120):
        state = [[_xtime(v) ^ (v >> 1) ^ rnd for v in row] for row in state]
        state = [row[1:] + row[:1] for row in state]
    return state


def calibrate():
    """Median of three timings of a fixed piece of benchmark-owned work
    with the simulator's mix of numpy and pure-Python work. It never
    changes with the program, so its time tracks the host's speed."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Timer:
    """Timed spans, each bracketed by calibration runs."""

    def __init__(self):
        calibrate()  # first call pays numpy's lazy set-up
        self.cal = [calibrate()]
        self.spans = []  # (tag, seconds, index of the calibration before)

    def add(self, tag, seconds):
        """Record a span that has just ended, then calibrate again."""
        self.spans.append((tag, seconds, len(self.cal) - 1))
        self.cal.append(calibrate())

    def time(self, tag, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.add(tag, perf_counter() - t0)

    def raw(self, tag):
        return [dt for t, dt, _ in self.spans if t == tag]

    def factor(self, j):
        """Reference-speed factor of span j."""
        k = self.spans[j][2]
        return 2 * CAL_REF_S / (self.cal[k] + self.cal[k + 1])

    def scaled(self, tag):
        """Spans at the reference speed."""
        return [dt * self.factor(j) for j, (t, dt, _) in enumerate(self.spans)
                if t == tag]


def measure_setup(workload):
    """Median set-up time over fresh interpreters, at the reference speed
    and raw. Each probe times and calibrates itself, so the interpreter's
    own start is left out."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, before, after = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * 2 * CAL_REF_S / (before + after))
    return statistics.median(scaled), statistics.median(raw)


def wrap_layers(tracer):
    from aesimc import cli, config, crossbar, gfref, pipeline, sequencer

    tracer.wrap(gfref, "encrypt_block", "gfref.encrypt_block")
    for m in CROSSBAR_METHODS:
        tracer.wrap(crossbar.CrossbarArray, m, "crossbar." + m)
    for p in SEQUENCER_PHASES:
        tracer.wrap(sequencer.LanePairSequencer, p, "sequencer." + p)
    tracer.wrap(pipeline.Pipeline, "run_batch", "pipeline.Pipeline.run_batch")
    tracer.wrap(pipeline.BankFarm, "run_banked", "pipeline.BankFarm.run_banked")
    for m in ("load", "bank_farm", "pipeline"):
        tracer.wrap(config.RunConfig, m, "config.RunConfig." + m)
    tracer.wrap(cli, "main", "cli.main")


class Loop:
    """Closed loop, one client: make the inputs, time the call, check."""

    def __init__(self, workload, timer, tracer=None):
        self.workload = workload
        self.timer = timer
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.span_of = {}  # request id -> index of its timed span
        if tracer is not None:
            self.traced_run = tracer.span("request", workload.run)

    def _call(self, run, inputs):
        try:
            return True, run(inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False, None

    def request(self, i, tag):
        w = self.workload
        inputs = w.make(i)
        run = w.run
        if tag == "traced":
            self.tracer.request = i
            self.tracer.install()
            run = self.traced_run
        try:
            ok, result = self.timer.time(tag, self._call, run, inputs)
        finally:
            if tag == "traced":
                self.tracer.uninstall()
        self.span_of[i] = len(self.timer.spans) - 1
        if ok:
            try:
                ok = bool(w.check(inputs, result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print("request %d: output check failed" % i, file=sys.stderr)
        self.attempted += 1
        self.failed += not ok

    def run(self, seconds):
        self.request(0, "warmup")  # lazy set-up, caches, files
        i, timed = 1, 0.0
        while i <= MIN_REQUESTS or timed < seconds:
            traced = self.tracer is not None and i % 2 == 0
            self.request(i, "traced" if traced else "untraced")
            timed += self.timer.spans[-1][1]
            i += 1


def end_to_end(loop, workload, ref, setup):
    timer = loop.timer
    lat = timer.scaled("untraced")
    raw = timer.raw("untraced")
    # Rates come from the median request, like the latency, so that one
    # request stalled by the host does not move them.
    blocks_per_s = workload.blocks / statistics.median(lat)
    metrics = {
        "setup_s": (setup[0], "s"),
        "blocks_per_s": (blocks_per_s, "1/s"),
        "latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "sim_cycles_per_block": (ref.cycles, "cycle"),
        "sim_energy_pj_per_block": (ref.energy_pJ, "pJ"),
    }
    extra = {
        # The tail is printed, not gated: see NOTES.md.
        "latency_ms_p90": (p90(lat) * 1e3, "ms"),
        "error_rate": (loop.failed / loop.attempted, "ratio"),
        "requests": (len(lat), "count"),
        "raw.setup_s": (setup[1], "s"),
        "raw.blocks_per_s": (workload.blocks / statistics.median(raw), "1/s"),
        "raw.latency_ms_p50": (statistics.median(raw) * 1e3, "ms"),
        "raw.latency_ms_p90": (p90(raw) * 1e3, "ms"),
        "calibration_ms_p50": (statistics.median(timer.cal) * 1e3, "ms"),
    }
    return metrics, extra


def per_layer(loop, tracer, ref):
    timer = loop.timer
    n = len(timer.raw("traced"))
    agg = tracer.aggregate({i: timer.factor(j) for i, j in loop.span_of.items()})
    metrics = {}
    for name, fields in LAYER_FIELDS:
        calls, busy, self_s = agg.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "busy_s": busy, "self_s": self_s}
        for f in fields:
            metrics["%s.%s" % (name, f)] = (values[f] / n, FIELD_UNITS[f])
    untraced_ms = statistics.median(timer.scaled("untraced")) * 1e3
    traced_ms = statistics.median(timer.scaled("traced")) * 1e3
    overhead_ms = traced_ms - untraced_ms
    # The root "request" span is the benchmark's own, not a layer call.
    spans_per_req = (len(tracer) - n) / n
    metrics.update({
        "trace.untraced_ms_p50": (untraced_ms, "ms"),
        "trace.traced_ms_p50": (traced_ms, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.overhead_pct": (100.0 * overhead_ms / untraced_ms, "%"),
        "trace.spans_per_req": (spans_per_req, "count/req"),
        "trace.overhead_us_per_span": (1e3 * overhead_ms / spans_per_req, "us"),
    })
    metrics.update(ref.breakdown)
    extra = {
        "error_rate": (loop.failed / loop.attempted, "ratio"),
        "requests_untraced": (len(timer.raw("untraced")), "count"),
        "requests_traced": (n, "count"),
    }
    return metrics, extra


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aesimc" / "__init__.py").is_file():
        print("error: no aesimc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aesimc

    if Path(aesimc.__file__).resolve().parent != SRC / "aesimc":
        print("error: imported aesimc from %s, not %s" % (aesimc.__file__, SRC),
              file=sys.stderr)
        return 2

    setup = None if args.trace else measure_setup(args.workload)
    timer = Timer()

    from tracer import Tracer
    from workloads import WORKLOADS, Reference

    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = Reference()
    for err in ref.errors:
        print("simulated breakdown check failed: %s" % err, file=sys.stderr)
    workload = WORKLOADS[args.workload](Random(args.seed), workdir, ref)

    tracer = None
    if args.trace:
        tracer = Tracer()
        wrap_layers(tracer)
    loop = Loop(workload, timer, tracer)
    t0 = perf_counter()
    loop.run(args.seconds)

    if args.trace:
        metrics, extra = per_layer(loop, tracer, ref)
        tracer.write_jsonl(OUT / ("spans_%s.jsonl" % args.workload), t0)
    else:
        metrics, extra = end_to_end(loop, workload, ref, setup)
        if args.workload == "sweep_design":
            # Each sweep point simulates one block, so the two rates agree.
            extra["points_per_s"] = metrics["blocks_per_s"]

    correct = loop.failed == 0 and not ref.errors
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("%-48s %s %s" % (name, value, unit))
    if not args.trace:
        for name, (value, unit) in ref.breakdown.items():
            print("%-48s %s %s" % (name, value, unit))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    suffix = "_traced" if args.trace else ""
    (OUT / ("BENCH_%s%s.json" % (args.workload, suffix))).write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
