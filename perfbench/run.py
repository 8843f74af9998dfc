"""Benchmark of the stablimits exact engine.

    python3 perfbench/run.py --workload sections --seed 1 --seconds 20 --trace 0

Runs one workload (sections, matrix, diagrams or series) in this process as a
closed loop: one operation is sent, and the next only after it finished.
The seed picks the run's inputs from the pools in ``reference.json``, one
entry from each of N equal slices of the pool sorted by cost, so every run
gets the same mix of cheap and costly inputs.  Every output is checked
against the committed reference; a mismatch counts as a failed operation.

With ``--trace 0`` the op list is run in passes until the operations have
taken ``--seconds`` of wall time, and the end-to-end metrics are printed,
with times scaled to a reference machine speed (see ``Speed``).  With
``--trace 1`` every op runs once untraced and once traced; the per-layer
metrics are printed and the spans written to ``.perfbench/``.  The last line
of standard output is the JSON result; the line before it holds details.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import layertrace  # noqa: E402

# Ops per run, one per pool entry.
ITEMS = {"sections": 200, "matrix": 64, "diagrams": 200, "series": 200}
SETUP_REPS = 3
WARMUP_OPS = 4
TAIL_BEYOND = 10
# Median time of calibration_kernel at the reference speed, in ms: the usual
# speed of a 2-core Xeon virtual machine running CPython 3.11.7.
CALIBRATION_MS = 1.65
SPEED_WINDOW = 3


class NoResult(Exception):
    """The checkout lacks what the benchmark needs, or no op succeeded."""


def import_stablimits():
    """A fresh import of the library from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "stablimits" or m.startswith("stablimits.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        sl = importlib.import_module("stablimits")
        for layer in layertrace.LAYERS:
            importlib.import_module(f"stablimits.{layer}")
    except ImportError as exc:
        raise NoResult(f"cannot import stablimits from {SRC}: {exc}") from exc
    if not os.path.abspath(sl.__file__).startswith(SRC + os.sep):
        raise NoResult(f"stablimits was imported from {sl.__file__}, not from {SRC}")
    return sl


def load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise NoResult(f"cannot read {REFERENCE}: {exc}") from exc


def select(pool: list, count: int, rng: random.Random) -> list[tuple[int, dict]]:
    """One entry from each of ``count`` equal slices of the cost-sorted pool."""
    count = min(count, len(pool))
    bounds = [len(pool) * i // count for i in range(count + 1)]
    picks = [rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [(i, pool[i]["spec"]) for i in picks]


class Run:
    """Counts of attempted and failed operations and their first errors."""

    def __init__(self):
        self.pool: list[dict] = []  # the workload's entries in reference.json
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, op: inputs.Op, wrap=None):
        """Run and check one op; return (ok, wall s, cpu s, output)."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = wrap(op.run) if wrap else op.run()
            ok = True
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, ok = repr(exc), False
        t1 = time.perf_counter()
        c1 = time.process_time()
        if ok:
            try:
                got = op.check(out)
            except Exception as exc:
                got = repr(exc)
            ok = got == self.pool[op.item]["expect"]
            if not ok:
                out = f"output fingerprint {got!r} differs from the reference"
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"pool entry {op.item}: {out}")
        return ok, t1 - t0, c1 - c0, out


def setup(workload: str, seed: int, run: Run) -> tuple[float, list]:
    """Import, input generation, JSON writing and warm-up, timed together."""
    t0 = time.perf_counter()
    reference = load_reference()
    sl = import_stablimits()
    run.pool = reference["workloads"][workload]
    rng = random.Random(f"{workload}/{seed}")
    workdir = os.path.join(WORKDIR, workload)
    os.makedirs(workdir, exist_ok=True)
    ops = inputs.PREPARE[workload](sl, select(run.pool, ITEMS[workload], rng), workdir)
    for op in sorted(ops, key=lambda o: o.item)[:WARMUP_OPS]:
        run.call(op)
    rng.shuffle(ops)
    return time.perf_counter() - t0, ops


def set_up(workload: str, seed: int, run: Run, speed: "Speed"):
    """SETUP_REPS set-ups; the ops of the last one, and the time of each,
    as measured and scaled to the reference speed."""
    measured, scaled = [], []
    for _ in range(SETUP_REPS):
        for _ in range(SPEED_WINDOW):
            before = speed.sample()
        took, ops = setup(workload, seed, run)
        for _ in range(SPEED_WINDOW):
            speed.sample()
        measured.append(took)
        scaled.append(took * speed.factors(before)[0])
    return ops, measured, scaled


class _Monomial:
    """A frozen copy of the shape of the library's monomials: sorted
    (variable, exponent) pairs with a cached hash."""

    __slots__ = ("exps", "hash")

    def __init__(self, items):
        self.exps = tuple(sorted((v, e) for v, e in items if e))
        self.hash = hash(self.exps)

    def __mul__(self, other: "_Monomial") -> "_Monomial":
        acc = dict(self.exps)
        for v, e in other.exps:
            acc[v] = acc.get(v, 0) + e
        return _Monomial(acc.items())

    def __eq__(self, other) -> bool:
        return self.exps == other.exps

    def __hash__(self) -> int:
        return self.hash


def _calibration_character(rng: random.Random) -> dict:
    return {_Monomial([("a", rng.randint(-4, 4)), ("z", rng.randint(-3, 3)),
                       ("hbar", rng.randint(-2, 2))]): rng.choice((-1, 1)) for _ in range(18)}


_CAL_RNG = random.Random(3)
_CAL_LEFT = _calibration_character(_CAL_RNG)
_CAL_RIGHT = _calibration_character(_CAL_RNG)


def calibration_kernel() -> list:
    """Multiply two fixed 18-term characters the way the library multiplies
    characters, with the frozen copy above: it slows down with the machine
    the way the library's own code does, and a change to the library cannot
    move it."""
    acc: dict = {}
    for m1, c1 in _CAL_LEFT.items():
        for m2, c2 in _CAL_RIGHT.items():
            m = m1 * m2
            acc[m] = acc.get(m, 0) + c1 * c2
    return sorted((m.exps, c) for m, c in acc.items() if c)


class Speed:
    """The machine's speed relative to the reference speed, over time.

    The host shares its cores with other machines, and the same work runs up
    to 1.8 times faster or slower for tens of seconds at a time.  The
    calibration kernel runs between timed ops; a time is scaled by
    CALIBRATION_MS over the median kernel time of the SPEED_WINDOW samples
    on each side of it, which gives the time it would take at the reference
    speed.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> int:
        """Run the kernel once; return the index of the sample."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        return len(self.wall) - 1

    def factors(self, after: int) -> tuple[float, float]:
        """Scale factors for a wall time and a CPU time measured right after
        sample ``after`` and before the sample that follows it."""
        lo, hi = max(0, after + 1 - SPEED_WINDOW), after + 1 + SPEED_WINDOW
        return (CALIBRATION_MS / (1000 * statistics.median(self.wall[lo:hi])),
                CALIBRATION_MS / (1000 * statistics.median(self.cpu[lo:hi])))


def timed_phase(ops: list, run: Run, seconds: float, speed: Speed):
    """Cycle through the op list until the ops took ``seconds`` of wall time
    and each ran at least once.  Per op, the median wall and CPU time, as
    measured and scaled to the reference speed."""
    timings: list[tuple[int, int, float, float]] = []
    spent = 0.0
    i = 0
    while i < len(ops) or spent < seconds:
        k = i % len(ops)
        before = speed.sample()
        ok, wall, cpu, _ = run.call(ops[k])
        spent += wall
        if ok:
            timings.append((k, before, wall, cpu))
        i += 1
    speed.sample()
    samples: list[list[tuple[float, float, float, float]]] = [[] for _ in ops]
    for k, before, wall, cpu in timings:
        fw, fc = speed.factors(before)
        samples[k].append((wall * 1000, cpu * 1000, wall * fw * 1000, cpu * fc * 1000))
    per_op = [[statistics.median(col) for col in zip(*s)] for s in samples if s]
    return [list(col) for col in zip(*per_op)], i / len(ops), spent


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples beyond
    it, and its nearest-rank value."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return 0, min(values)
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def timing_metrics(wall_ms: list[float], cpu_ms: list[float]) -> dict:
    return {
        "ops_per_s": (1000 * len(wall_ms) / sum(wall_ms), "op/s"),
        "op_p50_ms": (statistics.median(wall_ms), "ms"),
        "op_tail_ms": (tail(wall_ms)[1], "ms"),
        "cpu_ms_per_op": (sum(cpu_ms) / len(cpu_ms), "ms"),
    }


def end_to_end(ops: list, run: Run, seconds: float, speed: Speed,
               raw_setup: list[float], scaled_setup: list[float]):
    columns, passes, spent = timed_phase(ops, run, seconds, speed)
    if not columns:
        raise NoResult("every operation failed")
    wall_ms, cpu_ms, scaled_wall_ms, scaled_cpu_ms = columns
    metrics = timing_metrics(scaled_wall_ms, scaled_cpu_ms)
    metrics["setup_s"] = (statistics.median(scaled_setup), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    measured = timing_metrics(wall_ms, cpu_ms)
    measured["setup_s"] = (statistics.median(raw_setup), "s")
    detail = {
        "ops_in_list": len(ops),
        "passes": round(passes, 3),
        "timed_s": round(spent, 3),
        "op_tail_percentile": tail(wall_ms)[0],
        "op_tail_samples": len(wall_ms),
        "failed_ratio": {"value": run.failed / run.attempted, "unit": "1"},
        "calibration_ms": {"reference": CALIBRATION_MS,
                           "median": 1000 * statistics.median(speed.wall)},
        "as_measured": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "setup_reps_s": [round(t, 4) for t in raw_setup],
    }
    return metrics, detail


def per_layer(workload: str, seed: int, ops: list, run: Run):
    """One pass in which every op runs untraced and then traced, so that
    both runs of an op see the same machine speed."""
    tracer = layertrace.Tracer()
    tracer.prepare(layertrace.loaded_modules())
    records = out_bytes = entries = 0
    untraced = traced = 0.0
    for op in ops:
        untraced += run.call(op)[1]
        tracer.install()
        try:
            ok, wall, _, out = run.call(op, lambda fn: tracer.op_span(f"op.{workload}", fn))
        finally:
            tracer.remove()
        traced += wall
        if ok and isinstance(out, str):
            records += out.count("\n")
            out_bytes += len(out.encode())
        entries += op.entries
    path = os.path.join(WORKDIR, f"trace-{workload}-{seed}.jsonl")
    tracer.write_spans(path)
    metrics = tracer.metrics(entries, records, out_bytes)
    metrics["trace.overhead_ratio"] = (traced / untraced - 1, "1")
    detail = {
        "ops_in_list": len(ops),
        "untraced_pass_s": round(untraced, 3),
        "traced_pass_s": round(traced, 3),
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
        "targets_missing": tracer.missing,
        "spans_file": os.path.relpath(path, ROOT),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(inputs.PREPARE))
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the run's inputs and their order; same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall time the timed operations take together (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run()
    speed = Speed()
    try:
        ops, raw_setup, scaled_setup = set_up(args.workload, args.seed, run, speed)
        # The modules of the earlier imports are cyclic garbage; collect them
        # now, and keep the reference pool out of later collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, detail = per_layer(args.workload, args.seed, ops, run)
        else:
            metrics, detail = end_to_end(ops, run, args.seconds, speed, raw_setup, scaled_setup)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in run.errors:
        print(f"failed: {err}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
