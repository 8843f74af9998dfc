"""Per-call timings of each library layer, parent revision against the
working tree, written into BENCH_<n>.json next to the pairs.

    python3 benchmarks/layers.py --parent HEAD --out BENCH_9.json

The two source trees are exported as in ``pairs.py``.  Each side is measured
in its own process, which imports only that side's ``src`` and builds the
same fixed seeded corpus per layer; ``timeit``'s ``autorange`` picks how
many passes over a layer's corpus make one repetition.  The two processes
then take turns, one repetition at a time, alternating which side goes
first, so drift on the host falls on both sides alike; ``REPEAT``
repetitions per side give the quartiles of the time per call.
The layers are those of the north star in ROADMAP.md:

    chars.monomial_mul, chars.character_mul, qseries.theta_leading,
    qseries.theta_series, qseries.theta_ratio_limit, balanced.q_limit,
    balanced.z_limit, balanced.double_limit, pipeline.expected_diagonal

The result goes under the key ``layers`` of ``--out``; the rest of the file,
such as the pairs ``pairs.py`` wrote, is kept, and its ``parent_commit`` must
be the one ``--parent`` names.  Like ``pairs.py``, it times
only its own processes, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import timeit
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs  # noqa: E402

SEED = 9  # of the corpus
REPEAT = 9  # timeit repetitions per layer and side


def corpus(sl) -> dict:
    """Layer name -> (list of argument tuples, the function called on each)."""
    rng = random.Random(f"layers/{SEED}")
    names = ("a", "hbar", "z")

    def monomial():
        return sl.Monomial({v: Fraction(rng.randint(-6, 6), 2) for v in names if rng.random() < 0.7})

    def character(terms: int):
        return sl.Character({monomial(): rng.choice((-2, -1, 1, 2)) for _ in range(terms)})

    def euler_arguments(V, weight):  # of the Euler class of V, shifted by q^w
        num, den = [], []
        for m, mult in V.items():
            (num if mult > 0 else den).extend([sl.ThetaArgument(m, m.pairing(weight))] * abs(mult))
        return num, den

    def argument():
        m = sl.Monomial({v: rng.randint(-3, 3) for v in names if rng.random() < 0.7})
        m = sl.Monomial({"a": 1}) if m.is_trivial else m  # theta(q^s) with s integral is 0
        return sl.ThetaArgument(m, Fraction(rng.randint(-8, 8), rng.randint(1, 4)))

    conv = sl.ConventionSet("i-j", "neg")
    direction = conv.chamber_direction()
    diagonals, ratios = [], []
    for n in range(1, 7):
        for dg in sl.partitions(n):
            P = sl.polarization(dg, conv)
            N_minus = sl.normal_negative(P, direction)
            for w in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)):
                diagonals.append((P, w, direction))
                if n <= 5:
                    num_n, den_n = euler_arguments(N_minus, {"a": w})
                    num_p, den_p = euler_arguments(P, {"a": w})
                    ratios.append((num_n + den_p, den_n + num_p))

    variables = sl.VariableSet(("a",), "hbar", ("z",))
    sections, q_limits, z_limits = [], [], []
    while len(sections) < 60:
        expr = sl.random_balanced_expression(rng, variables)
        weight = {"a": Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
        chamber = sl.KahlerChamber.uniform(("z",), rng.choice(("zero", "infinity")))
        try:
            norm, value = sl.q_limit(expr, weight, variables)
            pairing = sl.quasiperiod_pairing(expr, variables)
            correction = sl.chamber_correction(pairing, weight, norm, chamber) * norm
            sl.z_limit(value, chamber, correction)
        except ArithmeticError:  # a pole, a mismatch or a divergent chamber limit
            continue
        sections.append((expr, weight, chamber, variables))
        q_limits.append((expr, weight, variables))
        z_limits.append((value, chamber, correction))

    return {
        "chars.monomial_mul": ([(monomial(), monomial()) for _ in range(500)], lambda x, y: x * y),
        "chars.character_mul": ([(character(5), character(5)) for _ in range(200)], lambda x, y: x * y),
        "qseries.theta_leading": ([(argument(),) for _ in range(500)], sl.theta_leading),
        "qseries.theta_series": ([(argument(), 4) for _ in range(50)], sl.theta_series),
        "qseries.theta_ratio_limit": (ratios, sl.theta_ratio_limit),
        "balanced.q_limit": (q_limits, sl.q_limit),
        "balanced.z_limit": (z_limits, sl.z_limit),
        "balanced.double_limit": (sections, sl.double_limit),
        "pipeline.expected_diagonal": (diagonals, sl.expected_diagonal),
    }


def serve(src: str) -> None:
    """Measure layers of this side on request: for each layer name read from
    stdin, one repetition, written to stdout as microseconds per call."""
    sys.path.insert(0, os.path.join(src, "src"))
    import stablimits as sl

    if not os.path.abspath(sl.__file__).startswith(os.path.join(src, "src") + os.sep):
        raise SystemExit(f"stablimits was imported from {sl.__file__}, not from {src}")
    timers = {}
    for name, (cases, fn) in corpus(sl).items():
        def one_pass(cases=cases, fn=fn):
            for args in cases:
                fn(*args)

        timer = timeit.Timer(one_pass)
        number, _ = timer.autorange()
        timers[name] = (timer, number, len(cases))
    print(json.dumps(sorted(timers)), flush=True)
    for line in sys.stdin:
        timer, number, calls = timers[line.strip()]
        print(timer.timeit(number) / number / calls * 1e6, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent revision, e.g. HEAD")
    parser.add_argument("--out", help="the BENCH_<n>.json to write into")
    parser.add_argument("--measure", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        serve(args.measure)
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")

    parent_commit = pairs.git("rev-parse", args.parent).decode().strip()
    record = {"parent_commit": parent_commit}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
        if record.get("parent_commit", parent_commit) != parent_commit:
            raise SystemExit(f"{args.out} is about parent {record['parent_commit']}, "
                             f"not {parent_commit}")
    times: dict[str, dict[str, list[float]]] = {}
    with tempfile.TemporaryDirectory(prefix="layers-") as tmp:
        trees = {"parent": parent_commit, "change": pairs.working_tree(tmp)}
        workers = {}
        for side, tree in trees.items():
            pairs.export(tree, os.path.join(tmp, side))
            workers[side] = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--measure", os.path.join(tmp, side)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            names = [json.loads(w.stdout.readline()) for w in workers.values()]
            if names[0] != names[1]:
                raise SystemExit(f"the two sides measure different layers: {names}")
            for name in names[0]:
                times[name] = {side: [] for side in workers}
                for i in range(REPEAT):
                    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                        workers[side].stdin.write(name + "\n")
                        workers[side].stdin.flush()
                        times[name][side].append(float(workers[side].stdout.readline()))
                print(f"{name} measured", file=sys.stderr)
        finally:
            for w in workers.values():
                w.stdin.close()
                w.wait(timeout=60)
    if any(w.returncode for w in workers.values()):
        raise SystemExit("a measuring process failed")

    def quartiles(values: list[float]) -> dict:
        q = statistics.quantiles(values, n=4, method="inclusive")
        return {"q1_us": round(q[0], 3), "median_us": round(q[1], 3), "q3_us": round(q[2], 3)}

    layers = {}
    for name, per_side in times.items():
        layers[name] = {side: quartiles(values) for side, values in per_side.items()}
        layers[name]["change_over_parent"] = round(
            layers[name]["change"]["median_us"] / layers[name]["parent"]["median_us"], 3)
    record["layers"] = {
        "command": f"python3 benchmarks/layers.py --parent {args.parent} --out {args.out}",
        "method": f"{REPEAT} repetitions per layer and side of timeit over passes of a fixed "
                  f"corpus seeded with {SEED} (autorange picks the passes); microseconds per "
                  "call; each side in its own process importing only its own src, the sides "
                  "alternating repetition by repetition",
        "python": platform.python_version(),
        "layers": layers,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
