"""Regenerate ``perfbench/reference.json``: the input pools and expected outputs.

    python3 perfbench/make_reference.py [workload ...]

Each pool entry holds a spec (plain data from which ``inputs.py`` builds the
input), its expected fingerprints and its measured cost.  Entries are stored
sorted by cost, which is what ``run.py`` stratifies on.  Every operation must
succeed here; a failing one stops the script, since a benchmark input may not
fail.  Run it only when the benchmark's inputs change, never to absorb a
change of the program's output.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import stablimits as sl  # noqa: E402
import stablimits.cli  # noqa: E402,F401
import stablimits.qseries  # noqa: E402,F401

import inputs  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
POOL_SIZE = {"sections": 1200, "diagrams": 480, "series": 800}
MATRIX_SEEDS = 2


def matrix_specs() -> list[dict]:
    """Every residue component of size >= 2 for n = 5..8 and b = 2..4, at
    four shifts of denominator b, with MATRIX_SEEDS entry seeds each."""
    conv = sl.ConventionSet("i-j", "neg")
    specs = []
    for n in range(5, 9):
        for b in (2, 3, 4):
            ws = [Fraction(p, b) for p in range(-2 * b, 2 * b) if Fraction(p, b).denominator == b]
            rng = random.Random(f"matrix-spec/{n}/{b}")
            for key, component in sorted(sl.enumerate_components(n, b, conv).items()):
                if len(component) < 2:
                    continue
                for w in rng.sample(ws, 4):
                    for _ in range(MATRIX_SEEDS):
                        specs.append({
                            "labels": [str(d) for d in component],
                            "w": str(w),
                            "seed": len(specs),
                        })
    return specs


def pool_specs(workload: str) -> list[dict]:
    if workload == "matrix":
        return matrix_specs()
    n = POOL_SIZE[workload]
    make = {
        "sections": lambda rng, k: inputs.section_spec(rng, k),
        "diagrams": lambda rng, k: inputs.diagrams_spec(rng),
        "series": lambda rng, k: inputs.series_spec(rng),
    }[workload]
    return [make(random.Random(f"{workload}-spec/{k}"), k) for k in range(n)]


def measure(workload: str, spec: dict, workdir: str) -> tuple[float, Any]:
    """The wall time of one run of the spec's op in ms, and its fingerprint."""
    (op,) = inputs.PREPARE[workload](sl, [(0, spec)], workdir)
    t0 = time.perf_counter()
    out = op.run()
    cost = 1000 * (time.perf_counter() - t0)
    return round(cost, 3), op.check(out)


def build(workload: str, workdir: str) -> list[dict]:
    pool = []
    for spec in pool_specs(workload):
        if workload == "matrix":
            try:
                spec["slopes"] = True
                cost, expect = measure(workload, spec, workdir)
            except inputs.OpFailed:
                spec["slopes"] = False  # the degree window fails for these entries
                cost, expect = measure(workload, spec, workdir)
        else:
            cost, expect = measure(workload, spec, workdir)
        pool.append({"spec": spec, "cost_ms": cost, "expect": expect})
    pool.sort(key=lambda e: e["cost_ms"])
    return pool


def main(argv: list[str]) -> int:
    workloads = argv or list(inputs.PREPARE)
    reference = {"point": inputs.POINT, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench", "reference")
    os.makedirs(workdir, exist_ok=True)
    for workload in workloads:
        t0 = time.perf_counter()
        reference["workloads"][workload] = build(workload, workdir)
        print(f"{workload}: {len(reference['workloads'][workload])} entries "
              f"in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    write(reference)
    return 0


def write(reference: dict) -> None:
    """One pool entry per line, so that a regenerated pool diffs by entry."""
    with open(REFERENCE, "w") as fh:
        fh.write('{"point": %s,\n"workloads": {\n' % json.dumps(reference["point"], sort_keys=True))
        for i, (workload, pool) in enumerate(sorted(reference["workloads"].items())):
            fh.write('%s"%s": [\n' % (",\n" if i else "", workload))
            fh.write(",\n".join(json.dumps(e, sort_keys=True) for e in pool))
            fh.write("\n]")
        fh.write("\n}}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
