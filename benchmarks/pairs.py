"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 benchmarks/pairs.py --parent HEAD --out BENCH_8.json \\
        --pairs diagrams=8201-8210 --pairs sections=8211-8215 \\
        --traced diagrams=8201 --traced matrix=8216

The script exports two source trees into a temporary directory with
``git archive``: the parent revision, and the working tree (tracked and
untracked files that ``.gitignore`` does not exclude, read through a
temporary index, so the repository's own index is left as it is).  For each
workload and seed it runs the command of ``BENCHMARK.json`` once in each
tree, alternating which side runs first, and for each ``--traced`` one traced
run per side.  It writes the quartiles of every end-to-end metric per side, the
pairs the change wins, the per-layer counts of the traced runs, the commits
and the Python version, in the schema of ``BENCH_5.json``.

It times only its own processes: every number is one that the benchmark
command reports for its own single process (wall clock and CPU time scaled by
its calibration kernel, peak RSS).  Nothing else on the machine is measured
or controlled, so other load on the host shows up as spread between runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def export(tree: str, dest: str) -> None:
    """Extract ``git archive tree`` into dest."""
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(git("archive", tree))) as tar:
        tar.extractall(dest, filter="data")


def working_tree(tmp: str) -> str:
    """A tree object of the working tree, written through a temporary index."""
    env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def seeds(text: str) -> tuple[str, list[int]]:
    """'matrix=7101-7110' or 'matrix=7101,7105' -> ('matrix', [seeds])."""
    workload, _, spec = text.partition("=")
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    if not workload or not out:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return workload, out


def run(side_dir: str, command: list[str], workload: str, seed: int, seconds: float,
        trace: int) -> tuple[dict, dict]:
    """One benchmark run; its detail and result lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=side_dir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {side_dir} exited {proc.returncode}:\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail["detail"], result


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": round(q[0], 4), "median": round(q[1], 4), "q3": round(q[2], 4)}


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Quartiles per side, pairs won by the change (ties count for neither),
    and whether the change's median is worse than the parent's by more than
    the bound."""
    higher = spec["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    rel = qc["median"] / qp["median"] - 1 if qp["median"] else 0.0
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": qp, "change": qc,
        "change_wins": f"{wins}/{len(parent)}",
        "median_change_rel": round(rel, 4),
        "parent_iqr": round(qp["q3"] - qp["q1"], 4),
        "worse_than_bound": (-rel if higher else rel) > spec["bound"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision, e.g. HEAD")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=seeds, action="append", required=True,
                        help="WORKLOAD=SEEDS, one pair per seed; SEEDS like 7101-7110 or 1,5,9")
    parser.add_argument("--traced", type=seeds, action="append", default=[],
                        help="WORKLOAD=SEED of one traced run per side; may be repeated")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command = bench["command"]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent_commit = git("rev-parse", args.parent).decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    out: dict = {
        "parent_commit": parent_commit,
        "change_commit": f"the working tree on {head}: the commit that adds this file "
                         "(a file cannot record its own commit hash)",
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} cores visible, "
                "one benchmark process at a time",
        "scope": "benchmarks/pairs.py times only its own processes: each number is one that "
                 f"{' '.join(command)} reports for its own single process (wall clock and CPU "
                 "time scaled by its calibration kernel, peak RSS); the rest of the machine is "
                 "neither measured nor controlled.",
        "command": f"{' '.join(command)} --workload W --seed S --seconds {seconds:g}, "
                   "each side run from its own git archive of the source tree",
        "method": "one pair per seed, alternating which side runs first",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export(parent_commit, sides["parent"])
        export(working_tree(tmp), sides["change"])
        for workload, ws in args.pairs:
            values = {side: {name: [] for name in metrics} for side in sides}
            attempted = {side: 0 for side in sides}
            correct, failed = True, 0
            for i, seed in enumerate(ws):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    _, result = run(sides[side], command, workload, seed, seconds, 0)
                    attempted[side] += result["attempted"]
                    correct &= result["correct"]
                    failed += result["failed"]
                    for name in metrics:
                        values[side][name].append(result["metrics"][name]["value"])
                    print(f"{workload} seed {seed} {side}: "
                          f"{result['metrics']['ops_per_s']['value']:.2f} op/s", file=sys.stderr)
            out["workloads"][workload] = {
                "seeds": ws, "correct": correct, "failed": failed, "attempted": attempted,
                "metrics": {name: summarize(spec, values["parent"][name], values["change"][name])
                            for name, spec in metrics.items()},
            }
        for workload, (seed, *_) in args.traced:
            traced = {side: run(sides[side], command, workload, seed, seconds, 1) for side in sides}
            out[f"traced_{workload}"] = {
                "command": f"{' '.join(command)} --workload {workload} --seed {seed} --trace 1",
                **{key: {side: traced[side][0][key] for side in sides}
                   for key in ("untraced_pass_s", "traced_pass_s")},
                "metrics": {name: {**{side: round(traced[side][1]["metrics"][name]["value"], 4)
                                      for side in sides},
                                   "unit": traced["parent"][1]["metrics"][name]["unit"]}
                            for name in sorted(traced["parent"][1]["metrics"])},
            }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
