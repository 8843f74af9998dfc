"""The ``matrix`` pool runs of ``limit-apply`` on matrix files that the parent
wrote, parent library against the working tree's, written into BENCH_<n>.json.

    python3 benchmarks/parent_files.py --parent HEAD --out BENCH_11.json

A user's restriction matrices were written once, by whatever library they
had; this is the gain such files see.  The two source trees are exported as
in ``pairs.py``.  The parent's ``perfbench/inputs.build_matrix`` writes the
192 matrix specs of ``perfbench/reference.json`` with the parent library,
once; each file is run in both chambers, 384 runs in all.  Each side then
runs in its own process, which imports only that side's ``src`` and, on
request, runs ``stablimits.cli.main`` on all 384 argvs with standard output
captured, timed by ``time.process_time``.  After one untimed pass each, the
two processes take turns, ``PAIRS`` passes each, alternating which side goes
first, so drift on the host falls on both sides alike.  The output and exit
code of every run are hashed on both sides; a run whose hashes differ stops
the script with an error, so a gain is never bought with a different output.

The result goes under the key ``matrix_parent_files`` of ``--out``; the rest
of the file is kept, and its ``parent_commit`` must be the one ``--parent``
names, as in ``layers.py``.  Like ``pairs.py``, it times only its own
processes, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs  # noqa: E402

PAIRS = 10
GAIN = 0.10  # a pair is a clear win when the change runs at least 1 + GAIN times the parent's speed


def import_from(tree: str, *subdirs: str):
    """Put tree's subdirs first on sys.path and import stablimits from there."""
    for sub in reversed(subdirs):
        sys.path.insert(0, os.path.join(tree, sub))
    import stablimits

    if not os.path.abspath(stablimits.__file__).startswith(os.path.join(tree, "src") + os.sep):
        raise SystemExit(f"stablimits was imported from {stablimits.__file__}, not from {tree}")
    return stablimits


def write_files(tree: str, dest: str) -> None:
    """Write the matrix pool with tree's library; print the 384 argvs as JSON."""
    sl = import_from(tree, "src", "perfbench")
    import inputs

    with open(os.path.join(tree, "perfbench", "reference.json")) as fh:
        pool = json.load(fh)["workloads"]["matrix"]
    argvs = []
    for i, entry in enumerate(pool):
        spec = entry["spec"]
        path = os.path.join(dest, f"matrix-{i}.json")
        with open(path, "w") as fh:
            json.dump(inputs.build_matrix(sl, spec, spec["slopes"]).to_json(), fh)
        argvs += [["limit-apply", "--input", path, "--w=" + spec["w"], "--chamber", chamber]
                  for chamber in ("zero", "infinity")]
    print(json.dumps(argvs))


def serve(tree: str, argvs_path: str) -> None:
    """For each line read from stdin, one pass over the argvs, answered with
    its CPU seconds and one hash per run of the output and exit code."""
    import_from(tree, "src")
    from stablimits import cli

    with open(argvs_path) as fh:
        argvs = json.load(fh)
    for _ in sys.stdin:
        digests = []
        spent = 0.0
        for argv in argvs:
            buf = io.StringIO()
            c0 = time.process_time()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            spent += time.process_time() - c0
            digests.append(hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()[:16])
        print(json.dumps({"cpu_s": spent, "digests": digests}), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="parent revision, e.g. HEAD")
    parser.add_argument("--out", help="the BENCH_<n>.json to write into")
    parser.add_argument("--write", nargs=2, metavar=("TREE", "DEST"), help=argparse.SUPPRESS)
    parser.add_argument("--measure", nargs=2, metavar=("TREE", "ARGVS_JSON"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        write_files(*args.write)
        return 0
    if args.measure:
        serve(*args.measure)
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
    me = os.path.abspath(__file__)
    cpu: dict[str, list[float]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="parent-files-") as tmp:
        trees = {"parent": parent_commit, "change": pairs.working_tree(tmp)}
        for side, tree in trees.items():
            pairs.export(tree, os.path.join(tmp, side))
        files = os.path.join(tmp, "files")
        os.makedirs(files)
        argvs_path = os.path.join(tmp, "argvs.json")
        with open(argvs_path, "w") as fh:
            subprocess.run([sys.executable, me, "--write", os.path.join(tmp, "parent"), files],
                           check=True, stdout=fh)
        with open(argvs_path) as fh:
            argvs = json.load(fh)
        workers = {side: subprocess.Popen([sys.executable, me, "--measure", os.path.join(tmp, side),
                                           argvs_path], stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, text=True)
                   for side in trees}

        def one_pass(side: str) -> dict:
            workers[side].stdin.write("\n")
            workers[side].stdin.flush()
            return json.loads(workers[side].stdout.readline())

        try:
            for i in range(PAIRS + 1):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {side: one_pass(side) for side in order}
                differ = [j for j, (p, c) in enumerate(zip(got["parent"]["digests"],
                                                           got["change"]["digests"])) if p != c]
                if differ:
                    raise SystemExit(f"{len(differ)} of {len(got['parent']['digests'])} runs differ "
                                     f"in output or exit code, the first: "
                                     f"{' '.join(argvs[differ[0]])}")
                if i:  # the first pass of each side warms up, untimed
                    for side in order:
                        cpu[side].append(round(got[side]["cpu_s"], 3))
                print(f"pass {i}: parent {got['parent']['cpu_s']:.2f} s, "
                      f"change {got['change']['cpu_s']:.2f} s", file=sys.stderr)
        finally:
            for w in workers.values():
                w.stdin.close()
                w.wait(timeout=60)
    if any(w.returncode for w in workers.values()):
        raise SystemExit("a measuring process failed")

    def quartiles(values: list[float]) -> dict:
        q = statistics.quantiles(values, n=4, method="inclusive")
        return {"q1": round(q[0], 3), "median": round(q[1], 3), "q3": round(q[2], 3)}

    ratios = [p / c for p, c in zip(cpu["parent"], cpu["change"])]
    qp, qc = quartiles(cpu["parent"]), quartiles(cpu["change"])
    record["matrix_parent_files"] = {
        "command": f"python3 benchmarks/parent_files.py --parent {args.parent} --out {args.out}",
        "what": f"CPU seconds of all {len(argvs)} limit-apply runs of the matrix pool "
                "(the matrix entries of perfbench/reference.json, chambers zero and infinity), "
                "run in process, on matrix files that perfbench/inputs.build_matrix wrote with "
                "the parent library; matrix building and imports excluded",
        "method": f"{PAIRS} pairs after one untimed pass per side, alternating which side runs "
                  "first; each side in its own process importing only its own src, running "
                  "stablimits.cli.main on the same files, timed by time.process_time",
        "cpu_s": cpu,
        "parent": qp,
        "change": qc,
        "change_wins": f"{sum(r > 1 for r in ratios)}/{PAIRS}",
        f"pairs_at_least_{round(100 * GAIN)}pct_faster":
            f"{sum(r >= 1 + GAIN for r in ratios)}/{PAIRS}",
        "parent_over_change": round(qp["median"] / qc["median"], 3),
        "parent_iqr": round(qp["q3"] - qp["q1"], 3),
        "output": "byte-identical: the hash of the output and exit code of each run agrees "
                  "between the two libraries on every pass",
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
