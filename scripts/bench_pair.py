"""Run the benchmark alternately on two commits and write the pairs as JSON.

Run from the repository root:

    python3 scripts/bench_pair.py --base HEAD~1 --head HEAD \\
        --workload trpca_desk --seed 11 --out BENCH_<n>.json

Each revision is exported with ``git archive`` into a temporary directory,
and ``perfbench/run.py --trace 0`` runs there for the ``run_seconds`` that
``BENCHMARK.json`` fixes, so each side builds what it runs from its own
``src/`` with its own benchmark files, as a fresh checkout would. Each
workload gets ten alternating pairs, the count a claimed gain is judged
on: pair i runs the base first when i is even and the head first when it
is odd. For every workload the output holds each pair's
end-to-end metrics and failure counts, each side's median and quartiles,
and, per metric, the number of pairs in which the head was better (by the
direction ``BENCHMARK.json`` declares; ties count for neither side). It
also records the CPU count, the CPUs this process may run on, the BLAS
build numpy reports, each side's full commit id, and the git tree id of
each side's ``src/`` and its line count over ``src/**/*.py``
(``base_src_lines``, ``head_src_lines``; newlines, as ``wc -l`` counts).
To measure uncommitted work, stage it and pass ``--head $(git stash
create)``. The exports go under ``$TMPDIR``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def export(rev, dest):
    """Write the tree of `rev` into `dest`; return the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def export_pair(base, head, tmp, report):
    """Export revisions `base` and `head` under `tmp`; record each side's
    commit, ``src/`` tree id and ``src/`` line count in `report` and return
    the two trees by side."""
    trees = {side: tmp / side for side in ("base", "head")}
    for side, rev in (("base", base), ("head", head)):
        report[side] = export(rev, trees[side])
        # the tree id names the measured sources whatever commit holds them
        report[f"{side}_src_tree"] = subprocess.run(
            ["git", "rev-parse", f"{report[side]}:src"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
        report[f"{side}_src_lines"] = sum(
            path.read_bytes().count(b"\n") for path in (trees[side] / "src").rglob("*.py"))
    return trees


def run_pair(i, run):
    """Pair `i` of results ``run(side)``: the base runs first when `i` is
    even and the head first when it is odd."""
    order = ("base", "head") if i % 2 == 0 else ("head", "base")
    pair = {"first": order[0]}
    for side in order:
        pair[side] = run(side)
    return pair


def run_once(tree, workload, seed, seconds):
    """One benchmark run in `tree`; returns its parsed JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(pairs, better):
    """Per side median and quartiles of each metric, and the head's wins."""
    out = {"median": {}, "quartiles": {}, "head_wins": {}}
    for side in ("base", "head"):
        values = {name: [p[side]["metrics"][name] for p in pairs] for name in better}
        out["median"][side] = {n: float(np.median(v)) for n, v in values.items()}
        out["quartiles"][side] = {n: [float(q) for q in np.percentile(v, [25, 75])]
                                  for n, v in values.items()}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (p["head"]["metrics"][name] - p["base"]["metrics"][name]) > 0
                   for p in pairs)
        out["head_wins"][name] = f"{wins}/{len(pairs)}"
    return out


def header(argv):
    """The command line and the machine, numpy and BLAS build it ran on."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "argv": sys.argv[1:] if argv is None else list(argv),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": {key: deps.get(key, {}) for key in ("blas", "lapack")},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision measured as the parent")
    p.add_argument("--head", required=True, help="git revision measured as the change")
    p.add_argument("--workload", action="append", required=True,
                   help="workload name; repeat for several")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    report = {**header(argv), "seed": args.seed, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = export_pair(args.base, args.head, Path(tmp), report)
        for workload in args.workload:
            pairs = []
            for i in range(PAIRS):
                pair = run_pair(i, lambda side: run_once(trees[side], workload, args.seed, seconds))
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{PAIRS}: "
                      + ", ".join(f"{s} {pair[s]['metrics']}" for s in ("base", "head")),
                      file=sys.stderr, flush=True)
            report["workloads"][workload] = {"pairs": pairs, **summarize(pairs, better)}
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
