"""Time the acceptance gate's slowest tests on two commits, alternately.

Run from the repository root:

    python3 scripts/tier1_pair.py --base HEAD~1 --head HEAD --out BENCH_<n>_tier1.json

Gate tests c5, c6 and c8 are the bulk of the tier-1 run's wall time. Each
revision is exported as ``scripts/bench_pair.py`` exports it, and each
test runs in its own fresh ``python -m pytest`` process from the root of
each side's tree (so each side runs its own ``tests/test_acceptance.py``),
with ``PYTHONPATH`` set to that tree's ``src/`` and
``OPENBLAS_NUM_THREADS`` removed from the environment, as the tier-1
verify command runs them. The pairs alternate as bench_pair's do, test by
test, and there are as many. For every run the output holds the test's
call time as pytest reports it (``call_s``) and the wall time of its
process (``process_s``), and per test and side the median of each; it
also holds bench_pair's header: the machine, the BLAS build, and each
side's commit, ``src/`` tree id and ``src/`` line count. A test that fails
stops the script with its output.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pair import PAIRS, export_pair, header, run_pair

TESTS = ("test_c5_", "test_c6_", "test_c8_")


def run_once(tree, test):
    """One pytest process in `tree` for the gate test whose name starts with `test`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(tree / "src")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=1",
           "--durations-min=0", "-k", test, "tests/test_acceptance.py"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    process_s = time.perf_counter() - start
    if proc.returncode != 0 or not re.search(r"^1 passed", proc.stdout, re.M):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{proc.stdout}{proc.stderr}")
    call_s = float(re.search(r"([\d.]+)s call ", proc.stdout).group(1))
    return {"call_s": call_s, "process_s": process_s}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision measured as the parent")
    p.add_argument("--head", required=True, help="git revision measured as the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    report = {**header(argv), "OPENBLAS_NUM_THREADS": "unset",
              "tests": {test.strip("_"): {"runs": []} for test in TESTS}}
    with tempfile.TemporaryDirectory(prefix="tier1_pair-") as tmp:
        trees = export_pair(args.base, args.head, Path(tmp), report)
        for i in range(PAIRS):
            for test in TESTS:
                pair = run_pair(i, lambda side: run_once(trees[side], test))
                entry = report["tests"][test.strip("_")]
                entry["runs"].append(pair)
                entry["median"] = {
                    side: {key: float(np.median([r[side][key] for r in entry["runs"]]))
                           for key in ("call_s", "process_s")}
                    for side in ("base", "head")
                }
                print(f"{test} pair {i + 1}/{PAIRS}: "
                      + ", ".join(f"{s} {pair[s]['call_s']:.1f} s" for s in ("base", "head")),
                      file=sys.stderr, flush=True)
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
