"""Check that two source trees give the same completion answers on fixed seeds.

Run from the repository root, with the tree to compare against exported
somewhere (for example with ``git archive``):

    python3 scripts/lrtc_fixed_seed.py BASE_SRC HEAD_SRC

Each tree runs in its own child process on:

* the acceptance gate's desk instances (30x30x30, rank 5, k_init 10,
  noise 0.1) for seeds 0 and 1 and solvers bcde and qn: the c5 cell
  (missing rate 0.7, ``sym:p=0.3333``, lambda 8), the same instance
  unregularized (lambda 0, where both solvers skip penalty work) and the
  c6 power-one cell (missing rate 0.9, ``sym:p=1``, lambda 0.2);
* the c5 and c6 ``run_experiment(spec, timing=False)`` CSVs (both c5
  studies, both c6 arms, ten seeds each);
* one 100x100x100 cell per solver (missing rate 0.9, ``sym:p=0.3333``,
  lambda 8, seed 0, 100 sweeps or iterations), large enough that the
  masked-loss kernel forms its dense product in several column blocks
  and, on two or more CPUs, splits them among threads;
* the ``run_experiment(spec, timing=False)`` CSVs of that BCDE instance
  with one cell (seed 0), whose one pool worker has every CPU, and with
  two cells (seeds 0 and 1), whose two workers share them.

A solver cell is "identical" when factors, ``recovered``, rank and
objective traces, iteration count and ``converged`` are exactly equal. It
"differs by rounding" when the rank traces, iteration counts and
``converged`` match and the largest deviations of ``recovered`` and of the
objective trace, each relative to the largest magnitude in the base's
array, are at most 1e-12; the line then gives the deviations. Anything
else, and any CSV that is not byte-identical, "DIFFERS". Prints one line
per cell and exits non-zero if any cell differs beyond rounding.
"""

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

from trpca_fixed_seed import same, size_of_difference, within_rounding

DESK = dict(task="lrtc", shape=(30, 30, 30), true_rank=5, k_init=10, noise_level=0.1,
            solver="bcde", seeds=tuple(range(10)))
CELLS = {
    "c5": (dict(missing_rate=0.7, reg="sym:p=0.3333"), 8.0),
    "c5 plain": (dict(missing_rate=0.7, reg="sym:p=0.3333"), 0.0),
    "c6 p=1": (dict(missing_rate=0.9, reg="sym:p=1"), 0.2),
}
CSVS = {
    "c5 tuned": dict(missing_rate=0.7, reg="sym:p=0.3333", lambdas=(1.0, 2.0, 4.0, 8.0, 16.0)),
    "c5 plain": dict(missing_rate=0.7, reg="sym:p=0.3333", lambdas=(0.0,)),
    "c6 p=0.3333": dict(missing_rate=0.9, reg="sym:p=0.3333", lambdas=(0.5, 1.0, 2.0, 4.0, 8.0)),
    "c6 p=1": dict(missing_rate=0.9, reg="sym:p=1", lambdas=(0.05, 0.1, 0.2, 0.4, 0.8)),
}
LARGE = dict(task="lrtc", shape=(100, 100, 100), true_rank=5, k_init=10, noise_level=0.1,
             missing_rate=0.9, reg="sym:p=0.3333", solver="bcde", t_max=100)


def solve_cell(spec, seed, lam):
    from tensorenr import harness
    from tensorenr.lrtc import LrtcConfig, solve

    _, data, mask = harness.gen_lrtc_data(spec, seed)
    cfg = LrtcConfig(k_init=spec.k_init, lam=lam, spec=spec.reg, solver=spec.solver,
                     t_max=spec.t_max, rng_seed=seed)
    rep = solve(data, mask, cfg)
    return dict(factors=rep.factors, recovered=rep.recovered, rank_trace=rep.rank_trace,
                objective_trace=rep.objective_trace, iterations=rep.iterations,
                converged=rep.converged)


def dump(path):
    """Solve every cell with the importable tensorenr and pickle the answers."""
    from tensorenr import harness

    out = {}
    for name, (cell, lam) in CELLS.items():
        for solver in ("bcde", "qn"):
            spec = harness.ExperimentSpec(**{**DESK, **cell, "solver": solver})
            for seed in (0, 1):
                out[f"{name} {solver} seed={seed} lam={lam}"] = solve_cell(spec, seed, lam)
    for name, arm in CSVS.items():
        out[f"{name} csv"] = harness.run_experiment(harness.ExperimentSpec(**DESK, **arm),
                                                    timing=False)
    for solver in ("bcde", "qn"):
        spec = harness.ExperimentSpec(**{**LARGE, "solver": solver})
        out[f"100^3 {solver} seed=0 lam=8.0"] = solve_cell(spec, 0, 8.0)
    for seeds in ((0,), (0, 1)):
        spec = harness.ExperimentSpec(**LARGE, seeds=seeds, lambdas=(8.0,))
        out[f"100^3 csv, {len(seeds)} cell(s)"] = harness.run_experiment(spec, timing=False)
    Path(path).write_bytes(pickle.dumps(out))


def run_tree(src, path):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run([sys.executable, __file__, "--dump", str(path)], env=env, check=True)
    return pickle.loads(Path(path).read_bytes())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_src", nargs="?")
    p.add_argument("head_src", nargs="?")
    p.add_argument("--dump", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not (args.base_src and args.head_src):
        p.error("BASE_SRC and HEAD_SRC are required")
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tree(args.base_src, Path(tmp) / "base.pkl")
        head = run_tree(args.head_src, Path(tmp) / "head.pkl")
    counts = {"identical": 0, "rounding": 0, "DIFFERS": 0}
    for name, want in base.items():
        got = head[name]
        if isinstance(want, dict):
            detail = f"iterations={want['iterations']} final_rank={want['rank_trace'][-1]}"
            if all(same(want[field], got[field]) for field in want):
                verdict = "identical"
            else:
                verdict = "rounding" if within_rounding(want, got) else "DIFFERS"
                detail += "; " + size_of_difference(want, got)
        else:
            verdict = "identical" if want == got else "DIFFERS"
            detail = f"{len(want)} bytes"
        counts[verdict] += 1
        label = "differs by rounding" if verdict == "rounding" else verdict
        print(f"{name}: {label} ({detail})")
    print(f"{counts['identical']} identical, {counts['rounding']} differ by rounding, "
          f"{counts['DIFFERS']} differ, of {len(base)}")
    return 1 if counts["DIFFERS"] else 0


if __name__ == "__main__":
    sys.exit(main())
