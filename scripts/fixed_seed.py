"""Check that two source trees give the same answers on fixed seeds.

Run from the repository root, with the tree to compare against exported
somewhere (for example with ``git archive``), naming the task first:

    python3 scripts/fixed_seed.py lrtc BASE_SRC HEAD_SRC
    python3 scripts/fixed_seed.py trpca BASE_SRC HEAD_SRC

Each tree runs in its own child process. ``lrtc`` (completion) runs:

* the acceptance gate's desk instances (30x30x30, rank 5, k_init 10,
  noise 0.1) for seeds 0 and 1 and solvers bcde and qn: the c5 cell
  (missing rate 0.7, ``sym:p=0.3333``, lambda 8), the same instance
  unregularized (lambda 0, where both solvers skip penalty work) and the
  c6 power-one cell (missing rate 0.9, ``sym:p=1``, lambda 0.2);
* the c5 and c6 ``run_experiment(spec, timing=False)`` CSVs (both c5
  studies, both c6 arms, ten seeds each), with bcde, and the c5 tuned
  study's CSV with qn;
* one 100x100x100 cell per solver (missing rate 0.9, ``sym:p=0.3333``,
  lambda 8, seed 0, 100 sweeps or iterations), large enough that the
  masked-loss kernel forms its dense product in several column blocks
  and, on two or more CPUs, splits them among threads;
* the ``run_experiment(spec, timing=False)`` CSVs of that BCDE instance
  with one cell (seed 0), whose one pool worker has every CPU, and with
  two cells (seeds 0 and 1), whose two workers share them.

``trpca`` (robust PCA) runs the acceptance gate's c8 instance (30x30x30,
rank 5, k_init 10, 10% additive corruption, lam_e 0.1): seeds 0 and 1,
solvers admm, asym and als, lam_x 0.1 and 5.0, and the c8
``run_experiment(spec, timing=False)`` CSVs (the gate's asym and admm
arms and an als arm with its default ``sym:p=2/d``, lam_e 0.1 and 0,
ten seeds), so every solver runs through ``run_single``. It also runs the
gate's c4 cells for all three solvers: clean rank-one 10x10x10 data,
k_init 2, lam_x 0 and lam_e 1e6. Without a ridge every block solve of
the als cell, and of the asym cell's modes after the first, is least
squares, and the als cell's normal equations turn singular. Last, it writes a c8 instance (seed 0) to a
temporary directory with the ``gen`` command and runs the ``trpca``
command on it (k 10, lambda-x 0.1, lambda-e 0.1, seed 0) with three flag
selections: none (admm), ``--reg sym:p=0.6667`` (als) and ``--q 0.5``
(asym). The ``gen`` files and each selection's printed summary are
compared as bytes. Each selection's estimate and sparse-term files are
read back with ``read_tensor``, and its trace CSV as its objective
column, its rank column and its row count.

A solver cell is "identical" when its factors, ``recovered``, rank and
objective traces, iteration count and ``converged`` (and for robust PCA
the sparse term) are exactly equal. It "differs by rounding" when the
rank traces, iteration counts and ``converged`` match and the largest
deviations of ``recovered`` and of the objective trace, each relative to
the largest magnitude in the base's array, are at most 1e-12. A command
file read as numbers is judged by the same rule: its ranks and row count
(for a trace) must match, and its values may deviate by at most 1e-12
relative. Anything else, and any CSV or file that is not byte-identical,
"DIFFERS". For a solver cell that is not identical, the line also gives
the size of the difference: the largest relative deviation of
``recovered``, of the factors and of the objective trace (``n/a`` when
the shapes differ), and whether the rank traces, iteration counts and
``converged`` match; for a command file read as numbers, the largest
relative deviation of its values and whether its ranks and row count
match. For a CSV or file that differs it gives the number of differing
lines. Prints one line per cell and exits non-zero if any cell differs
beyond rounding.
"""

import argparse
import contextlib
import io
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from helpers import C8  # noqa: E402  (the instance the acceptance gate defines)

ROUNDING = 1e-12

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
    "c5 tuned qn": dict(missing_rate=0.7, reg="sym:p=0.3333", lambdas=(1.0, 2.0, 4.0, 8.0, 16.0),
                        solver="qn"),
}
LARGE = dict(task="lrtc", shape=(100, 100, 100), true_rank=5, k_init=10, noise_level=0.1,
             missing_rate=0.9, reg="sym:p=0.3333", solver="bcde", t_max=100)

ARMS = {"admm": dict(reg="sym:p=0.3333"), "asym": dict(q=0.5), "als": {}}
COMMAND_FLAGS = ((), ("--reg", "sym:p=0.6667"), ("--q", "0.5"))
SEEDS = (0, 1)
LAMBDAS = (0.1, 5.0)


class Numbers(NamedTuple):
    """A command file read as numbers: `values` are judged by the rounding
    rule, `exact` (ranks and row count of a trace) must match."""

    values: np.ndarray
    exact: tuple = ()


def answers(rep, **extra):
    """The deterministic fields of a solve report, plus `extra`."""
    return dict(factors=rep.factors, recovered=rep.recovered, rank_trace=rep.rank_trace,
                objective_trace=rep.objective_trace, iterations=rep.iterations,
                converged=rep.converged, **extra)


def lrtc_cell(spec, seed, lam):
    from tensorenr import harness
    from tensorenr.lrtc import LrtcConfig, solve

    _, data, mask = harness.gen_lrtc_data(spec, seed)
    cfg = LrtcConfig(k_init=spec.k_init, lam=lam, spec=spec.reg, solver=spec.solver,
                     t_max=spec.t_max, rng_seed=seed)
    return answers(solve(data, mask, cfg))


def dump_lrtc():
    from tensorenr import harness

    out = {}
    for name, (cell, lam) in CELLS.items():
        for solver in ("bcde", "qn"):
            spec = harness.ExperimentSpec(**{**DESK, **cell, "solver": solver})
            for seed in (0, 1):
                out[f"{name} {solver} seed={seed} lam={lam}"] = lrtc_cell(spec, seed, lam)
    for name, arm in CSVS.items():
        out[f"{name} csv"] = harness.run_experiment(harness.ExperimentSpec(**{**DESK, **arm}),
                                                    timing=False)
    for solver in ("bcde", "qn"):
        spec = harness.ExperimentSpec(**{**LARGE, "solver": solver})
        out[f"100^3 {solver} seed=0 lam=8.0"] = lrtc_cell(spec, 0, 8.0)
    for seeds in ((0,), (0, 1)):
        spec = harness.ExperimentSpec(**LARGE, seeds=seeds, lambdas=(8.0,))
        out[f"100^3 csv, {len(seeds)} cell(s)"] = harness.run_experiment(spec, timing=False)
    return out


def dump_trpca():
    from tensorenr import harness
    from tensorenr.core import cp_reconstruct
    from tensorenr.regularizers import RegularizerSpec
    from tensorenr.trpca import TrpcaConfig, trpca_solve

    out = {}
    for solver, arm in ARMS.items():
        spec = harness.ExperimentSpec(solver=solver, lambda_e=0.1, **arm, **C8)
        for seed in SEEDS:
            _, data, _ = harness.gen_trpca_data(spec, seed)
            for lam in LAMBDAS:
                cfg = TrpcaConfig(k_init=spec.k_init, lam_x=lam, lam_e=spec.lambda_e,
                                  spec=spec.reg, q=spec.q, solver=solver, rng_seed=seed)
                rep, sparse = trpca_solve(data, cfg)
                out[f"{solver} seed={seed} lam_x={lam}"] = answers(rep, sparse=sparse)
    for solver in ("asym", "admm", "als"):
        for lam_e in (0.1, 0.0):
            spec = harness.ExperimentSpec(solver=solver, lambda_e=lam_e, seeds=range(10),
                                          lambdas=(0.1,), **ARMS[solver], **C8)
            out[f"c8 csv {solver} lam_e={lam_e}"] = harness.run_experiment(spec, timing=False)
    # the gate's c4 instance and arms
    rng = np.random.default_rng(44)
    truth = cp_reconstruct([rng.standard_normal((10, 1)) for _ in range(3)])
    c4_arms = {"admm": dict(spec=RegularizerSpec("sym", 3, p=1.0 / 3.0), mu=1.0),
               "asym": dict(q=0.5), "als": dict(spec=RegularizerSpec("sym", 3, p=2.0 / 3.0))}
    for solver, arm in c4_arms.items():
        cfg = TrpcaConfig(k_init=2, lam_x=0.0, lam_e=1e6, solver=solver, t_max=200,
                          rng_seed=6, **arm)
        rep, sparse = trpca_solve(truth, cfg)
        out[f"c4 {solver} lam_x=0.0"] = answers(rep, sparse=sparse)
    with tempfile.TemporaryDirectory() as tmp:
        out.update(trpca_command(Path(tmp)))
    return out


def trpca_command(tmp):
    """The ``gen`` files of the c8 instance written under `tmp` and, for each
    selection in ``COMMAND_FLAGS``, the ``trpca`` command's outputs."""
    from tensorenr import cli
    from tensorenr.tensorio import read_tensor

    def run(*argv):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"tensorenr {argv[0]} exited with {rc}")
        return printed.getvalue()

    out = {}
    run("gen", "--task", "trpca", "--shape", "x".join(map(str, C8["shape"])),
        "--rank", str(C8["true_rank"]), "--noise", str(C8["noise_level"]),
        "--density", str(C8["sparse_density"]), "--weights", C8["weights_mode"],
        "--seed", "0", "--out", str(tmp / "c8"))
    for part in ("truth", "data", "sparse"):
        out[f"c8 gen {part}.tnsr"] = (tmp / f"c8_{part}.tnsr").read_bytes()
    for i, flags in enumerate(COMMAND_FLAGS):
        prefix = tmp / f"dec{i}"
        summary = run("trpca", "--data", str(tmp / "c8_data.tnsr"), "--k", str(C8["k_init"]),
                      "--lambda-x", "0.1", "--lambda-e", "0.1", "--seed", "0", *flags,
                      "--out", str(prefix))
        name = f"trpca command {' '.join(flags) or 'no flags'}"
        out[f"{name} estimate"] = Numbers(read_tensor(f"{prefix}.tnsr"))
        out[f"{name} sparse"] = Numbers(read_tensor(f"{prefix}_sparse.tnsr"))
        # columns iter, objective, rank, seconds
        trace = np.loadtxt(f"{prefix}_trace.csv", delimiter=",", skiprows=1, ndmin=2)
        out[f"{name} trace"] = Numbers(trace[:, 1], (tuple(trace[:, 2]), len(trace)))
        out[f"{name} summary"] = summary
    return out


DUMPS = {"lrtc": dump_lrtc, "trpca": dump_trpca}


def same(a, b):
    if isinstance(a, list) and a and isinstance(a[0], np.ndarray):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def deviation(a, b):
    """max |a - b| over max |a| for equal-shaped arrays, else None."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return None
    scale = np.max(np.abs(a), initial=0.0)
    gap = np.max(np.abs(a - b), initial=0.0)
    return gap / scale if scale else gap


def size_of_difference(want, got):
    """How far a differing solver cell moved, as one line of text."""
    factor_devs = [deviation(w, g) for w, g in zip(want["factors"], got["factors"])]
    devs = {
        "recovered": deviation(want["recovered"], got["recovered"]),
        "factors": None if None in factor_devs or len(want["factors"]) != len(got["factors"])
        else max(factor_devs),
        "objective": deviation(want["objective_trace"], got["objective_trace"]),
    }
    parts = [f"max rel dev {k} {'n/a' if v is None else f'{v:.2e}'}" for k, v in devs.items()]
    for name in ("rank_trace", "iterations", "converged"):
        parts.append(f"{name} {'match' if want[name] == got[name] else 'DIFFER'}")
    return "; ".join(parts)


def within_rounding(want, got):
    """Same rank trace, iterations and ``converged``, and ``recovered`` and
    the objective trace within ``ROUNDING`` relative."""
    if any(want[name] != got[name] for name in ("rank_trace", "iterations", "converged")):
        return False
    devs = [deviation(want[name], got[name]) for name in ("recovered", "objective_trace")]
    return None not in devs and max(devs) <= ROUNDING


def verdict(want, got):
    """("identical" | "rounding" | "DIFFERS", detail) for one cell."""
    if isinstance(want, dict):
        detail = f"iterations={want['iterations']} final_rank={want['rank_trace'][-1]}"
        if all(same(want[field], got[field]) for field in want):
            return "identical", detail
        result = "rounding" if within_rounding(want, got) else "DIFFERS"
        return result, detail + "; " + size_of_difference(want, got)
    if isinstance(want, Numbers):
        detail = f"{want.values.size} numbers"
        exact = want.exact == got.exact
        if exact and same(want.values, got.values):
            return "identical", detail
        dev = deviation(want.values, got.values)
        result = "rounding" if exact and dev is not None and dev <= ROUNDING else "DIFFERS"
        return result, (detail + f"; max rel dev {'n/a' if dev is None else f'{dev:.2e}'}; "
                        f"ranks and rows {'match' if exact else 'DIFFER'}")
    detail = f"{len(want)} bytes"
    if want == got:
        return "identical", detail
    lines = want.splitlines(), got.splitlines()
    changed = sum(a != b for a, b in zip(*lines)) + abs(len(lines[0]) - len(lines[1]))
    return "DIFFERS", detail + f"; {changed} of {len(lines[0])} lines differ"


def run_tree(task, src, path):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run([sys.executable, __file__, task, "--dump", str(path)], env=env, check=True)
    return pickle.loads(Path(path).read_bytes())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("task", choices=sorted(DUMPS))
    p.add_argument("base_src", nargs="?")
    p.add_argument("head_src", nargs="?")
    p.add_argument("--dump", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        Path(args.dump).write_bytes(pickle.dumps(DUMPS[args.task]()))
        return 0
    if not (args.base_src and args.head_src):
        p.error("BASE_SRC and HEAD_SRC are required")
    with tempfile.TemporaryDirectory() as tmp:
        base = run_tree(args.task, args.base_src, Path(tmp) / "base.pkl")
        head = run_tree(args.task, args.head_src, Path(tmp) / "head.pkl")
    counts = {"identical": 0, "rounding": 0, "DIFFERS": 0}
    for name, want in base.items():
        result, detail = verdict(want, head[name])
        counts[result] += 1
        label = "differs by rounding" if result == "rounding" else result
        print(f"{name}: {label} ({detail})")
    print(f"{counts['identical']} identical, {counts['rounding']} differ by rounding, "
          f"{counts['DIFFERS']} differ, of {len(base)}")
    return 1 if counts["DIFFERS"] else 0


if __name__ == "__main__":
    sys.exit(main())
