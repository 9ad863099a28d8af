"""Command-line interface.

Subcommands:

* ``gen``    write synthetic problem files (tensor, mask, sparse term)
* ``lrtc``   complete a partially observed tensor
* ``trpca``  split a tensor into a low-rank part and sparse outliers
* ``sweep``  run a batch experiment from a flat key=value config file
* ``eval``   score an estimate against a reference tensor

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed files
or config values), 2 on numeric failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (
    ExperimentSpec,
    NumericFailure,
    _held_out,
    gen_lrtc_data,
    gen_trpca_data,
    psnr,
    relative_error,
    run_experiment,
)
from .lrtc import LrtcConfig, _csr_matrix, solve as lrtc_solve
from .regularizers import RegularizerSpec
from .tensorio import FormatError, read_mask, read_tensor, write_mask, write_tensor
from .trpca import TrpcaConfig, sparsity_summary, trpca_solve


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_shape(text):
    sep = "x" if "x" in text else ","
    try:
        dims = tuple(int(part) for part in text.split(sep) if part)
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}") from exc
    if len(dims) < 2:
        raise UsageError(f"shape needs at least two dimensions, got {text!r}")
    return dims


def build_parser():
    parser = _Parser(prog="tensorenr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic problem files")
    gen.add_argument("--task", choices=("lrtc", "trpca"), required=True)
    gen.add_argument("--shape", required=True, help="e.g. 30x30x30")
    gen.add_argument("--rank", type=int, required=True)
    gen.add_argument("--noise", type=float, default=0.1)
    gen.add_argument("--missing-rate", type=float, default=None, help="lrtc; default 0")
    gen.add_argument("--density", type=float, default=None, help="trpca; default 0.1")
    gen.add_argument("--weights", choices=("unit", "linear"), default=None)
    gen.add_argument("--corruption", choices=("additive", "replace"), default=None,
                     help="trpca; default additive")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output file prefix")

    lrtc = sub.add_parser("lrtc", help="low-rank tensor completion")
    lrtc.add_argument("--data", required=True)
    lrtc.add_argument("--mask", required=True)
    lrtc.add_argument("--k", type=int, required=True)
    lrtc.add_argument("--lambda", dest="lam", type=float, required=True)
    lrtc.add_argument("--reg", default="sym")
    lrtc.add_argument("--solver", choices=("bcde", "qn"), default=LrtcConfig.solver)
    lrtc.add_argument("--rho", type=float, default=LrtcConfig.rho)
    lrtc.add_argument("--delta", type=float, default=LrtcConfig.delta)
    lrtc.add_argument("--tmax", type=int, default=LrtcConfig.t_max)
    lrtc.add_argument("--seed", type=int, default=0)
    lrtc.add_argument("--out", required=True, help="output file prefix")

    trpca = sub.add_parser("trpca", help="robust tensor PCA")
    trpca.add_argument("--data", required=True)
    trpca.add_argument("--k", type=int, required=True)
    trpca.add_argument("--lambda-x", dest="lam_x", type=float, required=True)
    trpca.add_argument("--lambda-e", dest="lam_e", type=float, required=True)
    trpca.add_argument("--mu", type=float, default=TrpcaConfig.mu)
    trpca.add_argument("--reg", default=None)
    trpca.add_argument("--q", type=float, default=None)
    trpca.add_argument("--tmax", type=int, default=TrpcaConfig.t_max)
    trpca.add_argument("--seed", type=int, default=0)
    trpca.add_argument("--out", required=True, help="output file prefix")

    sweep = sub.add_parser("sweep", help="batch experiment from a config file")
    sweep.add_argument("config", help="flat key=value file")
    sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")

    ev = sub.add_parser("eval", help="score an estimate against a reference")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--estimate", required=True)
    ev.add_argument("--mask", default=None, help="training mask; scores its complement")

    return parser


def _cmd_gen(args):
    # flags left out take the data model's defaults; the spec refuses a
    # given one that its task does not read
    density = 0.1 if args.density is None and args.task == "trpca" else args.density
    given = dict(missing_rate=args.missing_rate, sparse_density=density, corruption=args.corruption)
    spec = ExperimentSpec(
        task=args.task,
        shape=_parse_shape(args.shape),
        true_rank=args.rank,
        noise_level=args.noise,
        weights_mode=args.weights,
        **{name: value for name, value in given.items() if value is not None},
    )
    if args.task == "lrtc":
        truth, data, mask = gen_lrtc_data(spec, args.seed)
        write_tensor(f"{args.out}_truth.tnsr", truth)
        write_tensor(f"{args.out}_data.tnsr", data)
        write_mask(f"{args.out}_mask.msk", mask)
        print(f"wrote {args.out}_truth.tnsr {args.out}_data.tnsr {args.out}_mask.msk")
    else:
        truth, data, sparse = gen_trpca_data(spec, args.seed)
        write_tensor(f"{args.out}_truth.tnsr", truth)
        write_tensor(f"{args.out}_data.tnsr", data)
        write_tensor(f"{args.out}_sparse.tnsr", sparse)
        print(f"wrote {args.out}_truth.tnsr {args.out}_data.tnsr {args.out}_sparse.tnsr")
    return 0


def _cmd_lrtc(args):
    _csr_matrix()  # before the tensors, so its import does not fragment the heap
    data = read_tensor(args.data)
    mask = read_mask(args.mask)
    reg = RegularizerSpec.parse(args.reg, data.ndim)
    cfg = LrtcConfig(
        k_init=args.k,
        lam=args.lam,
        spec=reg,
        solver=args.solver,
        t_max=args.tmax,
        rho=args.rho,
        delta=args.delta,
        rng_seed=args.seed,
    )
    report = lrtc_solve(data, mask, cfg)
    _check_report(report)
    write_tensor(f"{args.out}.tnsr", report.recovered)
    with open(f"{args.out}_trace.csv", "w") as fh:
        fh.write(report.trace_csv())
    print(
        f"objective={report.objective_trace[-1]:.6g} rank={report.final_rank} "
        f"iterations={report.iterations} converged={report.converged} "
        f"stop={report.stop_reason}"
    )
    return 0


def _cmd_trpca(args):
    data = read_tensor(args.data)
    reg = None if args.reg is None else RegularizerSpec.parse(args.reg, data.ndim)
    cfg = TrpcaConfig(
        k_init=args.k,
        lam_x=args.lam_x,
        lam_e=args.lam_e,
        spec=reg,
        q=args.q,
        mu=args.mu,
        t_max=args.tmax,
        rng_seed=args.seed,
    )
    report, sparse = trpca_solve(data, cfg)
    _check_report(report)
    write_tensor(f"{args.out}.tnsr", report.recovered)
    write_tensor(f"{args.out}_sparse.tnsr", sparse)
    with open(f"{args.out}_trace.csv", "w") as fh:
        fh.write(report.trace_csv())
    nnz, fraction = sparsity_summary(sparse)
    print("nnz_above_tol,fraction")
    print(f"{nnz},{fraction:.6g}")
    return 0


def _check_report(report):
    if not np.all(np.isfinite(report.recovered)):
        raise NumericFailure("solver produced non-finite values")


def _numbers(kind):
    return lambda text: tuple(kind(v) for v in text.split(",") if v)


def _lambda_grid(text):
    """``lo:hi:num``: `num` (at least 1) log-spaced values from lo to hi."""
    lo, hi, num = text.split(":")
    if int(num) < 1:
        raise ValueError(f"a grid needs at least one point, got {num}")
    return tuple(np.geomspace(float(lo), float(hi), int(num)))


# Each config key: the ExperimentSpec field it sets and its parser. A key
# left out of the config leaves the field at its default; ``out`` names
# the CSV file and sets no field.
_SWEEP_KEYS = {
    "task": ("task", str),
    "shape": ("shape", _parse_shape),
    "rank": ("true_rank", int),
    "noise": ("noise_level", float),
    "missing_rate": ("missing_rate", float),
    "density": ("sparse_density", float),
    "weights": ("weights_mode", str),
    "corruption": ("corruption", str),
    "k": ("k_init", int),
    "reg": ("reg", str),
    "solver": ("solver", str),
    "seeds": ("seeds", _numbers(int)),
    "lambdas": ("lambdas", _numbers(float)),
    "lambda_grid": ("lambdas", _lambda_grid),
    "lambda_e": ("lambda_e", float),
    "q": ("q", float),
    "tmax": ("t_max", int),
    "rho": ("rho", float),
    "delta": ("delta", float),
    "mu": ("mu", float),
    "out": (None, str),
}


def parse_sweep_config(text):
    """Parse the flat key=value format of the sweep command."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        val = val.strip()
        if key not in _SWEEP_KEYS:
            raise UsageError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = _SWEEP_KEYS[key][1](val)
        except ValueError as exc:
            raise UsageError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        # lambda_grid and lambdas set one field: the later line wins
        values["lambdas" if key == "lambda_grid" else key] = parsed
    if "task" not in values or "shape" not in values or "rank" not in values:
        raise UsageError("sweep config needs at least task, shape and rank")
    return values


def _cmd_sweep(args):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    values = parse_sweep_config(text)
    out = values.pop("out", None)
    if args.out is not None:
        out = args.out
    spec = ExperimentSpec(**{_SWEEP_KEYS[key][0]: val for key, val in values.items()})
    csv_text = run_experiment(spec, out_path=out)
    if out is None:
        sys.stdout.write(csv_text)
    else:
        print(f"wrote {out}")
    return 0


def _cmd_eval(args):
    truth = read_tensor(args.truth)
    estimate = read_tensor(args.estimate)
    eval_mask = None if args.mask is None else _held_out(read_mask(args.mask))
    err = relative_error(truth, estimate, eval_mask)
    quality = psnr(truth, estimate)
    print("rel_error,psnr")
    print(f"{err:.10g},{quality:.10g}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "lrtc": _cmd_lrtc,
    "trpca": _cmd_trpca,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so numeric failures come first
    except (NumericFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
