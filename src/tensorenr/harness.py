"""Synthetic data generation, metrics and batch experiment runs.

The harness generates random low-rank tensors, corrupts them (dense
noise, missing entries, sparse outliers), runs a configured solver over a
penalty grid and emits one CSV row per (lambda, seed) run plus a summary
row per lambda. Runs never abort the batch: failures, including a worker
process that dies, are caught and recorded in the row's error column.

The (lambda, seed) cells of a grid are independent solves, so
`run_experiment` runs them on a process pool of min(CPUs this process
may run on, number of cells) workers and writes the rows in grid order.
The workers are forked ("fork" context), so they inherit the caller's
loaded modules and monkeypatches; forkserver, the Linux default from
Python 3.14, would give neither. For completion the caller loads
``scipy.sparse``, which the package otherwise leaves unimported, before
forking, so no worker imports it again; robust PCA needs numpy alone.
Each row's seconds are the cell's wall time inside its worker. Workers
inherit the caller's BLAS thread setting, and each splits its completion
kernel's block calls among its share of the CPUs (their number divided
by the number of workers), not among all of them.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

import numpy as np

from .core import check_shape, cp_reconstruct, sample_mask
from .lrtc import LrtcConfig, _cpus, _csr_matrix, _share_cpus, solve as lrtc_solve
from .regularizers import RegularizerSpec
from .trpca import TrpcaConfig, solver_for, trpca_solve

CSV_COLUMNS = (
    "task,kind,seed,lambda,p_effective,rate,rel_error,rel_error_std,"
    "psnr,final_rank,iters,seconds,error"
)


class NumericFailure(RuntimeError):
    """A metric or solve could not be computed for numerical reasons."""


@dataclass
class Metrics:
    """Quality numbers for one completed run."""

    relative_error: float
    psnr: float
    wall_time: float
    final_rank: int


def relative_error(truth, estimate, eval_mask=None):
    """Relative Frobenius error, optionally restricted to the entries of
    `eval_mask` (pass the complement of a training mask to score only
    unobserved entries)."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    if t.shape != e.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {e.shape}")
    if eval_mask is not None:
        if tuple(eval_mask.shape) != t.shape:
            raise ValueError("evaluation mask shape does not match tensors")
        idx = eval_mask.multi_indices()
        t, e = t[idx], e[idx]
    num = float(np.linalg.norm(t - e))
    den = float(np.linalg.norm(t))
    if den == 0.0:
        raise NumericFailure("reference tensor has zero norm on the evaluation set")
    return num / den


def psnr(truth, estimate, peak=1.0):
    """Peak signal-to-noise ratio in dB; infinite for an exact match."""
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    if t.shape != e.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {e.shape}")
    mse = float(np.mean((t - e) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def lambda_grid(lo=0.01, hi=500.0, num=20):
    """Default penalty grid: `num` log-spaced points on [lo, hi]."""
    return np.geomspace(lo, hi, num)


@dataclass
class ExperimentSpec:
    """One batch experiment: a data model plus a solver configuration.

    ``lambdas`` may include 0 for unregularized ablations; when None the
    default 20-point log grid is used. ``reg`` accepts either a
    :class:`RegularizerSpec` or grammar text like ``sym:p=0.3333``.

    A robust-PCA spec without ``solver`` takes the one
    :func:`trpca.solver_for` picks (``q`` selects asym, else ``reg``
    picks), and a solver without ``reg`` gets its default one (``sym``
    with column exponent 1 for admm and 2 for als, none for asym). The
    cells' configs come from :meth:`solver_config`, which runs for each
    lambda when the spec is built, so settings the config refuses, such as
    a robust-PCA solver that does not pair with ``reg`` and ``q``, raise
    ValueError before any cell runs. So does a setting the task does not
    read when it differs from its default: ``q``, ``mu``, ``lambda_e``,
    ``sparse_density`` and ``corruption`` for ``lrtc``, and ``rho``,
    ``delta`` and ``missing_rate`` for ``trpca``.
    """

    task: str
    shape: tuple
    true_rank: int
    noise_level: float = 0.1
    missing_rate: float = 0.0
    sparse_density: float = 0.0
    weights_mode: str | None = None
    corruption: str = "additive"
    k_init: int | None = None
    reg: RegularizerSpec | str | None = None
    solver: str | None = None
    seeds: tuple = (0,)
    lambdas: tuple | None = None
    lambda_e: float = 0.1
    q: float | None = None
    t_max: int = LrtcConfig.t_max
    rho: float = LrtcConfig.rho
    delta: float = LrtcConfig.delta
    mu: float = TrpcaConfig.mu

    def __post_init__(self):
        if self.task not in ("lrtc", "trpca"):
            raise ValueError(f"task must be 'lrtc' or 'trpca', got {self.task!r}")
        unread = {"lrtc": ("q", "mu", "lambda_e", "sparse_density", "corruption"),
                  "trpca": ("rho", "delta", "missing_rate")}[self.task]
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(f"task {self.task} does not read {f.name}; "
                                 f"got {getattr(self, f.name)!r}, leave it at {f.default!r}")
        self.shape = check_shape(self.shape)
        if self.true_rank < 1:
            raise ValueError(f"true_rank must be >= 1, got {self.true_rank}")
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be non-negative, got {self.noise_level}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"missing_rate must be in [0, 1), got {self.missing_rate}")
        if not 0.0 <= self.sparse_density <= 1.0:
            raise ValueError(f"sparse_density must be in [0, 1], got {self.sparse_density}")
        if self.corruption not in ("additive", "replace"):
            raise ValueError(f"corruption must be additive or replace, got {self.corruption!r}")
        if self.weights_mode is None:
            self.weights_mode = "unit" if self.task == "lrtc" else "linear"
        if self.weights_mode not in ("unit", "linear"):
            raise ValueError(f"weights_mode must be unit or linear, got {self.weights_mode!r}")
        if self.k_init is None:
            self.k_init = 2 * self.true_rank
        order = len(self.shape)
        if isinstance(self.reg, str):
            self.reg = RegularizerSpec.parse(self.reg, order)
        if self.solver is None:
            self.solver = (solver_for(self.reg, self.q) if self.task == "trpca"
                           else LrtcConfig.solver)
        if self.reg is None and self.solver != "asym":
            power = 2.0 if self.solver == "als" else 1.0
            self.reg = RegularizerSpec("sym", order, p=power / order)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.lambdas is not None:
            self.lambdas = tuple(float(v) for v in self.lambdas)
            if not self.lambdas:
                raise ValueError("lambdas must be non-empty")
        for lam in self.lambda_values():
            self.solver_config(lam, self.seeds[0])

    def lambda_values(self):
        if self.lambdas is not None:
            return tuple(self.lambdas)
        return tuple(lambda_grid())

    def solver_config(self, lam, seed):
        """The ``LrtcConfig`` or ``TrpcaConfig`` of the (lam, seed) cell."""
        if self.task == "lrtc":
            return LrtcConfig(k_init=self.k_init, lam=lam, spec=self.reg, solver=self.solver,
                              t_max=self.t_max, rho=self.rho, delta=self.delta,
                              rng_seed=_solver_seed(seed))
        return TrpcaConfig(k_init=self.k_init, lam_x=lam, lam_e=self.lambda_e, spec=self.reg,
                           q=self.q, solver=self.solver, mu=self.mu, t_max=self.t_max,
                           rng_seed=_solver_seed(seed))


def _component_weights(mode, rank):
    if mode == "linear":
        return np.arange(1, rank + 1) / rank
    return np.ones(rank)


def _random_low_rank(rng, shape, rank, weights):
    factors = [rng.standard_normal((n, rank)) for n in shape]
    factors[0] = factors[0] * weights
    return cp_reconstruct(factors)


def _derived_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def gen_lrtc_data(spec, seed):
    """Generate (truth, noisy data, observation mask) for a completion run."""
    rng = np.random.default_rng(seed)
    weights = _component_weights(spec.weights_mode, spec.true_rank)
    truth = _random_low_rank(rng, spec.shape, spec.true_rank, weights)
    sigma = float(np.std(truth))
    noise = rng.standard_normal(spec.shape) * (spec.noise_level * sigma)
    mask = sample_mask(spec.shape, spec.missing_rate, _derived_seed(rng))
    return truth, truth + noise, mask


def gen_trpca_data(spec, seed):
    """Generate (truth, corrupted data, sparse term) for a robust PCA run.

    The sparse corruption hits round(density * size) entries chosen
    uniformly; entries are either added to the noisy tensor or replace
    its values there, depending on ``spec.corruption``."""
    rng = np.random.default_rng(seed)
    weights = _component_weights(spec.weights_mode, spec.true_rank)
    truth = _random_low_rank(rng, spec.shape, spec.true_rank, weights)
    sigma = float(np.std(truth))
    noisy = truth + rng.standard_normal(spec.shape) * (spec.noise_level * sigma)
    if spec.sparse_density == 0.0:
        return truth, noisy, np.zeros(spec.shape)
    support = sample_mask(spec.shape, 1.0 - spec.sparse_density, _derived_seed(rng))
    idx = support.multi_indices()
    draws = rng.normal(0.0, sigma, size=support.count)
    data = noisy.copy()
    if spec.corruption == "additive":
        data[idx] += draws
    else:
        data[idx] = draws
    sparse = np.zeros(spec.shape)
    sparse[idx] = data[idx] - noisy[idx]
    return truth, data, sparse


def _solver_seed(seed):
    # Decorrelate solver initialization from the data stream, which also
    # starts at default_rng(seed).
    return int(np.random.default_rng([int(seed), 0x5EED]).integers(0, 2**63 - 1))


def _held_out(mask):
    """The entries to score a completion on: the complement of training
    `mask`, or None (every entry) when the mask covers the whole tensor."""
    held = mask.complement()
    return held if held.count else None


def run_single(spec, seed, lam, timing=True):
    """Run one (seed, lambda) cell of the experiment; returns Metrics."""
    start = time.perf_counter()
    cfg = spec.solver_config(lam, seed)
    if spec.task == "lrtc":
        truth, data, mask = gen_lrtc_data(spec, seed)
        report = lrtc_solve(data, mask, cfg)
        err = relative_error(truth, report.recovered, _held_out(mask))
    else:
        truth, data, _ = gen_trpca_data(spec, seed)
        report, _ = trpca_solve(data, cfg)
        err = relative_error(truth, report.recovered)
    wall = time.perf_counter() - start if timing else 0.0
    return Metrics(
        relative_error=err,
        psnr=psnr(truth, report.recovered),
        wall_time=wall,
        final_rank=report.final_rank,
    ), report.iterations


def _fmt(x, spec_="%.10g"):
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return spec_ % x


def _failure(exc):
    """Error-column text for a failed cell: ``Type: message``."""
    msg = str(exc).replace(",", ";").replace("\n", " ")
    return f"{type(exc).__name__}: {msg}"


def _run_cell(spec, seed, lam, timing):
    """One cell in a pool worker: ``run_single``'s result, or the failure
    text if it raised. ``run_single`` is looked up by its module-global
    name, so a forked worker runs whatever the caller bound there."""
    try:
        return run_single(spec, seed, lam, timing=timing)
    except Exception as exc:  # noqa: BLE001 - keep the batch alive
        return _failure(exc)


def _submit(pool, spec, seed, lam, timing):
    """Queue one cell; once the pool is broken, the cell is lost with it."""
    try:
        return pool.submit(_run_cell, spec, seed, lam, timing)
    except BrokenProcessPool as exc:
        lost = Future()
        lost.set_exception(exc)
        return lost


def _outcome(future):
    try:
        return future.result()
    except BrokenProcessPool as exc:  # the cell's worker, or another, died
        return _failure(exc)


def run_experiment(spec, timing=True, out_path=None):
    """Run the full (lambda x seed) grid and return the report as CSV text.

    The cells run on a ``ProcessPoolExecutor`` created for this call, with
    min(CPUs this process may run on, number of cells) workers, counted
    from the affinity mask by ``lrtc._cpus`` as the completion kernel
    counts them. Cells are submitted one at a time in grid order, so a
    free worker takes the next cell, and the rows are written in grid
    order whatever order the cells finish in.
    The workers are forked from the caller (the ``"fork"`` context, not
    the platform default, which is forkserver on Linux from Python 3.14):
    a forked worker starts with the caller's imported modules and runs
    the caller's bindings, monkeypatches included. For a completion spec
    the caller first loads ``scipy.sparse`` (``lrtc._csr_matrix``), so the
    workers inherit it instead of each importing the module. Workers
    inherit the caller's BLAS thread setting and do not pin it, which
    would need threadpoolctl (not a dependency) or ctypes calls into the
    BLAS library; set ``OPENBLAS_NUM_THREADS=1`` (or your BLAS's variable)
    before numpy loads to give each worker one BLAS thread. The pool
    initializer gives each worker its share of the CPUs for the threads of
    the completion kernel (``lrtc._share_cpus``): the CPUs this process may
    run on divided by the number of workers, at least one. Two workers on
    two CPUs thus run one thread each; more threads per worker than CPUs
    per worker ran a 100x100x100 two-cell sweep about 5% slower.

    The seconds column is each cell's wall time measured inside its
    worker. With ``timing=False`` it is zeroed, which makes the output
    byte-identical across reruns of the same spec. A cell that raises, or
    that is lost because a worker process died and broke the pool, gets a
    failure row (``BrokenProcessPool: ...`` for a lost cell), and its
    lambda's summary row counts it.
    """
    rate = spec.missing_rate if spec.task == "lrtc" else spec.sparse_density
    # an asym spec given by q alone has no regularizer: its penalty is
    # asym_b's of that q, snapped to 2/m, whose effective power the column reports
    p_eff = (spec.reg or RegularizerSpec("asym_b", len(spec.shape), q=spec.q)).effective_p
    cells = [(lam, seed) for lam in spec.lambda_values() for seed in spec.seeds]
    workers = min(_cpus(), len(cells))
    if spec.task == "lrtc":
        _csr_matrix()
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_share_cpus,
        initargs=(workers,),
    )
    try:
        futures = [_submit(pool, spec, seed, lam, timing) for lam, seed in cells]
        outcomes = iter([_outcome(f) for f in futures])
    finally:
        # An interrupted call waits only for the cells already handed out.
        pool.shutdown(cancel_futures=True)
    lines = [CSV_COLUMNS]
    for lam in spec.lambda_values():
        errs, psnrs, ranks, secs = [], [], [], []
        failures = 0
        for seed in spec.seeds:
            outcome = next(outcomes)
            if isinstance(outcome, str):
                failures += 1
                lines.append(
                    f"{spec.task},run,{seed},{_fmt(lam)},{_fmt(p_eff)},{_fmt(rate)},"
                    f",,,,,,{outcome}"
                )
                continue
            metrics, iters = outcome
            errs.append(metrics.relative_error)
            psnrs.append(metrics.psnr)
            ranks.append(metrics.final_rank)
            secs.append(metrics.wall_time)
            lines.append(
                f"{spec.task},run,{seed},{_fmt(lam)},{_fmt(p_eff)},{_fmt(rate)},"
                f"{_fmt(metrics.relative_error)},,{_fmt(metrics.psnr)},"
                f"{metrics.final_rank},{iters},{_fmt(metrics.wall_time, '%.3f')},"
            )
        if errs:
            note = f"{failures} failed" if failures else ""
            lines.append(
                f"{spec.task},summary,,{_fmt(lam)},{_fmt(p_eff)},{_fmt(rate)},"
                f"{_fmt(float(np.mean(errs)))},{_fmt(float(np.std(errs)))},"
                f"{_fmt(float(np.mean(psnrs)))},{_fmt(float(np.median(ranks)))},"
                f",{_fmt(float(np.mean(secs)), '%.3f')},{note}"
            )
        else:
            lines.append(
                f"{spec.task},summary,,{_fmt(lam)},{_fmt(p_eff)},{_fmt(rate)},"
                f",,,,,,{failures} failed"
            )
    text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)
    return text


def best_lambda(csv_text):
    """Pick the lambda whose summary row has the lowest mean error."""
    best = None
    for line in csv_text.strip().splitlines()[1:]:
        parts = line.split(",")
        if parts[1] != "summary" or parts[6] == "":
            continue
        lam, err = float(parts[3]), float(parts[6])
        if best is None or err < best[1]:
            best = (lam, err)
    if best is None:
        raise NumericFailure("no successful runs in experiment output")
    return best
