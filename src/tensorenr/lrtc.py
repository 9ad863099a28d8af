"""Low-rank tensor completion by regularized CP fitting.

Two solvers minimize

    0.5 * || M * (D - CP(F)) ||_F^2 + lam * R(F)

over the factor set F, where M is the binary observation mask and R one
of the Euclidean-norm regularizers:

* :func:`bcde_solve` cycles over modes with extrapolated proximal steps,
  a per-block curvature and a restart safeguard that doubles the
  curvature whenever a sweep fails to decrease the objective. For
  lam > 0 each accepted sweep ends by rescaling every component to the
  scaling (product of the mode scales 1) that minimizes its regularizer,
  in closed form: an exact descent step that leaves CP(F) and the loss
  unchanged. It is skipped at lam = 0, where it lowers nothing;
* :func:`quasi_newton_solve` runs limited-memory BFGS with Armijo
  backtracking on all factor entries jointly, treating the regularizer
  subgradient as zero on zero columns.

Both adapt the working rank: components whose columns vanish (exactly for
the proximal solver, below ``_PRUNE_TOL`` for the quasi-Newton one) are
removed as the iteration proceeds. Both, and the robust-PCA solvers, fill
one :class:`SolveReport` as they run. Both, and the public helpers
:func:`objective`, :func:`smooth_grad` and :func:`estimate_lipschitz`,
evaluate the masked loss through one kernel built once per call. That
kernel is the one check of the data against the mask, and it reads, and
checks for finiteness, only the observed entries: a solve holds
O(observed) data and one residual buffer shared by all modes, and no
whole-mode sparsity pattern. Each block call forms the dense
n_j x prod(n_i) product F_j KR^T one cache-sized column block at a time
and keeps only its observed entries. Value and gradient calls cut
their blocks into runs of at least ``_MIN_RUN`` blocks, one per CPU the
process may run on (its share of them in a sweep's pool worker), and run
all but the first on helper threads, with bit-identical results; one-block
tensors and single-CPU processes run on the calling thread alone. This
assumes one BLAS thread: a completion sweep's pool workers pin it
(``_blas_threads``), and a plain solve needs ``OPENBLAS_NUM_THREADS=1``.
The block curvature is the exact squared spectral norm of the Khatri-Rao
matrix, taken from the Hadamard product of the other modes' k x k Grams.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    cp_reconstruct,
    khatri_rao,
    kr_gram,
    spectral_norm_est,
    validate_factors,
)
from .regularizers import (
    RegularizerSpec,
    _balancer,
    _prox_mode,
    _value_from_norms,
    reg_value,
)

LIPSCHITZ_FLOOR = 1e-12
_SAFEGUARD_CAP = 2.0**52
# Byte budget of the dense product block a block call forms at a time:
# small enough to stay in a core's L2 cache from the matrix product that
# writes it to the gather that reads it.
_BLOCK_BYTES = 2**20
# Fewest column blocks a thread's run may have: enough to outweigh handing
# the run to a thread (a round trip of about 45 us against about 0.1 ms per
# 1 MiB block on 2 vCPUs), and few enough threads that the blocks in
# flight at once, one per thread, stay a small part of the product the
# blocking avoids forming.
_MIN_RUN = 4
# L-BFGS prunes a component with a column norm below this; keeps this many pairs
_PRUNE_TOL = 1e-5
_QN_MEMORY = 10


# Processes that run at once on this process's CPUs: the pool workers of a
# sweep each take their share (set by `_share_cpus`, the pool initializer).
_sharers = 1


def _cpus():
    """CPUs a block call may use: those this process may run on, divided
    among the processes that share them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks (macOS)
        cpus = os.cpu_count() or 1
    return max(1, cpus // _sharers)


@functools.cache
def _csr_matrix():
    """``scipy.sparse.csr_matrix``, the package's one scipy import, loaded on
    first use: by the first kernel, by the ``lrtc`` command before it reads its
    tensors, and by ``harness.run_experiment`` before it forks completion workers."""
    from scipy.sparse import csr_matrix
    return csr_matrix


def _blas_threads(threads=None):
    """Thread count of the BLAS that numpy loaded, after setting it to
    `threads` when given. It calls the thread functions of numpy's bundled
    scipy-openblas (``numpy.libs/libscipy_openblas64_*.so``) through
    ctypes; where numpy's BLAS exports none (MKL, Accelerate, a system
    OpenBLAS) it is a no-op that returns None."""
    try:
        # symbols are looked up in numpy's core module and the libraries it loaded
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    # int openblas_get_num_threads(void); void openblas_set_num_threads(int)
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    if threads is not None:
        put(threads)
    return get()


def _share_cpus(processes, blas_share):
    """Give this process its share of CPUs that `processes` processes use.
    With `blas_share` BLAS takes that share, lowered from but never raised
    above the thread count this process inherited; without it the
    completion kernel's threads take the share and BLAS runs one thread."""
    global _sharers
    _sharers = processes
    threads = _blas_threads()
    if threads is not None:
        _blas_threads(min(threads, _cpus()) if blas_share else 1)


@dataclass
class LrtcConfig:
    """Settings for the completion solvers."""

    k_init: int
    lam: float
    spec: RegularizerSpec
    solver: str = "bcde"
    t_max: int = 500
    rho: float = 1.0
    delta: float = 0.95
    conv_tol: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("lam", "rho", "conv_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k_init < 1:
            raise ValueError(f"k_init must be >= 1, got {self.k_init}")
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if self.solver not in ("bcde", "qn"):
            raise ValueError(f"solver must be 'bcde' or 'qn', got {self.solver!r}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.conv_tol < 0:
            raise ValueError(f"conv_tol must be non-negative, got {self.conv_tol}")


class SolveReport:
    """One solver run, filled in as it runs: ``SolveReport()`` starts its
    clock, the solver records every point it reaches and ends the run with
    :meth:`finish`, which sets ``factors``, ``recovered`` (their CP
    reconstruction) and ``wall_time``.

    ``objective_trace``, ``rank_trace`` and ``time_trace`` are aligned:
    entry 0 describes the initial point (at 0.0 seconds), entry t the state
    after sweep t. ``final_rank`` and ``converged`` are read off the factors
    and the stop reason. The seconds are not deterministic; everything else
    is for a fixed input and seed. ``stop_reason`` names why the solve
    stopped: ``tol`` (the stop test of the solver passed), ``rank_zero``
    (every component was pruned), ``t_max`` (the iteration budget ran out),
    ``safeguard_cap`` (a BCDE sweep still raised the objective at the
    largest curvature multiplier; the last accepted iterate is returned,
    and ``iterations`` counts the accepted sweeps) or ``line_search_fail``
    (no L-BFGS step decreased the objective). ``converged`` holds for the
    first two. ``evaluations`` counts the objective evaluations, the
    initial point's included: BCDE's safeguard retries and L-BFGS's
    line-search trials and pruning restarts each add one, so it can exceed
    ``iterations + 1``.
    """

    def __init__(self):
        self._start = time.perf_counter()
        self.objective_trace, self.rank_trace, self.time_trace = [], [], []
        self.iterations = self.evaluations = 0
        self.stop_reason = "t_max"
        self.factors = self.recovered = self.wall_time = None

    @property
    def final_rank(self):
        return self.factors[0].shape[1]

    @property
    def converged(self):
        return self.stop_reason in ("tol", "rank_zero")

    def record(self, objective, rank):
        self.objective_trace.append(objective)
        self.rank_trace.append(rank)
        self.time_trace.append(time.perf_counter() - self._start if self.time_trace else 0.0)

    def settled(self, tol):
        """Whether the last two recorded objectives agree to `tol` relatively."""
        before, after = self.objective_trace[-2:]
        return abs(before - after) <= tol * max(1.0, abs(before))

    def stop(self, converged):
        """Whether the solve ends at rank zero or `converged`; sets the stop reason."""
        if self.rank_trace[-1] == 0 or converged:
            self.stop_reason = "rank_zero" if self.rank_trace[-1] == 0 else "tol"
            return True
        return False

    def finish(self, factors):
        """End the run at `factors`, setting them, their reconstruction and
        the wall time; returns the completed report."""
        self.factors = factors
        self.recovered = cp_reconstruct(factors)
        self.wall_time = time.perf_counter() - self._start
        return self

    def trace_csv(self):
        """Per-iteration trace as CSV text with header iter,objective,rank,seconds."""
        rows = zip(self.objective_trace, self.rank_trace, self.time_trace)
        lines = [f"{i},{obj:.12g},{rank},{sec:.6f}" for i, (obj, rank, sec) in enumerate(rows)]
        return "\n".join(["iter,objective,rank,seconds"] + lines) + "\n"


def init_factors(shape, k, seed):
    """Draw factor matrices with standard normal entries and unit-norm
    columns. Deterministic for a fixed seed."""
    dims = tuple(int(n) for n in shape)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    factors = []
    for n in dims:
        f = rng.standard_normal((n, k))
        norms = np.linalg.norm(f, axis=0)
        norms[norms == 0.0] = 1.0
        factors.append(f / norms)
    return factors


class _MaskedLoss:
    """The smooth completion loss 0.5 * ||M * (D - CP(F))||_F^2.

    Built once per solve from (data, mask), it is the one place that checks
    a completion problem: the mask must have the data's shape, and the data
    must be finite where observed. It reads the data only there, so an
    unobserved entry may hold anything, NaN included. It keeps, for each
    mode j, the observed entries' data and offsets into the dense product
    F_j KR^T, and one residual buffer shared by all modes (every mode holds
    the same entries). The product is formed one column block at a time: a
    run of consecutive unfolding columns whose n_j x width block fits
    ``_BLOCK_BYTES`` (one block if a single column does not), so each block
    stays in cache between the matrix product that writes it and the gather
    that reads the observed entries out of it. Entries are kept in (column
    block, row, column) order, with one sparse row per (block, row) pair, so
    the block gradient is still one sparse product, summed over blocks. A
    tensor small enough for one block gets exactly the unblocked product.
    Value and block gradient thus take O(observed) memory plus one product
    block per thread at a time. The block curvature comes from the k x k
    Hadamard product of the other modes' Grams. Both solvers and the public
    reference helpers go through it.

    Each mode's blocks are cut into contiguous runs, one per thread: as many
    as the CPUs this process may run on, but with at least ``_MIN_RUN``
    blocks each, so a tensor with fewer than twice that many blocks per mode
    keeps one run and runs on the calling thread alone. A block call hands
    every run but the first to a helper thread and does the first itself. A
    run forms its blocks' products, gathers their entries into its slice of
    the buffer and subtracts the data there; for a gradient it also
    multiplies its own rows by KR: a CSR matrix, built once, whose data is
    its slice of the buffer (no mode holds a whole-mode matrix). The caller
    stacks the runs' rows and sums them over blocks. Every entry, row and
    block sum is computed by the same operations on the same operands in the
    same order whatever the number of runs, so the results are bit-identical
    to one run. Helper threads call only numpy and scipy. The split assumes
    one BLAS thread per process (``OPENBLAS_NUM_THREADS=1``): with several,
    the block threads' matrix products wait for one another, and the split
    is slower than one run.
    """

    def __init__(self, data, mask):
        data = np.asarray(data)
        if tuple(mask.shape) != data.shape:
            raise ValueError(f"mask shape {mask.shape} does not match data {data.shape}")
        idx = mask.multi_indices()
        observed = np.asarray(data[idx], dtype=np.float64)
        if not np.all(np.isfinite(observed)):
            raise ValueError("data contains non-finite entries at observed positions")
        self.sqrt_fraction = np.sqrt(mask.count / mask.total)
        self._buf = np.empty(mask.count)
        self.runs = []
        cpus = _cpus()
        for j, n in enumerate(mask.shape):
            rest = [i for i in range(len(mask.shape)) if i != j]
            ncols = mask.total // n
            # column of each entry in unfold(., j): remaining modes in
            # ascending order, lowest varying fastest
            cols = np.ravel_multi_index(
                [idx[i] for i in rest], [mask.shape[i] for i in rest], order="F"
            )
            # one block when not even one column fits: narrower blocks
            # would not stay in cache, and the rows would need one per
            # (block, row) pair, up to one per tensor entry
            width = min(ncols, _BLOCK_BYTES // (8 * n) or ncols)
            nblocks = -(-ncols // width)
            block, local = np.divmod(cols, width)
            # row (block, i) holds block `block` of row i; entries sorted
            # by it, then by column
            key = (block * n + idx[j]) * width + local
            order = np.argsort(key)
            indptr = np.searchsorted(key[order], np.arange(nblocks * n + 1) * width)
            cols, block = cols[order], block[order]
            # offset in the product block, whose rows are as wide as it is
            offsets = idx[j][order] * np.minimum(width, ncols - block * width) + local[order]
            bounds = indptr[::n].tolist()
            # per non-empty block: its columns, its entries' offsets and
            # their slice of the residual buffer
            blocks = {
                b: (b * width, min((b + 1) * width, ncols), offsets[start:stop],
                    self._buf[start:stop])
                for b, (start, stop) in enumerate(zip(bounds, bounds[1:]))
                if start < stop
            }
            data_j = observed[order]
            # runs of blocks b0:b1, one per thread, each with its rows
            # (block, i) as a CSR matrix on its slice of the buffer
            threads = max(1, min(cpus, nblocks // _MIN_RUN))
            cuts = [nblocks * r // threads for r in range(threads + 1)]
            runs = []
            for b0, b1 in zip(cuts, cuts[1:]):
                lo, hi = bounds[b0], bounds[b1]
                rows = _csr_matrix()(
                    (self._buf[lo:hi], cols[lo:hi], indptr[n * b0 : n * b1 + 1] - lo),
                    shape=(n * (b1 - b0), ncols),
                )
                # the constructor copies a slice that does not start its
                # array; the indices keep the dtype it picks
                rows.data = self._buf[lo:hi]
                runs.append(([blocks[b] for b in range(b0, b1) if b in blocks],
                             data_j[lo:hi], self._buf[lo:hi], rows))
            self.runs.append(runs)
        # helper threads for every run but the first, started on first use;
        # they end when the kernel is freed. A forked child never shares
        # them: each solve builds its own kernel
        helpers = max(len(runs) for runs in self.runs) - 1
        self._pool = ThreadPoolExecutor(helpers) if helpers else None

    @staticmethod
    def _do_run(x, kr, run, grad):
        """One run of a block call: the residual at its entries, written
        into its slice of the buffer, and for `grad` its pattern rows times
        `kr`. Runs on helper threads, so it calls only numpy and scipy."""
        blocks, observed, out, rows = run
        for c0, c1, offsets, dest in blocks:
            # the offsets are in range by construction; "clip" lets take
            # write straight into `dest`, where "raise" goes through a copy
            np.take((x @ kr[c0:c1].T).ravel(), offsets, out=dest, mode="clip")
        out -= observed
        return rows @ kr if grad else None

    def _call(self, x, kr, mode, grad):
        """Every run of mode `mode`: the first on this thread, the others
        on helper threads. Returns the runs' results in order once all are
        done; the buffer then holds the residual in mode-`mode` order."""
        runs = self.runs[mode]
        helpers = [self._pool.submit(self._do_run, x, kr, run, grad) for run in runs[1:]]
        try:
            first = self._do_run(x, kr, runs[0], grad)
        finally:
            # the buffer is not free for the next call before every run ends
            for h in helpers:
                h.exception()
        return [first] + [h.result() for h in helpers]

    def value(self, factors, kr=None):
        """Loss at `factors`; `kr`, when given, is ``khatri_rao(factors, skip=0)``."""
        if kr is None:
            kr = khatri_rao(factors, skip=0)
        self._call(factors[0], kr, 0, grad=False)
        return 0.5 * float(self._buf @ self._buf)

    def block_grad(self, x, kr, mode):
        """Gradient in factor `mode` at value `x`, where `kr` is the
        Khatri-Rao matrix of the other modes: (M_(j) * (x KR^T) - (D*M)_(j)) KR,
        summed over the observed entries only."""
        parts = self._call(x, kr, mode, grad=True)
        grad = parts[0] if len(parts) == 1 else np.concatenate(parts)
        nblocks = grad.shape[0] // x.shape[0]
        if nblocks > 1:
            grad = grad.reshape(nblocks, x.shape[0], kr.shape[1]).sum(axis=0)
        return grad

    @staticmethod
    def curvature(factors, mode, sqrt_fraction, rho):
        """Block curvature rho * sqrt(observed fraction) * ||KR||_2^2 of
        factor `mode`, floored so step sizes stay finite even for zero
        factors. KR^T KR is the Hadamard product of the other modes'
        Grams, so ||KR||_2^2 is the largest singular value of a k x k
        matrix built in O(sum(n_i) k^2)."""
        gram = kr_gram(factors, mode)
        return max(rho * sqrt_fraction * spectral_norm_est(gram), LIPSCHITZ_FLOOR)


def _reference_loss(data, mask, factors):
    """Kernel for the public helpers, after checking the factors against the
    mask: the kernel's gather would clip offsets out of range."""
    shape, _ = validate_factors(factors)
    if tuple(mask.shape) != shape:
        raise ValueError(f"mask shape {mask.shape} does not match factors {shape}")
    return _MaskedLoss(data, mask)


def objective(data, mask, factors, lam, spec):
    """Masked half squared residual plus lam times the regularizer."""
    return _reference_loss(data, mask, factors).value(factors) + lam * reg_value(factors, spec)


def smooth_grad(data, mask, factors, mode):
    """Gradient of the smooth completion loss with respect to one factor."""
    loss = _reference_loss(data, mask, factors)
    if not 0 <= mode < len(factors):
        raise ValueError(f"mode {mode} out of range for order-{len(factors)} factors")
    return loss.block_grad(factors[mode], khatri_rao(factors, skip=mode), mode)


def estimate_lipschitz(factors, mode, n_observed, rho=1.0):
    """Curvature of one block of the masked loss.

    Scales the squared spectral norm of the Khatri-Rao matrix of the
    remaining modes by rho * sqrt(observed fraction). That norm is taken
    exactly from the Hadamard product of the remaining modes' Grams,
    without forming the Khatri-Rao matrix. Floored at a small positive
    value so step sizes stay finite even for zero factors.
    """
    shape, _ = validate_factors(factors)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for order-{len(shape)} factors")
    total = math.prod(shape)
    if not 0 <= n_observed <= total:
        raise ValueError(f"n_observed must lie in [0, {total}], got {n_observed}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    return _MaskedLoss.curvature(mats, mode, np.sqrt(n_observed / total), rho)


def extrapolation_weight(l_prev, l_curr, t, delta=0.95):
    """Momentum weight delta * sqrt(L_prev / L_curr), zero for the first
    two sweeps or while no curvature history exists."""
    if t <= 2 or l_prev is None or l_curr is None:
        return 0.0
    if l_prev <= 0 or l_curr <= 0:
        raise ValueError("curvature estimates must be positive")
    return delta * np.sqrt(l_prev / l_curr)


def _problem(data, mask):
    """The masked loss of a solve; the regularizer's order is checked by
    `reg_value` at the first objective evaluation."""
    if mask.count == 0:
        raise ValueError("observation mask is empty")
    return _MaskedLoss(data, mask)


def _prune_zero_components(mats_list, norms):
    """Drop components whose column vanished in any mode. `mats_list` is a
    list of matrix sets sharing column indices (e.g. current and previous
    iterates, or a Khatri-Rao matrix of them); all are sliced consistently,
    into C-ordered copies: the matrix products of the next sweep round by
    operand layout."""
    dead = np.any(norms == 0.0, axis=0)
    if not np.any(dead):
        return mats_list, False
    keep = ~dead
    return [[np.ascontiguousarray(f[:, keep]) for f in mats] for mats in mats_list], True


def bcde_solve(data, mask, config):
    """Block coordinate descent with extrapolation over CP factors.

    A sweep that raises the objective is retried with doubled curvature
    and no extrapolation; once the multiplier reaches ``_SAFEGUARD_CAP``
    the solve stops at the last accepted iterate. With ``lam > 0`` each
    accepted sweep ends by rescaling every component to the scaling that
    minimizes its regularizer (``regularizers._balancer``), an
    exact descent step that leaves CP(F) and the loss unchanged. At
    ``lam == 0`` it would lower nothing, and the sweep is left as it is.
    """
    loss = _problem(data, mask)
    ndim = len(mask.shape)
    lam, spec = config.lam, config.spec
    terms = spec.mode_terms()
    balance = _balancer(terms)

    factors = init_factors(mask.shape, config.k_init, config.rng_seed)
    prev = [f.copy() for f in factors]
    k = config.k_init

    run = SolveReport()
    # the mode-0 Khatri-Rao matrix of each objective evaluation serves the
    # next sweep's mode-0 block (and its safeguard retries) unchanged
    kr0 = khatri_rao(factors, skip=0)
    obj = loss.value(factors, kr0) + lam * reg_value(factors, spec)
    run.evaluations = 1
    run.record(obj, k)
    l_prev = [None] * ndim
    l_curr = [None] * ndim

    for t in range(1, config.t_max + 1):
        mult = 1.0
        allow_extrap = True
        while True:
            # a sweep replaces factor arrays and never writes into them
            fac, pv = list(factors), list(prev)
            new_l = [None] * ndim
            for j in range(ndim):
                if allow_extrap:
                    w = extrapolation_weight(l_prev[j], l_curr[j], t, config.delta)
                else:
                    w = 0.0
                xhat = fac[j] + w * (fac[j] - pv[j])
                kr = kr0 if j == 0 else khatri_rao(fac, skip=j)
                lip = mult * loss.curvature(fac, j, loss.sqrt_fraction, config.rho)
                grad = loss.block_grad(xhat, kr, j)
                pv[j] = fac[j]
                fac[j] = _prox_mode(xhat - grad / lip, terms[j], lam, lip)
                new_l[j] = lip
            cand_kr0 = khatri_rao(fac, skip=0)
            # the column norms np.linalg.norm gives, without its call overhead
            norms = np.sqrt([np.add.reduce(f * f, axis=0) for f in fac])
            fit = loss.value(fac, cand_kr0)
            cand = fit + lam * reg_value(fac, spec, norms)
            run.evaluations += 1
            if cand <= obj or mult >= _SAFEGUARD_CAP:
                break
            # Objective went up: retry the sweep with doubled curvature
            # and no extrapolation.
            mult *= 2.0
            allow_extrap = False
        if not cand <= obj:
            run.stop_reason = "safeguard_cap"
            break
        run.iterations = t
        factors, prev = fac, pv
        l_prev, l_curr = l_curr, new_l

        (factors, prev, (kr0,), (norms,)), pruned = _prune_zero_components(
            [factors, prev, [cand_kr0], [norms]], norms
        )
        if pruned:
            k = factors[0].shape[1]
        if lam > 0.0 and k:
            scales = balance(norms)
            factors = [f * s for f, s in zip(factors, scales)]
            prev = [f * s for f, s in zip(prev, scales)]
            # the mode-0 Khatri-Rao columns are products of the other
            # modes' columns, so they scale by prod_{j>0} s_j (= 1/s_0)
            # (a new array: for order 2, kr0 is the mode-1 factor itself)
            kr0 = kr0 * scales[1:].prod(axis=0)
            cand = fit + lam * _value_from_norms(norms * scales, terms)

        run.record(cand, k)
        if run.stop(run.settled(config.conv_tol)):
            break
        obj = cand

    return run.finish(factors)


def _reg_grad_mode(x, term):
    coeff, exponent = term
    norms = np.linalg.norm(x, axis=0)
    with np.errstate(divide="ignore"):
        colw = np.where(norms > 0.0, norms ** (exponent - 2.0), 0.0)
    return coeff * exponent * (x * colw)


def _two_loop(grad, pairs):
    """L-BFGS two-loop recursion; returns the search direction. `pairs`
    holds the accepted (s, y, 1/(s.y), s.y/(y.y)), oldest first, with the
    scalars computed once when the pair was stored."""
    if not pairs:
        return -grad
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    r = pairs[-1][3] * q
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ r)
        r += s * (a - b)
    return -r


def quasi_newton_solve(data, mask, config):
    """Limited-memory BFGS over all factor entries jointly."""
    loss = _problem(data, mask)
    dims = mask.shape
    ndim = len(dims)
    lam, spec = config.lam, config.spec
    terms = spec.mode_terms()

    k = config.k_init
    factors = init_factors(dims, k, config.rng_seed)

    def unpack(x, rank):
        out = []
        pos = 0
        for n in dims:
            out.append(x[pos : pos + n * rank].reshape(n, rank))
            pos += n * rank
        return out

    def pack(fac):
        if fac[0].shape[1] == 0:
            return np.zeros(0)
        return np.concatenate([f.ravel() for f in fac])

    # the point of the last loss evaluation and its mode-0 Khatri-Rao
    # matrix: every gradient is taken at the point just evaluated
    last = [None, None]

    def fun(x, rank):
        run.evaluations += 1
        fac = unpack(x, rank)
        last[:] = x, khatri_rao(fac, skip=0)
        return loss.value(fac, last[1]) + lam * reg_value(fac, spec)

    def block(fac, j, kr):
        g = loss.block_grad(fac[j], kr, j)
        # at lam == 0 the penalty term only adds zeros
        return (g + lam * _reg_grad_mode(fac[j], terms[j]) if lam else g).ravel()

    def grad(x, rank):
        fac = unpack(x, rank)
        return np.concatenate([
            block(fac, j, last[1] if j == 0 and last[0] is x else khatri_rao(fac, skip=j))
            for j in range(ndim)
        ])

    def armijo(x, rank, f0, g, p, step0, max_trials=30):
        derphi = float(g @ p)
        step = step0
        for _ in range(max_trials):
            xn = x + step * p
            fn = fun(xn, rank)
            if fn <= f0 + 1e-4 * step * derphi:
                return xn, fn
            step *= 0.5
        return None, None

    run = SolveReport()
    x = pack(factors)
    f = fun(x, k)
    g = grad(x, k)
    run.record(f, k)
    pairs = []

    for t in range(1, config.t_max + 1):
        run.iterations = t
        p = _two_loop(g, pairs)
        if float(p @ g) >= 0.0:
            p = -g
        step0 = 1.0 if pairs else 1.0 / max(1.0, float(np.linalg.norm(g)))
        xn, fn = armijo(x, k, f, g, p, step0)
        if xn is None and not np.array_equal(p, -g):
            p = -g
            xn, fn = armijo(x, k, f, g, p, 1.0 / max(1.0, float(np.linalg.norm(g))))
        if xn is None:
            run.stop_reason = "line_search_fail"
            break
        gn = grad(xn, k)
        s = xn - x
        yv = gn - g
        sy = float(s @ yv)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            pairs.append((s, yv, 1.0 / sy, sy / float(yv @ yv)))
            if len(pairs) > _QN_MEMORY:
                pairs.pop(0)
        x, f, g = xn, fn, gn

        factors = unpack(x, k)
        norms = np.stack([np.linalg.norm(fct, axis=0) for fct in factors])
        weak = np.any(norms < _PRUNE_TOL, axis=0)
        if np.any(weak):
            keep = ~weak
            factors = [fct[:, keep] for fct in factors]
            k = factors[0].shape[1]
            x = pack(factors)
            pairs = []
            f = fun(x, k)
            g = grad(x, k)

        run.record(f, k)
        if run.stop(run.settled(config.conv_tol)):
            break

    return run.finish(unpack(x, k))


def solve(data, mask, config):
    """Dispatch to the solver named in the config."""
    if config.solver == "qn":
        return quasi_newton_solve(data, mask, config)
    return bcde_solve(data, mask, config)
