"""Low-rank tensor completion by regularized CP fitting.

Two solvers minimize

    0.5 * || M * (D - CP(F)) ||_F^2 + lam * R(F)

over the factor set F, where M is the binary observation mask and R one
of the Euclidean-norm regularizers:

* :func:`bcde_solve` cycles over modes with extrapolated proximal steps,
  a per-block curvature and a restart safeguard that doubles the
  curvature whenever a sweep fails to decrease the objective;
* :func:`quasi_newton_solve` runs limited-memory BFGS with Armijo
  backtracking on all factor entries jointly, treating the regularizer
  subgradient as zero on zero columns.

Both adapt the working rank: components whose columns vanish (exactly for
the proximal solver, below ``prune_tol`` for the quasi-Newton one) are
removed as the iteration proceeds. Both, and the public helpers
:func:`objective`, :func:`smooth_grad` and :func:`estimate_lipschitz`,
evaluate the masked loss through one kernel built once per call. That
kernel reads only the observed entries: a solve holds O(observed) data
and one residual buffer shared by all modes, plus the one dense
n_j x prod(n_i) product that each block call forms. The block curvature
is the exact squared spectral norm of the Khatri-Rao matrix, taken from
the Hadamard product of the other modes' k x k Grams.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .core import (
    cp_reconstruct,
    khatri_rao,
    spectral_norm_est,
    validate_factors,
)
from .regularizers import (
    RegularizerSpec,
    prox_group_soft,
    prox_irls,
    prox_ridge_scale,
    reg_value,
)

LIPSCHITZ_FLOOR = 1e-12
_SAFEGUARD_CAP = 2.0**52


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
    prune_tol: float = 1e-5
    conv_tol: float = 1e-8
    rng_seed: int = 0
    qn_memory: int = 10

    def __post_init__(self):
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
        if self.prune_tol < 0 or self.conv_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.qn_memory < 1:
            raise ValueError(f"qn_memory must be >= 1, got {self.qn_memory}")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``objective_trace``, ``rank_trace`` and ``time_trace`` are aligned:
    entry 0 describes the initial point, entry t the state after sweep t.
    ``wall_time`` is not deterministic; everything else is for a fixed
    input and seed.
    """

    recovered: np.ndarray
    factors: list
    final_rank: int
    objective_trace: list
    iterations: int
    wall_time: float
    converged: bool
    rank_trace: list = field(default_factory=list)
    time_trace: list = field(default_factory=list)

    def trace_csv(self):
        """Per-iteration trace as CSV text with header iter,objective,rank,seconds."""
        lines = ["iter,objective,rank,seconds"]
        for i, obj in enumerate(self.objective_trace):
            rank = self.rank_trace[i] if i < len(self.rank_trace) else self.final_rank
            sec = self.time_trace[i] if i < len(self.time_trace) else self.wall_time
            lines.append(f"{i},{obj:.12g},{rank},{sec:.6f}")
        return "\n".join(lines) + "\n"


class _Run:
    """Aligned per-sweep traces of one solve, timed from construction, and
    the :class:`SolveReport` assembled from them."""

    def __init__(self):
        self.start = time.perf_counter()
        self.objective, self.rank, self.seconds = [], [], []

    def record(self, objective, rank):
        self.objective.append(objective)
        self.rank.append(rank)
        self.seconds.append(time.perf_counter() - self.start if self.seconds else 0.0)

    def report(self, factors, shape, iterations, converged):
        k = factors[0].shape[1]
        return SolveReport(
            recovered=cp_reconstruct(factors) if k else np.zeros(shape),
            factors=factors,
            final_rank=k,
            objective_trace=self.objective,
            iterations=iterations,
            wall_time=time.perf_counter() - self.start,
            converged=converged,
            rank_trace=self.rank,
            time_trace=self.seconds,
        )


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

    Built once per solve from (data, mask), it holds only the observed
    entries: for each mode j, their data and flat offsets into the mode-j
    unfolding, and that unfolding's sparsity pattern as a CSR matrix whose
    data is one residual buffer shared by all modes (every mode holds the
    same entries). Value and block gradient read the model only at the
    observed offsets: O(observed) memory plus the one dense n_j x prod(n_i)
    product F_j KR^T that each call forms. The block curvature comes from
    the k x k Hadamard product of the other modes' Grams. Both solvers and
    the public reference helpers go through it.
    """

    def __init__(self, data, mask):
        idx = mask.multi_indices()
        observed = data[idx]
        self.sqrt_fraction = np.sqrt(mask.count / mask.total)
        self._buf = np.empty(mask.count)
        self.flat, self.observed, self.pattern = [], [], []
        for j, n in enumerate(mask.shape):
            rest = [i for i in range(len(mask.shape)) if i != j]
            ncols = mask.total // n
            # column of each entry in unfold(., j): remaining modes in
            # ascending order, lowest varying fastest
            cols = np.ravel_multi_index(
                [idx[i] for i in rest], [mask.shape[i] for i in rest], order="F"
            )
            flat = idx[j] * ncols + cols
            order = np.argsort(flat)
            flat = flat[order]
            indptr = np.searchsorted(flat, np.arange(n + 1) * ncols)
            self.flat.append(flat)
            self.observed.append(observed[order])
            self.pattern.append(csr_matrix((self._buf, cols[order], indptr), shape=(n, ncols)))

    def _residual(self, x, kr, mode):
        """Model minus data at the observed entries, in mode-`mode` order,
        written into the shared buffer."""
        # the offsets are in range by construction; "clip" lets take
        # write straight into `out`, where "raise" goes through a copy
        r = np.take((x @ kr.T).ravel(), self.flat[mode], out=self._buf, mode="clip")
        r -= self.observed[mode]
        return r

    def value(self, factors):
        r = self._residual(factors[0], khatri_rao(factors, skip=0), 0)
        return 0.5 * float(r @ r)

    def block_grad(self, x, kr, mode):
        """Gradient in factor `mode` at value `x`, where `kr` is the
        Khatri-Rao matrix of the other modes: (M_(j) * (x KR^T) - (D*M)_(j)) KR,
        summed over the observed entries only."""
        self._residual(x, kr, mode)
        return self.pattern[mode] @ kr

    @staticmethod
    def curvature(factors, mode, sqrt_fraction, rho):
        """Block curvature rho * sqrt(observed fraction) * ||KR||_2^2 of
        factor `mode`, floored so step sizes stay finite even for zero
        factors. KR^T KR is the Hadamard product of the other modes'
        Grams, so ||KR||_2^2 is the largest singular value of a k x k
        matrix built in O(sum(n_i) k^2)."""
        k = factors[0].shape[1]
        gram = np.ones((k, k))
        for i, f in enumerate(factors):
            if i != mode:
                gram *= f.T @ f
        return max(rho * sqrt_fraction * spectral_norm_est(gram), LIPSCHITZ_FLOOR)


def _reference_loss(data, mask, factors):
    """Kernel for the public helpers, after checking their arguments agree."""
    d = np.asarray(data, dtype=np.float64)
    shape, _ = validate_factors(factors)
    if d.shape != shape:
        raise ValueError(f"data shape {d.shape} does not match factors {shape}")
    if tuple(mask.shape) != shape:
        raise ValueError(f"mask shape {mask.shape} does not match data {shape}")
    return _MaskedLoss(d, mask)


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


def _check_problem(data, mask, config):
    d = np.asarray(data, dtype=np.float64)
    shape = d.shape
    if tuple(mask.shape) != shape:
        raise ValueError(f"mask shape {mask.shape} does not match data {shape}")
    if mask.count == 0:
        raise ValueError("observation mask is empty")
    if not np.all(np.isfinite(d)):
        raise ValueError("data contains non-finite entries")
    if config.spec.order != d.ndim:
        raise ValueError(
            f"regularizer order {config.spec.order} does not match tensor order {d.ndim}"
        )
    return d


def _prox_gradient_descent(target, exponent, lam_eff, lipschitz, steps=5, max_halvings=20):
    """A few descent steps on 0.5*L*||x - g||^2 + lam * sum ||x_i||^e for
    exponents above 1, where no closed-form prox is available."""
    g = target
    x = g.copy()
    norms = np.linalg.norm(x, axis=0)
    fx = lam_eff * float(np.sum(norms**exponent))
    for _ in range(steps):
        norms = np.linalg.norm(x, axis=0)
        with np.errstate(divide="ignore"):
            colw = np.where(norms > 0.0, norms ** (exponent - 2.0), 0.0)
        grad = lipschitz * (x - g) + lam_eff * exponent * (x * colw)
        step = 1.0 / lipschitz
        accepted = False
        for _ in range(max_halvings):
            xn = x - step * grad
            nn = np.linalg.norm(xn, axis=0)
            fn = 0.5 * lipschitz * float(np.sum((xn - g) ** 2)) + lam_eff * float(
                np.sum(nn**exponent)
            )
            if fn <= fx:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, fx = xn, fn
    return x


def _prox_mode(target, term, lam, lipschitz):
    """Proximal step for one mode's column penalty lam*coeff*sum||x_i||^e."""
    coeff, exponent = term
    lam_eff = lam * coeff
    if lam_eff == 0.0:
        return target.copy()
    if exponent == 1.0:
        return prox_group_soft(target, lam_eff / lipschitz)
    if exponent == 2.0:
        return prox_ridge_scale(target, lipschitz, lam_eff)
    if exponent < 1.0:
        return prox_irls(target, exponent, lam_eff / lipschitz)
    return _prox_gradient_descent(target, exponent, lam_eff, lipschitz)


def _prune_zero_components(mats_list, norms):
    """Drop components whose column vanished in any mode. `mats_list` is a
    list of factor sets sharing column indices (e.g. current and previous
    iterates); all are sliced consistently."""
    dead = np.any(norms == 0.0, axis=0)
    if not np.any(dead):
        return mats_list, False
    keep = ~dead
    return [[f[:, keep] for f in mats] for mats in mats_list], True


def bcde_solve(data, mask, config):
    """Block coordinate descent with extrapolation over CP factors."""
    d = _check_problem(data, mask, config)
    ndim = d.ndim
    lam, spec = config.lam, config.spec
    terms = spec.mode_terms()
    loss = _MaskedLoss(d, mask)

    factors = init_factors(d.shape, config.k_init, config.rng_seed)
    prev = [f.copy() for f in factors]
    k = config.k_init

    run = _Run()
    obj = loss.value(factors) + lam * reg_value(factors, spec)
    run.record(obj, k)
    l_prev = [None] * ndim
    l_curr = [None] * ndim
    converged = False
    iterations = 0

    for t in range(1, config.t_max + 1):
        iterations = t
        saved_f = [f.copy() for f in factors]
        saved_p = [f.copy() for f in prev]
        mult = 1.0
        allow_extrap = True
        while True:
            fac = [f.copy() for f in saved_f]
            pv = [f.copy() for f in saved_p]
            new_l = [None] * ndim
            for j in range(ndim):
                if allow_extrap:
                    w = extrapolation_weight(l_prev[j], l_curr[j], t, config.delta)
                else:
                    w = 0.0
                xhat = fac[j] + w * (fac[j] - pv[j])
                kr = khatri_rao(fac, skip=j)
                lip = mult * loss.curvature(fac, j, loss.sqrt_fraction, config.rho)
                grad = loss.block_grad(xhat, kr, j)
                pv[j] = fac[j]
                fac[j] = _prox_mode(xhat - grad / lip, terms[j], lam, lip)
                new_l[j] = lip
            cand = loss.value(fac) + lam * reg_value(fac, spec)
            if cand <= obj or mult >= _SAFEGUARD_CAP:
                break
            # Objective went up: retry the sweep with doubled curvature
            # and no extrapolation.
            mult *= 2.0
            allow_extrap = False
        factors, prev = fac, pv
        l_prev, l_curr = l_curr, new_l

        norms = np.stack([np.linalg.norm(f, axis=0) for f in factors])
        (factors, prev), pruned = _prune_zero_components([factors, prev], norms)
        if pruned:
            k = factors[0].shape[1]

        run.record(cand, k)
        converged = abs(obj - cand) <= config.conv_tol * max(1.0, abs(obj)) or k == 0
        obj = cand
        if converged:
            break

    return run.report(factors, d.shape, iterations, converged)


def _reg_grad_mode(x, term):
    coeff, exponent = term
    norms = np.linalg.norm(x, axis=0)
    with np.errstate(divide="ignore"):
        colw = np.where(norms > 0.0, norms ** (exponent - 2.0), 0.0)
    return coeff * exponent * (x * colw)


def _two_loop(grad, s_hist, y_hist):
    """L-BFGS two-loop recursion; returns the search direction."""
    if not s_hist:
        return -grad
    q = grad.copy()
    alphas = []
    rhos = [1.0 / float(s @ y) for s, y in zip(s_hist, y_hist)]
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
    r = gamma * q
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rhos), reversed(alphas)):
        b = rho * float(y @ r)
        r += s * (a - b)
    return -r


def quasi_newton_solve(data, mask, config):
    """Limited-memory BFGS over all factor entries jointly."""
    d = _check_problem(data, mask, config)
    ndim = d.ndim
    lam, spec = config.lam, config.spec
    terms = spec.mode_terms()
    dims = d.shape
    loss = _MaskedLoss(d, mask)

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

    def fun(x, rank):
        fac = unpack(x, rank)
        return loss.value(fac) + lam * reg_value(fac, spec)

    def grad(x, rank):
        fac = unpack(x, rank)
        return np.concatenate([
            (loss.block_grad(fac[j], khatri_rao(fac, skip=j), j)
             + lam * _reg_grad_mode(fac[j], terms[j])).ravel()
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

    run = _Run()
    x = pack(factors)
    f = fun(x, k)
    g = grad(x, k)
    run.record(f, k)
    s_hist, y_hist = [], []
    converged = False
    iterations = 0

    for t in range(1, config.t_max + 1):
        iterations = t
        p = _two_loop(g, s_hist, y_hist)
        if float(p @ g) >= 0.0:
            p = -g
        step0 = 1.0 if s_hist else 1.0 / max(1.0, float(np.linalg.norm(g)))
        xn, fn = armijo(x, k, f, g, p, step0)
        if xn is None and not np.array_equal(p, -g):
            p = -g
            xn, fn = armijo(x, k, f, g, p, 1.0 / max(1.0, float(np.linalg.norm(g))))
        if xn is None:
            break
        gn = grad(xn, k)
        s = xn - x
        yv = gn - g
        sy = float(s @ yv)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > config.qn_memory:
                s_hist.pop(0)
                y_hist.pop(0)
        f_before = f
        x, f, g = xn, fn, gn

        factors = unpack(x, k)
        norms = np.stack([np.linalg.norm(fct, axis=0) for fct in factors])
        weak = np.any(norms < config.prune_tol, axis=0)
        if np.any(weak):
            keep = ~weak
            factors = [fct[:, keep] for fct in factors]
            k = factors[0].shape[1]
            x = pack(factors)
            s_hist, y_hist = [], []
            f = fun(x, k)
            g = grad(x, k)

        run.record(f, k)
        converged = abs(f_before - f) <= config.conv_tol * max(1.0, abs(f_before)) or k == 0
        if converged:
            break

    return run.report(unpack(x, k), dims, iterations, converged)


def solve(data, mask, config):
    """Dispatch to the solver named in the config."""
    if config.solver == "qn":
        return quasi_newton_solve(data, mask, config)
    return bcde_solve(data, mask, config)
