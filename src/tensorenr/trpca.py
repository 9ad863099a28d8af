"""Robust tensor PCA: fit a CP model plus an elementwise-sparse term.

All three solvers decompose a fully observed tensor D as CP(F) + E and
minimize

    0.5 * ||D - CP(F) - E||_F^2 + lam_x * s * reg_value(F, spec) + lam_e * ||E||_1

where the penalty on the factors is a sum over modes of coeff * sum_i
||x_i||^exponent, i.e. a regularizer of :mod:`tensorenr.regularizers`
scaled by s:

* :func:`trpca_admm_solve`   spec ``sym:p=1/d``, s = d (every mode
  carries the plain column norm); splits the factors from their
  regularized copies and alternates closed-form updates with column soft
  thresholds;
* :func:`trpca_asym_solve`   spec ``asym_b:q`` (q = 2/m), s = 1/p_eff
  (mode 0 carries ||x||^q / q, the others ||x||^2 / 2); same splitting on
  mode 0 only, with an exact radial prox, and ridge-regularized least
  squares on the remaining modes;
* :func:`trpca_als_solve`    spec ``sym:p=2/d``, s = 1 (every mode
  carries ||x||^2 / d); plain alternating ridge least squares, whose
  objective is monotone because every block update is an exact minimizer.

:func:`solver_for` holds the one pairing rule: q selects asym, else the
regularizer picks. :class:`TrpcaConfig` applies it once: it derives the
solver when none is named and refuses a solver, ``spec`` and ``q`` that
the rule does not pair, so each solver reads a config resolved for it.

The three share one driver loop and differ only in their sweep, in which
modes are split and in the per-mode penalty terms. Every mode update is
one k x k ridge solve, ``_mode_update``. The ADMM and ALS sweeps form the
target D - E once and give it to all their mode updates; the asym sweep
forms it once for its x-update (the public :func:`trpca_x_update`) and
once for its ridge updates.
Each sweep returns the fit D - CP(F) at its new factors, formed as one
matrix product already in the C order of D, so the subtraction reads
two C-ordered arrays. The driver thresholds that one tensor into the new
sparse term and evaluates the objective from it, so an iteration forms
CP(F) once (twice when it prunes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import khatri_rao, kr_gram, mttkrp, validate_factors
from .lrtc import _Run, init_factors
from .regularizers import (
    RegularizerSpec,
    _value_from_norms,
    prox_group_soft,
    prox_irls,
    soft_threshold_elem,
)


@dataclass
class TrpcaConfig:
    """Settings for the robust PCA solvers.

    ``solver``, when not named, is :func:`solver_for` of ``spec`` and
    ``q``, and an ``asym_b`` spec without ``q`` supplies its q. The three
    must then pair: ``q`` is set exactly when the solver is asym, and a
    given ``spec`` is one that :func:`solver_for` pairs with the solver.
    Otherwise ValueError names the solver. The solvers read ``q``, never
    ``spec``.
    """

    k_init: int
    lam_x: float
    lam_e: float
    spec: RegularizerSpec | None = None
    q: float | None = None
    solver: str | None = None
    mu: float = 10.0
    t_max: int = 500
    conv_tol: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("lam_x", "lam_e", "mu", "conv_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k_init < 1:
            raise ValueError(f"k_init must be >= 1, got {self.k_init}")
        if self.lam_x < 0 or self.lam_e < 0:
            raise ValueError("penalty weights must be non-negative")
        if self.solver is None:
            self.solver = solver_for(self.spec, self.q)
        if self.solver not in ("admm", "asym", "als"):
            raise ValueError(f"solver must be admm, asym or als, got {self.solver!r}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.conv_tol < 0:
            raise ValueError(f"conv_tol must be non-negative, got {self.conv_tol}")
        if self.q is None and self.spec is not None and self.spec.kind == "asym_b":
            self.q = self.spec.q
        if self.q is not None and not 0.0 < self.q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {self.q}")
        if (self.q is not None and self.spec is not None and self.spec.kind == "asym_b"
                and not math.isclose(self.q, self.spec.q, rel_tol=1e-6)):
            raise ValueError(f"q={self.q} differs from the q of regularizer {self.spec.label()}")
        if (self.q is not None) != (self.solver == "asym") or (
                self.spec is not None and solver_for(self.spec) != self.solver):
            raise ValueError(f"solver {self.solver!r} does not fit regularizer "
                             f"{self.spec and self.spec.label()} with q={self.q}")


def _check_solver(config, solver):
    if config.solver != solver:
        raise ValueError(f"the config is resolved for the {config.solver} solver, not {solver}")


def _check_data(data):
    # C order, so every mode update reads reshape views of D - E and the
    # answers do not depend on the caller's layout
    d = np.ascontiguousarray(data, dtype=np.float64)
    if d.ndim < 2:
        raise ValueError("data must be a tensor of order >= 2")
    if not np.all(np.isfinite(d)):
        raise ValueError("data contains non-finite entries")
    return d


def _solve_right(gram, rhs, ridge):
    """X = rhs @ (gram + ridge*I)^{-1} for the symmetric positive
    semidefinite k x k `gram`, which it overwrites with gram + ridge*I. The
    ridge picks the method: one above the rounding of gram's diagonal makes
    the system positive definite with a bounded condition number, so the
    inverse answers; any other ridge, 0 included, takes least squares.
    Non-finite input raises LinAlgError."""
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise np.linalg.LinAlgError("array must not contain infs or NaNs")
    k = gram.shape[0]
    definite = ridge > k * np.finfo(np.float64).eps * gram.diagonal().max(initial=0.0)
    gram.flat[:: k + 1] += ridge
    if definite:
        return rhs @ np.linalg.inv(gram)
    return np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T


def _mode_update(target, factors, mode, ridge, extra=0):
    """The exact minimizer over X of 0.5*||target_(mode) - X @ KR^T||^2 +
    0.5*ridge*||X||^2 - <X, extra>, for the Khatri-Rao matrix KR of the other
    modes: X = (target_(mode) @ KR + extra) @ (KR^T KR + ridge*I)^{-1}, the
    first product a :func:`~tensorenr.core.mttkrp` on reshape views of the
    C-ordered `target`, the Gram a Hadamard product of k x k Grams. Every
    mode update of the three solvers is one call."""
    return _solve_right(kr_gram(factors, mode), mttkrp(target, factors, mode) + extra, ridge)


def trpca_x_update(data, sparse, factors, aux, dual, mode, mu):
    """Closed-form update of one factor block under the splitting.

    Minimizes, over X,

        0.5*||(D - E)_(j) - X @ KR^T||^2 + <Y - X, Z> + 0.5*mu*||Y - X||^2

    where KR is the Khatri-Rao matrix of the other modes, giving

        X = ((D - E)_(j) @ KR + mu*Y + Z) @ (KR^T KR + mu*I)^{-1},

    which :func:`_mode_update` forms with ridge mu.

    `aux` (Y) and `dual` (Z) must have the shape (n_mode, k) of the block.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    shape, k = validate_factors(factors)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for order-{len(shape)} tensor")
    y = np.asarray(aux, dtype=np.float64)
    z = np.asarray(dual, dtype=np.float64)
    if y.shape != (shape[mode], k) or z.shape != (shape[mode], k):
        raise ValueError(
            f"aux and dual must have shape {(shape[mode], k)}, got {y.shape} and {z.shape}"
        )
    d = _check_data(data)
    e = np.asarray(sparse, dtype=np.float64)
    if d.shape != shape or e.shape != shape:
        raise ValueError("data, sparse term and factors have mismatched shapes")
    return _mode_update(d - e, factors, mode, mu, mu * y + z)


def _fit(data, factors):
    """D - CP(F) for a C-ordered `data`. With the factors in reverse, the
    Khatri-Rao matrix puts the last mode fastest, so the product
    F_0 KR^T is already the C-ordered tensor: no fold, and the subtraction
    reads two C-ordered arrays."""
    kr = khatri_rao(factors[::-1], skip=len(factors) - 1)
    fit = (factors[0] @ kr.T).reshape(data.shape)
    return np.subtract(data, fit, out=fit)


def _objective(fit, factors, sparse, terms, lam_x, lam_e):
    """Unaugmented objective at the fit D - CP(F) of `factors`; `terms`
    holds each mode's (coeff, exponent). The squared residual is one dot
    product. The l1 norm of the sparse term is a numpy sum, not a BLAS asum,
    whose rounding depends on the alignment of the buffer."""
    res = (fit - sparse).ravel()
    sq = float(res @ res)
    pen = _value_from_norms([np.linalg.norm(f, axis=0) for f in factors], terms)
    return 0.5 * sq + lam_x * pen + lam_e * float(np.abs(sparse.ravel(), out=res).sum())


def _admm_sweep(data, sparse, factors, aux, duals, lam_x, mu):
    """One full iteration of the splitting solver; mutates the factor,
    auxiliary and dual lists in place and returns the fit D - CP(F)."""
    target = data - sparse
    for j in range(len(factors)):
        factors[j] = _mode_update(target, factors, j, mu, mu * aux[j] + duals[j])
        aux[j] = prox_group_soft(factors[j] - duals[j] / mu, lam_x / mu)
        duals[j] = duals[j] + mu * (aux[j] - factors[j])
    return _fit(data, factors)


def _asym_sweep(data, sparse, factors, aux0, dual0, q, lam_x, mu):
    """One full iteration of the mode-0 splitting solver. Returns the new
    (aux0, dual0) and the fit D - CP(F)."""
    factors[0] = trpca_x_update(data, sparse, factors, aux0, dual0, 0, mu)
    aux0 = prox_irls(factors[0] - dual0 / mu, q, lam_x / (q * mu))
    dual0 = dual0 + mu * (aux0 - factors[0])
    target = data - sparse
    for j in range(1, len(factors)):
        factors[j] = _mode_update(target, factors, j, lam_x)
    return aux0, dual0, _fit(data, factors)


def _als_sweep(data, sparse, factors, lam_x):
    """One full iteration of alternating ridge least squares; returns the
    fit D - CP(F). Every block update is an exact minimizer, so the
    objective cannot increase."""
    target = data - sparse
    for j in range(len(factors)):
        factors[j] = _mode_update(target, factors, j, 2.0 * lam_x / len(factors))
    return _fit(data, factors)


def _relative_change(new, old):
    return np.linalg.norm((new - old).ravel()) / max(1.0, np.linalg.norm(old.ravel()))


def solver_for(spec=None, q=None):
    """The robust PCA solver by the one pairing rule: a given `q` selects
    asym; otherwise `spec` picks admm for ``sym`` with column exponent 1,
    als for ``sym`` with exponent 2 and asym for ``asym_b`` with q in
    (0, 1), and no `spec` (the default ``sym:p=1/d``) picks admm. Raises
    ValueError for any other `spec`. :class:`TrpcaConfig` applies it."""
    if q is not None:
        return "asym"
    if spec is None:
        return "admm"
    if spec.kind == "asym_b" and spec.q < 1.0:
        return "asym"
    if spec.kind == "sym":
        solver = {1.0: "admm", 2.0: "als"}.get(spec.mode_terms()[0][1])
        if solver:
            return solver
    raise ValueError(f"no robust PCA solver for regularizer {spec.label()}; use sym "
                     "with a column exponent of 1 or 2, or asym_b with q in (0, 1)")


def _drive(data, config, split, terms, sweep):
    """The iteration shared by the three solvers.

    `split` lists the modes that carry an auxiliary copy and a dual
    variable, and `terms` the per-mode (coeff, exponent) penalty of the
    objective. ``sweep(sparse, factors, aux, duals)`` runs one iteration:
    it updates the three lists in place and returns the fit D - CP(F) at
    the new factors. The new sparse term is that fit soft-thresholded at
    ``lam_e``, and the objective is evaluated from the same fit, so no
    reconstruction is repeated. A component is pruned when its auxiliary
    column is zero in every split mode; its factor columns need not be
    zero, so the fit is then formed again for the objective. The solve
    stops when the rank reaches zero or, after a sweep without pruning,
    when factors and sparse term both change by less than ``conv_tol``
    relatively. Returns (report, sparse_term).
    """
    factors = init_factors(data.shape, config.k_init, config.rng_seed)
    aux = [factors[j].copy() for j in split]
    duals = [np.zeros_like(factors[j]) for j in split]
    sparse = np.zeros(data.shape)
    # two buffers take turns holding the sparse term: no tensor per iteration
    spare = np.empty(data.shape)
    fit = _fit(data, factors)

    run = _Run()
    run.record(_objective(fit, factors, sparse, terms, config.lam_x, config.lam_e), config.k_init)

    for t in range(1, config.t_max + 1):
        run.iterations = t
        # the sweeps replace factor arrays and never write into them
        prev_factors = list(factors)
        prev_sparse = sparse
        fit = sweep(sparse, factors, aux, duals)
        sparse = soft_threshold_elem(fit, config.lam_e, out=spare)
        spare = prev_sparse

        pruned = False
        if aux:
            keep = np.logical_or.reduce([y.any(axis=0) for y in aux])
            pruned = not keep.all()
        if pruned:
            factors, aux, duals = ([m[:, keep] for m in mats] for mats in (factors, aux, duals))
            fit = _fit(data, factors)

        k = factors[0].shape[1]
        run.record(_objective(fit, factors, sparse, terms, config.lam_x, config.lam_e), k)
        if run.stop(
            not pruned
            and max(_relative_change(f, p) for f, p in zip(factors, prev_factors)) < config.conv_tol
            and _relative_change(sparse, prev_sparse) < config.conv_tol
        ):
            break

    # every objective evaluation is a recorded point
    run.evaluations = len(run.objective)
    return run.report(factors), sparse


def trpca_admm_solve(data, config):
    """Splitting solver for the column-norm (exponent 1) penalty: lam_x
    weighs d * reg_value(F, sym:p=1/d), the sum of all column norms.

    Returns (report, sparse_term). The objective trace records the
    unaugmented objective at the factor iterates; it is reported, not
    guaranteed monotone.
    """
    _check_solver(config, "admm")
    d = _check_data(data)
    lam_x, mu = config.lam_x, config.mu

    def sweep(sparse, factors, aux, duals):
        return _admm_sweep(d, sparse, factors, aux, duals, lam_x, mu)

    return _drive(d, config, range(d.ndim), [(1.0, 1.0)] * d.ndim, sweep)


def trpca_asym_solve(data, config):
    """Splitting solver with a norm power q in (0, 1) on mode 0 and ridge
    penalties on the remaining modes: lam_x weighs reg_value(F, asym_b:q)
    / p_eff, that is sum ||x^(0)||^q / q + sum_{j>0} ||x^(j)||^2 / 2.
    Returns (report, sparse_term)."""
    _check_solver(config, "asym")
    d = _check_data(data)
    q, lam_x, mu = config.q, config.lam_x, config.mu

    def sweep(sparse, factors, aux, duals):
        aux[0], duals[0], fit = _asym_sweep(d, sparse, factors, aux[0], duals[0], q, lam_x, mu)
        return fit

    terms = [(1.0 / q, q)] + [(0.5, 2.0)] * (d.ndim - 1)
    return _drive(d, config, [0], terms, sweep)


def trpca_als_solve(data, config):
    """Alternating ridge least squares for the squared-norm (exponent 2)
    penalty: lam_x weighs reg_value(F, sym:p=2/d), the sum of squared
    column norms divided by d. Returns (report, sparse_term); the
    objective trace is monotone non-increasing."""
    _check_solver(config, "als")
    d = _check_data(data)

    def sweep(sparse, factors, aux, duals):
        return _als_sweep(d, sparse, factors, config.lam_x)

    return _drive(d, config, [], [(1.0 / d.ndim, 2.0)] * d.ndim, sweep)


def trpca_solve(data, config):
    """Dispatch to the solver named in the config."""
    if config.solver == "asym":
        return trpca_asym_solve(data, config)
    if config.solver == "als":
        return trpca_als_solve(data, config)
    return trpca_admm_solve(data, config)


def sparsity_summary(sparse, tol=1e-12):
    """Count of entries with magnitude above `tol` and their fraction."""
    e = np.asarray(sparse)
    nnz = int(np.sum(np.abs(e) > tol))
    return nnz, nnz / e.size
