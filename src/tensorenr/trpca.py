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

The three differ only in their per-mode penalty terms (coeff, exponent),
the terms the objective charges. One driver loop runs one sweep for all
of them, and each mode's term fixes its update: exponent 2 is an exact
ridge solve, any other exponent an ADMM split step whose auxiliary copy
takes that term's prox at step 1/mu (Boyd et al. 2011, section 3). Every
mode update is one k x k ridge solve, ``_mode_update``, on the target
D - E that the sweep forms once.
The sweep returns the fit D - CP(F) at its new factors, formed as one
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
from .lrtc import SolveReport, init_factors
from .regularizers import (RegularizerSpec, _prox_mode, _snap_reciprocal, _value_from_norms,
                           soft_threshold_elem)


@dataclass
class TrpcaConfig:
    """Settings for the robust PCA solvers.

    ``solver``, when not named, is :func:`solver_for` of ``spec`` and
    ``q``, and an ``asym_b`` spec without ``q`` supplies its q. The three
    must then pair: ``q`` is set exactly when the solver is asym, and a
    given ``spec`` is one that :func:`solver_for` pairs with the solver.
    Otherwise ValueError names the solver. ``q`` must lie in (0, 1) and is
    snapped to 2/m as an ``asym_b`` spec's is, or refused. The solvers read
    ``q``, never ``spec``.
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
        if self.q is not None:
            if not 0.0 < self.q < 1.0:
                raise ValueError(f"q must be in (0, 1), got {self.q}")
            self.q = _snap_reciprocal(self.q, 2.0)
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


def _sweep(data, sparse, factors, aux, duals, terms, lam_x, mu, public=0):
    """One iteration of every solver over the modes in order; mutates the
    factors, and the auxiliary copies and duals (indexed by mode) of the
    split modes, in place and returns the fit D - CP(F).

    Mode j's update follows its term (coeff, exponent) of `terms`, the
    penalty lam_x * coeff * sum_i ||x_i||^exponent that ``_objective``
    charges. Exponent 2 takes the exact minimizer of the fit plus that
    penalty, a ridge solve with ridge 2 * lam_x * coeff. Any other exponent
    is split: the x-update of the augmented Lagrangian with penalty `mu`,
    the auxiliary copy as the term's prox at step 1/mu, then the dual
    ascent step. Modes below `public` take their x-update from the public
    :func:`trpca_x_update`, which gives the same bits (see
    :func:`trpca_asym_solve`)."""
    target = data - sparse
    for j, (coeff, exponent) in enumerate(terms):
        if exponent == 2.0:
            factors[j] = _mode_update(target, factors, j, 2.0 * lam_x * coeff)
            continue
        if j < public:
            factors[j] = trpca_x_update(data, sparse, factors, aux[j], duals[j], j, mu)
        else:
            factors[j] = _mode_update(target, factors, j, mu, mu * aux[j] + duals[j])
        aux[j] = _prox_mode(factors[j] - duals[j] / mu, terms[j], lam_x, mu)
        duals[j] = duals[j] + mu * (aux[j] - factors[j])
    return _fit(data, factors)


def _admm_sweep(data, sparse, factors, aux, duals, lam_x, mu):
    # gate c9 of the acceptance tests imports the ADMM sweep by this name
    # and signature
    return _sweep(data, sparse, factors, aux, duals, [(1.0, 1.0)] * len(factors), lam_x, mu)


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


def _drive(data, config, terms, public=0):
    """The iteration shared by the three solvers.

    `terms` holds each mode's (coeff, exponent) penalty of the objective,
    and fixes everything else: the modes whose exponent is not 2 are split,
    each carrying an auxiliary copy and a dual variable, and every
    iteration is one :func:`_sweep` with these terms (`public` goes to it).
    The new sparse term is the sweep's fit D - CP(F) soft-thresholded at
    ``lam_e``, and the objective is evaluated from the same fit, so no
    reconstruction is repeated. A component is pruned when its auxiliary
    column is zero in every split mode; its factor columns need not be
    zero, so the fit is then formed again for the objective. The solve
    stops when the rank reaches zero or, after a sweep without pruning,
    when factors and sparse term both change by less than ``conv_tol``
    relatively. Returns (report, sparse_term).
    """
    factors = init_factors(data.shape, config.k_init, config.rng_seed)
    split = [j for j, (_, exponent) in enumerate(terms) if exponent != 2.0]
    aux = {j: factors[j].copy() for j in split}
    duals = {j: np.zeros_like(factors[j]) for j in split}
    sparse = np.zeros(data.shape)
    # two buffers take turns holding the sparse term: no tensor per iteration
    spare = np.empty(data.shape)
    fit = _fit(data, factors)

    run = SolveReport()
    run.record(_objective(fit, factors, sparse, terms, config.lam_x, config.lam_e), config.k_init)

    for t in range(1, config.t_max + 1):
        run.iterations = t
        # the sweeps replace factor arrays and never write into them
        prev_factors = list(factors)
        prev_sparse = sparse
        fit = _sweep(data, sparse, factors, aux, duals, terms, config.lam_x, config.mu, public)
        sparse = soft_threshold_elem(fit, config.lam_e, out=spare)
        spare = prev_sparse

        pruned = False
        if aux:
            keep = np.logical_or.reduce([y.any(axis=0) for y in aux.values()])
            pruned = not keep.all()
        if pruned:
            factors = [f[:, keep] for f in factors]
            aux, duals = ({j: m[:, keep] for j, m in mats.items()} for mats in (aux, duals))
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
    run.evaluations = len(run.objective_trace)
    return run.finish(factors), sparse


def trpca_admm_solve(data, config):
    """Splitting solver for the column-norm (exponent 1) penalty: lam_x
    weighs d * reg_value(F, sym:p=1/d), the sum of all column norms.

    Returns (report, sparse_term). The objective trace records the
    unaugmented objective at the factor iterates; it is reported, not
    guaranteed monotone.
    """
    _check_solver(config, "admm")
    d = _check_data(data)
    return _drive(d, config, [(1.0, 1.0)] * d.ndim)


def trpca_asym_solve(data, config):
    """Splitting solver with a norm power q in (0, 1) on mode 0 and ridge
    penalties on the remaining modes: lam_x weighs reg_value(F, asym_b:q)
    / p_eff, that is sum ||x^(0)||^q / q + sum_{j>0} ||x^(j)||^2 / 2.
    Returns (report, sparse_term)."""
    _check_solver(config, "asym")
    d = _check_data(data)
    q = config.q
    # mode 0's x-update goes through the public trpca_x_update
    # (public=1) because perfbench's tests assert that it is called; this
    # goes once ROADMAP item 7 drops that assertion
    return _drive(d, config, [(1.0 / q, q)] + [(0.5, 2.0)] * (d.ndim - 1), public=1)


def trpca_als_solve(data, config):
    """Alternating ridge least squares for the squared-norm (exponent 2)
    penalty: lam_x weighs reg_value(F, sym:p=2/d), the sum of squared
    column norms divided by d. Returns (report, sparse_term); the
    objective trace is monotone non-increasing."""
    _check_solver(config, "als")
    d = _check_data(data)
    return _drive(d, config, [(1.0 / d.ndim, 2.0)] * d.ndim)


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
