"""Euclidean-norm regularizers on CP factors and their proximal operators.

Each regularizer is a weighted sum of powers of factor column norms,

    R(F) = sum_j a_j * sum_i ||x_i^(j)||^{e_j},

chosen so that minimizing R over all CP representations of a fixed tensor
yields the sum of component magnitudes raised to an effective power
p in (0, 1]. Four families are supported:

* ``sym``     every mode gets coefficient 1/d and exponent p*d;
* ``asym_a``  mode 0 carries exponent q, the rest are plain norms;
* ``asym_b``  mode 0 carries exponent q, the rest are squared norms;
* ``table2``  three fixed order-3 presets (s12, s25, s37) with effective
              powers 1/2, 2/5 and 3/7.

The leading constants are chosen so the infimum over rescalings of a
component equals its magnitude to the effective power exactly; the
equality configurations are documented on :meth:`RegularizerSpec.mode_terms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import validate_factors

_TABLE2 = {
    # variant: (leading coefficient, per-mode exponents, effective power)
    "s12": (math.sqrt(2.0) / 4.0, (2.0, 2.0, 1.0), 0.5),
    "s25": (16.0 ** 0.2 / 5.0, (2.0, 1.0, 1.0), 0.4),
    "s37": (729.0 ** (1.0 / 7.0) / 7.0, (3.0, 1.0, 1.0), 3.0 / 7.0),
}

_KINDS = ("sym", "asym_a", "asym_b", "table2")


def _snap_exponent(e):
    """Snap a per-column exponent to a nearby small integer.

    The proximal solvers dispatch on exact exponent values (1 has a
    thresholding prox, 2 a ridge prox), so p entered with limited decimals
    (p=0.3333 on an order-3 tensor) should hit the integer path.
    """
    r = round(e)
    if r >= 1 and abs(e - r) <= 1e-4:
        return float(r)
    return float(e)


def _snap_reciprocal(q, numerator):
    """Snap q to numerator/m for integer m, or raise."""
    if not q > 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    m = round(numerator / q)
    if m < 1 or abs(q * m - numerator) > 1e-6 * max(1.0, m):
        raise ValueError(
            f"exponent q={q} is not of the form {numerator}/m for integer m"
        )
    return numerator / m


@dataclass(frozen=True)
class RegularizerSpec:
    """Configuration of one regularizer family for a given tensor order."""

    kind: str
    order: int
    p: float | None = None
    q: float | None = None
    variant: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not 2 <= self.order <= 6:
            raise ValueError(f"tensor order must be in [2, 6], got {self.order}")
        if self.kind == "sym":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise ValueError(f"sym requires p in (0, 1], got {self.p}")
        elif self.kind == "asym_a":
            if self.q is None:
                raise ValueError("asym_a requires q")
            object.__setattr__(self, "q", _snap_reciprocal(self.q, 1.0))
        elif self.kind == "asym_b":
            if self.q is None:
                raise ValueError("asym_b requires q")
            object.__setattr__(self, "q", _snap_reciprocal(self.q, 2.0))
        else:
            if self.variant not in _TABLE2:
                raise ValueError(
                    f"table2 variant must be one of {sorted(_TABLE2)}, got {self.variant}"
                )
            if self.order != 3:
                raise ValueError("table2 presets are defined for order-3 tensors only")
        eff = self.effective_p
        if not 0.0 < eff <= 1.0 + 1e-12:
            raise ValueError(f"effective power {eff} falls outside (0, 1]")

    @property
    def effective_p(self):
        """Power of the component magnitudes that the regularizer surrogates."""
        d = self.order
        if self.kind == "sym":
            return float(self.p)
        if self.kind == "asym_a":
            return self.q / (1.0 + self.q * d - self.q)
        if self.kind == "asym_b":
            return 2.0 * self.q / (2.0 + self.q * d - self.q)
        return _TABLE2[self.variant][2]

    def mode_terms(self):
        """Per-mode (coefficient, exponent) pairs.

        The regularizer value is sum_j coeff_j * sum_i ||x_i^(j)||^exp_j.
        Equality with sum_i |lambda_i|^effective_p holds when, per
        component, all addends of the underlying mean inequality agree:

        * sym:     all mode norms equal;
        * asym_a:  ||x^(0)||^q == ||x^(j)|| for j >= 1;
        * asym_b:  ||x^(0)||^q == ||x^(j)||^2 for j >= 1;
        * table2:  mode-0 power equals each remaining norm divided by its
                   split count (1 for exponent-2 modes of s12, 2 for s25,
                   3 for s37).
        """
        d = self.order
        if self.kind == "sym":
            return [(1.0 / d, _snap_exponent(float(self.p) * d))] * d
        if self.kind == "asym_a":
            p1 = self.effective_p
            return [(p1 / self.q, self.q)] + [(p1, 1.0)] * (d - 1)
        if self.kind == "asym_b":
            p2 = self.effective_p
            return [(p2 / self.q, self.q)] + [(p2 / 2.0, 2.0)] * (d - 1)
        coeff, exps, _ = _TABLE2[self.variant]
        return [(coeff, e) for e in exps]

    def label(self):
        """Round-trippable text form, e.g. ``sym:p=0.5`` or ``table2:s12``."""
        if self.kind == "sym":
            return f"sym:p={self.p:g}"
        if self.kind == "table2":
            return f"table2:{self.variant}"
        return f"{self.kind}:q={self.q:g}"

    @classmethod
    def parse(cls, text, order):
        """Build a spec from config text like ``sym:p=0.3333``,
        ``asym_b:q=0.5`` or ``table2:s12``. Bare ``sym`` defaults to
        p = 1/order."""
        head, _, rest = text.strip().partition(":")
        head = head.lower()
        if head == "sym":
            if not rest:
                return cls("sym", order, p=1.0 / order)
            key, _, val = rest.partition("=")
            if key.strip() != "p":
                raise ValueError(f"sym takes p=<value>, got {rest!r}")
            return cls("sym", order, p=float(val))
        if head in ("asym_a", "asym_b"):
            key, _, val = rest.partition("=")
            if key.strip() != "q":
                raise ValueError(f"{head} takes q=<value>, got {rest!r}")
            return cls(head, order, q=float(val))
        if head == "table2":
            return cls("table2", order, variant=rest.strip().lower())
        raise ValueError(f"unknown regularizer kind {head!r}")


def reg_value(factors, spec, norms=None):
    """Evaluate the regularizer on a factor set. `norms`, when given, are
    the factors' column norms, one row per mode, so a caller that needs
    them anyway computes them once."""
    shape, k = validate_factors(factors)
    if len(shape) != spec.order:
        raise ValueError(
            f"factor set has order {len(shape)}, spec expects {spec.order}"
        )
    if norms is None:
        norms = [np.linalg.norm(np.asarray(f, dtype=np.float64), axis=0) for f in factors]
    elif np.shape(norms) != (len(shape), k):
        raise ValueError(f"norms must have shape {(len(shape), k)}, got {np.shape(norms)}")
    return _value_from_norms(norms, spec.mode_terms())


def _value_from_norms(norms, terms):
    """sum_j c_j * sum_i n_ij^e_j for column norms `norms`, one row per mode."""
    return sum(coeff * float((n**exp).sum()) for n, (coeff, exp) in zip(norms, terms))


def component_magnitudes(factors):
    """Per-component products of mode column norms (the |lambda_i|)."""
    _, k = validate_factors(factors)
    mags = np.ones(k)
    for f in factors:
        mags *= np.linalg.norm(np.asarray(f, dtype=np.float64), axis=0)
    return mags


def _balancer(terms):
    """Closed-form best rescaling of CP components under the per-mode
    (c_j, e_j) pairs `terms`.

    Returns a function that maps positive column norms n_j, one row per
    mode, to the per-mode scales s_j that minimize
    sum_j c_j * (s_j n_j)^e_j for each component subject to
    prod_j s_j = 1. The minimizer is where all the weighted addends
    c_j e_j (s_j n_j)^e_j agree on a common value mu (weighted AM-GM); in
    logs,

        log mu = (sum_j log n_j + sum_j log(c_j e_j) / e_j) / sum_j 1/e_j,
        log(s_j n_j) = (log mu - log(c_j e_j)) / e_j.

    A component's rescaled value is mu * sum_j 1/e_j: its magnitude to the
    family's effective power (for ``sym``, to the power its snapped
    exponents give).
    """
    coeff, exps = np.array(terms, dtype=np.float64).T[:, :, None]
    log_ce = np.log(coeff * exps)
    offset, weight = (log_ce / exps).sum(), (1.0 / exps).sum()

    def scales(norms):
        log_n = np.log(norms)
        log_mu = (log_n.sum(axis=0) + offset) / weight
        return np.exp((log_mu - log_ce) / exps - log_n)

    return scales


def balance_factors(factors):
    """Rescale every component so all its mode norms equal the geometric
    mean of the originals. Components containing a zero column are zeroed
    in every mode. The reconstruction is unchanged."""
    _, k = validate_factors(factors)
    mats = [np.array(f, dtype=np.float64) for f in factors]
    if k == 0:
        return mats
    norms = np.stack([np.linalg.norm(f, axis=0) for f in mats])
    alive = norms.all(axis=0)
    scales = np.zeros_like(norms)
    scales[:, alive] = _balancer([(1.0, 1.0)] * len(mats))(norms[:, alive])
    for f, scale in zip(mats, scales):
        f *= scale
    return mats


def prox_group_soft(matrix, threshold):
    """Column-wise group soft threshold: shrink each column's norm by
    `threshold`, zeroing columns at or below it."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    y = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(y, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, np.maximum(0.0, 1.0 - threshold / norms), 0.0)
    return y * scale


def prox_ridge_scale(matrix, lipschitz, lam):
    """Closed-form prox of lam*||.||_F^2 at curvature `lipschitz`:
    uniform shrinkage by lipschitz / (lipschitz + 2 lam)."""
    if not lipschitz > 0:
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    if not lam >= 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    y = np.asarray(matrix, dtype=np.float64)
    return (lipschitz / (lipschitz + 2.0 * lam)) * y


def soft_threshold_elem(tensor, lam, out=None):
    """Elementwise soft threshold sign(v) * max(|v| - lam, 0), computed as
    v - clip(v, -lam, lam); entries inside the band come out as +0.0. The
    result goes into `out` when given (it must not be `tensor`)."""
    if not lam >= 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    t = np.asarray(tensor, dtype=np.float64)
    band = np.clip(t, -lam, lam, out=out)
    return np.subtract(t, band, out=band)


def _prox_radial(matrix, exponent, tau, max_steps=64):
    """Exact prox of tau * sum_i ||y_i||^exponent, column by column.

    Each column keeps its direction, and its norm a becomes the minimizer
    of phi(s) = 0.5*(s - a)^2 + tau*s^e over s >= 0: a root of
    phi'(s) = s - a + tau*e*s^(e-1), found by Newton steps from the upper
    end of a bracket (bisecting when a step leaves it) until
    |phi'(s)| <= 4*eps*a, or for at most `max_steps` steps.

    * e > 1: phi' increases from -a at 0; the root lies below a and below
      (a/(tau*e))^(1/(e-1)), the tighter bound when the penalty dominates.
    * e < 1: phi is convex right of its inflection point
      s_c = (tau*e*(1-e))^(1/(2-e)). A nonzero minimizer exists only if
      phi'(s_c) <= 0, lies in [s_c, a], and is kept only if it beats
      phi(0) = 0.5*a^2 (generalized soft thresholding, Zuo et al. 2013).
    """
    g = np.asarray(matrix, dtype=np.float64)
    if tau == 0.0:
        return g.copy()
    a = np.linalg.norm(g, axis=0)
    e = float(exponent)
    if e < 1.0:
        s_c = (tau * e * (1.0 - e)) ** (1.0 / (2.0 - e))
        # phi'(s_c) = s_c * (2-e)/(1-e) - a, since tau*e*s_c^(e-1) = s_c/(1-e)
        live = (a > 0.0) & (a >= s_c * (2.0 - e) / (1.0 - e))
        s = r = a[live]
    else:
        s_c = 0.0
        live = a > 0.0
        r = a[live]
        with np.errstate(over="ignore"):  # an overflow to inf loses nothing
            s = np.minimum(r, (r / (tau * e)) ** (1.0 / (e - 1.0)))
    lo, hi = np.full_like(r, s_c), s
    tol = 4.0 * np.finfo(np.float64).eps * r
    for _ in range(max_steps):
        # t = tau*e*s^(e-2) is taken as 0 at s = 0 and may overflow at a
        # subnormal s; an infinite t or a curvature 1 + (e-1)*t <= 0 gives a
        # step outside the bracket, hence a bisection
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = tau * e * np.power(s, e - 2.0, out=np.zeros_like(s), where=s > 0.0)
            grad = s - r + t * s
            step = s - grad / (1.0 + (e - 1.0) * t)
        done = np.abs(grad) <= tol
        if done.all():
            break
        lo = np.where(grad < 0.0, s, lo)
        hi = np.where(grad > 0.0, s, hi)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        s = np.where(done, s, step)
    if e < 1.0:
        s = np.where(0.5 * (s - r) ** 2 + tau * s**e <= 0.5 * r**2, s, 0.0)
    scale = np.zeros_like(a)
    scale[live] = s / r
    return g * scale


def prox_irls(matrix, exponent, lam, inner_iters=64):
    """Prox of lam * sum_i ||y_i||^exponent for 0 < exponent < 1: the
    minimizer of 0.5*||y - g||^2 + lam * sum_i ||y_i||^exponent.

    Each column is shrunk along its own direction to the exact minimizer
    of its radial problem, or set to zero where zero has the lower
    objective (see :func:`_prox_radial`). `inner_iters` caps the Newton
    steps of that scalar solve; the default cap is not reached in practice.
    """
    if not 0.0 < exponent < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {exponent}")
    if not lam >= 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    return _prox_radial(matrix, exponent, lam, max_steps=inner_iters)
