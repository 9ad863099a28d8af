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


def reg_value(factors, spec):
    """Evaluate the regularizer on a factor set."""
    shape, _ = validate_factors(factors)
    if len(shape) != spec.order:
        raise ValueError(
            f"factor set has order {len(shape)}, spec expects {spec.order}"
        )
    total = 0.0
    for f, (coeff, exp) in zip(factors, spec.mode_terms()):
        norms = np.linalg.norm(np.asarray(f, dtype=np.float64), axis=0)
        total += coeff * float(np.sum(norms**exp))
    return total


def component_magnitudes(factors):
    """Per-component products of mode column norms (the |lambda_i|)."""
    _, k = validate_factors(factors)
    mags = np.ones(k)
    for f in factors:
        mags *= np.linalg.norm(np.asarray(f, dtype=np.float64), axis=0)
    return mags


def balance_factors(factors):
    """Rescale every component so all its mode norms equal the geometric
    mean of the originals. Components containing a zero column are zeroed
    in every mode. The reconstruction is unchanged."""
    shape, k = validate_factors(factors)
    mats = [np.array(f, dtype=np.float64) for f in factors]
    if k == 0:
        return mats
    norms = np.stack([np.linalg.norm(f, axis=0) for f in mats])
    alive = np.all(norms > 0.0, axis=0)
    target = np.zeros(k)
    with np.errstate(divide="ignore"):
        logs = np.where(norms > 0.0, np.log(np.where(norms > 0.0, norms, 1.0)), 0.0)
    target[alive] = np.exp(np.mean(logs[:, alive], axis=0))
    for j, f in enumerate(mats):
        scale = np.zeros(k)
        scale[alive] = target[alive] / norms[j, alive]
        f *= scale
    return mats


def prox_group_soft(matrix, threshold):
    """Column-wise group soft threshold: shrink each column's norm by
    `threshold`, zeroing columns at or below it."""
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    y = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(y, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, np.maximum(0.0, 1.0 - threshold / norms), 0.0)
    return y * scale


def prox_ridge_scale(matrix, lipschitz, lam):
    """Closed-form prox of lam*||.||_F^2 at curvature `lipschitz`:
    uniform shrinkage by lipschitz / (lipschitz + 2 lam)."""
    if lipschitz <= 0:
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    y = np.asarray(matrix, dtype=np.float64)
    return (lipschitz / (lipschitz + 2.0 * lam)) * y


def soft_threshold_elem(tensor, lam):
    """Elementwise soft threshold sign(v) * max(|v| - lam, 0), computed as
    v - clip(v, -lam, lam); entries inside the band come out as +0.0."""
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    t = np.asarray(tensor, dtype=np.float64)
    return t - np.clip(t, -lam, lam)


def _irls_penalty(norms, q, eps):
    """Smoothed column penalty targeted by the reweighting iteration.

    Antiderivative of q*t*(t+eps)^(q-2); tends to t^q as eps -> 0 and is
    tangent-majorized by the weighted quadratic used in each sweep.
    """
    t = np.asarray(norms, dtype=np.float64)
    a = (t + eps) ** q - eps**q
    b = (t + eps) ** (q - 1.0) - eps ** (q - 1.0)
    return a - q * eps * b / (q - 1.0)


def prox_irls(matrix, exponent, lam, inner_iters=10, eps=1e-6, return_trace=False):
    """Approximate prox of lam * sum_i ||y_i||^exponent, 0 < exponent < 1,
    by iteratively reweighted ridge sweeps.

    Starting from the input, each sweep solves the weighted quadratic
    majorant exactly, which shrinks every column along its own direction.
    A final comparison against the zero column returns whichever of the
    two candidates has lower true objective 0.5*||y - g||^2 + lam*||y||^q.

    With ``return_trace`` the smoothed surrogate objective after every
    sweep is returned as well (it is non-increasing).
    """
    if not 0.0 < exponent < 1.0:
        raise ValueError(f"exponent must lie in (0, 1), got {exponent}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = np.asarray(matrix, dtype=np.float64)
    q = float(exponent)
    y = g.copy()

    def surrogate(cur):
        norms = np.linalg.norm(cur, axis=0)
        return 0.5 * float(np.sum((cur - g) ** 2)) + lam * float(
            np.sum(_irls_penalty(norms, q, eps))
        )

    trace = [surrogate(y)] if return_trace else None
    for _ in range(inner_iters):
        norms = np.linalg.norm(y, axis=0)
        w2 = 0.5 * q * (norms + eps) ** (q - 2.0)
        y = g / (1.0 + 2.0 * lam * w2)
        if return_trace:
            trace.append(surrogate(y))

    # The reweighting converges to the largest stationary point of each
    # column's objective; the only other candidate minimizer is zero.
    g_norms = np.linalg.norm(g, axis=0)
    y_norms = np.linalg.norm(y, axis=0)
    obj_y = 0.5 * np.sum((y - g) ** 2, axis=0) + lam * y_norms**q
    obj_zero = 0.5 * g_norms**2
    y = np.where(obj_y <= obj_zero, y, 0.0)

    if return_trace:
        return y, trace
    return y
