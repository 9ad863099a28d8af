import math
import warnings

import numpy as np
import pytest
from helpers import grid_minimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from tensorenr.core import cp_reconstruct
from tensorenr.regularizers import (
    RegularizerSpec,
    _balancer,
    _prox_radial,
    balance_factors,
    component_magnitudes,
    prox_group_soft,
    prox_irls,
    prox_ridge_scale,
    reg_value,
    soft_threshold_elem,
)


def unit_vec(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def factors_with_norms(rng, shape, norms):
    """Random-direction factors whose column norms are exactly `norms`.

    `norms` has one row per mode and one column per component.
    """
    norms = np.asarray(norms, dtype=np.float64)
    k = norms.shape[1]
    out = []
    for j, n in enumerate(shape):
        cols = [norms[j, i] * unit_vec(rng, n) for i in range(k)]
        out.append(np.column_stack(cols) if k else np.zeros((n, 0)))
    return out


def random_factors(rng, shape, k):
    return [rng.standard_normal((n, k)) for n in shape]


class TestRegValue:
    def test_sym_hand_example(self):
        rng = np.random.default_rng(0)
        spec = RegularizerSpec("sym", 3, p=1.0 / 3.0)
        f = factors_with_norms(rng, (4, 4, 4), [[2.0], [2.0], [2.0]])
        v = reg_value(f, spec)
        assert v == pytest.approx(2.0, abs=1e-12)
        lam = component_magnitudes(f)[0]
        assert v == pytest.approx(lam ** (1.0 / 3.0), abs=1e-12)

    def test_all_zero_factors(self):
        spec = RegularizerSpec("sym", 3, p=0.5)
        assert reg_value([np.zeros((3, 2))] * 3, spec) == 0.0

    def test_s12_leading_constant(self):
        spec = RegularizerSpec("table2", 3, variant="s12")
        coeffs = [c for c, _ in spec.mode_terms()]
        assert coeffs == [math.sqrt(2.0) / 4.0] * 3
        assert [e for _, e in spec.mode_terms()] == [2.0, 2.0, 1.0]

    def test_order_mismatch_rejected(self):
        spec = RegularizerSpec("sym", 3, p=0.5)
        with pytest.raises(ValueError):
            reg_value([np.zeros((2, 1))] * 4, spec)

    def test_am_gm_lower_bound(self):
        # the symmetric value can never undercut the sum of component
        # magnitudes raised to p, whatever the scaling of the factors
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(3, 5))
            k = int(rng.integers(1, 9))
            p = float(rng.uniform(0.05, 1.0))
            shape = tuple(int(rng.integers(2, 6)) for _ in range(d))
            f = random_factors(rng, shape, k)
            spec = RegularizerSpec("sym", d, p=p)
            bound = float(np.sum(component_magnitudes(f) ** p))
            assert reg_value(f, spec) >= bound - 1e-12

    def test_sym_equality_after_balancing(self):
        rng = np.random.default_rng(7)
        for d in (3, 4):
            shape = (3, 4, 5, 6)[:d]
            f = random_factors(rng, shape, 5)
            spec = RegularizerSpec("sym", d, p=1.0 / d)
            target = float(np.sum(component_magnitudes(f) ** (1.0 / d)))
            got = reg_value(balance_factors(f), spec)
            assert got == pytest.approx(target, rel=1e-10)


class TestEqualityConfigurations:
    """Each family attains sum_i |lambda_i|^p exactly when the per-component
    terms of its underlying mean inequality are all equal."""

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("q", [1.0, 0.5, 1.0 / 3.0])
    def test_asym_a(self, d, q):
        rng = np.random.default_rng(11)
        spec = RegularizerSpec("asym_a", d, q=q)
        vs = np.array([0.7, 1.3, 2.1])
        norms = np.vstack([vs ** (1.0 / q)] + [vs] * (d - 1))
        f = factors_with_norms(rng, (4,) * d, norms)
        target = float(np.sum(component_magnitudes(f) ** spec.effective_p))
        assert reg_value(f, spec) == pytest.approx(target, rel=1e-10)
        assert target == pytest.approx(float(np.sum(vs)), rel=1e-10)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("q", [2.0, 1.0, 0.5])
    def test_asym_b(self, d, q):
        rng = np.random.default_rng(12)
        spec = RegularizerSpec("asym_b", d, q=q)
        us = np.array([0.6, 1.0, 1.8])
        norms = np.vstack([us ** (1.0 / q)] + [np.sqrt(us)] * (d - 1))
        f = factors_with_norms(rng, (4,) * d, norms)
        target = float(np.sum(component_magnitudes(f) ** spec.effective_p))
        assert reg_value(f, spec) == pytest.approx(target, rel=1e-10)
        assert target == pytest.approx(float(np.sum(us)), rel=1e-10)

    @pytest.mark.parametrize(
        "variant,config",
        [
            # alpha profiles making every addend equal to u, per component
            ("s12", lambda u: (np.sqrt(u), np.sqrt(u), 2.0 * u)),
            ("s25", lambda u: (np.sqrt(u), 2.0 * u, 2.0 * u)),
            ("s37", lambda u: (u ** (1.0 / 3.0), 3.0 * u, 3.0 * u)),
        ],
    )
    def test_table2(self, variant, config):
        rng = np.random.default_rng(13)
        spec = RegularizerSpec("table2", 3, variant=variant)
        us = np.array([0.4, 1.1, 2.5])
        norms = np.stack(config(us))
        f = factors_with_norms(rng, (4, 4, 4), norms)
        target = float(np.sum(component_magnitudes(f) ** spec.effective_p))
        assert reg_value(f, spec) == pytest.approx(target, rel=1e-10)

    def test_asym_a_q1_matches_sym(self):
        rng = np.random.default_rng(14)
        f = random_factors(rng, (3, 4, 5), 4)
        a = reg_value(f, RegularizerSpec("asym_a", 3, q=1.0))
        s = reg_value(f, RegularizerSpec("sym", 3, p=1.0 / 3.0))
        assert a == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_asym_b_q2_matches_sym(self, d):
        rng = np.random.default_rng(15)
        f = random_factors(rng, (3, 4, 5, 6)[:d], 4)
        b = reg_value(f, RegularizerSpec("asym_b", d, q=2.0))
        s = reg_value(f, RegularizerSpec("sym", d, p=2.0 / d))
        assert b == pytest.approx(s, rel=1e-12)


def _min_over_rescalings(f, spec):
    """Numerically minimize reg_value over component rescalings that keep
    the reconstruction fixed (scales multiplying to one across modes)."""
    d = spec.order

    def value(theta):
        scales = np.append(theta, -np.sum(theta))
        scaled = [np.exp(s) * m for s, m in zip(scales, f)]
        return reg_value(scaled, spec)

    res = optimize.minimize(
        value,
        np.zeros(d - 1),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
    )
    return res.fun


@pytest.mark.parametrize(
    "spec",
    [
        RegularizerSpec("sym", 3, p=1.0 / 3.0),
        RegularizerSpec("sym", 3, p=2.0 / 3.0),
        RegularizerSpec("asym_a", 3, q=0.5),
        RegularizerSpec("asym_b", 3, q=0.5),
        RegularizerSpec("table2", 3, variant="s12"),
        RegularizerSpec("table2", 3, variant="s25"),
        RegularizerSpec("table2", 3, variant="s37"),
    ],
    ids=lambda s: s.label(),
)
def test_infimum_over_rescalings_is_magnitude_power(spec):
    # independent check of every leading constant: the best achievable
    # value over rescalings of a single component must be |lambda|^p
    rng = np.random.default_rng(21)
    f = random_factors(rng, (3, 4, 5), 1)
    lam = component_magnitudes(f)[0]
    found = _min_over_rescalings(f, spec)
    assert found == pytest.approx(lam**spec.effective_p, rel=1e-6)


class TestBalanceFactors:
    def test_hand_example(self):
        rng = np.random.default_rng(1)
        f = factors_with_norms(rng, (3, 3, 3), [[8.0], [1.0], [1.0]])
        before = cp_reconstruct(f)
        g = balance_factors(f)
        for m in g:
            assert np.linalg.norm(m[:, 0]) == pytest.approx(2.0, rel=1e-12)
        after = cp_reconstruct(g)
        assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)

    def test_fixed_point(self):
        rng = np.random.default_rng(2)
        f = factors_with_norms(rng, (3, 3, 3), [[1.5, 0.3], [1.5, 0.3], [1.5, 0.3]])
        g = balance_factors(f)
        for a, b in zip(f, g):
            assert np.allclose(a, b, rtol=1e-14, atol=0.0)

    def test_zero_column_zeroes_component(self):
        rng = np.random.default_rng(3)
        f = random_factors(rng, (3, 4, 5), 3)
        f[2][:, 1] = 0.0
        g = balance_factors(f)
        for m in g:
            assert not m[:, 1].any()
        assert g[0][:, 0].any() and g[0][:, 2].any()

    def test_reconstruction_invariance(self):
        rng = np.random.default_rng(4)
        for d in (3, 4):
            f = random_factors(rng, (3, 4, 5, 2)[:d], 6)
            t0 = cp_reconstruct(f)
            t1 = cp_reconstruct(balance_factors(f))
            assert np.linalg.norm(t1 - t0) <= 1e-12 * np.linalg.norm(t0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        f = random_factors(rng, (4, 4, 4), 3)
        once = balance_factors(f)
        twice = balance_factors(once)
        for a, b in zip(once, twice):
            assert np.allclose(a, b, rtol=1e-13, atol=1e-15)

    def test_empty_factor_set(self):
        g = balance_factors([np.zeros((3, 0)), np.zeros((4, 0)), np.zeros((5, 0))])
        assert all(m.shape[1] == 0 for m in g)


def _spec_of(kind, d, param):
    if kind == "sym":
        return RegularizerSpec("sym", d, p=param)
    if kind == "asym_a":
        return RegularizerSpec("asym_a", d, q=1.0 / param)
    if kind == "asym_b":
        return RegularizerSpec("asym_b", d, q=2.0 / param)
    return RegularizerSpec("table2", 3, variant=param)


@st.composite
def balancing_cases(draw):
    kind = draw(st.sampled_from(["sym", "asym_a", "asym_b", "table2"]))
    d = 3 if kind == "table2" else draw(st.integers(2, 5))
    param = {
        "sym": st.floats(0.05, 1.0),
        "asym_a": st.integers(1, 4),
        "asym_b": st.integers(1, 6),
        "table2": st.sampled_from(["s12", "s25", "s37"]),
    }[kind]
    spec = _spec_of(kind, d, draw(param))
    k = draw(st.integers(1, 4))
    log_norms = draw(st.lists(st.floats(-4.0, 4.0), min_size=d * k, max_size=d * k))
    return spec, np.exp(np.reshape(log_norms, (d, k))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(balancing_cases())
def test_balancer_minimizes_every_family(case):
    # the scales keep CP(F) and lower R(F) to its minimum over rescalings,
    # which the leading constants make sum_i |lambda_i|^p; no rescaling
    # with a product of 1 does better
    spec, norms, seed = case
    rng = np.random.default_rng(seed)
    d, k = norms.shape
    f = factors_with_norms(rng, (3, 4, 2, 3, 2)[:d], norms)
    terms = spec.mode_terms()
    scales = _balancer(terms)(norms)
    assert np.allclose(np.prod(scales, axis=0), 1.0, rtol=1e-12, atol=0.0)
    g = [m * s for m, s in zip(f, scales)]
    t0, t1 = cp_reconstruct(f), cp_reconstruct(g)
    assert np.linalg.norm(t1 - t0) <= 1e-12 * np.linalg.norm(t0)
    best = reg_value(g, spec)
    assert best <= reg_value(f, spec) * (1.0 + 1e-12)
    if spec.kind != "sym" or terms[0][1] == spec.p * d:
        mags = np.prod(norms, axis=0)
        assert best == pytest.approx(float(np.sum(mags**spec.effective_p)), rel=1e-10)
    for _ in range(8):
        shift = rng.standard_normal((d, k)) * 10.0 ** rng.uniform(-6.0, 0.5)
        shift -= shift.mean(axis=0)
        moved = [m * np.exp(s) for m, s in zip(g, shift)]
        assert reg_value(moved, spec) >= best * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: prox_irls(np.ones((2, 2)), 0.5, math.nan),
        lambda: prox_group_soft(np.ones((2, 2)), math.nan),
        lambda: soft_threshold_elem(np.ones(3), math.nan),
        lambda: prox_ridge_scale(np.ones((2, 2)), 1.0, math.nan),
        lambda: prox_ridge_scale(np.ones((2, 2)), math.nan, 1.0),
    ],
    ids=["prox_irls", "prox_group_soft", "soft_threshold_elem", "ridge_lam", "ridge_lipschitz"],
)
def test_prox_functions_reject_nan_penalties(call):
    with pytest.raises(ValueError, match="nan"):
        call()


class TestProxGroupSoft:
    def test_hand_example(self):
        y = prox_group_soft(np.array([[3.0], [4.0]]), 1.0)
        assert np.allclose(y[:, 0], [2.4, 3.2], rtol=0.0, atol=1e-14)

    def test_dead_zone(self):
        y = prox_group_soft(np.array([[0.3], [0.4]]), 1.0)
        assert not y.any()

    def test_zero_threshold_identity(self):
        g = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(prox_group_soft(g, 0.0), g)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_group_soft(np.ones((2, 2)), -0.1)

    def test_matches_radial_grid_search(self):
        # per column the objective reduces to a 1-D problem in the norm
        g = np.array([[3.0], [4.0]])
        lam = 1.0
        ts = np.arange(0.0, 6.0, 1e-6)
        vals = 0.5 * (ts - 5.0) ** 2 + lam * ts
        t_star = ts[np.argmin(vals)]
        y = prox_group_soft(g, lam)
        assert np.linalg.norm(y[:, 0]) == pytest.approx(t_star, abs=1e-5)

    def test_nonexpansive(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((4, 3))
            lam = float(rng.uniform(0.0, 2.0))
            d_out = np.linalg.norm(prox_group_soft(a, lam) - prox_group_soft(b, lam))
            assert d_out <= np.linalg.norm(a - b) + 1e-12


class TestProxRidgeScale:
    def test_hand_example(self):
        y = np.full((2, 2), 3.0)
        assert np.allclose(prox_ridge_scale(y, 2.0, 1.0), y / 2.0)

    def test_zero_lam_identity(self):
        y = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(prox_ridge_scale(y, 5.0, 0.0), y)

    def test_nonpositive_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            prox_ridge_scale(np.ones((2, 2)), 0.0, 1.0)

    def test_matches_scalar_grid_search(self):
        lip, lam, g = 2.0, 0.7, 1.7
        ys = np.arange(0.0, 2.0, 1e-6)
        vals = 0.5 * lip * (ys - g) ** 2 + lam * ys**2
        y_star = ys[np.argmin(vals)]
        got = prox_ridge_scale(np.array([[g]]), lip, lam)[0, 0]
        assert got == pytest.approx(y_star, abs=1e-6)

    def test_nonexpansive(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        d_out = np.linalg.norm(prox_ridge_scale(a, 1.3, 0.9) - prox_ridge_scale(b, 1.3, 0.9))
        assert d_out <= np.linalg.norm(a - b) + 1e-12


class TestProxIrls:
    def test_zero_input(self):
        assert not prox_irls(np.zeros((3, 2)), 0.5, 1.0).any()

    def test_zero_lam_returns_input(self):
        g = np.arange(6.0).reshape(3, 2)
        assert np.allclose(prox_irls(g, 0.5, 0.0), g)

    def test_scalar_grid_search_oracle(self):
        # global minimizer of 0.5*(y-2)^2 + 0.3*sqrt(y) on a 1e-6 grid
        ys = np.arange(0.0, 2.0 + 1e-6, 1e-6)
        vals = 0.5 * (ys - 2.0) ** 2 + 0.3 * np.sqrt(ys)
        y_star = ys[np.argmin(vals)]
        got = prox_irls(np.array([[2.0]]), 0.5, 0.3, inner_iters=50)[0, 0]
        assert got == pytest.approx(y_star, abs=1e-3)

    def test_zero_candidate_wins_for_small_columns(self):
        # with a heavy penalty the true objective prefers the zero column
        got = prox_irls(np.array([[0.1]]), 0.5, 5.0, inner_iters=50)
        assert got[0, 0] == 0.0

    def test_per_column_independence(self):
        g = np.array([[2.0, 0.1], [0.0, 0.0]])
        got = prox_irls(g, 0.5, 0.3, inner_iters=50)
        alone = prox_irls(g[:, :1], 0.5, 0.3, inner_iters=50)
        assert got[0, 0] == pytest.approx(alone[0, 0], rel=1e-12)

    def test_invalid_exponent_rejected(self):
        for bad in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ValueError):
                prox_irls(np.ones((2, 2)), bad, 1.0)


def _critical_tau(a, e, kind):
    """For e < 1, the tau at which a column of norm `a` first has a nonzero
    stationary point ("stationary": phi'(s_c) = 0 at the inflection point
    s_c), or at which that point ties with zero ("tie": phi(s) = phi(0) at
    s = 2a(1-e)/(2-e))."""
    if kind == "stationary":
        return (a * (1.0 - e) / (2.0 - e)) ** (2.0 - e) / (e * (1.0 - e))
    s = 2.0 * a * (1.0 - e) / (2.0 - e)
    return s ** (1.0 - e) * (a - s) / e


@settings(max_examples=200, deadline=None)
@given(
    e=st.sampled_from([1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.5, 3.0, 4.0]),
    m=st.integers(1, 3),
    k=st.integers(1, 4),
    zero_column=st.booleans(),
    tau_kind=st.sampled_from(["zero", "random", "huge", "stationary", "tie"]),
    tau_exp=st.floats(-10.0, 6.0),
    nudge=st.floats(-1e-3, 1e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_radial_prox_is_the_exact_minimizer(e, m, k, zero_column, tau_kind, tau_exp, nudge, seed):
    # per column the prox minimizes phi(s) = 0.5*(s - a)^2 + tau*s^e along
    # the column's own direction, and raises no warning
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    if zero_column:
        g[:, 0] = 0.0
    a = np.linalg.norm(g, axis=0)
    a_ref = a[-1] if a[-1] > 0.0 else 1.0
    if tau_kind == "zero":
        tau = 0.0
    elif tau_kind == "random":
        tau = 10.0**tau_exp
    elif tau_kind == "huge":
        # for 1 < e < 2 this puts the root near 0, where phi' is steepest
        tau = 10.0 ** (tau_exp + 12.0)
    elif e < 1.0:
        tau = _critical_tau(a_ref, e, tau_kind) * (1.0 + nudge)
    else:
        tau = 10.0 ** (tau_exp / 2.0) * a_ref ** (2.0 - e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = _prox_radial(g, e, tau)
    assert y.shape == g.shape
    for i in range(k):
        alone = _prox_radial(g[:, i : i + 1], e, tau)[:, 0]
        assert np.allclose(y[:, i], alone, rtol=1e-12, atol=0.0)
        if a[i] == 0.0:
            assert not y[:, i].any()
            continue
        big = int(np.argmax(np.abs(g[:, i])))
        c = y[big, i] / g[big, i]
        assert 0.0 <= c <= 1.0
        assert np.allclose(y[:, i], c * g[:, i], rtol=1e-12, atol=0.0)

        def phi(t, a_i=a[i]):
            return 0.5 * (t - a_i) ** 2 + tau * t**e

        t = grid_minimize(phi, 0.0, a[i], coarse=1e-3 * a[i], fine=1e-7 * a[i])
        assert phi(c * a[i]) <= phi(t) + 1e-12 * 0.5 * a[i] ** 2


class TestProxRadial:
    def test_exponent_below_one_meets_zero_at_the_tie(self):
        # just below the tie tau the shrunk column wins, just above it zero
        g = np.array([[3.0], [4.0]])
        tau = _critical_tau(5.0, 0.5, "tie")
        assert np.linalg.norm(_prox_radial(g, 0.5, tau * (1.0 - 1e-9))) > 1.0
        assert not _prox_radial(g, 0.5, tau * (1.0 + 1e-9)).any()

    def test_exponent_above_one_keeps_a_tiny_root(self):
        # e = 1.5 under a huge penalty: the root is near 0 but not 0, and
        # phi'(s) = s - a + tau*e*sqrt(s) vanishes there
        g = np.array([[2.0]])
        tau = 1e6
        s = float(_prox_radial(g, 1.5, tau)[0, 0])
        assert 0.0 < s < 1e-10
        assert abs(s - 2.0 + 1.5 * tau * math.sqrt(s)) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(1e299, 1e301).flatmap(lambda v: st.sampled_from([v, -v])),
            st.sampled_from([0.0, -0.0]),
        ),
        max_size=12,
    ),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 1e301), st.floats(1e299, 1e301)),
)
def test_soft_threshold_matches_sign_formula(values, lam):
    # t - clip(t, -lam, lam) equals sign(t) * max(|t| - lam, 0) entry for
    # entry (zeros compare equal whatever their sign), with entries at +-lam
    t = np.array(values + [lam, -lam])
    want = np.sign(t) * np.maximum(np.abs(t) - lam, 0.0)
    assert np.array_equal(soft_threshold_elem(t, lam), want)


class TestSoftThresholdElem:
    def test_hand_examples(self):
        t = np.array([1.2, -0.3, 0.5, -2.0])
        out = soft_threshold_elem(t, 0.5)
        assert np.allclose(out, [0.7, 0.0, 0.0, -1.5], atol=1e-15)

    def test_zero_lam_identity(self):
        t = np.array([[1.0, -2.0], [0.3, 0.0]])
        assert np.array_equal(soft_threshold_elem(t, 0.0), t)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold_elem(np.ones(3), -1.0)

    def test_preserves_shape(self):
        t = np.ones((2, 3, 4))
        assert soft_threshold_elem(t, 0.2).shape == (2, 3, 4)


class TestSpecParsing:
    def test_sym_with_p(self):
        spec = RegularizerSpec.parse("sym:p=0.3333", 3)
        assert spec.kind == "sym"
        # limited-decimal input still lands on the linear prox path
        assert spec.mode_terms()[0][1] == 1.0

    def test_bare_sym_defaults(self):
        assert RegularizerSpec.parse("sym", 4).p == pytest.approx(0.25)

    def test_asym_b(self):
        spec = RegularizerSpec.parse("asym_b:q=0.5", 3)
        assert spec.q == 0.5
        assert spec.effective_p == pytest.approx(1.0 / 3.0)

    def test_table2(self):
        spec = RegularizerSpec.parse("table2:s12", 3)
        assert spec.variant == "s12"

    def test_label_round_trip(self):
        for text in ("sym:p=0.5", "asym_a:q=0.5", "asym_b:q=1", "table2:s37"):
            spec = RegularizerSpec.parse(text, 3)
            again = RegularizerSpec.parse(spec.label(), 3)
            assert again.mode_terms() == spec.mode_terms()

    def test_q_snaps_to_reciprocal(self):
        spec = RegularizerSpec.parse("asym_a:q=0.333333", 3)
        assert spec.q == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            RegularizerSpec.parse("nuclear", 3)
        with pytest.raises(ValueError):
            RegularizerSpec.parse("table2:s99", 3)
        with pytest.raises(ValueError):
            RegularizerSpec.parse("table2:s12", 4)
        with pytest.raises(ValueError):
            RegularizerSpec("sym", 3, p=1.5)
        with pytest.raises(ValueError):
            RegularizerSpec("asym_a", 3, q=0.3)
