import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorenr.core import (
    ObservationMask,
    cp_reconstruct,
    khatri_rao,
    masked_residual,
    sample_mask,
    unfold,
)
from tensorenr.lrtc import (
    LIPSCHITZ_FLOOR,
    LrtcConfig,
    _MaskedLoss,
    bcde_solve,
    estimate_lipschitz,
    extrapolation_weight,
    init_factors,
    objective,
    quasi_newton_solve,
    smooth_grad,
    solve,
)
from tensorenr.regularizers import RegularizerSpec, reg_value


def sym_spec(d, p):
    return RegularizerSpec("sym", d, p=p)


def rank_one_problem(shape, seed):
    rng = np.random.default_rng(seed)
    f = [rng.standard_normal((n, 1)) for n in shape]
    data = cp_reconstruct(f)
    mask = sample_mask(shape, 0.0, seed=seed)
    return data, mask


class TestInitFactors:
    def test_unit_columns(self):
        f = init_factors((50, 50, 50), 20, seed=3)
        assert [m.shape for m in f] == [(50, 20)] * 3
        for m in f:
            assert np.allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-14)

    def test_deterministic(self):
        a = init_factors((4, 5, 6), 3, seed=9)
        b = init_factors((4, 5, 6), 3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_draw(self):
        a = init_factors((4, 5, 6), 3, seed=0)
        b = init_factors((4, 5, 6), 3, seed=1)
        assert not np.array_equal(a[0], b[0])


class TestObjective:
    def test_exact_fit_unregularized(self):
        data, mask = rank_one_problem((3, 4, 5), 0)
        rng = np.random.default_rng(0)
        f = [rng.standard_normal((n, 1)) for n in (3, 4, 5)]
        assert objective(data, mask, f, 0.0, sym_spec(3, 0.5)) == pytest.approx(0.0, abs=1e-18)

    def test_exact_fit_reduces_to_penalty(self):
        data, mask = rank_one_problem((3, 4, 5), 1)
        rng = np.random.default_rng(1)
        f = [rng.standard_normal((n, 1)) for n in (3, 4, 5)]
        spec = sym_spec(3, 1.0 / 3.0)
        got = objective(data, mask, f, 2.5, spec)
        assert got == pytest.approx(2.5 * reg_value(f, spec), rel=1e-12)

    def test_single_entry_off_by_three(self):
        f = [np.zeros((2, 1))] * 3
        d = np.zeros((2, 2, 2))
        d[0, 1, 0] = 3.0
        lin = np.ravel_multi_index((0, 1, 0), (2, 2, 2), order="F")
        mask = ObservationMask((2, 2, 2), np.array([lin], dtype=np.int64))
        assert objective(d, mask, f, 0.0, sym_spec(3, 0.5)) == 4.5


class TestSmoothGrad:
    def test_zero_residual(self):
        rng = np.random.default_rng(2)
        f = [rng.standard_normal((n, 2)) for n in (3, 4, 5)]
        data = cp_reconstruct(f)
        mask = sample_mask((3, 4, 5), 0.3, seed=5)
        for j in range(3):
            assert np.allclose(smooth_grad(data, mask, f, j), 0.0, atol=1e-12)

    def test_empty_mask(self):
        rng = np.random.default_rng(3)
        f = [rng.standard_normal((n, 2)) for n in (3, 3, 3)]
        mask = ObservationMask((3, 3, 3), np.array([], dtype=np.int64))
        g = smooth_grad(np.ones((3, 3, 3)), mask, f, 1)
        assert not g.any()

    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        shape, k = (4, 5, 6), 3
        f = [rng.standard_normal((n, k)) for n in shape]
        data = rng.standard_normal(shape)
        mask = sample_mask(shape, 0.4, seed=7)

        def loss(fac):
            _, v = masked_residual(data, fac, mask)
            return 0.5 * v

        h = 1e-6
        for j in range(3):
            g = smooth_grad(data, mask, f, j)
            num = np.zeros_like(g)
            for a in range(shape[j]):
                for b in range(k):
                    fp = [m.copy() for m in f]
                    fm = [m.copy() for m in f]
                    fp[j][a, b] += h
                    fm[j][a, b] -= h
                    num[a, b] = (loss(fp) - loss(fm)) / (2.0 * h)
            assert np.linalg.norm(g - num) <= 1e-6 * np.linalg.norm(num)

    def test_mode_out_of_range(self):
        f = [np.ones((2, 1))] * 3
        mask = sample_mask((2, 2, 2), 0.0, seed=0)
        with pytest.raises(ValueError):
            smooth_grad(np.ones((2, 2, 2)), mask, f, 3)


class TestEstimateLipschitz:
    def test_fully_observed_equals_kr_norm(self):
        rng = np.random.default_rng(6)
        f = [rng.standard_normal((n, 3)) for n in (4, 5, 6)]
        kr = khatri_rao(f, skip=0)
        oracle = np.linalg.svd(kr, compute_uv=False)[0] ** 2
        got = estimate_lipschitz(f, 0, n_observed=120, rho=1.0)
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_zero_factors_floor(self):
        f = [np.zeros((3, 2))] * 3
        assert estimate_lipschitz(f, 0, n_observed=10) == LIPSCHITZ_FLOOR

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_rho_scales_linearly(self, rho):
        rng = np.random.default_rng(7)
        f = [rng.standard_normal((n, 2)) for n in (3, 4, 5)]
        base = estimate_lipschitz(f, 1, n_observed=30, rho=1.0)
        assert estimate_lipschitz(f, 1, n_observed=30, rho=rho) == pytest.approx(
            rho * base, rel=1e-9
        )

    def test_observed_fraction_enters_as_sqrt(self):
        rng = np.random.default_rng(8)
        f = [rng.standard_normal((n, 2)) for n in (4, 4, 4)]
        full = estimate_lipschitz(f, 2, n_observed=64)
        quarter = estimate_lipschitz(f, 2, n_observed=16)
        assert quarter == pytest.approx(0.5 * full, rel=1e-9)

    def test_bad_rho(self):
        f = [np.ones((2, 1))] * 3
        with pytest.raises(ValueError):
            estimate_lipschitz(f, 0, n_observed=4, rho=0.0)

    @pytest.mark.parametrize("mode", [3, 7, -1])
    def test_bad_mode(self, mode):
        f = [np.ones((2, 1))] * 3
        with pytest.raises(ValueError, match="out of range"):
            estimate_lipschitz(f, mode, n_observed=4)


class TestExtrapolationWeight:
    def test_first_two_sweeps_are_zero(self):
        assert extrapolation_weight(1.0, 1.0, 1) == 0.0
        assert extrapolation_weight(1.0, 1.0, 2) == 0.0

    def test_equal_curvatures(self):
        assert extrapolation_weight(1.0, 1.0, 3) == pytest.approx(0.95)

    def test_curvature_ratio(self):
        assert extrapolation_weight(4.0, 1.0, 3) == pytest.approx(1.9)

    def test_missing_history(self):
        assert extrapolation_weight(None, 2.0, 5) == 0.0

    def test_invalid_curvature(self):
        with pytest.raises(ValueError):
            extrapolation_weight(-1.0, 1.0, 3)


class TestBcdeSolve:
    def test_exact_fit_rank_one(self):
        data, mask = rank_one_problem((10, 10, 10), 11)
        cfg = LrtcConfig(k_init=2, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), t_max=200)
        rep = bcde_solve(data, mask, cfg)
        err = np.linalg.norm(rep.recovered - data) / np.linalg.norm(data)
        assert err < 1e-4
        assert rep.iterations <= 200

    def test_report_invariants(self):
        data, mask = rank_one_problem((6, 7, 8), 12)
        cfg = LrtcConfig(k_init=3, lam=0.01, spec=sym_spec(3, 1.0 / 3.0), t_max=30)
        rep = bcde_solve(data, mask, cfg)
        assert rep.objective_trace
        assert rep.final_rank <= 3
        assert np.array_equal(rep.recovered, cp_reconstruct(rep.factors))
        assert len({m.shape[1] for m in rep.factors}) == 1
        assert len(rep.rank_trace) == len(rep.objective_trace)

    def test_huge_lambda_prunes_everything(self):
        data, mask = rank_one_problem((5, 5, 5), 13)
        cfg = LrtcConfig(k_init=4, lam=1e6, spec=sym_spec(3, 1.0 / 3.0), t_max=50)
        rep = bcde_solve(data, mask, cfg)
        assert rep.final_rank == 0
        assert not rep.recovered.any()

    def test_monotone_without_extrapolation(self):
        rng = np.random.default_rng(14)
        data = rng.standard_normal((6, 6, 6))
        mask = sample_mask((6, 6, 6), 0.5, seed=14)
        cfg = LrtcConfig(
            k_init=4, lam=0.1, spec=sym_spec(3, 1.0 / 3.0), t_max=40, delta=0.0
        )
        rep = bcde_solve(data, mask, cfg)
        assert np.all(np.diff(rep.objective_trace) <= 1e-12)

    @pytest.mark.parametrize("p", [1.0 / 3.0, 2.0 / 3.0, 1.0])
    def test_objective_decreases_each_prox_family(self, p):
        # p picks the linear, quadratic and plain-gradient prox paths
        rng = np.random.default_rng(15)
        data = rng.standard_normal((5, 6, 7))
        mask = sample_mask((5, 6, 7), 0.3, seed=15)
        cfg = LrtcConfig(k_init=3, lam=0.05, spec=sym_spec(3, p), t_max=25)
        rep = bcde_solve(data, mask, cfg)
        assert rep.objective_trace[-1] < rep.objective_trace[0]

    def test_irls_path_via_table2(self):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((5, 5, 5))
        mask = sample_mask((5, 5, 5), 0.4, seed=16)
        spec = RegularizerSpec("table2", 3, variant="s37")
        cfg = LrtcConfig(k_init=3, lam=0.05, spec=spec, t_max=25)
        rep = bcde_solve(data, mask, cfg)
        assert rep.objective_trace[-1] < rep.objective_trace[0]

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((6, 5, 4))
        mask = sample_mask((6, 5, 4), 0.5, seed=17)
        cfg = LrtcConfig(k_init=3, lam=0.2, spec=sym_spec(3, 1.0 / 3.0), t_max=30)
        a = bcde_solve(data, mask, cfg)
        b = bcde_solve(data, mask, cfg)
        assert np.array_equal(a.recovered, b.recovered)
        assert a.objective_trace == b.objective_trace
        assert a.final_rank == b.final_rank
        assert a.converged == b.converged

    def test_empty_mask_rejected(self):
        mask = ObservationMask((3, 3, 3), np.array([], dtype=np.int64))
        cfg = LrtcConfig(k_init=2, lam=0.0, spec=sym_spec(3, 0.5))
        with pytest.raises(ValueError):
            bcde_solve(np.zeros((3, 3, 3)), mask, cfg)

    def test_converged_flag_on_easy_instance(self):
        data, mask = rank_one_problem((8, 8, 8), 18)
        cfg = LrtcConfig(k_init=1, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), t_max=300)
        rep = bcde_solve(data, mask, cfg)
        assert rep.converged
        assert rep.iterations < 300


class TestQuasiNewtonSolve:
    def test_exact_fit_rank_one(self):
        data, mask = rank_one_problem((10, 10, 10), 21)
        cfg = LrtcConfig(
            k_init=2, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), solver="qn", t_max=200
        )
        rep = quasi_newton_solve(data, mask, cfg)
        err = np.linalg.norm(rep.recovered - data) / np.linalg.norm(data)
        assert err < 1e-4

    def test_final_not_above_initial(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((5, 6, 7))
        mask = sample_mask((5, 6, 7), 0.6, seed=22)
        cfg = LrtcConfig(
            k_init=4, lam=0.3, spec=sym_spec(3, 1.0 / 3.0), solver="qn", t_max=50
        )
        rep = quasi_newton_solve(data, mask, cfg)
        assert rep.objective_trace[-1] <= rep.objective_trace[0]

    def test_trace_decreases_up_to_pruning(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal((6, 6, 6))
        mask = sample_mask((6, 6, 6), 0.4, seed=23)
        cfg = LrtcConfig(
            k_init=5, lam=0.5, spec=sym_spec(3, 1.0 / 3.0), solver="qn", t_max=60
        )
        rep = quasi_newton_solve(data, mask, cfg)
        diffs = np.diff(rep.objective_trace)
        assert np.all(diffs <= 1e-6)

    def test_prunes_superfluous_columns(self):
        data, mask = rank_one_problem((7, 7, 7), 24)
        rng = np.random.default_rng(24)
        noisy = data + 0.01 * np.std(data) * rng.standard_normal(data.shape)
        cfg = LrtcConfig(
            k_init=4, lam=2.0, spec=sym_spec(3, 1.0 / 3.0), solver="qn", t_max=120
        )
        rep = quasi_newton_solve(noisy, mask, cfg)
        assert rep.final_rank < 4

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(25)
        data = rng.standard_normal((5, 5, 5))
        mask = sample_mask((5, 5, 5), 0.5, seed=25)
        cfg = LrtcConfig(
            k_init=3, lam=0.2, spec=sym_spec(3, 1.0 / 3.0), solver="qn", t_max=40
        )
        a = quasi_newton_solve(data, mask, cfg)
        b = quasi_newton_solve(data, mask, cfg)
        assert np.array_equal(a.recovered, b.recovered)
        assert a.objective_trace == b.objective_trace


class TestSolveDispatch:
    def test_routes_by_config(self):
        data, mask = rank_one_problem((5, 5, 5), 30)
        for name in ("bcde", "qn"):
            cfg = LrtcConfig(
                k_init=2, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), solver=name, t_max=60
            )
            rep = solve(data, mask, cfg)
            assert rep.objective_trace[-1] <= rep.objective_trace[0]

    def test_trace_csv_shape(self):
        data, mask = rank_one_problem((4, 4, 4), 31)
        cfg = LrtcConfig(k_init=2, lam=0.01, spec=sym_spec(3, 1.0 / 3.0), t_max=10)
        rep = solve(data, mask, cfg)
        lines = rep.trace_csv().strip().splitlines()
        assert lines[0] == "iter,objective,rank,seconds"
        assert len(lines) == len(rep.objective_trace) + 1

    def test_config_validation(self):
        spec = sym_spec(3, 0.5)
        with pytest.raises(ValueError):
            LrtcConfig(k_init=0, lam=0.0, spec=spec)
        with pytest.raises(ValueError):
            LrtcConfig(k_init=2, lam=-1.0, spec=spec)
        with pytest.raises(ValueError):
            LrtcConfig(k_init=2, lam=0.0, spec=spec, solver="sgd")
        with pytest.raises(ValueError):
            LrtcConfig(k_init=2, lam=0.0, spec=spec, delta=1.0)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    k=st.integers(0, 3),
    missing=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_masked_loss_kernel_matches_reference(shape, k, missing, seed):
    # the kernel's value is half of masked_residual's, and each block
    # gradient is -unfold(res, j) @ khatri_rao(F, skip=j)
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, k)) for n in shape]
    mask = sample_mask(shape, missing, seed)
    loss = _MaskedLoss(data, mask)
    res, value = masked_residual(data, factors, mask)
    np.testing.assert_allclose(loss.value(factors), 0.5 * value, rtol=1e-10, atol=0.0)
    for j in range(len(shape)):
        kr = khatri_rao(factors, skip=j)
        want = -unfold(res, j) @ kr
        got = loss.block_grad(factors[j], kr, j)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _dense_block_grad(data, factors, j):
    # gradient of the fully observed loss: -unfold(D - CP(F), j) @ KR
    kr = khatri_rao(factors, skip=j)
    return -unfold(data - cp_reconstruct(factors), j) @ kr, kr


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 1, 2, 3), (2, 2, 3, 1, 2, 2)])
def test_masked_loss_fully_observed_matches_dense(shape):
    rng = np.random.default_rng(len(shape))
    data = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, 3)) for n in shape]
    loss = _MaskedLoss(data, sample_mask(shape, 0.0, seed=0))
    res = data - cp_reconstruct(factors)
    np.testing.assert_allclose(loss.value(factors), 0.5 * np.sum(res * res), rtol=1e-12)
    for j in range(len(shape)):
        want, kr = _dense_block_grad(data, factors, j)
        np.testing.assert_allclose(loss.block_grad(factors[j], kr, j), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 2, 2, 3), (2, 2, 3, 2, 2, 2)])
def test_masked_loss_unobserved_rows_get_zero_gradient(shape):
    # observe only entries with every index below its last value, so the
    # last row of every unfolding holds no observed entry
    rng = np.random.default_rng(1)
    data = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, 2)) for n in shape]
    indicator = np.zeros(shape)
    indicator[tuple(slice(0, n - 1) for n in shape)] = 1.0
    mask = ObservationMask.from_dense(indicator)
    loss = _MaskedLoss(data, mask)
    res, _ = masked_residual(data, factors, mask)
    for j in range(len(shape)):
        kr = khatri_rao(factors, skip=j)
        got = loss.block_grad(factors[j], kr, j)
        assert np.all(got[-1] == 0.0)
        want = -unfold(res, j) @ kr
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_masked_loss_holds_no_dense_copy():
    shape = (40, 40, 40)
    data = np.random.default_rng(0).standard_normal(shape)
    mask = sample_mask(shape, 0.99, seed=0)
    tracemalloc.start()
    try:
        loss = _MaskedLoss(data, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.sqrt_fraction > 0.0
    assert peak < data.nbytes


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    k=st.integers(0, 4),
    rho=st.floats(0.01, 100.0),
    observed=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_curvature_is_exact_squared_kr_norm(shape, k, rho, observed, seed):
    # the Hadamard product of the other modes' Grams is KR^T KR, so the
    # curvature is rho * sqrt(fraction) * sigma_max(KR)^2 to rounding
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((n, k)) for n in shape]
    total = int(np.prod(shape))
    n_observed = int(round(observed * total))
    sqrt_fraction = np.sqrt(n_observed / total)
    for j in range(len(shape)):
        if k == 0:
            want = LIPSCHITZ_FLOOR
        else:
            sigma = np.linalg.svd(khatri_rao(factors, skip=j), compute_uv=False)[0]
            want = max(rho * sqrt_fraction * sigma**2, LIPSCHITZ_FLOOR)
        got = _MaskedLoss.curvature(factors, j, sqrt_fraction, rho)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert estimate_lipschitz(factors, j, n_observed, rho) == pytest.approx(
            want, rel=1e-12, abs=0.0
        )


def test_masked_loss_reuses_its_buffer_without_aliasing_results():
    # one residual buffer serves every mode; interleaved calls must give
    # the bits of a freshly built kernel, and returned gradients must not
    # point into the buffer or change when it is refilled
    shape = (4, 5, 3, 2)
    rng = np.random.default_rng(11)
    data = rng.standard_normal(shape)
    mask = sample_mask(shape, 0.6, seed=11)
    loss = _MaskedLoss(data, mask)
    buf = loss._buf
    for pattern in loss.pattern:
        assert np.shares_memory(pattern.data, buf)
    calls = [("grad", 0), ("grad", 0), ("value", None), ("grad", 2), ("grad", 1),
             ("value", None), ("grad", 2), ("grad", 3), ("grad", 0), ("value", None)]
    kept = []
    for what, mode in calls:
        factors = [rng.standard_normal((n, 3)) for n in shape]
        fresh = _MaskedLoss(data, mask)
        if what == "value":
            assert loss.value(factors) == fresh.value(factors)
            continue
        kr = khatri_rao(factors, skip=mode)
        got = loss.block_grad(factors[mode], kr, mode)
        want = fresh.block_grad(factors[mode], kr, mode)
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, buf)
        kept.append((got, want))
    assert loss._buf is buf
    for got, want in kept:
        assert np.array_equal(got, want)
