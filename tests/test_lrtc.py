import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorenr import harness, lrtc
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
from tensorenr.regularizers import RegularizerSpec, component_magnitudes, reg_value
from tensorenr.trpca import TrpcaConfig, trpca_solve


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


def test_prox_mode_exponent_three_is_stationary():
    # the prox of lam*coeff*||x||^3 at curvature L solves
    # L*(x - g) + 3*lam*coeff*||x||*x = 0 column by column
    rng = np.random.default_rng(18)
    g = rng.standard_normal((7, 4)) * np.array([0.01, 1.0, 10.0, 100.0])
    coeff, lam, lip = 1.0 / 3.0, 0.9, 2.5
    x = lrtc._prox_mode(g, (coeff, 3.0), lam, lip)
    res = lip * (x - g) + 3.0 * lam * coeff * np.linalg.norm(x, axis=0) * x
    assert np.all(np.linalg.norm(res, axis=0) <= 1e-13 * lip * np.linalg.norm(g, axis=0))


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
        # p = 1/3 takes the group soft threshold, p = 1/6 the radial prox
        # with exponent 1/2
        rng = np.random.default_rng(14)
        data = rng.standard_normal((6, 6, 6))
        mask = sample_mask((6, 6, 6), 0.5, seed=14)
        for p in (1.0 / 3.0, 1.0 / 6.0):
            cfg = LrtcConfig(k_init=4, lam=0.1, spec=sym_spec(3, p), t_max=40, delta=0.0)
            rep = bcde_solve(data, mask, cfg)
            assert np.all(np.diff(rep.objective_trace) <= 1e-12)

    @pytest.mark.parametrize("p", [1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    def test_objective_decreases_each_prox_family(self, p):
        # p gives exponents 1/2, 1, 2 and 3: the radial prox below 1, the
        # group soft threshold, the ridge scaling and the radial prox above 1
        rng = np.random.default_rng(15)
        data = rng.standard_normal((5, 6, 7))
        mask = sample_mask((5, 6, 7), 0.3, seed=15)
        cfg = LrtcConfig(k_init=3, lam=0.05, spec=sym_spec(3, p), t_max=25)
        rep = bcde_solve(data, mask, cfg)
        assert rep.objective_trace[-1] < rep.objective_trace[0]

    def test_exponent_three_path_via_table2(self):
        # s37 puts exponent 3 on mode 0 and plain norms on the others
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


    def test_rebalanced_solve_converges_on_the_c5_cell(self):
        # the gate's c5 cell (missing 0.7, seed 0, lambda 8): rebalancing
        # every component after each sweep lets the objective settle well
        # inside the 500-sweep budget, at balanced factors whose penalty is
        # sum_i |lambda_i|^(1/3) and whose objective is the one recorded
        spec = harness.ExperimentSpec(task="lrtc", shape=(30, 30, 30), true_rank=5, k_init=10,
                                      noise_level=0.1, missing_rate=0.7, reg="sym:p=0.3333")
        _, data, mask = harness.gen_lrtc_data(spec, 0)
        cfg = LrtcConfig(k_init=10, lam=8.0, spec=spec.reg, rng_seed=0)
        rep = bcde_solve(data, mask, cfg)
        assert (rep.converged, rep.stop_reason) == (True, "tol")
        assert rep.iterations < 300
        assert np.all(np.diff(rep.objective_trace) <= 0.0)
        mags = component_magnitudes(rep.factors)
        assert reg_value(rep.factors, spec.reg) == pytest.approx(np.sum(mags ** (1 / 3)), rel=1e-10)
        final = objective(data, mask, rep.factors, 8.0, spec.reg)
        assert final == pytest.approx(rep.objective_trace[-1], rel=1e-12)

    @pytest.mark.parametrize("shape", [(7, 6), (5, 6, 4), (4, 3, 5, 3)])
    def test_cached_mode0_khatri_rao_follows_rebalancing(self, shape, monkeypatch):
        # every mode-0 block call gets the Khatri-Rao matrix of the factors
        # the sweep starts from, rescaled or pruned as they were
        rng = np.random.default_rng(len(shape))
        data = rng.standard_normal(shape)
        mask = sample_mask(shape, 0.4, seed=len(shape))
        curvature, block_grad = _MaskedLoss.curvature, _MaskedLoss.block_grad
        start, checked = [], []

        def recording_curvature(factors, mode, sqrt_fraction, rho):
            if mode == 0:
                start[:] = [f.copy() for f in factors]
            return curvature(factors, mode, sqrt_fraction, rho)

        def checking_block_grad(self, x, kr, mode):
            if mode == 0:
                want = khatri_rao(start, skip=0)
                assert np.allclose(kr, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
                assert kr.flags.c_contiguous
                checked.append(None)
            return block_grad(self, x, kr, mode)

        monkeypatch.setattr(_MaskedLoss, "curvature", staticmethod(recording_curvature))
        monkeypatch.setattr(_MaskedLoss, "block_grad", checking_block_grad)
        cfg = LrtcConfig(k_init=4, lam=0.3, spec=sym_spec(len(shape), 1.0 / len(shape)), t_max=40)
        rep = bcde_solve(data, mask, cfg)
        assert len(checked) >= rep.iterations > 5

    def test_no_rebalancing_without_penalty(self, monkeypatch):
        data, mask = rank_one_problem((6, 6, 6), 19)
        monkeypatch.setattr(lrtc, "_balancer", lambda terms: None)
        cfg = LrtcConfig(k_init=2, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), t_max=20)
        assert bcde_solve(data, mask, cfg).iterations == 20

    def test_safeguard_cap_stops_at_the_last_accepted_iterate(self, monkeypatch):
        # from the fourth sweep on every candidate's loss reads higher than
        # the objective: the retries double the curvature up to the cap,
        # and the solve returns the third sweep's iterate
        rng = np.random.default_rng(20)
        data = rng.standard_normal((5, 6, 4))
        mask = sample_mask((5, 6, 4), 0.4, seed=20)
        cfg = LrtcConfig(k_init=3, lam=0.1, spec=sym_spec(3, 1.0 / 3.0), t_max=50, conv_tol=0.0)
        want = bcde_solve(data, mask, LrtcConfig(**{**cfg.__dict__, "t_max": 3}))
        value = _MaskedLoss.value
        calls, penalties = [], []

        def rising(self, factors, kr=None):
            calls.append(None)
            return value(self, factors, kr) + (1e6 if len(calls) > 4 else 0.0)

        def counting_reg_value(*args):
            penalties.append(None)
            return reg_value(*args)

        monkeypatch.setattr(_MaskedLoss, "value", rising)
        monkeypatch.setattr(lrtc, "reg_value", counting_reg_value)
        rep = bcde_solve(data, mask, cfg)
        assert (rep.stop_reason, rep.converged, rep.iterations) == ("safeguard_cap", False, 3)
        assert len(calls) == 4 + 53
        assert rep.evaluations == len(penalties) == len(calls)
        assert rep.objective_trace == want.objective_trace
        assert all(np.array_equal(a, b) for a, b in zip(rep.factors, want.factors))

    def test_stop_reasons(self):
        data, mask = rank_one_problem((5, 5, 5), 13)
        for solver in ("bcde", "qn"):
            cfg = LrtcConfig(k_init=4, lam=0.1, spec=sym_spec(3, 1.0 / 3.0), solver=solver,
                             t_max=3, conv_tol=0.0)
            rep = solve(data, mask, cfg)
            assert (rep.iterations, rep.converged, rep.stop_reason) == (3, False, "t_max")
            cfg = LrtcConfig(k_init=4, lam=1e6, spec=sym_spec(3, 1.0 / 3.0), solver=solver,
                             t_max=50)
            rep = solve(data, mask, cfg)
            assert (rep.final_rank, rep.converged, rep.stop_reason) == (0, True, "rank_zero")


@pytest.mark.parametrize("solver, lam", [("bcde", 0.0), ("bcde", 0.5), ("qn", 0.0), ("qn", 0.5)])
def test_evaluations_count_objective_evaluations(solver, lam, monkeypatch):
    # every objective evaluation (initial point, BCDE safeguard retries,
    # L-BFGS line-search trials and pruning restarts) calls reg_value once
    rng = np.random.default_rng(26)
    data = rng.standard_normal((6, 5, 4))
    mask = sample_mask((6, 5, 4), 0.5, seed=26)
    calls = []

    def counting_reg_value(*args):
        calls.append(None)
        return reg_value(*args)

    monkeypatch.setattr(lrtc, "reg_value", counting_reg_value)
    cfg = LrtcConfig(k_init=4, lam=lam, spec=sym_spec(3, 1.0 / 3.0), solver=solver, t_max=60)
    rep = solve(data, mask, cfg)
    assert rep.evaluations == len(calls) >= rep.iterations + 1


def test_lbfgs_skips_the_penalty_gradient_at_lambda_zero(monkeypatch):
    data, mask = rank_one_problem((6, 6, 6), 27)
    cfg = LrtcConfig(k_init=2, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), solver="qn", t_max=20)

    def unexpected(x, term):
        raise AssertionError("penalty gradient formed at lambda 0")

    monkeypatch.setattr(lrtc, "_reg_grad_mode", unexpected)
    assert quasi_newton_solve(data, mask, cfg).iterations > 0


@pytest.mark.parametrize("solver", ["bcde", "qn"])
def test_completion_input_checks(solver):
    # the kernel refuses a mask of another shape and non-finite data where
    # observed, and never reads an unobserved entry; reg_value refuses a
    # spec of another order; the public helpers refuse factors whose shape
    # is not the mask's, which the kernel's clipping gather would not see
    shape = (4, 5, 3)
    data, _ = rank_one_problem(shape, 21)
    mask = sample_mask(shape, 0.5, seed=21)
    cfg = LrtcConfig(k_init=2, lam=0.1, spec=sym_spec(3, 1.0 / 3.0), solver=solver, t_max=20)
    first = np.unravel_index(mask.linear_indices[0], shape, order="F")
    for bad in (np.nan, np.inf, -np.inf):
        d = data.copy()
        d[first] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve(d, mask, cfg)
    with pytest.raises(ValueError, match="mask shape"):
        solve(data[:, :, :2], mask, cfg)
    with pytest.raises(ValueError, match="spec expects"):
        solve(data, mask, LrtcConfig(k_init=2, lam=0.1, spec=sym_spec(4, 0.25), solver=solver))
    zero, nan = data.copy(), data.copy()
    unobserved = mask.complement().multi_indices()
    zero[unobserved], nan[unobserved] = 0.0, np.nan
    a, b = solve(zero, mask, cfg), solve(nan, mask, cfg)
    assert np.array_equal(a.recovered, b.recovered)
    assert a.objective_trace == b.objective_trace
    wrong = init_factors((4, 5, 2), 2, seed=0)
    with pytest.raises(ValueError, match="does not match factors"):
        objective(data, mask, wrong, cfg.lam, cfg.spec)
    with pytest.raises(ValueError, match="does not match factors"):
        smooth_grad(data, mask, wrong, 0)


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

    def test_mode0_khatri_rao_formed_once_per_point(self, monkeypatch):
        # every gradient is taken at the point whose loss was just
        # evaluated, so it reuses that evaluation's mode-0 Khatri-Rao
        # matrix. The gate's c5 cell (missing 0.7, seed 0, lambda 8)
        # runs a few hundred iterations, with pruning restarts.
        spec = harness.ExperimentSpec(task="lrtc", shape=(30, 30, 30), true_rank=5, k_init=10,
                                      noise_level=0.1, missing_rate=0.7, reg="sym:p=0.3333",
                                      solver="qn")
        _, data, mask = harness.gen_lrtc_data(spec, 0)
        points = []

        def counting(factors, skip=None):
            if skip == 0:
                points.append(b"".join(np.ascontiguousarray(f).tobytes() for f in factors))
            return khatri_rao(factors, skip=skip)

        monkeypatch.setattr(lrtc, "khatri_rao", counting)
        cfg = LrtcConfig(k_init=10, lam=8.0, spec=spec.reg, solver="qn", rng_seed=0)
        rep = quasi_newton_solve(data, mask, cfg)
        assert rep.iterations > 100
        assert len(set(points)) == len(points)


class TestSolveDispatch:
    def test_routes_by_config(self):
        data, mask = rank_one_problem((5, 5, 5), 30)
        for name in ("bcde", "qn"):
            cfg = LrtcConfig(
                k_init=2, lam=0.0, spec=sym_spec(3, 1.0 / 3.0), solver=name, t_max=60
            )
            rep = solve(data, mask, cfg)
            assert rep.objective_trace[-1] <= rep.objective_trace[0]

    @pytest.mark.parametrize("solver", ["bcde", "qn", "admm", "asym", "als"])
    def test_trace_csv_shape(self, solver):
        data, mask = rank_one_problem((4, 4, 4), 31)
        if solver in ("bcde", "qn"):
            cfg = LrtcConfig(k_init=2, lam=0.01, spec=sym_spec(3, 1.0 / 3.0), solver=solver,
                             t_max=10)
            rep = solve(data, mask, cfg)
        else:
            cfg = TrpcaConfig(k_init=2, lam_x=0.01, lam_e=0.1, q=0.5 if solver == "asym" else None,
                              solver=solver, t_max=10)
            rep, _ = trpca_solve(data, cfg)
        lines = rep.trace_csv().strip().splitlines()
        assert lines[0] == "iter,objective,rank,seconds"
        assert len(lines) == len(rep.objective_trace) + 1
        assert len(rep.rank_trace) == len(rep.time_trace) == len(rep.objective_trace)
        # every row's rank and seconds are the report's, not a fallback
        traces = zip(rep.objective_trace, rep.rank_trace, rep.time_trace)
        for i, (line, (obj, rank, sec)) in enumerate(zip(lines[1:], traces)):
            assert line == f"{i},{obj:.12g},{rank},{sec:.6f}"

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

    @pytest.mark.parametrize("field", ["lam", "rho", "conv_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite_settings(self, field, value):
        # a NaN weight used to pass and give a NaN objective, on which the
        # safeguard doubled the curvature 52 times per sweep
        kwargs = {"k_init": 2, "lam": 1.0, "spec": sym_spec(3, 0.5), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LrtcConfig(**kwargs)


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
    k=st.integers(0, 3),
    missing=st.floats(0.0, 0.95),
    block_bytes=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_kernel_matches_reference(shape, k, missing, block_bytes, seed):
    # a byte budget of a few columns splits each unfolding into many column
    # blocks, most with a partial last block, and at high missing rates into
    # empty blocks and unobserved rows (a budget below one column gives one
    # block); value and block gradients must still be those of the
    # unblocked masked residual
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, k)) for n in shape]
    mask = sample_mask(shape, missing, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lrtc, "_BLOCK_BYTES", block_bytes)
        loss = _MaskedLoss(data, mask)
    res, value = masked_residual(data, factors, mask)
    assert loss.value(factors) == pytest.approx(0.5 * value, rel=1e-12, abs=0.0)
    for j, n in enumerate(shape):
        ncols = mask.total // n
        width = min(ncols, block_bytes // (8 * n) or ncols)
        assert sum(run[-1].shape[0] for run in loss.runs[j]) == -(-ncols // width) * n
        assert all(run[-1].shape[1] == ncols for run in loss.runs[j])
        kr = khatri_rao(factors, skip=j)
        want = -unfold(res, j) @ kr
        got = loss.block_grad(factors[j], kr, j)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_block_call_forms_no_whole_product():
    # 80^3 with a 1 MiB budget is four column blocks per mode; one call
    # must hold well under the n_j x prod(n_i) product it used to form
    shape = (80, 80, 80)
    total = math.prod(shape)
    rng = np.random.default_rng(2)
    data = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, 3)) for n in shape]
    loss = _MaskedLoss(data, sample_mask(shape, 0.9, seed=2))
    krs = [khatri_rao(factors, skip=j) for j in range(3)]
    calls = [lambda: loss.value(factors)]
    calls += [lambda j=j: loss.block_grad(factors[j], krs[j], j) for j in range(3)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * total / 2
    assert all(sum(run[-1].shape[0] for run in runs) == 4 * 80 for runs in loss.runs)


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
    for runs in loss.runs:
        assert all(np.shares_memory(run[-1].data, buf) for run in runs)
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


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=2, max_size=5),
    k=st.integers(0, 3),
    missing=st.floats(0.0, 0.95),
    block_bytes=st.integers(1, 100),
    threads=st.integers(1, 3),
    min_run=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_thread_split_is_bit_identical(shape, k, missing, block_bytes, threads, min_run, seed):
    # small byte budgets cut each unfolding into many column blocks, some
    # empty, which the split hands out in runs to up to three threads (more
    # than this machine may have); value, every block gradient and the
    # residual buffer must keep the bits of one run on the calling thread,
    # and each run's rows must read the shared buffer
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    mask = sample_mask(shape, missing, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lrtc, "_BLOCK_BYTES", block_bytes)
        mp.setattr(lrtc, "_MIN_RUN", min_run)
        mp.setattr(lrtc, "_cpus", lambda: 1)
        one = _MaskedLoss(data, mask)
        mp.setattr(lrtc, "_cpus", lambda: threads)
        split = _MaskedLoss(data, mask)
    factors = [rng.standard_normal((n, k)) for n in shape]
    # threads switch as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert split.value(factors) == one.value(factors)
        assert np.array_equal(split._buf, one._buf)
        for j, n in enumerate(shape):
            ncols = math.prod(shape) // n
            nblocks = -(-ncols // min(ncols, block_bytes // (8 * n) or ncols))
            runs = split.runs[j]
            assert len(runs) == max(1, min(threads, nblocks // min_run))
            assert sum(run[-1].shape[0] for run in runs) == nblocks * n
            for run in runs:
                if run[-1].nnz:
                    assert np.shares_memory(run[-1].data, split._buf)
            kr = khatri_rao(factors, skip=j)
            got = split.block_grad(factors[j], kr, j)
            assert np.array_equal(got, one.block_grad(factors[j], kr, j))
            assert np.array_equal(split._buf, one._buf)
    finally:
        sys.setswitchinterval(interval)


def test_thread_split_engages_only_with_enough_blocks(monkeypatch):
    # 100^3 has eight 1 MiB column blocks per mode, two runs of four on two
    # CPUs; 80^3 has four, too few to split. Every run's rows keep the
    # index dtype scipy picks, not the int64 of the sorted column indices
    monkeypatch.setattr(lrtc, "_cpus", lambda: 2)
    for n, runs in ((100, 2), (80, 1), (30, 1)):
        shape = (n, n, n)
        loss = _MaskedLoss(np.zeros(shape), sample_mask(shape, 0.99, seed=0))
        assert [len(r) for r in loss.runs] == [runs] * 3
        assert all(run[-1].indices.dtype == np.int32 for r in loss.runs for run in r)
