import numpy as np
import pytest
from helpers import C8, grid_minimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from tensorenr import harness, trpca
from tensorenr.core import cp_reconstruct, khatri_rao, unfold
from tensorenr.lrtc import init_factors
from tensorenr.regularizers import (
    RegularizerSpec,
    prox_group_soft,
    reg_value,
    soft_threshold_elem,
)
from tensorenr.trpca import (
    TrpcaConfig,
    _admm_sweep,
    _fit,
    _objective,
    _solve_right,
    _sweep,
    sparsity_summary,
    trpca_admm_solve,
    trpca_als_solve,
    trpca_asym_solve,
    trpca_solve,
    trpca_x_update,
)

SYM_E1 = RegularizerSpec("sym", 3, p=1.0 / 3.0)
SYM_E2 = RegularizerSpec("sym", 3, p=2.0 / 3.0)


def random_instance(shape, k, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, k)) for n in shape]
    sparse = rng.standard_normal(shape) * (rng.random(shape) < 0.2)
    aux = [f + 0.1 * rng.standard_normal(f.shape) for f in factors]
    duals = [0.1 * rng.standard_normal(f.shape) for f in factors]
    return data, factors, sparse, aux, duals


def clean_rank_one(shape, seed):
    rng = np.random.default_rng(seed)
    f = [rng.standard_normal((n, 1)) for n in shape]
    return cp_reconstruct(f)


class TestXUpdate:
    def test_large_mu_pins_to_aux(self):
        data, factors, sparse, aux, duals = random_instance((4, 5, 6), 3, 0)
        data, sparse = 0.5 * data, 0.5 * sparse
        factors = [0.5 * f for f in factors]
        aux = [0.5 * y for y in aux]
        duals = [0.5 * z for z in duals]

        def deviation(mu):
            x = trpca_x_update(data, sparse, factors, aux[0], duals[0], 0, mu)
            return np.linalg.norm(x - aux[0])

        assert deviation(1e8) <= 1e-6
        # the gap decays as 1/mu
        assert deviation(2e8) <= 0.75 * deviation(1e8)

    def test_scalar_mode_hand_solve(self):
        rng = np.random.default_rng(1)
        factors = [rng.standard_normal((n, 1)) for n in (1, 2, 2)]
        data = rng.standard_normal((1, 2, 2))
        sparse = np.zeros((1, 2, 2))
        y = np.array([[0.4]])
        z = np.array([[-0.2]])
        mu = 3.0
        kr = khatri_rao(factors, skip=0)
        num = (unfold(data, 0) @ kr).item() + mu * 0.4 + (-0.2)
        den = (kr.T @ kr).item() + mu
        x = trpca_x_update(data, sparse, factors, y, z, 0, mu)
        assert x[0, 0] == pytest.approx(num / den, rel=1e-12)

    def test_fixed_point_at_zero_residual(self):
        rng = np.random.default_rng(2)
        factors = [rng.standard_normal((n, 2)) for n in (3, 4, 5)]
        data = cp_reconstruct(factors)
        sparse = np.zeros(data.shape)
        for j in range(3):
            x = trpca_x_update(
                data, sparse, factors, factors[j], np.zeros_like(factors[j]), j, 10.0
            )
            assert np.allclose(x, factors[j], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_block_stationarity(self, mode):
        # the update must zero the gradient of the augmented objective
        # 0.5*||(D-E)_(j) - X KR'||^2 + <Y - X, Z> + 0.5*mu*||Y - X||^2
        data, factors, sparse, aux, duals = random_instance((4, 5, 6), 3, 3)
        mu = 7.0
        x = trpca_x_update(data, sparse, factors, aux[mode], duals[mode], mode, mu)
        kr = khatri_rao(factors, skip=mode)
        grad = (
            -(unfold(data - sparse, mode) - x @ kr.T) @ kr
            - duals[mode]
            - mu * (aux[mode] - x)
        )
        assert np.linalg.norm(grad) < 1e-8

    def test_bad_mu(self):
        data, factors, sparse, aux, duals = random_instance((3, 3, 3), 2, 4)
        with pytest.raises(ValueError):
            trpca_x_update(data, sparse, factors, aux[0], duals[0], 0, mu=0.0)

    @pytest.mark.parametrize("mode", [-1, 3, 7])
    def test_mode_out_of_range_rejected_before_any_product(self, mode, monkeypatch):
        data, factors, sparse, aux, duals = random_instance((3, 4, 5), 2, 6)

        def no_product(*args, **kwargs):
            raise AssertionError("a Khatri-Rao product or Gram was formed")

        monkeypatch.setattr(trpca, "mttkrp", no_product)
        monkeypatch.setattr(trpca, "kr_gram", no_product)
        with pytest.raises(ValueError, match="out of range"):
            trpca_x_update(data, sparse, factors, aux[0], duals[0], mode, 1.0)

    @pytest.mark.parametrize("which", ["aux", "dual"])
    @pytest.mark.parametrize("shape", [(1, 2), (2,), (3, 1), (4, 2)])
    def test_block_shaped_aux_and_dual_required(self, which, shape):
        # mode 0 has block shape (3, 2); (1, 2), (2,) and (3, 1) would
        # broadcast into a wrong answer
        data, factors, sparse, aux, duals = random_instance((3, 4, 5), 2, 7)
        args = {"aux": aux[0], "dual": duals[0], which: np.ones(shape)}
        with pytest.raises(ValueError, match="aux and dual must have shape"):
            trpca_x_update(data, sparse, factors, args["aux"], args["dual"], 0, 1.0)


class TestSolveRight:
    @pytest.mark.parametrize("n, k", [(4, 1), (7, 3), (30, 10)])
    def test_spd_matches_scipy_cholesky(self, n, k):
        # a ridge above rounding takes the inverse, which rounds differently
        # from a Cholesky solve
        rng = np.random.default_rng(n)
        kr = rng.standard_normal((n * n, k))
        gram = kr.T @ kr
        rhs = rng.standard_normal((n, k))
        ridged = gram + 0.1 * np.eye(k)
        want = cho_solve(cho_factor(ridged), rhs.T).T
        got = _solve_right(gram, rhs, 0.1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(got, rhs @ np.linalg.inv(ridged))

    @pytest.mark.parametrize(
        "gram",
        [
            np.zeros((2, 2)),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            # two identical Khatri-Rao columns of squared norm 4
            np.full((2, 2), 4.0),
        ],
        ids=["zero", "indefinite", "repeated-column"],
    )
    def test_not_positive_definite_falls_back_to_lstsq(self, gram):
        # ridge 0 is least squares whatever the Gram
        rhs = np.random.default_rng(1).standard_normal((3, 2))
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(gram)
        want = np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T
        assert np.array_equal(_solve_right(gram.copy(), rhs, 0.0), want)

    def test_ridge_below_rounding_is_least_squares(self):
        # 4 + 1e-17 rounds to 4: the ridged Gram is still the singular
        # repeated-column one, which has no inverse
        gram = np.full((2, 2), 4.0)
        rhs = np.random.default_rng(1).standard_normal((3, 2))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(gram)
        want = np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T
        got = _solve_right(gram.copy(), rhs, 1e-17)
        assert np.array_equal(got, want)
        assert np.all(np.isfinite(got))

    def test_writes_the_ridged_gram(self):
        gram = np.array([[2.0, 1.0], [1.0, 3.0]])
        _solve_right(gram, np.ones((3, 2)), 0.5)
        assert np.array_equal(gram, [[2.5, 1.0], [1.0, 3.5]])

    def test_als_repeated_column_without_ridge_is_least_squares(self):
        # lam_x = 0 and two identical components: KR^T KR = [[4, 4], [4, 4]]
        # is singular, and the mode-0 update is the least-squares solution
        data = np.random.default_rng(2).standard_normal((2, 2, 2))
        factors = [np.ones((2, 2)) for _ in range(3)]
        kr = khatri_rao(factors, skip=0)
        rhs = unfold(data, 0) @ kr
        want = np.linalg.lstsq((kr.T @ kr).T, rhs.T, rcond=None)[0].T
        _sweep(data, np.zeros(data.shape), factors, {}, {}, [(1.0 / 3.0, 2.0)] * 3, 0.0, 10.0)
        assert np.array_equal(factors[0], want)
        assert all(np.all(np.isfinite(f)) for f in factors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["gram", "rhs"])
    def test_non_finite_input_raises(self, bad, where):
        gram, rhs = 2.0 * np.eye(2), np.ones((3, 2))
        (gram if where == "gram" else rhs)[1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_right(gram, rhs, 1.0)

    @pytest.mark.parametrize("where", ["gram", "rhs"])
    def test_non_finite_input_is_a_numeric_failure(self, where):
        gram, rhs = 2.0 * np.eye(2), np.ones((3, 2))
        (gram if where == "gram" else rhs)[0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs") as info:
            _solve_right(gram, rhs, 1.0)
        assert type(info.value) is np.linalg.LinAlgError

    def test_empty_system(self):
        for ridge in (0.0, 1.0):
            assert _solve_right(np.zeros((0, 0)), np.zeros((3, 0)), ridge).shape == (3, 0)


def test_sparse_update_matches_grid_oracle():
    # the elementwise threshold is the exact minimizer of each entry's
    # 0.5*(e - v)^2 + lam*|e| problem
    rng = np.random.default_rng(5)
    vs = rng.standard_normal(100) * 2.0
    lam = 0.37
    out = soft_threshold_elem(vs, lam)
    for v, got in zip(vs, out):
        star = grid_minimize(
            lambda e: 0.5 * (e - v) ** 2 + lam * np.abs(e),
            min(0.0, v) - 0.1,
            max(0.0, v) + 0.1,
        )
        assert abs(got - star) < 1e-6


class TestAdmmSolve:
    def test_clean_input_exact_fit(self):
        # with lam_x=0 the splitting reduces to mu-damped alternating least
        # squares; mu=1 keeps the spurious second component's decay fast
        data = clean_rank_one((10, 10, 10), 6)
        cfg = TrpcaConfig(k_init=2, lam_x=0.0, lam_e=1e6, spec=SYM_E1, mu=1.0, t_max=200)
        rep, sparse = trpca_admm_solve(data, cfg)
        assert not sparse.any()
        err = np.linalg.norm(rep.recovered - data) / np.linalg.norm(data)
        assert err < 1e-4

    def test_first_dual_step_bit_exact(self):
        data, factors, sparse, aux, _ = random_instance((4, 4, 4), 2, 7)
        duals = [np.zeros_like(f) for f in factors]
        mu = 10.0
        _admm_sweep(data, sparse, factors, aux, duals, 0.3, mu)
        for j in range(3):
            assert np.array_equal(duals[j], mu * (aux[j] - factors[j]))

    def test_primal_residual_shrinks(self):
        rng = np.random.default_rng(8)
        f = [rng.standard_normal((8, 2)) for _ in range(3)]
        data = cp_reconstruct(f)
        factors = [rng.standard_normal((8, 2)) for _ in range(3)]
        factors = [m / np.linalg.norm(m, axis=0) for m in factors]
        aux = [m.copy() for m in factors]
        duals = [np.zeros_like(m) for m in factors]
        sparse = np.zeros(data.shape)
        for _ in range(300):
            fit = _admm_sweep(data, sparse, factors, aux, duals, 0.05, 10.0)
            sparse = soft_threshold_elem(fit, 0.5)
        primal = max(np.linalg.norm(aux[j] - factors[j]) for j in range(3))
        assert primal < 1e-4

    def test_sparse_corruption_separated(self):
        rng = np.random.default_rng(9)
        low = clean_rank_one((12, 12, 12), 9)
        support = rng.random(low.shape) < 0.1
        corruption = 3.0 * np.std(low) * rng.standard_normal(low.shape) * support
        data = low + corruption
        cfg = TrpcaConfig(k_init=4, lam_x=0.1, lam_e=0.15, spec=SYM_E1, t_max=150)
        rep, sparse = trpca_admm_solve(data, cfg)
        err = np.linalg.norm(rep.recovered - low) / np.linalg.norm(low)
        cfg0 = TrpcaConfig(k_init=4, lam_x=0.1, lam_e=0.0, spec=SYM_E1, t_max=150)
        rep0, _ = trpca_admm_solve(data, cfg0)
        err0 = np.linalg.norm(rep0.recovered - low) / np.linalg.norm(low)
        assert err < err0

    def test_prunes_columns_under_heavy_penalty(self):
        data = clean_rank_one((8, 8, 8), 10)
        cfg = TrpcaConfig(k_init=5, lam_x=50.0, lam_e=0.3, spec=SYM_E1, t_max=60)
        rep, _ = trpca_admm_solve(data, cfg)
        assert rep.final_rank < 5
        assert len({m.shape[1] for m in rep.factors}) == 1

    def test_rejects_wrong_spec(self):
        cfg = TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=SYM_E2)
        with pytest.raises(ValueError):
            trpca_admm_solve(np.zeros((3, 3, 3)), cfg)

    def test_does_not_mutate_input(self):
        data = clean_rank_one((6, 6, 6), 11)
        held = data.copy()
        cfg = TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.2, spec=SYM_E1, t_max=20)
        rep, sparse = trpca_admm_solve(data, cfg)
        assert np.array_equal(data, held)
        assert np.allclose(rep.recovered + sparse + (data - rep.recovered - sparse), data)

    def test_deterministic(self):
        data = clean_rank_one((6, 6, 6), 12) + 0.05 * np.random.default_rng(12).standard_normal((6, 6, 6))
        cfg = TrpcaConfig(k_init=3, lam_x=0.2, lam_e=0.3, spec=SYM_E1, t_max=40)
        a, ea = trpca_admm_solve(data, cfg)
        b, eb = trpca_admm_solve(data, cfg)
        assert np.array_equal(a.recovered, b.recovered)
        assert np.array_equal(ea, eb)
        assert a.objective_trace == b.objective_trace


class TestAsymSolve:
    def test_unregularized_exact_fit(self):
        data = clean_rank_one((10, 10, 10), 13)
        cfg = TrpcaConfig(k_init=2, lam_x=0.0, lam_e=1e6, q=0.5, solver="asym", t_max=200)
        rep, sparse = trpca_asym_solve(data, cfg)
        assert not sparse.any()
        err = np.linalg.norm(rep.recovered - data) / np.linalg.norm(data)
        assert err < 1e-4

    def test_huge_ridge_flattens_late_modes(self):
        data, factors, sparse, aux, duals = random_instance((4, 4, 4), 2, 14)
        terms = [(2.0, 0.5), (0.5, 2.0), (0.5, 2.0)]
        _sweep(data, np.zeros(data.shape), factors, {0: aux[0]}, {0: duals[0]}, terms, 1e12, 10.0)
        assert np.linalg.norm(factors[1]) < 1e-9
        assert np.linalg.norm(factors[2]) < 1e-9

    def test_penalty_tracks_regularizer_family(self):
        # the solver's mode-0 power-q plus ridge structure is, up to the
        # constant p2, exactly the asym_b regularizer value
        rng = np.random.default_rng(15)
        q = 0.5
        spec = RegularizerSpec("asym_b", 3, q=q)
        f = [rng.standard_normal((n, 3)) for n in (3, 4, 5)]
        norms0 = np.linalg.norm(f[0], axis=0)
        manual = float(np.sum(norms0**q)) / q + 0.5 * sum(
            float(np.sum(np.linalg.norm(m, axis=0) ** 2)) for m in f[1:]
        )
        assert reg_value(f, spec) == pytest.approx(spec.effective_p * manual, rel=1e-12)

    def test_rejects_bad_q(self):
        for q in (0.0, 1.0, 2.0, -0.5, np.nan):
            with pytest.raises(ValueError, match=r"q must be in \(0, 1\)"):
                TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, q=q, solver="asym")

    def test_rejects_q_that_differs_from_the_spec(self):
        spec = RegularizerSpec("asym_b", 3, q=0.5)
        with pytest.raises(ValueError, match="differs from the q of regularizer asym_b:q=0.5"):
            TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=spec, q=2.0 / 7.0, solver="asym")
        # q snaps to 2/m as the spec's does, whether or not a spec is given
        for given in (spec, None):
            with pytest.raises(ValueError, match="q=0.3 is not of the form 2.0/m"):
                TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=given, q=0.3, solver="asym")
        assert TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, q=0.5000001).q == 0.5
        cfg = TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=spec, q=0.5, solver="asym")
        assert cfg.q == spec.q

    def test_q_taken_from_spec(self):
        data = clean_rank_one((6, 6, 6), 16)
        spec = RegularizerSpec("asym_b", 3, q=0.5)
        cfg = TrpcaConfig(k_init=2, lam_x=0.01, lam_e=1.0, spec=spec, solver="asym", t_max=30)
        rep, _ = trpca_asym_solve(data, cfg)
        assert rep.objective_trace

    def test_deterministic(self):
        data = clean_rank_one((6, 6, 6), 17)
        cfg = TrpcaConfig(k_init=2, lam_x=0.05, lam_e=0.5, q=0.5, solver="asym", t_max=30)
        a, ea = trpca_asym_solve(data, cfg)
        b, eb = trpca_asym_solve(data, cfg)
        assert np.array_equal(a.recovered, b.recovered)
        assert np.array_equal(ea, eb)


class TestAlsSolve:
    def test_block_updates_are_stationary(self):
        # re-derive each ridge update and plug it into the block gradient
        data, factors, sparse, _, _ = random_instance((4, 5, 6), 3, 18)
        lam_x = 0.4
        d = 3
        for j in range(d):
            kr = khatri_rao(factors, skip=j)
            gram = kr.T @ kr + (2.0 * lam_x / d) * np.eye(3)
            x = np.linalg.solve(gram.T, (unfold(data - sparse, j) @ kr).T).T
            grad = -(unfold(data - sparse, j) - x @ kr.T) @ kr + (2.0 * lam_x / d) * x
            assert np.linalg.norm(grad) < 1e-8
            factors[j] = x

    def test_unregularized_exact_fit(self):
        data = clean_rank_one((10, 10, 10), 19)
        cfg = TrpcaConfig(k_init=2, lam_x=0.0, lam_e=1e6, spec=SYM_E2, solver="als", t_max=200)
        rep, sparse = trpca_als_solve(data, cfg)
        assert not sparse.any()
        err = np.linalg.norm(rep.recovered - data) / np.linalg.norm(data)
        assert err < 1e-4

    def test_objective_monotone_on_random_instances(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((4, 5, 6))
            cfg = TrpcaConfig(
                k_init=3,
                lam_x=float(rng.uniform(0.0, 1.0)),
                lam_e=float(rng.uniform(0.05, 0.8)),
                spec=SYM_E2,
                solver="als",
                t_max=15,
                rng_seed=seed,
            )
            rep, _ = trpca_als_solve(data, cfg)
            assert np.all(np.diff(rep.objective_trace) <= 1e-10)

    def test_c4_cell_ends_alike_for_one_ulp_nudges(self):
        # the gate's c4 als cell: without a ridge its Grams turn singular,
        # and every block solve is least squares. Nudging each entry of the
        # data by one ulp either way must not change how the solve ends.
        rng = np.random.default_rng(44)
        truth = cp_reconstruct([rng.standard_normal((10, 1)) for _ in range(3)])
        cfg = TrpcaConfig(k_init=2, lam_x=0.0, lam_e=1e6, spec=SYM_E2, t_max=200, rng_seed=6)
        ends = set()
        for data in (truth, np.nextafter(truth, np.inf), np.nextafter(truth, -np.inf)):
            rep, _ = trpca_als_solve(data, cfg)
            ends.add((rep.iterations, rep.stop_reason))
        assert len(ends) == 1, ends

    def test_rejects_wrong_spec(self):
        with pytest.raises(ValueError):
            cfg = TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=SYM_E1, solver="als")
            trpca_als_solve(np.zeros((3, 3, 3)), cfg)


class TestDispatchAndConfig:
    def test_dispatch_routes(self):
        data = clean_rank_one((5, 5, 5), 20)
        for solver, kwargs in (
            ("admm", {"spec": SYM_E1}),
            ("asym", {"q": 0.5}),
            ("als", {"spec": SYM_E2}),
        ):
            cfg = TrpcaConfig(
                k_init=2, lam_x=0.05, lam_e=0.5, solver=solver, t_max=10, **kwargs
            )
            rep, sparse = trpca_solve(data, cfg)
            assert rep.recovered.shape == data.shape
            assert sparse.shape == data.shape

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrpcaConfig(k_init=0, lam_x=0.1, lam_e=0.1)
        with pytest.raises(ValueError):
            TrpcaConfig(k_init=2, lam_x=-0.1, lam_e=0.1)
        with pytest.raises(ValueError):
            TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, mu=0.0)
        with pytest.raises(ValueError):
            TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, solver="sgd")

    def test_config_derives_the_solver(self):
        # the pairing rule picks the solver a config leaves unnamed
        assert TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, q=0.5).solver == "asym"
        assert TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=SYM_E2).solver == "als"
        assert TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1).solver == "admm"

    @pytest.mark.parametrize("settings", [
        dict(solver="admm", q=0.5),
        dict(solver="als", q=0.5),
        dict(solver="asym", q=0.5, spec=SYM_E1),
        dict(solver="asym"),
        dict(spec=RegularizerSpec("table2", 3, variant="s12")),
    ])
    def test_config_rejects_settings_that_do_not_pair(self, settings):
        with pytest.raises(ValueError, match="solver"):
            TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, **settings)

    @pytest.mark.parametrize("solve, settings", [
        (trpca_admm_solve, dict(solver="als")),
        (trpca_admm_solve, dict(q=0.5)),
        (trpca_asym_solve, dict(solver="admm")),
        (trpca_asym_solve, dict(solver="als")),
        (trpca_als_solve, dict(solver="admm")),
        (trpca_als_solve, dict(q=0.5)),
    ])
    def test_solver_refuses_another_solvers_config(self, solve, settings):
        cfg = TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, t_max=1, **settings)
        with pytest.raises(ValueError, match=f"resolved for the {cfg.solver} solver"):
            solve(clean_rank_one((3, 3, 3), 24), cfg)

    @pytest.mark.parametrize("field", ["lam_x", "lam_e", "mu", "conv_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite_settings(self, field, value):
        kwargs = {"k_init": 2, "lam_x": 0.1, "lam_e": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrpcaConfig(**kwargs)

    def test_non_finite_data_rejected(self):
        cfg = TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, spec=SYM_E1)
        bad = np.zeros((3, 3, 3))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            trpca_admm_solve(bad, cfg)


def test_sparsity_summary():
    e = np.zeros((2, 2, 2))
    e[0, 0, 0] = 1.0
    e[1, 1, 1] = -0.5
    e[0, 1, 0] = 1e-15
    nnz, frac = sparsity_summary(e)
    assert nnz == 2
    assert frac == pytest.approx(0.25)


def _manual_first_iteration(solver, data, k, lam_x, lam_e, mu):
    """One sweep from init_factors, done by hand: (factors, sparse, fit,
    terms). The sweep returns the fit D - CP(F); the sparse term is its
    soft threshold. The sweep gets the data in the C order the solvers
    hold it in, so sums over it run in the same order."""
    data = trpca._check_data(data)
    factors = init_factors(data.shape, k, 0)
    sparse = np.zeros(data.shape)
    if solver == "admm":
        aux = [f.copy() for f in factors]
        duals = [np.zeros_like(f) for f in factors]
        fit = _admm_sweep(data, sparse, factors, aux, duals, lam_x, mu)
        terms = [(1.0, 1.0)] * 3
    elif solver == "asym":
        aux, duals = {0: factors[0].copy()}, {0: np.zeros_like(factors[0])}
        terms = [(2.0, 0.5), (0.5, 2.0), (0.5, 2.0)]
        fit = _sweep(data, sparse, factors, aux, duals, terms, lam_x, mu)
    else:
        terms = [(1.0 / 3.0, 2.0)] * 3
        fit = _sweep(data, sparse, factors, {}, {}, terms, lam_x, mu)
    return factors, soft_threshold_elem(fit, lam_e), fit, terms


SOLVER_ARGS = {"admm": {"spec": SYM_E1}, "asym": {"q": 0.5}, "als": {"spec": SYM_E2}}


@pytest.mark.parametrize("solver", ["admm", "asym", "als"])
def test_solver_first_iteration_matches_one_sweep(solver):
    # the shared driver adds nothing to a sweep: a one-iteration solve is
    # one manual sweep from the same start, bit for bit
    data = clean_rank_one((5, 5, 5), 21)
    cfg = TrpcaConfig(k_init=2, lam_x=0.3, lam_e=0.4, solver=solver, t_max=1, **SOLVER_ARGS[solver])
    rep, sparse = trpca_solve(data, cfg)
    factors, manual, fit, terms = _manual_first_iteration(solver, data, 2, 0.3, 0.4, cfg.mu)
    assert rep.final_rank == 2
    assert np.array_equal(sparse, manual)
    for got, want in zip(rep.factors, factors):
        assert np.array_equal(got, want)
    assert np.array_equal(fit, data - cp_reconstruct(factors))
    assert rep.objective_trace[1] == _objective(fit, factors, manual, terms, 0.3, 0.4)


@pytest.mark.parametrize(
    "solver, spec",
    [
        ("admm", SYM_E1),
        ("als", SYM_E2),
        ("asym", RegularizerSpec("asym_b", 3, q=0.5)),
        ("asym", RegularizerSpec("asym_b", 3, q=2.0 / 7.0)),
    ],
)
def test_objective_is_scaled_reg_value(solver, spec):
    # each solver's penalty is lam_x * s * reg_value(F, spec): s = d for
    # admm (sym:p=1/d), 1 for als (sym:p=2/d), 1/p_eff for asym (asym_b:q)
    scale = {"admm": 3.0, "als": 1.0, "asym": 1.0 / spec.effective_p}[solver]
    data = clean_rank_one((4, 5, 6), 22) + 0.1 * np.random.default_rng(22).standard_normal((4, 5, 6))
    lam_x = 0.7
    cfg = TrpcaConfig(k_init=3, lam_x=lam_x, lam_e=0.2, spec=spec, solver=solver, t_max=1)
    rep, _ = trpca_solve(data, cfg)
    f0 = init_factors(data.shape, 3, 0)
    res = data - cp_reconstruct(f0)
    want = 0.5 * float(np.sum(res * res)) + lam_x * scale * reg_value(f0, spec)
    assert rep.objective_trace[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "solver, arm, terms",
    [
        ("admm", {"reg": "sym:p=0.3333"}, [(1.0, 1.0)] * 3),
        ("asym", {"q": 0.5}, [(2.0, 0.5), (0.5, 2.0), (0.5, 2.0)]),
    ],
)
def test_objective_after_prune_uses_pruned_factors(solver, arm, terms):
    # the driver reuses the sweep's fit D - CP(F) for the objective; after
    # a prune the dropped factor columns are not zero, so the fit must be
    # formed again. On the c8 instance at lam_x = 5 the rank falls from 10
    # within the first three iterations; each t_max = t solve's last
    # objective must equal the objective recomputed from its own output.
    spec = harness.ExperimentSpec(solver=solver, **arm, **C8)
    _, data, _ = harness.gen_trpca_data(spec, 0)
    for t in range(1, 6):
        cfg = TrpcaConfig(k_init=10, lam_x=5.0, lam_e=0.1, spec=spec.reg, q=spec.q,
                          solver=solver, t_max=t)
        rep, sparse = trpca_solve(data, cfg)
        fit = data - cp_reconstruct(rep.factors)
        assert rep.objective_trace[-1] == _objective(fit, rep.factors, sparse, terms, 5.0, 0.1)
    assert rep.rank_trace[-1] < 10


@pytest.mark.parametrize("solver", ["admm", "asym", "als"])
def test_answers_do_not_depend_on_data_layout(solver):
    # file readers return Fortran-ordered arrays; the solvers must give the
    # same report, bit for bit, as on the C-ordered array in memory
    data = clean_rank_one((4, 5, 6), 23) + 0.1 * np.random.default_rng(23).standard_normal((4, 5, 6))
    cfg = TrpcaConfig(k_init=3, lam_x=0.3, lam_e=0.2, solver=solver, t_max=30, **SOLVER_ARGS[solver])
    want, want_sparse = trpca_solve(data, cfg)
    got, got_sparse = trpca_solve(np.asfortranarray(data), cfg)
    assert np.array_equal(got.recovered, want.recovered)
    assert np.array_equal(got_sparse, want_sparse)
    for g, w in zip(got.factors, want.factors):
        assert np.array_equal(g, w)
    assert got.objective_trace == want.objective_trace
    assert got.rank_trace == want.rank_trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    k=st.integers(0, 3),
    order=st.sampled_from("CF"),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_c_ordered_cp_residual(shape, k, order, seed):
    # the fit is formed as F_0 KR^T with the last mode fastest, so it comes
    # out C-ordered whatever the data's layout, and equals D - CP(F)
    rng = np.random.default_rng(seed)
    data = np.asarray(rng.standard_normal(shape), order=order)
    factors = [rng.standard_normal((n, k)) for n in shape]
    got = _fit(data, factors)
    want = data - cp_reconstruct(factors)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    k=st.integers(0, 3),
    zero_sparse=st.booleans(),
    lam_x=st.floats(0.0, 10.0),
    lam_e=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_is_the_three_sums(shape, k, zero_sparse, lam_x, lam_e, seed):
    rng = np.random.default_rng(seed)
    fit = rng.standard_normal(shape)
    sparse = np.zeros(shape) if zero_sparse else rng.standard_normal(shape) * (rng.random(shape) < 0.3)
    factors = [rng.standard_normal((n, k)) for n in shape]
    terms = [(float(rng.uniform(0.1, 3.0)), float(rng.choice([0.5, 1.0, 2.0]))) for _ in shape]
    res = fit - sparse
    pen = sum(c * np.sum(np.linalg.norm(f, axis=0) ** e) for f, (c, e) in zip(factors, terms))
    want = 0.5 * np.sum(res * res) + lam_x * pen + lam_e * np.sum(np.abs(sparse))
    got = _objective(fit, factors, sparse, terms, lam_x, lam_e)
    assert isinstance(got, float)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", [(10, 10, 10), (30, 30, 30)])
def test_objective_does_not_depend_on_buffer_alignment(shape):
    # with a zero residual and no factor penalty the objective is lam_e*||E||_1;
    # the same E at each of 8 element offsets into one buffer, so at every
    # 8-byte alignment modulo 64 bytes, must give one value
    rng = np.random.default_rng(31)
    sparse = rng.standard_normal(shape)
    factors = [rng.standard_normal((n, 3)) for n in shape]
    terms = [(1.0, 1.0)] * len(shape)
    buf = np.empty(sparse.size + 8)
    values = set()
    for off in range(8):
        placed = buf[off : off + sparse.size].reshape(shape)
        placed[...] = sparse
        values.add(_objective(placed, factors, placed, terms, 0.0, 0.7))
    assert len(values) == 1


def test_admm_sweep_is_public_x_updates():
    # the sweep forms D - E once for its d mode updates; each update must be
    # the public trpca_x_update's, bit for bit
    data, factors, sparse, aux, duals = random_instance((4, 5, 6), 3, 25)
    lam_x, mu = 0.4, 3.0
    want_f, want_y, want_z = list(factors), list(aux), list(duals)
    for j in range(3):
        want_f[j] = trpca_x_update(data, sparse, want_f, want_y[j], want_z[j], j, mu)
        want_y[j] = prox_group_soft(want_f[j] - want_z[j] / mu, lam_x / mu)
        want_z[j] = want_z[j] + mu * (want_y[j] - want_f[j])
    fit = _admm_sweep(data, sparse, factors, aux, duals, lam_x, mu)
    for got, want in zip((factors, aux, duals), (want_f, want_y, want_z)):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(fit, _fit(data, want_f))


@pytest.mark.parametrize(
    "terms",
    [
        [(1.0, 1.0)] * 3,
        [(1.0 / 0.5, 0.5), (0.5, 2.0), (0.5, 2.0)],
        [(1.0 / (2.0 / 7.0), 2.0 / 7.0), (0.5, 2.0), (0.5, 2.0)],
        [(1.0 / 3.0, 2.0)] * 3,
    ],
    ids=["admm", "asym-q=0.5", "asym-q=2/7", "als"],
)
def test_sweep_takes_each_mode_update_from_its_charged_term(terms):
    # _objective charges mode j lam_x * c * sum_i ||x_i||^e for the
    # solver's term (c, e). A split mode's auxiliary update is that
    # penalty's prox at step 1/mu: each column of Y points along
    # V = X - Z/mu and its norm minimizes the radial problem
    # 0.5*(r - ||v||)^2 + lam_x*c/mu * r^e over r >= 0. A mode with e = 2
    # takes the exact block minimizer: it zeroes the gradient of
    # 0.5*||T_(j) - X KR^T||^2 + lam_x*c*||X||^2 for T = D - E, with KR
    # formed from the other modes as the sweep held them (new before j,
    # old after j)
    data, factors, sparse, aux, duals = random_instance((4, 5, 6), 3, 18)
    lam_x, mu = 0.1, 2.0
    split = [j for j, (_, e) in enumerate(terms) if e != 2.0]
    aux, duals = {j: aux[j] for j in split}, {j: duals[j] for j in split}
    before, old_duals = list(factors), dict(duals)
    _sweep(data, sparse, factors, aux, duals, terms, lam_x, mu)
    for j, (c, e) in enumerate(terms):
        if j in split:
            v = factors[j] - old_duals[j] / mu
            for y_col, v_col in zip(aux[j].T, v.T):
                nv = float(np.linalg.norm(v_col))
                star = grid_minimize(lambda r: 0.5 * (r - nv) ** 2 + lam_x * c / mu * r**e,
                                     0.0, nv)
                ny = float(np.linalg.norm(y_col))
                assert abs(ny - star) < 1e-5, (j, ny, star, nv)
                np.testing.assert_allclose(y_col, ny / nv * v_col, rtol=0, atol=1e-12)
        else:
            kr = khatri_rao(factors[:j] + before[j:], skip=j)
            rhs = unfold(data - sparse, j) @ kr
            grad = factors[j] @ (kr.T @ kr) - rhs + 2.0 * lam_x * c * factors[j]
            assert np.linalg.norm(grad) <= 1e-10 * np.linalg.norm(rhs), j


def _change(new, old):
    return np.linalg.norm(new - old) / max(1.0, np.linalg.norm(old))


@pytest.mark.parametrize("solver", ["admm", "asym", "als"])
def test_stops_at_first_small_change(solver):
    # iteration t stops the solve when every factor and the sparse term
    # moved by less than conv_tol relative to iteration t - 1. Recompute
    # those changes from the t_max = t - 1 and t_max = t solves (t = 0 is
    # the start: init_factors and E = 0), then give each threshold that
    # separates two of them as conv_tol: the solve must stop at the first
    # t below it. Large spikes make ||E|| well above 1 and moving, so a
    # relative sparse change measured against the wrong iterate shows.
    shape, k, n = (5, 6, 7), 2, 25
    rng = np.random.default_rng(26)
    data = 3.0 * clean_rank_one(shape, 26) + 8.0 * rng.standard_normal(shape) * (rng.random(shape) < 0.15)
    base = dict(k_init=k, lam_x=0.05, lam_e=0.5, solver=solver, **SOLVER_ARGS[solver])
    states = [(init_factors(shape, k, 0), np.zeros(shape))]
    for t in range(1, n + 1):
        rep, sparse = trpca_solve(data, TrpcaConfig(t_max=t, conv_tol=0.0, **base))
        assert rep.iterations == t and rep.final_rank == k
        states.append((rep.factors, sparse))
    changes = [
        max(max(_change(f, p) for f, p in zip(new[0], old[0])), _change(new[1], old[1]))
        for old, new in zip(states, states[1:])
    ]
    levels = sorted(set(changes))
    assert len(levels) > 5
    for lo, hi in zip(levels, levels[1:]):
        tol = float(np.sqrt(lo * hi))
        first = next(t for t, c in enumerate(changes, 1) if c < tol)
        rep, sparse = trpca_solve(data, TrpcaConfig(t_max=n, conv_tol=tol, **base))
        assert (rep.iterations, rep.converged) == (first, True)
        assert np.array_equal(sparse, states[first][1])


@pytest.mark.parametrize("solver", ["admm", "asym", "als"])
def test_report_names_its_stop(solver):
    shape = (5, 6, 7)
    data = clean_rank_one(shape, 27)
    base = dict(k_init=2, lam_x=0.05, lam_e=0.5, solver=solver, **SOLVER_ARGS[solver])
    rep, _ = trpca_solve(data, TrpcaConfig(t_max=3, conv_tol=0.0, **base))
    assert (rep.iterations, rep.converged, rep.stop_reason) == (3, False, "t_max")
    assert rep.evaluations == 4
    rep, _ = trpca_solve(data, TrpcaConfig(t_max=500, conv_tol=1e-3, **base))
    assert rep.iterations < 500
    assert (rep.converged, rep.stop_reason) == (True, "tol")
    assert rep.evaluations == rep.iterations + 1 == len(rep.objective_trace)


def test_report_names_rank_zero():
    data = clean_rank_one((5, 6, 7), 28)
    cfg = TrpcaConfig(k_init=2, lam_x=1e6, lam_e=0.5, solver="admm", spec=SYM_E1, t_max=50)
    rep, _ = trpca_solve(data, cfg)
    assert (rep.final_rank, rep.converged, rep.stop_reason) == (0, True, "rank_zero")
