import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from tensorenr.harness import (
    ExperimentSpec,
    NumericFailure,
    _component_weights,
    _solver_seed,
    best_lambda,
    gen_lrtc_data,
    gen_trpca_data,
    lambda_grid,
    psnr,
    relative_error,
    run_experiment,
    run_single,
)


class TestRelativeError:
    def test_exact_match(self):
        t = np.ones((3, 3, 3))
        assert relative_error(t, t) == 0.0

    def test_zero_estimate(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((4, 4))
        assert relative_error(t, np.zeros_like(t)) == pytest.approx(1.0)

    def test_hand_example_on_masked_entries(self):
        from tensorenr.core import ObservationMask

        truth = np.zeros((2, 2))
        est = np.zeros((2, 2))
        truth[0, 0], truth[1, 1] = 3.0, 4.0
        est[0, 0], est[1, 1] = 0.0, 4.0
        lin = np.sort(
            np.array(
                [
                    np.ravel_multi_index((0, 0), (2, 2), order="F"),
                    np.ravel_multi_index((1, 1), (2, 2), order="F"),
                ],
                dtype=np.int64,
            )
        )
        mask = ObservationMask((2, 2), lin)
        assert relative_error(truth, est, mask) == pytest.approx(0.6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 5))
        e = rng.standard_normal((3, 4, 5))
        base = relative_error(t, e)
        assert abs(relative_error(2.7 * t, 2.7 * e) - base) <= 1e-14

    def test_zero_reference_flagged(self):
        with pytest.raises(NumericFailure):
            relative_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPsnr:
    def test_unit_mse(self):
        t = np.zeros((2, 2))
        e = np.ones((2, 2))
        assert psnr(t, e) == pytest.approx(0.0, abs=1e-12)

    def test_twenty_db(self):
        t = np.zeros((10, 10))
        e = np.full((10, 10), 0.1)
        assert psnr(t, e) == pytest.approx(20.0, rel=1e-12)

    def test_exact_match_is_infinite(self):
        t = np.ones((3, 3))
        assert psnr(t, t) == np.inf

    def test_peak_scaling(self):
        t = np.zeros((4, 4))
        e = np.ones((4, 4))
        assert psnr(t, e, peak=2.0) == pytest.approx(10.0 * np.log10(4.0))


def test_lambda_grid_shape():
    g = lambda_grid()
    assert g.size == 20
    assert g[0] == pytest.approx(0.01)
    assert g[-1] == pytest.approx(500.0)
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, ratios[0])


class TestGenLrtc:
    def make_spec(self, **kw):
        base = dict(task="lrtc", shape=(8, 8, 8), true_rank=2, missing_rate=0.4)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_no_noise_is_exact(self):
        spec = self.make_spec(noise_level=0.0)
        truth, data, _ = gen_lrtc_data(spec, seed=0)
        assert np.array_equal(truth, data)

    def test_mask_rate(self):
        spec = self.make_spec()
        _, _, mask = gen_lrtc_data(spec, seed=1)
        assert mask.count == round(0.6 * 512)

    def test_deterministic(self):
        spec = self.make_spec()
        a = gen_lrtc_data(spec, seed=5)
        b = gen_lrtc_data(spec, seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2].linear_indices, b[2].linear_indices)

    def test_noise_std_calibrated(self):
        spec = ExperimentSpec(task="lrtc", shape=(50, 50, 50), true_rank=5)
        for seed in range(10):
            truth, data, _ = gen_lrtc_data(spec, seed)
            target = 0.1 * float(np.std(truth))
            got = float(np.std(data - truth))
            assert abs(got - target) <= 0.02 * target


class TestGenTrpca:
    def make_spec(self, **kw):
        base = dict(task="trpca", shape=(10, 10, 10), true_rank=4, sparse_density=0.1)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_zero_density(self):
        spec = self.make_spec(sparse_density=0.0)
        truth, data, sparse = gen_trpca_data(spec, seed=0)
        assert not sparse.any()

    def test_sparse_count_exact(self):
        spec = self.make_spec()
        _, _, sparse = gen_trpca_data(spec, seed=2)
        assert int(np.sum(sparse != 0.0)) == 100

    def test_linear_weights(self):
        assert _component_weights("linear", 4).tolist() == [0.25, 0.5, 0.75, 1.0]
        assert _component_weights("unit", 3).tolist() == [1.0, 1.0, 1.0]

    def test_additive_vs_replace(self):
        add = self.make_spec(corruption="additive")
        rep = self.make_spec(corruption="replace")
        _, d_add, e_add = gen_trpca_data(add, seed=3)
        _, d_rep, e_rep = gen_trpca_data(rep, seed=3)
        assert not np.array_equal(d_add, d_rep)
        # both decompose as clean-noisy part plus recorded sparse term
        assert np.allclose(d_add - e_add, d_rep - e_rep)

    def test_deterministic(self):
        spec = self.make_spec()
        a = gen_trpca_data(spec, seed=7)
        b = gen_trpca_data(spec, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestExperimentSpec:
    def test_lrtc_defaults(self):
        spec = ExperimentSpec(task="lrtc", shape=(6, 6, 6), true_rank=3)
        assert spec.k_init == 6
        assert spec.solver == "bcde"
        assert spec.weights_mode == "unit"
        assert spec.reg.kind == "sym"
        assert spec.reg.p == pytest.approx(1.0 / 3.0)

    def test_trpca_defaults(self):
        spec = ExperimentSpec(task="trpca", shape=(6, 6, 6), true_rank=3)
        assert spec.solver == "admm"
        assert spec.weights_mode == "linear"
        assert spec.reg.p == pytest.approx(1.0 / 3.0)

    def test_als_default_reg(self):
        spec = ExperimentSpec(task="trpca", shape=(6, 6, 6), true_rank=3, solver="als")
        assert spec.reg.p == pytest.approx(2.0 / 3.0)

    def test_reg_from_text(self):
        spec = ExperimentSpec(
            task="lrtc", shape=(6, 6, 6), true_rank=3, reg="table2:s25"
        )
        assert spec.reg.variant == "s25"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(task="pca", shape=(4, 4, 4), true_rank=1)
        with pytest.raises(ValueError):
            ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=0)
        with pytest.raises(ValueError):
            ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=1, missing_rate=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=1, seeds=())
        with pytest.raises(ValueError):
            ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=1, solver="als")
        with pytest.raises(ValueError):
            ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=1, lambdas=(-1.0,))


def test_solver_seed_decorrelates_init():
    from tensorenr.lrtc import init_factors

    spec = ExperimentSpec(
        task="lrtc", shape=(6, 6, 6), true_rank=2, noise_level=0.0, missing_rate=0.0
    )
    truth, _, _ = gen_lrtc_data(spec, seed=0)
    init = init_factors((6, 6, 6), 2, _solver_seed(0))
    data_factors = [
        np.random.default_rng(0).standard_normal((6, 2)) for _ in range(1)
    ]
    assert not np.allclose(init[0], data_factors[0] / np.linalg.norm(data_factors[0], axis=0))
    assert _solver_seed(3) == _solver_seed(3)
    assert _solver_seed(3) != _solver_seed(4)


class TestRunSingle:
    def test_lrtc_recovers_clean_instance(self):
        spec = ExperimentSpec(
            task="lrtc",
            shape=(8, 8, 8),
            true_rank=1,
            k_init=2,
            noise_level=0.0,
            missing_rate=0.2,
            t_max=150,
        )
        metrics, iters = run_single(spec, seed=0, lam=0.0)
        assert metrics.relative_error < 1e-3
        assert metrics.final_rank <= 2
        assert iters >= 1

    def test_trpca_runs(self):
        spec = ExperimentSpec(
            task="trpca",
            shape=(8, 8, 8),
            true_rank=2,
            sparse_density=0.05,
            lambda_e=0.3,
            t_max=40,
        )
        metrics, _ = run_single(spec, seed=1, lam=0.1)
        assert metrics.relative_error >= 0.0
        assert np.isfinite(metrics.psnr)

    def test_timing_flag_zeroes_seconds(self):
        spec = ExperimentSpec(
            task="lrtc", shape=(5, 5, 5), true_rank=1, k_init=1, t_max=5
        )
        metrics, _ = run_single(spec, seed=0, lam=0.1, timing=False)
        assert metrics.wall_time == 0.0


class TestRunExperiment:
    def small_spec(self, **kw):
        base = dict(
            task="lrtc",
            shape=(5, 5, 5),
            true_rank=1,
            k_init=2,
            missing_rate=0.2,
            t_max=10,
            seeds=(0,),
            lambdas=(0.1,),
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def test_single_cell_cardinality(self):
        text = run_experiment(self.small_spec())
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("task,kind,seed,lambda")
        assert lines[1].split(",")[1] == "run"
        assert lines[2].split(",")[1] == "summary"

    def test_default_grid_used_when_lambdas_missing(self):
        spec = self.small_spec(lambdas=None)
        assert len(spec.lambda_values()) == 20

    def test_rerun_byte_identical(self):
        spec = self.small_spec(seeds=(0, 1), lambdas=(0.0, 0.5))
        a = run_experiment(spec, timing=False)
        b = run_experiment(spec, timing=False)
        assert a == b

    def test_writes_file(self, tmp_path):
        out = tmp_path / "report.csv"
        text = run_experiment(self.small_spec(), timing=False, out_path=out)
        assert out.read_text() == text

    def test_failures_recorded_not_raised(self, monkeypatch):
        import tensorenr.harness as hs

        real = hs.run_single

        def flaky(spec, seed, lam, timing=True):
            if seed == 1:
                raise ValueError("boom, with a comma")
            return real(spec, seed, lam, timing=timing)

        monkeypatch.setattr(hs, "run_single", flaky)
        spec = self.small_spec(seeds=(0, 1, 2))
        text = run_experiment(spec, timing=False)
        lines = text.strip().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        run_rows = [r for r in rows if r[1] == "run"]
        assert len(run_rows) == 3
        failed = [r for r in run_rows if r[-1]]
        assert len(failed) == 1
        assert failed[0][-1].startswith("ValueError: boom")
        summary = [r for r in rows if r[1] == "summary"][0]
        assert summary[-1] == "1 failed"

    def test_all_failed_summary(self, monkeypatch):
        import tensorenr.harness as hs

        def boom(spec, seed, lam, timing=True):
            raise RuntimeError("nope")

        monkeypatch.setattr(hs, "run_single", boom)
        text = run_experiment(self.small_spec(seeds=(0, 1)), timing=False)
        summary = text.strip().splitlines()[-1].split(",")
        assert summary[1] == "summary"
        assert summary[-1] == "2 failed"

    def test_rows_in_grid_order_whatever_order_cells_finish(self, monkeypatch):
        import tensorenr.harness as hs

        real = hs.run_single
        spec = self.small_spec(seeds=(0, 1), lambdas=(0.0, 0.1, 0.5))
        first = (spec.lambdas[0], spec.seeds[0])

        def slow_first(spec, seed, lam, timing=True):
            if (lam, seed) == first:
                time.sleep(0.5)
            return real(spec, seed, lam, timing=timing)

        monkeypatch.setattr(hs, "run_single", slow_first)
        # Three workers on any machine, so the first cell finishes last.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        text = run_experiment(spec, timing=False)
        run_rows = [r.split(",") for r in text.splitlines()[1:] if r.split(",")[1] == "run"]
        grid = [(lam, seed) for lam in spec.lambdas for seed in spec.seeds]
        assert [(float(r[3]), int(r[2])) for r in run_rows] == grid
        for row, (lam, seed) in zip(run_rows, grid):
            metrics, iters = real(spec, seed, lam, timing=False)
            assert row[6] == "%.10g" % metrics.relative_error
            assert int(row[9]) == metrics.final_rank
            assert int(row[10]) == iters
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run_experiment(spec, timing=False) == text

    def test_dead_worker_gives_failure_rows(self, monkeypatch):
        import tensorenr.harness as hs

        real = hs.run_single
        caller = os.getpid()

        def dies(spec, seed, lam, timing=True):
            if seed == 1:
                # In the calling process, fail the test instead of ending it.
                if os.getpid() == caller:
                    raise AssertionError("cell ran in the calling process")
                os._exit(3)
            return real(spec, seed, lam, timing=timing)

        monkeypatch.setattr(hs, "run_single", dies)
        spec = self.small_spec(seeds=(0, 1, 2), lambdas=(0.1, 0.5))
        text = run_experiment(spec, timing=False)
        rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["run"] * 3 + ["summary"] + ["run"] * 3 + ["summary"]
        for block in (rows[:4], rows[4:]):
            assert block[1][2] == "1" and block[1][-1].startswith("BrokenProcessPool: ")
            failed = [r for r in block[:3] if r[-1]]
            assert all(r[-1].startswith("BrokenProcessPool: ") for r in failed)
            assert block[3][-1] == f"{len(failed)} failed"

    def test_cells_not_submitted_to_a_broken_pool_get_failure_rows(self, monkeypatch):
        import tensorenr.harness as hs

        class BreaksAfterTwo(ProcessPoolExecutor):
            submitted = 0

            def submit(self, *args, **kwargs):
                self.submitted += 1
                if self.submitted > 2:
                    raise BrokenProcessPool("pool broke")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(hs, "ProcessPoolExecutor", BreaksAfterTwo)
        text = run_experiment(self.small_spec(seeds=(0, 1, 2)), timing=False)
        rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
        assert [r[-1] for r in rows] == ["", "", "BrokenProcessPool: pool broke", "1 failed"]


class TestBestLambda:
    def test_picks_minimum_mean_error(self):
        spec = ExperimentSpec(
            task="lrtc",
            shape=(6, 6, 6),
            true_rank=1,
            k_init=2,
            noise_level=0.05,
            missing_rate=0.3,
            t_max=40,
            seeds=(0, 1),
            lambdas=(0.0, 0.05, 5000.0),
        )
        text = run_experiment(spec, timing=False)
        lam, err = best_lambda(text)
        assert lam in (0.0, 0.05, 5000.0)
        rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
        errs = {
            float(r[3]): float(r[6]) for r in rows if r[1] == "summary" and r[6]
        }
        assert err == min(errs.values())
        assert errs[lam] == err

    def test_raises_when_nothing_succeeded(self):
        header = "task,kind,seed,lambda,p_effective,rate,rel_error,rel_error_std,psnr,final_rank,iters,seconds,error"
        text = header + "\nlrtc,summary,,0.1,,,,,,,,,2 failed\n"
        with pytest.raises(NumericFailure):
            best_lambda(text)
