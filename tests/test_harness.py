import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from tensorenr.core import sample_mask
from tensorenr.harness import (
    ExperimentSpec,
    NumericFailure,
    _component_weights,
    _held_out,
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
from tensorenr.lrtc import LrtcConfig
from tensorenr.trpca import solver_for


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

    @pytest.mark.parametrize("settings, solver", [
        (dict(), "admm"),
        (dict(reg="sym:p=0.3333"), "admm"),
        (dict(reg="sym:p=0.6667"), "als"),
        (dict(reg="asym_b:q=0.5"), "asym"),
        (dict(q=0.5), "asym"),
        (dict(solver="asym", q=0.5), "asym"),
    ])
    def test_trpca_solver_follows_the_pairing_rule(self, settings, solver):
        # the sweep picks its robust-PCA solver as the trpca command does
        spec = ExperimentSpec(task="trpca", shape=(6, 6, 6), true_rank=3, **settings)
        assert spec.solver == solver
        assert solver_for(spec.reg, spec.q) == solver

    def test_solver_config_is_the_cell_config(self):
        spec = ExperimentSpec(task="trpca", shape=(6, 6, 6), true_rank=3, q=0.5, mu=4.0)
        cfg = spec.solver_config(0.25, 7)
        assert (cfg.lam_x, cfg.lam_e, cfg.q, cfg.solver, cfg.mu) == (0.25, 0.1, 0.5, "asym", 4.0)
        assert cfg.rng_seed == _solver_seed(7)
        defaults = ExperimentSpec(task="lrtc", shape=(6, 6, 6), true_rank=3).solver_config(1.0, 0)
        assert defaults == LrtcConfig(k_init=6, lam=1.0, spec=defaults.spec,
                                      rng_seed=_solver_seed(0))

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
        # the solver configs' own checks run when the spec is built
        for field, bad in (("t_max", dict(t_max=0)), ("rho", dict(rho=0.0)),
                           ("delta", dict(delta=1.0)), ("lam", dict(lambdas=(np.nan,)))):
            with pytest.raises(ValueError, match=field):
                ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=1, **bad)
        with pytest.raises(ValueError, match="mu"):
            ExperimentSpec(task="trpca", shape=(4, 4, 4), true_rank=1, mu=-1.0)
        # settings that pair with another robust-PCA solver than the named one
        for bad in (dict(solver="asym", q=0.5, reg="sym:p=0.3333"), dict(solver="admm", q=0.5),
                    dict(solver="asym"), dict(q=0.5, reg="sym:p=0.6667"),
                    dict(reg="table2:s12")):
            with pytest.raises(ValueError, match="solver"):
                ExperimentSpec(task="trpca", shape=(4, 4, 4), true_rank=1, **bad)


@pytest.mark.parametrize("task, name, value", [
    ("lrtc", "q", 0.5),
    ("lrtc", "mu", 5.0),
    ("lrtc", "lambda_e", 0.2),
    ("lrtc", "sparse_density", 0.1),
    ("lrtc", "corruption", "replace"),
    ("trpca", "rho", 2.0),
    ("trpca", "delta", 0.5),
    ("trpca", "missing_rate", 0.3),
])
def test_setting_the_task_does_not_read_is_refused(task, name, value):
    with pytest.raises(ValueError, match=f"task {task} does not read {name}"):
        ExperimentSpec(task=task, shape=(4, 4, 4), true_rank=1, **{name: value})
    # its default, spelled out, is accepted
    ExperimentSpec(task=task, shape=(4, 4, 4), true_rank=1,
                   **{name: ExperimentSpec.__dataclass_fields__[name].default})


def test_empty_lambda_grid_rejected():
    # an empty grid has no cell to run: refused before any pool starts
    with pytest.raises(ValueError, match="lambdas must be non-empty"):
        ExperimentSpec(task="lrtc", shape=(4, 4, 4), true_rank=1, lambdas=())


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


def test_held_out_entries():
    # the complement of the training mask, or every entry when it is full
    mask = sample_mask((4, 4, 4), 0.25, 3)
    held = _held_out(mask)
    assert held.count == 64 - mask.count
    assert not np.intersect1d(held.linear_indices, mask.linear_indices).size
    assert _held_out(sample_mask((4, 4, 4), 0.0, 3)) is None


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_initial_rank_does_not_matter(self, seed):
        # the paper's claim that the initial rank need not be tuned, on the
        # c5 desk instance at its tuned lambda: k_init 10, 20 and 40 each
        # prune to the true rank 5 with the same unobserved-entry error to
        # four digits
        ranks, errs = [], []
        for k_init in (10, 20, 40):
            spec = ExperimentSpec(task="lrtc", shape=(30, 30, 30), true_rank=5, k_init=k_init,
                                  noise_level=0.1, missing_rate=0.7, reg="sym:p=0.3333")
            metrics, _ = run_single(spec, seed=seed, lam=8.0, timing=False)
            ranks.append(metrics.final_rank)
            errs.append(metrics.relative_error)
        assert ranks == [5, 5, 5]
        assert max(errs) - min(errs) <= 1e-4 * min(errs), errs

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

    def test_asym_b_reg_runs_the_asym_solver(self):
        # reg=asym_b:q=0.5 pairs with asym: the same cells as q=0.5, with
        # the regularizer's effective power in the p_effective column
        base = dict(task="trpca", shape=(8, 8, 8), true_rank=2, sparse_density=0.1,
                    seeds=(0, 1), lambdas=(0.1,), t_max=30)
        by_reg = run_experiment(ExperimentSpec(reg="asym_b:q=0.5", **base), timing=False)
        by_q = run_experiment(ExperimentSpec(solver="asym", q=0.5, **base), timing=False)
        rows = [[line.split(",") for line in text.splitlines()[1:]] for text in (by_reg, by_q)]
        assert all(row[4] == "0.3333333333" for row in rows[0])
        for a, b in zip(*rows):
            assert (a[6], a[9], a[10]) == (b[6], b[9], b[10])
            assert a[6] != ""

    @pytest.mark.parametrize("q, p_eff", [(0.5, "0.3333333333"), (2.0 / 7.0, "0.2222222222"),
                                          (0.5000001, "0.3333333333")])
    def test_asym_by_q_reports_its_effective_power(self, q, p_eff):
        # an asym sweep selected by q alone charges asym_b's penalty for
        # that q snapped to 2/m, 2q / (2 + q(d - 1)), and reports its power
        spec = ExperimentSpec(task="trpca", shape=(6, 6, 6), true_rank=2, sparse_density=0.1,
                              q=q, lambdas=(0.1,), t_max=5)
        rows = [line.split(",") for line in run_experiment(spec, timing=False).splitlines()[1:]]
        assert [row[4] for row in rows] == [p_eff, p_eff]
        assert all(row[-1] == "" for row in rows)

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
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        text = run_experiment(spec, timing=False)
        run_rows = [r.split(",") for r in text.splitlines()[1:] if r.split(",")[1] == "run"]
        grid = [(lam, seed) for lam in spec.lambdas for seed in spec.seeds]
        assert [(float(r[3]), int(r[2])) for r in run_rows] == grid
        for row, (lam, seed) in zip(run_rows, grid):
            metrics, iters = real(spec, seed, lam, timing=False)
            assert row[6] == "%.10g" % metrics.relative_error
            assert int(row[9]) == metrics.final_rank
            assert int(row[10]) == iters
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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

    @pytest.mark.parametrize("cells, threads", [(1, 4), (2, 2), (3, 1), (4, 1)])
    def test_pool_workers_share_the_cpus(self, monkeypatch, cells, threads):
        # each of min(cpus, cells) workers takes its share of 4 CPUs for the
        # completion kernel's threads; a cell reports its worker's share
        import tensorenr.harness as hs
        from tensorenr import lrtc

        def report(spec, seed, lam, timing=True):
            raise RuntimeError(f"cpus={lrtc._cpus()}")

        monkeypatch.setattr(hs, "run_single", report)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        text = run_experiment(self.small_spec(seeds=tuple(range(cells))), timing=False)
        rows = [ln.split(",") for ln in text.strip().splitlines()[1:-1]]
        assert [r[-1] for r in rows] == [f"RuntimeError: cpus={threads}"] * cells
        assert lrtc._cpus() == 4

    def test_pool_size_follows_the_affinity_mask(self, monkeypatch):
        # a mask narrower than the machine: the pool starts one worker per
        # CPU the process may run on, not per CPU of the machine
        import tensorenr.harness as hs

        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                sizes.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(hs, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(self.small_spec(seeds=(0, 1, 2, 3)), timing=False)
        assert sizes == [2]


# Runs in a child interpreter with the thread count as its argument: cuts
# a small tensor's unfoldings into enough column blocks for a split, runs
# one solve and keeps a kernel whose block calls started a helper thread
# (above one thread) alive in this process, then runs a sweep of split
# solves on forked workers and prints its CSV.
FORKED_SPLIT = r"""
import sys
import threading
from tensorenr import harness, lrtc

threads = int(sys.argv[1])
lrtc._BLOCK_BYTES = 64
lrtc._cpus = lambda: threads
spec = harness.ExperimentSpec(task="lrtc", shape=(6, 5, 4), true_rank=2, k_init=3,
                              missing_rate=0.3, t_max=20, seeds=(0, 1), lambdas=(0.0, 0.5))
harness.run_single(spec, 0, 0.5)
_, data, mask = harness.gen_lrtc_data(spec, 0)
kept = lrtc._MaskedLoss(data, mask)
kept.value(lrtc.init_factors(spec.shape, 3, 0))
assert (threading.active_count() > 1) == (threads > 1)
sys.stdout.write(harness.run_experiment(spec, timing=False))
"""


def _run_isolated(script, *args, timeout=120):
    """Output of `script` in a child interpreter; the child and every process
    it forked are killed if it has not finished within `timeout` seconds."""
    proc = subprocess.Popen([sys.executable, "-c", script, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"no answer within {timeout} s")
    assert proc.returncode == 0, err
    return out


def test_forked_workers_split_without_the_parent_threads():
    # a worker forked while the parent holds helper threads has none of
    # them; its solves must use threads of their own, not queue work for
    # threads that do not exist, and give the answers of one thread
    split = _run_isolated(FORKED_SPLIT, "2")
    assert split == _run_isolated(FORKED_SPLIT, "1")
    assert "Error" not in split and len(split.splitlines()) == 7


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
