"""The benchmark's workloads.

Each workload has a ``setup(workdir, seed)`` that makes its inputs from the
seed (and writes input files where the workload reads files), and a
``cycle(state)`` that lists the operations of one complete round. An
operation is a pair of callables: ``run()`` is the timed call into
tensorenr, ``check(result)`` verifies the result apart from the program
and returns ``(solves, rel_error)``, raising ``CheckFailure`` if the
output is wrong.

Workload code looks tensorenr functions up through their modules at call
time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import require

SHAPE = (30, 30, 30)
RANK = 5
K_INIT = 10
NOISE = 0.1


@dataclass
class Operation:
    label: str
    run: Callable
    check: Callable


def instance_seeds(seed, count):
    """Data seeds of one run: `count` consecutive seeds owned by `seed`."""
    return tuple(count * seed + i for i in range(count))


def _quiet(fn, *args):
    """Call fn with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class LrtcSweep:
    """One operation is one tuning study: a BCDE arm and an L-BFGS arm over
    the same λ grid (with λ = 0) on one data seed, each run through
    ``harness.run_experiment``. A round is `studies` studies on distinct
    seeds, because a study's cost depends on its data."""

    name = "lrtc_sweep"
    studies = 6
    lambdas = (0.0, 4.0, 8.0)
    solvers = ("bcde", "qn")

    def setup(self, workdir, seed):
        from tensorenr import harness

        return [
            [
                harness.ExperimentSpec(
                    task="lrtc", shape=SHAPE, true_rank=RANK, k_init=K_INIT,
                    noise_level=NOISE, missing_rate=0.7, reg="sym:p=0.3333",
                    solver=solver, seeds=(data_seed,), lambdas=self.lambdas,
                )
                for solver in self.solvers
            ]
            for data_seed in instance_seeds(seed, self.studies)
        ]

    def cycle(self, studies):
        from tensorenr import harness

        def check(csvs):
            tuned = [checks.check_sweep(text, 1, self.lambdas, RANK, NOISE) for text in csvs]
            return len(csvs) * len(self.lambdas), float(np.mean(tuned))

        return [
            Operation("study", lambda specs=specs: [harness.run_experiment(s) for s in specs], check)
            for specs in studies
        ]


class TrpcaDesk:
    """Direct ``trpca_solve`` calls cycling through the admm, asym and als
    solvers on the acceptance gate's c8 instances."""

    name = "trpca_desk"
    instances = 2
    density = 0.1
    lam = 0.1

    def setup(self, workdir, seed):
        from tensorenr import harness
        from tensorenr.regularizers import RegularizerSpec
        from tensorenr.trpca import TrpcaConfig

        spec = harness.ExperimentSpec(
            task="trpca", shape=SHAPE, true_rank=RANK, k_init=K_INIT, noise_level=NOISE,
            sparse_density=self.density, weights_mode="linear",
        )
        arms = (
            ("admm", dict(spec=RegularizerSpec.parse("sym:p=0.3333", len(SHAPE)))),
            ("asym", dict(q=0.5)),
            ("als", {}),
        )
        state = []
        for data_seed in instance_seeds(seed, self.instances):
            truth, data, _ = harness.gen_trpca_data(spec, data_seed)
            for solver, extra in arms:
                cfg = TrpcaConfig(k_init=K_INIT, lam_x=self.lam, lam_e=self.lam,
                                  solver=solver, rng_seed=data_seed, **extra)
                state.append((truth, data, cfg))
        return state

    def cycle(self, state):
        from tensorenr import trpca

        ops = []
        for truth, data, cfg in state:
            corrupted_err = checks.relative_error(truth, data)

            def check(result, truth=truth, cfg=cfg, corrupted_err=corrupted_err):
                report, _ = result
                checks.check_reconstruction(report.recovered, report.factors)
                err = checks.relative_error(truth, report.recovered)
                require(err < NOISE, f"{cfg.solver}: error {err} not below noise {NOISE}")
                require(err < 0.5 * corrupted_err,
                        f"{cfg.solver}: error {err} not below half of {corrupted_err}")
                if cfg.solver == "als":
                    checks.check_non_increasing(report.objective_trace, rel_tol=1e-12)
                return 1, err

            ops.append(Operation(cfg.solver, lambda data=data, cfg=cfg: trpca.trpca_solve(data, cfg),
                                 check))
        return ops


class LrtcLarge:
    """One operation is the in-process ``tensorenr lrtc`` command on a
    100x100x100 instance read from .tnsr/.msk files, with a fixed sweep
    budget."""

    name = "lrtc_large"
    instances = 4
    sweeps = 100
    lam = 8.0

    def setup(self, workdir, seed):
        from tensorenr import cli

        state = []
        for data_seed in instance_seeds(seed, self.instances):
            prefix = str(Path(workdir) / f"in{data_seed}")
            rc = _quiet(cli.main, [
                "gen", "--task", "lrtc", "--shape", "100x100x100", "--rank", str(RANK),
                "--noise", str(NOISE), "--missing-rate", "0.9", "--seed", str(data_seed),
                "--out", prefix,
            ])
            if rc != 0:
                raise RuntimeError(f"tensorenr gen exited with {rc}")
            dims, observed = checks.read_msk(f"{prefix}_mask.msk")
            state.append(dict(
                prefix=prefix,
                seed=data_seed,
                truth=checks.read_tnsr(f"{prefix}_truth.tnsr"),
                unobserved=checks.unobserved_offsets(dims, observed),
            ))
        return state

    def cycle(self, state):
        from tensorenr import cli

        ops = []
        for inst in state:
            prefix = inst["prefix"]
            argv = [
                "lrtc", "--data", f"{prefix}_data.tnsr", "--mask", f"{prefix}_mask.msk",
                "--k", str(K_INIT), "--lambda", str(self.lam), "--reg", "sym:p=0.3333",
                "--tmax", str(self.sweeps), "--seed", str(inst["seed"]), "--out", f"{prefix}_est",
            ]

            def check(rc, inst=inst, prefix=prefix):
                require(rc == 0, f"tensorenr lrtc exited with {rc}")
                estimate = checks.read_tnsr(f"{prefix}_est.tnsr")
                err = checks.relative_error(inst["truth"], estimate, inst["unobserved"])
                require(err < NOISE, f"unobserved-entry error {err} not below noise {NOISE}")
                trace = Path(f"{prefix}_est_trace.csv").read_text()
                checks.check_non_increasing(checks.trace_csv_objectives(trace))
                return 1, err

            ops.append(Operation("lrtc", lambda argv=argv: _quiet(cli.main, argv), check))
        return ops


WORKLOADS = {w.name: w for w in (LrtcSweep(), TrpcaDesk(), LrtcLarge())}
