"""Which heavy modules a process loads, checked in fresh interpreters:
this test process has scipy.linalg loaded already (test_core and
test_trpca import it)."""

import json
import subprocess
import sys

import pytest

# Runs in a child interpreter with the work directory as its argument and
# prints, after each stage, whether scipy.linalg is loaded. Every sweep
# cell also checks, inside its forked worker before solving, that the
# module is loaded there exactly when the task is robust PCA.
SCRIPT = r"""
import json
import sys

def loaded():
    return "scipy.linalg" in sys.modules

import tensorenr
from tensorenr import cli, harness

stages = {"import tensorenr": loaded()}
prefix = sys.argv[1] + "/toy"
for argv in (
    ["gen", "--task", "lrtc", "--shape", "6x6x6", "--rank", "1", "--missing-rate", "0.3",
     "--out", prefix],
    ["lrtc", "--data", prefix + "_data.tnsr", "--mask", prefix + "_mask.msk", "--k", "2",
     "--lambda", "0.1", "--tmax", "5", "--out", prefix + "_est"],
    ["eval", "--truth", prefix + "_truth.tnsr", "--estimate", prefix + "_est.tnsr",
     "--mask", prefix + "_mask.msk"],
):
    assert cli.main(argv) == 0, argv
stages["gen, lrtc and eval commands"] = loaded()

run_single = harness.run_single

def checked_run_single(spec, seed, lam, timing=True):
    if loaded() != (spec.task == "trpca"):
        raise RuntimeError(f"scipy.linalg loaded={loaded()} in a {spec.task} worker")
    return run_single(spec, seed, lam, timing)

harness.run_single = checked_run_single
small = dict(shape=(5, 5, 5), true_rank=1, seeds=(0, 1), lambdas=(0.0, 0.5), t_max=5)
csv = harness.run_experiment(harness.ExperimentSpec(task="lrtc", **small), timing=False)
assert "Error" not in csv, csv
stages["completion run_experiment"] = loaded()
csv = harness.run_experiment(
    harness.ExperimentSpec(task="trpca", sparse_density=0.1, **small), timing=False
)
assert "Error" not in csv, csv
stages["robust-PCA run_experiment"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(work)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "stage", ["import tensorenr", "gen, lrtc and eval commands", "completion run_experiment"]
)
def test_completion_never_loads_scipy_linalg(stages, stage):
    assert stages[stage] is False


def test_robust_pca_loads_scipy_linalg_before_forking(stages):
    assert stages["robust-PCA run_experiment"] is True


def test_robust_pca_solve_loads_scipy_linalg():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from tensorenr.trpca import TrpcaConfig, trpca_solve\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "data = np.random.default_rng(0).standard_normal((4, 5, 6))\n"
        "trpca_solve(data, TrpcaConfig(k_init=2, lam_x=0.1, lam_e=0.1, t_max=3))\n"
        "print(before, 'scipy.linalg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
