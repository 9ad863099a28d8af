"""Which scipy modules a process loads, checked in fresh interpreters:
this test process has scipy loaded already (test_core and test_trpca
import it). Robust PCA and the gen, eval and trpca commands run on numpy
alone; only the completion kernel loads ``scipy.sparse``, and no stage
loads ``scipy.linalg``."""

import json
import subprocess
import sys

import pytest

# Runs in a child interpreter as ``SCRIPT CHILD WORKDIR`` and prints, as
# JSON, which scipy modules are loaded after each stage of CHILD. Every
# sweep cell also checks, inside its forked worker before solving, that
# the worker starts with the modules the task needs and no others.
SCRIPT = r"""
import json
import sys

def loaded():
    return {name: name in sys.modules for name in ("scipy", "scipy.sparse", "scipy.linalg")}

import tensorenr
from tensorenr import cli, harness

child, work = sys.argv[1], sys.argv[2]
stages = {"import tensorenr": loaded()}

def run(*argv):
    assert cli.main(list(argv)) == 0, argv

def checked_sweep(task, **extra):
    run_single = harness.run_single

    def checked_run_single(spec, seed, lam, timing=True):
        want = {"scipy": task == "lrtc", "scipy.sparse": task == "lrtc", "scipy.linalg": False}
        if loaded() != want:
            raise RuntimeError(f"a {task} worker starts with {loaded()}")
        return run_single(spec, seed, lam, timing)

    harness.run_single = checked_run_single
    small = dict(shape=(5, 5, 5), true_rank=1, seeds=(0, 1), lambdas=(0.0, 0.5), t_max=5)
    csv = harness.run_experiment(harness.ExperimentSpec(task=task, **small, **extra),
                                 timing=False)
    assert "Error" not in csv, csv
    harness.run_single = run_single

if child == "commands":
    lrtc, rob = work + "/toy", work + "/rob"
    run("gen", "--task", "lrtc", "--shape", "6x6x6", "--rank", "1", "--missing-rate", "0.3",
        "--out", lrtc)
    run("gen", "--task", "trpca", "--shape", "6x6x6", "--rank", "1", "--out", rob)
    stages["gen command"] = loaded()
    run("eval", "--truth", lrtc + "_truth.tnsr", "--estimate", lrtc + "_data.tnsr",
        "--mask", lrtc + "_mask.msk")
    stages["eval command"] = loaded()
    for solver_args in ((), ("--q", "0.5"), ("--reg", "sym:p=0.6667")):
        run("trpca", "--data", rob + "_data.tnsr", "--k", "2", "--lambda-x", "0.1",
            "--lambda-e", "0.1", "--tmax", "5", "--out", rob + "_est", *solver_args)
    stages["trpca command"] = loaded()
    run("lrtc", "--data", lrtc + "_data.tnsr", "--mask", lrtc + "_mask.msk", "--k", "2",
        "--lambda", "0.1", "--tmax", "5", "--out", lrtc + "_est")
    stages["lrtc command"] = loaded()
elif child == "robust PCA":
    checked_sweep("trpca", sparse_density=0.1)
    checked_sweep("trpca", sparse_density=0.1, q=0.5)
    checked_sweep("trpca", sparse_density=0.1, reg="sym:p=0.6667")
    stages["robust-PCA run_experiment"] = loaded()
else:
    checked_sweep("lrtc")
    stages["completion run_experiment"] = loaded()
print(json.dumps(stages))
"""

NONE = {"scipy": False, "scipy.sparse": False, "scipy.linalg": False}
SPARSE = {"scipy": True, "scipy.sparse": True, "scipy.linalg": False}


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Each child's stages, each child in its own fresh interpreter."""
    work = tmp_path_factory.mktemp("imports")
    out = {}
    for child in ("commands", "robust PCA", "completion sweep"):
        proc = subprocess.run([sys.executable, "-c", SCRIPT, child, str(work)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[child] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("child, stage", [
    ("commands", "import tensorenr"),
    ("commands", "gen command"),
    ("commands", "eval command"),
    ("commands", "trpca command"),
    ("robust PCA", "import tensorenr"),
    ("robust PCA", "robust-PCA run_experiment"),
])
def test_numpy_alone(stages, child, stage):
    assert stages[child][stage] == NONE


def test_lrtc_command_loads_scipy_sparse(stages):
    assert stages["commands"]["lrtc command"] == SPARSE


def test_completion_sweep_loads_scipy_sparse_before_forking(stages):
    # the workers' own check fails a cell if they start without it
    assert stages["completion sweep"]["import tensorenr"] == NONE
    assert stages["completion sweep"]["completion run_experiment"] == SPARSE
