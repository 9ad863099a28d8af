"""Tests for the benchmark's own pieces: the independent readers and
reconstruction agree with tensorenr on tiny cases, the checks reject bad
outputs, failed checks are counted, and tracing sees calls made inside
the package.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from checks import CheckFailure
from tracing import Tracer, layer_metrics, self_times
from workloads import Operation

import tensorenr
from tensorenr import harness, lrtc
from tensorenr.core import cp_reconstruct, sample_mask
from tensorenr.regularizers import RegularizerSpec
from tensorenr.tensorio import write_mask, write_tensor


def test_tnsr_reader_agrees_with_tensorio(tmp_path):
    t = np.random.default_rng(0).standard_normal((2, 3, 4))
    write_tensor(tmp_path / "t.tnsr", t)
    assert np.array_equal(checks.read_tnsr(tmp_path / "t.tnsr"), t)


def test_tnsr_reader_rejects_truncated_payload(tmp_path):
    write_tensor(tmp_path / "t.tnsr", np.ones((2, 3)))
    raw = (tmp_path / "t.tnsr").read_bytes()
    (tmp_path / "t.tnsr").write_bytes(raw[:-8])
    with pytest.raises(CheckFailure):
        checks.read_tnsr(tmp_path / "t.tnsr")


def test_msk_reader_agrees_with_tensorio(tmp_path):
    mask = sample_mask((3, 4, 5), 0.6, seed=1)
    write_mask(tmp_path / "m.msk", mask)
    dims, idx = checks.read_msk(tmp_path / "m.msk")
    assert dims == (3, 4, 5)
    assert np.array_equal(idx, mask.linear_indices)
    assert np.array_equal(checks.unobserved_offsets(dims, idx), mask.complement().linear_indices)


def test_relative_error_agrees_with_harness():
    rng = np.random.default_rng(2)
    truth, est = rng.standard_normal((4, 5, 3)), rng.standard_normal((4, 5, 3))
    mask = sample_mask(truth.shape, 0.5, seed=3)
    held_out = mask.complement()
    assert checks.relative_error(truth, est) == pytest.approx(harness.relative_error(truth, est))
    assert checks.relative_error(truth, est, held_out.linear_indices) == pytest.approx(
        harness.relative_error(truth, est, held_out))


def test_einsum_reconstruction_agrees_with_cp_reconstruct():
    rng = np.random.default_rng(4)
    factors = [rng.standard_normal((n, 3)) for n in (4, 5, 6)]
    recovered = cp_reconstruct(factors)
    assert np.allclose(checks.einsum_reconstruct(factors), recovered, rtol=1e-12, atol=0)
    checks.check_reconstruction(recovered, factors)
    with pytest.raises(CheckFailure):
        checks.check_reconstruction(recovered * (1 + 1e-8), factors)


def test_non_increasing_check():
    checks.check_non_increasing([3.0, 2.0, 2.0, 1.0])
    checks.check_non_increasing([1.0, 1.0 + 1e-13], rel_tol=1e-12)
    with pytest.raises(CheckFailure):
        checks.check_non_increasing([3.0, 2.0, 2.5])


def _sweep_csv(rows):
    lines = [harness.CSV_COLUMNS]
    for lam, errs, ranks, error in rows:
        for seed, (e, r) in enumerate(zip(errs, ranks)):
            lines.append(f"lrtc,run,{seed},{lam:g},1,0.7,{e!r},,30,{r},500,1.0,{error}")
        lines.append(f"lrtc,summary,,{lam:g},1,0.7,{np.mean(errs):.10g},0,30,5,,1.0,")
    return "\n".join(lines) + "\n"


def test_sweep_check_returns_tuned_error():
    text = _sweep_csv([(0.0, [0.05, 0.04], [10, 10], ""), (8.0, [0.02, 0.03], [5, 6], "")])
    assert checks.check_sweep(text, 2, (0.0, 8.0), 5, 0.1) == pytest.approx(0.025)


@pytest.mark.parametrize("rows", [
    # a failed cell
    [(0.0, [0.05, 0.04], [10, 10], ""), (8.0, [0.02, 0.03], [5, 6], "ValueError: x")],
    # tuned λ is 0
    [(0.0, [0.01, 0.01], [10, 10], ""), (8.0, [0.02, 0.03], [5, 6], "")],
    # tuned rank outside [r, 2r]
    [(0.0, [0.05, 0.04], [10, 10], ""), (8.0, [0.02, 0.03], [4, 6], "")],
    # tuned error above the noise level
    [(0.0, [0.5, 0.4], [10, 10], ""), (8.0, [0.2, 0.3], [5, 6], "")],
])
def test_sweep_check_rejects(rows):
    with pytest.raises(CheckFailure):
        checks.check_sweep(_sweep_csv(rows), 2, (0.0, 8.0), 5, 0.1)


def test_sweep_check_rejects_wrong_summary_mean():
    text = _sweep_csv([(0.0, [0.05, 0.04], [10, 10], ""), (8.0, [0.02, 0.03], [5, 6], "")])
    text = text.replace(",0.025,", ",0.0251,")
    with pytest.raises(CheckFailure):
        checks.check_sweep(text, 2, (0.0, 8.0), 5, 0.1)


class _FakeWorkload:
    name = "fake"

    def cycle(self, state):
        def bad_check(result):
            raise CheckFailure("wrong answer")

        def crash():
            raise RuntimeError("solver crashed")

        return [
            Operation("good", lambda: 1, lambda r: (2, 0.5)),
            Operation("bad", lambda: 1, bad_check),
            Operation("crash", crash, lambda r: (1, 0.0)),
        ]


def test_failed_checks_are_counted_not_dropped():
    tally = run.measure(_FakeWorkload(), None, seconds=0.0)
    assert tally["rounds"] == 1
    assert tally["attempted"] == 3
    assert tally["failed"] == 2
    assert tally["solves"] == 2
    assert tally["errors"] == [0.5]
    assert len(tally["op_times"]) == 1


def _tiny_completion():
    rng = np.random.default_rng(5)
    shape = (6, 7, 5)
    data = cp_reconstruct([rng.standard_normal((n, 2)) for n in shape])
    mask = sample_mask(shape, 0.4, seed=5)
    cfg = lrtc.LrtcConfig(k_init=4, lam=0.5, spec=RegularizerSpec("sym", 3, p=1 / 3),
                          t_max=20, rng_seed=5)
    return data, mask, cfg


def test_tracer_sees_calls_inside_the_package_and_restores():
    original = lrtc.khatri_rao
    data, mask, cfg = _tiny_completion()
    with Tracer() as tracer:
        assert lrtc.khatri_rao is not original
        report = lrtc.solve(data, mask, cfg)
    assert lrtc.khatri_rao is original and tensorenr.core.khatri_rao is original
    names = {s[0] for s in tracer.spans}
    assert {"lrtc.bcde_solve", "core.khatri_rao", "core.spectral_norm_est",
            "regularizers.reg_value", "regularizers.prox_group_soft"} <= names
    own = self_times(tracer.spans)
    assert min(own) >= 0.0
    root = [i for i, s in enumerate(tracer.spans) if s[3] == -1]
    assert len(root) == 1
    assert sum(own) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])

    layers = layer_metrics(tracer.spans, cycles=1)
    assert layers["lrtc.bcde_solve.sweeps"] == report.iterations
    assert layers["lrtc.bcde_solve.restarts"] >= 0
    assert layers["core.khatri_rao.calls"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "trpca_desk", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 6 and result["failed"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    assert result["metrics"]["trpca.trpca_x_update.calls"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "trpca_desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
