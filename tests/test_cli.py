import subprocess
import sys

import numpy as np
import pytest

from tensorenr import cli
from tensorenr.cli import UsageError, main, parse_sweep_config
from tensorenr.core import ObservationMask
from tensorenr.regularizers import RegularizerSpec
from tensorenr.tensorio import read_mask, read_tensor, write_mask, write_tensor
from tensorenr.trpca import TrpcaConfig, solver_for, trpca_solve


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def lrtc_files(tmp_path):
    prefix = str(tmp_path / "toy")
    rc = run_cli(
        "gen",
        "--task", "lrtc",
        "--shape", "6x6x6",
        "--rank", "1",
        "--noise", "0",
        "--missing-rate", "0.2",
        "--seed", "3",
        "--out", prefix,
    )
    assert rc == 0
    return prefix


def write_raw(path, tensor):
    """Write `tensor` in the tensor file layout, non-finite entries included
    (``write_tensor`` refuses those): the header of a finite tensor of its
    shape, then the entries."""
    write_tensor(path, np.zeros(tensor.shape))
    header = path.read_bytes()[: -8 * tensor.size]
    path.write_bytes(header + np.ravel(tensor, order="F").astype("<f8").tobytes())


class TestNonFiniteFiles:
    # files are read without a finiteness pass: each command checks the
    # entries it uses

    def test_lrtc_reads_nan_at_unobserved_entries_as_zero(self, lrtc_files, tmp_path, capsys):
        data = read_tensor(f"{lrtc_files}_data.tnsr")
        unobserved = np.ones(data.shape, dtype=bool)
        unobserved[read_mask(f"{lrtc_files}_mask.msk").multi_indices()] = False
        outputs = []
        for fill in (0.0, np.nan):
            filled = np.where(unobserved, fill, data)
            write_raw(tmp_path / f"{fill}.tnsr", filled)
            out = tmp_path / f"rec_{fill}"
            rc = run_cli(
                "lrtc", "--data", str(tmp_path / f"{fill}.tnsr"),
                "--mask", f"{lrtc_files}_mask.msk",
                "--k", "2", "--lambda", "0.1", "--tmax", "30", "--out", str(out),
            )
            assert rc == 0
            # the trace's seconds column is not deterministic
            trace = (tmp_path / f"rec_{fill}_trace.csv").read_text().splitlines()
            outputs.append(((tmp_path / f"rec_{fill}.tnsr").read_bytes(),
                            [ln.rsplit(",", 1)[0] for ln in trace], capsys.readouterr().out))
        assert np.isnan(read_tensor(tmp_path / "nan.tnsr")[unobserved]).all()
        assert outputs[0] == outputs[1]

    def test_trpca_and_eval_refuse_a_nan_file(self, lrtc_files, tmp_path, capsys):
        truth = f"{lrtc_files}_truth.tnsr"
        bad = read_tensor(truth)
        bad[1, 2, 3] = np.nan
        write_raw(tmp_path / "bad.tnsr", bad)
        rc = run_cli(
            "trpca", "--data", str(tmp_path / "bad.tnsr"), "--k", "2", "--lambda-x", "0.1",
            "--lambda-e", "0.3", "--out", str(tmp_path / "x"),
        )
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err
        for pair in ((truth, str(tmp_path / "bad.tnsr")), (str(tmp_path / "bad.tnsr"), truth)):
            assert run_cli("eval", "--truth", pair[0], "--estimate", pair[1]) == 1
            assert "must be finite" in capsys.readouterr().err


class TestGen:
    def test_lrtc_files(self, lrtc_files):
        truth = read_tensor(f"{lrtc_files}_truth.tnsr")
        data = read_tensor(f"{lrtc_files}_data.tnsr")
        assert truth.shape == (6, 6, 6)
        assert np.array_equal(truth, data)

    def test_trpca_files(self, tmp_path):
        prefix = str(tmp_path / "rob")
        rc = run_cli(
            "gen",
            "--task", "trpca",
            "--shape", "5x5x5",
            "--rank", "2",
            "--density", "0.1",
            "--out", prefix,
        )
        assert rc == 0
        sparse = read_tensor(f"{prefix}_sparse.tnsr")
        assert int(np.sum(sparse != 0.0)) == round(0.1 * 125)

    @pytest.mark.parametrize(
        "task, flags",
        [
            ("trpca", ("--missing-rate", "0.5")),
            ("lrtc", ("--density", "0.5", "--corruption", "replace")),
        ],
    )
    def test_flag_the_task_does_not_read_is_refused(self, tmp_path, capsys, task, flags):
        prefix = tmp_path / "x"
        rc = run_cli("gen", "--task", task, "--shape", "4x4x4", "--rank", "1", *flags,
                     "--out", str(prefix))
        assert rc == 1
        assert "does not read" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "task, defaults",
        [
            ("trpca", ("--density", "0.1", "--corruption", "additive")),
            ("lrtc", ("--missing-rate", "0")),
        ],
    )
    def test_left_out_flags_take_the_defaults(self, tmp_path, task, defaults):
        def gen(name, *flags):
            rc = run_cli("gen", "--task", task, "--shape", "4x5x6", "--rank", "2", *flags,
                         "--seed", "4", "--out", str(tmp_path / name))
            assert rc == 0
            return [p.read_bytes() for p in sorted(tmp_path.glob(f"{name}_*"))]

        plain = gen("plain")
        assert len(plain) == 3
        assert plain == gen("spelled", *defaults)

    @pytest.mark.parametrize("shape", ["6xax6", "7", "x"])
    def test_bad_shape_is_usage_error(self, tmp_path, capsys, shape):
        rc = run_cli(
            "gen", "--task", "lrtc", "--shape", shape, "--rank", "1",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestLrtcCommand:
    def test_end_to_end(self, lrtc_files, tmp_path, capsys):
        out = str(tmp_path / "rec")
        rc = run_cli(
            "lrtc",
            "--data", f"{lrtc_files}_data.tnsr",
            "--mask", f"{lrtc_files}_mask.msk",
            "--k", "2",
            "--lambda", "0",
            "--tmax", "100",
            "--out", out,
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "objective=" in stdout and "rank=" in stdout
        assert stdout.split()[-1] in ("stop=tol", "stop=t_max")
        recovered = read_tensor(f"{out}.tnsr")
        truth = read_tensor(f"{lrtc_files}_truth.tnsr")
        err = np.linalg.norm(recovered - truth) / np.linalg.norm(truth)
        assert err < 1e-3
        trace = open(f"{out}_trace.csv").read()
        assert trace.startswith("iter,objective,rank,seconds")

    def test_missing_file(self, tmp_path, capsys):
        rc = run_cli(
            "lrtc",
            "--data", str(tmp_path / "absent.tnsr"),
            "--mask", str(tmp_path / "absent.msk"),
            "--k", "2", "--lambda", "0.1",
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tnsr"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = run_cli(
            "lrtc",
            "--data", str(bad),
            "--mask", str(bad),
            "--k", "2", "--lambda", "0.1",
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1

    @pytest.mark.parametrize("flag,value", [("--lambda", "nan"), ("--lambda", "inf"),
                                            ("--rho", "nan")])
    def test_non_finite_setting_is_usage_error(self, lrtc_files, tmp_path, capsys, flag, value):
        # the last occurrence of a flag wins
        rc = run_cli(
            "lrtc",
            "--data", f"{lrtc_files}_data.tnsr",
            "--mask", f"{lrtc_files}_mask.msk",
            "--k", "2", "--lambda", "0.1", flag, value,
            "--out", str(tmp_path / "o"),
        )
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err


class TestTrpcaCommand:
    @pytest.fixture
    def trpca_data(self, tmp_path):
        prefix = str(tmp_path / "rob")
        run_cli(
            "gen", "--task", "trpca", "--shape", "6x6x6", "--rank", "1",
            "--density", "0.05", "--out", prefix,
        )
        return f"{prefix}_data.tnsr"

    def test_default_reg_uses_group_threshold_solver(self, trpca_data, tmp_path, capsys):
        out = str(tmp_path / "dec")
        rc = run_cli(
            "trpca",
            "--data", trpca_data,
            "--k", "2",
            "--lambda-x", "0.1",
            "--lambda-e", "0.3",
            "--tmax", "20",
            "--out", out,
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "nnz_above_tol,fraction" in stdout
        assert read_tensor(f"{out}.tnsr").shape == (6, 6, 6)
        assert read_tensor(f"{out}_sparse.tnsr").shape == (6, 6, 6)

    def test_quadratic_reg_routes_to_als(self, trpca_data, tmp_path):
        rc = run_cli(
            "trpca",
            "--data", trpca_data,
            "--k", "2",
            "--lambda-x", "0.1",
            "--lambda-e", "0.3",
            "--reg", "sym:p=0.6667",
            "--tmax", "10",
            "--out", str(tmp_path / "als"),
        )
        assert rc == 0

    def test_explicit_q_routes_to_asym(self, trpca_data, tmp_path):
        rc = run_cli(
            "trpca",
            "--data", trpca_data,
            "--k", "2",
            "--lambda-x", "0.05",
            "--lambda-e", "0.3",
            "--q", "0.5",
            "--tmax", "10",
            "--out", str(tmp_path / "asym"),
        )
        assert rc == 0

    def test_unsupported_exponent_is_usage_error(self, trpca_data, tmp_path, capsys):
        rc = run_cli(
            "trpca",
            "--data", trpca_data,
            "--k", "2",
            "--lambda-x", "0.1",
            "--lambda-e", "0.3",
            "--reg", "sym:p=0.5",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 1
        assert "solver" in capsys.readouterr().err

    @pytest.mark.parametrize("reg, solver", [
        ("sym:p=0.3333", "admm"),
        ("sym:p=0.6667", "als"),
        ("sym:p=0.5", None),
        ("asym_b:q=0.5", "asym"),
        ("asym_b:q=1", None),
        ("asym_a:q=0.5", None),
        ("table2:s12", None),
    ])
    def test_one_pairing_of_regularizer_and_solver(self, trpca_data, tmp_path, capsys, reg,
                                                   solver):
        # solver_for, the trpca command and TrpcaConfig with the admm and
        # als solvers agree on which regularizer each solver takes
        spec = RegularizerSpec.parse(reg, 3)
        if solver is None:
            with pytest.raises(ValueError, match="solver"):
                solver_for(spec)
        else:
            assert solver_for(spec) == solver
        rc = run_cli(
            "trpca", "--data", trpca_data, "--k", "2", "--lambda-x", "0.1",
            "--lambda-e", "0.3", "--reg", reg, "--tmax", "5", "--out", str(tmp_path / "x"),
        )
        assert rc == (0 if solver else 1)
        if solver is None:
            assert "solver" in capsys.readouterr().err
        data = read_tensor(trpca_data)
        for name in ("admm", "als"):
            settings = dict(k_init=2, lam_x=0.1, lam_e=0.3, spec=spec, solver=name, t_max=5)
            if name == solver:
                trpca_solve(data, TrpcaConfig(**settings))
            else:
                with pytest.raises(ValueError):
                    trpca_solve(data, TrpcaConfig(**settings))

    def test_reg_applies_only_when_given(self, trpca_data, tmp_path, capsys):
        # --reg joins --q in the pairing rule instead of being dropped, and
        # leaving both out is the admm default
        def outputs(name, *flags):
            out = str(tmp_path / name)
            rc = run_cli("trpca", "--data", trpca_data, "--k", "2", "--lambda-x", "0.05",
                         "--lambda-e", "0.3", "--tmax", "10", *flags, "--out", out)
            if rc:
                return rc
            rows = (tmp_path / f"{name}_trace.csv").read_text().splitlines()
            trace = [row.rsplit(",", 1)[0] for row in rows]
            return read_tensor(f"{out}.tnsr"), read_tensor(f"{out}_sparse.tnsr"), trace

        assert outputs("x", "--q", "0.5", "--reg", "sym:p=0.6667") == 1
        assert "solver 'asym' does not fit regularizer sym:p=0.6667" in capsys.readouterr().err
        assert outputs("x", "--q", "0.3", "--reg", "asym_b:q=0.5") == 1
        assert "exponent q=0.3 is not of the form 2.0/m" in capsys.readouterr().err
        assert outputs("x", "--q", "0.4", "--reg", "asym_b:q=0.5") == 1
        assert "differs from the q of regularizer" in capsys.readouterr().err
        for a, b in (
            (outputs("by_q", "--q", "0.5"), outputs("both", "--q", "0.5", "--reg", "asym_b:q=0.5")),
            (outputs("plain"), outputs("sym", "--reg", "sym")),
        ):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            assert a[2] == b[2]

    def test_lapack_failure_is_numeric_failure(self, trpca_data, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it must not read as a usage error
        def fail(data, config):
            raise np.linalg.LinAlgError("factorization failed")

        monkeypatch.setattr(cli, "trpca_solve", fail)
        rc = run_cli(
            "trpca", "--data", trpca_data, "--k", "2", "--lambda-x", "0.1",
            "--lambda-e", "0.3", "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "numeric failure: factorization failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_solve_is_numeric_failure(self, tmp_path, capsys):
        # the second mode's Gram overflows to inf on finite data
        data = tmp_path / "big.tnsr"
        write_tensor(data, np.full((4, 4, 4), 1e200))
        rc = run_cli(
            "trpca", "--data", str(data), "--k", "2", "--lambda-x", "0.1",
            "--lambda-e", "0.3", "--out", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "numeric failure: array must not contain infs or NaNs" in capsys.readouterr().err


class TestEvalCommand:
    def test_metrics_line(self, lrtc_files, capsys):
        rc = run_cli(
            "eval",
            "--truth", f"{lrtc_files}_truth.tnsr",
            "--estimate", f"{lrtc_files}_data.tnsr",
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "rel_error,psnr"
        err, quality = out[1].split(",")
        assert float(err) == 0.0
        assert quality == "inf"

    def test_masked_scoring(self, lrtc_files, capsys):
        rc = run_cli(
            "eval",
            "--truth", f"{lrtc_files}_truth.tnsr",
            "--estimate", f"{lrtc_files}_data.tnsr",
            "--mask", f"{lrtc_files}_mask.msk",
        )
        assert rc == 0

    def test_zero_truth_is_numeric_failure(self, tmp_path, capsys):
        z = tmp_path / "zero.tnsr"
        write_tensor(z, np.zeros((3, 3)))
        rc = run_cli("eval", "--truth", str(z), "--estimate", str(z))
        assert rc == 2
        assert "numeric failure" in capsys.readouterr().err


class TestSweepCommand:
    def write_config(self, tmp_path, text):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        return str(cfg)

    def test_stdout_csv(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            "task=lrtc\nshape=5x5x5\nrank=1\nk=2\ntmax=5\n"
            "seeds=0,1\nlambdas=0.1,1\n",
        )
        rc = run_cli("sweep", cfg)
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("task,kind,seed,lambda")
        # 2 lambdas x (2 run rows + 1 summary row)
        assert len(lines) == 1 + 2 * 3

    def test_out_file(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            "task=lrtc\nshape=5x5x5\nrank=1\nk=2\ntmax=5\nseeds=0\nlambdas=0.5\n",
        )
        out = tmp_path / "report.csv"
        rc = run_cli("sweep", cfg, "--out", str(out))
        assert rc == 0
        assert out.read_text().startswith("task,kind")

    def test_lambda_grid_key(self):
        values = parse_sweep_config(
            "task=lrtc\nshape=4x4x4\nrank=1\nlambda_grid=0.1:10:3\n"
        )
        lams = values["lambdas"]
        assert len(lams) == 3
        assert lams[0] == pytest.approx(0.1)
        assert lams[-1] == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "grid", ["0.1:10", "0.1:10:3:4", "low:10:3", "0.1:10:2.5", "0.1:10:0", "0.1:10:-1"]
    )
    def test_malformed_lambda_grid_names_its_line(self, grid):
        # a wrong field count, a non-number or fewer than one point
        with pytest.raises(UsageError) as info:
            parse_sweep_config(f"task=lrtc\nshape=4x4x4\nrank=1\nlambda_grid={grid}\n")
        assert str(info.value) == f"line 4: bad value for lambda_grid: {grid!r}"

    def test_later_lambda_line_wins(self):
        text = "task=lrtc\nshape=4x4x4\nrank=1\nlambda_grid=0.1:10:3\nlambdas=0.5\n"
        assert parse_sweep_config(text)["lambdas"] == (0.5,)
        text = "task=lrtc\nshape=4x4x4\nrank=1\nlambdas=0.5\nlambda_grid=1:1:1\n"
        assert parse_sweep_config(text)["lambdas"] == (1.0,)

    @pytest.mark.parametrize(
        "line, message",
        [("lambda_grid=0.1:10:0", "line 4: bad value for lambda_grid: '0.1:10:0'"),
         ("lambdas=", "lambdas must be non-empty")],
    )
    def test_empty_lambda_grid_is_a_usage_error(self, tmp_path, capsys, line, message):
        cfg = self.write_config(tmp_path, f"task=lrtc\nshape=4x4x4\nrank=1\n{line}\n")
        assert run_cli("sweep", cfg) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("task, line, message", [
        ("lrtc", "tmax=0", "t_max must be >= 1, got 0"),
        ("trpca", "mu=-1", "mu must be positive, got -1.0"),
        ("lrtc", "rho=0", "rho must be positive, got 0.0"),
        ("trpca", "solver=asym\nq=0.5\nreg=sym:p=0.3333", "solver 'asym' does not fit"),
        ("trpca", "q=1.5", "q must be in (0, 1), got 1.5"),
        ("trpca", "q=0.3\nreg=asym_b:q=0.5", "exponent q=0.3 is not of the form 2.0/m"),
        ("trpca", "q=0.4\nreg=asym_b:q=0.5", "q=0.4 differs from the q of regularizer"),
        ("lrtc", "q=0.3", "task lrtc does not read q"),
        ("trpca", "rho=2", "task trpca does not read rho"),
    ])
    def test_bad_solver_setting_exits_before_any_cell(self, tmp_path, capsys, task, line,
                                                      message):
        # checked when the spec is built: no cell runs and no CSV is written
        cfg = self.write_config(tmp_path, f"task={task}\nshape=4x4x4\nrank=1\n{line}\n")
        out = tmp_path / "report.csv"
        assert run_cli("sweep", cfg, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_zero_size_dimension_exits_before_any_cell(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "task=lrtc\nshape=0x5x5\nrank=1\n")
        out = tmp_path / "report.csv"
        assert run_cli("sweep", cfg, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: all dimensions must be >= 1")
        assert not out.exists()

    def test_comments_and_blanks_ignored(self):
        values = parse_sweep_config(
            "# synthetic run\n\ntask=trpca\nshape=4x4x4\nrank=2\ndensity=0.1\n"
        )
        assert values["task"] == "trpca"
        assert values["density"] == 0.1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "task=lrtc\nshape=4x4x4\nrank=1\nbogus=1\n")
        assert run_cli("sweep", cfg) == 1

    def test_missing_required_keys(self, tmp_path):
        cfg = self.write_config(tmp_path, "task=lrtc\n")
        assert run_cli("sweep", cfg) == 1

    def test_config_file_absent(self, tmp_path):
        assert run_cli("sweep", str(tmp_path / "none.cfg")) == 1

    @pytest.mark.parametrize("task", ["lrtc", "trpca"])
    def test_absent_keys_take_the_spec_defaults(self, tmp_path, task):
        # a config that leaves every optional key out runs the same
        # experiment as one that spells out the documented defaults
        least = f"task={task}\nshape=5x4x3\nrank=1\nseeds=0,1\nlambdas=0,0.5\n"
        spelled = least + (
            "noise=0.1\nmissing_rate=0.0\ndensity=0.0\ncorruption=additive\n"
            "lambda_e=0.1\ntmax=500\nrho=1.0\ndelta=0.95\nmu=10.0\n"
        )
        csvs = []
        for name, text in (("least", least), ("spelled", spelled)):
            out = tmp_path / f"{name}.csv"
            assert run_cli("sweep", self.write_config(tmp_path, text), "--out", str(out)) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()]
            seconds = rows[0].index("seconds")
            csvs.append([row[:seconds] + row[seconds + 1:] for row in rows])
        assert csvs[0] == csvs[1]
        assert len(csvs[0]) == 1 + 2 * 3


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli("gen", "--task", "lrtc") == 1

    def test_mask_count_mismatch_detected(self, tmp_path):
        t = np.zeros((3, 3))
        path = tmp_path / "t.tnsr"
        write_tensor(path, t)
        mask = ObservationMask((4, 4), np.array([0, 5], dtype=np.int64))
        mpath = tmp_path / "m.msk"
        write_mask(mpath, mask)
        rc = run_cli(
            "lrtc", "--data", str(path), "--mask", str(mpath),
            "--k", "1", "--lambda", "0", "--out", str(tmp_path / "o"),
        )
        assert rc == 1


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tensorenr.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("gen", "lrtc", "trpca", "sweep", "eval"):
        assert name in proc.stdout
