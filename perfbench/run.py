"""Benchmark for tensorenr: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lrtc_sweep --seed 0 --seconds 30 --trace 0

The workload runs as a closed loop in this process: whole rounds of its
operations, each starting after the previous one returns, ending at the
round boundary nearest to ``--seconds``. Inputs are made from ``--seed``. Every
operation's output is checked; an operation whose check fails is counted
in ``failed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The traced run also writes its spans to ``.perfbench_out/``.
"""

import os
import sys

# One BLAS thread, set before numpy loads: no more than the CPU count, and
# the steadiest setting for these problem sizes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT = 60.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    if not (SRC / "tensorenr" / "__init__.py").is_file():
        raise SystemExit(f"error: no tensorenr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tensorenr  # noqa: F401


def probe_setup(workload, seed, workdir):
    """Wall time of a fresh process from start to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(workload, state, seconds):
    """Run whole rounds for about `seconds`; return the tallies."""
    op_times, errors_first_round = [], []
    attempted = failed = solves = rounds = 0
    timed = 0.0
    begin = time.perf_counter()
    while True:
        for op in workload.cycle(state):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # noqa: BLE001 - a crashed operation is a failed one
                timed += time.perf_counter() - t0
                failed += 1
                traceback.print_exc()
                continue
            dt = time.perf_counter() - t0
            timed += dt
            try:
                n, err = op.check(result)
            except Exception as exc:  # noqa: BLE001 - CheckFailure or a broken output
                failed += 1
                print(f"check failed ({workload.name}/{op.label}): {exc}", file=sys.stderr)
                continue
            op_times.append(dt)
            solves += n
            if rounds == 0:
                errors_first_round.append(err)
        rounds += 1
        # Stop at the round boundary nearest to the deadline.
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    return dict(op_times=op_times, errors=errors_first_round, attempted=attempted,
                failed=failed, solves=solves, rounds=rounds, timed=timed)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS  # noqa: E402 - after the BLAS setting and src path

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.setup_probe is not None:
        Path(args.setup_probe).mkdir(parents=True, exist_ok=True)
        workload.setup(args.setup_probe, args.seed)
        print("ready", flush=True)
        return 0

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe_dir = run_dir / f"probe{i}"
                setup_times.append(probe_setup(args.workload, args.seed, probe_dir))
                shutil.rmtree(probe_dir)
        state = workload.setup(run_dir, args.seed)
        if args.trace:
            from tracing import Tracer, layer_metrics

            with Tracer() as tracer:
                tally = measure(workload, state, args.seconds)
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            tally = measure(workload, state, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ok = tally["attempted"] > tally["failed"] and len(tally["errors"]) > 0
    if args.trace:
        values = layer_metrics(tracer.spans, tally["rounds"])
        values["trace.op_s_p50"] = statistics.median(tally["op_times"]) if ok else 0.0
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s_p50": {"value": statistics.median(tally["op_times"]) if ok else 0.0, "unit": "s"},
            "solves_per_s": {"value": tally["solves"] / tally["timed"], "unit": "1/s"},
            "rel_error_mean": {"value": statistics.fmean(tally["errors"]) if ok else 0.0,
                               "unit": "1"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": ok, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith((".s", ".self_s", ".sweep_s", ".op_s_p50")):
        return "s"
    if name.startswith("tensorio.bytes_"):
        return "B"
    if name.endswith(".evals_per_iter"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
