"""Correctness checks for benchmark operations, written apart from tensorenr.

Nothing here imports the package under test: the file readers follow the
documented ``.tnsr``/``.msk`` layout (magic, version byte, u32 order, u32
dimensions, then little-endian payload with the first index fastest), the
reconstruction is a plain ``einsum`` and the sweep CSV is parsed with the
standard ``csv`` module. A check that fails raises :class:`CheckFailure`,
which the runner counts as a failed operation.
"""

from __future__ import annotations

import csv
import io
import math
import string
from pathlib import Path

import numpy as np


class CheckFailure(Exception):
    """An operation's output failed an independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def _parse_header(raw, magic):
    require(raw[:4] == magic, f"bad magic {raw[:4]!r}, expected {magic!r}")
    require(len(raw) >= 9 and raw[4] == 1, "bad or missing version byte")
    order = int.from_bytes(raw[5:9], "little")
    end = 9 + 4 * order
    require(2 <= order <= 16 and len(raw) >= end, f"bad order {order}")
    dims = tuple(int.from_bytes(raw[9 + 4 * i : 13 + 4 * i], "little") for i in range(order))
    return dims, end


def read_tnsr(path):
    """Read a dense tensor file into a float64 array of its declared shape."""
    raw = Path(path).read_bytes()
    dims, offset = _parse_header(raw, b"TNSR")
    size = math.prod(dims)
    require(len(raw) == offset + 8 * size, f"{path}: payload size does not match {dims}")
    flat = np.frombuffer(raw, dtype="<f8", offset=offset).astype(np.float64)
    return flat.reshape(dims, order="F")


def read_msk(path):
    """Read a mask file into (dims, sorted linear offsets)."""
    raw = Path(path).read_bytes()
    dims, offset = _parse_header(raw, b"MASK")
    require(len(raw) >= offset + 8, f"{path}: missing entry count")
    count = int.from_bytes(raw[offset : offset + 8], "little")
    require(len(raw) == offset + 8 + 8 * count, f"{path}: offsets do not match count {count}")
    idx = np.frombuffer(raw, dtype="<u8", offset=offset + 8).astype(np.int64)
    require(count == 0 or (idx[0] >= 0 and idx[-1] < math.prod(dims)), "offset out of range")
    require(bool(np.all(np.diff(idx) > 0)), "offsets not strictly increasing")
    return dims, idx


def relative_error(truth, estimate, offsets=None):
    """||truth - estimate|| / ||truth||, over the entries at the given
    first-index-fastest linear offsets when they are passed."""
    t = np.ravel(truth, order="F")
    e = np.ravel(estimate, order="F")
    require(t.shape == e.shape, f"shape mismatch {np.shape(truth)} vs {np.shape(estimate)}")
    if offsets is not None:
        t, e = t[offsets], e[offsets]
    return float(np.linalg.norm(t - e) / np.linalg.norm(t))


def unobserved_offsets(dims, observed):
    """Linear offsets of the entries not in `observed`."""
    keep = np.ones(math.prod(dims), dtype=bool)
    keep[observed] = False
    return np.flatnonzero(keep)


def einsum_reconstruct(factors):
    """Dense tensor of a CP factor set, sum_r a_r o b_r o c_r o ..."""
    letters = string.ascii_lowercase[: len(factors)]
    spec = ",".join(f"{c}z" for c in letters) + "->" + letters
    return np.einsum(spec, *factors)


def check_reconstruction(recovered, factors, tol=1e-10):
    """The returned dense estimate must equal the einsum of its factors."""
    ref = einsum_reconstruct(factors)
    gap = np.linalg.norm(ref - recovered) / max(np.linalg.norm(ref), np.finfo(float).tiny)
    require(gap <= tol, f"estimate differs from einsum of its factors by {gap:.3g} (relative)")


def check_non_increasing(values, rel_tol=0.0):
    """Each value must not exceed its predecessor by more than rel_tol of it."""
    v = np.asarray(values, dtype=np.float64)
    require(v.size >= 2 and bool(np.all(np.isfinite(v))), "objective trace empty or non-finite")
    rise = np.diff(v) - rel_tol * np.abs(v[:-1])
    worst = int(np.argmax(rise))
    require(rise[worst] <= 0.0, f"objective rose at step {worst + 1}: {v[worst]!r} -> {v[worst + 1]!r}")


def trace_csv_objectives(text):
    """Objective column of a solver trace CSV (iter,objective,rank,seconds)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    require(rows and "objective" in rows[0], "trace CSV has no objective column")
    return [float(r["objective"]) for r in rows]


def check_sweep(text, n_seeds, lambdas, true_rank, noise_level):
    """Check one arm of a tuning study and return its tuned (best-λ) error.

    Every run row must have an empty error column; each summary mean must
    equal the mean of its run rows; the tuned error must beat the λ = 0
    error and the noise level; the tuned cell's ranks must lie in
    [r, 2r].
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    require(rows, "sweep CSV has no rows")
    for col in ("kind", "lambda", "rel_error", "final_rank", "error"):
        require(col in rows[0], f"sweep CSV lacks column {col!r}")
    runs = {}
    summaries = {}
    for row in rows:
        lam = float(row["lambda"])
        if row["kind"] == "run":
            require(row["error"] == "", f"λ={lam} seed {row['seed']} failed: {row['error']}")
            runs.setdefault(lam, []).append(row)
        elif row["kind"] == "summary":
            summaries[lam] = float(row["rel_error"])
    require(sorted(runs) == sorted(lambdas), f"λ grid {sorted(runs)} != {sorted(lambdas)}")
    require(sorted(summaries) == sorted(lambdas), "missing summary rows")
    means = {}
    for lam, cells in runs.items():
        require(len(cells) == n_seeds, f"λ={lam}: {len(cells)} runs, expected {n_seeds}")
        means[lam] = float(np.mean([float(c["rel_error"]) for c in cells]))
        # The CSV prints 10 significant digits.
        require(
            math.isclose(summaries[lam], means[lam], rel_tol=1e-9),
            f"λ={lam}: summary mean {summaries[lam]!r} != mean of runs {means[lam]!r}",
        )
    best = min(means, key=means.get)
    tuned = means[best]
    require(0.0 in means and tuned < means[0.0], f"tuned error {tuned} does not beat λ=0")
    require(tuned < noise_level, f"tuned error {tuned} not below noise level {noise_level}")
    ranks = [int(c["final_rank"]) for c in runs[best]]
    require(
        all(true_rank <= r <= 2 * true_rank for r in ranks),
        f"tuned ranks {ranks} outside [{true_rank}, {2 * true_rank}]",
    )
    return tuned
