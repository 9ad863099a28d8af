"""Dense tensor primitives shared by the completion and robust PCA solvers.

Tensors are plain float64 numpy arrays. The linearization convention used
everywhere (mask offsets, file payloads, matricization column order) is
first-index-fastest: the linear offset of entry (i_0, ..., i_{d-1}) is
i_0 + n_0*i_1 + n_0*n_1*i_2 + ... , i.e. Fortran order.

CP factor sets are lists of 2-d arrays, one per mode, each of shape
(n_j, k). Column i of every mode belongs to the same rank-one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_ORDER = 6
# Mask offsets are int64, so no tensor may hold more entries.
MAX_ENTRIES = 2**63 - 1


def check_shape(shape):
    """Validate a tensor shape and return it as a tuple of ints.

    The entry count is taken in exact integer arithmetic and must fit in
    int64, so sizes and offsets derived from a valid shape never wrap.
    """
    dims = tuple(int(n) for n in shape)
    if not 2 <= len(dims) <= MAX_ORDER:
        raise ValueError(f"tensor order must be in [2, {MAX_ORDER}], got {len(dims)}")
    if any(n < 1 for n in dims):
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    if math.prod(dims) > MAX_ENTRIES:
        raise ValueError(f"tensor of shape {dims} has more than {MAX_ENTRIES} entries")
    return dims


def validate_factors(factors):
    """Check mode-count and column-count consistency of a CP factor set.

    Returns (shape, k) where shape collects the row counts and k is the
    shared number of columns (the working CP rank, possibly zero).
    """
    if len(factors) == 0:
        raise ValueError("factor set must contain at least one mode")
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for f in mats:
        if f.ndim != 2:
            raise ValueError("each factor must be a 2-d array of shape (n_j, k)")
    k = mats[0].shape[1]
    if any(f.shape[1] != k for f in mats):
        raise ValueError("all factors must share the same number of columns")
    shape = check_shape(f.shape[0] for f in mats)
    return shape, k


def unfold(tensor, mode):
    """Matricize `tensor` along `mode` (0-based).

    Row i of the result is the slice tensor[..., i, ...] with the remaining
    modes flattened in ascending order, lowest mode varying fastest. With
    this column order the CP identity

        unfold(cp_reconstruct(F), j) == F[j] @ khatri_rao(F, skip=j).T

    holds exactly.
    """
    t = np.asarray(tensor, dtype=np.float64)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(matrix, mode, shape):
    """Inverse of :func:`unfold`: rebuild the tensor of `shape` from its
    mode-`mode` matricization."""
    shape = check_shape(shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for order-{len(shape)} tensor")
    mat = np.asarray(matrix, dtype=np.float64)
    rest = [n for j, n in enumerate(shape) if j != mode]
    expected = (shape[mode], math.prod(rest))
    if mat.shape != expected:
        raise ValueError(f"matrix shape {mat.shape} does not match unfolding {expected}")
    arr = np.reshape(mat, [shape[mode]] + rest, order="F")
    return np.moveaxis(arr, 0, mode)


def khatri_rao(factors, skip=None):
    """Column-wise Kronecker product of a factor set, optionally skipping
    one mode.

    The factors enter in descending mode order (last mode first), so row
    blocks of the result enumerate the remaining indices with the lowest
    mode varying fastest. This matches the column order of :func:`unfold`.
    """
    mats = [np.asarray(f, dtype=np.float64) for j, f in enumerate(factors) if j != skip]
    if not mats:
        raise ValueError("khatri_rao needs at least one factor after skipping")
    k = mats[0].shape[1]
    if any(f.ndim != 2 or f.shape[1] != k for f in mats):
        raise ValueError("factors must be 2-d with a common column count")
    out = mats[-1]
    for f in mats[-2::-1]:
        # each entry is one product, as in a broadcast multiply, without
        # the broadcast's overhead; an explicit row count, because
        # reshape(-1, k) is ambiguous at k == 0
        out = np.einsum("ir,jr->ijr", out, f).reshape(out.shape[0] * f.shape[0], k)
    return out


def mttkrp(tensor, factors, mode):
    """Matricized tensor times Khatri-Rao product,
    ``unfold(tensor, mode) @ khatri_rao(factors, skip=mode)``, formed
    without the unfolding or the Khatri-Rao matrix.

    The other modes are contracted one at a time on C-order reshape views
    (partial contractions): one matrix product with the last factor (with
    the first when `mode` is the last mode), then one batched contraction
    per remaining mode, later modes last to first, then earlier modes
    first to last. A C-ordered tensor is never copied; other layouts are
    copied once by the first reshape. The sum order differs from the
    unfolded product, so results agree to rounding.
    """
    t = np.asarray(tensor, dtype=np.float64)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    k = mats[0].shape[-1] if mats else 0
    if [f.shape for f in mats] != [(n, k) for n in t.shape]:
        raise ValueError(f"factor shapes do not match a rank-k CP model of shape {t.shape}")
    shape, d = t.shape, t.ndim
    if mode < d - 1:
        out = t.reshape(-1, shape[-1]) @ mats[-1]
        later, earlier = range(d - 2, mode, -1), range(mode)
    else:
        out = t.reshape(shape[0], -1).T @ mats[0]
        later, earlier = (), range(1, mode)
    # explicit row counts: reshape(-1, n, k) is ambiguous at k == 0
    for i in later:
        out = np.einsum("mnr,nr->mr", out.reshape(len(out) // shape[i], shape[i], k), mats[i])
    for i in earlier:
        out = np.einsum("nmr,nr->mr", out.reshape(shape[i], len(out) // shape[i], k), mats[i])
    return out


def kr_gram(factors, skip):
    """``K.T @ K`` for ``K = khatri_rao(factors, skip=skip)``, as the
    Hadamard product of the other modes' k x k Grams, in O(sum(n_i) k^2)
    without forming K."""
    if not 0 <= skip < len(factors):
        raise ValueError(f"mode {skip} out of range for order-{len(factors)} factors")
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    gram = np.ones((mats[0].shape[1],) * 2)
    for i, f in enumerate(mats):
        if i != skip:
            gram *= f.T @ f
    return gram


def cp_reconstruct(factors):
    """Evaluate the dense tensor represented by a CP factor set.

    An empty factor set (k == 0) reconstructs the zero tensor.
    """
    shape, k = validate_factors(factors)
    if k == 0:
        return np.zeros(shape)
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    kr = khatri_rao(mats, skip=0)
    return fold(mats[0] @ kr.T, 0, shape)


def spectral_norm_est(matrix):
    """Largest singular value of `matrix`, exactly (no iteration).

    Returns 0.0 for an empty matrix and nan if any entry is not finite.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("spectral_norm_est expects a 2-d array")
    if m.size == 0:
        return 0.0
    if not np.isfinite(m).all():
        return float("nan")
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(eq=False, frozen=True)
class ObservationMask:
    """Set of observed entries of a dense tensor, stored as sorted linear
    offsets in first-index-fastest order."""

    shape: tuple
    linear_indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shape", check_shape(self.shape))
        idx = np.asarray(self.linear_indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("linear_indices must be 1-d")
        total = math.prod(self.shape)
        if idx.size:
            if idx[0] < 0 or idx[-1] >= total:
                raise ValueError("mask offsets out of range")
            # a comparison of views: no differences array as large as idx
            if np.any(idx[1:] <= idx[:-1]):
                raise ValueError("mask offsets must be strictly increasing")
        object.__setattr__(self, "linear_indices", idx)

    @property
    def count(self):
        return int(self.linear_indices.size)

    @property
    def total(self):
        return math.prod(self.shape)

    def multi_indices(self):
        """Offsets as a tuple of per-mode index arrays, for fancy indexing."""
        return np.unravel_index(self.linear_indices, self.shape, order="F")

    def dense(self):
        """Binary indicator tensor of the observed set."""
        m = np.zeros(self.shape)
        if self.count:
            m[self.multi_indices()] = 1.0
        return m

    def complement(self):
        """Mask of the unobserved entries."""
        keep = np.ones(self.total, dtype=bool)
        keep[self.linear_indices] = False
        return ObservationMask(self.shape, np.flatnonzero(keep))

    @classmethod
    def from_dense(cls, indicator):
        ind = np.asarray(indicator)
        flat = ind.reshape(-1, order="F")
        idx = np.flatnonzero(flat != 0).astype(np.int64)
        return cls(ind.shape, idx)


def masked_residual(data, factors, mask):
    """Residual between `data` and the CP model on the observed set.

    Returns (residual, value): a tensor that is data - reconstruction on
    the mask and zero elsewhere, and the plain squared Frobenius norm of
    that restriction (no 1/2 factor; callers add their own).
    """
    d = np.asarray(data, dtype=np.float64)
    shape, _ = validate_factors(factors)
    if d.shape != shape:
        raise ValueError(f"data shape {d.shape} does not match factors {shape}")
    if tuple(mask.shape) != shape:
        raise ValueError(f"mask shape {mask.shape} does not match data {shape}")
    res = np.zeros(shape)
    value = 0.0
    if mask.count:
        idx = mask.multi_indices()
        diff = d[idx] - cp_reconstruct(factors)[idx]
        res[idx] = diff
        value = float(diff @ diff)
    return res, value


def sample_mask(shape, missing_rate, seed):
    """Draw a uniform random observation mask without replacement.

    The number of observed entries is round((1 - missing_rate) * total).
    Sampling runs a partial Fisher-Yates shuffle over linear offsets, so
    memory is proportional to the number of observed entries rather than
    the tensor size. Deterministic for a fixed seed.

    Step i of the shuffle swaps positions i and j_i >= i and outputs the
    value at j_i: j_i itself, unless an earlier step targeted j_i, and
    then the value the latest such step moved there. All steps are
    replayed at once, with the latest earlier step per target taken from
    a stable sort by target and the chains of moved values resolved by
    pointer jumping, so the mask equals the one-step-at-a-time loop's.
    """
    shape = check_shape(shape)
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must be in [0, 1), got {missing_rate}")
    total = math.prod(shape)
    m = int(round((1.0 - missing_rate) * total))
    if m >= total:
        return ObservationMask(shape, np.arange(total, dtype=np.int64))
    rng = np.random.default_rng(seed)
    positions = np.arange(m, dtype=np.int64)
    draws = positions + np.floor(rng.random(m) * (total - positions)).astype(np.int64)
    # steps grouped by target, in step order within each group
    order = np.argsort(draws, kind="stable")
    targets = draws[order]
    same = targets[1:] == targets[:-1]
    # the latest earlier step with the same target as step i, or -1
    before = np.full(m, -1, dtype=np.int64)
    before[order[1:][same]] = order[:-1][same]
    # Step t moves position t's value, which is that of the latest step
    # that targeted t before, or t itself if none did. Steps target only
    # positions at or after themselves, so the latest step of all that
    # targets t is t itself or an earlier one; a step that targets itself
    # is never read back (later steps target later positions), so linking
    # t to that latest step, itself included, is exact where it is read.
    # Pointer jumping follows the links to a step linked to itself, which
    # moved its own index.
    group_end = np.ones(m, dtype=bool)
    group_end[:-1] = ~same
    ends = order[group_end]
    ends = ends[draws[ends] < m]
    link = positions.copy()
    link[draws[ends]] = ends
    while True:
        jumped = link[link]
        if np.array_equal(jumped, link):
            break
        link = jumped
    out = np.where(before < 0, draws, link[before])
    return ObservationMask(shape, np.sort(out))
