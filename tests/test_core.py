import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy import stats

from tensorenr.core import (
    ObservationMask,
    cp_reconstruct,
    fold,
    khatri_rao,
    kr_gram,
    masked_residual,
    mttkrp,
    sample_mask,
    spectral_norm_est,
    unfold,
)


def index_tensor_222():
    # t[i, j, k] = 100(i+1) + 10(j+1) + (k+1), so entries read as their
    # own one-based index triples.
    t = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                t[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    return t


class TestUnfoldFold:
    def test_mode0_row_order(self):
        t = index_tensor_222()
        u = unfold(t, 0)
        # columns enumerate (j, k) with j varying fastest
        assert u[0].tolist() == [111.0, 121.0, 112.0, 122.0]
        assert u[1].tolist() == [211.0, 221.0, 212.0, 222.0]

    def test_mode1_row_order(self):
        t = index_tensor_222()
        u = unfold(t, 1)
        assert u[0].tolist() == [111.0, 211.0, 112.0, 212.0]

    def test_zero_tensor(self):
        assert not unfold(np.zeros((3, 4, 5)), 2).any()

    def test_fold_reproduces_hand_example(self):
        t = index_tensor_222()
        m = np.array(
            [
                [111.0, 121.0, 112.0, 122.0],
                [211.0, 221.0, 212.0, 222.0],
            ]
        )
        assert np.array_equal(fold(m, 0, (2, 2, 2)), t)

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5)])
    def test_round_trip_bit_identical(self, shape):
        rng = np.random.default_rng(7)
        t = rng.standard_normal(shape)
        for j in range(len(shape)):
            assert np.array_equal(fold(unfold(t, j), j, shape), t)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            fold(np.zeros((2, 2)), 5, (2, 2))

    def test_fold_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 0, (2, 2, 2))

    def test_fold_rejects_shape_beyond_int64(self):
        # 65536^4 = 2^64 entries
        with pytest.raises(ValueError, match="entries"):
            fold(np.zeros((65536, 1)), 0, (65536,) * 4)


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_unfold_index_map(shape, seed):
    # entry (i_0, ..., i_{d-1}) sits in row i_j and column
    # sum_{i != j} i_i * prod_{l < i, l != j} n_l of unfold(t, j)
    shape = tuple(shape)
    total = math.prod(shape)
    t = np.random.default_rng(seed).standard_normal(shape)
    flat = t.ravel(order="F")
    offsets = np.arange(total)
    idx = np.unravel_index(offsets, shape, order="F")
    for j in range(len(shape)):
        u = unfold(t, j)
        assert np.array_equal(fold(u, j, shape), t)
        col = np.zeros(total, dtype=np.int64)
        stride = 1
        for i, n in enumerate(shape):
            if i != j:
                col += idx[i] * stride
                stride *= n
        assert u.shape == (shape[j], stride)
        assert np.array_equal(u[idx[j], col], flat[offsets])


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    k=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_khatri_rao_matches_chained_scipy_pairs(shape, k, seed):
    # the broadcast product is scipy's pairwise khatri_rao chained from the
    # last mode down, bit for bit, for every skip; at k == 0 it is (prod n, 0)
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((n, k)) for n in shape]
    for skip in [None, *range(len(shape))]:
        mats = [f for j, f in enumerate(factors) if j != skip]
        want = mats[-1]
        for f in mats[-2::-1]:
            want = scipy.linalg.khatri_rao(want, f)
        got = khatri_rao(factors, skip=skip)
        assert got.shape == (math.prod(f.shape[0] for f in mats), k)
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    k=st.sampled_from([0, 1, 3]),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mttkrp_matches_unfolded_product(shape, k, fortran, seed):
    # each entry agrees with unfold(T, j) @ KR to 1e-12 of the sum of its
    # terms' magnitudes, the scale of any rounding in either sum order
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(shape)
    if fortran:
        t = np.asfortranarray(t)
    factors = [rng.standard_normal((n, k)) for n in shape]
    for j in range(len(shape)):
        kr = khatri_rao(factors, skip=j)
        want = unfold(t, j) @ kr
        got = mttkrp(t, factors, j)
        assert got.shape == (shape[j], k)
        assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(unfold(t, j)) @ np.abs(kr)))
        assert np.allclose(kr_gram(factors, j), kr.T @ kr, rtol=1e-12, atol=1e-12 * k * len(kr))


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_mttkrp_does_not_copy_c_ordered_tensor(mode):
    # the contractions read reshape views: at k = 1 the call allocates
    # partial products of at most total / 10 entries, but not the whole
    # tensor that an unfolding copies
    rng = np.random.default_rng(4)
    t = rng.standard_normal((16, 12, 14, 10))
    factors = [rng.standard_normal((n, 1)) for n in t.shape]
    tracemalloc.start()
    try:
        mttkrp(t, factors, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes / 2


@pytest.mark.parametrize("mode", [-1, 3, 5])
def test_mttkrp_and_kr_gram_reject_mode_out_of_range(mode):
    factors = [np.ones((n, 2)) for n in (2, 3, 4)]
    with pytest.raises(ValueError, match="out of range"):
        mttkrp(np.ones((2, 3, 4)), factors, mode)
    with pytest.raises(ValueError, match="out of range"):
        kr_gram(factors, mode)


@pytest.mark.parametrize(
    "shapes",
    [[(2, 2), (3, 2), (5, 2)], [(2, 2), (3, 2)], [(2, 2), (3, 1), (4, 2)], [(2, 2), (3,), (4, 2)]],
)
def test_mttkrp_rejects_mismatched_factors(shapes):
    # wrong row count, too few modes, uneven column counts, a 1-d factor
    with pytest.raises(ValueError, match="do not match"):
        mttkrp(np.ones((2, 3, 4)), [np.ones(s) for s in shapes], 0)


class TestKhatriRao:
    def test_hand_expansion_two_factors(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        # column-wise Kronecker with A entering first: call with A last
        # in ascending-mode order so it leads the product.
        kr = khatri_rao([b, a])
        expected = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 4.0], [3.0, 0.0]])
        assert np.array_equal(kr, expected)

    def test_zero_factor_gives_zero(self):
        rng = np.random.default_rng(0)
        f = [rng.standard_normal((3, 2)), np.zeros((4, 2)), rng.standard_normal((5, 2))]
        assert not khatri_rao(f, skip=0).any()

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(ValueError):
            khatri_rao([np.zeros((3, 2)), np.zeros((4, 3))])

    def test_identity_with_unfolding(self):
        rng = np.random.default_rng(3)
        f = [rng.standard_normal((n, 3)) for n in (3, 4, 5)]
        full = cp_reconstruct(f)
        for j in range(3):
            lhs = unfold(full, j)
            rhs = f[j] @ khatri_rao(f, skip=j).T
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


class TestCpReconstruct:
    def test_rank_one_entry(self):
        f = [
            np.array([[1.0], [2.0]]),
            np.array([[3.0], [4.0]]),
            np.array([[5.0], [6.0]]),
        ]
        t = cp_reconstruct(f)
        assert t[1, 0, 0] == 30.0
        assert t[0, 1, 1] == 1.0 * 4.0 * 6.0

    def test_zero_factors(self):
        assert not cp_reconstruct([np.zeros((2, 3))] * 3).any()

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        f = [rng.standard_normal((n, 4)) for n in (3, 4, 5)]
        g = [m.copy() for m in f]
        g[0][:, 2] *= 7.5
        g[1][:, 2] /= 7.5
        t1, t2 = cp_reconstruct(f), cp_reconstruct(g)
        assert np.linalg.norm(t1 - t2) <= 1e-12 * np.linalg.norm(t1)

    def test_empty_factor_set_is_zero(self):
        t = cp_reconstruct([np.zeros((3, 0)), np.zeros((4, 0)), np.zeros((5, 0))])
        assert t.shape == (3, 4, 5)
        assert not t.any()


def _sigma_max(m):
    return np.linalg.svd(m, compute_uv=False)[0]


class TestSpectralNormEst:
    def test_identity(self):
        assert spectral_norm_est(np.eye(3)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm_est(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_against_svd(self):
        m = np.random.default_rng(5).standard_normal((20, 8))
        assert spectral_norm_est(m) == pytest.approx(_sigma_max(m), rel=1e-12)

    @pytest.mark.parametrize("shape", [(8, 20), (1, 6), (6, 1), (10, 10)])
    def test_rectangular(self, shape):
        m = np.random.default_rng(7).standard_normal(shape)
        assert spectral_norm_est(m) == pytest.approx(_sigma_max(m), rel=1e-12)

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 7))
        assert np.linalg.matrix_rank(m) == 2
        assert spectral_norm_est(m) == pytest.approx(_sigma_max(m), rel=1e-12)
        # a rank-one Gram, as a Hadamard product of rank-one Grams is
        v = rng.standard_normal((5, 1))
        assert spectral_norm_est(v @ v.T) == pytest.approx(np.sum(v * v), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = rng.standard_normal((7, 5))
            est = spectral_norm_est(m)
            assert est <= np.linalg.norm(m) * (1 + 1e-12)
            assert est >= np.linalg.norm(m, axis=0).max() * (1 - 1e-12)

    def test_zero_matrix(self):
        assert spectral_norm_est(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        assert spectral_norm_est(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gives_nan(self, bad):
        m = np.ones((3, 3))
        m[1, 2] = bad
        assert math.isnan(spectral_norm_est(m))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            spectral_norm_est(np.ones(3))


class TestMaskedResidual:
    def test_exact_fit(self):
        rng = np.random.default_rng(2)
        f = [rng.standard_normal((n, 2)) for n in (3, 3, 3)]
        d = cp_reconstruct(f)
        mask = sample_mask((3, 3, 3), 0.3, seed=1)
        res, value = masked_residual(d, f, mask)
        assert value == pytest.approx(0.0, abs=1e-20)
        assert not res[mask.complement().multi_indices()].any()

    def test_empty_mask(self):
        f = [np.ones((2, 1))] * 3
        mask = ObservationMask((2, 2, 2), np.array([], dtype=np.int64))
        res, value = masked_residual(np.ones((2, 2, 2)), f, mask)
        assert value == 0.0
        assert not res.any()

    def test_single_entry_difference(self):
        f = [np.zeros((2, 1))] * 3
        d = np.zeros((2, 2, 2))
        d[1, 0, 1] = 3.0
        lin = np.ravel_multi_index((1, 0, 1), (2, 2, 2), order="F")
        mask = ObservationMask((2, 2, 2), np.array([lin], dtype=np.int64))
        res, value = masked_residual(d, f, mask)
        assert value == 9.0
        assert res[1, 0, 1] == 3.0

    def test_value_is_plain_squared_norm(self):
        rng = np.random.default_rng(4)
        f = [rng.standard_normal((n, 2)) for n in (3, 4, 5)]
        d = rng.standard_normal((3, 4, 5))
        mask = sample_mask((3, 4, 5), 0.4, seed=9)
        res, value = masked_residual(d, f, mask)
        assert value == pytest.approx(np.sum(res**2), rel=1e-12)

    def test_shape_mismatch(self):
        f = [np.zeros((2, 1))] * 3
        mask = sample_mask((2, 2, 2), 0.0, seed=0)
        with pytest.raises(ValueError):
            masked_residual(np.zeros((3, 2, 2)), f, mask)


class TestSampleMask:
    def test_rate_zero_observes_everything(self):
        mask = sample_mask((3, 4, 5), 0.0, seed=0)
        assert mask.count == 60
        assert np.array_equal(mask.linear_indices, np.arange(60))

    def test_count_matches_rounding(self):
        mask = sample_mask((50, 50, 50), 0.9, seed=123)
        assert mask.count == 12500

    def test_unique_and_in_bounds_many_seeds(self):
        for seed in range(1000):
            mask = sample_mask((4, 4, 4), 0.5, seed=seed)
            idx = mask.linear_indices
            assert idx.size == 32
            assert len(np.unique(idx)) == 32
            assert idx.min() >= 0 and idx.max() < 64

    def test_uniform_marginal(self):
        counts = np.zeros(64)
        for seed in range(10_000):
            mask = sample_mask((4, 4, 4), 0.5, seed=seed)
            counts[mask.linear_indices] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            sample_mask((4, 4, 4), 1.0, seed=0)

    def test_deterministic(self):
        a = sample_mask((6, 6, 6), 0.7, seed=42)
        b = sample_mask((6, 6, 6), 0.7, seed=42)
        assert np.array_equal(a.linear_indices, b.linear_indices)

    @pytest.mark.parametrize("shape, missing", [((1, 1), 0.6), ((2, 3), 0.95)])
    def test_nothing_observed(self, shape, missing):
        assert sample_mask(shape, missing, seed=0).count == 0


def _sample_mask_loop(shape, missing_rate, seed):
    """The partial Fisher-Yates shuffle one step at a time, with a dict of
    the positions moved so far: the reference for the vectorized replay."""
    total = math.prod(shape)
    m = int(round((1.0 - missing_rate) * total))
    if m >= total:
        return np.arange(total, dtype=np.int64)
    rng = np.random.default_rng(seed)
    positions = np.arange(m, dtype=np.int64)
    draws = positions + np.floor(rng.random(m) * (total - positions)).astype(np.int64)
    swapped = {}
    out = np.empty(m, dtype=np.int64)
    for i in range(m):
        j = int(draws[i])
        out[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    return np.sort(out)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.lists(st.integers(1, 12), min_size=2, max_size=4),
    missing=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_mask_equals_the_loop(shape, missing, seed):
    # small shapes with any rate make long chains of steps that land on
    # positions an earlier step already moved
    got = sample_mask(shape, missing, seed).linear_indices
    assert np.array_equal(got, _sample_mask_loop(shape, missing, seed))


@pytest.mark.parametrize("shape, missing", [((30, 30, 30), 0.7), ((100, 100, 100), 0.9)])
def test_sample_mask_equals_the_loop_at_gate_sizes(shape, missing):
    for seed in (0, 1):
        got = sample_mask(shape, missing, seed).linear_indices
        assert np.array_equal(got, _sample_mask_loop(shape, missing, seed))


class TestObservationMask:
    def test_dense_round_trip(self):
        mask = sample_mask((3, 4, 5), 0.6, seed=8)
        again = ObservationMask.from_dense(mask.dense())
        assert np.array_equal(mask.linear_indices, again.linear_indices)

    def test_complement(self):
        mask = sample_mask((3, 3, 3), 0.4, seed=2)
        comp = mask.complement()
        assert mask.count + comp.count == 27
        assert not np.intersect1d(mask.linear_indices, comp.linear_indices).size
        # disjoint, sorted int64 offsets covering every entry, also when
        # one side is empty
        for missing in (0.0, 0.3, 0.9):
            mask = sample_mask((4, 5, 6), missing, seed=3)
            comp = mask.complement()
            for m in (mask, comp):
                assert m.linear_indices.dtype == np.int64
                assert np.all(np.diff(m.linear_indices) > 0)
            assert not np.intersect1d(mask.linear_indices, comp.linear_indices).size
            union = np.union1d(mask.linear_indices, comp.linear_indices)
            assert np.array_equal(union, np.arange(mask.total))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ObservationMask((2, 2, 2), np.array([1, 1, 3], dtype=np.int64))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ObservationMask((2, 2, 2), np.array([8], dtype=np.int64))

    @pytest.mark.parametrize("shape, offsets", [((65536,) * 6, []), ((65536,) * 4, [5])])
    def test_rejects_total_beyond_int64(self, shape, offsets):
        # 2^96 and 2^64 entries, which wrap to 0 in int64 arithmetic
        with pytest.raises(ValueError, match="entries"):
            ObservationMask(shape, np.array(offsets, dtype=np.int64))
        with pytest.raises(ValueError, match="entries"):
            sample_mask(shape, 0.5, seed=0)

    def test_total_is_exact_near_int64_limit(self):
        shape = (3037000499, 3037000499)  # just below 2^63 - 1 entries
        mask = ObservationMask(shape, np.array([5, 3037000499**2 - 1], dtype=np.int64))
        assert mask.total == 3037000499**2
        assert mask.count == 2
