"""Shared brute-force oracles for the test suite."""

import numpy as np

# The acceptance gate's c8 robust-PCA instance: 30^3, rank 5 with graded
# component weights, k_init 10, noise 0.1 and 10% sparse corruption.
# ExperimentSpec keyword arguments; solver, lambdas and seeds are the caller's.
C8 = dict(task="trpca", shape=(30, 30, 30), true_rank=5, k_init=10, noise_level=0.1,
          sparse_density=0.1, weights_mode="linear")


def grid_minimize(fun, lo, hi, coarse=1e-3, fine=1e-7):
    """Two-stage dense grid search for the minimizer of a 1-D function.

    A coarse pass brackets the minimum, a fine pass resolves it to the
    `fine` step. Assumes nothing beyond the objective being cheap to
    evaluate on vectors.
    """
    xs = np.arange(lo, hi + coarse, coarse)
    i = int(np.argmin(fun(xs)))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, xs.size - 1)]
    xs = np.arange(a, b + fine, fine)
    return float(xs[np.argmin(fun(xs))])
