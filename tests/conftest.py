import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=50, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def ar1_gamma():
    """Inner product matrix of the phi=0.7 autoregressive model, p=4."""
    from tailgraph import ar1_matrix, theoretical_ipm

    return theoretical_ipm(ar1_matrix(0.7, 4))


@pytest.fixture(scope="session")
def overflow_sample():
    """3000 x 4 AR(1) sample with 40 rows set to 1e308 in three columns: the
    squares of those rows overflow float64, their L2 norms do not."""
    from tailgraph import TailSample, ar1_matrix, construct, sample_noise

    X = construct(ar1_matrix(0.7, 4), sample_noise(4, 3000, seed=0))
    X[np.ix_(np.random.default_rng(1).choice(3000, 40, replace=False), [0, 1, 2])] = 1e308
    return TailSample(X)


def record(report, i, j):
    """The record of pair {i, j} in a test report."""
    pair = (min(i, j), max(i, j))
    for rec in report.records:
        if (rec.i, rec.j) == pair:
            return rec
    raise KeyError((i, j))


def edge_set(graph):
    """The (i, j) pairs of a graph's edges."""
    return {(i, j) for i, j, _ in graph.edges}


def random_spd(rng, p, jitter=0.5):
    """Random symmetric positive definite matrix with bounded conditioning."""
    M = rng.normal(size=(p, p + 2))
    return M @ M.T + jitter * np.eye(p)


def with_copied_column(X, col, jitter=5e-7):
    """X with one more column: column ``col`` times ``1 + jitter N(0, 1)``, the
    normals from ``default_rng(5)``.  ``jitter=0`` gives the exact copy, whose
    pairs with a copy in the target and the other in the complement can only
    be rounding noise."""
    noise = np.random.default_rng(5).standard_normal(X.shape[0])
    return np.column_stack([X, X[:, col] * (1.0 + jitter * noise)])


def assert_singular_but_testable(sample, q_radial, mode, mass):
    """The near copy's two properties: its TPDM fails the 1e12 inversion gate
    (the runner falls back to the complement solve), and every pair with a
    well-conditioned complement keeps a conditional IPM diagonal above
    ``1e-13 max|Gamma|``, ten times the degenerate-projection gate."""
    from itertools import combinations

    from tailgraph import (ConditioningError, Partition, conditional_ipm, estimate_tpdm,
                           invert_ipm)

    gamma = estimate_tpdm(sample, q_radial=q_radial, mode=mode, mass=mass)
    with pytest.raises(ConditioningError):
        invert_ipm(gamma)
    scale = np.abs(gamma.entries).max()
    tested = 0
    for i, j in combinations(range(sample.p), 2):
        try:
            C = conditional_ipm(gamma, Partition.pair(i, j, sample.p))
        except ConditioningError:
            continue
        assert np.diag(C).min() > 1e-13 * scale, (i, j)
        tested += 1
    assert tested
