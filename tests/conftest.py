import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", max_examples=50, deadline=None,
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


def random_spd(rng, p, jitter=0.5):
    """Random symmetric positive definite matrix with bounded conditioning."""
    M = rng.normal(size=(p, p + 2))
    return M @ M.T + jitter * np.eye(p)
