import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailgraph import (
    LOG2,
    DataError,
    DomainError,
    NumericalError,
    angular_points,
    ar1_matrix,
    construct,
    sample_noise,
    softplus_inv,
    solve_delta,
    theoretical_ipm,
    theoretical_tpdm,
)

# entries of ar1(0.7, 4) @ ar1(0.7, 4)' computed by direct products:
# row i dot row j over the shared lower-triangular support
AR1_GAMMA_07 = np.array([
    [1.0, 0.7, 0.49, 0.343],
    [0.7, 1.49, 1.043, 0.7301],
    [0.49, 1.043, 1.7301, 1.21107],
    [0.343, 0.7301, 1.21107, 1.847749],
])


class TestSampleNoise:
    def test_deterministic_given_seed(self):
        a = sample_noise(3, 100, seed=42)
        b = sample_noise(3, 100, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_noise(3, 100, seed=43)
        assert not np.array_equal(a, c)

    def test_column_streams_stable_under_q(self):
        wide = sample_noise(5, 50, seed=7)
        narrow = sample_noise(3, 50, seed=7)
        np.testing.assert_array_equal(wide[:, :3], narrow)

    def test_support_bounded_below(self):
        delta = solve_delta()
        z = sample_noise(1, 10 ** 6, seed=12)
        assert z.min() > 1.0 - delta > 0.0

    def test_shifted_pareto_exact_tail(self):
        # P(Z > z) = (z + delta)^-2 exactly for the shifted Pareto
        delta = solve_delta()
        z = sample_noise(1, 10 ** 6, seed=3)[:, 0]
        est = (10.0 + delta) ** 2 * (z > 10.0).mean()
        assert 0.9 <= est <= 1.1

    def test_shifted_pareto_asymptotic_unit_scale(self):
        z = sample_noise(1, 4 * 10 ** 6, seed=2)[:, 0]
        est = 30.0 ** 2 * (z > 30.0).mean()
        assert 0.9 <= est <= 1.1

    def test_frechet_unit_scale(self):
        z = sample_noise(1, 10 ** 6, "frechet", seed=3)[:, 0]
        est = 10.0 ** 2 * (z > 10.0).mean()
        assert 0.9 <= est <= 1.1

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            sample_noise(0, 10)

    def test_rejects_bad_distribution(self):
        with pytest.raises(DomainError):
            sample_noise(1, 10, "cauchy")


class TestConstruct:
    def test_identity_matrix_returns_noise(self):
        Z = sample_noise(3, 50, seed=1)
        np.testing.assert_allclose(construct(np.eye(3), Z), Z, atol=1e-10)

    def test_zero_row_gives_log2(self):
        A = np.array([[1.0, 0.5], [0.0, 0.0]])
        Z = sample_noise(2, 40, seed=2)
        X = construct(A, Z)
        np.testing.assert_allclose(X[:, 1], np.full(40, LOG2), atol=1e-14)

    def test_ar1_recursion(self):
        # X_i = phi * X_{i-1} (+) Z_i at the preimage level
        phi = 0.7
        A = ar1_matrix(phi, 4)
        Z = sample_noise(4, 200, seed=3)
        X = construct(A, Z)
        Y = softplus_inv(X)
        W = softplus_inv(Z)
        np.testing.assert_allclose(Y[:, 0], W[:, 0], atol=1e-10)
        for i in range(1, 4):
            np.testing.assert_allclose(Y[:, i], phi * Y[:, i - 1] + W[:, i], atol=1e-10)

    def test_output_strictly_positive(self):
        A = np.array([[-2.0, 1.0], [1.0, -3.0]])
        Z = sample_noise(2, 100, seed=4)
        assert construct(A, Z).min() > 0.0

    def test_underflowed_cell_is_the_least_positive_double(self):
        """A heavy noise draw times -10 has a preimage below -745, where exp(y)
        underflows; seed 0 reaches 3 such rows of 10,000."""
        Z = sample_noise(2, 10_000, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "columns .* carry no tail mass", UserWarning)
            X = construct([[1.0, -10.0]], Z)
        assert X.shape == (10_000, 1) and X.min() > 0.0
        assert np.count_nonzero(X == 5e-324) >= 3

    def test_nonpositive_column_warns(self):
        A = np.array([[1.0, -1.0], [0.5, -2.0]])
        Z = sample_noise(2, 20, seed=5)
        with pytest.warns(UserWarning, match="no positive entry"):
            construct(A, Z)

    @pytest.mark.parametrize("cell, error, match", [
        (np.nan, DataError, "coefficient matrix must be finite"),
        (-np.inf, DataError, "coefficient matrix must be finite"),
        (1e308, NumericalError, "past the float64 range"),
    ])
    def test_coefficient_matrix_checked_on_entry(self, cell, error, match):
        Z = sample_noise(2, 100, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the product
            with pytest.raises(error, match=match):
                construct(np.full((2, 2), cell), Z)

    def test_scalar_noise_is_one_row(self):
        np.testing.assert_allclose(construct(np.eye(1), 5.0), [[5.0]], rtol=1e-15)

    def test_composition_on_sampled_data(self):
        rng = np.random.default_rng(6)
        A = np.abs(rng.normal(size=(3, 4))) + 0.1
        B = np.abs(rng.normal(size=(2, 3))) + 0.1
        Z = sample_noise(4, 300, seed=6)
        np.testing.assert_allclose(construct(B, construct(A, Z)),
                                   construct(B @ A, Z), atol=1e-10)


class TestAr1Matrix:
    def test_structure(self):
        phi = 0.3
        A = ar1_matrix(phi, 4)
        expected = np.array([
            [1, 0, 0, 0],
            [phi, 1, 0, 0],
            [phi ** 2, phi, 1, 0],
            [phi ** 3, phi ** 2, phi, 1],
        ])
        np.testing.assert_allclose(A, expected, atol=0)

    def test_corner_entry(self):
        assert ar1_matrix(0.7, 4)[3, 0] == pytest.approx(0.343)

    def test_p_one(self):
        np.testing.assert_array_equal(ar1_matrix(0.5, 1), [[1.0]])

    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.2, 1.5])
    def test_phi_domain(self, phi):
        with pytest.raises(DomainError):
            ar1_matrix(phi, 4)


class TestTheoreticalMatrices:
    def test_identity(self):
        np.testing.assert_array_equal(theoretical_ipm(np.eye(3)).entries, np.eye(3))

    def test_ar1_frozen_values(self):
        G = theoretical_ipm(ar1_matrix(0.7, 4))
        np.testing.assert_allclose(G.entries, AR1_GAMMA_07, atol=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_gram_psd(self, p, q, seed):
        A = np.random.default_rng(seed).normal(size=(p, q))
        eig = np.linalg.eigvalsh(theoretical_ipm(A).entries)
        assert eig.min() >= -1e-12

    def test_tpdm_equals_ipm_for_nonnegative(self):
        A = np.abs(np.random.default_rng(0).normal(size=(3, 5)))
        np.testing.assert_allclose(theoretical_tpdm(A).entries,
                                   theoretical_ipm(A).entries, atol=0)

    def test_tpdm_clips_negative_entries(self):
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(theoretical_tpdm(A).entries, np.eye(2), atol=0)

    def test_ar1_tpdm_matches_ipm(self):
        A = ar1_matrix(0.7, 4)
        np.testing.assert_allclose(theoretical_tpdm(A).entries, AR1_GAMMA_07, atol=1e-12)


class TestAngularPoints:
    def test_identity_two_dim(self):
        pts = angular_points(np.eye(2))
        assert len(pts) == 2
        np.testing.assert_allclose(pts[0].direction, [1.0, 0.0], atol=0)
        assert pts[0].mass == pytest.approx(1.0)
        assert sum(p.mass for p in pts) == pytest.approx(2.0)

    def test_three_four_five_column(self):
        pts = angular_points(np.array([[3.0], [4.0]]))
        assert pts[0].mass == pytest.approx(25.0)
        np.testing.assert_allclose(pts[0].direction, [0.6, 0.8], atol=1e-15)

    def test_total_mass_is_tpdm_trace(self):
        A = ar1_matrix(0.7, 4)
        total = sum(p.mass for p in angular_points(A))
        assert total == pytest.approx(6.067849, abs=1e-12)
        assert total == pytest.approx(np.trace(theoretical_tpdm(A).entries), abs=1e-12)

    def test_unit_directions(self):
        A = np.random.default_rng(8).normal(size=(4, 6))
        for pt in angular_points(A):
            assert np.linalg.norm(pt.direction) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_column_skipped_with_warning(self):
        A = np.array([[1.0, -1.0], [0.0, -2.0]])
        with pytest.warns(UserWarning, match="zero clipped norm"):
            pts = angular_points(A)
        assert len(pts) == 1
        assert pts[0].column == 0
