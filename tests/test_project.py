import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailgraph import (
    LOG2,
    ConditioningError,
    DegenerateProjectionError,
    DimensionError,
    DomainError,
    NumericalError,
    Partition,
    ar1_matrix,
    conditional_ipm,
    invert_ipm,
    predict,
    project_onto_span,
    ptc,
    ptc_from_inverse,
    ptc_matrix,
    softplus,
    solve_b,
    theoretical_ipm,
)
from tailgraph import project, tpdm
from conftest import random_spd


def ar1_precision(phi):
    """Tridiagonal inverse of the AR model's inner product matrix.

    Derived from Gamma = A A' with A the lower-triangular powers matrix:
    the inverse is B'B for the bidiagonal B = A^-1, giving diagonal
    (1+phi^2, 1+phi^2, 1+phi^2, 1) and off-diagonal -phi.
    """
    return np.array([
        [1 + phi ** 2, -phi, 0, 0],
        [-phi, 1 + phi ** 2, -phi, 0],
        [0, -phi, 1 + phi ** 2, -phi],
        [0, 0, -phi, 1],
    ])


class TestPartition:
    def test_pair_covers_everything(self):
        part = Partition.pair(1, 3, 5)
        assert part.target == (1, 3)
        assert part.complement == (0, 2, 4)

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            Partition(target=(0, 1), complement=(1, 2))

    def test_rejects_equal_pair(self):
        with pytest.raises(DomainError):
            Partition.pair(2, 2, 4)


class TestSolveB:
    @pytest.mark.parametrize("phi", [0.3, 0.5, 0.7, 0.9])
    def test_ar1_optimal_weights(self, phi):
        G = theoretical_ipm(ar1_matrix(phi, 4))
        b = solve_b(G, Partition.single(3, 4))
        np.testing.assert_allclose(b, [0.0, 0.0, phi], atol=1e-10)

    def test_identity_complement_block(self):
        G = np.eye(4)
        G[3, :3] = G[:3, 3] = [0.2, 0.3, 0.1]
        b = solve_b(G, Partition.single(3, 4))
        np.testing.assert_allclose(b, [0.2, 0.3, 0.1], atol=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=4, max_value=8))
    def test_matches_dense_solver(self, seed, p):
        G = random_spd(np.random.default_rng(seed), p)
        part = Partition.single(p - 1, p)
        b = solve_b(G, part)
        oracle = np.linalg.solve(G[:-1, :-1], G[:-1, -1])
        np.testing.assert_allclose(b, oracle, atol=1e-9)

    def test_pair_targets_give_matrix(self):
        G = random_spd(np.random.default_rng(0), 5)
        b = solve_b(G, Partition.pair(0, 1, 5))
        assert b.shape == (3, 2)

    def test_singular_block_raises_with_estimate(self):
        G = np.ones((3, 3)) + np.eye(3) * 1e-15
        G[0, 0] = 2.0
        with pytest.raises(ConditioningError, match="condition number estimate") as exc:
            solve_b(G, Partition.single(0, 3))
        assert float(str(exc.value).split("estimate ")[1].split()[0]) > 1e12

    def test_graded_complement_block_meets_residual_check(self):
        # complement variables on scales 1e-5 ... 1: cond 1.1e10, inside the gate.
        # Triangular solves leave a residual near 1e-14 |rhs|; an explicit inverse
        # of the factor would leave about 3e-9 |rhs| and fail the 1e-10 check.
        m = 8
        d = np.logspace(-5, 0, m)
        G22 = 0.3 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m))) * np.outer(d, d)
        G = np.eye(m + 1)
        G[1:, 1:] = G22
        G[0, 1:] = G[1:, 0] = 1.0
        b = solve_b(G, Partition.single(0, m + 1))
        assert np.abs(G22 @ b - 1.0).max() < 1e-12
        np.testing.assert_allclose(b, np.linalg.solve(G22, np.ones(m)), rtol=1e-6)

    @pytest.mark.parametrize("G", [
        [[0.5, 0.9, 0.9], [0.9, 1e-309, 0.0], [0.9, 0.0, 1e-309]],
        [[0.5, 0.9, 0.9, 0.9], [0.9, 1e-308, 0.0, 0.0], [0.9, 0.0, 1e-308, 0.0],
         [0.9, 0.0, 0.0, 1e-308]],
    ], ids=["weights overflow", "C overflows"])
    @pytest.mark.parametrize("fn", [solve_b, conditional_ipm])
    def test_weights_past_the_float64_range(self, fn, G):
        """An indefinite Gamma whose complement block passes the condition gate
        but lies far below its coupling: b or C leaves the float64 range, which
        is a NumericalError, not numpy's warning and a NaN or an infinity."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^prediction weights lie past the float64"):
                fn(np.array(G), Partition.single(0, len(G)))

    def test_duplicate_variable_rejected(self):
        # a duplicated column makes the complement block exactly singular
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        G = A @ A.T
        with pytest.raises(ConditioningError):
            solve_b(G, Partition.single(0, 3))


class TestPredict:
    def test_unit_weight_selects_component(self):
        x2 = softplus(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(predict(np.array([0.0, 1.0, 0.0]), x2),
                                   [x2[1]], atol=1e-12)

    def test_zero_weights_give_log2(self):
        x2 = softplus(np.array([5.0, -1.0]))
        np.testing.assert_allclose(predict(np.zeros(2), x2), [LOG2], atol=1e-14)

    def test_ar1_prediction_uses_last_component(self):
        from tailgraph import construct, sample_noise, tscale

        phi = 0.7
        G = theoretical_ipm(ar1_matrix(phi, 4))
        b = solve_b(G, Partition.single(3, 4))
        X = construct(ar1_matrix(phi, 4), sample_noise(4, 50, seed=1))
        for row in X[:5]:
            got = predict(b, row[:3])
            np.testing.assert_allclose(got, tscale(phi, row[2:3]), atol=1e-10)


class TestConditionalIPM:
    def test_identity(self):
        C = conditional_ipm(np.eye(4), Partition.pair(0, 1, 4))
        np.testing.assert_allclose(C, np.eye(2), atol=0)

    def test_ar1_lag2_offdiagonal_zero(self):
        G = theoretical_ipm(ar1_matrix(0.7, 4))
        C = conditional_ipm(G, Partition.pair(1, 3, 4))
        assert abs(C[0, 1]) < 1e-10

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matches_explicit_inverse_oracle(self, seed):
        G = random_spd(np.random.default_rng(seed), 6)
        part = Partition.pair(0, 1, 6)
        C = conditional_ipm(G, part)
        t, c = list(part.target), list(part.complement)
        oracle = G[np.ix_(t, t)] - G[np.ix_(t, c)] @ np.linalg.inv(G[np.ix_(c, c)]) @ G[np.ix_(c, t)]
        np.testing.assert_allclose(C, oracle, atol=1e-9)

    def test_negative_offdiagonal_accepted(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        G = A @ A.T
        C = conditional_ipm(G, Partition.pair(0, 1, 3))
        assert C[0, 1] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_empty_complement_returns_target_block(self):
        G = np.array([[2.0, 0.5], [0.5, 1.0]])
        C = conditional_ipm(G, Partition.pair(0, 1, 2))
        np.testing.assert_allclose(C, G, atol=0)

    @pytest.mark.parametrize("error, fails", [(0.0, False), (1e-13, False), (1e-8, True),
                                              (1e-3, True)])
    def test_residual_check_matches_solve_b(self, monkeypatch, error, fails):
        """A solve off by a relative ``error`` leaves a residual of about
        ``error |rhs|``; above 1e-10 |rhs| all three fail, with one message."""
        monkeypatch.setattr(project, "_cho_solve", lambda L, rhs, real=project._cho_solve:
                            real(L, rhs) * (1.0 + error))
        G = theoretical_ipm(ar1_matrix(0.7, 5))
        part = Partition.pair(1, 3, 5)
        outcomes = []
        for call in (solve_b, conditional_ipm, lambda G, part: ptc(G, *part.target)):
            try:
                call(G, part)
                outcomes.append(None)
            except ConditioningError as exc:
                outcomes.append(str(exc))
        assert outcomes == [outcomes[0]] * 3
        assert (outcomes[0] or "").startswith("solve residual too large") == fails


class TestPtc:
    def test_identity_gamma(self):
        assert ptc(np.eye(4), 0, 2) == pytest.approx(0.0, abs=1e-15)

    def test_ar1_lag2_is_zero(self):
        # the paper's identity: a zero in the inverse Theta is a zero PTC.  The
        # AR chain's Theta is tridiagonal, so every pair at lag >= 2 has zero
        # PTC, by the inverse and by the Schur path; every lag-1 pair does not.
        for phi in (0.3, 0.7, 0.95):
            for p in range(3, 9):
                G = theoretical_ipm(ar1_matrix(phi, p))
                theta = invert_ipm(G).entries
                rho = project.ptc_matrix_from_inverse(theta)
                for i in range(p):
                    for j in range(i + 1, p):
                        case = f"phi={phi}, p={p}, pair ({i}, {j})"
                        if j - i == 1:
                            assert rho[i, j] > 0.25, case
                            continue
                        assert abs(theta[i, j]) <= 1e-12 * np.abs(theta).max(), case
                        assert abs(rho[i, j]) <= 1e-12, case
                        assert abs(ptc(G, i, j)) <= 1e-12, case

    def test_ar1_adjacent_pair(self):
        # block-inversion oracle from the true tridiagonal inverse:
        # rho(1,2) = phi / sqrt((1+phi^2)(1+phi^2)) = phi / (1+phi^2)
        phi = 0.7
        G = theoretical_ipm(ar1_matrix(phi, 4))
        assert ptc(G, 0, 1) == pytest.approx(phi / (1 + phi ** 2), abs=1e-9)

    def test_ar1_last_pair(self):
        phi = 0.7
        G = theoretical_ipm(ar1_matrix(phi, 4))
        assert ptc(G, 2, 3) == pytest.approx(phi / np.sqrt(1 + phi ** 2), abs=1e-9)

    def test_symmetry_in_pair(self):
        G = random_spd(np.random.default_rng(4), 5)
        assert ptc(G, 1, 3) == pytest.approx(ptc(G, 3, 1), abs=1e-14)

    def test_degenerate_target_raises(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        G = A @ A.T + 0.0
        with pytest.raises((DegenerateProjectionError, ConditioningError)):
            ptc(G, 0, 1)  # X1 duplicated in the complement (X3)


class TestPtcFromInverse:
    def test_zero_entry(self):
        Q = np.diag([1.0, 2.0, 3.0])
        assert ptc_from_inverse(Q, 0, 1) == 0.0

    def test_ar1_adjacent_from_precision(self):
        phi = 0.7
        Q = ar1_precision(phi)
        assert ptc_from_inverse(Q, 0, 1) == pytest.approx(phi / (1 + phi ** 2), abs=1e-12)
        assert ptc_from_inverse(Q, 2, 3) == pytest.approx(phi / np.sqrt(1 + phi ** 2), abs=1e-12)

    @pytest.mark.parametrize("Q", [
        [[2e-200, -1e-200], [-1e-200, 3e-200]],  # d_i d_j underflows
        [[2.0, -1.0, 0.0], [-1.0, 3.0, 0.0], [0.0, 0.0, 1e-300]],  # another d_k d_k does
    ])
    def test_scaled_formula_warns_nothing(self, Q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ptc_from_inverse(np.array(Q), 0, 1)
        assert abs(got - 1 / math.sqrt(6)) <= np.spacing(1 / math.sqrt(6))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=3, max_value=8))
    def test_dual_path_identity(self, seed, p):
        rng = np.random.default_rng(seed)
        G = random_spd(rng, p)
        Ginv = invert_ipm(G).entries
        i, j = rng.choice(p, size=2, replace=False)
        assert ptc(G, int(i), int(j)) == pytest.approx(
            ptc_from_inverse(Ginv, int(i), int(j)), abs=1e-10)

    def test_planted_zero_pattern(self):
        # plant zeros in a precision matrix; the b-weight for the first
        # variable vanishes exactly when the partial tail correlation does
        rng = np.random.default_rng(7)
        p = 5
        Q = random_spd(rng, p, jitter=3.0)
        Q[0, p - 1] = Q[p - 1, 0] = 0.0
        G = np.linalg.inv(Q)
        b = solve_b(G, Partition.single(p - 1, p))
        assert abs(b[0]) < 1e-10
        assert abs(ptc(G, 0, p - 1)) < 1e-10
        # a nonzero precision entry gives nonzero weight and correlation
        assert abs(Q[1, p - 1]) > 1e-8
        assert abs(b[1]) > 1e-8
        assert abs(ptc(G, 1, p - 1)) > 1e-8


class TestInvertIpm:
    def test_identity(self):
        np.testing.assert_allclose(invert_ipm(np.eye(3)).entries, np.eye(3), atol=0)

    def test_two_by_two_adjugate(self):
        a, b, c = 2.0, 0.3, 1.5
        G = np.array([[a, b], [b, c]])
        det = a * c - b * b
        expected = np.array([[c, -b], [-b, a]]) / det
        np.testing.assert_allclose(invert_ipm(G).entries, expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.3, 0.5, 0.7, 0.9])
    def test_ar1_tridiagonal_inverse(self, phi):
        G = theoretical_ipm(ar1_matrix(phi, 4))
        np.testing.assert_allclose(invert_ipm(G).entries, ar1_precision(phi), atol=1e-10)

    def test_product_is_identity(self):
        G = random_spd(np.random.default_rng(3), 7)
        inv = invert_ipm(G).entries
        assert np.abs(G @ inv - np.eye(7)).max() < 1e-8

    def test_singular_raises(self):
        with pytest.raises(ConditioningError):
            invert_ipm(np.ones((3, 3)))


class TestPtcMatrix:
    def test_diagonal_nan_and_symmetry(self):
        G = random_spd(np.random.default_rng(1), 4)
        M = ptc_matrix(G)
        assert np.all(np.isnan(np.diag(M)))
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(M[off], M.T[off], atol=1e-12)

    def test_matches_pointwise_ptc(self):
        G = random_spd(np.random.default_rng(2), 5)
        M = ptc_matrix(G)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert M[i, j] == pytest.approx(ptc(G, i, j), abs=1e-10)


class TestProjectOntoSpan:
    def test_vector_in_span(self):
        rng = np.random.default_rng(0)
        A2 = rng.normal(size=(3, 6))
        x = np.array([1.0, -2.0, 0.5]) @ A2
        proj, resid = project_onto_span(x, A2)
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)
        np.testing.assert_allclose(proj, x, atol=1e-12)

    def test_orthogonal_vector(self):
        A2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = np.array([0.0, 0.0, 3.0])
        proj, resid = project_onto_span(x, A2)
        np.testing.assert_allclose(proj, 0.0, atol=1e-14)
        np.testing.assert_allclose(resid, x, atol=1e-14)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_against_least_squares_oracle(self, seed):
        rng = np.random.default_rng(seed)
        A2 = rng.normal(size=(3, 6))
        x = rng.normal(size=6)
        proj, resid = project_onto_span(x, A2)
        coef, *_ = np.linalg.lstsq(A2.T, x, rcond=None)
        np.testing.assert_allclose(proj, coef @ A2, atol=1e-9)
        # orthogonality and exact reconstruction
        np.testing.assert_allclose(A2 @ resid, 0.0, atol=1e-10)
        np.testing.assert_allclose(proj + resid, x, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        A2 = rng.normal(size=(2, 5))
        x, y = rng.normal(size=5), rng.normal(size=5)
        a, b = 1.7, -0.4
        px, _ = project_onto_span(x, A2)
        py, _ = project_onto_span(y, A2)
        pz, _ = project_onto_span(a * x + b * y, A2)
        np.testing.assert_allclose(pz, a * px + b * py, atol=1e-10)

    def test_generator_reordering_invariance(self):
        rng = np.random.default_rng(6)
        A2 = rng.normal(size=(3, 7))
        x = rng.normal(size=7)
        p1, r1 = project_onto_span(x, A2)
        p2, r2 = project_onto_span(x, A2[::-1])
        np.testing.assert_allclose(p1, p2, atol=1e-10)
        np.testing.assert_allclose(r1, r2, atol=1e-10)

    def test_rank_deficiency_raises(self):
        A2 = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(ConditioningError):
            project_onto_span(np.ones(3), A2)


@pytest.mark.parametrize("call", [
    lambda: invert_ipm(np.zeros((0, 0))),
    lambda: ptc_matrix(np.zeros((0, 0))),
    lambda: project_onto_span(np.ones(3), np.zeros((0, 3))),
], ids=["invert_ipm", "ptc_matrix", "project_onto_span"])
def test_empty_block_is_a_dimension_error(call):
    with pytest.raises(DimensionError, match="empty"):
        call()


class TestScaleAndSymmetry:
    """Each quantity of the inner-product layer is computed once, at any float64 scale."""

    G = theoretical_ipm(ar1_matrix(0.7, 4)).entries
    # asymmetric by half an entry, but every entry below IPMatrix's absolute tolerance
    TINY_ASYMMETRIC = np.array([[1e-13, 5e-14, 0.0], [0.0, 1e-13, 0.0], [0.0, 0.0, 1e-13]])

    @staticmethod
    def _quiet(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call()

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_ptc_is_scale_free(self, scale):
        got = self._quiet(lambda: ptc(self.G * scale, 0, 1))
        assert got == pytest.approx(ptc(self.G, 0, 1), rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("e", [-600, 600])
    def test_ptc_is_exact_under_a_power_of_two(self, e):
        for i, j in [(0, 1), (0, 3), (1, 2)]:
            assert self._quiet(lambda: ptc(self.G * 2.0 ** e, i, j)) == ptc(self.G, i, j)

    def test_ptc_keeps_the_bits_of_the_unscaled_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            G = random_spd(rng, 5)
            C = conditional_ipm(G, Partition.pair(1, 3, 5))
            assert ptc(G, 1, 3) == C[0, 1] / np.sqrt(C[0, 0] * C[1, 1])

    @pytest.mark.parametrize("call", [
        lambda M: ptc_from_inverse(M, 0, 1),
        lambda M: conditional_ipm(M, Partition.pair(0, 1, 3)),
        lambda M: ptc_from_inverse(M * 1e13, 0, 1),
    ], ids=["ptc_from_inverse", "conditional_ipm", "ptc_from_inverse x1e13"])
    def test_symmetry_is_read_at_unit_scale(self, call):
        with pytest.raises(DomainError, match="must be symmetric"):
            self._quiet(lambda: call(self.TINY_ASYMMETRIC))

    def test_inverse_of_a_small_matrix_passes_the_symmetry_rule(self):
        # its rounding asymmetry, near 2**70 eps, sat where an entry is near 0
        at_unit = ptc_from_inverse(np.linalg.inv(self.G), 0, 1)
        got = self._quiet(lambda: ptc_from_inverse(np.linalg.inv(self.G * 2.0 ** -70), 0, 1))
        assert got == pytest.approx(at_unit, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("fn, power", [(invert_ipm, -1), (ptc_matrix, 0)],
                             ids=["invert_ipm", "ptc_matrix"])
    def test_symmetric_part_near_the_float64_maximum(self, fn, power):
        # its largest eigenvalue is past the range, but not at unit scale
        gamma = theoretical_ipm(ar1_matrix(0.7, 3)).entries / 2 * 1.7e308
        assert np.abs(gamma).max() > 1.4e308
        got = np.asarray(self._quiet(lambda: fn(gamma)))
        np.testing.assert_array_equal(got, np.ldexp(np.asarray(fn(gamma / 4)), 2 * power))

    def test_inverse_near_the_float64_maximum(self):
        inv = self._quiet(lambda: invert_ipm(self.G * 1e-308)).entries
        assert np.isfinite(inv).all()
        np.testing.assert_allclose(inv * 1e-308, invert_ipm(self.G).entries, atol=1e-12)

    def test_symmetric_part_near_the_float64_maximum_is_the_cell_mean(self):
        # (M + M')/2 overflows in the last column unless formed at unit scale; there the
        # asymmetric cells near 1 lie inside IPMatrix's tolerance
        x, y = 1.7e308, np.nextafter(1.7e308, np.inf)
        M = np.array([[1.0, 3.0, x], [1.0, 2.0, 0.0], [y, 0.0, 2.0]])
        S = self._quiet(lambda: tpdm.IPMatrix(M).entries)
        assert S[0, 2] == S[2, 0] == x / 2 + y / 2 and S[0, 1] == S[1, 0] == 2.0

    # condition 817, but its largest eigenvalue and its Schur products lie past the
    # float64 range unless formed at unit scale
    NEAR_MAX = np.array([[1.7e308, 1.03e308, 5.39e307], [1.03e308, 6.79e307, 3.84e307],
                         [5.39e307, 3.84e307, 2.38e307]])

    @pytest.mark.parametrize("fn, power", [
        (lambda G: solve_b(G, Partition.single(0, 3)), 0),
        (lambda G: conditional_ipm(G, Partition.single(0, 3)), 1),
        (lambda G: invert_ipm(G).entries, -1),
        (ptc_matrix, 0),
        (lambda G: ptc(G, 0, 1), 0),
    ], ids=["solve_b", "conditional_ipm", "invert_ipm", "ptc_matrix", "ptc"])
    def test_well_conditioned_gamma_near_the_float64_maximum(self, fn, power):
        got = self._quiet(lambda: fn(self.NEAR_MAX))
        np.testing.assert_array_equal(got, np.ldexp(fn(self.NEAR_MAX / 4), 2 * power))

    def test_power_of_four_equivariance_over_the_float64_range(self):
        G = theoretical_ipm(ar1_matrix(0.7, 5)).entries
        part = Partition.pair(1, 3, 5)
        inv, C, b = invert_ipm(G).entries, conditional_ipm(G, part), solve_b(G, part)

        def exponent(x):
            return math.frexp(float(x))[1]

        # every 4^j at which G 4^j is exact (its cells normal) and its inverse finite
        scales = [j for j in range(-600, 600) if exponent(G.min()) + 2 * j >= -1021
                  and exponent(G.max()) + 2 * j <= 1024
                  and exponent(np.abs(inv).max()) - 2 * j <= 1024]
        assert len(scales) > 1000
        for j in scales:
            Gj = np.ldexp(G, 2 * j)
            got = self._quiet(lambda: (invert_ipm(Gj).entries, conditional_ipm(Gj, part),
                                       solve_b(Gj, part)))
            for value, want in zip(got, (np.ldexp(inv, -2 * j), np.ldexp(C, 2 * j), b)):
                assert np.array_equal(value, want), j

    def test_target_far_below_the_rest_of_gamma_solves(self):
        # at unit scale already; its solve rounds near 5e-324, which 1e-10 |rhs| alone
        # would not cover
        G = np.array([[0.5, 1e-320, 3e-321], [1e-320, 0.5, 0.25], [3e-321, 0.25, 0.375]])
        b = self._quiet(lambda: solve_b(G, Partition.single(0, 3)))
        np.testing.assert_allclose(b, np.linalg.solve(G[1:, 1:], G[1:, 0]), rtol=0, atol=1e-322)
