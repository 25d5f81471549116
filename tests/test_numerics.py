"""Tests for the shared numerical primitives.

Oracles: direct quadrature of the incomplete-gamma integrand, scipy.special,
and round-trip reconstruction for the Takagi factorization.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from cvlearn.errors import ValidationError
from cvlearn.numerics import (
    SymmetricUnitary,
    TakagiFactor,
    check_finite,
    check_real,
    make_rng,
    psd_check,
    random_symmetric_unitary,
    regularized_upper_gamma,
    sample_complex_gaussian,
    takagi_decompose,
)


def quadrature_upper_gamma(shape, x):
    """Independent oracle: integrate t^(shape-1) e^-t / Gamma(shape) on [x, inf)."""

    def integrand(t):
        return math.exp((shape - 1.0) * math.log(t) - t - math.lgamma(shape))

    upper = max(x, shape) + 40.0 * math.sqrt(shape) + 40.0
    val, err = integrate.quad(integrand, x, upper, limit=400)
    return val


class TestRegularizedUpperGamma:
    def test_at_zero_is_one(self):
        for shape in [0.3, 1.0, 4.0, 7.5, 4000.0]:
            assert regularized_upper_gamma(shape, 0.0) == 1.0

    def test_shape_one_closed_form(self):
        for x in [0.01, 0.5, 1.0, 3.0, 20.0, 200.0]:
            assert regularized_upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_paper_value_n8(self):
        # Gamma(n, n/0.99)/Gamma(n) <= 0.492 at n = 8.
        q = regularized_upper_gamma(8.0, 8.0 / 0.99)
        assert q <= 0.492
        assert q == pytest.approx(special.gammaincc(8.0, 8.0 / 0.99), rel=1e-12)

    def test_monotone_nonincreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [regularized_upper_gamma(5.5, x) for x in xs]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        assert regularized_upper_gamma(3.0, 1e4) < 1e-300 * 1e30  # effectively 0
        assert regularized_upper_gamma(3.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 4.0, 8.0, 50.0, 500.0, 1500.0, 15000.0])
    def test_against_quadrature(self, shape):
        for frac in [0.25, 0.9, 1.0, 1.1, 2.0]:
            x = shape * frac
            q = regularized_upper_gamma(shape, x)
            oracle = quadrature_upper_gamma(shape, x)
            if oracle > 1e-280:
                assert q == pytest.approx(oracle, rel=1e-8)

    def test_against_scipy_wide_grid(self):
        rng = make_rng(11)
        for _ in range(300):
            shape = float(np.exp(rng.uniform(np.log(0.2), np.log(15000.0))))
            x = float(shape * rng.uniform(0.0, 3.0))
            q = regularized_upper_gamma(shape, x)
            ref = float(special.gammaincc(shape, x))
            assert q == pytest.approx(ref, rel=1e-10, abs=1e-280)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            regularized_upper_gamma(0.0, 1.0)
        with pytest.raises(ValidationError):
            regularized_upper_gamma(2.0, -1.0)
        with pytest.raises(ValidationError):
            regularized_upper_gamma(math.nan, 1.0)


class TestTakagi:
    def test_identity(self):
        v = takagi_decompose(SymmetricUnitary(matrix=np.eye(3))).v
        assert np.max(np.abs(v @ v.T - np.eye(3))) < 1e-10

    def test_minus_identity(self):
        u = SymmetricUnitary(matrix=-np.eye(2))
        v = takagi_decompose(u).v
        assert np.max(np.abs(v @ v.T + np.eye(2))) < 1e-10
        # iI is one valid factor; ours may differ by an orthogonal matrix.
        assert np.max(np.abs((v @ v.T) - (1j * np.eye(2)) @ (1j * np.eye(2)).T)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_round_trip_random(self, n):
        rng = make_rng(7, stream=n)
        for _ in range(5):
            u = random_symmetric_unitary(n, rng)
            fac = takagi_decompose(u)
            assert np.max(np.abs(fac.v @ fac.v.T - u.matrix)) < 1e-10

    @pytest.mark.parametrize("phases", [
        [1, 1, -1], [-1, -1, -1, 1j], [1j, 1j, -1j, 1],
        [np.exp(1j * (np.pi - 1e-9)), np.exp(-1j * (np.pi - 1e-9))]])
    def test_repeated_and_branch_straddling_spectra(self, phases):
        # R diag(phases) R^T with R real orthogonal: repeated eigenvalues, -1 (once
        # and repeated), and a pair on either side of -1, where the principal
        # square root's branch cut lies.
        n = len(phases)
        rng = make_rng(17, stream=n)
        for _ in range(5):
            r, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = r @ np.diag(phases) @ r.T
            v = takagi_decompose(SymmetricUnitary(matrix=m)).v
            assert np.max(np.abs(v @ v.T - m)) < 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10

    def test_rejects_nonsymmetric(self):
        m = np.array([[0, 1.0], [0, 0]])
        with pytest.raises(ValidationError):
            SymmetricUnitary(matrix=m)

    def test_rejects_empty_unitary(self):
        with pytest.raises(ValidationError, match="non-empty"):
            SymmetricUnitary(matrix=np.eye(0))
        for n in (0, -1):
            with pytest.raises(ValidationError, match="mode count"):
                random_symmetric_unitary(n, make_rng(3))

    def test_rejects_nonunitary_factor(self):
        with pytest.raises(ValidationError):
            TakagiFactor(v=np.array([[2.0]]))

    def test_generated_unitaries_meet_invariants(self):
        rng = make_rng(3)
        for n in [1, 2, 5]:
            u = random_symmetric_unitary(n, rng).matrix
            assert np.max(np.abs(u @ np.conj(u) - np.eye(n))) < 1e-10
            assert np.max(np.abs(u - u.T)) < 1e-10


class TestComplexGaussian:
    def test_mean_abs_square(self):
        # E|gamma|^2 = 2 n V for the stated density.
        n, var, count = 2, 0.7, 100_000
        draws = sample_complex_gaussian(n, var, count, make_rng(5))
        norms = np.sum(np.abs(draws) ** 2, axis=1)
        se = np.std(norms) / np.sqrt(count)
        assert abs(np.mean(norms) - 2 * n * var) < 3 * se

    def test_window_probability_matches_gamma_ratio(self):
        # Pr(|gamma|^2 <= 2 s2) = 1 - Q(n, s2 / V).
        n, var, count = 3, 0.4, 200_000
        s2 = 0.9
        draws = sample_complex_gaussian(n, var, count, make_rng(8))
        norms = np.sum(np.abs(draws) ** 2, axis=1)
        freq = np.mean(norms <= 2 * s2)
        target = 1.0 - regularized_upper_gamma(n, s2 / var)
        se = np.sqrt(target * (1 - target) / count)
        assert abs(freq - target) < 3 * se

    def test_zero_variance_limit(self):
        draws = sample_complex_gaussian(2, 0.0, 10, make_rng(9))
        assert np.all(draws == 0)

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValidationError, match="count must be an integer >= 1"):
            sample_complex_gaussian(1, 1.0, count, make_rng(9))

    def test_deterministic_given_seed_and_stream(self):
        a = sample_complex_gaussian(2, 1.3, 50, make_rng(42, stream=1))
        b = sample_complex_gaussian(2, 1.3, 50, make_rng(42, stream=1))
        c = sample_complex_gaussian(2, 1.3, 50, make_rng(42, stream=2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (1.5, 0), (True, 0), ("3", 0),
                                              (1, -1), (1, False), (1, 2.0)])
    def test_make_rng_rejects_bad_seed_or_stream(self, seed, stream):
        with pytest.raises(ValidationError, match="seed and stream must be integers >= 0"):
            make_rng(seed, stream)

    def test_make_rng_accepts_numpy_integers(self):
        a = make_rng(np.int64(7), stream=np.uint32(2)).standard_normal(4)
        assert np.array_equal(a, make_rng(7, stream=2).standard_normal(4))

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_complex_gaussian(1, -1.0, 5, make_rng(0))
        with pytest.raises(ValidationError):
            sample_complex_gaussian(1, 1.0, 0, make_rng(0))


class TestPsdCheck:
    def test_identity(self):
        ok, min_eig = psd_check(np.eye(4))
        assert ok and min_eig == pytest.approx(1.0)

    def test_paper_counterexample_matrix(self):
        # The Bochner witness at c = 0: eigenvalues 1 +- 9.
        ok, min_eig = psd_check(np.array([[1.0, 9.0], [9.0, 1.0]]))
        assert not ok
        assert min_eig == pytest.approx(-8.0, abs=1e-12)

    def test_boundary_zero(self):
        ok, min_eig = psd_check(np.zeros((2, 2)))
        assert ok and min_eig == pytest.approx(0.0, abs=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.25), np.float64(0.75), np.int64(1),
                                       Fraction(1, 3)])
    def test_finite_reals_in_the_interval_pass(self, value):
        check_real(value, "v", 0.0, 1.0, "(]")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan"),
                                       np.float64("inf"), True, False, "0.5", None, 0.5j,
                                       np.array([0.5]), 10 ** 400, -(10 ** 400)])
    def test_non_finite_or_non_real_fails_every_interval(self, value):
        # no bounds at all: only finiteness and the type are checked
        with pytest.raises(ValidationError, match=r"^v must be real, got "):
            check_real(value, "v must be real")

    @pytest.mark.parametrize("ends, low_in, high_in", [("()", False, False), ("[)", True, False),
                                                       ("(]", False, True), ("[]", True, True)])
    def test_ends_close_or_open_the_interval(self, ends, low_in, high_in):
        for value, inside in ((-1.0, low_in), (2.0, high_in), (0.5, True),
                              (-1.0 - 1e-12, False), (2.0 + 1e-12, False)):
            if inside:
                check_real(value, "v", -1.0, 2.0, ends)
            else:
                with pytest.raises(ValidationError, match=f"v, got {value!r}$"):
                    check_real(value, "v", -1.0, 2.0, ends)


class TestCheckFinite:
    def test_finite_arrays_pass(self):
        check_finite(np.array([[1.0 + 2j, -3.0]]), "a")
        check_finite([0.0, 1e308], "a")

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf])
    def test_one_non_finite_entry_fails(self, bad):
        a = np.zeros((3, 2), dtype=complex)
        a[2, 1] = bad
        with pytest.raises(ValidationError, match="^a has non-finite entries$"):
            check_finite(a, "a")
