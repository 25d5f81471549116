"""Peak-state family tests.

The literal closed-form displays (three-peak characteristic function, Wigner
sine corrections, s-ordered forms) are re-written here independently and used
as oracles for the per-peak evaluators; the truncated-Fock cross-checks live
in test_fock_oracle.py.
"""

import json
import math

import numpy as np
import pytest

from cvlearn.errors import ValidationError
from cvlearn.numerics import SymmetricUnitary, make_rng, random_symmetric_unitary
from cvlearn.states import (
    PeakState,
    apply_circuit,
    bell_partner,
    char_fn,
    classicality_smax,
    f1,
    f2,
    fock1_char,
    hermitian_partners,
    make_five_peak,
    make_thermal,
    make_three_peak,
    make_three_peak_classical,
    mean_photon,
    reflect,
    s_char_fn,
    s_prime,
    s_qpd,
    s_qpd_grid_1mode,
    three_peak_plus,
    wigner,
)


def three_peak_chi_display(state, alpha):
    """Literal transcription of the three-peak characteristic function."""
    nu, e0 = state.nu, state.eps0
    S2, s2 = state.Sigma2, state.sigma2
    g = state.centers[np.argmax(np.abs(np.imag(state.weights)))]
    if np.imag(state.weights[np.argmax(np.abs(np.imag(state.weights)))]) < 0:
        g = -g
    a2 = np.sum(np.abs(alpha) ** 2)
    g2 = np.sum(np.abs(g) ** 2)
    dm = np.sum(np.abs(g - alpha) ** 2)
    dp = np.sum(np.abs(g + alpha) ** 2)
    return math.exp(-a2 / (2 * S2)) * (
        math.exp(-a2 / (2 * s2))
        + 2j * e0 * math.exp(-g2 / (2 * S2))
        * (math.exp(-dm / (2 * s2)) - math.exp(-dp / (2 * s2))))


def rand_points(rng, count, n, radius):
    pts = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return pts * (radius / np.sqrt(2 * n))


class TestConstructors:
    def test_three_peak_layout(self):
        st = make_three_peak(1, 0.6, 0.2, 1.0)
        assert len(st.weights) == 3
        assert st.peak_multiset_equal(PeakState(
            n=1, nu=0.6,
            weights=np.array([1.0, 0.4j, -0.4j]),
            centers=np.array([[0.0], [1.0], [-1.0]], dtype=complex)))

    def test_eps0_range_rejected(self):
        with pytest.raises(ValidationError):
            make_three_peak(1, 0.6, 0.3, 1.0)
        with pytest.raises(ValidationError):
            make_three_peak(1, 0.6, 0.0, 1.0)

    def test_gamma_zero_collapses_to_thermal(self):
        st = make_three_peak(2, 0.5, 0.25, np.zeros(2))
        assert st.peak_multiset_equal(make_thermal(2, 0.5))

    def test_five_peak_reflection_symmetry(self):
        rng = make_rng(21)
        u = random_symmetric_unitary(2, rng)
        g = np.array([0.4 + 0.3j, -0.2 + 0.8j])
        st = make_five_peak(2, 0.7, 0.2, g, u)
        assert reflect(st, u).peak_multiset_equal(st, tol=1e-9)

    def test_five_peak_degenerates_to_thermal(self):
        # gamma = -U^T gamma* makes the peaks cancel pairwise.
        u = SymmetricUnitary(matrix=np.eye(1))
        g = np.array([1.3j])  # purely imaginary: -conj(g) = g
        st = make_five_peak(1, 0.6, 0.2, g, u)
        assert st.peak_multiset_equal(make_thermal(1, 0.6))

    def test_five_peak_identity_real_gamma_merges_to_three_peak(self):
        u = SymmetricUnitary(matrix=np.eye(1))
        st = make_five_peak(1, 0.6, 0.15, np.array([0.9]), u)
        assert st.peak_multiset_equal(make_three_peak(1, 0.6, 0.15, np.array([0.9])))

    def test_derived_parameters(self):
        st = make_thermal(1, 0.6)
        assert st.sigma2 == pytest.approx((1 / 0.6 - 0.6) / 2, rel=1e-15)
        assert st.Sigma2 == pytest.approx(1.6 / 0.4, rel=1e-15)
        assert st.a == pytest.approx(0.5 / st.sigma2 + 0.5 / st.Sigma2, rel=1e-15)
        assert st.a > 0.5

    def test_sigma_ordering_threshold(self):
        # Sigma^2 >= sigma^2 iff nu >= 2 - sqrt(3), equal at Sigma^2 = sqrt(3).
        nu_c = 2 - math.sqrt(3)
        for nu, expect in [(nu_c + 1e-6, True), (nu_c - 1e-6, False), (0.9, True)]:
            st = make_thermal(1, nu)
            assert (st.Sigma2 >= st.sigma2) == expect
        crit = make_thermal(1, nu_c)
        assert crit.Sigma2 == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert crit.Sigma2 == pytest.approx(crit.sigma2, rel=1e-12)

    def test_variances_from_classicality_floor(self):
        # Sigma^2 = (1 + sqrt(1 - s'^2))/s' and sigma^2 = s'/sqrt(1 - s'^2).
        for nu in [0.2, 0.5, 0.8, 0.95]:
            st = make_thermal(1, nu)
            sp = s_prime(nu)
            assert st.Sigma2 == pytest.approx((1 + math.sqrt(1 - sp * sp)) / sp, rel=1e-12)
            assert st.sigma2 == pytest.approx(sp / math.sqrt(1 - sp * sp), rel=1e-12)

    def test_positivity_sufficient_condition_enforced(self):
        with pytest.raises(ValidationError):
            PeakState(n=1, nu=0.5,
                      weights=np.array([1.0, 0.6j, -0.6j]),
                      centers=np.array([[0.0], [1.0], [-1.0]], dtype=complex))

    def test_mode_count_below_one_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValidationError, match="mode count"):
                make_thermal(n, 0.5)
            with pytest.raises(ValidationError, match="mode count"):
                PeakState(n=n, nu=0.5, weights=np.array([1.0 + 0j]),
                          centers=np.zeros((1, 0), dtype=complex))

    def test_hermitian_pairing_enforced(self):
        with pytest.raises(ValidationError):
            PeakState(n=1, nu=0.5,
                      weights=np.array([1.0, 0.2j]),
                      centers=np.array([[0.0], [1.0]], dtype=complex))


class TestCharFn:
    def test_normalization_at_origin(self):
        st = make_three_peak(2, 0.7, 0.2, np.array([1.0, 0.5j]))
        assert char_fn(st, np.zeros(2)) == pytest.approx(1.0, abs=1e-15)

    def test_thermal_closed_form(self):
        st = make_thermal(1, 0.6)
        for r in [0.3, 1.1, 2.4]:
            alpha = np.array([r * np.exp(0.7j)])
            assert char_fn(st, alpha) == pytest.approx(math.exp(-st.a * r * r), rel=1e-13)

    def test_matches_literal_display(self):
        rng = make_rng(31)
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0 + 0.5j]))
        for alpha in rand_points(rng, 50, 1, 2.0):
            assert char_fn(st, alpha) == pytest.approx(
                three_peak_chi_display(st, alpha), abs=1e-14)

    def test_hermitian_symmetry_and_bounded(self):
        rng = make_rng(32)
        u = random_symmetric_unitary(2, rng)
        for st in [make_three_peak(2, 0.8, 0.25, np.array([1.0, -0.5j])),
                   make_five_peak(2, 0.55, 0.2, np.array([0.3 + 1j, 0.2]), u)]:
            pts = rand_points(rng, 1000, 2, 3.0)
            vals = char_fn(st, pts)
            conj_vals = char_fn(st, -pts)
            assert np.max(np.abs(conj_vals - np.conj(vals))) < 1e-12
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_batch_matches_scalar(self):
        st = make_three_peak(1, 0.4, 0.1, np.array([0.7j]))
        pts = rand_points(make_rng(33), 7, 1, 1.5)
        batch = char_fn(st, pts)
        for i in range(7):
            assert batch[i] == pytest.approx(char_fn(st, pts[i]), rel=1e-15)


class TestReflect:
    def test_reflect_identity_contract(self):
        rng = make_rng(41)
        u = random_symmetric_unitary(3, rng)
        st = make_three_peak(3, 0.65, 0.2, np.array([0.5, -0.3j, 0.8 + 0.1j]))
        refl = reflect(st, u)
        pts = rand_points(rng, 100, 3, 2.0)
        lhs = char_fn(refl, pts)
        rhs = char_fn(st, (u.matrix @ np.conj(pts).T).T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_double_reflection_is_identity(self):
        rng = make_rng(42)
        u = random_symmetric_unitary(2, rng)
        st = make_three_peak(2, 0.5, 0.25, np.array([1.0, 0.4j]))
        assert reflect(reflect(st, u), u).peak_multiset_equal(st, tol=1e-12)

    def test_minus_identity_gives_conjugate_state(self):
        # U = -I: chi_out(alpha) = chi_in(-alpha*), the complex-conjugate state.
        u = SymmetricUnitary(matrix=-np.eye(1))
        g = np.array([0.8 + 0.6j])
        st = make_three_peak(1, 0.6, 0.2, g)
        assert reflect(st, u).peak_multiset_equal(make_three_peak(1, 0.6, 0.2, -np.conj(g)))

    def test_circuit_map(self):
        rng = make_rng(43)
        u = random_symmetric_unitary(2, rng)
        st = make_three_peak(2, 0.7, 0.1, np.array([0.2, 1.0 - 0.3j]))
        out = apply_circuit(st, u)
        pts = rand_points(rng, 40, 2, 1.5)
        assert np.max(np.abs(char_fn(out, pts) - char_fn(st, pts @ u.matrix))) < 1e-12

    def test_bell_partner_conjugates_peaks(self):
        rng = make_rng(44)
        u = random_symmetric_unitary(2, rng)
        st = make_three_peak(2, 0.7, 0.1, np.array([0.2 + 0.9j, -1.0]))
        partner = bell_partner(st, u)
        pts = rand_points(rng, 60, 2, 2.0)
        assert np.max(np.abs(char_fn(partner, np.conj(pts)) - char_fn(st, pts))) < 1e-12


class TestBellPartner:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conjugate_state(self, n):
        rng = make_rng(60 + n)
        u = random_symmetric_unitary(n, rng)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        for st in (make_three_peak(n, 0.7, 0.1, g), make_five_peak(n, 0.7, 0.1, g, u)):
            partner = bell_partner(st, u)
            assert np.array_equal(partner.centers, np.conj(st.centers))
            assert np.array_equal(partner.weights, st.weights)
            assert partner.peak_multiset_equal(apply_circuit(reflect(st, u), u), tol=1e-12)
        # the five-peak state is reflection symmetric: the circuit alone gives it
        assert partner.peak_multiset_equal(apply_circuit(st, u), tol=1e-12)

    def test_dimension_mismatch(self):
        st = make_three_peak(2, 0.7, 0.1, np.array([0.5, 1.0j]))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            bell_partner(st, random_symmetric_unitary(3, make_rng(70)))


class TestHermitianPairing:
    def test_partners_and_distances(self):
        v = np.array([[0.0], [1.0 + 1j], [-1.0 - 1j], [0.5], [-0.5 + 1e-3j]])
        partner, dist = hermitian_partners(v)
        assert partner.tolist() == [0, 2, 1, 4, 3]
        assert np.allclose(dist, [0.0, 0.0, 0.0, 1e-3, 1e-3], rtol=0, atol=1e-15)

    def test_unconjugated_partner_weight(self):
        w = 0.1 + 0.05j
        with pytest.raises(ValidationError, match="not Hermitian-paired"):
            PeakState(n=1, nu=0.6, weights=[1.0, w, w], centers=[[0.0], [0.8], [-0.8]])

    def test_displaced_partner(self):
        w = 0.1 + 0.05j
        with pytest.raises(ValidationError, match="not Hermitian-paired"):
            PeakState(n=1, nu=0.6, weights=[1.0, w, np.conj(w)],
                      centers=[[0.0], [0.8], [-0.8 - 1e-8]])


class TestPeakMultisetEqual:
    def test_permuted_peaks(self):
        u = random_symmetric_unitary(2, make_rng(71))
        st = make_five_peak(2, 0.6, 0.1, np.array([0.4 + 0.2j, -0.7]), u)
        perm = [3, 0, 4, 2, 1]
        other = PeakState(n=2, nu=0.6, weights=st.weights[perm], centers=st.centers[perm])
        assert st.peak_multiset_equal(other, tol=0.0)

    def test_weight_off_by_two_tol(self):
        tol = 1e-9
        st = make_three_peak(1, 0.6, 0.1, np.array([0.8]))
        w = st.weights + np.array([0.0, 2j * tol, -2j * tol])
        other = PeakState(n=1, nu=0.6, weights=w, centers=st.centers)
        assert not st.peak_multiset_equal(other, tol=tol)
        assert st.peak_multiset_equal(other, tol=3 * tol)

    def test_matches_first_fit_loop_below_peak_spacing(self):
        def first_fit(a, b, tol):
            used = np.zeros(len(b.weights), dtype=bool)
            for w, g in zip(a.weights, a.centers):
                hits = [j for j in range(len(b.weights)) if not used[j]
                        and abs(b.weights[j] - w) <= tol and np.linalg.norm(b.centers[j] - g) <= tol]
                if not hits:
                    return False
                used[hits[0]] = True
            return True

        rng = make_rng(72)
        u = random_symmetric_unitary(2, rng)
        outcomes = set()
        for trial in range(40):
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            shift = 10.0 ** rng.uniform(-11, -8) * (rng.normal(size=2) + 1j * rng.normal(size=2))
            st, other = ((make_five_peak(2, 0.6, 0.1, x, u) if trial % 2
                          else make_three_peak(2, 0.6, 0.1, x)) for x in (g, g + shift))
            same = st.peak_multiset_equal(other)
            assert same == first_fit(st, other, 1e-9)
            outcomes.add(same)
        assert outcomes == {True, False}

    def test_two_peaks_nearest_the_same_partner(self):
        # +1.0 and +1.1 are both nearest +1.05 of `other`; a greedy first-fit
        # would pair +1.1 with +2.0, which is also within tol
        def state(x1, x2):
            return PeakState(n=1, nu=0.6, weights=[1.0, 0.1j, -0.1j, 0.1j, -0.1j],
                             centers=[[0.0], [x1], [-x1], [x2], [-x2]])
        assert not state(1.0, 1.1).peak_multiset_equal(state(1.05, 2.0), tol=1.0)


class TestWigner:
    def test_thermal_gaussian(self):
        st = make_thermal(1, 0.5)
        for b in [0.0, 0.4 + 0.2j, 1.5j]:
            beta = np.array([b])
            expect = math.exp(-abs(b) ** 2 / st.a) / (math.pi * st.a)
            assert wigner(st, beta) == pytest.approx(expect, rel=1e-13)

    def test_three_peak_display(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0 + 0.5j]))
        g = np.array([1.0 + 0.5j])
        S2, s2, a = st.Sigma2, st.sigma2, st.a
        amp_exp = -(1 / (2 * S2) + 1 / (2 * (S2 + s2))) * np.sum(np.abs(g) ** 2)
        freq = 2.0 / (1 + s2 / S2)
        rng = make_rng(51)
        for beta in rand_points(rng, 60, 1, 2.5):
            sine = math.sin(freq * float(np.imag(np.conj(beta) @ g)))
            expect = (math.exp(-float(np.sum(np.abs(beta) ** 2)) / a) / (math.pi * a)
                      * (1 + 4 * 0.2 * math.exp(amp_exp) * sine))
            assert wigner(st, beta) == pytest.approx(expect, rel=1e-11, abs=1e-15)

    def test_five_peak_display(self):
        rng = make_rng(52)
        u = random_symmetric_unitary(1, rng)
        g = np.array([0.8 - 0.4j])
        st = make_five_peak(1, 0.7, 0.15, g, u)
        gr = u.matrix.T @ np.conj(g)
        S2, s2, a = st.Sigma2, st.sigma2, st.a
        amp_exp = -(1 / (2 * S2) + 1 / (2 * (S2 + s2))) * np.sum(np.abs(g) ** 2)
        freq = 2.0 / (1 + s2 / S2)
        for beta in rand_points(rng, 40, 1, 2.0):
            sines = (math.sin(freq * float(np.imag(np.conj(beta) @ g)))
                     + math.sin(freq * float(np.imag(np.conj(beta) @ gr))))
            expect = (math.exp(-float(np.sum(np.abs(beta) ** 2)) / a) / (math.pi * a)
                      * (1 + 2 * 0.15 * math.exp(amp_exp) * sines))
            assert wigner(st, beta) == pytest.approx(expect, rel=1e-11, abs=1e-15)

    def test_sine_vanishes_at_origin(self):
        st = make_three_peak(2, 0.6, 0.25, np.array([1.0, 0.3j]))
        assert wigner(st, np.zeros(2)) == pytest.approx(
            1.0 / (math.pi * st.a) ** 2, rel=1e-13)

    def test_grid_normalization(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        xs = np.linspace(-6, 6, 301)
        dx = xs[1] - xs[0]
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = (gx + 1j * gy).reshape(-1, 1)
        total = np.sum(wigner(st, pts)) * dx * dx
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_matches_grid_fourier_transform(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([0.8 + 0.2j]))
        betas = np.array([0.3 + 0.1j, -0.5j, 1.0])
        oracle = s_qpd_grid_1mode(lambda a: char_fn(st, a), 0.0, betas,
                                  half_width=6 * math.sqrt(st.a), points=512)
        ours = wigner(st, betas.reshape(-1, 1))
        assert np.max(np.abs(ours - oracle)) < 1e-6


class TestSOrdered:
    def test_s_zero_equals_wigner(self):
        rng = make_rng(61)
        u = random_symmetric_unitary(1, rng)
        st = make_five_peak(1, 0.6, 0.2, np.array([0.5 + 0.3j]), u)
        pts = rand_points(rng, 30, 1, 2.0)
        assert np.max(np.abs(s_qpd(st, 0.0, pts) - wigner(st, pts))) < 1e-14

    def test_s_char_fn_scaling(self):
        st = make_three_peak(1, 0.7, 0.2, np.array([1.0]))
        alpha = np.array([0.6 - 0.4j])
        for s in [-1.0, -0.3, 0.5, 1.0]:
            expect = math.exp(0.5 * s * float(np.sum(np.abs(alpha) ** 2))) * char_fn(st, alpha)
            assert s_char_fn(st, s, alpha) == pytest.approx(expect, rel=1e-14)

    def test_three_peak_s_display(self):
        # W(s,.) = W0(s,.) (1 + 4 eps0 e^{f1|g|^2} sin(f2 Im[beta^dag g])).
        st = make_three_peak(1, 0.55, 0.18, np.array([1.2 - 0.4j]))
        g = st.centers[1] if np.imag(st.weights[1]) > 0 else st.centers[2]
        g2 = float(np.sum(np.abs(g) ** 2))
        rng = make_rng(62)
        for s in [-1.0, -0.4, 0.2, 0.9]:
            t = st.a - s / 2
            for beta in rand_points(rng, 20, 1, 2.0):
                w0 = math.exp(-float(np.sum(np.abs(beta) ** 2)) / t) / (math.pi * t)
                sine = math.sin(f2(s, st.nu) * float(np.imag(np.conj(beta) @ g)))
                expect = w0 * (1 + 4 * 0.18 * math.exp(f1(s, st.nu) * g2) * sine)
                assert s_qpd(st, s, beta) == pytest.approx(expect, rel=1e-11, abs=1e-16)

    def test_f_coefficients_reproduce_wigner_form(self):
        for nu in [0.3, 0.6, 0.9]:
            st = make_thermal(1, nu)
            S2, s2 = st.Sigma2, st.sigma2
            assert f1(0.0, nu) == pytest.approx(
                -(1 / (2 * S2) + 1 / (2 * (S2 + s2))), rel=1e-12)
            assert f2(0.0, nu) == pytest.approx(4 * nu / (1 + nu ** 2), rel=1e-14)
            assert f2(0.0, nu) == pytest.approx(2.0 / (1 + s2 / S2), rel=1e-12)

    def test_five_peak_matches_grid_transform(self):
        rng = make_rng(63)
        u = random_symmetric_unitary(1, rng)
        st = make_five_peak(1, 0.6, 0.2, np.array([0.7 + 0.5j]), u)
        betas = np.array([0.2 - 0.3j, 0.9j])
        for s in [-1.0, -0.5, 0.0]:
            oracle = s_qpd_grid_1mode(lambda a: char_fn(st, a), s, betas,
                                      half_width=6 * math.sqrt(st.a), points=512)
            ours = s_qpd(st, s, betas.reshape(-1, 1))
            assert np.max(np.abs(ours - np.atleast_1d(oracle))) < 1e-6

    def test_s_out_of_range_rejected(self):
        st = make_thermal(1, 0.5)
        with pytest.raises(ValidationError):
            s_qpd(st, 1.2, np.array([0.0]))
        with pytest.raises(ValidationError):
            s_char_fn(st, -1.01, np.array([0.0]))


def scan_smax_on_grid(st, lo, hi, half_width, points=129, iters=40):
    """Largest s whose QPD stays >= -1e-9 on a dense grid (bisection oracle)."""
    xs = np.linspace(-half_width, half_width, points)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = (gx + 1j * gy).reshape(-1, 1)

    def nonneg(s):
        return np.min(s_qpd(st, s, grid)) >= -1e-9

    assert nonneg(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if nonneg(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestClassicality:
    def test_eps0_quarter_gives_s_prime(self):
        for nu in [0.3, 0.6, 0.85]:
            rep = classicality_smax(nu, 0.25, np.array([1.0]))
            assert rep.s_max == pytest.approx(s_prime(nu), rel=1e-14)
            assert rep.c == pytest.approx(0.0, abs=1e-15)

    def test_gamma_zero_is_classical(self):
        rep = classicality_smax(0.6, 0.1, np.zeros(2))
        assert rep.s_max == 1.0 and math.isinf(rep.c)

    def test_small_gamma_limit(self):
        rep = classicality_smax(0.6, 0.1, np.array([1e-8]))
        assert rep.s_max == 1.0

    def test_s_prime_lower_bounds_smax(self):
        rng = make_rng(71)
        for _ in range(50):
            nu = rng.uniform(0.2, 0.95)
            eps0 = rng.uniform(0.01, 0.25)
            g = rng.normal(size=2).view(complex)
            rep = classicality_smax(nu, eps0, g)
            assert rep.s_prime <= rep.s_max + 1e-14
            assert rep.s_prime == pytest.approx(1.0 / (2 * make_thermal(1, nu).a), rel=1e-12)

    def test_formula_matches_grid_scan(self):
        nu, eps0 = 0.8, 0.1
        g = np.array([2.0])  # |gamma|^2 = 4
        st = make_three_peak(1, nu, eps0, g)
        rep = classicality_smax(nu, eps0, g)
        assert 0 < rep.s_max < 1
        scanned = scan_smax_on_grid(st, lo=rep.s_prime, hi=1.0,
                                    half_width=6 * math.sqrt(st.a))
        assert scanned == pytest.approx(rep.s_max, abs=2e-3)

    def test_maximality_witness(self):
        nu, eps0 = 0.8, 0.1
        st = make_three_peak(1, nu, eps0, np.array([2.0]))
        rep = classicality_smax(nu, eps0, np.array([2.0]))
        xs = np.linspace(-6 * math.sqrt(st.a), 6 * math.sqrt(st.a), 161)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        grid = (gx + 1j * gy).reshape(-1, 1)
        assert np.min(s_qpd(st, rep.s_max, grid)) >= -1e-9
        if rep.s_max + 0.05 < 1:
            assert np.min(s_qpd(st, rep.s_max + 0.05, grid)) < -1e-6

    def test_tail_bound(self):
        rng = make_rng(72)
        for _ in range(20):
            nu = rng.uniform(0.3, 0.9)
            eps0 = rng.uniform(0.02, 0.25)
            n = int(rng.integers(1, 3))
            g = (rng.normal(size=n) + 1j * rng.normal(size=n))
            st = make_three_peak(n, nu, eps0, g)
            rep = classicality_smax(nu, eps0, g)
            pts = rand_points(rng, 1000, n, 3.0)
            bound = np.exp(-0.5 * rep.s_max * np.sum(np.abs(pts) ** 2, axis=1))
            assert np.all(np.abs(char_fn(st, pts)) <= bound + 1e-12)

    def test_gamma_lower_bound_for_nonclassical_states(self):
        rng = make_rng(73)
        found = 0
        for _ in range(200):
            nu = rng.uniform(0.3, 0.95)
            eps0 = rng.uniform(0.02, 0.24)
            g = 2.0 * (rng.normal(size=1) + 1j * rng.normal(size=1))
            rep = classicality_smax(nu, eps0, g)
            if rep.s_max < 1:
                found += 1
                g2 = float(np.sum(np.abs(g) ** 2))
                assert g2 > (2.0 / rep.s_max) * math.log(1.0 / (4 * eps0))
        assert found > 20

    def test_classical_constructor_guarantees_target(self):
        rng = make_rng(74)
        for _ in range(20):
            target = rng.uniform(0.1, 0.9)
            eps0 = rng.uniform(0.02, 0.25)
            g = rng.normal(size=1) + 1j * rng.normal(size=1)
            st = make_three_peak_classical(1, target, eps0, g)
            rep = classicality_smax(st.nu, eps0, g)
            assert rep.s_max >= target - 1e-12


class TestEnergy:
    def test_identity_exact(self):
        for nu in np.linspace(0.05, 0.95, 19):
            st = make_thermal(1, nu)
            assert st.a - 0.5 == pytest.approx(nu ** 2 / (1 - nu ** 2), rel=1e-12)

    def test_small_nu_limit(self):
        assert mean_photon(make_thermal(1, 1e-6)) == pytest.approx(0.0, abs=1e-11)

    def test_family_members_share_energy(self):
        rng = make_rng(81)
        u = random_symmetric_unitary(2, rng)
        g = np.array([1.0, 0.5j])
        th = make_thermal(2, 0.7)
        three = make_three_peak(2, 0.7, 0.2, g)
        five = make_five_peak(2, 0.7, 0.2, g, u)
        assert mean_photon(th) == mean_photon(three) == mean_photon(five)


class TestFock1Char:
    def test_origin(self):
        assert fock1_char(0.0) == pytest.approx(1.0)

    def test_zero_on_unit_circle(self):
        assert fock1_char(np.exp(0.3j)) == pytest.approx(0.0, abs=1e-15)

    def test_multimode_rejected(self):
        with pytest.raises(ValidationError):
            fock1_char(np.zeros((3, 2)))


class TestJson:
    def test_round_trip(self):
        rng = make_rng(91)
        u = random_symmetric_unitary(2, rng)
        st = make_five_peak(2, 0.65, 0.2, np.array([0.3 + 1j, -0.2]), u)
        st2 = PeakState.from_json(st.to_json())
        assert st2.peak_multiset_equal(st, tol=1e-15)
        assert st2.eps0 == st.eps0
        pts = rand_points(rng, 20, 2, 2.0)
        assert np.max(np.abs(char_fn(st2, pts) - char_fn(st, pts))) == 0.0

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            PeakState.from_json(json.dumps({"n": 1, "nu": 0.5}))

    @pytest.mark.parametrize("n", [1.7, 1.0, True, "1"])
    def test_non_integer_mode_count_rejected(self, n):
        # read as written, not truncated by int()
        d = make_three_peak(1, 0.5, 0.2, np.array([0.7])).to_json_dict()
        d["n"] = n
        with pytest.raises(ValidationError, match="mode count n must be an integer"):
            PeakState.from_json_dict(d)

    def test_center_length_mismatch_rejected(self):
        d = make_three_peak(1, 0.5, 0.2, np.array([0.7])).to_json_dict()
        d["n"] = 2
        with pytest.raises(ValidationError, match="malformed"):
            PeakState.from_json_dict(d)


class TestThreePeakPlus:
    def test_layouts(self):
        g = np.array([0.4 - 0.9j, 1.1])
        assert np.array_equal(three_peak_plus(make_three_peak(2, 0.6, 0.2, g)), g)
        assert np.array_equal(three_peak_plus(make_three_peak(2, 0.6, 0.2, -g)), -g)
        u = random_symmetric_unitary(2, make_rng(92))
        assert three_peak_plus(make_five_peak(2, 0.6, 0.2, g, u)) is None
        assert three_peak_plus(make_thermal(2, 0.6)) is None

    def test_origin_weight_with_imaginary_part_is_not_the_plus_peak(self):
        # Validation tolerates an origin weight within 1e-9 of 1.
        d = make_three_peak(1, 0.6, 0.2, np.array([0.8])).to_json_dict()
        d["peaks"][0]["w_im"] = 1e-12
        assert np.array_equal(three_peak_plus(PeakState.from_json_dict(d)), [0.8])

    def test_thermal_reference(self):
        st = make_three_peak(2, 0.6, 0.2, np.array([0.4, 1.0]))
        assert st.thermal_reference().peak_multiset_equal(make_thermal(2, 0.6), tol=0.0)
