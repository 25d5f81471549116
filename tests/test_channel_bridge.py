"""Channel-state bridge tests: the Choi envelope forms, the Bell-slice
identity, the squeezing threshold, and the single-photon impossibility
witnesses."""

import math

import numpy as np
import pytest
from scipy import integrate

from cvlearn.channel_bridge import (
    UNKNOWN,
    VALID,
    VIOLATED,
    ChannelSpec,
    bochner_check,
    bochner_witness_c0,
    choi_char,
    choi_envelope_form1,
    choi_envelope_form2,
    fock1_channel_density,
    fock1_lambda,
    fock1_negativity_annulus,
    lambda_from_state,
    r_star,
)
from cvlearn.errors import ValidationError
from cvlearn.numerics import make_rng, random_symmetric_unitary
from cvlearn.states import (
    char_fn,
    classicality_smax,
    make_five_peak,
    make_thermal,
    make_three_peak,
    make_three_peak_classical,
)


def rand_pts(rng, m, n, scale=1.0):
    return scale * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))


class TestChoiEnvelope:
    def test_forms_agree_at_random_points(self):
        rng = make_rng(50)
        for r in [0.0, 0.3, 1.2]:
            a = rand_pts(rng, 40, 2)
            b = rand_pts(rng, 40, 2)
            g1 = choi_envelope_form1(a, b, r)
            g2 = choi_envelope_form2(a, b, r)
            assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_r_zero_product_form(self):
        # At r = 0 the sinh 2r cross term vanishes and the envelope factorizes
        # into vacuum Gaussians: g = e^{-(|a|^2 + |b|^2)/2}.
        rng = make_rng(51)
        a = rand_pts(rng, 30, 1)
        b = rand_pts(rng, 30, 1)
        expect = np.exp(-0.5 * (np.abs(a[:, 0]) ** 2 + np.abs(b[:, 0]) ** 2))
        assert np.max(np.abs(choi_envelope_form1(a, b, 0.0) - expect)) < 1e-13
        assert np.max(np.abs(choi_envelope_form2(a, b, 0.0) - expect)) < 1e-13

    def test_bell_slice_collapses_the_envelope(self):
        rng = make_rng(52)
        for r in [0.1, 0.7]:
            a = rand_pts(rng, 25, 2)
            g = choi_envelope_form1(np.conj(a), a, r)
            expect = np.exp(-math.exp(-2 * r) * np.sum(np.abs(a) ** 2, axis=1))
            assert np.max(np.abs(g - expect)) < 1e-13

    def test_choi_char_on_slice(self):
        st = make_thermal(1, 0.6)
        rep = lambda_from_state(st, r=0.4, sets=3)
        rng = make_rng(53)
        a = rand_pts(rng, 20, 1)
        lhs = choi_char(rep.spec, np.conj(a), a)
        damp = np.exp(-math.exp(-0.8) * np.sum(np.abs(a) ** 2, axis=1))
        rhs = damp * np.asarray(rep.spec.lam(a))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestRStar:
    def test_values(self):
        assert r_star(1.0) == 0.0
        assert r_star(0.5) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
        assert r_star(math.exp(-2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match="no finite"):
            r_star(0.0)
        with pytest.raises(ValidationError):
            r_star(-0.3)


class TestLambdaFromState:
    def test_thermal_gaussian_is_valid(self):
        st = make_thermal(1, 0.6)
        for r in [0.0, 0.5, 2.0]:
            rep = lambda_from_state(st, r, sets=50)
            assert rep.status == VALID
            assert rep.min_eigenvalue >= -1e-8
            assert rep.r_threshold == 0.0

    def test_three_peak_above_threshold_passes(self):
        st = make_three_peak_classical(1, 0.6, 0.1, np.array([1.5]))
        s_max = classicality_smax(st.nu, 0.1, np.array([1.5])).s_max
        rep = lambda_from_state(st, r_star(s_max) + 0.1, sets=100, points_per_set=5)
        assert rep.status == VALID
        assert rep.min_eigenvalue >= -1e-8

    def test_below_threshold_is_unknown_or_violated(self):
        st = make_three_peak(1, 0.8, 0.24, np.array([2.2]))
        s_max = classicality_smax(0.8, 0.24, np.array([2.2])).s_max
        assert s_max < 1
        rep = lambda_from_state(st, 0.0, sets=60)
        assert rep.status in (UNKNOWN, VIOLATED)

    def test_three_peak_below_threshold_is_unknown(self):
        # s_max = 0.709 gives r* = 0.172; r = 0.1 is below it and no violation shows
        rep = lambda_from_state(make_three_peak(1, 0.6, 0.2, np.array([1 + 0.5j])), 0.1)
        assert rep.status == UNKNOWN
        assert rep.r_threshold == pytest.approx(0.1722542633990494, rel=1e-12)

    def test_five_peak_has_no_threshold_and_is_unknown(self):
        # five-peak states have no closed-form s_max, so no r clears a threshold
        st = make_five_peak(1, 0.6, 0.2, np.array([1 + 0.5j]),
                            random_symmetric_unitary(1, make_rng(3)))
        rep = lambda_from_state(st, 1.0)
        assert rep.status == UNKNOWN
        assert rep.s_max is None and rep.r_threshold is None

    def test_statistical_equivalence_identity(self):
        # e^{-e^{-2r}|a|^2} lambda_{rho,r}(a) reproduces chi^2 exactly.
        st = make_three_peak_classical(1, 0.5, 0.1, np.array([1.2 + 0.4j]))
        s_max = classicality_smax(st.nu, 0.1, np.array([1.2 + 0.4j])).s_max
        assert s_max >= 0.5
        r = r_star(s_max)
        rep = lambda_from_state(st, r, sets=2)
        rng = make_rng(54)
        a = rand_pts(rng, 100, 1, scale=1.2)
        slice_vals = (np.exp(-math.exp(-2 * r) * np.sum(np.abs(a) ** 2, axis=1))
                      * np.asarray(rep.spec.lam(a)))
        chi2 = np.asarray(char_fn(st, a)) ** 2
        assert np.max(np.abs(slice_vals - chi2)) < 1e-12

    def test_lambda_invariants(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        rep = lambda_from_state(st, 0.8, sets=2)
        rng = make_rng(55)
        a = rand_pts(rng, 50, 1)
        vals = np.asarray(rep.spec.lam(a))
        conj_vals = np.asarray(rep.spec.lam(-a))
        assert np.max(np.abs(conj_vals - np.conj(vals))) < 1e-12
        assert complex(np.asarray(rep.spec.lam(np.zeros((1, 1))))[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("sets, points_per_set", [(0, 5), (-1, 5), (3, 0)])
    def test_no_bochner_check_is_rejected(self, sets, points_per_set):
        # with no check run, "spot checks passed" and an infinite minimum would be vacuous
        st = make_thermal(1, 0.6)
        with pytest.raises(ValidationError, match="must be >= 1"):
            lambda_from_state(st, 0.5, sets=sets, points_per_set=points_per_set)


class TestFock1Counterexample:
    def test_negative_at_annulus_midpoint(self):
        for c in [0.2, 0.5, 0.8]:
            lo, hi = fock1_negativity_annulus(c)
            mid = math.sqrt(c * (2.0 - c))  # |beta| at the quadratic's vertex
            assert lo < mid ** 2 < hi
            assert fock1_channel_density(c, np.array([mid + 0j])) < 0

    def test_positive_far_outside(self):
        for c in [0.2, 0.6]:
            _, hi = fock1_negativity_annulus(c)
            assert fock1_channel_density(c, np.array([math.sqrt(hi) * 2.0 + 0j])) > 0

    def test_sign_changes_at_endpoints(self):
        c = 0.4
        lo, hi = fock1_negativity_annulus(c)
        for edge in [lo, hi]:
            rad = math.sqrt(edge)
            below = fock1_channel_density(c, np.array([complex(rad - 1e-6)]))
            above = fock1_channel_density(c, np.array([complex(rad + 1e-6)]))
            assert below * above < 0

    def test_signed_integral_normalizes(self):
        c = 0.35

        def radial(u):
            return float(fock1_channel_density(c, np.array([complex(math.sqrt(u))])))

        total, _ = integrate.quad(radial, 0.0, 60.0, limit=300)
        assert total * math.pi == pytest.approx(1.0, abs=1e-6)

    def test_bochner_witness_matrix(self):
        rep = bochner_witness_c0()
        assert np.max(np.abs(rep["matrix"] - np.array([[1.0, 9.0], [9.0, 1.0]]))) < 1e-12
        assert not rep["psd"]
        assert rep["min_eigenvalue"] == pytest.approx(-8.0, abs=1e-12)

    def test_three_point_set_still_fails(self):
        lam = fock1_lambda(0.0)
        pts = np.array([[0.0 + 0j], [2.0 + 0j], [-2.0 + 0j]])
        ok, min_eig = bochner_check(lam, pts)
        assert not ok and min_eig < -8.0  # principal submatrix already fails

    def test_gaussian_on_same_points_passes(self):
        def lam(batch):
            batch = np.atleast_2d(batch)
            return np.exp(-np.sum(np.abs(batch) ** 2, axis=1)).astype(complex)

        ok, min_eig = bochner_check(lam, np.array([[0.0 + 0j], [2.0 + 0j]]))
        assert ok and min_eig > 0

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            fock1_channel_density(0.0, np.array([1.0 + 0j]))
        with pytest.raises(ValidationError):
            fock1_lambda(1.0)


def test_channel_spec_validates_symmetry():
    def bad(batch):
        batch = np.atleast_2d(batch)
        # even in batch and complex-valued: breaks lambda(-a) = lambda(a)*
        return 1.0 + 0.1j * np.abs(np.sum(batch, axis=1)) ** 2

    with pytest.raises(ValidationError, match="Hermitian"):
        ChannelSpec(r=0.1, lam=bad, n=1)
    # fix normalization violation too
    with pytest.raises(ValidationError, match="lambda"):
        ChannelSpec(r=0.1, lam=lambda b: 2 * np.ones(np.atleast_2d(b).shape[0]), n=1)
