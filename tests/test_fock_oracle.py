"""Truncated-Fock oracle tests: the oracle itself is validated against
independent identities (coherent expansions, composition law, closed forms)
before the rest of the suite leans on it."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from cvlearn import fock_oracle
from cvlearn.errors import NumericFailure, ValidationError
from cvlearn.fock_oracle import (
    FockMatrix,
    _antihermitian_bound,
    _displacements_1mode,
    build_state,
    char_trace,
    default_cutoff,
    displacement_matrix,
    husimi,
    mean_photon_trace,
    min_eigenvalue,
    oracle_check,
    petz_d2,
    petz_d2_closed_form,
    wigner_parity,
)
from cvlearn.numerics import SymmetricUnitary, make_rng, random_symmetric_unitary
from cvlearn.states import (
    bell_partner,
    char_fn,
    fock1_char,
    hermitian_partners,
    make_five_peak,
    make_thermal,
    make_three_peak,
    mean_photon,
    reflect,
    s_qpd,
    s_qpd_grid_1mode,
    wigner,
)


def reference_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """<m|D(alpha)|n> for one point, built directly on the full (m, n) grid."""
    if alpha == 0:
        return np.eye(cutoff, dtype=complex)
    m, n = np.meshgrid(np.arange(cutoff), np.arange(cutoff), indexing="ij")
    x = abs(alpha) ** 2
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    k = hi - lo
    log_ratio = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
    lag = eval_genlaguerre(lo, k, x)
    base = np.where(m >= n, alpha, -np.conj(alpha)) ** k
    return np.exp(log_ratio - x / 2.0) * base * lag


class TestDisplacement:
    def test_batch_matches_per_point_reference(self):
        rng = make_rng(15)
        alphas = np.concatenate([[0.0, 1e-300, 1j, -2.5, 3 - 4j],
                                 rng.uniform(0, 4, 60) * rng.normal(size=60)
                                 + 1j * rng.uniform(0, 4, 60) * rng.normal(size=60)])
        for cutoff in (2, 3, 28, 36, 60):
            batch = _displacements_1mode(alphas, cutoff)
            for a, got in zip(alphas, batch):
                assert np.max(np.abs(got - reference_displacement(complex(a), cutoff))) <= 1e-15

    def test_identity_at_zero(self):
        d = displacement_matrix(np.array([0.0j]), 12)
        assert np.array_equal(d.data, np.eye(12))

    def test_coherent_state_amplitudes(self):
        alpha = 0.8 - 0.5j
        d = displacement_matrix(np.array([alpha]), 40)
        col = d.data[:, 0]
        k = np.arange(40)
        expect = np.exp(-abs(alpha) ** 2 / 2) * alpha ** k / np.sqrt(
            np.array([float(math.factorial(int(i))) for i in k]))
        assert np.max(np.abs(col - expect)) < 1e-12

    def test_composition_identity_low_block(self):
        a1, a2 = 0.7 + 0.2j, -0.4 + 0.9j
        cutoff = 50
        d1 = displacement_matrix(np.array([a1]), cutoff).data
        d2 = displacement_matrix(np.array([a2]), cutoff).data
        d12 = displacement_matrix(np.array([a1 + a2]), cutoff).data
        phase = np.exp((np.conj(a2) * a1 - np.conj(a1) * a2) / 2)
        half = cutoff // 2
        err = np.max(np.abs((d1 @ d2 - phase * d12)[:half, :half]))
        assert err < 1e-8

    def test_unitary_on_low_block(self):
        d = displacement_matrix(np.array([1.2j]), 60).data
        prod = d.conj().T @ d
        assert np.max(np.abs(prod[:30, :30] - np.eye(60)[:30, :30])) < 1e-8

    def test_two_mode_factorizes(self):
        alpha = np.array([0.5, -0.3j])
        d = displacement_matrix(alpha, 8)
        d1 = displacement_matrix(alpha[:1], 8).data
        d2 = displacement_matrix(alpha[1:], 8).data
        assert np.max(np.abs(d.data - np.kron(d1, d2))) < 1e-13

    def test_mode_cap(self):
        with pytest.raises(ValidationError):
            displacement_matrix(np.zeros(3, dtype=complex), 4)


class TestBuildState:
    def test_thermal_is_diagonal(self):
        nu = 0.6
        fm = build_state(make_thermal(1, nu), 60)
        k = np.arange(60)
        expect = np.diag((1 - nu ** 2) * nu ** (2 * k))
        assert np.max(np.abs(fm.data - expect)) < 1e-12

    def test_positivity_for_valid_eps0(self):
        rng = make_rng(1)
        for _ in range(5):
            nu = rng.uniform(0.3, 0.8)
            eps0 = rng.uniform(0.05, 0.25)
            g = rng.normal(size=1) + 1j * rng.normal(size=1)
            fm = build_state(make_three_peak(1, nu, eps0, g))
            assert min_eigenvalue(fm) >= -1e-9

    def test_char_oracle_contract(self):
        rng = make_rng(2)
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0 + 0.4j]))
        fm = build_state(st)
        pts = rng.normal(size=(20, 1)) + 1j * rng.normal(size=(20, 1))
        pts *= 3.0 / np.max(np.abs(pts))
        for p in pts:
            assert char_trace(fm, p) == pytest.approx(complex(char_fn(st, p)), abs=1e-6)

    def test_char_oracle_two_modes(self):
        st = make_three_peak(2, 0.4, 0.2, np.array([0.6, -0.4j]))
        fm = build_state(st, 28)
        rng = make_rng(3)
        for _ in range(5):
            p = 0.8 * (rng.normal(size=2) + 1j * rng.normal(size=2))
            assert char_trace(fm, p) == pytest.approx(complex(char_fn(st, p)), abs=1e-6)

    def test_truncation_convergence(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        base = default_cutoff(st)
        fm1 = build_state(st, base)
        fm2 = build_state(st, 2 * base)
        for p in [np.array([0.5 + 0.5j]), np.array([1.5]), np.array([-0.7j])]:
            assert abs(char_trace(fm1, p) - char_trace(fm2, p)) < 1e-8

    def test_cutoff_too_small_raises_with_suggestion(self):
        st = make_three_peak(1, 0.8, 0.2, np.array([2.0]))
        with pytest.raises(ValidationError, match="suggested cutoff"):
            build_state(st, 8)

    @pytest.mark.parametrize("n, nu", [(1, 0.75), (1, 0.8), (1, 0.9), (2, 0.8)])
    def test_warm_thermal_passes_at_default_cutoff(self, n, nu):
        st = make_thermal(n, nu)
        rep = oracle_check(st)
        assert rep["cutoff"] == default_cutoff(st)
        assert rep["trace_error"] < 1e-8
        assert rep["char_max_abs_error"] < 1e-6
        assert rep["mean_photon_error"] < 1e-5
        assert rep["min_eigenvalue"] >= -1e-9

    def test_benchmark_states_keep_cutoff(self):
        for g in (np.array([1.2, 0.4j]), np.array([0.9 - 0.5j, -0.6 + 0.3j])):
            g *= math.sqrt(1.6) / np.linalg.norm(g)
            assert default_cutoff(make_three_peak(2, 0.5, 0.2, g)) == 36

    def test_mean_photon(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([0.8]))
        fm = build_state(st)
        assert mean_photon_trace(fm) == pytest.approx(mean_photon(st), abs=1e-6)


def kron_sum_state(state, cutoff):
    """(1-nu^2)^n nu^N (sum_k w_k D(-g_k)) nu^N from dense Kronecker products."""
    dim = cutoff ** state.n
    core = np.zeros((dim, dim), dtype=complex)
    for w, g in zip(state.weights, state.centers):
        core += w * displacement_matrix(-g, cutoff).data
    k = np.arange(cutoff, dtype=float)
    filt = state.nu ** k
    for _ in range(state.n - 1):
        filt = np.outer(filt, state.nu ** k).reshape(-1)
    return (1.0 - state.nu ** 2) ** state.n * (filt[:, None] * core * filt[None, :])


def factored_cases():
    rng = make_rng(12)
    out = []
    for n, nu, gamma in [(1, 0.6, np.array([1.0 + 0.4j])),
                         (2, 0.4, np.array([0.4 - 0.2j, 0.3j]))]:
        u = random_symmetric_unitary(n, rng)
        out += [make_thermal(n, nu), make_three_peak(n, nu, 0.2, gamma),
                make_five_peak(n, nu, 0.2, gamma, u)]
    return out


class TestFactoredOracle:
    @pytest.mark.parametrize("state", factored_cases(),
                             ids=lambda st: f"n{st.n}-k{len(st.weights)}")
    @pytest.mark.parametrize("extra", [0, 7])
    def test_build_state_matches_kron_sum(self, state, extra):
        cutoff = default_cutoff(state) + extra
        fm = build_state(state, None if extra == 0 else cutoff)
        assert fm.cutoff == cutoff
        assert np.max(np.abs(fm.data - kron_sum_state(state, cutoff))) < 1e-14

    @pytest.mark.parametrize("state", [st for st in factored_cases() if len(st.weights) > 1],
                             ids=lambda st: f"n{st.n}-k{len(st.weights)}")
    def test_batched_char_trace_matches_dense_trace(self, state):
        fm = build_state(state)
        rng = make_rng(13)
        pts = 1.2 * (rng.normal(size=(9, state.n)) + 1j * rng.normal(size=(9, state.n)))
        batch = char_trace(fm, pts)
        assert batch.shape == (9,)
        for p, got in zip(pts, batch):
            dense = np.sum(fm.data.T * displacement_matrix(p, fm.cutoff).data)
            assert abs(got - dense) < 1e-12
            one = char_trace(fm, p)
            assert type(one) is complex and abs(one - dense) < 1e-12

    def test_char_trace_blocks_of_points_agree(self):
        # more points than one block holds at this cutoff
        st = make_three_peak(1, 0.6, 0.2, np.array([0.8]))
        fm = build_state(st, 200)
        rng = make_rng(14)
        pts = rng.normal(size=(20, 1)) + 1j * rng.normal(size=(20, 1))
        pts = np.concatenate([pts] * 3)
        batch = char_trace(fm, pts)
        assert np.max(np.abs(batch.reshape(3, 20) - batch[:20])) < 1e-14
        assert abs(batch[0] - char_trace(fm, pts[0])) < 1e-12

    def test_point_shape_checked(self):
        fm = build_state(make_three_peak(2, 0.4, 0.2, np.array([0.3, 0.1j])))
        with pytest.raises(ValidationError, match="shape"):
            char_trace(fm, np.zeros(3, dtype=complex))
        with pytest.raises(ValidationError, match="shape"):
            char_trace(fm, np.zeros((4, 1), dtype=complex))

    def test_two_mode_cutoff_too_small_raises_with_suggestion(self):
        st = make_three_peak(2, 0.7, 0.2, np.array([1.5, -1.0j]))
        with pytest.raises(ValidationError, match="suggested cutoff"):
            build_state(st, 6)


class TestHusimiWigner:
    def test_husimi_matches_s_qpd(self):
        st = make_three_peak(1, 0.6, 0.22, np.array([1.1 - 0.2j]))
        fm = build_state(st)
        rng = make_rng(4)
        for _ in range(20):
            z = 1.5 * (rng.normal(size=1) + 1j * rng.normal(size=1))
            assert husimi(fm, z) == pytest.approx(float(s_qpd(st, -1.0, z)), abs=1e-6)

    def test_wigner_parity_matches_closed_form(self):
        rng = make_rng(5)
        u = random_symmetric_unitary(1, rng)
        for st in [make_thermal(1, 0.5),
                   make_three_peak(1, 0.6, 0.2, np.array([1.0 + 0.3j])),
                   make_five_peak(1, 0.55, 0.2, np.array([0.7 - 0.4j]), u)]:
            # The parity operator does not decay with photon number, so the
            # displaced-parity route needs extra truncation headroom.
            fm = build_state(st, default_cutoff(st) + 40)
            for _ in range(10):
                b = 1.2 * (rng.normal(size=1) + 1j * rng.normal(size=1))
                assert wigner_parity(fm, b) == pytest.approx(float(wigner(st, b)), abs=1e-8)

    @pytest.mark.parametrize("five", [False, True], ids=["three-peak", "five-peak"])
    def test_two_modes_match_closed_forms(self, five):
        rng = make_rng(20)
        g = np.array([0.7 + 0.3j, -0.5 + 0.4j])
        st = (make_five_peak(2, 0.5, 0.2, g, random_symmetric_unitary(2, rng)) if five
              else make_three_peak(2, 0.5, 0.2, g))
        fm = build_state(st)
        assert fm.dim <= 1024
        pts = 1.2 * (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        pts[0] = 0.0
        pts[1, 0] = 0.0
        wig = wigner_parity(fm, pts)
        for p, w in zip(pts, wig):
            assert w == pytest.approx(float(wigner(st, p)), abs=1e-8)
            assert type(wigner_parity(fm, p)) is float and abs(wigner_parity(fm, p) - w) < 1e-15
            assert husimi(fm, p) == pytest.approx(float(s_qpd(st, -1.0, p)), abs=1e-6)

    def test_wigner_fourier_of_oracle_char(self):
        # Independent slow route: numerically Fourier transform the oracle's
        # characteristic function and compare to the closed form.
        st = make_three_peak(1, 0.5, 0.2, np.array([0.8]))
        fm = build_state(st)

        betas = np.array([0.2 + 0.1j, -0.6j])
        vals = s_qpd_grid_1mode(lambda b: char_trace(fm, b), 0.0, betas, half_width=5.0,
                                points=121)
        expect = wigner(st, betas.reshape(-1, 1))
        assert np.max(np.abs(vals - expect)) < 1e-4

    @pytest.mark.parametrize("state", factored_cases(),
                             ids=lambda st: f"n{st.n}-k{len(st.weights)}")
    def test_wigner_and_husimi_match_dense_traces(self, state):
        # dense references: D(beta) P D^dag(beta) and D(zeta)|0> on the whole space
        fm = build_state(state)
        rng = make_rng(22)
        pts = 1.2 * (rng.normal(size=(5, state.n)) + 1j * rng.normal(size=(5, state.n)))
        parity = np.diag((-1.0) ** np.arange(fm.cutoff))
        for _ in range(state.n - 1):
            parity = np.kron(parity, np.diag((-1.0) ** np.arange(fm.cutoff)))
        wig, hus = wigner_parity(fm, pts), husimi(fm, pts)
        for p, w, h in zip(pts, wig, hus):
            d = displacement_matrix(p, fm.cutoff).data
            dense_w = (2 / math.pi) ** state.n * np.sum(fm.data.T * (d @ parity @ d.conj().T))
            v = d[:, 0]
            dense_h = (v.conj() @ fm.data @ v) / math.pi ** state.n
            assert abs(w - dense_w) < 1e-12 and abs(h - dense_h) < 1e-12

    def test_husimi_batch_matches_points(self):
        for st in _benchmark_oracle_states(1):
            fm = build_state(st)
            pts = make_rng(23).normal(size=(7, 2)) + 1j * make_rng(24).normal(size=(7, 2))
            batch = husimi(fm, pts)
            assert batch.shape == (7,) and batch.dtype == float
            for p, h in zip(pts, batch):
                one = husimi(fm, p)
                assert type(one) is float and abs(one - h) < 1e-15

    @pytest.mark.parametrize("trace", [char_trace, wigner_parity, husimi])
    def test_two_mode_matrix_without_factors_is_rejected(self, trace):
        # a dense two-mode matrix has no product terms to trace
        fm = build_state(_benchmark_oracle_states(1)[0])
        dense = FockMatrix(n=2, cutoff=fm.cutoff, data=fm.data)
        with pytest.raises(ValidationError, match="factors"):
            trace(dense, np.zeros(2, dtype=complex))

    def test_fock1_char_oracle(self):
        cutoff = 40
        rho1 = np.zeros((cutoff, cutoff), dtype=complex)
        rho1[1, 1] = 1.0
        from cvlearn.fock_oracle import FockMatrix
        fm = FockMatrix(n=1, cutoff=cutoff, data=rho1)
        rng = make_rng(6)
        for _ in range(15):
            a = 1.4 * (rng.normal(size=1) + 1j * rng.normal(size=1))
            assert char_trace(fm, a) == pytest.approx(complex(fock1_char(a[0])), abs=1e-10)


class TestPetzD2:
    def test_gamma_zero_is_zero(self):
        st = make_three_peak(1, 0.5, 0.2, np.array([1e-16]))
        # degenerate gamma ~ 0 collapses peaks; construct small-but-finite gamma
        st = make_three_peak(1, 0.5, 0.2, np.array([1e-6]))
        numeric, closed = petz_d2(st, make_thermal(1, 0.5))
        assert closed == pytest.approx(0.0, abs=1e-9)
        assert numeric == pytest.approx(0.0, abs=1e-7)

    def test_large_gamma_limit(self):
        eps0 = 0.2
        st = make_three_peak(1, 0.5, eps0, np.array([6.0]))
        assert petz_d2_closed_form(st) == pytest.approx(math.log2(1 + 8 * eps0 ** 2), rel=1e-9)

    def test_numeric_matches_closed_form(self):
        st = make_three_peak(1, 0.5, 0.2, np.array([1.2]))
        numeric, closed = petz_d2(st, make_thermal(1, 0.5))
        assert numeric == pytest.approx(closed, abs=1e-5)

    def test_two_modes_match_closed_form_and_reflection(self):
        st = make_three_peak(2, 0.5, 0.2, np.array([0.6 - 0.5j, 0.4j]))
        th = make_thermal(2, 0.5)
        numeric, closed = petz_d2(st, th, mismatch_tol=1e-5)
        assert numeric == pytest.approx(closed, abs=1e-5)
        assert closed > 0.01
        u = random_symmetric_unitary(2, make_rng(21))
        numeric_r, _ = petz_d2(reflect(st, u), th, mismatch_tol=1e-5)
        assert abs(numeric_r - numeric) <= 1e-10

    def test_family_mismatch_rejected(self):
        st = make_three_peak(1, 0.5, 0.2, np.array([1.0]))
        with pytest.raises(ValidationError):
            petz_d2(st, make_thermal(1, 0.6))

    def test_bound_value(self):
        # D2 <= log2(1 + 8 eps0^2) <= (8/log 2) eps0^2.
        for g in [0.5, 1.0, 2.5]:
            st = make_three_peak(1, 0.6, 0.25, np.array([g]))
            d2 = petz_d2_closed_form(st)
            assert d2 <= math.log2(1 + 8 * 0.25 ** 2) + 1e-15
            assert d2 <= 8.0 / math.log(2) * 0.25 ** 2


class TestConjugateState:
    """The complex conjugate state rho* is the reflection with U = -I; the Bell
    partner is the reflection with U = I."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_reflection_by_minus_identity_is_rho_conjugate(self, n):
        rng = make_rng(30 + n)
        g = 0.9 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        u = random_symmetric_unitary(n, rng)
        minus_i = SymmetricUnitary(matrix=-np.eye(n))
        for st in (make_three_peak(n, 0.5, 0.2, g), make_five_peak(n, 0.5, 0.2, g, u)):
            cutoff = default_cutoff(st)
            rho = build_state(st, cutoff).data
            conj = build_state(reflect(st, minus_i), cutoff).data
            assert np.max(np.abs(conj - np.conj(rho))) <= 1e-14
            partner = bell_partner(st, u)
            assert partner.peak_multiset_equal(reflect(st, SymmetricUnitary(matrix=np.eye(n))))
            assert np.max(np.abs(build_state(partner, cutoff).data - np.conj(rho))) > 1e-2


def test_oracle_check_summary():
    st = make_three_peak(1, 0.6, 0.2, np.array([0.9]))
    rep = oracle_check(st, rng=make_rng(7))
    assert rep["char_max_abs_error"] < 1e-6
    assert rep["min_eigenvalue"] >= -1e-9
    assert rep["trace_error"] < 1e-8


def _full_min(fm):
    return float(np.linalg.eigvalsh(0.5 * (fm.data + fm.data.conj().T))[0])


def _benchmark_oracle_states(seed):
    """The two n = 2 states the benchmark's oracle kinds check (default cutoff 36)."""
    rng = np.random.default_rng([seed, 300])
    g = rng.normal(size=2) + 1j * rng.normal(size=2)
    g *= math.sqrt(1.6) / np.linalg.norm(g)
    u = random_symmetric_unitary(2, rng)
    return [make_three_peak(2, 0.5, 0.2, g), make_five_peak(2, 0.5, 0.2, g, u)]


def _sweep_states():
    """Criterion-1-style states: n = 1 at cutoff +40, and a few at n = 2."""
    rng = make_rng(17)
    out = []
    for i in range(12):
        n = 1 if i < 9 else 2
        nu = float(rng.uniform(0.3, 0.9 if n == 1 else 0.6))
        eps0 = float(rng.uniform(0.02, 0.25))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        g *= rng.uniform(0.2, 2.0 if n == 1 else 1.2) / np.linalg.norm(g)
        st = (make_three_peak(n, nu, eps0, g) if i % 2 == 0
              else make_five_peak(n, nu, eps0, g, random_symmetric_unitary(n, rng)))
        out.append(build_state(st, default_cutoff(st) + (40 if n == 1 else 0)))
    return out


class TestCertifiedMinEigenvalue:
    """min_eigenvalue is a lower bound on lam_min((rho + rho^H)/2) within 1e-13."""

    @pytest.mark.parametrize("fm", [build_state(st) for st in _benchmark_oracle_states(1)]
                             + _sweep_states(),
                             ids=lambda fm: f"n{fm.n}-c{fm.cutoff}")
    def test_within_tolerance_below_full_spectrum(self, fm):
        full = _full_min(fm)
        assert full - 2e-13 <= min_eigenvalue(fm) <= full + 1e-15

    def test_injected_negative_direction_is_reported(self):
        fm = build_state(_benchmark_oracle_states(7)[0])
        rng = make_rng(18)
        v = np.zeros(fm.dim, dtype=complex)
        v[:40] = rng.normal(size=40) + 1j * rng.normal(size=40)
        v /= np.linalg.norm(v)
        bad = FockMatrix(n=fm.n, cutoff=fm.cutoff,
                         data=fm.data - 1e-7 * np.outer(v, v.conj()))
        full = _full_min(bad)
        assert full < -1e-9
        assert min_eigenvalue(bad) <= full + 1e-15

    def test_negative_direction_in_dropped_rows_is_bounded(self):
        # the -3e-14 row is light enough to drop, so only the subtracted
        # norm of the dropped rows keeps the bound below it
        data = np.diag(np.r_[np.ones(10), np.zeros(9), -3e-14]).astype(complex)
        fm = FockMatrix(n=1, cutoff=20, data=data)
        assert -1e-13 <= min_eigenvalue(fm) <= -3e-14

    def test_column_weight_of_non_hermitian_input_counts(self):
        # rows 10-19 of rho are zero but their columns are not, so h couples them
        data = np.diag(np.r_[np.ones(10), np.zeros(10)]).astype(complex)
        data[0, 10:] = 3e-7
        fm = FockMatrix(n=1, cutoff=20, data=data)
        full = _full_min(fm)
        assert full < -1e-13
        assert full - 2e-13 <= min_eigenvalue(fm) <= full + 1e-15

    def test_no_droppable_row_gives_full_spectrum(self):
        rng = make_rng(19)
        data = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        fm = FockMatrix(n=1, cutoff=8, data=data)
        assert min_eigenvalue(fm) == np.linalg.eigvalsh(0.5 * (data + data.conj().T))[0]


def _traced_oracle_check(state, cutoff=None):
    """(report, tracemalloc peak) of one oracle_check after a warm-up call."""
    oracle_check(state, cutoff)               # tables and imports are warm
    tracemalloc.start()
    try:
        rep = oracle_check(state, cutoff)
        return rep, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOracle:
    """oracle_check works from the terms alone, never from rho's rows; the
    dense `data`, read as one term of full dimension, is the reference."""

    def test_oracle_check_traced_peak_is_bounded(self):
        # a dense dim-1296 rho alone is 26.9 MB
        for st in _benchmark_oracle_states(1):
            rep, peak = _traced_oracle_check(st)
            assert rep["dim"] == 1296
            assert peak <= 8 * 2 ** 20

    def test_oracle_check_at_cutoff_63_traced_peak_is_bounded(self):
        # dim 3969, where a dense rho alone is 252 MB
        u = random_symmetric_unitary(2, make_rng(3))
        st = make_five_peak(2, 0.5, 0.2, np.array([0.8 + 0.4j, -0.5j]), u)
        rep, peak = _traced_oracle_check(st, 63)
        assert rep["dim"] == 3969 and rep["kept_rows"] < rep["dim"]
        assert rep["min_eigenvalue"] >= -1e-9
        assert peak <= 8 * 2 ** 20

    def test_warm_thermal_kept_block_is_held_once(self):
        # 1917 kept rows: one complex K x K block is 56 MiB, two would be 112
        rep, peak = _traced_oracle_check(make_thermal(2, 0.8))
        assert rep["kept_rows"] == 1917
        assert peak <= 85 * 2 ** 20

    def test_oracle_pass_leaves_dense_matrix_unformed(self):
        st = _benchmark_oracle_states(7)[1]
        fm = build_state(st)
        min_eigenvalue(fm)
        mean_photon_trace(fm)
        char_trace(fm, np.zeros(2))
        assert "data" not in vars(fm)
        assert fm.data is fm.data

    @pytest.mark.parametrize("seed", [1, 7])
    def test_report_matches_dense_reference(self, seed):
        for st in _benchmark_oracle_states(seed):
            rep = oracle_check(st)
            fm = build_state(st)
            dense = min_eigenvalue(FockMatrix(n=fm.n, cutoff=fm.cutoff, data=fm.data))
            assert abs(rep["min_eigenvalue"] - dense) <= 1e-15
            assert rep["dim"] == fm.dim == 1296
            assert rep["kept_rows"] == dense.kept_rows <= rep["dim"]
            assert rep["dropped_norm_bound"] == pytest.approx(dense.dropped_norm_bound, abs=1e-15)
            assert 0.0 < rep["dropped_norm_bound"] <= 1e-13
            assert rep["trace_error"] == pytest.approx(abs(np.trace(fm.data) - 1.0), abs=2e-16)
            number = np.add.outer(np.arange(fm.cutoff), np.arange(fm.cutoff)).ravel()
            photons = np.real(np.sum(np.diag(fm.data) * number))
            assert mean_photon_trace(fm) == pytest.approx(photons, abs=1e-15)

    @pytest.mark.parametrize("fm", _sweep_states(), ids=lambda fm: f"n{fm.n}-c{fm.cutoff}")
    def test_streamed_min_eigenvalue_matches_dense(self, fm):
        dense = min_eigenvalue(FockMatrix(n=fm.n, cutoff=fm.cutoff, data=fm.data))
        got = min_eigenvalue(fm)
        assert abs(got - dense) <= 1e-15
        assert got.kept_rows == dense.kept_rows

    def test_no_dropped_row_reports_zero_bound(self):
        data = make_rng(25).normal(size=(8, 8)).astype(complex)
        lam = min_eigenvalue(FockMatrix(n=1, cutoff=8, data=data))
        assert lam.kept_rows == 8 and lam.dropped_norm_bound == 0.0

    def test_hermitian_bound_covers_dense_error(self):
        states = _benchmark_oracle_states(1) + factored_cases()
        for st in states:
            fm = build_state(st)
            assert _antihermitian_bound(fm, hermitian_partners(st.centers)[0]) == 0.0
        st = states[1]
        fm = build_state(st)
        partner = hermitian_partners(st.centers)[0]
        factors = fm.factors.copy()
        factors[0, 1, 0, 1] += 1e-6
        factors[1, 2, 3, 0] -= 2e-7j
        skewed = FockMatrix(n=2, cutoff=fm.cutoff, weights=fm.weights, factors=factors)
        bound = _antihermitian_bound(skewed, partner)
        d = skewed.data
        assert bound > 1e-8
        assert bound >= np.max(np.abs(d - d.conj().T))
        assert _antihermitian_bound(fm, np.zeros_like(partner)) == math.inf

    def test_build_state_hermitian_guard_raises(self, monkeypatch):
        real = fock_oracle._displacements_1mode

        def skewed(alphas, cutoff):
            d = real(alphas, cutoff)
            d[..., 0, 1] += 1e-6              # off the diagonal, so the trace holds
            return d

        monkeypatch.setattr(fock_oracle, "_displacements_1mode", skewed)
        with pytest.raises(NumericFailure, match="not Hermitian"):
            build_state(_benchmark_oracle_states(1)[0])

    def test_two_mode_matrix_without_factors_reads_its_diagonal(self):
        fm = build_state(_benchmark_oracle_states(1)[0])
        dense = FockMatrix(n=2, cutoff=fm.cutoff, data=fm.data)
        assert mean_photon_trace(dense) == pytest.approx(mean_photon_trace(fm), abs=1e-15)


def _elementwise_petz_value(st, th, cutoff=None):
    """Tr[rho F^-1 rho] summed elementwise over the dense rho."""
    rho = build_state(st, cutoff)
    k = np.arange(rho.cutoff, dtype=float)
    number = k
    for _ in range(st.n - 1):
        number = np.add.outer(number, k).ravel()
    inv_diag = 1.0 / ((1.0 - th.nu ** 2) ** th.n * th.nu ** (2.0 * number))
    return np.real(np.sum(rho.data * (inv_diag[:, None] * rho.data).T))


class TestFactoredPetz:
    @pytest.mark.parametrize("n, nu, gamma", [(1, 0.5, [1.2]), (1, 0.6, [0.4 - 0.9j]),
                                              (2, 0.5, [0.6 - 0.5j, 0.4j]),
                                              (2, 0.4, [1.0, -0.3 + 0.2j])])
    def test_matches_elementwise_sum(self, n, nu, gamma):
        st, th = make_three_peak(n, nu, 0.2, np.array(gamma)), make_thermal(n, nu)
        numeric, _ = petz_d2(st, th, mismatch_tol=1e-4)
        ref = _elementwise_petz_value(st, th)
        assert 2.0 ** numeric == pytest.approx(ref, rel=1e-12)

    def test_mismatch_still_raises(self):
        st = make_three_peak(2, 0.5, 0.2, np.array([0.6 - 0.5j, 0.4j]))
        with pytest.raises(NumericFailure, match="Petz D2 mismatch"):
            petz_d2(st, make_thermal(2, 0.5), mismatch_tol=1e-15)
