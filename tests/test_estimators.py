"""Estimator and planner tests: unbiasedness, the sign-resolution contract,
truncation behavior, and the planner's normative constants."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvlearn import estimators
from cvlearn.errors import ValidationError
from cvlearn.estimators import (
    EstimateReport,
    PlannerInputs,
    chi_heterodyne_means,
    chi_squared_means,
    effective_radius,
    estimate_chi_classicality_aware,
    estimate_chi_heterodyne,
    estimate_chi_squared,
    estimate_record,
    SCHEMES,
    hoeffding_count,
    hoeffding_count_float,
    plan_samples,
    resolve_sign,
    scheme_cost,
)
from cvlearn.measurements import (
    bell_mixture,
    sample_bell,
    sample_heterodyne,
)
from cvlearn.numerics import make_rng, random_symmetric_unitary
from cvlearn.states import (
    bell_partner,
    char_fn,
    classicality_smax,
    make_three_peak,
    make_three_peak_classical,
    make_thermal,
)


def bell_record(state, seed, count):
    u = random_symmetric_unitary(state.n, make_rng(1000 + seed))
    return sample_bell(state, bell_partner(state, u), count, seed=seed)


class TestChiSquaredEstimator:
    def test_origin_exactly_one(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        rec = bell_record(st, seed=1, count=2000)
        assert estimate_chi_squared(rec, np.array([0.0])) == 1.0 + 0.0j

    def test_accuracy_at_gamma(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        rec = bell_record(st, seed=2, count=100_000)
        est = estimate_chi_squared(rec, np.array([1.0]))
        truth = complex(char_fn(st, np.array([1.0]))) ** 2
        assert abs(est - truth) < 3.0 * math.sqrt(2.0 / rec.count)

    def test_conjugate_symmetry_exact(self):
        st = make_three_peak(1, 0.7, 0.2, np.array([0.8j]))
        rec = bell_record(st, seed=3, count=5000)
        a = np.array([0.4 - 0.9j])
        assert estimate_chi_squared(rec, -a) == np.conj(estimate_chi_squared(rec, a))

    def test_scheme_mismatch_rejected(self):
        st = make_thermal(1, 0.5)
        rec = sample_heterodyne(st, 100, seed=1)
        with pytest.raises(ValidationError):
            estimate_chi_squared(rec, np.array([0.0]))

    def test_unbiasedness_over_many_records(self):
        # Mean over R records of N samples stays within 4/sqrt(R N) of truth.
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        u = random_symmetric_unitary(1, make_rng(900))
        mix = bell_mixture(st, bell_partner(st, u))
        alpha = np.array([[0.7 + 0.2j]])
        R, N = 200, 10_000
        rng = make_rng(901)
        means = []
        for _ in range(R):
            z = mix.sample(N, rng)
            means.append(chi_squared_means(z, alpha)[0])
        grand = np.mean(means)
        truth = complex(char_fn(st, alpha[0])) ** 2
        assert abs(grand - truth) < 4.0 / math.sqrt(R * N)


class TestResolveSign:
    def test_zero_maps_to_zero(self):
        assert resolve_sign(0.0, 0.3) == 0.0

    def test_boundary_is_case_one(self):
        eps = 0.3
        v = (2.0 / 3.0) * eps * eps
        assert resolve_sign(v + 0j, eps) == 0.0
        assert resolve_sign(v * 1.0001 + 0j, eps) != 0.0

    def test_exact_square(self):
        assert resolve_sign(0.25 + 0.0j, 0.1) == pytest.approx(0.5)

    def test_principal_branch(self):
        u = resolve_sign(-1.0 + 0.0j, 0.1)
        assert u.real == pytest.approx(0.0, abs=1e-15) and u.imag > 0

    def test_contract_randomized(self):
        # Whenever |v - chi^2| <= eps^2/3, min_tau |tau u - chi| <= eps.
        rng = make_rng(42)
        for _ in range(2000):
            eps = rng.uniform(0.02, 0.6)
            chi = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            if abs(chi) > 1:
                chi /= abs(chi) ** rng.uniform(0, 1)
            noise = rng.uniform(0, eps ** 2 / 3.0) * np.exp(2j * np.pi * rng.uniform())
            u = resolve_sign(chi ** 2 + noise, eps)
            assert min(abs(u - chi), abs(u + chi)) <= eps + 1e-12

    def test_case2_bound_is_eps_over_sqrt6(self):
        rng = make_rng(43)
        for _ in range(500):
            eps = rng.uniform(0.05, 0.5)
            chi = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            noise = rng.uniform(0, eps ** 2 / 3.0) * np.exp(2j * np.pi * rng.uniform())
            v = chi ** 2 + noise
            if abs(v) <= (2 / 3) * eps ** 2:
                continue
            u = resolve_sign(v, eps)
            assert min(abs(u - chi), abs(u + chi)) <= eps / math.sqrt(6) + 1e-12


class TestHeterodyneEstimator:
    def test_origin_exactly_one(self):
        st = make_thermal(1, 0.6)
        rec = sample_heterodyne(st, 1000, seed=5)
        assert estimate_chi_heterodyne(rec, np.array([0.0])) == 1.0 + 0.0j

    def test_accuracy_thermal(self):
        st = make_thermal(1, 0.6)
        rec = sample_heterodyne(st, 1_000_000, seed=6)
        alpha = np.array([1.0])
        est = estimate_chi_heterodyne(rec, alpha)
        bound = math.exp(0.5)  # summand modulus e^{|alpha|^2/2}
        assert abs(est - math.exp(-st.a)) < 3.0 * bound * math.sqrt(2.0 / rec.count)

    def test_conjugate_symmetry_exact(self):
        st = make_thermal(1, 0.5)
        rec = sample_heterodyne(st, 4000, seed=7)
        a = np.array([0.3 + 0.5j])
        assert estimate_chi_heterodyne(rec, -a) == np.conj(estimate_chi_heterodyne(rec, a))

    def test_trivial_modulus_bounds(self):
        # |estimate| <= e^{|a|^2/2} for heterodyne, <= 1 for the Bell chi^2 mean.
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        het = sample_heterodyne(st, 2000, seed=8)
        bell = bell_record(st, seed=8, count=2000)
        rng = make_rng(88)
        for _ in range(20):
            a = rng.normal(size=1) + 1j * rng.normal(size=1)
            assert abs(estimate_chi_heterodyne(het, a)) \
                <= math.exp(0.5 * abs(a[0]) ** 2) * (1 + 1e-12)
            assert abs(estimate_chi_squared(bell, a)) <= 1 + 1e-12


class TestClassicalityAware:
    def test_truncation_arithmetic(self):
        # S = 1, eps = 0.1: L = 2 log 10 ~ 4.605; |alpha|^2 = 5 is truncated.
        st = make_thermal(1, 0.5)
        rec = sample_heterodyne(st, 500, seed=8)
        rep = estimate_chi_classicality_aware(rec, np.array([math.sqrt(5.0)]), 1.0, 0.1)
        assert rep.truncated and rep.estimate == 0.0
        assert effective_radius(1.0, 0.1) == pytest.approx(2 * math.log(10.0), rel=1e-14)

    def test_origin_never_truncated(self):
        st = make_thermal(1, 0.5)
        rec = sample_heterodyne(st, 3000, seed=9)
        rep = estimate_chi_classicality_aware(rec, np.array([0.0]), 0.3, 0.1)
        assert not rep.truncated
        assert rep.estimate == 1.0 + 0.0j

    def test_truncated_error_bounded_by_tail(self):
        # On states with s_max >= S the zero estimate is eps-accurate.
        rng = make_rng(10)
        S, eps = 0.5, 0.15
        st = make_three_peak_classical(1, S, 0.1, np.array([1.4]))
        assert classicality_smax(st.nu, 0.1, np.array([1.4])).s_max >= S
        rec = sample_heterodyne(st, 100, seed=11)
        for _ in range(25):
            r2 = rng.uniform(effective_radius(S, eps), 2 * effective_radius(S, eps))
            alpha = math.sqrt(r2) * np.exp(2j * np.pi * rng.uniform()) * np.ones(1)
            rep = estimate_chi_classicality_aware(rec, alpha, S, eps)
            assert rep.truncated
            chi = complex(char_fn(st, alpha))
            assert abs(chi) <= math.exp(-0.5 * S * r2) + 1e-12
            assert abs(rep.estimate - chi) <= eps

    def test_nonpositive_classicality_rejected(self):
        st = make_thermal(1, 0.5)
        rec = sample_heterodyne(st, 100, seed=12)
        with pytest.raises(ValidationError):
            estimate_chi_classicality_aware(rec, np.array([1.0]), 0.0, 0.1)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1])
    def test_radius_rejects_epsilon_outside_unit_interval(self, eps):
        with pytest.raises(ValidationError, match=r"epsilon must lie in \(0,1\)"):
            effective_radius(0.5, eps)


class TestPhaseFactorSums:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("m", [1, 17])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000, 5000])
    def test_matches_direct_sum(self, n, m, chunk):
        # 1000 samples: chunks that divide N, that do not, one row, and more than N.
        rng = make_rng(50 + n)
        z = rng.normal(size=(1000, n)) + 1j * rng.normal(size=(1000, n))
        f = 2.0 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        want = np.exp(1j * np.imag(z @ f.T)).sum(0)
        got = estimators._phase_factor_sums(z, f, np.float64, chunk)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_default_chunk_bounds_phase_buffers(self, monkeypatch):
        # A direct call with many points keeps chunk x M at 2^20 entries;
        # an explicit chunk passes through unchanged.
        seen = []
        inner = estimators._phase_factor_sums

        def spy(outcomes, freqs, dtype, chunk):
            seen.append((len(freqs), chunk))
            return inner(outcomes, freqs, dtype, chunk)

        monkeypatch.setattr(estimators, "_phase_factor_sums", spy)
        rng = make_rng(52)
        z = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
        pts = 0.3 * (rng.normal(size=(600, 2)) + 1j * rng.normal(size=(600, 2)))
        het = chi_heterodyne_means(z, pts)
        chi2 = chi_squared_means(z, pts[:3])
        chi_heterodyne_means(z, pts, chunk=1000)
        assert seen == [(600, (1 << 20) // 600), (3, (1 << 20) // 3), (600, 1000)]
        assert 600 * seen[0][1] <= 1 << 20
        assert het.shape == (600,) and chi2.shape == (3,)


    @pytest.mark.parametrize("means", [chi_squared_means, chi_heterodyne_means])
    @pytest.mark.parametrize("outcome_dtype", [complex, np.complex64])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_trial_axis_equals_per_trial_calls(self, means, outcome_dtype, chunk):
        # Outcomes (T, N, n) with alphas (T, M, n): trial t's means are the
        # 2-D call on its own outcomes and alphas, the game's complex64 copies included.
        rng = make_rng(53)
        z = (rng.normal(size=(6, 50, 2)) + 1j * rng.normal(size=(6, 50, 2))).astype(outcome_dtype)
        pts = 0.4 * (rng.normal(size=(6, 3, 2)) + 1j * rng.normal(size=(6, 3, 2)))
        got = means(z, pts, chunk=chunk)
        want = np.array([means(zt, at, chunk=chunk) for zt, at in zip(z, pts)])
        assert got.shape == (6, 3)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestPhaseFactorDeterminism:
    # Blocks of 7000 rows, the last one row wide: with M >= 4 the two full
    # blocks split their query rows between two threads, and with M = 17 at
    # n = 3 their matmuls are cut into column slices.
    chunk, count, n = 7000, 14_001, 3

    @pytest.mark.parametrize("m", [1, 2, 10, 17])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_repeatable_and_equal_to_per_block_sums(self, m, dtype, lead, monkeypatch):
        rng = make_rng(54 + m)
        z = rng.normal(size=(*lead, self.count, 2 * self.n)).view(complex)
        f = 2.0 * rng.normal(size=(*lead, m, 2 * self.n)).view(complex)
        handoffs, run_beside = [], estimators.run_beside

        def counted(fn, *args):
            handoffs.append(fn)
            return run_beside(fn, *args)

        monkeypatch.setattr(estimators, "run_beside", counted)
        runs = [estimators._phase_factor_sums(z, f, dtype, self.chunk) for _ in range(3)]
        assert len(handoffs) == (6 if m >= 4 else 0)
        in_order = np.zeros(runs[0].shape, dtype=complex)
        for lo in range(0, self.count, self.chunk):
            in_order += estimators._phase_factor_sums(z[..., lo:lo + self.chunk, :], f, dtype,
                                                      self.chunk)
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])
        assert np.array_equal(runs[0], in_order)


# Prints the sha256 of chi_squared_means' bytes in two cases: float32 at M=10
# over three blocks of 104,857 rows, where each block's query rows are split
# between two threads and the matmul is sliced, and float64 in one block,
# where one whole matmul runs and OpenBLAS may use its thread pool.
MEANS_DIGESTS = """
import hashlib, json
import numpy as np
from cvlearn.estimators import chi_squared_means
from cvlearn.numerics import make_rng

digests = []
for count, dtype in ((300_000, np.float32), (100_000, np.float64)):
    rng = make_rng(58)
    z = rng.normal(size=(count, 4)).view(complex)
    alphas = 0.7 * rng.normal(size=(10, 4)).view(complex)
    means = chi_squared_means(z, alphas, dtype=dtype)
    digests.append(hashlib.sha256(means.tobytes()).hexdigest())
print(json.dumps(digests))
"""


class TestBitsAcrossBlasThreads:
    def test_one_openblas_thread_gives_the_default_bits(self, capsys):
        # OpenBLAS reads its thread count when it loads, so each count runs in
        # a fresh interpreter: one thread, and the default (unset). This
        # process, whatever its count, must agree with both.
        exec(MEANS_DIGESTS, {})
        here = json.loads(capsys.readouterr().out)
        src = str(Path(estimators.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            proc = subprocess.run([sys.executable, "-c", MEANS_DIGESTS], capture_output=True,
                                  text=True, env=env | threads)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == here, threads


class TestEstimateRecord:
    def records(self):
        st = make_three_peak(2, 0.7, 0.2, np.array([0.8 + 0.3j, -0.4j]))
        return bell_record(st, 21, 5000), sample_heterodyne(st, 5000, seed=22)

    def points(self):
        rng = make_rng(23)
        return np.vstack([np.zeros(2), 1.1 * (rng.normal(size=(9, 2))
                                              + 1j * rng.normal(size=(9, 2)))])

    def test_batched_matches_per_point(self):
        bell, het = self.records()
        pts = self.points()
        reps = estimate_record(bell, pts, "bell_chi2")
        assert [r.scheme for r in reps] == ["bell_chi2"] * len(pts)
        for r, a in zip(reps, pts):
            assert r.point == [[z.real, z.imag] for z in a]
            assert abs(r.estimate - estimate_chi_squared(bell, a)) < 1e-12
        for r, a in zip(estimate_record(bell, pts, "bell_chi", epsilon=0.1), pts):
            assert abs(r.estimate - resolve_sign(estimate_chi_squared(bell, a), 0.1)) < 1e-12
        for r, a in zip(estimate_record(het, pts, "heterodyne"), pts):
            assert abs(r.estimate - estimate_chi_heterodyne(het, a)) < 1e-12

    def test_classicality_aware_zeroes_beyond_radius(self):
        _, het = self.records()
        pts = self.points()
        S, eps = 0.5, 0.1
        reps = estimate_record(het, pts, "classicality_aware", epsilon=eps, classicality=S)
        beyond = np.sum(np.abs(pts) ** 2, axis=1) >= effective_radius(S, eps)
        assert 0 < beyond.sum() < len(pts)
        for r, a, out in zip(reps, pts, beyond):
            assert r.truncated == out
            want = 0.0 if out else estimate_chi_heterodyne(het, a)
            assert abs(r.estimate - want) < 1e-12
            single = estimate_chi_classicality_aware(het, a, S, eps)
            assert single.truncated == out and abs(single.estimate - r.estimate) < 1e-12

    def test_phase_buffers_bounded_in_points(self, monkeypatch):
        # The chunk x M phase buffers stay at 2^20 entries however many points.
        _, het = self.records()
        pts = np.tile(self.points(), (60, 1))
        seen = []
        inner = estimators._phase_factor_sums

        def spy(outcomes, freqs, dtype, chunk):
            seen.append((len(freqs), chunk))
            return inner(outcomes, freqs, dtype, chunk)

        monkeypatch.setattr(estimators, "_phase_factor_sums", spy)
        reps = estimate_record(het, pts, "heterodyne")
        assert seen == [(len(pts), (1 << 20) // len(pts))]
        for r, a in zip(reps[::37], pts[::37]):
            assert abs(r.estimate - estimate_chi_heterodyne(het, a)) < 1e-12

    @pytest.mark.parametrize("per_point", [estimate_chi_squared, estimate_chi_heterodyne])
    def test_per_point_rejects_wrong_length_alpha(self, per_point):
        # the per-point estimators are one-row calls of estimate_record, so a
        # two-component alpha at n=1 fails estimate_record's query-point check
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        rec = (bell_record(st, seed=4, count=200) if per_point is estimate_chi_squared
               else sample_heterodyne(st, 200, seed=4))
        with pytest.raises(ValidationError, match="query points must be rows of 1 components"):
            per_point(rec, np.array([0.1, 0.2]))

    def test_input_checks(self):
        bell, het = self.records()
        pts = self.points()
        for bad in [dict(scheme="bell_chi3"), dict(scheme="bell_chi"),
                    dict(scheme="heterodyne"), dict(scheme="bell_chi2", alphas=pts[:, :1]),
                    dict(scheme="classicality_aware", record=het, epsilon=0.1)]:
            args = dict(record=bell, alphas=pts) | bad
            with pytest.raises(ValidationError):
                estimate_record(args.pop("record"), args.pop("alphas"), **args)


class TestPlanner:
    def test_classical_state_scaling(self):
        # S = 1 gives N proportional to eps^-4 log(4M/delta).
        for eps in [0.2, 0.1, 0.05]:
            n = plan_samples("classicality_aware",
                             PlannerInputs(epsilon=eps, delta=0.1, M=10, S=1.0))
            expect = math.ceil(4.0 * eps ** -4 * math.log(400.0))
            assert n == expect

    def test_bell_chi_eps4_scaling(self):
        n1 = plan_samples("bell_chi", PlannerInputs(epsilon=0.2, delta=0.1, M=5))
        n2 = plan_samples("bell_chi", PlannerInputs(epsilon=0.1, delta=0.1, M=5))
        assert n2 / n1 == pytest.approx(16.0, rel=1e-4)

    def test_bell_chi2_eps2_scaling(self):
        n1 = plan_samples("bell_chi2", PlannerInputs(epsilon=0.2, delta=0.1, M=5))
        n2 = plan_samples("bell_chi2", PlannerInputs(epsilon=0.1, delta=0.1, M=5))
        assert n2 / n1 == pytest.approx(4.0, rel=1e-4)

    def test_doubling_m_growth(self):
        for m in [1, 10, 100]:
            r = (hoeffding_count_float(1.0, 0.1, 0.25, 2 * m)
                 / hoeffding_count_float(1.0, 0.1, 0.25, m))
            assert r == pytest.approx(math.log(8 * m / 0.25) / math.log(4 * m / 0.25), rel=1e-12)

    def test_bell_schemes_are_n_independent(self):
        # The bell planner consumes no mode count or radius at all.
        a = plan_samples("bell_chi", PlannerInputs(epsilon=0.1, delta=0.1, M=10))
        b = plan_samples("bell_chi", PlannerInputs(epsilon=0.1, delta=0.1, M=10,
                                                   alpha2_max=50.0))
        assert a == b

    def test_heterodyne_per_mode_base(self):
        kappa = 1.3
        vals = [hoeffding_count_float(math.exp(kappa * n / 2), 0.1, 0.1, 4)
                for n in [1, 2, 3, 4]]
        for lo, hi in zip(vals, vals[1:]):
            assert hi / lo == pytest.approx(math.exp(kappa), rel=1e-12)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_coverage_on_planned_counts(self):
        # All-points chi^2 coverage at the planned N stays above 1 - delta.
        eps, delta, m = 0.45, 0.1, 10
        n_plan = plan_samples("bell_chi", PlannerInputs(epsilon=eps, delta=delta, M=m))
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        u = random_symmetric_unitary(1, make_rng(800))
        mix = bell_mixture(st, bell_partner(st, u))
        rng = make_rng(801)
        alphas = 0.9 * (rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1)))
        truth = np.asarray(char_fn(st, alphas)) ** 2
        trials, hits = 500, 0
        for _ in range(trials):
            z = mix.sample(n_plan, rng, dtype=np.float32)
            errs = np.abs(chi_squared_means(z, alphas, dtype=np.float32) - truth)
            hits += bool(np.all(errs <= eps * eps / 3.0))
        assert hits / trials >= 1.0 - delta

    def test_validation(self):
        with pytest.raises(ValidationError):
            plan_samples("bogus", PlannerInputs(epsilon=0.1, delta=0.1))
        with pytest.raises(ValidationError):
            plan_samples("heterodyne", PlannerInputs(epsilon=0.1, delta=0.1))
        with pytest.raises(ValidationError):
            plan_samples("classicality_aware", PlannerInputs(epsilon=0.1, delta=0.1, S=1.5))
        with pytest.raises(ValidationError):
            PlannerInputs(epsilon=0.0, delta=0.1)

    def test_scheme_cost_is_the_planners_b_and_target(self):
        inp = PlannerInputs(epsilon=0.1, delta=0.1, M=3, alpha2_max=4.0, S=0.5)
        assert scheme_cost("bell_chi2", inp) == (1.0, 0.1)
        assert scheme_cost("bell_chi", inp) == (1.0, 0.1 * 0.1 / 3.0)
        assert scheme_cost("heterodyne", inp) == (math.exp(2.0), 0.1)
        assert scheme_cost("classicality_aware", inp) == (0.1 ** -2.0, 0.1)
        for scheme in SCHEMES:
            assert plan_samples(scheme, inp) == hoeffding_count(*scheme_cost(scheme, inp), 0.1, 3)

    def test_overflow_raises_validation_error(self):
        cases = [("heterodyne", PlannerInputs(epsilon=0.1, delta=0.1, alpha2_max=1500.0)),
                 ("classicality_aware", PlannerInputs(epsilon=1e-3, delta=0.1, S=1e-3))]
        for scheme, inp in cases:
            assert scheme_cost(scheme, inp)[0] == math.inf
            with pytest.raises(ValidationError, match="overflows a float"):
                plan_samples(scheme, inp)


def test_estimate_report_serializes():
    rep = EstimateReport(point=[[0.5, -0.25]], estimate=0.3 + 0.1j, scheme="heterodyne",
                         samples_used=100, epsilon=0.1, delta=0.05)
    d = rep.to_json_dict()
    assert d["estimate"] == [0.3, 0.1]
    assert d["samples_used"] == 100
