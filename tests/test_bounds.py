"""Bound-formula tests: exact ratios, theorem-hypothesis enforcement,
threshold geometry, and curve-table plumbing."""

import json
import math

import numpy as np
import pytest

from cvlearn.bounds import (
    BoundInputs,
    CONSTANTS_VERSION,
    LB_EF_CONST,
    LB_UNRESTRICTED_CONST,
    classicality_f,
    classicality_thresholds,
    emit_curves,
    lb_ea_no_reflected,
    lb_ef,
    lb_ef_classical,
    lb_ef_symmetric,
    lb_unrestricted,
    ub_bm,
    ub_hd,
    ub_hd_classical,
)
from cvlearn.errors import HypothesisViolation, ValidationError
from cvlearn.estimators import PlannerInputs, plan_samples
from cvlearn.numerics import regularized_upper_gamma
from cvlearn.states import make_thermal, s_prime


def inputs(**kw):
    base = dict(epsilon=0.1, kappa=2.0, n=8, delta=0.1, K=1, S=None, eta3=1e-6, M=1)
    base.update(kw)
    return BoundInputs(**base)


class TestLbEf:
    def test_per_mode_ratio_exact(self):
        for kappa in [0.3, 1.0, 2.0, 5.0]:
            r = lb_ef(inputs(kappa=kappa, n=21)) / lb_ef(inputs(kappa=kappa, n=20))
            assert r == pytest.approx(1.0 + 0.99 * kappa, rel=1e-12)

    def test_main_text_magnitude_n50(self):
        val = lb_ef(inputs(epsilon=0.09, kappa=2.0, n=50))
        expect = LB_EF_CONST / (1 + 1e-6) ** 2 / 0.09 ** 2 * 2.98 ** 50
        assert val == pytest.approx(expect, rel=1e-12)
        assert 1e23 < val < 1e25  # order of magnitude behind the headline gap

    def test_small_kappa_limit(self):
        v = lb_ef(inputs(kappa=1e-6, eta3=1e-14, n=8))
        const = LB_EF_CONST / (1 + 1e-14) ** 2 / 0.1 ** 2
        assert v / const == pytest.approx(1.0, abs=1e-4)

    def test_hypotheses_enforced(self):
        with pytest.raises(HypothesisViolation, match="n >= 8"):
            lb_ef(inputs(n=7))
        with pytest.raises(HypothesisViolation, match="epsilon"):
            lb_ef(inputs(epsilon=0.245))
        with pytest.raises(HypothesisViolation, match="eta3"):
            lb_ef(inputs(epsilon=0.2, eta3=0.3))  # above 0.245/eps - 1
        with pytest.raises(HypothesisViolation, match="admissible window"):
            lb_ef(inputs(kappa=1e-9, eta3=1e-6))


class TestLbEfSymmetric:
    def test_per_mode_ratio(self):
        r = lb_ef_symmetric(inputs(epsilon=0.05, kappa=1.5, n=13)) \
            / lb_ef_symmetric(inputs(epsilon=0.05, kappa=1.5, n=12))
        assert r == pytest.approx(1.0 + 0.66 * 1.5, rel=1e-12)

    def test_epsilon_sup_is_open(self):
        with pytest.raises(HypothesisViolation):
            lb_ef_symmetric(inputs(epsilon=0.1225))
        assert lb_ef_symmetric(inputs(epsilon=0.12249)) > 0

    def test_gamma_ratio_bounds_behind_window_probability(self):
        # The three half-integer-shape bounds used at n = 8.
        assert regularized_upper_gamma(4.0, 1.0) >= 0.9810
        assert regularized_upper_gamma(4.0, 8.0 / 0.99) <= 0.0402
        assert regularized_upper_gamma(4.0, 8.0 / 1.98) <= 0.4677


class TestLbEaNoReflected:
    def test_doubling_k_halves(self):
        v1 = lb_ea_no_reflected(inputs(kappa=1.5, K=1))
        v2 = lb_ea_no_reflected(inputs(kappa=1.5, K=2))
        assert v1 / v2 == pytest.approx(2.0, rel=1e-12)

    def test_half_exponent_base(self):
        kappa = 1.5
        r = lb_ea_no_reflected(inputs(kappa=kappa, n=11)) \
            / lb_ea_no_reflected(inputs(kappa=kappa, n=10))
        assert r == pytest.approx(math.sqrt(1.0 + 0.99 * kappa), rel=1e-12)

    def test_k_cap(self):
        with pytest.raises(HypothesisViolation, match="0.22/epsilon"):
            lb_ea_no_reflected(inputs(epsilon=0.1, kappa=1.5, K=3))
        assert lb_ea_no_reflected(inputs(epsilon=0.1, kappa=1.5, K=2)) > 0

    def test_kappa_floor(self):
        with pytest.raises(HypothesisViolation, match="1/0.99"):
            lb_ea_no_reflected(inputs(kappa=1.0))


class TestLbUnrestricted:
    def test_arithmetic_value(self):
        v = lb_unrestricted(inputs(epsilon=0.1))
        assert v == pytest.approx(LB_UNRESTRICTED_CONST * 100 / (1 + 1e-6) ** 2, rel=1e-12)
        assert v == pytest.approx(0.3335, abs=2e-3)

    def test_independent_of_n_and_kappa(self):
        assert lb_unrestricted(inputs(n=8, kappa=1.0)) \
            == lb_unrestricted(inputs(n=200, kappa=7.0))

    def test_dominated_by_lb_ef(self):
        for kappa in [0.5, 2.0]:
            for n in [8, 20, 100]:
                assert lb_unrestricted(inputs(kappa=kappa, n=n)) \
                    <= lb_ef(inputs(kappa=kappa, n=n))

    def test_exponent_ordering_n_half_vs_n(self):
        # K lb_ea grows with base sqrt(1+0.99k) per mode, lb_ef with the full
        # base, so lb_ef dominates everywhere on the shared domain and the
        # unrestricted floor is overtaken once the half-exponent accumulates.
        kappa = 1.5
        for n in [8, 12, 20, 60]:
            ea = inputs(kappa=kappa, n=n, K=2)
            assert 2 * lb_ea_no_reflected(ea) <= lb_ef(inputs(kappa=kappa, n=n))
        assert lb_unrestricted(inputs(kappa=kappa, n=16)) \
            <= 2 * lb_ea_no_reflected(inputs(kappa=kappa, n=16, K=2)) * 2


class TestClassicalityThresholds:
    def test_f_monotone_with_endpoints(self):
        ss = np.linspace(1e-6, 1.0, 200)
        fs = [classicality_f(s) for s in ss]
        assert all(b > a for a, b in zip(fs, fs[1:]))
        assert fs[0] == pytest.approx(0.0, abs=1e-5)
        assert classicality_f(1.0) == 1.0

    def test_domain_closes_at_s_cap(self):
        n, eps = 12, 1e-3
        thr0 = classicality_thresholds(0.3, n, eps)
        s_cap = thr0.s_cap
        at_cap = classicality_thresholds(s_cap, n, eps)
        assert at_cap.kappa_min == pytest.approx(at_cap.kappa_max, abs=1e-9)
        below = classicality_thresholds(s_cap - 0.02, n, eps)
        above = classicality_thresholds(min(s_cap + 0.02, 0.999), n, eps)
        assert below.domain_nonempty
        assert not above.domain_nonempty

    def test_f_equals_inverse_envelope_width(self):
        # f(s'(nu)) = 1 / Sigma^2 for every nu.
        for nu in np.linspace(0.05, 0.95, 10):
            st = make_thermal(1, nu)
            assert classicality_f(s_prime(nu)) == pytest.approx(1.0 / st.Sigma2, rel=1e-12)

    def test_l_eps(self):
        thr = classicality_thresholds(0.5, 10, 0.1)
        assert thr.L_eps == pytest.approx(4.0 * math.log(10.0), rel=1e-14)


class TestLbEfClassical:
    def test_recovery_of_classicality_independent_bound(self):
        eta3 = 1e-6
        L = math.log1p(eta3)
        for kappa, n in [(1.0, 10), (2.0, 50)]:
            A = kappa * n
            S = 2 * L * A / (A * A + L * L)
            v = lb_ef_classical(inputs(kappa=kappa, n=n, S=S, epsilon=0.05))
            ref = lb_ef(inputs(kappa=kappa, n=n, eta3=eta3, epsilon=0.05))
            assert v == pytest.approx(ref, rel=1e-9)

    def test_exponential_regime_below_0459(self):
        for S in [0.1, 0.3, 0.459]:
            thr = classicality_thresholds(S, 8, 1e-3)
            kp = max(thr.kappa_star, thr.kappa_min)
            base = (1 + 0.99 * kp) * math.exp(-2 * kp * thr.f)
            assert base > 1.0

    def test_trivial_regime_at_0568(self):
        thr = classicality_thresholds(0.568, 8, 1e-3)
        base = (1 + 0.99 * thr.kappa_min) * math.exp(-2 * thr.kappa_min * thr.f)
        assert base <= 1.0

    def test_kappa_domain_enforced_with_domain_in_error(self):
        thr = classicality_thresholds(0.2, 10, 1e-3)
        with pytest.raises(HypothesisViolation, match="kappa_min"):
            lb_ef_classical(inputs(kappa=thr.kappa_max * 1.5, n=10, S=0.2, epsilon=1e-3))
        with pytest.raises(HypothesisViolation, match="s_cap"):
            lb_ef_classical(inputs(kappa=1.0, n=10, S=0.95, epsilon=1e-3))

    def test_continuous_in_kappa(self):
        # Two-sided limits agree at the kappa' switch point (and the curve is
        # exactly flat beyond it, since kappa' freezes there).
        S, n, eps = 0.2, 10, 1e-3
        thr = classicality_thresholds(S, n, eps)
        switch = max(thr.kappa_star, thr.kappa_min)
        assert thr.kappa_min < switch < thr.kappa_max
        h = 1e-9
        lo = lb_ef_classical(inputs(kappa=switch - h, n=n, S=S, epsilon=eps))
        hi = lb_ef_classical(inputs(kappa=switch + h, n=n, S=S, epsilon=eps))
        assert hi == pytest.approx(lo, rel=1e-6)
        flat1 = lb_ef_classical(inputs(kappa=switch * 1.2, n=n, S=S, epsilon=eps))
        flat2 = lb_ef_classical(inputs(kappa=min(switch * 2, thr.kappa_max), n=n,
                                       S=S, epsilon=eps))
        assert flat1 == flat2


class TestUpperBounds:
    def test_classical_s1_scaling(self):
        v1 = ub_hd_classical(inputs(epsilon=0.2, S=1.0, kappa=5.0, n=100))
        v2 = ub_hd_classical(inputs(epsilon=0.1, S=1.0, kappa=5.0, n=100))
        assert v2 / v1 == pytest.approx(16.0, rel=1e-3)

    def test_branch_seam_continuity(self):
        S, n, eps = 0.6, 10, 0.05
        l_eps = (2.0 / S) * math.log(1.0 / eps)
        seam = l_eps / n
        below = ub_hd_classical(inputs(epsilon=eps, S=S, kappa=seam * 0.999999, n=n))
        at = ub_hd_classical(inputs(epsilon=eps, S=S, kappa=seam, n=n))
        above = ub_hd_classical(inputs(epsilon=eps, S=S, kappa=seam * 1.000001, n=n))
        assert at == pytest.approx(above, rel=1e-5)
        assert below <= at * (1 + 1e-5)

    def test_flat_beyond_threshold(self):
        S, n, eps = 0.95, 100, 1e-5
        thr_kappa = (2.0 / S) * math.log(1.0 / eps) / n
        v1 = ub_hd_classical(inputs(epsilon=eps, S=S, kappa=thr_kappa * 1.5, n=n))
        v2 = ub_hd_classical(inputs(epsilon=eps, S=S, kappa=thr_kappa * 4.0, n=n))
        assert v1 == v2

    def test_nonincreasing_in_s_beyond_radius(self):
        eps, n = 1e-3, 20
        vals = []
        for S in [0.2, 0.4, 0.6, 0.8, 1.0]:
            kappa = (2.0 / S) * math.log(1.0 / eps) / n * 1.2
            vals.append(ub_hd_classical(inputs(epsilon=eps, S=S, kappa=kappa, n=n)))
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_ub_bm_matches_planner_constant(self):
        v = ub_bm(inputs(epsilon=0.1, delta=0.1, M=10))
        assert v == math.ceil(36.0 * 1e4 * math.log(400.0))

    def test_ub_hd_overflow_is_inf(self):
        assert math.isinf(ub_hd(inputs(kappa=20.0, n=100)))

    def test_ub_hd_classical_overflow_is_inf(self):
        # beyond L_eps(S) = 2000 log(1000) the bound is eps^{-1/S} = 1e3000
        assert ub_hd_classical(inputs(epsilon=1e-3, S=1e-3, kappa=2e4, n=1)) == math.inf

    def test_upper_bounds_are_planner_counts(self):
        for eps, delta, m in [(0.1, 0.1, 10), (0.05, 1 / 3, 1), (0.3, 0.01, 7)]:
            planner = dict(epsilon=eps, delta=delta, M=m)
            inp = inputs(kappa=1.3, n=4, S=0.5, **planner)
            assert ub_bm(inp) == plan_samples("bell_chi", PlannerInputs(**planner))
            assert ub_hd(inp) == plan_samples(
                "heterodyne", PlannerInputs(alpha2_max=1.3 * 4, **planner))
            beyond = inputs(kappa=100.0, n=4, S=0.5, **planner)
            assert ub_hd_classical(beyond) == plan_samples(
                "classicality_aware", PlannerInputs(S=0.5, **planner))

    def test_planner_input_errors(self):
        for bad in [dict(epsilon=0.0), dict(epsilon=1.5), dict(delta=1.0),
                    dict(delta=-0.1), dict(M=0)]:
            for ub in (ub_bm, ub_hd, ub_hd_classical):
                with pytest.raises(ValidationError, match="must lie in|M must be"):
                    ub(inputs(S=0.5, **bad))


class TestEmitCurves:
    def test_gamma_ratio_inequality_spot_points(self):
        k = 2.0 / 0.99
        for n in [8, 100, 1000]:
            q = regularized_upper_gamma(float(n), k * n)
            assert q <= (k * math.exp(1.0 - k)) ** n

    def test_log_linear_slope_in_n(self):
        table = emit_curves("n", list(range(8, 21)), ["lb_ef"],
                            inputs(kappa=2.0, epsilon=0.09))
        vals = table.values["lb_ef"]
        for a, b in zip(vals, vals[1:]):
            assert math.log(b) - math.log(a) == pytest.approx(math.log(2.98), rel=1e-12)

    def test_gap_rows_for_hypothesis_violations(self):
        thr = classicality_thresholds(0.2, 10, 1e-3)
        grid = [thr.kappa_min * 0.5, thr.kappa_min * 1.1,
                thr.kappa_max * 0.9, thr.kappa_max * 2.0]
        table = emit_curves("kappa", grid, ["lb_ef_classical"],
                            inputs(n=10, S=0.2, epsilon=1e-3))
        vals = table.values["lb_ef_classical"]
        assert vals[0] is None and vals[3] is None
        assert vals[1] is not None and vals[2] is not None
        assert len(table.metadata["gaps"]) == 2
        assert "kappa" in table.metadata["gaps"][0]["hypothesis"]

    def test_csv_and_sidecar(self, tmp_path):
        table = emit_curves("kappa", [0.5, 1.0, 2.0], ["lb_ef", "ub_hd", "ub_bm"],
                            inputs(n=50, epsilon=0.09, delta=1 / 3))
        path = tmp_path / "curve.csv"
        table.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "kappa,lb_ef,ub_hd,ub_bm"
        assert len(rows) == 4
        meta = json.loads((tmp_path / "curve.csv.json").read_text())
        assert meta["constants_version"] == CONSTANTS_VERSION
        assert meta["inputs"]["n"] == 50

    def test_overflowing_lower_bounds_are_gaps(self):
        families = ["lb_ef", "lb_ef_symmetric", "lb_ea_no_reflected"]
        for fam in (lb_ef, lb_ef_symmetric, lb_ea_no_reflected):
            assert fam(inputs(kappa=2.0, n=2000, epsilon=0.09)) == math.inf
        table = emit_curves("n", [8, 2000], families, inputs(kappa=2.0, epsilon=0.09))
        for fam in families:
            assert table.values[fam][0] > 0 and table.values[fam][1] is None
        assert table.metadata["gaps"] == [
            {"family": fam, "n": 2000.0, "hypothesis": "value overflows"} for fam in families]

    def test_grid_must_increase(self):
        with pytest.raises(ValidationError):
            emit_curves("kappa", [1.0, 1.0], ["lb_ef"], inputs())

    def test_monotonicities(self):
        ks = [0.5, 1.0, 2.0, 4.0]
        vals = [lb_ef(inputs(kappa=k, n=10)) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        es = [0.2, 0.1, 0.05]
        vals = [lb_ef(inputs(epsilon=e, n=10)) for e in es]
        assert all(b > a for a, b in zip(vals, vals[1:]))
