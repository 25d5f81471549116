"""Hypothesis-testing game and TVD machinery tests.

All game runs are deterministic given (seed, config), so the Monte Carlo
assertions below are reproducible; margins were sized at >= 3 binomial
standard errors when the seeds were frozen.
"""

import dataclasses
import math

import numpy as np
import pytest

from cvlearn import game, measurements
from cvlearn.bounds import BoundInputs, lb_ef
from cvlearn.errors import ValidationError
from cvlearn.game import (
    GameConfig,
    five_peak_window_indicator,
    five_peak_window_probability,
    per_copy_tvd_bound,
    run_game,
    tvd_pair,
    window_probability,
)
from cvlearn.measurements import bell_mixture, heterodyne_mixture
from cvlearn.numerics import (
    make_rng,
    random_symmetric_unitary,
    sample_complex_gaussian,
    takagi_decompose,
)
from cvlearn.states import (bell_partner, char_fn, make_five_peak, make_thermal,
                            make_three_peak, reflect)


class TestConfigValidation:
    def test_unknown_family_and_strategy(self):
        with pytest.raises(ValidationError):
            GameConfig(family="seven_peak", n=1, nu=0.5, eps0=0.2, kappa=2.0, copies=10)
        with pytest.raises(ValidationError):
            GameConfig(family="three_peak", n=1, nu=0.5, eps0=0.2, kappa=2.0,
                       copies=10, bob="psychic")

    def test_sigma_gamma_floor(self):
        # 0.99 kappa must cover 2 sigma^2.
        with pytest.raises(ValidationError, match="sigma"):
            GameConfig(family="three_peak", n=1, nu=0.2, eps0=0.2, kappa=0.5, copies=10)

    @pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_kappa_must_be_finite_and_positive(self, kappa):
        with pytest.raises(ValidationError, match="kappa must be a finite number > 0"):
            GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.2, kappa=kappa, copies=10)

    @pytest.mark.parametrize("key, value", [("nu", 0.0), ("nu", 1.0), ("nu", -0.5),
                                            ("nu", math.nan), ("eps0", 0.0), ("eps0", 0.3),
                                            ("eps0", -0.5), ("eps0", math.nan),
                                            ("eps0", math.inf)])
    def test_nu_and_eps0_ranges(self, key, value):
        # checked before the filter variances, which divide by nu and 1 - nu
        cfg = dict(family="three_peak", n=1, nu=0.9, eps0=0.2, kappa=2.0, copies=10)
        with pytest.raises(ValidationError, match=f"{key} must lie in"):
            GameConfig(**{**cfg, key: value})

    def test_reflected_copies_rejected_when_unavailable(self):
        with pytest.raises(ValidationError, match="reflected"):
            GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.2, kappa=2.0,
                       copies=10, bob="ea_bell", reflected_available=False)
        with pytest.raises(ValidationError, match="reflected"):
            GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.2, kappa=2.0,
                       copies=10, bob="ef_heterodyne", order="or",
                       reflected_available=False)

    def test_five_peak_bell_allowed_without_reflected(self):
        u = random_symmetric_unitary(1, make_rng(1))
        cfg = GameConfig(family="five_peak", n=1, nu=0.9, eps0=0.2, kappa=2.0,
                         copies=10, u=u, bob="ea_bell", reflected_available=False)
        assert cfg.sigma_gamma2 == pytest.approx(0.99 * 2.0 / 3.0)


class TestWindowProbability:
    def test_paper_regime_at_n8(self):
        # sigma^2 <= sigma_gamma^2 and kappa n >= 2 n sigma_gamma^2 / 0.99
        # give probability >= 1/2.
        sigma_gamma2 = 0.99  # kappa = 2
        for sigma2 in [0.1, 0.5, 0.99]:
            p = window_probability(8, sigma2, sigma_gamma2, 2.0)
        assert p >= 0.5

    def test_limits(self):
        assert window_probability(3, 1e-9, 0.5, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_agreement(self):
        n, sigma2, sg2, kappa = 2, 0.3, 0.8, 2.5
        draws = sample_complex_gaussian(n, sg2, 200_000, make_rng(5))
        norms = np.sum(np.abs(draws) ** 2, axis=1)
        freq = np.mean((norms > 2 * sigma2) & (norms <= kappa * n))
        target = window_probability(n, sigma2, sg2, kappa)
        se = math.sqrt(target * (1 - target) / draws.shape[0])
        assert abs(freq - target) < 3 * se


class TestFivePeakWindow:
    def test_paper_bound_at_n8(self):
        # sigma_gamma^2 = 0.99 kappa / 3 and sigma^2 <= sigma_gamma^2.
        kappa = 2.0
        sg2 = 0.99 * kappa / 3.0
        p = five_peak_window_probability(8, sg2, sg2, kappa)  # worst sigma2
        assert p >= 0.5007
        # the two component probabilities separately meet their floors
        from cvlearn.numerics import regularized_upper_gamma as q
        p_r = q(4.0, 1.0) - q(4.0, 8.0 / 0.99)
        p_i = 1.0 - q(4.0, 8.0 / 1.98)
        assert p_r >= 0.9408 and p_i >= 0.5323
        assert p == pytest.approx(p_r * p_i, rel=1e-12)

    def test_rotation_invariance_of_indicator(self):
        rng = make_rng(6)
        u = random_symmetric_unitary(3, rng)
        v = takagi_decompose(u).v
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        vo = v @ q
        assert np.max(np.abs(vo @ vo.T - u.matrix)) < 1e-10  # VO is also a factor
        for _ in range(200):
            g = rng.normal(size=3) + 1j * rng.normal(size=3)
            r1 = np.linalg.norm(np.real(np.conj(v).T @ g))
            r2 = np.linalg.norm(np.real(np.conj(vo).T @ g))
            assert abs(r1 - r2) < 1e-12
            assert five_peak_window_indicator(g, v, 0.2, 2.0, 3) \
                == five_peak_window_indicator(g, vo, 0.2, 2.0, 3)

    def test_monte_carlo_agreement(self):
        n, kappa = 2, 2.0
        sg2 = 0.99 * kappa / 3.0
        sigma2 = 0.3
        u = random_symmetric_unitary(n, make_rng(7))
        v = takagi_decompose(u).v
        draws = sample_complex_gaussian(n, sg2, 100_000, make_rng(8))
        freq = np.mean([five_peak_window_indicator(g, v, sigma2, kappa, n)
                        for g in draws])
        target = five_peak_window_probability(n, sigma2, sg2, kappa)
        se = math.sqrt(target * (1 - target) / draws.shape[0])
        assert abs(freq - target) < 3 * se


class TestRunGame:
    def test_random_bob_is_fair(self):
        cfg = GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0,
                         copies=10, trials=2000, bob="random", seed=7,
                         estimate_tvd=False)
        res = run_game(cfg, keep_log=False)
        assert abs(res.success_rate - 0.5) < 3 * math.sqrt(0.25 / cfg.trials)

    def test_ea_bell_n_independent_success(self):
        # Fixed copies across n in {1,2,3}: success stays >= 2/3.
        for n in [1, 2, 3]:
            u = random_symmetric_unitary(n, make_rng(123 + n))
            cfg = GameConfig(family="three_peak", n=n, nu=0.9, eps0=0.25, kappa=2.0,
                             copies=20_000, u=u, trials=300, bob="ea_bell", seed=5,
                             estimate_tvd=False)
            res = run_game(cfg, keep_log=False)
            assert res.success_rate >= 2.0 / 3.0

    def test_ef_heterodyne_success_decays_with_n(self):
        # Same copies, growing n: the e^{kappa n} estimator cost bites.
        overall, in_window = [], []
        for n in [1, 2, 3]:
            u = random_symmetric_unitary(n, make_rng(123 + n))
            cfg = GameConfig(family="three_peak", n=n, nu=0.9, eps0=0.25, kappa=2.0,
                             copies=1000, u=u, trials=800, bob="ef_heterodyne",
                             seed=6, estimate_tvd=False)
            res = run_game(cfg)
            overall.append(res.success_rate)
            hits = [e["correct"] for e in res.per_trial if e["in_window"]]
            in_window.append(np.mean(hits))
        assert in_window[0] > in_window[1] > in_window[2]
        assert in_window[0] - in_window[2] > 0.1
        assert overall[2] < overall[0]

    def test_five_peak_self_pair_game(self):
        u = random_symmetric_unitary(2, make_rng(9))
        cfg = GameConfig(family="five_peak", n=2, nu=0.9, eps0=0.25, kappa=2.0,
                         copies=20_000, u=u, trials=300, bob="ea_bell", seed=8,
                         estimate_tvd=False, reflected_available=False)
        res = run_game(cfg, keep_log=False)
        assert res.success_rate >= 2.0 / 3.0

    def test_mixed_order_heterodyne(self):
        u = random_symmetric_unitary(1, make_rng(10))
        cfg = GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0,
                         copies=1000, u=u, trials=400, bob="ef_heterodyne",
                         seed=11, order="or", estimate_tvd=False)
        res = run_game(cfg, keep_log=False)
        assert res.success_rate >= 2.0 / 3.0

    def test_reduction_soundness(self):
        # In-window trials whose estimate met its half-gap guarantee must be
        # decided correctly.
        u = random_symmetric_unitary(1, make_rng(12))
        cfg = GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0,
                         copies=4000, u=u, trials=400, bob="ea_bell", seed=13,
                         estimate_tvd=False)
        res = run_game(cfg)
        th = make_thermal(1, 0.9)
        checked = 0
        for e in res.per_trial:
            if not (e["in_window"] and e["used_estimate"]):
                continue
            gamma = np.array([complex(*e["gamma"][0])])
            if e["peaked"]:
                st = make_three_peak(1, 0.9, 0.25, e["s"] * gamma)
            else:
                st = th
            truth = complex(char_fn(st, gamma)) ** 2
            est = complex(*e["estimate"])
            if abs(est - truth) < e["threshold"] * (1 - 1e-9):
                assert e["correct"]
                checked += 1
        assert checked > 100

    def test_deterministic_given_seed(self):
        u = random_symmetric_unitary(1, make_rng(14))
        cfg = GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0,
                         copies=200, u=u, trials=50, bob="ea_bell", seed=21,
                         estimate_tvd=False)
        r1 = run_game(cfg)
        r2 = run_game(cfg)
        assert r1.success_rate == r2.success_rate
        assert all(a == b for a, b in zip(r1.per_trial, r2.per_trial))

    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    @pytest.mark.parametrize("bob, order", [("ea_bell", "o"), ("ef_heterodyne", "or")])
    def test_thermal_blocks_built_once(self, monkeypatch, family, bob, order):
        # Thermal trials and the TVD's null share one build of the thermal
        # blocks; each in-window peaked trial and each TVD gamma (+/-) gets its
        # own mixture, from one family build per block for the trials and one
        # for the TVD.
        built = []
        inner = game.peak_mixtures
        monkeypatch.setattr(game, "peak_mixtures", lambda scheme, nu, weights, centers:
                            built.append((len(weights), inner(scheme, nu, weights, centers)))
                            or built[-1][1])
        u = random_symmetric_unitary(1, make_rng(17))
        cfg = GameConfig(family=family, n=1, nu=0.9, eps0=0.25, kappa=2.0, copies=8, u=u,
                         trials=60, bob=bob, seed=18, order=order,
                         tvd_gamma_draws=3, tvd_mc_samples=10)
        res = run_game(cfg)
        blocks = len(order)
        assert any(e["used_estimate"] and not e["peaked"] for e in res.per_trial)
        thermal = [mixes for peaks, mixes in built if peaks == 1]
        assert [len(mixes) for mixes in thermal] == [1] * blocks
        families = [mixes for peaks, mixes in built if peaks > 1]
        assert len(families) == 2 * blocks
        peaked = sum(e["used_estimate"] and e["peaked"] for e in res.per_trial)
        members = [id(mix) for mixes in families for mix in mixes]
        assert len(set(members)) == len(members) == blocks * (peaked + 2 * cfg.tvd_gamma_draws)

    def test_chunk_defines_the_stream(self, monkeypatch):
        # Each chunk of trials draws from its own stream, so a run's first chunk
        # plays exactly as a run of that many trials; chunks of family members
        # leave every draw and decision as is.
        u = random_symmetric_unitary(2, make_rng(19))
        cfg = GameConfig(family="five_peak", n=2, nu=0.9, eps0=0.25, kappa=2.0, copies=8,
                         u=u, trials=40, bob="ea_bell", seed=20, tvd_gamma_draws=5,
                         tvd_mc_samples=10)
        whole = run_game(cfg)
        first = run_game(dataclasses.replace(cfg, trials=7))
        monkeypatch.setattr(measurements, "FAMILY_CHUNK", 3)
        family_chunked = run_game(cfg)
        assert family_chunked.per_trial == whole.per_trial
        assert (family_chunked.empirical_tvd, family_chunked.tvd_stderr) == (
            whole.empirical_tvd, whole.tvd_stderr)
        monkeypatch.setattr(game, "TRIAL_ROWS", 7 * cfg.copies + 3)   # 7 trials per chunk
        chunked = run_game(cfg)
        assert chunked.per_trial[:7] == first.per_trial
        assert [e["trial"] for e in chunked.per_trial] == list(range(cfg.trials))
        assert chunked.per_trial[7:] != whole.per_trial[7:]
        assert any(e["used_estimate"] and e["peaked"] for e in first.per_trial)
        assert any(e["used_estimate"] and not e["peaked"] for e in first.per_trial)


# Per-trial decisions ("p" peaked, "t" thermal), window flags, thresholds of the
# trials that estimate, and (empirical_tvd, tvd_stderr). Pinned again when each
# chunk of trials came to draw from one stream and the TVD came to draw the
# thermal null through each pair's projection, which changed every trial's
# draws and the TVD's.
PINNED_GAMES = [
    (("three_peak", "ea_bell", "o", 1),
     "pppppttpppppppppppptppttptptptttppppptpp", "1100001001100010111100001000000011101111",
     [0.1344701902710958, 0.15397705918922713, 0.1868574064357118, 0.12650062438509188,
      0.10819411058966973, 0.10972163806991697, 0.10267105540592547, 0.10816254150195259,
      0.10702616193862789, 0.11206672443420385, 0.10400716992928136, 0.11066518779464993,
      0.12074922630548582, 0.10475524093519914, 0.1428163906166526, 0.11118100025363338,
      0.10811216259786818, 0.1143331131838356],
     (0.4613204389851816, 0.04340152177114824)),
    (("three_peak", "ef_heterodyne", "o", 2),
     "ppppppttppppppptpttpppppptppppptpttppptt", "0011110011011011100011010001111000001100",
     [0.22003296666149966, 0.23351641131698594, 0.23209130953275672, 0.2376399817162702,
      0.20626222779264267, 0.21460886745529786, 0.21184014139831028, 0.20483407453991528,
      0.20629667212248862, 0.21321202526074168, 0.21939368853205057, 0.2263350426846147,
      0.20886674475883107, 0.21841192665159925, 0.21787018043811013, 0.20254265893525028,
      0.21994729801517965, 0.2201907238128294, 0.23491745935403233, 0.23436905967602376],
     (0.008987903509832232, 0.005888189106927373)),
    (("five_peak", "ea_bell", "o", 2),
     "pptpppttpppttppppttpppppptppppttpttppppt", "1001010011000101100010010001110000001010",
     [0.023462091945209828, 0.04247472227917366, 0.050546241306607266,
      0.024349262869402342, 0.025495319335295225, 0.022931075415313383,
      0.02527429323480242, 0.026255926781376792, 0.0364882344490914, 0.026160980405437666,
      0.026013292105581974, 0.02360217464925435, 0.029944199679783786,
      0.028465497940682125, 0.02193162459358258],
     (0.19362823918112654, 0.02519506984629158)),
    (("five_peak", "ef_heterodyne", "or", 1),
     "ppppptppppppppppttppppttptptpttttppppppp", "1000000001100010011100001000000000111111",
     [0.15008573629846134, 0.156600043869995, 0.12016526839963902, 0.11930302726059215,
      0.20528297520109584, 0.1187496221024774, 0.12375737822505255, 0.17388000666017445,
      0.12367995653892006, 0.11540103090405399, 0.22654501484368159, 0.11921555966597076,
      0.11914057093546422, 0.24243907969866652],
     (0.14085498118694195, 0.03948925459786237)),
]



@pytest.mark.parametrize("case, decisions, windows, thresholds, tvd", PINNED_GAMES,
                         ids=["-".join(map(str, case)) for case, *_ in PINNED_GAMES])
def test_pinned_decisions(case, decisions, windows, thresholds, tvd):
    family, bob, order, n = case
    u = random_symmetric_unitary(n, make_rng(50 + n))
    cfg = GameConfig(family=family, n=n, nu=0.9, eps0=0.25, kappa=2.0, copies=30, u=u,
                     trials=40, bob=bob, seed=61, order=order, tvd_gamma_draws=4,
                     tvd_mc_samples=20)
    res = run_game(cfg)
    assert "".join(e["decision"][0] for e in res.per_trial) == decisions
    assert "".join("1" if e["in_window"] else "0" for e in res.per_trial) == windows
    got = [e["threshold"] for e in res.per_trial if e["used_estimate"]]
    assert got == pytest.approx(thresholds, rel=1e-12)
    assert (res.empirical_tvd, res.tvd_stderr) == pytest.approx(tvd, rel=1e-12)


class TestThresholds:
    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    @pytest.mark.parametrize("bob", ["ea_bell", "ef_heterodyne"])
    def test_in_window_thresholds_match_gap_formulas(self, family, bob):
        nu, eps0 = 0.9, 0.25
        sigma2, Sigma2 = 0.5 * (1.0 / nu - nu), (1.0 + nu) / (1.0 - nu)
        u = random_symmetric_unitary(2, make_rng(91))
        v = takagi_decompose(u).v
        cfg = GameConfig(family=family, n=2, nu=nu, eps0=eps0, kappa=2.0, copies=5, u=u,
                         trials=60, bob=bob, seed=5, estimate_tvd=False)
        checked = 0
        for entry in run_game(cfg).per_trial:
            if not entry["in_window"]:
                continue
            g = np.array([complex(re, im) for re, im in entry["gamma"]])
            g2 = float(np.sum(np.abs(g) ** 2))
            if family == "three_peak":
                gap = 2 * eps0 * math.exp(-g2 / Sigma2) * (1 - math.exp(-2 * g2 / sigma2))
            else:
                gp = np.conj(v).T @ g
                r2, i2 = float(np.sum(gp.real ** 2)), float(np.sum(gp.imag ** 2))
                gap = (eps0 * math.exp(-(r2 + i2) / Sigma2) * (1 + math.exp(-2 * i2 / sigma2))
                       * (1 - math.exp(-2 * r2 / sigma2)))
            chi0 = math.exp(-g2 / (2 * Sigma2) - g2 / (2 * sigma2))
            expect = gap * math.sqrt(gap ** 2 + 4 * chi0 ** 2) / 2 if bob == "ea_bell" else gap / 2
            assert entry["threshold"] == pytest.approx(expect, rel=1e-12)
            checked += 1
        assert checked >= 10


def reference_tvd(density0, density_mixture, n_copies, gamma_draws, mc_samples, rng):
    """tvd_pair's estimate the long way: outcomes sampled from the null by
    rejection, and the null, plus and minus mixtures each evaluated by its own
    log_value; one block of copies."""
    per_gamma = []
    for gamma in gamma_draws:
        plus, minus = density_mixture(gamma)
        z = density0.sample(mc_samples * n_copies, rng)
        l0 = density0.log_value(z).reshape(mc_samples, n_copies).sum(axis=1)
        log_plus = plus.log_value(z).reshape(mc_samples, n_copies).sum(axis=1) - l0
        log_minus = minus.log_value(z).reshape(mc_samples, n_copies).sum(axis=1) - l0
        ratio = 0.5 * (np.exp(log_plus) + np.exp(log_minus))
        per_gamma.append(float(np.mean(np.maximum(0.0, 1.0 - ratio))))
    return float(np.mean(per_gamma)), float(np.std(per_gamma) / math.sqrt(len(per_gamma)))


class TestTvdMatchesReference:
    nu, eps0 = 0.9, 0.25

    def mixture_pair(self, family, bob, u, shift):
        """gamma -> mixtures of the states at gamma and at shift(gamma)."""
        n = u.n

        def mixture(g):
            st = (make_three_peak(n, self.nu, self.eps0, g) if family == "three_peak"
                  else make_five_peak(n, self.nu, self.eps0, g, u))
            return bell_mixture(st, bell_partner(st, u)) if bob == "ea_bell" \
                else heterodyne_mixture(st)

        return lambda g: (mixture(g), mixture(shift(g)))

    def null(self, bob, n):
        thermal = make_thermal(n, self.nu)
        return bell_mixture(thermal, thermal.thermal_reference()) if bob == "ea_bell" \
            else heterodyne_mixture(thermal)

    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    @pytest.mark.parametrize("bob", ["ea_bell", "ef_heterodyne"])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_projection_factor(self, family, bob, mirrored):
        # theta = w L with L^T L = V Phi^T Phi: the covariance of [Re z | Im z] Phi
        # under the null N_V. The +-gamma pairs share Phi; the pairs at gamma
        # and i gamma / 2 stack both maps.
        u = random_symmetric_unitary(2, make_rng(70))
        pm = self.mixture_pair(family, bob, u, (lambda g: -g) if mirrored else (lambda g: 0.5j * g))
        for gamma in sample_complex_gaussian(2, 0.99, 5, make_rng(71)):
            plus, minus = pm(gamma)
            factor, got_mirrored = measurements.pair_projection(plus, minus)
            assert got_mirrored == mirrored
            phi = plus._phase if mirrored else np.hstack([plus._phase, minus._phase])
            assert factor.shape == (min(4, phi.shape[1]), phi.shape[1])
            assert np.max(np.abs(factor.T @ factor - plus.variance * phi.T @ phi)) <= 1e-12

    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    @pytest.mark.parametrize("bob", ["ea_bell", "ef_heterodyne"])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_equals_reference(self, family, bob, mirrored):
        # Equal within Monte Carlo error: one gamma repeated 40 times, so the
        # spread across draws is that error alone, and the projected draw and
        # the reference, which samples the null by rejection and evaluates every
        # log density, must agree within 4 combined standard errors. Seeds and
        # tolerance were fixed before the first run.
        u = random_symmetric_unitary(2, make_rng(70))
        pm = self.mixture_pair(family, bob, u, (lambda g: -g) if mirrored else (lambda g: 0.5j * g))
        gammas = [sample_complex_gaussian(2, 0.99, 1, make_rng(71))[0]] * 40
        null = self.null(bob, 2)
        got, got_se = tvd_pair(null, pm, 7, gammas, 100, make_rng(72))
        ref, ref_se = reference_tvd(null, pm, 7, gammas, 100, make_rng(73))
        assert got > 0.0 and got_se > 0.0 and ref_se > 0.0
        assert abs(got - ref) <= 4.0 * math.hypot(got_se, ref_se)


class TestTvd:
    def make_pm(self, n, nu, eps0):
        def pm(g):
            return (heterodyne_mixture(make_three_peak(n, nu, eps0, g)),
                    heterodyne_mixture(make_three_peak(n, nu, eps0, -g)))
        return pm

    def test_single_copy_heterodyne_tvd_is_zero(self):
        # Exact sine cancellation: the N = 1 mixture equals the thermal law.
        nu, eps0 = 0.9, 0.25
        rng = make_rng(30)
        gammas = sample_complex_gaussian(1, 0.99, 30, rng)
        tvd, se = tvd_pair(heterodyne_mixture(make_thermal(1, nu)),
                           self.make_pm(1, nu, eps0), 1, gammas, 200, rng)
        assert tvd == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bound_compliance_and_monotonicity(self, n):
        nu, eps0, sg2 = 0.9, 0.05, 0.99
        rng = make_rng(31 + n)
        q0 = heterodyne_mixture(make_thermal(n, nu))
        gammas = sample_complex_gaussian(n, sg2, 100, rng)
        prev = -1.0
        for copies in [1, 10, 100]:
            tvd, se = tvd_pair(q0, self.make_pm(n, nu, eps0), copies, gammas, 100, rng)
            bound, _ = per_copy_tvd_bound(sg2, n, eps0, copies)
            assert tvd <= bound + 3 * se
            assert tvd >= prev - 3 * se  # data processing: more copies help
            prev = tvd

    def test_no_gamma_draws_rejected(self):
        q0 = heterodyne_mixture(make_thermal(1, 0.9))
        with pytest.raises(ValidationError, match="at least one gamma draw"):
            tvd_pair(q0, lambda g: (q0, q0), 5, [], 10, make_rng(1))

    def test_null_must_be_plain_gaussian(self):
        nu = 0.9
        peaked = heterodyne_mixture(make_three_peak(1, nu, 0.25, np.array([0.5 + 0j])))
        with pytest.raises(ValidationError, match="null block has oscillating terms"):
            tvd_pair(peaked, lambda g: (peaked, peaked), 5, [np.array([0.5 + 0j])], 10,
                     make_rng(1))

    def test_mixture_variance_must_match_the_null(self):
        # Bell mixtures have variance a, heterodyne ones t/2: a heterodyne null
        # cannot stand under a Bell (plus, minus) pair
        nu, g = 0.9, np.array([0.5 + 0j])
        q0 = heterodyne_mixture(make_thermal(1, nu))
        st = make_three_peak(1, nu, 0.25, g)
        bell = bell_mixture(st, bell_partner(st, random_symmetric_unitary(1, make_rng(2))))
        assert bell.variance != q0.variance
        with pytest.raises(ValidationError, match="variances .* differ from the null's"):
            tvd_pair(q0, lambda g: (bell, bell), 5, [g], 10, make_rng(1))

    def test_block_misalignment_rejected(self):
        nu = 0.9
        q0 = heterodyne_mixture(make_thermal(1, nu))
        with pytest.raises(ValidationError):
            tvd_pair([(q0, 3), (q0, 2)], lambda g: (q0, q0), 5,
                     [np.array([0.5 + 0j])], 10, make_rng(1))

    def test_helstrom_consistency_all_strategies(self):
        u = random_symmetric_unitary(1, make_rng(3))
        for bob in ["ea_bell", "ef_heterodyne", "random"]:
            cfg = GameConfig(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0,
                             copies=60, u=u, trials=1000, bob=bob, seed=4,
                             tvd_gamma_draws=60, tvd_mc_samples=200)
            res = run_game(cfg, keep_log=False)
            slack = 4 * res.tvd_stderr + 3 * math.sqrt(0.25 / cfg.trials)
            assert res.success_rate <= (1 + res.empirical_tvd) / 2 + slack

    def test_helstrom_consistency_five_peak(self):
        u = random_symmetric_unitary(1, make_rng(3))
        for bob, order in [("ea_bell", "o"), ("ef_heterodyne", "or")]:
            cfg = GameConfig(family="five_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0,
                             copies=60, u=u, trials=1000, bob=bob, seed=4, order=order,
                             tvd_gamma_draws=60, tvd_mc_samples=200)
            res = run_game(cfg, keep_log=False)
            slack = 4 * res.tvd_stderr + 3 * math.sqrt(0.25 / cfg.trials)
            assert res.success_rate <= (1 + res.empirical_tvd) / 2 + slack

    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    def test_mixed_order_tvd_matches_hand_built_blocks(self, family):
        # Order "or" over 13 copies: 7 direct and 6 reflected heterodyne copies.
        u = random_symmetric_unitary(1, make_rng(15))
        cfg = GameConfig(family=family, n=1, nu=0.9, eps0=0.25, kappa=2.0, copies=13,
                         u=u, trials=3, bob="ef_heterodyne", seed=16, order="or",
                         tvd_gamma_draws=6, tvd_mc_samples=40)

        def state(g):
            if family == "three_peak":
                return make_three_peak(1, 0.9, 0.25, g)
            return make_five_peak(1, 0.9, 0.25, g, u)

        def pm(g):
            plus, minus = state(g), state(-g)
            return [((heterodyne_mixture(plus), heterodyne_mixture(minus)), 7),
                    ((heterodyne_mixture(reflect(plus, u)),
                      heterodyne_mixture(reflect(minus, u))), 6)]

        rng = make_rng(16, stream=1_000_003)
        gammas = sample_complex_gaussian(1, cfg.sigma_gamma2, 6, rng)
        q0 = heterodyne_mixture(make_thermal(1, 0.9))
        tvd, se = tvd_pair([(q0, 7), (q0, 6)], pm, 13, gammas, 40, rng)
        res = run_game(cfg, keep_log=False)
        assert res.empirical_tvd == pytest.approx(tvd, abs=1e-12)
        assert res.tvd_stderr == pytest.approx(se, abs=1e-12)
        assert tvd > 0.0

    def test_tvd_envelope_for_any_ef_strategy_config_sweep(self):
        # The per-copy envelope holds across random small configs (n <= 2).
        rng = make_rng(40)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            nu = float(rng.uniform(0.5, 0.95))
            eps0 = float(rng.uniform(0.02, 0.25))
            sg2 = float(rng.uniform(0.3, 1.5))
            sigma2 = 0.5 * (1 / nu - nu)
            if sg2 < sigma2:
                continue
            copies = int(rng.integers(1, 40))
            gammas = sample_complex_gaussian(n, sg2, 40, rng)
            tvd, se = tvd_pair(heterodyne_mixture(make_thermal(n, nu)),
                               self.make_pm(n, nu, eps0), copies, gammas, 60, rng)
            bound, _ = per_copy_tvd_bound(sg2, n, eps0, copies)
            assert tvd <= bound + 3 * se + 1e-12


class TestPerCopyBound:
    def test_n_min_formula(self):
        sg2, n, eps0 = 0.99, 4, 0.1
        _, n_min = per_copy_tvd_bound(sg2, n, eps0, 1)
        assert n_min == pytest.approx((1 + 2 * sg2) ** n / (96 * eps0 ** 2), rel=1e-14)

    def test_no_suppression_at_zero_variance(self):
        bound, _ = per_copy_tvd_bound(0.0, 5, 0.1, 7)
        assert bound == pytest.approx(16 * 7 * 0.01, rel=1e-14)

    def test_consistency_with_lb_ef(self):
        # N_min under the reduction substitutions equals lb_ef exactly.
        eps, kappa, n, eta3 = 0.1, 2.0, 12, 1e-6
        eps0 = (1 + eta3) * eps / 0.98
        _, n_min = per_copy_tvd_bound(0.99 * kappa / 2.0, n, eps0, 1)
        ref = lb_ef(BoundInputs(epsilon=eps, kappa=kappa, n=n, eta3=eta3))
        assert n_min == pytest.approx(ref, rel=1e-12)
