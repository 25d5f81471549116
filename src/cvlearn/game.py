"""Revealed hypothesis-testing game between Alice and Bob, plus the TVD
machinery behind every lower bound.

Alice draws s in {+-1} and gamma from an isotropic complex Gaussian, then
prepares either the thermal family member or the (three- or five-) peak state
at s*gamma. Bob measures his copies with a pluggable strategy, sees gamma
revealed, and must name the hypothesis. The built-in strategies are the two
witnesses from the separation story (single-copy heterodyne, Bell pairs on
the state and its reflected partner) and a random-guess baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ValidationError
from .estimators import chi_heterodyne_means, chi_squared_means
from .measurements import SignedGaussianMixture, bell_mixture, heterodyne_mixture
from .numerics import (
    SymmetricUnitary,
    make_rng,
    regularized_upper_gamma,
    sample_complex_gaussian,
    takagi_decompose,
)
from .states import (
    PeakState,
    bell_partner,
    char_fn,
    filter_variances,
    make_five_peak,
    make_thermal,
    make_three_peak,
    reflect,
)

FAMILIES = ("three_peak", "five_peak")
STRATEGIES = ("ea_bell", "ef_heterodyne", "random")


@dataclass(frozen=True)
class GameConfig:
    family: str
    n: int
    nu: float
    eps0: float
    kappa: float
    copies: int
    u: SymmetricUnitary | None = None
    trials: int = 2000
    bob: str = "ea_bell"
    seed: int = 0
    order: str = "o"               # per-copy pattern over {o, r}, cycled
    reflected_available: bool = True
    tvd_gamma_draws: int = 40      # Monte Carlo budget of the TVD side-estimate
    tvd_mc_samples: int = 100
    estimate_tvd: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}")
        if self.bob not in STRATEGIES:
            raise ValidationError(f"bob must be one of {STRATEGIES}")
        if self.copies < 1 or self.trials < 1:
            raise ValidationError("copies and trials must be >= 1")
        if not set(self.order) <= {"o", "r"} or not self.order:
            raise ValidationError("order must be a nonempty string over {o, r}")
        if self.u is None:
            object.__setattr__(self, "u", SymmetricUnitary(matrix=np.eye(self.n)))
        if self.u.n != self.n:
            raise ValidationError("unitary dimension does not match the mode count")
        sigma2 = filter_variances(self.nu)[0]
        if self.sigma_gamma2 < sigma2:
            raise ValidationError(
                f"sigma_gamma^2 = {self.sigma_gamma2:.4g} < sigma^2 = {sigma2:.4g}: "
                "0.99 kappa must cover 2 sigma^2 for the reduction to hold")
        if self.bob == "ea_bell" and self.family == "three_peak" \
                and not self.reflected_available:
            raise ValidationError(
                "ea_bell needs reflected copies, but the config provides none "
                "(three-peak states lack reflection symmetry)")
        if "r" in self.order and not self.reflected_available:
            raise ValidationError("order requests reflected copies but none are available")

    @property
    def sigma_gamma2(self) -> float:
        # 2 sigma_gamma^2 = 0.99 kappa (three-peak); 0.99 kappa * 2/3 (five-peak).
        return 0.99 * self.kappa / (2.0 if self.family == "three_peak" else 3.0)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["u"] = [[{"re": z.real, "im": z.imag} for z in row] for row in self.u.matrix]
        return d


@dataclass
class GameResult:
    success_rate: float
    window_hit_rate: float
    empirical_tvd: float
    tvd_stderr: float
    trials: int
    copies: int
    per_trial: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {k: (v if k != "per_trial" else None) for k, v in asdict(self).items()}


# ---------------------------------------------------------------------------
# Windows, gaps, and the analytic window probabilities
# ---------------------------------------------------------------------------

def window_probability(n: int, sigma2: float, sigma_gamma2: float, kappa: float) -> float:
    """Pr(2 sigma^2 < |gamma|^2 <= kappa n) under the Gaussian gamma draw."""
    if min(sigma2, sigma_gamma2, kappa) <= 0:
        raise ValidationError("window probability needs positive parameters")
    return (regularized_upper_gamma(n, sigma2 / sigma_gamma2)
            - regularized_upper_gamma(n, kappa * n / (2.0 * sigma_gamma2)))


def five_peak_window_probability(n: int, sigma2: float, sigma_gamma2: float,
                                 kappa: float) -> float:
    """P_R * P_I: real part in (2 sigma^2, 2 kappa n / 3], imaginary in (0, kappa n / 3].

    The Takagi factor V only rotates gamma, so the probability is V-independent;
    the half-integer shapes come from splitting the 2n real coordinates.
    """
    if min(sigma2, sigma_gamma2, kappa) <= 0:
        raise ValidationError("window probability needs positive parameters")
    p_r = (regularized_upper_gamma(n / 2.0, sigma2 / sigma_gamma2)
           - regularized_upper_gamma(n / 2.0, kappa * n / (3.0 * sigma_gamma2)))
    p_i = 1.0 - regularized_upper_gamma(n / 2.0, kappa * n / (6.0 * sigma_gamma2))
    return p_r * p_i


def five_peak_window_indicator(gamma: np.ndarray, v: np.ndarray, sigma2: float,
                               kappa: float, n: int) -> bool:
    """Membership test on gamma' = V^dag gamma for one drawn gamma."""
    gp = np.conj(v).T @ gamma
    r2 = float(np.sum(np.real(gp) ** 2))
    i2 = float(np.sum(np.imag(gp) ** 2))
    return (2.0 * sigma2 < r2 <= 2.0 * kappa * n / 3.0) and (0.0 < i2 <= kappa * n / 3.0)


def _three_peak_gap(cfg: GameConfig, gamma: np.ndarray) -> float:
    sigma2, Sigma2 = filter_variances(cfg.nu)
    g2 = float(np.sum(np.abs(gamma) ** 2))
    return (2.0 * cfg.eps0 * math.exp(-g2 / Sigma2)
            * (1.0 - math.exp(-2.0 * g2 / sigma2)))


def _five_peak_gap(cfg: GameConfig, gamma: np.ndarray, v: np.ndarray) -> float:
    sigma2, Sigma2 = filter_variances(cfg.nu)
    gp = np.conj(v).T @ gamma
    r2 = float(np.sum(np.real(gp) ** 2))
    i2 = float(np.sum(np.imag(gp) ** 2))
    return (cfg.eps0 * math.exp(-(r2 + i2) / Sigma2)
            * (1.0 + math.exp(-2.0 * i2 / sigma2))
            * (1.0 - math.exp(-2.0 * r2 / sigma2)))


# ---------------------------------------------------------------------------
# TVD estimation and the per-copy bound
# ---------------------------------------------------------------------------

def _as_blocks(obj, n_copies):
    """[(density, count), ...] from one density (or (plus, minus) pair) or blocks."""
    if isinstance(obj, (SignedGaussianMixture, tuple)):
        return [(obj, n_copies)]
    blocks = list(obj)
    if sum(c for _, c in blocks) != n_copies:
        raise ValidationError("per-copy blocks must cover exactly n_copies")
    return blocks


def tvd_pair(density0, density_mixture, n_copies: int, gamma_draws,
             mc_samples: int, rng: np.random.Generator):
    """Monte Carlo estimate of E_gamma TVD(p0^N, E_s p_{s gamma}^N).

    `density0` is the null single-copy density (a mixture, or blocks of
    (mixture, count) when copies differ); `density_mixture` maps gamma to the
    matching (plus, minus) structure. Outcomes are drawn from the null and the
    likelihood ratio is accumulated in log space; returns (tvd, stderr) with
    the spread taken across gamma draws.
    """
    blocks0 = _as_blocks(density0, n_copies)
    per_gamma = []
    for gamma in gamma_draws:
        pm_blocks = _as_blocks(density_mixture(np.asarray(gamma, dtype=complex)), n_copies)
        if len(pm_blocks) != len(blocks0) or \
                any(c0 != c1 for (_, c0), (_, c1) in zip(blocks0, pm_blocks)):
            raise ValidationError("mixture blocks must align with the null blocks")
        log_plus = np.zeros(mc_samples)
        log_minus = np.zeros(mc_samples)
        for (mix0, count), ((mix_p, mix_m), _) in zip(blocks0, pm_blocks):
            z = mix0.sample(mc_samples * count, rng).reshape(mc_samples, count, -1)
            flat = z.reshape(mc_samples * count, -1)
            l0 = mix0.log_value(flat).reshape(mc_samples, count).sum(axis=1)
            log_plus += mix_p.log_value(flat).reshape(mc_samples, count).sum(axis=1) - l0
            log_minus += mix_m.log_value(flat).reshape(mc_samples, count).sum(axis=1) - l0
        ratio = 0.5 * (np.exp(log_plus) + np.exp(log_minus))
        per_gamma.append(float(np.mean(np.maximum(0.0, 1.0 - ratio))))
    per_gamma = np.asarray(per_gamma)
    stderr = float(np.std(per_gamma) / math.sqrt(len(per_gamma))) if len(per_gamma) > 1 else 0.0
    return float(np.mean(per_gamma)), stderr


def per_copy_tvd_bound(sigma_gamma2: float, n: int, eps0: float, copies: int):
    """The 16 N eps0^2 (1 + 2 sigma_gamma^2)^-n envelope and the N needed for TVD 1/6."""
    if sigma_gamma2 < 0 or eps0 <= 0:
        raise ValidationError("per-copy bound needs sigma_gamma2 >= 0 and eps0 > 0")
    suppression = (1.0 + 2.0 * sigma_gamma2) ** n
    tvd_bound = 16.0 * copies * eps0 ** 2 / suppression
    n_min = suppression / (96.0 * eps0 ** 2)
    return tvd_bound, n_min


# ---------------------------------------------------------------------------
# The game
# ---------------------------------------------------------------------------

def _make_state(cfg: GameConfig, gamma: np.ndarray) -> PeakState:
    if cfg.family == "three_peak":
        return make_three_peak(cfg.n, cfg.nu, cfg.eps0, gamma)
    return make_five_peak(cfg.n, cfg.nu, cfg.eps0, gamma, cfg.u)


def _copy_blocks(cfg: GameConfig, state: PeakState):
    """What Bob measures on his copies of `state`: [(mixture, count, estimate)].

    `estimate(outcomes, gamma)` is the block's estimator (chi^2 for Bell, chi
    for heterodyne) at the revealed gamma, as a length-1 array.
    Bell pairs the state with `bell_partner`, its conjugate.
    Heterodyne measures the `o` copies of `order` as they are and the `r`
    copies reflected; a reflected copy's chi at U gamma* equals chi at gamma.
    Only blocks with copies are built.
    """
    if cfg.bob == "ea_bell":
        return [(bell_mixture(state, bell_partner(state, cfg.u)), cfg.copies,
                 chi_squared_means)]
    n_o = (cfg.order * (cfg.copies // len(cfg.order) + 1))[:cfg.copies].count("o")
    blocks = []
    if n_o:
        blocks.append((heterodyne_mixture(state), n_o, chi_heterodyne_means))
    if cfg.copies - n_o:
        blocks.append((heterodyne_mixture(reflect(state, cfg.u)), cfg.copies - n_o,
                       lambda z, g: chi_heterodyne_means(z, cfg.u.matrix @ np.conj(g))))
    return blocks


def run_game(cfg: GameConfig, keep_log: bool = True) -> GameResult:
    """Play `trials` rounds; success counts exact hypothesis identification."""
    thermal = make_thermal(cfg.n, cfg.nu)
    v = takagi_decompose(cfg.u).v if cfg.family == "five_peak" else None
    sigma2 = thermal.sigma2
    # Built once: every thermal trial and the TVD's null share these blocks.
    null_blocks = _copy_blocks(cfg, thermal) if cfg.bob != "random" else []

    correct = 0
    window_hits = 0
    log = []
    for t in range(cfg.trials):
        rng = make_rng(cfg.seed, stream=t)
        gamma = sample_complex_gaussian(cfg.n, cfg.sigma_gamma2, 1, rng)[0]
        s = 1 if rng.random() < 0.5 else -1
        peaked = bool(rng.random() < 0.5)

        if cfg.family == "three_peak":
            g2 = float(np.sum(np.abs(gamma) ** 2))
            in_window = 2.0 * sigma2 < g2 <= cfg.kappa * cfg.n
            gap = _three_peak_gap(cfg, gamma)
        else:
            in_window = five_peak_window_indicator(gamma, v, sigma2, cfg.kappa, cfg.n)
            gap = _five_peak_gap(cfg, gamma, v)
        window_hits += in_window

        entry = {"trial": t, "peaked": peaked, "s": s, "in_window": in_window,
                 "gamma": [[z.real, z.imag] for z in gamma]}

        if cfg.bob == "random" or not in_window:
            decision = bool(rng.random() < 0.5)
            entry.update(used_estimate=False)
        else:
            blocks = _copy_blocks(cfg, _make_state(cfg, s * gamma)) if peaked else null_blocks
            est = complex(sum(count * estimate(mix.sample(count, rng, dtype=np.float32), gamma)[0]
                              for mix, count, estimate in blocks)) / cfg.copies
            # the peaked chi at gamma is chi0 + i gap; Bell pairs estimate its square
            chi0 = complex(char_fn(thermal, gamma))
            p = 2 if cfg.bob == "ea_bell" else 1
            target = chi0 ** p
            threshold = abs((chi0 + 1j * gap) ** p - target) / 2.0
            decision = abs(est - target) > threshold
            entry.update(used_estimate=True, estimate=[est.real, est.imag],
                         threshold=threshold)

        ok = decision == peaked
        correct += ok
        entry.update(decision="peaked" if decision else "thermal", correct=bool(ok))
        if keep_log:
            log.append(entry)

    tvd, tvd_se = 0.0, 0.0
    if cfg.estimate_tvd and cfg.bob != "random":
        tvd, tvd_se = _strategy_tvd(cfg, null_blocks)

    return GameResult(success_rate=correct / cfg.trials,
                      window_hit_rate=window_hits / cfg.trials,
                      empirical_tvd=tvd, tvd_stderr=tvd_se,
                      trials=cfg.trials, copies=cfg.copies,
                      per_trial=log if keep_log else [])


def _strategy_tvd(cfg: GameConfig, null_blocks):
    """E_gamma TVD of the strategy's classical data under the two hypotheses.

    `null_blocks` are the strategy's copy blocks on the thermal state.
    """
    rng = make_rng(cfg.seed, stream=1_000_003)
    gammas = sample_complex_gaussian(cfg.n, cfg.sigma_gamma2, cfg.tvd_gamma_draws, rng)
    null = [(mix, count) for mix, count, _ in null_blocks]

    def pm(gamma):
        plus, minus = (_copy_blocks(cfg, _make_state(cfg, g)) for g in (gamma, -gamma))
        return [((p, m), count) for (p, count, _), (m, _, _) in zip(plus, minus)]

    return tvd_pair(null, pm, cfg.copies, gammas, cfg.tvd_mc_samples, rng)
