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
from .measurements import SignedGaussianMixture, pair_log_brackets, pair_projection, peak_mixtures
from .numerics import (SymmetricUnitary, check_int, check_real, make_rng,
                       regularized_upper_gamma, sample_complex_gaussian)
from .states import (EPS0_RANGE, PeakState, char_fn, filter_variances, make_thermal,
                     peak_layout)

FAMILIES = ("three_peak", "five_peak")
TRIAL_ROWS = 1 << 16   # copy rows a chunk of trials draws and estimates at once
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
        for key, low in (("n", 1), ("copies", 1), ("trials", 1), ("seed", 0),
                         ("tvd_gamma_draws", 1), ("tvd_mc_samples", 1)):
            check_int(getattr(self, key), key, low)
        check_real(self.kappa, "kappa must be a finite number > 0", 0.0)
        check_real(self.nu, "nu must lie in (0, 1)", 0.0, 1.0)
        check_real(self.eps0, *EPS0_RANGE)
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
    for x in (sigma2, sigma_gamma2, kappa):
        check_real(x, "window probability needs positive parameters", 0.0)
    return (regularized_upper_gamma(n, sigma2 / sigma_gamma2)
            - regularized_upper_gamma(n, kappa * n / (2.0 * sigma_gamma2)))


def five_peak_window_probability(n: int, sigma2: float, sigma_gamma2: float,
                                 kappa: float) -> float:
    """P_R * P_I: real part in (2 sigma^2, 2 kappa n / 3], imaginary in (0, kappa n / 3].

    The Takagi factor V only rotates gamma, so the probability is V-independent;
    the half-integer shapes come from splitting the 2n real coordinates.
    """
    for x in (sigma2, sigma_gamma2, kappa):
        check_real(x, "window probability needs positive parameters", 0.0)
    p_r = (regularized_upper_gamma(n / 2.0, sigma2 / sigma_gamma2)
           - regularized_upper_gamma(n / 2.0, kappa * n / (3.0 * sigma_gamma2)))
    p_i = 1.0 - regularized_upper_gamma(n / 2.0, kappa * n / (6.0 * sigma_gamma2))
    return p_r * p_i


def _five_peak_window(gamma, u: np.ndarray, sigma2: float, kappa: float, n: int):
    """Window flags, |Re gamma'|^2 and |Im gamma'|^2 of gamma' = V^dag gamma, for
    gamma (n,) or (m, n).

    Any Takagi factor V V^T = U gives gamma'^T gamma' = gamma^T U* gamma, so the
    parts are (|gamma|^2 +- Re gamma^T U* gamma) / 2: they read U alone.
    """
    g = np.asarray(gamma, dtype=complex)
    g2 = np.sum(np.abs(g) ** 2, axis=-1)
    q = np.sum((g @ np.conj(u)) * g, axis=-1).real
    r2, i2 = 0.5 * (g2 + q), 0.5 * (g2 - q)
    return ((2.0 * sigma2 < r2) & (r2 <= 2.0 * kappa * n / 3.0)
            & (0.0 < i2) & (i2 <= kappa * n / 3.0)), r2, i2


def _windows_and_gaps(cfg: GameConfig, gammas: np.ndarray):
    """Window flags and chi gaps |chi_peaked - chi0|(gamma) for each row of gammas (m, n)."""
    sigma2, Sigma2 = filter_variances(cfg.nu)
    if cfg.family == "three_peak":
        g2 = np.sum(np.abs(gammas) ** 2, axis=1)
        return ((2.0 * sigma2 < g2) & (g2 <= cfg.kappa * cfg.n),
                2.0 * cfg.eps0 * np.exp(-g2 / Sigma2) * (1.0 - np.exp(-2.0 * g2 / sigma2)))
    in_window, r2, i2 = _five_peak_window(gammas, cfg.u.matrix, sigma2, cfg.kappa, cfg.n)
    return in_window, (cfg.eps0 * np.exp(-(r2 + i2) / Sigma2) * (1.0 + np.exp(-2.0 * i2 / sigma2))
                       * (1.0 - np.exp(-2.0 * r2 / sigma2)))


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
    matching (plus, minus) structure. Returns (tvd, stderr), the spread taken
    across gamma draws.

    Each null block must be the plain Gaussian N_V (no oscillating terms, a
    bracket of exactly 1, as every thermal null is), and each (plus, minus)
    mixture must share its variance; anything else raises ValidationError.
    Then log p_+-/p0 = log b_+-, which reads an outcome only through its
    angles theta = [Re z | Im z] Phi, Gaussian under the null: for each gamma
    and block, theta = L^T w is drawn from `mc_samples * count` rows of
    standard normals w and the pair's factor L (`pair_projection`), with no
    rejection and no Gaussian parts. A +-gamma pair shares its cos/sin.
    """
    if len(gamma_draws) < 1:
        raise ValidationError("tvd_pair needs at least one gamma draw")
    blocks0 = _as_blocks(density0, n_copies)
    if not all(mix0.is_plain_gaussian for mix0, _ in blocks0):
        raise ValidationError("tvd_pair needs each null block to be the plain Gaussian N_V, "
                              "but a null block has oscillating terms")
    per_gamma = []
    for gamma in gamma_draws:
        pm_blocks = _as_blocks(density_mixture(np.asarray(gamma, dtype=complex)), n_copies)
        if len(pm_blocks) != len(blocks0) or \
                any(c0 != c1 for (_, c0), (_, c1) in zip(blocks0, pm_blocks)):
            raise ValidationError("mixture blocks must align with the null blocks")
        log_plus = np.zeros(mc_samples)
        log_minus = np.zeros(mc_samples)
        for (mix0, count), ((mix_p, mix_m), _) in zip(blocks0, pm_blocks):
            if not mix_p.variance == mix_m.variance == mix0.variance:
                raise ValidationError(
                    f"the (plus, minus) mixtures' variances ({mix_p.variance}, "
                    f"{mix_m.variance}) differ from the null's {mix0.variance}")
            factor, mirrored = pair_projection(mix_p, mix_m)
            w = rng.standard_normal((mc_samples * count, factor.shape[0]))
            lp, lm = (lb.reshape(mc_samples, count).sum(axis=1)
                      for lb in pair_log_brackets(mix_p, mix_m, w, factor, mirrored))
            log_plus += lp
            log_minus += lm
        ratio = 0.5 * (np.exp(log_plus) + np.exp(log_minus))
        per_gamma.append(float(np.mean(np.maximum(0.0, 1.0 - ratio))))
    per_gamma = np.asarray(per_gamma)
    stderr = float(np.std(per_gamma) / math.sqrt(len(per_gamma))) if len(per_gamma) > 1 else 0.0
    return float(np.mean(per_gamma)), stderr


def per_copy_tvd_bound(sigma_gamma2: float, n: int, eps0: float, copies: int):
    """The 16 N eps0^2 (1 + 2 sigma_gamma^2)^-n envelope and the N needed for TVD 1/6."""
    check_real(sigma_gamma2, "per-copy bound needs sigma_gamma2 >= 0", 0.0, ends="[)")
    check_real(eps0, "per-copy bound needs eps0 > 0", 0.0)
    suppression = (1.0 + 2.0 * sigma_gamma2) ** n
    tvd_bound = 16.0 * copies * eps0 ** 2 / suppression
    n_min = suppression / (96.0 * eps0 ** 2)
    return tvd_bound, n_min


# ---------------------------------------------------------------------------
# The game
# ---------------------------------------------------------------------------

def _per_trial(means, to_alpha=lambda g: g):
    """A block estimator: (T, count, n) outcomes and (T, n) gammas -> T estimates."""
    return lambda outcomes, gammas: means(outcomes, to_alpha(gammas)[:, None])[:, 0]


def _copy_blocks(cfg: GameConfig, weights: np.ndarray, centers: np.ndarray):
    """What Bob measures on his copies of each state (weights, centers[i]).

    Returns one list of blocks [(mixture, count, estimate)] per member.
    `estimate(outcomes, gammas)` is the block's estimator (chi^2 for Bell, chi
    for heterodyne) at each trial's revealed gamma: outcomes (T, count, n) and
    gammas (T, n) give T estimates.
    Bell pairs the state with `bell_partner`, its peaks at gamma*.
    Heterodyne measures the `o` copies of `order` as they are and the `r`
    copies reflected; a reflected copy's chi at U gamma* equals chi at gamma.
    Only blocks with copies are built; each block is one `peak_mixtures` call.
    """
    if cfg.bob == "ea_bell":
        return [[(mix, cfg.copies, _per_trial(chi_squared_means))]
                for mix in peak_mixtures("bell", cfg.nu, weights, centers)]
    n_o = (cfg.order * (cfg.copies // len(cfg.order) + 1))[:cfg.copies].count("o")
    columns = []
    if n_o:
        columns.append([(mix, n_o, _per_trial(chi_heterodyne_means))
                        for mix in peak_mixtures("heterodyne", cfg.nu, weights, centers)])
    if cfg.copies - n_o:
        # each peak (w, gamma) reflects to (w, U^T gamma*), as `reflect` maps it
        reflected = peak_mixtures("heterodyne", cfg.nu, weights, np.conj(centers) @ cfg.u.matrix)
        estimate = _per_trial(chi_heterodyne_means, lambda g: np.conj(g) @ cfg.u.matrix.T)
        columns.append([(mix, cfg.copies - n_o, estimate) for mix in reflected])
    return [list(blocks) for blocks in zip(*columns)]


def _peak_blocks(cfg: GameConfig, gammas: np.ndarray):
    """`_copy_blocks` of the family's peak states at each row of gammas (m >= 1, n).

    PeakState's checks are not run: `peak_layout` gives one unit anchor and
    Hermitian pairs, GameConfig's eps0 <= 1/4 bounds the side mass by 1, and
    merging keeps all three; the Bell partner's centers are gamma* by
    construction.
    """
    weights, centers = peak_layout(cfg.n, cfg.eps0, gammas,
                                   cfg.u if cfg.family == "five_peak" else None)
    return _copy_blocks(cfg, weights, centers)


def run_game(cfg: GameConfig, keep_log: bool = True) -> GameResult:
    """Play `trials` rounds; success counts exact hypothesis identification.

    Trials are played in chunks of max(1, TRIAL_ROWS // copies), so a chunk
    draws at most TRIAL_ROWS copy rows (or one trial's copies) at once, and
    each chunk c as arrays drawn from its own stream `make_rng(seed, stream=c)`
    (`_play`), in this order:

    1. every trial's gamma, in one `sample_complex_gaussian` call;
    2. every trial's sign, hypothesis and guess, in one `rng.random((3, T))`;
    3. the copies of the thermal in-window trials, one `sample` call per
       null block, reshaped to (trials, count, n);
    4. the copies of the peaked in-window trials, member by member, from
       their blocks built as one family (`_peak_blocks`).

    Window flags, gaps, chi0 = chi_thermal(gamma), thresholds, each block's
    estimates and the decisions are array operations over the chunk. So the
    chunk size defines the stream: a run's first chunk plays as a run of that
    many trials. Trials outside the window (and every `random` trial) use
    their guess. Log entries are built only with `keep_log`.

    The TVD side estimate then builds the states at +-gamma of all its draws
    as one family, and `tvd_pair` draws the thermal null through each pair's
    projection.
    """
    thermal = make_thermal(cfg.n, cfg.nu)
    # Built once: every thermal trial and the TVD's null share these blocks.
    null_blocks = (_copy_blocks(cfg, thermal.weights, thermal.centers[None])[0]
                   if cfg.bob != "random" else [])

    correct = 0
    window_hits = 0
    log = []
    per_chunk = max(1, TRIAL_ROWS // cfg.copies)
    for chunk, start in enumerate(range(0, cfg.trials, per_chunk)):
        hits, wins, entries = _play(cfg, thermal, null_blocks, make_rng(cfg.seed, stream=chunk),
                                    range(start, min(start + per_chunk, cfg.trials)), keep_log)
        correct += hits
        window_hits += wins
        log += entries

    tvd, tvd_se = 0.0, 0.0
    if cfg.estimate_tvd and cfg.bob != "random":
        tvd, tvd_se = _strategy_tvd(cfg, null_blocks)

    return GameResult(success_rate=correct / cfg.trials,
                      window_hit_rate=window_hits / cfg.trials,
                      empirical_tvd=tvd, tvd_stderr=tvd_se,
                      trials=cfg.trials, copies=cfg.copies, per_trial=log)


def _play(cfg: GameConfig, thermal: PeakState, null_blocks, rng: np.random.Generator,
          trials: range, keep_log: bool):
    """(correct, in-window, log entries) of one chunk of `trials`, as `run_game` plays it."""
    size = len(trials)
    gammas = sample_complex_gaussian(cfg.n, cfg.sigma_gamma2, size, rng)
    positive, peaked, guess = rng.random((3, size)) < 0.5
    signs = np.where(positive, 1, -1)
    in_window, gap = _windows_and_gaps(cfg, gammas)
    estimating = in_window & (cfg.bob != "random")
    # the peaked chi at gamma is chi0 + i gap; Bell pairs estimate its square
    chi0 = char_fn(thermal, gammas)
    p = 2 if cfg.bob == "ea_bell" else 1
    target = chi0 ** p
    thresholds = np.abs((chi0 + 1j * gap) ** p - target) / 2.0

    est = np.zeros(size, dtype=complex)
    null = np.flatnonzero(estimating & ~peaked)
    if null.size:
        for mix, count, estimate in null_blocks:
            outcomes = mix.sample(null.size * count, rng, dtype=np.float32)
            est[null] += count * estimate(outcomes.reshape(null.size, count, cfg.n), gammas[null])
    hit = np.flatnonzero(estimating & peaked)
    if hit.size:
        members = _peak_blocks(cfg, signs[hit, None] * gammas[hit])
        draws = [[mix.sample(count, rng, dtype=np.float32) for mix, count, _ in blocks]
                 for blocks in members]
        for b, (_, count, estimate) in enumerate(members[0]):
            est[hit] += count * estimate(np.stack([d[b] for d in draws]), gammas[hit])
    est /= cfg.copies
    decision = np.where(estimating, np.abs(est - target) > thresholds, guess)
    correct = decision == peaked
    entries = _log_entries(trials, gammas, signs, peaked, in_window, estimating, est,
                           thresholds, decision, correct) if keep_log else []
    return int(correct.sum()), int(in_window.sum()), entries


def _log_entries(trials, gammas, signs, peaked, in_window, estimating, est, thresholds,
                 decision, correct) -> list[dict]:
    """One log entry per trial, in plain Python types."""
    entries = []
    for t, gamma, s, pk, win, used, e, th, dec, ok in zip(
            trials, gammas.tolist(), signs.tolist(), peaked.tolist(), in_window.tolist(),
            estimating.tolist(), est.tolist(), thresholds.tolist(), decision.tolist(),
            correct.tolist()):
        entry = {"trial": t, "peaked": pk, "s": s, "in_window": win,
                 "gamma": [[z.real, z.imag] for z in gamma], "used_estimate": used}
        if used:
            entry.update(estimate=[e.real, e.imag], threshold=th)
        entry.update(decision="peaked" if dec else "thermal", correct=ok)
        entries.append(entry)
    return entries


def _strategy_tvd(cfg: GameConfig, null_blocks):
    """E_gamma TVD of the strategy's classical data under the two hypotheses.

    `null_blocks` are the strategy's copy blocks on the thermal state. The
    states at +gamma and -gamma of every draw are built as one family.
    """
    rng = make_rng(cfg.seed, stream=1_000_003)
    gammas = sample_complex_gaussian(cfg.n, cfg.sigma_gamma2, cfg.tvd_gamma_draws, rng)
    null = [(mix, count) for mix, count, _ in null_blocks]
    # members 2i and 2i + 1 are the states at +gamma_i and -gamma_i
    members = _peak_blocks(cfg, np.stack([gammas, -gammas], axis=1).reshape(-1, cfg.n))
    pm = {g.tobytes(): [((plus, minus), count)
                        for (plus, count, _), (minus, _, _) in zip(members[2 * i],
                                                                   members[2 * i + 1])]
          for i, g in enumerate(gammas)}
    return tvd_pair(null, lambda gamma: pm[gamma.tobytes()], cfg.copies, gammas,
                    cfg.tvd_mc_samples, rng)
