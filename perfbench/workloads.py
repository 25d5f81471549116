"""The benchmark workloads.

Each workload builds its inputs from the benchmark seed in `__init__` (the
set-up that `setup_s` times), then runs operations of the kinds listed in
`kinds`, cycling through them in order. `run` is the timed operation; `check`
compares its output with truth values computed in set-up and returns a list
of problems (empty when the operation is correct).

Two workloads are benchmarked: `learn_bell`, and `cli_game_oracle`, which
interleaves the operations of `CliRoundTrip`, `Game` and `Oracle`. Run apart,
those three were too short to ride out the host's speed drift (see README.md).

Every call into cvlearn goes through a module attribute (`measurements.x`,
not a name imported into this file), so the wrappers that the traced run
installs in those namespaces see the benchmark's calls too.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import binom

from cvlearn import (bounds, channel_bridge, cli, estimators, fock_oracle, game,
                     measurements, numerics, states)

# Per-run false-alarm budget of the statistical correctness checks. Each check
# below is set so that one run's chance of flagging a correct program is under
# this, counting every check a run makes.
FALSE_ALARM = 1e-7
MAX_CHECKS = 10_000                 # more checks than any run makes
PER_CHECK = FALSE_ALARM / MAX_CHECKS


def hoeffding_modulus_tol(bound: float, count: int) -> float:
    """|mean - E| tolerance for a complex mean of `count` terms of modulus <= bound.

    Hoeffding on the real and imaginary parts, each in [-B, B]:
    P(|part error| > t) <= 2 exp(-count t^2 / (2 B^2)); a modulus error above
    sqrt(2) t needs one part above t, so the tolerance fails with probability
    at most 4 exp(-count t^2 / (2 B^2)) = PER_CHECK.
    """
    t = bound * math.sqrt(2.0 * math.log(4.0 / PER_CHECK) / count)
    return math.sqrt(2.0) * t


def _unit_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _query_points(rng: np.random.Generator, n: int, m: int, r2_max: float) -> np.ndarray:
    """m post-hoc query points with |alpha|^2 uniform in (0.05, r2_max), one on the edge."""
    pts = np.stack([_unit_direction(rng, n) for _ in range(m)])
    r2 = rng.uniform(0.05, r2_max, size=m)
    r2[0] = r2_max
    return pts * np.sqrt(r2)[:, None]


def _input_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


class Workload:
    name = ""
    kinds: tuple = ()
    work_unit = ""

    @property
    def warmup_kinds(self) -> tuple:
        """Kinds run once, untimed, at the end of set-up."""
        return self.kinds[:1]

    def run(self, kind, op_index: int):
        raise NotImplementedError

    def check(self, kind, out) -> list:
        raise NotImplementedError

    def work(self, kind) -> int:
        """Work units (draws, or operations) one operation of this kind completes."""
        return 1

    def computed_bytes(self) -> dict:
        """Computed sizes of the largest arrays one operation allocates."""
        return {}


class LearnBell(Workload):
    """One criterion-5 trial: planned N Bell draws at float32, M=10 post-hoc
    chi^2 means, then sign resolution."""

    name = "learn_bell"
    kinds = ("three_peak_n1", "three_peak_n2", "three_peak_n3", "five_peak_n2")
    work_unit = "draws"
    eps, delta, m_points = 0.1, 0.1, 10
    nu, eps0 = 0.75, 0.05

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.count = estimators.plan_samples(
            "bell_chi", estimators.PlannerInputs(epsilon=self.eps, delta=self.delta,
                                                 M=self.m_points))
        self.chi2_tol = hoeffding_modulus_tol(1.0, self.count)
        self.inputs = {}
        for tag, kind in enumerate(self.kinds):
            rng = _input_rng(seed, tag)
            n = int(kind[-1])
            gamma = 0.8 * math.sqrt(2 * n) * _unit_direction(rng, n)
            u = numerics.random_symmetric_unitary(n, rng)
            if kind.startswith("three"):
                state = states.make_three_peak(n, self.nu, self.eps0, gamma)
            else:
                state = states.make_five_peak(n, self.nu, self.eps0, gamma, u)
            mix = measurements.bell_mixture(state, states.bell_partner(state, u))
            alphas = _query_points(rng, n, self.m_points, 2.0 * n)
            chi = np.asarray(states.char_fn(state, alphas))
            self.inputs[kind] = (n, mix, alphas, chi)

    def run(self, kind, op_index):
        _, mix, alphas, _ = self.inputs[kind]
        z = mix.sample(self.count, numerics.make_rng(self.seed, stream=op_index),
                       dtype=np.float32)
        v = estimators.chi_squared_means(z, alphas, dtype=np.float32)
        return v, [estimators.resolve_sign(complex(x), self.eps) for x in v]

    def check(self, kind, out):
        v, u = out
        chi = self.inputs[kind][3]
        problems = []
        err2 = float(np.max(np.abs(v - chi ** 2)))
        if not err2 <= self.chi2_tol:
            problems.append(f"chi^2 error {err2:.3e} > {self.chi2_tol:.3e}")
        u = np.asarray(u)
        err = float(np.max(np.minimum(np.abs(u - chi), np.abs(u + chi))))
        if not err <= self.eps:
            problems.append(f"sign-resolved chi error {err:.3e} > eps {self.eps}")
        return problems

    def work(self, kind):
        return self.count

    def computed_bytes(self):
        n_max = max(n for n, *_ in self.inputs.values())
        env = max(mix.envelope_mass for _, mix, _, _ in self.inputs.values())
        batch = max(2048, min(int(1.2 * self.count * env), 4_000_000))
        chunk = min(1 << 20, self.count)
        return {
            "outcomes_complex64_n3": self.count * n_max * 8,
            "sampler_proposals_re_im_float32_n3": 2 * batch * n_max * 4,
            "estimator_chunk_x_M_float32_phases_and_cos": 2 * chunk * self.m_points * 4,
        }


class CliRoundTrip(Workload):
    """`cvlearn sample` then `cvlearn estimate`, in-process through cli.main,
    with a JSONL record written and read back between them."""

    name = "cli_roundtrip"
    kinds = ("bell", "heterodyne")
    count = 25_000
    n, nu, eps0, eps, m_points = 2, 0.75, 0.05, 0.1, 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _input_rng(seed, 100)
        gamma = 0.8 * math.sqrt(2 * self.n) * _unit_direction(rng, self.n)
        state = states.make_three_peak(self.n, self.nu, self.eps0, gamma)
        self.u_seed = int(rng.integers(1 << 30))
        # heterodyne terms have modulus e^{|alpha|^2/2}, so keep |alpha|^2 <= n
        alphas = _query_points(rng, self.n, self.m_points, float(self.n))
        self.chi = np.asarray(states.char_fn(state, alphas))
        self.state_file = workdir / "state.json"
        self.points_file = workdir / "points.json"
        self.record_file = workdir / "record.jsonl"
        self.estimate_file = workdir / "estimate.json"
        self.state_file.write_text(state.to_json() + "\n")
        self.points_file.write_text(json.dumps(
            [[{"re": z.real, "im": z.imag} for z in pt] for pt in alphas]))
        # Bell: a chi^2 error eta leaves the sign-resolved chi within
        # sqrt(2/3 eps^2 + eta) of +-chi (|sqrt(v) -+ chi| |sqrt(v) +- chi| = |v - chi^2|,
        # and a zeroed estimate has |chi|^2 <= 2/3 eps^2 + eta).
        eta = hoeffding_modulus_tol(1.0, self.count)
        self.tol = {"bell": math.sqrt(2.0 / 3.0 * self.eps ** 2 + eta),
                    "heterodyne": hoeffding_modulus_tol(
                        math.exp(0.5 * float(np.max(np.sum(np.abs(alphas) ** 2, axis=1)))),
                        self.count)}

    def run(self, kind, op_index):
        seed = self.seed * 1_000_000 + op_index
        argv = ["sample", "--state", str(self.state_file), "--scheme", kind,
                "--count", str(self.count), "--seed", str(seed),
                "--out", str(self.record_file)]
        if kind == "bell":
            argv += ["--u-seed", str(self.u_seed)]
        rc_sample = cli.main(argv)
        if rc_sample != 0:
            return rc_sample, None
        scheme = "bell-chi" if kind == "bell" else "heterodyne"
        rc_est = cli.main(["estimate", "--record", str(self.record_file),
                           "--points", str(self.points_file), "--scheme", scheme,
                           "--epsilon", str(self.eps), "--out", str(self.estimate_file)])
        return rc_sample, rc_est

    def check(self, kind, out):
        rc_sample, rc_est = out
        if rc_sample != 0 or rc_est != 0:
            return [f"exit codes sample={rc_sample} estimate={rc_est}"]
        problems = []
        with open(self.record_file) as fh:
            header = json.loads(fh.readline())
            rows = sum(1 for line in fh if line.strip())
        if rows != self.count or header.get("count") != self.count:
            problems.append(f"record holds {rows} rows (header {header.get('count')}), "
                            f"asked for {self.count}")
        reports = json.loads(self.estimate_file.read_text())["estimates"]
        est = np.array([complex(*r["estimate"]) for r in reports])
        if est.shape != self.chi.shape:
            return problems + [f"{est.size} estimates for {self.chi.size} points"]
        if kind == "bell":
            err = float(np.max(np.minimum(np.abs(est - self.chi), np.abs(est + self.chi))))
        else:
            err = float(np.max(np.abs(est - self.chi)))
        if not err <= self.tol[kind]:
            problems.append(f"{kind} estimate error {err:.3e} > {self.tol[kind]:.3e}")
        return problems

    def computed_bytes(self):
        return {
            "outcomes_complex128": self.count * self.n * 16,
            "read_back_rows_float64": self.count * 2 * self.n * 8,
            "estimator_chunk_x_1_float64_phases_and_cos": 2 * self.count * 8,
        }


class Game(Workload):
    """One run_game call: n=2, 50 copies, 500 trials, default TVD budget."""

    name = "game"
    kinds = (("three_peak", "ea_bell"), ("three_peak", "ef_heterodyne"),
             ("five_peak", "ea_bell"), ("five_peak", "ef_heterodyne"))
    n, nu, eps0, kappa, copies, trials = 2, 0.9, 0.25, 2.0, 50, 500

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        u = numerics.random_symmetric_unitary(self.n, _input_rng(seed, 200))
        self.configs = {}
        self.window = {}
        for family, bob in self.kinds:
            cfg = game.GameConfig(family=family, n=self.n, nu=self.nu, eps0=self.eps0,
                                  kappa=self.kappa, copies=self.copies, u=u,
                                  trials=self.trials, bob=bob)
            self.configs[family, bob] = cfg
            sigma2 = 0.5 * (1.0 / self.nu - self.nu)
            prob = (game.window_probability if family == "three_peak"
                    else game.five_peak_window_probability)(
                self.n, sigma2, cfg.sigma_gamma2, self.kappa)
            # exact binomial acceptance interval for the window hit count
            lo = binom.ppf(PER_CHECK / 2, self.trials, prob)
            hi = binom.isf(PER_CHECK / 2, self.trials, prob)
            self.window[family] = (prob, lo / self.trials, hi / self.trials)

    def run(self, kind, op_index):
        cfg = dataclasses.replace(self.configs[kind], seed=self.seed * 1_000_000 + op_index)
        return game.run_game(cfg, keep_log=False)

    def check(self, kind, res):
        prob, lo, hi = self.window[kind[0]]
        problems = []
        if not lo <= res.window_hit_rate <= hi:
            problems.append(f"window hit rate {res.window_hit_rate} outside [{lo}, {hi}] "
                            f"(probability {prob:.4f})")
        if not 0.0 <= res.success_rate <= 1.0:
            problems.append(f"success rate {res.success_rate} outside [0, 1]")
        if not 0.0 <= res.empirical_tvd <= 1.0:
            problems.append(f"TVD {res.empirical_tvd} outside [0, 1]")
        return problems

    def computed_bytes(self):
        cfg = self.configs[self.kinds[0]]
        block = cfg.tvd_mc_samples * self.copies
        return {"tvd_outcome_block_complex128": block * self.n * 16,
                "tvd_log_value_terms_float64": block * 8}


class Oracle(Workload):
    """Fock-oracle check of a two-mode state at its default cutoff, then a
    channel-bridge validity sweep and a 50-point kappa bound curve."""

    name = "oracle"
    kinds = ("three_peak", "five_peak")
    n, nu, eps0, g2 = 2, 0.5, 0.2, 1.6       # default cutoff 36, dense dim 1296
    r, sets = 0.4, 100
    families = ("lb_ef", "ub_hd", "ub_bm")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _input_rng(seed, 300)
        gamma = math.sqrt(self.g2) * _unit_direction(rng, self.n)
        u = numerics.random_symmetric_unitary(self.n, rng)
        self.states = {
            "three_peak": states.make_three_peak(self.n, self.nu, self.eps0, gamma),
            "five_peak": states.make_five_peak(self.n, self.nu, self.eps0, gamma, u),
        }
        self.cutoff = {k: fock_oracle.default_cutoff(s) for k, s in self.states.items()}
        self.grid = np.linspace(0.5, 3.0, 50).tolist()
        self.base = bounds.BoundInputs(epsilon=0.09, kappa=2.0, n=8)

    def run(self, kind, op_index):
        rep = fock_oracle.oracle_check(self.states[kind],
                                       rng=numerics.make_rng(self.seed, stream=op_index))
        # the five-peak state has no closed-form s_max, so the channel sweep
        # always runs on the three-peak state, whose threshold r* is below r
        lam = channel_bridge.lambda_from_state(self.states["three_peak"], self.r,
                                               sets=self.sets)
        table = bounds.emit_curves("kappa", self.grid, self.families, self.base)
        return rep, lam, table

    def check(self, kind, out):
        rep, lam, table = out
        problems = []
        limits = {"char_max_abs_error": 1e-6, "trace_error": 1e-8,
                  "mean_photon_error": 1e-5}
        for key, limit in limits.items():
            if not rep[key] < limit:
                problems.append(f"oracle {key} {rep[key]:.3e} >= {limit}")
        if not rep["min_eigenvalue"] >= -1e-9:
            problems.append(f"oracle min eigenvalue {rep['min_eigenvalue']:.3e} < -1e-9")
        if rep["cutoff"] != self.cutoff[kind]:
            problems.append(f"cutoff {rep['cutoff']} != default {self.cutoff[kind]}")
        if lam.status != channel_bridge.VALID:
            problems.append(f"lambda status {lam.status!r}")
        values = [v for fam in self.families for v in table.values[fam]]
        if len(values) != len(self.grid) * len(self.families) or \
                not all(v is not None and math.isfinite(v) for v in values):
            problems.append("bound curve has gaps or non-finite values")
        return problems

    def computed_bytes(self):
        dim = max(self.cutoff.values()) ** self.n
        return {"dense_matrix_complex128": dim * dim * 16}


class CliGameOracle(Workload):
    """The operations of CliRoundTrip, Game and Oracle, interleaved in one
    cycle so that each part's samples spread over the whole run."""

    name = "cli_game_oracle"
    work_unit = "ops"

    def __init__(self, seed: int, workdir: Path):
        self.parts = [cls(seed, workdir) for cls in (CliRoundTrip, Game, Oracle)]
        labelled = [[(".".join((part.name,) + (k if isinstance(k, tuple) else (k,))), part, k)
                     for k in part.kinds] for part in self.parts]
        # round-robin over the parts, so each part's operations spread over the run
        order = [row[i] for i in range(max(map(len, labelled)))
                 for row in labelled if i < len(row)]
        self.kinds = tuple(label for label, _, _ in order)
        self.routes = {label: (part, k) for label, part, k in order}

    @property
    def warmup_kinds(self):
        # the first round-robin round, one kind of each part: a cold
        # oracle_check alone costs about twice a warm one
        return self.kinds[:len(self.parts)]

    def run(self, kind, op_index):
        part, sub = self.routes[kind]
        return part.run(sub, op_index)

    def check(self, kind, out):
        part, sub = self.routes[kind]
        return part.check(sub, out)

    def computed_bytes(self):
        return {f"{part.name}.{key}": value for part in self.parts
                for key, value in part.computed_bytes().items()}


WORKLOADS = {w.name: w for w in (LearnBell, CliGameOracle)}
