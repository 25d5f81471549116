"""Command-line front end: reproducible experiments and figure-data emission.

Every stochastic command requires an explicit --seed (no environment
fallback), and every output embeds the resolved configuration plus the
constants version, so reruns are byte-identical.

Exit codes: 0 success, 2 validation or file error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import fock_oracle
from .bounds import BOUND_FAMILIES, BoundInputs, CONSTANTS_VERSION, emit_curves
from .channel_bridge import lambda_from_state
from .errors import NumericFailure, ValidationError
from .estimators import estimate_record
from .game import GameConfig, run_game
from .measurements import MeasurementRecord, sample_bell, sample_heterodyne
from .numerics import (SymmetricUnitary, check_complex, check_int, check_mode_count,
                       check_real, make_rng, random_symmetric_unitary)
from .states import (
    PeakState,
    bell_partner,
    char_fn,
    classicality_smax,
    make_five_peak,
    make_thermal,
    make_three_peak,
    mean_photon,
    s_qpd,
    three_peak_plus,
    wigner,
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' literals (also accepts the Python 'j' suffix)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex literal {text!r}") from exc


def parse_cvector(text: str, n: int | None = None) -> np.ndarray:
    vec = np.array([parse_complex(t) for t in text.split(",")], dtype=complex)
    if n is not None and vec.shape != (n,):
        raise ValidationError(f"expected {n} comma-separated components, got {vec.shape[0]}")
    return vec


def finite_float(text: str) -> float:
    """argparse type for real options: NaN and +-inf are usage errors, as in the library."""
    try:
        check_real(value := float(text), text)
        return value
    except ValueError:   # not a number, or not a finite one
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        check_int(value := int(text), text, 1)
        return value
    except ValueError:   # not an integer, or one below 1
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _json_text(payload, **options) -> str:
    """Sorted JSON text of payload; a NaN or an infinity in it is a NumericFailure."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **options)
    except ValueError as exc:
        raise NumericFailure(f"output holds a number JSON cannot write: {exc}") from exc


def _dump_json(path, payload):
    text = _json_text(payload, indent=2)   # before the file opens, so none is left half written
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _complex_rows(raw, what: str) -> np.ndarray:
    """A JSON list of rows of {"re", "im"} objects, finite numbers, as a 2-D complex array."""
    try:
        m = np.array([[check_complex(z["re"], z["im"], what) for z in row] for row in raw])
        if m.ndim != 2:
            raise ValueError(f"got shape {m.shape}")
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{what} must be a list of rows of {{re, im}} objects: {exc!r}") from exc
    return m


def _unitary(spec, n: int, what: str) -> SymmetricUnitary:
    """The n-mode unitary a spec names: null is the identity, a list of rows of
    {re, im} objects is that matrix, and {"seed": k} is the seeded random one."""
    if spec is None:
        return SymmetricUnitary(matrix=np.eye(n))
    if isinstance(spec, list):
        return SymmetricUnitary(matrix=_complex_rows(spec, what))
    if isinstance(spec, dict) and spec.keys() == {"seed"}:
        check_int(spec["seed"], f"the seed k in {what}")
        return random_symmetric_unitary(n, make_rng(spec["seed"]))
    raise ValidationError(
        f"{what} must be a list of rows of {{re, im}} objects or "
        f'{{"seed": k}} with an integer k >= 0, got {spec!r}')


def _load_unitary(args, n: int) -> SymmetricUnitary:
    if args.u_file:
        return _unitary(_load_json(args.u_file), n, "--u-file")
    return _unitary(None if args.u_seed is None else {"seed": args.u_seed}, n, "--u-seed")


def _load_state(args) -> PeakState:
    if args.state:
        if given := [k for k in ("family", "nu", "eps0", "gamma") if vars(args)[k] is not None]:
            raise ValidationError(f"--state excludes --{', --'.join(given)}: give one source")
        return PeakState.from_json_dict(_load_json(args.state))
    family = args.family
    needs = ("nu",) if family == "thermal" else ("nu", "eps0")
    missing = [f"--{key}" for key in needs if getattr(args, key) is None]
    if family and missing:
        raise ValidationError(f"--family {family} needs {' and '.join(missing)}")
    check_mode_count(args.n)
    gamma = parse_cvector(args.gamma, args.n) if args.gamma else np.zeros(args.n)
    if family == "thermal":
        return make_thermal(args.n, args.nu)
    if family == "three-peak":
        return make_three_peak(args.n, args.nu, args.eps0, gamma)
    if family == "five-peak":
        return make_five_peak(args.n, args.nu, args.eps0, gamma, _load_unitary(args, args.n))
    raise ValidationError(f"unknown family {family!r}")


def _resolved(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["constants_version"] = CONSTANTS_VERSION
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_state_eval(args) -> int:
    state = _load_state(args)
    with open(f"{args.out}.state.json", "w") as fh:
        fh.write(state.to_json() + "\n")
    summary = {"n": state.n, "nu": state.nu, "mean_photon": mean_photon(state),
               "state": state.to_json_dict(), "state_file": f"{args.out}.state.json",
               "config": _resolved(args)}
    gamma = three_peak_plus(state)
    if gamma is not None:
        rep = classicality_smax(state.nu, state.eps0, gamma)
        summary.update(s_max=rep.s_max, s_prime=rep.s_prime,
                       c_classicality=None if math.isinf(rep.c) else rep.c)
    if state.n == 1:
        half = 6.0 * math.sqrt(state.a)
        xs = np.linspace(-half, half, args.grid)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = (gx + 1j * gy).reshape(-1, 1)
        chi = np.asarray(char_fn(state, pts))
        wig = np.asarray(wigner(state, pts))
        q = np.asarray(s_qpd(state, -1.0, pts))
        with open(f"{args.out}.csv", "w") as fh:
            fh.write("beta_re,beta_im,chi_re,chi_im,wigner,husimi\n")
            for p, cv, wv, qv in zip(pts[:, 0], chi, wig, q):
                fh.write(f"{p.real!r},{p.imag!r},{cv.real!r},{cv.imag!r},{wv!r},{qv!r}\n")
        if "s_max" in summary:
            tail = np.abs(chi) - np.exp(-0.5 * summary["s_max"]
                                        * np.abs(pts[:, 0]) ** 2)
            summary["tail_bound_margin"] = float(np.max(tail))
        summary["grid_csv"] = f"{args.out}.csv"
    _dump_json(f"{args.out}.json", summary)
    return 0


def cmd_state_classicality(args) -> int:
    rep = classicality_smax(args.nu, args.eps0, parse_cvector(args.gamma))
    payload = {"s_max": rep.s_max, "s_prime": rep.s_prime,
               "c_classicality": None if math.isinf(rep.c) else rep.c,
               "config": _resolved(args)}
    _dump_json(args.out, payload) if args.out else print(_json_text(payload))
    return 0


def cmd_sample(args) -> int:
    state = _load_state(args)
    if args.scheme == "bell":
        partner = bell_partner(state, _load_unitary(args, state.n))
        rec = sample_bell(state, partner, args.count, seed=args.seed)
    else:
        rec = sample_heterodyne(state, args.count, seed=args.seed)
    rec.write_jsonl(args.out)
    return 0


def cmd_estimate(args) -> int:
    record = MeasurementRecord.read_jsonl(args.record)
    raw = _load_json(args.points)
    reports = [] if raw == [] else estimate_record(
        record, _complex_rows(raw, "--points"), args.scheme.replace("-", "_"),
        epsilon=args.epsilon, classicality=args.classicality)
    _dump_json(args.out, {"estimates": [rep.to_json_dict() for rep in reports],
                          "config": _resolved(args)})
    return 0


def cmd_bounds_curve(args) -> int:
    base = BoundInputs(epsilon=args.epsilon, kappa=args.kappa, n=args.n,
                       delta=args.delta, K=args.k_copies, S=args.classicality,
                       eta3=args.eta3, M=args.m_points)
    grid = np.linspace(args.grid_min, args.grid_max, args.points)
    if args.axis == "n":
        grid = np.unique(np.round(grid).astype(int)).astype(float)
    table = emit_curves(args.axis, grid.tolist(), args.families.split(","), base)
    table.write_csv(args.out)
    return 0


def cmd_game_run(args) -> int:
    raw = _load_json(args.config)
    try:
        u = _unitary(raw.pop("u", None), int(raw["n"]), "config key u")
        cfg = GameConfig(u=u, **raw)
    except KeyError as exc:
        raise ValidationError(f"game config lacks {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:   # unknown keys, bad values
        raise ValidationError(f"malformed game config: {exc}") from exc
    result = run_game(cfg, keep_log=args.log is not None)
    if args.log:
        with open(args.log, "w") as fh:
            for entry in result.per_trial:
                fh.write(_json_text(entry) + "\n")
    payload = result.to_json_dict()
    payload["config"] = cfg.to_json_dict()
    payload["constants_version"] = CONSTANTS_VERSION
    _dump_json(args.out, payload)
    return 0


def cmd_channel_check(args) -> int:
    state = _load_state(args)
    rep = lambda_from_state(state, args.r, sets=args.sets)
    payload = {"r": args.r, "status": rep.status, "s_max": rep.s_max,
               "r_threshold": rep.r_threshold,
               "min_eigenvalue": rep.min_eigenvalue,
               "c_channel": 1.0 - math.exp(-2.0 * args.r),
               "config": _resolved(args)}
    _dump_json(args.out, payload)
    return 0


def cmd_oracle_check(args) -> int:
    state = _load_state(args)
    rep = fock_oracle.oracle_check(state, cutoff=args.cutoff, rng=make_rng(args.seed))
    rep["config"] = _resolved(args)
    _dump_json(args.out, rep)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_state_source(p):
    p.add_argument("--state", help="peak-state JSON file")
    p.add_argument("--family", choices=["thermal", "three-peak", "five-peak"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--nu", type=finite_float)
    p.add_argument("--eps0", type=finite_float)
    p.add_argument("--gamma", help="comma-separated a+bi literals")
    u = p.add_mutually_exclusive_group()
    u.add_argument("--u-file",
                   help='symmetric unitary JSON file: rows of {re, im} objects or {"seed": k}')
    u.add_argument("--u-seed", type=int, help="generate the unitary from this seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cvlearn",
                                 description="Bosonic state-learning simulation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="evaluate peak-state descriptors")
    ssub = state.add_subparsers(dest="subcommand", required=True)
    ev = ssub.add_parser("eval", help="grid CSV + JSON summary")
    _add_state_source(ev)
    ev.add_argument("--grid", type=positive_int, default=128)
    ev.add_argument("--out", required=True, help="output prefix")
    ev.set_defaults(func=cmd_state_eval)
    cl = ssub.add_parser("classicality", help="s_max report for a three-peak state")
    cl.add_argument("--nu", type=finite_float, required=True)
    cl.add_argument("--eps0", type=finite_float, required=True)
    cl.add_argument("--gamma", required=True)
    cl.add_argument("--out")
    cl.set_defaults(func=cmd_state_classicality)

    sample = sub.add_parser("sample", help="draw measurement outcomes")
    _add_state_source(sample)
    sample.add_argument("--seed", type=int, required=True,
                        help="explicit RNG seed (mandatory for stochastic commands)")
    sample.add_argument("--scheme", choices=["bell", "heterodyne"], required=True)
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=cmd_sample)

    est = sub.add_parser("estimate", help="evaluate estimators on a record")
    est.add_argument("--record", required=True)
    est.add_argument("--points", required=True,
                     help="JSON: list of points, each a list of {re, im} components")
    est.add_argument("--scheme", required=True,
                     choices=["bell-chi2", "bell-chi", "heterodyne", "classicality-aware"])
    est.add_argument("--epsilon", type=finite_float)
    est.add_argument("--classicality", type=finite_float)
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    bnd = sub.add_parser("bounds", help="bound curves")
    bsub = bnd.add_subparsers(dest="subcommand", required=True)
    curve = bsub.add_parser("curve", help="emit a CSV curve table")
    curve.add_argument("--axis", choices=list(bounds_mod.CURVE_AXES), required=True)
    curve.add_argument("--families", required=True,
                       help=f"comma list from {sorted(BOUND_FAMILIES)}")
    curve.add_argument("--grid-min", type=finite_float, required=True)
    curve.add_argument("--grid-max", type=finite_float, required=True)
    curve.add_argument("--points", type=positive_int, default=50)
    curve.add_argument("--epsilon", type=finite_float, required=True)
    curve.add_argument("--delta", type=finite_float, default=1 / 3)
    curve.add_argument("--kappa", type=finite_float, default=2.0)
    curve.add_argument("--n", type=int, default=8)
    curve.add_argument("--k-copies", type=int, default=1)
    curve.add_argument("--classicality", type=finite_float)
    curve.add_argument("--eta3", type=finite_float, default=1e-6)
    curve.add_argument("--m-points", type=positive_int, default=1)
    curve.add_argument("--out", required=True)
    curve.set_defaults(func=cmd_bounds_curve)

    game = sub.add_parser("game", help="hypothesis-testing game")
    gsub = game.add_subparsers(dest="subcommand", required=True)
    grun = gsub.add_parser("run")
    grun.add_argument("--config", required=True, help="GameConfig JSON")
    grun.add_argument("--out", required=True)
    grun.add_argument("--log", help="optional per-trial JSONL audit log")
    grun.set_defaults(func=cmd_game_run)

    chan = sub.add_parser("channel", help="channel-bridge checks")
    csub = chan.add_subparsers(dest="subcommand", required=True)
    chk = csub.add_parser("check")
    _add_state_source(chk)
    chk.add_argument("--r", type=finite_float, required=True)
    chk.add_argument("--sets", type=positive_int, default=100)
    chk.add_argument("--out", required=True)
    chk.set_defaults(func=cmd_channel_check)

    orc = sub.add_parser("oracle", help="truncated-Fock oracle debugging")
    osub = orc.add_subparsers(dest="subcommand", required=True)
    ochk = osub.add_parser("check")
    _add_state_source(ochk)
    ochk.add_argument("--cutoff", type=int)
    ochk.add_argument("--seed", type=int, default=0)
    ochk.add_argument("--out", required=True)
    ochk.set_defaults(func=cmd_oracle_check)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: building one costs milliseconds per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
