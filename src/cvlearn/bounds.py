"""Closed-form sample-complexity bounds, classicality thresholds, and curve
tables for figure reproduction.

Lower-bound constants are the explicit ones from the hypothesis-testing
reductions; upper bounds are the planner's Hoeffding counts, this artifact's
normative choice for the O(.) factors. CONSTANTS_VERSION is
embedded in every emitted table so figure data is self-describing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict

from .errors import HypothesisViolation, ValidationError
from .estimators import PlannerInputs, effective_radius, hoeffding_count_float, scheme_cost
from .numerics import check_finite, check_real

CONSTANTS_VERSION = "hoeffding-4B2-ln4M/delta-v1"

LB_EF_CONST = 0.98 ** 2 / 96.0
LB_EF_SYMMETRIC_CONST = 0.49 ** 2 / 96.0
LB_EA_NO_REFLECTED_CONST = 8.4e-5
LB_UNRESTRICTED_CONST = 0.98 ** 2 / 288.0
LB_EF_CLASSICAL_CONST = 0.98 ** 2 / 96.0

EPS_SUP_THREE_PEAK = 0.245
EPS_SUP_FIVE_PEAK = 0.1225


@dataclass(frozen=True)
class BoundInputs:
    epsilon: float
    kappa: float
    n: int
    delta: float = 1.0 / 3.0
    K: int = 1
    S: float | None = None
    eta3: float = 1e-6
    M: int = 1


def _require(cond: bool, hypothesis: str):
    if not cond:
        raise HypothesisViolation(hypothesis)


def _check_eta3(inp: BoundInputs, eps_sup: float, slack_coeff: float):
    _require(0.0 < inp.eta3 <= eps_sup / inp.epsilon - 1.0,
             f"eta3 must lie in (0, {eps_sup}/epsilon - 1]")
    # log(1 + eta3) <= n (-c + sqrt(c^2 + kappa^2)) keeps 0.99 kappa >= 2 sigma^2.
    c = slack_coeff / 0.99
    _require(math.log1p(inp.eta3)
             <= inp.n * (-c + math.sqrt(c * c + inp.kappa ** 2)) + 1e-15,
             "log(1+eta3) exceeds the admissible window for (n, kappa)")


def _growth(base_coeff: float, kappa: float, n_exponent: float) -> float:
    """(1 + base_coeff kappa)^n_exponent; inf when it overflows a float."""
    try:
        return math.exp(n_exponent * math.log1p(base_coeff * kappa))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def lb_ef(inp: BoundInputs) -> float:
    """Entanglement-free lower bound (three-peak reduction)."""
    _require(inp.n >= 8, "n >= 8")
    _require(0.0 < inp.epsilon < EPS_SUP_THREE_PEAK, "epsilon in (0, 0.245)")
    _require(inp.kappa > 0.0, "kappa > 0")
    _check_eta3(inp, EPS_SUP_THREE_PEAK, 2.0)
    return (LB_EF_CONST / (1.0 + inp.eta3) ** 2 / inp.epsilon ** 2
            * _growth(0.99, inp.kappa, inp.n))


def lb_ef_symmetric(inp: BoundInputs) -> float:
    """Entanglement-free lower bound for reflection-symmetric inputs (five-peak)."""
    _require(inp.n >= 8, "n >= 8")
    _require(0.0 < inp.epsilon < EPS_SUP_FIVE_PEAK, "epsilon in (0, 0.1225)")
    _require(inp.kappa > 0.0, "kappa > 0")
    _check_eta3(inp, EPS_SUP_FIVE_PEAK, 3.0)
    return (LB_EF_SYMMETRIC_CONST / (1.0 + inp.eta3) ** 2 / inp.epsilon ** 2
            * _growth(0.66, inp.kappa, inp.n))


def lb_ea_no_reflected(inp: BoundInputs) -> float:
    """K-copy entangled measurements without reflected states."""
    _require(inp.n >= 8, "n >= 8")
    _require(0.0 < inp.epsilon < EPS_SUP_THREE_PEAK, "epsilon in (0, 0.245)")
    _require(inp.kappa >= 1.0 / 0.99, "kappa >= 1/0.99")
    _require(inp.K >= 1, "K >= 1")
    _require(inp.K <= 0.22 / inp.epsilon, "K <= 0.22/epsilon")
    _check_eta3(inp, EPS_SUP_THREE_PEAK, 2.0)
    return (LB_EA_NO_REFLECTED_CONST / (inp.K * (1.0 + inp.eta3) ** 2 * inp.epsilon ** 2)
            * _growth(0.99, inp.kappa, inp.n / 2.0))


def lb_unrestricted(inp: BoundInputs) -> float:
    """Information-theoretic floor for fully unrestricted schemes."""
    _require(inp.n >= 8, "n >= 8")
    _require(0.0 < inp.epsilon < EPS_SUP_THREE_PEAK, "epsilon in (0, 0.245)")
    _require(inp.kappa > 0.0, "kappa > 0")
    _check_eta3(inp, EPS_SUP_THREE_PEAK, 2.0)
    return LB_UNRESTRICTED_CONST / (1.0 + inp.eta3) ** 2 / inp.epsilon ** 2


# ---------------------------------------------------------------------------
# Classicality thresholds (the admissible domain of the classical lower bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalityThresholds:
    f: float
    kappa_min: float
    kappa_max: float
    kappa_star: float
    s_cap: float
    L_eps: float
    domain_nonempty: bool


def classicality_f(S: float) -> float:
    """f(S) = S / (1 + sqrt(1 - S^2)), the inverse squared envelope width."""
    return S / (1.0 + math.sqrt(max(0.0, 1.0 - S * S)))


def classicality_thresholds(S: float, n: int, epsilon: float) -> ClassicalityThresholds:
    check_real(S, "classicality floor must lie in (0,1)", 0.0, 1.0)
    check_real(epsilon, "epsilon must lie in (0, 0.245)", 0.0, EPS_SUP_THREE_PEAK)
    f = classicality_f(S)
    kappa_min = (2.0 / 0.99) * S / math.sqrt(1.0 - S * S)
    kappa_max = math.log(EPS_SUP_THREE_PEAK / epsilon) / (n * f)
    kappa_star = 1.0 / (2.0 * f) - 1.0 / 0.99
    r = (0.99 / (2.0 * n)) * math.log(EPS_SUP_THREE_PEAK / epsilon)
    s_cap = math.sqrt(r * r + 2.0 * r) / (r + 1.0)
    return ClassicalityThresholds(
        f=f, kappa_min=kappa_min, kappa_max=kappa_max, kappa_star=kappa_star, s_cap=s_cap,
        L_eps=effective_radius(S, epsilon), domain_nonempty=kappa_min <= kappa_max)


def lb_ef_classical(inp: BoundInputs) -> float:
    """EF lower bound for inputs promised at least S-classical."""
    _require(inp.n >= 8, "n >= 8")
    _require(0.0 < inp.epsilon < EPS_SUP_THREE_PEAK, "epsilon in (0, 0.245)")
    _require(inp.S is not None and 0.0 < inp.S < 1.0, "S in (0, 1)")
    thr = classicality_thresholds(inp.S, inp.n, inp.epsilon)
    _require(inp.S <= thr.s_cap + 1e-12,
             f"S <= s_cap(n, epsilon) = {thr.s_cap:.6g}")
    _require(thr.kappa_min - 1e-12 <= inp.kappa <= thr.kappa_max + 1e-12,
             f"kappa in [kappa_min, kappa_max] = [{thr.kappa_min:.6g}, {thr.kappa_max:.6g}]")
    kp = min(inp.kappa, max(thr.kappa_star, thr.kappa_min))
    return (LB_EF_CLASSICAL_CONST / inp.epsilon ** 2
            * math.exp(-2.0 * kp * inp.n * thr.f)
            * _growth(0.99, kp, inp.n))


# ---------------------------------------------------------------------------
# Upper bounds (planner constants)
# ---------------------------------------------------------------------------

def _planned(scheme: str, inp: BoundInputs, **extra) -> float:
    """The planner's count for `scheme` at inp's (epsilon, delta, M); inf past a float."""
    planner = PlannerInputs(inp.epsilon, inp.delta, inp.M, **extra)
    raw = hoeffding_count_float(*scheme_cost(scheme, planner), inp.delta, inp.M)
    return float(math.ceil(raw)) if math.isfinite(raw) else math.inf


def ub_hd(inp: BoundInputs) -> float:
    """Plain heterodyne cost for queries in the ball |alpha|^2 <= kappa n."""
    _require(inp.kappa >= 0.0, "kappa >= 0")
    return _planned("heterodyne", inp, alpha2_max=inp.kappa * inp.n)


def ub_bm(inp: BoundInputs) -> float:
    """Bell-measurement cost for chi up to a sign (n-independent)."""
    return _planned("bell_chi", inp)


def ub_hd_classical(inp: BoundInputs) -> float:
    """Classicality-aware heterodyne cost; flat in kappa beyond L_eps(S)/n.

    At the branch seam kappa n = L_eps(S) both expressions coincide because
    e^{kappa n} = eps^{-2/S} there.
    """
    _require(inp.S is not None and 0.0 < inp.S <= 1.0, "S in (0, 1]")
    if inp.kappa * inp.n <= effective_radius(inp.S, inp.epsilon):
        return ub_hd(inp)
    return _planned("classicality_aware", inp, S=inp.S)


BOUND_FAMILIES = {
    "lb_ef": lb_ef,
    "lb_ef_symmetric": lb_ef_symmetric,
    "lb_ea_no_reflected": lb_ea_no_reflected,
    "lb_unrestricted": lb_unrestricted,
    "lb_ef_classical": lb_ef_classical,
    "ub_hd": ub_hd,
    "ub_bm": ub_bm,
    "ub_hd_classical": ub_hd_classical,
}

CURVE_AXES = ("kappa", "n", "S", "epsilon")


@dataclass
class CurveTable:
    axis: str
    x: list
    families: list
    values: dict            # family -> list of float | None (None marks a gap)
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path):
        """CSV plus a JSON sidecar (same path + '.json') with inputs/constants."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([self.axis] + self.families)
            for i, xv in enumerate(self.x):
                row = [repr(xv)]
                for fam in self.families:
                    v = self.values[fam][i]
                    row.append("" if v is None else repr(v))
                writer.writerow(row)
        with open(f"{path}.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2)


def emit_curves(axis: str, grid, families, base: BoundInputs) -> CurveTable:
    """Evaluate the requested bound families across a grid of one input.

    Per-point hypothesis violations and non-finite values become gap entries
    rather than crashes; gaps list the violated hypothesis in the metadata.
    """
    if axis not in CURVE_AXES:
        raise ValidationError(f"axis must be one of {CURVE_AXES}, got {axis!r}")
    grid = [float(x) for x in grid]
    check_finite(grid, "curve grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("curve grid must be strictly increasing")
    families = list(families)
    for fam in families:
        if fam not in BOUND_FAMILIES:
            raise ValidationError(f"unknown bound family {fam!r}")
    values = {fam: [] for fam in families}
    gaps = []
    for xv in grid:
        kwargs = asdict(base)
        kwargs[axis] = int(xv) if axis == "n" else xv
        inp = BoundInputs(**kwargs)
        for fam in families:
            try:
                v = BOUND_FAMILIES[fam](inp)
            except ValidationError as exc:
                values[fam].append(None)
                gaps.append({"family": fam, axis: xv,
                             "hypothesis": getattr(exc, "hypothesis", str(exc))})
                continue
            if not math.isfinite(v):
                values[fam].append(None)
                gaps.append({"family": fam, axis: xv, "hypothesis": "value overflows"})
            else:
                values[fam].append(v)
    meta = {"axis": axis, "families": families, "inputs": asdict(base),
            "constants_version": CONSTANTS_VERSION, "gaps": gaps}
    return CurveTable(axis=axis, x=grid, families=families, values=values, metadata=meta)
