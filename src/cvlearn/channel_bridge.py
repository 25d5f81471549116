"""Bridge between state learning and random-displacement channel learning.

A random-displacement channel is specified by a classical characteristic
function lambda(beta). Feeding two-mode squeezed pairs with squeezing r
through the channel gives a Choi state whose characteristic function
factorizes as g(alpha, beta, r) * lambda(beta); on the Bell slice
(alpha, beta) = (alpha*, alpha) only e^{-e^{-2r}|alpha|^2} lambda(alpha)
survives. Matching that slice to a state's chi^2 defines the candidate
channel lambda_{rho,r}, which is a valid classical characteristic function
whenever r >= r* = (1/2) log(1/s_max).

Two unrelated constants share the letter c in this problem domain; here
`c_channel` = 1 - e^{-2r} always, never the classicality ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .numerics import as_points, check_real, psd_check
from .states import PeakState, char_fn, classicality_smax, three_peak_plus

VALID = "valid (Bochner spot checks passed)"
UNKNOWN = "unknown (outside the r >= r* guarantee; no violation found)"
VIOLATED = "violated (Bochner witness found)"


@dataclass
class ChannelSpec:
    """Squeezing parameter plus an evaluable channel characteristic function."""

    r: float
    lam: Callable[[np.ndarray], np.ndarray]   # batch (m, n) -> complex (m,)
    n: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_real(self.r, "squeezing parameter must be >= 0", 0.0, ends="[)")
        at0 = complex(np.asarray(self.lam(np.zeros((1, self.n), dtype=complex)))[0])
        if abs(at0 - 1.0) > 1e-10:
            raise ValidationError(f"lambda(0) = {at0} != 1")
        rng = np.random.default_rng(0xB0C4)
        pts = rng.normal(size=(20, self.n)) + 1j * rng.normal(size=(20, self.n))
        sym_err = np.max(np.abs(np.asarray(self.lam(-pts))
                                - np.conj(np.asarray(self.lam(pts)))))
        if sym_err > 1e-10:
            raise ValidationError(
                f"lambda violates Hermitian symmetry: max error {sym_err:.3e}")


def r_star(s_max: float) -> float:
    """Threshold squeezing (1/2) log(1/s_max); undefined for s_max <= 0."""
    check_real(s_max, "no finite squeezing threshold exists for non-positive classicality", 0.0)
    check_real(s_max, "classicality cannot exceed 1", high=1.0, ends="(]")
    return 0.5 * math.log(1.0 / s_max)


# ---------------------------------------------------------------------------
# Choi-state envelope
# ---------------------------------------------------------------------------

def choi_envelope_form1(alpha, beta, r: float):
    """exp[-(e^{2r}/4)|a - b*|^2] exp[-(e^{-2r}/4)|a + b*|^2]."""
    a = np.atleast_2d(np.asarray(alpha, dtype=complex))
    b = np.atleast_2d(np.asarray(beta, dtype=complex))
    d_minus = np.sum(np.abs(a - np.conj(b)) ** 2, axis=1)
    d_plus = np.sum(np.abs(a + np.conj(b)) ** 2, axis=1)
    return np.exp(-0.25 * math.exp(2 * r) * d_minus - 0.25 * math.exp(-2 * r) * d_plus)


def choi_envelope_form2(alpha, beta, r: float):
    """cosh/sinh form: the sinh 2r cross term blocks product factorization."""
    a = np.atleast_2d(np.asarray(alpha, dtype=complex))
    b = np.atleast_2d(np.asarray(beta, dtype=complex))
    n2 = np.sum(np.abs(a) ** 2, axis=1) + np.sum(np.abs(b) ** 2, axis=1)
    cross = np.sum(a * b, axis=1)
    cross = cross + np.conj(cross)          # a.b + a*.b*, real
    return np.exp(-0.5 * math.cosh(2 * r) * n2 + 0.5 * math.sinh(2 * r) * np.real(cross))


def choi_char(spec: ChannelSpec, alpha, beta):
    """chi_Choi(alpha, beta) = g(alpha, beta, r) lambda(beta): a complex at one
    pair of points (n,), (m,) at two batches (m, n) of one shape."""
    a, single = as_points(alpha, spec.n, "alpha")
    b, single_b = as_points(beta, spec.n, "beta")
    if (a.shape, single) != (b.shape, single_b):
        raise ValidationError(f"alpha {np.shape(alpha)} and beta {np.shape(beta)} differ in shape")
    vals = choi_envelope_form1(a, b, spec.r) * np.asarray(spec.lam(b))
    return complex(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# lambda from a peak state
# ---------------------------------------------------------------------------

def _state_smax(state: PeakState) -> float | None:
    if len(state.weights) == 1:
        return 1.0
    g = three_peak_plus(state)
    return None if g is None else classicality_smax(state.nu, state.eps0, g).s_max


def _gram(lam, points) -> np.ndarray:
    """The Gram matrix [lambda(a_j - a_k)] on one point set."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    m = pts.shape[0]
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(m * m, -1)
    return np.asarray(lam(diffs)).reshape(m, m)


def bochner_check(lam, points, tol: float = 1e-8):
    """PSD check of the Gram matrix [lambda(a_j - a_k)] on one point set."""
    return psd_check(_gram(lam, points), tol=tol)


@dataclass
class LambdaReport:
    spec: ChannelSpec
    s_max: float | None
    r_threshold: float | None
    status: str
    min_eigenvalue: float


def lambda_from_state(state: PeakState, r: float, s_max: float | None = None,
                      sets: int = 100, points_per_set: int = 5,
                      seed: int = 0xCAFE) -> LambdaReport:
    """lambda_{rho,r}(alpha) = e^{e^{-2r}|alpha|^2} chi^2(alpha), with validity audit.

    For r >= r*(s_max) the theorem guarantees a genuine channel; the Bochner
    sweep is evidence for that, not proof. Below the threshold the status
    stays unknown unless a concrete PSD violation shows up.
    """
    check_real(r, "squeezing parameter must be >= 0", 0.0, ends="[)")
    if sets < 1 or points_per_set < 1:
        # with no Bochner check run, "passed" would be vacuous
        raise ValidationError(
            f"sets and points_per_set must be >= 1, got {sets} and {points_per_set}")
    if s_max is None:
        s_max = _state_smax(state)
    else:
        check_real(s_max, "classicality cannot exceed 1", high=1.0, ends="(]")
    damp = math.exp(-2.0 * r)

    def lam(batch):
        batch = np.atleast_2d(np.asarray(batch, dtype=complex))
        boost = np.exp(damp * np.sum(np.abs(batch) ** 2, axis=1))
        return boost * np.asarray(char_fn(state, batch)) ** 2

    spec = ChannelSpec(r=r, lam=lam, n=state.n,
                       meta={"source": "peak_state", "c_channel": 1.0 - damp})
    rng = np.random.default_rng(seed)
    worst = math.inf
    violated = False
    for _ in range(sets):
        pts = rng.normal(size=(points_per_set, state.n)) \
            + 1j * rng.normal(size=(points_per_set, state.n))
        ok, min_eig = bochner_check(lam, pts)
        worst = min(worst, min_eig)
        if not ok:
            violated = True
            break
    threshold = r_star(s_max) if (s_max is not None and s_max > 0) else None
    if violated:
        status = VIOLATED
    elif threshold is not None and r >= threshold:
        status = VALID
    else:
        status = UNKNOWN
    return LambdaReport(spec=spec, s_max=s_max, r_threshold=threshold,
                        status=status, min_eigenvalue=worst)


# ---------------------------------------------------------------------------
# The single-photon counterexample
# ---------------------------------------------------------------------------

def fock1_lambda(c_channel: float):
    """lambda(alpha) = e^{-c |alpha|^2} (1 - |alpha|^2)^2 for the |1> input."""
    check_real(c_channel, "c = 1 - e^{-2r} must lie in [0, 1)", 0.0, 1.0, "[)")

    def lam(batch):
        batch = np.atleast_2d(np.asarray(batch, dtype=complex))
        a2 = np.sum(np.abs(batch) ** 2, axis=1)
        return np.exp(-c_channel * a2) * (1.0 - a2) ** 2

    return lam


def fock1_channel_density(c_channel: float, beta):
    """Candidate displacement distribution for the single-photon state.

    p(beta) = (1/(pi c^5)) e^{-|beta|^2/c} (|beta|^4 - (4c - 2c^2)|beta|^2
              + (c^4 - 2c^3 + 2c^2)); negative on an annulus, so no physical
    random-displacement channel reproduces |1><1| learning.
    """
    check_real(c_channel, "density form needs 0 < c < 1; use the c = 0 Bochner witness", 0.0, 1.0)
    b = np.atleast_1d(np.asarray(beta, dtype=complex)).reshape(-1)
    u = np.abs(b) ** 2
    c = c_channel
    poly = u ** 2 - (4 * c - 2 * c * c) * u + (c ** 4 - 2 * c ** 3 + 2 * c * c)
    vals = np.exp(-u / c) * poly / (math.pi * c ** 5)
    return vals if vals.size > 1 else float(vals[0])


def fock1_negativity_annulus(c_channel: float):
    """(inner, outer) endpoints of the negative annulus in |beta|^2."""
    check_real(c_channel, "annulus defined for 0 < c < 1", 0.0, 1.0)
    c = c_channel
    half_width = math.sqrt(2.0 * (1.0 - c))
    return c * (2.0 - c - half_width), c * (2.0 - c + half_width)


def bochner_witness_c0():
    """The r = 0 witness: points {0, alpha} with |alpha|^2 = 4 give min eig -8."""
    gram = _gram(fock1_lambda(0.0), np.array([[0.0 + 0.0j], [2.0 + 0.0j]]))
    ok, min_eig = psd_check(gram, tol=1e-8)
    return {"matrix": gram, "psd": ok, "min_eigenvalue": min_eig}
