"""The peak-state family and its closed-form descriptors.

A peak state is (1-nu^2)^n nu^N ( sum_k w_k D^dag(gamma_k) ) nu^N, stored as
the list of (weight, center) pairs. Its characteristic function is a finite
sum of real Gaussian kernels,

    chi(alpha) = sum_k w_k exp[ -(|alpha|^2+|gamma_k|^2)/(2 Sigma^2)
                                - |gamma_k-alpha|^2/(2 sigma^2) ],

with sigma^2 = (1/nu - nu)/2 and Sigma^2 = (1+nu)/(1-nu), both computed only
in `filter_variances`. Every s-ordered quasiprobability of such a state is
again a finite sum of Gaussians times phase-space oscillations, evaluated here
in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import log

import numpy as np

from .errors import ValidationError
from .numerics import (SymmetricUnitary, as_points, check_complex, check_finite, check_mode_count,
                       check_real)

MERGE_TOL = 1e-12
PEAK_DROP = 1e-15   # merged peaks with |weight| <= this are dropped
EXP_FLOOR = -745.0  # exp() underflows to 0 below this; clamp to avoid noise
EPS0_RANGE = ("eps0 must lie in (0, 1/4] for guaranteed positivity", 0.0, 0.25, "(]")


def _clamped_exp(x):
    return np.exp(np.maximum(x, EXP_FLOOR))


def filter_variances(nu: float) -> tuple[float, float]:
    """The thermal filter's (sigma^2, Sigma^2); the package's one copy of the formulas."""
    return 0.5 * (1.0 / nu - nu), (1.0 + nu) / (1.0 - nu)


def filter_a(nu: float) -> float:
    """a = 1/(2 sigma^2) + 1/(2 Sigma^2), the peaks' Gaussian decay rate; its one copy."""
    sig2, Sig2 = filter_variances(nu)
    return 0.5 / sig2 + 0.5 / Sig2


@dataclass(frozen=True)
class PeakState:
    """Immutable n-mode peak state; evaluators below are pure functions."""

    n: int
    nu: float
    weights: np.ndarray          # shape (k,), complex
    centers: np.ndarray          # shape (k, n), complex
    eps0: float | None = None    # constructor metadata, not used by evaluators

    def __post_init__(self):
        check_mode_count(self.n)
        check_real(self.nu, "nu must lie in (0, 1)", 0.0, 1.0)
        if self.eps0 is not None:
            check_real(self.eps0, *EPS0_RANGE)
        w = np.atleast_1d(np.asarray(self.weights, dtype=complex))
        c = np.asarray(self.centers, dtype=complex).reshape(len(w), self.n)
        check_finite(w, "weight vector")
        check_finite(c, "center vector")
        w, c = merge_coincident(w, c, drop=PEAK_DROP)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "centers", c)
        self._validate()

    def _validate(self):
        norms = np.linalg.norm(self.centers, axis=1)
        anchor = np.flatnonzero(norms <= MERGE_TOL)
        if anchor.size != 1 or abs(self.weights[anchor[0]] - 1.0) > 1e-9:
            raise ValidationError("peak state needs exactly one unit-weight peak at the origin")
        offsets = np.flatnonzero(norms > MERGE_TOL)
        side_mass = float(np.sum(np.abs(self.weights[offsets])))
        if side_mass > 1.0 + 1e-9:
            raise ValidationError(
                f"sum of off-origin |weights| = {side_mass:.6f} > 1 breaks the positivity guarantee")
        partner, dist = hermitian_partners(self.centers)
        mismatch = np.abs(self.weights[partner[offsets]] - np.conj(self.weights[offsets]))
        if np.any((dist[offsets] > 1e-9) | (mismatch > 1e-9)):
            raise ValidationError("peaks are not Hermitian-paired: missing (w*, -gamma) partner")

    # -- derived thermal-filter parameters ---------------------------------
    @property
    def sigma2(self) -> float:
        return filter_variances(self.nu)[0]

    @property
    def Sigma2(self) -> float:
        return filter_variances(self.nu)[1]

    @property
    def a(self) -> float:
        return filter_a(self.nu)

    def thermal_reference(self) -> "PeakState":
        """The gamma = 0 member of the family (same nu)."""
        return make_thermal(self.n, self.nu)

    def peak_multiset_equal(self, other: "PeakState", tol: float = 1e-9) -> bool:
        """Same (n, nu), and each peak within tol of a distinct nearest peak of `other`."""
        if self.n != other.n or abs(self.nu - other.nu) > tol:
            return False
        if len(self.weights) != len(other.weights):
            return False
        gap = np.maximum(np.abs(self.weights[:, None] - other.weights[None]),
                         np.linalg.norm(self.centers[:, None] - other.centers[None], axis=2))
        near = np.argmin(gap, axis=1)
        return bool(np.all(gap[np.arange(len(near)), near] <= tol)
                    and len(np.unique(near)) == len(near))

    # -- JSON schema: {n, nu, eps0?, peaks: [{w_re, w_im, center: [{re, im}...]}]}
    def to_json_dict(self) -> dict:
        peaks = []
        for w, g in zip(self.weights, self.centers):
            peaks.append({
                "w_re": float(w.real), "w_im": float(w.imag),
                "center": [{"re": float(z.real), "im": float(z.imag)} for z in g],
            })
        out = {"n": self.n, "nu": self.nu, "peaks": peaks}
        if self.eps0 is not None:
            out["eps0"] = self.eps0
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d: dict) -> "PeakState":
        try:
            n = d["n"]
            check_mode_count(n)
            nu = d["nu"]
            raw = d["peaks"]
            weights = np.array([check_complex(p["w_re"], p["w_im"], "weight vector") for p in raw])
            centers = np.array([[check_complex(z["re"], z["im"], "center vector")
                                 for z in p["center"]] for p in raw]).reshape(len(raw), n)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed peak-state JSON: {exc}") from exc
        return PeakState(n=n, nu=nu, weights=weights, centers=centers,
                         eps0=d.get("eps0"))

    @staticmethod
    def from_json(s: str) -> "PeakState":
        return PeakState.from_json_dict(json.loads(s))


def hermitian_partners(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row v_i, the index j of its nearest -v_i partner and |v_i + v_j|.

    `vectors` is one list (k, n) or a stack (..., k, n) of lists, each paired on its own.
    """
    dist = np.linalg.norm(vectors[..., :, None, :] + vectors[..., None, :, :], axis=-1)
    partner = np.argmin(dist, axis=-1)
    return partner, np.take_along_axis(dist, partner[..., None], axis=-1)[..., 0]


def family_runs(*keys) -> list[np.ndarray]:
    """Index arrays of the members that agree on every key; key j is (m, ...) per member."""
    flat = np.concatenate([np.reshape(k, (len(k), -1)) for k in keys], axis=1)
    if np.all(flat == flat[0]):
        return [np.arange(len(flat))]
    _, inverse = np.unique(flat, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return [np.flatnonzero(inverse == j) for j in range(inverse.max() + 1)]


def merge_family(weights: np.ndarray, vectors: np.ndarray, drop: float):
    """`merge_coincident` on every member of a family: weights (m, K), vectors (m, K, n).

    Yields (members, weights, vectors) for each run of members that merge
    alike, with the merged weights (len(members), K') and vectors
    (len(members), K', n). Each member's sums run in the order of a single merge.
    """
    # real and imaginary parts of v_i - v_j: each squared distance is one dot product
    diff = (vectors[:, :, None] - vectors[:, None]).view(float)
    near = np.einsum("...i,...i->...", diff, diff) <= MERGE_TOL ** 2
    first = np.argmax(near, axis=-1)
    summed = np.zeros(weights.shape, dtype=complex)
    np.add.at(summed, (np.arange(len(weights))[:, None], first), weights)
    keep = (first == np.arange(weights.shape[1])) & (np.abs(summed) > drop)
    for members in family_runs(first, keep):
        cols = np.flatnonzero(keep[members[0]])
        yield members, summed[members][:, cols], vectors[members][:, cols]


def merge_coincident(weights: np.ndarray, vectors: np.ndarray, drop: float):
    """Sum the weights of vectors within MERGE_TOL of each other; drop |sum| <= drop.

    Groups keep the order of their first member, whose vector they keep.
    """
    if len(weights) == 0:
        return weights, vectors
    ((_, summed, kept),) = merge_family(weights[None], vectors[None], drop)
    return summed[0], kept[0]


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_thermal(n: int, nu: float) -> PeakState:
    check_mode_count(n)
    return PeakState(n=n, nu=nu, weights=np.array([1.0 + 0j]),
                     centers=np.zeros((1, n), dtype=complex))


def peak_layout(n: int, eps0: float, gammas, u: SymmetricUnitary | None = None):
    """Weights (k,) and centers (m, k, n) of the peak states at each row of gammas (m, n).

    Without `u` the three peaks {(1, 0), (2i eps0, gamma), (-2i eps0, -gamma)};
    with it the five peaks {(1,0), (+-i eps0, +-gamma), (+-i eps0, +-U^T gamma*)}.
    The weights are fixed and the centers linear in gamma, so every member has
    one structure; coincident peaks are merged by PeakState, not here.
    """
    check_real(eps0, *EPS0_RANGE)
    g = np.asarray(gammas, dtype=complex)
    if g.ndim != 2 or g.shape[1] != n:
        raise ValidationError(f"expected (m, {n}) complex centers, got shape {g.shape}")
    check_finite(g, "center vector")
    zero = np.zeros_like(g)
    if u is None:
        return (np.array([1.0, 2j * eps0, -2j * eps0], dtype=complex),
                np.stack([zero, g, -g], axis=1))
    if u.n != n:
        raise ValidationError(f"unitary is {u.n}x{u.n} but the state has {n} modes")
    # one vector-matrix product per row: the arithmetic of a single U^T gamma*
    gr = (np.conj(g)[:, None, :] @ u.matrix)[:, 0]
    return (np.array([1.0, 1j * eps0, -1j * eps0, 1j * eps0, -1j * eps0], dtype=complex),
            np.stack([zero, g, -g, gr, -gr], axis=1))


def make_three_peak(n: int, nu: float, eps0: float, gamma) -> PeakState:
    """Peaks {(1, 0), (2i eps0, gamma), (-2i eps0, -gamma)}."""
    weights, centers = peak_layout(n, eps0, np.atleast_1d(gamma)[None])
    return PeakState(n=n, nu=nu, weights=weights, centers=centers[0], eps0=eps0)


def make_five_peak(n: int, nu: float, eps0: float, gamma,
                   u: SymmetricUnitary) -> PeakState:
    """Peaks {(1,0), (+-i eps0, +-gamma), (+-i eps0, +-U^T gamma*)}; reflection symmetric."""
    weights, centers = peak_layout(n, eps0, np.atleast_1d(gamma)[None], u)
    return PeakState(n=n, nu=nu, weights=weights, centers=centers[0], eps0=eps0)


def three_peak_plus(state: PeakState) -> np.ndarray | None:
    """Center gamma of a three-peak state's (2i eps0, gamma) peak; None for other layouts."""
    if state.eps0 is None or len(state.weights) != 3:
        return None
    hit = np.flatnonzero((state.weights.imag > 0)
                         & (np.linalg.norm(state.centers, axis=1) > MERGE_TOL))
    return state.centers[hit[0]] if hit.size else None


def make_three_peak_classical(n: int, classicality: float, eps0: float, gamma) -> PeakState:
    """Three-peak state guaranteed at least `classicality`-classical.

    Uses nu = sqrt((1-S)/(1+S)), the largest nu whose s'(nu) equals S, so
    s_max >= S for every gamma.
    """
    check_real(classicality, "classicality target must lie in (0,1)", 0.0, 1.0)
    nu = float(np.sqrt((1.0 - classicality) / (1.0 + classicality)))
    return make_three_peak(n, nu, eps0, gamma)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def reflect(state: PeakState, u: SymmetricUnitary) -> PeakState:
    """State with chi_out(alpha) = chi_in(U alpha*): peaks map to (w, U^T gamma*)."""
    if u.n != state.n:
        raise ValidationError("reflection unitary dimension mismatch")
    centers = np.conj(state.centers) @ u.matrix  # rows: U^T gamma* = (gamma^dag U)^T
    return PeakState(n=state.n, nu=state.nu, weights=state.weights.copy(),
                     centers=centers, eps0=state.eps0)


def apply_circuit(state: PeakState, u: SymmetricUnitary) -> PeakState:
    """Passive linear-optical circuit: chi_out(alpha) = chi_in(U^T alpha).

    Peaks map to (w, U* gamma).
    """
    if u.n != state.n:
        raise ValidationError("circuit unitary dimension mismatch")
    centers = state.centers @ np.conj(u.matrix).T  # rows: U* gamma
    return PeakState(n=state.n, nu=state.nu, weights=state.weights.copy(),
                     centers=centers, eps0=state.eps0)


def bell_partner(state: PeakState, u: SymmetricUnitary) -> PeakState:
    """The second Bell-measurement input: the reflected state sent through the circuit.

    Reflection maps gamma to U^T gamma* and the circuit maps that to
    U* U^T gamma* = gamma*, so for every U the partner has the centers gamma*
    and the same weights: it is `reflect(state, I)`. It is not the complex
    conjugate state rho*, which is `reflect(state, -I)`.
    """
    if u.n != state.n:
        raise ValidationError("reflection unitary dimension mismatch")
    return PeakState(n=state.n, nu=state.nu, weights=state.weights.copy(),
                     centers=np.conj(state.centers), eps0=state.eps0)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

def char_fn(state: PeakState, alpha):
    """chi(alpha) = Tr[rho D(alpha)]: a scalar at one point (n,), (m,) at a batch (m, n)."""
    pts, single = as_points(alpha, state.n)
    abs2_a = np.sum(np.abs(pts) ** 2, axis=1)
    abs2_g = np.sum(np.abs(state.centers) ** 2, axis=1)
    cross = np.real(np.conj(pts) @ state.centers.T)            # Re(alpha^dag gamma)
    dist2 = abs2_g[None, :] + abs2_a[:, None] - 2.0 * cross    # |gamma - alpha|^2
    expo = (-(abs2_a[:, None] + abs2_g[None, :]) / (2.0 * state.Sigma2)
            - dist2 / (2.0 * state.sigma2))
    vals = _clamped_exp(expo) @ state.weights
    return vals[0] if single else vals


def s_char_fn(state: PeakState, s: float, alpha):
    """e^{s |alpha|^2 / 2} chi(alpha)."""
    check_real(s, "ordering parameter s must lie in [-1, 1]", -1.0, 1.0, "[]")
    pts, single = as_points(alpha, state.n)
    abs2 = np.sum(np.abs(pts) ** 2, axis=1)
    vals = _clamped_exp(0.5 * s * abs2) * char_fn(state, pts)
    return vals[0] if single else vals


def s_ordered_peaks(nu: float, s: float, weights, centers):
    """(t, amps, freqs) of the s-ordered quasiprobability's per-peak terms.

    Peak (w, gamma) contributes amp (pi t)^-n e^{-|beta|^2/t} e^{i Im(f . beta)}
    with t = a - s/2, amp = w e^{(1/(4 t sigma^4) - a)|gamma|^2} and
    f = gamma* / (t sigma^2), `.` the unconjugated dot product. Takes one
    peak list (weights (k,), centers (k, n)) or a stack (..., k) / (..., k, n).
    """
    sig2, a = filter_variances(nu)[0], filter_a(nu)
    t = a - 0.5 * s
    abs2_g = np.sum(np.abs(centers) ** 2, axis=-1)
    amps = weights * _clamped_exp((1.0 / (4.0 * t * sig2 ** 2) - a) * abs2_g)
    return t, amps, np.conj(centers) / (t * sig2)


def s_qpd(state: PeakState, s: float, beta):
    """s-ordered quasiprobability W(s, beta), exact for every peak state.

    Each peak contributes a Gaussian tilted by a phase-space oscillation, with
    the terms of `s_ordered_peaks`. For thermal / three-peak layouts this
    reduces to the W^(0) (1 + 4 eps0 ...) closed form with coefficients
    f1(s), f2(s) below.
    """
    check_real(s, "ordering parameter s must lie in [-1, 1]", -1.0, 1.0, "[]")
    pts, single = as_points(beta, state.n)
    t, amps, freqs = s_ordered_peaks(state.nu, s, state.weights, state.centers)
    abs2_b = np.sum(np.abs(pts) ** 2, axis=1)
    base = _clamped_exp(-abs2_b / t) / (np.pi * t) ** state.n
    vals = base * np.real(np.exp(1j * np.imag(pts @ freqs.T)) @ amps)
    return vals[0] if single else vals


def wigner(state: PeakState, beta):
    """Wigner function, the s = 0 quasiprobability."""
    return s_qpd(state, 0.0, beta)


def f1(s: float, nu: float) -> float:
    """Oscillation-amplitude exponent of the s-ordered QPD sine correction."""
    return 0.5 - (1.0 - s) / ((1.0 - s) + nu ** 2 * (1.0 + s))


def f2(s: float, nu: float) -> float:
    """Oscillation-frequency coefficient of the s-ordered QPD sine correction."""
    return 4.0 * nu / ((1.0 - s) + nu ** 2 * (1.0 + s))


def mean_photon(state: PeakState) -> float:
    """<N> = n (a - 1/2); shared by all members of a fixed-nu family."""
    return state.n * (state.a - 0.5)


def fock1_char(alpha):
    """Single-photon characteristic function (1 - |alpha|^2) e^{-|alpha|^2/2}."""
    a = np.asarray(alpha, dtype=complex)
    if a.ndim > 1 and a.shape[-1] != 1:
        raise ValidationError("fock1_char is single-mode only")
    abs2 = np.abs(a) ** 2 if a.ndim <= 1 else np.abs(a[..., 0]) ** 2
    return (1.0 - abs2) * np.exp(-abs2 / 2.0)


# ---------------------------------------------------------------------------
# Classicality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalityReport:
    s_max: float
    s_prime: float
    c: float  # log(1/(4 eps0)) / |gamma|^2; inf for the thermal member


def s_prime(nu: float) -> float:
    """Classicality floor (1 - nu^2)/(1 + nu^2) = 1/(2a), gamma-independent."""
    return (1.0 - nu ** 2) / (1.0 + nu ** 2)


def classicality_smax(nu: float, eps0: float, gamma) -> ClassicalityReport:
    """Largest s with a nonnegative s-ordered QPD for the three-peak state."""
    check_real(nu, "nu must lie in (0, 1)", 0.0, 1.0)
    check_real(eps0, *EPS0_RANGE)
    g = np.atleast_1d(np.asarray(gamma, dtype=complex))
    check_finite(g, "center vector")
    g2 = float(np.sum(np.abs(g) ** 2))
    sp = s_prime(nu)
    if g2 == 0.0:
        return ClassicalityReport(s_max=1.0, s_prime=sp, c=float("inf"))
    c = log(1.0 / (4.0 * eps0)) / g2
    s_max = min(1.0, ((1.0 - nu ** 2) + 2.0 * c * (1.0 + nu ** 2))
                / ((1.0 + nu ** 2) + 2.0 * c * (1.0 - nu ** 2)))
    if s_max < sp - 1e-12:
        raise ValidationError("internal inconsistency: s_max fell below s'(nu)")
    return ClassicalityReport(s_max=s_max, s_prime=sp, c=c)


# ---------------------------------------------------------------------------
# Grid-based symplectic Fourier transform (independent slow path, n = 1)
# ---------------------------------------------------------------------------

def s_qpd_grid_1mode(chi, s: float, betas, half_width: float, points: int = 512):
    """W(s, beta) for one mode by direct quadrature of the defining integral.

    `chi` maps a batch (m, 1) of alpha to chi(alpha). Used as the independent
    oracle for the closed-form evaluators; O(points^2) per call.
    """
    xs = np.linspace(-half_width, half_width, points)
    dx = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    alphas = (gx + 1j * gy).reshape(-1, 1)
    chi_s = np.asarray(chi(alphas)).reshape(-1) * np.exp(0.5 * s * (np.abs(alphas[:, 0]) ** 2))
    pts = np.atleast_1d(np.asarray(betas, dtype=complex)).reshape(-1)
    out = np.empty(pts.shape, dtype=float)
    for i, b in enumerate(pts):
        phase = np.exp(2j * (gx.reshape(-1) * b.imag - gy.reshape(-1) * b.real))
        out[i] = np.real(np.sum(chi_s * phase)) * dx * dx / np.pi ** 2
    return out if out.size > 1 else float(out[0])
