"""Shared numerical primitives: the package's input checks, regularized
incomplete gamma, Takagi factorization of symmetric unitaries, complex
Gaussian sampling, PSD checks.

The incomplete gamma and the Takagi factor wrap SciPy (``special.gammaincc``
and ``linalg.sqrtm``); this module adds their input and reconstruction checks.
Each imports its SciPy module on first call, so importing cvlearn (and the
CLI's sampling and estimation) loads no SciPy.

All routines are pure; random sampling takes an explicit ``numpy.random.Generator``
so Monte Carlo work can be distributed over independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from numbers import Real

import numpy as np

from .errors import ValidationError, NumericFailure

DEFAULT_MATRIX_TOL = 1e-10


def _is_int(value, low: int = 0) -> bool:
    """Whether value is an integer >= low (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def check_int(value, name: str, low: int = 0):
    """Raises ``ValidationError`` naming `name` unless value is an integer >= low;
    a float (even 2.0), a string or a bool is not one, so JSON is read as written."""
    if not _is_int(value, low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(value, what: str, low: float = -inf, high: float = inf, ends: str = "()"):
    """Raises ``ValidationError(f"{what}, got {value!r}")`` unless value is a finite
    real number inside the interval from low to high: a bool or a string is not
    one, and NaN or +-inf lies in no interval. `ends` holds the interval's
    brackets, "(" or "[" at the low end and ")" or "]" at the high end."""
    try:
        finite = isinstance(value, Real) and not isinstance(value, bool) and isfinite(value)
    except OverflowError:   # an int beyond every float
        finite = False
    if not (finite and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)):
        raise ValidationError(f"{what}, got {value!r}")


def check_finite(array, what: str):
    """Raises ``ValidationError`` naming `what` unless every entry of array is finite."""
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} has non-finite entries")


def as_points(points, n: int, what: str = "phase-space points") -> tuple[np.ndarray, bool]:
    """(pts, single): points as a complex batch (m, n), and whether they were one point.

    A shape (n,) array is one point, and so is a scalar when n == 1; a shape
    (m, n) array is a batch. Any other shape, or a non-finite entry, raises
    ``ValidationError`` naming `what`.
    """
    pts = np.asarray(points, dtype=complex)
    single = pts.shape == (n,) or (n == 1 and pts.ndim == 0)
    if not (single or (pts.ndim == 2 and pts.shape[1] == n)):
        raise ValidationError(f"{what} must be rows of {n} components, "
                              f"shape ({n},) or (m, {n}), got shape {pts.shape}")
    check_finite(pts, what)
    return pts.reshape(-1, n), single


def check_complex(re, im, what: str) -> complex:
    """re + 1j * im once `check_real` passes both parts, so JSON true is not 1."""
    for part in (re, im):
        check_real(part, f"{what} has non-finite entries or parts that are not numbers")
    return re + 1j * im


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, stream); streams are independent.

    Raises ``ValidationError`` unless seed and stream are integers >= 0.
    """
    if not (_is_int(seed) and _is_int(stream)):
        raise ValidationError(
            f"seed and stream must be integers >= 0, got seed={seed!r}, stream={stream!r}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


# ---------------------------------------------------------------------------
# Regularized incomplete gamma
# ---------------------------------------------------------------------------

def regularized_upper_gamma(shape: float, x: float) -> float:
    """Q(shape, x) = Gamma(shape, x) / Gamma(shape), via ``scipy.special.gammaincc``.

    Checks that both inputs are finite, shape > 0 and x >= 0, and raises
    ``ValidationError`` otherwise. Q(shape, 0) = 1 and Q stays in [0, 1].
    """
    check_real(shape, "shape must be > 0", 0.0)
    check_real(x, "x must be >= 0", 0.0, ends="[)")
    from scipy import special  # imported here: it adds about 0.25 s to `import cvlearn`

    return float(special.gammaincc(shape, x))


# ---------------------------------------------------------------------------
# Symmetric unitaries and Takagi factorization
# ---------------------------------------------------------------------------

def check_mode_count(n: int):
    """Raises ``ValidationError`` unless the mode count n is an integer >= 1."""
    check_int(n, "mode count n", 1)


def _as_square_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a non-empty square matrix, got shape {m.shape}")
    check_finite(m, "matrix")
    return m


@dataclass(frozen=True)
class SymmetricUnitary:
    """A matrix U with U = U^T and U U* = I (reflection axes in phase space)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        sym_err = np.max(np.abs(m - m.T))
        uni_err = np.max(np.abs(m @ np.conj(m) - np.eye(m.shape[0])))
        if sym_err > DEFAULT_MATRIX_TOL:
            raise ValidationError(f"matrix is not symmetric: max|U - U^T| = {sym_err:.3e}")
        if uni_err > DEFAULT_MATRIX_TOL:
            raise ValidationError(f"matrix is not unitary-symmetric: max|U U* - I| = {uni_err:.3e}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TakagiFactor:
    """A unitary V with V V^T equal to the factored symmetric unitary."""

    v: np.ndarray

    def __post_init__(self):
        v = _as_square_matrix(self.v)
        object.__setattr__(self, "v", v)
        err = np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0])))
        if err > DEFAULT_MATRIX_TOL:
            raise ValidationError(f"Takagi factor is not unitary: max|V^dag V - I| = {err:.3e}")


def takagi_decompose(u: SymmetricUnitary) -> TakagiFactor:
    """Factor U = V V^T for a symmetric unitary U, via ``scipy.linalg.sqrtm``.

    The principal square root of a symmetric matrix is symmetric, so
    V = sqrt(U) gives V V^T = V^2 = U. The root's branch cut is first turned
    into the widest gap between U's eigenvalue angles: with phi the middle of
    that gap and c = e^{i(pi - phi)}, V = conj(sqrt(c)) sqrtm(c U). Any
    V' = V O with O real orthogonal is equally valid; callers must not rely on
    a particular branch. Raises ``NumericFailure`` if max|V V^T - U| > 1e-9;
    ``TakagiFactor`` checks that V is unitary.
    """
    from scipy import linalg  # imported here: it adds about 50 ms to `import cvlearn`

    m = u.matrix
    theta = np.sort(np.angle(np.linalg.eigvals(m)))
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    c = np.exp(1j * (np.pi - theta[k] - 0.5 * gaps[k]))
    v = np.conj(np.sqrt(c)) * linalg.sqrtm(c * m)
    err = np.max(np.abs(v @ v.T - m))
    if err > 1e-9:
        raise NumericFailure(f"Takagi reconstruction error {err:.3e} exceeds tolerance")
    return TakagiFactor(v=v)


def random_symmetric_unitary(n: int, rng: np.random.Generator) -> SymmetricUnitary:
    """Haar-ish symmetric unitary built as V0 V0^T from a random unitary V0."""
    check_mode_count(n)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return SymmetricUnitary(matrix=q @ q.T)


# ---------------------------------------------------------------------------
# Complex Gaussian sampling
# ---------------------------------------------------------------------------

def sample_complex_gaussian(n: int, variance: float, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Draws from q(gamma) = (2 pi V)^{-n} exp(-|gamma|^2 / (2V)).

    Each of the 2n real coordinates is N(0, variance). Returns an array of
    shape (count, n), complex.
    """
    check_real(variance, "variance must be >= 0", 0.0, ends="[)")
    check_int(count, "count", 1)
    if variance == 0.0:
        return np.zeros((count, n), dtype=complex)
    scale = np.sqrt(variance)
    re = rng.standard_normal((count, n))
    im = rng.standard_normal((count, n))
    return scale * (re + 1j * im)


# ---------------------------------------------------------------------------
# PSD check
# ---------------------------------------------------------------------------

def psd_check(m, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether the Hermitian matrix m is PSD up to -tol; also returns min eig."""
    m = _as_square_matrix(m)
    herm_err = np.max(np.abs(m - m.conj().T))
    if herm_err > max(tol, DEFAULT_MATRIX_TOL):
        raise ValidationError(f"matrix is not Hermitian: max|M - M^dag| = {herm_err:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    min_eig = float(eigs[0])
    return min_eig >= -tol, min_eig
