"""Estimators for the characteristic function and the sample-size planner.

The planner fixes the artifact's normative constants: two-sided Hoeffding on
the real and imaginary parts with per-part failure budget delta/(4M) gives

    N = ceil( 4 B^2 ln(4M/delta) / eps_target^2 )

for the summand-modulus bound B and target that `scheme_cost` gives each
scheme. The upper bounds and every planned N in the acceptance criteria use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import NumericFailure, ValidationError
from .measurements import MeasurementRecord, phase_matrix, run_beside
from .numerics import check_finite, check_int, check_real

SCHEMES = ("bell_chi2", "bell_chi", "heterodyne", "classicality_aware")


@dataclass(frozen=True)
class PlannerInputs:
    epsilon: float
    delta: float
    M: int = 1
    alpha2_max: float | None = None   # largest queried |alpha|^2 (= kappa * n)
    S: float | None = None            # classicality floor

    def __post_init__(self):
        check_real(self.epsilon, "epsilon must lie in (0,1)", 0.0, 1.0)
        check_real(self.delta, "delta must lie in (0,1)", 0.0, 1.0)
        check_int(self.M, "M", 1)


@dataclass(frozen=True)
class EstimateReport:
    point: list           # [[re, im], ...] of the query alpha
    estimate: complex
    scheme: str
    samples_used: int
    epsilon: float | None
    delta: float | None
    truncated: bool = False

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["estimate"] = [self.estimate.real, self.estimate.imag]
        return d


def hoeffding_count(bound: float, eps_target: float, delta: float, m: int) -> int:
    """ceil(4 B^2 ln(4M/delta) / t^2); per-part budget delta/(4M)."""
    raw = hoeffding_count_float(bound, eps_target, delta, m)
    if not math.isfinite(raw):
        raise ValidationError("planned sample count overflows a float; reduce the radius")
    return int(math.ceil(raw))


def hoeffding_count_float(bound: float, eps_target: float, delta: float, m: int) -> float:
    return 4.0 * bound * bound * math.log(4.0 * m / delta) / (eps_target * eps_target)


def effective_radius(classicality: float, epsilon: float) -> float:
    """L_eps(S) = (2/S) log(1/eps): beyond it the zero estimate is eps-accurate."""
    check_real(classicality, "effective radius needs a positive classicality floor", 0.0)
    check_real(epsilon, "epsilon must lie in (0,1)", 0.0, 1.0)
    return (2.0 / classicality) * math.log(1.0 / epsilon)


def scheme_cost(scheme: str, inputs: PlannerInputs) -> tuple[float, float]:
    """(B, eps_target): summand-modulus bound (inf beyond a float) and Hoeffding target.

    bell_chi2        : |v - chi^2| <= eps,           B = 1
    bell_chi         : min_tau |tau u - chi| <= eps via the sign-resolution
                       guarantee, so chi^2 is targeted at eps^2/3, B = 1
    heterodyne       : |u - chi| <= eps,             B = e^{alpha2_max/2}
    classicality_aware: truncation at L_eps(S),      B = e^{L/2} = eps^{-1/S}
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    eps = inputs.epsilon
    if scheme == "bell_chi2":
        return 1.0, eps
    if scheme == "bell_chi":
        return 1.0, eps * eps / 3.0
    if scheme == "heterodyne":
        check_real(inputs.alpha2_max, "heterodyne planning needs alpha2_max >= 0", 0.0, ends="[)")
    else:
        check_real(inputs.S, "classicality-aware planning needs S in (0, 1]", 0.0, 1.0, "(]")
    try:
        return (math.exp(inputs.alpha2_max / 2.0) if scheme == "heterodyne"
                else eps ** (-1.0 / inputs.S)), eps
    except OverflowError:
        return math.inf, eps


def plan_samples(scheme: str, inputs: PlannerInputs) -> int:
    """Copies needed for all M queries to meet eps at confidence 1 - delta."""
    return hoeffding_count(*scheme_cost(scheme, inputs), inputs.delta, inputs.M)


# ---------------------------------------------------------------------------
# Phase-factor means (shared vectorized core)
# ---------------------------------------------------------------------------

MATMUL_MACS = 200_000   # multiply-adds per matmul call when the rows are split


def _phase_factor_sums(outcomes: np.ndarray, freqs: np.ndarray, dtype,
                       chunk: int) -> np.ndarray:
    """sum_j e^{i Im(z_j . f)} for each row f of `freqs`, via `phase_matrix`.

    Each block of `chunk` samples is laid out along the fast axis: parts
    (2n, rows) = [Re z | Im z]^T, and phases (M, rows) = Phi^T @ parts from
    one real matmul. In-place trig on reused buffers keeps the hot path
    allocation-free, and each query point's sum runs along a contiguous row,
    accumulated in float64. Leading axes broadcast through `np.matmul`:
    outcomes (T, N, n) with freqs (T, M, n) give sums (T, M), trial t's
    queries reading only trial t's outcomes.

    A call of more than one block with M >= 4 splits each block's query rows:
    this thread sums the first M // 2 of every trial, the worker thread of
    `measurements.run_beside` the rest. Each row is summed as in a one-thread
    call, into its own entries, so the sums do not depend on the split or on
    thread timing. Split, the matmul is cut into calls of at least two rows
    and two columns and at most about MATMUL_MACS multiply-adds, which OpenBLAS
    runs on the calling thread; a larger call would wake its thread pool to
    compete with the two halves. For these shapes the pieces give the whole
    matmul's bits. One-block calls (the CLI's and the game's) never hand off.
    """
    *lead, n_samp, n_modes = outcomes.shape
    mat_t = phase_matrix(freqs).swapaxes(-1, -2).astype(dtype)
    m = mat_t.shape[-2]
    acc = np.zeros((*lead, m), dtype=complex)
    split = m // 2 if n_samp > chunk and m >= 4 else 0
    parts = phases = cos_buf = None
    for lo in range(0, n_samp, chunk):
        zz = outcomes[..., lo:lo + chunk, :]
        b = zz.shape[-2]
        if parts is None or parts.shape[-1] != b:
            parts = np.empty((*lead, 2 * n_modes, b), dtype=dtype)
            phases = np.empty((*lead, m, b), dtype=dtype)
            cos_buf = np.empty((*lead, m, b), dtype=dtype)
        parts[..., :n_modes, :] = zz.real.swapaxes(-1, -2)
        parts[..., n_modes:, :] = zz.imag.swapaxes(-1, -2)
        if not split or b < 2:
            _add_row_sums(acc, mat_t, parts, phases, cos_buf, [slice(None)])
            continue
        halves = [(acc[..., rows], mat_t[..., rows, :], parts, phases[..., rows, :],
                   cos_buf[..., rows, :], _column_slices(b, m - split, 2 * n_modes))
                  for rows in (slice(split), slice(split, None))]
        job = run_beside(_add_row_sums, *halves[1])
        _add_row_sums(*halves[0])
        job.result()
    return acc


def _column_slices(b: int, rows: int, depth: int) -> list:
    """Slices of b >= 2 columns, each at least 2 wide and at most about MATMUL_MACS / (rows depth)."""
    step = max(2, MATMUL_MACS // (rows * depth))
    cuts = list(range(step, b - 1, step))   # no one-column slice at the end
    return [slice(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, b])]


def _add_row_sums(acc, mat_t, parts, phases, cos_buf, columns):
    """acc += the sums of cos and i sin over one block's phases Phi^T @ parts, by rows."""
    for cols in columns:
        np.matmul(mat_t, parts[..., cols], out=phases[..., cols])
    np.cos(phases, out=cos_buf)
    acc += cos_buf.sum(axis=-1, dtype=np.float64)
    np.sin(phases, out=phases)
    acc += 1j * phases.sum(axis=-1, dtype=np.float64)


def _block_rows(chunk: int | None, alphas: np.ndarray) -> int:
    """Rows per block: `chunk`, or by default 2^20 phase entries for all query rows."""
    return max(1, (1 << 20) // alphas[..., 0].size) if chunk is None else chunk


def chi_squared_means(outcomes: np.ndarray, alphas: np.ndarray,
                      dtype=np.float64, chunk: int | None = None) -> np.ndarray:
    """(1/N) sum_j e^{-(zeta_j . a - zeta_j* . a*)} for each row a of `alphas`.

    The summand is e^{-2i Im(zeta . a)} (unconjugated dot), modulus one: the
    conjugate of the phase factor at frequency 2a. Outcomes (N, n) with alphas
    (M, n) give M means; a leading trial axis, outcomes (T, N, n) with alphas
    (T, M, n), gives (T, M), each trial's means over its own outcomes.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=complex))
    sums = _phase_factor_sums(outcomes, 2.0 * alphas, dtype, _block_rows(chunk, alphas))
    return np.conj(sums) / outcomes.shape[-2]


def chi_heterodyne_means(outcomes: np.ndarray, alphas: np.ndarray,
                         dtype=np.float64, chunk: int | None = None) -> np.ndarray:
    """e^{|a|^2/2} (1/N) sum_j e^{zeta_j^dag a - a^dag zeta_j} per query row.

    2 Im(zeta^dag a) = Im(zeta . (-2 a*)), the phase at frequency -2 a*.
    Takes a leading trial axis as `chi_squared_means` does.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=complex))
    sums = _phase_factor_sums(outcomes, -2.0 * np.conj(alphas), dtype,
                              _block_rows(chunk, alphas))
    boost = np.exp(0.5 * np.sum(np.abs(alphas) ** 2, axis=-1))
    return boost * sums / outcomes.shape[-2]


# ---------------------------------------------------------------------------
# Record-level estimators
# ---------------------------------------------------------------------------

def estimate_chi_squared(record: MeasurementRecord, alpha) -> complex:
    """Unbiased estimator of chi^2(alpha) from Bell outcomes."""
    return estimate_record(record, np.reshape(alpha, (1, -1)), "bell_chi2")[0].estimate


def estimate_chi_heterodyne(record: MeasurementRecord, alpha) -> complex:
    """Unbiased estimator of chi(alpha) from heterodyne outcomes."""
    return estimate_record(record, np.reshape(alpha, (1, -1)), "heterodyne")[0].estimate


def resolve_sign(v_hat: complex, epsilon: float) -> complex:
    """chi estimate (up to sign) from a chi^2 estimate.

    |v| <= (2/3) eps^2 maps to 0 (the boundary included); otherwise the
    principal square root. Whenever |v - chi^2| <= eps^2/3 this guarantees
    min over tau in {+-1} of |tau sqrt(v) - chi| <= eps.
    """
    check_real(epsilon, "epsilon must lie in (0,1)", 0.0, 1.0)
    v = complex(v_hat)
    if abs(v) <= (2.0 / 3.0) * epsilon * epsilon:
        return 0.0 + 0.0j
    return complex(np.sqrt(complex(v)))


def estimate_record(record: MeasurementRecord, alphas, scheme: str,
                    epsilon: float | None = None,
                    classicality: float | None = None) -> list[EstimateReport]:
    """One report per query row of `alphas` (m, n), from one pass over the record.

    bell_chi2 estimates chi^2; bell_chi resolves its sign to chi (needs
    epsilon); heterodyne estimates chi; classicality_aware estimates chi
    inside the effective radius L_eps(S) and reports zero beyond it (needs
    epsilon and S). An epsilon, where given, must lie in (0, 1).
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if epsilon is not None or scheme in ("bell_chi", "classicality_aware"):
        check_real(epsilon, "epsilon must lie in (0,1)", 0.0, 1.0)
    need = "bell" if scheme.startswith("bell") else "heterodyne"
    if record.scheme != need:
        raise ValidationError(f"record holds {record.scheme!r} outcomes, need {need!r}")
    pts = np.asarray(alphas, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != record.n:
        raise ValidationError(
            f"query points must be rows of {record.n} components, got shape {pts.shape}")
    check_finite(pts, "query points")
    truncated = np.zeros(len(pts), dtype=bool)
    if scheme == "classicality_aware":
        check_real(classicality, "classicality-aware estimation needs S in (0,1]; "
                   "use the plain estimator for S <= 0", 0.0, 1.0, "(]")
        truncated = np.sum(np.abs(pts) ** 2, axis=1) >= effective_radius(classicality, epsilon)
    est = np.zeros(len(pts), dtype=complex)
    if not truncated.all():
        means = chi_squared_means if record.scheme == "bell" else chi_heterodyne_means
        est[~truncated] = means(record.outcomes, pts[~truncated])
    if not np.isfinite(est).all():
        raise NumericFailure(f"the mean at query point {pts[~np.isfinite(est)][0]} overflows")
    if scheme == "bell_chi":
        est = [resolve_sign(v, epsilon) for v in est]
    return [EstimateReport(point=[[z.real, z.imag] for z in p], estimate=complex(e),
                           scheme=scheme, samples_used=record.count, epsilon=epsilon,
                           delta=None, truncated=bool(t))
            for p, e, t in zip(pts, est, truncated)]


def estimate_chi_classicality_aware(record: MeasurementRecord, alpha,
                                    classicality: float, epsilon: float) -> EstimateReport:
    """Heterodyne estimate inside the effective radius, zero beyond it."""
    return estimate_record(record, np.reshape(alpha, (1, -1)), "classicality_aware",
                           epsilon, classicality)[0]
