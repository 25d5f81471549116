"""Brute-force truncated Fock-basis oracle.

Represents peak states and displacement operators at 1-2 modes in the
truncated Fock basis, so every closed-form evaluator in `states` can be
validated against an independent numerical route. Validation support only;
dimensions are capped accordingly.

The work is factored by mode. A displacement is `D1(a1) x D2(a2)` and the
thermal filter is `F x F` with `F = diag(nu^m)`, so `build_state` forms the
per-mode factors `A_ki = (1-nu^2) F D(-g_ki) F` and keeps them as
`rho = sum_k w_k (x)_i A_ki`. The dense `rho` is formed only when `.data` is
read. Every pass reads rho through these terms, and a matrix given only by
`data` is one term with one factor of full dimension. `char_trace`,
`wigner_parity` and `husimi` trace products of one-mode operators O_i as
`sum_k w_k prod_i Tr[A_ki O_i]`; the trace, the mean photon number and
`petz_d2` come from per-mode traces too. No pass forms rho's rows:
`build_state`'s Hermiticity guard bounds `|rho - rho^H|` by pairing each term
with its Hermitian partner, and `min_eigenvalue` takes the row masses from
per-mode Gram diagonals and gathers only the rows that carry weight, since
the filter leaves most rows negligible.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError, NumericFailure
from .numerics import as_points
from .states import PeakState, char_fn, hermitian_partners, mean_photon, three_peak_plus

MAX_MODES = 2
MAX_DIM = 4096      # a dense `data`, formed only on request, is then <= 256 MiB
_DROP_TOL = 1e-13   # spectral-norm budget for the rows min_eigenvalue leaves out
_GATHER_BLOCK = 1 << 14   # entries of the kept block that one gather step forms


class FockMatrix:
    """Operator on the truncated n-mode Fock space (cutoff levels per mode),
    equal to `sum_k weights[k] (x)_i factors[i, k]` with factors (n, k, cutoff,
    cutoff). Given the factors, the dense `data` is formed from them on first
    access and kept. Given `data`, the matrix is one term with one factor of
    full dimension: weights [1] and factors `data[None, None]`, a view."""

    def __init__(self, n: int, cutoff: int, data: np.ndarray | None = None,
                 weights: np.ndarray | None = None, factors: np.ndarray | None = None):
        if data is None and factors is None:
            raise ValidationError("a FockMatrix needs its dense data or its factors")
        self.n, self.cutoff = n, cutoff
        if data is not None:
            self.data = data
            weights, factors = np.ones(1), data[None, None]
        self.weights, self.factors = weights, factors

    @property
    def dim(self) -> int:
        return self.cutoff ** self.n

    @cached_property
    def data(self) -> np.ndarray:
        """The dense matrix, summed from the factors by one matrix product."""
        flat = self.factors.reshape(self.n, len(self.weights), self.cutoff ** 2)
        if self.n == 1:
            return (self.weights @ flat[0]).reshape(self.cutoff, self.cutoff)
        # sum_k w_k A_k[a,c] B_k[b,d], indexed (a,c),(b,d), then reordered to (a,b),(c,d)
        ac_bd = (self.weights[:, None] * flat[0]).T @ flat[1]
        return ac_bd.reshape((self.cutoff,) * 4).transpose(0, 2, 1, 3).reshape(self.dim, -1)


def default_cutoff(state: PeakState) -> int:
    """Covers the thermal tail plus displacement support with a wide margin.

    The filter alone leaves a trace deficit of about n nu^(2C) at cutoff C, so
    C is also at least the smallest value with n nu^(2C) <= 1e-9, a tenth of
    `build_state`'s trace tolerance; warm filters (nu near 1) need it.
    """
    max_g2 = float(np.max(np.sum(np.abs(state.centers) ** 2, axis=1), initial=0.0))
    support = math.ceil((state.nu ** 2 / (1.0 - state.nu ** 2) + max_g2) * 8.0 + 20.0)
    tail = math.ceil(math.log(1e-9 / state.n) / (2.0 * math.log(state.nu)))
    return max(support, tail)


def _check_shape(n: int, cutoff: int):
    if n > MAX_MODES:
        raise ValidationError(f"oracle supports at most {MAX_MODES} modes, got {n}")
    if cutoff < 2:
        raise ValidationError(f"cutoff must be >= 2, got {cutoff}")
    if cutoff ** n > MAX_DIM:
        raise ValidationError(
            f"truncated dimension {cutoff ** n} exceeds the oracle cap {MAX_DIM}")


@lru_cache(maxsize=16)
def _displacement_tables(cutoff: int):
    """The alpha-independent parts of <m|D(alpha)|n>, built once per cutoff.

    Entry (m, n) depends on alpha only through |alpha|^2 and a power of alpha
    (m >= n) or of -conj(alpha) (m < n). The Laguerre polynomial and the
    gamma-function ratio depend on (min(m, n), |m - n|) alone, so they are
    evaluated on that triangle and gathered: `tri` maps (m, n) into the
    triangle, `power` into the stacked powers [alpha^k, (-conj alpha)^k].
    Returns (lo, k, log_ratio) on the triangle, then `tri` and `power`; the
    arrays are read-only because every caller shares them.
    """
    from scipy.special import gammaln  # imported here: it adds about 0.25 s to `import cvlearn`

    lo, hi = np.triu_indices(cutoff)
    k = hi - lo
    log_ratio = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
    m, n = np.meshgrid(np.arange(cutoff), np.arange(cutoff), indexing="ij")
    tri = np.zeros((cutoff, cutoff), dtype=np.intp)
    tri[lo, hi] = np.arange(len(lo))
    tri = np.where(m <= n, tri, tri.T)
    power = np.where(m >= n, 0, cutoff) + np.abs(m - n)
    tables = (lo, k, log_ratio, tri, power)
    for t in tables:
        t.setflags(write=False)
    return tables


def _displacements_1mode(alphas, cutoff: int) -> np.ndarray:
    """<m|D(alpha)|n> for each alpha of a batch, via the associated-Laguerre
    matrix elements; shape (len(alphas), cutoff, cutoff)."""
    from scipy.special import eval_genlaguerre

    alphas = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    lo, k, log_ratio, tri, power = _displacement_tables(cutoff)
    x = np.hypot(alphas.real, alphas.imag) ** 2   # abs(alpha) ** 2 bit for bit
    # exp and Laguerre on the (min, |m-n|) triangle, powers on one row per point
    amp = np.exp(log_ratio - x / 2.0)
    lag = eval_genlaguerre(lo, k, x)
    base = np.concatenate([alphas, -np.conj(alphas)], axis=1)[:, :, None] \
        ** np.arange(cutoff)
    base = base.reshape(len(alphas), 2 * cutoff)
    return amp[:, tri] * base[:, power] * lag[:, tri]


def displacement_matrix(alpha, cutoff: int) -> FockMatrix:
    """D(alpha) on the truncated space; unitary on the low-photon block."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    n = alpha.shape[0]
    _check_shape(n, cutoff)
    mats = _displacements_1mode(alpha, cutoff)
    data = mats[0]
    for d in mats[1:]:
        data = np.kron(data, d)
    return FockMatrix(n=n, cutoff=cutoff, data=data)


def _number_diag(n: int, cutoff: int) -> np.ndarray:
    """Diagonal of the total photon number N on the truncated n-mode space."""
    k = np.arange(cutoff, dtype=float)
    diag = k.copy()
    for _ in range(n - 1):
        diag = (diag[:, None] + k[None, :]).reshape(-1)
    return diag


def _antihermitian_bound(fm: FockMatrix, partner: np.ndarray) -> float:
    """An upper bound on max |rho - rho^H| from the terms, each matched with
    its partner p = partner[k]; inf when `partner` is not a permutation.

    Summed over the permutation, rho^H = sum_k conj(w_p) (x)_i A_pi^H, so
    rho - rho^H = sum_k [a (x)_i X_i - b (x)_i Y_i] with a = w_k, X_i = A_ki,
    b = conj(w_p), Y_i = A_pi^H. Each bracket telescopes over the modes,
    (a - b) (x)_i X_i + b sum_i (x)_{j<i} Y_j (x) (X_i - Y_i) (x)_{j>i} X_j,
    and the largest entry of a Kronecker product is the product of its
    factors' largest entries. A term that equals its partner's adjoint adds 0.
    """
    weights, factors = fm.weights, fm.factors
    if not np.array_equal(np.sort(partner), np.arange(len(weights))):
        return math.inf
    x = np.max(np.abs(factors), axis=(2, 3))          # (factors, k); max|A^H| = max|A|
    y = x[:, partner]
    diff = np.max(np.abs(factors - np.conj(factors[:, partner]).swapaxes(2, 3)), axis=(2, 3))
    b = np.conj(weights[partner])
    bound = np.abs(weights - b) * np.prod(x, axis=0)
    for i in range(len(factors)):
        bound += np.abs(b) * diff[i] * np.prod(y[:i], axis=0) * np.prod(x[i + 1:], axis=0)
    return float(bound.sum())


def _traces(fm: FockMatrix) -> tuple[complex, complex]:
    """(Tr rho, Tr[rho N]), N the total photon number, from per-factor traces.

    With t_ki = Tr A_ki and m_ki = Tr[A_ki N_i], N_i the photon number on the
    factor's modes, Tr rho = sum_k w_k prod_i t_ki, and N = sum_i N_i gives
    Tr[rho N] = sum_k w_k sum_i m_ki prod_{j != i} t_kj.
    """
    weights, factors = fm.weights, fm.factors
    diag = np.diagonal(factors, axis1=2, axis2=3)
    t, m = diag.sum(axis=2), diag @ _number_diag(fm.n // len(factors), fm.cutoff)
    photons = sum(m[i] * np.prod(np.delete(t, i, axis=0), axis=0) for i in range(len(factors)))
    return complex(weights @ np.prod(t, axis=0)), complex(weights @ photons)


def build_state(state: PeakState, cutoff: int | None = None) -> FockMatrix:
    """Density matrix (1-nu^2)^n nu^N (sum_k w_k D^dag(gamma_k)) nu^N, kept as
    its per-mode factors; the dense `data` is formed on first access.

    Each term factors by mode: (1-nu^2) F D(-g_{k,i}) F with F = diag(nu^m),
    since D^dag(g) = D(-g) = D1(-g1) x D2(-g2). The Hermiticity guard pairs
    each peak with its (conj(w), -g) partner, whose term is the adjoint.
    """
    if cutoff is None:
        cutoff = default_cutoff(state)
    _check_shape(state.n, cutoff)
    k = len(state.weights)
    filt = state.nu ** np.arange(cutoff, dtype=float)
    factors = _displacements_1mode(-state.centers.T, cutoff).reshape(state.n, k, cutoff, cutoff)
    factors *= (1.0 - state.nu ** 2) * np.outer(filt, filt)
    fm = FockMatrix(state.n, cutoff, weights=state.weights, factors=factors)
    trace = _traces(fm)[0]
    trace_err = abs(trace.real - 1.0) + abs(trace.imag)
    if trace_err > 1e-8:
        raise ValidationError(
            f"cutoff {cutoff} too small: |Tr rho - 1| = {trace_err:.2e}; "
            f"suggested cutoff >= {default_cutoff(state)}")
    herm_err = _antihermitian_bound(fm, hermitian_partners(state.centers)[0])
    if herm_err > 1e-10:
        raise NumericFailure(f"oracle state not Hermitian: {herm_err:.2e}")
    return fm


# ---------------------------------------------------------------------------
# Oracle evaluations
# ---------------------------------------------------------------------------

def _mode_trace(fm: FockMatrix, points, mode_ops):
    """Tr[rho (O(p_1) x ... x O(p_n))] at one point (n,), as a complex, or at a
    batch (m, n); `mode_ops(values, cutoff)` stacks the one-mode operators O.
    With rho = sum_k w_k (x)_i A_ki this is sum_k w_k prod_i Tr[A_ki O(p_i)],
    and Tr[A O] = vec(A^T) . vec(O), so each mode of a block of points costs
    one (k, C^2) @ (C^2, points) product.
    """
    batch, single = as_points(points, fm.n, "oracle points")
    weights, factors = fm.weights, fm.factors
    if len(factors) != fm.n:
        raise ValidationError(
            f"a {fm.n}-mode FockMatrix traces only through the factors build_state keeps")
    cutoff = fm.cutoff
    a_t = factors.transpose(0, 1, 3, 2).reshape(fm.n, len(weights), -1)
    # blocks of points keep the operator stacks near 2^20 entries
    block = max(1, (1 << 20) // cutoff ** 2)
    out = np.empty(len(batch), dtype=complex)
    for s in range(0, len(batch), block):
        pts = batch[s:s + block]
        terms = np.prod([a_t[i] @ mode_ops(pts[:, i], cutoff).reshape(len(pts), -1).T
                         for i in range(fm.n)], axis=0)
        out[s:s + block] = weights @ terms
    return complex(out[0]) if single else out


def char_trace(fm: FockMatrix, alpha):
    """Tr[rho D(alpha)] at one point (n,), as a complex, or at a batch (m, n)."""
    return _mode_trace(fm, alpha, _displacements_1mode)


def mean_photon_trace(fm: FockMatrix) -> float:
    return _traces(fm)[1].real


def husimi(fm: FockMatrix, zeta):
    """<zeta|rho|zeta> / pi^n, the heterodyne outcome density, at one point (n,)
    or a batch (m, n); |zeta> is the product of the coherent states D(zeta_i)|0>."""
    def projectors(zetas, cutoff):   # |zeta><zeta| with |zeta> = D(zeta)|0>
        v = _displacements_1mode(zetas, cutoff)[:, :, 0]
        return v[:, :, None] * v[:, None, :].conj()
    return _mode_trace(fm, zeta, projectors).real / math.pi ** fm.n


def wigner_parity(fm: FockMatrix, beta):
    """(2/pi)^n Tr[rho D(beta) P D^dag(beta)], P the photon parity, at one point
    (n,) or a batch (m, n)."""
    def parities(betas, cutoff):   # D(beta) P D^dag(beta), P the one-mode parity
        d = _displacements_1mode(betas, cutoff)
        return (d * (-1.0) ** np.arange(cutoff)) @ d.conj().transpose(0, 2, 1)
    return (2.0 / math.pi) ** fm.n * _mode_trace(fm, beta, parities).real


class EigenvalueBound(float):
    """`min_eigenvalue`'s value, with what certified it: `kept_rows`, the rows
    that reached `eigvalsh`, and `dropped_norm_bound`, the subtracted
    sqrt(2 sum_D), 0 when no row was dropped."""

    def __new__(cls, value: float, kept_rows: int, dropped_norm_bound: float):
        self = super().__new__(cls, value)
        self.kept_rows, self.dropped_norm_bound = kept_rows, dropped_norm_bound
        return self


def _masses(fm: FockMatrix) -> np.ndarray:
    """max(|rho row|^2, |rho column|^2) for every row, from the terms.

    |rho row r|^2 = (rho rho^H)_rr = sum_kl w_k conj(w_l) prod_i (A_ki A_li^H)[r_i, r_i],
    an outer product over the factors of their (k, l) Gram diagonals. The
    columns use A^H A: the same products summed over r instead of c give the
    conjugate of the column mass, which is real.
    """
    weights, factors = fm.weights, fm.factors
    k = len(weights)
    row = col = np.outer(weights, np.conj(weights))[:, :, None]
    for f in factors:
        f_conj = np.conj(f)
        row = (row[..., None] * np.einsum("krc,lrc->klr", f, f_conj)[:, :, None]).reshape(k, k, -1)
        col = (col[..., None] * np.einsum("krc,lrc->klc", f, f_conj)[:, :, None]).reshape(k, k, -1)
    return np.maximum(row.sum(axis=(0, 1)).real, col.sum(axis=(0, 1)).real)


def _kept_block(fm: FockMatrix, keep: np.ndarray) -> np.ndarray:
    """rho[keep][:, keep], h_KK[r, s] = sum_k w_k prod_i A_ki[r_i, s_i], gathered
    from the terms a block of kept rows and one term at a time."""
    weights, factors = fm.weights, fm.factors
    size = factors.shape[2]
    idx = np.unravel_index(keep, (size,) * len(factors))
    flat = factors.reshape(len(factors), len(weights), -1)
    out = np.zeros((len(keep), len(keep)), dtype=complex)
    step = max(1, _GATHER_BLOCK // len(keep))
    for s in range(0, len(keep), step):
        # flat offsets of (r_i, s_i) in factor i, shared by every term
        at = [i[s:s + step, None] * size + i for i in idx]
        for k, w in enumerate(weights):
            block = w * flat[0, k].take(at[0])
            for f, a in zip(flat[1:], at[1:]):
                block *= f[k].take(a)
            out[s:s + step] += block
    return out


def min_eigenvalue(fm: FockMatrix) -> EigenvalueBound:
    """A certified lower bound on the smallest eigenvalue of h = (rho + rho^H)/2,
    within _DROP_TOL of it.

    The filter nu^N leaves most rows of a peak state negligible, so only the
    rows that carry weight reach `eigvalsh`. Rows are sorted by a bound on
    their squared norm in h, max(|rho row|^2, |rho column|^2), and the longest
    prefix D whose bounds sum to at most _DROP_TOL^2 / 2 is dropped. With K the
    kept rows and E = h - (h_KK + 0_DD), ||E||_2 <= ||E||_F <= sqrt(2 sum_D) <=
    _DROP_TOL, so Weyl's inequality gives lam_min(h) >= min(lam_KK, 0) - that,
    and Cauchy interlacing gives lam_min(h) <= lam_KK. The value returned never
    exceeds lam_min(h), up to `eigvalsh`'s own rounding; when no row can be
    dropped it is the full spectrum's minimum.

    Both squared norms come from the factors' Gram diagonals and h_KK is
    gathered from the terms, so no pass forms rho's rows. The value carries
    `kept_rows` and `dropped_norm_bound` (see `EigenvalueBound`).
    """
    mass = _masses(fm)
    order = np.argsort(mass)
    cum = np.cumsum(mass[order])
    # at least one row is kept, so the block is never empty
    n_drop = min(int(np.searchsorted(cum, 0.5 * _DROP_TOL ** 2, side="right")), len(cum) - 1)
    keep = np.sort(order[n_drop:])
    # h_KK = (block + block^H) / 2, written in place into the lower triangle,
    # which is all `eigvalsh` reads. Rows [lo, hi) take columns [0, hi); they
    # read only rows [lo, hi) and columns [lo, hi) of rows above, which no
    # earlier block wrote, so the block's one temporary is its only copy
    h = _kept_block(fm, keep)
    step = max(1, _GATHER_BLOCK // len(keep))
    for lo in range(0, len(keep), step):
        hi = lo + step
        rows = h[lo:hi, :hi] + h[:hi, lo:hi].conj().T
        rows *= 0.5
        h[lo:hi, :hi] = rows
    lam = float(np.linalg.eigvalsh(h)[0])
    if n_drop == 0:
        return EigenvalueBound(lam, len(keep), 0.0)
    dropped = math.sqrt(2.0 * cum[n_drop - 1])
    return EigenvalueBound(min(lam, 0.0) - dropped, len(keep), dropped)


# ---------------------------------------------------------------------------
# Petz-Renyi D2 against the thermal reference
# ---------------------------------------------------------------------------

def petz_d2_closed_form(state_gamma: PeakState) -> float:
    """log2 Tr[rho_gamma rho_0^-1 rho_gamma] = log2(1 + 8 eps0^2 (1 - e^{-4a|gamma|^2}))."""
    g = three_peak_plus(state_gamma)
    if g is None:
        raise ValidationError("petz_d2 requires a non-degenerate three-peak state")
    g2 = float(np.sum(np.abs(g) ** 2))
    return math.log2(1.0 + 8.0 * state_gamma.eps0 ** 2
                     * (1.0 - math.exp(-4.0 * state_gamma.a * g2)))


def petz_d2(state_gamma: PeakState, state_thermal: PeakState,
            cutoff: int | None = None, mismatch_tol: float = 1e-4):
    """Numeric D2(rho_gamma || rho_0) in the truncated basis plus the closed form.

    The thermal reference is diagonal, so its inverse is exact on the truncated
    space; a closed-form mismatch above `mismatch_tol` flags an insufficient
    cutoff.
    """
    if state_gamma.n != state_thermal.n or abs(state_gamma.nu - state_thermal.nu) > 1e-12:
        raise ValidationError("petz_d2 requires a shared (n, nu) family")
    if len(state_thermal.weights) != 1:
        raise ValidationError("second argument must be the thermal (gamma = 0) member")
    rho = build_state(state_gamma, cutoff)
    nu = state_thermal.nu
    inv_diag = 1.0 / ((1.0 - nu ** 2) * nu ** (2.0 * np.arange(rho.cutoff, dtype=float)))
    # Tr[rho F^-1 rho] = sum_{k,l} w_k w_l prod_i Tr[A_ki F_i^-1 A_li], with F^-1
    # = (x)_i F_i^-1 diagonal and Tr[A F_i^-1 B] = vec(A F_i^-1) . vec(B^T)
    k = len(rho.weights)
    pair = np.prod([(f * inv_diag).reshape(k, -1) @ f.transpose(0, 2, 1).reshape(k, -1).T
                    for f in rho.factors], axis=0)
    val = np.real(rho.weights @ pair @ rho.weights)
    numeric = math.log2(max(val, 1e-300))
    closed = petz_d2_closed_form(state_gamma)
    if abs(numeric - closed) > mismatch_tol:
        raise NumericFailure(
            f"Petz D2 mismatch {abs(numeric - closed):.2e} suggests cutoff "
            f"{rho.cutoff} is insufficient")
    return numeric, closed


# ---------------------------------------------------------------------------
# Aggregate report (CLI debugging aid)
# ---------------------------------------------------------------------------

def oracle_check(state: PeakState, cutoff: int | None = None,
                 rng: np.random.Generator | None = None) -> dict:
    """Compare closed forms against the oracle at 20 random points; returns a summary."""
    rng = rng or np.random.default_rng(0)
    fm = build_state(state, cutoff)
    pts = (rng.normal(size=(20, state.n)) + 1j * rng.normal(size=(20, state.n)))
    closed = char_fn(state, pts)
    numeric = char_trace(fm, pts)
    trace, photons = _traces(fm)
    lam = min_eigenvalue(fm)
    return {
        "cutoff": fm.cutoff,
        "trace_error": float(abs(trace - 1.0)),
        "min_eigenvalue": float(lam),
        "char_max_abs_error": float(np.max(np.abs(closed - numeric))),
        "mean_photon_error": float(abs(photons.real - mean_photon(state))),
        "dim": fm.dim,
        "kept_rows": lam.kept_rows,
        "dropped_norm_bound": lam.dropped_norm_bound,
    }
