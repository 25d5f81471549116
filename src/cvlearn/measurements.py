"""Exact outcome densities and samplers for the CV Bell measurement and
heterodyne detection on peak states.

Both densities are an isotropic 2n-dim Gaussian N_V (per-coordinate variance
V) times a bracket in one phasor per peak, e_j(zeta) = exp(i Im(f_j . zeta))
with `.` the unconjugated dot product: linear, sum_j c_j e_j, for heterodyne;
quadratic, e^T C e, for Bell, whose oscillations are the pair sums f_j + f_k.
Hermitian pairing makes a partner's phasor the conjugate, so the bracket is a
real quadratic form in one cos/sin per +/- peak pair. `phase_matrix` is the
one definition of the phase map Im(zeta . f), and `angles` applies it to
every sample the package reads. Dropping the oscillations and taking moduli
gives a dominating envelope, which makes rejection sampling exact.

The sampler and the estimators share one worker thread (`run_beside`), so a
large call uses a second CPU without changing a bit of its result.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import ValidationError, NumericFailure
from .numerics import (SymmetricUnitary, as_points, check_finite, check_int, check_mode_count,
                       make_rng)
from .states import (PEAK_DROP, PeakState, bell_partner, family_runs, filter_a, filter_variances,
                     hermitian_partners, merge_family, s_ordered_peaks)

ENVELOPE_GUARD = {np.float64: 1e-9, np.float32: 3e-6}
PAIR_TOL = 1e-10    # |f_j + f_partner| and |Im Q| allowed by Hermitian pairing
FAMILY_CHUNK = 256  # members built at once by peak_mixtures
SAMPLE_BLOCK = 1 << 16  # largest block of proposal rows sample draws and tests at once
RECORD_BLOCK = 1 << 14  # record rows written or read at once
MATMUL_MACS = 200_000   # multiply-adds per matmul call of `angles`

_worker = None   # the executor behind run_beside, made on first use
_worker_lock = threading.Lock()


def run_beside(fn, *args):
    """Start fn(*args) on the one worker thread that `sample` and the estimators share.

    Returns its concurrent.futures.Future. The caller does its own share of
    the work meanwhile, then waits on `result()`, which re-raises what fn
    raised. concurrent.futures loads on first use, so importing stays light.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1)
        return _worker.submit(fn, *args)


def _forget_worker():
    # A forked child inherits the executor but not its thread, so work sent
    # to it would wait forever; the child makes its own on first use.
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def phase_matrix(freqs) -> np.ndarray:
    """The (2n, k) real matrix Phi with [Re z | Im z] @ Phi = Im(z . f_j).

    Column j belongs to row f_j of `freqs` (k, n); `.` is the unconjugated
    dot product, so Phi stacks Im f over Re f. A stack (..., k, n) gives a
    stack of matrices.
    """
    f = np.atleast_2d(np.asarray(freqs, dtype=complex))
    return np.concatenate([f.imag.swapaxes(-1, -2), f.real.swapaxes(-1, -2)], axis=-2)


def angles(phase_t, blocks, out) -> np.ndarray:
    """Writes phase_t @ [Re z | Im z]^T into `out` (..., R, rows) and returns it.

    `phase_t` (..., R, 2n) is Phi^T, cast to out's dtype. `blocks`, all of one
    depth, stack along axis -2 to the coordinates (..., 2n, rows) in any
    layout; each later block's product is added to the first's. Blocks one
    deep are multiplied elementwise, deeper ones by matmul calls of at least
    two columns and at most about MATMUL_MACS multiply-adds, which OpenBLAS
    runs on the calling thread, not in a pool beside `run_beside`'s worker:
    the bits of one whole matmul on one thread, at any thread count.
    """
    phase_t = phase_t.astype(out.dtype, copy=False)
    depth, (pairs, rows) = blocks[0].shape[-2], out.shape[-2:]
    product = np.matmul if depth > 1 else np.multiply
    step = max(2, MATMUL_MACS // (max(pairs, 1) * depth))
    cuts = list(range(step, rows - 1, step))   # no one-column slice at the end
    for cols in map(slice, [0, *cuts], [*cuts, rows]):
        for i, block in enumerate(blocks):
            w = phase_t[..., i * depth:(i + 1) * depth]
            if i:
                out[..., cols] += product(w, block[..., cols])
            else:
                product(w, block[..., cols], out=out[..., cols])
    return out


class SignedGaussianMixture:
    """N_V(zeta) times a bracket in the peak phasors e_j = exp(i Im(f_j . zeta)).

    `freqs` (k, n) holds one frequency per peak; `coefs` (k,) gives the linear
    bracket sum_j c_j e_j, `coefs` (k, k) the quadratic e^T C e. Each nonzero
    f_j needs a partner -f_j; construction folds the bracket once into x^T Q x
    with x = [1, cos th_1, sin th_1, ..., cos th_R, sin th_R], one angle per
    +/- pair. The envelope mass is the sum of moduli of the term amplitudes
    with coincident oscillations merged; the normalization audit must give 1.
    One mixture is the one-member case of `mixture_family`.
    """

    def __init__(self, n: int, variance: float, freqs, coefs):
        freqs = np.asarray(freqs, dtype=complex).reshape(1, -1, int(n))
        vars(self).update(vars(mixture_family(n, variance, freqs,
                                              np.asarray(coefs, dtype=complex)[None])[0]))

    # -- evaluation ---------------------------------------------------------
    def _fold(self, x: list, rows: int, dt) -> np.ndarray:
        """x^T Q x over `rows` outcomes from their phasors x (`_cos_sin`), in dtype dt."""
        out = np.full(rows, self._const, dtype=dt)
        for a, b, c in self._terms:
            term = dt(c) * x[b]
            if a:
                term *= x[a]
            out += term
        return out

    def _bracket(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """x^T Q x at outcomes re + i im (each (m, n)), in their own dtype."""
        x = _cos_sin(angles(self._phase.T, [re.T, im.T],
                            np.empty((self._phase.shape[1], len(re)), dtype=re.dtype)))
        return self._fold(x, len(re), re.dtype.type)   # the angles are freed by now

    @property
    def is_plain_gaussian(self) -> bool:
        """True when the bracket is exactly 1, so the density is N_V itself."""
        return not self._phase.shape[1] and not self._terms and self._const == 1.0

    def _log_gauss(self, z: np.ndarray) -> np.ndarray:
        return (-np.sum(np.abs(z) ** 2, axis=1) / (2.0 * self.variance)
                - self.n * np.log(2.0 * np.pi * self.variance))

    def value(self, zeta):
        """Density, real and >= -1e-9: a scalar at one outcome (n,), (m,) at a batch (m, n)."""
        z, single = as_points(zeta, self.n, "outcomes")
        vals = np.exp(self._log_gauss(z)) * self._bracket(z.real, z.imag)
        return vals[0] if single else vals

    def log_value(self, zeta):
        """log density, stable for product accumulation over many copies; shaped as `value`."""
        z, single = as_points(zeta, self.n, "outcomes")
        vals = self._log_gauss(z) + _log_bracket(self._bracket(z.real, z.imag))
        return vals[0] if single else vals

    # -- sampling -----------------------------------------------------------
    def sample(self, count: int, rng: np.random.Generator,
               dtype=np.float64) -> np.ndarray:
        """Exact draws by rejection against the oscillation-free envelope.

        Proposals come in blocks of min(int(1.2 * count * envelope_mass),
        SAMPLE_BLOCK) rows. Each block draws all its `re` normals, then all
        its `im` normals, then one uniform per row; it brackets and guards
        every row and compacts its accepted rows into the output. The block
        that fills the output is the last. The stream is defined per block,
        so draws that need more than one block depend on SAMPLE_BLOCK.

        While a block is not expected to fill the output (block < rows still
        needed * envelope_mass), the worker thread of `run_beside` draws the
        next block's `re` into a third buffer as this thread brackets, guards
        and compacts the block; the draws allocate nothing, so the worker
        holds no memory of its own. When the block fills the output after
        all, the generator's state is set back to before the draw ahead. So
        the output and the state of `rng` on return are those of drawing
        block by block on one thread. Memory: the output plus O(SAMPLE_BLOCK).
        """
        check_int(count, "count", 1)
        dt = np.dtype(dtype).type
        if dt not in ENVELOPE_GUARD:
            raise ValidationError(f"sampler dtype must be float32 or float64, got {dt.__name__}")
        guard = ENVELOPE_GUARD[dt]
        scale = dt(np.sqrt(self.variance))
        inv_mass = dt(1.0 / self.envelope_mass)
        out = np.empty((count, self.n), dtype=np.complex64 if dt is np.float32 else complex)
        parts = out.view(dt).reshape(count, self.n, 2)   # [..., 0] real, [..., 1] imag
        # Envelope mass bounds the expected trials per accepted sample; it is
        # at least 1, so a block holds at least one row, and a call that one
        # block does not fill draws further blocks of the same size.
        block = min(int(1.2 * count * self.envelope_mass), SAMPLE_BLOCK)
        # three normal buffers take turns as re, im and the next block's re
        re, im, spare = (np.empty((block, self.n), dtype=dt) for _ in range(3))
        u = np.empty(block, dtype=dt)

        def accept(re, im, filled):
            """Scale, bracket, guard and compact one block; the rows it adds."""
            re *= scale
            im *= scale
            ratio = self._bracket(re, im)
            ratio *= inv_mass
            if np.max(ratio) > 1.0 + guard:
                raise NumericFailure(
                    f"rejection envelope violated: ratio {np.max(ratio)} > 1; "
                    "the proposal no longer dominates the density")
            idx = np.flatnonzero(u < ratio)[:count - filled]
            take = len(idx)
            # Compact the accepted rows straight into `out`; idx < block, so
            # mode="clip" never clips, and unlike "raise" it needs no buffer.
            np.take(re, idx, axis=0, out=parts[filled:filled + take, :, 0], mode="clip")
            np.take(im, idx, axis=0, out=parts[filled:filled + take, :, 1], mode="clip")
            return take

        filled, ahead = 0, False
        while filled < count:
            if not ahead:
                rng.standard_normal(out=re, dtype=dt)
            rng.standard_normal(out=im, dtype=dt)
            rng.random(out=u, dtype=dt)
            ahead = block < (count - filled) * self.envelope_mass
            if not ahead:
                filled += accept(re, im, filled)
                continue
            state = rng.bit_generator.state
            draw = run_beside(rng.standard_normal, spare.shape, dt, spare)
            try:
                filled += accept(re, im, filled)
            finally:
                draw.result()   # the generator is this thread's again
            re, im, spare = spare, re, im
        if ahead:   # the block drawn ahead is not needed
            rng.bit_generator.state = state
        return out


def _log_bracket(bracket: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(bracket, 1e-300))


def _cos_sin(theta: np.ndarray) -> list:
    """x = [None, cos th_1, sin th_1, ...] at angles theta (R, rows); x_0 = 1 never multiplies."""
    return [None, *(trig(th) for th in theta for trig in (np.cos, np.sin))]


def pair_projection(plus: SignedGaussianMixture, minus: SignedGaussianMixture):
    """(L, mirrored): the angles of a (plus, minus) pair at z ~ N_V are L^T w, w ~ N(0, I_k).

    The brackets read z only through theta = [Re z | Im z] @ Phi. When minus's
    phase map is exactly plus's negated (`mirrored`, the states at +gamma and
    -gamma of one peak layout), Phi is plus's and minus's angles are its
    negation; otherwise Phi = [Phi_plus | Phi_minus]. Under the isotropic
    N_V of plus's variance theta is Gaussian with covariance V Phi^T Phi, so
    L = sqrt(V) R with R = qr(Phi, "r"): L^T L = V Phi^T Phi, k = min(2n, columns).
    """
    mirrored = np.array_equal(minus._phase, -plus._phase)
    phi = plus._phase if mirrored else np.concatenate([plus._phase, minus._phase], axis=1)
    return np.sqrt(plus.variance) * np.linalg.qr(phi, mode="r"), mirrored


def pair_log_brackets(plus: SignedGaussianMixture, minus: SignedGaussianMixture,
                      w: np.ndarray, factor: np.ndarray, mirrored: bool):
    """(log b_plus, log b_minus) at the angles L^T w, for normals w and `pair_projection`'s L.

    A mirrored pair shares plus's cosines and negates its sines.
    """
    rows, split = len(w), plus._phase.shape[1]
    theta = angles(factor.T, [w.T], np.empty((factor.shape[1], rows)))
    x = _cos_sin(theta[:split])
    if mirrored:
        x_minus = list(x)   # [None, cos th_1, sin th_1, ...]: negate every sin
        x_minus[2::2] = [-sin for sin in x[2::2]]
    else:
        x_minus = _cos_sin(theta[split:])
    return (_log_bracket(plus._fold(x, rows, np.float64)),
            _log_bracket(minus._fold(x_minus, rows, np.float64)))


def mixture_family(n: int, variance: float, freqs, coefs) -> list[SignedGaussianMixture]:
    """SignedGaussianMixture(n, variance, freqs[i], coefs[i]) for every member i, built at once.

    `freqs` is (m, k, n) and `coefs` (m, k) or (m, k, k). Members that share a
    term layout (which frequencies vanish, which pair up, which oscillations
    merge) are built together: one batched product folds their brackets into
    x^T Q x, and their envelope-mass and audit terms are array operations,
    each member summing its own row as a one-member build would. Every
    member's pairing, reality and audit tolerances are checked.
    """
    n, variance = int(n), float(variance)
    f = np.asarray(freqs, dtype=complex)
    coefs = np.asarray(coefs, dtype=complex)
    m, k = f.shape[:2]
    members = [SignedGaussianMixture.__new__(SignedGaussianMixture) for _ in range(m)]
    idx = np.arange(k)
    zero = np.linalg.norm(f, axis=2) <= PAIR_TOL
    partner, dist = hermitian_partners(f)
    if np.any(~zero & ((dist > PAIR_TOL) | (partner[np.arange(m)[:, None], partner] != idx))):
        raise NumericFailure("oscillation term lacks its conjugate partner")
    for run in family_runs(zero, partner):
        reps = np.flatnonzero(~zero[run[0]] & (idx < partner[run[0]]))
        cos_col = 1 + 2 * np.arange(len(reps))
        sin_col = cos_col + 1
        # e = P x with e_zero = 1, e_rep = cos + i sin and e_partner = conj(e_rep)
        p = np.zeros((k, 1 + 2 * len(reps)), dtype=complex)
        p[zero[run[0]], 0] = 1.0
        p[reps, cos_col] = 1.0
        p[reps, sin_col] = 1j
        p[partner[run[0], reps]] = np.conj(p[reps])
        if coefs.ndim == 2:   # sum_j c_j e_j = x_0 (c^T P x)
            q = np.zeros((len(run), p.shape[1], p.shape[1]), dtype=complex)
            q[:, 0] = coefs[run] @ p
        else:
            q = p.T @ coefs[run] @ p
        q = 0.5 * (q + q.swapaxes(1, 2))
        if np.max(np.abs(q.imag)) > PAIR_TOL:
            raise NumericFailure("mixture bracket is not real; broken Hermitian pairing")
        q = q.real
        # cos^2 + sin^2 = 1 folds every sin^2 coefficient into the constant.
        q[:, 0, 0] += np.sum(q[:, sin_col, sin_col], axis=1)
        q[:, cos_col, cos_col] -= q[:, sin_col, sin_col]
        q[:, sin_col, sin_col] = 0.0
        # The terms c x_a x_b of x^T Q x (a <= b, x_0 = 1) that survive cancellation.
        pairs = [(a, b) for a in range(p.shape[1]) for b in range(max(a, 1), p.shape[1])]
        a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
        kept = np.abs(q[:, a, b]) > 1e-16
        scaled = (q[:, a, b] * np.where(a == b, 1.0, 2.0)).tolist()
        phases = phase_matrix(f[run][:, reps])
        for i, j in enumerate(run):
            mix = members[j]
            mix.n, mix.variance, mix._const, mix._phase = n, variance, float(q[i, 0, 0]), phases[i]
            mix._terms = [(*ab, c) for ab, c, keep in zip(pairs, scaled[i], kept[i]) if keep]
    # The full term list: one oscillation per peak, or per ordered peak pair.
    oscs = f if coefs.ndim == 2 else (f[:, :, None] + f[:, None]).reshape(m, -1, n)
    for run, amps, osc in merge_family(coefs.reshape(m, -1), oscs, drop=1e-16):
        moduli = np.abs(amps)
        terms = amps * np.exp(-0.5 * variance * np.sum(np.abs(osc) ** 2, axis=2))
        # Each member sums its own row, so its total is that of a one-member build.
        for j, modulus_row, term_row in zip(run, moduli, terms):
            audit = float(np.real(term_row.sum()))
            if abs(audit - 1.0) > 1e-6:
                raise NumericFailure(f"mixture normalization audit failed: integral = {audit}")
            members[j].envelope_mass = float(modulus_row.sum())
            members[j].normalization_audit = audit
    return members


# ---------------------------------------------------------------------------
# Density constructors
# ---------------------------------------------------------------------------

def peak_mixtures(scheme: str, nu: float, weights, centers) -> list[SignedGaussianMixture]:
    """Bell or heterodyne outcome mixtures of the peak states (weights, centers[i]).

    `centers` is (m, k, n) and `weights` (k,) is shared by the members. Each
    member's coincident peaks merge as PeakState merges them, so member i is
    the mixture `bell_mixture` / `heterodyne_mixture` builds for
    PeakState(n, nu, weights, centers[i]); members that merge alike are one
    `mixture_family`. PeakState's own checks are not run here.

    Heterodyne is the Husimi Q density, the s = -1 quasiprobability: one term
    per peak, V = t/2. Bell is the symplectic Fourier transform of chi^2, the
    double sum over peak pairs (j, k) of Gaussians in alpha, so p(zeta) has
    one term per ordered pair with

        amp = w_j w_k exp[-a(|g_j|^2+|g_k|^2) + |g_j+g_k|^2/(8 a sigma^4)],
        osc = (g_j + g_k)/(2 a sigma^2),          V = a.

    The oscillation is f_j + f_k with f_j = g_j/(2 a sigma^2), so the bracket
    is e^T C e in the peak phasors with C_jk = amp.
    """
    centers = np.asarray(centers, dtype=complex)
    m, k, n = centers.shape
    if m > FAMILY_CHUNK:   # bounds the (members, terms, terms, n) merge temporaries
        return [mix for start in range(0, m, FAMILY_CHUNK)
                for mix in peak_mixtures(scheme, nu, weights, centers[start:start + FAMILY_CHUNK])]
    sig2, a = filter_variances(nu)[0], filter_a(nu)
    out = [None] * m
    for run, w, g in merge_family(np.broadcast_to(weights, (m, k)), centers, drop=PEAK_DROP):
        if scheme == "heterodyne":
            t, amps, freqs = s_ordered_peaks(nu, -1.0, w, g)
            mixes = mixture_family(n, t / 2.0, freqs, amps)
        else:
            abs2_g = np.sum(np.abs(g) ** 2, axis=2)
            m2 = np.sum(np.abs(g[:, :, None] + g[:, None]) ** 2, axis=3)
            coefs = (w[:, :, None] * w[:, None]
                     * np.exp(-a * (abs2_g[:, :, None] + abs2_g[:, None])
                              + m2 / (8.0 * a * sig2 ** 2)))
            mixes = mixture_family(n, a, g / (2.0 * a * sig2), coefs)
        for i, mix in zip(run, mixes):
            out[i] = mix
    return out


def heterodyne_mixture(state: PeakState) -> SignedGaussianMixture:
    """Husimi Q density of one state: the one-member case of `peak_mixtures`."""
    return peak_mixtures("heterodyne", state.nu, state.weights, state.centers[None])[0]


def validate_bell_pair(state: PeakState, partner: PeakState):
    """The Bell inputs must satisfy chi_partner(alpha*) = chi_state(alpha): the partner,
    the reflected state sent through the circuit, has `bell_partner`'s peaks (w, gamma*)
    for every U. Any other, however far out its peaks lie, breaks the chi^2 factorization.
    """
    if partner.n != state.n:
        raise ValidationError("Bell pair mode counts differ")
    if not partner.peak_multiset_equal(bell_partner(state, SymmetricUnitary(np.eye(state.n)))):
        raise ValidationError(
            "Bell input pair violates the reflection contract chi_partner(alpha*) = "
            "chi_state(alpha): its peaks are not the state's (w, gamma*); "
            "pass the reflected state propagated through the circuit")


def bell_mixture(state: PeakState, partner: PeakState) -> SignedGaussianMixture:
    """Bell outcome density of a validated input pair: one member of `peak_mixtures`."""
    validate_bell_pair(state, partner)
    return peak_mixtures("bell", state.nu, state.weights, state.centers[None])[0]


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------

@dataclass
class MeasurementRecord:
    scheme: str                    # "bell" | "heterodyne"
    outcomes: np.ndarray           # (count, n) complex
    state_descriptor: dict
    seed: int
    n: int

    def __post_init__(self):
        if self.scheme not in ("bell", "heterodyne"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        check_mode_count(self.n)
        check_int(self.seed, "record seed")   # as read_jsonl checks it on the way back
        out = np.asarray(self.outcomes, dtype=complex)
        if (out.ndim > 1 and out.shape[1:] != (self.n,)) or out.size % self.n:
            raise ValidationError(f"measurement record outcomes must be rows of {self.n} "
                                  f"components, or a flat run of them, got shape {out.shape}")
        self.outcomes = out.reshape(-1, self.n)
        if self.outcomes.shape[0] < 1:
            raise ValidationError("measurement record must hold at least one outcome")
        check_finite(self.outcomes, "measurement record")

    @property
    def count(self) -> int:
        return self.outcomes.shape[0]

    def write_jsonl(self, path):
        import orjson   # loaded on first use, so importing the CLI stays light
        header = {"scheme": self.scheme, "n": self.n, "seed": self.seed,
                  "count": self.count, "state_descriptor": self.state_descriptor}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for start in range(0, self.count, RECORD_BLOCK):
                rows = np.ascontiguousarray(self.outcomes[start:start + RECORD_BLOCK])
                # orjson writes [[re_1,im_1,...],[...]] in shortest round-trip
                # digits; dropping the outer brackets and breaking each "],["
                # leaves one row per line
                body = orjson.dumps(rows.view(float), option=orjson.OPT_SERIALIZE_NUMPY)
                fh.write(memoryview(body.replace(b"],[", b"]\n["))[1:-1])
                fh.write(b"\n")

    @staticmethod
    def read_jsonl(path) -> "MeasurementRecord":
        """Load a record; the header must name scheme, n, seed and the row count.

        The header line is one JSON object. Every non-blank line after it
        must be one flat JSON array of 2n numbers, [re_1, im_1, ..., re_n,
        im_n]; whitespace around a line is ignored. The outcomes read back
        bit for bit, signed zeros included. The body is read RECORD_BLOCK
        lines at a time into one array that doubles, up to `count`, as parsed
        rows arrive. The outcomes are held once; other memory stays bounded.
        """
        with open(path, "rb") as fh:
            try:
                header = json.loads(fh.readline().decode())
                scheme = header["scheme"]
                n, count, seed = (header[k] for k in ("n", "count", "seed"))
                for key, value, low in (("n", n, 1), ("count", count, 1), ("seed", seed, 0)):
                    check_int(value, f"record header {key}", low)
                data, rows = np.empty((0, 2 * n)), 0
                while lines := list(islice(fh, RECORD_BLOCK)):
                    # the stripped lines replace the raw ones, which are freed
                    if lines := [line for line in map(bytes.strip, lines) if line]:
                        block = _parse_rows(lines, 2 * n)
                        if rows + len(block) > len(data):
                            # ndarray.resize grows it by realloc, not by a copy beside it
                            grown = max(rows + len(block), min(2 * len(data), count))
                            data.resize((grown, 2 * n), refcheck=False)
                        data[rows:rows + len(block)] = block
                        rows += len(block)
                data = data[:rows]
            except KeyError as exc:
                raise ValidationError(f"record header lacks {exc}") from exc
            except (OverflowError, TypeError, ValueError) as exc:   # a bad byte, number or size
                raise ValidationError(f"malformed measurement record {path}: {exc}") from exc
        if len(data) != count:
            raise ValidationError(
                f"record header says {count} outcomes but {len(data)} rows follow")
        return MeasurementRecord(scheme=scheme, outcomes=data.view(complex),
                                 state_descriptor=header.get("state_descriptor", {}),
                                 seed=seed, n=n)


def _parse_rows(lines: list, width: int) -> np.ndarray:
    """(len(lines), width) floats from stripped lines, each one flat JSON array."""
    import orjson
    text = b"\n".join(lines)
    # every line must hold exactly one flat array of `width` values, as one
    # json.loads per line would demand. With a "[" opening the text, a "]"
    # closing it and every newline inside a "]\n[", each line opens and
    # closes one array, and the bracket counts leave none inside it; the
    # commas fix each line's width, which the total alone would not (rows of
    # 3 and 1 values pass on their sum). A string, true, false and null each
    # hold a byte that no number does, and np.array would read "0.1" and true
    # as numbers
    if not (text.startswith(b"[") and text.endswith(b"]")
            and text.count(b"[") == text.count(b"]") == len(lines)
            == text.count(b"]\n[") + 1
            and set(map(bytes.count, lines, repeat(b","))) == {width - 1}
            and not any(byte in text for byte in b'"tfn')):
        raise ValueError(f"each row must be one JSON array of {width} numbers "
                         "on its own line")
    text = text.replace(b"]\n[", b",")   # one flat array; the joined text is freed
    return np.array(orjson.loads(text), dtype=float).reshape(len(lines), width)


def sample_bell(state: PeakState, reflected_then_circuit: PeakState, count: int,
                seed: int, dtype=np.float64) -> MeasurementRecord:
    """i.i.d. Bell outcomes for `count` copies of the validated input pair."""
    mix = bell_mixture(state, reflected_then_circuit)
    outcomes = mix.sample(count, make_rng(seed), dtype=dtype)
    return MeasurementRecord(
        scheme="bell", outcomes=outcomes, seed=seed, n=state.n,
        state_descriptor={"state": state.to_json_dict(),
                          "partner": reflected_then_circuit.to_json_dict()})


def sample_heterodyne(state: PeakState, count: int, seed: int) -> MeasurementRecord:
    """i.i.d. float64 heterodyne outcomes from the Husimi Q density."""
    mix = heterodyne_mixture(state)
    outcomes = mix.sample(count, make_rng(seed))
    return MeasurementRecord(
        scheme="heterodyne", outcomes=outcomes, seed=seed, n=state.n,
        state_descriptor={"state": state.to_json_dict()})
