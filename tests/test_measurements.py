"""Bell / heterodyne density and sampler tests.

Quadrature of the defining integrals (n = 1) serves as the independent oracle
for the closed-form mixtures; Monte Carlo moments check the samplers.
"""

import gc
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest

from cvlearn import measurements
from cvlearn.errors import ValidationError, NumericFailure
from cvlearn.estimators import chi_squared_means
from cvlearn.fock_oracle import build_state, husimi
from cvlearn.measurements import (
    ENVELOPE_GUARD,
    MATMUL_MACS,
    SAMPLE_BLOCK,
    MeasurementRecord,
    SignedGaussianMixture,
    angles,
    bell_mixture,
    heterodyne_mixture,
    peak_mixtures,
    sample_bell,
    sample_heterodyne,
)
from cvlearn.numerics import SymmetricUnitary, make_rng, random_symmetric_unitary
from cvlearn.states import (
    apply_circuit,
    bell_partner,
    char_fn,
    make_five_peak,
    make_thermal,
    make_three_peak,
    peak_layout,
    reflect,
    s_qpd,
)


def bell_quadrature(state, zetas, half_width=6.0, points=401):
    """Direct 2-dim quadrature of p(zeta) = (1/pi^2) int e^{zeta.a - zeta*.a*} chi^2."""
    xs = np.linspace(-half_width, half_width, points)
    dx = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    alphas = (gx + 1j * gy).reshape(-1, 1)
    chi2 = np.asarray(char_fn(state, alphas)) ** 2
    out = []
    for z in np.atleast_1d(zetas):
        phase = np.exp(2j * (z.real * gy.reshape(-1) + z.imag * gx.reshape(-1)))
        out.append(float(np.real(np.sum(chi2 * phase)) * dx * dx / math.pi ** 2))
    return np.array(out)


def grid_1mode(half_width, points=301):
    xs = np.linspace(-half_width, half_width, points)
    dx = xs[1] - xs[0]
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return (gx + 1j * gy).reshape(-1, 1), dx * dx


class TestBellDensity:
    def test_thermal_is_centered_gaussian_and_matches_quadrature(self):
        st = make_thermal(1, 0.6)
        partner = st.thermal_reference()
        zetas = np.array([0.0, 0.7 + 0.3j, -1.2j, 2.0])
        a = st.a
        closed = np.array([bell_mixture(st, partner).value(np.array([z])) for z in zetas])
        expect = np.exp(-np.abs(zetas) ** 2 / (2 * a)) / (2 * math.pi * a)
        assert np.max(np.abs(closed - expect)) < 1e-12
        oracle = bell_quadrature(st, zetas)
        assert np.max(np.abs(closed - oracle)) < 1e-6

    def test_three_peak_matches_quadrature(self):
        rng = make_rng(12)
        u = random_symmetric_unitary(1, rng)
        st = make_three_peak(1, 0.6, 0.2, np.array([0.9 + 0.4j]))
        partner = bell_partner(st, u)
        zetas = np.array([0.3 - 0.2j, 1.1 + 0.5j, -0.8])
        closed = bell_mixture(st, partner).value(zetas.reshape(-1, 1))
        oracle = bell_quadrature(st, zetas)
        assert np.max(np.abs(closed - oracle)) < 1e-6

    def test_normalization_and_nonnegativity_on_grid(self):
        rng = make_rng(13)
        u = random_symmetric_unitary(1, rng)
        st = make_three_peak(1, 0.6, 0.25, np.array([1.0 + 0.2j]))
        mix = bell_mixture(st, bell_partner(st, u))
        pts, area = grid_1mode(6 * math.sqrt(st.a))
        vals = mix.value(pts)
        assert np.min(vals) > -1e-9
        assert np.sum(vals) * area == pytest.approx(1.0, abs=1e-5)
        assert mix.normalization_audit == pytest.approx(1.0, abs=1e-12)

    def test_fourier_inversion_round_trip(self):
        st = make_three_peak(1, 0.55, 0.2, np.array([0.8]))
        u = random_symmetric_unitary(1, make_rng(14))
        mix = bell_mixture(st, bell_partner(st, u))
        pts, area = grid_1mode(7 * math.sqrt(st.a), points=501)
        dens = mix.value(pts)
        rng = make_rng(15)
        alphas = 0.9 * (rng.normal(size=20) + 1j * rng.normal(size=20))
        for al in alphas:
            phase = np.exp(-2j * np.imag(pts[:, 0] * al))
            val = np.sum(dens * phase) * area
            assert val == pytest.approx(complex(char_fn(st, np.array([al]))) ** 2, abs=1e-4)

    def test_mismatched_pair_rejected(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([0.9 + 0.4j]))
        with pytest.raises(ValidationError, match="reflection contract"):
            bell_mixture(st, st).value(np.array([0.0]))  # missing conjugation

    def test_five_peak_self_pair_needs_no_reflected_state(self):
        # Reflection-symmetric input: two copies of rho, circuit on the second.
        rng = make_rng(16)
        u = random_symmetric_unitary(1, rng)
        st = make_five_peak(1, 0.6, 0.2, np.array([0.7 + 0.5j]), u)
        mix = bell_mixture(st, apply_circuit(st, u))
        pts, area = grid_1mode(6 * math.sqrt(st.a))
        vals = mix.value(pts)
        assert np.min(vals) > -1e-9
        assert np.sum(vals) * area == pytest.approx(1.0, abs=1e-5)

    def test_two_mode_pair_contract(self):
        rng = make_rng(17)
        u = random_symmetric_unitary(2, rng)
        st = make_three_peak(2, 0.5, 0.2, np.array([0.5, 0.3j]))
        mix = bell_mixture(st, bell_partner(st, u))
        assert mix.normalization_audit == pytest.approx(1.0, abs=1e-12)


class TestSampleBell:
    def test_unbiased_chi_squared_estimates(self):
        rng = make_rng(18)
        u = random_symmetric_unitary(1, rng)
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        rec = sample_bell(st, bell_partner(st, u), 100_000, seed=7)
        z = rec.outcomes[:, 0]
        for al in [0.3, 0.8j, 1.0 + 0.2j, -0.6 + 0.6j, 1.0]:
            summands = np.exp(-2j * np.imag(z * al))
            est = np.mean(summands)
            se = math.sqrt((np.var(summands.real) + np.var(summands.imag)) / rec.count)
            truth = complex(char_fn(st, np.array([al]))) ** 2
            assert abs(est - truth) < 3 * se + 1e-12

    def test_thermal_outcome_covariance(self):
        st = make_thermal(1, 0.5)
        rec = sample_bell(st, st.thermal_reference(), 200_000, seed=3)
        coords = np.concatenate([rec.outcomes.real.ravel(), rec.outcomes.imag.ravel()])
        v_hat = np.var(coords)
        se = st.a * math.sqrt(2.0 / coords.size)
        assert abs(v_hat - st.a) < 3 * se
        assert abs(np.mean(coords)) < 3 * math.sqrt(st.a / coords.size)

    def test_deterministic_given_seed(self):
        u = random_symmetric_unitary(1, make_rng(19))
        st = make_three_peak(1, 0.7, 0.2, np.array([0.5]))
        partner = bell_partner(st, u)
        r1 = sample_bell(st, partner, 500, seed=11)
        r2 = sample_bell(st, partner, 500, seed=11)
        r3 = sample_bell(st, partner, 500, seed=12)
        assert np.array_equal(r1.outcomes, r2.outcomes)
        assert not np.array_equal(r1.outcomes, r3.outcomes)

    def test_float32_mode_consistent(self):
        st = make_thermal(1, 0.5)
        rec = sample_bell(st, st.thermal_reference(), 50_000, seed=5, dtype=np.float32)
        coords = np.concatenate([rec.outcomes.real.ravel(), rec.outcomes.imag.ravel()])
        assert abs(np.var(coords) - st.a) < 4 * st.a * math.sqrt(2.0 / coords.size)


def reference_sample(mix, count, rng, dtype):
    """The sampler's loop written out, one block of proposals at a time:
    normals (re, im), bracket, uniforms, and the accepted rows built as
    re[idx] + 1j * im[idx]. Also the block count and the accepted rows of
    the last block that the output did not need."""
    dt = np.dtype(dtype).type
    scale, inv_mass = dt(np.sqrt(mix.variance)), dt(1.0 / mix.envelope_mass)
    block = min(int(1.2 * count * mix.envelope_mass), SAMPLE_BLOCK)
    rows, filled, surplus = [], 0, 0
    while filled < count:
        re = rng.standard_normal((block, mix.n), dtype=dtype) * scale
        im = rng.standard_normal((block, mix.n), dtype=dtype) * scale
        ratio = mix._bracket(re, im) * inv_mass
        u = rng.random(block, dtype=dtype)
        accepted = np.flatnonzero(u < ratio)
        idx = accepted[:count - filled]
        surplus = len(accepted) - len(idx)
        rows.append(re[idx] + 1j * im[idx])
        filled += len(idx)
    return np.concatenate(rows), len(rows), surplus


def product_then_add_angles(mix, re, im):
    """The angles as the sampler summed them before `angles`: for each pair,
    coordinate by coordinate, one product then one in-place add, in re's dtype."""
    coords = [*re.T, *im.T]
    theta = np.empty((mix._phase.shape[1], len(re)), dtype=re.dtype)
    term = np.empty(len(re), dtype=re.dtype)
    for th, weights in zip(theta, mix._phase.T.astype(re.dtype.type)):
        np.multiply(coords[0], weights[0], out=th)
        for coord, w in zip(coords[1:], weights[1:]):
            th += np.multiply(coord, w, out=term)
    return theta


# One deep block per case: at shapes that `angles` leaves whole, at two whole
# column slices, and at three whole slices and one column more, which the
# last slice absorbs.
DEEP_BLOCKS = """
import numpy as np
from cvlearn.measurements import MATMUL_MACS
from cvlearn.numerics import make_rng

def deep_blocks():
    for dtype in (np.float32, np.float64):
        for pairs, depth in ((1, 2), (2, 3), (5, 4), (10, 6), (17, 6)):
            rng = make_rng(90 + pairs)
            step = max(2, MATMUL_MACS // (pairs * depth))
            for lead in ((), (2,)):
                for rows in (1, 2, 3, 65_536, 2 * step, 3 * step + 1):
                    drawn = rng.standard_normal((*lead, rows, depth)).astype(dtype)
                    parts = rng.standard_normal((*lead, depth, rows)).astype(dtype)
                    for block in (drawn.swapaxes(-1, -2), parts):
                        yield rng.standard_normal((*lead, pairs, depth)).astype(dtype), block
"""
WHOLE_MATMUL_DIGESTS = """
import hashlib, json
print(json.dumps([hashlib.sha256(np.matmul(phase_t, block).tobytes()).hexdigest()
                  for phase_t, block in deep_blocks()]))
"""


class TestAngles:
    ROWS = (1, 2, 3, 65_536)

    @staticmethod
    def coords(rng, lead, depth, rows, dtype, layout):
        """(..., depth, rows) normals: the transpose of (..., rows, depth) as the
        sampler draws them, or C-contiguous as the estimators lay out parts."""
        if layout == "drawn":
            return rng.standard_normal((*lead, rows, depth)).astype(dtype).swapaxes(-1, -2)
        return rng.standard_normal((*lead, depth, rows)).astype(dtype)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
    def test_equals_the_stacked_product(self, dtype, rtol, lead, depth):
        # one block of `depth` coordinates, or two (the sampler's re and im),
        # against phase_t @ vstack(blocks) in float64 on the same inputs
        rng = make_rng(80 + depth)
        for rows in self.ROWS:
            for count, layout, pairs in ((1, "parts", 3), (2, "drawn", 1), (2, "drawn", 2)):
                blocks = [self.coords(rng, lead, depth, rows, dtype, layout)
                          for _ in range(count)]
                phase_t = rng.standard_normal((*lead, pairs, count * depth)).astype(dtype)
                got = angles(phase_t, blocks, np.empty((*lead, pairs, rows), dtype=dtype))
                stacked = np.concatenate(blocks, axis=-2).astype(np.float64)
                want = phase_t.astype(np.float64) @ stacked
                scale = np.abs(phase_t.astype(np.float64)) @ np.abs(stacked)
                assert got.dtype == dtype and got.shape == want.shape
                assert np.all(np.abs(got - want) <= rtol * scale)

    def test_one_deep_block_gives_one_thread_whole_matmul_bits(self):
        # A whole matmul large enough for OpenBLAS to thread may round a
        # tail column differently, so the reference runs in a fresh
        # interpreter at one thread, while `angles` runs here at this
        # process's thread count.
        ns = {}
        exec(DEEP_BLOCKS, ns)
        here = [hashlib.sha256(angles(phase_t, [block], np.empty(
                    (*block.shape[:-2], phase_t.shape[-2], block.shape[-1]),
                    dtype=block.dtype)).tobytes()).hexdigest()
                for phase_t, block in ns["deep_blocks"]()]
        src = str(Path(measurements.__file__).resolve().parents[1])
        env = os.environ | {"OPENBLAS_NUM_THREADS": "1",
                            "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", DEEP_BLOCKS + WHOLE_MATMUL_DIGESTS],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert here == json.loads(proc.stdout)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scheme", ["bell", "heterodyne"])
    @pytest.mark.parametrize("family", ["three", "five"])
    def test_n1_bits_equal_product_then_add(self, dtype, scheme, family):
        u = random_symmetric_unitary(1, make_rng(95))
        st = make_three_peak(1, 0.75, 0.25, [0.9 + 0.4j]) if family == "three" \
            else make_five_peak(1, 0.75, 0.25, [0.9 + 0.4j], u)
        mix = bell_mixture(st, bell_partner(st, u)) if scheme == "bell" \
            else heterodyne_mixture(st)
        rng = make_rng(96)
        for rows in self.ROWS:
            re, im = (rng.standard_normal((rows, 1), dtype=dtype) for _ in range(2))
            got = angles(mix._phase.T, [re.T, im.T],
                         np.empty((mix._phase.shape[1], rows), dtype=dtype))
            assert np.array_equal(got, product_then_add_angles(mix, re, im))


class TestSampleStream:
    def mixture(self, scheme, n):
        u = random_symmetric_unitary(n, make_rng(60 + n))
        st = make_three_peak(n, 0.75, 0.25, np.full(n, 0.9 + 0.4j))
        return bell_mixture(st, bell_partner(st, u)) if scheme == "bell" \
            else heterodyne_mixture(st)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scheme", ["bell", "heterodyne"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_loop(self, dtype, scheme, n):
        mix = self.mixture(scheme, n)
        got = mix.sample(5000, make_rng(61, stream=n), dtype=dtype)
        want, _, _ = reference_sample(mix, 5000, make_rng(61, stream=n), dtype)
        assert got.dtype == (np.complex64 if dtype == np.float32 else np.complex128)
        assert got.shape == (5000, n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scheme", ["bell", "heterodyne"])
    @pytest.mark.parametrize("count", [1, 5, 50])
    def test_matches_reference_loop_at_small_counts(self, dtype, scheme, count):
        # A block holds int(1.2 count mass) rows, with no floor; further
        # blocks of the same size fill what the first one leaves.
        mix = self.mixture(scheme, 2)
        got = mix.sample(count, make_rng(67, stream=count), dtype=dtype)
        want, blocks, _ = reference_sample(mix, count, make_rng(67, stream=count), dtype)
        assert got.shape == (count, 2)
        assert np.array_equal(got, want)
        if (scheme, count) == ("heterodyne", 5):   # on these streams the first block falls short
            assert blocks == 2

    def test_matches_reference_loop_over_many_blocks(self):
        # Criterion-5 scale: about 33 full blocks, the last filling the
        # output part way, with accepted rows left over.
        mix = self.mixture("bell", 1)
        count = 1_900_000
        got = mix.sample(count, make_rng(62), dtype=np.float32)
        want, blocks, surplus = reference_sample(mix, count, make_rng(62), np.float32)
        assert blocks > 30 and surplus > 0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scheme", ["bell", "heterodyne"])
    def test_matches_reference_loop_across_blocks(self, dtype, scheme):
        # More rows than one block: full SAMPLE_BLOCK blocks until one fills the output.
        mix = self.mixture(scheme, 2)
        count = 150_000
        assert int(1.2 * count * mix.envelope_mass) > 2 * SAMPLE_BLOCK
        got = mix.sample(count, make_rng(63), dtype=dtype)
        want, blocks, _ = reference_sample(mix, count, make_rng(63), dtype)
        assert blocks > 2
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["bell", "heterodyne"])
    def test_single_block_streams_are_pinned(self, scheme):
        # A draw that one block covers (int(1.2 count mass) <= SAMPLE_BLOCK)
        # keeps the bytes it had when each batch was drawn whole.
        digest = {"bell": "c1738b52c718a0d14037ef058dd9d7e10919cb39a71ba1abf68453130c1a2a2e",
                  "heterodyne": "b27e1df44825429cf7dde52e4fd3b364879de634f04dd141f5684bdfa34b3500"}
        st = make_three_peak(2, 0.75, 0.25, np.array([0.9 + 0.4j, -0.5j]))
        partner = bell_partner(st, random_symmetric_unitary(2, make_rng(68)))
        if scheme == "bell":
            mix, rec = bell_mixture(st, partner), sample_bell(st, partner, 25_000, seed=69)
        else:
            mix, rec = heterodyne_mixture(st), sample_heterodyne(st, 25_000, seed=70)
        assert int(1.2 * 25_000 * mix.envelope_mass) <= SAMPLE_BLOCK
        assert hashlib.sha256(rec.outcomes.tobytes()).hexdigest() == digest[scheme]


def traced_excess(mix, count):
    """Peak memory traced while `sample` runs, above its output."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = mix.sample(count, make_rng(64), dtype=np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base - out.nbytes


class TestSampleBlocks:
    def test_memory_beyond_output_and_proposals_is_bounded(self):
        # NumPy reports its buffers to tracemalloc; only the output may grow
        # with the count, up to criterion 5's 2,156,928 n=3 draws.
        st = make_three_peak(3, 0.75, 0.25, np.full(3, 0.9 + 0.4j))
        mix = bell_mixture(st, bell_partner(st, random_symmetric_unitary(3, make_rng(63))))
        for count in [200_000, 2_156_928]:
            assert traced_excess(mix, count) <= 4 * 2 ** 20

    def test_guard_checks_filling_block_rows_beyond_the_output(self):
        # Thermal: ratio 1, so every proposal is accepted; the second block
        # fills the output, and only its last row, which the output does not
        # need, has a corrupted ratio.
        mix = heterodyne_mixture(make_thermal(1, 0.5))
        count = 110_000
        assert SAMPLE_BLOCK < count < 2 * SAMPLE_BLOCK
        bracket, calls = mix._bracket, []

        def corrupting(call):
            def traced(re, im):
                out = bracket(re, im)
                calls.append(len(out))
                if len(calls) == call:
                    out[-1] = (1.0 + 10 * ENVELOPE_GUARD[np.float64]) * mix.envelope_mass
                return out
            return traced

        mix._bracket = corrupting(2)
        with pytest.raises(NumericFailure, match="envelope"):
            mix.sample(count, make_rng(65))
        assert calls == [SAMPLE_BLOCK, SAMPLE_BLOCK]
        # Uncorrupted, sampling stops after the block that fills the output.
        calls.clear()
        mix._bracket = corrupting(None)
        assert mix.sample(count, make_rng(65)).shape == (count, 1)
        assert calls == [SAMPLE_BLOCK, SAMPLE_BLOCK]

    def test_dtype_given_by_name_or_dtype_object(self):
        mix = heterodyne_mixture(make_three_peak(2, 0.6, 0.2, np.array([0.8, -0.3j])))
        draws = [mix.sample(500, make_rng(66), dtype=d)
                 for d in ["float32", np.dtype("float32"), np.float32]]
        assert all(z.dtype == np.complex64 and z.shape == (500, 2) for z in draws)
        assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])
        wide = mix.sample(500, make_rng(66), dtype="float64")
        assert wide.dtype == np.complex128
        assert np.array_equal(wide, mix.sample(500, make_rng(66), dtype=np.float64))
        with pytest.raises(ValidationError, match="float32 or float64"):
            mix.sample(10, make_rng(0), dtype="int32")

    @pytest.mark.parametrize("count", [0, 2.5, True, "3"])
    def test_count_must_be_a_positive_integer(self, count):
        mix = heterodyne_mixture(make_thermal(1, 0.5))
        with pytest.raises(ValidationError, match="count must be an integer >= 1"):
            mix.sample(count, make_rng(0))


def accepted_per_block(mix, blocks, rng, dtype):
    """Rows each full SAMPLE_BLOCK block of the reference loop accepts."""
    dt = np.dtype(dtype).type
    scale, inv_mass = dt(np.sqrt(mix.variance)), dt(1.0 / mix.envelope_mass)
    counts = []
    for _ in range(blocks):
        re = rng.standard_normal((SAMPLE_BLOCK, mix.n), dtype=dtype) * scale
        im = rng.standard_normal((SAMPLE_BLOCK, mix.n), dtype=dtype) * scale
        ratio = mix._bracket(re, im) * inv_mass
        counts.append(int(np.count_nonzero(rng.random(SAMPLE_BLOCK, dtype=dtype) < ratio)))
    return counts


class TestStreamEnd:
    """After `sample`, the caller's generator is where the reference loop leaves it."""

    mixture = TestSampleStream.mixture

    def assert_matches_reference(self, mix, count, seed, dtype):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        got = mix.sample(count, rng, dtype=dtype)
        want, blocks, _ = reference_sample(mix, count, ref_rng, dtype)
        assert np.array_equal(got, want)
        assert np.array_equal(rng.random(16), ref_rng.random(16))
        return blocks

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [5000, 150_000])
    def test_one_and_several_blocks(self, dtype, count):
        blocks = self.assert_matches_reference(self.mixture("bell", 2), count, 72, dtype)
        assert (blocks == 1) == (count == 5000)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_drawn_ahead_but_not_needed(self, dtype):
        # Pick a count whose last block accepts more rows than expected: it is
        # drawn while block < rows still needed * envelope_mass, so the next
        # block's re is drawn ahead, and then it fills the output.
        mix = self.mixture("bell", 2)
        counts = accepted_per_block(mix, 8, make_rng(73), dtype)
        need = int(SAMPLE_BLOCK / mix.envelope_mass) + 1
        k = next(k for k in range(1, 8) if counts[k] >= need)
        count = sum(counts[:k]) + need
        assert SAMPLE_BLOCK < (count - sum(counts[:k])) * mix.envelope_mass
        assert self.assert_matches_reference(mix, count, 73, dtype) == k + 1

    def test_failure_beside_a_draw_ahead_propagates(self):
        # Thermal: every proposal is accepted, so the worker thread draws the
        # second block's re while the first block is bracketed; the failure
        # waits for that draw, and the next call starts clean.
        mix = heterodyne_mixture(make_thermal(1, 0.5))
        count = 110_000
        assert SAMPLE_BLOCK < count * mix.envelope_mass
        bracket = mix._bracket

        def corrupting(re, im):
            out = bracket(re, im)
            out[0] = (1.0 + 10 * ENVELOPE_GUARD[np.float64]) * mix.envelope_mass
            return out

        mix._bracket = corrupting
        rng, ref_rng = make_rng(74), make_rng(74)
        with pytest.raises(NumericFailure, match="envelope"):
            mix.sample(count, rng)
        # re, im and u of the first block, then the second block's re
        for draw in ["standard_normal", "standard_normal", "random", "standard_normal"]:
            getattr(ref_rng, draw)(SAMPLE_BLOCK)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        del mix._bracket
        self.assert_matches_reference(mix, count, 74, np.float64)


def draw_and_estimate():
    """Digest of a multi-block float32 sample and its M=10 chi^2 means."""
    st = make_three_peak(1, 0.75, 0.25, np.array([0.9 + 0.4j]))
    mix = bell_mixture(st, bell_partner(st, random_symmetric_unitary(1, make_rng(75))))
    z = mix.sample(300_000, make_rng(76), dtype=np.float32)
    alphas = 0.5 * make_rng(77).normal(size=(10, 2)).view(complex)
    v = chi_squared_means(z, alphas, dtype=np.float32)
    return hashlib.sha256(z.tobytes() + v.tobytes()).hexdigest()


class TestForkedChild:
    def test_child_samples_and_estimates_after_the_parent(self):
        # The parent's worker thread has run; a forked child has none of its
        # own until it starts one, and must not wait on the parent's.
        want = draw_and_estimate()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(draw_and_estimate).get(timeout=60) == want


class TestHeterodyne:
    def test_matches_s_qpd_at_minus_one(self):
        rng = make_rng(24)
        for n in [1, 2, 3]:
            g = rng.normal(size=n) + 1j * rng.normal(size=n)
            u = random_symmetric_unitary(n, rng)
            for st in [make_three_peak(n, 0.6, 0.2, g), make_five_peak(n, 0.8, 0.2, g, u)]:
                z = 1.2 * (rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n)))
                assert np.max(np.abs(heterodyne_mixture(st).value(z) - s_qpd(st, -1.0, z))) < 1e-12

    def test_vacuum_limit(self):
        st = make_thermal(1, 1e-6)
        for z in [0.0, 0.5 + 0.5j, 1.5]:
            got = heterodyne_mixture(st).value(np.array([z]))
            assert got == pytest.approx(math.exp(-abs(z) ** 2) / math.pi, rel=1e-4)

    def test_matches_fock_oracle(self):
        st = make_three_peak(1, 0.6, 0.22, np.array([1.1 - 0.2j]))
        fm = build_state(st)
        rng = make_rng(20)
        pts = 1.5 * (rng.normal(size=(50, 1)) + 1j * rng.normal(size=(50, 1)))
        closed = heterodyne_mixture(st).value(pts)
        oracle = np.array([husimi(fm, p) for p in pts])
        assert np.max(np.abs(closed - oracle)) < 1e-6

    def test_normalization_and_nonnegativity(self):
        st = make_three_peak(1, 0.7, 0.25, np.array([1.3]))
        mix = heterodyne_mixture(st)
        pts, area = grid_1mode(6 * math.sqrt(st.a + 0.5))
        vals = mix.value(pts)
        assert np.min(vals) > -1e-9
        assert np.sum(vals) * area == pytest.approx(1.0, abs=1e-5)

    def test_single_copy_indistinguishability(self):
        # (Q_{+gamma} + Q_{-gamma})/2 == Q_thermal pointwise: the sine terms cancel.
        g = np.array([0.9 + 0.7j])
        plus = make_three_peak(1, 0.6, 0.2, g)
        minus = make_three_peak(1, 0.6, 0.2, -g)
        th = make_thermal(1, 0.6)
        pts, _ = grid_1mode(5.0, points=101)
        avg = 0.5 * (heterodyne_mixture(plus).value(pts)
                     + heterodyne_mixture(minus).value(pts))
        assert np.max(np.abs(avg - heterodyne_mixture(th).value(pts))) < 1e-12

    def test_unbiased_char_estimates(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        rec = sample_heterodyne(st, 100_000, seed=9)
        z = rec.outcomes[:, 0]
        for al in [0.3, 0.9j, 1.0 + 0.5j, -1.2, 0.7 - 0.7j]:
            summands = np.exp(abs(al) ** 2 / 2) * np.exp(2j * np.imag(np.conj(z) * al))
            est = np.mean(summands)
            se = math.sqrt((np.var(summands.real) + np.var(summands.imag)) / rec.count)
            truth = complex(char_fn(st, np.array([al])))
            assert abs(est - truth) < 3 * se + 1e-12

    def test_thermal_variance(self):
        st = make_thermal(1, 0.6)
        rec = sample_heterodyne(st, 200_000, seed=2)
        coords = np.concatenate([rec.outcomes.real.ravel(), rec.outcomes.imag.ravel()])
        v = (2 * st.a + 1) / 4  # per-coordinate variance of the analytic Q Gaussian
        assert abs(np.var(coords) - v) < 3 * v * math.sqrt(2.0 / coords.size)

    def test_deterministic(self):
        st = make_thermal(1, 0.4)
        assert np.array_equal(sample_heterodyne(st, 100, seed=1).outcomes,
                              sample_heterodyne(st, 100, seed=1).outcomes)


class TestEnvelopeAndRecords:
    def test_envelope_violation_aborts(self):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        mix = heterodyne_mixture(st)
        mix.envelope_mass *= 0.5  # corrupt the dominating envelope
        with pytest.raises(NumericFailure, match="envelope"):
            mix.sample(1000, make_rng(0))

    def test_record_round_trip(self, tmp_path):
        st = make_three_peak(2, 0.5, 0.2, np.array([0.5, -0.2j]))
        rec = sample_heterodyne(st, 64, seed=4)
        path = tmp_path / "rec.jsonl"
        rec.write_jsonl(path)
        back = MeasurementRecord.read_jsonl(path)
        assert back.scheme == "heterodyne" and back.n == 2 and back.seed == 4
        assert np.max(np.abs(back.outcomes - rec.outcomes)) < 1e-15
        assert back.state_descriptor == rec.state_descriptor

    def test_empty_record_rejected(self):
        with pytest.raises(ValidationError):
            MeasurementRecord(scheme="bell", outcomes=np.zeros((0, 1)),
                              state_descriptor={}, seed=0, n=1)


def pair_terms(state, scheme):
    """The signed term list (amps, oscs, variance) written out from the pair formula."""
    a, s2 = state.a, state.sigma2
    w, g = state.weights, state.centers
    abs2 = np.sum(np.abs(g) ** 2, axis=1)
    if scheme == "heterodyne":
        t = a + 0.5
        return (w * np.exp((1.0 / (4.0 * t * s2 ** 2) - a) * abs2),
                np.conj(g) / (t * s2), t / 2.0)
    amps, oscs = [], []
    for j in range(len(w)):
        for k in range(len(w)):
            m = g[j] + g[k]
            amps.append(w[j] * w[k] * np.exp(-a * (abs2[j] + abs2[k])
                                             + np.sum(np.abs(m) ** 2) / (8.0 * a * s2 ** 2)))
            oscs.append(m / (2.0 * a * s2))
    return np.array(amps), np.array(oscs), a


def merged_moduli_sum(amps, oscs):
    groups = []
    for amp, osc in zip(amps, oscs):
        for grp in groups:
            if np.linalg.norm(osc - grp[1]) <= 1e-12:
                grp[0] += amp
                break
        else:
            groups.append([complex(amp), osc])
    return sum(abs(amp) for amp, _ in groups)


class TestPhasorForm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    @pytest.mark.parametrize("scheme", ["bell", "heterodyne"])
    def test_value_matches_direct_term_sum(self, n, family, scheme):
        rng = make_rng(40 + n)
        u = random_symmetric_unitary(n, rng)
        g = 0.7 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        if family == "three_peak":
            st = make_three_peak(n, 0.65, 0.2, g)
            partner = bell_partner(st, u)
        else:
            st = make_five_peak(n, 0.65, 0.2, g, u)
            partner = apply_circuit(st, u)
        mix = bell_mixture(st, partner) if scheme == "bell" else heterodyne_mixture(st)
        amps, oscs, var = pair_terms(st, scheme)
        zeta = 1.3 * (rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n)))
        gauss = (np.exp(-np.sum(np.abs(zeta) ** 2, axis=1) / (2.0 * var))
                 / (2.0 * math.pi * var) ** n)
        bracket = np.real(np.exp(1j * np.imag(zeta @ oscs.T)) @ amps)
        assert np.max(np.abs(mix.value(zeta) - gauss * bracket)) < 1e-12
        assert mix.envelope_mass == pytest.approx(merged_moduli_sum(amps, oscs), abs=1e-12)

    def test_unpaired_frequency_rejected(self):
        with pytest.raises(NumericFailure, match="conjugate partner"):
            SignedGaussianMixture(n=1, variance=1.0, freqs=[[0.0], [0.5]], coefs=[1.0, 0.1])

    def test_unpaired_coefficients_rejected(self):
        # paired frequencies, but c_{-f} != conj(c_f): the bracket is not real
        with pytest.raises(NumericFailure, match="not real"):
            SignedGaussianMixture(n=1, variance=1.0, freqs=[[0.0], [0.5], [-0.5]],
                                  coefs=[1.0, 0.1j, 0.1j])

    def test_unsupported_sample_dtype_rejected(self):
        mix = heterodyne_mixture(make_thermal(1, 0.5))
        with pytest.raises(ValidationError, match="float32 or float64"):
            mix.sample(10, make_rng(0), dtype=np.float16)


class TestPeakMixtures:
    """Family members built in one call against the per-state constructors."""

    @staticmethod
    def single(family, n, nu, eps0, g, u, scheme):
        st = (make_three_peak(n, nu, eps0, g) if family == "three_peak"
              else make_five_peak(n, nu, eps0, g, u))
        if scheme == "bell":
            return bell_mixture(st, bell_partner(st, u))
        return heterodyne_mixture(reflect(st, u) if scheme == "reflected" else st)

    def assert_members_match(self, family, n, nu, eps0, gammas, u, scheme, rng):
        weights, centers = peak_layout(n, eps0, gammas, u if family == "five_peak" else None)
        if scheme == "reflected":
            centers = np.conj(centers) @ u.matrix
        members = peak_mixtures("bell" if scheme == "bell" else "heterodyne", nu, weights,
                                centers)
        zeta = 1.3 * (rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n)))
        for g, mix in zip(gammas, members):
            ref = self.single(family, n, nu, eps0, g, u, scheme)
            assert np.max(np.abs(mix.value(zeta) - ref.value(zeta))) < 1e-12
            assert np.max(np.abs(mix.log_value(zeta) - ref.log_value(zeta))) < 1e-12
            assert mix.envelope_mass == pytest.approx(ref.envelope_mass, abs=1e-12)
            assert mix.normalization_audit == pytest.approx(ref.normalization_audit, abs=1e-12)
            for dtype in (np.float32, np.float64):
                seed = int(rng.integers(1 << 30))
                assert np.array_equal(mix.sample(50, make_rng(seed), dtype=dtype),
                                      ref.sample(50, make_rng(seed), dtype=dtype))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", ["three_peak", "five_peak"])
    @pytest.mark.parametrize("scheme", ["bell", "heterodyne", "reflected"])
    def test_members_match_single_states(self, n, family, scheme):
        rng = make_rng(70 + n)
        u = random_symmetric_unitary(n, rng)
        gammas = 0.9 * (rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n)))
        self.assert_members_match(family, n, 0.8, 0.2, gammas, u, scheme, rng)

    @pytest.mark.parametrize("scheme", ["bell", "heterodyne", "reflected"])
    def test_merged_five_peak_members(self, scheme):
        # U = I and a real gamma give U^T gamma* = gamma: the five peaks merge to
        # three, as PeakState merges them, next to members that do not merge.
        u = SymmetricUnitary(matrix=np.eye(2, dtype=complex))
        gammas = np.array([[0.7, -0.4], [0.5 + 0.3j, 0.2j], [-1.1, 0.3]], dtype=complex)
        self.assert_members_match("five_peak", 2, 0.8, 0.2, gammas, u, scheme, make_rng(2))
        assert len(make_five_peak(2, 0.8, 0.2, gammas[0], u).weights) == 3
        assert len(make_five_peak(2, 0.8, 0.2, gammas[1], u).weights) == 5


class TestRecordChecks:
    def _write(self, path, header, rows):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def _header(self, drop=None):
        h = {"scheme": "heterodyne", "n": 1, "seed": 3, "count": 4, "state_descriptor": {}}
        h.pop(drop, None)
        return h

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        rec = sample_heterodyne(make_thermal(1, 0.5), 1000, seed=1)
        rec.write_jsonl(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:500]))     # header + 499 rows
        with pytest.raises(ValidationError, match="1000 outcomes but 499"):
            MeasurementRecord.read_jsonl(path)

    @pytest.mark.parametrize("key, value", [("n", 1.5), ("n", True), ("count", 2.9),
                                            ("count", 2.0), ("seed", 2.7), ("seed", "3")])
    def test_non_integer_header_field_rejected(self, tmp_path, key, value):
        # read as written, not truncated by int()
        path = tmp_path / "rec.jsonl"
        self._write(path, {**self._header(), key: value}, [[0.1, 0.2]] * 4)
        with pytest.raises(ValidationError, match=f"record header {key} must be an integer"):
            MeasurementRecord.read_jsonl(path)

    @pytest.mark.parametrize("seed", [2.7, 3.0, "3", True, -1])
    def test_record_seed_must_be_an_integer(self, seed):
        # a record that write_jsonl could write but read_jsonl would refuse
        with pytest.raises(ValidationError, match="record seed must be an integer"):
            MeasurementRecord(scheme="heterodyne", outcomes=np.array([0.5, 0.25j]),
                              state_descriptor={}, seed=seed, n=1)

    @pytest.mark.parametrize("key", ["seed", "n", "scheme", "count"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = tmp_path / "rec.jsonl"
        self._write(path, self._header(drop=key), [[0.1, 0.2]] * 4)
        with pytest.raises(ValidationError, match=f"lacks '{key}'"):
            MeasurementRecord.read_jsonl(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        self._write(path, self._header(), [[0.1, 0.2]] * 3 + [[0.1]])
        with pytest.raises(ValidationError, match="malformed"):
            MeasurementRecord.read_jsonl(path)

    def _write_text(self, path, body):
        path.write_text(json.dumps(self._header()) + "\n" + body)

    def test_row_split_over_two_lines_rejected(self, tmp_path):
        # "[0.1" and " 0.2]" joined by a comma would read as one row
        path = tmp_path / "rec.jsonl"
        self._write_text(path, "[0.1, 0.2]\n" * 2 + "[0.1\n 0.2]\n[0.1, 0.2]\n")
        with pytest.raises(ValidationError, match="malformed"):
            MeasurementRecord.read_jsonl(path)

    def test_two_arrays_on_one_line_rejected(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        self._write_text(path, "[0.1, 0.2], [0.3, 0.4]\n" + "[0.1, 0.2]\n" * 2)
        with pytest.raises(ValidationError, match="malformed"):
            MeasurementRecord.read_jsonl(path)

    def test_split_row_and_double_line_together_rejected(self, tmp_path):
        # as many lines as rows and as many brackets as lines, yet no line
        # holds one row
        path = tmp_path / "rec.jsonl"
        self._write_text(path, "[0.1\n 0.2], [0.3, 0.4]\n" + "[0.1, 0.2]\n" * 2)
        with pytest.raises(ValidationError, match="malformed"):
            MeasurementRecord.read_jsonl(path)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_written_bytes_match_orjson_per_row(self, tmp_path, n):
        rng = make_rng(11)
        z = rng.normal(size=(50, 2 * n)) * 10.0 ** rng.integers(-8, 8, size=(50, 2 * n)) \
            + 1j * rng.normal(size=(50, 2 * n))
        z[0, 0] = -0.0 + 0j
        z[1, 0] = 1e300 - 1e-300j
        # a strided view, as a caller slicing a wider array would pass
        rec = MeasurementRecord(scheme="bell", outcomes=z[:, ::2],
                                state_descriptor={"k": [1, 2]}, seed=9, n=n)
        path = tmp_path / "rec.jsonl"
        rec.write_jsonl(path)
        header = {"scheme": "bell", "n": n, "seed": 9, "count": 50,
                  "state_descriptor": {"k": [1, 2]}}
        expect = (json.dumps(header) + "\n").encode() + b"".join(
            orjson.dumps([v for c in row for v in (float(c.real), float(c.imag))]) + b"\n"
            for row in rec.outcomes)
        assert path.read_bytes() == expect
        back = MeasurementRecord.read_jsonl(path)
        assert np.array_equal(back.outcomes, rec.outcomes)

    def test_edge_values_read_by_json_to_same_bits(self, tmp_path):
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e-7, 1e16, 1e22, 0.1, 1 / 3]
        x = np.array(edges + [-v for v in edges])
        x = np.concatenate([x, make_rng(4).permutation(x)]).reshape(-1, 4)
        rec = MeasurementRecord(scheme="bell", outcomes=x.view(complex),
                                state_descriptor={}, seed=1, n=2)
        path = tmp_path / "rec.jsonl"
        rec.write_jsonl(path)
        rows = np.array([json.loads(line) for line in path.read_text().splitlines()[1:]])
        back = MeasurementRecord.read_jsonl(path).outcomes.view(float)
        assert np.array_equal(rows.view(np.uint64), x.view(np.uint64))
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))

    def test_records_written_by_json_dumps_read_bit_for_bit(self, tmp_path):
        # the earlier writer: ", " separators, Python's float repr (1e-07,
        # 1e+300), and here CRLF line ends
        x = make_rng(5).normal(size=(30, 4)) * 10.0 ** make_rng(6).integers(-9, 9, size=(30, 4))
        x[0] = [1e-07, -1e+300, -0.0, 1e16]
        header = {"scheme": "bell", "n": 2, "seed": 3, "count": 30}
        path = tmp_path / "rec.jsonl"
        path.write_bytes("".join(json.dumps(v) + "\r\n" for v in [header, *x.tolist()]).encode())
        assert b"1e-07, -1e+300, -0.0" in path.read_bytes()
        back = MeasurementRecord.read_jsonl(path).outcomes.view(float)
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))

    def test_record_memory_is_bounded_by_the_outcomes(self, tmp_path):
        # the body is written and read RECORD_BLOCK rows at a time; the parsed
        # rows are gathered once, so a read holds about twice the outcomes
        z = make_rng(8).normal(size=(250_000, 4)).view(complex)
        rec = MeasurementRecord(scheme="bell", outcomes=z, state_descriptor={}, seed=1, n=2)
        path = tmp_path / "rec.jsonl"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rec.write_jsonl(path)
            write_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = MeasurementRecord.read_jsonl(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert write_peak <= 16 * 10 ** 6 and read_peak <= 40 * 10 ** 6
        assert np.array_equal(back.outcomes.view(np.uint64), z.view(np.uint64))

    def test_read_holds_the_outcomes_once(self, tmp_path):
        # One array, grown as rows arrive, holds the outcomes (8 MB here);
        # beyond it a read holds one RECORD_BLOCK block's lines, text and
        # parsed values, about 6 MB. Gathering the blocks and then joining
        # them would hold the outcomes twice.
        z = make_rng(9).normal(size=(250_000, 4)).view(complex)
        path = tmp_path / "rec.jsonl"
        MeasurementRecord(scheme="bell", outcomes=z, state_descriptor={}, seed=1,
                          n=2).write_jsonl(path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = MeasurementRecord.read_jsonl(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert read_peak <= z.nbytes + 7 * 10 ** 6
        assert np.array_equal(back.outcomes.view(np.uint64), z.view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcomes_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            MeasurementRecord(scheme="heterodyne", outcomes=np.array([0.5, bad]),
                              state_descriptor={}, seed=0, n=1)

    @pytest.mark.parametrize("n", [0, -1, 1.0, True])
    def test_mode_count_below_one_or_not_integer_rejected(self, n):
        with pytest.raises(ValidationError, match="mode count n must be an integer >= 1"):
            MeasurementRecord(scheme="heterodyne", outcomes=np.array([0.5, 0.25j]),
                              state_descriptor={}, seed=0, n=n)

    @pytest.mark.parametrize("shape, n", [((4, 2), 1), ((2, 3, 2), 2), ((3,), 2)])
    def test_outcomes_of_another_shape_rejected(self, shape, n):
        # (4, 2) at n=1 is not 8 outcomes, nor (2, 3, 2) at n=2 six of them
        with pytest.raises(ValidationError, match=f"rows of {n} components"):
            MeasurementRecord(scheme="heterodyne", outcomes=np.zeros(shape),
                              state_descriptor={}, seed=0, n=n)

    def test_flat_outcomes_are_whole_rows(self):
        rec = MeasurementRecord(scheme="heterodyne", outcomes=np.arange(4.0),
                                state_descriptor={}, seed=0, n=2)
        assert rec.outcomes.tolist() == [[0.0, 1.0], [2.0, 3.0]]


class TestRecordFormat:
    """The reader's grammar: one flat JSON array of 2n numbers per non-blank line."""

    def _write_body(self, path, body, n=1, count=2):
        header = {"scheme": "heterodyne", "n": n, "seed": 3, "count": count}
        with open(path, "w", newline="") as fh:   # keep "\r\n" as written
            fh.write(json.dumps(header) + "\n" + body)

    @pytest.mark.parametrize("body", ["[0.1, 0.2, 0.3]\n[0.4]\n", "[0.1]\n[0.2, 0.3, 0.4]\n"])
    def test_ragged_rows_with_matching_total_rejected(self, tmp_path, body):
        # four values over two rows is the right total at n=1, but no row has two
        path = tmp_path / "rec.jsonl"
        self._write_body(path, body)
        with pytest.raises(ValidationError, match="malformed"):
            MeasurementRecord.read_jsonl(path)

    @pytest.mark.parametrize("body", ["", "\n\n  \n"])
    def test_empty_body_reports_zero_rows(self, tmp_path, body):
        path = tmp_path / "rec.jsonl"
        self._write_body(path, body)
        with pytest.raises(ValidationError, match="says 2 outcomes but 0 rows follow"):
            MeasurementRecord.read_jsonl(path)

    def test_blank_padded_and_crlf_lines_read(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        body = "  [0.1, 0.2]  \r\n\r\n\t[ 0.3 ,0.4 ]\n\n[0.5, 0.6]\r\n[0.7, 0.8]"
        self._write_body(path, body, count=4)
        back = MeasurementRecord.read_jsonl(path)
        assert np.array_equal(back.outcomes[:, 0],
                              [0.1 + 0.2j, 0.3 + 0.4j, 0.5 + 0.6j, 0.7 + 0.8j])

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        self._write_body(path, "[1" + "0" * 400 + ", 0.2]\n[0.3, 0.4]\n")
        with pytest.raises(ValidationError, match="malformed"):
            MeasurementRecord.read_jsonl(path)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_is_bit_exact_with_signed_zeros(self, tmp_path, n):
        z = make_rng(12).normal(size=(40, 2 * n)).view(complex)
        z[0, 0] = complex(-0.0, 0.5)
        z[1, 0] = complex(0.3, -0.0)
        z[2, -1] = complex(-0.0, -0.0)
        rec = MeasurementRecord(scheme="heterodyne", outcomes=z, state_descriptor={},
                                seed=1, n=n)
        path = tmp_path / "rec.jsonl"
        rec.write_jsonl(path)
        written = np.array([json.loads(line) for line in path.read_text().splitlines()[1:]])
        back = MeasurementRecord.read_jsonl(path).outcomes.view(float)
        assert np.array_equal(back, written) and np.array_equal(written, z.view(float))
        assert np.array_equal(np.signbit(back), np.signbit(written))
        assert np.signbit(back[0, 0]) and np.signbit(back[1, 1]) and np.signbit(back[2, -2:]).all()

    def test_large_round_trip_runs_no_young_collections(self, tmp_path):
        # per-row lists or tuples would trigger dozens of generation-0 sweeps
        z = make_rng(2).normal(size=(25_000, 4)).view(complex)
        rec = MeasurementRecord(scheme="bell", outcomes=z, state_descriptor={}, seed=1, n=2)
        path = tmp_path / "rec.jsonl"
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        rec.write_jsonl(path)
        back = MeasurementRecord.read_jsonl(path)
        assert gc.get_stats()[0]["collections"] - before <= 2
        assert np.array_equal(back.outcomes, rec.outcomes)
