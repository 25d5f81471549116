"""Input checks across the package: each malformed input raises ValidationError
with its own message, before any work is done."""

import math
from functools import lru_cache, partial

import numpy as np
import pytest

from cvlearn.bounds import BoundInputs, classicality_thresholds, emit_curves
from cvlearn.channel_bridge import (ChannelSpec, choi_char, fock1_channel_density, fock1_lambda,
                                    fock1_negativity_annulus, lambda_from_state, r_star)
from cvlearn.errors import ValidationError
from cvlearn.estimators import (PlannerInputs, effective_radius, estimate_record, resolve_sign,
                                scheme_cost)
from cvlearn.fock_oracle import (FockMatrix, build_state, char_trace, husimi, petz_d2,
                                 wigner_parity)
from cvlearn.game import (GameConfig, five_peak_window_probability, per_copy_tvd_bound,
                          tvd_pair, window_probability)
from cvlearn.measurements import (MeasurementRecord, bell_mixture, heterodyne_mixture, sample_bell,
                                  validate_bell_pair)
from cvlearn.numerics import (SymmetricUnitary, make_rng, psd_check, regularized_upper_gamma,
                              sample_complex_gaussian)
from cvlearn.states import (PeakState, apply_circuit, char_fn, classicality_smax, make_five_peak,
                            make_thermal, make_three_peak, make_three_peak_classical,
                            peak_layout, reflect, s_char_fn, s_qpd, wigner)

U2 = SymmetricUnitary(matrix=np.eye(2))
GAME = dict(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0, copies=4)
THERMAL = make_thermal(1, 0.5)
HET = MeasurementRecord(scheme="heterodyne", outcomes=np.zeros((4, 1)), state_descriptor={},
                        seed=0, n=1)


def _unit(batch):
    """lambda(beta) = 1, a valid channel characteristic function."""
    return np.ones(len(batch))


def _tvd_with_short_blocks():
    null = heterodyne_mixture(make_thermal(1, 0.5))
    tvd_pair([(null, 2)], None, 3, np.zeros((1, 1)), 5, make_rng(0))


CHECKS = [
    ("record-scheme", "unknown scheme 'x'",
     lambda: MeasurementRecord(scheme="x", outcomes=np.zeros((1, 1)), state_descriptor={},
                               seed=0, n=1)),
    ("bell-pair-modes", "Bell pair mode counts differ",
     lambda: validate_bell_pair(make_thermal(1, 0.5), make_thermal(2, 0.5))),
    ("thresholds-S-zero", "classicality floor must lie in",
     lambda: classicality_thresholds(0.0, 8, 0.1)),
    ("thresholds-S-one", "classicality floor must lie in",
     lambda: classicality_thresholds(1.0, 8, 0.1)),
    ("thresholds-epsilon", r"epsilon must lie in \(0, 0.245\)",
     lambda: classicality_thresholds(0.5, 8, 0.245)),
    ("curve-axis", "axis must be one of",
     lambda: emit_curves("x", [1.0, 2.0], ["lb_ef"], BoundInputs(epsilon=0.09, kappa=2.0, n=8))),
    ("game-order", "order must be a nonempty string",
     lambda: GameConfig(**GAME, order="")),
    ("game-u-size", "unitary dimension does not match",
     lambda: GameConfig(**GAME, u=U2)),
    ("tvd-blocks", "per-copy blocks must cover exactly n_copies", _tvd_with_short_blocks),
    ("tvd-bound-eps0", "per-copy bound needs",
     lambda: per_copy_tvd_bound(0.5, 2, 0.0, 10)),
    ("layout-shape", r"expected \(m, 2\) complex centers",
     lambda: peak_layout(2, 0.2, np.zeros((3, 1)))),
    ("layout-non-finite", "center vector has non-finite entries",
     lambda: peak_layout(1, 0.2, np.array([[np.nan]]))),
    ("layout-u-size", "unitary is 2x2 but the state has 1 modes",
     lambda: peak_layout(1, 0.2, np.ones((1, 1)), U2)),
    ("reflect-u-size", "reflection unitary dimension mismatch",
     lambda: reflect(make_thermal(1, 0.5), U2)),
    ("circuit-u-size", "circuit unitary dimension mismatch",
     lambda: apply_circuit(make_thermal(1, 0.5), U2)),
    ("r-star-above-one", "classicality cannot exceed 1", lambda: r_star(1.5)),
    ("channel-r", "squeezing parameter must be >= 0",
     lambda: ChannelSpec(r=-1, lam=lambda b: np.ones(len(b)))),
    ("fock-no-terms", "needs its dense data or its factors",
     lambda: FockMatrix(n=1, cutoff=4)),
    ("fock-cutoff", "cutoff must be >= 2",
     lambda: build_state(make_thermal(1, 0.5), cutoff=1)),
    ("petz-five-peak", "requires a non-degenerate three-peak state",
     lambda: petz_d2(make_five_peak(1, 0.5, 0.2, [0.8 + 0.4j], SymmetricUnitary(matrix=np.eye(1))),
                     make_thermal(1, 0.5))),
    ("petz-non-thermal", "second argument must be the thermal",
     lambda: petz_d2(make_three_peak(1, 0.5, 0.2, [0.8]),
                     make_three_peak(1, 0.5, 0.2, [0.4]))),
]


# Every real-number input, called with x in place of one valid value. Each
# must refuse NaN and +-inf with its own message: before check_real, the
# `x < 0` forms let NaN through, and some let +inf through.
REAL_INPUTS = [
    ("peak-state-nu", "nu must lie in",
     lambda x: PeakState(n=1, nu=x, weights=[1.0], centers=[[0.0]])),
    ("game-nu", "nu must lie in", lambda x: GameConfig(**{**GAME, "nu": x})),
    ("smax-nu", "nu must lie in", lambda x: classicality_smax(x, 0.2, [1.0])),
    ("layout-eps0", "eps0 must lie in", lambda x: peak_layout(1, x, np.ones((1, 1)))),
    ("game-eps0", "eps0 must lie in", lambda x: GameConfig(**{**GAME, "eps0": x})),
    ("smax-eps0", "eps0 must lie in", lambda x: classicality_smax(0.5, x, [1.0])),
    ("s-char-fn-s", "ordering parameter s must lie in", lambda x: s_char_fn(THERMAL, x, [0.5])),
    ("s-qpd-s", "ordering parameter s must lie in", lambda x: s_qpd(THERMAL, x, [0.5])),
    ("game-kappa", "kappa must be a finite number > 0",
     lambda x: GameConfig(**{**GAME, "kappa": x})),
    ("planner-epsilon", r"epsilon must lie in \(0,1\)",
     lambda x: PlannerInputs(epsilon=x, delta=0.1)),
    ("planner-delta", r"delta must lie in \(0,1\)", lambda x: PlannerInputs(epsilon=0.1, delta=x)),
    ("radius-classicality", "positive classicality floor", lambda x: effective_radius(x, 0.1)),
    ("radius-epsilon", r"epsilon must lie in \(0,1\)", lambda x: effective_radius(0.5, x)),
    ("resolve-sign-epsilon", r"epsilon must lie in \(0,1\)", lambda x: resolve_sign(0.5, x)),
    ("estimate-epsilon", r"epsilon must lie in \(0,1\)",
     lambda x: estimate_record(HET, [[0.5]], "heterodyne", x)),
    ("estimate-classicality", "classicality-aware estimation needs S",
     lambda x: estimate_record(HET, [[0.5]], "classicality_aware", 0.1, x)),
    ("cost-alpha2-max", "alpha2_max >= 0",
     lambda x: scheme_cost("heterodyne", PlannerInputs(0.1, 0.1, alpha2_max=x))),
    ("cost-S", r"S in \(0, 1\]",
     lambda x: scheme_cost("classicality_aware", PlannerInputs(0.1, 0.1, S=x))),
    ("classical-three-peak", "classicality target must lie in",
     lambda x: make_three_peak_classical(1, x, 0.2, [1.0])),
    ("thresholds-S", "classicality floor must lie in",
     lambda x: classicality_thresholds(x, 8, 0.1)),
    ("thresholds-epsilon", "epsilon must lie in", lambda x: classicality_thresholds(0.5, 8, x)),
    ("gamma-shape", "shape must be > 0", lambda x: regularized_upper_gamma(x, 1.0)),
    ("gamma-x", "x must be >= 0", lambda x: regularized_upper_gamma(1.0, x)),
    ("gaussian-variance", "variance must be >= 0",
     lambda x: sample_complex_gaussian(1, x, 3, make_rng(0))),
    *[(f"window-{i}", "window probability needs positive parameters",
       lambda x, i=i: window_probability(1, *np.insert([0.2, 0.5], i, x)))
      for i in range(3)],
    *[(f"five-peak-window-{i}", "window probability needs positive parameters",
       lambda x, i=i: five_peak_window_probability(2, *np.insert([0.2, 0.5], i, x)))
      for i in range(3)],
    ("tvd-bound-sigma-gamma2", "per-copy bound needs", lambda x: per_copy_tvd_bound(x, 2, 0.1, 10)),
    ("tvd-bound-eps0", "per-copy bound needs", lambda x: per_copy_tvd_bound(0.5, 2, x, 10)),
    ("channel-spec-r", "squeezing parameter must be >= 0", lambda x: ChannelSpec(r=x, lam=_unit)),
    ("lambda-r", "squeezing parameter must be >= 0",
     lambda x: lambda_from_state(THERMAL, x, sets=1)),
    ("lambda-s-max", "classicality cannot exceed 1",
     lambda x: lambda_from_state(THERMAL, 0.5, s_max=x, sets=1)),
    ("r-star", "squeezing threshold|classicality cannot exceed 1", r_star),
    ("fock1-lambda", r"must lie in \[0, 1\)", fock1_lambda),
    ("fock1-density", "density form needs 0 < c < 1", lambda x: fock1_channel_density(x, 0.5)),
    ("fock1-annulus", "annulus defined for 0 < c < 1", fock1_negativity_annulus),
]

CHECKS += [(f"{name}-{label}", match, lambda call=call, x=x: call(x))
           for name, match, call in REAL_INPUTS
           for label, x in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf))]

CHECKS += [
    ("game-kappa-bool", "kappa must be a finite number > 0",
     lambda: GameConfig(**{**GAME, "kappa": True})),
    ("game-nu-string", "nu must lie in", lambda: GameConfig(**{**GAME, "nu": "0.5"})),
    ("estimate-epsilon-above-one", r"epsilon must lie in \(0,1\), got 5.0",
     lambda: estimate_record(HET, [[0.5]], "heterodyne", 5.0)),
    ("gamma-shape-int-beyond-float", "shape must be > 0",
     lambda: regularized_upper_gamma(10 ** 400, 1.0)),
    ("peak-state-centers-nan", "center vector has non-finite entries",
     lambda: PeakState(n=1, nu=0.5, weights=[1.0, 0.1j, -0.1j],
                       centers=[[0.0], [math.nan], [-math.nan]])),
    ("peak-state-centers-inf", "center vector has non-finite entries",
     lambda: PeakState(n=1, nu=0.5, weights=[1.0, 0.1j, -0.1j],
                       centers=[[0.0], [math.inf], [-math.inf]])),
    ("peak-state-weights-nan", "weight vector has non-finite entries",
     lambda: PeakState(n=1, nu=0.5, weights=[1.0, math.nan], centers=[[0.0], [1.0]])),
    ("symmetric-unitary-nan", "matrix has non-finite entries",
     lambda: SymmetricUnitary(matrix=[[math.nan]])),
    ("symmetric-unitary-inf", "matrix has non-finite entries",
     lambda: SymmetricUnitary(matrix=[[0.0, math.inf], [math.inf, 0.0]])),
    ("psd-check-nan", "matrix has non-finite entries",
     lambda: psd_check([[1.0, math.nan], [math.nan, 1.0]])),
    ("query-points-nan", "query points has non-finite entries",
     lambda: estimate_record(HET, [[complex(math.nan, 0.0)]], "heterodyne")),
    ("query-points-inf", "query points has non-finite entries",
     lambda: estimate_record(HET, [[complex(0.0, math.inf)]], "heterodyne")),
    ("curve-grid-nan", "curve grid has non-finite entries",
     lambda: emit_curves("kappa", [1.0, math.nan], ["ub_bm"],
                         BoundInputs(epsilon=0.09, kappa=2.0, n=8))),
]

# classicality_smax reads gamma as finite numbers, as peak_layout does
CHECKS += [(f"smax-gamma-{label}", "center vector has non-finite entries",
            lambda x=x: classicality_smax(0.5, 0.2, [x]))
           for label, x in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf))]

# The state as its own Bell partner, with peaks far out: its chi and the true
# partner's agree to 1e-8 near the origin, but its peaks are not the state's
# (w, gamma*), and every Bell entry point must refuse it.
FAR_PEAKS = [make_three_peak(1, 0.75, 0.05, [6j]), make_three_peak(2, 0.75, 0.05, [4j, 3j])]
CHECKS += [(f"bell-pair-far-peaks-{name}-n{st.n}", "reflection contract",
            lambda call=call, st=st: call(st, st))
           for st in FAR_PEAKS
           for name, call in (("validate", validate_bell_pair), ("mixture", bell_mixture),
                              ("sample", lambda st, partner: sample_bell(st, partner, 100, 1)))]


@pytest.mark.parametrize("match, call", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_malformed_input_raises_validation_error(match, call):
    with pytest.raises(ValidationError, match=match):
        call()


def _state(n):
    return make_three_peak(n, 0.5, 0.2, np.full(n, 0.3 + 0.1j))


@lru_cache(maxsize=None)
def _oracle(n):
    return build_state(_state(n))


def _record(n):
    return MeasurementRecord(scheme="heterodyne", outcomes=np.full((4, n), 0.1 + 0.2j),
                             state_descriptor={}, seed=0, n=n)


# name -> reader(n), the function of phase-space points that it checks at n modes
POINT_READERS = {
    "char_fn": lambda n: partial(char_fn, _state(n)),
    "s_char_fn": lambda n: partial(s_char_fn, _state(n), 0.5),
    "s_qpd": lambda n: partial(s_qpd, _state(n), 0.5),
    "wigner": lambda n: partial(wigner, _state(n)),
    "value": lambda n: heterodyne_mixture(_state(n)).value,
    "log_value": lambda n: heterodyne_mixture(_state(n)).log_value,
    "char_trace": lambda n: partial(char_trace, _oracle(n)),
    "husimi": lambda n: partial(husimi, _oracle(n)),
    "wigner_parity": lambda n: partial(wigner_parity, _oracle(n)),
    "choi_char": lambda n: lambda p: choi_char(ChannelSpec(r=0.5, lam=_unit, n=n), p, p),
    "estimate_record": lambda n: lambda p: [
        rep.estimate for rep in estimate_record(_record(n), p, "heterodyne")],
}

BAD_POINTS = [
    ("length-4-at-n2", 2, np.full(4, 0.1), "rows of 2 components"),
    ("length-3-at-n1", 1, np.full(3, 0.1), "rows of 1 components"),
    ("extra-column", 2, np.full((3, 3), 0.1), "rows of 2 components"),
    ("three-axes", 2, np.full((2, 3, 2), 0.1), "rows of 2 components"),
    ("nan", 2, np.array([np.nan, 0.1]), "non-finite"),
]


class TestPointShapes:
    """One rule, `numerics.as_points`, reads every evaluator's points: a shape
    (n,) array is one point and gives a scalar (an estimate gives a one-report
    list), so does a scalar at n = 1, and (m, n) is a batch. Any other shape, or
    a non-finite entry, raises ValidationError."""

    @pytest.mark.parametrize("n, points, match", [b[1:] for b in BAD_POINTS],
                             ids=[b[0] for b in BAD_POINTS])
    @pytest.mark.parametrize("reader", POINT_READERS)
    def test_malformed_points_rejected(self, reader, n, points, match):
        with pytest.raises(ValidationError, match=match):
            POINT_READERS[reader](n)(points)

    @pytest.mark.parametrize("point", [0.3 - 0.1j, np.array([0.3 - 0.1j, -0.2 + 0.4j])],
                             ids=["scalar-at-n1", "vector-at-n2"])
    @pytest.mark.parametrize("reader", POINT_READERS)
    def test_one_point_is_entry_0_of_its_batch(self, reader, point):
        call = POINT_READERS[reader](np.size(point))
        one, batch = call(point), call(np.reshape(point, (1, -1)))
        if reader == "estimate_record":
            (one,) = one
        assert np.ndim(one) == 0 and np.shape(batch) == (1,)
        # a complex holds a real value exactly, so the bits compare across types
        assert np.complex128(one).tobytes() == np.complex128(batch[0]).tobytes()

    def test_choi_char_needs_one_shape(self):
        spec = ChannelSpec(r=0.5, lam=_unit, n=1)
        with pytest.raises(ValidationError, match="differ in shape"):
            choi_char(spec, np.array([0.1]), np.full((3, 1), 0.1))
