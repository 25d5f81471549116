"""Input checks across the package: each malformed input raises ValidationError
with its own message, before any work is done."""

import numpy as np
import pytest

from cvlearn.bounds import BoundInputs, classicality_thresholds, emit_curves
from cvlearn.channel_bridge import ChannelSpec, r_star
from cvlearn.errors import ValidationError
from cvlearn.fock_oracle import FockMatrix, build_state, petz_d2
from cvlearn.game import GameConfig, per_copy_tvd_bound, tvd_pair
from cvlearn.measurements import MeasurementRecord, heterodyne_mixture, validate_bell_pair
from cvlearn.numerics import SymmetricUnitary, make_rng
from cvlearn.states import (apply_circuit, make_five_peak, make_thermal, make_three_peak,
                            peak_layout, reflect)

U2 = SymmetricUnitary(matrix=np.eye(2))
GAME = dict(family="three_peak", n=1, nu=0.9, eps0=0.25, kappa=2.0, copies=4)


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


@pytest.mark.parametrize("match, call", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_malformed_input_raises_validation_error(match, call):
    with pytest.raises(ValidationError, match=match):
        call()
