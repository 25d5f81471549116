"""cvlearn: simulation toolkit for learning bosonic states from
Bell-measurement and heterodyne data.

Peak states (thermal-filtered sums of displacements) come with closed-form
characteristic functions, Wigner / s-ordered quasiprobabilities, and exact
samplable outcome densities for the two measurement schemes. On top sit the
estimators with their sample-size planner, the hypothesis-testing game with
its total-variation machinery, the closed-form sample-complexity bounds, and
the state-vs-channel learning bridge. A truncated Fock-basis oracle
cross-checks every closed form.
"""

from .errors import HypothesisViolation, NumericFailure, ValidationError
from .numerics import (
    SymmetricUnitary,
    TakagiFactor,
    make_rng,
    psd_check,
    random_symmetric_unitary,
    regularized_upper_gamma,
    sample_complex_gaussian,
    takagi_decompose,
)
from .states import (
    ClassicalityReport,
    PeakState,
    apply_circuit,
    bell_partner,
    char_fn,
    classicality_smax,
    f1,
    f2,
    fock1_char,
    make_five_peak,
    make_thermal,
    make_three_peak,
    make_three_peak_classical,
    mean_photon,
    reflect,
    s_char_fn,
    s_prime,
    s_qpd,
    wigner,
)
from .measurements import (
    MeasurementRecord,
    SignedGaussianMixture,
    bell_mixture,
    heterodyne_mixture,
    sample_bell,
    sample_heterodyne,
)
from .estimators import (
    EstimateReport,
    PlannerInputs,
    estimate_chi_heterodyne,
    estimate_chi_squared,
    estimate_record,
    plan_samples,
    resolve_sign,
)
from .bounds import (
    BoundInputs,
    ClassicalityThresholds,
    CurveTable,
    classicality_thresholds,
    emit_curves,
    lb_ea_no_reflected,
    lb_ef,
    lb_ef_classical,
    lb_ef_symmetric,
    lb_unrestricted,
    ub_bm,
    ub_hd,
    ub_hd_classical,
)
from .game import (
    GameConfig,
    GameResult,
    five_peak_window_probability,
    per_copy_tvd_bound,
    run_game,
    tvd_pair,
    window_probability,
)
from .channel_bridge import (
    ChannelSpec,
    bochner_check,
    bochner_witness_c0,
    choi_char,
    fock1_channel_density,
    fock1_negativity_annulus,
    lambda_from_state,
    r_star,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
