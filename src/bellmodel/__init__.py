"""Probability model and hidden-variable analysis of the four-setting experiment.

The package builds the exact joint distribution over outcomes and detector
settings for paired singlet measurements, evaluates the CHSH and original
single-sided inequalities in conditional and partial-expectation form, and
probes how far the quantum table sits from locality: no-signaling checks,
Bernoulli-product fits, a Fourier amplitude witness, and a numerical search
for the best finite hidden-variable approximation.  A Monte Carlo sampler
with a counter-based generator produces reproducible simulated trials.
"""

from .inequalities import (
    BELL_TEST_ANGLES,
    BELL_TEST_SETTINGS,
    CHSH_BOUND,
    TSIRELSON_BOUND,
    BellReport,
    ChshReport,
    bell_original,
    chsh_combination,
    chsh_conditional,
    chsh_partial,
    realism_table_check,
)
from .lhv import (
    FourierWitnessReport,
    LHVModel,
    NoSignalingReport,
    ProductFit,
    SeparabilityResult,
    factorizability_fit,
    fourier_witness_check,
    lhv_correlation,
    lhv_predicted_probs,
    m_separability_search,
    no_signaling_report,
)
from .montecarlo import (
    CHUNK,
    GENERATOR_ID,
    EmpiricalMeasure,
    ExperimentRecord,
    TrialSeries,
    chi_square_statistic,
    decode_binary,
    empirical_measure,
    empirical_partial_expectation,
    sample,
    sample_chunks,
    trial_csv,
)
from .probspace import (
    CELL_INDEX,
    COLUMN_ORDER,
    OUTCOME_ORDER,
    ROW_ORDER,
    STRATEGY_ANSWERS,
    ChshOutcome,
    Event,
    FiniteProbabilitySpace,
    JointMeasure,
    RandomVariable,
    SettingsDistribution,
    ZeroProbabilityError,
    chsh_measure,
    conditional_expectation,
    dice_space,
    expectation,
    outcome_product,
    partial_expectation,
    setting_event,
    verify_expectation_relation,
)
from .singlet import (
    TSIRELSON_ANGLES,
    DetectorAngle,
    DetectorOperator,
    SingletState,
    SpectralCoefficients,
    conditional_joint_probs,
    correlation,
    detector_operator,
    singlet_state,
    spectral_coefficients,
)

__version__ = "0.1.0"
