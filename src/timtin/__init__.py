"""GDoF evaluation and TIM-TIN decomposition for K-user interference
channels known only through coarse channel-strength exponents."""

from .decomp import (
    DecompositionResult,
    SearchBudget,
    SearchReport,
    evaluate_map,
    map_mask,
    search,
    split,
    synthesize_scheme,
    time_share,
)
from .evaluator import (
    finite_p_rate,
    gdof_report,
    logdet_exponent,
    slope_estimate,
    user_gdof,
)
from .model import (
    BudgetOutOfRange,
    ChannelMatrix,
    DecompositionMap,
    DimensionMismatch,
    DomainError,
    EmptyVector,
    GDoFReport,
    InvariantViolation,
    MalformedDocument,
    MapMismatch,
    NonSquare,
    NumericalFailure,
    PositivePowerExponent,
    Scheme,
    Stream,
    UserGdof,
    WeightMismatch,
    ZeroDirectLink,
    format_rational,
    to_fraction,
    validate_channel,
    validate_scheme,
)
from .tim import TimSolution, TimTopology, build_graphs, tim_solve
from .tin import SymmetricTin, TinSolution, single_level_gdof, tin_feasible, tin_symmetric

__version__ = "0.1.0"
