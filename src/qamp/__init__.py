"""Amplitude-amplification simulation with probabilistic selection masks.

Static search on dense state vectors; dynamic runs that store only the
states their masks select, so similarity policies run to n = 30 qubits;
a similarity recommender, optimization loops, and a seeded experiment
harness with CSV/SVG output.
"""

from .backend import kernel_backend
from .core import (
    SelectionMask,
    SparseState,
    StateVector,
    probability_of,
    sample,
    uniform_init,
)
from .dynamic_search import (
    DynamicRunLog,
    GainReport,
    OrderingWitness,
    SelectionPolicy,
    default_rounds,
    dynamic_iteration,
    gain_bound,
    gain_report,
    ordering_witness,
    replay_round_states,
    run_dynamic,
)
from .errors import (
    CalibrationError,
    ConfigError,
    InvalidParamsError,
    NoSolutionError,
    NormalizationError,
    QampError,
    ShapeMismatchError,
    SizeError,
    UnderAmplifiedError,
    ValidityError,
)
from .optimize import (
    ObjectiveTable,
    OptimizationResult,
    Sense,
    build_optimization_policy,
    durr_hoyer,
    dynamic_optimize,
    load_objective,
    nominal_rounds,
    save_objective,
)
from .recommend import (
    RecommendationResult,
    RecommendedItem,
    SelectionProbabilityParams,
    SimilaritySpec,
    calibrate_beta,
    class_counts,
    class_masses,
    expected_selected_count,
    load_catalog,
    recommend,
    similarity,
    similarity_policy,
)
from .static_search import (
    SearchResult,
    grover_iteration,
    marked_probability,
    optimal_iterations,
    search,
    search_unknown_m,
)

__version__ = "0.1.0"
