"""Amplitude-amplification simulation with probabilistic selection masks.

Static search as a closed-form rotation; dynamic runs that store only the
states their masks select, so similarity policies run to n = 30 qubits;
a similarity recommender, optimization loops, a seeded experiment
harness with CSV/SVG output, and one dense reference (``qamp.backend``).
"""

from .backend import (
    OrderingWitness,
    SelectionMask,
    StateVector,
    dynamic_iteration,
    gain_report,
    grover_iteration,
    kernel_backend,
    ordering_witness,
    probability_of,
    replay_round_states,
    uniform_init,
)
from .core import SparseState, sample
from .dynamic_search import (
    DynamicRunLog,
    GainReport,
    SelectionPolicy,
    gain_bound,
    planned_rounds,
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
    marked_probability,
    optimal_iterations,
    search,
    search_unknown_m,
)

__version__ = "0.1.0"
