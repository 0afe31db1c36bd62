"""Optimization drivers over a dense objective table.

Two strategies: a moving-threshold loop that repeatedly searches the
"strictly better than the incumbent" set with the unknown-count schedule,
and a single amplification pass driven by a heuristic selection-probability
function built from random probes of the objective.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import SparseState, check_qubit_count, sample
from .dynamic_search import SelectionPolicy, planned_rounds, run_dynamic
from .errors import ShapeMismatchError
from .static_search import optimal_iterations, search_unknown_m

_CANDIDATE_COUNT = 10
_LN2 = math.log(2.0)


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class ObjectiveTable:
    """Objective values for every basis state, with an optimization sense."""

    n: int
    values: np.ndarray
    sense: Sense = Sense.MIN

    def __post_init__(self):
        check_qubit_count(self.n)
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (1 << self.n,):
            raise ShapeMismatchError(
                f"expected {1 << self.n} objective values for n={self.n}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("objective values must be finite")
        object.__setattr__(self, "values", values)

    def better_than(self, threshold: float) -> np.ndarray:
        """Boolean table of states strictly better than ``threshold``."""
        if self.sense is Sense.MIN:
            return self.values < threshold
        return self.values > threshold

    def optimum_value(self) -> float:
        return self._optimum

    # Found once per table, on first use: requests on one table reuse it.
    @cached_property
    def _optimum(self) -> float:
        return float(self.values.min() if self.sense is Sense.MIN else self.values.max())


@dataclass(frozen=True)
class ThresholdRound:
    """One round of the moving-threshold loop (diagnostics)."""

    incumbent_before: int
    marked_count: int
    found: int | None
    iterations: int


@dataclass(frozen=True)
class OptimizationResult:
    """The best state found and what it cost.

    ``threshold_rounds`` lists the rounds of :func:`durr_hoyer` (empty for
    :func:`dynamic_optimize`); ``log`` is the run log of
    :func:`dynamic_optimize` (None for :func:`durr_hoyer`, and when the
    probes all read one value and no round ran).
    """

    best_index: int
    best_value: float
    grover_iterations_total: int
    outer_rounds: int
    optimal: bool
    threshold_rounds: tuple[ThresholdRound, ...] = ()
    log: object = field(default=None, repr=False, compare=False)


def durr_hoyer(table: ObjectiveTable, rng: np.random.Generator) -> OptimizationResult:
    """Moving-threshold optimization.

    Starts from incumbent state 0, repeatedly searches the set of states
    strictly better than the incumbent with the unknown-count schedule,
    and terminates when that search gives up.  Returns the incumbent with
    one :class:`ThresholdRound` per search.
    """
    incumbent = 0
    incumbent_value = float(table.values[0])
    total_iterations = 0
    rounds: list[ThresholdRound] = []

    while True:
        marked = np.flatnonzero(table.better_than(incumbent_value))
        result = search_unknown_m(table.n, marked, rng)
        total_iterations += result.iterations_used
        rounds.append(
            ThresholdRound(
                incumbent_before=incumbent,
                marked_count=marked.size,
                found=result.outcome,
                iterations=result.iterations_used,
            )
        )
        if result.outcome is None:
            break
        incumbent = result.outcome
        incumbent_value = float(table.values[incumbent])

    return OptimizationResult(
        best_index=incumbent,
        best_value=incumbent_value,
        grover_iterations_total=total_iterations,
        outer_rounds=len(rounds),
        optimal=incumbent_value == table.optimum_value(),
        threshold_rounds=tuple(rounds),
    )


def policy_from_estimates(
    table: ObjectiveTable, f_lo: float, f_hi: float
) -> SelectionPolicy:
    """Selection policy P(x) = 2**(n * (r(x) - 1)) from value-range estimates.

    r(x) rescales the objective to [0, 1] with 1 at the better end per the
    sense, so the best-looking states are selected almost surely and the
    worst with probability 1/N.  Needs ``f_lo < f_hi``: equal estimates give
    no range to rescale by.

    The exponent n (r(x) - 1) is a (v(x) - f_ref), with f_ref the better
    end and a = n / (f_hi - f_lo), negated under MIN, so P =
    exp2(clip(a (v - f_ref), -n, 0)) takes four passes over one buffer.
    Subtracting first keeps the exponent as accurate as the rescaling is on
    values far from 0.  Where a overflows (a subnormal range) the exponent
    is taken as n (v - f_ref) / (f_hi - f_lo), negated under MIN, instead.
    """
    if not f_lo < f_hi:
        raise ValueError(f"need f_lo < f_hi, got {f_lo!r} and {f_hi!r}")
    n, span = table.n, float(f_hi - f_lo)
    sign, better = (1.0, f_hi) if table.sense is Sense.MAX else (-1.0, f_lo)
    slope = sign * n / span
    exponent = np.subtract(table.values, better)
    if math.isfinite(slope):
        exponent *= slope
    else:
        exponent /= span
        exponent *= sign * n
    np.clip(exponent, -n, 0.0, out=exponent)
    return SelectionPolicy.probabilistic(n, np.exp2(exponent, out=exponent))


def build_optimization_policy(
    table: ObjectiveTable, rng: np.random.Generator
) -> SelectionPolicy | None:
    """Build the policy from the value range seen by ceil(sqrt(N)) uniform probes.

    Returns None when the probes all read one value: they show no range to
    amplify.
    """
    n_states = 1 << table.n
    probes = rng.integers(0, n_states, size=math.ceil(math.sqrt(n_states)))
    probe_values = table.values[probes]
    f_lo, f_hi = float(probe_values.min()), float(probe_values.max())
    return policy_from_estimates(table, f_lo, f_hi) if f_lo < f_hi else None


def nominal_rounds(n: int) -> int:
    """Value-free round count for the probe-built policy family.

    Uses the family's design-point expected selection count
    N * (1 - 2**-n) / (n ln 2) (the exact mean of 2**(n(r-1)) over a flat
    rescaled objective), keeping the budget deterministic in n alone.
    """
    expected = (1 << n) * (1.0 - 2.0 ** (-n)) / (n * _LN2)
    return optimal_iterations(1 << n, max(1.0, expected))


def dynamic_optimize(table: ObjectiveTable, rng: np.random.Generator) -> OptimizationResult:
    """Single amplification pass driven by the probe-built policy.

    Runs ``min(planned_rounds(policy), nominal_rounds(n))`` doubled rounds
    (2 iterations each): the round at which the moment model predicts the
    policy mass to peak, as the wide probe-built policy overshoots the
    rotation optimum within a round or two, and never more than the
    value-free count.  The rounds step through violations, as every run
    does.  Samples 10 candidates from the final state and returns the
    best.  Probes that all read one value skip the run: the result is the
    best of 10 uniform samples, with no log and no iterations.
    """
    policy = build_optimization_policy(table, rng)
    if policy is None:
        return _best_of_candidates(table, SparseState.uniform(table.n), rng)
    rounds = min(planned_rounds(policy), nominal_rounds(table.n))
    state, log = run_dynamic(policy, rng, rounds=rounds)
    return _best_of_candidates(table, state, rng, log)


def _best_of_candidates(table, state, rng, log=None) -> OptimizationResult:
    """The best of 10 samples of ``state``, costed by the rounds of ``log`` (0 without one)."""
    candidates = sample(state, rng, size=_CANDIDATE_COUNT)
    values = table.values[candidates]
    pick = int(values.argmin() if table.sense is Sense.MIN else values.argmax())
    best_index = int(candidates[pick])
    best_value = float(table.values[best_index])
    rounds = log.rounds if log is not None else 0
    return OptimizationResult(
        best_index=best_index,
        best_value=best_value,
        grover_iterations_total=2 * rounds,
        outer_rounds=rounds,
        optimal=best_value == table.optimum_value(),
        log=log,
    )


def load_objective(path) -> ObjectiveTable:
    """Read an objective file: header ``n=<int> sense=<min|max>`` then 2**n values."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(
            token.split("=", 1) for token in header.split() if "=" in token
        )
        if "n" not in fields or "sense" not in fields:
            raise ValueError(f"bad objective header {header!r}: need n=<int> sense=<min|max>")
        n = int(fields["n"])
        check_qubit_count(n)  # before reading 2**n values
        try:
            sense = Sense(fields["sense"])
        except ValueError as exc:
            raise ValueError(f"bad sense {fields['sense']!r}: use min or max") from exc
        values = np.array(fh.read().split(), dtype=np.float64)
    return ObjectiveTable(n=n, values=values, sense=sense)


def save_objective(path, table: ObjectiveTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n={table.n} sense={table.sense.value}\n")
        fh.write(" ".join(repr(float(v)) for v in table.values))
        fh.write("\n")
