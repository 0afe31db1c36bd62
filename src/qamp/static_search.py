"""Classic amplitude-amplification search over a fixed marked set.

Covers the known-count schedule (floor((pi/4) * sqrt(N/M)) iterations) and
an exponential schedule for an unknown number of solutions, which the
optimization drivers rely on.  Both take the marked set as sorted, distinct
indices, build the state after k iterations from its closed form as a
``SparseState`` that stores only those indices, and sample it in O(M);
``qamp.backend.grover_iteration`` is the literal step, kept as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SparseState, in_sorted, sample
from .errors import NoSolutionError

UNKNOWN_M_LAMBDA = 6.0 / 5.0
UNKNOWN_M_BUDGET_FACTOR = 3.0
_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    ``outcome`` is None when the unknown-count schedule exhausted its budget
    without sampling a marked state (the "likely no solutions" signal).
    """

    outcome: int | None
    iterations_used: int
    success_probability: float
    trajectory: tuple[float, ...] | None = None

    @property
    def found(self) -> bool:
        return self.outcome is not None


def marked_probability(n_states: int, n_marked: int, iterations: int) -> float:
    """Closed-form marked-set probability after k iterations from uniform."""
    half_theta = math.asin(math.sqrt(n_marked / n_states))
    return math.sin((2 * iterations + 1) * half_theta) ** 2


def optimal_iterations(n_states: int, n_marked: int) -> int:
    """Iteration count floor((pi/4) * sqrt(N/M)) for M known solutions."""
    if n_marked == 0:
        raise NoSolutionError("no marked states: iteration schedule undefined")
    if not 1 <= n_marked <= n_states:
        raise ValueError(f"need 1 <= M <= N, got M={n_marked}, N={n_states}")
    return int(math.floor((math.pi / 4.0) * math.sqrt(n_states / n_marked)))


class _Rotation:
    """The states a search samples, in closed form (Boyer et al. 1996).

    ``marked`` holds the M marked indices, sorted and distinct; they are
    checked once, here.  Each step rotates by 2*theta, sin(theta) =
    sqrt(M/N): after k steps from uniform every marked state holds
    sin((2k+1)theta)/sqrt(M), stored at its index, and every unmarked one
    the ``bulk`` cos((2k+1)theta)/sqrt(N-M).  M = 0 gives the uniform
    state; an empty group's amplitude is never used.
    """

    def __init__(self, n: int, marked: np.ndarray):
        self._zero = SparseState(n, 0.0, marked, np.zeros(np.shape(marked)))
        self.marked, self.n_states = self._zero.idx, 1 << n
        self._half_theta = math.asin(math.sqrt(self.marked.size / self.n_states))
        self._marked_norm = math.sqrt(max(self.marked.size, 1))
        self._unmarked_norm = math.sqrt(max(self.n_states - self.marked.size, 1))

    def state_after(self, iterations: int) -> SparseState:
        angle = (2 * iterations + 1) * self._half_theta
        return self._zero.with_amplitudes(
            math.cos(angle) / self._unmarked_norm,
            np.full(self.marked.size, math.sin(angle) / self._marked_norm),
        )


def search(
    n: int, marked: np.ndarray, rng: np.random.Generator, record_trajectory: bool = False
) -> SearchResult:
    """Run the fixed-count schedule for the marked states and sample the result.

    When more than half the space is marked, uniform sampling already
    succeeds with probability > 1/2, so zero iterations are used (the
    schedule past that point can only hurt).
    """
    rotation = _Rotation(n, marked)
    n_states, n_marked = rotation.n_states, rotation.marked.size
    if n_marked == 0:
        raise NoSolutionError("cannot search for solutions: marked set is empty")
    iterations = 0 if 2 * n_marked > n_states else optimal_iterations(n_states, n_marked)
    trajectory = None
    if record_trajectory:
        trajectory = tuple(marked_probability(n_states, n_marked, k + 1) for k in range(iterations))
    return SearchResult(
        outcome=sample(rotation.state_after(iterations), rng),
        iterations_used=iterations,
        success_probability=marked_probability(n_states, n_marked, iterations),
        trajectory=trajectory,
    )


def search_unknown_m(n: int, marked: np.ndarray, rng: np.random.Generator) -> SearchResult:
    """Exponential schedule for an unknown number of solutions.

    Attempt j draws an iteration count uniformly from [0, ceil(lambda**j)]
    with lambda = 6/5, runs it from a fresh uniform state, and samples.
    The first marked sample wins; once 3*sqrt(N) total iterations have been
    spent the search gives up, which distinguishes "likely no solutions".
    """
    rotation = _Rotation(n, marked)
    budget = math.ceil(UNKNOWN_M_BUDGET_FACTOR * math.sqrt(rotation.n_states))
    total, found = 0, None
    for attempt in range(_MAX_ATTEMPTS):
        if total >= budget:
            break
        k = int(rng.integers(0, math.ceil(UNKNOWN_M_LAMBDA**attempt) + 1))
        total += k
        outcome = sample(rotation.state_after(k), rng)
        if in_sorted(rotation.marked, outcome):
            found = outcome
            break
    # the budget is at least 3, so the first attempt always ran and set ``k``
    return SearchResult(
        outcome=found,
        iterations_used=total,
        success_probability=marked_probability(rotation.n_states, rotation.marked.size, k),
    )
