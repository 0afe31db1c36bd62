"""The dense reference: amplitudes over all N = 2**n states, in numpy.

The only module that knows the dense form.  The engine keeps a run's
state sparse and static search in closed form; the corollaries and the
tests check both against the literal steps taken here.  Callers look the
kernels up as attributes of this module (``backend.grover_step``), so a
wrapper installed here reaches every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import SAMPLE_ATOL, check_qubit_count
from .dynamic_search import DynamicRunLog, GainReport
from .errors import NormalizationError, ShapeMismatchError


def grover_step(amps: np.ndarray, selected: np.ndarray) -> None:
    """One amplification step: sign-flip selected entries, reflect all about the mean."""
    np.negative(amps, out=amps, where=selected)
    mu = amps.sum() / amps.size  # what amps.mean() gives, without its wrapper
    np.subtract(2.0 * mu, amps, out=amps)


def selection_stats(amps: np.ndarray, selected: np.ndarray):
    """Per-group sums: (sum_sel, sum_unsel, sumsq_sel, sumsq_unsel, min_unsel).

    ``min_unsel`` is +inf when every state is selected.  The dense
    diagnostics call this; runs keep their own group sums.
    """
    sel, unsel = amps[selected], amps[~selected]
    min_unsel = float(unsel.min()) if unsel.size else math.inf
    return float(sel.sum()), float(unsel.sum()), float(sel @ sel), float(unsel @ unsel), min_unsel


def kernel_backend() -> str:
    """Name of the kernel implementation: always ``"python"`` (numpy)."""
    return "python"


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over the computational basis of an n-qubit register."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        check_qubit_count(self.n)
        amps = np.asarray(self.amps, dtype=np.float64)
        if amps.shape != (1 << self.n,):
            raise ShapeMismatchError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    @property
    def size(self) -> int:
        return self.amps.shape[0]

    def norm_sq(self) -> float:
        return float(self.amps @ self.amps)

    def probabilities(self) -> np.ndarray:
        return self.amps * self.amps


@dataclass(frozen=True)
class SelectionMask:
    """Boolean membership of each basis state in the selected set."""

    n: int
    selected: np.ndarray
    count_selected: int = field(init=False)

    def __post_init__(self):
        check_qubit_count(self.n)
        selected = np.asarray(self.selected, dtype=bool)
        if selected.shape != (1 << self.n,):
            raise ShapeMismatchError(
                f"expected {1 << self.n} mask entries for n={self.n}, got shape {selected.shape}"
            )
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "count_selected", int(np.count_nonzero(selected)))

    @classmethod
    def from_indices(cls, n: int, indices) -> "SelectionMask":
        check_qubit_count(n)
        selected = np.zeros(1 << n, dtype=bool)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= (1 << n)):
            raise ShapeMismatchError(f"mask index out of range for n={n}")
        selected[idx] = True
        return cls(n, selected)

    @classmethod
    def empty(cls, n: int) -> "SelectionMask":
        check_qubit_count(n)
        return cls(n, np.zeros(1 << n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "SelectionMask":
        check_qubit_count(n)
        return cls(n, np.ones(1 << n, dtype=bool))

    @property
    def size(self) -> int:
        return self.selected.shape[0]


def check_dims(state: StateVector, mask: SelectionMask) -> None:
    if state.n != mask.n:
        raise ShapeMismatchError(f"state has n={state.n} but mask has n={mask.n}")


def uniform_init(n: int) -> StateVector:
    """Equal-amplitude superposition over all N = 2**n basis states."""
    check_qubit_count(n)
    return StateVector(n, np.full(1 << n, 1.0 / math.sqrt(1 << n)))


def probability_of(state: StateVector, mask: SelectionMask) -> float:
    """Total sampling probability carried by the selected states."""
    check_dims(state, mask)
    sel = state.amps[mask.selected]
    return float(sel @ sel)


def sample_dense(state: StateVector, rng: np.random.Generator, size: int | None = None):
    """Draw basis indices by inverting the cumulative sum of the squared amplitudes.

    The reference for :func:`qamp.core.sample`, which inverts the same mass
    in the same index order without building it.
    """
    p = state.amps * state.amps
    if abs(p.sum() - 1.0) > SAMPLE_ATOL:
        raise NormalizationError(f"state norm**2 deviates from 1 by {abs(p.sum() - 1.0):.3e}")
    cum = np.cumsum(p)
    u = rng.random() if size is None else rng.random(size)
    idx = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), state.size - 1)
    return int(idx) if size is None else idx.astype(np.int64)


def _stepped(state: StateVector, masks: Sequence[SelectionMask]) -> StateVector:
    """``state`` after one literal step with each mask in turn, on one copy."""
    amps = state.amps.copy()
    for mask in masks:
        check_dims(state, mask)
        grover_step(amps, mask.selected)
    return StateVector(state.n, amps)


def grover_iteration(state: StateVector, mask: SelectionMask) -> StateVector:
    """One oracle flip followed by inversion about the mean."""
    return _stepped(state, [mask])


def dynamic_iteration(state: StateVector, mask: SelectionMask) -> StateVector:
    """Two literal steps with the same stored mask: the reference for a run's round."""
    return _stepped(state, [mask, mask])


def gain_report(state: StateVector, mask: SelectionMask) -> GainReport:
    """Gain and progress diagnostics of a state with respect to a mask.

    A round from this state is productive while ``mean_amplitude`` (the
    post-flip mean) and ``min_unselected_amp`` both stay positive; a run
    logs both after every round and steps either way.  An infinite gain
    (no unselected mass left) signals that the search is complete.
    """
    check_dims(state, mask)
    sum_sel, sum_unsel, p_sel, p_unsel, min_unsel = selection_stats(state.amps, mask.selected)
    mean = (sum_unsel - sum_sel) / state.size
    return GainReport.of(p_sel, p_unsel, mean, min_unsel, mask.count_selected, state.size)


@dataclass(frozen=True)
class OrderingWitness:
    """Group amplitudes after a selection round followed by an empty round."""

    selected_amp: float
    unselected_amp: float


def ordering_witness(first_mask: SelectionMask, doubled: bool = False) -> OrderingWitness:
    """Amplitudes after a round with ``first_mask`` then a round with no selection.

    With single (undoubled) steps the once-selected group provably ends
    below the never-selected group; with doubled steps it stays at or above
    it whenever at most half the space was selected.  This is the
    executable witness of why each round applies the step twice.
    """
    n = first_mask.n
    steps = 2 if doubled else 1
    state = _stepped(uniform_init(n), [first_mask] * steps + [SelectionMask.empty(n)] * steps)
    sum_sel, sum_unsel, *_ = selection_stats(state.amps, first_mask.selected)
    n_sel = first_mask.count_selected
    n_unsel = state.size - n_sel
    # an empty group takes the other group's mean
    sel_mean = sum_sel / n_sel if n_sel else sum_unsel / n_unsel
    unsel_mean = sum_unsel / n_unsel if n_unsel else sel_mean
    return OrderingWitness(sel_mean, unsel_mean)


def replay_round_states(log: DynamicRunLog) -> Sequence[StateVector]:
    """States at every round boundary of a completed run (index 0 = initial).

    Each round steps from the state the round before it left.
    """
    states = [uniform_init(log.n)]
    for selected in log.selected_indices:
        states.append(dynamic_iteration(states[-1], SelectionMask.from_indices(log.n, selected)))
    return states
