"""Sparse real-amplitude states and their sampling.

Every amplification operator maps real vectors to real vectors, so
amplitudes are real.  A state is kept as ``SparseState``: one shared
amplitude plus the few states that differ from it, so nothing of size
N = 2**n is needed to hold or sample it (the dense reference is
``qamp.backend``).  Public operations are pure: they never mutate their
inputs and return fresh values.  All randomness flows through an
explicitly seeded ``numpy.random.Generator`` passed by the caller; there
is no global RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NormalizationError, ShapeMismatchError, SizeError

MAX_QUBITS = 30  # memory guard: dense float64 amplitudes up to 8 GiB
SAMPLE_ATOL = 1e-6  # how far from 1 a sampled state's total probability may be


def check_qubit_count(n: int) -> None:
    """Reject a qubit count outside [1, MAX_QUBITS] before anything of size 2**n exists."""
    if not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")


@dataclass(frozen=True)
class SparseState:
    """A state in which every amplitude equals ``bulk`` except at a few indices.

    ``idx`` holds those indices, sorted and distinct, and ``amp`` their
    amplitudes.  This is the form a dynamic run keeps its state in; ``amps``
    builds the dense vector only when it is asked for (and keeps it).
    """

    n: int
    bulk: float
    idx: np.ndarray
    amp: np.ndarray

    def __post_init__(self):
        check_qubit_count(self.n)
        idx = np.asarray(self.idx, dtype=np.int64)
        amp = np.asarray(self.amp, dtype=np.float64)
        if idx.ndim != 1 or amp.shape != idx.shape:
            raise ShapeMismatchError(
                f"need one amplitude per index, got shapes {idx.shape} and {amp.shape}"
            )
        if idx.size and (idx[0] < 0 or idx[-1] >= (1 << self.n) or np.any(idx[1:] <= idx[:-1])):
            raise ShapeMismatchError(f"indices must be sorted, distinct and in range for n={self.n}")
        for name, value in (("bulk", float(self.bulk)), ("idx", idx), ("amp", amp)):
            object.__setattr__(self, name, value)

    @classmethod
    def uniform(cls, n: int) -> "SparseState":
        """The equal-amplitude superposition, with no index stored."""
        check_qubit_count(n)
        return cls(n, 1.0 / math.sqrt(1 << n), np.empty(0, dtype=np.int64), np.empty(0))

    @property
    def size(self) -> int:
        return 1 << self.n

    @cached_property
    def amps(self) -> np.ndarray:
        amps = np.full(self.size, self.bulk)
        amps[self.idx] = self.amp
        return amps

    def with_amplitudes(self, bulk: float, amp) -> "SparseState":
        """The state over the same indices with new amplitudes.

        ``idx`` was checked when this state was made, so only the shape of
        ``amp`` is checked: a search validates its marked indices once and
        builds each attempt's state with this.
        """
        amp = np.asarray(amp, dtype=np.float64)
        if amp.shape != self.idx.shape:
            raise ShapeMismatchError(
                f"need one amplitude per index, got shapes {self.idx.shape} and {amp.shape}"
            )
        state = object.__new__(SparseState)
        for name, value in (("n", self.n), ("bulk", float(bulk)), ("idx", self.idx), ("amp", amp)):
            object.__setattr__(state, name, value)
        return state

    def norm_sq(self) -> float:
        return float(self.amp @ self.amp) + self.bulk * self.bulk * (self.size - self.idx.size)

    def probabilities(self) -> np.ndarray:
        return self.amps * self.amps


def in_sorted(members: np.ndarray, x):
    """Whether ``x`` (an index or an array) is in ``members``, sorted and distinct."""
    if not members.size:
        return x != x  # False in the shape of x, without np.shape's cost on an int
    # the last member <= x; below the first member, index -1 is the largest, > x
    return members[members.searchsorted(x, "right") - 1] == x


def sample(state: SparseState, rng: np.random.Generator, size: int | None = None):
    """Draw basis indices with probability equal to the squared amplitudes.

    Draws invert the cumulative mass in index order, which gives the
    indices the dense ``amps`` would give up to the rounding of the prefix
    sums, without building them.  Deterministic for a fixed generator
    state.  ``size=None`` returns one index as an int; an integer ``size``
    returns that many draws as an array.
    """
    total = state.norm_sq()
    if abs(total - 1.0) > SAMPLE_ATOL:
        raise NormalizationError(f"state norm**2 deviates from 1 by {abs(total - 1.0):.3e}")
    idx = _sparse_inverse_cdf(state, rng.random() if size is None else rng.random(size))
    if size is None:
        return min(int(idx), state.size - 1)
    return np.minimum(idx, state.size - 1).astype(np.int64)


def _sparse_inverse_cdf(state: SparseState, u):
    """First index whose cumulative mass exceeds ``u`` times the total.

    States 0..i hold bulk**2 (i + 1) plus the excess a**2 - bulk**2 of the
    stored states among them.  A float ``u`` (one draw) takes the same
    arithmetic on Python scalars, so it gives the index an array holding
    ``u`` gives, without the O(M) bounds arrays of the batch.
    """
    bulk_sq = state.bulk * state.bulk
    excess = (state.amp * state.amp - bulk_sq).cumsum()
    # the mass of states 0..idx[j], for each stored index
    through = bulk_sq * (state.idx + 1) + excess
    target = u * (bulk_sq * state.size + (float(excess[-1]) if excess.size else 0.0))
    # j stored states have at most the target mass up to them, so the answer
    # lies in (bounds[j], bounds[j + 1]]
    j = through.searchsorted(target, side="right")
    if isinstance(u, float):
        j = int(j)
        upper = int(state.idx[j]) if j < state.idx.size else state.size
        if bulk_sq == 0.0:
            return upper
        lower, before = (int(state.idx[j - 1]) + 1, float(excess[j - 1])) if j else (0, 0.0)
        return min(max(math.floor((target - before) / bulk_sq), lower), upper)
    bounds = np.concatenate(([-1], state.idx, [state.size]))
    if bulk_sq == 0.0:
        return bounds[j + 1]
    # states between stored ones hold bulk**2 (i + 1) plus the excess before them
    first = np.floor((target - np.concatenate(([0.0], excess))[j]) / bulk_sq)
    return np.clip(first, bounds[j] + 1, bounds[j + 1]).astype(np.int64)
