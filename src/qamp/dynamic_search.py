"""Amplification with a probabilistic selection function.

Each round samples a fresh selection mask from the policy, stores it, and
applies the amplification step twice with that stored mask.  The doubling
cancels the ordering artifact of single steps: a state selected in one
round and skipped in the next would otherwise end up *below* states never
selected at all (see :func:`ordering_witness`).  Degenerate masks are
harmless under doubling: two steps with an empty or full mask are the
identity.

Progress diagnostics follow the two-component analysis: a round is
productive only while the post-flip mean amplitude and all unselected
amplitudes stay positive, and the selected count stays under N / (2G) for
a target gain G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import backend
from .core import SelectionMask, StateVector, check_dims, probability_of, uniform_init
from .errors import ValidityError

VALIDITY_ATOL = 1e-9  # "positive" is tested as > -VALIDITY_ATOL to absorb float noise


@dataclass(frozen=True)
class SelectionPolicy:
    """Either a fixed mask or a per-state selection probability table."""

    n: int
    mask: SelectionMask | None = None
    probabilities: np.ndarray | None = None

    def __post_init__(self):
        if (self.mask is None) == (self.probabilities is None):
            raise ValueError("exactly one of mask / probabilities must be given")
        if self.mask is not None and self.mask.n != self.n:
            raise ValueError(f"mask has n={self.mask.n}, policy has n={self.n}")
        if self.probabilities is not None:
            probs = np.clip(np.asarray(self.probabilities, dtype=np.float64), 0.0, 1.0)
            if probs.shape != (1 << self.n,):
                raise ValueError(
                    f"expected {1 << self.n} selection probabilities, got shape {probs.shape}"
                )
            object.__setattr__(self, "probabilities", probs)

    @classmethod
    def static(cls, mask: SelectionMask) -> "SelectionPolicy":
        return cls(mask.n, mask=mask)

    @classmethod
    def probabilistic(cls, n: int, probabilities) -> "SelectionPolicy":
        return cls(n, probabilities=probabilities)

    @classmethod
    def from_rule(cls, n: int, rule: Callable[[int], float]) -> "SelectionPolicy":
        probs = np.array([rule(x) for x in range(1 << n)], dtype=np.float64)
        return cls.probabilistic(n, probs)

    @property
    def is_static(self) -> bool:
        return self.mask is not None

    def expected_selected(self) -> float:
        """Expected number of selected states per round."""
        if self.mask is not None:
            return float(self.mask.count_selected)
        return float(self.probabilities.sum())


@dataclass(frozen=True)
class GainReport:
    """Progress diagnostics for one state/mask pair.

    ``gain`` is the ratio of selected to unselected probability mass;
    ``mean_amplitude`` is the mean the reflection step would use after the
    sign flip; ``ns_bound`` is the selected-count ceiling N / (2 * gain)
    implied by the measured gain (0 when the gain is infinite, inf when
    it is zero).
    """

    p_selected: float
    p_unselected: float
    gain: float
    mean_amplitude: float
    min_unselected_amp: float
    ns_bound: float
    ns_actual: int

    @property
    def complete(self) -> bool:
        """True when no probability mass remains outside the selected set."""
        return math.isinf(self.gain)


@dataclass(frozen=True)
class ProgressConditions:
    """The three prerequisites for a productive round."""

    mean_amplitude: float
    min_unselected_amp: float
    ns_actual: int
    n_states: int

    @property
    def mean_positive(self) -> bool:
        return self.mean_amplitude > -VALIDITY_ATOL

    @property
    def unselected_positive(self) -> bool:
        return self.min_unselected_amp > -VALIDITY_ATOL

    def ns_bound_ok(self, gain_target: float) -> bool:
        """Selected count within the ceiling N / (2 * gain_target)."""
        return 2.0 * gain_target * self.ns_actual <= self.n_states

    def all_ok(self, gain_target: float) -> bool:
        return self.mean_positive and self.unselected_positive and self.ns_bound_ok(gain_target)


@dataclass(frozen=True)
class DynamicRunLog:
    """Per-round record of a dynamic run.

    Masks are stored as selected-index arrays to keep large-n runs light;
    :meth:`mask` rebuilds the boolean form for any round.
    ``policy_mass_by_round`` is the expected mass a fresh selection round
    would mark (for a static policy this equals the logged p_selected);
    ``best_round`` is the 1-based round maximizing it when the run tracked
    a best state, and ``restart_rounds`` lists rounds that reset to the
    uniform state after a progress-condition violation.
    """

    n: int
    rounds: int
    selected_indices: tuple[np.ndarray, ...]
    gain_trajectory: tuple[GainReport, ...]
    policy_mass_by_round: tuple[float, ...] = ()
    watched_mass_by_round: tuple[float, ...] | None = None
    best_round: int | None = None
    restart_rounds: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.selected_indices) != self.rounds or len(self.gain_trajectory) != self.rounds:
            raise ValueError("log length disagrees with round count")
        if self.policy_mass_by_round and len(self.policy_mass_by_round) != self.rounds:
            raise ValueError("policy-mass trace length disagrees with round count")

    def mask(self, round_index: int) -> SelectionMask:
        return SelectionMask.from_indices(self.n, self.selected_indices[round_index])

    def p_selected_by_round(self) -> np.ndarray:
        return np.array([report.p_selected for report in self.gain_trajectory])


@dataclass(frozen=True)
class OrderingWitness:
    """Group amplitudes after a selection round followed by an empty round."""

    selected_amp: float
    unselected_amp: float


def sample_mask(policy: SelectionPolicy, rng: np.random.Generator) -> SelectionMask:
    """Draw one selection mask: each state enters independently with its probability."""
    if policy.mask is not None:
        return policy.mask
    u = rng.random(1 << policy.n)
    return SelectionMask(policy.n, u < policy.probabilities)


class _GroupStats(NamedTuple):
    """Per-group sums of a state along a mask, from one ``selection_stats`` pass."""

    sum_sel: float
    sum_unsel: float
    sumsq_sel: float
    sumsq_unsel: float
    min_unsel: float  # +inf when every state is selected
    n_selected: int
    n_states: int

    @classmethod
    def of(cls, amps: np.ndarray, mask: SelectionMask) -> "_GroupStats":
        return cls(*backend.selection_stats(amps, mask.selected), mask.count_selected, amps.size)

    @property
    def post_flip_mean(self) -> float:
        return (self.sum_unsel - self.sum_sel) / self.n_states

    def report(self) -> GainReport:
        p_sel, p_unsel = self.sumsq_sel, self.sumsq_unsel
        gain = p_sel / p_unsel if p_unsel > 0.0 else math.inf
        if gain == 0.0:
            ns_bound = math.inf
        elif math.isinf(gain):
            ns_bound = 0.0
        else:
            ns_bound = self.n_states / (2.0 * gain)
        return GainReport(
            p_selected=p_sel,
            p_unselected=p_unsel,
            gain=gain,
            mean_amplitude=self.post_flip_mean,
            min_unselected_amp=self.min_unsel,
            ns_bound=ns_bound,
            ns_actual=self.n_selected,
        )

    def translated(self, shift_sel: float, shift_unsel: float) -> "_GroupStats":
        """Stats after adding ``shift_sel`` to every selected amplitude and
        ``shift_unsel`` to every unselected one."""
        n_sel, n_unsel = self.n_selected, self.n_states - self.n_selected
        return _GroupStats(
            self.sum_sel + n_sel * shift_sel,
            self.sum_unsel + n_unsel * shift_unsel,
            self.sumsq_sel + shift_sel * (2.0 * self.sum_sel + n_sel * shift_sel),
            self.sumsq_unsel + shift_unsel * (2.0 * self.sum_unsel + n_unsel * shift_unsel),
            self.min_unsel + shift_unsel,
            n_sel,
            self.n_states,
        )


def _doubled_step(amps: np.ndarray, selected_idx: np.ndarray, stats: _GroupStats) -> _GroupStats:
    """Apply the amplification step twice with one mask, in place.

    ``selected_idx`` holds the selected indices and ``stats`` the group sums of
    ``amps`` along the same mask.  The steps reflect about the post-flip
    means mu1 and mu2 = (2 mu1 (N - 2k) - sum_unsel - sum_sel) / N, which
    adds 2 (mu2 + mu1) to every selected amplitude and 2 (mu2 - mu1) to
    every unselected one.  Returns the stats after the step.
    """
    n_states, n_sel = stats.n_states, stats.n_selected
    mu1 = stats.post_flip_mean
    mu2 = (2.0 * mu1 * (n_states - 2 * n_sel) - stats.sum_unsel - stats.sum_sel) / n_states
    shift_sel, shift_unsel = 2.0 * (mu2 + mu1), 2.0 * (mu2 - mu1)
    amps += shift_unsel
    amps[selected_idx] += shift_sel - shift_unsel
    return stats.translated(shift_sel, shift_unsel)


def dynamic_iteration(state: StateVector, mask: SelectionMask) -> StateVector:
    """Apply the amplification step twice with the same stored mask."""
    check_dims(state, mask)
    amps = state.amps.copy()
    _doubled_step(amps, mask.indices, _GroupStats.of(amps, mask))
    return StateVector(state.n, amps)


def gain_report(state: StateVector, mask: SelectionMask) -> GainReport:
    """Gain and progress diagnostics of a state with respect to a mask.

    An infinite gain (no unselected mass left) signals that the search is
    complete.
    """
    check_dims(state, mask)
    return _GroupStats.of(state.amps, mask).report()


def progress_conditions(state: StateVector, mask: SelectionMask) -> ProgressConditions:
    """Evaluate the productive-round prerequisites for a state/mask pair."""
    check_dims(state, mask)
    stats = _GroupStats.of(state.amps, mask)
    return ProgressConditions(
        mean_amplitude=stats.post_flip_mean,
        min_unselected_amp=stats.min_unsel,
        ns_actual=mask.count_selected,
        n_states=state.size,
    )


def gain_bound(n_states: int, n_selected: int) -> float:
    """Gain ceiling (Ns/(N-Ns)) * (N/(2Ns) - 1)**2 for group-uniform amplitudes.

    The measured gain stays below this bound exactly on states whose next
    step keeps the unselected amplitudes positive.
    """
    if not 1 <= n_selected < n_states:
        raise ValueError("bound defined for 1 <= n_selected < n_states")
    ratio = n_states / (2.0 * n_selected) - 1.0
    return (n_selected / (n_states - n_selected)) * ratio * ratio


def selected_count_limit(n_states: int, gain_target: float) -> float:
    """Largest selected count compatible with a target gain: N / (2G)."""
    return n_states / (2.0 * gain_target)


def default_rounds(n: int, policy: SelectionPolicy) -> int:
    """floor((pi/4) * sqrt(N / max(1, E[selected count]))).

    Matches the static schedule length when the policy degenerates to a
    fixed mask.
    """
    n_states = 1 << n
    expected = max(1.0, policy.expected_selected())
    return int(math.floor((math.pi / 4.0) * math.sqrt(n_states / expected)))


def run_dynamic(
    n: int,
    policy: SelectionPolicy,
    rng: np.random.Generator,
    rounds: int | None = None,
    *,
    stop_above: float | None = None,
    watch_mask: SelectionMask | None = None,
    keep_best: bool = False,
    on_violation: str = "abort",
) -> tuple[StateVector, DynamicRunLog]:
    """Run doubled amplification rounds with freshly sampled masks.

    Starts from the uniform state.  Before each round the progress
    conditions are checked against the fresh mask; on a violation the
    default is to abort with :class:`~qamp.errors.ValidityError` carrying
    the state and the log so far, while ``on_violation="restart"`` resets
    to the uniform state and keeps going (drivers that must finish use
    this: live runs routinely show small transient negative excursions).

    ``stop_above`` ends the run right after the first round whose watched
    mass exceeds it -- the mass on ``watch_mask`` when given, else the
    round's own selected mass.  ``keep_best`` returns the state of the
    round with the highest expected fresh-selection mass instead of the
    final state (doubled rounds can overshoot the rotation optimum, so the
    best round is the one worth sampling).
    """
    if rounds is None:
        rounds = default_rounds(n, policy)
    if rounds < 0:
        raise ValueError(f"round count must be >= 0, got {rounds}")
    if on_violation not in ("abort", "restart"):
        raise ValueError(f"on_violation must be 'abort' or 'restart', got {on_violation!r}")
    if watch_mask is not None and watch_mask.n != n:
        raise ValueError(f"watch mask has n={watch_mask.n}, run has n={n}")
    n_states = 1 << n
    amps = uniform_init(n).amps
    probs = policy.probabilities
    indices: list[np.ndarray] = []
    reports: list[GainReport] = []
    policy_mass: list[float] = []
    watched_mass: list[float] | None = None if watch_mask is None else []
    restarts: list[int] = []
    best_amps = amps.copy() if keep_best else None
    # the policy mass of the uniform state
    best_score = policy.expected_selected() / n_states if keep_best else 0.0
    best_round = 0
    violation: _GroupStats | None = None

    for round_index in range(rounds):
        mask = sample_mask(policy, rng)
        stats = _GroupStats.of(amps, mask)
        if stats.post_flip_mean < -VALIDITY_ATOL or stats.min_unsel < -VALIDITY_ATOL:
            if on_violation == "abort":
                violation = stats
                break
            amps = uniform_init(n).amps
            # the uniform state is the zero state translated by 1/sqrt(N)
            k, amp = mask.count_selected, 1.0 / math.sqrt(n_states)
            zero = _GroupStats(0.0, 0.0, 0.0, 0.0, 0.0 if k < n_states else math.inf, k, n_states)
            stats = zero.translated(amp, amp)
            restarts.append(round_index)
        selected_idx = mask.indices.astype(np.int64, copy=False)
        report = _doubled_step(amps, selected_idx, stats).report()
        indices.append(selected_idx)
        reports.append(report)
        mass = report.p_selected if probs is None else float(probs @ (amps * amps))
        policy_mass.append(mass)
        if keep_best and mass > best_score:
            best_score = mass
            best_amps = amps.copy()
            best_round = round_index + 1
        if watched_mass is not None:
            watched_mass.append(probability_of(StateVector(n, amps), watch_mask))
        if stop_above is not None:
            observed = watched_mass[-1] if watched_mass is not None else report.p_selected
            if observed > stop_above:
                break

    log = DynamicRunLog(
        n,
        len(reports),
        tuple(indices),
        tuple(reports),
        tuple(policy_mass),
        None if watched_mass is None else tuple(watched_mass),
        best_round if keep_best else None,
        tuple(restarts),
    )
    if violation is not None:
        raise ValidityError(
            f"round {log.rounds} would start from an unproductive state "
            f"(post-flip mean {violation.post_flip_mean:.3e}, "
            f"min unselected {violation.min_unsel:.3e})",
            state=StateVector(n, amps),
            log=log,
            round_index=log.rounds,
        )
    final = best_amps if keep_best else amps
    return StateVector(n, final), log


def ordering_witness(n: int, first_mask: SelectionMask, doubled: bool = False) -> OrderingWitness:
    """Amplitudes after a round with ``first_mask`` then a round with no selection.

    With single (undoubled) steps the once-selected group provably ends
    below the never-selected group; with doubled steps it stays at or above
    it whenever at most half the space was selected.  This is the
    executable witness of why each round applies the step twice.
    """
    if first_mask.n != n:
        raise ValueError(f"mask has n={first_mask.n}, expected {n}")
    amps = uniform_init(n).amps
    for mask in (first_mask, SelectionMask.empty(n)):
        if doubled:
            _doubled_step(amps, mask.indices, _GroupStats.of(amps, mask))
        else:
            backend.grover_step(amps, mask.selected)
    stats = _GroupStats.of(amps, first_mask)
    n_sel, n_unsel = stats.n_selected, stats.n_states - stats.n_selected
    # an empty group takes the other group's mean
    sel_mean = stats.sum_sel / n_sel if n_sel else stats.sum_unsel / n_unsel
    unsel_mean = stats.sum_unsel / n_unsel if n_unsel else sel_mean
    return OrderingWitness(sel_mean, unsel_mean)


def replay_round_states(log: DynamicRunLog) -> Sequence[StateVector]:
    """States at every round boundary of a completed run (index 0 = initial)."""
    amps = uniform_init(log.n).amps
    states = [StateVector(log.n, amps.copy())]
    for round_index in range(log.rounds):
        mask = log.mask(round_index)
        _doubled_step(amps, mask.indices, _GroupStats.of(amps, mask))
        states.append(StateVector(log.n, amps.copy()))
    return states
