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
amplitudes stay positive (:func:`gain_report` gives both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import backend
from .core import (
    MAX_QUBITS,
    SelectionMask,
    SparseState,
    StateVector,
    check_dims,
    check_qubit_count,
    uniform_init,
)
from .errors import ShapeMismatchError, ValidityError
from .static_search import optimal_iterations

VALIDITY_ATOL = 1e-9  # "positive" is tested as > -VALIDITY_ATOL to absorb float noise


@dataclass(frozen=True)
class SelectionPolicy:
    """Which states a round selects: a per-state probability table, or one
    probability per similarity class.

    A fixed mask is the 0/1 table ``probabilistic(n, mask.selected)``.  The
    class form selects state x with probability
    ``class_probabilities[S(x)]``, where S(x) = n - popcount(x ^ reference)
    is its similarity to ``reference``; with a ``catalog`` only catalog
    members can be selected.  Runs under it never build a per-state table:
    they draw ranks within each class and map them to states
    (:meth:`states_of_rank`).
    """

    n: int
    probabilities: np.ndarray | None = None
    class_probabilities: np.ndarray | None = None
    reference: int = 0
    catalog: np.ndarray | None = None
    # class form only: member count of each class (within the catalog, if any)
    class_sizes: np.ndarray | None = field(default=None, init=False, repr=False)
    # class form with a catalog only: the catalog sorted by class, then index
    _by_class: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_qubit_count(self.n)
        if (self.probabilities is None) == (self.class_probabilities is None):
            raise ValueError("exactly one of probabilities / class_probabilities must be given")
        if self.probabilities is not None:
            probs = np.asarray(self.probabilities, dtype=np.float64)
            if probs.shape != (1 << self.n,):
                raise ValueError(
                    f"expected {1 << self.n} selection probabilities, got shape {probs.shape}"
                )
            # a table already within [0, 1] is kept as given, not copied
            if not (probs.min() >= 0.0 and probs.max() <= 1.0):
                _check_finite(probs)
                probs = np.clip(probs, 0.0, 1.0)
            object.__setattr__(self, "probabilities", probs)
        if self.class_probabilities is None:
            if self.catalog is not None:
                raise ValueError("a catalog needs per-class probabilities")
            return
        probs = np.asarray(self.class_probabilities, dtype=np.float64)
        _check_finite(probs)
        probs = np.clip(probs, 0.0, 1.0)
        if probs.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} per-class probabilities, got shape {probs.shape}"
            )
        object.__setattr__(self, "class_probabilities", probs)
        if not 0 <= self.reference < (1 << self.n):
            raise ShapeMismatchError(f"reference {self.reference} out of range for n={self.n}")
        if self.catalog is None:
            sizes = class_counts(self.n)
        else:
            catalog = np.unique(np.asarray(self.catalog, dtype=np.int64))
            if catalog.size and (catalog[0] < 0 or catalog[-1] >= (1 << self.n)):
                raise ShapeMismatchError(f"catalog item out of range for n={self.n}")
            object.__setattr__(self, "catalog", catalog)
            classes = self.class_of(catalog)
            sizes = np.bincount(classes, minlength=self.n + 1)
            object.__setattr__(self, "_by_class", catalog[np.argsort(classes, kind="stable")])
        object.__setattr__(self, "class_sizes", sizes)

    @classmethod
    def probabilistic(cls, n: int, probabilities) -> "SelectionPolicy":
        return cls(n, probabilities=probabilities)

    @classmethod
    def by_similarity(
        cls, n: int, reference: int, class_probabilities, catalog=None
    ) -> "SelectionPolicy":
        return cls(
            n, class_probabilities=class_probabilities, reference=reference, catalog=catalog
        )

    def expected_selected(self) -> float:
        """Expected number of selected states per round."""
        if self.probabilities is not None:
            return float(self.probabilities.sum())
        return float(self.class_sizes @ self.class_probabilities)

    def probabilities_at(self, indices: np.ndarray) -> np.ndarray:
        """The selection probability of each of the given states."""
        if self.probabilities is not None:
            return self.probabilities[indices]
        probs = self.class_probabilities[self.class_of(indices)]
        if self.catalog is not None:
            probs[~np.isin(indices, self.catalog)] = 0.0
        return probs

    def class_of(self, indices: np.ndarray) -> np.ndarray:
        """Similarity class n - popcount(x ^ reference) of each state."""
        return similarity_classes(self.n, self.reference, indices)

    def states_of_rank(self, classes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The member of rank ``ranks[i]`` (0 <= rank < its class size) of each
        class ``classes[i]``.

        With a catalog, a class's members rank in index order.  Without one,
        class S is the reference with n - S bits flipped, and the flipped
        bits rank in colex order (:func:`_colex_words`).
        """
        if self._by_class is not None:
            starts = np.cumsum(self.class_sizes) - self.class_sizes
            return self._by_class[starts[classes] + ranks]
        return self.reference ^ _colex_words(self.n, self.n - classes, ranks)


def _check_finite(probs: np.ndarray) -> None:
    if not np.isfinite(probs).all():
        raise ValueError("selection probabilities must be finite")


def similarity_classes(n: int, reference: int, indices) -> np.ndarray:
    """Similarity n - popcount(x ^ reference) of each n-bit state x, as int64."""
    return n - np.bitwise_count(indices ^ reference).astype(np.int64)


# _PASCAL[c, i] = C(c, i), zero for i > c
_PASCAL = np.array(
    [[math.comb(c, i) for i in range(MAX_QUBITS + 1)] for c in range(MAX_QUBITS + 1)],
    dtype=np.int64,
)


def class_counts(n: int) -> np.ndarray:
    """Number of states at each similarity S = 0..n: the binomial curve C(n, S)."""
    return _PASCAL[n, : n + 1].copy()


def _colex_words(n: int, bits_set: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The n-bit word with ``bits_set[i]`` bits set whose colex rank is ``ranks[i]``.

    In colex order the word with set bits c_k > ... > c_1 has rank
    sum_i C(c_i, i) (Knuth, TAOCP 4A, 7.2.1.3), so walking the bits from the
    top, bit c is set exactly when C(c, k) <= r for the k bits and rank r
    still to place: n vectorised steps for any number of words.
    """
    words = np.zeros(ranks.size, dtype=np.int64)
    left = np.array(bits_set, dtype=np.int64)
    rest = np.array(ranks, dtype=np.int64)
    for bit in range(n - 1, -1, -1):
        binom = _PASCAL[bit].take(left)
        take = binom <= rest
        rest -= binom * take
        left -= take
        words += take << bit
    return words


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
class DynamicRunLog:
    """Per-round record of a dynamic run.

    Masks are stored as selected-index arrays to keep large-n runs light;
    :meth:`mask` rebuilds the boolean form for any round.
    ``policy_mass_by_round`` is the expected mass a fresh selection round
    would mark (under a 0/1 table this equals the logged p_selected);
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


@dataclass(frozen=True)
class OrderingWitness:
    """Group amplitudes after a selection round followed by an empty round."""

    selected_amp: float
    unselected_amp: float


class _GroupStats(NamedTuple):
    """Per-group sums of a state along a mask.

    The dense diagnostics take them from ``backend.selection_stats``; runs
    keep them in closed form (:meth:`doubling_shifts`, :meth:`translated`).
    """

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

    def doubling_shifts(self) -> tuple[float, float]:
        """What two steps with this mask add to each selected and each unselected amplitude.

        The steps reflect about the post-flip means mu1 and
        mu2 = (2 mu1 (N - 2k) - sum_unsel - sum_sel) / N, which adds
        2 (mu2 + mu1) to every selected amplitude and 2 (mu2 - mu1) to every
        unselected one.
        """
        n_states = self.n_states
        mu1 = self.post_flip_mean
        mu2 = (2.0 * mu1 * (n_states - 2 * self.n_selected) - self.sum_unsel - self.sum_sel) / n_states
        return 2.0 * (mu2 + mu1), 2.0 * (mu2 - mu1)

    def translated(self, shift_sel: float, shift_unsel: float) -> "_GroupStats":
        """Stats after adding ``shift_sel`` to every selected amplitude and
        ``shift_unsel`` to every unselected one."""
        n_sel, n_unsel = self.n_selected, self.n_states - self.n_selected
        # sums of squares: rounding must not take a group that lands on zero below it
        return _GroupStats(
            self.sum_sel + n_sel * shift_sel,
            self.sum_unsel + n_unsel * shift_unsel,
            max(0.0, self.sumsq_sel + shift_sel * (2.0 * self.sum_sel + n_sel * shift_sel)),
            max(0.0, self.sumsq_unsel + shift_unsel * (2.0 * self.sum_unsel + n_unsel * shift_unsel)),
            self.min_unsel + shift_unsel,
            n_sel,
            self.n_states,
        )


class _Support:
    """The state of a dynamic run, with the masks of all its rounds drawn when it starts.

    A mask depends only on the policy, never on the amplitudes, so a run of
    R rounds first draws its support (:func:`_draw_support`), the states
    that any of its rounds will select, and then each round tests only
    those.  Each support state gets its first selected round from the
    geometric law truncated to R rounds; round r then selects it if r is
    that round, or if r comes later and a fresh uniform falls below its
    probability P(x).  Every state is thus selected in every round
    independently with probability P(x), the law of a per-round draw.

    A doubled round adds one constant to every selected amplitude and
    another to every unselected one, so every state not selected since the
    last restart keeps the shared amplitude ``bulk``.  The support is
    stored in index order: indices ``idx``, amplitudes ``amp`` (``bulk``
    until first selected), selection probabilities ``p`` and, when the run
    watches a policy, watched probabilities ``w``.  A mask is a boolean over
    the support, so a round costs O(n + T) for T support states, and a
    restart only resets the amplitudes.
    """

    def __init__(
        self,
        policy: SelectionPolicy,
        rounds: int,
        rng: np.random.Generator,
        watch: SelectionPolicy | None = None,
    ):
        self.n = policy.n
        self.n_states = 1 << policy.n
        self.idx, self.p = _draw_support(policy, rounds, rng)
        q = 1.0 - (1.0 - self.p) ** rounds
        # inverse CDF of the first selected round, given at least one in R
        with np.errstate(divide="ignore"):  # log1p(-1) for P = 1, which gives round 0
            first = np.log1p(-rng.random(self.idx.size) * q) / np.log1p(-self.p)
        self._first = np.minimum(np.floor(first), rounds - 1).astype(np.int64)
        self._round = 0
        self.w = None if watch is None else watch.probabilities_at(self.idx)
        self.amp = np.empty(self.idx.size)
        self.reset()

    def reset(self) -> None:
        """Back to the uniform state; the support and the round's mask stay."""
        self.bulk = 1.0 / math.sqrt(self.n_states)
        self.amp.fill(self.bulk)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """The next round's mask, a boolean over the support."""
        r, first = self._round, self._first
        self._round += 1
        return (first == r) | ((first < r) & (rng.random(first.size) < self.p))

    def stats(self, mask: np.ndarray) -> _GroupStats:
        """Group sums of the state along a mask."""
        sel, unsel = self.amp[mask], self.amp[~mask]
        bulk, bulk_states = self.bulk, self.n_states - self.idx.size
        min_unsel = min(
            float(unsel.min()) if unsel.size else math.inf,
            bulk if bulk_states else math.inf,
        )
        return _GroupStats(
            float(sel.sum()),
            float(unsel.sum()) + bulk_states * bulk,
            float(sel @ sel),
            float(unsel @ unsel) + bulk_states * bulk * bulk,
            min_unsel,
            sel.size,
            self.n_states,
        )

    def step(self, mask: np.ndarray, stats: _GroupStats) -> tuple[np.ndarray, _GroupStats]:
        """Apply the doubled step.

        Returns the selected indices (sorted, as the support is) and the
        stats after the step.
        """
        shift_sel, shift_unsel = stats.doubling_shifts()
        self.amp += shift_unsel
        self.amp[mask] += shift_sel - shift_unsel
        self.bulk += shift_unsel
        return self.idx[mask], stats.translated(shift_sel, shift_unsel)

    def mass(self, weights: np.ndarray, total: float) -> float:
        """Sum over all states of w(x) a(x)**2, for per-state weights w given on
        the support and summing to ``total`` over the whole space."""
        return float(weights @ (self.amp * self.amp)) + self.bulk * self.bulk * (
            total - float(weights.sum())
        )

    def snapshot(self) -> tuple[float, np.ndarray, np.ndarray]:
        return self.bulk, self.idx, self.amp.copy()

    def sparse_state(self, snapshot: tuple[float, np.ndarray, np.ndarray]) -> SparseState:
        """A snapshot as a :class:`~qamp.core.SparseState`."""
        return SparseState(self.n, *snapshot)


def _draw_support(
    policy: SelectionPolicy, rounds: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The states any of ``rounds`` rounds under ``policy`` selects, sorted,
    and their selection probabilities.

    State x is in it independently with probability
    q(x) = 1 - (1 - P(x))**R.  A class policy takes k = Binomial(C_S, q_S)
    members of each class S (C_S its size, within the catalog if there is
    one) as k distinct uniform ranks in 0..C_S - 1, all mapped to states in
    one pass (:meth:`SelectionPolicy.states_of_rank`).  A per-state table
    takes x when the least of its R round uniforms, drawn as
    1 - (1 - U)**(1/R) from one uniform U, falls below P(x): one pass over
    one N-sized buffer per run.
    """
    if policy.probabilities is None:
        class_p = policy.class_probabilities
        counts = rng.binomial(policy.class_sizes, 1.0 - (1.0 - class_p) ** rounds)
        classes = np.repeat(np.arange(policy.n + 1), counts)
        ranks = [np.empty(0, dtype=np.int64)] + [
            rng.choice(size, k, replace=False, shuffle=False)
            for size, k in zip(policy.class_sizes.tolist(), counts.tolist())
            if k
        ]
        idx = policy.states_of_rank(classes, np.concatenate(ranks))
        order = np.argsort(idx)
        return idx[order], class_p[classes[order]]
    if rounds == 0:
        idx = np.empty(0, dtype=np.int64)
    else:
        least = rng.random(1 << policy.n)
        np.subtract(1.0, least, out=least)
        np.power(least, 1.0 / rounds, out=least)
        np.subtract(1.0, least, out=least)
        idx = np.flatnonzero(least < policy.probabilities)
    return idx, policy.probabilities[idx]


def dynamic_iteration(state: StateVector, mask: SelectionMask) -> StateVector:
    """Apply the amplification step twice with the same stored mask.

    Two literal steps: this is the dense reference for the closed form
    that runs apply.
    """
    check_dims(state, mask)
    amps = state.amps.copy()
    for _ in range(2):
        backend.grover_step(amps, mask.selected)
    return StateVector(state.n, amps)


def gain_report(state: StateVector, mask: SelectionMask) -> GainReport:
    """Gain and progress diagnostics of a state with respect to a mask.

    A round from this state is productive while ``mean_amplitude`` (the
    post-flip mean) and ``min_unselected_amp`` both stay above
    ``-VALIDITY_ATOL``.  An infinite gain (no unselected mass left)
    signals that the search is complete.
    """
    check_dims(state, mask)
    return _GroupStats.of(state.amps, mask).report()


def gain_bound(n_states: int, n_selected: int) -> float:
    """Gain ceiling (Ns/(N-Ns)) * (N/(2Ns) - 1)**2 for group-uniform amplitudes.

    The measured gain stays below this bound exactly on states whose next
    step keeps the unselected amplitudes positive.
    """
    if not 1 <= n_selected < n_states:
        raise ValueError("bound defined for 1 <= n_selected < n_states")
    ratio = n_states / (2.0 * n_selected) - 1.0
    return (n_selected / (n_states - n_selected)) * ratio * ratio


def default_rounds(n: int, policy: SelectionPolicy) -> int:
    """floor((pi/4) * sqrt(N / max(1, E[selected count]))).

    The static schedule with E[selected count] for the marked count, so a
    0/1 table gets the static schedule length of its mask.
    """
    return optimal_iterations(1 << n, max(1.0, policy.expected_selected()))


def run_dynamic(
    n: int,
    policy: SelectionPolicy,
    rng: np.random.Generator,
    rounds: int | None = None,
    *,
    stop_above: float | None = None,
    watch: SelectionPolicy | None = None,
    keep_best: bool = False,
    on_violation: str = "abort",
) -> tuple[SparseState, DynamicRunLog]:
    """Run doubled amplification rounds with freshly sampled masks.

    Starts from the uniform state.  Before each round the progress
    conditions are checked against the fresh mask; on a violation the
    default is to abort with :class:`~qamp.errors.ValidityError` carrying
    the state and the log so far, while ``on_violation="restart"`` resets
    to the uniform state and keeps going (drivers that must finish use
    this: live runs routinely show small transient negative excursions).

    ``watch`` logs each round's watched mass, the sum over x of
    P_watch(x) * a(x)**2 with P_watch the selection probabilities of that
    policy.  For a fixed set, the 0/1 table
    ``SelectionPolicy.probabilistic(n, mask.selected)``, it is the set's
    probability.  ``stop_above`` needs a ``watch`` and ends the run right
    after the first round whose watched mass exceeds it.  ``keep_best``
    returns the state of the round with the highest expected
    fresh-selection mass instead of the final state (doubled rounds can
    overshoot the rotation optimum, so the best round is the one worth
    sampling).

    The state comes back as a :class:`~qamp.core.SparseState`: the shared
    amplitude of the never-selected states plus the stored states, in
    index order.  Its ``amps`` build the dense vector on first use.

    Every policy draws the masks of all ``rounds`` rounds when the run
    starts (see :class:`_Support`).
    """
    if rounds is None:
        rounds = default_rounds(n, policy)
    if rounds < 0:
        raise ValueError(f"round count must be >= 0, got {rounds}")
    if on_violation not in ("abort", "restart"):
        raise ValueError(f"on_violation must be 'abort' or 'restart', got {on_violation!r}")
    if policy.n != n:
        raise ValueError(f"policy has n={policy.n}, run has n={n}")
    if watch is not None and watch.n != n:
        raise ValueError(f"watched policy has n={watch.n}, run has n={n}")
    if stop_above is not None and watch is None:
        raise ValueError("stop_above needs a watched policy")
    support = _Support(policy, rounds, rng, watch)
    expected = policy.expected_selected()
    watched_total = None if watch is None else watch.expected_selected()
    indices: list[np.ndarray] = []
    reports: list[GainReport] = []
    policy_mass: list[float] = []
    watched_mass: list[float] | None = None if watch is None else []
    restarts: list[int] = []
    best = support.snapshot() if keep_best else None
    # the policy mass of the uniform state
    best_score = expected / support.n_states if keep_best else 0.0
    best_round = 0
    violation: _GroupStats | None = None

    for round_index in range(rounds):
        mask = support.draw(rng)
        stats = support.stats(mask)
        if stats.post_flip_mean < -VALIDITY_ATOL or stats.min_unsel < -VALIDITY_ATOL:
            if on_violation == "abort":
                violation = stats
                break
            support.reset()
            stats = support.stats(mask)
            restarts.append(round_index)
        selected_idx, after = support.step(mask, stats)
        indices.append(selected_idx)
        reports.append(after.report())
        mass = support.mass(support.p, expected)
        policy_mass.append(mass)
        if keep_best and mass > best_score:
            best_score = mass
            best = support.snapshot()
            best_round = round_index + 1
        if watched_mass is not None:
            watched_mass.append(support.mass(support.w, watched_total))
            if stop_above is not None and watched_mass[-1] > stop_above:
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
            state=support.sparse_state(support.snapshot()),
            log=log,
        )
    return support.sparse_state(best if keep_best else support.snapshot()), log


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
        for _ in range(2 if doubled else 1):
            backend.grover_step(amps, mask.selected)
    stats = _GroupStats.of(amps, first_mask)
    n_sel, n_unsel = stats.n_selected, stats.n_states - stats.n_selected
    # an empty group takes the other group's mean
    sel_mean = stats.sum_sel / n_sel if n_sel else stats.sum_unsel / n_unsel
    unsel_mean = stats.sum_unsel / n_unsel if n_unsel else sel_mean
    return OrderingWitness(sel_mean, unsel_mean)


def replay_round_states(log: DynamicRunLog) -> Sequence[StateVector]:
    """States at every round boundary of a completed run (index 0 = initial).

    A round listed in ``log.restart_rounds`` starts from the uniform state.
    """
    states = [uniform_init(log.n)]
    restarts = set(log.restart_rounds)
    for round_index in range(log.rounds):
        start = uniform_init(log.n) if round_index in restarts else states[-1]
        states.append(dynamic_iteration(start, log.mask(round_index)))
    return states
