"""Amplification with a probabilistic selection function.

Each round samples a fresh selection mask from the policy, stores it, and
applies the amplification step twice with that stored mask.  The doubling
cancels the ordering artifact of single steps: a state selected in one
round and skipped in the next would otherwise end up *below* states never
selected at all (see :func:`qamp.backend.ordering_witness`).  Degenerate
masks are harmless under doubling: two steps with an empty or full mask
are the identity.

Progress diagnostics follow the two-component analysis: a round is
productive only while the post-flip mean amplitude and all unselected
amplitudes stay positive (a run's :class:`DynamicRunLog` keeps both per
round; the dense reference ``qamp.backend.gain_report`` takes them from
the amplitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_QUBITS, SparseState, check_qubit_count, in_sorted
from .errors import ShapeMismatchError

# states per block of a per-state table's support draw (_draw_support): a
# float64 block is 64 KiB, under glibc's default 128 KiB mmap threshold, so
# its buffers and the block's candidates come from the heap instead of
# fresh pages on every run
_DRAW_BLOCK = 1 << 13


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

    def moments(self) -> list[float]:
        """M_j, the sum over all states of P(x)**j, for j = 1, 2, 3."""
        if self.probabilities is not None:
            # reductions only: nothing of the table's size is allocated
            probs = self.probabilities
            cubes = np.einsum("i,i,i->", probs, probs, probs)
            return [float(probs.sum()), float(probs @ probs), float(cubes)]
        powers = np.vander(self.class_probabilities, 4, increasing=True)[:, 1:]  # P, P**2, P**3
        return (self.class_sizes @ powers).tolist()

    def probabilities_at(self, indices: np.ndarray) -> np.ndarray:
        """The selection probability of each of the given states."""
        if self.probabilities is not None:
            return self.probabilities[indices]
        probs = self.class_probabilities[self.class_of(indices)]
        if self.catalog is not None:
            probs[~in_sorted(self.catalog, indices)] = 0.0
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
        return self.reference ^ _colex_words(self.n - classes, ranks)


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
# Pascal's columns as one sorted array: entry (k, c) is (k << 32) + C(c, k)
# (every C(c, k) here is below 2**32), with, for unranking, the bit 1 << c
# it places and what placing it takes off a (k << 32) + rank key
_COLUMN_K, _COLUMN_C = np.divmod(np.arange((MAX_QUBITS + 1) ** 2), MAX_QUBITS + 1)
_COLUMN_KEYS = (_COLUMN_K << 32) + _PASCAL[_COLUMN_C, _COLUMN_K]
_COLUMN_BITS = np.int64(1) << _COLUMN_C
_COLUMN_STEPS = (np.int64(1) << 32) + _PASCAL[_COLUMN_C, _COLUMN_K]


def class_counts(n: int) -> np.ndarray:
    """Number of states at each similarity S = 0..n: the binomial curve C(n, S)."""
    return _PASCAL[n, : n + 1].copy()


def _colex_words(bits_set: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The word with ``bits_set[i]`` bits set whose colex rank is ``ranks[i]``.

    In colex order the word with set bits c_k > ... > c_1 has rank
    sum_i C(c_i, i) (Knuth, TAOCP 4A, 7.2.1.3), so the top bit of k bits
    of rank r is the largest c with C(c, k) <= r, and the rest is the word
    of k - 1 bits and rank r - C(c, k).  One search of Pascal's columns
    places the top bit of every unfinished word: max(bits_set) vectorised
    steps for any number of words.
    """
    bits = np.asarray(bits_set, dtype=np.int64)
    # most bits first, so that the unfinished words are a prefix
    order = np.argsort(-bits, kind="stable")
    bits = bits[order]
    keys = (bits << 32) + np.asarray(ranks, dtype=np.int64)[order]
    unfinished = np.searchsorted(-bits, -np.arange(bits.max(initial=0)), side="left")
    words = np.zeros(bits.size, dtype=np.int64)
    for live in unfinished.tolist():
        at = np.searchsorted(_COLUMN_KEYS, keys[:live], side="right") - 1
        keys[:live] -= _COLUMN_STEPS[at]
        words[:live] |= _COLUMN_BITS[at]
    out = np.empty_like(words)
    out[order] = words
    return out


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

    @staticmethod
    def of(p_sel: float, p_unsel: float, mean: float, min_unsel: float, n_sel: int,
           n_states: int) -> "GainReport":
        """The report of a mask of ``n_sel`` states out of ``n_states``."""
        gain = p_sel / p_unsel if p_unsel > 0.0 else math.inf
        ns_bound = n_states / (2.0 * gain) if gain else math.inf  # 0.0 for an infinite gain
        return GainReport(p_sel, p_unsel, gain, mean, min_unsel, ns_bound, n_sel)

    @property
    def complete(self) -> bool:
        """True when no probability mass remains outside the selected set."""
        return math.isinf(self.gain)


@dataclass(frozen=True, eq=False)
class DynamicRunLog:
    """Record of a dynamic run, one column entry per completed round.

    Round i (0-based) selected ``events[starts[i]:starts[i + 1]]``, in
    index order.  Entry i of each float64 column describes the state after
    round i's doubled step, along round i's mask, as :meth:`report` does:
    its mass on and off the mask, its post-flip mean and its least
    unselected amplitude (+inf for a full mask); and the watched policy's
    mass (the column is None when the run watched none).  A run that
    watches its own policy logs its policy mass, the mass a fresh
    selection round would mark (under a 0/1 table, p_selected).  Every
    round steps from the state the round before it left, and a run
    returns its final state.
    """

    n: int
    rounds: int
    events: np.ndarray  # int64
    starts: np.ndarray  # int64, rounds + 1 entries
    p_selected: np.ndarray
    p_unselected: np.ndarray
    mean_amplitude: np.ndarray
    min_unselected_amp: np.ndarray
    watched_mass_by_round: np.ndarray | None
    # None and (), as no run returns an earlier round or restarts; perfbench reads both
    best_round = None
    restart_rounds = ()

    @property
    def n_selected(self) -> np.ndarray:
        """Selected count of each round."""
        return np.diff(self.starts)

    @property
    def gains(self) -> np.ndarray:
        """p_selected / p_unselected of each round, inf where no unselected mass is left."""
        p_unsel = self.p_unselected
        inf = np.full(self.rounds, math.inf)
        return np.divide(self.p_selected, p_unsel, out=inf, where=p_unsel > 0.0)

    @property
    def selected_indices(self) -> tuple[np.ndarray, ...]:
        """Each round's selected states, as views of ``events``."""
        starts = self.starts.tolist()
        return tuple(self.events[a:b] for a, b in zip(starts, starts[1:]))

    def report(self, i: int) -> GainReport:
        """The diagnostics of round i (0-based), as a :class:`GainReport`."""
        i = range(self.rounds)[i]
        columns = (self.p_selected, self.p_unselected, self.mean_amplitude, self.min_unselected_amp)
        n_sel = int(self.starts[i + 1] - self.starts[i])
        return GainReport.of(*(float(column[i]) for column in columns), n_sel, 1 << self.n)


def doubling_shifts(
    sum_sel: float, sum_unsel: float, n_selected: float, n_states: float
) -> tuple[float, float]:
    """What two steps with one mask add to each selected and each unselected
    amplitude, from the state's sums over the two groups.

    The steps reflect about the post-flip means
    mu1 = (sum_unsel - sum_sel) / N and
    mu2 = (2 mu1 (N - 2k) - sum_unsel - sum_sel) / N, for k of the N states
    selected, which adds 2 (mu2 + mu1) to every selected amplitude and
    2 (mu2 - mu1) to every unselected one.
    """
    mu1 = (sum_unsel - sum_sel) / n_states
    mu2 = (2.0 * mu1 * (n_states - 2 * n_selected) - sum_unsel - sum_sel) / n_states
    return 2.0 * (mu2 + mu1), 2.0 * (mu2 - mu1)


class _Support:
    """The state of a dynamic run, with the masks of all its rounds drawn when it starts.

    A mask depends only on the policy, never on the amplitudes, so a run of
    R rounds first draws every round in which each state is selected, in
    one call: under a class policy as one grid of (member, round) cells
    (:func:`_draw_class_run`), under a per-state table as its support, the
    states that any of its rounds will select, with the first round of
    each, then their later rounds (:func:`_draw_table_run`).  The events
    are sorted by round, so a round's mask is a slice of support
    positions, ascending.

    A doubled round adds one constant to every selected amplitude and
    another to every unselected one.  The state is therefore kept as the
    shared amplitude ``bulk`` plus, for each support state (in index
    order, indices ``idx``), its offset ``e = a(x) - bulk``.  An offset is
    zero until its state is first selected, and a round moves only the
    offsets it selects.  The running sum ``sum_e`` of the offsets gives the
    group sums a step needs without a pass over the support, so a round
    costs O(|mask|).

    A round takes only its step, and records the scalars its log entry
    needs: its two shifts, the sum of e over the unselected support states,
    ``bulk``, and over its mask the sum of e**2 and the sum of v e for each
    weight v: 1, and the watched probability w when the run watches a
    policy.  :meth:`columns` computes the log from that record after the
    run, over all rounds at once; nothing reads a mass while the run goes.
    The one log scalar a round computes itself is the least unselected
    amplitude before its step: ``bulk`` while no offset is negative and
    some state lies outside the support, and otherwise a pass over the
    support.
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
        draw = _draw_class_run if policy.probabilities is None else _draw_table_run
        self.idx, round_of, self._pos = draw(policy, rounds, rng)
        self._starts = np.searchsorted(round_of, np.arange(rounds + 1)).tolist()
        self._selected = self.idx[self._pos]
        # per event, the weights 1 (and w) of its state; per round, its
        # unselected and selected counts (and the sum of w over its mask),
        # so that row 1 + k sums weight k; and what each weight sums to over
        # the whole space
        weights = 1 if watch is None else 2
        self._weights = np.ones((weights, self._pos.size))
        self._per_round = np.empty((1 + weights, rounds))
        self._per_round[1] = np.bincount(round_of, minlength=rounds)
        np.subtract(self.n_states, self._per_round[1], out=self._per_round[0])
        self._totals = [float(self.n_states)]
        if watch is not None:
            np.take(watch.probabilities_at(self.idx), self._pos, out=self._weights[1])
            self._per_round[2] = np.bincount(round_of, weights=self._weights[1], minlength=rounds)
            self._totals.append(watch.expected_selected())
        # the uniform state
        self.bulk = 1.0 / math.sqrt(self.n_states)
        self.e = np.empty(self.idx.size)
        self.e.fill(0.0)
        self.sum_e = 0.0
        # the sums over the support of v e**2, then of v e, for each weight
        # v, before round 0: every offset starts at zero
        self._sums_at_start = np.zeros(2 * len(self._totals))
        # per round taken: shift_unsel, shift_sel, the sum of e over the
        # unselected support states, the sum of v e over its mask for each
        # weight v, bulk and the sum of e**2 over its mask, before its step
        self._record: list[float] = []
        # the rounds taken whose least unselected amplitude before the step was
        # not bulk: that amplitude
        self._least: dict[int, float] = {}
        # the rounds taken whose mask was the whole support
        self._full: list[int] = []
        # the least unselected amplitude is bulk while no offset is
        # negative and some state lies outside the support
        self._least_is_bulk = self.idx.size < self.n_states

    def take_round(self, i: int) -> None:
        """Take round i (0-based): its doubled step, and its entry in the record.

        The group sums along the round's mask come from its offsets and the
        running sum of the offsets.
        """
        start, stop = self._starts[i], self._starts[i + 1]
        pos = self._pos[start:stop]
        e = self.e[pos]
        sum_ee = float(e.dot(e))
        weighted_e = self._weights[:, start:stop].dot(e).tolist()  # sum of v e, each weight v
        sum_e = weighted_e[0]
        bulk, n_sel, n_states = self.bulk, stop - start, self.n_states
        # the sum of e over the unselected support states
        if n_sel < self.idx.size:
            rest_e = self.sum_e - sum_e
        else:
            rest_e = 0.0
            self._full.append(i)
        if not self._least_is_bulk:
            unselected = np.ones(self.idx.size, dtype=bool)
            unselected[pos] = False
            least = float(self.e[unselected].min(initial=math.inf))
            if self.idx.size < n_states:
                least = min(least, 0.0)
            self._least[i] = bulk + least

        shift_sel, shift_unsel = doubling_shifts(
            n_sel * bulk + sum_e, (n_states - n_sel) * bulk + rest_e, n_sel, n_states
        )
        moved = shift_sel - shift_unsel
        e += moved
        self.e[pos] = e
        if self._least_is_bulk and moved < 0.0 and n_sel and e.min() < 0.0:
            self._least_is_bulk = False
        self.bulk = bulk + shift_unsel
        self.sum_e += moved * n_sel
        self._record += (shift_unsel, shift_sel, rest_e, *weighted_e, bulk, sum_ee)

    def columns(self) -> list[np.ndarray | None]:
        """The float columns of the rounds taken, in :class:`DynamicRunLog`'s
        order: p_selected, p_unselected, mean_amplitude, min_unselected_amp
        and the watched mass (None when the run watches none).

        Each column describes the state after a round's step, along its
        mask.  The scalars of each round come from the record and from
        running sums accumulated over it, by the formulas of one round taken
        at a time, in the same order, over all rounds at once.  The group
        arrays hold the unselected group in row 0, the selected one in row 1.
        """
        weights = len(self._totals)
        record = np.fromiter(self._record, np.float64, len(self._record))
        record = record.reshape(-1, 5 + weights).T.copy()
        done = record.shape[1]
        shifts, sums_e = record[:2], record[2:4]
        weighted_e, bulk, sum_ee = record[3 : 3 + weights], record[3 + weights], record[4 + weights]
        counts, weight_sums = self._per_round[:2, :done], self._per_round[1:, :done]
        moved = shifts[1] - shifts[0]
        # the running sums over the support of v e**2 (the first rows) and
        # of v e, for each weight v, before each round and after the last
        running = np.empty((2 * weights, done + 1))
        running[:, 0] = self._sums_at_start
        squares, plain = running[:weights, 1:], running[weights:, 1:]
        np.multiply(weight_sums, moved, out=plain)
        np.add(weighted_e, weighted_e, out=squares)
        squares += plain
        squares *= moved
        np.add.accumulate(running, axis=1, out=running)

        # each group's sum of squares before the step; the unselected
        # support states' sum of e**2 is zero when a mask takes the support
        sums_ee = np.empty((2, done))
        np.subtract(running[0, :-1], sum_ee, out=sums_ee[0])
        np.maximum(sums_ee[0], 0.0, out=sums_ee[0])
        sums_ee[0, self._full] = 0.0
        sums_ee[1] = sum_ee
        bulk_part = counts * bulk
        sums = bulk_part + sums_e
        sumsq = sums_e + sums_e
        sumsq += bulk_part
        sumsq *= bulk
        sumsq += sums_ee
        np.maximum(sumsq, 0.0, out=sumsq)
        # after the step: each group's sum of squares (rounding must not
        # take one that lands on zero below it), and its sum
        moved_part = counts * shifts
        masses = sums + sums
        masses += moved_part
        masses *= shifts
        masses += sumsq
        np.maximum(masses, 0.0, out=masses)
        sums += moved_part
        mean = sums[0] - sums[1]
        mean /= self.n_states

        after = bulk + shifts[0]
        least = after
        if self._least:
            scanned = list(self._least)
            least = after.copy()
            least[scanned] = np.array(list(self._least.values())) + shifts[0, scanned]
        watched = None
        if weights > 1:  # rows 1 and 3 of running sum w e**2 and w e
            watched = self._totals[1] * after
            watched += running[3, 1:] + running[3, 1:]
            watched *= after
            watched += running[1, 1:]
        return [masses[1], masses[0], mean, least, watched]

    def sparse_state(self) -> SparseState:
        """The state now, as a :class:`~qamp.core.SparseState` that shares no
        array the run writes."""
        return SparseState(self.n, self.bulk, self.idx, self.bulk + self.e)


def _events_by_round(
    keys: list[np.ndarray], rounds: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The rounds and support positions of a run's events, sorted by round,
    then position, from their keys round * size + position, for ``size``
    support states."""
    # 32-bit keys sort about twice as fast, where they fit; the positions
    # come back as index-sized integers, which indexing takes without a cast
    keys = np.concatenate(keys, dtype=np.int32 if rounds * size < 2**31 else np.int64)
    keys.sort()
    round_of = keys // max(size, 1)
    return round_of, (keys - round_of * size).astype(np.intp)


def _draw_class_run(
    policy: SelectionPolicy, rounds: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every selection a run of ``rounds`` rounds under a class policy makes:
    its support, sorted, then the rounds and support positions of its
    events, sorted by round, then position.

    Class S is a grid of C_S * R cells, one per (member, round), C_S its
    size (within the catalog, if there is one), and each cell is selected
    independently with probability P_S, the law of a per-round draw.
    Numbering the members of all classes in class order, cell (member, r)
    is member * R + r, so a class's cells are one run of numbers.  The
    selected cells come as geometric gaps 1 + floor(E / -ln(1 - P_S)) for
    standard exponentials E (Devroye 1986), each clamped to one more than
    its class's grid length (past the end from any cell), as a gap of a P_S
    near zero can be infinite.  One ragged pass draws, for every class at
    once, its expected count plus a margin; a further pass draws only for
    the classes not yet past their last cell.  The distinct members map to
    states in one call of :meth:`SelectionPolicy.states_of_rank`, and one
    sort orders the events by round, then index.
    """
    class_p, sizes = policy.class_probabilities, policy.class_sizes
    first_member = np.cumsum(sizes) - sizes
    live = np.flatnonzero((class_p > 0.0) & (sizes * rounds > 0))
    grid, p = sizes[live] * rounds, class_p[live]
    with np.errstate(divide="ignore"):  # log1p(-1) for P = 1, whose gaps are all 1
        rate = -np.log1p(-p)
    first_cell = first_member[live] * rounds
    last = np.full(live.size, -1)  # the last cell drawn in each class, within its grid
    selected = [np.empty(0, dtype=np.int64)]  # the global numbers of the selected cells
    going = np.arange(live.size)
    while going.size:
        left = grid[going] - 1 - last[going]
        mean = left * p[going]
        count = np.minimum(left, np.ceil(mean + 3.0 * np.sqrt(mean) + 4.0).astype(np.int64))
        owner = np.repeat(going, count)
        # -ln U for a uniform U is a standard exponential
        with np.errstate(over="ignore"):
            gaps = rng.standard_exponential(owner.size) / rate[owner]
        np.floor(gaps, out=gaps)
        gaps += 1.0
        cells = np.minimum(gaps, grid[owner] + 1).astype(np.int64)
        # a cumsum over all classes' gaps, restarted at each class's last cell
        np.cumsum(cells, out=cells)
        ends = np.cumsum(count)
        restart = last[going] - np.concatenate(([0], cells[ends[:-1] - 1]))
        cells += np.repeat(restart, count)
        selected.append((cells + first_cell[owner])[cells < grid[owner]])
        last[going] = cells[ends - 1]
        going = going[last[going] < grid[going] - 1]
    # each pass is sorted, so a stable sort merges a few sorted runs
    selected = np.concatenate(selected)
    selected.sort(kind="stable")

    member = selected // max(rounds, 1)
    round_of = selected - member * rounds
    new = np.empty(member.size, dtype=bool)
    new[:1] = True
    np.not_equal(member[1:], member[:-1], out=new[1:])
    members = member[new]
    classes = np.searchsorted(first_member, members, side="right") - 1
    states = policy.states_of_rank(classes, members - first_member[classes])
    order = np.argsort(states)
    size = states.size
    position = np.empty(size, dtype=np.int64)
    position[order] = np.arange(size)
    keys = round_of * size + position[np.cumsum(new) - 1]
    return states[order], *_events_by_round([keys], rounds, size)


def _draw_table_run(
    policy: SelectionPolicy, rounds: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every selection a run of ``rounds`` rounds under a per-state table
    makes: its support, sorted, then the rounds and support positions of
    its events, sorted by round, then position.

    The support comes with each state's first selected round
    (:func:`_draw_support`), and every later round then selects the state
    independently with probability P (the geometric law is memoryless), so
    each state is selected in every round independently with probability
    P, the law of a per-round draw.  For R <= 8 the later rounds come as one
    Bernoulli row over rounds 1..R-1 per support state, of which the rounds
    after its first count.  For longer runs they come as geometric gaps
    1 + floor(E / -ln(1 - P)) for standard exponentials E (Devroye 1986), in
    passes over the states not yet at the last round: 4, 8, 16, ... gaps per
    state in successive passes, so that a state selected K more times takes
    O(log K) passes and at most about 2K + 4 gaps.
    """
    idx, p, first = _draw_support(policy, rounds, rng)
    size = idx.size
    keys = [first * size + np.arange(size)]
    if rounds > 8:
        going, at = np.arange(size), first.astype(np.float64)
        with np.errstate(divide="ignore"):  # log1p(-1) for P = 1, whose gaps are all 1
            rate = -np.log1p(-p)[:, None]
        block = 4
        while going.size:
            # -ln U for a uniform U is a standard exponential
            gaps = rng.standard_exponential((going.size, block))
            gaps /= rate
            np.floor(gaps, out=gaps)
            gaps += 1.0
            np.cumsum(gaps, axis=1, out=gaps)
            gaps += at[:, None]  # now the rounds themselves
            keys.append((gaps * size + going[:, None])[gaps < rounds].astype(np.int64))
            more = np.flatnonzero(gaps[:, -1] < rounds - 1)
            going, at, rate = going[more], gaps[more, -1], rate[more]
            block *= 2
    elif rounds > 1:
        later = rng.random((size, rounds - 1)) < p[:, None]
        later &= np.arange(1, rounds) > first[:, None]
        position, column = later.nonzero()
        keys.append((column + 1) * size + position)
    return idx, *_events_by_round(keys, rounds, size)


def _draw_support(
    policy: SelectionPolicy, rounds: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states any of ``rounds`` rounds under a per-state table selects,
    sorted, their selection probabilities and the first round that selects
    each.

    State x is in it independently with probability
    q(x) = 1 - (1 - P(x))**R: when the least of its R round uniforms, drawn
    as 1 - r for r = (1 - U)**(1/R) from one uniform U, falls below P(x),
    that is when r > 1 - P(x).  U is drawn one base-256 digit first,
    U = (B + U') / 256 for a random byte B and a uniform U' (Devroye 1986).
    Since q <= R P, a state whose B >= 256 R P is not in the support, so
    one pass over the table compares each state's byte with 256 R P(x),
    and only the candidates it leaves draw U', in index order, and take
    the exact test.  1 - U is formed as ((255 - B) + (1 - U')) / 256,
    which never rounds to 0, so a state with P = 1 is always in it.  The
    pass goes in blocks of ``_DRAW_BLOCK`` states through block-sized
    buffers, so nothing of size N is allocated; the blocks take the bytes
    of one N-byte draw (full-range 64-bit integers from the generator,
    read little-endian, 8 blocks' worth a call), so the support does not
    depend on the block size.

    The same uniform gives a support state its first selected round:
    G = floor(ln(1 - U) / ln(1 - P)) = floor(R ln r / ln(1 - P)) is
    geometric, the number of rounds before a first selection, and G < R
    exactly when r > 1 - P, so G, clamped to R - 1 against rounding, has the
    law of the first round given that some round selects the state.
    """
    probs = policy.probabilities
    if rounds == 0:
        idx = np.empty(0, dtype=np.int64)
        return idx, probs[idx], idx
    # N and the block size are powers of two, so the blocks tile the table
    limit = np.empty(min(probs.size, _DRAW_BLOCK))
    hit = np.empty(limit.size, dtype=bool)
    # a call to rng.integers has a fixed cost of a few microseconds, about a
    # sixth of a block's pass, so each call draws the bytes of 8 blocks
    # (64 KiB, under the mmap threshold too)
    chunk = 8 * limit.size
    words = -(-min(probs.size, chunk) // 8)  # one word covers N < 8
    found, digits = [], []
    for start in range(0, probs.size, limit.size):
        if start % chunk == 0:
            raw = rng.integers(0, 1 << 64, size=words, dtype=np.uint64).astype("<u8", copy=False)
        byte = raw.view(np.uint8)[start % chunk :][: limit.size]
        np.multiply(probs[start : start + limit.size], 256.0 * rounds, out=limit)
        np.less(byte, limit, out=hit)
        at = hit.nonzero()[0]
        found.append(at + start)
        digits.append(byte[at])
    candidates = np.concatenate(found)
    rest = rng.random(candidates.size)
    np.subtract(1.0, rest, out=rest)
    rest += 255 - np.concatenate(digits)
    rest *= 1.0 / 256.0  # now 1 - U, in (0, 1]
    rest **= 1.0 / rounds  # numpy takes sqrt for R = 2
    p = probs[candidates]
    keep = rest > 1.0 - p
    p, rest = p[keep], rest[keep]
    np.log(rest, out=rest)
    rest *= rounds
    with np.errstate(divide="ignore"):  # log1p(-1) for P = 1, which gives round 0
        rest /= np.log1p(-p)
    np.floor(rest, out=rest)
    np.minimum(rest, rounds - 1, out=rest)
    return candidates[keep], p, rest.astype(np.int64)


def gain_bound(n_states: int, n_selected: int) -> float:
    """Gain ceiling (Ns/(N-Ns)) * (N/(2Ns) - 1)**2 for group-uniform amplitudes.

    The measured gain stays below this bound exactly on states whose next
    step keeps the unselected amplitudes positive.
    """
    if not 1 <= n_selected < n_states:
        raise ValueError("bound defined for 1 <= n_selected < n_states")
    ratio = n_states / (2.0 * n_selected) - 1.0
    return (n_selected / (n_states - n_selected)) * ratio * ratio


def _model_rounds(m1: float, m2: float, n_states: float):
    """The moment model's (bulk, offset, spread) after rounds 1, 2, ... (endless).

    An amplitude of selection probability P has mean bulk + P offset and
    variance P (1 - P) spread, so the expected group sums are
    sum_sel = bulk m1 + offset m2 and sum_all = N bulk + offset m1.
    """
    bulk, offset, spread = 1.0 / math.sqrt(n_states), 0.0, 0.0
    while True:
        sum_sel = bulk * m1 + offset * m2
        shift_sel, shift_unsel = doubling_shifts(
            sum_sel, n_states * bulk + offset * m1 - sum_sel, m1, n_states
        )
        moved = shift_sel - shift_unsel
        bulk += shift_unsel
        offset += moved
        spread += moved * moved
        yield bulk, offset, spread


def _model_horizon(m2: float, n_states: float) -> int:
    """R_2 = floor((pi/8) sqrt(N / max(1, M_2))), about a quarter turn of a run."""
    return math.floor((math.pi / 8.0) * math.sqrt(n_states / max(1.0, m2)))


def planned_rounds(policy: SelectionPolicy) -> int:
    """The round count at which a run under ``policy`` is predicted to peak.

    A mask never depends on the amplitudes, and a doubled round adds one
    shift to every selected amplitude and another to every unselected one
    (:func:`doubling_shifts`).  After rounds with selected
    shifts summing to A, unselected shifts summing to B and squared
    differences summing to D, a state of selection probability P has
    amplitude mean u + B + P (A - B) and variance P (1 - P) D, u the
    uniform amplitude.  Taking each round's shifts from the expected group
    sums, the predicted policy mass, the sum over x of P(x) a(x)**2,
    needs only the moments M_j = sum over x of P(x)**j for j = 1..3
    (:meth:`SelectionPolicy.moments`), so a predicted round is O(1) float
    work.  For a 0/1 table of M states the model is exact: the first round
    at which sin**2((4r + 1) theta), sin theta = sqrt(M / N), stops rising.

    Returns the first round after which the predicted mass falls (0 when
    the first round already lowers it).  A run turns by about
    4 sqrt(M_2 / N) a round, so with R_2 = floor((pi/8) sqrt(N / max(1, M_2)))
    the search stops at ``8 * R_2 + 8`` rounds; a mass still rising there
    falls back to ``2 * R_2 + 8``, so a policy that barely selects anything
    runs no longer than that.
    """
    m1, m2, m3 = policy.moments()
    n_states = float(1 << policy.n)
    r2 = _model_horizon(m2, n_states)
    bulk = 1.0 / math.sqrt(n_states)
    mass = bulk * bulk * m1
    for done, (bulk, offset, spread) in zip(range(8 * r2 + 8), _model_rounds(m1, m2, n_states)):
        after = bulk * (bulk * m1 + 2.0 * offset * m2) + offset * offset * m3 + spread * (m2 - m3)
        if after < mass:
            return done
        mass = after
    return 2 * r2 + 8


def predicted_crossing(policy: SelectionPolicy, watched_moments, level: float) -> int | None:
    """The first round after which the model of :func:`planned_rounds` puts
    more than ``level`` of a watched policy's mass on a run under ``policy``,
    or None when it puts none within that search bound, ``8 * R_2 + 8``.

    For watched probabilities w, the mass sum over x of w(x) a(x)**2 needs
    ``watched_moments``, W_j = sum over x of w(x) P(x)**j for j = 0, 1, 2.
    """
    w0, w1, w2 = (float(w) for w in watched_moments)
    m1, m2, _ = policy.moments()
    n_states = float(1 << policy.n)
    r2 = _model_horizon(m2, n_states)
    for done, (bulk, offset, spread) in zip(range(1, 8 * r2 + 9), _model_rounds(m1, m2, n_states)):
        mass = bulk * (bulk * w0 + 2.0 * offset * w1) + offset * offset * w2 + spread * (w1 - w2)
        if mass > level:
            return done
    return None


def run_dynamic(
    policy: SelectionPolicy,
    rng: np.random.Generator,
    rounds: int,
    *,
    watch: SelectionPolicy | None = None,
) -> tuple[SparseState, DynamicRunLog]:
    """Run ``rounds`` doubled amplification rounds with freshly sampled masks.

    Starts from the uniform state, and each round steps from the state
    the round before it left, with a mask that comes from the policy
    alone.  A round whose state violates the progress conditions steps
    like any other; the log's ``mean_amplitude`` and
    ``min_unselected_amp`` keep the diagnostics.  As on a device, nothing
    reads the state between rounds: a peak or a crossing is predicted
    before the run (:func:`planned_rounds`, :func:`predicted_crossing`).

    ``watch`` logs each round's watched mass, the sum over x of
    P_watch(x) * a(x)**2 with P_watch the selection probabilities of that
    policy.  ``watch=policy`` gives the run's policy mass.  For a fixed
    set, the 0/1 table ``SelectionPolicy.probabilistic(n, mask.selected)``,
    it is the set's probability.

    The state comes back as a :class:`~qamp.core.SparseState`: the shared
    amplitude of the never-selected states plus the stored states, in
    index order.  Its ``amps`` build the dense vector on first use.

    Every policy draws the masks of all ``rounds`` rounds when the run
    starts (see :class:`_Support`).
    """
    if rounds < 0:
        raise ValueError(f"round count must be >= 0, got {rounds}")
    if watch is not None and watch.n != policy.n:
        raise ValueError(f"watched policy has n={watch.n}, run has n={policy.n}")
    support = _Support(policy, rounds, rng, watch)
    for round_index in range(rounds):
        support.take_round(round_index)
    log = DynamicRunLog(
        policy.n,
        rounds,
        support._selected,
        np.array(support._starts, dtype=np.int64),
        *support.columns(),
    )
    return support.sparse_state(), log
