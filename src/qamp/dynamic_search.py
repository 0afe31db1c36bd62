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
from .errors import ShapeMismatchError, ValidityError

VALIDITY_ATOL = 1e-9  # "positive" is tested as > -VALIDITY_ATOL to absorb float noise
# states per block of a per-state table's support draw (_draw_support): a
# float64 block is 64 KiB, under glibc's default 128 KiB mmap threshold, so
# its buffers come from the heap instead of fresh pages on every run
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
            probs = self.probabilities
            squares = probs * probs
            return [float(probs.sum()), float(squares.sum()), float(squares @ probs)]
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
    unselected amplitude (+inf for a full mask); the mass a fresh
    selection round would mark from it (under a 0/1 table, p_selected);
    and the watched policy's mass (the column is None when the run
    watched none).  ``best_round`` is the 1-based round of the state a
    ``keep_best`` run returned, 0 when no round beat the uniform state
    (None without ``keep_best``).  Every round steps from the state the
    round before it left.
    """

    n: int
    rounds: int
    events: np.ndarray  # int64
    starts: np.ndarray  # int64, rounds + 1 entries
    p_selected: np.ndarray
    p_unselected: np.ndarray
    mean_amplitude: np.ndarray
    min_unselected_amp: np.ndarray
    policy_mass_by_round: np.ndarray
    watched_mass_by_round: np.ndarray | None
    best_round: int | None
    # always empty, as no run restarts; perfbench still reads it
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
    R rounds first draws its support (:func:`_draw_support`), the states
    that any of its rounds will select, and then every round in which each
    of them is selected (:func:`_selection_events`).  The events are sorted
    by round, so a round's mask is a slice of support positions, ascending.

    A doubled round adds one constant to every selected amplitude and
    another to every unselected one.  The state is therefore kept as the
    shared amplitude ``bulk`` plus, for each support state (in index order:
    indices ``idx``, selection probabilities ``p``), its offset
    ``e = a(x) - bulk``.  An offset is zero until its state is first
    selected, and a round moves only the offsets it selects.  Running sums
    ``sum_e`` and ``sum_ee`` of v e and v e**2 over the support, for each
    weight v in (1, p, w), w the watched probabilities when the run
    watches a policy, give the group sums and the masses without a pass
    over the support, so a round costs O(|mask|).
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
        self.w = None if watch is None else watch.probabilities_at(self.idx)
        round_of, self._pos = _selection_events(self.p, rounds, rng)
        self._starts = np.searchsorted(round_of, np.arange(rounds + 1)).tolist()
        self._selected = self.idx[self._pos]
        # per event, the weights 1, p (and w) of its state; per round, their sums
        rows = [self.p] if watch is None else [self.p, self.w]
        self._weights = np.empty((1 + len(rows), self._pos.size))
        self._weights[0] = 1.0
        for out, row in zip(self._weights[1:], rows):
            np.take(row, self._pos, out=out)
        sums = [np.bincount(round_of, minlength=rounds)] + [
            np.bincount(round_of, weights=row, minlength=rounds) for row in self._weights[1:]
        ]
        self._weight_sums = list(zip(*(row.tolist() for row in sums)))
        # what each weight sums to over the whole space
        self._totals = [float(self.n_states), policy.expected_selected()]
        if watch is not None:
            self._totals.append(watch.expected_selected())
        # one entry per round taken, in DynamicRunLog's order: p_selected,
        # p_unselected, mean_amplitude, min_unselected_amp, the policy mass
        # and the watched mass (left empty when the run watches none)
        self.columns: tuple[list[float], ...] = tuple([] for _ in range(6))
        # the uniform state
        self.bulk = 1.0 / math.sqrt(self.n_states)
        self.e = np.empty(self.idx.size)
        self.e.fill(0.0)
        self.sum_e = [0.0] * len(self._totals)
        self.sum_ee = [0.0] * len(self._totals)
        # the least unselected amplitude is bulk while no offset is
        # negative and some state lies outside the support
        self._least_is_bulk = self.idx.size < self.n_states

    def take_round(self, i: int, check: bool) -> tuple[float, float] | None:
        """Take round i (0-based): its doubled step, then one entry in each column.

        The group sums along the round's mask come from its offsets and the
        running sums.  With ``check``, a state whose post-flip mean or least
        unselected amplitude is below -VALIDITY_ATOL refuses the round:
        nothing changes, and the two values come back.  Otherwise the round
        steps and returns None.  The columns describe the state after the
        step, along the same mask.
        """
        start, stop = self._starts[i], self._starts[i + 1]
        pos = self._pos[start:stop]
        e = self.e[pos]
        sum_ee = float(e.dot(e))
        weighted_e = self._weights[:, start:stop].dot(e).tolist()  # sum of v e, each weight v
        weight_sums = self._weight_sums[i]
        bulk, n_sel, n_states = self.bulk, pos.size, self.n_states
        n_unsel = n_states - n_sel
        sum_e = weighted_e[0]
        # sums of e and e**2 over the unselected support states
        rest_e, rest_ee = 0.0, 0.0
        if n_sel < self.idx.size:
            rest_e = self.sum_e[0] - sum_e
            rest_ee = max(0.0, self.sum_ee[0] - sum_ee)
        if self._least_is_bulk:
            min_unsel = bulk
        else:
            unselected = np.ones(self.idx.size, dtype=bool)
            unselected[pos] = False
            least = float(self.e[unselected].min(initial=math.inf))
            if self.idx.size < n_states:
                least = min(least, 0.0)
            min_unsel = bulk + least
        sum_sel = n_sel * bulk + sum_e
        sum_unsel = n_unsel * bulk + rest_e
        if check:
            mean = (sum_unsel - sum_sel) / n_states
            if mean < -VALIDITY_ATOL or min_unsel < -VALIDITY_ATOL:
                return mean, min_unsel
        sumsq_sel = max(0.0, bulk * (n_sel * bulk + 2.0 * sum_e) + sum_ee)
        sumsq_unsel = max(0.0, bulk * (n_unsel * bulk + 2.0 * rest_e) + rest_ee)

        shift_sel, shift_unsel = doubling_shifts(sum_sel, sum_unsel, n_sel, n_states)
        moved = shift_sel - shift_unsel
        e += moved
        self.e[pos] = e
        if moved < 0.0 and e.size and e.min() < 0.0:
            self._least_is_bulk = False
        self.bulk += shift_unsel
        # sum of v (e + moved)**2 = sum of v e**2 + moved (2 sum of v e + moved sum of v)
        self.sum_ee = [
            vee + moved * (2.0 * ve + moved * v)
            for vee, ve, v in zip(self.sum_ee, weighted_e, weight_sums)
        ]
        self.sum_e = [ve + moved * v for ve, v in zip(self.sum_e, weight_sums)]

        # the groups' sums of squares after the step (rounding must not take
        # one that lands on zero below it), post-flip mean and least
        # unselected amplitude
        row = [
            max(0.0, sumsq_sel + shift_sel * (2.0 * sum_sel + n_sel * shift_sel)),
            max(0.0, sumsq_unsel + shift_unsel * (2.0 * sum_unsel + n_unsel * shift_unsel)),
            (sum_unsel + n_unsel * shift_unsel - (sum_sel + n_sel * shift_sel)) / n_states,
            min_unsel + shift_unsel,
            self.mass(1),
        ]
        if self.w is not None:
            row.append(self.mass(2))
        for column, value in zip(self.columns, row):
            column.append(value)
        return None

    def mass(self, weight: int) -> float:
        """Sum over all states of v(x) a(x)**2 for weight ``weight`` of
        (1, p, w): the norm, the policy mass or the watched mass."""
        bulk = self.bulk
        return bulk * (bulk * self._totals[weight] + 2.0 * self.sum_e[weight]) + self.sum_ee[weight]

    def sparse_state(self) -> SparseState:
        """The state now, as a :class:`~qamp.core.SparseState` that shares no
        array the run writes."""
        return SparseState(self.n, self.bulk, self.idx, self.bulk + self.e)


def _selection_events(
    p: np.ndarray, rounds: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Every (round, position) at which a run of ``rounds`` rounds selects a
    state of its support, for support states of selection probabilities
    ``p``: the rounds and the positions, sorted by round, then position.

    Each support state has its first selected round from the geometric law
    truncated to the run, as it is in the support because some round
    selects it.  Every later round then selects it independently with
    probability P, so each state is selected in every round independently
    with probability P, the law of a per-round draw.  A state is selected
    about R P / q times in the run, q = 1 - (1 - P)**R the chance that it
    is in the support.  When a Bernoulli row over the R rounds costs at
    most 8 uniforms per selection, P >= q / 8 (so always when R <= 8, and
    for R >> 1/P when P >= 1/8), its later rounds come as such a row over
    the rounds left.  Otherwise they come as geometric gaps
    1 + floor(ln U / ln(1 - P)) for uniforms U (Devroye 1986), in passes
    over the states not yet at the last round: 4, 8, 16, ... gaps per state
    in successive passes, so that a state selected K more times takes
    O(log K) passes and at most about 2K + 4 gaps.  One sort of the keys
    round * T + position, for T support states, orders them all.
    """
    size = p.size
    q = 1.0 - (1.0 - p) ** rounds
    # inverse CDF of the first selected round, given at least one in R
    with np.errstate(divide="ignore"):  # log1p(-1) for P = 1, which gives round 0
        log_skip = np.log1p(-p)
    first = np.log1p(-rng.random(size) * q) / log_skip
    first = np.minimum(np.floor(first), rounds - 1).astype(np.int64)
    keys = [first * size + np.arange(size)]
    more = first < rounds - 1

    rowed = p >= q / 8.0
    rows = np.flatnonzero(more & rowed)
    width = int(rounds - 1 - first[rows].min(initial=rounds - 1))
    last = np.arange(rounds - width, rounds)  # the last `width` rounds
    hit = np.flatnonzero(
        (rng.random((rows.size, width)) < p[rows, None]) & (last > first[rows, None])
    )
    row = hit // max(width, 1)
    keys.append(last[hit - row * width] * size + rows[row])

    gapped = np.flatnonzero(more & ~rowed)
    at, rate = first[gapped].astype(np.float64), -log_skip[gapped, None]
    block = 4
    while gapped.size:
        # -ln U for a uniform U is a standard exponential
        gaps = rng.standard_exponential((gapped.size, block))
        gaps /= rate
        np.floor(gaps, out=gaps)
        gaps += 1.0
        np.cumsum(gaps, axis=1, out=gaps)
        gaps += at[:, None]  # now the rounds themselves
        keys.append((gaps * size + gapped[:, None])[gaps < rounds].astype(np.int64))
        going = np.flatnonzero(gaps[:, -1] < rounds - 1)
        gapped, at, rate = gapped[going], gaps[going, -1], rate[going]
        block *= 2

    # 32-bit keys sort about twice as fast, where they fit; the positions
    # come back as index-sized integers, which indexing takes without a cast
    keys = np.concatenate(keys, dtype=np.int32 if rounds * size < 2**31 else np.int64)
    keys.sort()
    round_of = keys // max(size, 1)
    return round_of, (keys - round_of * size).astype(np.intp)


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
    1 - (1 - U)**(1/R) from one uniform U, falls below P(x).  It makes one
    pass over the table in blocks of ``_DRAW_BLOCK`` states through two
    block-sized buffers, so nothing of size N is allocated.  The generator
    fills its output in order, so the blocks take the uniforms of one
    ``rng.random(N)``.
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
    probs = policy.probabilities
    if rounds == 0:
        idx = np.empty(0, dtype=np.int64)
    else:
        # N and the block size are powers of two, so the blocks tile the table
        least = np.empty(min(probs.size, _DRAW_BLOCK))
        hit = np.empty(least.size, dtype=bool)
        pieces = []
        for start in range(0, probs.size, least.size):
            rng.random(out=least)
            np.subtract(1.0, least, out=least)
            least **= 1.0 / rounds  # numpy takes sqrt for R = 2
            np.subtract(1.0, least, out=least)
            np.less(least, probs[start : start + least.size], out=hit)
            pieces.append(np.flatnonzero(hit) + start)
        idx = np.concatenate(pieces)
    return idx, probs[idx]


def gain_bound(n_states: int, n_selected: int) -> float:
    """Gain ceiling (Ns/(N-Ns)) * (N/(2Ns) - 1)**2 for group-uniform amplitudes.

    The measured gain stays below this bound exactly on states whose next
    step keeps the unselected amplitudes positive.
    """
    if not 1 <= n_selected < n_states:
        raise ValueError("bound defined for 1 <= n_selected < n_states")
    ratio = n_states / (2.0 * n_selected) - 1.0
    return (n_selected / (n_states - n_selected)) * ratio * ratio


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
    r2 = math.floor((math.pi / 8.0) * math.sqrt(n_states / max(1.0, m2)))
    # An amplitude of selection probability P has mean bulk + P offset and
    # variance P (1 - P) spread.  The expected group sums are then
    # sum_sel = bulk m1 + offset m2 and sum_all = N bulk + offset m1, and a
    # round moves bulk by the unselected shift and offset by the difference
    bulk, offset, spread = 1.0 / math.sqrt(n_states), 0.0, 0.0
    mass = bulk * bulk * m1
    for done in range(8 * r2 + 8):
        sum_sel = bulk * m1 + offset * m2
        shift_sel, shift_unsel = doubling_shifts(
            sum_sel, n_states * bulk + offset * m1 - sum_sel, m1, n_states
        )
        moved = shift_sel - shift_unsel
        bulk += shift_unsel
        offset += moved
        spread += moved * moved
        after = bulk * (bulk * m1 + 2.0 * offset * m2) + offset * offset * m3 + spread * (m2 - m3)
        if after < mass:
            return done
        mass = after
    return 2 * r2 + 8


def run_dynamic(
    policy: SelectionPolicy,
    rng: np.random.Generator,
    rounds: int,
    *,
    stop_above: float | None = None,
    watch: SelectionPolicy | None = None,
    keep_best: bool = False,
    on_violation: str = "abort",
) -> tuple[SparseState, DynamicRunLog]:
    """Run ``rounds`` doubled amplification rounds with freshly sampled masks.

    Starts from the uniform state, and each round steps from the state
    the round before it left.  ``on_violation`` says what a round does
    whose fresh mask violates the progress conditions:

    - ``"abort"`` (the default) checks them before each round and raises
      :class:`~qamp.errors.ValidityError` carrying the state and the log
      so far;
    - ``"continue"`` steps anyway, as every round's mask comes from the
      policy alone; the log's ``mean_amplitude`` and
      ``min_unselected_amp`` keep the diagnostics.

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
    if rounds < 0:
        raise ValueError(f"round count must be >= 0, got {rounds}")
    if on_violation not in ("abort", "continue"):
        raise ValueError(f"on_violation must be 'abort' or 'continue', got {on_violation!r}")
    if watch is not None and watch.n != policy.n:
        raise ValueError(f"watched policy has n={watch.n}, run has n={policy.n}")
    if stop_above is not None and watch is None:
        raise ValueError("stop_above needs a watched policy")
    support = _Support(policy, rounds, rng, watch)
    policy_mass, watched_mass = support.columns[4:]
    best = support.sparse_state() if keep_best else None
    best_score = support.mass(1)  # the policy mass of the uniform state
    best_round = 0
    violation = None
    check = on_violation == "abort"

    for round_index in range(rounds):
        violation = support.take_round(round_index, check)
        if violation is not None:
            break
        if keep_best and policy_mass[-1] > best_score:
            best_score = policy_mass[-1]
            best = support.sparse_state()
            best_round = round_index + 1
        if stop_above is not None and watched_mass[-1] > stop_above:
            break

    done = len(policy_mass)
    # the logged rounds' masks are a prefix of the events the run drew
    log = DynamicRunLog(
        policy.n,
        done,
        support._selected[: support._starts[done]],
        np.array(support._starts[: done + 1], dtype=np.int64),
        *(np.array(column, dtype=np.float64) for column in support.columns[:5]),
        None if watch is None else np.array(watched_mass, dtype=np.float64),
        best_round if keep_best else None,
    )
    if violation is not None:
        mean, least = violation
        raise ValidityError(
            f"round {log.rounds + 1} would start from an unproductive state "
            f"(post-flip mean {mean:.3e}, min unselected {least:.3e})",
            state=support.sparse_state(),
            log=log,
        )
    return best if keep_best else support.sparse_state(), log
