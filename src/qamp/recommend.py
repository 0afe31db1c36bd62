"""Similarity-driven recommendation over an n-bit catalog.

Similarity of two items is the bit width minus their Hamming distance
(identical to the Manhattan distance on bit vectors), so larger means more
alike and the number of items at similarity S follows the binomial curve
C(n, S).  Selection probabilities form the exponential family
min(1, c * exp(beta * S)) pinned at both ends: the most similar state must
be selected almost surely (P >= 1 - 1/N) and the least similar almost
never (P <= 1/N).  The defaults beta = ln 2, c = 2**-n meet both limits
with equality, giving P(S) = 2**(S - n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SparseState, check_qubit_count, in_sorted, sample
from .dynamic_search import (
    SelectionPolicy,
    class_counts,
    planned_rounds,
    run_dynamic,
    similarity_classes,
)
from .errors import (
    CalibrationError,
    ConfigError,
    InvalidParamsError,
    ShapeMismatchError,
    UnderAmplifiedError,
)

RESAMPLE_CAP_FACTOR = 50


@dataclass(frozen=True)
class SimilaritySpec:
    """Reference item and bit width for the similarity metric."""

    n: int
    reference: int

    def __post_init__(self):
        check_qubit_count(self.n)
        if not 0 <= self.reference < (1 << self.n):
            raise ShapeMismatchError(
                f"reference {self.reference} out of range for n={self.n}"
            )


@dataclass(frozen=True)
class SelectionProbabilityParams:
    """Parameters of the exponential selection-probability family.

    ``beta`` is the decay rate in nats per similarity unit and ``norm_c``
    the prefactor.  Construction validates the two boundary limits and
    rejects parameters that break them.
    """

    n: int
    beta: float | None = None
    norm_c: float | None = None

    def __post_init__(self):
        beta = math.log(2.0) if self.beta is None else self.beta
        if not math.isfinite(beta):
            raise InvalidParamsError(f"beta must be finite, got {beta}")
        norm_c = 2.0 ** (-self.n) if self.norm_c is None else self.norm_c
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "norm_c", float(norm_c))

        n_states = 1 << self.n
        if not self.norm_c >= 0.0:
            raise InvalidParamsError(f"norm_c must be nonnegative, got {self.norm_c}")
        bottom, top = _capped_exponential(self.norm_c, self.beta, [0, self.n]).tolist()
        if top < 1.0 - 1.0 / n_states:
            raise InvalidParamsError(
                f"most similar state selected with {top:.3g} < 1 - 1/N"
            )
        if bottom > 1.0 / n_states:
            raise InvalidParamsError(
                f"least similar state selected with {bottom:.3g} > 1/N"
            )


@dataclass(frozen=True)
class RecommendedItem:
    index: int
    similarity: int


@dataclass(frozen=True)
class RecommendationResult:
    """Distinct recommended items plus run diagnostics.

    ``rounds_used`` is the number of doubled rounds the run made (two
    oracle calls each), ``log.rounds``;
    ``per_similarity_sampling[S]`` is the total sampling probability the
    final state puts on the similarity-S class; ``log`` carries the full
    per-round record of the amplification run.
    """

    items: tuple[RecommendedItem, ...]
    rounds_used: int
    per_similarity_sampling: np.ndarray
    log: object = field(default=None, repr=False, compare=False)


def similarity(x: int, spec: SimilaritySpec) -> int:
    """Bit width minus the Hamming distance to the reference item."""
    if not 0 <= x < (1 << spec.n):
        raise ShapeMismatchError(f"index {x} out of range for n={spec.n}")
    return int(similarity_classes(spec.n, spec.reference, x))


def class_masses(state: SparseState, spec: SimilaritySpec) -> np.ndarray:
    """Sampling probability of each similarity class S = 0..n under a sparse state.

    Class S holds bulk**2 for each of its C(n, S) states that the state does
    not store (whether or not they are in a catalog) plus a**2 for each
    stored state in it.
    """
    sims = similarity_classes(spec.n, spec.reference, state.idx)
    unstored = class_counts(spec.n) - np.bincount(sims, minlength=spec.n + 1)
    stored = np.bincount(sims, weights=state.amp * state.amp, minlength=spec.n + 1)
    return state.bulk * state.bulk * unstored + stored


def _capped_exponential(norm_c: float, beta: float, s):
    """min(1, c * exp(beta * S)), evaluated as exp(min(0, ln c + beta * S)).

    Neither factor is formed on its own, so no beta overflows it, and a
    prefactor c = 0 gives 0 at every S.  S = 0 gives min(1, c) itself:
    exp(ln c) can exceed c by a few ulps, which would break P(0) <= 1/N
    for c = 1/N.
    """
    s = np.asarray(s, dtype=np.float64)
    if norm_c == 0.0:
        return np.zeros_like(s)
    with np.errstate(over="ignore"):  # beta * S = +-inf caps to 1 or 0 below
        probs = np.exp(np.minimum(0.0, math.log(norm_c) + beta * s))
    return np.where(s == 0.0, min(1.0, norm_c), probs)


def probability_by_class(params: SelectionProbabilityParams) -> np.ndarray:
    return _capped_exponential(params.norm_c, params.beta, np.arange(params.n + 1))


def expected_selected_count(params: SelectionProbabilityParams) -> float:
    """E[selected count] over the full space: sum_S C(n,S) * P(S)."""
    return float(class_counts(params.n) @ probability_by_class(params))


def calibrate_beta(n: int, m_target: float) -> SelectionProbabilityParams:
    """Solve for the decay rate giving an expected selected count of ``m_target``.

    The family has a glue point at beta = ln 2 where both boundary limits
    bind at once and E = (3/2)**n.  Above it the prefactor stays pinned at
    1/N (least-similar limit met with equality) and bisection raises beta;
    below it the most-similar limit is pinned instead (P(n) = 1, prefactor
    exp(-beta*n) < 1/N), where E = (1 + exp(-beta))**n inverts in closed
    form.  Without the second branch no target under (3/2)**n would be
    reachable at all.
    """
    n_states = 1 << n
    if not 1.0 <= m_target < n_states / 2.0:
        raise CalibrationError(
            f"target expected count must be in [1, N/2), got {m_target}"
        )
    glue = 1.5**n

    if m_target <= glue:
        root = max(m_target, 1.0 + 1e-12) ** (1.0 / n) - 1.0
        beta = -math.log(root)
        norm_c = math.exp(-beta * n)
        if norm_c == 0.0:
            # near m = 1 from n = 25 on: the least positive double, with the
            # (smaller) beta that keeps P(n) = 1; E grows by under 1e-9
            norm_c = math.ulp(0.0)
            beta = -math.log(norm_c) / n
    else:
        norm_c = 1.0 / n_states
        lo = math.log(2.0)
        hi = 2.0 * lo
        while expected_selected_count(SelectionProbabilityParams(n, hi, norm_c)) < m_target:
            if hi >= 64.0:
                raise CalibrationError(f"target {m_target} unreachable")
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if expected_selected_count(SelectionProbabilityParams(n, mid, norm_c)) < m_target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13:
                break
        beta = 0.5 * (lo + hi)

    params = SelectionProbabilityParams(n=n, beta=beta, norm_c=norm_c)
    achieved = expected_selected_count(params)
    if abs(achieved - m_target) > 0.5:
        raise CalibrationError(
            f"calibration landed at E={achieved:.3f}, target {m_target}"
        )
    return params


def similarity_params(
    n: int, beta: float | None, m_target: float | None, fallback_target: float
) -> SelectionProbabilityParams:
    """Policy parameters: an explicit ``beta`` takes the prefactor
    min(2**-n, exp(-beta * n)); otherwise beta is calibrated to the expected
    count ``m_target``, or ``fallback_target`` when that is None too."""
    if beta is not None:
        # P(n) = 1 comes back from exp(ln c + beta * n) only while the
        # prefactor c = exp(-beta * n) keeps n significant bits, i.e. stays
        # at or above 2**n times the least positive double
        steepest = -math.log(math.ulp(0.0)) - n * math.log(2.0)
        if beta * n > steepest:
            raise InvalidParamsError(
                f"beta * n = {beta * n:.6g} is too steep for n={n}: the prefactor exp(-beta * n) "
                f"keeps fewer than n significant bits; need beta * n <= {steepest:.6g}"
            )
        # exp(-beta * n) only matters below 2**-n, so its exponent is capped at 0
        return SelectionProbabilityParams(
            n=n, beta=beta, norm_c=min(2.0**-n, math.exp(min(0.0, -beta * n)))
        )
    return calibrate_beta(n, m_target if m_target is not None else fallback_target)


def similarity_policy(
    spec: SimilaritySpec,
    params: SelectionProbabilityParams,
    catalog: np.ndarray | None = None,
) -> SelectionPolicy:
    """Selection probability P(S) per similarity class around the reference.

    With a catalog, states outside it are never selected.
    """
    if params.n != spec.n:
        raise ShapeMismatchError(f"params have n={params.n}, spec has n={spec.n}")
    return SelectionPolicy.by_similarity(
        spec.n, spec.reference, probability_by_class(params), catalog=catalog
    )


def recommend(
    spec: SimilaritySpec,
    m: int,
    params: SelectionProbabilityParams,
    rng: np.random.Generator,
    catalog: np.ndarray | None = None,
) -> RecommendationResult:
    """Amplify toward the reference and collect ``m`` distinct items.

    Runs the doubled rounds :func:`~qamp.dynamic_search.planned_rounds`
    plans before the run starts, the predicted peak of the policy mass, and
    samples the final state.  A round whose progress conditions fail steps
    like any other; the log keeps the diagnostics.
    Draws, in blocks of m, 2m, 4m, ..., continue until ``m`` distinct items
    are seen.  Duplicate draws are resampled; exceeding the 50*m draw cap raises
    :class:`~qamp.errors.UnderAmplifiedError`.  Asking for more items than
    can be selected (the unique catalog items, or all 2**n states without
    a catalog) raises :class:`~qamp.errors.ConfigError` before the run.
    """
    if m < 1:
        raise ValueError(f"item count must be >= 1, got {m}")
    policy = similarity_policy(spec, params, catalog=catalog)
    selectable = (1 << spec.n) if policy.catalog is None else policy.catalog.size
    if m > selectable:
        raise ConfigError(f"asked for {m} distinct items, only {selectable} can be selected")
    state, log = run_dynamic(policy, rng, rounds=planned_rounds(policy))

    # blocks of m, 2m, 4m, ... from the one generator take the uniforms one
    # draw of the whole cap would, in the same order
    cap = RESAMPLE_CAP_FACTOR * m
    seen: set[int] = set()
    drawn = 0
    while len(seen) < m and drawn < cap:
        draws = sample(state, rng, size=min(drawn + m, cap - drawn))
        drawn += draws.size
        if policy.catalog is not None:
            draws = draws[in_sorted(policy.catalog, draws)]
        for x in draws.tolist():
            if len(seen) >= m:
                break
            seen.add(x)
    if len(seen) < m:
        raise UnderAmplifiedError(
            f"collected {len(seen)} of {m} distinct items within {cap} draws"
        )

    found = list(seen)
    items = tuple(
        sorted(
            map(RecommendedItem, found, policy.class_of(np.array(found)).tolist()),
            key=lambda item: (-item.similarity, item.index),
        )
    )
    return RecommendationResult(
        items=items,
        rounds_used=log.rounds,
        per_similarity_sampling=class_masses(state, spec),
        log=log,
    )


def load_catalog(path, n: int) -> np.ndarray:
    """Read catalog items, one per line: n-bit binary strings or unsigned ints."""
    indices: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if len(line) == n and set(line) <= {"0", "1"}:
                value = int(line, 2)
            else:
                try:
                    value = int(line, 10)
                except ValueError as exc:
                    raise ValueError(f"line {line_number}: cannot parse item {line!r}") from exc
            if not 0 <= value < (1 << n):
                raise ValueError(f"line {line_number}: item {value} out of range for n={n}")
            indices.append(value)
    return np.unique(np.array(sorted(indices), dtype=np.int64))
