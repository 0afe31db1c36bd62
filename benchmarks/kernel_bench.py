#!/usr/bin/env python3
"""Benchmark the numpy amplitude kernels of ``qamp.backend``, the dense reference.

Times the amplification step and the group statistics of the dense
diagnostics at several register sizes, plus a full dynamic round: the
literal dense round of the reference (mask draw and two amplification
steps) and the round that ``run_dynamic`` takes on its sparse state
(``_Support.take_round``: the round's mask, a slice of the events the
run draws when it starts, then the statistics, the closed-form step and
the log's entries, from the selected states only).  Also
times the end of a run, 10 draws from its final state: building the
dense vector and sampling it against sampling the sparse state
``run_dynamic`` returns.  Then one attempt of static search's
unknown-count schedule, the state after k steps and one draw from it:
the closed-form amplitudes written over all N states and sampled dense,
against the ``SparseState`` that ``search_unknown_m`` samples (its marked
indices checked once per search, then one scalar draw per attempt), each
with its test of whether the draw is marked.  The dense side of both
takes ``StateVector`` and the cumsum sampler ``sample_dense`` from
``qamp.backend``, the one module that holds the dense form.  Then what a
class-policy run does before its first round, over the rounds
``recommend`` plans for it (``planned_rounds``): the grid draw of its
masks and its set-up (``_Support``), with and without a catalog; and
the set-up of a table run that ``dynamic_optimize`` makes, on a normal
and a tied table at n = 14 and 18: its policy build
(``build_optimization_policy``), the support draw from that per-state
table (``_draw_support``), and the whole draw of the run's masks
(``_draw_table_run``: the support, then the rounds that select each of
its states), each with the minor page faults per draw; and the moments
its plan reads (``SelectionPolicy.moments``), with the tracemalloc peak
of one call.  Then the planner, moments included: ``planned_rounds`` on
``recommend``'s policy at n = 16, m = 5 and at n = 30, m = 1 and on the
optimizer's normal table at n = 18, and ``predicted_crossing`` of the
ball that ``experiment steps`` watches at n = 14.  Last, whole
``run_dynamic`` runs of R = 2, 6, 12, 52 and 91 rounds under both policy
forms: the optimizer's longest run, the corollaries', and the
recommender's at n = 16.  Each bench returns its
timings in seconds keyed by what was timed: ``"python"`` for the kernels
(the name ``qamp.kernel_backend()`` reports), ``"touched"`` for the
``run_dynamic`` round, ``"dense"``/``"sparse"`` for the end of a run and
(per marked count) for a static attempt, ``"setup"`` (with the mean
``"support"`` size and ``"events"`` count) for a class run's set-up,
``"policy"`` for a table policy's build, ``"draw"`` for its support draw
(with the mean ``"support"`` size and the ``"faults"``) and for its whole
draw (with the mean ``"events"`` count and the ``"faults"``),
``"moments"`` (with the ``"peak"`` in bytes) for its moments, ``"plan"``
(with the ``"rounds"`` it returns) for a planner call, and ``"run"`` for
a whole run.  ``--json PATH`` also writes every number, in
microseconds, with perfbench's environment stamp.  Run from the repo
root:

    python3 benchmarks/kernel_bench.py [--quick] [--json PATH]
"""

import argparse
import json
import math
import resource
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from qamp import backend
from qamp.backend import StateVector, sample_dense
from qamp.core import SparseState, in_sorted, sample
from qamp.dynamic_search import (
    SelectionPolicy,
    _draw_support,
    _draw_table_run,
    _Support,
    planned_rounds,
    predicted_crossing,
    run_dynamic,
)
from qamp.optimize import ObjectiveTable, build_optimization_policy, nominal_rounds
from qamp.recommend import SimilaritySpec, calibrate_beta, similarity_policy
from qamp.static_search import _Rotation


def time_call(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def bench_step(n: int, repeats: int) -> dict[str, float]:
    size = 1 << n
    rng = np.random.default_rng(7)
    amps = np.full(size, 1.0 / math.sqrt(size))
    selected = rng.random(size) < 0.05
    backend.grover_step(amps, selected)  # warmup
    return {"python": time_call(lambda: backend.grover_step(amps, selected), repeats)}


def bench_stats(n: int, repeats: int) -> dict[str, float]:
    size = 1 << n
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(size)
    amps /= np.linalg.norm(amps)
    selected = rng.random(size) < 0.05
    backend.selection_stats(amps, selected)
    return {"python": time_call(lambda: backend.selection_stats(amps, selected), repeats)}


def bench_round(n: int, repeats: int) -> dict[str, float]:
    size = 1 << n
    probs = np.minimum(1.0, 2.0 ** (np.arange(size) % (n + 1) - float(n)))
    rng = np.random.default_rng(7)
    amps = np.full(size, 1.0 / math.sqrt(size))

    def one_round():
        selected = rng.random(size) < probs
        backend.grover_step(amps, selected)
        backend.grover_step(amps, selected)

    one_round()
    return {"python": time_call(one_round, repeats), "touched": bench_touched_round(n, repeats)}


def bench_touched_round(n: int, repeats: int) -> float:
    """One round of ``run_dynamic``'s engine under a similarity policy
    calibrated to m = 5, timed after the rounds ``planned_rounds`` plans for
    it (the run's support and masks are drawn for those plus the timed
    rounds)."""
    policy = similarity_policy(SimilaritySpec(n, 0), calibrate_beta(n, 5.0))
    rng = np.random.default_rng(7)
    plan = planned_rounds(policy)
    support = _Support(policy, plan + repeats, rng)
    rounds = iter(range(plan + repeats))

    def one_round():
        support.take_round(next(rounds))

    for _ in range(plan):
        one_round()
    return time_call(one_round, repeats)


def bench_end_of_run(n: int, repeats: int) -> dict[str, float]:
    """10 draws from a run's final state: dense build plus ``sample_dense`` vs the sparse ``sample``.

    A sixth of the space is touched, about as much as the optimizer's two
    rounds over masks of ~8% of N touch.
    """
    size = 1 << n
    rng = np.random.default_rng(7)
    idx = np.sort(rng.choice(size, size=size // 6, replace=False))
    amp = rng.uniform(0.5, 3.0, idx.size)
    bulk = 1.0
    scale = 1.0 / math.sqrt(float(amp @ amp) + bulk * bulk * (size - idx.size))
    state = SparseState(n, bulk * scale, idx, amp * scale)

    def dense():
        amps = np.full(size, state.bulk)
        amps[state.idx] = state.amp
        sample_dense(StateVector(n, amps), rng, size=10)

    return {
        "dense": time_call(dense, repeats),
        "sparse": time_call(lambda: sample(state, rng, size=10), repeats),
    }


def bench_static_attempt(n: int, repeats: int) -> dict[int, dict[str, float]]:
    """One unknown-count attempt, the state after k = floor(sqrt(N)) / 2
    steps plus one draw, at M = 1, N/64 and N/2 marked states, keyed by M.

    M = N/2 is about the marked set of Dürr–Høyer's first threshold round,
    whose incumbent is a uniform draw.  Each attempt ends with the test of
    whether its draw is marked: a mask lookup for the dense attempt, and
    for the sparse one ``in_sorted`` on the marked indices, as
    ``search_unknown_m`` makes it (the indices are checked once, outside
    the timed call)."""
    size = 1 << n
    rng = np.random.default_rng(7)
    k = math.isqrt(size) // 2
    times = {}
    for n_marked in (1, max(1, size // 64), size // 2):
        marked_idx = np.sort(rng.choice(size, size=n_marked, replace=False))
        selected = np.zeros(size, dtype=bool)
        selected[marked_idx] = True
        rotation = _Rotation(n, marked_idx)

        def dense():
            angle = (2 * k + 1) * math.asin(math.sqrt(n_marked / size))
            amps = np.where(selected, math.sin(angle) / math.sqrt(n_marked),
                            math.cos(angle) / math.sqrt(size - n_marked))
            return selected[sample_dense(StateVector(n, amps), rng)]

        def sparse():
            return in_sorted(rotation.marked, sample(rotation.state_after(k), rng))

        times[n_marked] = {"dense": time_call(dense, repeats), "sparse": time_call(sparse, repeats)}
    return times


def bench_class_setup(n: int, m: float, with_catalog: bool, repeats: int) -> dict[str, float]:
    """What a run of ``recommend``'s planned rounds under a similarity policy
    calibrated to m does before its first round: the grid draw of its
    masks and the set-up of its state (``_Support``).  The catalog, when
    there is one, is every state within 4 flipped bits of the reference,
    where most of the support falls."""
    spec = SimilaritySpec(n, (1 << n) // 3)
    policy = similarity_policy(spec, calibrate_beta(n, m))
    if with_catalog:
        sizes = policy.class_sizes[n - 4:]
        classes = np.repeat(np.arange(n - 4, n + 1), sizes)
        ranks = np.concatenate([np.arange(size) for size in sizes.tolist()])
        catalog = policy.states_of_rank(classes, ranks)
        policy = SelectionPolicy.by_similarity(
            n, spec.reference, policy.class_probabilities, catalog
        )
    rounds = planned_rounds(policy)
    rng = np.random.default_rng(7)
    sizes = []  # (support, events) of each run set up

    def setup():
        support = _Support(policy, rounds, rng)
        sizes.append((support.idx.size, support._pos.size))

    seconds = time_call(setup, repeats)
    support, events = np.mean(sizes, axis=0).tolist()
    return {"setup": seconds, "support": support, "events": events}


def optimizer_policy(n: int, kind: str):
    """The seeded table of ``kind`` ("normal" or "ties", as perfbench's
    ``optimize-dynamic`` pool makes them) and the policy ``dynamic_optimize``
    builds on it from its probes."""
    rng = np.random.default_rng(7)
    if kind == "normal":
        values = rng.standard_normal(1 << n)
    else:
        values = rng.integers(0, (1 << n) // 4, size=1 << n).astype(np.float64)
    table = ObjectiveTable(n, values)
    return table, build_optimization_policy(table, np.random.default_rng(7))


def bench_table_policy(n: int, kind: str, repeats: int) -> dict[str, float]:
    """``build_optimization_policy`` on the table of ``optimizer_policy(n,
    kind)``: its ``ceil(sqrt(N))`` probes and ``policy_from_estimates``."""
    table, _ = optimizer_policy(n, kind)
    rng = np.random.default_rng(7)
    return {"policy": time_call(lambda: build_optimization_policy(table, rng), repeats)}


def bench_table_support_draw(n: int, kind: str, repeats: int) -> dict[str, float]:
    """The support draw of ``dynamic_optimize`` under the policy of
    ``optimizer_policy(n, kind)`` over ``nominal_rounds(n)`` rounds.  Also
    counts the minor page faults this process takes per draw."""
    _, policy = optimizer_policy(n, kind)
    rounds = nominal_rounds(n)
    rng = np.random.default_rng(7)
    _draw_support(policy, rounds, rng)
    support = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    draw = time_call(lambda: support.append(_draw_support(policy, rounds, rng)[0].size), repeats)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"draw": draw, "support": float(np.mean(support)), "faults": faults / repeats}


def bench_table_draw(n: int, kind: str, repeats: int) -> dict[str, float]:
    """``_draw_table_run``, every mask of ``dynamic_optimize``'s run under
    the policy of ``optimizer_policy(n, kind)`` over ``nominal_rounds(n)``
    rounds, with the mean event count and the minor page faults this
    process takes per draw."""
    _, policy = optimizer_policy(n, kind)
    rounds = nominal_rounds(n)
    rng = np.random.default_rng(7)
    _draw_table_run(policy, rounds, rng)
    events = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    draw = time_call(lambda: events.append(_draw_table_run(policy, rounds, rng)[2].size), repeats)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"draw": draw, "events": float(np.mean(events)), "faults": faults / repeats}


def bench_table_moments(n: int, kind: str, repeats: int) -> dict[str, float]:
    """``SelectionPolicy.moments`` of the policy of ``optimizer_policy(n,
    kind)``, the three sums the planner reads, with the tracemalloc peak of
    one call in bytes."""
    _, policy = optimizer_policy(n, kind)
    seconds = time_call(policy.moments, repeats)
    tracemalloc.start()
    try:
        policy.moments()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"moments": seconds, "peak": float(peak)}


# (case, n, m) of each planner call timed: recommend's calibrated policy,
# the optimizer's table, and the crossing experiment steps predicts
PLAN_CASES = (("recommend", 16, 5), ("recommend", 30, 1), ("table", 18, None),
              ("crossing", 14, None))


def bench_plan(case: str, n: int, m: float | None, repeats: int) -> dict[str, float]:
    """One planner call, moments included: ``planned_rounds`` on the
    similarity policy ``recommend`` runs, calibrated to m (case
    ``"recommend"``), or on the policy of ``optimizer_policy(n, "normal")``
    (``"table"``); or ``predicted_crossing`` at 1/2 of the ball S >= n - 1
    around reference 0 under the policy calibrated to its n + 1 states, as
    ``experiment steps`` predicts it (``"crossing"``)."""
    if case == "crossing":
        ball = SelectionPolicy.by_similarity(n, 0, np.arange(n + 1) >= n - 1)
        policy = similarity_policy(SimilaritySpec(n, 0), calibrate_beta(n, n + 1.0))
        call = partial(predicted_crossing, policy, ball, 0.5)
    else:
        if case == "table":
            policy = optimizer_policy(n, "normal")[1]
        else:
            policy = similarity_policy(SimilaritySpec(n, (1 << n) // 3), calibrate_beta(n, m))
        call = partial(planned_rounds, policy)
    rounds = call()
    return {"plan": time_call(call, repeats), "rounds": float(rounds)}


RUN_LENGTHS = (2, 6, 12, 52, 91)


def bench_whole_run(form: str, rounds: int, repeats: int) -> dict[str, float]:
    """A whole ``run_dynamic`` run of ``rounds`` rounds: under the
    similarity policy ``recommend`` runs at n = 16 and m = 5, or under the
    probe-built per-state table ``dynamic_optimize`` runs on a seeded
    normal table at n = 10."""
    if form == "class":
        policy = similarity_policy(SimilaritySpec(16, 12345), calibrate_beta(16, 5.0))
    else:
        table = ObjectiveTable(10, np.random.default_rng(7).standard_normal(1 << 10))
        policy = build_optimization_policy(table, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    run_dynamic(policy, rng, rounds)
    return {"run": time_call(lambda: run_dynamic(policy, rng, rounds), repeats)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer sizes and repeats")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write every number, in microseconds, to this file")
    args = parser.parse_args()

    sizes = [10, 14] if args.quick else [10, 14, 18, 20]
    base_repeats = 50 if args.quick else 400
    results = {}  # bench name -> one row per case, times in microseconds

    def report(bench: str, row: dict) -> dict:
        results.setdefault(bench, []).append(row)
        return row

    print(f"{'bench':<14} {'n':>3} {'numpy us':>12}")
    for bench_name, bench in (("grover_step", bench_step),
                              ("selection_stats", bench_stats),
                              ("dynamic_round", bench_round)):
        for n in sizes:
            repeats = max(5, base_repeats >> max(0, n - 12))
            times = bench(n, repeats)
            report(bench_name, {"n": n, **{key: value * 1e6 for key, value in times.items()}})
            row = f"{bench_name:<14} {n:>3} {times['python'] * 1e6:>12.2f}"
            if "touched" in times:
                row += f"  run_dynamic round {times['touched'] * 1e6:.2f} us"
            print(row)

    print(f"{'end_of_run':<14} {'n':>3} {'dense us':>12} {'sparse us':>12}")
    for n in [14] if args.quick else [14, 16, 18, 20]:
        times = bench_end_of_run(n, max(5, base_repeats >> max(0, n - 12)))
        report("end_of_run", {"n": n, "dense": times["dense"] * 1e6, "sparse": times["sparse"] * 1e6})
        print(f"{'end_of_run':<14} {n:>3} {times['dense'] * 1e6:>12.2f} "
              f"{times['sparse'] * 1e6:>12.2f}")

    print(f"{'static_attempt':<14} {'n':>3} {'M':>7} {'dense us':>12} {'sparse us':>12}")
    for n in [14] if args.quick else [14, 16, 18, 20]:
        repeats = max(5, base_repeats >> max(0, n - 12))
        for n_marked, times in bench_static_attempt(n, repeats).items():
            report("static_attempt", {"n": n, "marked": n_marked, "dense": times["dense"] * 1e6,
                                      "sparse": times["sparse"] * 1e6})
            print(f"{'static_attempt':<14} {n:>3} {n_marked:>7} {times['dense'] * 1e6:>12.2f} "
                  f"{times['sparse'] * 1e6:>12.2f}")

    print(f"{'class_setup':<14} {'n':>3} {'m':>3} {'catalog':>7} {'support':>9} {'events':>9} "
          f"{'setup us':>12}")
    for n in [10, 14] if args.quick else range(10, 29, 2):
        for m in (5, 50):
            for with_catalog in (False, True):
                repeats = max(3, (base_repeats // 4) >> max(0, n - 14))
                times = bench_class_setup(n, m, with_catalog, repeats)
                report("class_setup", {"n": n, "m": m, "catalog": with_catalog,
                                       "support": times["support"], "events": times["events"],
                                       "setup": times["setup"] * 1e6})
                print(f"{'class_setup':<14} {n:>3} {m:>3} {str(with_catalog):>7} "
                      f"{times['support']:>9.0f} {times['events']:>9.0f} "
                      f"{times['setup'] * 1e6:>12.2f}")

    # the three steps of a table run's set-up, on the optimizer's longest run, nominal_rounds(n)
    print(f"{'table_policy':<14} {'n':>3} {'table':>7} {'policy us':>12}")
    for n in (14, 18):
        for kind in ("normal", "ties"):
            times = bench_table_policy(n, kind, max(5, (base_repeats // 4) >> max(0, n - 14)))
            report("table_policy", {"n": n, "table": kind, "policy": times["policy"] * 1e6})
            print(f"{'table_policy':<14} {n:>3} {kind:>7} {times['policy'] * 1e6:>12.2f}")

    print(f"{'support_draw':<14} {'n':>3} {'R':>3} {'table':>7} {'support':>9} {'draw us':>12} "
          f"{'faults/draw':>12}")
    for n in (14, 18):
        for kind in ("normal", "ties"):
            times = bench_table_support_draw(n, kind, max(5, (base_repeats // 4) >> max(0, n - 14)))
            report("support_draw", {"n": n, "rounds": nominal_rounds(n), "table": kind,
                                    "support": times["support"], "draw": times["draw"] * 1e6,
                                    "faults": times["faults"]})
            print(f"{'support_draw':<14} {n:>3} {nominal_rounds(n):>3} {kind:>7} "
                  f"{times['support']:>9.0f} {times['draw'] * 1e6:>12.2f} {times['faults']:>12.1f}")

    print(f"{'table_draw':<14} {'n':>3} {'R':>3} {'table':>7} {'events':>9} {'draw us':>12} "
          f"{'faults/draw':>12}")
    for n in (14, 18):
        for kind in ("normal", "ties"):
            times = bench_table_draw(n, kind, max(5, (base_repeats // 4) >> max(0, n - 14)))
            report("table_draw", {"n": n, "rounds": nominal_rounds(n), "table": kind,
                                  "events": times["events"], "draw": times["draw"] * 1e6,
                                  "faults": times["faults"]})
            print(f"{'table_draw':<14} {n:>3} {nominal_rounds(n):>3} {kind:>7} "
                  f"{times['events']:>9.0f} {times['draw'] * 1e6:>12.2f} {times['faults']:>12.1f}")

    print(f"{'table_moments':<14} {'n':>3} {'table':>7} {'moments us':>12} {'peak B':>9}")
    for n in (14, 18):
        for kind in ("normal", "ties"):
            times = bench_table_moments(n, kind, max(5, (base_repeats // 4) >> max(0, n - 14)))
            report("table_moments", {"n": n, "table": kind, "moments": times["moments"] * 1e6,
                                     "peak": times["peak"]})
            print(f"{'table_moments':<14} {n:>3} {kind:>7} {times['moments'] * 1e6:>12.2f} "
                  f"{times['peak']:>9.0f}")

    print(f"{'plan':<14} {'case':>9} {'n':>3} {'m':>4} {'rounds':>7} {'plan us':>12}")
    for case, n, m in PLAN_CASES:
        times = bench_plan(case, n, m, max(5, base_repeats // 4 if n < 30 else base_repeats // 40))
        report("plan", {"case": case, "n": n, "m": m, "rounds": times["rounds"],
                        "plan": times["plan"] * 1e6})
        print(f"{'plan':<14} {case:>9} {n:>3} {str(m or '-'):>4} {times['rounds']:>7.0f} "
              f"{times['plan'] * 1e6:>12.2f}")

    print(f"{'whole_run':<14} {'R':>3} {'policy':>7} {'run us':>12}")
    for form in ("table", "class"):
        for rounds in RUN_LENGTHS:
            times = bench_whole_run(form, rounds, max(5, base_repeats // 4))
            report("whole_run", {"policy": form, "rounds": rounds, "run": times["run"] * 1e6})
            print(f"{'whole_run':<14} {rounds:>3} {form:>7} {times['run'] * 1e6:>12.2f}")

    if args.json:
        # perfbench's stamp, so that a file can be read next to its runs
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        from run import environment_stamp

        args.json.write_text(
            json.dumps({"environment": environment_stamp(), "unit": "us", "benches": results},
                       indent=1) + "\n",
            encoding="utf-8",
        )


if __name__ == "__main__":
    main()
