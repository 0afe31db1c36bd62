"""Command-line harness.

Subcommands: ``grover``, ``dynamic``, ``recommend``, ``optimize`` and
``experiment steps|accuracy|corollaries``.  A flat key=value config file
(``--config``) mirrors the flags; explicit flags override file entries,
and the ``QAMP_SEED`` environment variable is the fallback seed base.
Each command returns its tables and charts, and ``main`` hands them to
``experiments.write_outputs`` when ``--out`` is given; experiments write
their own files through the same writer.

Exit codes: 0 success, 2 config error (bad flags or flag values, an
unreadable or malformed --config/--catalog/--objective file, a config
key that is not an option of the subcommand, a --format other than
csv, svg or both (checked before the run), an experiment given --seed
or a config-file seed (experiments take --seed-base), a non-integer
QAMP_SEED, a negative seed from --seed, --seed-base, a config-file
seed/seed_base or QAMP_SEED, a negative --rounds, a recommend --m
below 1, a qubit count outside [1, MAX_QUBITS], a default calibration
target of N/2 or more, grover --trajectory with --unknown-m), 3 a
corollary of ``experiment corollaries`` failed, 4 under-amplified / not
found.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import check_qubit_count
from .dynamic_search import planned_rounds, run_dynamic
from .errors import ConfigError, NoSolutionError, QampError, UnderAmplifiedError
from .experiments import (
    ExperimentConfig,
    check_format,
    experiment_accuracy,
    experiment_corollaries,
    experiment_steps,
    write_outputs,
)
from .optimize import durr_hoyer, dynamic_optimize, load_objective
from .recommend import (
    SimilaritySpec,
    load_catalog,
    recommend,
    similarity_params,
    similarity_policy,
)
from .static_search import search, search_unknown_m

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NOT_FOUND = 4


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return value, value
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ConfigError(f"bad n range {text!r}; expected A:B")


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad index list {text!r}; expected comma-separated integers") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _at_least(value: int, low: int, what: str) -> int:
    if value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value}")
    return value


def _load_config_file(path: str, keys) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{line_number}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


class _Options:
    """Flag/file/default resolution: explicit flags win, then the file."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        keys = set(vars(ns)) - {"config", "command", "func", "which"}
        self.file = _load_config_file(ns.config, keys) if ns.config else {}

    def get(self, key: str, parse, default):
        value = getattr(self.ns, key, None)
        if value is not None:
            return value
        if key in self.file:
            try:
                return parse(self.file[key])
            except ValueError:
                raise ConfigError(
                    f"{self.ns.config}: bad value {self.file[key]!r} for {key}"
                ) from None
        return default

    def seed_base(self) -> int:
        value = self.get("seed_base", int, None)
        if value is not None:
            return _at_least(value, 0, "seed base")
        env = os.environ.get("QAMP_SEED")
        if not env:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"QAMP_SEED must be an integer, got {env!r}") from None
        return _at_least(value, 0, "QAMP_SEED")

    def seed(self) -> int:
        value = self.get("seed", int, None)
        if value is not None:
            return _at_least(value, 0, "seed")
        return self.seed_base()


def cmd_grover(opts: _Options) -> tuple[int, list, list]:
    n = opts.get("n", int, 4)
    check_qubit_count(n)
    seed = opts.seed()
    unknown = bool(opts.get("unknown_m", _parse_bool, False))
    record = bool(opts.get("trajectory", _parse_bool, False))
    if unknown and record:
        raise ConfigError("--trajectory records the known-count schedule; drop it or --unknown-m")
    rng = np.random.default_rng(seed)
    marked_text = opts.get("marked", str, None)
    if marked_text is not None:
        indices = _parse_indices(str(marked_text))
        for x in indices:
            if not 0 <= x < 1 << n:
                raise ConfigError(f"marked index {x} out of range for n={n}")
    else:
        m = opts.get("m", int, 1)
        if not 0 <= m <= 1 << n:
            raise ConfigError(f"marked count must be in [0, {1 << n}], got {m}")
        indices = rng.choice(1 << n, size=m, replace=False)
    marked = np.unique(np.asarray(indices, dtype=np.int64))
    t0 = time.perf_counter()
    if unknown:
        result = search_unknown_m(n, marked, rng)
    else:
        result = search(n, marked, rng, record_trajectory=record)
    wall_ms = (time.perf_counter() - t0) * 1e3
    print(f"n={n} marked={marked.size} seed={seed}")
    if result.found:
        print(
            f"outcome={result.outcome} iterations={result.iterations_used} "
            f"success_probability={result.success_probability:.6f}"
        )
    else:
        print(f"not found after {result.iterations_used} iterations (likely no solutions)")

    tables = [(
        "grover_run.csv",
        ["experiment", "n", "seed", "marked_count", "outcome",
         "iterations", "success_probability", "wall_time_ms"],
        [("grover", n, seed, marked.size, result.outcome if result.found else "",
          result.iterations_used, result.success_probability, wall_ms)],
    )]
    charts = []
    if result.trajectory:
        ks = list(range(1, len(result.trajectory) + 1))
        tables.append((
            "grover_trajectory.csv",
            ["experiment", "n", "seed", "iteration", "marked_probability"],
            [("grover", n, seed, k, p) for k, p in zip(ks, result.trajectory)],
        ))
        charts.append((
            "grover_trajectory.svg", "Marked-set probability per iteration",
            "iteration", "probability", [("marked probability", ks, list(result.trajectory))],
        ))
    return (EXIT_OK if result.found else EXIT_NOT_FOUND), tables, charts


def cmd_dynamic(opts: _Options) -> tuple[int, list, list]:
    n = opts.get("n", int, 10)
    reference = opts.get("reference", int, 0)
    seed = opts.seed()
    rng = np.random.default_rng(seed)
    spec = SimilaritySpec(n, reference)
    beta, m_target = opts.get("beta", float, None), opts.get("m_target", float, None)
    if beta is None and m_target is None and 2 * (n + 1) >= 1 << n:
        raise ConfigError(f"the default target n + 1 = {n + 1} at n={n} is too large; "
                          f"calibration needs fewer than N/2 = {1 << (n - 1)}")
    params = similarity_params(n, beta, m_target, float(n + 1))
    policy = similarity_policy(spec, params)
    rounds = opts.get("rounds", int, None)
    if rounds is None:
        rounds = planned_rounds(policy)
    _at_least(rounds, 0, "round count")
    t0 = time.perf_counter()
    _, log = run_dynamic(policy, rng, rounds=rounds)
    wall_ms = (time.perf_counter() - t0) * 1e3

    print(f"n={n} reference={reference} beta={params.beta:.6f} rounds={log.rounds} seed={seed}")
    print(f"{'round':>5} {'N_s':>6} {'p_selected':>11} {'gain':>12} {'mean_amp':>12}")
    columns = [log.n_selected, log.p_selected, log.p_unselected, log.gains,
               log.mean_amplitude, log.min_unselected_amp]
    rows = list(zip(range(1, log.rounds + 1), *(column.tolist() for column in columns)))
    for i, n_sel, p_sel, _, gain, mean, _ in rows:
        print(f"{i:>5} {n_sel:>6} {p_sel:>11.6f} {gain:>12.6g} {mean:>12.4e}")

    tables = [
        ("dynamic_rounds.csv",
         ["experiment", "n", "seed", "round", "n_selected", "p_selected",
          "p_unselected", "gain", "mean_amplitude", "min_unselected_amp"],
         [("dynamic", n, seed, *row) for row in rows]),
        ("dynamic_summary.csv",
         ["experiment", "n", "seed", "rounds", "inner_iterations", "wall_time_ms"],
         [("dynamic", n, seed, log.rounds, 2 * log.rounds, wall_ms)]),
    ]
    charts = [(
        "dynamic_gain.svg", "Selected mass per round", "round", "probability",
        [("selected mass", list(range(1, log.rounds + 1)), log.p_selected.tolist())],
    )] if log.rounds else []
    return EXIT_OK, tables, charts


def _gain_summary(log) -> str:
    """One line on a run's gains: the rounds logged, the first, the largest and the last."""
    gains = log.gains
    best = int(np.argmax(gains))
    return (f"gain trajectory: rounds={log.rounds} first={gains[0]:.3g} "
            f"max={gains[best]:.3g} (round {best + 1}) last={gains[-1]:.3g}")


def cmd_recommend(opts: _Options) -> tuple[int, list, list]:
    n = opts.get("n", int, 10)
    reference = opts.get("reference", int, 0)
    m = _at_least(opts.get("m", int, 5), 1, "item count")
    seed = opts.seed()
    rng = np.random.default_rng(seed)
    spec = SimilaritySpec(n, reference)
    params = similarity_params(
        n, opts.get("beta", float, None), opts.get("m_target", float, None), float(m)
    )
    catalog_path = opts.get("catalog", str, None)
    catalog = None
    if catalog_path:
        try:
            catalog = load_catalog(catalog_path, n)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load catalog {catalog_path}: {exc}") from exc
    t0 = time.perf_counter()
    result = recommend(spec, m, params, rng, catalog=catalog)
    wall_ms = (time.perf_counter() - t0) * 1e3

    print(f"n={n} reference={reference} m={m} beta={params.beta:.6f} seed={seed}")
    print(f"rounds_used={result.rounds_used}")
    print(f"{'index':>7} {'bits':>{n + 2}} {'similarity':>11}")
    for item in result.items:
        print(f"{item.index:>7} {item.index:>0{n}b}   {item.similarity:>9}")
    log = result.log  # recommend() always returns its run's log
    if log.rounds:
        print(_gain_summary(log))

    tables = [
        ("recommend_items.csv", ["experiment", "n", "seed", "index", "similarity"],
         [("recommend", n, seed, item.index, item.similarity) for item in result.items]),
        ("recommend_classes.csv", ["experiment", "n", "seed", "S", "probability"],
         [("recommend", n, seed, s, float(p))
          for s, p in enumerate(result.per_similarity_sampling)]),
        ("recommend_rounds.csv",
         ["experiment", "n", "seed", "round", "n_selected", "p_selected", "gain"],
         [("recommend", n, seed, *row) for row in zip(
             range(1, log.rounds + 1), log.n_selected.tolist(), log.p_selected.tolist(),
             log.gains.tolist())]),
        ("recommend_summary.csv",
         ["experiment", "n", "seed", "m", "rounds_used", "inner_iterations", "wall_time_ms"],
         [("recommend", n, seed, m, result.rounds_used, 2 * result.rounds_used, wall_ms)]),
    ]
    charts = [(
        "recommend_classes.svg", "Sampling probability by similarity class",
        "similarity S", "class probability",
        [("dynamic", list(range(n + 1)), [float(p) for p in result.per_similarity_sampling])],
    )]
    return EXIT_OK, tables, charts


def cmd_optimize(opts: _Options) -> tuple[int, list, list]:
    objective = opts.get("objective", str, None)
    if not objective:
        raise ConfigError("optimize requires --objective <path>")
    try:
        table = load_objective(objective)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load objective {objective}: {exc}") from exc
    method = opts.get("method", str, "durr-hoyer")
    if method not in ("durr-hoyer", "dynamic"):
        raise ConfigError(f"method must be durr-hoyer or dynamic, got {method!r}")
    seed = opts.seed()
    rng = np.random.default_rng(seed)

    t0 = time.perf_counter()
    result = (durr_hoyer if method == "durr-hoyer" else dynamic_optimize)(table, rng)
    wall_ms = (time.perf_counter() - t0) * 1e3
    rounds = result.threshold_rounds

    print(f"objective n={table.n} sense={table.sense.value} method={method} seed={seed}")
    if method == "dynamic" and result.log is None:
        print("every probe read one value: no round run; best of 10 uniform samples")
    print(
        f"best_index={result.best_index} best_value={result.best_value!r} "
        f"iterations={result.grover_iterations_total} rounds={result.outer_rounds} "
        f"optimal={result.optimal}"
    )
    if rounds:
        chain = " -> ".join(
            f"{r.incumbent_before}({r.marked_count} better)" for r in rounds
        )
        print(f"threshold rounds: {chain}")
    elif result.log is not None and result.log.rounds:
        print(_gain_summary(result.log))

    tables = [(
        "optimize_summary.csv",
        ["experiment", "method", "n", "seed", "best_index", "best_value",
         "iterations", "outer_rounds", "optimal", "wall_time_ms"],
        [("optimize", method, table.n, seed, result.best_index, result.best_value,
          result.grover_iterations_total, result.outer_rounds, result.optimal, wall_ms)],
    )]
    if rounds:
        tables.append((
            "optimize_rounds.csv",
            ["experiment", "n", "seed", "round", "incumbent", "marked_count",
             "found", "iterations"],
            [("optimize", table.n, seed, i + 1, r.incumbent_before, r.marked_count,
              r.found if r.found is not None else "", r.iterations)
             for i, r in enumerate(rounds)],
        ))
    return EXIT_OK, tables, []


def cmd_experiment(opts: _Options) -> tuple[int, list, list]:
    """Runs one experiment, which writes its own files (to ``out`` by default)."""
    if opts.ns.seed is not None or "seed" in opts.file:
        raise ConfigError("experiments take no seed; trial seeds are --seed-base + trial index")
    which = opts.ns.which
    config = ExperimentConfig(
        experiment=which,
        n=opts.get("n", int, None),
        n_range=opts.get("n_range", _parse_n_range, None),
        seeds=opts.get("seeds", int, 20),
        seed_base=opts.seed_base(),
        beta=opts.get("beta", float, None),
        m_target=opts.get("m_target", float, None),
        threshold=opts.get("threshold", int, None),
        reference=opts.get("reference", int, 0),
        output_dir=Path(opts.get("out", Path, Path("out"))),
        fmt=opts.get("format", str, "both"),
        inject_fault=bool(opts.get("inject_fault", _parse_bool, False)),
    )
    if which == "steps":
        outcome = experiment_steps(config)
        lines = ["n static_steps dynamic_rounds dynamic_inner_iterations crossed"] + [
            f"{row.n} {row.static_steps:g} {row.dynamic_rounds:g} "
            f"{row.dynamic_inner_iterations:g} {row.crossed}" for row in outcome.rows
        ]
    elif which == "accuracy":
        outcome = experiment_accuracy(config)
        lines = ["S p_static p_dynamic"] + [
            f"{s} {outcome.p_static[s]:.6g} {outcome.p_dynamic[s]:.6g}"
            for s in range(outcome.n + 1)
        ]
    else:
        outcome = experiment_corollaries(config)
        lines = [
            f"{'check':<32} {'n':>3} {'trials':>6} {'max_deviation':>14} {'tolerance':>10} passed"
        ] + [
            f"{r.check:<32} {r.n:>3} {r.trials:>6} {r.max_deviation:>14.3e} "
            f"{r.tolerance:>10.1e} {r.passed}" for r in outcome.results
        ]
    print("\n".join(lines + [f"wrote {path}" for path in outcome.files]))
    if which != "corollaries":
        return EXIT_OK, [], []
    if not outcome.passed:
        failed = [r.check for r in outcome.results if not r.passed]
        print(f"FAILED checks: {', '.join(sorted(set(failed)))}", file=sys.stderr)
        return EXIT_INVARIANT, [], []
    print("all checks passed")
    return EXIT_OK, [], []


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--out", type=Path, help="output directory for CSV/SVG")
    parser.add_argument("--format", choices=["csv", "svg", "both"], dest="format")
    parser.add_argument("--seed", type=int, help="seed for single-run commands")
    parser.add_argument("--seed-base", type=int, dest="seed_base",
                        help="experiment trial seeds are seed base + trial index; "
                             "single-run commands fall back to it without --seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamp",
        description="Amplitude-amplification simulator: search, recommendation, "
                    "optimization and seeded experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grover", help="fixed-mask search")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int, help="number of random marked states")
    p.add_argument("--marked", help="comma-separated marked indices (overrides --m)")
    p.add_argument("--unknown-m", action="store_true", default=None, dest="unknown_m",
                   help="use the unknown-count schedule")
    p.add_argument("--trajectory", action="store_true", default=None,
                   help="record per-iteration marked probability (not with --unknown-m)")
    _add_common(p)
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("dynamic", help="probabilistic-mask amplification run")
    p.add_argument("--n", type=int)
    p.add_argument("--reference", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--m-target", type=float, dest="m_target")
    p.add_argument("--rounds", type=int, help="round count (default: the planned peak)")
    _add_common(p)
    p.set_defaults(func=cmd_dynamic)

    p = sub.add_parser("recommend", help="similarity recommendation")
    p.add_argument("--n", type=int)
    p.add_argument("--reference", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--m-target", type=float, dest="m_target")
    p.add_argument("--beta", type=float)
    p.add_argument("--catalog", help="catalog file: one item per line")
    _add_common(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("optimize", help="objective optimization")
    p.add_argument("--objective", help="objective table file")
    p.add_argument("--method", choices=["durr-hoyer", "dynamic"])
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("experiment", help="seeded experiment sweeps")
    p.add_argument("which", choices=["steps", "accuracy", "corollaries"])
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", type=_parse_n_range, dest="n_range")
    p.add_argument("--seeds", type=int)
    p.add_argument("--m-target", type=float, dest="m_target")
    p.add_argument("--beta", type=float)
    p.add_argument("--threshold", type=int)
    p.add_argument("--reference", type=int)
    p.add_argument("--inject-fault", action="store_true", default=None, dest="inject_fault",
                   help="skip the second inner iteration in the ordering check")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        opts = _Options(ns)
        fmt = check_format(opts.get("format", str, "both"))
        code, tables, charts = ns.func(opts)
        out = opts.get("out", Path, None)
        if out is not None:
            write_outputs(out, fmt, tables, charts)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnderAmplifiedError, NoSolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except QampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
