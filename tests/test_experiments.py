import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qamp import SelectionMask, backend, dynamic_search, grover_iteration, uniform_init
from qamp.cli import main
from qamp.dynamic_search import planned_rounds, similarity_classes
from qamp.errors import ConfigError
from qamp.experiments import (
    ExperimentConfig,
    experiment_accuracy,
    experiment_corollaries,
    experiment_steps,
)
from qamp.optimize import ObjectiveTable, Sense, save_objective
from qamp.recommend import SimilaritySpec, similarity_params, similarity_policy
from qamp.static_search import optimal_iterations


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def drop_wall_time(path):
    lines = read_lines(path)
    header = lines[0].split(",")
    assert header[-1] == "wall_time_ms"
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("nonsense").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig("steps", seeds=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig("steps", n_range=(5, 31)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig("steps", fmt="pdf").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig("steps", seed_base=-1).validate()

    def test_reference_out_of_range(self, tmp_path):
        # steps checks against the smallest n of the range: 2**10 is fine at
        # n=11..14 but not at n=10
        with pytest.raises(ConfigError):
            experiment_steps(ExperimentConfig(
                "steps", n_range=(10, 11), seeds=1, reference=1 << 10, output_dir=tmp_path
            ))
        with pytest.raises(ConfigError):
            experiment_steps(ExperimentConfig(
                "steps", n_range=(5, 6), seeds=1, reference=-1, output_dir=tmp_path
            ))
        with pytest.raises(ConfigError):
            experiment_accuracy(ExperimentConfig(
                "accuracy", n=6, seeds=1, reference=64, output_dir=tmp_path
            ))
        assert main(["experiment", "accuracy", "--n", "6", "--reference", "64"]) == 2
        outcome = experiment_steps(ExperimentConfig(
            "steps", n_range=(5, 6), seeds=1, reference=31, output_dir=tmp_path, fmt="csv"
        ))
        assert [row.n for row in outcome.rows] == [5, 6]


class TestStepsExperiment:
    def test_small_sweep(self, tmp_path):
        config = ExperimentConfig(
            "steps", n_range=(6, 8), seeds=5, seed_base=3, output_dir=tmp_path
        )
        outcome = experiment_steps(config)
        assert [r.n for r in outcome.rows] == [6, 7, 8]
        for row in outcome.rows:
            # ball S >= n-1 has n+1 states
            assert row.static_steps == optimal_iterations(1 << row.n, row.n + 1)
            assert row.dynamic_inner_iterations == 2 * row.dynamic_rounds
        assert (tmp_path / "steps.csv").exists()
        assert (tmp_path / "steps_runs.csv").exists()
        assert (tmp_path / "steps.svg").exists()
        runs = read_lines(tmp_path / "steps_runs.csv")
        assert runs[0].split(",")[:3] == ["experiment", "n", "seed"]
        assert len(runs) == 1 + 3 * 5  # header + n values x seeds

    def test_single_target_small_case(self, tmp_path):
        # threshold n marks only the reference: one step at n=2
        config = ExperimentConfig(
            "steps", n_range=(2, 2), seeds=3, threshold=2, output_dir=tmp_path, fmt="csv"
        )
        outcome = experiment_steps(config)
        assert outcome.rows[0].static_steps == 1

    def test_seed_doubling_stability(self, tmp_path):
        base = dict(n_range=(10, 11), seed_base=0, output_dir=tmp_path, fmt="csv")
        few = experiment_steps(ExperimentConfig("steps", seeds=10, **base))
        many = experiment_steps(ExperimentConfig("steps", seeds=20, **base))
        for a, b in zip(few.rows, many.rows):
            assert abs(a.dynamic_rounds - b.dynamic_rounds) <= 1.0


class TestAccuracyExperiment:
    def test_small_run(self, tmp_path):
        config = ExperimentConfig(
            "accuracy", n=9, seeds=5, seed_base=1, output_dir=tmp_path
        )
        outcome = experiment_accuracy(config)
        assert outcome.p_static.shape == (10,)
        assert outcome.p_static.sum() == pytest.approx(1.0, abs=1e-6)
        assert outcome.p_dynamic.sum() == pytest.approx(1.0, abs=1e-6)
        assert (tmp_path / "accuracy.csv").exists()
        assert (tmp_path / "accuracy.svg").exists()
        lines = read_lines(tmp_path / "accuracy.csv")
        assert lines[0] == "S,p_static,p_dynamic"
        assert len(lines) == 11

    def test_static_arm_concentrates_on_ball(self, tmp_path):
        config = ExperimentConfig(
            "accuracy", n=9, seeds=2, output_dir=tmp_path, fmt="csv"
        )
        outcome = experiment_accuracy(config)
        assert outcome.p_static[8] + outcome.p_static[9] > 0.9

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form_static_arm_matches_dense_search(self, tmp_path, n):
        rng = np.random.default_rng(n)
        reference = int(rng.integers(1 << n))
        sims = similarity_classes(n, reference, np.arange(1 << n))
        for tau in range(n + 1):
            outcome = experiment_accuracy(ExperimentConfig(
                "accuracy", n=n, seeds=1, beta=1.0, threshold=tau, reference=reference,
                output_dir=tmp_path, fmt="csv",
            ))
            ball = SelectionMask(n, sims >= tau)
            state = uniform_init(n)
            for _ in range(optimal_iterations(1 << n, ball.count_selected)):
                state = grover_iteration(state, ball)
            dense = np.bincount(sims, weights=state.probabilities(), minlength=n + 1)
            np.testing.assert_allclose(outcome.p_static, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("run", [experiment_steps, experiment_accuracy])
def test_class_wise_experiments_build_no_state_table(tmp_path, run):
    # at n=20 a table of 2**20 float64 entries alone takes 8 MiB
    config = ExperimentConfig(
        run.__name__.removeprefix("experiment_"), n=20, n_range=(20, 20), seeds=1,
        output_dir=tmp_path, fmt="csv",
    )
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class TestCorollariesExperiment:
    def test_default_passes(self, tmp_path):
        config = ExperimentConfig(
            "corollaries", n_range=(2, 6), seeds=6, output_dir=tmp_path, fmt="csv"
        )
        report = experiment_corollaries(config)
        assert report.passed
        names = {r.check for r in report.results}
        assert "doubled-identity-none-selected" in names
        assert "reselection-ordering" in names
        assert "gain-ceiling" in names
        lines = read_lines(tmp_path / "corollaries.csv")
        assert lines[0] == "check,n,trials,max_deviation,tolerance,passed"

    def test_fault_injection_fails_ordering(self, tmp_path):
        config = ExperimentConfig(
            "corollaries",
            n_range=(3, 5),
            seeds=6,
            output_dir=tmp_path,
            fmt="csv",
            inject_fault=True,
        )
        report = experiment_corollaries(config)
        assert not report.passed
        failing = {r.check for r in report.results if not r.passed}
        assert failing == {"reselection-ordering"}

    def test_broken_step_fails_doubled_identities(self, tmp_path, monkeypatch):
        # the identity checks step the dense state, so a reflection about
        # 0.9x the mean breaks both of them
        def off_mean_step(amps, selected):
            np.negative(amps, out=amps, where=selected)
            np.subtract(1.8 * amps.mean(), amps, out=amps)

        monkeypatch.setattr(backend, "grover_step", off_mean_step)
        config = ExperimentConfig(
            "corollaries", n_range=(3, 5), seeds=6, output_dir=tmp_path, fmt="csv"
        )
        failing = {r.check for r in experiment_corollaries(config).results if not r.passed}
        assert {"doubled-identity-none-selected", "doubled-identity-all-selected"} <= failing

    def test_broken_engine_fails_replay_check(self, tmp_path, monkeypatch):
        # the engine's rounds take their shifts from doubling_shifts, and the
        # dense replay of the logged masks does not: 1% larger shifts move
        # the run's final state off the replayed one
        exact = dynamic_search.doubling_shifts

        def scaled_shifts(*sums):
            return tuple(1.01 * shift for shift in exact(*sums))

        monkeypatch.setattr(dynamic_search, "doubling_shifts", scaled_shifts)
        config = ExperimentConfig(
            "corollaries", n_range=(3, 6), seeds=6, output_dir=tmp_path, fmt="csv"
        )
        results = experiment_corollaries(config).results
        replay = [r for r in results if r.check == "engine-dense-replay"]
        assert [r.n for r in replay] == [3, 4, 5, 6]
        assert not any(r.passed for r in replay)
        assert {r.check for r in results if not r.passed} == {"engine-dense-replay"}


class TestReproducibility:
    def test_steps_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            config = ExperimentConfig(
                "steps", n_range=(5, 7), seeds=4, seed_base=9,
                output_dir=tmp_path / sub, fmt="csv",
            )
            experiment_steps(config)
        assert (tmp_path / "a/steps.csv").read_bytes() == (tmp_path / "b/steps.csv").read_bytes()
        assert drop_wall_time(tmp_path / "a/steps_runs.csv") == drop_wall_time(
            tmp_path / "b/steps_runs.csv"
        )

    def test_accuracy_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            config = ExperimentConfig(
                "accuracy", n=8, seeds=4, seed_base=2,
                output_dir=tmp_path / sub, fmt="csv",
            )
            experiment_accuracy(config)
        assert (tmp_path / "a/accuracy.csv").read_bytes() == (
            tmp_path / "b/accuracy.csv"
        ).read_bytes()


class TestSvgStructure:
    def test_valid_xml_one_polyline_per_series(self, tmp_path):
        config = ExperimentConfig(
            "steps", n_range=(4, 6), seeds=3, output_dir=tmp_path, fmt="svg"
        )
        experiment_steps(config)
        tree = ET.parse(tmp_path / "steps.svg")
        polylines = tree.getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2  # static and dynamic series


class TestCli:
    def test_grover_deterministic(self, capsys):
        assert main(["grover", "--n", "6", "--marked", "9", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["grover", "--n", "6", "--marked", "9", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert "outcome=9" in first

    def test_grover_marked_count_out_of_range_exit(self, capsys):
        assert main(["grover", "--n", "2", "--m", "5"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("marked", ["a", "1,x", "2.5", "99", "-1"])
    def test_grover_unparsable_marked_exit(self, capsys, marked):
        assert main(["grover", "--n", "4", "--marked", marked]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["n=abc", "m=1.5", "seed=x"])
    def test_config_file_unparsable_value_exit(self, tmp_path, capsys, entry):
        config = tmp_path / "run.cfg"
        config.write_text(entry + "\n", encoding="utf-8")
        assert main(["grover", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_config_file_unknown_key_exit(self, tmp_path, capsys):
        # misspelt keys used to be dropped, so the run went ahead with seed 0
        # and a random marked state
        config = tmp_path / "run.cfg"
        config.write_text("n=6\nsed=9\nmarkd=3\n", encoding="utf-8")
        assert main(["grover", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {config}:2: unknown key 'sed'\n"

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_experiment_seed_rejected(self, tmp_path, capsys, from_file):
        args = ["experiment", "steps", "--n-range", "6:7", "--seeds", "2",
                "--out", str(tmp_path / "out")]
        if from_file:
            (tmp_path / "run.cfg").write_text("seed=9\n", encoding="utf-8")
            args += ["--config", str(tmp_path / "run.cfg")]
        else:
            args += ["--seed", "99"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and "--seed-base" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("with_out", [False, True], ids=["no-out", "out"])
    def test_bad_format_rejected_before_the_run(self, tmp_path, capsys, with_out):
        config = tmp_path / "run.cfg"
        config.write_text("format=xml\n", encoding="utf-8")
        args = ["grover", "--n", "5", "--config", str(config)]
        if with_out:
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: format must be csv, svg or both, got 'xml'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_dynamic_strict_validity_rejected(self, tmp_path, capsys, from_file):
        # every run steps through violations, so there is no strict mode to ask for
        args = ["dynamic", "--n", "8", "--seed", "5", "--rounds", "4"]
        if from_file:
            config = tmp_path / "run.cfg"
            config.write_text("strict_validity=1\n", encoding="utf-8")
            assert main([*args, "--config", str(config)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: {config}:1: unknown key 'strict_validity'\n"
        else:
            with pytest.raises(SystemExit) as excinfo:
                main([*args, "--strict-validity"])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert "unrecognized arguments: --strict-validity" in captured.err
        assert captured.out == ""

    def test_non_integer_seed_environment_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("QAMP_SEED", "seven")
        assert main(["grover", "--n", "4", "--m", "1"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("args, config_line, env_seed", [
        pytest.param(["grover", "--n", "4", "--m", "3", "--seed", "-1"], None, None, id="seed"),
        pytest.param(["grover", "--n", "4", "--m", "3", "--seed-base", "-2"], None, None,
                     id="seed-base"),
        pytest.param(["experiment", "accuracy", "--n", "6", "--seeds", "1", "--seed-base", "-5"],
                     None, None, id="experiment-seed-base"),
        pytest.param(["grover", "--n", "4", "--m", "1"], "seed=-4", None, id="config-seed"),
        pytest.param(["experiment", "steps", "--n-range", "4:4", "--seeds", "1"],
                     "seed_base=-4", None, id="config-seed-base"),
        pytest.param(["grover", "--n", "4", "--m", "1"], None, "-3", id="env-seed"),
        pytest.param(["dynamic", "--n", "8", "--rounds", "-1"], None, None, id="rounds"),
        pytest.param(["recommend", "--n", "8", "--m", "0"], None, None, id="item-count"),
        pytest.param(["experiment", "steps", "--n-range", "abc"], None, None, id="n-range-flag"),
    ])
    def test_out_of_range_value_exit(self, tmp_path, capsys, monkeypatch, args, config_line,
                                     env_seed):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("QAMP_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("QAMP_SEED", env_seed)
        if config_line is not None:
            Path("run.cfg").write_text(config_line + "\n", encoding="utf-8")
            args = [*args, "--config", "run.cfg"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_grover_unknown_m_not_found(self, tmp_path, capsys):
        # unknown-count schedule over an empty marked set: exit code 4
        rc = main(["grover", "--n", "5", "--marked", "", "--unknown-m", "--seed", "1"])
        assert rc == 4

    @pytest.mark.parametrize("from_file", [False, True], ids=["flags", "config"])
    def test_grover_unknown_m_trajectory_rejected(self, tmp_path, capsys, from_file):
        # the unknown-count schedule records no trajectory, so asking for one
        # is a config error raised before any search or output
        out = tmp_path / "out"
        args = ["grover", "--n", "8", "--m", "1", "--seed", "1", "--out", str(out)]
        if from_file:
            config = tmp_path / "grover.cfg"
            config.write_text("unknown_m=true\ntrajectory=true\n", encoding="utf-8")
            args += ["--config", str(config)]
        else:
            args += ["--unknown-m", "--trajectory"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_dynamic_run_table(self, tmp_path, capsys):
        rc = main([
            "dynamic", "--n", "8", "--reference", "0", "--seed", "3",
            "--rounds", "6", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p_selected" in out
        assert (tmp_path / "dynamic_rounds.csv").exists()
        assert (tmp_path / "dynamic_summary.csv").exists()
        assert (tmp_path / "dynamic_gain.svg").exists()

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_dynamic_default_runs_the_plan(self, capsys, n):
        # without --rounds the run makes the planned rounds of its policy
        # and steps through violations, so it never restarts
        policy = similarity_policy(
            SimilaritySpec(n, 0), similarity_params(n, None, None, float(n + 1))
        )
        plan = planned_rounds(policy)
        for seed in range(5):
            assert main(["dynamic", "--n", str(n), "--seed", str(seed)]) == 0
            out = capsys.readouterr().out
            assert f" rounds={plan} " in out.splitlines()[0]
            assert "restart" not in out
            assert len(out.splitlines()) == 2 + plan

    def test_recommend_deterministic(self, tmp_path, capsys):
        args = [
            "recommend", "--n", "10", "--reference", "0", "--m", "5",
            "--seed", "7", "--out", str(tmp_path), "--format", "csv",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        items = read_lines(tmp_path / "recommend_items.csv")
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert read_lines(tmp_path / "recommend_items.csv") == items
        assert len(items) == 6  # header + 5 items

    def test_recommend_gain_summary_stays_short(self, capsys):
        # a run of 2,275 rounds prints one summary line of its gains
        assert main(["recommend", "--n", "25", "--m", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 1024
        assert "\ngain trajectory: rounds=2275 first=" in out

    def test_recommend_under_amplified_exit(self, tmp_path):
        # a steep beta never selects the two catalog items farthest from the
        # reference, so 100 draws from the near-uniform state miss them
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("254\n255\n", encoding="utf-8")
        rc = main([
            "recommend", "--n", "8", "--reference", "0", "--m", "2", "--beta", "5",
            "--seed", "1", "--catalog", str(catalog),
        ])
        assert rc == 4

    @pytest.mark.parametrize(
        "args,items",
        [(["--m", "5"], "1\n2\n3\n"), (["--m", "300", "--beta", "1"], None)],
        ids=["catalog", "space"],
    )
    def test_recommend_more_items_than_selectable_exit(self, tmp_path, capsys, args, items):
        if items is not None:
            (tmp_path / "catalog.txt").write_text(items, encoding="utf-8")
            args = [*args, "--catalog", str(tmp_path / "catalog.txt")]
        assert main(["recommend", "--n", "8", "--seed", "1", *args]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_optimize_identity_table(self, tmp_path, capsys):
        path = tmp_path / "identity.obj"
        save_objective(path, ObjectiveTable(8, np.arange(256, dtype=float), Sense.MIN))
        rc = main([
            "optimize", "--objective", str(path), "--method", "durr-hoyer",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best_index=0" in out
        assert (tmp_path / "optimize_summary.csv").exists()

    NOTICE = "every probe read one value: no round run; best of 10 uniform samples"

    def test_optimize_flat_dynamic_notice(self, tmp_path, capsys):
        path = tmp_path / "flat.obj"
        save_objective(path, ObjectiveTable(5, np.full(32, 1.5), Sense.MIN))
        rc = main(["optimize", "--objective", str(path), "--method", "dynamic", "--seed", "2"])
        assert rc == 0
        assert self.NOTICE in capsys.readouterr().out

    def test_optimize_missed_needle_notice(self, tmp_path, capsys):
        # seed 0's 64 probes all miss the needle: the notice claims only that
        values = np.ones(1 << 12)
        values[1234] = 0.0
        path = tmp_path / "needle.obj"
        save_objective(path, ObjectiveTable(12, values, Sense.MIN))
        rc = main(["optimize", "--objective", str(path), "--method", "dynamic", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert self.NOTICE in out
        assert "iterations=0 rounds=0 optimal=False" in out

    @pytest.mark.parametrize("method", ["durr-hoyer", "dynamic"])
    def test_optimize_notice_only_without_a_run(self, tmp_path, capsys, method):
        path = tmp_path / "ramp.obj"
        save_objective(path, ObjectiveTable(8, np.arange(256, dtype=float), Sense.MIN))
        assert main(["optimize", "--objective", str(path), "--method", method, "--seed", "1"]) == 0
        assert self.NOTICE not in capsys.readouterr().out

    def test_optimize_requires_objective(self, capsys):
        assert main(["optimize", "--method", "dynamic"]) == 2

    @pytest.mark.parametrize("content", [None, "n=4 sense=min\n1 2 x\n", "bogus\n", "n=4 sense=up\n"])
    def test_optimize_bad_objective_file_exit(self, tmp_path, capsys, content):
        path = tmp_path / "table.obj"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert main(["optimize", "--objective", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["durr-hoyer", "dynamic"])
    @pytest.mark.parametrize("n", [0, 31])
    def test_optimize_qubit_count_out_of_range_exit(self, tmp_path, capsys, n, method):
        # the header's n is checked before 2**n values are read
        path = tmp_path / "table.obj"
        path.write_text(f"n={n} sense=min\n1.5\n", encoding="utf-8")
        assert main(["optimize", "--objective", str(path), "--method", method]) == 2
        assert "qubit count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["recommend", "--n", "8", "--m", "3", "--beta", "100"],
            ["recommend", "--n", "8", "--m", "3", "--beta", "1000"],
            ["recommend", "--n", "8", "--m", "3", "--beta=-1000"],
            ["recommend", "--n", "8", "--m", "3", "--beta", "1e308"],
            ["recommend", "--n", "8", "--m", "3", "--beta=-1e308"],
            ["dynamic", "--n", "8", "--beta", "1000"],
            ["experiment", "accuracy", "--n", "8", "--seeds", "1", "--beta", "1000"],
            ["experiment", "steps", "--n-range", "6:7", "--seeds", "1", "--beta", "1000"],
        ],
        ids=lambda args: "_".join(args).replace("--", ""),
    )
    def test_large_beta_exits_cleanly(self, tmp_path, capsys, monkeypatch, args):
        # min(1, c * exp(beta * S)) must neither overflow nor turn into nan
        monkeypatch.chdir(tmp_path)
        assert main(args) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["recommend", "--n", "30", "--m", "3", "--beta", "25"],
            ["dynamic", "--n", "30", "--beta", "25"],
        ],
        ids=["recommend", "dynamic"],
    )
    def test_steep_beta_error_names_beta_n(self, tmp_path, capsys, monkeypatch, args):
        # beta * n = 750: exp(-beta * n) underflows, which once read as a
        # most-similar state selected with 0 < 1 - 1/N
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "beta * n = 750 is too steep" in err
        assert "1 - 1/N" not in err

    @pytest.mark.parametrize("content", [None, "hello\n", "999\n"])
    def test_recommend_bad_catalog_file_exit(self, tmp_path, capsys, content):
        path = tmp_path / "catalog.txt"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert main(["recommend", "--n", "8", "--m", "2", "--catalog", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_experiment_corollaries_exit_codes(self, tmp_path):
        ok = main([
            "experiment", "corollaries", "--n-range", "3:4", "--seeds", "4",
            "--out", str(tmp_path / "ok"), "--format", "csv",
        ])
        assert ok == 0
        bad = main([
            "experiment", "corollaries", "--n-range", "3:4", "--seeds", "4",
            "--inject-fault", "--out", str(tmp_path / "bad"), "--format", "csv",
        ])
        assert bad == 3

    def test_experiment_corollaries_default_range_runs_replay_check(self, tmp_path, capsys):
        rc = main([
            "experiment", "corollaries", "--seeds", "2",
            "--out", str(tmp_path), "--format", "csv",
        ])
        assert rc == 0
        rows = [line.split(",") for line in read_lines(tmp_path / "corollaries.csv")
                if line.startswith("engine-dense-replay,")]
        assert [int(row[1]) for row in rows] == list(range(2, 9))
        assert all(row[-1] == "true" for row in rows)

    def test_experiment_bad_range_exit(self, capsys):
        assert main(["experiment", "steps", "--n-range", "5:40"]) == 2

    def test_experiment_steps_past_twenty_qubits(self, tmp_path, capsys):
        args = ["experiment", "steps", "--n-range", "21:21", "--seeds", "1"]
        assert main([*args, "--out", str(tmp_path), "--format", "csv"]) == 0

    @pytest.mark.parametrize("args, message", [
        (["experiment", "steps", "--n-range", "3:3", "--seeds", "1"],
         "threshold 2 gives a ball of 4 states at n=3; calibration needs fewer than N/2 = 4"),
        (["experiment", "accuracy", "--n", "3", "--seeds", "1"],
         "threshold 2 gives a ball of 4 states at n=3; calibration needs fewer than N/2 = 4"),
        (["dynamic", "--n", "1"],
         "the default target n + 1 = 2 at n=1 is too large; calibration needs fewer than N/2 = 1"),
    ], ids=["steps", "accuracy", "dynamic"])
    def test_derived_target_too_large_exit(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            "n_range=4:5\nseeds=3\nseed_base=11\nformat=csv\n"
            f"out={tmp_path / 'from_file'}\n",
            encoding="utf-8",
        )
        rc = main(["experiment", "steps", "--config", str(config)])
        assert rc == 0
        assert (tmp_path / "from_file" / "steps.csv").exists()
        rc = main([
            "experiment", "steps", "--config", str(config),
            "--out", str(tmp_path / "flag_wins"),
        ])
        assert rc == 0
        assert (tmp_path / "flag_wins" / "steps.csv").exists()

    def test_env_seed_base_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QAMP_SEED", "123")
        args = [
            "recommend", "--n", "8", "--reference", "0", "--m", "2",
            "--out", str(tmp_path / "env"), "--format", "csv",
        ]
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setenv("QAMP_SEED", "123")
        assert main([
            "recommend", "--n", "8", "--reference", "0", "--m", "2",
            "--seed", "123", "--out", str(tmp_path / "explicit"), "--format", "csv",
        ]) == 0
        assert (tmp_path / "env" / "recommend_items.csv").read_bytes() == (
            tmp_path / "explicit" / "recommend_items.csv"
        ).read_bytes()

    def test_run_rows_carry_seed(self, tmp_path):
        config = ExperimentConfig(
            "steps", n_range=(4, 4), seeds=3, seed_base=5, output_dir=tmp_path, fmt="csv"
        )
        experiment_steps(config)
        rows = read_lines(tmp_path / "steps_runs.csv")[1:]
        seeds = [int(row.split(",")[2]) for row in rows]
        assert seeds == [5, 6, 7]
