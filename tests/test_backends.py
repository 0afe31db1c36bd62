import os
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qamp import SelectionMask, ShapeMismatchError, backend, grover_iteration, uniform_init

ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra):
    """The environment with ``src`` first on PYTHONPATH, for subprocesses."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def random_case(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    selected = rng.random(1 << n) < density
    return amps, selected


def stepped(amps, selected):
    """``backend.grover_step`` applied to a float copy of ``amps``."""
    amps = np.array(amps, dtype=np.float64)
    backend.grover_step(amps, np.asarray(selected, dtype=bool))
    return amps


class TestGroverStep:
    def test_single_marked(self):
        # the flip gives [.5, .5, .5, -.5] with mean .25; each entry maps to 2 * .25 - a
        assert np.array_equal(stepped([0.5] * 4, [0, 0, 0, 1]), [0.0, 0.0, 0.0, 1.0])

    def test_empty_mask_reflects_about_mean(self):
        # mean of [.5, .5, .5, -.5] is .25; each entry maps to 2 * .25 - a
        assert np.array_equal(stepped([0.5, 0.5, 0.5, -0.5], [0] * 4), [0.0, 0.0, 0.0, 1.0])

    def test_equal_amplitudes_fixed_point(self):
        amps = uniform_init(5).amps
        np.testing.assert_allclose(stepped(amps, np.zeros(32)), amps, rtol=0, atol=1e-15)

    def test_step_then_empty_step_is_the_flip(self):
        # the two reflections cancel, leaving the sign flip of the selected states
        amps, selected = random_case(6, seed=4)
        got = stepped(stepped(amps, selected), np.zeros(64))
        np.testing.assert_allclose(got, np.where(selected, -amps, amps), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("full", [False, True])
    def test_involution(self, full):
        amps, _ = random_case(6, seed=2)
        selected = np.full(64, full)
        np.testing.assert_allclose(
            stepped(stepped(amps, selected), selected), amps, rtol=0, atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            grover_iteration(uniform_init(2), SelectionMask.empty(3))

    def test_input_not_mutated(self):
        state = uniform_init(2)
        grover_iteration(state, SelectionMask.from_indices(2, [0]))
        assert np.array_equal(state.amps, [0.5, 0.5, 0.5, 0.5])


def test_stats_full_mask_infinite_min():
    amps, _ = random_case(5, seed=1)
    selected = np.ones(32, dtype=bool)
    assert np.isinf(backend.selection_stats(amps, selected)[4])


@pytest.mark.parametrize("n", [1, 5, 13, 14, 15])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("positive", [False, True])
def test_python_stats_match_copied_groups(n, density, positive):
    # the stats agree with plain numpy sums over the two groups
    amps, selected = random_case(n, seed=n, density=density)
    if positive:
        amps = np.abs(amps)
    sel, unsel = amps[selected], amps[~selected]
    want = (sel.sum(), unsel.sum(), sel @ sel, unsel @ unsel)
    got = backend.selection_stats(amps, selected)
    for g, w in zip(got[:4], want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-15)
    assert got[4] == (unsel.min() if unsel.size else np.inf)


def test_python_stats_zero_group_sums_exactly_zero():
    amps = np.zeros(1 << 14)
    selected = np.zeros(1 << 14, dtype=bool)
    selected[::3] = True
    amps[selected] = 0.01
    stats = backend.selection_stats(amps, selected)
    assert stats[1] == 0.0 and stats[3] == 0.0 and stats[4] == 0.0


def test_bitwise_determinism():
    # identical inputs give bit-identical outputs on repeat runs
    amps, selected = random_case(10, seed=9)
    a1, a2 = amps.copy(), amps.copy()
    for _ in range(50):
        backend.grover_step(a1, selected)
        backend.grover_step(a2, selected)
    assert np.array_equal(a1, a2)


def test_import_ignores_retired_kernel_switch():
    # the retired switch set to the value that used to demand a compiled
    # extension neither breaks the import nor picks another kernel (the name
    # is split so that a search for live uses of the switch finds none)
    switch = "QAMP_" + "KERNEL"
    code = (
        "import qamp; assert qamp.kernel_backend() == 'python'; "
        "assert qamp.backend.grover_step.__module__ == 'qamp.backend'; print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(**{switch: "compiled"}),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_benchmark_smoke(tmp_path):
    out = tmp_path / "kernel_bench.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/kernel_bench.py", "--quick", "--json", str(out)],
        env=src_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for bench in ("grover_step", "dynamic_round", "class_setup", "table_policy", "support_draw",
                  "table_draw", "table_moments", "plan", "whole_run"):
        assert bench in proc.stdout, bench
    written = json.loads(out.read_text(encoding="utf-8"))
    assert {"python", "numpy", "kernel_backend", "nproc", "cpu", "commit"} <= set(
        written["environment"]
    )
    runs = written["benches"]["whole_run"]
    assert {(row["policy"], row["rounds"]) for row in runs} == {
        (form, rounds) for form in ("table", "class") for rounds in (2, 6, 12, 52, 91)
    }
    assert all(row["run"] > 0.0 for row in runs)
    for bench, timed in (("table_policy", "policy"), ("support_draw", "draw"),
                         ("table_draw", "draw"), ("table_moments", "moments")):
        rows = written["benches"][bench]
        assert {(row["n"], row["table"]) for row in rows} == {
            (n, kind) for n in (14, 18) for kind in ("normal", "ties")
        }, bench
        assert all(row[timed] > 0.0 for row in rows), bench
    plans = written["benches"]["plan"]
    assert [(row["case"], row["n"], row["m"]) for row in plans] == [
        ("recommend", 16, 5), ("recommend", 30, 1), ("table", 18, None), ("crossing", 14, None)
    ]
    assert all(row["plan"] > 0.0 and row["rounds"] >= 1 for row in plans)
