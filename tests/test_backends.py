import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qamp import _kernels_py, backend

try:
    from qamp import _kernels as compiled
except ImportError:
    compiled = None

ROOT = Path(__file__).resolve().parents[1]
needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled kernels not built")
IMPLS = [
    pytest.param(compiled, id="compiled", marks=needs_compiled),
    pytest.param(_kernels_py, id="python"),
]


def random_case(n, seed, density=0.3):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    selected = rng.random(1 << n) < density
    return amps, selected


@needs_compiled
@pytest.mark.parametrize("n", [1, 4, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_parity(n, seed):
    amps, selected = random_case(n, seed)
    a_c, a_py = amps.copy(), amps.copy()
    for _ in range(5):
        compiled.grover_step(a_c, selected)
        _kernels_py.grover_step(a_py, selected)
        np.testing.assert_allclose(a_c, a_py, rtol=0, atol=1e-12)


@needs_compiled
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_stats_parity(density):
    amps, selected = random_case(8, seed=3, density=density)
    got = compiled.selection_stats(amps, selected)
    want = _kernels_py.selection_stats(amps, selected)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12) or (
            np.isinf(g) and np.isinf(w)
        )


@pytest.mark.parametrize("impl", IMPLS)
def test_stats_full_mask_infinite_min(impl):
    amps, _ = random_case(5, seed=1)
    selected = np.ones(32, dtype=bool)
    assert np.isinf(impl.selection_stats(amps, selected)[4])


@pytest.mark.parametrize("n", [1, 5, 13, 14, 15])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("positive", [False, True])
def test_python_stats_match_copied_groups(n, density, positive):
    # the blockwise sums agree with sums over the groups copied out of amps
    amps, selected = random_case(n, seed=n, density=density)
    if positive:
        amps = np.abs(amps)
    sel, unsel = amps[selected], amps[~selected]
    want = (sel.sum(), unsel.sum(), sel @ sel, unsel @ unsel)
    got = _kernels_py.selection_stats(amps, selected)
    for g, w in zip(got[:4], want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-15)
    assert got[4] == (unsel.min() if unsel.size else np.inf)


def test_python_stats_zero_group_sums_exactly_zero():
    amps = np.zeros(1 << 14)
    selected = np.zeros(1 << 14, dtype=bool)
    selected[::3] = True
    amps[selected] = 0.01
    stats = _kernels_py.selection_stats(amps, selected)
    assert stats[1] == 0.0 and stats[3] == 0.0 and stats[4] == 0.0


@pytest.mark.parametrize("impl", IMPLS)
def test_bitwise_determinism(impl):
    # identical inputs give bit-identical outputs on repeat runs
    amps, selected = random_case(10, seed=9)
    a1, a2 = amps.copy(), amps.copy()
    for _ in range(50):
        impl.grover_step(a1, selected)
        impl.grover_step(a2, selected)
    assert np.array_equal(a1, a2)


def test_backend_selected_compiled_by_default():
    assert backend.kernel_backend() in ("compiled", "python")
    assert backend.grover_step is not None


def test_env_override_forces_python_backend():
    code = (
        "import qamp.backend as b; import qamp._kernels_py as k; "
        "assert b.KERNEL_BACKEND == 'python'; assert b.grover_step is k.grover_step; "
        "print('ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "QAMP_KERNEL": "python"},
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "benchmarks/kernel_bench.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "grover_step" in proc.stdout
    assert "dynamic_round" in proc.stdout
