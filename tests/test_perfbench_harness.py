"""The benchmark harness still reads what the program gives it.

``perfbench/`` reads attributes of the program's results and run logs on
every request.  These tests run one request of each workload in process,
through the harness's own tracer and answer checker, so a change that
removes something the harness reads fails here rather than in the
benchmark.  The harness's modules are imported without writing bytecode,
so nothing under ``perfbench/`` changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS_MODULES = ("checks", "spans", "speed", "workloads")
# the wrap points whose attribute the program no longer has (ROADMAP item 1)
ABSENT = {
    "qamp.experiments.calibrate_beta",
    "qamp.dynamic_search.sample_mask",
    "qamp.backend.doubled_step",
}


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    yield spans, workloads
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_first_request_of_each_workload_passes_its_checks(harness, tmp_path):
    spans, workloads = harness
    tracer = spans.Tracer()
    results = {}
    with tracer.installed():
        for name, workload_class in workloads.WORKLOADS.items():
            tracer.request = name
            workload = workload_class(1, tmp_path)
            workload.generate()
            workload.build()
            call, check = workload.request(0)
            results[name] = call()
            assert check(results[name]).problems == [], name
    assert set(tracer.absent) == ABSENT

    for name in ("recommend", "optimize-dynamic"):
        log = results[name].log
        assert log is not None, name
        counts = spans._log_counts(log)
        assert counts["rounds"] == log.rounds > 0, name
        assert counts["restarts"] == 0, name
    assert set(spans.request_counts(tracer.spans)) == set(workloads.WORKLOADS)
    metrics = spans.layer_metrics(tracer.spans, len(results["recommend"].items))
    assert metrics["dynamic_search.rounds"] > 0
    assert metrics["dynamic_search.restart_ratio"] == 0.0
