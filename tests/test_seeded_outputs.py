"""Seeded outputs of every command on a small fixed grid, compared with a manifest.

Each case runs one ``qamp`` command in process and records its exit code,
its stdout and stderr, each CSV it writes (with the ``wall_time_ms`` column dropped)
and the sha256 of each SVG.  A change that moves any seeded stream shows
up as a diff of ``tests/data/seeded_outputs.json``.

Rewrite the manifest after an intended stream change with::

    PYTHONPATH=src python tests/test_seeded_outputs.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qamp.cli import main
from qamp.optimize import ObjectiveTable, Sense, save_objective

MANIFEST = Path(__file__).resolve().parent / "data" / "seeded_outputs.json"
_DIR = "<out>"  # stands for the case's output directory in stdout


def _inputs(root: Path) -> dict[str, Path]:
    """The input files some cases read: a catalog and two objective tables."""
    catalog = root / "catalog.txt"
    catalog.write_text("".join(f"{x}\n" for x in range(0, 1 << 9, 3)), encoding="utf-8")
    normal = root / "normal.txt"
    save_objective(normal, ObjectiveTable(7, np.random.default_rng(11).standard_normal(128)))
    tied = root / "tied.txt"
    values = np.random.default_rng(12).integers(0, 6, size=64).astype(float)
    save_objective(tied, ObjectiveTable(6, values, Sense.MAX))
    return {"catalog": catalog, "normal": normal, "tied": tied}


CASES = {
    "grover-known-m": "grover --n 6 --m 2 --seed 3 --trajectory",
    "grover-known-m-n20": "grover --n 20 --m 1 --seed 1 --trajectory",
    "grover-marked": "grover --n 6 --marked 40,9,40,3 --seed 3 --trajectory",
    "grover-unknown-m": "grover --n 7 --m 3 --seed 4 --unknown-m",
    "grover-unknown-m-trajectory": "grover --n 8 --m 1 --seed 1 --unknown-m --trajectory",
    "grover-unknown-m-n20": "grover --n 20 --m 3 --seed 2 --unknown-m",
    "dynamic": "dynamic --n 8 --seed 5",
    "recommend": "recommend --n 10 --m 4 --seed 6",
    "recommend-catalog": "recommend --n 9 --m 3 --seed 8 --catalog {catalog}",
    "optimize-durr-hoyer-normal": "optimize --objective {normal} --method durr-hoyer --seed 8",
    "optimize-dynamic-normal": "optimize --objective {normal} --method dynamic --seed 8",
    "optimize-durr-hoyer-tied": "optimize --objective {tied} --method durr-hoyer --seed 9",
    "optimize-dynamic-tied": "optimize --objective {tied} --method dynamic --seed 9",
    "experiment-steps": "experiment steps --n-range 6:8 --seeds 2",
    "experiment-accuracy": "experiment accuracy --n 7 --seeds 2",
    "experiment-corollaries": "experiment corollaries --n-range 2:5 --seeds 4",
}


def _csv_lines(path: Path) -> list[str]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time_ms"]
    return [",".join(row[i] for i in keep) for row in rows]


def _run(name: str, command: str, inputs: dict[str, Path], root: Path) -> dict:
    out = root / name
    argv = command.format(**inputs).split() + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        if path.suffix == ".csv":
            files[path.name] = _csv_lines(path)
        else:
            files[path.name] = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "argv": command.split(),
        "exit": code,
        "stdout": stdout.getvalue().replace(str(out), _DIR).splitlines(),
        "stderr": stderr.getvalue().splitlines(),
        "files": files,
    }


def seeded_outputs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = _inputs(root)
        return {name: _run(name, command, inputs, root) for name, command in CASES.items()}


def test_seeded_outputs_match_manifest():
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = seeded_outputs()
    assert sorted(got) == sorted(want)
    for name in CASES:
        assert got[name] == want[name], name


@pytest.mark.parametrize("name", CASES)
def test_format_writes_its_part_of_both(name, tmp_path):
    """``--format csv`` writes exactly the CSVs of the ``both`` run (wall time
    aside) and ``--format svg`` exactly its SVGs, byte for byte."""
    inputs = _inputs(tmp_path)
    both, csv_run, svg_run = (
        _run(fmt, f"{CASES[name]} --format {fmt}", inputs, tmp_path)
        for fmt in ("both", "csv", "svg")
    )
    assert both["exit"] == csv_run["exit"] == svg_run["exit"]
    assert csv_run["files"] == {k: v for k, v in both["files"].items() if k.endswith(".csv")}
    assert svg_run["files"] == {k: v for k, v in both["files"].items() if k.endswith(".svg")}


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(seeded_outputs(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
