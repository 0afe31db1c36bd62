"""Time one fresh process's set-up for a workload.

Set-up is importing qamp (numpy included) plus ``build()``: the
program-side objects a user makes once.  The benchmark's own input
generation runs between the two timed parts and is not counted.  Prints
one JSON object ``{"setup_s": <wall seconds>}``.  ``run.py`` starts this
several times per run, with PYTHONPATH pointing at ``src``, scales each
time to nominal host speed (see speed.py) and reports the median.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload recommend --seed 1
"""

from time import perf_counter

START = perf_counter()

import qamp  # noqa: E402  (the import is what is being timed)

IMPORTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.generate()
    start = perf_counter()
    workload.build()
    print(json.dumps({"setup_s": IMPORTED - START + perf_counter() - start}))


if __name__ == "__main__":
    main()
