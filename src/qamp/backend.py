"""The two amplitude kernels, in numpy.

``grover_step`` mutates ``amps`` in place; ``selection_stats`` only reads.
Callers look both up as attributes of this module (``backend.grover_step``),
so a wrapper installed here reaches every call.
"""

import math

import numpy as np


def grover_step(amps: np.ndarray, selected: np.ndarray) -> None:
    """One amplification step: sign-flip selected entries, reflect all about the mean."""
    np.negative(amps, out=amps, where=selected)
    mu = amps.sum() / amps.size  # what amps.mean() gives, without its wrapper
    np.subtract(2.0 * mu, amps, out=amps)


def selection_stats(amps: np.ndarray, selected: np.ndarray):
    """Per-group sums: (sum_sel, sum_unsel, sumsq_sel, sumsq_unsel, min_unsel).

    ``min_unsel`` is +inf when every state is selected.  The dense
    diagnostics call this; runs keep their own group sums.
    """
    sel, unsel = amps[selected], amps[~selected]
    min_unsel = float(unsel.min()) if unsel.size else math.inf
    return float(sel.sum()), float(unsel.sum()), float(sel @ sel), float(unsel @ unsel), min_unsel


def kernel_backend() -> str:
    """Name of the kernel implementation: always ``"python"`` (numpy)."""
    return "python"
