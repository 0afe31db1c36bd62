"""Pure-numpy amplitude kernels.

Fallback implementation used when the compiled extension is unavailable
(or forced via ``QAMP_KERNEL=python``).  Signatures mirror ``_kernels.pyx``.
All functions mutate ``amps`` in place.
"""

import numpy as np


def grover_step(amps: np.ndarray, selected: np.ndarray) -> None:
    """One amplification step: sign-flip selected entries, reflect all about the mean."""
    np.negative(amps, out=amps, where=selected)
    mu = amps.mean()
    np.subtract(2.0 * mu, amps, out=amps)


def selection_stats(amps: np.ndarray, selected: np.ndarray):
    """Per-group sums over one pass: (sum_sel, sum_unsel, sumsq_sel, sumsq_unsel, min_unsel).

    ``min_unsel`` is +inf when every state is selected.
    """
    sel = amps[selected]
    unsel = amps[~selected]
    min_unsel = float(unsel.min()) if unsel.size else float("inf")
    return (
        float(sel.sum()),
        float(unsel.sum()),
        float(sel @ sel),
        float(unsel @ unsel),
        min_unsel,
    )
