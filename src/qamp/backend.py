"""The two amplitude kernels, in numpy.

``grover_step`` mutates ``amps`` in place; ``selection_stats`` only reads.
Callers look both up as attributes of this module (``backend.grover_step``),
so a wrapper installed here reaches every call.
"""

import math

import numpy as np

# selection_stats works through the state in blocks of this many amplitudes
_STATS_BLOCK = 1 << 13


def grover_step(amps: np.ndarray, selected: np.ndarray) -> None:
    """One amplification step: sign-flip selected entries, reflect all about the mean."""
    np.negative(amps, out=amps, where=selected)
    mu = amps.mean()
    np.subtract(2.0 * mu, amps, out=amps)


def selection_stats(amps: np.ndarray, selected: np.ndarray):
    """Per-group sums over one pass: (sum_sel, sum_unsel, sumsq_sel, sumsq_unsel, min_unsel).

    ``min_unsel`` is +inf when every state is selected.  Neither group is
    copied out of ``amps``: each block times the mask is the selected group
    with zeros elsewhere, and the block minus that is the unselected group
    (exactly), both formed in one block-sized scratch buffer.
    """
    if amps.size <= _STATS_BLOCK:
        return _block_stats(amps, selected, np.empty(amps.size))
    scratch = np.empty(_STATS_BLOCK)
    blocks = [
        _block_stats(
            amps[start : start + _STATS_BLOCK],
            selected[start : start + _STATS_BLOCK],
            scratch[: min(_STATS_BLOCK, amps.size - start)],
        )
        for start in range(0, amps.size, _STATS_BLOCK)
    ]
    *sums, min_unsel = zip(*blocks)
    return (*map(sum, sums), min(min_unsel))


def _block_stats(block: np.ndarray, mask: np.ndarray, scratch: np.ndarray):
    group = np.multiply(block, mask, out=scratch)
    sum_sel, sumsq_sel = float(np.add.reduce(group)), float(group @ group)
    np.subtract(block, group, out=group)
    sum_unsel, sumsq_unsel = float(np.add.reduce(group)), float(group @ group)
    np.putmask(group, mask, math.inf)
    return sum_sel, sum_unsel, sumsq_sel, sumsq_unsel, float(np.minimum.reduce(group))


def kernel_backend() -> str:
    """Name of the kernel implementation: always ``"python"`` (numpy)."""
    return "python"
