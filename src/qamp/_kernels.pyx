# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled amplitude kernels.

Hot sweeps of the simulator.  The amplification step fuses the selected
sign flip with the mean accumulation into one pass and the reflection
into a second, avoiding the temporaries of the vectorized fallback; the
serial loops are bitwise-deterministic.  Signatures mirror
``_kernels_py``: float64 amplitudes, bool selection, in-place mutation.
"""

import numpy as np

from libc.math cimport INFINITY


cdef void _step(double[::1] amps, const unsigned char[::1] sel) noexcept nogil:
    cdef Py_ssize_t i, n = amps.shape[0]
    cdef double total = 0.0
    cdef double a, mu
    for i in range(n):
        a = amps[i]
        if sel[i]:
            a = -a
            amps[i] = a
        total += a
    mu = total / n
    for i in range(n):
        amps[i] = 2.0 * mu - amps[i]


def grover_step(amps, selected):
    """One amplification step: sign-flip selected entries, reflect all about the mean."""
    cdef double[::1] a = amps
    cdef const unsigned char[::1] sel = selected.view(np.uint8)
    with nogil:
        _step(a, sel)


def selection_stats(amps, selected):
    """Per-group sums over one pass: (sum_sel, sum_unsel, sumsq_sel, sumsq_unsel, min_unsel).

    ``min_unsel`` is +inf when every state is selected.
    """
    cdef double[::1] a = amps
    cdef const unsigned char[::1] sel = selected.view(np.uint8)
    cdef Py_ssize_t i, n = a.shape[0]
    cdef double s_sel = 0.0, s_unsel = 0.0, q_sel = 0.0, q_unsel = 0.0
    cdef double mn = INFINITY
    cdef double v
    with nogil:
        for i in range(n):
            v = a[i]
            if sel[i]:
                s_sel += v
                q_sel += v * v
            else:
                s_unsel += v
                q_unsel += v * v
                if v < mn:
                    mn = v
    return s_sel, s_unsel, q_sel, q_unsel, mn
