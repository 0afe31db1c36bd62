"""Kernel backend selection.

The hot amplitude sweeps live in a small compiled extension when it built
successfully; otherwise the numpy implementation is used.  ``QAMP_KERNEL``
overrides the choice: ``python`` forces the fallback, ``compiled`` demands
the extension (raising if it is missing), anything else / unset = auto.
"""

import os

from . import _kernels_py

_requested = os.environ.get("QAMP_KERNEL", "auto").strip().lower()

if _requested == "python":
    _impl = _kernels_py
    KERNEL_BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        KERNEL_BACKEND = "compiled"
    except ImportError:
        if _requested == "compiled":
            raise
        _impl = _kernels_py
        KERNEL_BACKEND = "python"

grover_step = _impl.grover_step
selection_stats = _impl.selection_stats


def kernel_backend() -> str:
    """Name of the kernel implementation in use: 'compiled' or 'python'."""
    return KERNEL_BACKEND
