"""The BLAS thread count, held at one while small products run.

numpy's wheels bundle OpenBLAS, which splits a large enough matrix product
over its threads.  An iterative-refinement step multiplies (B, dims)
posterior rows by the decoder, with B at most ``EVAL_BLOCK``: the split
saves nothing measurable there, and every split call waits for the other
threads to wake.  On a loaded machine that wait stalls some calls for
milliseconds, so the time of a refinement varied from one run to the next
by far more than its work did.  ``one_thread`` runs a block of code with a
single BLAS thread and then restores the previous count.  Where numpy does
not bundle OpenBLAS it changes nothing.

The count is process-wide: while any caller is inside ``one_thread``, a
product that another thread runs is single-threaded too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

__all__ = ["one_thread"]

_lock = threading.Lock()
_depth = 0
_saved = 1


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None."""
    here = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*")) + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy 2 bundles scipy-openblas, numpy 1 an "openblas64_" build.
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Run the block with one BLAS thread; nested and concurrent uses share one limit."""
    global _depth, _saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
