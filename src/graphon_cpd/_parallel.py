"""Thread policy. GRAPHON_CPD_THREADS caps worker count (0 = auto); numpy's
OpenBLAS is held to one thread inside the MNBS product (one_blas_thread)."""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    raw = os.environ.get("GRAPHON_CPD_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GRAPHON_CPD_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError("GRAPHON_CPD_THREADS must be >= 0")
    return value if value > 0 else (os.cpu_count() or 1)


def ordered_map(fn, items):
    """Map fn over items with the configured worker count, preserving order.

    Results are assembled by index, so the output is identical for any
    worker count as long as fn is pure.
    """
    items = list(items)
    workers = min(thread_count(), max(1, len(items)))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@functools.cache
def openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this
    process, found once through /proc/self/maps; empty where there is none
    (MKL, Accelerate, platforms without /proc)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip(): None for line in maps}
    except OSError:
        return ()
    controls = []
    for path in paths:
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        # numpy's wheel: scipy_openblas_*64_; plain builds: openblas_*[64_].
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


class _OneBlasThread:
    """Reference-counted context: the first entry saves each OpenBLAS thread
    count and sets it to 1, the last exit restores it.

    OpenBLAS splits a product's sums by its thread count, so holding it at 1
    makes the product's bits independent of OPENBLAS_NUM_THREADS, and keeps
    its threads from competing with the window pool. The thread count is
    global to the process, so overlapping entries from pool workers share
    one saved value.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                controls = openblas_thread_controls()
                self._saved = [(set_, get()) for get, set_ in controls]
                for _, set_ in controls:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


one_blas_thread = _OneBlasThread()
