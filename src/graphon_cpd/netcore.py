"""Dense symmetric matrix containers, matrix distances and window averaging.

Adjacency sequences are stored as numpy arrays of shape (T, n, n) with binary
entries. Time indices are 1-based throughout the library to keep the window
arithmetic aligned with the usual scan-statistic conventions; only the edge-list
CSV format (see cliio) is 0-based.
"""

from __future__ import annotations

import numpy as np

# Entries per block of snapshots that as_adjacency_sequence checks at a time.
_CHECK_ENTRIES = 2**20


def as_adjacency_sequence(arr) -> np.ndarray:
    """Validate and return a (T, n, n) array of symmetric binary snapshots."""
    seq = np.asarray(arr)
    if seq.ndim != 3 or seq.shape[1] != seq.shape[2]:
        raise ValueError(f"expected shape (T, n, n), got {seq.shape}")
    if seq.shape[0] < 1:
        raise ValueError("need at least one snapshot")
    # Blocks of snapshots keep the bool temporaries near _CHECK_ENTRIES, not
    # the input's size; all blocks pass the 0/1 test before any is checked
    # for symmetry, so the verdict is that of the whole array.
    step = max(1, _CHECK_ENTRIES // max(1, seq.shape[1] ** 2))
    blocks = [seq[s : s + step] for s in range(0, seq.shape[0], step)]
    if not all(((b == 0) | (b == 1)).all() for b in blocks):
        raise ValueError("adjacency entries must be 0 or 1")
    if not all((b == b.transpose(0, 2, 1)).all() for b in blocks):
        raise ValueError("snapshots must be symmetric")
    return seq


def average_adjacency(seq: np.ndarray, t_from: int, t_to: int) -> np.ndarray:
    """Mean over axis 0 of the 1-based window [t_from, t_to]; any trailing shape."""
    T = seq.shape[0]
    if not (1 <= t_from <= t_to <= T):
        raise IndexError(f"window [{t_from}, {t_to}] out of range for T={T}")
    window = seq[t_from - 1 : t_to]
    h = t_to - t_from + 1
    # Integer entries sum exactly, in any order: byte-sized ones in the
    # narrowest integer dtype that holds h of them, others in float64, so
    # every window of the same snapshots gives the bits of the float64 sum.
    small = window.dtype in (np.bool_, np.int8, np.uint8)
    acc = np.int16 if small and h <= 128 else np.int32 if small and h < 2**23 else float
    return np.add.reduce(window, axis=0, dtype=acc) / h


def _check_same_shape(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return p, q


def dist_2inf(p: np.ndarray, q: np.ndarray) -> float:
    """Normalized 2,inf distance: max over rows i of n^{-1/2} ||P_i - Q_i||_2."""
    p, q = _check_same_shape(p, q)
    n = p.shape[0]
    row_norms = np.sqrt(np.square(p - q).sum(axis=1))
    return float(row_norms.max() / np.sqrt(n))


def dist_frob(p: np.ndarray, q: np.ndarray) -> float:
    """Normalized Frobenius distance: n^{-1} ||P - Q||_F."""
    p, q = _check_same_shape(p, q)
    n = p.shape[0]
    return float(np.linalg.norm(p - q) / n)
