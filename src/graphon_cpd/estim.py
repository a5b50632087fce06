"""Link-probability estimation from a window of snapshots.

Two estimators are provided: neighborhood smoothing over the time-averaged
adjacency matrix (the primary method) and a spectral truncation alternative
(``musvt_estimate``) that thresholds eigenvalues of the averaged matrix.
"""

from __future__ import annotations

import math

import numpy as np

from ._parallel import one_blas_thread
from .netcore import average_adjacency

# Floats in a pairwise_distance row tile: 1 MiB stays in cache (1 row from n=257).
_CHUNK_FLOATS = 2**17


def pairwise_distance(abar: np.ndarray) -> np.ndarray:
    """Node distance matrix: D[i, i'] = max_{k != i, i'} |G[i,k] - G[i',k]|,
    where G = abar @ abar / n. Diagonal is 0."""
    abar = np.asarray(abar, dtype=float)
    n = abar.shape[0]
    if n < 3:
        raise ValueError("need n >= 3 so the max over k != i, i' is nonempty")
    # One BLAS thread: the window pool is the only parallel level, and the
    # bits of G, which pick the neighbours, do not depend on BLAS threads.
    with one_blas_thread:
        g = abar @ abar / n
    dist = np.empty((n, n))
    rows = min(n, max(1, _CHUNK_FLOATS // (n * n)))
    buf = np.empty((rows, n, n))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        # Only columns i' >= s; the rest is mirrored, as |x-y| == |y-x| exactly.
        # Zeroing k = i and k = i' cannot raise a max of absolute values.
        diff = buf[: e - s, : n - s]
        np.subtract(g[s:e, None, :], g[None, s:, :], out=diff)
        np.abs(diff, out=diff)
        diff[np.arange(e - s), :, np.arange(s, e)] = 0.0
        diff[:, np.arange(n - s), np.arange(s, n)] = 0.0
        np.max(diff, axis=2, out=dist[s:e, s:])
        dist[e:, s:e] = dist[s:e, e:].T
    np.fill_diagonal(dist, 0.0)
    return dist


def neighborhoods(dist: np.ndarray, q: float) -> list[np.ndarray]:
    """Per-node neighbor sets from the lower empirical q-quantile of each
    node's distances to the other nodes. Ties at the cutoff are included,
    so every set has at least max(1, ceil(q * (n - 1))) members."""
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    d = np.array(dist, dtype=float)
    m = max(1, math.ceil(q * (len(d) - 1)))
    # Node i's own NaN sorts last in np.partition and fails <=, whatever else.
    np.fill_diagonal(d, np.nan)
    cutoff = np.partition(d, m - 1, axis=1)[:, m - 1]
    return [np.flatnonzero(row) for row in d <= cutoff[:, None]]


def mnbs_q(n: int, omega: float, b0: float) -> float:
    """Neighborhood quantile b0 * log(n) / (sqrt(n) * omega), clamped to 1."""
    if n < 3 or omega <= 0 or b0 <= 0:
        raise ValueError("require n >= 3, omega > 0, b0 > 0")
    return min(1.0, b0 * math.log(n) / (math.sqrt(n) * omega))


def mnbs_smooth(abar: np.ndarray, nbhd: list[np.ndarray]) -> np.ndarray:
    """Average rows of abar over each node's neighbor set, then symmetrize."""
    abar = np.asarray(abar, dtype=float)
    n = abar.shape[0]
    if len(nbhd) != n:
        raise ValueError("neighbor sets do not match matrix size")
    sizes = np.array([len(members) for members in nbhd])
    if (sizes == 0).any():
        raise ValueError(f"empty neighborhood for node {np.argmin(sizes)}")
    members = np.concatenate(nbhd)
    if members.dtype.kind not in "iu" or members.min() < 0 or members.max() >= n:
        raise IndexError("neighbor indices must be integers in [0, n)")
    # Row i: node i's sorted members, padded with n: a row of -0.0, as x + -0.0 == x.
    key = np.repeat(np.arange(n) * n, sizes) + members
    idx = np.full((n, sizes.max()), n)
    idx[np.arange(sizes.max()) < sizes[:, None]] = np.sort(key) % n
    padded = np.vstack([abar, np.full((1, n), -0.0)])
    raw = np.full((n, n), -0.0)
    for column in idx.T:
        raw += padded[column]
    raw /= sizes[:, None]
    return (raw + raw.T) / 2


def smoothing_bandwidth(n: int, window: int) -> float:
    """omega = min(sqrt(n), sqrt(window * log n))."""
    return min(math.sqrt(n), math.sqrt(window * math.log(n)))


def mnbs_from_average(abar: np.ndarray, window: int, b0: float) -> np.ndarray:
    """Neighborhood-smoothing estimate given a precomputed window average."""
    n = abar.shape[0]
    q = mnbs_q(n, smoothing_bandwidth(n, window), b0)
    nbhd = neighborhoods(pairwise_distance(abar), q)
    return mnbs_smooth(abar, nbhd)


def mnbs_estimate(seq: np.ndarray, t_from: int, t_to: int, b0: float = 3.0) -> np.ndarray:
    """Full estimation chain over the 1-based window [t_from, t_to]."""
    abar = average_adjacency(seq, t_from, t_to)
    return mnbs_from_average(abar, t_to - t_from + 1, b0)


def musvt_estimate(abar: np.ndarray, window: int, eta: float = 0.01) -> np.ndarray:
    """Spectral estimate: keep eigencomponents of abar with |eigenvalue| >=
    (2 + eta) * sqrt(n / window), reconstruct and clip entries to [0, 1]."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < eta < 1:
        raise ValueError("eta must be in (0, 1)")
    abar = np.asarray(abar, dtype=float)
    n = abar.shape[0]
    # One BLAS thread, so the bits of eigh and the product do not depend on
    # OPENBLAS_NUM_THREADS.
    with one_blas_thread:
        evals, evecs = np.linalg.eigh(abar)
        keep = np.abs(evals) >= (2 + eta) * math.sqrt(n / window)
        recon = (evecs[:, keep] * evals[keep]) @ evecs[:, keep].T
    return np.clip(recon, 0.0, 1.0)
