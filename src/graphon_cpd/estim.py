"""Link-probability estimation from a window of snapshots.

Two estimators are provided: neighborhood smoothing over the time-averaged
adjacency matrix (the primary method) and a spectral truncation alternative
(``musvt_estimate``) that thresholds eigenvalues of the averaged matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._parallel import one_blas_thread
from .netcore import average_adjacency

# A pairwise_distance chunk compares a block of rows of G, at least
# _RUN_FLOATS floats (64 KiB) so that each subtraction runs long, with their
# partners at as many offsets as fit in _CHUNK_FLOATS floats (1 MiB, in cache).
# _offset_plan turns them into index arrays once per shape, so a chunk is four
# numpy calls with no index arithmetic between them. mnbs_smooth gathers the
# members of as many rows as fit in _GATHER_FLOATS floats (256 KiB): with
# 1 MiB, glibc mapped fresh pages for the gather on most calls (7-15k minor
# faults per detect at n = 200, against 1.4k) and peak RSS rose by ~1 MiB.
_RUN_FLOATS = 2**13
_CHUNK_FLOATS = 2**17
_GATHER_FLOATS = 2**15
# mnbs_from_average orders its distances on exact integer counts
# (_screened_distance) at every n; the scan's stacks of B windows
# (cpd._BATCH_FLOATS) keep the screen's extra numpy calls few. A stack where
# more than _BAND_SHARE of the pairs need their float64 distance takes the
# float64 kernel instead.
_BAND_SHARE = 1 / 16
_MUSVT_ETA = 0.01  # margin of MUSVT's eigenvalue cutoff over USVT's 2·sqrt(n / window)


@functools.lru_cache(maxsize=16)
def _offset_plan(n: int, stack: int, run: int, chunk: int):
    """Tiling of the distance kernel for `stack` matrices of size n, given
    run and chunk floats: the floats of one slice's largest chunk, the chunks
    as (first, last, lo, hi, zeros), and the flat indices of the offset-major
    maxima in the square matrix and in its transpose.

    A chunk compares rows first .. last - 1 with their partners at offsets
    lo .. hi - 1; zeros are the flat positions of k = r and k = r + d in one
    slice of its difference array. Every array is read-only."""
    half = n // 2
    block = -(-n // max(1, n * n // run))  # rows, in blocks of near-equal size
    step = min(half, max(1, chunk // (stack * block * n)))
    chunks = []
    for first in range(0, n, block):
        last = min(first + block, n)
        rows = np.arange(first, last)
        for lo in range(1, half + 1, step):
            hi = min(lo + step, half + 1)
            partners = (rows + np.arange(lo, hi)[:, None]) % n
            at = (np.arange(hi - lo) * (last - first) * n)[:, None] + (rows - first) * n
            zeros = np.concatenate([(at + rows).ravel(), (at + partners).ravel()])
            chunks.append((first, last, lo, hi, zeros))
    rows = np.arange(n)
    partners = (rows + np.arange(1, half + 1)[:, None]) % n
    into, mirror = (rows * n + partners).ravel(), (partners * n + rows).ravel()
    for index in [into, mirror] + [c[-1] for c in chunks]:
        index.flags.writeable = False
    return step * block * n, tuple(chunks), into, mirror


def _gram(abar: np.ndarray) -> np.ndarray:
    """G = abar @ abar / n as a stack (B, n, n)."""
    n = abar.shape[-1]
    # One BLAS thread: the window pool is the only parallel level, and the
    # bits of G, which pick the neighbours, do not depend on BLAS threads.
    with one_blas_thread:
        return (abar @ abar / n).reshape(-1, n, n)


def _distances(g: np.ndarray, dtype) -> np.ndarray:
    """The distance kernel on a stack (B, n, n) of G, in a float or signed
    integer dtype: D[b, i, i'] = max_{k != i, i'} |G[b, i, k] - G[b, i', k]|
    with G and the arithmetic in dtype.

    For each offset d = 1 .. n // 2 row r of G is compared with row
    (r + d) mod n, which covers every pair once (twice at d = n / 2 for even
    n). A block of rows and their partners at one offset are contiguous runs
    of G and of G followed by its first n // 2 rows, so every subtraction
    streams whole blocks of rows."""
    count, n = len(g), g.shape[-1]
    # G followed by its first n // 2 rows, in dtype, and G as a view of it.
    ext = np.empty((count, n + n // 2, n), dtype)
    ext[:, :n] = g
    ext[:, n:] = g[:, : n // 2]
    g = ext[:, :n]
    # shifted[b, d, r] is row (r + d) mod n of g[b], for 0 <= d <= n // 2: a
    # strided view of ext. Made with the ndarray constructor, not
    # sliding_window_view, whose __array_interface__ dict interns and frees
    # key strings on each call; that churn makes Python reallocate its whole
    # interned-string table now and then (1-2 MB), inside whichever scan is
    # running at the time.
    step, row, col = ext.strides
    shifted = np.ndarray((count, n // 2 + 1, n, n), dtype, ext, 0, (step, row, row, col))
    # The budgets are in float64s. Narrower chunks hold twice the entries,
    # and int16 ones no more: at four times, 1 MiB each, they ran no faster
    # (n = 150-300) and raised dense-n200's peak RSS by about 0.8 MiB.
    per = min(2, 8 // g.itemsize)
    size, chunks, into, mirror = _offset_plan(n, count, _RUN_FLOATS * per, _CHUNK_FLOATS * per)
    buf = np.empty(count * size, g.dtype)
    # far[b, d - 1, r] is the distance of r and (r + d) mod n in slice b.
    far = np.empty((count, n // 2, n), g.dtype)
    # |diff| is never negative, and non-negative floats order like the
    # integers of their bits: numpy's integer max is much faster than its
    # NaN-aware float max, and picks the same value.
    bits = np.dtype(f"i{g.itemsize}")
    far_bits = far.view(bits)
    for first, last, lo, hi, zeros in chunks:
        diff = buf[: count * (hi - lo) * (last - first) * n].reshape(
            count, hi - lo, last - first, n
        )
        np.subtract(g[:, None, first:last], shifted[:, lo:hi, first:last], out=diff)
        # Zeroing k = r and k = r + d cannot raise a max of absolute values;
        # |x-y| == |y-x| exactly, so one max serves both orders of the pair.
        diff.reshape(count, -1)[:, zeros] = 0.0
        np.abs(diff, out=diff)
        np.max(diff.view(bits), axis=3, out=far_bits[:, lo - 1 : hi - 1, first:last])
    dist = np.zeros(g.shape, g.dtype)
    flat, far = dist.reshape(count, -1), far.reshape(count, -1)
    flat[:, into] = far
    flat[:, mirror] = far
    return dist


def pairwise_distance(abar: np.ndarray) -> np.ndarray:
    """Node distance matrix: D[i, i'] = max_{k != i, i'} |G[i,k] - G[i',k]|,
    where G = abar @ abar / n. Diagonal is 0.

    abar may be one (n, n) matrix or a nonempty stack (..., n, n); each
    slice of the result has the bits of its own 2-D call."""
    abar = np.asarray(abar, dtype=float)
    n = abar.shape[-1]
    if n < 3:
        raise ValueError("need n >= 3 so the max over k != i, i' is nonempty")
    return _distances(_gram(abar), np.float64).reshape(abar.shape)


def _screened_distance(abar: np.ndarray, h: int, q: float) -> np.ndarray:
    """A matrix that neighborhoods(., q) maps to the mask of
    neighborhoods(pairwise_distance(abar), q), for a nonempty stack of
    averages over windows of h snapshots.

    Each average must be counts / h with integer counts in 0..h. Then, while
    (n + 4)·n·h² < 2^51, C = rint(G·n·h²) is counts @ counts exactly, and
    the rounding in G cannot reorder two distances whose exact integers on
    C differ (README, "Reproducibility"). The kernel runs on C in integers;
    a pair below its row's integer cutoff is inside the float64 one, a pair
    above it outside, and only pairs tied at it, in rows where two or more
    tie, get their float64 distance, computed with pairwise_distance's
    operations. The result holds -inf below the cutoff, +inf above, 0 at a
    lone tie and the float64 distance at the other ties, and -inf on the
    diagonal, which neighborhoods leaves out. Other input, and windows
    where many pairs tie, take the float64 kernel."""
    abar = np.asarray(abar, dtype=float)
    n = abar.shape[-1]
    g = _gram(abar)
    # One float64 buffer of G's size holds the counts, then C; it goes
    # before the kernel runs, so as not to raise the kernel's peak memory.
    c = np.multiply(abar.reshape(g.shape), h)
    np.rint(c, out=c)
    if not (c.min() >= 0 and c.max() <= h and (n + 4) * n * h**2 < 2**51
            and (np.divide(c, h, out=c) == abar.reshape(g.shape)).all()):
        return _distances(g, np.float64).reshape(abar.shape)
    np.rint(np.multiply(g, n * h**2, out=c), out=c)
    top = c.max()
    dtype = np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64
    c = c.astype(dtype)
    dist = _distances(c, dtype)
    # -1 on the diagonal sorts before every distance, so each row's m-th
    # smallest distance to the other nodes is at position m.
    dist[:, np.arange(n), np.arange(n)] = -1
    m = max(1, math.ceil(q * (n - 1)))
    cut = np.partition(dist, m, axis=-1)[..., m, None]
    tie = dist == cut
    out = np.full(g.shape, np.inf)
    np.copyto(out, -np.inf, where=dist < cut)
    np.copyto(out, 0.0, where=tie)
    del dist
    tie &= np.count_nonzero(tie, axis=-1)[..., None] > 1
    b, i, j = np.nonzero(tie)
    del tie
    # Windows of ties (all ones, equal blocks): the float64 kernel is then
    # the cheaper way.
    if len(b) > out.size * _BAND_SHARE:
        del out
        return _distances(g, np.float64).reshape(abar.shape)
    rows, flat = g.reshape(-1, n), out.reshape(-1)
    left, right, into = b * n + i, b * n + j, (b * n + i) * n + j
    step = max(1, _CHUNK_FLOATS // (2 * n))
    buf = np.empty((2, min(step, len(b)), n))
    for lo in range(0, len(b), step):
        hi = min(lo + step, len(b))
        diff, other = buf[0, : hi - lo], buf[1, : hi - lo]
        rows.take(left[lo:hi], axis=0, out=diff, mode="clip")
        rows.take(right[lo:hi], axis=0, out=other, mode="clip")
        np.subtract(diff, other, out=diff)
        diff[np.arange(hi - lo), i[lo:hi]] = 0.0
        diff[np.arange(hi - lo), j[lo:hi]] = 0.0
        np.abs(diff, out=diff)
        flat[into[lo:hi]] = diff.view(np.int64).max(axis=1).view(float)
    return out.reshape(abar.shape)


def neighborhoods(dist: np.ndarray, q: float) -> np.ndarray:
    """Neighbour mask from the lower empirical q-quantile of each node's
    distances to the other nodes: mask[i, j] is whether node j is in node
    i's set. Ties at the cutoff are included, so every row has at least
    max(1, ceil(q * (n - 1))) members, and never node i itself. A stack
    (..., n, n) of distance matrices gives the stack of their masks."""
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    d = np.array(dist, dtype=float)
    n = d.shape[-1]
    m = max(1, math.ceil(q * (n - 1)))
    # NaN on the diagonal sorts last in np.partition and fails <=, whatever
    # else the row holds.
    d[..., np.arange(n), np.arange(n)] = np.nan
    return d <= np.partition(d, m - 1, axis=-1)[..., m - 1, None]


def mnbs_q(n: int, omega: float, b0: float) -> float:
    """Neighborhood quantile b0 * log(n) / (sqrt(n) * omega), clamped to 1."""
    if n < 3 or omega <= 0 or not 0 < b0 < math.inf:  # NaN fails too
        raise ValueError("require n >= 3, omega > 0, finite b0 > 0")
    return min(1.0, b0 * math.log(n) / (math.sqrt(n) * omega))


def mnbs_smooth(abar: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Average rows of abar over each node's neighbours, then symmetrize.

    mask is a boolean neighbour mask of abar's shape, as from neighborhoods.
    Rows are summed in blocks, one reduction per block, members in
    ascending order, so a stack (..., n, n) gives each slice the bits of its
    own 2-D call."""
    abar = np.asarray(abar, dtype=float)
    mask = np.asarray(mask)
    n = abar.shape[-1]
    if abar.shape[-2:] != (n, n) or mask.shape != abar.shape or mask.dtype != bool:
        raise ValueError("neighbor sets must be a boolean mask of the matrix's shape")
    sizes = mask.sum(axis=-1)
    if (sizes == 0).any():
        raise ValueError(f"empty neighborhood for node {np.argmin(sizes) % n}")
    # Row i: node i's members in ascending order, padded with n: a row of
    # -0.0, as x + -0.0 == x. Slice b's rows start at b * (n + 1) in `rows`.
    stack = abar.reshape(-1, n, n)
    width = sizes.max()
    idx = np.full(sizes.shape + (width,), n)
    idx[np.arange(width) < sizes[..., None]] = np.flatnonzero(mask) % n
    idx = idx.reshape(len(stack), n, width) + np.arange(len(stack))[:, None, None] * (n + 1)
    # idx[j] holds every row's j-th member. A block of rows gathers its
    # (width, block, n) members into buf, at most _GATHER_FLOATS floats unless
    # one row needs more, and numpy reduces that outer axis by adding one
    # slice after another: each row's members in ascending order, in one call.
    idx = np.ascontiguousarray(idx.reshape(len(stack) * n, width).T)
    rows = np.concatenate([stack, np.full((len(stack), 1, n), -0.0)], axis=1).reshape(-1, n)
    raw = np.empty(stack.shape)
    flat = raw.reshape(-1, n)
    block = max(1, _GATHER_FLOATS // (width * n))
    buf = np.empty(width * min(block, len(flat)) * n)
    for lo in range(0, len(flat), block):
        members = idx[:, lo : lo + block]
        gathered = buf[: members.size * n].reshape(members.shape + (n,))
        # Every index is in range; mode "clip" lets take write straight into
        # buf, where its default mode would gather into a copy first.
        rows.take(members, axis=0, out=gathered, mode="clip")
        np.add.reduce(gathered, axis=0, out=flat[lo : lo + block])
    raw /= sizes.reshape(len(stack), n, 1)
    return ((raw + raw.swapaxes(1, 2)) / 2).reshape(abar.shape)


def smoothing_bandwidth(n: int, window: int) -> float:
    """omega = min(sqrt(n), sqrt(window * log n))."""
    return min(math.sqrt(n), math.sqrt(window * math.log(n)))


def mnbs_from_average(abar: np.ndarray, window: int, b0: float) -> np.ndarray:
    """Neighborhood-smoothing estimate given a precomputed window average,
    or a stack (..., n, n) of averages over windows of the same length."""
    n = abar.shape[-1]
    q = mnbs_q(n, smoothing_bandwidth(n, window), b0)
    return mnbs_smooth(abar, neighborhoods(_screened_distance(abar, window, q), q))


def mnbs_estimate(seq: np.ndarray, t_from: int, t_to: int, b0: float = 3.0) -> np.ndarray:
    """Full estimation chain over the 1-based window [t_from, t_to]."""
    abar = average_adjacency(seq, t_from, t_to)
    return mnbs_from_average(abar, t_to - t_from + 1, b0)


def musvt_estimate(abar: np.ndarray, window: int) -> np.ndarray:
    """Spectral estimate: keep eigencomponents of abar with |eigenvalue| >=
    (2 + 0.01) * sqrt(n / window), reconstruct and clip entries to [0, 1]."""
    if window < 1:
        raise ValueError("window must be >= 1")
    abar = np.asarray(abar, dtype=float)
    n = abar.shape[0]
    # One BLAS thread, so the bits of eigh and the product do not depend on
    # OPENBLAS_NUM_THREADS.
    with one_blas_thread:
        evals, evecs = np.linalg.eigh(abar)
        keep = np.abs(evals) >= (2 + _MUSVT_ETA) * math.sqrt(n / window)
        recon = (evecs[:, keep] * evals[keep]) @ evecs[:, keep].T
    return np.clip(recon, 0.0, 1.0)
