"""Plain-loop oracles shared by the test modules: each computes what one
stage of the package computes, the slow and obvious way."""

import math

import numpy as np

from graphon_cpd._parallel import one_blas_thread
from graphon_cpd.estim import mnbs_q, mnbs_smooth, neighborhoods, pairwise_distance, smoothing_bandwidth
from graphon_cpd.netcore import average_adjacency, dist_2inf


def brute_kernel(g):
    """The distance kernel's formula on G itself, in G's dtype:
    D[i, i'] = max_{k != i, i'} |G[i, k] - G[i', k]|, with a zero diagonal.
    pairwise_distance(abar) is this on G = abar @ abar / n."""
    n = len(g)
    d = np.zeros((n, n), g.dtype)
    for i in range(n):
        for ip in range(n):
            if ip != i:
                d[i, ip] = max(abs(g[i, k] - g[ip, k]) for k in range(n) if k not in (i, ip))
    return d


def per_row_distance(abar):
    """One numpy pass per row of G, as in perfbench's reference estimate."""
    n = abar.shape[0]
    with one_blas_thread:
        g = abar @ abar / n
    idx = np.arange(n)
    dist = np.empty((n, n))
    for i in range(n):
        diff = np.abs(g[i] - g)  # diff[j, k] = |G[i, k] - G[j, k]|
        diff[:, i] = -np.inf
        diff[idx, idx] = -np.inf
        dist[i] = diff.max(axis=1)
        dist[i, i] = 0.0
    return dist


def loop_neighborhoods(dist, q):
    """Per-node loop over the quantile rule."""
    n = dist.shape[0]
    m = max(1, math.ceil(q * (n - 1)))
    nbhd = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        d = dist[i, others]
        cutoff = np.partition(d, m - 1)[m - 1]
        nbhd.append(others[d <= cutoff])
    return nbhd


def sequential_smooth(abar, nbhd):
    """Row sums adding the sorted member rows one at a time."""
    n = abar.shape[0]
    raw = np.empty((n, n))
    for i, members in enumerate(nbhd):
        members = np.sort(members)
        acc = abar[members[0]].copy()
        for j in members[1:]:
            acc += abar[j]
        raw[i] = acc / len(members)
    return (raw + raw.T) / 2


def window_scan(seq, params):
    """The scan as one fresh average per window, every estimate kept, each
    from float64 distances: no count screen and no stacks of windows."""
    T, h, n = len(seq), params.h, seq.shape[1]
    q = mnbs_q(n, smoothing_bandwidth(n, h), params.b0)
    estimates = []
    for s in range(T - h + 1):
        abar = average_adjacency(seq, s + 1, s + h)
        estimates.append(mnbs_smooth(abar, neighborhoods(pairwise_distance(abar), q)))
    return np.array([dist_2inf(estimates[t - h], estimates[t]) ** 2 for t in range(h, T - h + 1)])


def brute_local_maximizers(profile):
    """Every point compared with every scan point closer than h, then the
    first of each run of qualifiers closer than h kept."""
    ts, vals = list(profile.ts), list(profile.values)
    h = profile.h
    qualifiers = [
        t
        for t, v in zip(ts, vals)
        if all(v >= w for s, w in zip(ts, vals) if abs(s - t) < h)
    ]
    kept = []
    for t in qualifiers:
        if not kept or t - kept[-1] >= h:
            kept.append(t)
    return kept
