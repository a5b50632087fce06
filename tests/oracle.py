"""Brute-force oracle shared by the test modules."""

import numpy as np


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
