"""Independent checks of the detector's outputs, valid for any seed.

The scan value at a few points is recomputed from the raw snapshots with a
plain-loop MNBS estimate written from the definitions, and the report's
threshold, local maximizers and change-points are re-derived from its own
scan. Output digests (see ``digests.json``) are the exact gate; these checks
cover seeds that have no recorded digest.
"""

from __future__ import annotations

import math

import numpy as np

SCAN_RTOL = 1e-9


def window_estimate(seq: np.ndarray, start: int, h: int, b0: float) -> np.ndarray:
    """MNBS estimate over snapshots start + 1, ..., start + h (1-based)."""
    abar = seq[start:start + h].sum(axis=0, dtype=float) / h
    n = abar.shape[0]
    g = abar @ abar / n
    idx = np.arange(n)
    dist = np.empty((n, n))
    for i in range(n):
        diff = np.abs(g[i] - g)  # diff[j, k] = |G[i, k] - G[j, k]|
        diff[:, i] = -np.inf
        diff[idx, idx] = -np.inf
        dist[i] = diff.max(axis=1)
        dist[i, i] = 0.0
    omega = min(math.sqrt(n), math.sqrt(h * math.log(n)))
    q = min(1.0, b0 * math.log(n) / (math.sqrt(n) * omega))
    m = max(1, math.ceil(q * (n - 1)))
    raw = np.empty((n, n))
    for i in range(n):
        others = idx[idx != i]
        d = dist[i, others]
        members = others[d <= np.sort(d)[m - 1]]
        raw[i] = abar[members].sum(axis=0) / len(members)
    return (raw + raw.T) / 2


def scan_value(seq: np.ndarray, t: int, h: int, b0: float) -> float:
    """D(t, h): squared 2,inf distance between the windows before and after t."""
    before = window_estimate(seq, t - h, h, b0)
    after = window_estimate(seq, t, h, b0)
    n = seq.shape[1]
    return float(np.sqrt(np.square(before - after).sum(axis=1)).max() / math.sqrt(n)) ** 2


def check_report(report: dict, seq: np.ndarray, params, spot_ts: list[int]) -> list[str]:
    """Problems found in one parsed report JSON; empty when it checks out."""
    T, n = seq.shape[0], seq.shape[1]
    h = params.h
    problems = []
    if (report["n"], report["T"], report["h"]) != (n, T, h):
        problems.append(f"sizes {report['n'], report['T'], report['h']} != {n, T, h}")
        return problems
    ts = [t for t, _ in report["scan"]]
    values = [v for _, v in report["scan"]]
    if ts != list(range(h, T - h + 1)):
        problems.append("scan range is not h..T-h")
        return problems
    if not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("scan has a negative or non-finite value")
    thr = params.d0 * math.log(n) ** (0.5 + params.delta0) / math.sqrt(n * h)
    if not math.isclose(report["threshold"], thr, rel_tol=1e-12):
        problems.append(f"threshold {report['threshold']} != {thr}")

    qualifying = [
        ts[pos] for pos, v in enumerate(values)
        if v >= max(values[max(0, pos - h + 1):pos + h])
    ]
    local_max: list[int] = []
    for t in qualifying:
        if not local_max or t - local_max[-1] >= h:
            local_max.append(t)
    if report["local_max"] != local_max:
        problems.append("local maximizers differ from the scan's")
    cps = [[t, values[t - h]] for t in local_max if values[t - h] > report["threshold"]]
    if report["changepoints"] != cps:
        problems.append("change-points differ from the thresholded maximizers")

    for t in spot_ts:
        expected = scan_value(seq, t, h, params.b0)
        got = values[t - h]
        if not math.isclose(got, expected, rel_tol=SCAN_RTOL, abs_tol=1e-15):
            problems.append(f"D({t}) = {got!r}, reference {expected!r}")
    return problems


def spot_points(report: dict, rng: np.random.Generator) -> list[int]:
    """The scan's argmax and one seeded point elsewhere in the range."""
    ts = [t for t, _ in report["scan"]]
    values = [v for _, v in report["scan"]]
    return sorted({ts[int(np.argmax(values))], int(rng.choice(ts))})


def check_bench_row(line: str, scenario: str, n: int, T: int, reps: int) -> list[str]:
    """Problems found in one BenchRow CSV line."""
    fields = line.split(",")
    if len(fields) != 8:
        return [f"expected 8 fields, got {len(fields)}"]
    sid, t_, n_, jhat, xi1, xi2, reps_, excluded = fields
    problems = []
    if (sid, int(t_), int(n_), int(reps_)) != (scenario, T, n, reps):
        problems.append(f"row header {fields[:3] + fields[6:7]} does not match the run")
    if not 0 <= int(excluded) <= reps:
        problems.append(f"excluded {excluded} outside [0, {reps}]")
    if not 0 <= float(jhat) <= T:
        problems.append(f"Jhat {jhat} outside [0, {T}]")
    if not 0 <= float(xi1) <= T:
        problems.append(f"xi1 {xi1} outside [0, {T}]")
    if (xi2 == "-") != (int(excluded) == reps):
        problems.append("xi2 must be '-' exactly when every replication was excluded")
    return problems
