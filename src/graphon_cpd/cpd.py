"""Screening-and-thresholding multiple change-point detector.

The scan statistic at time t compares the smoothed link-probability estimates
from the h snapshots before t and the h snapshots after t with the squared
normalized 2,inf distance. Change-points are the h-local maximizers of the
scan whose value exceeds the threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._parallel import ordered_map
from .estim import mnbs_from_average
from .netcore import as_adjacency_sequence, average_adjacency, dist_2inf

# A scan chain estimates its windows B at a time, B·n² <= 2**14 floats per
# stack (B = 1 from n = 91): a larger budget raised peak RSS at n = 100. The
# cap of 8 keeps a short chain's scan memory that of a long one.
_BATCH_FLOATS = 2**14
_MAX_BATCH = 8


@dataclass(frozen=True)
class DetectorParams:
    h: int
    b0: float = 3.0
    d0: float = 0.25
    delta0: float = 0.1

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("h must be a positive integer")
        if not all(0 < v < math.inf for v in (self.b0, self.d0, self.delta0)):  # and not NaN
            raise ValueError("b0, d0 and delta0 must be finite and strictly positive")


@dataclass(frozen=True)
class ScanProfile:
    T: int
    h: int
    ts: np.ndarray       # the valid scan range h, ..., T - h
    values: np.ndarray   # D(t, h) per t, all >= 0

    def value_at(self, t: int) -> float:
        if not self.h <= t <= self.T - self.h:
            raise IndexError(
                f"t={t} outside the scan range [{self.h}, {self.T - self.h}]"
            )
        return float(self.values[t - self.h])


@dataclass(frozen=True)
class ChangePointReport:
    n: int
    T: int
    params: DetectorParams
    threshold: float
    local_max: list[int]
    changepoints: list[int]
    changepoint_values: list[float]
    scan: ScanProfile = field(repr=False)


def default_params(T: int, n: int) -> DetectorParams:
    """Recommended defaults: h = floor(sqrt(T)), B0 = 3, D0 = 0.25, delta0 = 0.1."""
    if T < 4 or n < 3:
        raise ValueError("require T >= 4 and n >= 3")
    return DetectorParams(h=math.isqrt(T))


def threshold_value(n: int, params: DetectorParams) -> float:
    """Detection threshold D0 * (log n)^(1/2 + delta0) / sqrt(n * h)."""
    if n < 3:
        raise ValueError("require n >= 3")
    return params.d0 * math.log(n) ** (0.5 + params.delta0) / math.sqrt(n * params.h)


def scan_profile(seq: np.ndarray, params: DetectorParams) -> ScanProfile:
    """Scan statistic D(t, h) for t = h, ..., T - h.

    D(t, h) compares only the windows that start at t - h and at t, so the
    scan splits into h chains of windows first, first + h, ... (first < h),
    one task each. A chain estimates its windows as stacks of B (see
    _BATCH_FLOATS), a few long numpy calls per stack, and keeps only the
    last estimate of the stack before; a worker holds at most two stacks of
    estimates at a time, whatever T and h.
    """
    seq = as_adjacency_sequence(seq)
    T, n = seq.shape[0], seq.shape[1]
    h = params.h
    if 2 * h > T:
        raise ValueError(f"need 2h <= T, got h={h}, T={T}")
    if n < 3:
        raise ValueError("require n >= 3")
    batch = max(1, min(_MAX_BATCH, _BATCH_FLOATS // (n * n)))

    def scan_chain(first: int) -> list[float]:
        starts = range(first, T - h + 1, h)
        values = []
        before = None
        for lo in range(0, len(starts), batch):
            abars = np.stack([average_adjacency(seq, s + 1, s + h) for s in starts[lo : lo + batch]])
            for after in mnbs_from_average(abars, h, params.b0):
                if before is not None:
                    # A Python float squared: numpy's square differs in the last bit.
                    values.append(dist_2inf(before, after) ** 2)
                before = after
        return values

    values = np.empty(T - 2 * h + 1)
    for first, chain in enumerate(ordered_map(scan_chain, range(h))):
        values[first::h] = chain
    return ScanProfile(T=T, h=h, ts=np.arange(h, T - h + 1), values=values)


def local_maximizers(profile: ScanProfile) -> list[int]:
    """Points whose scan value dominates every point within distance h - 1,
    comparisons restricted to the valid scan range. Runs of equal-valued
    qualifiers closer than h apart are reduced to their smallest t."""
    h = profile.h
    values = profile.values
    m = len(values)
    qualifying = []
    for pos in range(m):
        lo = max(0, pos - h + 1)
        hi = min(m, pos + h)
        if values[pos] >= values[lo:hi].max():
            qualifying.append(int(profile.ts[pos]))
    # Any two qualifiers closer than h necessarily tie, so keeping the first
    # of each run enforces pairwise spacing >= h.
    kept: list[int] = []
    for t in qualifying:
        if not kept or t - kept[-1] >= h:
            kept.append(t)
    return kept


def detect(
    seq: np.ndarray,
    params: DetectorParams,
    min_segment: int | None = None,
) -> ChangePointReport:
    """Run the scan, keep local maximizers strictly above the threshold.

    If a lower bound on the true minimum segment length is supplied via
    min_segment, warn when h is too large for the coverage guarantee.
    """
    if min_segment is not None and not params.h < min_segment / 2:
        warnings.warn(
            f"h={params.h} is not below min_segment/2={min_segment / 2}; "
            "coverage of all change-points is not guaranteed",
            stacklevel=2,
        )
    seq = np.asarray(seq)
    profile = scan_profile(seq, params)
    n = seq.shape[1]
    thr = threshold_value(n, params)
    maxima = local_maximizers(profile)
    cps = [t for t in maxima if profile.value_at(t) > thr]
    return ChangePointReport(
        n=n,
        T=profile.T,
        params=params,
        threshold=thr,
        local_max=maxima,
        changepoints=cps,
        changepoint_values=[profile.value_at(t) for t in cps],
        scan=profile,
    )
