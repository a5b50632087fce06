"""Screening-and-thresholding multiple change-point detector.

The scan statistic at time t compares the smoothed link-probability estimates
from the h snapshots before t and the h snapshots after t with the squared
normalized 2,inf distance. Change-points are the h-local maximizers of the
scan whose value exceeds the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import ordered_map
from .estim import mnbs_from_average
from .netcore import as_adjacency_sequence, average_adjacency, dist_2inf

# A scan chain estimates its windows B at a time, B·n² <= 2**15 floats per
# stack (B = 8 up to n = 64, 3 at n = 100, 1 from n = 129). Stacks this long
# make the count screen pay on two threads at n = 60 and 100, where one
# window per call left its short numpy calls contending for the GIL; 2**16
# ran little faster and raised peak RSS more. The cap of 8 keeps a short
# chain's scan memory that of a long one.
_BATCH_FLOATS = 2**15
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
    """Detection threshold D0 * (log n)^(1/2 + delta0) / sqrt(n * h), n >= 3."""
    try:  # the power raises past the largest float; the product gives inf
        thr = params.d0 * math.log(n) ** (0.5 + params.delta0) / math.sqrt(n * params.h)
    except OverflowError:
        thr = math.inf
    if not math.isfinite(thr):
        raise ValueError(f"threshold D0 (log n)^(1/2 + delta0) / sqrt(n h) overflows at n={n}")
    return thr


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
    # windows[p] is values[p - h + 1 : p + h], -inf outside the scan range: a
    # strided view, made as estim._distances makes its shifted rows.
    padded = np.concatenate([np.full(h - 1, -np.inf), values, np.full(h - 1, -np.inf)])
    (step,) = padded.strides
    windows = np.ndarray((len(values), 2 * h - 1), padded.dtype, padded, 0, (step, step))
    qualifying = profile.ts[values >= windows.max(axis=1)].tolist()
    # Any two qualifiers closer than h necessarily tie, so keeping the first
    # of each run enforces pairwise spacing >= h.
    kept: list[int] = []
    for t in qualifying:
        if not kept or t - kept[-1] >= h:
            kept.append(t)
    return kept


def detect(seq: np.ndarray, params: DetectorParams) -> ChangePointReport:
    """Run the scan, keep local maximizers strictly above the threshold."""
    seq = np.asarray(seq)
    # An overflowing threshold fails before the scan; scan_profile rejects n < 3.
    n = seq.shape[1] if seq.ndim == 3 else 0
    thr = threshold_value(n, params) if n >= 3 else None
    profile = scan_profile(seq, params)
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
