"""Synthetic dynamic-network generators.

Block models SBM-I..SBM-XI, graphons Graphon-I..III, and the dynamic
scenarios DSBM-I..VI, MDSBM-I/II and the NOCHANGE-* suites, each with exact
ground-truth change-points.

Randomness uses the Philox counter-based generator with one substream per
snapshot, keyed by (seed, t); t = 0 is reserved for per-sequence draws such
as graphon latent positions. Sampling is therefore reproducible bit-for-bit
and parallelizes over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _cut(n: int, *bounds: int) -> np.ndarray:
    """0-based block labels of the 1-based nodes 1..n: node i is in the block
    after the last bound below i. Each model's floor arithmetic sets the bounds."""
    return np.searchsorted(bounds, np.arange(1, n + 1))


def _thirds(n: int, d: float) -> np.ndarray:
    return _cut(n, n // 3, 2 * (n // 3))


def _two_thirds(n: int, d: float) -> np.ndarray:
    return _cut(n, 2 * (n // 3))


def _three_quarter_power(n: int, d: float) -> np.ndarray:
    return _cut(n, math.floor(n ** (3 / 4)))


def _two(a: float, b: float) -> list[list[float]]:
    return [[a, b], [b, 0.6]]


def _three(a: float, b: float) -> list[list[float]]:
    return [[a, b, 0.3], [b, a, 0.3], [0.3, 0.3, 0.6]]


# Block model id -> (block label per node as a function of (n, delta), block
# connectivity Lambda as a function of delta).
_SBMS = {
    "SBM-I": (_two_thirds, lambda d: _two(0.6, 0.3)),
    "SBM-II": (
        lambda n, d: _cut(n, 2 * math.floor(n * (1 - d) / 3)), lambda d: _two(0.6, 0.3)
    ),
    "SBM-III": (_thirds, lambda d: _three(0.6, 0.6 - d)),
    "SBM-IV": (_thirds, lambda d: _three(0.6 + d, 0.6)),
    "SBM-V": (_thirds, lambda d: _three(0.6 + d, 0.6 - d)),
    "SBM-VI": (_two_thirds, lambda d: _two(0.6, 0.6 - d)),
    "SBM-VII": (lambda n, d: _cut(n, 2 * (n // 3) - 1), lambda d: _two(0.6, 0.6 - d)),
    "SBM-VIII": (_three_quarter_power, lambda d: _two(0.6, 0.3)),
    "SBM-IX": (_three_quarter_power, lambda d: _two(0.6 - d, 0.3)),
    "SBM-X": (lambda n, d: _cut(n, n // 2), lambda d: _two(0.6, 0.6 - d)),
    "SBM-XI": (lambda n, d: np.arange(n) % 2, lambda d: _two(0.6, 0.6 - d)),
}
SBM_IDS = tuple(_SBMS)


def _graphon_i(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # KB = floor(log n) half-open diagonal blocks [(k-1)/KB, k/KB); the last
    # block is closed at 1.
    kb = max(1, math.floor(math.log(len(u))))
    bu = np.minimum(np.floor(u * kb).astype(int), kb - 1)
    bv = np.minimum(np.floor(v * kb).astype(int), kb - 1)
    return np.where(bu == bv, (bu + 1) / (kb + 1), 0.3 / (kb + 1))


def _graphon_iii(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    r = u**2 + v**2
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = r / 3 * np.cos(1.0 / r) + 0.15
    return np.where(r == 0, 0.15, vals)  # continuous limit at the origin


# Graphon id -> f(u, v) on a column and a row of latent positions.
_GRAPHONS = {
    "GRAPHON-I": _graphon_i,
    "GRAPHON-II": lambda u, v: np.sin(5 * np.pi * (u + v - 1) + 1) / 2 + 0.5,
    "GRAPHON-III": _graphon_iii,
}
GRAPHON_IDS = tuple(_GRAPHONS)

# Delta_nT formulas, keyed by an internal tag.
_DELTA_FORMULAS = {
    "std": lambda n, T: 1.0 / (n ** (1 / 6) * T ** (1 / 8)),
    "switch": lambda n, T: 2.0 / (n ** (1 / 3) * T ** (1 / 4)),
    "t-only": lambda n, T: 1.0 / T ** (1 / 8),
}

# Scenario id -> its equal-length segments: (model id, delta tag, or None for
# a delta-free segment).
_SCENARIOS = {
    "DSBM-I": [("SBM-III", "std"), ("SBM-I", None)],
    "DSBM-II": [("SBM-III", "std"), ("SBM-V", "std")],
    "DSBM-III": [("SBM-VI", "std"), ("SBM-VII", "std")],
    "DSBM-IV": [("SBM-I", None), ("SBM-II", "switch")],
    "DSBM-V": [("SBM-VIII", None), ("SBM-IX", "t-only")],
    "DSBM-VI": [("SBM-X", "std"), ("SBM-XI", "std")],
    "MDSBM-I": [
        ("SBM-II", "switch"), ("SBM-I", None), ("SBM-III", "std"), ("SBM-V", "std")
    ],
    "MDSBM-II": [
        ("SBM-II", "switch"), ("SBM-I", None), ("SBM-III", "std"),
        ("SBM-I", None), ("SBM-IV", "std"),
    ],
    **{f"NOCHANGE-{m}": [(m, "std")] for m in SBM_IDS},
    **{f"NOCHANGE-{g}": [(g, None)] for g in GRAPHON_IDS},
}
DSBM_IDS = tuple(s for s in _SCENARIOS if s.startswith("DSBM-"))


def _segments(scenario: str) -> list[tuple[str, str | None]]:
    try:
        return _SCENARIOS[scenario.upper()]
    except KeyError:
        raise ValueError(f"unknown scenario id {scenario!r}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    n: int
    T: int
    seed: int

    def __post_init__(self):
        if self.n < 6 or self.T < 1:
            raise ValueError("require n >= 6 and T >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        k = len(_segments(self.id))
        # The canonical id, so outputs name a scenario the same whatever its case.
        object.__setattr__(self, "id", self.id.upper())
        if self.T % k != 0:
            raise ValueError(f"{self.id} needs T divisible by {k}, got T={self.T}")


@dataclass(frozen=True)
class GroundTruth:
    changepoints: list[int]
    segment_matrices: list[np.ndarray]


def delta_nT(scenario: str, n: int, T: int, segment: int = 1) -> float:
    """Delta_nT that the given scenario segment (1-based) is built with; 0 for
    a delta-free segment."""
    if n < 1 or T < 1:
        raise ValueError("n and T must be positive")
    segments = _segments(scenario)
    if not 1 <= segment <= len(segments):
        raise ValueError(
            f"{scenario.upper()} has {len(segments)} segments, got {segment}"
        )
    tag = segments[segment - 1][1]
    return 0.0 if tag is None else _DELTA_FORMULAS[tag](n, T)


def sbm_matrix(sbm_id: str, n: int, delta: float = 0.0) -> np.ndarray:
    """Link-probability matrix P[i, j] = Lambda[M(i), M(j)]."""
    sbm_id = sbm_id.upper()
    if sbm_id not in _SBMS:
        raise ValueError(f"unknown SBM id {sbm_id!r}")
    if n < 1:
        raise ValueError("n must be positive")
    labels, block = _SBMS[sbm_id]
    lam = np.array(block(delta))
    if ((lam < 0) | (lam > 1)).any():
        raise ValueError(
            f"{sbm_id}: block connectivity leaves [0, 1] at delta={delta}"
        )
    m = labels(n, delta)
    return lam[np.ix_(m, m)]


def graphon_matrix(graphon_id: str, xi: np.ndarray) -> np.ndarray:
    """Evaluate a graphon on latent positions: P[i, j] = f(xi_i, xi_j)."""
    xi = np.asarray(xi, dtype=float)
    if ((xi < 0) | (xi > 1)).any():
        raise ValueError("latent positions must lie in [0, 1]")
    f = _GRAPHONS.get(graphon_id.upper())
    if f is None:
        raise ValueError(f"unknown graphon id {graphon_id!r}")
    return f(xi[:, None], xi[None, :])


def snapshot_rng(seed: int, t: int) -> np.random.Generator:
    """Counter-based substream for snapshot t of a sequence with this seed.

    The key is built as uint64: from a Python list numpy makes a float64
    array once seed >= 2^63, which merges nearby seeds."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))


def _triangle(n: int) -> np.ndarray:
    """Boolean mask of the upper triangle of an n x n matrix, diagonal
    included; numpy visits its entries row by row."""
    return np.triu(np.ones((n, n), dtype=bool))


def _draw(out: np.ndarray, probs: np.ndarray, rng: np.random.Generator,
          upper: np.ndarray) -> None:
    """Write one snapshot into the zeros `out`: one draw per upper-triangle
    entry, row by row, and a 1 where it is below probs, mirrored through
    the transposed view."""
    bits = rng.random(len(probs)) < probs
    out[upper] = bits
    out.T[upper] = bits


def sample_snapshot(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one symmetric binary snapshot: upper triangle (diagonal included)
    is Bernoulli(P[i, j]) independently, then mirrored."""
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"p must be a square matrix, got shape {p.shape}")
    upper = _triangle(len(p))
    a = np.zeros(p.shape, dtype=np.int8)
    _draw(a, p[upper], rng, upper)
    return a


def segment_matrices(scenario: str, n: int, T: int) -> list[np.ndarray]:
    """Per-segment link-probability matrices for a scenario at size (n, T).
    Empty for a graphon scenario: its matrix depends on the latent positions
    that `scenario_sequence` draws from the seed."""
    return [
        sbm_matrix(model, n, delta_nT(scenario, n, T, segment))
        for segment, (model, _) in enumerate(_segments(scenario), start=1)
        if model in _SBMS
    ]


def scenario_sequence(spec: ScenarioSpec) -> tuple[np.ndarray, GroundTruth]:
    """Sample the full adjacency sequence of a scenario with its ground truth:
    equal-length segments with a change-point after each but the last."""
    n, T = spec.n, spec.T
    model = _segments(spec.id)[0][0]
    if model in _GRAPHONS:  # one segment, on latent positions from substream 0
        mats = [graphon_matrix(model, snapshot_rng(spec.seed, 0).random(n))]
    else:
        mats = segment_matrices(spec.id, n, T)
    length = T // len(mats)
    # The triangle once per sequence and each segment's probabilities once:
    # a snapshot is then only its draws, written in place.
    upper = _triangle(n)
    snapshots = np.zeros((T, n, n), dtype=np.int8)
    for segment, p in enumerate(mats):
        probs = p[upper]
        for t in range(segment * length + 1, (segment + 1) * length + 1):
            _draw(snapshots[t - 1], probs, snapshot_rng(spec.seed, t), upper)
    cps = [length * j for j in range(1, len(mats))]
    return snapshots, GroundTruth(changepoints=cps, segment_matrices=mats)
