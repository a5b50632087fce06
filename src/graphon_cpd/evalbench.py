"""Segmentation accuracy metrics, analytic signal levels and the Monte Carlo
benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

from ._parallel import ordered_map  # unused; kept for perfbench/tracing.py, which rebinds it
from .cpd import DetectorParams, default_params, detect
from .genmodels import ScenarioSpec, scenario_sequence


@dataclass(frozen=True)
class BoysenResult:
    xi1: float          # under-segmentation: worst true point vs nearest estimate
    xi2: float | None   # over-segmentation: worst estimate vs nearest true point


@dataclass(frozen=True)
class BenchRow:
    scenario: str
    T: int
    n: int
    jhat_mean: float
    xi1_mean: float
    xi2_mean: float | None
    reps: int
    excluded: int   # replications whose xi2 was undefined
    seed: int

    def csv_line(self) -> str:
        xi2 = "-" if self.xi2_mean is None else repr(self.xi2_mean)
        return (
            f"{self.scenario},{self.T},{self.n},{self.jhat_mean!r},"
            f"{self.xi1_mean!r},{xi2},{self.reps},{self.excluded}"
        )


BENCH_CSV_HEADER = "scenario,T,n,Jhat,xi1,xi2,reps,excluded"


def boysen(est: list[int], truth: list[int], T: int) -> BoysenResult:
    """Boysen distances between an estimated and a true change-point set.

    Empty-set conventions: with true points but no estimates, xi1 is the
    largest true point and xi2 is undefined; with estimates but no true
    points, xi2 measures each estimate against the sequence boundaries
    {0, T}; two empty sets give (0, 0).
    """
    for point in list(est) + list(truth):
        if not 1 <= point <= T:
            raise ValueError(f"change-point {point} outside [1, {T}]")
    if truth and not est:
        return BoysenResult(xi1=float(max(truth)), xi2=None)
    if not truth:
        if not est:
            return BoysenResult(xi1=0.0, xi2=0.0)
        xi2 = max(min(a, T - a) for a in est)
        return BoysenResult(xi1=0.0, xi2=float(xi2))
    xi1 = max(min(abs(a - b) for a in est) for b in truth)
    xi2 = max(min(abs(a - b) for b in truth) for a in est)
    return BoysenResult(xi1=float(xi1), xi2=float(xi2))


def signal_level(scenario: str, n: int, T: int) -> list[tuple[float, float]]:
    """Analytic (d_2inf^2, d_F^2) separation of consecutive segment matrices,
    one pair per change-point."""
    if n < 1 or T < 1:
        raise ValueError("n and T must be positive")
    sid = scenario.upper()
    base = T ** 0.25 * n ** (1 / 3)
    merge = (1 / (3 * base), 2 / (9 * base))
    switch_one = (1 / (n ** (1 / 3) * T ** 0.25), 2 / (n ** (4 / 3) * T ** 0.25))
    switch_block = (0.09, 8 * 0.09 / (3 * base))
    if sid == "DSBM-I" or sid == "DSBM-II":
        return [merge]
    if sid == "DSBM-III":
        return [switch_one]
    if sid == "DSBM-IV":
        return [switch_block]
    if sid == "DSBM-V":
        return [(1 / (T ** 0.25 * n ** 0.25), 1 / (T ** 0.25 * n ** 0.5))]
    if sid == "DSBM-VI":
        value = 1 / (2 * base)
        return [(value, value)]
    if sid == "MDSBM-I":
        return [switch_block, merge, merge]
    if sid == "MDSBM-II":
        return [switch_block, merge, merge, merge]
    raise ValueError(f"no analytic signal level for {scenario!r}")


def monte_carlo(
    spec: ScenarioSpec, reps: int, params: DetectorParams | None = None
) -> BenchRow:
    """Replicate scenario -> detector -> Boysen metrics; replication r uses
    seed + r. Means over the stated replication count, with undefined xi2
    values excluded and counted."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    params = params or default_params(spec.T, spec.n)

    def one_rep(r: int) -> tuple[int, float, float | None]:
        rep_spec = ScenarioSpec(id=spec.id, n=spec.n, T=spec.T, seed=spec.seed + r)
        seq, truth = scenario_sequence(rep_spec)
        report = detect(seq, params)
        res = boysen(report.changepoints, truth.changepoints, spec.T)
        return len(report.changepoints), res.xi1, res.xi2

    results = [one_rep(r) for r in range(reps)]
    jhats = [r[0] for r in results]
    xi1s = [r[1] for r in results]
    xi2s = [r[2] for r in results if r[2] is not None]
    excluded = reps - len(xi2s)
    return BenchRow(
        scenario=spec.id,
        T=spec.T,
        n=spec.n,
        jhat_mean=sum(jhats) / reps,
        xi1_mean=sum(xi1s) / reps,
        xi2_mean=(sum(xi2s) / len(xi2s)) if xi2s else None,
        reps=reps,
        excluded=excluded,
        seed=spec.seed,
    )
