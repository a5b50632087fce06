"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
as it completes, bypassing output capture. The suite exercises the
detector on the synthetic scenario families at moderate scale, the estimator
convergence direction, analytic signal levels, brute-force oracle agreement,
and byte-level reproducibility of the bench command across thread counts.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from graphon_cpd.cpd import ScanProfile, local_maximizers
from graphon_cpd.estim import (
    mnbs_estimate,
    mnbs_smooth,
    musvt_estimate,
    neighborhoods,
    pairwise_distance,
)
from graphon_cpd.evalbench import boysen, monte_carlo, signal_level
from graphon_cpd.genmodels import (
    DSBM_IDS,
    ScenarioSpec,
    sample_snapshot,
    sbm_matrix,
    segment_matrices,
    snapshot_rng,
)
from graphon_cpd.netcore import average_adjacency, dist_2inf, dist_frob

from oracle import brute_kernel, brute_local_maximizers, sequential_smooth

SEED = 20260823


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, printed through pytest's capture so
    it is visible in normal runs, not only with -s."""

    def _report(num, ok, detail):
        line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def sbm_sequence(p, seed, T):
    return np.stack(
        [sample_snapshot(p, snapshot_rng(seed, t)) for t in range(1, T + 1)]
    )


def test_criterion_1_single_change_recovery(report):
    row = monte_carlo(ScenarioSpec(id="DSBM-I", n=100, T=100, seed=SEED), 20)
    ok = 0.95 <= row.jhat_mean <= 1.05 and row.xi1_mean <= 1.0
    report(1, ok, f"DSBM-I Jhat={row.jhat_mean:.2f}, xi1={row.xi1_mean:.2f}")


def test_criterion_2_harder_single_change(report):
    rows = [
        monte_carlo(ScenarioSpec(id=sid, n=100, T=100, seed=SEED), 20)
        for sid in ("DSBM-II", "DSBM-IV")
    ]
    ok = all(0.95 <= r.jhat_mean <= 1.05 and r.xi1_mean <= 0.6 for r in rows)
    detail = ", ".join(
        f"{r.scenario} Jhat={r.jhat_mean:.2f} xi1={r.xi1_mean:.2f}" for r in rows
    )
    report(2, ok, detail)


def test_criterion_3_multiple_changes(report):
    row = monte_carlo(ScenarioSpec(id="MDSBM-I", n=100, T=100, seed=SEED), 20)
    ok = 2.8 <= row.jhat_mean <= 3.2 and row.xi1_mean <= 1.5
    report(3, ok, f"MDSBM-I Jhat={row.jhat_mean:.2f}, xi1={row.xi1_mean:.2f}")


def test_criterion_4_false_positive_control(report):
    suites = (
        "NOCHANGE-SBM-III", "NOCHANGE-SBM-VIII",
        "NOCHANGE-GRAPHON-I", "NOCHANGE-GRAPHON-II", "NOCHANGE-GRAPHON-III",
    )
    rows = [
        monte_carlo(ScenarioSpec(id=sid, n=100, T=100, seed=SEED), 20)
        for sid in suites
    ]
    ok = all(r.jhat_mean <= 0.1 for r in rows)
    detail = ", ".join(f"{r.scenario}={r.jhat_mean:.2f}" for r in rows)
    report(4, ok, detail)


def test_criterion_5_rate_direction(report):
    n, windows = 100, (5, 20, 80)
    p = sbm_matrix("SBM-I", n)
    errors = {w: [] for w in windows}
    wins = 0
    for seed in range(20):
        seq = sbm_sequence(p, SEED + seed, max(windows))
        for w in windows:
            errors[w].append(dist_2inf(mnbs_estimate(seq, 1, w), p) ** 2)
        raw = dist_2inf(average_adjacency(seq, 1, 20), p) ** 2
        if errors[20][-1] < raw:
            wins += 1
    med = {w: float(np.median(errors[w])) for w in windows}
    ok = med[5] > med[20] > med[80] and wins >= 16
    detail = (
        f"median err {med[5]:.5f} > {med[20]:.5f} > {med[80]:.5f}, "
        f"beats raw average {wins}/20"
    )
    report(5, ok, detail)


def test_criterion_6_mnbs_vs_musvt(report):
    n, T = 200, 20
    p = sbm_matrix("SBM-I", n)
    mnbs_errs, musvt_errs = [], []
    for seed in range(20):
        seq = sbm_sequence(p, SEED + seed, T)
        abar = average_adjacency(seq, 1, T)
        mnbs_errs.append(dist_frob(mnbs_estimate(seq, 1, T), p))
        musvt_errs.append(dist_frob(musvt_estimate(abar, T), p))
    a, b = float(np.mean(mnbs_errs)), float(np.mean(musvt_errs))
    report(6, a <= b, f"MNBS frob {a:.6f} vs MUSVT frob {b:.6f}")


def test_criterion_7_analytic_signal_levels(report):
    failures = []
    for sid, (n, T) in itertools.product(DSBM_IDS, [(99, 16), (300, 81)]):
        tol = 10 / n
        try:
            mats = segment_matrices(sid, n, T)
        except ValueError as exc:
            failures.append(f"{sid}@({n},{T}): {exc}")
            continue
        for (p1, p2), (d2, df) in zip(
            zip(mats, mats[1:]), signal_level(sid, n, T)
        ):
            got_d2 = dist_2inf(p1, p2) ** 2
            got_df = dist_frob(p1, p2) ** 2
            for got, want, tag in ((got_d2, d2, "d2inf"), (got_df, df, "frob")):
                rel = abs(got - want) / want
                if rel > tol:
                    failures.append(
                        f"{sid}@({n},{T}) {tag}: got {got:.6g}, "
                        f"expected {want:.6g}, rel err {rel:.4f} > {tol:.4f}"
                    )
    detail = "all DSBM levels within 10/n" if not failures else "; ".join(failures)
    report(7, not failures, detail)


def brute_boysen(est, truth, T):
    def hausdorff_half(a, b):
        return max(min(abs(x - y) for y in b) for x in a)

    if not truth and not est:
        return 0.0, 0.0
    if not est:
        return float(max(truth)), None
    if not truth:
        return 0.0, float(hausdorff_half(est, [0, T]))
    return float(hausdorff_half(truth, est)), float(hausdorff_half(est, truth))


def test_criterion_8_oracle_equivalence(report):
    rng = np.random.default_rng(SEED)
    mismatches = []
    for rep in range(200):
        n = int(rng.integers(3, 7))
        T = int(rng.integers(1, 5))
        seq = (rng.random((T, n, n)) < 0.5).astype(np.int8)
        seq = np.triu(seq) | np.triu(seq).transpose(0, 2, 1)
        abar = average_adjacency(seq, 1, T)

        d = pairwise_distance(abar)
        if not np.array_equal(d, brute_kernel(abar @ abar / n)):
            mismatches.append(f"pairwise rep {rep}")
        nbhd = neighborhoods(d, float(rng.uniform(0.1, 1.0)))
        members = [np.flatnonzero(row) for row in nbhd]
        if not np.array_equal(mnbs_smooth(abar, nbhd), sequential_smooth(abar, members)):
            mismatches.append(f"smooth rep {rep}")

        h = int(rng.integers(1, 4))
        span = int(rng.integers(2 * h, 2 * h + 10))
        vals = rng.integers(0, 4, span - 2 * h + 1).astype(float)
        profile = ScanProfile(
            T=span, h=h, ts=np.arange(h, span - h + 1), values=vals
        )
        if local_maximizers(profile) != brute_local_maximizers(profile):
            mismatches.append(f"maximizers rep {rep}")

        horizon = 4
        est = sorted(
            rng.choice(np.arange(1, horizon + 1), int(rng.integers(0, 4)),
                       replace=False).tolist()
        )
        truth = sorted(
            rng.choice(np.arange(1, horizon + 1), int(rng.integers(0, 4)),
                       replace=False).tolist()
        )
        res = boysen(est, truth, horizon)
        if (res.xi1, res.xi2) != brute_boysen(est, truth, horizon):
            mismatches.append(f"boysen rep {rep}")
    detail = "200 random inputs, exact agreement" if not mismatches \
        else "; ".join(mismatches[:5])
    report(8, not mismatches, detail)


def run_bench(threads):
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(sys.modules["graphon_cpd"].__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, GRAPHON_CPD_THREADS=str(threads), PYTHONPATH=path)
    cmd = [
        sys.executable, "-c", "from graphon_cpd.cliio import main; main()",
        "bench", "--scenario", "DSBM-I", "--n", "40", "--T", "16",
        "--seed", "5", "--reps", "4",
    ]
    out = subprocess.run(cmd, capture_output=True, env=env, check=True)
    return out.stdout


def test_criterion_9_bench_determinism(report):
    runs = [run_bench(1), run_bench(1), run_bench(8)]
    ok = runs[0] == runs[1] == runs[2]
    report(9, ok, "bench CSV byte-identical at 1 and 8 threads")
