import tracemalloc

import numpy as np
import pytest

from graphon_cpd import cpd, estim
from graphon_cpd.cliio import report_to_dict
from graphon_cpd.cpd import (
    DetectorParams,
    ScanProfile,
    default_params,
    detect,
    local_maximizers,
    scan_profile,
    threshold_value,
)
from graphon_cpd.estim import mnbs_estimate
from graphon_cpd.genmodels import ScenarioSpec, sample_snapshot, sbm_matrix, scenario_sequence, snapshot_rng
from graphon_cpd.netcore import dist_2inf

from oracle import brute_local_maximizers, window_scan


# Every dtype as_adjacency_sequence accepts for 0/1 snapshots.
DTYPES = {
    "bool": lambda seq: seq.astype(bool),
    "uint8": lambda seq: seq.astype(np.uint8),
    "int8": lambda seq: seq,
    "float": lambda seq: seq.astype(float),
    "negzero": lambda seq: np.where(seq == 0, -0.0, 1.0),
    "object": lambda seq: seq.astype(object),
}


def profile_from(values, h, T):
    values = np.asarray(values, dtype=float)
    ts = np.arange(h, T - h + 1)
    assert len(values) == len(ts)
    return ScanProfile(T=T, h=h, ts=ts, values=values)


class TestDefaults:
    @pytest.mark.parametrize("T,h", [(100, 10), (348, 18), (4, 2)])
    def test_h_is_floor_sqrt(self, T, h):
        params = default_params(T, 100)
        assert params.h == h
        assert (params.b0, params.d0, params.delta0) == (3.0, 0.25, 0.1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            default_params(3, 100)
        with pytest.raises(ValueError):
            default_params(100, 2)


class TestThreshold:
    def test_frozen_value(self):
        params = DetectorParams(h=10)
        assert threshold_value(100, params) == pytest.approx(
            0.01976457223285426, abs=1e-15
        )

    def test_vanishes_with_d0(self):
        small = threshold_value(100, DetectorParams(h=10, d0=1e-12))
        assert small < 1e-12

    def test_h_scaling(self):
        a = threshold_value(50, DetectorParams(h=5))
        b = threshold_value(50, DetectorParams(h=10))
        assert a / b == pytest.approx(np.sqrt(2), abs=1e-12)


class TestScanProfile:
    def test_identical_snapshots_give_zero(self):
        p = sbm_matrix("SBM-I", 9)
        snap = (p > 0.5).astype(np.int8)
        seq = np.stack([snap] * 12)
        profile = scan_profile(seq, DetectorParams(h=3))
        assert (profile.values == 0).all()
        assert list(profile.ts) == list(range(3, 10))

    def test_boundary_domain_is_single_point(self):
        p = sbm_matrix("SBM-I", 8)
        seq = np.stack(
            [sample_snapshot(p, snapshot_rng(0, t)) for t in range(1, 7)]
        )
        profile = scan_profile(seq, DetectorParams(h=3))
        assert list(profile.ts) == [3]

    def test_window_too_large_rejected(self):
        seq = np.zeros((6, 5, 5), dtype=np.int8)
        with pytest.raises(ValueError):
            scan_profile(seq, DetectorParams(h=4))

    def test_matches_direct_window_estimates(self):
        spec = ScenarioSpec(id="DSBM-I", n=12, T=12, seed=5)
        seq, _ = scenario_sequence(spec)
        params = DetectorParams(h=3)
        profile = scan_profile(seq, params)
        for t in profile.ts:
            left = mnbs_estimate(seq, t - 2, t, params.b0)
            right = mnbs_estimate(seq, t + 1, t + 3, params.b0)
            assert profile.value_at(t) == dist_2inf(left, right) ** 2

    def test_value_at_outside_scan_range(self):
        profile = scan_profile(np.zeros((10, 5, 5), dtype=np.int8), DetectorParams(h=3))
        assert [profile.value_at(t) for t in (3, 7)] == [0.0, 0.0]
        for t in (0, 2, 8, 10):
            with pytest.raises(IndexError, match=r"outside the scan range \[3, 7\]"):
                profile.value_at(t)

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", list(DTYPES))
    def test_matches_window_scan_bytes(self, monkeypatch, dtype, threads):
        monkeypatch.setenv("GRAPHON_CPD_THREADS", str(threads))
        calls = []
        original = cpd.ordered_map

        def spy(fn, items):
            items = list(items)
            calls.append(items)
            return original(fn, items)

        monkeypatch.setattr(cpd, "ordered_map", spy)
        seq, _ = scenario_sequence(ScenarioSpec(id="DSBM-I", n=12, T=24, seed=5))
        # T = 2h and T = 2h + 1 (chains with one window and no value), chains
        # of equal and of unequal lengths, fewer chains than threads, h = 1.
        for h, T in [(3, 6), (3, 7), (5, 14), (3, 15), (4, 24), (2, 11), (1, 10)]:
            params = DetectorParams(h=h)
            part = DTYPES[dtype](seq[:T])
            values = scan_profile(part, params).values
            assert values.tobytes() == window_scan(part, params).tobytes()
            assert calls == [list(range(h))]
            calls.clear()

    # Stacks of B = 8 windows at n = 61 (odd), 3 at n = 100, 2 at n = 128
    # and 1 at n = 160 (cpd._BATCH_FLOATS). Each case has chains whose
    # length is not a multiple of B, so they end mid-batch: h = 1 (one chain
    # of 300 windows), 2 (150 and 149), 17 (17 and 16), n = 100's 10 and 9,
    # and n = 128's 5 and 4. Every window's distances are ordered on its
    # counts, while the oracle takes float64 distances one window at a time.
    @pytest.mark.parametrize(
        "sid, n, T, h",
        [
            ("MDSBM-I", 61, 300, 1),
            ("MDSBM-I", 61, 300, 2),
            ("MDSBM-I", 61, 300, 17),
            ("DSBM-IV", 100, 100, 10),
            ("DSBM-I", 128, 40, 7),
            ("DSBM-I", 160, 40, 6),
        ],
    )
    def test_matches_window_scan_at_batch_boundaries(self, monkeypatch, sid, n, T, h):
        seq, _ = scenario_sequence(ScenarioSpec(id=sid, n=n, T=T, seed=3))
        params = DetectorParams(h=h)
        expected = window_scan(seq, params).tobytes()
        screened = []
        original = estim._screened_distance

        def spy(abar, window, q):
            screened.append(len(abar))
            assert window == h
            return original(abar, window, q)

        monkeypatch.setattr(estim, "_screened_distance", spy)
        batch = max(1, min(cpd._MAX_BATCH, cpd._BATCH_FLOATS // (n * n)))
        chains = [len(range(first, T - h + 1, h)) for first in range(h)]
        assert batch == 1 or any(length % batch for length in chains)
        for threads in ("1", "2"):
            monkeypatch.setenv("GRAPHON_CPD_THREADS", threads)
            assert scan_profile(seq, params).values.tobytes() == expected
        assert sum(screened) == 2 * (T - h + 1)
        assert max(screened) == min(batch, max(chains))

    # A chain that kept its estimates alive (7.2 KB each at n = 30) would
    # hold 39 of them at T = 200 and 159 at T = 800 with h = 5, past the
    # bound; with h = 20, 10 and 39, within it.
    @pytest.mark.parametrize("threads, h", [("1", 20), ("2", 20), ("1", 5), ("2", 5)],
                             ids=["1", "2", "h5-1", "h5-2"])
    def test_scan_memory_flat_in_T(self, monkeypatch, threads, h):
        # Validation's own T·n² temporaries are left out of the measured peak.
        # On two threads the peak holds both chains' kernel buffers only when
        # they overlap, which a short scan does not always catch: the T = 200
        # reference is the largest peak of four scans.
        monkeypatch.setenv("GRAPHON_CPD_THREADS", threads)
        original = cpd.as_adjacency_sequence

        def validated(arr):
            seq = original(arr)
            tracemalloc.reset_peak()
            return seq

        monkeypatch.setattr(cpd, "as_adjacency_sequence", validated)
        peaks = {}
        for T, scans in ((200, 4), (800, 1)):
            seq, _ = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=30, T=T, seed=1))
            peaks[T] = 0
            for _ in range(scans):
                tracemalloc.start()
                try:
                    scan_profile(seq, DetectorParams(h=h))
                    peaks[T] = max(peaks[T], tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[800] < 1.25 * peaks[200]

    def test_scan_memory_flat_in_h(self, monkeypatch):
        # One chain holds one or two estimates, however long its windows.
        monkeypatch.setenv("GRAPHON_CPD_THREADS", "1")
        original = cpd.as_adjacency_sequence

        def validated(arr):
            seq = original(arr)
            tracemalloc.reset_peak()
            return seq

        monkeypatch.setattr(cpd, "as_adjacency_sequence", validated)
        seq, _ = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=30, T=400, seed=1))
        peaks = {}
        for h in (5, 40):
            tracemalloc.start()
            try:
                scan_profile(seq, DetectorParams(h=h))
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] < 1.25 * peaks[5]

    def test_scan_memory_per_worker_at_n100(self, monkeypatch):
        # One worker's peak, validation left out, after a first scan has
        # cached this shape's kernel plan: 22.5·n² floats with stacks of
        # B = 3 (7.5·B·n²), 18.1·n² with the earlier stacks of one window,
        # and 33.3·n² with B = 6 (a 2**16 budget), which fails the bound.
        monkeypatch.setenv("GRAPHON_CPD_THREADS", "1")
        original = cpd.as_adjacency_sequence

        def validated(arr):
            seq = original(arr)
            tracemalloc.reset_peak()
            return seq

        monkeypatch.setattr(cpd, "as_adjacency_sequence", validated)
        n, T, h = 100, 60, 7
        batch = max(1, min(cpd._MAX_BATCH, cpd._BATCH_FLOATS // (n * n)))
        assert batch == 3
        seq, _ = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=n, T=T, seed=1))
        scan_profile(seq, DetectorParams(h=h))
        tracemalloc.start()
        try:
            scan_profile(seq, DetectorParams(h=h))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * batch * n * n * 8

    def test_peak_memory_is_the_estimates(self, monkeypatch):
        # No per-snapshot buffer: the T - h + 1 float64 estimates dominate.
        monkeypatch.setenv("GRAPHON_CPD_THREADS", "1")
        n, T, h = 30, 400, 20
        seq, _ = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=n, T=T, seed=1))
        tracemalloc.start()
        try:
            scan_profile(seq, DetectorParams(h=h))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (T - h + 1) * n * n * 8


class TestLocalMaximizers:
    def test_unique_peak(self):
        values = [0.0, 1.0, 5.0, 1.0, 0.0]
        assert local_maximizers(profile_from(values, 2, 8)) == [4]

    def test_constant_profile_spacing(self):
        profile = profile_from(np.ones(15), 3, 20)  # domain 3..17
        assert local_maximizers(profile) == [3, 6, 9, 12, 15]

    def test_strictly_increasing(self):
        profile = profile_from(np.arange(11.0), 3, 16)  # domain 3..13
        assert local_maximizers(profile) == [13]

    def test_pairwise_spacing_at_least_h(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            h = int(rng.integers(1, 5))
            T = int(rng.integers(2 * h, 2 * h + 20))
            values = rng.integers(0, 3, T - 2 * h + 1).astype(float)
            maxima = local_maximizers(profile_from(values, h, T))
            assert all(b - a >= h for a, b in zip(maxima, maxima[1:]))

    @pytest.mark.parametrize("kind", ["real", "tied", "flat"])
    def test_matches_brute_force(self, kind):
        rng = np.random.default_rng(24)
        for _ in range(300):
            h = int(rng.integers(1, 8))
            T = int(rng.integers(2 * h, 2 * h + 30))  # down to a one-point scan
            m = T - 2 * h + 1
            values = {
                "real": rng.random(m),
                "tied": rng.integers(0, 3, m).astype(float),
                "flat": np.full(m, rng.random()),
            }[kind]
            profile = profile_from(values, h, T)
            assert local_maximizers(profile) == brute_local_maximizers(profile)


@pytest.fixture(scope="module")
def dsbm_instance():
    spec = ScenarioSpec(id="DSBM-I", n=40, T=36, seed=11)
    return scenario_sequence(spec)


class TestDetect:

    def test_finds_planted_change(self, dsbm_instance):
        seq, truth = dsbm_instance
        report = detect(seq, default_params(36, 40))
        assert len(report.changepoints) == 1
        assert abs(report.changepoints[0] - truth.changepoints[0]) < report.params.h

    def test_monotone_in_d0(self, dsbm_instance):
        seq, _ = dsbm_instance
        loose = detect(seq, DetectorParams(h=6, d0=0.05))
        tight = detect(seq, DetectorParams(h=6, d0=0.5))
        assert set(tight.changepoints) <= set(loose.changepoints)

    def test_infinite_threshold_empty(self, dsbm_instance):
        seq, _ = dsbm_instance
        report = detect(seq, DetectorParams(h=6, d0=1e12))
        assert report.changepoints == []

    def test_report_invariants(self, dsbm_instance):
        seq, _ = dsbm_instance
        report = detect(seq, default_params(36, 40))
        assert set(report.changepoints) <= set(report.local_max)
        assert all(v > report.threshold for v in report.changepoint_values)
        h = report.params.h
        cps = report.changepoints
        assert all(b - a >= h for a, b in zip(cps, cps[1:]))

    def test_deterministic(self, dsbm_instance):
        seq, _ = dsbm_instance
        a = detect(seq, default_params(36, 40))
        b = detect(seq, default_params(36, 40))
        assert np.array_equal(a.scan.values, b.scan.values)
        assert a.changepoints == b.changepoints

    def test_maximum_at_the_threshold_is_not_reported(self, dsbm_instance, monkeypatch):
        seq, _ = dsbm_instance
        params = default_params(36, 40)
        first = detect(seq, params)
        (t,), (value,) = first.changepoints, first.changepoint_values
        monkeypatch.setattr(cpd, "threshold_value", lambda n, params: value)
        report = detect(seq, params)
        assert report.threshold == value == report.scan.value_at(t)
        assert t in report.local_max and t not in report.changepoints

    # Stacks of 8, 8 and 1 windows (cpd._BATCH_FLOATS), on block models and
    # a graphon.
    @pytest.mark.parametrize("sid, n, T", [
        ("DSBM-I", 60, 64), ("NOCHANGE-GRAPHON-II", 40, 49), ("DSBM-I", 130, 36),
    ])
    def test_time_reversal_is_exact(self, sid, n, T):
        # Window sums are exact integers and dist_2inf is symmetric, so the
        # reversed sequence scans to the reversed values, bit for bit.
        seq, _ = scenario_sequence(ScenarioSpec(id=sid, n=n, T=T, seed=1))
        params = default_params(T, n)
        forward, backward = detect(seq, params), detect(seq[::-1], params)
        assert backward.scan.values.tobytes() == forward.scan.values[::-1].tobytes()
        # No two scan values are equal, so no tie picks a maximum and the
        # maxima mirror as T - t.
        assert len(np.unique(forward.scan.values)) == len(forward.scan.values)
        assert backward.local_max == sorted(T - t for t in forward.local_max)
        assert backward.changepoints == sorted(T - t for t in forward.changepoints)

    def test_accepts_nested_lists(self, dsbm_instance, monkeypatch):
        seq, _ = dsbm_instance
        params = default_params(36, 40)
        expected = report_to_dict(detect(seq, params))
        seen = []
        original = cpd.as_adjacency_sequence

        def spy(arr):
            seen.append(type(arr))
            return original(arr)

        monkeypatch.setattr(cpd, "as_adjacency_sequence", spy)
        assert report_to_dict(detect(seq.tolist(), params)) == expected
        assert seen == [np.ndarray]  # the list is converted once
