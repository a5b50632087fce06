import threading

import numpy as np
import pytest

from graphon_cpd import cpd
from graphon_cpd.cpd import DetectorParams
from graphon_cpd.evalbench import (
    BenchRow,
    boysen,
    monte_carlo,
    signal_level,
)
from graphon_cpd.genmodels import ScenarioSpec, segment_matrices
from graphon_cpd.netcore import dist_2inf, dist_frob


class TestBoysen:
    def test_identical_sets(self):
        res = boysen([10, 20], [10, 20], 100)
        assert (res.xi1, res.xi2) == (0.0, 0.0)

    def test_hand_example(self):
        res = boysen([48, 90], [50], 100)
        assert (res.xi1, res.xi2) == (2.0, 40.0)

    def test_missed_all(self):
        res = boysen([], [50], 100)
        assert res.xi1 == 50.0
        assert res.xi2 is None

    def test_both_empty(self):
        res = boysen([], [], 100)
        assert (res.xi1, res.xi2) == (0.0, 0.0)

    def test_false_positives_measured_against_boundaries(self):
        res = boysen([10, 95], [], 100)
        assert res.xi1 == 0.0
        assert res.xi2 == 10.0

    def test_swap_roles(self):
        a, b = [10, 40], [12, 80]
        fwd = boysen(a, b, 100)
        rev = boysen(b, a, 100)
        assert (fwd.xi1, fwd.xi2) == (rev.xi2, rev.xi1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            boysen([0], [50], 100)
        with pytest.raises(ValueError):
            boysen([10], [101], 100)

    def test_adding_correct_estimate_never_hurts_xi1(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            T = 50
            truth = sorted(rng.choice(np.arange(1, T + 1), 3, replace=False).tolist())
            est = sorted(rng.choice(np.arange(1, T + 1), 2, replace=False).tolist())
            base = boysen(est, truth, T).xi1
            better = boysen(sorted(est + [truth[0]]), truth, T).xi1
            assert better <= base


class TestSignalLevel:
    def test_dsbm_iv_constant(self):
        for n, T in [(10, 10), (500, 100)]:
            assert signal_level("DSBM-IV", n, T)[0][0] == pytest.approx(0.09)

    def test_dsbm_iii_unit_args(self):
        (d2, df), = signal_level("DSBM-III", 1, 1)
        assert (d2, df) == (1.0, 2.0)

    def test_dsbm_v_exact_arithmetic(self):
        (d2, _), = signal_level("DSBM-V", 16, 16)
        assert d2 == pytest.approx(0.25, abs=1e-15)

    def test_mdsbm_lengths(self):
        assert len(signal_level("MDSBM-I", 100, 100)) == 3
        assert len(signal_level("MDSBM-II", 100, 100)) == 4

    def test_unknown(self):
        with pytest.raises(ValueError):
            signal_level("SBM-I", 10, 10)

    @pytest.mark.parametrize("sid", ["DSBM-I", "DSBM-II", "DSBM-III", "DSBM-VI"])
    def test_generator_matches_analytic(self, sid):
        n, T = 99, 16
        p1, p2 = segment_matrices(sid, n, T)
        (d2, df), = signal_level(sid, n, T)
        assert dist_2inf(p1, p2) ** 2 == pytest.approx(d2, rel=10 / n)
        assert dist_frob(p1, p2) ** 2 == pytest.approx(df, rel=10 / n)


class TestMonteCarlo:
    def test_single_rep_equals_mean(self):
        spec = ScenarioSpec(id="DSBM-I", n=30, T=16, seed=4)
        row = monte_carlo(spec, 1)
        assert isinstance(row, BenchRow)
        assert row.reps == 1
        assert float(row.jhat_mean).is_integer()

    def test_reproducible(self):
        spec = ScenarioSpec(id="DSBM-I", n=30, T=16, seed=4)
        params = DetectorParams(h=4)
        a = monte_carlo(spec, 3, params)
        b = monte_carlo(spec, 3, params)
        assert a == b

    def test_csv_line_shape(self):
        spec = ScenarioSpec(id="NOCHANGE-SBM-III", n=20, T=8, seed=1)
        row = monte_carlo(spec, 2, DetectorParams(h=2))
        fields = row.csv_line().split(",")
        assert len(fields) == 8
        assert fields[0] == "NOCHANGE-SBM-III"
        assert fields[6] == "2"

    def test_lower_case_id_reported_upper_case(self):
        row = monte_carlo(ScenarioSpec("dsbm-i", 12, 12, 1), 1)
        assert row.csv_line().startswith("DSBM-I,")

    def test_one_pool_level(self, monkeypatch):
        # Replications run in sequence, so only one scan's window pool is
        # alive at a time: at most GRAPHON_CPD_THREADS extra threads.
        monkeypatch.setenv("GRAPHON_CPD_THREADS", "2")
        counts = []
        smooth = cpd.mnbs_from_average

        def spy(*args):
            counts.append(threading.active_count())
            return smooth(*args)

        monkeypatch.setattr(cpd, "mnbs_from_average", spy)
        base = threading.active_count()
        monte_carlo(ScenarioSpec("DSBM-I", 20, 16, 4), 3)
        assert counts and max(counts) <= base + 2

    def test_invalid_reps(self):
        with pytest.raises(ValueError):
            monte_carlo(ScenarioSpec(id="DSBM-I", n=20, T=8, seed=0), 0)
