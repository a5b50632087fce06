import io
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from graphon_cpd import estim
from graphon_cpd.cliio import cli_main, write_edge_csv, write_matrix_csv
from graphon_cpd.estim import (
    mnbs_estimate,
    mnbs_q,
    mnbs_smooth,
    musvt_estimate,
    neighborhoods,
    pairwise_distance,
)
from graphon_cpd.genmodels import (
    ScenarioSpec,
    sample_snapshot,
    sbm_matrix,
    scenario_sequence,
    snapshot_rng,
)
from graphon_cpd.netcore import average_adjacency, dist_2inf

from oracle import brute_kernel, loop_neighborhoods, per_row_distance, sequential_smooth


def members(mask):
    """Each node's neighbours as a sorted index array."""
    return [np.flatnonzero(row) for row in mask]


def mask_of(nbhd, n):
    """The boolean neighbour mask of per-node member lists."""
    mask = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(nbhd):
        mask[i, np.asarray(row, dtype=int)] = True
    return mask


def uniform_matrix(rng, n):
    abar = rng.random((n, n))
    return (abar + abar.T) / 2


def block_matrix(rng, n):
    """Three blocks with shared rates: many exactly tied distances."""
    blocks = rng.integers(0, 3, n)
    rates = uniform_matrix(rng, 3)
    return rates[blocks][:, blocks]


def count_matrix(rng, n):
    """A window average of h snapshots' edge counts, 0..h over h: the
    scan's input, with many tied distances at small h."""
    h = int(rng.integers(1, 6))
    return count_stack(rng, (), n, h)


def count_stack(rng, lead, n, h):
    """A stack lead + (n, n) of window averages over h snapshots, edge
    counts 0..h over h."""
    counts = rng.integers(0, h + 1, lead + (n, n))
    return (np.triu(counts) + np.triu(counts, 1).swapaxes(-1, -2)) / h


class TestPairwiseDistance:
    def test_identical_rows_give_zero(self):
        abar = np.full((5, 5), 0.4)
        assert (pairwise_distance(abar) == 0).all()

    def test_hand_3x3(self):
        # path graph 0-1-2: abar^2/3 = [[1,0,1],[0,2,0],[1,0,1]]/3, so the
        # only admissible column for the pair (0, 1) is k = 2
        abar = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        d = pairwise_distance(abar)
        assert d[0, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert d[0, 2] == 0.0
        assert (np.diag(d) == 0).all()

    def test_homogeneous_in_scale(self):
        rng = np.random.default_rng(0)
        abar = rng.random((6, 6))
        abar = (abar + abar.T) / 2
        d1 = pairwise_distance(abar)
        d2 = pairwise_distance(abar * 2.0)
        # scaling abar by c scales abar^2 by c^2, hence distances by c^2
        assert np.allclose(d2, 4.0 * d1, atol=1e-14)

    def test_requires_three_nodes(self):
        with pytest.raises(ValueError):
            pairwise_distance(np.zeros((2, 2)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(3, 7)
            abar = rng.random((n, n))
            abar = (abar + abar.T) / 2
            assert np.array_equal(pairwise_distance(abar), brute_kernel(abar @ abar / n))

    # offsets * n^2 + extra floats: chunks of 1 offset, then of 2 with a
    # ragged last chunk at n = 7 and 10, then of 3, ragged at n = 8, 9 and 10
    # (n // 2 offsets). Even n compares the pairs at d = n / 2 twice.
    @pytest.mark.parametrize("n", [3, 7, 8, 9, 10])
    @pytest.mark.parametrize("offsets, extra", [(0, 1), (2, 0), (3, 1)])
    @pytest.mark.parametrize("make", [uniform_matrix, block_matrix])
    def test_tiles_match_brute_force(self, monkeypatch, n, offsets, extra, make):
        monkeypatch.setattr(estim, "_CHUNK_FLOATS", offsets * n * n + extra)
        rng = np.random.default_rng(n)
        for _ in range(5):
            abar = make(rng, n)
            d = pairwise_distance(abar)
            assert np.array_equal(d, brute_kernel(abar @ abar / n))
            assert np.array_equal(d, d.T)
            assert (np.diag(d) == 0).all()

    # Blocks of 1 row, or of 3 rows at n = 7 and 2 at n = 8, 9 and 10 (ragged
    # at n = 7 and 9), against chunks of 1 offset, of 3 (2 at n = 10; ragged
    # for 1-row blocks from n = 8) or of all n // 2.
    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    @pytest.mark.parametrize("run", [1, 15])
    @pytest.mark.parametrize("chunk", [1, 27, 2**17])
    @pytest.mark.parametrize("make", [uniform_matrix, block_matrix])
    def test_row_blocks_match_brute_force(self, monkeypatch, n, run, chunk, make):
        monkeypatch.setattr(estim, "_RUN_FLOATS", run)
        monkeypatch.setattr(estim, "_CHUNK_FLOATS", chunk)
        rng = np.random.default_rng(n)
        for _ in range(5):
            abar = make(rng, n)
            assert np.array_equal(pairwise_distance(abar), brute_kernel(abar @ abar / n))

    # The default tiling at the scan's sizes: 4-window stacks at n = 60, one
    # block of rows at n = 100 and four blocks of 50 rows at n = 200.
    @pytest.mark.parametrize("n, count", [(60, 4), (100, 1), (200, 1)])
    def test_default_tiling_matches_per_row(self, n, count):
        rng = np.random.default_rng(n)
        stack = np.stack([(block_matrix, uniform_matrix)[b % 2](rng, n) for b in range(count)])
        dist = pairwise_distance(stack)
        for b in range(count):
            assert np.array_equal(dist[b], per_row_distance(stack[b]))

    def test_offset_plan_follows_tiling(self, monkeypatch):
        plans = []

        def spy(*args):
            plans.append(plan_of(*args))
            return plans[-1]

        plan_of = estim._offset_plan
        monkeypatch.setattr(estim, "_offset_plan", spy)
        abar = uniform_matrix(np.random.default_rng(0), 9)
        pairwise_distance(abar)
        # 1-row blocks against 1 offset at a time: 9 rows x 4 offsets.
        monkeypatch.setattr(estim, "_RUN_FLOATS", 1)
        monkeypatch.setattr(estim, "_CHUNK_FLOATS", 1)
        pairwise_distance(abar)
        pairwise_distance(abar)
        assert [len(chunks) for _, chunks, _, _ in plans] == [1, 36, 36]
        assert plans[2] is plans[1]
        for _, chunks, into, mirror in plans:
            for index in [into, mirror] + [chunk[-1] for chunk in chunks]:
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 0


class TestScreen:
    """mnbs_from_average orders distances on exact integer counts at every
    n; the masks must be those of the float64 distances."""

    @staticmethod
    def screened_masks(monkeypatch, stack, h, q):
        """The screen's masks and the dtypes _distances ran in."""
        dtypes = []
        original = estim._distances

        def spy(g, dtype):
            dtypes.append(dtype)
            return original(g, dtype)

        with monkeypatch.context() as patch:
            patch.setattr(estim, "_distances", spy)
            return neighborhoods(estim._screened_distance(stack, h, q), q), dtypes

    # Each maker's matrices, rounded to counts over h snapshots: random
    # counts, and counts shared by blocks of nodes (many ties). A tie share
    # of 1 refines every tie, however many; no stack then takes the float64
    # kernel.
    @pytest.mark.parametrize("n", [3, 4, 9, 25, 61])
    @pytest.mark.parametrize("make", [count_matrix, block_matrix, uniform_matrix])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2), (2,)])
    @pytest.mark.parametrize("share", [None, 1.0])
    def test_masks_match_exact(self, monkeypatch, n, make, lead, share):
        if share is not None:
            monkeypatch.setattr(estim, "_BAND_SHARE", share)
        rng = np.random.default_rng(n)
        for h in (1, 2, 5, 12):
            count = math.prod(lead)
            stack = np.stack([np.rint(make(rng, n) * h) for _ in range(count)]) / h
            stack = stack.reshape(lead + (n, n))
            for q in (1e-9, 0.01, 0.1, 0.2, 0.37, 0.5, 0.8, 1.0):
                want = neighborhoods(pairwise_distance(stack), q)
                got, dtypes = self.screened_masks(monkeypatch, stack, h, q)
                assert got.tobytes() == want.tobytes()
                assert dtypes[0] == np.int16
                if share is not None:
                    assert dtypes == [np.int16]

    # C = counts @ counts reaches 2^15 (int32) and 2^31 (int64).
    @pytest.mark.parametrize("h, dtype", [(60, np.int32), (2**15, np.int64)])
    def test_wide_counts(self, monkeypatch, h, dtype):
        rng = np.random.default_rng(h)
        for lead, n in [((), 25), ((3,), 61), ((2,), 150)]:
            stack = count_stack(rng, lead, n, h)
            for q in (0.01, 0.2, 0.5):
                got, dtypes = self.screened_masks(monkeypatch, stack, h, q)
                assert dtypes == [dtype]
                assert got.tobytes() == neighborhoods(pairwise_distance(stack), q).tobytes()

    def test_masks_match_exact_on_scenario_windows(self, monkeypatch):
        for sid, n, T in [("DSBM-I", 250, 20), ("NOCHANGE-GRAPHON-II", 160, 20),
                          ("MDSBM-I", 150, 40), ("MDSBM-I", 60, 40)]:
            seq, _ = scenario_sequence(ScenarioSpec(id=sid, n=n, T=T, seed=4))
            for h in (1, 3, 10):
                stack = np.stack([average_adjacency(seq, s + 1, s + h) for s in (0, T - 2 * h)])
                for b0 in (1.0, 3.0, 30.0):
                    q = mnbs_q(n, estim.smoothing_bandwidth(n, h), b0)
                    want = neighborhoods(pairwise_distance(stack), q)
                    got, dtypes = self.screened_masks(monkeypatch, stack, h, q)
                    assert dtypes[0] == np.int16
                    assert got.tobytes() == want.tobytes()

    # One window and a stack of two, either side of n = 4 (3 the smallest),
    # 60 and 100, where the scan stacks 8 and 3 windows, and of n = 128,
    # where the screen used to start and the scan's stacks go from two
    # windows to one.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("count", [1, 2])
    def test_estimate_at_the_floor(self, monkeypatch, offset, count):
        screened = []
        original = estim._screened_distance

        def spy(abar, h, q):
            screened.append((abar.shape, h))
            return original(abar, h, q)

        monkeypatch.setattr(estim, "_screened_distance", spy)
        for n in (4 + offset, 60 + offset, 100 + offset, 128 + offset):
            screened.clear()
            stack = count_stack(np.random.default_rng(n), (count,), n, 4)
            q = mnbs_q(n, estim.smoothing_bandwidth(n, 4), 3.0)
            want = mnbs_smooth(stack, neighborhoods(pairwise_distance(stack), q))
            assert estim.mnbs_from_average(stack, 4, 3.0).tobytes() == want.tobytes()
            assert screened == [(stack.shape, 4)]

    # Windows of ties: all zeros, all ones and two equal blocks tie most
    # pairs at the cutoff, and so take the float64 kernel after the screen.
    @pytest.mark.parametrize("window", ["zeros", "ones", "two blocks"])
    def test_tied_windows_cost_at_most_twice_the_kernel(self, monkeypatch, window):
        n = 200
        abar = {
            "zeros": np.zeros((n, n)),
            "ones": np.ones((n, n)),
            "two blocks": np.kron([[0.7, 0.2], [0.2, 0.5]], np.ones((n // 2, n // 2))),
        }[window]
        q = mnbs_q(n, estim.smoothing_bandwidth(n, 10), 3.0)
        screen = lambda: estim._screened_distance(abar, 10, q)  # noqa: E731
        exact = lambda: pairwise_distance(abar)  # noqa: E731
        want = neighborhoods(exact(), q)
        got, dtypes = self.screened_masks(monkeypatch, abar, 10, q)
        assert got.tobytes() == want.tobytes()
        assert dtypes == [np.int16, np.float64]
        peaks = {}
        for fn in (screen, exact):
            tracemalloc.start()
            try:
                fn()
                peaks[fn] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[screen] < 2 * peaks[exact]
        # Each pair runs back to back, so a slow spell of the machine slows both.
        ratios = []
        for _ in range(9):
            start = time.perf_counter()
            screen()
            middle = time.perf_counter()
            exact()
            ratios.append((middle - start) / (time.perf_counter() - middle))
        assert np.median(ratios) < 2

    # Counts over windows of h snapshots either side of the rounding bound
    # (n + 4)·n·h² < 2^51: past it, the float64 kernel alone.
    def test_rounding_bound_takes_the_exact_kernel(self, monkeypatch):
        n = 20
        for wide, dtype in [(2**20, np.int64), (2**22, np.float64)]:
            assert ((n + 4) * n * wide**2 < 2**51) == (dtype is np.int64)
            stack = count_stack(np.random.default_rng(wide), (2,), n, wide)
            got, dtypes = self.screened_masks(monkeypatch, stack, wide, 0.3)
            assert dtypes == [dtype]
            assert got.tobytes() == neighborhoods(pairwise_distance(stack), 0.3).tobytes()
        abar = count_stack(np.random.default_rng(2), (), n, 4)
        assert self.screened_masks(monkeypatch, abar, 4, 0.3)[1][0] == np.int16


class TestKernel:
    """_distances runs in int16, int32 and int64 (the screen's counts) and
    float64 (pairwise_distance), and in any other float or signed integer
    dtype, and takes each max over the integer bits of |diff|."""

    # -0.0 entries and negative G check the bits max; block rows check ties.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("n", [3, 8, 9, 16])
    @pytest.mark.parametrize("tiling", [None, (1, 1), (15, 40)])
    def test_matches_brute_force(self, monkeypatch, dtype, n, tiling):
        if tiling is not None:
            monkeypatch.setattr(estim, "_RUN_FLOATS", tiling[0])
            monkeypatch.setattr(estim, "_CHUNK_FLOATS", tiling[1])
        rng = np.random.default_rng(n)
        for make in (uniform_matrix, block_matrix):
            g = make(rng, n) - 0.5
            if np.dtype(dtype).kind == "i":  # whole numbers in +-2^13: no diff overflows
                g = np.rint(g * 2**14)
            g[rng.random((n, n)) < 0.2] = -0.0
            stack = np.stack([g, np.abs(g)])
            dist = estim._distances(stack, dtype)
            assert dist.dtype == dtype
            for b in range(2):
                assert dist[b].tobytes() == brute_kernel(stack[b].astype(dtype)).tobytes()


class TestNeighborhoods:
    def test_full_quantile(self):
        dist = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        nbhd = members(neighborhoods(dist, 1.0))
        for i, row in enumerate(nbhd):
            assert len(row) == 3
            assert i not in row

    def test_quantile_rule_enumeration(self):
        dist = np.zeros((4, 4))
        dist[0, 1:] = dist[1:, 0] = [0.1, 0.5, 0.9]
        dist[1, 2:] = dist[2:, 1] = [0.2, 0.3]
        dist[2, 3] = dist[3, 2] = 0.4
        nbhd = members(neighborhoods(dist, 0.3))  # m = max(1, ceil(0.9)) = 1
        assert list(nbhd[0]) == [1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        dist = rng.random((7, 7))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        a = neighborhoods(dist, 0.4)
        b = neighborhoods(dist * 17.5, 0.4)
        assert a.dtype == bool and np.array_equal(a, b)

    def test_ties_included(self):
        dist = np.ones((4, 4))
        np.fill_diagonal(dist, 0.0)
        nbhd = members(neighborhoods(dist, 0.25))
        assert all(len(row) == 3 for row in nbhd)

    @pytest.mark.parametrize("q", [1e-9, 0.2, 0.5, 1.0])  # 1e-9 gives m = 1
    @pytest.mark.parametrize("make", [uniform_matrix, block_matrix])
    def test_matches_per_node_loop(self, q, make):
        rng = np.random.default_rng(3)
        for n in (3, 8, 25):
            dist = pairwise_distance(make(rng, n))
            # Rounding adds ties at the cutoff to the uniform case; inf and NaN
            # entries check that node i never counts toward its own cutoff.
            unbounded = np.where(rng.random((n, n)) < 0.3, np.inf, dist)
            unbounded[rng.random((n, n)) < 0.2] = np.nan
            for d in (dist, np.round(dist, 2), unbounded):
                got, want = members(neighborhoods(d, q)), loop_neighborhoods(d, q)
                assert len(got) == n
                assert all(np.array_equal(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_invalid_quantile(self, q):
        with pytest.raises(ValueError):
            neighborhoods(np.zeros((4, 4)), q)


class TestMnbsQ:
    def test_clamped_at_one(self):
        assert mnbs_q(100, 1.0, 1e9) == 1.0

    def test_detection_setting_value(self):
        # n=100, h=10: omega = sqrt(h log n)
        omega = math.sqrt(10 * math.log(100))
        assert mnbs_q(100, omega, 3.0) == pytest.approx(0.20358421273245333, abs=1e-15)

    def test_single_snapshot_recovers_static_rate(self):
        n = 100
        omega = math.sqrt(math.log(n))
        assert mnbs_q(n, omega, 2.0) == pytest.approx(
            2.0 * math.sqrt(math.log(n)) / math.sqrt(n), abs=1e-15
        )


class TestMnbsSmooth:
    def test_constant_fixed_point(self):
        abar = np.full((4, 4), 0.37)
        nbhd = ~np.eye(4, dtype=bool)
        assert np.allclose(mnbs_smooth(abar, nbhd), abar, atol=1e-15)

    def test_block_constant_fixed_point(self):
        p = sbm_matrix("SBM-I", 6)
        nbhd = mask_of(
            [[j for j in range(6) if j != i and (j < 4) == (i < 4)] for i in range(6)], 6
        )
        assert np.allclose(mnbs_smooth(p, nbhd), p, atol=1e-15)

    def test_hand_3x3(self):
        abar = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        nbhd = mask_of([[1], [0], [0]], 3)
        expected = np.array([[1, 0, 0], [0, 1, 0.5], [0, 0.5, 0]])
        assert np.array_equal(mnbs_smooth(abar, nbhd), expected)

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ValueError, match=r"^empty neighborhood for node 1$"):
            mnbs_smooth(np.zeros((3, 3)), mask_of([[1], [], []], 3))

    # Index lists, a 0/1 mask of another dtype, and masks of the wrong shape.
    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1], [2], [0]]),
            np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
            np.ones((3, 3)),
            np.ones((3, 4), dtype=bool),
            np.ones((1, 3, 3), dtype=bool),
        ],
    )
    def test_bad_mask_rejected(self, bad):
        with pytest.raises(ValueError, match="boolean mask"):
            mnbs_smooth(np.zeros((3, 3)), bad)

    def test_matches_sequential_row_sums(self):
        rng = np.random.default_rng(11)
        for n in (3, 6, 17):
            abar = uniform_matrix(rng, n)
            unsorted = [rng.permutation(n)[: rng.integers(1, n + 1)] for _ in range(n)]
            singletons = [np.array([rng.integers(n)]) for _ in range(n)]
            full = [np.arange(n)[::-1] for _ in range(n)]
            mixed = [unsorted[0], singletons[1], full[2]] + unsorted[3:]
            for nbhd in (unsorted, singletons, full, mixed):
                want = sequential_smooth(abar, nbhd)
                assert np.array_equal(mnbs_smooth(abar, mask_of(nbhd, n)), want)

    def test_output_symmetric_in_range(self):
        rng = np.random.default_rng(9)
        abar = rng.random((8, 8))
        abar = (abar + abar.T) / 2
        nbhd = neighborhoods(pairwise_distance(abar), 0.5)
        out = mnbs_smooth(abar, nbhd)
        assert np.abs(out - out.T).max() <= 1e-12
        assert out.min() >= 0 and out.max() <= 1


class TestStacks:
    """A stack (..., n, n) gives each slice the bytes of its own 2-D call."""

    # (run, chunk) floats: the defaults, one row against one offset at a
    # time, and blocks of 2 rows (n = 8, 9) against 1 or 2 offsets.
    @pytest.mark.parametrize("tiling", [None, (1, 1), (15, 40)])
    @pytest.mark.parametrize("kind", ["uniform", "block", "mixed"])
    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 2)])
    @pytest.mark.parametrize("n", [3, 8, 9])
    def test_stack_equals_slices(self, monkeypatch, n, lead, kind, tiling):
        if tiling is not None:
            monkeypatch.setattr(estim, "_RUN_FLOATS", tiling[0])
            monkeypatch.setattr(estim, "_CHUNK_FLOATS", tiling[1])
        # Mixed stacks hold block (many ties, large sets) and uniform slices,
        # so one slice's sets are padded to another's width.
        makes = {
            "uniform": [uniform_matrix],
            "block": [block_matrix],
            "mixed": [block_matrix, uniform_matrix],
        }[kind]
        rng = np.random.default_rng(n)
        count = math.prod(lead)
        stack = np.stack([makes[b % len(makes)](rng, n) for b in range(count)])
        stack = stack.reshape(lead + (n, n))
        dist = pairwise_distance(stack)
        mask = neighborhoods(dist, 0.3)
        smooth = mnbs_smooth(stack, mask)
        assert dist.shape == mask.shape == smooth.shape == stack.shape
        for i in np.ndindex(lead):
            assert dist[i].tobytes() == pairwise_distance(stack[i]).tobytes()
            assert mask[i].tobytes() == neighborhoods(dist[i], 0.3).tobytes()
            assert smooth[i].tobytes() == mnbs_smooth(stack[i], mask[i]).tobytes()

        # Estimates take window averages: random counts over h = 10
        # snapshots, and counts shared by blocks of nodes (many ties). A mixed
        # stack's ties take it to the float64 kernel while a random slice
        # alone keeps the integer one, so the slices' bytes hold across routes.
        h = 10
        rng = np.random.default_rng(n)
        tied = {"uniform": [False], "block": [True], "mixed": [True, False]}[kind]
        stack = np.stack([
            np.rint(block_matrix(rng, n) * h) / h if tied[b % len(tied)]
            else count_stack(rng, (), n, h)
            for b in range(count)
        ]).reshape(lead + (n, n))
        routes = []
        original = estim._distances

        def spy(g, dtype):
            routes.append(dtype)
            return original(g, dtype)

        monkeypatch.setattr(estim, "_distances", spy)
        est = estim.mnbs_from_average(stack, h, 3.0)
        assert est.shape == stack.shape
        kernels = [routes[-1]]
        for i in np.ndindex(lead):
            assert est[i].tobytes() == estim.mnbs_from_average(stack[i], h, 3.0).tobytes()
            kernels.append(routes[-1])
        if kind == "mixed" and count > 1:
            assert kernels[0] is np.float64 and np.int16 in kernels[1:]


    # Smoothing sums blocks of rows in one reduction each, at most
    # _GATHER_FLOATS gathered floats: 1 and 7 give one-row blocks, 300 a few
    # rows, the default a few blocks of the whole stack.
    @pytest.mark.parametrize("gather", [1, 7, 300, None])
    def test_blocks_match_sequential_row_sums(self, monkeypatch, gather):
        if gather is not None:
            monkeypatch.setattr(estim, "_GATHER_FLOATS", gather)
        rng = np.random.default_rng(12)
        for n in (4, 9, 17, 40):
            stack = np.stack([(block_matrix, uniform_matrix)[b % 2](rng, n) for b in range(5)])
            mask = neighborhoods(pairwise_distance(stack), 0.3)
            sizes = mask.sum(axis=-1)
            # Slices of different widths, and rows padded to the stack's.
            assert len(set(sizes.max(axis=-1))) > 1 and (sizes < sizes.max()).any()
            smooth = mnbs_smooth(stack, mask)
            for b in range(len(stack)):
                want = sequential_smooth(stack[b], members(mask[b]))
                assert smooth[b].tobytes() == want.tobytes()


class TestMnbsEstimate:
    def test_deterministic_block_input(self):
        # blocks (40 and 20 nodes) are larger than the neighborhood size, so
        # neighborhoods stay within blocks and smoothing is a fixed point
        p = sbm_matrix("SBM-I", 60)
        binary = (p > 0.5).astype(np.int8)
        seq = np.stack([binary] * 100)
        out = mnbs_estimate(seq, 1, 100)
        assert np.allclose(out, binary, atol=1e-12)

    def test_smoothing_beats_raw_average(self):
        p = sbm_matrix("SBM-I", 60)
        wins = 0
        for seed in range(10):
            seq = np.stack(
                [sample_snapshot(p, snapshot_rng(seed, t)) for t in range(1, 13)]
            )
            abar = average_adjacency(seq, 1, 12)
            est = mnbs_estimate(seq, 1, 12)
            wins += dist_2inf(est, p) < dist_2inf(abar, p)
        assert wins >= 8

    def test_permutation_equivariance(self):
        p = sbm_matrix("SBM-III", 30, 0.2)
        seq = np.stack(
            [sample_snapshot(p, snapshot_rng(77, t)) for t in range(1, 9)]
        )
        est = mnbs_estimate(seq, 1, 8)
        rng = np.random.default_rng(1)
        perm = rng.permutation(30)
        est_perm = mnbs_estimate(seq[:, perm][:, :, perm], 1, 8)
        assert np.allclose(est_perm, est[perm][:, perm], atol=1e-12)

    # The screen takes counts / h on trust; mnbs_estimate, the public entry
    # that reaches it outside the scan, checks its sequence first.
    def test_sequence_is_checked(self, tmp_path):
        seq, _ = scenario_sequence(ScenarioSpec(id="DSBM-I", n=40, T=12, seed=1))
        assert seq.dtype == np.int8
        want = mnbs_estimate(seq, 2, 11)
        for dtype in (bool, np.int64, np.float64):
            assert mnbs_estimate(seq.astype(dtype), 2, 11).tobytes() == want.tobytes()
        weighted = seq.astype(float)
        weighted[5, 0, 1] = weighted[5, 1, 0] = 0.5
        asymmetric = seq.copy()
        asymmetric[5, 0, 1] = 1 - asymmetric[5, 1, 0]
        for bad, message in [(weighted, "adjacency entries must be 0 or 1"),
                             (asymmetric, "snapshots must be symmetric"),
                             (seq[5], "expected shape (T, n, n), got (40, 40)")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                mnbs_estimate(bad, 2, 11)
        # The CLI's estimate writes the same matrix.
        edges, out = tmp_path / "edges.csv", tmp_path / "mat.csv"
        with open(edges, "w", encoding="utf-8") as fh:
            write_edge_csv(seq, fh)
        assert cli_main(["estimate", str(edges), "--n", "40", "--T", "12",
                         "--from", "2", "--to", "11", "--out", str(out)]) == 0
        text = io.StringIO()
        write_matrix_csv(want, text)
        assert out.read_text(encoding="utf-8") == text.getvalue()


class TestMusvt:
    def test_rank_one_above_threshold(self):
        abar = np.full((100, 100), 0.5)
        out = musvt_estimate(abar, 10)
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_all_below_threshold_gives_zero(self):
        abar = np.diag(np.full(5, 1e-3))
        out = musvt_estimate(abar, 1)
        assert (out == 0).all()

    def test_exact_recovery_when_spectrum_clears_threshold(self):
        rng = np.random.default_rng(4)
        abar = rng.random((4, 4))
        abar = (abar + abar.T) / 2
        evals = np.linalg.eigvalsh(abar)
        window = 10**12  # threshold ~ 2e-6 sits below every |eigenvalue|
        assert np.abs(evals).min() > (2 + 0.01) * math.sqrt(4 / window)
        assert np.allclose(musvt_estimate(abar, window), abar, atol=1e-10)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(8)
        abar = rng.random((20, 20))
        abar = (abar + abar.T) / 2
        out = musvt_estimate(abar, 3)
        assert out.min() >= 0 and out.max() <= 1
