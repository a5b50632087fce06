import tracemalloc

import numpy as np
import pytest

from graphon_cpd import netcore
from graphon_cpd.netcore import (
    as_adjacency_sequence,
    average_adjacency,
    dist_2inf,
    dist_frob,
)


def ring(n):
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        a[i, (i + 1) % n] = 1
        a[(i + 1) % n, i] = 1
    return a


class TestAverageAdjacency:
    def test_constant_window(self):
        a = ring(5)
        seq = np.stack([a, a, a])
        assert (average_adjacency(seq, 1, 3) == a).all()

    def test_two_snapshot_mean(self):
        a = np.zeros((3, 3), dtype=np.int8)
        b = a.copy()
        b[0, 1] = b[1, 0] = 1
        seq = np.stack([b, a])
        abar = average_adjacency(seq, 1, 2)
        assert abar[0, 1] == 0.5
        assert abar[1, 0] == 0.5

    def test_single_element_window(self):
        seq = np.stack([ring(4), np.eye(4, dtype=np.int8)])
        assert (average_adjacency(seq, 2, 2) == np.eye(4)).all()

    @pytest.mark.parametrize("window", [(0, 1), (2, 1), (1, 3), (3, 3)])
    def test_bad_window(self, window):
        seq = np.stack([ring(4), ring(4)])
        with pytest.raises(IndexError):
            average_adjacency(seq, *window)

    # Byte-sized entries sum in int16 up to h = 128 and in int32 beyond;
    # each dtype's extremes fill the first two rows, so an accumulator that
    # overflowed would show.
    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.float64])
    @pytest.mark.parametrize("h", [1, 7, 128, 129, 300])
    def test_matches_float_accumulator(self, dtype, h):
        rng = np.random.default_rng(h)
        if dtype is np.float64:
            seq = rng.random((h + 2, 5, 5))
        else:
            lo, hi = (0, 1) if dtype is bool else (np.iinfo(dtype).min, np.iinfo(dtype).max)
            seq = rng.integers(lo, hi, (h + 2, 5, 5), endpoint=True)
            seq[:, 0], seq[:, 1] = lo, hi
            seq = seq.astype(dtype)
        for t_from in (1, 3):
            t_to = t_from + h - 1
            want = np.add.reduce(seq[t_from - 1 : t_to], axis=0, dtype=float) / h
            got = average_adjacency(seq, t_from, t_to)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_range_and_equivariance(self):
        rng = np.random.default_rng(3)
        seq = np.stack(
            [np.triu(rng.integers(0, 2, (6, 6))) for _ in range(4)]
        )
        seq = np.maximum(seq, seq.transpose(0, 2, 1))
        abar = average_adjacency(seq, 1, 4)
        assert abar.min() >= 0 and abar.max() <= 1
        perm = rng.permutation(6)
        relabeled = seq[:, perm][:, :, perm]
        assert np.array_equal(
            average_adjacency(relabeled, 1, 4), abar[perm][:, perm]
        )


class TestDistances:
    def test_zero_on_equal(self):
        p = np.array([[0.2, 0.5], [0.5, 0.9]])
        assert dist_2inf(p, p) == 0.0
        assert dist_frob(p, p) == 0.0

    def test_2inf_hand_value(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = np.zeros((2, 2))
        assert dist_2inf(p, q) == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_frob_all_ones_diff(self):
        p = np.ones((2, 2))
        q = np.zeros((2, 2))
        assert dist_frob(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist_2inf(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            dist_frob(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_frob_bounded_by_2inf(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 9)
            p = rng.random((n, n))
            q = rng.random((n, n))
            p = (p + p.T) / 2
            q = (q + q.T) / 2
            assert dist_frob(p, q) <= dist_2inf(p, q) + 1e-12


class TestSequenceValidation:
    def test_rejects_asymmetric(self):
        a = np.zeros((1, 3, 3), dtype=np.int8)
        a[0, 0, 1] = 1
        with pytest.raises(ValueError):
            as_adjacency_sequence(a)

    @pytest.mark.parametrize("entry", [
        0.5, 2, -1, np.nan, np.inf, 1e-300, 1j, np.uint8(255),
        np.array(2, dtype=object), np.array("a", dtype=object), "1",
    ], ids=repr)
    def test_rejects_nonbinary(self, entry):
        seq = np.stack([ring(3), ring(3)]).astype(np.asarray(entry).dtype)
        seq[1, 0, 1] = seq[1, 1, 0] = entry
        with pytest.raises(ValueError, match="must be 0 or 1"):
            as_adjacency_sequence(seq)

    @pytest.mark.parametrize("seq", [
        np.stack([ring(4)]),
        np.stack([ring(4)]).astype(bool),
        np.where(np.stack([ring(4)]) == 1, 1.0, -0.0),
        np.stack([ring(4)]).astype(complex),
        np.stack([ring(4)]).astype(object),
        np.zeros((1, 0, 0)),
    ], ids=["int8", "bool", "signed zero", "complex", "object", "empty"])
    def test_accepts_valid(self, seq):
        assert as_adjacency_sequence(seq).shape == seq.shape

    @pytest.mark.parametrize("entries", [1, 9, 18])
    def test_blocks_keep_verdicts(self, monkeypatch, entries):
        # Blocks of 1 or 2 snapshots: an asymmetric first snapshot and a
        # nonbinary last one still give the whole array's verdict.
        monkeypatch.setattr(netcore, "_CHECK_ENTRIES", entries)
        seq = np.stack([ring(3)] * 3)
        seq[0, 0, 2] = 0
        with pytest.raises(ValueError, match="must be symmetric"):
            as_adjacency_sequence(seq)
        seq[2, 0, 1] = seq[2, 1, 0] = 2
        with pytest.raises(ValueError, match="must be 0 or 1"):
            as_adjacency_sequence(seq)
        assert as_adjacency_sequence(np.stack([ring(3)] * 3)).shape == (3, 3, 3)

    def test_validation_memory_is_a_block(self):
        # Checking the whole array at once builds two bool temporaries of the
        # input's size: a 20 MB peak for this 10 MB input.
        seq = np.stack([ring(100)] * 1000)
        tracemalloc.start()
        try:
            as_adjacency_sequence(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < seq.nbytes / 4
