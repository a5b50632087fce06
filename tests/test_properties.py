"""Property-based checks on the metric, smoothing and scan invariants."""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphon_cpd import cpd
from graphon_cpd.cpd import DetectorParams, scan_profile
from graphon_cpd.estim import mnbs_smooth, neighborhoods, pairwise_distance
from graphon_cpd.evalbench import boysen
from graphon_cpd.netcore import dist_2inf, dist_frob


def sym_matrices(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: hnp.arrays(
            float,
            (n, n),
            elements=st.floats(0, 1, allow_nan=False, width=32),
        ).map(lambda m: (m + m.T) / 2)
    )


@given(sym_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_distance_symmetry_and_identity(p, seed):
    q = np.random.default_rng(seed).random(p.shape)
    q = (q + q.T) / 2
    assert dist_2inf(p, q) == dist_2inf(q, p)
    assert dist_frob(p, q) == dist_frob(q, p)
    assert dist_2inf(p, p) == 0
    if dist_2inf(p, q) <= 1e-12:
        assert np.abs(p - q).max() <= 1e-10


@given(sym_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_frob_dominated_by_2inf(p, seed):
    q = np.random.default_rng(seed).random(p.shape)
    q = (q + q.T) / 2
    assert dist_frob(p, q) <= dist_2inf(p, q) + 1e-12


@given(sym_matrices(max_n=7), st.floats(0.1, 1.0))
@settings(max_examples=40, deadline=None)
def test_smoothing_preserves_unit_range_and_symmetry(abar, q):
    if abar.shape[0] < 3:
        return
    nbhd = neighborhoods(pairwise_distance(abar), q)
    out = mnbs_smooth(abar, nbhd)
    assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12
    assert np.abs(out - out.T).max() <= 1e-12


@given(
    st.lists(st.integers(1, 50), max_size=5),
    st.lists(st.integers(1, 50), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_boysen_bounds(est, truth):
    res = boysen(sorted(set(est)), sorted(set(truth)), 50)
    assert 0 <= res.xi1 <= 50
    if res.xi2 is not None:
        assert 0 <= res.xi2 <= 50


def block_sequence(n, T, seed):
    """T snapshots of a block model whose rates include 0 and 1, so some
    windows tie most distances and take the float64 kernel."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    rates = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], (k, k))
    blocks = rng.integers(0, k, n)
    p = np.triu(rates)[blocks][:, blocks]
    upper = np.triu(rng.random((T, n, n)) < np.maximum(p, p.T))
    return (upper | upper.transpose(0, 2, 1)).astype(np.int8)


# Stacks of one window, of the default B and of _MAX_BATCH. n runs from 3 to
# 130, and is often one either side of where the default B goes from 8 to 7
# (n = 65), 4 to 3 (n = 91) and 2 to 1 (n = 129).
@given(
    st.one_of(st.sampled_from([64, 65, 90, 91, 128, 129]), st.integers(3, 130)),
    st.integers(1, 4),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_scan_bytes_do_not_depend_on_the_batch(n, h, extra, seed):
    seq = block_sequence(n, 2 * h + extra, seed)
    params = DetectorParams(h=h)
    scans = set()
    for budget in (1, cpd._BATCH_FLOATS, 2**20):
        for threads in ("1", "2"):
            with mock.patch.object(cpd, "_BATCH_FLOATS", budget), \
                    mock.patch.dict(os.environ, {"GRAPHON_CPD_THREADS": threads}):
                scans.add(scan_profile(seq, params).values.tobytes())
    assert len(scans) == 1
