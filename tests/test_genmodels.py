import hashlib
import math
import warnings

import numpy as np
import pytest

from graphon_cpd import genmodels
from graphon_cpd.genmodels import (
    GRAPHON_IDS,
    SBM_IDS,
    ScenarioSpec,
    delta_nT,
    graphon_matrix,
    sample_snapshot,
    sbm_matrix,
    scenario_sequence,
    segment_matrices,
    snapshot_rng,
)


class TestDelta:
    def test_powers_of_two(self):
        assert delta_nT("DSBM-I", 64, 256) == pytest.approx(0.25, abs=1e-15)
        assert delta_nT("DSBM-V", 100, 256, segment=2) == pytest.approx(0.5, abs=1e-15)

    def test_mdsbm_first_segment_unit_args(self):
        assert delta_nT("MDSBM-I", 1, 1, segment=1) == pytest.approx(2.0, abs=1e-15)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            delta_nT("DSBM-XIII", 10, 10)
        with pytest.raises(ValueError, match="unknown scenario id 'NOCHANGE-BOGUS'"):
            delta_nT("NOCHANGE-BOGUS", 10, 10)

    def test_segment_out_of_range(self):
        assert delta_nT("NOCHANGE-SBM-I", 64, 256) == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(ValueError, match="NOCHANGE-SBM-I has 1 segments, got 2"):
            delta_nT("NOCHANGE-SBM-I", 10, 10, segment=2)
        with pytest.raises(ValueError):
            delta_nT("DSBM-I", 10, 10, segment=0)

    def test_delta_free_segment_is_zero(self):
        # The delta each segment is built with: none for SBM-I or a graphon.
        assert delta_nT("DSBM-I", 64, 256, segment=2) == 0.0
        assert delta_nT("NOCHANGE-GRAPHON-II", 64, 256) == 0.0


class TestSbmMatrix:
    def test_sbm_i_small(self):
        p = sbm_matrix("SBM-I", 6)
        # nodes 1-4 in block 1, nodes 5-6 in block 2 (1-based)
        assert p[0, 4] == 0.3
        assert p[0, 1] == 0.6
        assert p[4, 5] == 0.6

    def test_sbm_vii_single_node_switch(self):
        n, delta = 30, 0.2
        a = sbm_matrix("SBM-VI", n, delta)
        b = sbm_matrix("SBM-VII", n, delta)
        diff = np.argwhere(a != b)
        switched = 2 * (n // 3) - 1  # 0-based index of the switched node
        assert len(diff) == 2 * (n - 1)
        assert all(switched in pair for pair in diff)

    def test_sbm_x_degenerates_at_zero_delta(self):
        assert (sbm_matrix("SBM-X", 10, 0.0) == 0.6).all()

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            sbm_matrix("SBM-IX", 10, 0.7)
        with pytest.raises(ValueError):
            sbm_matrix("SBM-IV", 10, 0.5)

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            sbm_matrix("SBM-I", n)

    @pytest.mark.parametrize("sbm_id", SBM_IDS)
    def test_symmetric_unit_range(self, sbm_id):
        p = sbm_matrix(sbm_id, 23, 0.1)
        assert (p == p.T).all()
        assert p.min() >= 0 and p.max() <= 1


class TestGraphonMatrix:
    def test_graphon_ii_center_value(self):
        p = graphon_matrix("GRAPHON-II", np.array([0.5, 0.5, 0.1]))
        assert p[0, 1] == pytest.approx(0.9207354924039483, abs=1e-15)

    def test_graphon_i_block_values(self):
        # n = 100 gives KB = floor(log 100) = 4
        xi = np.full(100, 0.1)  # all in block 1
        p = graphon_matrix("GRAPHON-I", xi)
        assert np.allclose(p, 1 / 5)
        mixed = graphon_matrix("GRAPHON-I", np.concatenate([np.full(50, 0.1), np.full(50, 0.9)]))
        assert mixed[0, 99] == pytest.approx(0.3 / 5, abs=1e-15)
        assert mixed[99, 98] == pytest.approx(4 / 5, abs=1e-15)

    def test_graphon_iii_origin(self):
        p = graphon_matrix("GRAPHON-III", np.array([0.0, 0.0, 0.5]))
        assert p[0, 1] == pytest.approx(0.15, abs=1e-15)

    @pytest.mark.parametrize("gid", GRAPHON_IDS)
    def test_symmetric_unit_range(self, gid):
        rng = np.random.default_rng(6)
        xi = rng.random(40)
        p = graphon_matrix(gid, xi)
        assert np.abs(p - p.T).max() == 0
        assert p.min() >= 0 and p.max() <= 1

    @pytest.mark.parametrize("gid", GRAPHON_IDS)
    def test_permutation_equivariance(self, gid):
        rng = np.random.default_rng(7)
        xi = rng.random(15)
        perm = rng.permutation(15)
        assert np.array_equal(
            graphon_matrix(gid, xi[perm]), graphon_matrix(gid, xi)[perm][:, perm]
        )


class TestSampling:
    def test_seeds_above_2_63_are_distinct(self):
        # A float64 key merged these three seeds into one sequence.
        seqs = [
            scenario_sequence(ScenarioSpec(id="DSBM-I", n=12, T=6, seed=seed))[0].tobytes()
            for seed in (2**63, 2**63 + 7, 2**63 + 8)
        ]
        assert len(set(seqs)) == 3

    def test_largest_seed_runs_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario_sequence(ScenarioSpec(id="NOCHANGE-GRAPHON-II", n=12, T=6, seed=2**64 - 1))
            scenario_sequence(ScenarioSpec(id="DSBM-I", n=12, T=6, seed=2**64 - 1))

    def test_degenerate_probabilities(self):
        zero = sample_snapshot(np.zeros((10, 10)), snapshot_rng(0, 1))
        ones = sample_snapshot(np.ones((10, 10)), snapshot_rng(0, 1))
        assert (zero == 0).all()
        assert (ones == 1).all()

    def test_density_concentrates(self):
        p = np.full((100, 100), 0.5)
        densities = [
            sample_snapshot(p, snapshot_rng(seed, 1)).mean() for seed in range(30)
        ]
        assert all(abs(d - 0.5) < 0.02 for d in densities)

    def test_stream_determinism(self):
        p = np.full((20, 20), 0.3)
        a = sample_snapshot(p, snapshot_rng(123, 7))
        b = sample_snapshot(p, snapshot_rng(123, 7))
        c = sample_snapshot(p, snapshot_rng(123, 8))
        assert (a == b).all()
        assert (a != c).any()

    def test_symmetry(self):
        p = np.full((15, 15), 0.4)
        a = sample_snapshot(p, snapshot_rng(1, 1))
        assert (a == a.T).all()

    @pytest.mark.parametrize("n", [1, 2, 7, 61])
    def test_matches_entrywise_draws(self, n):
        p = np.random.default_rng(n).random((n, n))  # not symmetric
        want = entrywise_snapshot(p, snapshot_rng(5, n))
        got = sample_snapshot(p, snapshot_rng(5, n))
        assert got.dtype == np.int8 and got.tobytes() == want.tobytes()

    def test_non_contiguous_p(self):
        p = np.random.default_rng(3).random((40, 40))
        view = p.T  # reads p's lower triangle
        assert not view.flags.c_contiguous
        got = sample_snapshot(view, snapshot_rng(9, 2))
        assert got.tobytes() == entrywise_snapshot(view, snapshot_rng(9, 2)).tobytes()
        assert got.tobytes() == sample_snapshot(p.T.copy(), snapshot_rng(9, 2)).tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (5,), (2, 3, 3)])
    def test_non_square_p_rejected(self, shape):
        with pytest.raises(ValueError, match="p must be a square matrix"):
            sample_snapshot(np.full(shape, 0.5), snapshot_rng(0, 1))


def entrywise_snapshot(p, rng):
    """One draw per upper-triangle entry, row by row, mirrored below."""
    n = len(p)
    draws = iter(rng.random(n * (n + 1) // 2))
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = next(draws) < p[i, j]
    return a


class TestScenarios:
    def test_dsbm_i_ground_truth(self):
        _, truth = scenario_sequence(ScenarioSpec(id="DSBM-I", n=12, T=100, seed=0))
        assert truth.changepoints == [50]

    def test_mdsbm_i_ground_truth(self):
        _, truth = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=12, T=100, seed=0))
        assert truth.changepoints == [25, 50, 75]

    def test_nochange_single_segment(self):
        seq, truth = scenario_sequence(
            ScenarioSpec(id="NOCHANGE-SBM-III", n=12, T=6, seed=0)
        )
        assert truth.changepoints == []
        assert len(truth.segment_matrices) == 1
        assert seq.shape == (6, 12, 12)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="MDSBM-II needs T divisible by 5, got T=101"):
            ScenarioSpec(id="MDSBM-II", n=12, T=101, seed=0)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(id="DSBM-IX", n=12, T=10, seed=0)

    def test_every_scenario_pinned(self):
        assert set(genmodels._SCENARIOS) == set(SEQUENCE_DIGESTS)
        assert set(SBM_IDS) == set(SBM_DIGESTS)

    def test_lower_case_id(self):
        spec = ScenarioSpec(id="dsbm-i", n=12, T=6, seed=1)
        a, truth = scenario_sequence(spec)
        b, _ = scenario_sequence(ScenarioSpec(id="DSBM-I", n=12, T=6, seed=1))
        assert (a == b).all() and truth.changepoints == [3]
        assert spec.id == "DSBM-I"
        assert spec == ScenarioSpec(id="DSBM-I", n=12, T=6, seed=1)

    # Four segments, SBM-XI's alternating labels, and latents from substream
    # 0. At (6, 4) the delta of SBM-III and SBM-X leaves [0, 1], so n = 6
    # runs at T = 400.
    @pytest.mark.parametrize("n, T", [(6, 400), (61, 8), (200, 4)])
    @pytest.mark.parametrize("sid", ["MDSBM-I", "DSBM-VI", "NOCHANGE-GRAPHON-II"])
    def test_sequence_equals_per_snapshot_draws(self, sid, n, T):
        seed = 7 * n
        seq, truth = scenario_sequence(ScenarioSpec(id=sid, n=n, T=T, seed=seed))
        mats = truth.segment_matrices
        length = T // len(mats)
        want = np.stack([
            sample_snapshot(mats[(t - 1) // length], snapshot_rng(seed, t))
            for t in range(1, T + 1)
        ])
        assert seq.dtype == want.dtype and seq.tobytes() == want.tobytes()

    def test_reproducible(self):
        spec = ScenarioSpec(id="DSBM-II", n=64, T=8, seed=99)
        a, _ = scenario_sequence(spec)
        b, _ = scenario_sequence(spec)
        assert (a == b).all()

    def test_consecutive_segments_differ(self):
        for sid in ("DSBM-I", "DSBM-II", "DSBM-III", "MDSBM-I", "MDSBM-II"):
            mats = segment_matrices(sid, 30, 100)
            for a, b in zip(mats, mats[1:]):
                assert (a != b).any()

    def test_graphon_nochange_fixed_latents(self):
        spec = ScenarioSpec(id="NOCHANGE-GRAPHON-II", n=15, T=4, seed=3)
        _, truth = scenario_sequence(spec)
        _, truth2 = scenario_sequence(spec)
        assert np.array_equal(truth.segment_matrices[0], truth2.segment_matrices[0])


# sha256 of every generated byte: a changed draw, block boundary or matrix
# entry shows here, not only in the benchmark digests of four scenarios. The
# sequence pins were recorded when snapshot_rng's key became uint64, which
# changed the draws of seeds >= 2^63 only; the SBM pins are older.
PIN_N, PIN_T, PIN_SEED = 12, 60, 2**63 + 7  # T divisible by 1, 2, 4 and 5 segments
SEQUENCE_DIGESTS = {
    "DSBM-I": "b35d12158b893f9cb7c3a23a3733b26f9c19d964ce23cbc8a2ce38d946e7d230",
    "DSBM-II": "a837fd960c5cf34772823e98dde7355dbf07542efd7189ba2494568f95b0c355",
    "DSBM-III": "4242358674790ca06f3c60d508d9eff4448e0b692dcaabf4c5b6873970ebb681",
    "DSBM-IV": "b413912ebcc312b3b7d4003047ad9bdf4c120df4127f9c429058dc4eaed6969f",
    "DSBM-V": "70e6321ce50e33455d9094383fce863ceb45fe4bd1b57fc9be598331f86b0951",
    "DSBM-VI": "49d59ee2ed083f25583664931f159f1f8c1072034bf60502ad565b5f204a4979",
    "MDSBM-I": "8b3644e21f84cffe48cce5906c5221a6b039a75b40adc6abebb492f7d2b1f24d",
    "MDSBM-II": "8054bd7d7b96723e7db3b8846274dfd74155fe3a014db6631f92970a7f251fde",
    "NOCHANGE-SBM-I": "4d698bf0c283e80808b55383462026a247c4dba8ae19753d5678b2aad0f8afc3",
    "NOCHANGE-SBM-II": "b49d40c5a8ef5c7ad0f63579533c37aff07f4c8cb9572dcfbf5b867d153dc9d4",
    "NOCHANGE-SBM-III": "14812be8924078d770e874efbeb7e77c5e3bbd48eaf28f1943b1041b4a28b461",
    "NOCHANGE-SBM-IV": "dd52d940be55d748d4b3eb9fc4fbfab550592fe1115933c103eee7c301cee6dc",
    "NOCHANGE-SBM-V": "515df4f514fbbb01f070a739a09bc49f987ce8e4668f8afe227c29cd71343a2f",
    "NOCHANGE-SBM-VI": "382ccdc471773ec9e211ea5fdbfa56f364a9662948aec2f5d343c4ccd015e2ed",
    "NOCHANGE-SBM-VII": "c00cf931db2b55ac83c7b7406d20d3db49a6c53be1366e12e362a24b8f81644e",
    "NOCHANGE-SBM-VIII": "601b860e57021001dca9b33cdac02c46e0dc8efb39fa58b883cb5e6cb8a6a067",
    "NOCHANGE-SBM-IX": "ee6af66ff24734a8d1da745c107254a90fdb945d08247e663a01cd8153a723b8",
    "NOCHANGE-SBM-X": "43d94eda2f6351b93ce7d33fe206b2064a195276f976b89cfe5e83a5c47f660a",
    "NOCHANGE-SBM-XI": "497591fb3e1de5e1eb74bd9f56c3a70adf245d882086c7845800f50cd8e72f5b",
    "NOCHANGE-GRAPHON-I": "fbf6441c81d6b4cf90eaa92fac62f2d411678dbd678a6f7422470cf90c463f41",
    "NOCHANGE-GRAPHON-II": "51b7defe2b3cf838bc93971edf48cda5f4fd7377909372d9d64ffac397ce1818",
    "NOCHANGE-GRAPHON-III": "579fc272ebc48bf561d3926370da2f937009b0b0573404b58f53cd8b997cdd21",
}
SBM_DIGESTS = {
    "SBM-I": "2310b1b6b981f82de41f09dbb2e63e3db0b93b35e2749fcf218fc2750eae0c87",
    "SBM-II": "cbfe297491f6779a6e65d9622518a3311d617b5b90afd1fd53278aa004a24712",
    "SBM-III": "9307568b2c75879130b9433ae11843475474360f075ba9175336409292e51e52",
    "SBM-IV": "4345c4d5c305d91a9f28f6c574eabf1dddb80badd743b55c8ee1d8b4737259aa",
    "SBM-V": "5dde0d0d0c3bd8e1436cf39a2706a0a2199b81be504a030db9c01714e8317e83",
    "SBM-VI": "f7bc430f402b6d17dbb895136586ebd7a5012f13b26ee8367a62b19a2dbbb57e",
    "SBM-VII": "fa0e9cf0faa7275c05b2255f598d1dfc31199105ddaeec901591f375aeccefba",
    "SBM-VIII": "d2fdade61fbf828321dead151eb9754eee716d6cedb7408feb002d8615961118",
    "SBM-IX": "eccb816ec0d7ad529d7e953f07bce4eadca1172c50e446bcea961d4f18f525c0",
    "SBM-X": "731718bf39e9f6ffffffee211e1a5e43b44980161cd054dc5f55dd5a9c3e508e",
    "SBM-XI": "6e60419ca693b569fdc9fb4631adfc5b04548903bd71d4d77a0839059617fa86",
}


def _sequence_digest(sid: str) -> str:
    seq, truth = scenario_sequence(ScenarioSpec(id=sid, n=PIN_N, T=PIN_T, seed=PIN_SEED))
    h = hashlib.sha256(repr((seq.shape, seq.dtype.str, truth.changepoints)).encode())
    h.update(seq.tobytes())
    for p in truth.segment_matrices:
        h.update(repr((p.shape, p.dtype.str)).encode())
        h.update(p.tobytes())
    return h.hexdigest()


def _sbm_digest(sbm_id: str) -> str:
    h = hashlib.sha256()
    for n in range(1, 41):
        for delta in (0.0, 0.1, 0.25, 0.5):
            h.update(repr((n, delta)).encode())
            try:
                p = sbm_matrix(sbm_id, n, delta)
            except ValueError as exc:
                h.update(str(exc).encode())
            else:
                h.update(repr((p.shape, p.dtype.str)).encode())
                h.update(p.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("sid", sorted(SEQUENCE_DIGESTS))
def test_scenario_bytes_pinned(sid):
    assert _sequence_digest(sid) == SEQUENCE_DIGESTS[sid]


@pytest.mark.parametrize("sbm_id", sorted(SBM_DIGESTS))
def test_sbm_bytes_pinned(sbm_id):
    assert _sbm_digest(sbm_id) == SBM_DIGESTS[sbm_id]
