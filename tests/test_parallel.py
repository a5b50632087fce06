import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from graphon_cpd import _parallel
from graphon_cpd._parallel import one_blas_thread
from graphon_cpd.estim import pairwise_distance


def blas_threads(controls=None):
    return [get() for get, _ in controls or _parallel.openblas_thread_controls()]


@pytest.fixture
def three_blas_threads():
    """Every loaded OpenBLAS set to 3 threads, a count no default gives here."""
    controls = _parallel.openblas_thread_controls()
    if not controls:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    before = blas_threads()
    for _, set_ in controls:
        set_(3)
    yield
    for (_, set_), count in zip(controls, before):
        set_(count)


def test_finds_numpys_openblas():
    # Discovery reads /proc/self/maps, so it needs Linux and an OpenBLAS numpy.
    if not sys.platform.startswith("linux"):
        pytest.skip("no /proc/self/maps")
    if "openblas" not in str(np.show_config(mode="dicts")).lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert _parallel.openblas_thread_controls()


def test_holds_one_thread_and_restores(three_blas_threads):
    with one_blas_thread:
        assert set(blas_threads()) == {1}
    assert set(blas_threads()) == {3}


def test_nested_entries_restore_on_last_exit(three_blas_threads):
    with one_blas_thread:
        with one_blas_thread:
            assert set(blas_threads()) == {1}
        assert set(blas_threads()) == {1}
    assert set(blas_threads()) == {3}


def test_restores_after_exception(three_blas_threads):
    with pytest.raises(RuntimeError):
        with one_blas_thread:
            raise RuntimeError("inside")
    assert set(blas_threads()) == {3}
    with one_blas_thread:
        assert set(blas_threads()) == {1}
    assert set(blas_threads()) == {3}


def test_overlapping_entries_from_two_threads(three_blas_threads):
    # A enters, B enters, A exits while B is inside, B exits.
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with one_blas_thread:
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def second():
        assert a_in.wait(10)
        with one_blas_thread:
            b_in.set()
            assert a_out.wait(10)
            seen["after A left"] = blas_threads()

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(10)
        assert not worker.is_alive()
    assert set(seen["after A left"]) == {1}
    assert set(blas_threads()) == {3}


def test_many_threads_never_see_the_saved_count(three_blas_threads):
    # A lost update of the entry count would restore 3 while a thread is inside.
    inside = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def loop():
            for _ in range(200):
                with one_blas_thread:
                    inside.extend(blas_threads())

        workers = [threading.Thread(target=loop) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert set(inside) == {1}
    assert set(blas_threads()) == {3}


def test_without_openblas_is_a_no_op(monkeypatch):
    rng = np.random.default_rng(4)
    abar = rng.integers(0, 2, size=(50, 50)) / 7.0
    abar = np.triu(abar) + np.triu(abar, 1).T
    expected = pairwise_distance(abar).tobytes()
    controls = _parallel.openblas_thread_controls()
    before = blas_threads(controls)
    monkeypatch.setattr(_parallel, "openblas_thread_controls", lambda: ())
    with one_blas_thread:
        assert blas_threads(controls) == before
    assert pairwise_distance(abar).tobytes() == expected


BITS = """
import hashlib
import numpy as np
from graphon_cpd import (ScenarioSpec, average_adjacency, mnbs_estimate, musvt_estimate,
                         scenario_sequence)
from graphon_cpd import estim
from graphon_cpd.cpd import DetectorParams, scan_profile
estim.pairwise_distance = None  # every MNBS estimate screens its distances on counts
seq, _ = scenario_sequence(ScenarioSpec(id="DSBM-I", n=300, T=12, seed=1))
estimate = mnbs_estimate(seq, 1, 3)
values = np.asarray(scan_profile(seq, DetectorParams(h=3)).values)
spectral = musvt_estimate(average_adjacency(seq, 1, 10), 10)
small, _ = scenario_sequence(ScenarioSpec(id="MDSBM-I", n=60, T=40, seed=1))
stacked = np.asarray(scan_profile(small, DetectorParams(h=3)).values)
print(hashlib.sha256(estimate.tobytes() + values.tobytes() + spectral.tobytes()
                     + stacked.tobytes()).hexdigest())
"""


def test_bits_independent_of_openblas_threads():
    # At n = 300 OpenBLAS splits the G = Abar² product and musvt's eigh across
    # its threads, which changes their last bits (and G's neighbour sets);
    # the MNBS estimates go through the integer-count screen, whose counts
    # are exact, but whose tied pairs take float64 distances from G. The
    # n = 60 scan estimates its windows in stacks of 8.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, GRAPHON_CPD_THREADS="2",
                   PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", BITS], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
