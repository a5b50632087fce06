"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
module and name. These checks fail when a rename or a changed call chain
would leave its layers silently empty. They read perfbench/ and change
nothing there."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: the tracer replaces module attributes for
# good. argv holds perfbench/ and src/.
TRACED = """
import sys
sys.path[:0] = sys.argv[1:3]
from graphon_cpd import cliio, cpd, estim, evalbench, genmodels
import tracing

modules = {"cliio": cliio, "cpd": cpd, "estim": estim,
           "evalbench": evalbench, "genmodels": genmodels}
missing = [(mod, attr) for mod, attr, _ in tracing.WRAPPED if not hasattr(modules[mod], attr)]
assert not missing, f"tracing.WRAPPED names missing attributes: {missing}"
tracer = tracing.Tracer()
tracer.install(modules)
layers = ["cpd.detect", "cpd.scan_profile", "estim.mnbs_from_average",
          "estim.neighborhoods", "estim.mnbs_smooth", "netcore.dist_2inf"]
# Stacks of 8 windows at n = 60 and of one at n = 200: the chains screen
# their distances on counts and never call pairwise_distance.
for n in (60, 200):
    seq, _ = genmodels.scenario_sequence(genmodels.ScenarioSpec("DSBM-I", n, 8, 1))
    tracer.spans.clear()
    cpd.detect(seq, cpd.DetectorParams(h=2))
    names = {span["name"] for span in tracer.spans}
    absent = [layer for layer in layers if layer not in names]
    assert not absent, f"n={n}: no spans for {absent}"
    assert "estim.pairwise_distance" not in names, f"n={n}: pairwise_distance ran"
    assert tracer.nbhd_ratios
print("ok")
"""


def test_tracer_layers_still_record():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
