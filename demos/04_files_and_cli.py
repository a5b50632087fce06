"""Round-trip the on-disk formats and drive the command-line interface.

Sequences are exchanged as edge CSVs with header `t,i,j` (0-based times and
node indices, one undirected edge per row) and detection results as a
JSON report. The same operations are available as CLI subcommands; this
script shells out to them the way a pipeline would.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from graphon_cpd import ScenarioSpec, parse_edge_csv, scenario_sequence, write_edge_csv


def cli(*args):
    cmd = [sys.executable, "-m", "graphon_cpd", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout


with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    edges = work / "edges.csv"
    out = work / "report.json"

    seq, truth = scenario_sequence(ScenarioSpec(id="DSBM-I", n=50, T=36, seed=9))
    with open(edges, "w") as fh:
        write_edge_csv(seq, fh)
    print(f"wrote {edges} ({edges.stat().st_size} bytes), true change at {truth.changepoints}")

    with open(edges) as fh:
        reparsed = parse_edge_csv(fh, n=50, T=36)
    print(f"round-trip exact: {(reparsed == seq).all()}")

    cli("detect", str(edges), "--n", "50", "--T", "36", "--out", str(out))
    payload = json.loads(out.read_text())
    print(f"CLI detect: h={payload['h']}, changepoints={payload['changepoints']}")

print(cli("eval", "--est", "48,90", "--truth", "50", "--T", "100").strip())
