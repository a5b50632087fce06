"""One benchmark process: set up one workload, run timed phases, check outputs.

Started by ``run.py`` in a fresh interpreter so that set-up (imports plus
input generation) and peak RSS belong to this workload alone. Prints one
JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload dense-n200 --seed 1 --budget 8 \
        --mode plain --workdir perfbench/out/tmp
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from graphon_cpd import cliio, cpd, estim, evalbench, genmodels  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

MODULES = {
    "cliio": cliio, "cpd": cpd, "estim": estim,
    "evalbench": evalbench, "genmodels": genmodels,
}
MC_REPS = 6


def sub_seed(seed: int, tag: str) -> int:
    """Independent 63-bit seed per input of a workload."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- workloads ---------------------------------------------------------------
# Each set-up returns (inputs, meta). Each run performs the operation of one
# timed phase and returns (bytes, error); phase k of a workload with c inputs
# uses input k mod c, and its output is compared with recorded digest k mod c.
# Runs read package functions through their modules at call time, so traced
# passes see the wrapped versions.

def setup_dense(seed, workdir):
    specs = [
        genmodels.ScenarioSpec("DSBM-I", 200, 100, sub_seed(seed, "DSBM-I")),
        genmodels.ScenarioSpec("NOCHANGE-GRAPHON-II", 200, 100, sub_seed(seed, "GRAPHON-II")),
    ]
    seqs = [genmodels.scenario_sequence(spec)[0] for spec in specs]
    params = cpd.default_params(100, 200)
    meta = {
        "n": 200, "T": 100, "h": params.h, "windows": 100 - params.h + 1,
        "input_bytes": sum(s.nbytes for s in seqs), "csv_bytes": 0,
    }
    return {"seqs": seqs, "params": params}, meta


def run_dense(inp, k):
    seq = inp["seqs"][k % len(inp["seqs"])]
    return _guard(lambda: cliio.dumps_json(
        cliio.report_to_dict(cpd.detect(seq, inp["params"]))).encode())


def setup_edges(seed, workdir):
    n, T = 60, 800
    spec = genmodels.ScenarioSpec("MDSBM-I", n, T, sub_seed(seed, "MDSBM-I"))
    seq = genmodels.scenario_sequence(spec)[0]
    csv_path = workdir / f"edges-{os.getpid()}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        cliio.write_edge_csv(seq, fh)
    params = cpd.default_params(T, n)
    meta = {
        "n": n, "T": T, "h": params.h, "windows": T - params.h + 1,
        "input_bytes": seq.nbytes, "csv_bytes": csv_path.stat().st_size,
    }
    out = workdir / f"report-{os.getpid()}.json"
    argv = ["detect", str(csv_path), "--n", str(n), "--T", str(T), "--out", str(out)]
    return {"seqs": [seq], "params": params, "out": out, "argv": argv}, meta


def run_edges(inp, k):
    out = inp["out"]

    def op():
        out.unlink(missing_ok=True)
        code = cliio.cli_main(inp["argv"])
        if code != 0:
            raise RuntimeError(f"cli_main exit code {code}")
        return out.read_bytes()

    return _guard(op)


def setup_montecarlo(seed, workdir):
    spec = genmodels.ScenarioSpec("DSBM-IV", 100, 100, sub_seed(seed, "DSBM-IV"))
    h = cpd.default_params(100, 100).h
    meta = {
        "n": 100, "T": 100, "h": h, "windows": MC_REPS * (100 - h + 1),
        "input_bytes": MC_REPS * 100 * 100 * 100, "csv_bytes": 0, "reps": MC_REPS,
    }
    return {"spec": spec}, meta


def run_montecarlo(inp, k):
    return _guard(lambda: evalbench.monte_carlo(inp["spec"], MC_REPS).csv_line().encode())


# name: (set-up, run, number of inputs a cycle of phases goes through)
WORKLOADS = {
    "dense-n200": (setup_dense, run_dense, 2),
    "edges-longT": (setup_edges, run_edges, 1),
    "montecarlo-n100": (setup_montecarlo, run_montecarlo, 1),
}


def _guard(op):
    # Benchmark boundary: any exception is one failed operation, not a crash.
    try:
        return op(), None
    except Exception as exc:  # noqa: BLE001
        return None, f"{type(exc).__name__}: {exc}"


def check_output(workload, seed, inp, k, output) -> str | None:
    """Seed-independent checks of one output (see reference.py): a problem
    summary, or None when it checks out."""
    if workload == "montecarlo-n100":
        spec = inp["spec"]
        found = reference.check_bench_row(
            output.decode(), spec.id, spec.n, spec.T, MC_REPS)
    else:
        rng = np.random.default_rng(sub_seed(seed, f"spot{k}"))
        report = json.loads(output)
        seq = inp["seqs"][k]
        found = reference.check_report(
            report, seq, inp["params"], reference.spot_points(report, rng))
    return "; ".join(found) if found else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed phases; at least one cycle runs")
    parser.add_argument("--mode", choices=["setup", "plain", "trace", "memory"],
                        default="plain", help="setup: set up and exit")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()
    setup, run, cycle = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)

    tracer = memory = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(MODULES)
    elif args.mode == "memory":
        tracemalloc.start()
        memory = tracing.MemoryStages()
        memory.install(MODULES)
        memory.enter("benchmark.setup")

    inp, meta = setup(args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    if memory:
        memory.exit()

    walls, cpus, digests, errors = [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    # Whole cycles only, so each input is timed equally often; a new cycle
    # starts only if the mean cycle so far still fits in the budget.
    while args.mode != "setup":
        k = len(walls)
        if tracer:
            tracer.phase = k
        if memory:
            memory.enter("benchmark.phase")
        c0, w0 = time.process_time(), time.perf_counter()
        output, error = run(inp, k)
        w1, c1 = time.perf_counter(), time.process_time()
        if memory:
            memory.exit()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        digests.append(hashlib.sha256(output).hexdigest() if output is not None else None)
        if error is None and k < cycle and args.mode == "plain":
            error = check_output(args.workload, args.seed, inp, k, output)
        errors.append(error)
        if len(walls) % cycle:
            continue
        if peak_rss_mb is None:
            # after one cycle, so repeats do not raise it through fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        cycles = len(walls) // cycle
        if memory or elapsed + elapsed / cycles > args.budget:
            break

    result = {
        "setup_s": setup_s,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        "cycle": cycle,
        "digests": digests,
        "errors": errors,
        "meta": meta,
        "numpy": np.__version__,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, len(walls), walls)
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    if memory:
        stage, stage_mb = memory.peak_stage()
        result["memory"] = {
            "peak_mb": memory.peak_mb, "peak_stage": stage, "peak_stage_mb": stage_mb,
        }
        tracemalloc.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
