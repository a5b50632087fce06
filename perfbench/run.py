"""End-to-end and per-layer benchmark of graphon_cpd.

    python3 perfbench/run.py --workload dense-n200 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout that holds ``src/graphon_cpd``. Every
measurement runs in a fresh worker process (``worker.py``), so set-up time and
peak RSS belong to the workload alone. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
pass, a one-thread pass, an untraced pass and a tracemalloc pass. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Output digests of the shipped seeds are in
``digests.json``; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Untraced runs set up this many times, each in its own process, and report
# the median set-up time; the last of them also runs the timed phases.
SETUPS = 3
DEADLINE_S = 170.0


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, budget, threads, mode, workdir, deadline, spans_out=None):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--budget", repr(budget), "--mode", mode,
        "--workdir", str(workdir),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, GRAPHON_CPD_THREADS=str(threads))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{mode} pass not started: out of time")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} pass timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["threads"] = threads
    result["mode"] = mode
    return result


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def grade(passes, recorded):
    """Count attempted and failed operations. An operation fails if it raised,
    failed a check, or its digest differs from the recorded one (or, for an
    unrecorded seed, from the first run's). Phase k is compared with entry
    k mod cycle. Returns (attempted, failed, digest status, problems)."""
    cycle = passes[0]["cycle"]
    reference = recorded or passes[0]["digests"][:cycle]
    attempted = failed = matched = 0
    problems = []
    for p in passes:
        for k, (digest, error) in enumerate(zip(p["digests"], p["errors"])):
            attempted += 1
            where = f"{p['mode']} pass, {p['threads']} thread(s), phase {k}"
            expected = reference[k % cycle]
            if digest == expected:
                matched += 1
            elif digest is not None:
                problems.append(f"{where}: digest {digest[:12]} != {str(expected)[:12]}")
            if error is not None:
                problems.append(f"{where}: {error}")
            if error is not None or digest != expected:
                failed += 1
    if recorded is None:
        status = "unchecked"
    else:
        status = "passed" if matched == attempted else "FAILED"
    return attempted, failed, status, problems


def end_to_end(timed, setups):
    return {
        "wall_s": statistics.median(timed["wall_s"]),
        "cpu_s": statistics.median(timed["cpu_s"]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(p["setup_s"] for p in setups + [timed]),
    }


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "graphon_cpd" / "__init__.py").is_file():
        print(f"error: no graphon_cpd package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    workdir = OUT / f"tmp-{os.getpid()}"
    recorded = json.loads((HERE / "digests.json").read_text()).get(
        args.workload, {}).get(str(args.seed))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def worker(budget, threads, mode, spans_out=None):
        return run_worker(args.workload, args.seed, budget, threads, mode,
                          workdir, deadline, spans_out)

    try:
        if args.trace == 0:
            setups = [worker(0, nproc, "setup") for _ in range(SETUPS - 1)]
            passes = [worker(args.seconds, nproc, "plain")]
        else:
            setups = []
            half = args.seconds / 2
            passes = [
                worker(half, nproc, "plain"),
                worker(half, nproc, "trace", OUT / f"spans-{tag}.jsonl"),
                worker(half / 2, 1, "plain"),
                worker(0, 1, "memory"),
            ]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, status, problems = grade(passes, recorded)
    meta = dict(passes[0]["meta"])
    meta.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "nproc": nproc, "python": platform.python_version(),
        "numpy": passes[0]["numpy"], "GRAPHON_CPD_THREADS": nproc,
        "processes": len(setups) + len(passes),
        "phases": sum(len(p["wall_s"]) for p in passes),
        "digests": status,
    })

    if args.trace == 0:
        values = end_to_end(passes[0], setups)
    else:
        plain, traced, serial, memory = passes
        values = dict(traced["layers"])
        untraced_wall = statistics.median(plain["wall_s"])
        values["parallel.speedup"] = statistics.median(serial["wall_s"]) / untraced_wall
        values["trace.overhead_frac"] = statistics.median(traced["wall_s"]) / untraced_wall - 1
        peaks = memory["memory"]["peak_mb"]
        values["cliio.parse_edge_csv.peak_mb"] = peaks.get("cliio.parse_edge_csv", 0.0)
        values["cpd.scan_profile.peak_mb"] = peaks.get("cpd.scan_profile", 0.0)
        meta["peak_stage"] = memory["memory"]["peak_stage"]
        meta["peak_stage_traced_mb"] = memory["memory"]["peak_stage_mb"]
    declared = spec["end_to_end" if args.trace == 0 else "per_layer"]
    if {m["name"] for m in declared} != set(values):
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"# {tag}: {meta['phases']} timed phases in {meta['processes']} processes")
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_frac':42s} {failed / attempted:>16.6f} ratio ({failed} of {attempted})")
    print(f"digests: {status}")
    if args.trace == 1:
        print(f"peak RSS stage: {meta['peak_stage']}")
    for problem in problems:
        print(f"FAILED {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        detail = {
            "setup_s": [p["setup_s"] for p in setups + passes],
            "passes": [{k: p[k] for k in ("mode", "threads", "wall_s", "cpu_s", "peak_rss_mb")}
                       for p in passes],
        }
        json.dump({"meta": meta, "problems": problems, **result, "detail": detail},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
