"""Record the output digests of shipped seeds into digests.json.

    python3 perfbench/record_digests.py --seeds 0-20 [--workload dense-n200]

Runs one untraced phase per workload and seed, at nproc threads. Only
outputs that pass the reference checks are recorded. Existing entries are
kept unless they differ, in which case the script stops without writing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(table, workload, seed, nproc, workdir) -> bool:
    result = run.run_worker(workload, seed, 0, nproc, "plain", workdir,
                            time.monotonic() + run.DEADLINE_S)
    errors = [e for e in result["errors"] if e is not None]
    if errors:
        print(f"{workload} seed {seed}: not recorded: {errors}", file=sys.stderr)
        return False
    digests = result["digests"]
    known = table.setdefault(workload, {}).get(str(seed))
    if known is not None and known != digests:
        print(f"{workload} seed {seed}: differs from the recorded digests", file=sys.stderr)
        return False
    table[workload][str(seed)] = digests
    print(workload, seed, " ".join(d[:12] for d in digests))
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,3,5")
    names = [w["name"] for w in run.load_spec()["workloads"]]
    parser.add_argument("--workload", choices=names, action="append")
    args = parser.parse_args()
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text())
    nproc = len(os.sched_getaffinity(0))
    workdir = run.OUT / f"tmp-{os.getpid()}"
    try:
        for workload in args.workload or names:
            for seed in parse_seeds(args.seeds):
                if not record(table, workload, seed, nproc, workdir):
                    return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
