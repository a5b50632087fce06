"""Span recorder and memory-stage tracker for the benchmark's traced passes.

Both work by replacing public functions at the module attributes their
callers look up (for example ``graphon_cpd.cpd.mnbs_from_average``), so no
file of the package changes. Spans live in memory until the worker writes
them out at the end of its run.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
import time
import tracemalloc

MIB = 1024 * 1024

# (module name, attribute, layer name). The same layer may be reached through
# several modules, for example ``detect`` is looked up in cpd, cliio and
# evalbench.
WRAPPED = [
    ("estim", "pairwise_distance", "estim.pairwise_distance"),
    ("estim", "neighborhoods", "estim.neighborhoods"),
    ("estim", "mnbs_smooth", "estim.mnbs_smooth"),
    ("cpd", "mnbs_from_average", "estim.mnbs_from_average"),
    ("cpd", "as_adjacency_sequence", "netcore.as_adjacency_sequence"),
    ("cpd", "dist_2inf", "netcore.dist_2inf"),
    ("cpd", "scan_profile", "cpd.scan_profile"),
    ("cpd", "local_maximizers", "cpd.local_maximizers"),
    ("cpd", "detect", "cpd.detect"),
    ("cliio", "detect", "cpd.detect"),
    ("evalbench", "detect", "cpd.detect"),
    ("cliio", "cli_main", "cliio.cli_main"),
    ("cliio", "parse_edge_csv", "cliio.parse_edge_csv"),
    ("cliio", "write_report_json", "cliio.write_report_json"),
    ("cliio", "write_edge_csv", "cliio.write_edge_csv"),
    ("genmodels", "scenario_sequence", "genmodels.scenario_sequence"),
    ("evalbench", "scenario_sequence", "genmodels.scenario_sequence"),
    ("evalbench", "monte_carlo", "evalbench.monte_carlo"),
    ("evalbench", "boysen", "evalbench.boysen"),
]
POOL_MODULES = ("cpd", "evalbench")
POOL = "_parallel.ordered_map"
TASK = "_parallel.task"

# Stages whose peak traced memory the memory pass records.
MEMORY_STAGES = [
    ("genmodels", "scenario_sequence", "genmodels.scenario_sequence"),
    ("evalbench", "scenario_sequence", "genmodels.scenario_sequence"),
    ("cliio", "write_edge_csv", "cliio.write_edge_csv"),
    ("cliio", "parse_edge_csv", "cliio.parse_edge_csv"),
    ("cpd", "scan_profile", "cpd.scan_profile"),
    ("cpd", "local_maximizers", "cpd.local_maximizers"),
    ("cliio", "write_report_json", "cliio.write_report_json"),
]


class Tracer:
    """Records (name, start, end, thread, parent) spans from any thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self.max_live_threads = threading.active_count()
        self.nbhd_ratios: list[float] = []
        self.parsed_rows = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def run(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id, "name": name, "parent": parent,
            "thread": threading.get_ident(), "phase": self.phase,
        }
        stack.append(span_id)
        cpu0 = time.thread_time()
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["cpu"] = time.thread_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs)
        return traced

    def wrap_neighborhoods(self, fn):
        @functools.wraps(fn)
        def traced(dist, q):
            nbhd = self.run("estim.neighborhoods", fn, (dist, q), {})
            # useful neighbours kept per neighbour targeted: mean |N_i| / m
            m = max(1, math.ceil(q * (len(nbhd) - 1)))
            ratio = sum(len(members) for members in nbhd) / (len(nbhd) * m)
            with self._lock:
                self.nbhd_ratios.append(ratio)
            return nbhd
        return traced

    def wrap_parse(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            seq = self.run("cliio.parse_edge_csv", fn, args, kwargs)
            # the benchmark's CSV holds each undirected edge once
            diagonal = seq.diagonal(axis1=1, axis2=2)
            rows = (int((seq != 0).sum()) + int((diagonal != 0).sum())) // 2
            with self._lock:
                self.parsed_rows += rows
            return seq
        return traced

    def wrap_pool(self, fn):
        @functools.wraps(fn)
        def traced(task_fn, items):
            def task(item, pool_id):
                live = threading.active_count()
                with self._lock:
                    self.max_live_threads = max(self.max_live_threads, live)
                return self.run(TASK, task_fn, (item,), {}, parent=pool_id)

            def dispatch(items):
                pool_id = self.current()
                return fn(lambda item: task(item, pool_id), items)

            return self.run(POOL, dispatch, (list(items),), {})
        return traced

    def install(self, modules: dict) -> None:
        for mod, attr, name in WRAPPED:
            module = modules[mod]
            original = getattr(module, attr)
            if attr == "neighborhoods":
                setattr(module, attr, self.wrap_neighborhoods(original))
            elif attr == "parse_edge_csv":
                setattr(module, attr, self.wrap_parse(original))
            else:
                setattr(module, attr, self.wrap(name, original))
        for mod in POOL_MODULES:
            module = modules[mod]
            module.ordered_map = self.wrap_pool(module.ordered_map)


def layer_metrics(tracer: Tracer, phases: int, phase_walls: list[float]) -> dict:
    """Per-layer totals: work in set-up counts once, work in the timed phases
    counts as the mean per phase. busy_ms is thread time net of traced
    children on the same thread, summed over threads."""
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    child_ms: dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            child_ms[parent["id"]] = child_ms.get(parent["id"], 0.0) + _ms(s)

    def per_run(values_by_span, name):
        setup = timed = 0.0
        for s in spans:
            if s["name"] != name:
                continue
            if s["phase"] == "setup":
                setup += values_by_span(s)
            else:
                timed += values_by_span(s)
        return setup + timed / phases

    def busy(name):
        return per_run(lambda s: _ms(s) - child_ms.get(s["id"], 0.0), name)

    def total(name):
        return per_run(_ms, name)

    def calls(name):
        return per_run(lambda s: 1.0, name)

    # Task CPU time on its own thread; a pool that runs inline inside another
    # task (one worker) would count its tasks twice, so nested tasks on the
    # parent task's thread are taken out.
    def task_parent(s):
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != TASK:
            parent = by_id.get(parent["parent"])
        return parent

    timed = [s for s in spans if s["phase"] != "setup"]
    task_cpu = 0.0
    for s in timed:
        if s["name"] == TASK:
            task_cpu += s["cpu"]
            outer = task_parent(s)
            if outer is not None and outer["thread"] == s["thread"]:
                task_cpu -= s["cpu"]
    outer_wall = sum(
        _ms(s) for s in timed if s["name"] == POOL and task_parent(s) is None
    )
    busy_frac = task_cpu * 1000.0 / (outer_wall * _nproc()) if outer_wall else 0.0

    main = threading.get_ident()
    top = sum(_ms(s) for s in timed if s["parent"] is None and s["thread"] == main)
    ratios = tracer.nbhd_ratios
    return {
        "estim.pairwise_distance.busy_ms": busy("estim.pairwise_distance"),
        "estim.pairwise_distance.calls": calls("estim.pairwise_distance"),
        "estim.neighborhoods.busy_ms": busy("estim.neighborhoods"),
        "estim.neighborhoods.size_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "estim.mnbs_smooth.busy_ms": busy("estim.mnbs_smooth"),
        "estim.mnbs_from_average.busy_ms": busy("estim.mnbs_from_average"),
        "estim.mnbs_from_average.calls": calls("estim.mnbs_from_average"),
        "cliio.parse_edge_csv.busy_ms": busy("cliio.parse_edge_csv"),
        "cliio.parse_edge_csv.rows": tracer.parsed_rows / phases,
        "cliio.write_report_json.busy_ms": busy("cliio.write_report_json"),
        "cliio.write_edge_csv.busy_ms": busy("cliio.write_edge_csv"),
        "genmodels.scenario_sequence.busy_ms": busy("genmodels.scenario_sequence"),
        "netcore.as_adjacency_sequence.busy_ms": busy("netcore.as_adjacency_sequence"),
        "netcore.dist_2inf.busy_ms": busy("netcore.dist_2inf"),
        "netcore.dist_2inf.calls": calls("netcore.dist_2inf"),
        "cpd.scan_profile.self_ms": busy("cpd.scan_profile"),
        "cpd.local_maximizers.busy_ms": busy("cpd.local_maximizers"),
        "cpd.detect.busy_ms": busy("cpd.detect"),
        "cpd.detect.total_ms": total("cpd.detect"),
        "parallel.ordered_map.calls": calls(POOL),
        "parallel.ordered_map.tasks": calls(TASK),
        "parallel.ordered_map.wait_ms": busy(POOL),
        "parallel.max_live_threads": float(tracer.max_live_threads),
        "parallel.busy_frac": busy_frac,
        "evalbench.monte_carlo.busy_ms": busy("evalbench.monte_carlo"),
        "evalbench.boysen.calls": calls("evalbench.boysen"),
        "trace.unattributed_ms": (sum(phase_walls) * 1000.0 - top) / phases,
    }


def _ms(span) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class MemoryStages:
    """Peak traced memory per stage, from tracemalloc in a pass of its own.

    A stage's ``peak_mb`` is its peak (nested stages included) above the
    traced memory at its entry. The stage whose own code, outside nested
    stages, holds the highest traced memory of the process is the one that
    sets the peak RSS. Runs on one thread.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = {}
        self.self_peak: dict[str, int] = {}
        self._stack: list[list] = []  # [name, bytes at entry, inclusive peak]

    def _credit(self, frame, peak: int) -> None:
        name = frame[0]
        self.self_peak[name] = max(self.self_peak.get(name, 0), peak)
        frame[2] = max(frame[2], peak)

    def enter(self, name: str) -> None:
        if self._stack:
            self._credit(self._stack[-1], tracemalloc.get_traced_memory()[1])
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self._stack.append([name, current, current])

    def exit(self) -> None:
        frame = self._stack.pop()
        self._credit(frame, tracemalloc.get_traced_memory()[1])
        name, entry, peak = frame
        self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), (peak - entry) / MIB)
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def stage(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def install(self, modules: dict) -> None:
        for mod, attr, name in MEMORY_STAGES:
            module = modules[mod]
            original = getattr(module, attr)

            def staged(*args, _fn=original, _name=name, **kwargs):
                with self.stage(_name):
                    return _fn(*args, **kwargs)

            setattr(module, attr, functools.wraps(original)(staged))

    def peak_stage(self) -> tuple[str, float]:
        name = max(self.self_peak, key=self.self_peak.get)
        return name, self.self_peak[name] / MIB
