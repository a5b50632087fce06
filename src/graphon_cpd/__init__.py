"""Link-probability estimation and change-point detection for dynamic networks."""

from .cliio import parse_edge_csv, write_edge_csv
from .cpd import default_params, detect
from .estim import mnbs_estimate, musvt_estimate
from .evalbench import BENCH_CSV_HEADER, boysen, monte_carlo, signal_level
from .genmodels import (
    ScenarioSpec,
    sample_snapshot,
    sbm_matrix,
    scenario_sequence,
    snapshot_rng,
)
from .netcore import average_adjacency, dist_2inf, dist_frob

__all__ = [
    "BENCH_CSV_HEADER",
    "ScenarioSpec",
    "average_adjacency",
    "boysen",
    "default_params",
    "detect",
    "dist_2inf",
    "dist_frob",
    "mnbs_estimate",
    "monte_carlo",
    "musvt_estimate",
    "parse_edge_csv",
    "sample_snapshot",
    "sbm_matrix",
    "scenario_sequence",
    "signal_level",
    "snapshot_rng",
    "write_edge_csv",
]
