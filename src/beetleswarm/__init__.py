"""Beetle swarm optimization toolkit.

Black-box continuous minimization with three related optimizers - beetle
swarm optimization (BSO), single-agent beetle antennae search (BAS) and a
global-best PSO baseline - plus a 23-function benchmark catalog, two
penalty-handled constrained engineering problems, and a seeded experiment
harness with CSV/JSON exports.
"""

from .bas import BasConfig, BasState, run_bas
from .benchmarks import BENCHMARK_IDS
from .bso import BsoConfig, BsoEngine, PsoConfig, SwarmState, inertia_weight, run_bso, run_pso
from .catalog import BenchmarkSpec, evaluate, get_problem, list_problems, problem_ids, spec
from .constrained import (
    CONSTRAINED_IDS,
    ConstrainedProblem,
    PenaltyConfig,
    as_problem,
    constrained_problem,
    penalized_fitness,
)
from .core import (
    Problem,
    RandomStream,
    RunRecord,
    SearchSpace,
    clamp_to_bounds,
    uniform_in_space,
)
from .harness import TrialSummary, compare_report, export_convergence, run_trials

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_IDS",
    "BasConfig",
    "BasState",
    "BenchmarkSpec",
    "BsoConfig",
    "BsoEngine",
    "CONSTRAINED_IDS",
    "ConstrainedProblem",
    "PenaltyConfig",
    "Problem",
    "PsoConfig",
    "RandomStream",
    "RunRecord",
    "SearchSpace",
    "SwarmState",
    "TrialSummary",
    "as_problem",
    "clamp_to_bounds",
    "compare_report",
    "constrained_problem",
    "evaluate",
    "export_convergence",
    "get_problem",
    "inertia_weight",
    "list_problems",
    "penalized_fitness",
    "problem_ids",
    "run_bas",
    "run_bso",
    "run_pso",
    "run_trials",
    "spec",
    "uniform_in_space",
]
