"""Statistical experiment runner and report/export formats.

A "trial" is one full optimizer run; ``run_trials`` repeats a run ``n_trials``
times with seeds ``base_seed + i`` and reduces the final best fitnesses to
mean / sample standard deviation / best, plus the mean wall-clock time. Trials
are independent, so with ``BSO_THREADS`` set above 1 they execute in a process
pool that receives the caller's own problem and config objects (so both must
pickle); because every trial owns its seed, the parallel and serial paths
produce identical records (timings aside). A trial that raises ends the run at
once on either path, with a note naming the trial on its exception; the pool
cancels the trials not yet queued for a worker, but up to 2 x workers + 1
running or queued ones run on, and the interpreter waits for them at exit.

Exports: per-run convergence curves as two-column CSV at full double
precision, and cross-algorithm comparison reports as JSON plus an aligned
plain-text table carrying the same numbers.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .bas import BasConfig, run_bas
from .bso import BsoConfig, PsoConfig, run_bso, run_pso
from .core import Problem, RunRecord, check_int, checked_config, shown

# name -> (config type, runner(problem, config, seed=...))
ALGORITHMS = {"bso": (BsoConfig, run_bso), "bas": (BasConfig, run_bas), "pso": (PsoConfig, run_pso)}

REPORT_SCHEMA = "beetleswarm-compare-v1"
REPORT_FILES = ("report.json", "report.txt")  # what compare_report writes into its destination


@dataclass(frozen=True)
class TrialSummary:
    """Statistics of one (algorithm, problem) cell over repeated trials.

    ``std`` is the sample standard deviation (divisor n-1); a single trial
    reports 0 by convention. ``source`` is "computed" for cells produced
    by this harness; externally supplied literature rows use
    "literature" and may omit seeds. Any other source, fewer than one
    trial, or a statistic that is not a real number (NaN is one) is an
    error.
    """

    problem_id: str
    algorithm: str
    n_trials: int
    ave: float
    std: float
    ave_time_s: float
    best: float
    seeds: tuple[int, ...] = ()
    source: str = "computed"

    def __post_init__(self):
        object.__setattr__(self, "n_trials", check_int(self.n_trials, "n_trials"))  # a plain int, for JSON
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.source not in ("computed", "literature"):
            raise ValueError(f"source must be 'computed' or 'literature', got {self.source!r}")
        for name in ("ave", "std", "ave_time_s", "best"):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {shown(value)}")
        if self.std < 0:
            raise ValueError("std must be nonnegative")
        if self.best > self.ave and not math.isclose(self.best, self.ave, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("best trial cannot exceed the mean")
        if self.source == "computed" and self.n_trials != len(self.seeds):
            raise ValueError("n_trials must equal the number of seeds")

    def to_dict(self) -> dict:
        values = asdict(self)  # the fields in their order, problem_id renamed and seeds a list for JSON
        return {"problem": values.pop("problem_id"), **values, "seeds": list(self.seeds)}


def _algorithm(name: str) -> tuple:
    """``ALGORITHMS[name]``, (config type, runner); an unknown name is a KeyError."""
    if name not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}")
    return ALGORITHMS[name]


def run_one(algorithm: str, problem: Problem, config, seed: int) -> RunRecord:
    """Dispatch a single seeded run to the named optimizer; an exception it raises names the run in its notes."""
    runner = _algorithm(algorithm)[1]
    try:
        return runner(problem, config, seed=seed)
    except Exception as exc:
        # what add_note does on Python 3.11+, written out so that 3.10 keeps the note too
        exc.__notes__ = [*getattr(exc, "__notes__", []), f"{algorithm} on {problem.id}, seed {seed}"]
        raise


def worker_count() -> int:
    """Pool size from BSO_THREADS (default 1); anything but a positive integer up to the CPU count is an error."""
    raw = os.environ.get("BSO_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"BSO_THREADS must be a positive integer, got {raw!r}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise ValueError(f"BSO_THREADS must not exceed the CPU count ({cpus}), got {raw!r}")
    return workers


def _seeds(n_trials: int, base_seed: int) -> list[int]:
    n_trials, base_seed = check_int(n_trials, "n_trials"), check_int(base_seed, "base_seed")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    return list(range(base_seed, base_seed + n_trials))


def _run_jobs(jobs: list[tuple[str, Problem, object, int]]) -> list[RunRecord]:
    """Run (algorithm, problem, config, seed) jobs, in a pool if BSO_THREADS > 1.

    Every job's algorithm, config type and box are checked first, so a plan that cannot run raises before any job runs
    or is pooled. Records come back in job order either way, and the error raised is the earliest failing job's, as
    soon as the jobs before it are done. In the pool, ``Executor.map`` then cancels the jobs not yet queued; up to 2 x
    workers + 1 running or queued run on, and the interpreter, not the caller, waits for them at exit.
    """
    workers = worker_count()
    for algorithm, problem, config, _ in jobs:
        checked_config(problem, algorithm, _algorithm(algorithm)[0], config)
    if workers < 2 or len(jobs) < 2:
        return [run_one(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # here, so serial runs never load multiprocessing
    pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
    try:
        return list(pool.map(run_one, *zip(*jobs)))
    finally:
        pool.shutdown(wait=False)


def run_trial_records(
    algorithm: str, problem: Problem, config, n_trials: int, base_seed: int
) -> list[RunRecord]:
    """All trial records for one cell, seeds base_seed..base_seed+n-1."""
    return _run_jobs([(algorithm, problem, config, s) for s in _seeds(n_trials, base_seed)])


def summarize(records: list[RunRecord]) -> TrialSummary:
    """Reduce trial records for one cell to a TrialSummary."""
    if not records:
        raise ValueError("no records to summarize")
    finals = np.array([r.best_f for r in records], dtype=float)
    times = np.array([r.wall_time_s for r in records], dtype=float)
    finite = np.isfinite(finals).all()  # np.std over an infinite value warns, and its result is NaN all the same
    std = 0.0 if finals.size == 1 else float(np.std(finals, ddof=1)) if finite else math.nan
    mixed = not finite and np.inf in finals and -np.inf in finals  # np.mean over +inf and -inf warns, and gives NaN
    return TrialSummary(
        problem_id=records[0].problem_id,
        algorithm=records[0].algorithm,
        n_trials=len(records),
        ave=math.nan if mixed else float(np.mean(finals)),
        std=std,
        ave_time_s=float(np.mean(times)),
        best=float(np.min(finals)),
        seeds=tuple(r.seed for r in records),
    )


def run_trials(
    algorithm: str, problem: Problem, config, n_trials: int, base_seed: int
) -> TrialSummary:
    """Run one (algorithm, problem) cell and summarize it."""
    return summarize(run_trial_records(algorithm, problem, config, n_trials, base_seed))


def run_matrix(
    algorithms: list[str],
    problem_ids: list[str],
    configs: dict[str, object],
    n_trials: int,
    base_seed: int,
) -> list[TrialSummary]:
    """Full algorithms x problems matrix, one summary per cell.

    Each problem id is looked up once, here; an algorithm or problem named
    twice (``F16`` and ``f16`` are one problem) raises before any job runs,
    as its cell would run twice. All (algorithm, problem,
    trial) jobs are independent, so with BSO_THREADS > 1 they share one
    process pool; aggregation happens here, in submission order, which
    keeps the summaries identical to a serial run.
    """
    seeds = _seeds(n_trials, base_seed)
    if missing := [algo for algo in algorithms if algo not in configs]:
        raise KeyError(f"configs has no config for {', '.join(missing)}")
    problems = [catalog.get_problem(pid) for pid in problem_ids]
    lists = (("algorithm", algorithms), ("problem", [p.id for p in problems]))
    if repeats := [f"{kind} {name}" for kind, names in lists for name in dict.fromkeys(names) if names.count(name) > 1]:
        raise ValueError(f"repeated {', '.join(repeats)}: each cell runs once")
    records = _run_jobs([(algo, p, configs[algo], s) for algo in algorithms for p in problems for s in seeds])
    return [summarize(records[i : i + len(seeds)]) for i in range(0, len(records), len(seeds))]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def export_convergence(record: RunRecord, destination) -> Path:
    """Write the best-so-far curve as CSV, one row per iteration.

    Values are printed with 17 significant digits so a round-trip parse
    reproduces the in-memory curve bit-exactly.
    """
    if record.curve.size == 0:
        raise ValueError("record has an empty curve")
    path = Path(destination)
    lines = ["iteration,best_fitness"]
    lines.extend(f"{i},{v:.17g}" for i, v in enumerate(record.curve))
    path.write_text("\n".join(lines) + "\n")
    return path


def strict_json(doc) -> str:
    """``doc`` as indented strict JSON, each non-finite float written as null; a finite doc keeps json.dumps' bytes."""

    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(doc), indent=2, allow_nan=False)


def _format_table(problems: list[str], algorithms: list[str], cells: dict) -> str:
    headers = ["problem"]
    for algo in algorithms:
        headers += [f"{algo}_ave", f"{algo}_std", f"{algo}_time_s"]
    rows = [headers]
    for pid in problems:
        row = [pid]
        for algo in algorithms:
            cell = cells[pid][algo]
            # repr() of a float is its shortest exact form, the same one the
            # JSON report carries, so both documents parse to identical numbers
            row += [repr(cell["ave"]), repr(cell["std"]), repr(cell["ave_time_s"])]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    out = []
    for r in rows:
        out.append("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


def compare_report(summaries: list[TrialSummary], destination, configs: dict | None = None) -> tuple[Path, Path]:
    """Write report.json and report.txt for a problems x algorithms matrix.

    Every algorithm must cover the same problem set; anything missing or
    extra is an error that names the offending cells. ``configs`` maps an
    algorithm to the config its cells ran with; given, report.json ends with
    their ``to_dict()`` under ``"configs"``, and the other keys keep their bytes.
    """
    if not summaries:
        raise ValueError("no summaries to report")
    algorithms: list[str] = []
    problems: list[str] = []
    cells: dict[str, dict[str, dict]] = {}
    for s in summaries:
        if s.algorithm not in algorithms:
            algorithms.append(s.algorithm)
        if s.problem_id not in problems:
            problems.append(s.problem_id)
        cells.setdefault(s.problem_id, {})
        if s.algorithm in cells[s.problem_id]:
            raise ValueError(f"duplicate cell ({s.problem_id}, {s.algorithm})")
        cells[s.problem_id][s.algorithm] = s.to_dict()

    missing = [f"({pid}, {algo})" for pid in problems for algo in algorithms if algo not in cells[pid]]
    if missing:
        raise ValueError(f"algorithms cover different problem sets; missing cells: {missing}")

    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": REPORT_SCHEMA,
        "algorithms": algorithms,
        "problems": problems,
        "cells": cells,
    }
    if configs is not None:
        doc["configs"] = {algo: config.to_dict() for algo, config in configs.items()}
    json_path, text_path = (dest / name for name in REPORT_FILES)
    json_path.write_text(strict_json(doc) + "\n")
    text_path.write_text(_format_table(problems, algorithms, cells))
    return json_path, text_path
