"""The four protocol workloads: their cells, trial loops, checks and digests.

Every workload is a closed loop with one client: a trial starts only when
the previous one has finished, except in the pooled half of
``matrix-pool``. Trial ``i`` of every cell uses seed ``seed + i``; the
program sees nothing but those seeds and the default configs. Why each
workload exists, and which optimisation it exercises or bypasses, is
written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from beetleswarm import (
    BasConfig,
    BsoConfig,
    PsoConfig,
    RunRecord,
    catalog,
    harness,
    run_bas,
    run_bso,
    run_pso,
    spec,
)
from beetleswarm.constrained import CONSTRAINED_IDS, constrained_problem

PROTOCOL_ITERS = 1000
SMOKE_ITERS = 30
# The printed p90 needs at least ten samples beyond it.
MIN_TRIALS = 100

RUNNERS = {"bso": run_bso, "pso": run_pso, "bas": run_bas}


@dataclass(frozen=True)
class Workload:
    """A set of (algorithm, problem) cells, run in blocks.

    A block is ``block_trials`` trials of every cell, a few seconds of
    work; block ``r`` of a run uses trials ``r * block_trials ...`` of each
    cell, so blocks never repeat a seed. Whatever a run compares (serial
    with pooled, untraced with traced) runs block by block, side by side,
    so both sides see the same machine load, and set-up is sampled once
    per block across the run.
    """

    name: str
    cells: tuple[tuple[str, str], ...]  # (algorithm, problem id), run order
    block_trials: int
    # Seconds one trial of every cell takes on a 2-vCPU x86 virtual machine
    # (for the pooled workload: its serial plus its pooled matrix). It sizes
    # a run from --seconds and never depends on the machine the run is on,
    # so a seed always gives the same trials.
    round_s: float
    pooled: bool = False

    def blocks(self, seconds: float, trace: bool, smoke: bool) -> tuple[int, int]:
        """(number of blocks, trials per cell in a block) for a run."""
        if smoke:
            return 2, 1
        block_s = self.block_trials * self.round_s
        if trace:
            # A traced run times each block twice, untraced and traced.
            return max(1, round(seconds / 2 / block_s)), self.block_trials
        least = math.ceil(MIN_TRIALS / (len(self.cells) * self.block_trials))
        return max(least, round(seconds / block_s)), self.block_trials


def _cells(algorithms, problems):
    return tuple((a, p) for a in algorithms for p in problems)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("proto-30d", _cells(("bso", "pso"), ("F1", "F7", "F9")), 3, 1.13),
        Workload("proto-lowdim", _cells(("bso", "pso", "bas"), ("F16", "F17", "F18")), 4, 0.97),
        Workload("constrained", _cells(("bso", "pso"), ("PV", "HB")), 5, 0.73),
        Workload("matrix-pool", _cells(("bso", "pso"), ("F1", "F16", "PV")), 4, 0.97, pooled=True),
    )
}


def configs(iters: int) -> dict:
    return {"bso": BsoConfig(max_iters=iters), "pso": PsoConfig(max_iters=iters), "bas": BasConfig(max_iters=iters)}


@dataclass
class Trial:
    algorithm: str
    problem_id: str
    seed: int
    result: RunRecord | BaseException
    seconds: float


@dataclass
class Pass:
    trials: list[Trial]
    wall_s: float


@contextlib.contextmanager
def bso_threads(value: int):
    """Set BSO_THREADS for the duration, never inheriting the caller's."""
    old = os.environ.get("BSO_THREADS")
    os.environ["BSO_THREADS"] = str(value)
    try:
        yield
    finally:
        if old is None:
            del os.environ["BSO_THREADS"]
        else:
            os.environ["BSO_THREADS"] = old


@contextlib.contextmanager
def patched(patches):
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    for obj, name, value in patches:
        setattr(obj, name, value)
    try:
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


def run_serial(w: Workload, trials: int, seed: int, iters: int, tracer=None) -> Pass:
    """Every cell, trial-major, one call to run_bso/run_pso/run_bas per trial."""
    problems = {pid: catalog.get_problem(pid) for _, pid in w.cells}
    if tracer is not None:
        problems = {pid: tracer.wrap(p) for pid, p in problems.items()}
    cfgs = configs(iters)
    out = []
    with bso_threads(1):
        start = perf_counter()
        for i in range(trials):
            for algo, pid in w.cells:
                if tracer is not None:
                    tracer.begin_trial()
                t0 = perf_counter()
                try:
                    result = RUNNERS[algo](problems[pid], cfgs[algo], seed=seed + i)
                except Exception as exc:  # a failed trial is counted, not fatal
                    traceback.print_exc()
                    result = exc
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.end_trial()
                out.append(Trial(algo, pid, seed + i, result, dt))
        wall = perf_counter() - start
    return Pass(out, wall)


def run_pool(w: Workload, trials: int, seed: int, iters: int, threads: int, tracer=None) -> Pass:
    """One ``harness.run_matrix`` call over the workload's cells.

    run_matrix returns only per-cell summaries, so its records are captured
    on their way into ``harness.summarize``, which it calls in this
    process for both the serial and the pooled path. A trial's time is the
    record's own ``wall_time_s``. With a tracer (serial only), the catalog
    lookup returns a traced problem and ``harness.run_one`` gets a trial span.
    """
    algorithms = list(dict.fromkeys(a for a, _ in w.cells))
    problem_ids = list(dict.fromkeys(p for _, p in w.cells))
    cfgs = configs(iters)
    captured: list[RunRecord] = []
    summarize = harness.summarize

    def capture(records):
        captured.extend(records)
        return summarize(records)

    patches = [(harness, "summarize", capture)]
    if tracer is not None:
        if threads != 1:
            raise ValueError("only the serial matrix can be traced")
        get_problem, run_one = catalog.get_problem, harness.run_one

        def traced_run_one(*args):
            tracer.begin_trial()
            try:
                return run_one(*args)
            finally:
                tracer.end_trial()

        patches += [
            (catalog, "get_problem", lambda pid: tracer.wrap(get_problem(pid))),
            (harness, "run_one", traced_run_one),
        ]
    expected = [(a, p, seed + i) for a in algorithms for p in problem_ids for i in range(trials)]
    with patched(patches), bso_threads(threads):
        start = perf_counter()
        try:
            harness.run_matrix(algorithms, problem_ids, {a: cfgs[a] for a in algorithms}, trials, seed)
            error = None
        except Exception as exc:  # the whole matrix failed
            traceback.print_exc()
            error = exc
        wall = perf_counter() - start
    if error is None and len(captured) != len(expected):
        error = RuntimeError(f"captured {len(captured)} records, expected {len(expected)}")
    if error is not None:
        return Pass([Trial(a, p, s, error, math.nan) for a, p, s in expected], wall)
    return Pass([Trial(a, p, s, r, r.wall_time_s) for (a, p, s), r in zip(expected, captured)], wall)


def check(trial: Trial, iters: int) -> list[str]:
    """Every way the trial's record is wrong; empty when it is right."""
    rec = trial.result
    if isinstance(rec, BaseException):
        return [f"raised {type(rec).__name__}: {rec}"]
    problem = catalog.get_problem(trial.problem_id)
    errors = []
    if (rec.algorithm, rec.problem_id, rec.seed) != (trial.algorithm, trial.problem_id, trial.seed):
        errors.append(f"record is for {(rec.algorithm, rec.problem_id, rec.seed)}")
    curve = rec.curve
    if curve.shape != (iters + 1,):
        errors.append(f"curve has shape {curve.shape}, expected ({iters + 1},)")
    elif not np.all(np.diff(curve) <= 0):
        errors.append("curve increases")
    if not (curve.size and rec.best_f == curve[-1]):
        errors.append("best_f differs from the last curve point")
    x = rec.best_x
    if x.shape != (problem.space.dim,) or not (np.all(x >= problem.space.lower) and np.all(x <= problem.space.upper)):
        errors.append("best_x is outside the box")
    elif not problem.stochastic and problem.evaluate(x) != rec.best_f:
        errors.append("re-evaluating best_x does not give best_f")
    return errors


def _near(fmin: float, tol: float):
    return lambda f: abs(f - fmin) <= tol


HIT = {
    "F1": lambda f: f <= 1e-8,
    "F7": lambda f: f <= 0.02,
    "F9": lambda f: f <= 1.0,
    "F16": _near(spec("F16").fmin, 1e-3),
    "F17": _near(spec("F17").fmin, 1e-3),
    "F18": _near(spec("F18").fmin, 1e-2),
}


def hit(trial: Trial) -> bool:
    """Whether the trial reached the workload's stated accuracy."""
    rec = trial.result
    if isinstance(rec, BaseException):
        return False
    if rec.problem_id in CONSTRAINED_IDS:
        cp = constrained_problem(rec.problem_id)
        return cp.feasible(cp.snap(rec.best_x))
    return bool(HIT[rec.problem_id](rec.best_f))


def digest(trials: list[Trial]) -> str:
    """SHA-256 over problem, algorithm, seed and the exact bits of each result."""
    h = hashlib.sha256()
    for t in trials:
        h.update(f"{t.problem_id}|{t.algorithm}|{t.seed}|".encode())
        rec = t.result
        if isinstance(rec, BaseException):
            h.update(b"raised")
            continue
        h.update(struct.pack("<d", rec.best_f))
        h.update(np.ascontiguousarray(rec.curve, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(rec.best_x, dtype="<f8").tobytes())
    return h.hexdigest()
