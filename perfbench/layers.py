"""Per-layer costs, each timed from outside through a module's public functions.

Every name here is ``<module>.<what>_<unit>[.<case>]``; the module is the
beetleswarm module whose functions are called. Inputs are drawn from the
run's seed. Timings are medians over repeats of a calibrated call loop.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

from beetleswarm import (
    BasConfig,
    BsoConfig,
    BsoEngine,
    PsoConfig,
    RandomStream,
    RunRecord,
    catalog,
    clamp_to_bounds,
    harness,
)
from beetleswarm.bas import BasState, bas_step
from beetleswarm.core import uniform_in_space

from spans import Tracer
from workloads import bso_threads

EVAL_PROBLEMS = ("F1", "F7", "F9", "F16", "F17", "F18")
STEP_PROBLEMS = ("F1", "F9", "F16", "PV")


class Sizes:
    """How much to repeat each measurement; smoke mode shrinks everything."""

    def __init__(self, smoke: bool):
        self.min_time = 0.001 if smoke else 0.02
        self.repeats = 1 if smoke else 5
        self.steps = 5 if smoke else 100
        self.spawns = 1 if smoke else 3
        self.pool_iters = 5 if smoke else 100


def per_call_s(fn, sizes: Sizes) -> float:
    """Median seconds per call over repeated loops that each last min_time."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= sizes.min_time:
            break
        n *= 2
    samples = []
    for _ in range(sizes.repeats):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return statistics.median(samples)


def _batch(rng, problem, m):
    lo, hi = problem.space.lower, problem.space.upper
    return lo + rng.random((m, problem.space.dim)) * (hi - lo)


def _step_s(problem, cfg, seed, sizes, tracer=None):
    """Median seconds per BsoEngine.step, and per step outside the objective."""
    totals, selfs = [], []
    for r in range(sizes.repeats):
        engine = BsoEngine(problem if tracer is None else tracer.wrap(problem), cfg, seed=seed + r)
        before = 0.0 if tracer is None else tracer.objective_seconds()
        t0 = perf_counter()
        for _ in range(sizes.steps):
            engine.step()
        total = perf_counter() - t0
        totals.append(total / sizes.steps)
        if tracer is not None:
            selfs.append((total - (tracer.objective_seconds() - before)) / sizes.steps)
    return statistics.median(totals), (statistics.median(selfs) if selfs else None)


def _spawn_s(code: str, src: Path, sizes: Sizes) -> float:
    """Median seconds a fresh interpreter reports for running ``code``."""
    times = []
    for _ in range(sizes.spawns):
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


_IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import beetleswarm.cli; print(time.perf_counter() - t)"
)


def _pool_start_s(sizes: Sizes) -> float:
    times = []
    for _ in range(sizes.spawns):
        t0 = perf_counter()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pool.submit(os.getpid).result()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _pool_overhead_frac(seed: int, sizes: Sizes) -> float:
    """Share of two workers' time not spent on trials, on a small matrix.

    1 - serial / (2 * pooled) for bso and pso on F1, F16 and PV, two
    trials per cell, ``pool_iters`` iterations each.
    """
    cfgs = {"bso": BsoConfig(max_iters=sizes.pool_iters), "pso": PsoConfig(max_iters=sizes.pool_iters)}
    walls = {}
    for threads in (1, 2):
        with bso_threads(threads):
            t0 = perf_counter()
            harness.run_matrix(["bso", "pso"], ["F1", "F16", "PV"], cfgs, 2, seed)
            walls[threads] = perf_counter() - t0
    return 1.0 - walls[1] / (2 * walls[2])


def _records(rng, count: int, iters: int):
    cells = [(a, p) for a in ("bso", "pso") for p in ("F1", "F16", "PV")]
    out = []
    for i in range(count):
        algo, pid = cells[i % len(cells)]
        curve = np.sort(rng.random(iters + 1))[::-1]
        out.append(RunRecord(pid, algo, i // len(cells), {}, curve, np.zeros(2), float(curve[-1]), 0.1))
    return out


def measure(seed: int, smoke: bool, src: Path, scratch: Path) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the trace.* ones, as name -> (value, unit)."""
    sizes = Sizes(smoke)
    rng = np.random.default_rng(seed)
    m: dict[str, tuple[float, str]] = {}
    problems = {pid: catalog.get_problem(pid) for pid in EVAL_PROBLEMS + ("PV", "HB")}

    for pid, p in problems.items():
        layer = "constrained" if pid in ("PV", "HB") else "benchmarks"
        for rows in (50, 1500):
            X = _batch(rng, p, rows)
            stream = RandomStream(seed)
            m[f"{layer}.eval_us.{pid}.m{rows}"] = (per_call_s(lambda: p.evaluate_many(X, stream), sizes) * 1e6, "us")

    stream = RandomStream(seed)
    for shape in ((50, 30), (50, 2)):
        m[f"core.draw_us.{shape[0]}x{shape[1]}"] = (per_call_s(lambda: stream.uniform(shape), sizes) * 1e6, "us")
    f1 = problems["F1"]
    X = 1.2 * _batch(rng, f1, 50)
    m["core.clamp_us.50x30"] = (per_call_s(lambda: clamp_to_bounds(X, f1.space), sizes) * 1e6, "us")
    x = _batch(rng, problems["F16"], 1)[0]
    m["core.evaluate1_us.F16"] = (per_call_s(lambda: problems["F16"].evaluate(x), sizes) * 1e6, "us")

    inits = []
    for r in range(sizes.repeats):
        t0 = perf_counter()
        BsoEngine(f1, BsoConfig(), seed=seed + r)
        inits.append(perf_counter() - t0)
    m["bso.init_ms"] = (statistics.median(inits) * 1e3, "ms")
    tracer = Tracer()
    for pid in STEP_PROBLEMS:
        step, _ = _step_s(problems[pid], BsoConfig(), seed, sizes)
        _, self_s = _step_s(problems[pid], BsoConfig(), seed, sizes, tracer)
        m[f"bso.step_us.{pid}"] = (step * 1e6, "us")
        m[f"bso.step_self_us.{pid}"] = (self_s * 1e6, "us")
    for pid in ("F1", "F16"):
        step, _ = _step_s(problems[pid], PsoConfig().to_bso(), seed, sizes)
        m[f"bso.step_us.{pid}.pso"] = (step * 1e6, "us")

    for pid in ("F16", "F18"):
        p = problems[pid]
        stream = RandomStream(seed)
        x0 = uniform_in_space(stream, p.space)
        delta = 0.3 * float(p.space.widths.max())
        state = BasState(x0, delta, delta / BasConfig().c2_ratio, 0, x0, p.evaluate(x0))
        m[f"bas.step_us.{pid}"] = (per_call_s(lambda: bas_step(state, p, stream), sizes) * 1e6, "us")

    for pid in ("F1", "PV"):
        m[f"catalog.get_problem_us.{pid}"] = (per_call_s(lambda: catalog.get_problem(pid), sizes) * 1e6, "us")
    m["cli.import_ms"] = (_spawn_s(_IMPORT_CLI, src, sizes) * 1e3, "ms")

    m["harness.pool_start_ms"] = (_pool_start_s(sizes) * 1e3, "ms")
    m["harness.pool_overhead_frac"] = (_pool_overhead_frac(seed, sizes), "ratio")
    records = _records(rng, 30, 1000)
    m["harness.summarize_us"] = (per_call_s(lambda: harness.summarize(records), sizes) * 1e6, "us")
    cells = [records[i::6] for i in range(6)]
    summaries = [harness.summarize(c) for c in cells]
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:

        def report():
            harness.compare_report(summaries, tmp)
            for i, c in enumerate(cells):
                harness.export_convergence(c[0], Path(tmp) / f"curve{i}.csv")

        m["harness.report_ms"] = (per_call_s(report, sizes) * 1e3, "ms")
    return m
