"""Protocol benchmark for beetleswarm: end-to-end and per-layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload proto-30d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke

``--trace 0`` times the workload's trial matrix and prints the end-to-end
metrics; ``--trace 1`` runs the matrix once untraced and once with spans,
then times each layer, and prints the per-layer metrics. Both check every
trial. Each metric is printed as ``<workload> <name> = <value> <unit>``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (environment, digest,
failures) goes to ``perfbench/out/``. See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TRACE_UNITS = {
    "nfev": "count",
    "eval_calls": "count",
    "evals_per_call": "evals/call",
    "objective_share": "ratio",
    "engine_self_share": "ratio",
}


def import_program():
    """Put this checkout's sources first on the path, or stop."""
    package = SRC / "beetleswarm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: beetleswarm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import beetleswarm

    if Path(beetleswarm.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported beetleswarm from {beetleswarm.__file__}, not from {SRC}")


def git_sha() -> str | None:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def environment(threads: list[int]) -> dict:
    import numpy

    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "src_sha256": h.hexdigest(),
        "bso_threads": threads,
    }


def measure_setup_s(cells, seed: int) -> float:
    """Wall time of a fresh process running setup_probe.py."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(seed), ",".join(f"{a}:{p}" for a, p in cells)],
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0


def recorded_digest(key: str) -> str | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(key)


def run_workload(w, args) -> dict:
    import layers
    import workloads as wl
    from quantile import harrell_davis
    from spans import Tracer

    iters = wl.SMOKE_ITERS if args.smoke else wl.PROTOCOL_ITERS
    n_blocks, per_block = w.blocks(args.seconds, args.trace, args.smoke)
    seed = args.seed
    print(
        f"# {w.name}: {n_blocks} blocks of {len(w.cells)} cells x {per_block} trials, "
        f"{iters} iterations, seeds {seed}..{seed + n_blocks * per_block - 1}, trace {args.trace}"
    )
    metrics: dict[str, tuple[float, str]] = {}
    info: dict[str, tuple[object, str]] = {}

    def serial(base, tracer=None):
        if w.pooled:
            return wl.run_pool(w, per_block, base, iters, threads=1, tracer=tracer)
        return wl.run_serial(w, per_block, base, iters, tracer=tracer)

    # blocks[r][0] is block r's reference pass; its other passes (the pooled
    # matrix, or the traced pass) run the same trials right after it.
    blocks = []
    setup = []
    tracer = Tracer() if args.trace else None
    for r in range(n_blocks):
        base = seed + r * per_block
        if args.trace:
            blocks.append([serial(base), serial(base, tracer)])
            continue
        setup.append(measure_setup_s(w.cells, seed))
        passes = [serial(base)]
        if w.pooled:
            passes.append(wl.run_pool(w, per_block, base, iters, threads=2))
        blocks.append(passes)

    if not args.trace:
        threads = [1, 2] if w.pooled else [1]
        cell_ms: dict[tuple[str, str], list[float]] = {}
        for b in blocks:
            for t in b[0].trials:
                cell_ms.setdefault((t.algorithm, t.problem_id), []).append(t.seconds * 1e3)
        times = [ms for v in cell_ms.values() for ms in v]
        # The gated timings are floors: the fastest set-up, and the matrix
        # as if every trial ran as fast as its cell's fastest trial. On a
        # shared machine other tenants can slow this process by a third or
        # more for minutes at a time, which moves medians and totals between
        # runs; they cannot make a trial faster than the code allows.
        metrics["setup_s"] = (min(setup), "s")
        metrics["wall_s_floor"] = (sum(len(v) * min(v) for v in cell_ms.values()) / 1e3, "s")
        info["wall_s"] = (sum(b[-1].wall_s for b in blocks), "s")
        info["trial_ms_p50"] = (harrell_davis(times, 0.5), "ms")
        info["trial_ms_p90"] = (harrell_davis(times, 0.9), "ms")
        info["trial_samples"] = (len(times), "trials")
        info["setup_s_median"] = (statistics.median(setup), "s")
        if w.pooled:
            serial_wall = sum(b[0].wall_s for b in blocks)
            info["serial_wall_s"] = (serial_wall, "s")
            info["pool_speedup"] = (serial_wall / info["wall_s"][0], "x")
    else:
        threads = [1]
        summary = tracer.summary()
        tracer.save(OUT / f"spans-{w.name}-seed{seed}.npz")
        metrics.update(layers.measure(seed, args.smoke, SRC, OUT))
        for key, unit in TRACE_UNITS.items():
            metrics[f"trace.{key}"] = (summary[key], unit)
        overhead = sum(b[1].wall_s for b in blocks) / sum(b[0].wall_s for b in blocks) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")

    failures = {}
    for r, passes in enumerate(blocks):
        for p, run in enumerate(passes):
            for i, t in enumerate(run.trials):
                errors = wl.check(t, iters)
                if p and wl.digest([t]) != wl.digest([passes[0].trials[i]]):
                    errors.append("result differs from the block's first pass")
                if errors:
                    failures[(r, p, i)] = f"{t.algorithm} {t.problem_id} seed {t.seed}: " + "; ".join(errors)
    attempted = sum(len(run.trials) for passes in blocks for run in passes)
    first = [t for passes in blocks for t in passes[0].trials]
    hit_frac = sum(wl.hit(t) for t in first) / len(first)
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        metrics["hit_frac"] = (hit_frac, "ratio")
    else:
        info["hit_frac"] = (hit_frac, "ratio")
    info["fail_frac"] = (len(failures) / attempted, "ratio")
    info["attempted"] = (attempted, "trials")

    digest = wl.digest(first)
    key = f"{w.name}/B{n_blocks}x{per_block}/K{iters}/seed{seed}"
    recorded = recorded_digest(key)
    verdict = "none recorded" if recorded is None else ("match" if recorded == digest else "MISMATCH")

    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{w.name} {name} = {value:.6g} {unit}" if isinstance(value, float) else f"{w.name} {name} = {value} {unit}")
    print(f"{w.name} digest = {digest} ({key}: {verdict})")
    for message in list(failures.values())[:20]:
        print(f"{w.name} FAILED {message}")
    env = environment(threads)
    print(f"{w.name} env = {json.dumps(env, sort_keys=True)}")

    result = {
        "workload": w.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "blocks": n_blocks,
        "trials_per_cell_per_block": per_block,
        "iterations": iters,
        "digest": digest,
        "digest_key": key,
        "digest_recorded": verdict,
        "env": env,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": list(failures.values()),
        "block_wall_s": [[run.wall_s for run in passes] for passes in blocks],
        "trial_ms": [t.seconds * 1e3 for t in first],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (OUT / f"result-{w.name}-seed{seed}-trace{args.trace}{suffix}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20, help="measured seconds a run is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    results = [run_workload(w, args) for w in chosen]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
