"""Command-line front end.

Three subcommands bind the catalog, optimizers and harness together:

* ``run``          one seeded optimizer run -> run.json + curve.csv
* ``bench``        a problems x algorithms trial matrix -> report.json/.txt
* ``constrained``  the engineering problems -> best feasible solution found

Every invocation writes back the fully resolved configuration (defaults
applied, flags merged over any ``--config`` file), so each output is
self-describing and exactly reproducible. Exit codes: 0 success, 2 usage
error, 3 no feasible solution found, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog
from .constrained import CONSTRAINED_IDS, constrained_problem
from .harness import (
    ALGORITHMS,
    REPORT_FILES,
    compare_report,
    export_convergence,
    run_matrix,
    run_one,
    run_trial_records,
    summarize,
    worker_count,
)

RUN_SCHEMA = "beetleswarm-run-v1"
CONSTRAINED_SCHEMA = "beetleswarm-constrained-v1"

# Keys a --config file may carry besides optimizer tunables, per command; another command's key is an error.
RUN_LEVEL_KEYS = {
    "run": {"algorithm", "problem", "seed", "out"},
    "bench": {"algorithms", "problems", "n_trials", "base_seed", "out"},
    "constrained": {"algorithm", "problem", "n_trials", "base_seed", "out"},
}
_ANY_RUN_KEY = set().union(*RUN_LEVEL_KEYS.values())
# Parsed arguments that are not config keys; every other flag's dest is the key it overrides.
_NOT_KEYS = {"command", "handler", "config", "list", "pop"}


class UsageError(Exception):
    """Bad invocation; reported on stderr with exit code 2."""


def _settings(args) -> dict:
    """The --config file's values with every given flag laid over them (--pop aside, as bas ignores it)."""
    settings = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(settings, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    settings.update((k, v) for k, v in vars(args).items() if v is not None and k not in _NOT_KEYS)
    for key in sorted(settings.keys() & _ANY_RUN_KEY - RUN_LEVEL_KEYS[args.command]):
        hint = "; use base_seed (trial i runs at seed base_seed + i)" if key == "seed" else ""
        raise UsageError(f"config key {key!r} does not apply to {args.command}{hint}")
    return settings


def _setting(settings: dict, key: str, kind: type, default=None):
    """One run-level value, checked against its JSON type; no default means the key is required."""
    if key not in settings and default is None:
        raise UsageError(f"no {key} given (use a flag or a config file)")
    value = settings.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        name = "an integer" if kind is int else "a string"
        raise UsageError(f"config key {key!r} must be {name}, got {value!r}")
    return value


def _check_algorithm(algo: str) -> str:
    algo = str(algo).lower()
    if algo not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algo!r} (choose from {', '.join(ALGORITHMS)})")
    return algo


def _algo_list(value) -> list[str]:
    """Checked algorithm names, repeats dropped, first occurrences kept in order."""
    names = value if isinstance(value, (list, tuple)) else [a for a in str(value).split(",") if a.strip()]
    if not names:
        raise UsageError("no algorithms given")
    return list(dict.fromkeys(_check_algorithm(a) for a in names))


def _check_problem(problem_id: str) -> str:
    key = str(problem_id).upper()
    if key not in catalog.problem_ids():
        raise UsageError(f"unknown problem {problem_id}")
    return key


def _expand_problems(spec_str) -> list[str]:
    """Comma list with F-range support: "F1..F4,F16" -> F1 F2 F3 F4 F16; repeats dropped."""
    if isinstance(spec_str, (list, tuple)):
        spec_str = ",".join(str(v) for v in spec_str)
    out: list[str] = []
    for part in str(spec_str).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            left, right = part.split("..", 1)
            left, right = left.strip().upper(), right.strip().upper()
            if not (left.startswith("F") and right.startswith("F")):
                raise UsageError(f"bad problem range {part!r}; ranges use benchmark ids like F1..F13")
            try:
                lo, hi = int(left[1:]), int(right[1:])
            except ValueError:
                raise UsageError(f"bad problem range {part!r}")
            if lo > hi:
                raise UsageError(f"empty problem range {part!r}")
            out.extend(_check_problem(f"F{i}") for i in range(lo, hi + 1))
        else:
            out.append(_check_problem(part))
    if not out:
        raise UsageError("no problems given")
    return list(dict.fromkeys(out))


def _build_config(algo: str, settings: dict, pop: int | None, seed: int):
    """One algorithm's config from the merged settings, with --pop for the swarm optimizers."""
    cfg_type = ALGORITHMS[algo][0]
    tunables = {k: v for k, v in settings.items() if k not in _ANY_RUN_KEY}
    if pop is not None and algo != "bas":
        tunables["n"] = pop
    tunables["seed"] = seed
    try:
        return cfg_type.from_dict(tunables)
    except ValueError as exc:
        raise UsageError(f"bad {algo} config: {exc}")


def _trial_settings(settings: dict) -> tuple[int, int]:
    n_trials = _setting(settings, "n_trials", int, 30)
    if n_trials < 1:
        raise UsageError(f"n_trials (--trials) must be at least 1, got {n_trials}")
    base_seed = _setting(settings, "base_seed", int, 0)
    if base_seed < 0:
        raise UsageError(f"base_seed (--seed) must be nonnegative, got {base_seed}")
    return n_trials, base_seed


def _check_workers() -> None:
    try:
        worker_count()
    except ValueError as exc:
        raise UsageError(str(exc))


def _make_out_dir(out: str, *files: str) -> list[Path]:
    """The output directory, created now, then the path of each of ``files`` in it, none of them an existing
    directory: call it after every other check and before the first trial."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {out} as the output directory: {exc.strerror}")
    paths = [Path(out) / name for name in files]
    for path in paths:
        if path.is_dir():
            raise UsageError(f"cannot write {path}: it is a directory")
    return [Path(out), *paths]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    settings = _settings(args)
    algo = _check_algorithm(_setting(settings, "algorithm", str, "bso"))
    problem_id = _check_problem(_setting(settings, "problem", str))
    config = _build_config(algo, settings, args.pop, _setting(settings, "seed", int, 0))
    out_dir, curve_path, run_path = _make_out_dir(_setting(settings, "out", str, "."), "curve.csv", "run.json")

    problem = catalog.get_problem(problem_id)
    record = run_one(algo, problem, config, config.seed)

    export_convergence(record, curve_path)
    doc = {"schema": RUN_SCHEMA, **record.to_dict()}
    run_path.write_text(json.dumps(doc, indent=2) + "\n")

    print(
        f"{algo} on {problem_id}: best_f={record.best_f:.6g} "
        f"after {record.curve.size - 1} iterations ({record.wall_time_s:.3f}s) -> {out_dir}"
    )
    return 0


def cmd_bench(args) -> int:
    if args.list:
        print(json.dumps(catalog.list_problems(), indent=2))
        return 0
    settings = _settings(args)
    algos = _algo_list(settings.get("algorithms", "bso"))
    problems = _expand_problems(settings.get("problems", ""))
    n_trials, base_seed = _trial_settings(settings)
    configs = {algo: _build_config(algo, settings, args.pop, base_seed) for algo in algos}
    _check_workers()
    out_dir = _make_out_dir(_setting(settings, "out", str, "bench-out"), *REPORT_FILES)[0]

    summaries = run_matrix(algos, problems, configs, n_trials, base_seed)
    json_path, text_path = compare_report(summaries, out_dir)
    sys.stdout.write(text_path.read_text())
    print(f"report written to {json_path} and {text_path}")
    return 0


def cmd_constrained(args) -> int:
    settings = _settings(args)
    problem_id = _setting(settings, "problem", str).upper()
    if problem_id not in CONSTRAINED_IDS:
        raise UsageError(
            f"unknown constrained problem {problem_id!r} (choose from {', '.join(CONSTRAINED_IDS).lower()})"
        )
    algo = _check_algorithm(_setting(settings, "algorithm", str, "bso"))
    n_trials, base_seed = _trial_settings(settings)
    config = _build_config(algo, settings, args.pop, base_seed)
    _check_workers()
    json_path = _make_out_dir(_setting(settings, "out", str), "constrained.json")[1] if "out" in settings else None

    cp = constrained_problem(problem_id)
    problem = catalog.get_problem(problem_id)
    records = run_trial_records(algo, problem, config, n_trials, base_seed)
    summary = summarize(records)

    evaluations = []
    for r in records:
        rep = cp.report(r.best_x)
        rep["penalized"] = r.best_f
        rep["seed"] = r.seed
        evaluations.append(rep)
    feasible = [e for e in evaluations if e["feasible"]]
    best = (
        min(feasible, key=lambda e: e["raw_objective"])
        if feasible
        else min(evaluations, key=lambda e: e["penalized"])
    )

    doc = {
        "schema": CONSTRAINED_SCHEMA,
        "problem": problem_id,
        "algorithm": algo,
        "n_trials": n_trials,
        "feasible_trials": len(feasible),
        "best": best,
        "summary": summary.to_dict(),
        "config": {**config.to_dict(), "base_seed": base_seed},
    }
    if json_path is not None:
        json_path.write_text(json.dumps(doc, indent=2) + "\n")

    xs = "  ".join(f"x{i + 1}={v:.6f}" for i, v in enumerate(best["x"]))
    gs = "  ".join(f"g{i + 1}={v:.6f}" for i, v in enumerate(best["g"]))
    if feasible:
        print(f"{problem_id} best feasible solution over {n_trials} trials ({len(feasible)} feasible):")
    else:
        print(f"{problem_id}: no feasible solution found in {n_trials} trials; best infeasible point:")
    print(f"  {xs}")
    print(f"  {gs}")
    print(f"  objective={best['raw_objective']:.6f}  penalized={best['penalized']:.6f}")
    return 0 if feasible else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beetleswarm",
        description="Beetle swarm optimization toolkit (BSO / BAS / PSO)",
        epilog="Set BSO_THREADS=N to run independent trials in N worker processes; "
        "results are identical to a serial run.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="one seeded optimizer run")
    run_p.add_argument("--algo", dest="algorithm", metavar="ALGO", help="bso, bas or pso")
    run_p.add_argument("--problem", help="problem id (F1..F23, PV, HB)")
    run_p.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int, help="iteration budget")
    run_p.add_argument("--pop", type=int, help="population size (ignored by bas)")
    run_p.add_argument("--seed", type=int, help="random seed")
    run_p.add_argument("--out", help="output directory (default: current directory)")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    run_p.set_defaults(handler=cmd_run)

    bench_p = sub.add_parser("bench", help="trial matrix over problems and algorithms")
    bench_p.add_argument("--algos", dest="algorithms", metavar="ALGOS", help="comma list, e.g. bso,pso")
    bench_p.add_argument("--problems", help="comma list with ranges, e.g. F1..F13,F16")
    bench_p.add_argument(
        "--trials", dest="n_trials", metavar="TRIALS", type=int, help="trials per cell (default 30)"
    )
    bench_p.add_argument(
        "--seed", dest="base_seed", metavar="SEED", type=int, help="base seed; trial i uses seed base+i"
    )
    bench_p.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int, help="iteration budget per run")
    bench_p.add_argument("--pop", type=int, help="population size per run")
    bench_p.add_argument("--out", help="report directory (default: bench-out)")
    bench_p.add_argument("--config", help="JSON config file; flags override its values")
    bench_p.add_argument("--list", action="store_true", help="print the problem catalog and exit")
    bench_p.set_defaults(handler=cmd_bench)

    con_p = sub.add_parser("constrained", help="penalty-handled engineering problems")
    con_p.add_argument("--problem", help="pv or hb")
    con_p.add_argument("--algo", dest="algorithm", metavar="ALGO", help="bso (default), bas or pso")
    con_p.add_argument("--iters", dest="max_iters", metavar="ITERS", type=int, help="iteration budget per run")
    con_p.add_argument("--pop", type=int, help="population size per run")
    con_p.add_argument("--trials", dest="n_trials", metavar="TRIALS", type=int, help="trials (default 30)")
    con_p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, help="base seed")
    con_p.add_argument("--out", help="write constrained.json here")
    con_p.add_argument("--config", help="JSON config file; flags override its values")
    con_p.set_defaults(handler=cmd_constrained)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
