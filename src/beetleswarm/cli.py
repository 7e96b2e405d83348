"""Command-line front end.

Three subcommands bind the catalog, optimizers and harness together:

* ``run``          one seeded optimizer run -> run.json + curve.csv
* ``bench``        a problems x algorithms trial matrix -> report.json/.txt
* ``constrained``  the engineering problems -> best feasible solution found

Every invocation writes back the fully resolved configuration (defaults
applied, flags merged over any ``--config`` file), so each output is
self-describing and exactly reproducible. Exit codes: 0 success, 2 usage
error, 3 no feasible solution found, 1 internal error.

Each flag that sets a config key is one row of ``FLAGS``, which builds the
parser and gives each key its commands, JSON type and default.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from dataclasses import fields
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

# A flag, the config key it sets and the commands that take it. ``kind`` is the key's JSON type (list: a comma
# string or a list of strings, read as its stripped items); a ``default`` of None makes the key required.
Flag = namedtuple("Flag", "flag key kind default commands help")
_ALL = ("run", "bench", "constrained")
FLAGS = (
    Flag("--algo", "algorithm", str, "bso", ("run", "constrained"), "bso (default), bas or pso"),
    Flag("--algos", "algorithms", list, "bso", ("bench",), "comma list, e.g. bso,pso"),
    Flag("--problem", "problem", str, None, ("run", "constrained"), "F1..F23, PV or HB (constrained: pv or hb)"),
    Flag("--problems", "problems", list, "", ("bench",), "comma list with ranges, e.g. F1..F13,F16"),
    Flag("--iters", "max_iters", int, None, _ALL, "iteration budget per run"),
    Flag("--pop", "n", int, None, _ALL, "population size per run (ignored by bas)"),
    Flag("--trials", "n_trials", int, 30, ("bench", "constrained"), "trials per cell (default 30)"),
    Flag("--seed", "seed", int, 0, ("run",), "random seed"),
    Flag("--seed", "base_seed", int, 0, ("bench", "constrained"), "base seed; trial i uses seed base+i"),
    Flag("--out", "out", str, ".", ("run",), "output directory (default: current directory)"),
    Flag("--out", "out", str, "bench-out", ("bench",), "report directory (default: bench-out)"),
    Flag("--out", "out", str, None, ("constrained",), "write constrained.json here"),
)
# Keys the commands read themselves: the flag keys no optimizer config has. Any other setting is a tunable.
_RUN_LEVEL_KEYS = {f.key for f in FLAGS} - {f.name for cfg_type, _ in ALGORITHMS.values() for f in fields(cfg_type)}


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
        except ValueError as exc:  # JSONDecodeError, or an integer past int()'s 4,300 digits
            raise UsageError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(settings, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    own, given = [f.key for f in FLAGS if args.command in f.commands], vars(args)
    settings.update((key, given[key]) for key in own if key != "n" and given[key] is not None)
    for key in sorted(settings.keys() & {f.key for f in FLAGS} - set(own)):
        hint = "; use base_seed (trial i runs at seed base_seed + i)" if key == "seed" else ""
        raise UsageError(f"config key {key!r} does not apply to {args.command}{hint}")
    return settings


def _setting(settings: dict, command: str, key: str):
    """One run-level value, checked against its flag's JSON type; a flag with no default makes it required."""
    flag = next(f for f in FLAGS if f.key == key and command in f.commands)
    if key not in settings and flag.default is None:
        raise UsageError(f"no {key} given (use a flag or a config file)")
    value = settings.get(key, flag.default)
    if flag.kind is list and isinstance(value, list) and all(isinstance(v, str) for v in value):
        value = ",".join(value)
    if isinstance(value, bool) or not isinstance(value, str if flag.kind is list else flag.kind):
        name = {int: "an integer", str: "a string", list: "a comma string or a list of strings"}[flag.kind]
        raise UsageError(f"config key {key!r} must be {name}, got {value!r}")
    return [v.strip() for v in value.split(",") if v.strip()] if flag.kind is list else value


def _check_algorithm(algo: str) -> str:
    algo = str(algo).lower()
    if algo not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algo!r} (choose from {', '.join(ALGORITHMS)})")
    return algo


def _algo_list(names: list[str]) -> list[str]:
    """Checked algorithm names, repeats dropped, first occurrences kept in order."""
    if not names:
        raise UsageError("no algorithms given")
    return list(dict.fromkeys(_check_algorithm(a) for a in names))


def _check_problem(problem_id: str) -> str:
    try:
        return catalog.get_problem(problem_id).id
    except KeyError:
        raise UsageError(f"unknown problem {problem_id}") from None


def _expand_problems(parts: list[str]) -> list[str]:
    """Problem ids with F-range support: ["F1..F4", "F16"] -> F1 F2 F3 F4 F16; repeats dropped."""
    out: list[str] = []
    for part in parts:
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


def _build_config(algo: str, settings: dict, pop: int | None, seed: int, problem_ids: list[str]):
    """One algorithm's config from the merged settings, with --pop where it has a population, checked on each box."""
    cfg_type = ALGORITHMS[algo][0]
    tunables = {k: v for k, v in settings.items() if k not in _RUN_LEVEL_KEYS}
    if pop is not None and any(f.name == "n" for f in fields(cfg_type)):
        tunables["n"] = pop
    tunables["seed"] = seed
    try:
        config = cfg_type.from_dict(tunables)
        for problem_id in problem_ids:
            config.check_box(catalog.get_problem(problem_id))
    except ValueError as exc:
        raise UsageError(f"bad {algo} config: {exc}")
    return config


def _trial_settings(settings: dict, command: str) -> tuple[int, int]:
    n_trials = _setting(settings, command, "n_trials")
    if n_trials < 1:
        raise UsageError(f"n_trials (--trials) must be at least 1, got {n_trials}")
    base_seed = _setting(settings, command, "base_seed")
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
    algo = _check_algorithm(_setting(settings, "run", "algorithm"))
    problem_id = _check_problem(_setting(settings, "run", "problem"))
    config = _build_config(algo, settings, args.pop, _setting(settings, "run", "seed"), [problem_id])
    out_dir, curve_path, run_path = _make_out_dir(_setting(settings, "run", "out"), "curve.csv", "run.json")

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
    algos = _algo_list(_setting(settings, "bench", "algorithms"))
    problems = _expand_problems(_setting(settings, "bench", "problems"))
    n_trials, base_seed = _trial_settings(settings, "bench")
    configs = {algo: _build_config(algo, settings, args.pop, base_seed, problems) for algo in algos}
    _check_workers()
    out_dir = _make_out_dir(_setting(settings, "bench", "out"), *REPORT_FILES)[0]

    summaries = run_matrix(algos, problems, configs, n_trials, base_seed)
    json_path, text_path = compare_report(summaries, out_dir)
    sys.stdout.write(text_path.read_text())
    print(f"report written to {json_path} and {text_path}")
    return 0


def cmd_constrained(args) -> int:
    settings = _settings(args)
    problem_id = _setting(settings, "constrained", "problem").upper()
    if problem_id not in CONSTRAINED_IDS:
        raise UsageError(
            f"unknown constrained problem {problem_id!r} (choose from {', '.join(CONSTRAINED_IDS).lower()})"
        )
    algo = _check_algorithm(_setting(settings, "constrained", "algorithm"))
    n_trials, base_seed = _trial_settings(settings, "constrained")
    config = _build_config(algo, settings, args.pop, base_seed, [problem_id])
    _check_workers()
    out = _setting(settings, "constrained", "out") if "out" in settings else None
    json_path = None if out is None else _make_out_dir(out, "constrained.json")[1]

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
    for command, handler, summary in (
        ("run", cmd_run, "one seeded optimizer run"),
        ("bench", cmd_bench, "trial matrix over problems and algorithms"),
        ("constrained", cmd_constrained, "penalty-handled engineering problems"),
    ):
        sub_p = sub.add_parser(command, help=summary)
        for f in FLAGS:
            if command in f.commands:
                # --pop keeps its own dest, out of the settings: bas ignores it but rejects a file's n
                dest, kind = "pop" if f.key == "n" else f.key, int if f.kind is int else None
                sub_p.add_argument(f.flag, dest=dest, metavar=f.flag[2:].upper(), type=kind, help=f.help)
        sub_p.add_argument("--config", help="JSON config file; flags override its values")
        if command == "bench":
            sub_p.add_argument("--list", action="store_true", help="print the problem catalog and exit")
        sub_p.set_defaults(handler=handler)

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
