"""Unified problem lookup and listing: benchmark ids F1..F23 plus PV and HB."""

from __future__ import annotations

from . import benchmarks, constrained
from .core import Problem

# Every catalog Problem, built once at import; PV and HB carry the default penalty.
_PROBLEMS: dict[str, Problem] = {pid: benchmarks.problem(pid) for pid in benchmarks.BENCHMARK_IDS}
for _pid in constrained.CONSTRAINED_IDS:
    _PROBLEMS[_pid] = constrained.as_problem(constrained.constrained_problem(_pid))


def get_problem(problem_id: str) -> Problem:
    """The shared, immutable Problem for any catalogued id (case-insensitive)."""
    key = str(problem_id).upper()
    if key not in _PROBLEMS:
        raise KeyError(f"unknown problem {problem_id!r}")
    return _PROBLEMS[key]


def list_problems() -> list[dict]:
    """Every entry: id, dim, bounds (one number per side for a cube, else one per dimension), fmin, stochastic."""
    entries = []
    for p in _PROBLEMS.values():
        lower, upper = p.space.lower.tolist(), p.space.upper.tolist()
        if len(set(lower)) == len(set(upper)) == 1:
            lower, upper = lower[0], upper[0]
        entries.append({"id": p.id, "dim": p.space.dim, "lower": lower, "upper": upper,
                        "fmin": p.known_fmin, "stochastic": p.stochastic})
    return entries


def problem_ids() -> tuple[str, ...]:
    return tuple(_PROBLEMS)
