"""Unified problem lookup: benchmark ids F1..F23 plus PV and HB."""

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
    """Every catalog entry: id, dim, range, known minimum."""
    return benchmarks.catalog() + constrained.catalog()


def problem_ids() -> tuple[str, ...]:
    return tuple(_PROBLEMS)
