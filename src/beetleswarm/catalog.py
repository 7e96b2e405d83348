"""The one problem registry: lookup and listing for benchmark ids F1..F23 plus PV and HB."""

from __future__ import annotations

from dataclasses import dataclass

from . import benchmarks, constrained
from .core import Problem, RandomStream


@dataclass(frozen=True)
class BenchmarkSpec:
    """Catalog entry of a benchmark function: dimension, box range and tabulated minimum."""

    id: str
    dim: int
    lower: float
    upper: float
    fmin: float


# Every catalog Problem, built once at import; PV and HB carry the default penalty.
_PROBLEMS: dict[str, Problem] = {p.id: p for p in benchmarks.PROBLEMS}
for _pid in constrained.CONSTRAINED_IDS:
    _PROBLEMS[_pid] = constrained.as_problem(constrained.constrained_problem(_pid))


def _lookup(problem_id: str, ids, kind: str) -> Problem:
    key = str(problem_id).upper()
    if key not in ids:
        raise KeyError(f"unknown {kind} {problem_id!r}")
    return _PROBLEMS[key]


def get_problem(problem_id: str) -> Problem:
    """The shared, immutable Problem for any catalogued id (case-insensitive)."""
    return _lookup(problem_id, _PROBLEMS, "problem")


def problem(benchmark_id: str) -> Problem:
    """The benchmark function F1..F23 as a minimization Problem (one shared instance per id)."""
    return _lookup(benchmark_id, benchmarks.BENCHMARK_IDS, "benchmark")


def _entry(p: Problem) -> dict:
    lower, upper = p.space.lower.tolist(), p.space.upper.tolist()
    if len(set(lower)) == len(set(upper)) == 1:
        lower, upper = lower[0], upper[0]
    return {"id": p.id, "dim": p.space.dim, "lower": lower, "upper": upper,
            "fmin": p.known_fmin, "stochastic": p.stochastic}


def spec(benchmark_id: str) -> BenchmarkSpec:
    """Catalog entry for one benchmark function id (F1..F23): its ``list_problems`` entry without ``stochastic``."""
    return BenchmarkSpec(**{k: v for k, v in _entry(problem(benchmark_id)).items() if k != "stochastic"})


def evaluate(benchmark_id: str, x, rng: RandomStream | None = None) -> float:
    """One benchmark function at a single point; ``rng`` is required for F7's noise draw and ignored elsewhere."""
    return problem(benchmark_id).evaluate(x, rng)


def list_problems() -> list[dict]:
    """Every entry: id, dim, bounds (one number per side for a cube, else one per dimension), fmin, stochastic."""
    return [_entry(p) for p in _PROBLEMS.values()]


def problem_ids() -> tuple[str, ...]:
    return tuple(_PROBLEMS)
