"""The one problem registry: lookup and listing for benchmark ids F1..F23 plus PV and HB."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import benchmarks, constrained
from .core import Problem, RandomStream, lookup


@dataclass(frozen=True)
class BenchmarkSpec:
    """Catalog entry: dim, bounds (one number per side for a cube, else one per dimension), fmin, stochastic."""

    id: str
    dim: int
    lower: float | list[float]
    upper: float | list[float]
    fmin: float | None
    stochastic: bool


# Every catalog Problem, built once at import: F1..F23, then PV and HB with the default penalty.
_BENCHMARKS: dict[str, Problem] = {p.id: p for p in benchmarks.PROBLEMS}
_PROBLEMS: dict[str, Problem] = _BENCHMARKS | {
    pid: constrained.as_problem(constrained.constrained_problem(pid)) for pid in constrained.CONSTRAINED_IDS}


def get_problem(problem_id: str) -> Problem:
    """The shared, immutable Problem for any catalogued id (case-insensitive)."""
    return lookup(_PROBLEMS, problem_id, "problem")


def _entry(p: Problem) -> BenchmarkSpec:
    lower, upper = p.space.lower.tolist(), p.space.upper.tolist()
    if len(set(lower)) == len(set(upper)) == 1:
        lower, upper = lower[0], upper[0]
    return BenchmarkSpec(p.id, p.space.dim, lower, upper, p.known_fmin, p.stochastic)


def spec(benchmark_id: str) -> BenchmarkSpec:
    """Catalog entry for one benchmark function id (F1..F23): its ``list_problems`` entry as a dataclass."""
    return _entry(lookup(_BENCHMARKS, benchmark_id, "benchmark"))


def evaluate(benchmark_id: str, x, rng: RandomStream | None = None) -> float:
    """One benchmark function at a single point; ``rng`` is required for F7's noise draw and ignored elsewhere."""
    return lookup(_BENCHMARKS, benchmark_id, "benchmark").evaluate(x, rng)


def list_problems() -> list[dict]:
    """Every catalog entry, as the dict of its ``BenchmarkSpec``."""
    return [asdict(_entry(p)) for p in _PROBLEMS.values()]


def problem_ids() -> tuple[str, ...]:
    return tuple(_PROBLEMS)
