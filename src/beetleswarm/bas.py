"""Single-agent beetle antennae search.

One simulated beetle probes the fitness at two antenna points placed
symmetrically around its position along a random direction, then steps a
distance delta toward the antenna that smelled better (lower fitness,
everything here minimizes). Both the step length and the antenna spacing
shrink geometrically over the run.

Objective batches: an iteration makes two ``evaluate_many`` calls on fresh
arrays: the (2, dim) probes ``antennae`` returns, right row then left, then
the new position as one row; noisy objectives draw right, left, move.
The best takes a probe only if it lies in the box, so ``best_x`` always does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigDict, Problem, RandomStream, RunRecord, antennae, check_fields, clip_in_place, uniform_in_space

Array = np.ndarray

MIN_STEP = 1e-12


@dataclass(frozen=True)
class BasConfig(ConfigDict):
    """Tunables for a BAS run.

    ``delta0`` of None means 30% of the widest box side, a scale that grows with the problem like the antenna
    metaphor suggests. The step is multiplied by ``eta`` each iteration, and the antenna spacing is always
    ``delta / c2_ratio``; the first spacing must be positive and finite (``check_box`` checks a derived one).
    """

    delta0: float | None = None
    eta: float = 0.95
    c2_ratio: float = 5.0
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if not self.c2_ratio > 0:
            raise ValueError("c2_ratio must be positive")
        if self.delta0 is not None and not 0 < (d := self.delta0 / self.c2_ratio) < math.inf:  # under- or overflows
            rule = "positive" if d == 0 else "finite"
            raise ValueError(f"delta0 and delta0 / c2_ratio must be {rule}, got {self.delta0!r} / {self.c2_ratio!r}")

    def check_box(self, problem: Problem) -> None:
        """Raise ValueError unless a derived ``delta0`` (0.3 x the widest box side) has a positive, finite spacing."""
        w = float(problem.space.widths.max())
        if self.delta0 is None and not 0 < (d := 0.3 * w / self.c2_ratio) < math.inf:
            raise ValueError(f"derived delta0 {0.3 * w!r} (0.3 x the widest side, {w!r}) / c2_ratio {self.c2_ratio!r} "
                             + ("underflows to 0" if d == 0 else f"overflows on {problem.id}"))


@dataclass(frozen=True)
class BasState:
    """Beetle position plus schedule values and the best seen so far."""

    x: Array
    delta: float
    d: float
    t: int
    best_x: Array
    best_f: float


def sample_direction(rng: RandomStream, dim: int) -> Array:
    """Random unit vector with components i.i.d. symmetric about zero.

    Draws ``dim`` uniforms, maps them to [-1, 1) and normalizes. The
    all-zero draw (probability zero, but representable) is redrawn.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    while True:
        raw = 2.0 * rng.uniform(dim) - 1.0
        if np.count_nonzero(raw):  # ndarray.any's Python-level wrapper costs about 5x more
            return raw / math.sqrt(raw.dot(raw))  # the norm as np.linalg.norm computes it for a real 1-D array


def _bas_move(x, delta, d, best_x, best_f, problem: Problem, rng: RandomStream) -> tuple[Array, Array, float]:
    """New position and best-so-far after one iteration; see ``bas_step``."""
    b = sample_direction(rng, problem.space.dim)
    probes = antennae(x, b, d)
    if problem.clamp_probes:
        probes.clip(problem.space.lower, problem.space.upper, out=probes)
    f_right, f_left = problem.evaluate_many(probes, rng).tolist()

    # Sign by comparison, so +inf against +inf gives 0 (no move), not NaN.
    x_new = x - delta * ((f_right > f_left) - (f_right < f_left)) * b  # scaling by the sign first is exact
    clip_in_place(x_new, problem.space.lower, problem.space.upper)  # bounds of x_new's shape: clip's bits
    [f_new] = problem.evaluate_many(x_new[None, :], rng).tolist()

    lower, upper = problem.space.lower, problem.space.upper
    for cand_x, cand_f in ((probes[0], f_right), (probes[1], f_left)):  # only an improving probe pays for the box test
        if cand_f < best_f and np.count_nonzero((lower <= cand_x) & (cand_x <= upper)) == cand_x.size:
            best_x, best_f = cand_x, cand_f
    if f_new < best_f:  # x_new is clamped, so always in the box
        best_x, best_f = x_new, f_new
    return x_new, best_x, best_f


def bas_step(state: BasState, problem: Problem, rng: RandomStream) -> BasState:
    """Advance the beetle one iteration.

    Probes both antennae in one (2, dim) objective call, right row then
    left row, steps toward the lower-fitness side (x' = x - delta * b *
    sign(f(right) - f(left))), clamps the new position to the box,
    evaluates it as one row and folds the evaluations into the best-so-far,
    right, left, then new, by strict ``<``. Probes are evaluated unclamped
    unless the problem asks otherwise; they are sensors, so the best takes
    one only if it lies in the box. The schedules are left unchanged.
    """
    x_new, best_x, best_f = _bas_move(state.x, state.delta, state.d, state.best_x, state.best_f, problem, rng)
    return BasState(x_new, state.delta, state.d, state.t + 1, best_x, best_f)


def update_schedules(delta: float, config: BasConfig) -> tuple[float, float]:
    """Next step length and antenna spacing.

    The step is multiplied by ``eta``. A step whose antenna spacing underflows to zero on a long run has
    stalled (the antennae would coincide); it is pinned at a tiny positive value and a RuntimeWarning flags it.
    """
    new_delta = config.eta * delta
    if not new_delta / config.c2_ratio > 0:
        warnings.warn("antenna spacing underflowed to zero; search has stalled", RuntimeWarning)
        new_delta = MIN_STEP
    return new_delta, new_delta / config.c2_ratio


def run_bas(problem: Problem, config: BasConfig | None = None, seed: int | None = None) -> RunRecord:
    """Run BAS from a uniform random start for ``max_iters`` iterations."""

    def optimize(config: BasConfig, seed: int) -> tuple[list[float], Array, float]:
        rng = RandomStream(seed)
        delta = config.delta0 if config.delta0 is not None else 0.3 * float(problem.space.widths.max())
        x = uniform_in_space(rng, problem.space)
        best_x, best_f = x, problem.evaluate(x, rng)
        d = delta / config.c2_ratio
        curve = [best_f]
        for _ in range(config.max_iters):
            x, best_x, best_f = _bas_move(x, delta, d, best_x, best_f, problem, rng)
            delta, d = update_schedules(delta, config)
            curve.append(best_f)
        return curve, best_x, best_f

    return RunRecord.from_run(problem, "bas", BasConfig, config, seed, optimize)
