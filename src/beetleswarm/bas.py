"""Single-agent beetle antennae search.

One simulated beetle probes the fitness at two antenna points placed
symmetrically around its position along a random direction, then steps a
distance delta toward the antenna that smelled better (lower fitness,
everything here minimizes). Both the step length and the antenna spacing
shrink geometrically over the run.

Objective batches, each a fresh array: ``run_bas`` evaluates each new
position with the next iteration's ``antennae`` probes, right row then left,
as one (3, dim) call (the start point with iteration 1's, the last point
alone: 1 + 3K rows in K + 1 calls); on a deterministic problem it draws a
block of directions at once, and a batch is one add of the point and its
offsets, on the same bits. A stochastic problem, and ``bas_step``, take two
calls, the (2, dim) probes then the new point, so that the next direction
is not drawn ahead of the move's noise.
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
_BLOCK = 256  # iterations whose directions and offsets run_bas draws at once on a deterministic problem


@dataclass(frozen=True)
class BasConfig(ConfigDict):
    """Tunables for a BAS run.

    ``delta0`` of None, ``"delta0": null`` in an output, is ``start_step``: 30% of the widest box side, a scale that
    grows with the problem, derived again by a re-run. The step is multiplied by ``eta`` each iteration and the
    antenna spacing is ``delta / c2_ratio``; the first spacing must be positive and finite (``check_box`` checks it).
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
        if self.delta0 is not None and not 0 < (d := self.delta0 / self.c2_ratio) < math.inf:  # <= 0, or overflows
            rule = "finite" if d == math.inf else "positive"
            raise ValueError(f"delta0 and delta0 / c2_ratio must be {rule}, got {self.delta0!r} / {self.c2_ratio!r}")

    def start_step(self, problem: Problem) -> float:
        """The first step on ``problem``: ``delta0``, or 0.3 x the widest box side if it is None."""
        return self.delta0 if self.delta0 is not None else 0.3 * float(problem.space.widths.max())

    def check_box(self, problem: Problem) -> None:
        """Raise ValueError unless a derived ``delta0`` (``start_step``) has a positive, finite spacing."""
        if self.delta0 is None and not 0 < (d := (delta := self.start_step(problem)) / self.c2_ratio) < math.inf:
            w = float(problem.space.widths.max())
            raise ValueError(f"derived delta0 {delta!r} (0.3 x the widest side, {w!r}) / c2_ratio {self.c2_ratio!r} "
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


def sample_directions(rng: RandomStream, dim: int, m: int) -> Array:
    """``m`` random unit vectors as an (m, dim) array, components i.i.d. symmetric about zero.

    Draws ``m`` rows of ``dim`` uniforms, maps them to [-1, 1) and divides each row by its norm. An all-zero row
    (probability zero, but representable) is skipped and the next ``dim`` uniforms stand in, so one m-row draw is
    m one-row draws, bits and stream alike.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    B = 2.0 * rng.uniform((m, dim)) - 1.0
    while (kept := np.count_nonzero(sq := np.vecdot(B, B))) < m:  # only an all-zero 2u - 1 row squares to 0
        B = np.concatenate((B[sq > 0], 2.0 * rng.uniform((m - kept, dim)) - 1.0))
    B /= np.sqrt(sq)[:, None]
    return B


def _probe_box(problem: Problem) -> tuple[Array, Array] | None:
    """The box tiled to a probe pair's (2, dim) shape if the problem clamps its probes, else None. Every clamp of
    either optimizer is ``clip_in_place`` against bounds of the clamped array's shape, so it keeps clip's bits."""
    lo, hi = problem.space.lower, problem.space.upper
    return (np.tile(lo, (2, 1)), np.tile(hi, (2, 1))) if problem.clamp_probes else None


def _probes(x, d, problem: Problem, rng: RandomStream, box: tuple[Array, Array] | None) -> tuple[Array, Array]:
    """A fresh direction b and the (2, dim) ``antennae`` probes along it, clamped into ``box`` unless it is None."""
    [b] = sample_directions(rng, problem.space.dim, 1)
    return b, antennae(x, b, d) if box is None else clip_in_place(antennae(x, b, d), *box)


def _move(x, delta, b, probes, f_right, f_left, best_x, best_f, space) -> tuple[Array, Array, float]:
    """The clamped step toward the better antenna, and the best-so-far with right, then left, folded in."""
    # Sign by comparison, so +inf against +inf gives 0 (no move), not NaN.
    x_new = x - delta * ((f_right > f_left) - (f_right < f_left)) * b  # scaling by the sign first is exact
    clip_in_place(x_new, space.lower, space.upper)  # bounds of x_new's shape: clip's bits
    for cand_x, cand_f in ((probes[0], f_right), (probes[1], f_left)):  # only an improving probe pays for the box test
        if cand_f < best_f and np.count_nonzero((space.lower <= cand_x) & (cand_x <= space.upper)) == cand_x.size:
            best_x, best_f = cand_x, cand_f
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
    The step by hand keeps these two calls; ``run_bas`` merges the new
    position into the next iteration's probe call, on the same bits.
    """
    b, probes = _probes(state.x, state.d, problem, rng, _probe_box(problem))
    f = problem.evaluate_many(probes, rng).tolist()
    x_new, best_x, best_f = _move(state.x, state.delta, b, probes, *f, state.best_x, state.best_f, problem.space)
    [f_new] = problem.evaluate_many(x_new[None, :], rng).tolist()
    if f_new < best_f:  # x_new is clamped, so always in the box
        best_x, best_f = x_new, f_new
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
        delta = config.start_step(problem)
        d = delta / config.c2_ratio
        x, box = uniform_in_space(rng, problem.space), _probe_box(problem)
        best_x, best_f, curve = x, math.inf, []
        for t in range(config.max_iters + 1):  # x is the position after t iterations
            if (i := t % _BLOCK) == 0 and t < config.max_iters:  # the block's steps and spacings: K updates in all
                schedule = [(delta, d)]
                for _ in range(min(_BLOCK, config.max_iters - t)):
                    schedule.append(update_schedules(schedule[-1][0], config))
            rows = x[None, :]
            if t < config.max_iters and not problem.stochastic:  # iteration t + 1's probes ride with x
                if i == 0:  # the stream feeds only the directions, so the block's are drawn at once
                    B = sample_directions(rng, problem.space.dim, len(schedule) - 1)
                    o = B * np.divide([s for _, s in schedule[:-1]], 2.0)[:, None]  # antennae's b * (d / 2)
                    O = np.stack((np.full_like(o, -0.0), o, -o), axis=1)  # x + -0.0 is x, and x + -o is x - o
                rows = np.add(x, O[i])  # one fresh (3, dim) batch: x, then the right and left probes
                b, probes = B[i], rows[1:] if box is None else clip_in_place(rows[1:], *box)
            f_x, *f = problem.evaluate_many(rows, rng).tolist()
            if f_x < best_f:  # best_f starts at inf, where best_x already is x
                best_x, best_f = x, f_x
            curve.append(best_f)
            if t == config.max_iters:
                break
            if not f:  # noise is drawn in call order, so a noisy objective sees the next direction after the move
                b, probes = _probes(x, d, problem, rng, box)
                f = problem.evaluate_many(probes, rng).tolist()
            x, best_x, best_f = _move(x, delta, b, probes, *f, best_x, best_f, problem.space)
            delta, d = schedule[i + 1]
        return curve, best_x, best_f

    return RunRecord.from_run(problem, "bas", BasConfig, config, seed, optimize)
