"""Beetle swarm optimization.

A population of beetles moves like a global-best particle swarm, except
that each beetle also probes the fitness at two antenna points placed
along its velocity and folds a signed antenna increment into its position
update:

    position' = position + lam * velocity' + (1 - lam) * increment

with increment = -delta * velocity * sign(f(right probe) - f(left probe)).
``lam`` blends the two behaviors: 1 is pure particle swarm, 0 is pure
antenna search. The inertia weight anneals linearly and the antenna step
``delta`` contracts geometrically, so late iterations refine instead of
explore.

The whole iteration lives in ``BsoEngine.step``, which, in order: computes
the inertia weight, derives the antenna spacing from the current step,
probes both antennae per beetle (using the pre-update velocity), updates
velocities (clamped), updates and clamps positions, contracts the step,
then evaluates the moved swarm and refreshes personal and global bests
(``_settle``, which settles the initial swarm too). Random draws happen
in a fixed order (one r1 batch then one r2 batch per iteration, in beetle
index order), so runs are reproducible from the seed alone.

Objective batches: an iteration makes one fresh (3n, dim) call: the moved
swarm, then the next iteration's right and left probes (``core.antennae``,
BAS's builder), which need no fitness value; the initial swarm comes with
iteration 1's probes. The last iteration, lam = 1 and a zero (or
underflowed) spacing send the swarm alone. Noise is drawn in row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigDict, Problem, RandomStream, RunRecord, antennae, check_fields, checked_config, clip_in_place, constants,
    frozen, uniform_population,
)

Array = np.ndarray


@dataclass(frozen=True)
class BsoConfig(ConfigDict):
    """Tunables for a BSO run.

    ``lam`` is the single most consequential knob: it weighs the particle
    swarm move against the antenna move. ``a1``/``a2`` are the usual
    cognitive/social acceleration coefficients. Velocities are clamped to
    +/-``v_frac`` of each box side. ``delta0`` is a
    dimensionless multiplier on the velocity (the antenna increment is
    delta * velocity), contracted by ``eta`` each iteration; antenna
    spacing is ``delta / c2_ratio``. ``delta0 = 0`` disables the antenna
    machinery entirely (see ``PsoConfig``). The r1/r2 draws are per beetle
    per dimension.

    The numeric defaults were fixed empirically on the 30-dimensional
    benchmark suite at n=50, 1000 iterations; they balance deep unimodal
    refinement against basin escape on multimodal landscapes and sit on a
    fairly sharp ridge (e.g. raising v_frac to 0.1 already breaks basin
    escape on the 30-D cosine-lattice landscape), so retune deliberately.
    """

    n: int = 50
    max_iters: int = 1000
    lam: float = 0.35
    a1: float = 2.0
    a2: float = 3.3
    omega_max: float = 0.9
    omega_min: float = 0.4
    eta: float = 0.997
    delta0: float = 6.0
    c2_ratio: float = 5.0
    v_frac: float = 0.08
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n < 2:
            raise ValueError("population size n must be at least 2")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError("acceleration coefficients must be nonnegative")
        if self.omega_min > self.omega_max:
            raise ValueError("omega_min must not exceed omega_max")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.delta0 < 0:
            raise ValueError("delta0 must be nonnegative")
        if not self.c2_ratio > 0:
            raise ValueError("c2_ratio must be positive")
        if not self.v_frac > 0:
            raise ValueError("v_frac must be positive")

    def check_box(self, problem: Problem) -> None:
        """Raise ValueError, naming the problem and the bound, unless each velocity and move bound is finite."""
        w = float(problem.space.widths.max())
        v_hi, omega = self.v_frac * w, max(abs(self.omega_max), abs(self.omega_min))
        for name, bound in (
            ("2 * v_frac * w", 2.0 * v_hi),
            ("max(|omega_max|, |omega_min|) * v_frac * w + (a1 + a2) * w", omega * v_hi + self.a1 * w + self.a2 * w),
            ("delta0 / c2_ratio * v_frac * w", self.delta0 / self.c2_ratio * v_hi),
            ("(lam + (1 - lam) * delta0) * v_frac * w", (self.lam + (1.0 - self.lam) * self.delta0) * v_hi),
        ):
            if not np.isfinite(bound):
                raise ValueError(f"{problem.id}: {name} is {bound!r}, not finite (w = {w!r}, the widest box side)")


@dataclass
class SwarmState:
    """The engine's swarm, read between steps: positions, velocities, bests and schedules (see ``BsoEngine._start``)."""

    X: Array  # (n, dim) positions, read-only
    V: Array  # (n, dim) velocities, read-only
    P: Array  # (n, dim) personal-best positions
    Pf: Array  # (n,) personal-best fitnesses
    G: Array  # (dim,) global-best position, read-only
    Gf: float  # global-best fitness
    delta: float  # antenna step multiplier; antenna spacing is delta / c2_ratio
    k: int  # completed iterations


def inertia_weight(k: int, K: int, omega_min: float = 0.4, omega_max: float = 0.9) -> float:
    """Linearly annealed inertia: omega_max at k=0 down to omega_min at k=K."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if not 0 <= k <= K:
        raise ValueError("k must lie in [0, K]")
    return omega_max - (omega_max - omega_min) * (k / K)


class BsoEngine:
    """Stateful, vectorized swarm stepper; one call of ``step`` is one whole iteration.

    ``run_bso`` drives it to completion; tests can step it manually and read ``state`` and ``rng`` between
    iterations. The config is checked as ``run_bso`` checks it (``core.checked_config``: None gives the defaults).
    ``debug_checks`` re-validates the core invariants (bounds containment, best-fitness bookkeeping) after every
    step. The engine owns its swarm: the seeded one, or one of a test's own handed to a fresh engine, enters through
    ``_start``, and one method, ``_settle``, evaluates every swarm, the initial one and each moved one, with the next
    step's probes, and folds it into the bests. ``state.X``, ``state.V`` and ``state.G`` are read-only
    (``core.frozen``). On a deterministic problem ``rng`` draws r1/r2 up to 256 KiB ahead, so mid-run it is ahead of
    per-step draws (it ends where they end). The box is stored at the probes' (2, n, dim) shape (its [0] half bounds
    the swarm) and the velocity bounds at (n, dim), so no clamp broadcasts (dim,) bounds, which can return the bound
    on a tie of signed zeros (see ``clip_in_place``); G is tiled to (n, dim) where a settle sets it, so no pull
    broadcasts it. Constant coefficients are ``core.constants``; per-step values stay floats.
    """

    def __init__(
        self,
        problem: Problem,
        config: BsoConfig | None,
        seed: int | None = None,
        debug_checks: bool = False,
    ):
        self.problem = problem
        self.config = config = checked_config(problem, "bso", BsoConfig, config)
        self.space = problem.space
        self.rng = RandomStream(config.seed if seed is None else seed)
        self.debug_checks = debug_checks

        self.lower = np.tile(self.space.lower, (2, config.n, 1))
        self.upper = np.tile(self.space.upper, (2, config.n, 1))
        self.v_hi = np.tile(config.v_frac * self.space.widths, (config.n, 1))
        self.v_lo = -self.v_hi
        self._coef = constants(config.lam, 1.0 - config.lam)
        self._scale = frozen(np.tile(np.array([config.a1, config.a2])[:, None, None], (1, config.n, self.space.dim)))
        self._G = np.empty((config.n, self.space.dim))  # G tiled to (n, dim)

        X = uniform_population(self.rng, self.space, config.n)
        V = self.v_lo + self.rng.uniform((config.n, self.space.dim)) * (self.v_hi - self.v_lo)
        # bests no swarm improves on: the first settle folds the initial swarm in as it folds each moved one
        self._start(SwarmState(X, V, X.copy(), np.full(config.n, np.inf), X[0], np.inf, float(config.delta0), 0))

    def _start(self, state: SwarmState) -> None:
        """Take ``state`` as the swarm, the one way a swarm enters the engine: X is written into block 0 of a fresh
        (3, n, dim) batch, as a step's moved swarm is; X, V and G are frozen and G tiled; the swarm is settled with the
        first step's probes. Every draw after this comes from ``rng``: a test replaying its own stream sets it first."""
        B = np.empty((3,) + state.X.shape)
        B[0] = state.X
        state.X, state.V, state.G = frozen(B[0]), frozen(state.V), frozen(state.G)
        np.copyto(self._G, state.G)
        self.state, self.curve, self._pulls, self._i = state, [], np.empty((0,)), 0
        self._settle(B)

    def step(self) -> None:
        """One full swarm iteration: probes, velocity, position and the schedule, then evaluation and bests."""
        st, cfg, rng = self.state, self.config, self.rng
        omega = inertia_weight(st.k, cfg.max_iters, cfg.omega_min, cfg.omega_max)
        lam, rest = self._coef

        # 1. Antenna increment xi = -delta * V * sign(f(right) - f(left)) from probes at X +/- V*d/2 (pre-update V),
        # their values (or None) those the last settle evaluated with X. Where they cannot influence the move
        # (lam == 1, or a zero or underflowed spacing: coincident probes) no probe is evaluated and no noise drawn:
        # lam=1/delta0=0 is PSO.
        xi, f = None, self._f
        if f is not None:
            f_right, f_left = f[: cfg.n], f[cfg.n :]
            # Sign by comparison, so +inf against +inf gives 0 (no move), not NaN. Scaling the
            # sign (-1, 0 or 1) by -delta first is exact, so V meets a single multiply.
            sign = np.subtract(f_right > f_left, f_right < f_left, dtype=float)
            sign *= -st.delta
            xi = np.multiply(st.V, sign[:, None])

        # 2. Velocity clip((omega*V + (a1*r1)*(P - X)) + (a2*r2)*(G - X)); a1*r1, a2*r2 are a step of a scaled block.
        if self._i == len(self._pulls):
            b = 1 if self.problem.stochastic else 32768 // (2 * st.V.size)
            self._pulls = None  # freed before the next block is drawn, which then takes its memory, not fresh pages
            self._pulls, self._i = rng.uniform((max(1, min(b, cfg.max_iters - st.k)), 2) + st.V.shape), 0
            self._pulls *= self._scale
        pull_p, pull_g = self._pulls[self._i]
        self._i += 1
        V = np.subtract(st.P, st.X)
        pull_p *= V
        np.subtract(self._G, st.X, out=V)
        pull_g *= V
        np.multiply(st.V, omega, out=V)
        V += pull_p
        V += pull_g
        st.V = frozen(clip_in_place(V, self.v_lo, self.v_hi))

        # 3. Position clip((X + lam*V) + (1 - lam)*xi), the swarm move blended with the antenna move; where lam < 1,
        # it is block 0 of a fresh (3, n, dim) batch B, whose blocks 1 and 2 the settle's probes fill.
        B = np.empty((3,) + st.V.shape) if cfg.lam < 1.0 else None
        X = np.multiply(st.V, lam, out=None if B is None else B[0])
        X += st.X
        if xi is not None:
            xi *= rest
            X += xi
        st.X = frozen(clip_in_place(X, self.lower[0], self.upper[0]))

        # 4. The schedule, then the one settle of every swarm: evaluation (with the next step's probes) and bests.
        st.delta = cfg.eta * st.delta
        st.k += 1
        self._settle(B)
        if self.debug_checks:
            self._check_invariants()

    def _settle(self, B: Array | None) -> None:
        """Evaluate the swarm ``state.X`` after ``state.k`` iterations, block 0 of the fresh (3, n, dim) array B (a
        step with lam == 1 makes none), and fold it into the bests and the curve. If step k + 1 probes (lam < 1, spacing
        d = delta / c2_ratio > 0), its probes from X, V and d, clamped if the problem asks, fill blocks 1 and 2 and go
        with the swarm as one (3n, dim) batch; their values are kept for that step (None if it does not probe)."""
        st, X, d = self.state, self.state.X, self.state.delta / self.config.c2_ratio
        probing = st.k < self.config.max_iters and self.config.lam < 1.0 and d > 0.0
        if probing:
            antennae(X, st.V, d, B[1:])
            if self.problem.clamp_probes:
                clip_in_place(B[1:], self.lower, self.upper)
        F = self.problem.evaluate_many(B.reshape(-1, X.shape[1]) if probing else X, self.rng)
        F, self._f = F[: len(X)], F[len(X) :] if probing else None
        improved = F < st.Pf
        if np.count_nonzero(improved):  # no personal best improved: the bests stay as they are
            np.copyto(st.P, X, where=improved[:, None])
            np.copyto(st.Pf, F, where=improved)
            gi = int(st.Pf.argmin())
            st.G, st.Gf = frozen(st.P[gi].copy()), float(st.Pf[gi])
            np.copyto(self._G, st.G)
        self.curve.append(st.Gf)

    def run(self) -> tuple[list[float], Array, float]:
        """Step to the iteration budget; returns the curve, the global-best position and its fitness."""
        for _ in range(self.config.max_iters):
            self.step()
        return self.curve, self.state.G.copy(), self.state.Gf

    def _check_invariants(self) -> None:
        st = self.state
        for holds, name in (
            (np.all(np.isfinite(st.V)), "every velocity is finite"),
            (np.all(st.X >= self.space.lower) and np.all(st.X <= self.space.upper), "every position lies in the box"),
            (st.Gf == float(st.Pf.min()), "Gf is the least personal best"),
            (np.array_equal(st.G, st.P[int(np.argmin(st.Pf))]), "G is the position of the least personal best"),
            (self.curve[-1] <= self.curve[-2], "the curve does not rise"),
        ):
            if not holds:  # raised, not asserted, so the check survives ``python -O``
                raise AssertionError(f"debug check failed at iteration {st.k}: {name}")


def run_bso(
    problem: Problem,
    config: BsoConfig | None = None,
    seed: int | None = None,
    debug_checks: bool = False,
) -> RunRecord:
    """Run the swarm to its iteration budget and package the result."""
    return RunRecord.from_run(
        problem, "bso", BsoConfig, config, seed, lambda cfg, s: BsoEngine(problem, cfg, s, debug_checks).run()
    )


@dataclass(frozen=True)
class PsoConfig(ConfigDict):
    """Tunables for the global-best PSO baseline; a strict subset of the BSO knobs.

    PSO is this engine with ``lam = 1`` and ``delta0 = 0``: the antenna
    machinery is then skipped entirely (no extra fitness evaluations, no
    extra random draws) and what remains is exactly

        v' = omega * v + a1*r1*(pbest - x) + a2*r2*(gbest - x),  x' = x + v'.

    Sharing the engine is deliberate: it pins, by construction and by test,
    that the two optimizers differ only in the antenna term.
    """

    n: int = 50
    max_iters: int = 1000
    a1: float = 1.49445
    a2: float = 1.49445
    omega_max: float = 0.9
    omega_min: float = 0.4
    v_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        self.to_bso()  # the engine config checks types and ranges

    def check_box(self, problem: Problem) -> None:
        self.to_bso().check_box(problem)

    def to_bso(self) -> BsoConfig:
        """Equivalent engine configuration (pure swarm move, antennae off)."""
        return BsoConfig(**self.to_dict(), lam=1.0, delta0=0.0)


def run_pso(
    problem: Problem,
    config: PsoConfig | None = None,
    seed: int | None = None,
    debug_checks: bool = False,
) -> RunRecord:
    """Run plain global-best PSO and package the result."""
    return RunRecord.from_run(
        problem, "pso", PsoConfig, config, seed, lambda cfg, s: BsoEngine(problem, cfg.to_bso(), s, debug_checks).run()
    )
