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

Per iteration the engine, in order: computes the inertia weight, derives
the antenna spacing from the current step, probes both antennae per beetle
(using the pre-update velocity), updates velocities (clamped), updates and
clamps positions, evaluates the moved swarm, refreshes personal and global
bests, and finally contracts the step. Random draws happen in a fixed order
(one r1 batch then one r2 batch per iteration, in beetle index order), so
runs are reproducible from the seed alone.

Objective batches: an iteration makes three (n, dim) objective calls: the
right and the left probes, the two halves of one fresh (2, n, dim) array
from ``core.antennae`` (BAS's builder), then the moved swarm, a fresh array;
with lam = 1 or a zero (or underflowed) spacing only the last. A
stochastic objective draws its noise in row order (as F7 does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigDict, Problem, RandomStream, RunRecord, antennae, check_fields, clip_in_place, constants, uniform_population
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
    """Mutable swarm snapshot: positions, velocities, bests and schedules."""

    X: Array  # (n, dim) positions
    V: Array  # (n, dim) velocities
    P: Array  # (n, dim) personal-best positions
    Pf: Array  # (n,) personal-best fitnesses
    G: Array  # (dim,) global-best position
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


def antenna_increment(problem: Problem, X: Array, V: Array, delta: float, d: float, rng, lo, hi) -> Array:
    """Signed antenna move per beetle, always parallel to its velocity.

    The probes sit at X +/- V*d/2, right then left, as the two halves of
    the fresh (2, n, dim) array ``antennae`` builds (clamped to [lo, hi]
    if the problem asks for it); each half is one objective call. The
    increment is -delta * V * sign(f(right) - f(left)), i.e. toward the
    lower-fitness probe. The clamp equals ``ndarray.clip`` only if lo and
    hi have the probes' (2, n, dim) shape, as the engine's tiled box does;
    scalar or (dim,) bounds can return the bound on a tie of signed zeros.
    """
    probes = antennae(X, V, d)
    if problem.clamp_probes:
        clip_in_place(probes, lo, hi)
    f_right, f_left = problem.evaluate_many(probes[0], rng), problem.evaluate_many(probes[1], rng)
    # Sign by comparison, so +inf against +inf gives 0 (no move), not NaN. Scaling the
    # sign (-1, 0 or 1) by -delta first is exact, so V meets a single multiply.
    sign = np.subtract(f_right > f_left, f_right < f_left, dtype=float)
    sign *= -delta
    return np.multiply(V, sign[:, None])


def swarm_velocity(
    V: Array, X: Array, P: Array, G: Array, omega: float, a1: float, a2: float, rng, v_lo, v_hi
) -> Array:
    """Clamped velocity update; draws r1 then r2, one per beetle per dimension.

    Computes clip((omega*V + (a1*r1)*(P - X)) + (a2*r2)*(G - X)) in that
    order, with r1 and r2 taken from one (2, n, dim) draw. That is ``clip``
    only for v_lo, v_hi of V's shape (the engine tiles them); scalar or
    (dim,) bounds can return the bound on a tie of signed zeros.
    """
    r = rng.uniform((2,) + V.shape)
    pull_p, pull_g = r[0], r[1]
    pull_p *= a1
    pull_g *= a2
    out = np.subtract(P, X)
    pull_p *= out
    np.subtract(G, X, out=out)
    pull_g *= out
    np.multiply(V, omega, out=out)
    out += pull_p
    out += pull_g
    return clip_in_place(out, v_lo, v_hi)


def blend_position(X: Array, V: Array, xi: Array | None, lam: float, rest: float, lower, upper) -> Array:
    """Blend the swarm move and the antenna move, then project into the box.

    Computes clip((X + lam*V) + rest*xi), where the engine passes
    rest = 1 - lam; ``xi`` of None stands for a zero antenna move. The
    clip is ``ndarray.clip`` only if lower and upper have X's shape (the
    engine passes a tiled box); scalar or (dim,) bounds can return the
    bound on a tie of signed zeros.
    """
    out = np.multiply(V, lam)
    out += X
    if xi is not None:
        out += np.multiply(xi, rest)
    return clip_in_place(out, lower, upper)


class BsoEngine:
    """Stateful, vectorized swarm stepper.

    ``run_bso`` drives it to completion; tests can step it manually and
    inspect the swarm between iterations. ``debug_checks`` re-validates the
    core invariants (bounds containment, best-fitness bookkeeping) after
    every step. The box is stored at the probes' (2, n, dim) shape (its [0]
    half bounds the swarm) and the velocity bounds at (n, dim), so no clamp
    broadcasts (dim,) bounds (see ``clip_in_place``). Constant coefficients
    are ``core.constants``; per-step values stay floats.
    """

    def __init__(
        self,
        problem: Problem,
        config: BsoConfig,
        seed: int | None = None,
        debug_checks: bool = False,
    ):
        self.problem = problem
        self.config = config
        self.space = problem.space
        self.rng = RandomStream(config.seed if seed is None else seed)
        self.debug_checks = debug_checks

        self.lower = np.tile(self.space.lower, (2, config.n, 1))
        self.upper = np.tile(self.space.upper, (2, config.n, 1))
        self.v_hi = np.tile(config.v_frac * self.space.widths, (config.n, 1))
        self.v_lo = -self.v_hi
        self._coef = constants(config.a1, config.a2, config.lam, 1.0 - config.lam)

        X = uniform_population(self.rng, self.space, config.n)
        V = self.v_lo + self.rng.uniform((config.n, self.space.dim)) * (self.v_hi - self.v_lo)
        F = problem.evaluate_many(X, self.rng)
        gi = int(F.argmin())
        self.state = SwarmState(
            X=X,
            V=V,
            P=X.copy(),
            Pf=F,
            G=X[gi].copy(),
            Gf=float(F[gi]),
            delta=float(config.delta0),
            k=0,
        )
        self.curve = [self.state.Gf]

    def step(self) -> None:
        """One full swarm iteration."""
        st, cfg = self.state, self.config
        omega = inertia_weight(st.k, cfg.max_iters, cfg.omega_min, cfg.omega_max)

        # Antenna probes use the pre-update velocities. When the antenna
        # term cannot influence the move (lam == 1, or a zero or underflowed
        # spacing: coincident probes) the probes are skipped outright, so
        # they consume neither evaluations nor noise draws; this keeps the
        # lam=1/delta0=0 configuration draw-for-draw identical to plain PSO.
        xi = None
        d = st.delta / cfg.c2_ratio
        if cfg.lam < 1.0 and d > 0.0:
            xi = antenna_increment(self.problem, st.X, st.V, st.delta, d, self.rng, self.lower, self.upper)

        a1, a2, lam, rest = self._coef
        st.V = swarm_velocity(st.V, st.X, st.P, st.G, omega, a1, a2, self.rng, self.v_lo, self.v_hi)
        st.X = blend_position(st.X, st.V, xi, lam, rest, self.lower[0], self.upper[0])

        F = self.problem.evaluate_many(st.X, self.rng)
        improved = F < st.Pf
        if np.count_nonzero(improved):  # no personal best improved: the bests stay as they are
            np.copyto(st.P, st.X, where=improved[:, None])
            np.copyto(st.Pf, F, where=improved)
            gi = int(st.Pf.argmin())
            st.G = st.P[gi].copy()
            st.Gf = float(st.Pf[gi])

        st.delta = cfg.eta * st.delta
        st.k += 1
        self.curve.append(st.Gf)
        if self.debug_checks:
            self._check_invariants()

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
