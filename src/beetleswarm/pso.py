"""Global-best particle swarm baseline.

Standard PSO with linearly decreasing inertia, implemented by configuring
the beetle swarm engine with ``lam = 1`` and ``delta0 = 0``: at that point
the antenna machinery is skipped entirely (no extra fitness evaluations,
no extra random draws) and what remains is exactly

    v' = omega * v + a1*r1*(pbest - x) + a2*r2*(gbest - x),  x' = x + v'.

Sharing the engine is deliberate: it pins, by construction and by test,
that the two optimizers differ only in the antenna term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bso import BsoConfig, BsoEngine
from .core import ConfigDict, Problem, RunRecord


@dataclass(frozen=True)
class PsoConfig(ConfigDict):
    """Tunables for a PSO run; a strict subset of the BSO knobs."""

    n: int = 50
    max_iters: int = 1000
    a1: float = 1.49445
    a2: float = 1.49445
    omega_max: float = 0.9
    omega_min: float = 0.4
    v_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        # Delegate type and range checks to the engine config.
        self.to_bso()

    def to_bso(self) -> BsoConfig:
        """Equivalent engine configuration (pure swarm move, antennae off)."""
        return BsoConfig(
            n=self.n,
            max_iters=self.max_iters,
            lam=1.0,
            a1=self.a1,
            a2=self.a2,
            omega_max=self.omega_max,
            omega_min=self.omega_min,
            delta0=0.0,
            v_frac=self.v_frac,
            seed=self.seed,
        )


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
