"""Constrained engineering design problems with exterior-penalty handling.

Two classic mixed/nonlinear design benchmarks are registered here:

* ``PV`` - pressure vessel design: minimize material, forming and welding
  cost of a cylindrical vessel with hemispherical heads. Four variables
  (shell thickness, head thickness, inner radius, cylinder length); the
  two thicknesses are only available in multiples of 0.0625 inch, so they
  snap to that grid before every evaluation. Four "<= 0" constraints.

* ``HB`` - Himmelblau's five-variable nonlinear optimization problem,
  with three constraint functions that must each stay inside an interval.

Constraint handling is a static exterior penalty: fitness seen by the
optimizers is raw objective plus ``weight * sum(violation ** 2)``,
which equals the raw objective exactly on the feasible set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from sys import float_info
from typing import Callable

import numpy as np

from .core import _ZERO, Problem, SearchSpace, check_fields, clip_in_place, constants, frozen, lookup, real, shown

Array = np.ndarray


@dataclass(frozen=True)
class PenaltyConfig:
    """Exterior penalty: weight * violation^2 per constraint, summed.

    The weight default is deliberately stiff. Both design optima here sit
    exactly on constraint boundaries, and a quadratic penalty lets the
    swarm trade a visible objective gain for an O(sqrt(gain/weight))
    boundary violation; 1e12 pushes that equilibrium violation below 1e-9,
    comfortably inside the feasibility tolerance used for reporting.
    """

    weight: float = 1e12

    def __post_init__(self):
        check_fields(self)
        if self.weight < 0:
            raise ValueError("penalty weight must be nonnegative")


@dataclass(frozen=True)
class DiscreteGrid:
    """Values restricted to {k_min..k_max} * step."""

    step: float
    k_min: int
    k_max: int

    def __post_init__(self):
        # not check_fields, which refuses negative integers: a grid may reach below zero
        if any(isinstance(k, bool) or not isinstance(k, numbers.Integral) for k in (self.k_min, self.k_max)):
            raise ValueError(f"grid k_min and k_max must be integers, got {shown(self.k_min)} and {shown(self.k_max)}")
        if isinstance(self.step, bool) or not (isinstance(self.step, numbers.Real) and 0 < self.step < math.inf):
            raise ValueError(f"grid step must be positive and finite, got {shown(self.step)}")
        if isinstance(self.step, numbers.Rational) and self.step > float_info.max:  # exact, where float() overflows
            raise ValueError("grid step must be positive and finite, got a number too large for a float")
        if self.k_min > self.k_max:
            raise ValueError(f"grid k_min must not exceed k_max, got {shown(self.k_min)} > {shown(self.k_max)}")


@dataclass(frozen=True, eq=False)
class ConstrainedProblem:
    """Raw objective, interval constraints and per-dimension variable kinds.

    ``g_lower``/``g_upper`` give the feasible interval per constraint;
    one-sided "g <= 0" constraints use lower = -inf, upper = 0. The problem
    keeps read-only float copies of both (a variant comes from
    ``dataclasses.replace``). ``grids`` has one entry per dimension: a
    DiscreteGrid for snapped variables, None for continuous ones. Through
    ``as_problem``, ``raw_batch`` and ``constraint_batch`` receive the
    snapped copy in column-major order, so they must not assume a
    C-contiguous input.

    A problem is plain data that equals only itself (``eq=False``), so it
    hashes by identity: the arrays derived from it for a batch shape are
    cached by ``_layout``, keyed on the problem and that shape.
    """

    id: str
    space: SearchSpace
    raw_batch: Callable[[Array], Array]
    constraint_batch: Callable[[Array], Array]
    g_lower: Array
    g_upper: Array
    grids: tuple[DiscreteGrid | None, ...]

    def __post_init__(self):
        if len(self.grids) != self.space.dim:
            raise ValueError(f"{self.id}: {len(self.grids)} grids for {self.space.dim} dimensions, not one each")
        for name in ("g_lower", "g_upper"):
            object.__setattr__(self, name, frozen(np.array(real(getattr(self, name), f"{self.id} {name}"))))

    def snap_many(self, X: Array) -> Array:
        """Fresh column-major copy of X, each gridded column set to clip(round(x / step), k_min, k_max) * step."""
        X = np.array(self.space.rows(X, self.id), order="F")
        cols, step, k_min, k_max = _layout(self, X.shape[0])[:4]
        if cols is not None:
            k = X[:, cols]
            k /= step
            np.rint(k, out=k)
            clip_in_place(k, k_min, k_max)
            k *= step
            X[:, cols] = k
        return X

    def snap(self, x) -> Array:
        return self.snap_many(self.space.row(x, self.id))[0]

    def raw(self, x) -> float:
        return float(self.raw_batch(self.space.row(x, self.id))[0])

    def constraints(self, x) -> Array:
        return self.constraint_batch(self.space.row(x, self.id))[0]

    def violations_many(self, X: Array) -> Array:
        """(m, n_constraints) array of interval violations of an (m, dim) batch, which meets the ``real`` rule: zero
        when satisfied, also where g meets a one-sided bound at -inf or +inf (g = -inf against g_lower = -inf)."""
        X = self.space.rows(X, self.id)
        g_lower, g_upper = _layout(self, X.shape[0])[4:]
        g = self.constraint_batch(X)
        below = np.subtract(g_lower, g)
        np.fmax(below, np.subtract(g, g_upper), out=below)
        return np.maximum(_ZERO, below, out=below)

    def feasible(self, x, tol: float = 1e-6) -> bool:
        """Whether every constraint holds, within ``tol`` absolute slack.

        Both problems' optima sit exactly on constraint boundaries, so a
        converged solution lands within floating-point noise of g = bound;
        the default slack accepts those boundary points (set tol=0 for the
        exact check).
        """
        g = self.constraints(x)
        return bool(np.all(g >= self.g_lower - tol) and np.all(g <= self.g_upper + tol))

    def report(self, x, tol: float = 1e-6) -> dict:
        """Snapped point, raw objective, constraint values and feasibility."""
        xs = self.snap(x)
        g = self.constraints(xs)
        return {
            "x": [float(v) for v in xs],
            "raw_objective": self.raw(xs),
            "g": [float(v) for v in g],
            "feasible": self.feasible(xs, tol),
        }


@lru_cache(maxsize=8)  # a process meets few batch sizes per problem: 3n, n, 3 and 1, plus 50 and 1500 in perfbench
def _layout(problem: ConstrainedProblem, m: int) -> tuple:
    """The gridded columns (a slice when adjacent, so no gather; None without grids), then the grid steps, k
    bounds and g bounds tiled to m column-major rows, so no snap or violation ufunc broadcasts. An infinite bound
    facing a finite one tiles as NaN, which fmax passes over, so no inf - inf (and its warning) is ever taken."""
    lo, hi, inf = problem.g_lower, problem.g_upper, np.inf
    lo, hi = np.where((lo == -inf) & (hi < inf), np.nan, lo), np.where((hi == inf) & (lo > -inf), np.nan, hi)
    cols = [j for j, g in enumerate(problem.grids) if g is not None] or None
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        cols = slice(cols[0], cols[-1] + 1)
    elif cols:
        cols = frozen(np.array(cols, dtype=np.intp))
    table = np.array([(g.step, g.k_min, g.k_max) for g in problem.grids if g is not None], dtype=float).reshape(-1, 3)
    tiles = (frozen(np.asfortranarray(np.tile(r, (m, 1)))) for r in (*table.T, lo, hi))
    return (cols, *tiles)


def _penalized_many(problem: ConstrainedProblem, X: Array, weight: Array) -> Array:
    """Raw objective plus the exterior penalty, at a 0-d array ``weight``, for each row of X, unsnapped."""
    viol = problem.violations_many(X)
    viol *= viol
    penalty = np.add.reduce(viol, axis=1)
    penalty *= weight
    return np.add(problem.raw_batch(X), penalty, out=penalty)


def penalized_fitness(problem: ConstrainedProblem, x, config: PenaltyConfig) -> float:
    """Raw objective plus the exterior penalty at a single point."""
    return float(_penalized_many(problem, problem.space.row(x, problem.id), np.array(config.weight))[0])


# ---------------------------------------------------------------------------
# pressure vessel design
# ---------------------------------------------------------------------------


_PV_COST = constants(0.6224, 1.7781, 3.1661, 19.84)
_PV_G = constants(0.0193, 0.00954, -math.pi, (4.0 / 3.0) * math.pi, 3.0, 1296000.0, 240.0)


def _pv_cost(X: Array) -> Array:
    x1, x2, x3, x4 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    c1, c2, c3, c4 = _PV_COST
    x1_sq = x1 * x1
    return c1 * x1 * x3 * x4 + c2 * x2 * (x3 * x3) + c3 * x1_sq * x4 + c4 * x1_sq * x3


def _pv_constraints(X: Array) -> Array:
    x1, x2, x3, x4 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    c1, c2, neg_pi, c3, three, volume, length = _PV_G
    G = np.empty((4, X.shape[0]))  # one row per constraint, returned as its (m, 4) transpose
    np.subtract(c1 * x3, x1, out=G[0])
    np.subtract(c2 * x3, x2, out=G[1])
    # x3**3 is a libm pow, kept so its bits do not change
    np.add(neg_pi * (x3 * x3) * x4 - c3 * x3**three, volume, out=G[2])
    np.subtract(x4, length, out=G[3])
    return G.T


_PV_GRID = DiscreteGrid(step=0.0625, k_min=1, k_max=99)

PRESSURE_VESSEL = ConstrainedProblem(
    id="PV",
    space=SearchSpace(
        np.array([1 * 0.0625, 1 * 0.0625, 10.0, 10.0]),
        np.array([99 * 0.0625, 99 * 0.0625, 200.0, 200.0]),
    ),
    raw_batch=_pv_cost,
    constraint_batch=_pv_constraints,
    g_lower=np.array([-np.inf] * 4),
    g_upper=np.zeros(4),
    grids=(_PV_GRID, _PV_GRID, None, None),
)


# ---------------------------------------------------------------------------
# Himmelblau's optimization problem
# ---------------------------------------------------------------------------


_HB_OBJ = constants(5.3578547, 0.8356891, 37.29329, 40792.141)
# Each constraint is k + (c*a)*b + (c*a)*b + (c*a)*b; a subtracted term has a negated c, and c*x3**2 is (c*x3**2)*1.
_HB_K = frozen(np.array([[85.334407], [80.51249], [9.300961]]))
_HB_C = frozen(np.array([[0.0056858, 0.00026, -0.0022053, 0.0071317, 0.0029955, 0.0021813, 0.0047026, 0.0012547,
                          0.0019085]]).T)
_HB_A, _HB_B = frozen(np.array([1, 0, 2, 1, 0, 5, 2, 0, 2])), frozen(np.array([4, 3, 4, 4, 1, 6, 4, 2, 3]))


def _hb_objective(X: Array) -> Array:
    x1, x3, x5 = X[:, 0], X[:, 2], X[:, 4]
    c1, c2, c3, c4 = _HB_OBJ
    return c1 * (x3 * x3) + c2 * x1 * x5 + c3 * x1 - c4


def _hb_constraints(X: Array) -> Array:
    """g1 = 85.334407 + 0.0056858*x2*x5 + 0.00026*x1*x4 - 0.0022053*x3*x5, g2 = 80.51249 + 0.0071317*x2*x5
    + 0.0029955*x1*x2 + 0.0021813*x3**2, g3 = 9.300961 + 0.0047026*x3*x5 + 0.0012547*x1*x3 + 0.0019085*x3*x4,
    each added left to right; the nine products come from one pass over the rows x1..x5, x3**2 and 1."""
    rows = np.empty((7, X.shape[0]))
    rows[:5] = X.T
    np.multiply(rows[2], rows[2], out=rows[5])
    rows[6] = 1.0
    terms = rows.take(_HB_A, axis=0)
    terms *= _HB_C
    terms *= rows.take(_HB_B, axis=0)
    G = np.add(_HB_K, terms[0::3])
    G += terms[1::3]
    G += terms[2::3]
    return G.T


HIMMELBLAU = ConstrainedProblem(
    id="HB",
    space=SearchSpace(
        np.array([78.0, 33.0, 27.0, 27.0, 27.0]),
        np.array([102.0, 45.0, 45.0, 45.0, 45.0]),
    ),
    raw_batch=_hb_objective,
    constraint_batch=_hb_constraints,
    g_lower=np.array([0.0, 90.0, 20.0]),
    g_upper=np.array([92.0, 110.0, 25.0]),
    grids=(None,) * 5,
)


_CONSTRAINED: dict[str, ConstrainedProblem] = {"PV": PRESSURE_VESSEL, "HB": HIMMELBLAU}
CONSTRAINED_IDS: tuple[str, ...] = tuple(_CONSTRAINED)


def constrained_problem(problem_id: str) -> ConstrainedProblem:
    return lookup(_CONSTRAINED, problem_id, "constrained problem")


def as_problem(cp: ConstrainedProblem, penalty: PenaltyConfig | None = None) -> Problem:
    """Penalized, snap-before-evaluate fitness wrapper for the optimizers.

    The optimizers stay purely continuous; discrete variables are snapped
    to their grid inside the wrapper, and infeasibility is priced in via
    the exterior penalty. Probe points are clamped to the box because the
    raw objectives are only physically meaningful there. The objective is a
    functools.partial, not a closure, so the problem pickles for the trial
    process pool.
    """
    [weight] = constants((penalty or PenaltyConfig()).weight)
    return Problem(id=cp.id, space=cp.space, batch=partial(_snapped_penalized, cp, weight), clamp_probes=True)


def _snapped_penalized(cp: ConstrainedProblem, weight: Array, X: Array, rng=None) -> Array:
    return _penalized_many(cp, cp.snap_many(X), weight)
