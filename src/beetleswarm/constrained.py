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
from dataclasses import dataclass, field
from functools import lru_cache, partial
from sys import float_info
from typing import Callable

import numpy as np

from .core import _ZERO, Problem, Rebuilt, SearchSpace, check_fields, clip_in_place, constants, frozen, lookup, real
from .core import returned, shown

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
class ConstrainedProblem(Rebuilt):
    """Raw objective, interval constraints and per-dimension variable kinds.

    ``g_lower``/``g_upper`` give the feasible interval per constraint, 1-D and of one length (a scalar is one
    constraint), each holding a real g (no NaN, lower <= upper, lower < inf, upper > -inf); one-sided "g <= 0"
    constraints use lower = -inf, upper = 0. The problem keeps read-only float copies of both (a variant comes from
    ``dataclasses.replace``). ``grids`` has one entry per dimension: a DiscreteGrid with a point in the box, which
    snapping keeps, for snapped variables, None for continuous ones. ``raw_batch`` maps an (m, dim) batch to (m,)
    values and ``constraint_batch`` to (m, k), k = ``g_lower.size``; both results meet ``core.returned``, so a complex
    or misshapen one is a ValueError naming the problem and the callable, and NaN stays NaN. Through ``as_problem``
    they receive the snapped copy in column-major order, so they must not assume a C-contiguous input.

    Construction reads the grids (each float step positive, with finite box quotients) and intervals once, into the
    read-only ``_table``, and raises every error they hold, so no batch can. A problem equals only itself (``eq=False``)
    and hashes by identity: ``_layout`` caches its table tiled to a batch's m rows, keyed on the problem and m.
    """

    id: str
    space: SearchSpace
    raw_batch: Callable[[Array], Array]
    constraint_batch: Callable[[Array], Array]
    g_lower: Array
    g_upper: Array
    grids: tuple[DiscreteGrid | None, ...]
    _table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.grids) != self.space.dim:
            raise ValueError(f"{self.id}: {len(self.grids)} grids for {self.space.dim} dimensions, not one each")
        if bad := [grid for grid in self.grids if grid is not None and not isinstance(grid, DiscreteGrid)]:
            raise ValueError(f"{self.id}: each grid must be a DiscreteGrid or None, got {shown(bad[0])}")
        for name in ("g_lower", "g_upper"):
            object.__setattr__(self, name, frozen(np.array(real(getattr(self, name), f"{self.id} {name}"), ndmin=1)))
        if self.g_lower.ndim != 1 or self.g_lower.shape != self.g_upper.shape:
            raise ValueError(f"{self.id}: g_lower and g_upper must be 1-D arrays of equal length")
        for i, (lo, hi) in enumerate(zip(self.g_lower.tolist(), self.g_upper.tolist())):
            if not (lo <= hi and lo < math.inf and hi > -math.inf):
                raise ValueError(f"{self.id}: constraint {i} has no real g in its interval [{lo}, {hi}]")
        object.__setattr__(self, "_table", _table_of(self))

    def snap_many(self, X: Array) -> Array:
        """Fresh column-major copy of X, each gridded column set to clip(round(x / step), k_lo, k_hi) * step."""
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

    def _raw(self, X: Array) -> Array:
        return returned(self.raw_batch(X), (X.shape[0],), self.id, "raw_batch")

    def _g(self, X: Array) -> Array:
        return returned(self.constraint_batch(X), (X.shape[0], self.g_lower.size), self.id, "constraint_batch")

    def raw(self, x) -> float:
        return float(self._raw(self.space.row(x, self.id))[0])

    def constraints(self, x) -> Array:
        return self._g(self.space.row(x, self.id))[0]

    def _outside(self, g: Array, quiet: bool = False) -> Array:
        """Fresh (m, k) violations max(0, g_lower - g, g - g_upper) of an (m, k) g, the one reading of the
        intervals: zero when satisfied, also where g meets a one-sided bound at -inf or +inf, and NaN where g is."""
        if self._table[-1] and not quiet:  # a free constraint's g of ±inf takes inf - inf, a NaN that fmax skips
            with np.errstate(invalid="ignore"):
                return self._outside(g, quiet=True)
        g_lower, g_upper = _layout(self, g.shape[0])[4:]
        below = np.subtract(g_lower, g)
        np.fmax(below, np.subtract(g, g_upper), out=below)
        return np.maximum(_ZERO, below, out=below)

    def _holds(self, g: Array, tol: float) -> bool:
        if not tol >= 0:
            raise ValueError(f"{self.id}: tol must be a nonnegative number, got {shown(tol)}")
        return bool(np.all(self._outside(g) <= tol))

    def violations_many(self, X: Array) -> Array:
        """(m, n_constraints) array of interval violations of an (m, dim) batch, which meets the ``real`` rule."""
        return self._outside(self._g(self.space.rows(X, self.id)))

    def feasible(self, x, tol: float = 1e-6) -> bool:
        """Whether every violation of x, unsnapped, is at most ``tol`` (nonnegative, else a ValueError). Both problems'
        optima sit on constraint boundaries, and the default slack accepts a converged point's float noise there."""
        return self._holds(self._g(self.space.row(x, self.id)), tol)

    def report(self, x, tol: float = 1e-6) -> dict:
        """Snapped point, raw objective, g and ``feasible`` verdict, from one snap and one call of each callable."""
        xs = self.snap_many(self.space.row(x, self.id))
        g = self._g(xs)
        return {"x": xs[0].tolist(), "raw_objective": float(self._raw(xs)[0]), "g": g[0].tolist(),
                "feasible": self._holds(g, tol)}


@lru_cache(maxsize=8)  # a process meets few batch sizes per problem: 3n, n, 3 and 1, plus 50 and 1500 in perfbench
def _layout(problem: ConstrainedProblem, m: int) -> tuple:
    """The problem's ``_table`` with each row tiled to m column-major rows, so no snap or violation ufunc broadcasts."""
    cols, *rows, _ = problem._table
    return (cols, *(frozen(np.asfortranarray(np.tile(r, (m, 1)))) for r in rows))


def _table_of(problem: ConstrainedProblem) -> tuple:
    """Gridded columns (a slice when adjacent, so no gather), read-only rows of grid steps, k bounds narrowed to the k
    whose float k * step lies in the box, and g bounds, where an infinite bound facing a finite one is NaN, which fmax
    passes over (no inf - inf, no warning); last, whether a constraint is bounded on neither side."""
    table = []
    for j, (grid, lo, hi) in enumerate(zip(problem.grids, problem.space.lower.tolist(), problem.space.upper.tolist())):
        if grid is not None:
            step = float(grid.step)
            if not (step > 0 and math.isfinite(lo / step) and math.isfinite(hi / step)):
                raise ValueError(f"{problem.id}: dimension {j} grid step {step!r} as a float is too small for its box")
            # the rounded quotient may cross an integer either way: start one k outside it and step in while out
            k_lo, k_hi = math.ceil(lo / step) - 1, math.floor(hi / step) + 1
            k_lo += sum(k * step < lo for k in (k_lo, k_lo + 1))
            k_hi -= sum(k * step > hi for k in (k_hi, k_hi - 1))
            k_lo, k_hi = max(grid.k_min, k_lo), min(grid.k_max, k_hi)
            if k_lo > k_hi:
                raise ValueError(f"{problem.id}: dimension {j} has no point of its grid in its box [{lo}, {hi}]")
            table.append((step, k_lo, k_hi))
    cols = [j for j, g in enumerate(problem.grids) if g is not None] or None
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        cols = slice(cols[0], cols[-1] + 1)
    elif cols:
        cols = frozen(np.array(cols, dtype=np.intp))
    lo, hi, inf = problem.g_lower, problem.g_upper, np.inf
    bounds = np.where((lo == -inf) & (hi < inf), np.nan, lo), np.where((hi == inf) & (lo > -inf), np.nan, hi)
    rows = (*np.array(table, dtype=float).reshape(-1, 3).T, *bounds)
    return (cols, *map(frozen, rows), bool(np.any((lo == -inf) & (hi == inf))))


def _penalized_many(problem: ConstrainedProblem, X: Array, weight: Array) -> Array:
    """Raw objective plus the exterior penalty, at a 0-d array ``weight``, for each row of X, checked and unsnapped."""
    viol = problem._outside(problem._g(X))
    viol *= viol
    penalty = np.add.reduce(viol, axis=1)
    penalty *= weight
    return np.add(problem._raw(X), penalty, out=penalty)


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
# Each constraint is k + (c*a)*b + (c*a)*b + (c*a)*b (a subtracted term has a negated c; c*x3**2 is (c*x3**2)*1), its
# terms stored by position: the first terms of g1, g2 and g3, then the second, then the third, so a sum reads 3 rows.
_HB_K = frozen(np.array([[85.334407], [80.51249], [9.300961]]))
_HB_C = frozen(np.array([[0.0056858, 0.0071317, 0.0047026, 0.00026, 0.0029955, 0.0012547, -0.0022053, 0.0021813,
                          0.0019085]]).T)
_HB_A, _HB_B = frozen(np.array([1, 1, 2, 0, 0, 0, 2, 5, 2])), frozen(np.array([4, 4, 4, 3, 1, 2, 4, 6, 3]))


def _hb_objective(X: Array) -> Array:
    x1, x3, x5 = X[:, 0], X[:, 2], X[:, 4]
    c1, c2, c3, c4 = _HB_OBJ
    return c1 * (x3 * x3) + c2 * x1 * x5 + c3 * x1 - c4


def _hb_constraints(X: Array) -> Array:
    """g1 = 85.334407 + 0.0056858*x2*x5 + 0.00026*x1*x4 - 0.0022053*x3*x5, g2 = 80.51249 + 0.0071317*x2*x5
    + 0.0029955*x1*x2 + 0.0021813*x3**2, g3 = 9.300961 + 0.0047026*x3*x5 + 0.0012547*x1*x3 + 0.0019085*x3*x4,
    each added left to right, a term position (3 contiguous rows) at a time; the terms are one pass over the rows."""
    rows = np.empty((7, X.shape[0]))
    rows[:5] = X.T
    np.multiply(rows[2], rows[2], out=rows[5])
    rows[6] = 1.0
    terms = rows.take(_HB_A, axis=0)
    terms *= _HB_C
    terms *= rows.take(_HB_B, axis=0)
    G = np.add(_HB_K, terms[0:3])
    G += terms[3:6]
    G += terms[6:9]
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
