"""Search spaces, objective contracts, seeded random streams and run records.

Everything in this module is shared by the optimizers: a box-constrained
search space, a minimization problem wrapper, a reproducible uniform
random stream, and the record type a single optimizer run produces.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

Array = np.ndarray


def frozen(a: Array) -> Array:
    """``a``, made read-only: the one way a shared constant, table or stored bound is frozen where it is made."""
    a.setflags(write=False)
    return a


def constants(*values: float) -> tuple[Array, ...]:
    """Each value as a read-only float64 0-d array, the one form of a constant coefficient on the hot path: it holds
    the Python float's bits, and a ufunc given one needs no scalar conversion or dtype resolution per call. Values
    that change every step stay Python floats, since building a 0-d array costs about what it saves."""
    return tuple(frozen(np.array(v, dtype=float)) for v in values)


_INF, _ZERO = constants(np.inf, 0.0)
_FLOAT64 = np.dtype(np.float64)  # the native float64 dtype


def real(a, name: str, expected: str = "expected real numbers") -> Array:
    """``a`` by the one rule for every array a caller hands in or an objective returns: a native float64 ndarray as
    it is, integers and other float widths cast to float64, any other dtype a ValueError naming ``name``."""
    if type(a) is not np.ndarray or a.dtype is not _FLOAT64:
        a = np.asarray(a)
        if a.dtype.kind not in "fiu":
            raise ValueError(f"{name}: {expected}, got dtype {a.dtype}")
        a = a.astype(_FLOAT64, copy=False)
    return a


def returned(F, shape: tuple, name: str, what: str = "objective") -> Array:
    """``F``, what user code ``what`` returned, by the ``real`` rule and at shape ``shape``; errors name ``name``."""
    F = real(F, name, f"{what} must return real numbers")
    if F.shape != shape:
        raise ValueError(f"{name}: {what} must return shape {shape} for {shape[0]} points, got shape {F.shape}")
    return F


def lookup(table: dict, name, kind: str):
    """``table[str(name).upper()]``, the one id rule of every registry: a table keyed by upper-case ids, any case in."""
    if (key := str(name).upper()) not in table:
        raise KeyError(f"unknown {kind} {name!r}")
    return table[key]


class RandomStream:
    """Seeded stream of uniform draws in [0, 1).

    Backed by numpy's PCG64 bit generator, which is pinned here on purpose:
    its output sequence is fully specified by the seed and is stable across
    platforms and numpy releases, so identical seeds reproduce identical
    runs everywhere. Batched draws consume the stream exactly like the same
    number of scalar draws.
    """

    def __init__(self, seed: int):
        self.seed = check_int(seed, "seed")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size: int | tuple[int, ...] | None = None):
        """Uniform draws in [0, 1); a float if size is None, else an array."""
        return self._gen.random(size)


class Rebuilt:  # a frozen dataclass that unpickles through its constructor, so its frozen arrays come back read-only
    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


class ConfigDict:
    """Plain-dict round trip for the frozen optimizer config dataclasses."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Config from a dict; a key that is not a field is an error, and the constructor checks the values."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**data)


def shown(value) -> str:
    """``repr(value)`` for an error message, or the bit length of an int or Fraction past repr's 4,300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"a {int(value).bit_length()}-bit {type(value).__name__}"


def check_int(value, name: str) -> int:
    """``value`` as a Python int, by the rule an int config field follows: an integer, not a bool, at least 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {shown(value)}")
    return int(value)


def check_fields(config) -> None:
    """Checks every config shares: an int field takes an integer, a float field any real (and None if typed
    ``float | None``), no field a bool; each number is finite, each integer nonnegative, and kept as int or float."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and "None" in f.type:
            continue
        kind = numbers.Integral if f.type == "int" else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"config key {f.name!r} must be {f.type}, got {shown(value)}")
        try:  # isfinite takes a float, and an int or Fraction past the float range (10**400) overflows it
            if kind is numbers.Real and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        except OverflowError:
            raise ValueError(f"{f.name} must be finite, got a number too large for a float") from None
        if kind is numbers.Integral:
            check_int(value, f.name)
        if type(value) not in (int, float):  # numpy's numbers or a Fraction: the plain int or float they equal
            object.__setattr__(config, f.name, int(value) if isinstance(value, numbers.Integral) else float(value))


@dataclass(frozen=True, eq=False)
class SearchSpace(Rebuilt):
    """Axis-aligned box of feasible positions. A box, like a Problem, equals only itself and hashes by identity."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lower = np.array(real(self.lower, "lower bound"), ndmin=1)  # copies, so the caller's arrays stay writable
        upper = np.array(real(self.upper, "upper bound"), ndmin=1)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if lower.size < 1:
            raise ValueError("search space needs at least one dimension")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        for i, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist())):
            if not math.isfinite(hi - lo):  # an infinite bound, or a width past the float range
                raise ValueError(f"dimension {i}: bounds [{lo}, {hi}] must be finite and so must their width")
        object.__setattr__(self, "lower", frozen(lower))
        object.__setattr__(self, "upper", frozen(upper))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> Array:
        return self.upper - self.lower

    def row(self, x, name: str) -> Array:
        """Point x by ``real``, as a (1, dim) batch; anything but a vector of length dim is an error naming ``name``."""
        x = real(x, name)
        if x.ndim != 1 or x.size != self.dim:
            raise ValueError(f"{name}: expected a vector of length {self.dim}, got shape {x.shape}")
        return x[None, :]

    def rows(self, X, name: str) -> Array:
        """Batch X by ``real``; anything but an (m, dim) array is an error naming ``name``."""
        X = real(X, name)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"{name}: expected an (m, {self.dim}) array, got shape {X.shape}")
        return X

    @classmethod
    def box(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        """Cube with the same bounds in every dimension."""
        return cls(np.full(dim, lower), np.full(dim, upper))


@dataclass(frozen=True, eq=False)
class Problem:
    """A minimization problem over a box.

    ``batch`` maps an (m, dim) array of points to an (m,) array of real
    fitness values; any other output shape, or a complex or non-numeric
    output, is an error. A NaN value is read as +inf. Evaluation must be
    deterministic unless ``stochastic`` is set, in which case each point
    evaluation consumes draws from the stream the caller passes in, in row
    order (this is how noisy objectives stay reproducible). ``batch`` gets
    a read-only view, so an objective that writes into its input raises
    ValueError; the optimizers pass a fresh array on every call and never
    modify it afterwards. BSO sends one (3n, dim) batch per iteration, the
    moved swarm and the next right and left ``antennae`` probes written into
    one fresh array (the swarm alone in the last iteration or once the
    spacing is 0); BAS sends its point plus the next (3, dim) offsets drawn a
    block ahead, itself then the right and left probes (the last point alone),
    and, on a stochastic problem, its (2, dim) pair, then the point as one row.

    ``clamp_probes`` asks optimizers to project antenna probe points into
    the box before evaluating them; it is set on problems whose objective
    is only meaningful inside the box (the constrained design problems).
    Benchmark objectives are total on all of R^dim and leave it off.
    """

    id: str
    space: SearchSpace
    batch: Callable[[Array, "RandomStream | None"], Array]
    known_fmin: float | None = None
    stochastic: bool = False
    clamp_probes: bool = False

    def evaluate(self, x, rng: RandomStream | None = None) -> float:
        """Fitness of a single point."""
        return float(self.evaluate_many(self.space.row(x, self.id), rng)[0])

    def evaluate_many(self, X, rng: RandomStream | None = None) -> Array:
        """Fitness of each row of an (m, dim) array, handed to ``batch`` in C order. The batch and the output both meet
        the ``real`` rule, errors naming the problem; the output meets ``returned`` at shape (m,), then the NaN map."""
        X = np.asarray(self.space.rows(X, self.id), order="C")
        if self.stochastic and rng is None:
            raise ValueError(f"{self.id} is stochastic and needs a RandomStream to evaluate")
        X = X.view()
        X.setflags(write=False)  # the objective sees a read-only view; the caller's array stays writable
        F = returned(self.batch(X, rng), (X.shape[0],), self.id)
        # NaN ranks as +inf, so it never wins a comparison; other values keep their bits.
        return np.fmin(F, _INF)


def checked_config(problem: Problem, algorithm: str, config_type: type, config):
    """The config a run of ``algorithm`` on ``problem`` uses: ``config_type()`` for None, one of another type an
    error; ``config.check_box(problem)`` raises if its bounds overflow on the box. Runs no trial."""
    config = config_type() if config is None else config
    if not isinstance(config, config_type):
        raise ValueError(f"{algorithm} needs a {config_type.__name__}, got a {type(config).__name__}")
    config.check_box(problem)
    return config


@dataclass(frozen=True, eq=False)
class RunRecord(Rebuilt):
    """Everything one optimizer run produced. A record, like a Problem, equals only itself and hashes by identity.

    ``curve`` holds the best fitness seen so far at each iteration,
    including the initial population (length = iterations + 1), and is
    monotone nonincreasing. Two runs with the same seed, config and
    problem produce identical curves and best points; only
    ``wall_time_s`` varies between repeats.
    """

    problem_id: str
    algorithm: str
    seed: int
    config: dict
    curve: Array
    best_x: Array
    best_f: float
    wall_time_s: float

    def __post_init__(self):  # frozen copies, so the caller's own arrays stay writable
        object.__setattr__(self, "curve", frozen(np.array(real(self.curve, f"{self.problem_id} curve"))))
        object.__setattr__(self, "best_x", frozen(np.array(real(self.best_x, f"{self.problem_id} best_x"))))

    @classmethod
    def from_run(cls, problem: Problem, algorithm: str, config_type: type, config, seed, optimize) -> RunRecord:
        """The one run path of every optimizer: the config is ``checked_config``'s, a seed of None ``config.seed``,
        and ``wall_time_s`` times all of ``optimize(config, seed) -> (curve, best_x, best_f)``, set-up included. A
        ``best_f`` of -inf raises a ValueError naming the problem, the algorithm and the seed."""
        config = checked_config(problem, algorithm, config_type, config)
        seed = check_int(config.seed if seed is None else seed, "seed")
        start = time.perf_counter()
        curve, best_x, best_f = optimize(config, seed)
        elapsed = time.perf_counter() - start
        if best_f == -np.inf:  # no value improves on -inf, so the rest of the run could not move the best
            raise ValueError(f"{problem.id}: {algorithm}, seed {seed}, reached -inf; an objective must not return -inf")
        return cls(problem.id, algorithm, seed, {**config.to_dict(), "seed": seed}, curve, best_x, best_f, elapsed)

    def to_dict(self) -> dict:
        """JSON-ready representation (arrays become lists)."""
        return {
            "problem": self.problem_id,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config": dict(self.config),
            "best_f": self.best_f,
            "best_x": [float(v) for v in self.best_x],
            "iterations": int(self.curve.size - 1),
            "wall_time_s": self.wall_time_s,
        }


def antennae(x: Array, b: Array, d: float, out: Array | None = None) -> Array:
    """Right and left probes x +/- b*d/2 at antenna spacing d, the halves of ``out`` or a fresh (2,) + x.shape array."""
    if not d > 0:
        raise ValueError("antenna spacing d must be positive")
    offset = np.multiply(b, d / 2.0)
    probes = np.empty((2,) + x.shape) if out is None else out
    np.add(x, offset, out=probes[0])
    np.subtract(x, offset, out=probes[1])
    return probes


def clamp_to_bounds(x, space: SearchSpace) -> Array:
    """Point x, or an (m, dim) batch, by ``real``, projected onto the box: components already inside keep their
    exact values, outside ones land on the nearest bound. Idempotent."""
    x = real(x, "clamp_to_bounds")
    if x.ndim == 0 or x.shape[-1] != space.dim:
        raise ValueError(f"expected trailing dimension {space.dim}, got shape {x.shape}")
    return x.clip(space.lower, space.upper)


def clip_in_place(x: Array, lo: Array, hi: Array) -> Array:
    """``x.clip(lo, hi, out=x)`` bit for bit, without ndarray.clip's Python layer, only if lo and hi have x's shape.

    Scalar or (dim,) bounds, or ``np.maximum(lo, x)``, can return the bound on a tie of signed zeros
    (x = +0.0 against lo = -0.0 gives -0.0, where clip keeps +0.0); both optimizers pass bounds of x's shape."""
    return np.minimum(np.maximum(x, lo, out=x), hi, out=x)


def uniform_in_space(rng: RandomStream, space: SearchSpace) -> Array:
    """One point drawn uniformly from the box: the one-row case of ``uniform_population``, the same dim draws."""
    return uniform_population(rng, space, 1)[0]


def uniform_population(rng: RandomStream, space: SearchSpace, n: int) -> Array:
    """(n, dim) points drawn uniformly from the box, row by row."""
    u = rng.uniform((check_int(n, "n"), space.dim))
    return space.lower + u * space.widths
