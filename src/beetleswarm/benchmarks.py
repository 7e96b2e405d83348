"""The 23 benchmark functions F1-F23, defined as Problems; ``catalog`` looks them up.

Three families of classic test functions: high-dimensional unimodal (F1-F7),
high-dimensional multimodal (F8-F13) and fixed-dimension multimodal
(F14-F23), each defined with its standard dimension, box range and known
minimum. All evaluators are vectorized over an (m, dim) batch of points and
are total on R^dim, so antenna probes may be evaluated outside the box.

F7 is the one stochastic member: each evaluation adds a fresh uniform[0,1)
draw from the caller's stream on top of the weighted quartic sum.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .core import Problem, RandomStream, SearchSpace, constants, frozen

Array = np.ndarray


# ---------------------------------------------------------------------------
# constant tables for the fixed-dimension functions
# ---------------------------------------------------------------------------

FOXHOLES_A = frozen(np.array(
    [
        [-32, -16, 0, 16, 32] * 5,
        [-32] * 5 + [-16] * 5 + [0] * 5 + [16] * 5 + [32] * 5,
    ],
    dtype=float,
))

KOWALIK_A = frozen(np.array([0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]))
KOWALIK_B = frozen(1.0 / np.array([0.25, 0.5, 1, 2, 4, 6, 8, 10, 12, 14, 16], dtype=float))

HARTMANN3_A = frozen(np.array([[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]], dtype=float))
HARTMANN3_C = frozen(np.array([1.0, 1.2, 3.0, 3.2]))
HARTMANN3_P = frozen(np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.0381, 0.5743, 0.8828],
    ]
))

HARTMANN6_A = frozen(np.array(
    [
        [10, 3, 17, 3.5, 1.7, 8],
        [0.05, 10, 17, 0.1, 8, 14],
        [3, 3.5, 1.7, 10, 17, 8],
        [17, 8, 0.05, 10, 0.1, 14],
    ],
    dtype=float,
))
HARTMANN6_C = frozen(np.array([1.0, 1.2, 3.0, 3.2]))
HARTMANN6_P = frozen(np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
))

SHEKEL_A = frozen(np.array(
    [
        [4, 4, 4, 4],
        [1, 1, 1, 1],
        [8, 8, 8, 8],
        [6, 6, 6, 6],
        [3, 7, 3, 7],
        [2, 9, 2, 9],
        [5, 5, 3, 3],
        [8, 1, 8, 1],
        [6, 2, 6, 2],
        [7, 3.6, 7, 3.6],
    ],
    dtype=float,
))
SHEKEL_C = frozen(np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# evaluators, each (m, dim) -> (m,)
#
# Integer powers above 2 are chains of *, never **: numpy sends such powers
# to its SIMD/libm pow, which is several times slower and not correctly
# rounded. Every evaluator also treats each row on its own, so a point's
# value does not depend on the batch it comes in.
# ---------------------------------------------------------------------------


def _sphere(X: Array, rng=None) -> Array:
    return (X * X).sum(axis=1)


def _abs_sum_and_product(X: Array, rng=None) -> Array:
    A = np.abs(X)
    return A.sum(axis=1) + A.prod(axis=1)


def _rotated_ellipsoid(X: Array, rng=None) -> Array:
    # sum of squared prefix sums
    return (np.cumsum(X, axis=1) ** 2).sum(axis=1)


def _max_abs(X: Array, rng=None) -> Array:
    return np.abs(X).max(axis=1)


def _rosenbrock(X: Array, rng=None) -> Array:
    return (100.0 * (X[:, 1:] - X[:, :-1] ** 2) ** 2 + (X[:, :-1] - 1.0) ** 2).sum(axis=1)


def _step(X: Array, rng=None) -> Array:
    return (np.floor(X + 0.5) ** 2).sum(axis=1)


def quartic_without_noise(X: Array) -> Array:
    """Deterministic part of F7: sum_i i * x_i^4 over each row of an (m, dim) float array."""
    idx = np.arange(1, X.shape[1] + 1, dtype=float)
    X4 = X * X
    X4 *= X4
    X4 *= idx
    return X4.sum(axis=1)


def _quartic_noisy(X: Array, rng: RandomStream) -> Array:
    # one fresh uniform[0,1) draw per evaluated point, added after the sum
    return quartic_without_noise(X) + rng.uniform(X.shape[0])


def _schwefel(X: Array, rng=None) -> Array:
    return (-X * np.sin(np.sqrt(np.abs(X)))).sum(axis=1)


def _rastrigin(X: Array, rng=None) -> Array:
    return (X * X - 10.0 * np.cos(2.0 * np.pi * X) + 10.0).sum(axis=1)


def _ackley(X: Array, rng=None) -> Array:
    n = X.shape[1]
    root_mean_sq = np.sqrt((X * X).sum(axis=1) / n)
    mean_cos = np.cos(2.0 * np.pi * X).sum(axis=1) / n
    return -20.0 * np.exp(-0.2 * root_mean_sq) - np.exp(mean_cos) + 20.0 + math.e


def _griewank(X: Array, rng=None) -> Array:
    idx = np.sqrt(np.arange(1, X.shape[1] + 1, dtype=float))
    return (X * X).sum(axis=1) / 4000.0 - np.cos(X / idx).prod(axis=1) + 1.0


def _boundary_penalty(X: Array, a: float, k: float) -> Array:
    # k * (|x| - a)^4 outside [-a, a], zero inside
    over = np.maximum(0.0, np.abs(X) - a)
    over *= over
    over *= over
    return k * over.sum(axis=1)


def _penalized_quartic_sine(X: Array, rng=None) -> Array:
    n = X.shape[1]
    y = 1.0 + (X + 1.0) / 4.0
    head = 10.0 * np.sin(np.pi * y[:, 0]) ** 2
    body = ((y[:, :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[:, 1:]) ** 2)).sum(axis=1)
    tail = (y[:, -1] - 1.0) ** 2
    return np.pi / n * (head + body + tail) + _boundary_penalty(X, 10.0, 100.0)


def _penalized_level_sine(X: Array, rng=None) -> Array:
    head = np.sin(3.0 * np.pi * X[:, 0]) ** 2
    body = ((X[:, :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * X[:, 1:]) ** 2)).sum(axis=1)
    tail = (X[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * X[:, -1]) ** 2)
    return 0.1 * (head + body + tail) + _boundary_penalty(X, 5.0, 100.0)


def _foxholes(X: Array, rng=None) -> Array:
    # sq: (m, 2, 25) squared offsets from each hole
    sq = X[:, :, None] - FOXHOLES_A[None, :, :]
    sq *= sq
    pow6 = sq * sq
    pow6 *= sq
    denom = np.arange(1, 26, dtype=float) + pow6.sum(axis=1)
    return 1.0 / (1.0 / 500.0 + (1.0 / denom).sum(axis=1))


def _kowalik(X: Array, rng=None) -> Array:
    b = KOWALIK_B
    numer = b * b + b * X[:, 1:2]
    denom = b * b + b * X[:, 2:3] + X[:, 3:4]
    return ((KOWALIK_A - X[:, 0:1] * numer / denom) ** 2).sum(axis=1)


# F16-F18 coefficients are ``core.constants``, F18's rows tiled per batch size. Each keeps its textbook op order; F16
# squares both columns at once, F18 stacks its two factors, and both sum in place, sparing BSO's 150-row temporaries.
_CAMEL = constants(4.0, 2.1, 3.0)
_BRANIN = constants(5.1 / (4 * np.pi**2), 5.0 / np.pi, 6.0, 10.0 * (1.0 - 1.0 / (8.0 * np.pi)), 10.0)
# Goldstein-Price, a row per factor: A + u^2 * (k0 + k1*x1 + k2*x1^2 + k3*x2 + (k4*x1)*x2 + k5*x2^2), u = ka*x1 +
# kb*x2 + kc. A subtracted term has a negated k (x - y is x + -y in IEEE), 1*x is x, and u + 0 only drops -0's sign.
_GOLDSTEIN = frozen(np.array([[1.0, 19.0, -14.0, 3.0, -14.0, 6.0, 3.0, 1.0, 1.0, 1.0],
                              [30.0, 18.0, -32.0, 12.0, 48.0, -36.0, 27.0, 2.0, -3.0, 0.0]]))


def _six_hump_camel(X: Array, rng=None) -> Array:
    four, c2_1, three = _CAMEL
    W = X.T.copy()  # the columns as contiguous rows
    S = W * W
    Q = S * S
    S4 = four * S
    f = S4[0] - c2_1 * Q[0]
    f += Q[0] * S[0] / three
    f += W[0] * W[1]
    f -= S4[1]
    f += four * Q[1]
    return f


def _branin(X: Array, rng=None) -> Array:
    b, c, r, s_one_minus_t, s = _BRANIN
    x1, x2 = X[:, 0], X[:, 1]
    a = x2 - b * (x1 * x1) + c * x1 - r
    return a * a + s_one_minus_t * np.cos(x1) + s


# ``_GOLDSTEIN``'s columns as read-only (2, m) rows, so no ufunc broadcasts, kept for up to 8 batch sizes m <= 4096
@lru_cache(maxsize=8)  # (at most 5 MiB); a larger batch broadcasts (2, 1) columns, which gives the same bits
def _goldstein_rows(m: int) -> tuple[Array, ...]:
    return tuple(frozen(np.repeat(k[:, None], m, axis=1)) for k in _GOLDSTEIN.T)


def _goldstein_price(X: Array, rng=None) -> Array:
    A, k0, k1, k2, k3, k4, k5, ka, kb, kc = _goldstein_rows(len(X)) if len(X) <= 4096 else _GOLDSTEIN.T[:, :, None]
    x1, x2 = W = np.empty((2, 2, len(X)))
    W[...] = X.T[:, None, :]  # x1 twice, then x2 twice: one copy
    p = k0 + k1 * x1
    p += k2 * (x1 * x1)
    p += k3 * x2
    p += k4 * x1 * x2
    p += k5 * (x2 * x2)
    u = ka * x1 + kb * x2 + kc
    u *= u
    u *= p
    u += A
    return np.multiply(u[0], u[1])


# The table-parameterized families are bound with functools.partial, not
# closures, so every catalog problem pickles for the trial process pool.
def _hartmann(A: Array, C: Array, P: Array, X: Array, rng=None) -> Array:
    inner = (A[None, :, :] * (X[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
    return -(np.exp(-inner) * C).sum(axis=1)


def _shekel(a: Array, c: Array, X: Array, rng=None) -> Array:
    d = ((X[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    return -(1.0 / (d + c)).sum(axis=1)


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

_DEFS: list[tuple[str, int, float, float, float, Callable, bool]] = [
    ("F1", 30, -100, 100, 0.0, _sphere, False),
    ("F2", 30, -10, 10, 0.0, _abs_sum_and_product, False),
    ("F3", 30, -100, 100, 0.0, _rotated_ellipsoid, False),
    ("F4", 30, -100, 100, 0.0, _max_abs, False),
    ("F5", 30, -30, 30, 0.0, _rosenbrock, False),
    ("F6", 30, -100, 100, 0.0, _step, False),
    ("F7", 30, -1.28, 1.28, 0.0, _quartic_noisy, True),
    ("F8", 30, -500, 500, -418.9829 * 30, _schwefel, False),
    ("F9", 30, -5.12, 5.12, 0.0, _rastrigin, False),
    ("F10", 30, -32, 32, 0.0, _ackley, False),
    ("F11", 30, -600, 600, 0.0, _griewank, False),
    ("F12", 30, -50, 50, 0.0, _penalized_quartic_sine, False),
    ("F13", 30, -50, 50, 0.0, _penalized_level_sine, False),
    ("F14", 2, -65, 65, 0.9980, _foxholes, False),
    ("F15", 4, -5, 5, 0.00030, _kowalik, False),
    ("F16", 2, -5, 5, -1.0316, _six_hump_camel, False),
    ("F17", 2, -5, 5, 0.398, _branin, False),
    ("F18", 2, -2, 2, 3.0, _goldstein_price, False),
    ("F19", 3, 1, 3, -3.86, partial(_hartmann, HARTMANN3_A, HARTMANN3_C, HARTMANN3_P), False),
    ("F20", 6, 0, 1, -3.32, partial(_hartmann, HARTMANN6_A, HARTMANN6_C, HARTMANN6_P), False),
    ("F21", 4, 0, 10, -10.1532, partial(_shekel, SHEKEL_A[:5], SHEKEL_C[:5]), False),
    ("F22", 4, 0, 10, -10.4028, partial(_shekel, SHEKEL_A[:7], SHEKEL_C[:7]), False),
    ("F23", 4, 0, 10, -10.5363, partial(_shekel, SHEKEL_A[:10], SHEKEL_C[:10]), False),
]

# Every Problem is built once and immutable; catalog shares these instances.
PROBLEMS: tuple[Problem, ...] = tuple(
    Problem(_id, SearchSpace.box(_dim, _lo, _hi), _fn, known_fmin=float(_fmin), stochastic=_noisy)
    for _id, _dim, _lo, _hi, _fmin, _fn, _noisy in _DEFS
)

BENCHMARK_IDS: tuple[str, ...] = tuple(p.id for p in PROBLEMS)
