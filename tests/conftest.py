"""Shared test helpers."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from beetleswarm import Problem, SearchSpace


class FixedStream:
    """RandomStream stand-in that replays a preloaded list of uniforms."""

    def __init__(self, *values):
        self.values = [float(v) for v in values]
        self.cursor = 0

    def uniform(self, size=None):
        if size is None:
            v = self.values[self.cursor]
            self.cursor += 1
            return v
        if isinstance(size, tuple):
            count = int(np.prod(size))
            shape = size
        else:
            count = int(size)
            shape = (count,)
        out = np.array(self.values[self.cursor : self.cursor + count], dtype=float)
        if out.size != count:
            raise IndexError("FixedStream exhausted")
        self.cursor += count
        return out.reshape(shape)


def counting(base: Problem, rows: list) -> Problem:
    """Same problem, recording the row count of every objective call."""
    return dataclasses.replace(base, batch=lambda X, rng=None: rows.append(X.shape[0]) or base.batch(X, rng))


def sphere_problem(dim: int, lo: float = -10.0, hi: float = 10.0) -> Problem:
    return Problem(
        id=f"sphere{dim}",
        space=SearchSpace.box(dim, lo, hi),
        batch=lambda X, rng=None: (X * X).sum(axis=1),
        known_fmin=0.0,
    )


def constant_problem(dim: int, value: float = 7.0) -> Problem:
    return Problem(
        id=f"const{dim}",
        space=SearchSpace.box(dim, -10.0, 10.0),
        batch=lambda X, rng=None: np.full(X.shape[0], value),
    )


@pytest.fixture
def sphere2() -> Problem:
    return sphere_problem(2)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report at least two CPUs, so BSO_THREADS=2 passes worker_count() on a one-CPU machine too."""
    cpus = max(2, os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
