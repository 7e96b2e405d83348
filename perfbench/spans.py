"""In-memory spans recorded around calls into beetleswarm.

Two span kinds exist: a ``trial`` span around one optimizer run and an
``objective`` span around every ``Problem.batch`` call made inside it.
The objective spans come from :meth:`Tracer.wrap`, which returns a new
``Problem`` with the same id, space and flags whose ``batch`` records a
span and then calls the original. Each span stores its kind, start, end,
parent span index and trial id; all spans of one trial share the id.
Nothing is written until :meth:`Tracer.save` is called at the end of a run.
"""

from __future__ import annotations

import dataclasses
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

KINDS = ("trial", "objective")
TRIAL, OBJECTIVE = 0, 1


class Tracer:
    def __init__(self):
        self.kind = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.nfev = 0
        self._open = -1
        self._trial_id = -1

    def _add(self, kind: int, start: float, end: float) -> int:
        self.kind.append(kind)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._open)
        self.trial.append(self._trial_id)
        return len(self.kind) - 1

    def begin_trial(self) -> int:
        if self._open != -1:
            raise RuntimeError("trial spans do not nest")
        self._trial_id += 1
        self._open = self._add(TRIAL, perf_counter(), float("nan"))
        return self._open

    def end_trial(self) -> None:
        self.end[self._open] = perf_counter()
        self._open = -1

    def wrap(self, problem):
        """Same problem, with an objective span around every batch call."""
        inner = problem.batch

        def batch(X, rng=None):
            t0 = perf_counter()
            out = inner(X, rng)
            t1 = perf_counter()
            self._add(OBJECTIVE, t0, t1)
            self.nfev += len(X)
            return out

        return dataclasses.replace(problem, batch=batch)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.array(self.kind, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "trial": np.array(self.trial, dtype=np.int64),
        }

    def objective_seconds(self) -> float:
        """Total time spent inside the wrapped objective."""
        a = self.arrays()
        is_obj = a["kind"] == OBJECTIVE
        return float((a["end"][is_obj] - a["start"][is_obj]).sum())

    def summary(self) -> dict[str, float]:
        """Counts and time shares; a trial's self time excludes its children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        is_trial = a["kind"] == TRIAL
        is_obj = a["kind"] == OBJECTIVE
        if not np.all(np.isfinite(dur[is_trial])):
            raise RuntimeError("a trial span was never closed")
        trial_total = float(dur[is_trial].sum())
        child = is_obj & (a["parent"] >= 0)
        child_time = np.zeros(dur.size)
        np.add.at(child_time, a["parent"][child], dur[child])
        trial_self = float((dur - child_time)[is_trial].sum())
        objective = float(child_time[is_trial].sum())
        calls = int(is_obj.sum())
        return {
            "trials": int(is_trial.sum()),
            "nfev": self.nfev,
            "eval_calls": calls,
            "evals_per_call": self.nfev / calls if calls else 0.0,
            "objective_share": objective / trial_total,
            "engine_self_share": trial_self / trial_total,
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, kinds=np.array(KINDS), **self.arrays())
