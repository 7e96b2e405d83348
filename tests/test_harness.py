import concurrent.futures
import csv
import json
import math
import os
import pickle
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import beetleswarm
from beetleswarm import cli
from beetleswarm import (
    BsoConfig,
    PenaltyConfig,
    Problem,
    PsoConfig,
    RandomStream,
    RunRecord,
    SearchSpace,
    TrialSummary,
    as_problem,
    compare_report,
    export_convergence,
    get_problem,
    problem_ids,
)
from beetleswarm.bas import BasConfig
from beetleswarm.constrained import HIMMELBLAU, PRESSURE_VESSEL
from beetleswarm.harness import (
    _run_jobs, run_matrix, run_one, run_trial_records, run_trials, strict_json, summarize, worker_count,
)

from .conftest import sphere_problem


def _failing_objective(X, rng=None):
    raise RuntimeError("objective failed")


def _slow_objective(X, rng=None):
    time.sleep(0.5)
    return (X * X).sum(axis=1)


def _slow_failing_objective(X, rng=None):
    time.sleep(0.3)
    raise RuntimeError("slow objective failed")


def _dying_objective(X, rng=None):
    os._exit(3)  # the worker process ends without a result or an exception


def _record(best_f, seed=0, curve=None, problem_id="P", algorithm="bso", time_s=0.25):
    curve = [best_f + 1, best_f] if curve is None else curve
    return RunRecord(
        problem_id=problem_id,
        algorithm=algorithm,
        seed=seed,
        config={"n": 2},
        curve=np.asarray(curve, dtype=float),
        best_x=np.zeros(2),
        best_f=float(best_f),
        wall_time_s=time_s,
    )


class TestSummarize:
    def test_hand_statistics(self):
        records = [_record(1.0, seed=0), _record(2.0, seed=1), _record(3.0, seed=2)]
        s = summarize(records)
        assert s.ave == 2.0
        assert s.std == 1.0  # sample std, divisor n-1
        assert s.best == 1.0
        assert s.n_trials == 3
        assert s.seeds == (0, 1, 2)

    def test_single_trial_convention(self):
        s = summarize([_record(5.0)])
        assert s.std == 0.0
        assert s.ave == s.best == 5.0

    def test_permutation_invariant_statistics(self):
        fwd = summarize([_record(v, seed=i) for i, v in enumerate([3.0, 1.0, 2.0])])
        rev = summarize([_record(v, seed=2 - i) for i, v in enumerate([2.0, 1.0, 3.0])])
        assert (fwd.ave, fwd.std, fwd.best) == (rev.ave, rev.std, rev.best)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize("finals", [(np.inf, np.inf), (1.0, np.inf), (-np.inf, -np.inf)])
    def test_non_finite_trials_give_nan_std_without_a_warning(self, finals):
        # np.std over [inf, inf] warned "invalid value encountered in subtract" and gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize([_record(v, seed=i) for i, v in enumerate(finals)])
        assert np.isnan(s.std) and s.best == min(finals)

    def test_plus_and_minus_inf_give_nan_ave_without_a_warning(self):
        # np.mean over [inf, -inf] warned "invalid value encountered in reduce" and gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize([_record(np.inf), _record(-np.inf, seed=1)])
        assert np.isnan(s.ave) and np.isnan(s.std) and s.best == -np.inf
        assert json.loads(strict_json(s.to_dict()))["ave"] is None


class TestTrialSummaryInvariants:
    def test_std_nonnegative(self):
        with pytest.raises(ValueError):
            TrialSummary("P", "bso", 1, ave=1.0, std=-0.1, ave_time_s=0.0, best=1.0, seeds=(0,))

    def test_best_not_above_ave(self):
        with pytest.raises(ValueError):
            TrialSummary("P", "bso", 1, ave=1.0, std=0.0, ave_time_s=0.0, best=2.0, seeds=(0,))

    def test_seed_count_must_match(self):
        with pytest.raises(ValueError):
            TrialSummary("P", "bso", 2, ave=1.0, std=0.0, ave_time_s=0.0, best=1.0, seeds=(0,))

    def test_literature_rows_may_omit_seeds(self):
        s = TrialSummary(
            "F1", "ga", 30, ave=0.0025, std=0.0017, ave_time_s=3.73, best=0.0025,
            seeds=(), source="literature",
        )
        assert s.to_dict()["source"] == "literature"

    def test_unknown_source_rejected(self):
        # a misspelt source skipped the seed-count check and went into report.json as written
        with pytest.raises(ValueError, match="^source must be 'computed' or 'literature', got 'literture'$"):
            TrialSummary("F1", "ga", 30, ave=0.0025, std=0.0017, ave_time_s=3.73, best=0.0025, source="literture")

    @pytest.mark.parametrize("source", ["computed", "literature"])
    @pytest.mark.parametrize(
        "n_trials,message",
        [(0, "n_trials must be at least 1"), (True, "n_trials must be an integer, got True"),
         (1.0, "n_trials must be an integer, got 1.0"), (-(10**5000), "n_trials must be nonnegative, got a 16610-bit int")],
        ids=["zero", "bool", "float", "huge"],
    )
    def test_trial_count_checked(self, source, n_trials, message):
        # each was accepted: the seed count matched (0 seeds, or one seed for True and 1.0), or was not checked
        seeds = tuple(range(int(n_trials))) if source == "computed" else ()
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrialSummary("F1", "bso", n_trials, 1.0, 0.0, 0.0, 1.0, seeds=seeds, source=source)

    @pytest.mark.parametrize("field", ["ave", "std", "ave_time_s", "best"])
    @pytest.mark.parametrize("value", [True, "1.0", None, 1j], ids=["bool", "str", "none", "complex"])
    def test_statistics_must_be_real_numbers(self, field, value):
        # ave=True built and went into report.json as "ave": true; ave="1.0" failed on a TypeError from a comparison
        stats = {"ave": 1.0, "std": 0.0, "ave_time_s": 0.0, "best": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            TrialSummary("F1", "ga", 30, **stats, source="literature")

    def test_statistics_may_be_nan_or_infinite(self):
        # a guard: summarize writes NaN, and a best of -inf is a number too
        s = TrialSummary("F1", "bso", 1, ave=math.nan, std=math.nan, ave_time_s=0.5, best=-math.inf, seeds=(0,))
        assert math.isnan(s.ave) and s.best == -math.inf
        assert TrialSummary("F1", "bso", 1, np.float64(2.0), 0, 1, np.int64(2), seeds=(0,)).best == 2

    def test_numpy_trial_count_stored_as_int(self):
        # np.int64 passed check_int but was kept, so json.dumps of the summary (and report.json) failed
        s = TrialSummary("F1", "bso", np.int64(2), 1.0, 0.0, 0.0, 1.0, seeds=(0, 1))
        assert type(s.n_trials) is int
        assert json.loads(json.dumps(s.to_dict()))["n_trials"] == 2

    def test_to_dict_keeps_its_keys(self):
        # a guard: report.json and constrained.json keep these keys in this order, with the seeds as a list
        d = _summary("F1", "bso").to_dict()
        assert list(d) == ["problem", "algorithm", "n_trials", "ave", "std", "ave_time_s", "best", "seeds", "source"]
        assert d["problem"] == "F1" and d["seeds"] == [0, 1] and type(d["seeds"]) is list


class TestRunTrials:
    def test_seed_scheme_and_determinism(self):
        p = sphere_problem(2)
        cfg = BsoConfig(n=5, max_iters=10)
        a = run_trials("bso", p, cfg, n_trials=4, base_seed=100)
        b = run_trials("bso", p, cfg, n_trials=4, base_seed=100)
        assert a.seeds == (100, 101, 102, 103)
        assert (a.ave, a.std, a.best) == (b.ave, b.std, b.best)
        assert a.n_trials == 4

    def test_statistics_match_individual_runs(self):
        p = sphere_problem(2)
        cfg = BsoConfig(n=5, max_iters=10)
        finals = [run_one("bso", p, cfg, seed).best_f for seed in (100, 101, 102, 103)]
        s = run_trials("bso", p, cfg, n_trials=4, base_seed=100)
        assert s.ave == pytest.approx(np.mean(finals), rel=1e-15)
        assert s.std == pytest.approx(np.std(finals, ddof=1), rel=1e-15)
        assert s.best == min(finals)

    def test_dispatch_per_algorithm(self):
        p = sphere_problem(2)
        assert run_one("bas", p, BasConfig(max_iters=5), 0).algorithm == "bas"
        with pytest.raises(KeyError):
            run_one("ga", p, BsoConfig(), 0)
        with pytest.raises(KeyError):
            run_trial_records("ga", p, BsoConfig(), 1, 0)
        with pytest.raises(ValueError):
            run_trial_records("bso", p, BsoConfig(), 0, 0)

    @pytest.mark.parametrize("entry", ["run_trials", "run_trial_records", "run_matrix"])
    @pytest.mark.parametrize(
        "key,value,message",
        [("n_trials", 2.7, "an integer"), ("n_trials", True, "an integer"), ("base_seed", 1.9, "an integer"),
         ("base_seed", True, "an integer"), ("base_seed", -1, "nonnegative")],
    )
    def test_bad_trial_count_or_base_seed_rejected_before_any_trial(self, monkeypatch, entry, key, value, message):
        # n_trials=2.7 used to run 2 trials and base_seed=True seeds (1, 2)
        def no_trial(*job):
            raise AssertionError(f"a trial ran: {job}")

        monkeypatch.setattr(beetleswarm.harness, "run_one", no_trial)
        counts = {"n_trials": 2, "base_seed": 0, key: value}
        cfg = BsoConfig(n=5, max_iters=3)
        with pytest.raises(ValueError, match=f"^{key} must be {message}, got {value!r}$"):
            if entry == "run_matrix":
                run_matrix(["bso"], ["F16"], {"bso": cfg}, **counts)
            else:
                getattr(beetleswarm.harness, entry)("bso", sphere_problem(2), cfg, **counts)

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pooled"])
    @pytest.mark.parametrize(
        "algorithms,configs,error,message",
        [
            (["bso"], {"bso": BsoConfig(v_frac=1e306, max_iters=200)}, ValueError, r"^F1: 2 \* v_frac \* w is inf, "),
            (["bso", "xyz"], {"bso": BsoConfig(max_iters=200), "xyz": BsoConfig()}, KeyError,
             "unknown algorithm 'xyz'"),
            (["bso", "pso"], {"bso": BsoConfig(max_iters=200), "pso": BsoConfig()}, ValueError,
             "^pso needs a PsoConfig, got a BsoConfig$"),
            # a bare KeyError: 'pso' from configs[algo], raised while the jobs were built
            (["bso", "pso", "bas"], {"bso": BsoConfig(max_iters=200)}, KeyError,
             "^'configs has no config for pso, bas'$"),
            (["bso", "pso"], {"bso": BsoConfig(max_iters=200)}, KeyError, "^'configs has no config for pso'$"),
        ],
        ids=["box", "algorithm", "config-type", "missing-config", "one-missing-config"],
    )
    def test_plan_that_cannot_run_fails_before_any_trial(
        self, monkeypatch, two_cpus, threads, algorithms, configs, error, message
    ):
        # each of these used to run the trials of the cells before the failing one, then raise in its first trial
        def no_trial(*job):
            raise AssertionError(f"a trial ran: {job}")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(beetleswarm.harness, "run_one", no_trial)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("BSO_THREADS", threads)
        with pytest.raises(error, match=message):
            run_matrix(algorithms, ["F16", "F1"], configs, 5, 0)

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pooled"])
    @pytest.mark.parametrize(
        "algorithms,problem_ids,message",
        [(["bso", "bso"], ["F16"], "^repeated algorithm bso: each cell runs once$"),
         (["bso", "pso"], ["F16", "F18", "f16", "F18"], "^repeated problem F16, problem F18: each cell runs once$"),
         (["bso", "bso"], ["F16", "f16"], "^repeated algorithm bso, problem F16: each cell runs once$")],
        ids=["algorithm", "problem", "both"],
    )
    def test_repeated_cell_fails_before_any_trial(
        self, monkeypatch, two_cpus, threads, algorithms, problem_ids, message
    ):
        # run_matrix(["bso", "bso"], ["F16", "f16"], ...) used to run each repeated cell and return 4 summaries
        # of one cell, which compare_report rejected only afterwards
        def no_trial(*job):
            raise AssertionError(f"a trial ran: {job}")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(beetleswarm.harness, "run_one", no_trial)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("BSO_THREADS", threads)
        cfgs = {"bso": BsoConfig(n=4, max_iters=2), "pso": PsoConfig(n=4, max_iters=2)}
        with pytest.raises(ValueError, match=message):
            run_matrix(algorithms, problem_ids, cfgs, 2, 0)

    def test_parallel_matches_serial(self, monkeypatch, two_cpus):
        cfgs = {"bso": BsoConfig(n=5, max_iters=8), "pso": PsoConfig(n=5, max_iters=8)}
        monkeypatch.setenv("BSO_THREADS", "1")
        serial = run_matrix(["bso", "pso"], ["F16", "F18"], cfgs, n_trials=2, base_seed=7)
        monkeypatch.setenv("BSO_THREADS", "2")
        parallel = run_matrix(["bso", "pso"], ["F16", "F18"], cfgs, n_trials=2, base_seed=7)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert (s.problem_id, s.algorithm, s.seeds) == (p.problem_id, p.algorithm, p.seeds)
            assert (s.ave, s.std, s.best) == (p.ave, p.std, p.best)  # timings may differ

    def test_pool_runs_the_callers_problem(self, monkeypatch, two_cpus):
        # a custom penalty is not in the catalog; the pool must run this very
        # problem, not the catalog's default-penalty PV of the same id
        problem = as_problem(PRESSURE_VESSEL, PenaltyConfig(weight=1.0))
        cfg = BsoConfig(n=10, max_iters=20)
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BSO_THREADS", threads)
            runs[threads] = (run_trial_records("bso", problem, cfg, 3, 0), run_trials("bso", problem, cfg, 3, 0))
        (serial, serial_summary), (pooled, pooled_summary) = runs["1"], runs["2"]
        for a, b in zip(serial, pooled):
            assert (a.seed, a.best_f) == (b.seed, b.best_f)
            assert np.array_equal(a.curve, b.curve) and np.array_equal(a.best_x, b.best_x)
        assert (serial_summary.ave, serial_summary.std, serial_summary.best) == (
            pooled_summary.ave, pooled_summary.std, pooled_summary.best,
        )

    def test_unpicklable_problem_fails_loudly_in_pool(self, monkeypatch, two_cpus):
        monkeypatch.setenv("BSO_THREADS", "2")
        with pytest.raises((AttributeError, pickle.PicklingError)):
            run_trial_records("bso", sphere_problem(2), BsoConfig(n=5, max_iters=3), 2, 0)

    def test_failed_trial_cancels_the_pool_and_names_the_trial(self, monkeypatch, two_cpus):
        # the pool used to run all 12 slow jobs (3 s on two workers) before reporting the first job's error,
        # and neither path said which trial had failed
        cfg = BsoConfig(n=2, max_iters=0)  # one objective call per trial
        space = SearchSpace.box(2, -1.0, 1.0)
        failing = ("bso", Problem(id="fails", space=space, batch=_failing_objective), cfg, 7)
        slow = Problem(id="slow", space=space, batch=_slow_objective)
        monkeypatch.setenv("BSO_THREADS", "2")
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="^objective failed") as pooled:
            _run_jobs([failing] + [("bso", slow, cfg, s) for s in range(12)])
        assert time.perf_counter() - start < 1.5
        assert pooled.value.__notes__ == ["bso on fails, seed 7"]
        with pytest.raises(RuntimeError, match="^objective failed") as serial:
            _run_jobs([failing])
        assert serial.value.__notes__ == pooled.value.__notes__

    def test_pooled_failure_is_the_earliest_failing_job(self, monkeypatch, two_cpus):
        # a guard: the second job fails first, yet the pool raises the first job's error, as the serial path does
        cfg = BsoConfig(n=2, max_iters=0)  # one objective call per trial
        space = SearchSpace.box(2, -1.0, 1.0)
        jobs = [
            ("bso", Problem(id="fails late", space=space, batch=_slow_failing_objective), cfg, 3),
            ("bso", Problem(id="fails", space=space, batch=_failing_objective), cfg, 5),
        ]
        errors = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BSO_THREADS", threads)
            with pytest.raises(RuntimeError) as caught:
                _run_jobs(jobs)
            errors[threads] = (str(caught.value), caught.value.__notes__)
        assert errors["1"] == errors["2"] == ("slow objective failed", ["bso on fails late, seed 3"])

    def test_thread_count_above_cpu_count_rejected(self, monkeypatch):
        # checked through worker_count() alone, so no pool is ever started; a
        # stray BSO_THREADS=5000 used to ask for one process per job
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("BSO_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("BSO_THREADS", "5")
        with pytest.raises(ValueError, match=r"^BSO_THREADS must not exceed the CPU count \(4\), got '5'$"):
            worker_count()
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # an unknown count allows one worker
        with pytest.raises(ValueError, match=r"the CPU count \(1\), got '5'"):
            worker_count()

    @pytest.mark.parametrize("value", ["lots", "0", "-3", "1.5", ""])
    def test_bad_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("BSO_THREADS", value)
        with pytest.raises(ValueError, match=f"BSO_THREADS must be a positive integer, got {value!r}"):
            run_trial_records("bso", sphere_problem(2), BsoConfig(n=5, max_iters=3), 2, 0)

    def test_import_leaves_the_process_pool_unloaded(self):
        # a fresh process that imports the package (or its CLI) does not load
        # multiprocessing; a BSO_THREADS=2 run loads it and matches the serial run
        script = """
import os, sys
import beetleswarm, beetleswarm.cli
from beetleswarm.harness import run_trial_records
pool_modules = ("concurrent.futures.process", "multiprocessing")
assert not [m for m in pool_modules if m in sys.modules], "pool loaded on import"
problem, cfg = beetleswarm.get_problem("F16"), beetleswarm.BsoConfig(n=5, max_iters=8)
serial = run_trial_records("bso", problem, cfg, 3, 0)
assert not [m for m in pool_modules if m in sys.modules], "pool loaded by a serial run"
os.cpu_count = lambda real=os.cpu_count() or 1: max(2, real)  # two workers pass on one CPU too
os.environ["BSO_THREADS"] = "2"
pooled = run_trial_records("bso", problem, cfg, 3, 0)
assert all(m in sys.modules for m in pool_modules)
assert [(r.seed, r.curve.tobytes(), r.best_x.tobytes()) for r in serial] == [
    (r.seed, r.curve.tobytes(), r.best_x.tobytes()) for r in pooled
]
"""
        src = str(Path(beetleswarm.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "BSO_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_dying_worker_breaks_the_pool(self):
        # a worker that exits mid-trial raises BrokenProcessPool at once instead of leaving the caller waiting;
        # the objective is importable from this module, so any start method can ship it to the workers
        script = """
import os, sys, time
from concurrent.futures.process import BrokenProcessPool
from beetleswarm import BsoConfig, Problem, SearchSpace
from beetleswarm.harness import _run_jobs
from tests.test_harness import _dying_objective
os.cpu_count = lambda real=os.cpu_count() or 1: max(2, real)  # two workers pass on one CPU too
os.environ["BSO_THREADS"] = "2"
problem = Problem(id="dies", space=SearchSpace.box(2, -1.0, 1.0), batch=_dying_objective)
start = time.perf_counter()
try:
    _run_jobs([("bso", problem, BsoConfig(n=4, max_iters=2), seed) for seed in range(4)])
except BrokenProcessPool:
    print(f"broken after {time.perf_counter() - start:.3f} s")
else:
    sys.exit("the pool returned records")
"""
        root = Path(__file__).parents[1]
        src = str(Path(beetleswarm.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "BSO_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([src, str(root), env.get("PYTHONPATH", "")])
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=root, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert float(result.stdout.split()[2]) < 5.0, result.stdout


@pytest.mark.parametrize("pid", problem_ids())
def test_catalog_problem_pickles(pid):
    problem = get_problem(pid)
    clone = pickle.loads(pickle.dumps(problem))
    assert (clone.id, clone.known_fmin, clone.stochastic, clone.clamp_probes) == (
        problem.id, problem.known_fmin, problem.stochastic, problem.clamp_probes,
    )
    X = problem.space.lower + RandomStream(4).uniform((20, problem.space.dim)) * problem.space.widths
    assert np.array_equal(clone.evaluate_many(X, RandomStream(1)), problem.evaluate_many(X, RandomStream(1)))


def _read_only(a) -> bool:
    try:
        a[...] = a
    except ValueError as e:
        return "read-only" in str(e)
    return False


def test_pickled_arrays_stay_read_only():
    # the default pickle rebuilt every array writable: bounds, constraint intervals, _table rows, curves and points
    for cp in (PRESSURE_VESSEL, HIMMELBLAU):
        clone = pickle.loads(pickle.dumps(cp))
        arrays = [clone.space.lower, clone.space.upper, clone.g_lower, clone.g_upper]
        arrays += [a for a in clone._table if isinstance(a, np.ndarray)]
        assert arrays and all(_read_only(a) for a in arrays)
        assert repr(clone._table) == repr(cp._table)
    space = pickle.loads(pickle.dumps(get_problem("F16").space))
    assert _read_only(space.lower) and _read_only(space.upper)
    record = run_one("bso", get_problem("F16"), BsoConfig(n=4, max_iters=5), 0)
    clone = pickle.loads(pickle.dumps(record))
    assert _read_only(clone.curve) and _read_only(clone.best_x)
    assert (clone.to_dict(), clone.config) == (record.to_dict(), record.config)


def test_pooled_records_are_read_only(monkeypatch, two_cpus):
    monkeypatch.setenv("BSO_THREADS", "2")
    records = run_trial_records("pso", get_problem("F16"), PsoConfig(n=4, max_iters=5), n_trials=2, base_seed=0)
    assert all(_read_only(r.curve) and _read_only(r.best_x) for r in records)


def test_a_record_copies_the_arrays_it_is_given():
    # the record used to freeze the caller's own float64 curve and point in place
    curve, best_x = np.array([2.0, 1.0]), np.zeros(2)
    record = RunRecord("P", "bso", 0, {}, curve, best_x, 1.0, 0.1)
    curve[0], best_x[0] = 5.0, 3.0
    assert list(record.curve) == [2.0, 1.0] and list(record.best_x) == [0.0, 0.0]
    assert _read_only(record.curve) and _read_only(record.best_x)


class TestExportConvergence:
    def test_length_contract_and_roundtrip(self, tmp_path):
        rec = _record(1.0, curve=[3.0, 2.0, 1.0])  # a 2-iteration run
        path = export_convergence(rec, tmp_path / "curve.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,best_fitness"
        assert len(lines) == 4  # header + 3 rows
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        parsed = np.array([float(r["best_fitness"]) for r in rows])
        assert np.array_equal(parsed, rec.curve)  # bit-exact round trip
        assert [int(r["iteration"]) for r in rows] == [0, 1, 2]

    def test_nonincreasing_column(self, tmp_path):
        curve = [9.25, 4.5, 4.5, 0.125]
        path = export_convergence(_record(0.125, curve=curve), tmp_path / "c.csv")
        values = [float(line.split(",")[1]) for line in path.read_text().strip().splitlines()[1:]]
        assert values == sorted(values, reverse=True)

    def test_full_precision_roundtrip(self, tmp_path):
        curve = [1 / 3, 1 / 7, np.pi * 1e-8]
        path = export_convergence(_record(curve[-1], curve=curve), tmp_path / "c.csv")
        values = [float(line.split(",")[1]) for line in path.read_text().strip().splitlines()[1:]]
        assert values == curve

    def test_empty_curve_rejected(self, tmp_path):
        rec = _record(1.0, curve=[1.0])
        object.__setattr__(rec, "curve", np.array([]))
        with pytest.raises(ValueError):
            export_convergence(rec, tmp_path / "c.csv")

    def test_unwritable_destination(self):
        with pytest.raises(OSError):
            export_convergence(_record(1.0), "/nonexistent-dir/deeper/curve.csv")


def _summary(pid, algo, ave=1.0, std=0.5, best=0.5, time_s=0.1, n=2):
    return TrialSummary(
        problem_id=pid, algorithm=algo, n_trials=n, ave=ave, std=std,
        ave_time_s=time_s, best=best, seeds=tuple(range(n)),
    )


class TestCompareReport:
    def test_single_summary(self, tmp_path):
        json_path, text_path = compare_report([_summary("F1", "bso")], tmp_path)
        doc = json.loads(json_path.read_text())
        assert (doc["schema"], doc["command"]) == ("beetleswarm-v2", "bench")
        assert doc["problems"] == ["F1"]
        assert doc["algorithms"] == ["bso"]
        table = text_path.read_text().splitlines()
        assert table[0].split() == ["problem", "bso_ave", "bso_std", "bso_time_s"]
        assert len(table) == 2

    def test_json_and_text_carry_identical_numbers(self, tmp_path):
        summaries = [
            _summary("F1", "bso", ave=1 / 3, std=0.001234567890123, best=0.1, time_s=np.pi),
            _summary("F1", "pso", ave=2 / 3, std=1e-17, best=0.2, time_s=0.5),
            _summary("F2", "bso", ave=4.0, std=0.0, best=4.0, time_s=0.25),
            _summary("F2", "pso", ave=5.0, std=1.0, best=4.0, time_s=0.125),
        ]
        json_path, text_path = compare_report(summaries, tmp_path)
        doc = json.loads(json_path.read_text())
        lines = text_path.read_text().splitlines()
        header = lines[0].split()
        for line in lines[1:]:
            cells = line.split()
            pid = cells[0]
            for col, raw in zip(header[1:], cells[1:]):
                algo, field = col.split("_", 1)
                key = {"ave": "ave", "std": "std", "time": "ave_time_s"}[field.split("_")[0]]
                assert float(raw) == doc["cells"][pid][algo][key]

    def test_configs_follow_the_other_keys(self, tmp_path):
        # report.json held no config: not the iteration budget, the population or any tunable its cells ran with
        summaries = [_summary("F1", "bso"), _summary("F1", "pso")]
        configs = {"bso": BsoConfig(max_iters=7, seed=3), "pso": PsoConfig(n=9, seed=3)}
        bare_json, bare_text = compare_report(summaries, tmp_path / "bare")
        json_path, text_path = compare_report(summaries, tmp_path / "full", configs)
        assert text_path.read_bytes() == bare_text.read_bytes()
        doc = json.loads(json_path.read_text())
        assert doc.pop("configs") == {algo: config.to_dict() for algo, config in configs.items()}
        assert strict_json(doc) + "\n" == bare_json.read_text()

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            compare_report([], tmp_path)

    def test_mismatched_problem_sets_listed(self, tmp_path):
        summaries = [
            _summary("F1", "bso"),
            _summary("F2", "bso"),
            _summary("F1", "pso"),
        ]
        with pytest.raises(ValueError, match=r"\(F2, pso\)"):
            compare_report(summaries, tmp_path)

    def test_duplicate_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            compare_report([_summary("F1", "bso"), _summary("F1", "bso")], tmp_path)

    def test_foxholes_cell_agreement(self, tmp_path):
        # both optimizers land every trial in the same global basin here,
        # so the report's ave column agrees across algorithms
        summaries = [
            run_trials("bso", get_problem("F14"), BsoConfig(n=50, max_iters=400), 5, 0),
            run_trials("pso", get_problem("F14"), PsoConfig(n=50, max_iters=400), 5, 0),
        ]
        json_path, _ = compare_report(summaries, tmp_path)
        doc = json.loads(json_path.read_text())
        assert doc["cells"]["F14"]["bso"]["ave"] == pytest.approx(0.998, abs=1e-3)
        assert doc["cells"]["F14"]["pso"]["ave"] == pytest.approx(0.998, abs=1e-3)

    def test_non_finite_numbers_are_written_as_null(self, tmp_path, monkeypatch):
        # report.json and run.json carried NaN and Infinity tokens, which strict JSON parsers reject
        def strict(token):
            raise ValueError(f"non-JSON token {token}")

        records = [_record(np.inf, seed=i, curve=[np.inf, np.inf]) for i in range(2)]
        json_path, _ = compare_report([summarize(records)], tmp_path / "report")
        cell = json.loads(json_path.read_text(), parse_constant=strict)["cells"]["P"]["bso"]
        assert (cell["ave"], cell["std"], cell["best"], cell["ave_time_s"]) == (None, None, None, 0.25)
        monkeypatch.setattr(cli, "run_one", lambda *job: records[0])
        assert cli.main(["run", "--problem", "F16", "--iters", "2", "--out", str(tmp_path / "run")]) == 0
        doc = json.loads((tmp_path / "run" / "run.json").read_text(), parse_constant=strict)
        assert doc["record"]["best_f"] is None and doc["record"]["best_x"] == [0.0, 0.0]

    def test_literature_rows_join_report(self, tmp_path):
        summaries = [
            _summary("F14", "bso", ave=0.998, std=1.54e-16, best=0.998),
            TrialSummary(
                problem_id="F14", algorithm="ga", n_trials=30, ave=0.998, std=0.0,
                ave_time_s=3.8205, best=0.998, seeds=(), source="literature",
            ),
        ]
        json_path, _ = compare_report(summaries, tmp_path)
        doc = json.loads(json_path.read_text())
        assert doc["cells"]["F14"]["ga"]["source"] == "literature"
        assert doc["cells"]["F14"]["bso"]["source"] == "computed"
