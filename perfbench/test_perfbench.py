"""Tests for the benchmark itself, at smoke sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from beetleswarm import BsoConfig, RunRecord, get_problem, run_bso  # noqa: E402
from quantile import harrell_davis  # noqa: E402
from spans import Tracer  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = list(wl.WORKLOADS)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def smoke(trace: int) -> tuple[dict, dict]:
    """Printed '<workload> <name> = <value> <unit>' lines and the final JSON."""
    out = run_bench("--workload", "all", "--smoke", "--seed", "3", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split(" = ", 1)
        if line.startswith("#") or len(parts) != 2:
            continue
        workload, name = parts[0].split(" ", 1)
        printed[(workload, name)] = parts[1]
    return printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {trace: [smoke(trace), smoke(trace)] for trace in (0, 1)}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(runs, trace, section):
    printed, result = runs[trace][0]
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOAD_NAMES:
        for metric in SPEC[section]:
            value, unit = printed[(workload, metric["name"])].split(" ", 1)
            float(value)
            assert unit == metric["unit"], (workload, metric["name"])
            assert result["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
        assert printed[(workload, "fail_frac")] == "0 ratio"
        assert printed[(workload, "digest")]
    if not trace:
        for workload in WORKLOAD_NAMES:
            for name, unit in (("wall_s", "s"), ("trial_ms_p50", "ms"), ("trial_ms_p90", "ms"), ("trial_samples", "trials")):
                assert printed[(workload, name)].endswith(" " + unit)
        assert printed[("matrix-pool", "pool_speedup")].endswith(" x")


@pytest.mark.parametrize("trace", [0, 1])
def test_results_repeat_exactly(runs, trace):
    (a, _), (b, _) = runs[trace]
    for workload in WORKLOAD_NAMES:
        assert a[(workload, "digest")] == b[(workload, "digest")]
        assert a[(workload, "hit_frac")] == b[(workload, "hit_frac")]
        if trace:
            for name in ("trace.nfev", "trace.eval_calls", "trace.evals_per_call"):
                assert a[(workload, name)] == b[(workload, name)]


def test_traced_pass_reproduces_untraced_digest(runs):
    untraced, _ = runs[0][0]
    traced, _ = runs[1][0]
    # Same seed and sizes, so the digests of all four workloads agree.
    for workload in WORKLOAD_NAMES:
        assert untraced[(workload, "digest")].split()[0] == traced[(workload, "digest")].split()[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _record(**changes):
    problem = get_problem("F16")
    rec = run_bso(problem, BsoConfig(max_iters=10), seed=5)
    fields = dict(
        problem_id=rec.problem_id, algorithm=rec.algorithm, seed=rec.seed, config=rec.config,
        curve=rec.curve, best_x=rec.best_x, best_f=rec.best_f, wall_time_s=rec.wall_time_s,
    )
    fields.update(changes)
    return wl.Trial("bso", "F16", 5, RunRecord(**fields), 0.0)


def test_check_accepts_a_real_trial_and_rejects_broken_ones():
    good = _record()
    assert wl.check(good, 10) == []
    curve = good.result.curve.copy()
    assert wl.check(good, 11)  # wrong length
    rising = curve.copy()
    rising[3] = rising[2] + 1.0
    assert any("increases" in e for e in wl.check(_record(curve=rising), 10))
    assert wl.check(_record(best_f=curve[-1] - 1.0), 10)
    assert any("box" in e for e in wl.check(_record(best_x=np.array([9.0, 0.0])), 10))
    nudged = good.result.best_x + 1e-3
    assert any("re-evaluating" in e for e in wl.check(_record(best_x=nudged), 10))
    assert wl.check(wl.Trial("bso", "F16", 5, ValueError("boom"), 0.0), 10)


def test_digest_sees_every_bit():
    good = _record()
    flipped = good.result.curve.copy()
    flipped[0] = np.nextafter(flipped[0], np.inf)
    assert wl.digest([good]) != wl.digest([_record(curve=flipped)])
    assert wl.digest([good]) == wl.digest([_record()])


def test_tracer_spans_and_self_time():
    tracer = Tracer()
    problem = get_problem("F16")
    traced = tracer.wrap(problem)
    assert (traced.id, traced.space, traced.stochastic, traced.clamp_probes) == (
        problem.id, problem.space, problem.stochastic, problem.clamp_probes,
    )
    tracer.begin_trial()
    plain = run_bso(problem, BsoConfig(max_iters=5), seed=1)
    rec = run_bso(traced, BsoConfig(max_iters=5), seed=1)
    tracer.end_trial()
    assert np.array_equal(plain.curve, rec.curve)
    s = tracer.summary()
    assert s["trials"] == 1
    assert s["eval_calls"] == 1 + 3 * 5  # initial swarm, then two probes and a move per step
    assert s["nfev"] == 50 * s["eval_calls"]
    assert s["objective_share"] + s["engine_self_share"] == pytest.approx(1.0)


def test_harrell_davis():
    assert harrell_davis([4.0] * 7, 0.5) == pytest.approx(4.0)
    x = np.random.default_rng(0).random(108)
    mstats = pytest.importorskip("scipy.stats.mstats")
    for p in (0.5, 0.9):
        assert harrell_davis(x, p) == pytest.approx(float(mstats.hdquantiles(x, [p])[0]), rel=1e-7)
