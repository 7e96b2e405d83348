import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beetleswarm
from beetleswarm import (
    BsoConfig,
    BsoEngine,
    Problem,
    PsoConfig,
    RandomStream,
    SearchSpace,
    SwarmState,
    get_problem,
    inertia_weight,
    run_bso,
    run_pso,
)

from .conftest import FixedStream, constant_problem, counting, sphere_problem


class TestInertiaWeight:
    def test_endpoints(self):
        assert inertia_weight(0, 1000) == 0.9
        assert inertia_weight(1000, 1000) == pytest.approx(0.4)

    def test_midpoint(self):
        assert inertia_weight(500, 1000) == pytest.approx(0.65)

    def test_linear_in_k(self):
        K = 400
        values = [inertia_weight(k, K) for k in range(K + 1)]
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0])
        assert np.all(diffs < 0)

    def test_custom_range(self):
        assert inertia_weight(0, 10, omega_min=0.1, omega_max=0.7) == 0.7
        assert inertia_weight(10, 10, omega_min=0.1, omega_max=0.7) == pytest.approx(0.1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            inertia_weight(0, 0)
        with pytest.raises(ValueError):
            inertia_weight(11, 10)
        with pytest.raises(ValueError):
            inertia_weight(-1, 10)


def step_once(problem, X, V, stream, P=None, G=None, omega=0.9, **config):
    """A small engine started through ``_start`` at positions X and velocities V, with personal bests P (X if None),
    global best G (P's first row if None) and inertia weight omega, then stepped once, its draws taken from
    ``stream``. The start's settle folds X into the bests where it improves on P, as every settle does."""
    X = np.array(X, dtype=float)
    P = X.copy() if P is None else np.array(P, dtype=float)
    G = P[0].copy() if G is None else np.array(G, dtype=float)
    engine = BsoEngine(problem, BsoConfig(n=len(X), max_iters=1, omega_max=omega, omega_min=omega, **config))
    engine.rng = stream
    Pf, Gf = problem.evaluate_many(P), problem.evaluate(G)
    engine._start(SwarmState(X, np.array(V, dtype=float), P, Pf, G, Gf, engine.config.delta0, 0))
    engine.step()
    return engine


def poked(a, value):
    """A copy of a with value at [0, 0]: the swarm's X and V are read-only, so an edit goes into a copy."""
    a = a.copy()
    a[0, 0] = value
    return a


def slope_problem(*w):
    """f(x) = w . x over [-10, 10]^dim: the right probe wins wherever w . V < 0."""
    w = np.array(w)
    return Problem("slope", SearchSpace.box(w.size, -10.0, 10.0), lambda X, rng=None: X @ w)


SWARM = dict(lam=1.0, delta0=0.0, v_frac=100.0)  # no antenna move, and a velocity clamp far out of reach
STILL = dict(omega=1.0, a1=0.0, a2=0.0, v_frac=100.0)  # the velocity stays as it is


class TestUpdateVelocity:
    def test_pure_inertia_when_attractors_coincide(self):
        v = [[0.5, -0.25], [-1.0, 0.75]]
        stream = FixedStream(0.3, 0.3, 0.6, 0.6, 0.8, 0.8, 0.1, 0.1)
        engine = step_once(sphere_problem(2), [[1.0, 2.0]] * 2, v, stream, omega=0.7, a1=2.0, a2=2.0, **SWARM)
        assert np.allclose(engine.state.V, 0.7 * np.array(v))

    def test_unit_draw_arithmetic(self):
        # on a constant objective the zero swarm improves on no personal best, so P and G stay as given
        zeros, flat = np.zeros((2, 2)), constant_problem(2)
        p, g = [[1.0, 0.0]] * 2, [0.0, 1.0]
        engine = step_once(flat, zeros, zeros, FixedStream(*[1.0] * 8), p, g, 0.4, a1=1.0, a2=1.0, **SWARM)
        assert np.array_equal(engine.state.V, [[1.0, 1.0]] * 2)
        # r1 fills the whole (n, dim) block first, then r2
        ones, stream = np.ones((2, 2)), FixedStream(0.25, 0.5, 1.0, 1.0, 0.125, 0.75, 1.0, 1.0)
        engine = step_once(flat, zeros, zeros, stream, ones, ones[0], 0.4, a1=1.0, a2=10.0, **SWARM)
        assert np.array_equal(engine.state.V, [[0.25 + 1.25, 0.5 + 7.5], [1.0 + 10.0, 1.0 + 10.0]])

    def test_clamp_contract(self):
        rng = RandomStream(6)
        v = 4 * (rng.uniform((100, 3)) - 0.5)
        x = 10 * (rng.uniform((100, 3)) - 0.5)
        p = 10 * (rng.uniform((100, 3)) - 0.5)
        g = 10 * (rng.uniform(3) - 0.5)
        engine = step_once(sphere_problem(3), x, v, rng, p, g, 0.9, a1=2.0, a2=2.0, lam=1.0, v_frac=0.075)
        out, hi = engine.state.V, engine.v_hi  # +/-1.5 on the 20-wide box
        assert np.all(out <= hi) and np.all(out >= -hi)
        assert np.any(out == hi) and np.any(out == -hi)


class TestBeetleIncrement:
    # the first three cases step at lam = 0, where the position moves by the antenna increment alone: X' = X + xi

    def test_zero_on_constant_fitness(self):
        x = [[1.0, 1.0], [-3.0, 2.0]]
        engine = step_once(constant_problem(2), x, [[2.0, 0.0], [0.5, -1.0]], RandomStream(0), lam=0.0, delta0=0.5)
        assert np.array_equal(engine.state.X, x)

    def test_one_dimensional_oracle(self):
        # f(x) = x^2 at X=1 with V=+2: right probe 1.1 is worse than left
        # probe 0.9, so the increment is -delta * V; at X=-1 it is +delta * V
        x, v = [[1.0], [-1.0]], [[2.0], [2.0]]
        engine = step_once(sphere_problem(1), x, v, RandomStream(0), lam=0.0, delta0=0.7, c2_ratio=7.0)
        assert np.allclose(engine.state.X, [[1.0 - 1.4], [-1.0 + 1.4]])

    def test_parallel_to_velocity(self):
        rng = RandomStream(21)
        x = 8 * (rng.uniform((50, 4)) - 0.5)
        v = 2 * (rng.uniform((50, 4)) - 0.5)
        delta = 0.1 + rng.uniform()
        engine = step_once(sphere_problem(4), x, v, rng, lam=0.0, delta0=delta)
        norm_xi = np.linalg.norm(engine.state.X - x, axis=1)  # no beetle reaches the box's edge
        assert np.all((norm_xi == 0.0) | np.isclose(norm_xi, delta * np.linalg.norm(v, axis=1), rtol=1e-12))

    def test_requires_positive_scales(self):
        # the engine only calls the kernel with delta > 0 and d = delta /
        # c2_ratio > 0: the config rejects negative steps and nonpositive
        # ratios, and a zero step skips the probes (no evaluations at all)
        with pytest.raises(ValueError):
            BsoConfig(delta0=-0.1)
        with pytest.raises(ValueError):
            BsoConfig(c2_ratio=0.0)
        calls = []
        engine = BsoEngine(counting(sphere_problem(2), calls), BsoConfig(n=4, max_iters=3, lam=0.5, delta0=0.0, seed=1))
        engine.run()
        assert calls == [4] * 4  # initial population plus one move per step

    def test_underflowed_spacing_skips_the_probes(self):
        # at delta = 1e-323 the spacing delta / c2_ratio rounds to 0, so the probes would coincide and the start and
        # the step each send the swarm alone (the step used to test delta and still evaluate them); at 1e-322 the
        # spacing is 2e-323, still positive, and each sends the swarm with the next step's probes
        for delta, rows in ((1e-323, 4), (1e-322, 12)):
            calls = []
            engine = BsoEngine(counting(sphere_problem(2), calls), BsoConfig(n=4, max_iters=3, lam=0.5, seed=1))
            calls.clear()
            engine._start(dataclasses.replace(engine.state, delta=delta))
            engine.step()
            assert calls == [rows, rows]


class TestUpdatePosition:
    # the box is [-10, 10]^2

    def test_pure_swarm_move(self):
        engine = step_once(sphere_problem(2), [[1.0, 1.0]] * 2, [[0.5, -0.5]] * 2, RandomStream(0), lam=1.0, **STILL)
        assert np.array_equal(engine.state.X, [[1.5, 0.5]] * 2)

    def test_pure_antenna_move(self):
        # the right probe wins along V = (0.5, -0.5), so xi = delta * V
        x, v = [[1.0, 1.0]] * 2, [[0.5, -0.5]] * 2
        engine = step_once(slope_problem(-1.0, 0.0), x, v, RandomStream(0), lam=0.0, delta0=1.0, v_frac=100.0)
        assert np.array_equal(engine.state.X, [[1.5, 0.5]] * 2)

    def test_even_blend(self):
        # V' = (1 * 1) * (P - X) = (2, 0), while the antenna moves along the pre-update V = (0, 2)
        zeros, stream = np.zeros((2, 2)), FixedStream(*[1.0] * 8)
        engine = step_once(slope_problem(0.0, -1.0), zeros, [[0.0, 2.0]] * 2, stream, [[2.0, 0.0]] * 2,
                           omega=0.0, a1=1.0, a2=0.0, lam=0.5, delta0=1.0, v_frac=100.0)
        assert np.array_equal(engine.state.X, [[1.0, 1.0]] * 2)

    def test_clamps_to_box(self):
        engine = step_once(sphere_problem(2), [[9.0, -9.0]] * 2, [[5.0, -5.0]] * 2, RandomStream(0), lam=1.0, **STILL)
        assert np.array_equal(engine.state.X, [[10.0, -10.0]] * 2)

    def test_rejects_bad_blend(self):
        # the blend weight reaches the engine only through a validated config
        for lam in (1.5, -0.1):
            with pytest.raises(ValueError, match="lam"):
                BsoConfig(lam=lam)


class TestBsoConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BsoConfig(n=1)
        with pytest.raises(ValueError):
            BsoConfig(lam=1.0001)
        with pytest.raises(ValueError):
            BsoConfig(omega_min=0.9, omega_max=0.4)
        with pytest.raises(ValueError):
            BsoConfig(eta=0.0)
        with pytest.raises(ValueError):
            BsoConfig(delta0=-0.5)
        with pytest.raises(ValueError):
            BsoConfig(v_frac=0.0)
        with pytest.raises(ValueError):
            BsoConfig(max_iters=-1)
        with pytest.raises(ValueError, match="^acceleration coefficients must be nonnegative$"):
            BsoConfig(a1=-1.0)

    def test_dict_round_trip(self):
        cfg = BsoConfig(n=10, max_iters=50, lam=0.2, seed=5)
        assert BsoConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            BsoConfig.from_dict({"population": 10})

    def test_dim_mismatch_detected(self):
        # the engine takes the dimension from the problem; configs carry no
        # dim and no absolute velocity clamps to disagree with it
        for cfg_type in (BsoConfig, PsoConfig):
            for key, value in (("dim", 4), ("v_max", 1.0), ("v_min", -1.0)):
                with pytest.raises(ValueError, match="unknown config keys"):
                    cfg_type.from_dict({key: value})


class TestEngine:
    def test_zero_iterations_returns_initial_best(self):
        p = sphere_problem(3)
        rec = run_bso(p, BsoConfig(n=8, max_iters=0, seed=2))
        assert rec.curve.size == 1
        assert rec.best_f == rec.curve[0]
        # matches the best of the initial population drawn from the same stream
        rng = RandomStream(2)
        X = p.space.lower + rng.uniform((8, 3)) * p.space.widths
        assert rec.best_f == p.evaluate_many(X).min()

    def test_start_copies_the_swarm_it_is_handed(self):
        # each array handed to _start keeps its values and stays writable through a start and a step, though the
        # start's settle improves every personal best and the engine freezes its X, V and G
        problem = sphere_problem(2)
        X, V = np.array([[0.5, -0.5], [1.0, 1.0], [-2.0, 0.25]]), np.full((3, 2), 0.5)
        P = np.array([[3.0, 3.0], [-4.0, 2.0], [1.0, -6.0]])  # each row is farther from 0 than X's: all improve
        Pf, G = problem.evaluate_many(P), P[0].copy()
        handed = dict(X=X, V=V, P=P, Pf=Pf, G=G)
        kept = {name: a.copy() for name, a in handed.items()}
        engine = BsoEngine(problem, BsoConfig(n=3, max_iters=2, seed=5))
        engine._start(SwarmState(X, V, P, Pf, G, float(Pf[0]), engine.config.delta0, 0))
        assert np.array_equal(engine.state.P, X)  # the settle improved every personal best, in the engine's copy
        engine.step()
        for name, a in handed.items():
            assert np.array_equal(a, kept[name]), name
            assert a.flags.writeable, name

    def test_step_schedules_and_invariants(self):
        cfg = BsoConfig(n=6, max_iters=40, eta=0.93, delta0=2.5, seed=4)
        engine = BsoEngine(sphere_problem(3), cfg, debug_checks=True)
        prev_pf = engine.state.Pf.copy()
        for k in range(1, cfg.max_iters + 1):
            engine.step()
            st = engine.state
            assert st.k == k
            assert st.delta == pytest.approx(2.5 * 0.93**k, rel=1e-12)
            assert np.all(st.X >= -10.0) and np.all(st.X <= 10.0)
            assert st.Gf == st.Pf.min()
            assert np.all(st.Pf <= prev_pf)  # personal bests never worsen
            assert np.all(st.Pf <= engine.problem.evaluate_many(st.P) + 1e-12)
            prev_pf = st.Pf.copy()
        assert len(engine.curve) == cfg.max_iters + 1

    @pytest.mark.parametrize(
        "break_it,name",
        [
            (lambda eng: setattr(eng.state, "V", poked(eng.state.V, np.nan)), "every velocity is finite"),
            (lambda eng: setattr(eng.state, "X", poked(eng.state.X, 1e9)), "every position lies in the box"),
            (lambda eng: setattr(eng.state, "Gf", eng.state.Gf - 1.0), "Gf is the least personal best"),
            (lambda eng: setattr(eng.state, "G", eng.state.G + 1.0), "G is the position of the least personal best"),
            (lambda eng: eng.curve.append(eng.curve[-1] + 1.0), "the curve does not rise"),
        ],
        ids=["velocity", "box", "Gf", "G", "curve"],
    )
    def test_debug_checks_name_the_failed_invariant(self, break_it, name):
        engine = BsoEngine(sphere_problem(3), BsoConfig(n=6, max_iters=5, seed=1), debug_checks=True)
        engine.step()
        break_it(engine)
        with pytest.raises(AssertionError, match=f"^debug check failed at iteration 1: {name}$"):
            engine._check_invariants()

    @pytest.mark.parametrize("cfg", [BsoConfig(n=6, max_iters=3), PsoConfig(n=6, max_iters=3).to_bso()],
                             ids=["bso", "pso"])
    def test_debug_checks_name_a_non_finite_velocity(self, cfg):
        # a swarm started with a NaN velocity moves to a NaN position too; the box check used to be the first to fail
        engine = BsoEngine(get_problem("F1"), cfg, debug_checks=True)
        engine._start(dataclasses.replace(engine.state, V=poked(engine.state.V, np.nan)))
        with pytest.raises(AssertionError, match="^debug check failed at iteration 1: every velocity is finite$"):
            engine.step()

    def test_config_is_checked_as_run_bso_checks_it(self):
        # the engine used to take a PsoConfig (and fail on its missing lam), fail on None (no seed), and run a
        # v_frac whose velocity bound overflows on the box, which run_bso rejects
        with pytest.raises(ValueError, match="^bso needs a BsoConfig, got a PsoConfig$"):
            BsoEngine(get_problem("F16"), PsoConfig())
        assert BsoEngine(get_problem("F16"), None).config == BsoConfig()
        with pytest.raises(ValueError, match="^F1: 2 \\* v_frac \\* w is inf, not finite"):
            BsoEngine(get_problem("F1"), BsoConfig(v_frac=1e306))

    def test_debug_checks_survive_python_O(self):
        # the checks were asserts, which -O strips: a coordinate at 1e9, outside the box, passed them
        script = """
import sys
from beetleswarm import BsoConfig, BsoEngine, get_problem
assert sys.flags.optimize and not __debug__
engine = BsoEngine(get_problem("F16"), BsoConfig(n=4, max_iters=3), debug_checks=True)
engine.step()
X = engine.state.X.copy()
X[0, 0] = 1e9
engine.state.X = X
engine._check_invariants()
"""
        src = str(Path(beetleswarm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert "AssertionError: debug check failed at iteration 1: every position lies in the box" in result.stderr

    def test_curve_monotone_nonincreasing(self):
        for pid in ("F9", "F16", "F21"):
            for seed in (0, 1):
                rec = run_bso(get_problem(pid), BsoConfig(n=10, max_iters=60), seed=seed)
                assert np.all(np.diff(rec.curve) <= 0.0)

    def test_same_seed_identical_records(self):
        cfg = BsoConfig(n=12, max_iters=50, seed=77)
        a = run_bso(get_problem("F11"), cfg)
        b = run_bso(get_problem("F11"), cfg)
        assert np.array_equal(a.curve, b.curve)
        assert np.array_equal(a.best_x, b.best_x)
        assert a.best_f == b.best_f

    def test_stochastic_problem_still_deterministic(self):
        cfg = BsoConfig(n=10, max_iters=30, seed=5)
        a = run_bso(get_problem("F7"), cfg)
        b = run_bso(get_problem("F7"), cfg)
        assert np.array_equal(a.curve, b.curve)

    @pytest.mark.parametrize("runner,cfg_type", [(run_bso, BsoConfig), (run_pso, PsoConfig)])
    def test_nan_in_initial_swarm_never_becomes_best(self, runner, cfg_type):
        # a NaN start used to win argmin and stay the global best for good
        base = sphere_problem(2)
        p = Problem(
            "nan_half_sphere",
            base.space,
            lambda X, rng=None: np.where(X[:, 0] < 0.0, np.nan, (X * X).sum(axis=1)),
        )
        rec = runner(p, cfg_type(n=10, max_iters=50), seed=0)
        assert not np.isnan(rec.curve).any()
        assert np.isfinite(rec.best_f)
        assert rec.best_x[0] >= 0.0
        assert np.all(np.diff(rec.curve) <= 0.0)

    def test_global_best_tie_breaks_to_lowest_index(self):
        p = constant_problem(2, value=3.0)
        engine = BsoEngine(p, BsoConfig(n=5, max_iters=3, seed=1))
        engine.run()
        st = engine.state
        assert st.Gf == 3.0
        assert np.array_equal(st.G, st.P[0])

    def test_record_metadata(self):
        rec = run_bso(sphere_problem(2), BsoConfig(n=5, max_iters=3, seed=9))
        assert rec.algorithm == "bso"
        assert rec.problem_id == "sphere2"
        assert rec.seed == 9
        assert rec.config["n"] == 5
        assert rec.config["seed"] == 9
        assert rec.wall_time_s > 0


class TestProbeBatches:
    """Each evaluation of the swarm carries the next step's antenna probes."""

    @staticmethod
    def counted(rows, pid="F16", **config):
        config = {"n": 4, "max_iters": 3, "lam": 0.5, "seed": 1, **config}
        return BsoEngine(counting(get_problem(pid), rows), BsoConfig(**config))

    def test_no_iterations_evaluate_no_probes(self):
        rows = []
        self.counted(rows, max_iters=0).run()
        assert rows == [4]

    @pytest.mark.parametrize("name", ["X", "V", "G"])
    def test_swarm_is_read_only(self, name):
        engine = self.counted([])
        for _ in range(2):  # the initial swarm, then the moved one
            a = getattr(engine.state, name)
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
            engine.step()

    @pytest.mark.parametrize(
        "run,built",
        [
            (lambda p: run_pso(p, PsoConfig(n=4, max_iters=5)), 0),
            (lambda p: run_bso(p, BsoConfig(n=4, max_iters=5, lam=1.0)), 0),
            (lambda p: run_bso(p, BsoConfig(n=4, max_iters=5, delta0=1e-323)), 0),  # the spacing underflows to 0
            (lambda p: run_bso(p, BsoConfig(n=4, max_iters=5)), 5),  # the initial swarm and the first four moves
        ],
        ids=["pso", "lam-1", "underflowed", "bso"],
    )
    def test_each_settle_builds_the_probes_once(self, run, built, monkeypatch):
        # once per settle that a step follows, and never where no step probes
        calls, antennae = [], beetleswarm.bso.antennae
        monkeypatch.setattr(beetleswarm.bso, "antennae", lambda *args: calls.append(1) or antennae(*args))
        run(get_problem("F16"))
        assert len(calls) == built


def stream_state(engine) -> dict:
    return engine.rng._gen.bit_generator.state


class TestBlockDraw:
    """On a deterministic problem the engine's own stream gives r1/r2 for up to 256 KiB of steps at once."""

    CONFIG = dict(n=20, max_iters=500, seed=3)  # a block holds 32768 // (2 * 20 * 2) = 409 steps of F16

    @pytest.mark.parametrize("pid", ["F16", "F7"])
    def test_run_and_hand_steps_agree(self, pid):
        # F7 draws its noise between steps, so its r1/r2 come one step at a time
        config = BsoConfig(**self.CONFIG)
        assert config.max_iters > 32768 // (2 * config.n * get_problem(pid).space.dim)
        ran, stepped = BsoEngine(get_problem(pid), config), BsoEngine(get_problem(pid), config)
        curve, best_x, best_f = ran.run()
        for _ in range(config.max_iters):
            stepped.step()
        assert stepped.curve == curve and best_f == stepped.state.Gf
        assert np.array_equal(best_x, stepped.state.G)
        assert stream_state(stepped) == stream_state(ran)

    def test_block_draws_are_per_step_draws(self):
        # F16 marked stochastic is the same objective, its r1/r2 drawn one step at a time by the engine's own rule:
        # same run, same final stream
        config, problem = BsoConfig(**self.CONFIG), get_problem("F16")
        block, per_step = BsoEngine(problem, config), BsoEngine(dataclasses.replace(problem, stochastic=True), config)
        block.step()
        per_step.step()
        assert stream_state(block) != stream_state(per_step)  # the block is ahead while the run goes on
        block.run()
        per_step.run()
        assert block.curve == per_step.curve and np.array_equal(block.state.G, per_step.state.G)
        assert stream_state(block) == stream_state(per_step)


class TestPsoEquivalence:
    """With lam=1 and delta0=0 the engine must be draw-for-draw plain PSO."""

    @pytest.mark.parametrize("pid", ["F1", "F7", "F14", "F22", "PV"])
    def test_bit_exact_equivalence(self, pid):
        for seed in (0, 1, 2):
            pso_cfg = PsoConfig(n=12, max_iters=40, seed=seed)
            a = run_bso(get_problem(pid), pso_cfg.to_bso())
            b = run_pso(get_problem(pid), pso_cfg)
            assert np.array_equal(a.curve, b.curve)
            assert np.array_equal(a.best_x, b.best_x)
            assert a.best_f == b.best_f

    def test_probe_skip_ignores_delta_when_lam_is_one(self):
        # with lam=1 the antenna term has zero weight; its step size must not
        # change the trajectory (probes are skipped, no draws consumed)
        base = PsoConfig(n=10, max_iters=30, seed=3).to_bso()
        with_delta = BsoConfig.from_dict({**base.to_dict(), "delta0": 6.0})
        a = run_bso(get_problem("F7"), base)
        b = run_bso(get_problem("F7"), with_delta)
        assert np.array_equal(a.curve, b.curve)

    def test_zero_delta_skips_probes_for_any_lam(self):
        # delta0=0 keeps the antenna increment identically zero; the noisy
        # benchmark would expose any stray probe evaluations through its
        # noise-draw consumption
        cfg_a = BsoConfig(n=10, max_iters=30, lam=0.5, delta0=0.0, seed=8)
        cfg_b = BsoConfig(n=10, max_iters=30, lam=1.0, delta0=0.0, seed=8)
        a = run_bso(get_problem("F7"), cfg_a)
        b = run_bso(get_problem("F7"), cfg_b)
        # different lam values rescale the same clamped velocities, so the
        # trajectories differ, but both must be valid monotone runs
        assert np.all(np.diff(a.curve) <= 0)
        assert np.all(np.diff(b.curve) <= 0)
