import copy
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
    get_problem,
    inertia_weight,
    run_bso,
    run_pso,
)
from beetleswarm.bso import antenna_increment, blend_position, swarm_velocity

from .conftest import FixedStream, constant_problem, sphere_problem


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


NO_CLAMP = (-np.inf, np.inf)


class TestUpdateVelocity:
    def test_pure_inertia_when_attractors_coincide(self):
        x = np.array([[1.0, 2.0]])
        v = np.array([[0.5, -0.25]])
        out = swarm_velocity(v, x, x, x[0], 0.7, 2.0, 2.0, FixedStream(0.3, 0.3, 0.8, 0.8), *NO_CLAMP)
        assert np.allclose(out, 0.7 * v)

    def test_unit_draw_arithmetic(self):
        v = np.zeros((1, 2))
        x = np.zeros((1, 2))
        p = np.array([[1.0, 0.0]])
        g = np.array([0.0, 1.0])
        out = swarm_velocity(v, x, p, g, 0.4, 1.0, 1.0, FixedStream(1.0, 1.0, 1.0, 1.0), *NO_CLAMP)
        assert np.array_equal(out, [[1.0, 1.0]])
        # r1 fills the whole (n, dim) block first, then r2
        ones = np.ones((1, 2))
        out = swarm_velocity(v, x, ones, ones[0], 0.4, 1.0, 10.0, FixedStream(0.25, 0.5, 0.125, 0.75), *NO_CLAMP)
        assert np.array_equal(out, [[0.25 + 1.25, 0.5 + 7.5]])

    def test_clamp_contract(self):
        rng = RandomStream(6)
        v = 4 * (rng.uniform((100, 3)) - 0.5)
        x = 10 * (rng.uniform((100, 3)) - 0.5)
        p = 10 * (rng.uniform((100, 3)) - 0.5)
        g = 10 * (rng.uniform(3) - 0.5)
        out = swarm_velocity(v, x, p, g, 0.9, 2.0, 2.0, rng, -1.5, 2.0)
        assert np.all(out <= 2.0) and np.all(out >= -1.5)
        assert np.any(out == 2.0) and np.any(out == -1.5)


class TestBeetleIncrement:
    def test_zero_on_constant_fitness(self):
        xi = antenna_increment(constant_problem(2), np.array([[1.0, 1.0]]), np.array([[2.0, 0.0]]), 0.5, 0.1, None, *NO_CLAMP)
        assert np.array_equal(xi, [[0.0, 0.0]])

    def test_one_dimensional_oracle(self):
        # f(x) = x^2 at X=1 with V=+2: right probe 1.1 is worse than left
        # probe 0.9, so the increment is -delta * V; at X=-1 it is +delta * V
        xi = antenna_increment(sphere_problem(1), np.array([[1.0], [-1.0]]), np.array([[2.0], [2.0]]), 0.7, 0.1, None, *NO_CLAMP)
        assert np.allclose(xi, [[-1.4], [1.4]])

    def test_parallel_to_velocity(self):
        rng = RandomStream(21)
        x = 8 * (rng.uniform((50, 4)) - 0.5)
        v = 2 * (rng.uniform((50, 4)) - 0.5)
        delta = 0.1 + rng.uniform()
        xi = antenna_increment(sphere_problem(4), x, v, delta, 0.2, None, *NO_CLAMP)
        norm_xi = np.linalg.norm(xi, axis=1)
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
        base = sphere_problem(2)
        counting = Problem(base.id, base.space, lambda X, rng=None: calls.append(len(X)) or base.batch(X))
        engine = BsoEngine(counting, BsoConfig(n=4, max_iters=3, lam=0.5, delta0=0.0, seed=1))
        engine.run()
        assert calls == [4] * 4  # initial population plus one move per step

    def test_underflowed_spacing_skips_the_probes(self):
        # at delta = 1e-323 the spacing delta / c2_ratio rounds to 0, so the probes would coincide;
        # the step used to test delta and still evaluated them, three calls instead of one
        calls = []
        base = sphere_problem(2)
        counting = Problem(base.id, base.space, lambda X, rng=None: calls.append(X.shape) or base.batch(X))
        engine = BsoEngine(counting, BsoConfig(n=4, max_iters=3, lam=0.5, seed=1))
        engine.state.delta = 1e-323
        calls.clear()
        engine.step()
        assert calls == [(4, 2)]
        engine.state.delta = 1e-322  # spacing 2e-323, still positive: both probe halves are evaluated
        engine.step()
        assert calls == [(4, 2)] * 4


class TestUpdatePosition:
    def setup_method(self):
        space = SearchSpace.box(2, -10.0, 10.0)
        self.bounds = (space.lower, space.upper)

    def test_pure_swarm_move(self):
        out = blend_position(np.array([[1.0, 1.0]]), np.array([[0.5, -0.5]]), np.array([[9.0, 9.0]]), 1.0, 0.0, *self.bounds)
        assert np.array_equal(out, [[1.5, 0.5]])

    def test_pure_antenna_move(self):
        out = blend_position(np.array([[1.0, 1.0]]), np.array([[9.0, 9.0]]), np.array([[0.5, -0.5]]), 0.0, 1.0, *self.bounds)
        assert np.array_equal(out, [[1.5, 0.5]])

    def test_even_blend(self):
        out = blend_position(np.zeros((1, 2)), np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]), 0.5, 0.5, *self.bounds)
        assert np.array_equal(out, [[1.0, 1.0]])

    def test_clamps_to_box(self):
        out = blend_position(np.array([[9.0, -9.0]]), np.array([[5.0, -5.0]]), np.zeros((1, 2)), 1.0, 0.0, *self.bounds)
        assert np.array_equal(out, [[10.0, -10.0]])

    def test_rejects_bad_blend(self):
        # the blend weight reaches the kernel only through a validated config
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
            (lambda eng: eng.state.V.__setitem__((0, 0), np.nan), "every velocity is finite"),
            (lambda eng: eng.state.X.__setitem__((0, 0), 1e9), "every position lies in the box"),
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

    @pytest.mark.parametrize("cfg", [BsoConfig(n=6, max_iters=3, v_frac=1e306),
                                     PsoConfig(n=6, max_iters=3, v_frac=1e306).to_bso()], ids=["bso", "pso"])
    def test_debug_checks_name_a_non_finite_velocity(self, cfg):
        # v_frac * width overflows to inf, so V starts as NaN; the box check used to be the first to fail.
        # run_bso and run_pso reject this config on F1's box, so the engine is driven directly
        with np.errstate(over="ignore", invalid="ignore"):
            engine = BsoEngine(get_problem("F1"), cfg, debug_checks=True)
            with pytest.raises(AssertionError, match="^debug check failed at iteration 1: every velocity is finite$"):
                engine.step()

    def test_debug_checks_survive_python_O(self):
        # the checks were asserts, which -O strips: a coordinate at 1e9, outside the box, passed them
        script = """
import sys
from beetleswarm import BsoConfig, BsoEngine, get_problem
assert sys.flags.optimize and not __debug__
engine = BsoEngine(get_problem("F16"), BsoConfig(n=4, max_iters=3), debug_checks=True)
engine.step()
engine.state.X[0, 0] = 1e9
engine._check_invariants()
"""
        src = str(Path(beetleswarm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert "AssertionError: debug check failed at iteration 1: every position lies in the box" in result.stderr

    @pytest.mark.parametrize("pid", ["F7", "PV"])
    def test_step_is_the_three_kernels(self, pid):
        # replaying the kernels on a copy of the stream reproduces step() bit
        # for bit, noise draws (F7) and probe clamping (PV) included, and the
        # box given as (dim,) bounds matches the engine's (n, dim) copies
        cfg = BsoConfig(n=6, max_iters=5, seed=11)
        engine = BsoEngine(get_problem(pid), cfg)
        bounds = (engine.space.lower, engine.space.upper)
        for _ in range(3):
            st, rng = engine.state, copy.deepcopy(engine.rng)
            omega = inertia_weight(st.k, cfg.max_iters, cfg.omega_min, cfg.omega_max)
            xi = antenna_increment(engine.problem, st.X, st.V, st.delta, st.delta / cfg.c2_ratio, rng, *bounds)
            V = swarm_velocity(st.V, st.X, st.P, st.G, omega, cfg.a1, cfg.a2, rng, engine.v_lo, engine.v_hi)
            X = blend_position(st.X, V, xi, cfg.lam, 1.0 - cfg.lam, *bounds)
            engine.step()
            assert np.array_equal(engine.state.V, V)
            assert np.array_equal(engine.state.X, X)

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
