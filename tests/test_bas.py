import dataclasses

import numpy as np
import pytest

from beetleswarm import (
    BasConfig, BasState, BsoConfig, BsoEngine, Problem, RandomStream, SearchSpace, SwarmState, get_problem, run_bas,
    uniform_in_space,
)
import beetleswarm.bas
from beetleswarm.bas import _BLOCK, antennae, bas_step, sample_directions, update_schedules
from beetleswarm.core import clip_in_place

from .conftest import FixedStream, constant_problem, sphere_problem


def _direction(rng, dim):
    """One direction, the one row of a one-row draw (bas_step's and F7's draw)."""
    [b] = sample_directions(rng, dim, 1)
    return b


class TestSampleDirection:
    def test_unit_norm_across_dims_and_seeds(self):
        for dim in (1, 2, 5, 30):
            rng = RandomStream(dim)
            for _ in range(20):
                b = _direction(rng, dim)
                assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    def test_one_dimensional_sign(self):
        # u=0.35 maps to raw -0.3, normalizing to -1
        assert _direction(FixedStream(0.35), 1) == np.array([-1.0])

    def test_three_four_five_normalization(self):
        # u = (0.65, 0.7) maps to raw (0.3, 0.4), a 3-4-5 triangle
        assert np.allclose(_direction(FixedStream(0.65, 0.7), 2), [0.6, 0.8])

    def test_zero_vector_redrawn(self):
        # first two draws map to raw (0, 0); the redraw then succeeds
        stream = FixedStream(0.5, 0.5, 0.9, 0.9)
        b = _direction(stream, 2)
        assert np.allclose(b, [np.sqrt(0.5), np.sqrt(0.5)])
        assert stream.cursor == 4

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            _direction(RandomStream(0), 0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_block_draw_matches_repeated_draws(self, dim):
        # run_bas draws a block of directions at once: an all-zero row (u = 0.5) is skipped and the next dim
        # uniforms stand in, so the block consumes the stream as the per-iteration draws do
        before, after = [0.9, 0.2, 0.65, 0.1, 0.35, 0.8], [0.3, 0.95, 0.6, 0.05, 0.45, 0.75]
        values = before[: 2 * dim] + [0.5] * dim + after[: 2 * dim]
        values += [0.7] * dim  # not reached: the stream holds one row more than the block needs
        one, block = FixedStream(*values), FixedStream(*values)
        rows = [_direction(one, dim) for _ in range(4)]
        B = sample_directions(block, dim, 4)
        assert B.shape == (4, dim) and B.tobytes() == np.array(rows).tobytes()
        assert block.cursor == one.cursor == 5 * dim

    def test_bas_step_and_run_bas_draw_through_it(self, monkeypatch):
        # bas_step and F7 draw one row per iteration; run_bas on a deterministic problem draws its 256-row
        # blocks, the last one short
        calls = []

        def counted(rng, dim, m):
            calls.append((dim, m))
            return sample_directions(rng, dim, m)

        monkeypatch.setattr(beetleswarm.bas, "sample_directions", counted)
        bas_step(_state_at([1.0, -2.0]), sphere_problem(2), RandomStream(0))
        assert calls == [(2, 1)]
        calls.clear()
        run_bas(get_problem("F7"), BasConfig(max_iters=3))
        assert calls == [(30, 1)] * 3
        calls.clear()
        run_bas(get_problem("F16"), BasConfig(max_iters=300))
        assert calls == [(2, _BLOCK), (2, 300 - _BLOCK)]


class TestAntennae:
    def test_unit_offsets(self):
        right, left = antennae(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 2.0)
        assert np.array_equal(right, [1.0, 0.0])
        assert np.array_equal(left, [-1.0, 0.0])

    def test_fractional_spacing(self):
        right, left = antennae(np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0.5)
        assert np.array_equal(right, [1.0, 1.25])
        assert np.array_equal(left, [1.0, 0.75])

    def test_midpoint_identity(self):
        rng = RandomStream(8)
        for _ in range(50):
            x = 10 * (rng.uniform(4) - 0.5)
            b = _direction(rng, 4)
            d = 0.01 + rng.uniform()
            right, left = antennae(x, b, d)
            assert np.allclose((right + left) / 2.0, x, atol=1e-12)

    def test_probes_are_rows_of_one_array(self):
        x, b = np.array([1.0, -2.0, 0.5]), np.array([0.6, 0.0, -0.8])
        probes = antennae(x, b, 0.5)
        assert isinstance(probes, np.ndarray) and probes.shape == (2, 3) and probes.flags.owndata
        assert probes.tobytes() == np.array([x + 0.25 * b, x - 0.25 * b]).tobytes()  # right row first

    def test_requires_positive_spacing(self):
        with pytest.raises(ValueError):
            antennae(np.zeros(2), np.array([1.0, 0.0]), 0.0)


def _state_at(x, delta=0.1, d=0.2, f=None):
    x = np.asarray(x, dtype=float)
    return BasState(x=x, delta=delta, d=d, t=0, best_x=x, best_f=np.inf if f is None else f)


class TestBasStep:
    def test_descends_toward_lower_antenna(self):
        # 1-D parabola at x=1 with a rightward direction: the right antenna
        # smells worse, so the beetle steps left to 0.9
        problem = sphere_problem(1)
        state = _state_at([1.0], delta=0.1, d=0.2)
        new = bas_step(state, problem, FixedStream(0.9))  # raw 0.8 -> b = +1
        assert np.allclose(new.x, [0.9])
        assert new.t == 1
        # probes at 1.1 and 0.9: best seen is the left antenna
        assert new.best_f == pytest.approx(0.81)

    def test_constant_fitness_is_fixed_point(self):
        problem = constant_problem(2)
        state = _state_at([1.0, -2.0])
        new = bas_step(state, problem, RandomStream(0))
        assert np.array_equal(new.x, state.x)

    def test_moves_downhill_on_linear_slope(self):
        # f(x) = -x: right antenna is better, sign = -1, step is +delta
        problem = Problem(
            id="neg", space=SearchSpace.box(1, -10, 10), batch=lambda X, rng=None: -X[:, 0]
        )
        state = _state_at([0.0], delta=0.25, d=0.2)
        new = bas_step(state, problem, FixedStream(0.9))
        assert np.allclose(new.x, [0.25])

    def test_move_is_parallel_to_direction_with_bounded_length(self):
        # a twin stream with the same seed predicts the sampled direction
        problem = sphere_problem(5, -100, 100)
        for seed in range(25):
            rng, twin = RandomStream(seed), RandomStream(seed)
            x = 5 * (rng.uniform(5) - 0.5)  # interior, clamping inactive
            twin.uniform(5)
            expected_b = _direction(twin, 5)
            state = _state_at(x, delta=0.3, d=0.1)
            new = bas_step(state, problem, rng)
            move = new.x - state.x
            norm = np.linalg.norm(move)
            assert norm <= 0.3 + 1e-12
            if norm > 0:
                assert abs(abs(move / norm @ expected_b) - 1.0) < 1e-12

    def test_new_position_clamped(self):
        problem = sphere_problem(1, -1.0, 1.0)
        state = _state_at([0.99], delta=5.0, d=0.2)
        new = bas_step(state, problem, FixedStream(0.9))
        assert -1.0 <= new.x[0] <= 1.0

    def test_probe_clamp_reads_the_bounds_zero_on_a_signed_zero_tie_as_bso_does(self):
        # the right probe -0.5 + 0.5 = +0.0 ties the box's upper bound -0.0: clip_in_place against the box tiled to the
        # probes' shape, the one clamp rule of both optimizers, reads the bound's -0.0 there
        rows = []
        space = SearchSpace(np.array([-1.0]), np.array([-0.0]))
        problem = Problem("tie", space, lambda X, rng=None: rows.append(X.copy()) or X[:, 0], clamp_probes=True)
        bas_step(_state_at([-0.5], d=1.0), problem, FixedStream(0.75))  # raw 0.5 -> b = +1
        probes = rows[0]
        expected = clip_in_place(
            antennae(np.array([-0.5]), np.array([1.0]), 1.0), np.tile(space.lower, (2, 1)), np.tile(space.upper, (2, 1))
        )
        assert probes.tobytes() == expected.tobytes() == np.array([[-0.0], [-1.0]]).tobytes()
        # BSO's probes from two beetles at X = -0.5 with V = 1 and spacing 1 land on the same +0.0 and clamp alike
        engine = BsoEngine(problem, BsoConfig(n=2, max_iters=1, delta0=1.0, c2_ratio=1.0, v_frac=1.0))
        X, V = np.full((2, 1), -0.5), np.ones((2, 1))
        rows.clear()
        engine._start(SwarmState(X, V, X.copy(), np.full(2, np.inf), X[0], np.inf, 1.0, 0))
        assert rows[0][2:].tobytes() == np.repeat(expected, 2, axis=0).tobytes()  # right, right, left, left

    def test_schedules_untouched_by_step(self):
        problem = sphere_problem(2)
        state = _state_at([1.0, 1.0], delta=0.7, d=0.14)
        new = bas_step(state, problem, RandomStream(4))
        assert (new.delta, new.d) == (0.7, 0.14)


class TestUpdateSchedules:
    def test_geometric_default_contraction(self):
        delta, d = update_schedules(1.0, BasConfig(eta=0.95, c2_ratio=5.0))
        assert delta == pytest.approx(0.95)
        assert d == pytest.approx(0.19)

    def test_identity_contraction(self):
        cfg = BasConfig(eta=1.0, delta0=0.5)
        assert update_schedules(0.5, cfg)[0] == 0.5

    def test_affine_form(self):
        # the schedule is geometric only; the affine knobs are gone
        for key, value in (("schedule", "affine"), ("c1", 0.5), ("delta_floor", 0.2)):
            with pytest.raises(ValueError, match="unknown config keys"):
                BasConfig.from_dict({key: value})

    def test_stalled_schedule_warns_and_clamps(self):
        # eta * (smallest subnormal) underflows to 0.0, as on a very long run
        cfg = BasConfig(eta=0.5)
        with pytest.warns(RuntimeWarning):
            delta, d = update_schedules(5e-324, cfg)
        assert delta == 1e-12
        assert d == pytest.approx(1e-12 / cfg.c2_ratio)

    def test_underflowed_spacing_warns_and_clamps(self):
        # the step 1e-323 is still positive, but its spacing 1e-323 / 5 rounds to 0; it used to
        # come back as (1e-323, 0.0) without a warning, and antennae then raised
        with pytest.warns(RuntimeWarning, match="antenna spacing underflowed"):
            delta, d = update_schedules(1e-323, BasConfig(eta=1.0))
        assert (delta, d) == (1e-12, 1e-12 / 5.0)

    def test_geometric_decay_is_exact_power(self):
        cfg = BasConfig(eta=0.95, delta0=2.0)
        delta = 2.0
        for k in range(1, 120):
            delta, _ = update_schedules(delta, cfg)
            assert delta == pytest.approx(2.0 * 0.95**k, rel=1e-12)


class TestBasConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BasConfig(eta=0.0)
        with pytest.raises(ValueError):
            BasConfig(eta=1.2)
        with pytest.raises(ValueError):
            BasConfig(delta0=-1.0)
        with pytest.raises(ValueError):
            BasConfig(c2_ratio=0.0)
        with pytest.raises(ValueError):
            BasConfig(max_iters=-1)

    def test_delta0_whose_spacing_underflows_rejected(self):
        # BasConfig(delta0=1e-323) used to build, and run_bas then raised from antennae in its first iteration
        with pytest.raises(ValueError, match=r"^delta0 and delta0 / c2_ratio must be positive, got 1e-323 / 5\.0$"):
            BasConfig(delta0=1e-323)
        assert BasConfig(delta0=1e-323, c2_ratio=1.0).delta0 == 1e-323

    def test_negative_delta0_rejected_as_not_positive(self):
        # -1.0 is finite, yet the message used to say "must be finite"
        with pytest.raises(ValueError, match=r"^delta0 and delta0 / c2_ratio must be positive, got -1\.0 / 5\.0$"):
            BasConfig(delta0=-1.0)

    def test_start_step(self):
        # a delta0 of None derives the first step from the box: 0.3 x its widest side
        problem = get_problem("PV")  # widest side 190
        assert BasConfig().start_step(problem) == 0.3 * 190.0
        assert BasConfig(delta0=1.5).start_step(problem) == 1.5

    def test_dict_round_trip(self):
        cfg = BasConfig(delta0=1.5, eta=0.9, seed=11)
        assert BasConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            BasConfig.from_dict({"delta": 1.0})


class TestRunBas:
    def test_zero_iterations(self):
        rec = run_bas(sphere_problem(2), BasConfig(max_iters=0), seed=3)
        assert rec.curve.size == 1
        assert rec.best_f == rec.curve[0]

    def test_same_seed_identical_records(self):
        cfg = BasConfig(max_iters=60, seed=9)
        a = run_bas(sphere_problem(3), cfg)
        b = run_bas(sphere_problem(3), cfg)
        assert np.array_equal(a.curve, b.curve)
        assert np.array_equal(a.best_x, b.best_x)
        assert a.best_f == b.best_f

    def test_seed_argument_overrides_config(self):
        cfg = BasConfig(max_iters=20, seed=1)
        assert run_bas(sphere_problem(2), cfg, seed=2).seed == 2

    def test_default_config(self):
        # run_bas was the one runner without a default config
        rec = run_bas(sphere_problem(2))
        assert rec.config == {**BasConfig().to_dict(), "seed": 0}
        assert rec.curve.size == BasConfig().max_iters + 1

    def test_curve_monotone_nonincreasing(self):
        for seed in range(8):
            rec = run_bas(sphere_problem(4), BasConfig(max_iters=80), seed=seed)
            assert np.all(np.diff(rec.curve) <= 0.0)
            assert rec.curve.size == 81

    def test_converges_on_one_dimensional_parabola(self):
        hits = 0
        for seed in range(10):
            rec = run_bas(sphere_problem(1), BasConfig(delta0=1.0, max_iters=200), seed=seed)
            hits += rec.best_f <= 1e-2
        assert hits >= 9

    def test_run_past_a_vanishing_spacing_stalls_with_a_warning(self):
        # at eta = 0.5 the spacing underflows at iteration 1,074; the run used to end there with
        # "antenna spacing d must be positive"
        problem = get_problem("F16")
        with pytest.warns(RuntimeWarning, match="antenna spacing underflowed"):
            rec = run_bas(problem, BasConfig(eta=0.5, max_iters=2000), seed=0)
        assert rec.curve.size == 2001 and np.isfinite(rec.best_f)
        assert rec.best_f == problem.evaluate(rec.best_x)

    def test_derived_delta0_whose_spacing_underflows_rejected(self):
        # the derived delta0 follows BasConfig's rule for a given one; this run used to raise
        # "antenna spacing d must be positive" from its first iteration
        calls = []
        tiny = Problem("tiny", SearchSpace.box(1, 0.0, 1e-300), lambda X, rng=None: calls.append(X) or X.sum(axis=1))
        message = r"^derived delta0 3e-301 \(0\.3 x the widest side, 1e-300\) / c2_ratio 1e\+30 underflows to 0$"
        with pytest.raises(ValueError, match=message):
            run_bas(tiny, BasConfig(c2_ratio=1e30, max_iters=3))
        assert calls == []  # raised before the start point
        assert run_bas(tiny, BasConfig(max_iters=3)).curve.size == 4

    def test_default_step_scales_with_box(self):
        rec = run_bas(sphere_problem(2, -50, 50), BasConfig(max_iters=1), seed=0)
        assert rec.config["delta0"] is None  # config echoes the automatic setting
        assert rec.algorithm == "bas"

    @pytest.mark.parametrize("pid, seeds", [("F19", range(5)), ("F15", [2])])
    def test_best_x_lies_in_the_box(self, pid, seeds):
        # unclamped probes leave the box here; one that scored best used to become best_x
        problem = get_problem(pid)
        for seed in seeds:
            for max_iters in (200, 1000):
                best_x = run_bas(problem, BasConfig(max_iters=max_iters), seed=seed).best_x
                assert np.all(problem.space.lower <= best_x) and np.all(best_x <= problem.space.upper), (seed, best_x)

    def test_best_x_lies_in_the_box_on_a_linear_objective(self):
        # the minimum of x1 + x2 over [0, 1]^2 is a corner, so the probe past it always scores lower
        linear = Problem("linear", SearchSpace.box(2, 0.0, 1.0), lambda X, rng=None: X.sum(axis=1))
        for seed in range(20):
            rec = run_bas(linear, seed=seed)
            assert np.all(rec.best_x >= 0.0) and np.all(rec.best_x <= 1.0), (seed, rec.best_x)
            assert rec.best_f == linear.evaluate(rec.best_x)


class TestStepMatchesRun:
    @pytest.mark.parametrize(
        "pid, max_iters",
        [pytest.param(pid, 150, id=pid) for pid in ("F7", "F16", "F18", "HB", "PV")]
        + [pytest.param(pid, _BLOCK + 1, id=f"{pid}-block+1") for pid in ("F16", "PV")],
    )
    def test_repeated_steps_reproduce_run_bas(self, pid, max_iters):
        # the public one-step view and run_bas's loop make the same moves bit
        # for bit: F7 draws noise, HB and PV clamp their probes into the box
        # (PV on its grid), and run_bas evaluates each move with the next
        # probes on all but F7, drawing a block of directions at once
        problem, cfg, seed = get_problem(pid), BasConfig(max_iters=max_iters), 4
        rec = run_bas(problem, cfg, seed=seed)

        rng = RandomStream(seed)
        x0 = uniform_in_space(rng, problem.space)
        delta0 = cfg.start_step(problem)
        state = BasState(x0, delta0, delta0 / cfg.c2_ratio, 0, x0, problem.evaluate(x0, rng))
        curve = [state.best_f]
        for _ in range(cfg.max_iters):
            state = bas_step(state, problem, rng)
            delta, d = update_schedules(state.delta, cfg)
            state = dataclasses.replace(state, delta=delta, d=d)
            curve.append(state.best_f)

        assert rec.curve.tobytes() == np.array(curve).tobytes()
        assert rec.best_x.tobytes() == np.asarray(state.best_x).tobytes()
        assert np.float64(rec.best_f).tobytes() == np.float64(state.best_f).tobytes()
        assert state.t == cfg.max_iters

    def test_objective_sees_the_steps_rows_bit_for_bit(self):
        # run_bas's batches are x + [-0.0, o, -o]: on [-0.0, 1]^2 the beetle is clamped onto -0.0, which an
        # offset of +0.0 would turn into +0.0 before the objective saw it
        def recorded(rows):
            def corner(X, rng=None):
                rows.append(X.copy())
                return X.sum(axis=1)

            return Problem("corner", SearchSpace.box(2, -0.0, 1.0), corner)

        cfg, seed, run_rows, step_rows = BasConfig(max_iters=40), 2, [], []
        run_bas(recorded(run_rows), cfg, seed=seed)
        problem, rng = recorded(step_rows), RandomStream(seed)
        x0, delta0 = uniform_in_space(rng, problem.space), cfg.start_step(problem)
        state = BasState(x0, delta0, delta0 / cfg.c2_ratio, 0, x0, problem.evaluate(x0, rng))
        for _ in range(cfg.max_iters):
            state = bas_step(state, problem, rng)
            delta, d = update_schedules(state.delta, cfg)
            state = dataclasses.replace(state, delta=delta, d=d)
        run_rows, step_rows = np.concatenate(run_rows), np.concatenate(step_rows)
        assert np.signbit(run_rows[run_rows == 0.0]).any()  # the -0.0 position reached the objective
        assert run_rows.tobytes() == step_rows.tobytes()
