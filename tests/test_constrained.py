"""Engineering-problem checks.

The reference rows below are best-known solutions reported across the
constrained-optimization literature for these two classic problems. Every
row is pushed through the raw objective and constraint transcriptions
here; the frozen values were computed once with an independent
straight-line script and must agree with the published numbers to the
stated tolerances. Two table cells are known to disagree with direct
evaluation of the stated formulas (detailed inline); for those the
directly computed value is pinned instead.
"""

import hashlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from beetleswarm import (
    ConstrainedProblem,
    PenaltyConfig,
    SearchSpace,
    constrained_problem,
    get_problem,
    list_problems,
    penalized_fitness,
)
from beetleswarm.constrained import HIMMELBLAU, PRESSURE_VESSEL, DiscreteGrid, as_problem

from beetleswarm import RandomStream


class TestPressureVesselTranscription:
    def test_reference_row(self):
        # widely cited near-optimal design; published cost 6059.7258
        x = [0.8125, 0.4375, 42.0984, 176.6378]
        cost, g = PRESSURE_VESSEL.raw(x), PRESSURE_VESSEL.constraints(x)
        assert cost == pytest.approx(6059.734830888689, rel=1e-12)
        assert cost == pytest.approx(6059.7258, rel=1e-3)
        assert g[0] == pytest.approx(-8.8e-7, abs=0.01)
        assert g[1] == pytest.approx(-0.0359, abs=0.01)
        assert g[2] == pytest.approx(-3.5586, abs=0.01)
        assert g[3] == pytest.approx(-63.3622, abs=0.01)

    def test_best_reported_row(self):
        # published row: cost 6059.7000, g = (0.0000, -0.0359, 0.0000, -63.3634)
        x = [0.8125, 0.4375, 42.0984, 176.6366]
        cost, g = PRESSURE_VESSEL.raw(x), PRESSURE_VESSEL.constraints(x)
        assert cost == pytest.approx(6059.706775750789, rel=1e-12)
        assert cost == pytest.approx(6059.7000, rel=1e-3)
        assert g[0] == pytest.approx(0.0, abs=0.01)
        assert g[1] == pytest.approx(-0.0359, abs=0.01)
        assert g[3] == pytest.approx(-63.3634, abs=0.01)
        # the published row prints g3 = 0.0000, but direct evaluation of the
        # stated volume constraint at this x gives +3.1227 (the x4 that
        # reproduces g3 ~ 0 is the 176.6378 of the reference row above);
        # the directly computed value is pinned, the table cell is not
        assert g[2] == pytest.approx(3.1226749981287867, rel=1e-12)

    def test_boundary_length_constraint(self):
        g = PRESSURE_VESSEL.constraints([1.0, 1.0, 50.0, 240.0])
        assert g[3] == 0.0


class TestHimmelblauTranscription:
    def test_best_reported_row(self):
        # published row: f = -31025.5563, g = (92.00, 100.4048, 20.0000)
        x = [78.0, 33.0, 27.0710, 45.0, 44.9692]
        f, g = HIMMELBLAU.raw(x), HIMMELBLAU.constraints(x)
        assert f == pytest.approx(-31025.5581983285, rel=1e-12)
        assert f == pytest.approx(-31025.5563, rel=1e-3)
        assert g[0] == pytest.approx(92.00, abs=0.01)
        assert g[1] == pytest.approx(100.4048, abs=0.01)
        assert g[2] == pytest.approx(20.0000, abs=0.01)

    def test_reference_row(self):
        # classic benchmark solution; published f = -30665.539
        x = [78.0, 33.0, 29.995256, 45.0, 36.775813]
        f, g = HIMMELBLAU.raw(x), HIMMELBLAU.constraints(x)
        assert f == pytest.approx(-30665.53469589683, rel=1e-12)
        assert f == pytest.approx(-30665.539, rel=1e-3)
        assert g[1] == pytest.approx(98.8405, abs=0.01)
        assert g[2] == pytest.approx(20.0000, abs=0.01)
        # sources that print g1 = 92.00 for this row use 0.0006262 as the
        # x1*x4 coefficient; the statement implemented here has 0.00026,
        # under which this row's g1 evaluates to 90.7146 (and under which
        # the best reported row above does reproduce its printed 92.00)
        assert g[0] == pytest.approx(90.71463801352793, rel=1e-12)

    def test_constraint_smoothness(self):
        rng = RandomStream(3)
        space = HIMMELBLAU.space
        for _ in range(20):
            x = space.lower + rng.uniform(5) * space.widths
            g0 = HIMMELBLAU.constraints(x)
            for i in range(5):
                bumped = x.copy()
                bumped[i] += 1e-9
                g1 = HIMMELBLAU.constraints(bumped)
                assert np.all(np.abs(g1 - g0) <= 1e-6)


def hb_batches():
    """Seeded batches of 1, 2, 50 and 1000 rows, each in row-major then column-major order.

    Per size: a batch inside the box, one reaching half a box width past
    every side, and one spread over [-upper, 2*upper] with exact zeros of
    both signs, so signs flip inside the kernels.
    """
    rng = np.random.default_rng(20240610)
    lo, width = HIMMELBLAU.space.lower, HIMMELBLAU.space.widths
    for m in (1, 2, 50, 1000):
        wide = HIMMELBLAU.space.upper * (3.0 * rng.random((m, 5)) - 1.0)
        wide[rng.random((m, 5)) < 0.1] = 0.0
        wide[rng.random((m, 5)) < 0.1] = -0.0
        for X in (lo + rng.random((m, 5)) * width, lo + (2.0 * rng.random((m, 5)) - 0.5) * width, wide):
            yield np.ascontiguousarray(X)
            yield np.asfortranarray(X)


def test_himmelblau_kernels_digest():
    # HB's kernels use only +, -, * and /, so their bits do not depend on a numpy build's libm
    problem = as_problem(HIMMELBLAU)
    h = hashlib.sha256()
    for X in hb_batches():
        for part in (HIMMELBLAU.raw_batch(X), HIMMELBLAU.constraint_batch(X), problem.evaluate_many(X)):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    assert h.hexdigest() == "3551cdb2bba6deae90f884fcf7d2d1e8812c5fe5507caca15752bd9965f0a214"


class TestSnapDiscrete:
    def test_rounds_to_nearest_multiple(self):
        out = PRESSURE_VESSEL.snap([0.80, 0.30, 42.0, 176.0])
        assert out[0] == pytest.approx(0.8125)
        assert out[2] == 42.0 and out[3] == 176.0

    def test_fixed_point(self):
        out = PRESSURE_VESSEL.snap([0.8125, 0.4375, 42.0, 176.0])
        assert out[0] == 0.8125 and out[1] == 0.4375

    def test_clamps_to_smallest_multiple(self):
        out = PRESSURE_VESSEL.snap([0.01, 0.0, 42.0, 176.0])
        assert out[0] == 0.0625 and out[1] == 0.0625

    def test_clamps_to_largest_multiple(self):
        out = PRESSURE_VESSEL.snap([7.5, 99.0, 42.0, 176.0])
        assert out[0] == pytest.approx(99 * 0.0625)

    def test_idempotent_and_bounded_movement(self):
        rng = RandomStream(9)
        for _ in range(200):
            x = np.array([7 * rng.uniform(), 7 * rng.uniform(), 100.0, 100.0])
            snapped = PRESSURE_VESSEL.snap(x)
            again = PRESSURE_VESSEL.snap(snapped)
            assert np.array_equal(snapped, again)
            for j in (0, 1):
                inside_grid = 0.0625 <= x[j] <= 99 * 0.0625
                if inside_grid:
                    assert abs(snapped[j] - x[j]) <= 0.0625 / 2 + 1e-12

    def test_continuous_components_untouched(self):
        x = [0.8, 0.4, 123.456789, 10.0001]
        out = PRESSURE_VESSEL.snap(x)
        assert out[2] == 123.456789 and out[3] == 10.0001

    def test_non_adjacent_gridded_columns(self):
        # PV's gridded columns 0-1 are snapped through a slice; columns 0 and 2 take the gather path
        grids = (DiscreteGrid(step=0.25, k_min=-3, k_max=12), None, DiscreteGrid(step=0.1, k_min=2, k_max=40))
        cp = ConstrainedProblem(
            id="gaps",
            space=SearchSpace.box(3, -2.0, 5.0),
            raw_batch=lambda X: X[:, 0] + X[:, 2],
            constraint_batch=lambda X: X[:, :1],
            g_lower=np.array([-np.inf]),
            g_upper=np.array([np.inf]),
            grids=grids,
        )
        X = np.random.default_rng(5).uniform(-4.0, 8.0, size=(60, 3))
        kept = X.copy()
        snapped = cp.snap_many(X)
        expected = X.copy()
        for j in (0, 2):
            g = grids[j]
            expected[:, j] = np.clip(np.rint(X[:, j] / g.step), g.k_min, g.k_max) * g.step
        assert snapped.tobytes() == expected.tobytes()
        assert all(np.array_equal(cp.snap(x), row) for x, row in zip(X, snapped))
        assert np.array_equal(X, kept)
        assert snapped.flags.f_contiguous  # objectives receive the snapped copy column-major


    @pytest.mark.parametrize(
        "step,k_min,k_max",
        [(0.0, 1, 9), (0.1, 5, 2), (-0.1, 1, 9), (np.nan, 1, 9), (0.1, 1.5, 9), (10**400, 1, 9), (10**5000, 1, 9),
         (0.5, 10**5000, 0)],
        ids=["zero-step", "k_min-above-k_max", "negative-step", "nan-step", "fractional-k_min", "step-past-floats",
             "huge-step", "huge-k_min"],
    )
    def test_bad_grid_rejected(self, step, k_min, k_max):
        # each used to build and then snap wrong: to 0.0, always to k_max, outside the box, to NaN; a step past
        # the float range built and overflowed at the first snap, and a k_min past 4,300 digits failed in repr
        with pytest.raises(ValueError, match="grid"):
            DiscreteGrid(step=step, k_min=k_min, k_max=k_max)

    def test_grids_must_cover_every_dimension(self):
        # a shorter tuple used to leave the last columns unsnapped
        with pytest.raises(ValueError, match="3 grids for 4 dimensions"):
            replace(PRESSURE_VESSEL, grids=PRESSURE_VESSEL.grids[:3])


class TestPlainData:
    def test_evaluation_leaves_only_the_dataclass_fields(self):
        # the per-batch-size arrays live in a module-level cache, not on the problem or the penalty config
        for cp in (PRESSURE_VESSEL, HIMMELBLAU):
            problem = as_problem(cp)
            for m in (1, 2, 50):
                problem.evaluate_many(np.tile(cp.space.lower, (m, 1)))
            assert set(vars(cp)) == {f.name for f in fields(cp)}, cp.id
        config = PenaltyConfig()
        penalized_fitness(PRESSURE_VESSEL, PRESSURE_VESSEL.space.lower, config)
        assert set(vars(config)) == {"weight"}

    @pytest.mark.parametrize("cp", [PRESSURE_VESSEL, HIMMELBLAU], ids=["PV", "HB"])
    def test_batch_sizes_past_the_cache_keep_every_bit(self, cp):
        # ten batch sizes, up then down, are more than the layout cache holds, so layouts are evicted and
        # rebuilt; every row must still get the bits it gets alone
        problem = as_problem(cp)
        rng = np.random.default_rng(17)
        X = cp.space.lower + (1.4 * rng.random((200, cp.space.dim)) - 0.2) * cp.space.widths
        singles = np.concatenate([problem.evaluate_many(X[i : i + 1]) for i in range(len(X))])
        sizes = (2, 3, 5, 7, 11, 13, 50, 64, 100, 200)
        for m in sizes + sizes[::-1]:
            got = np.concatenate([problem.evaluate_many(X[i : i + m]) for i in range(0, len(X), m)])
            assert got.tobytes() == singles.tobytes(), m


class TestReadOnlyBounds:
    @pytest.mark.parametrize("cp", [PRESSURE_VESSEL, HIMMELBLAU], ids=["PV", "HB"])
    def test_catalog_constraint_bounds_are_read_only(self, cp):
        # PRESSURE_VESSEL.g_upper[:] = 1e9 used to reach only the batch sizes whose bounds _layout had not cached
        for bounds in (cp.g_lower, cp.g_upper):
            with pytest.raises(ValueError, match="read-only"):
                bounds[0] = 1.0

    def test_callers_bounds_are_copied_as_floats_and_stay_writable(self):
        g_lower, g_upper = [-np.inf] * 4, np.array([0, 0, 0, 0])
        cp = replace(PRESSURE_VESSEL, g_lower=g_lower, g_upper=g_upper)
        assert cp.g_upper.dtype == np.float64 and not cp.g_upper.flags.writeable
        g_upper[2] = 10**6
        assert np.array_equal(cp.g_upper, np.zeros(4)) and PRESSURE_VESSEL.g_upper is not cp.g_upper

    def test_relaxed_variant_agrees_across_batch_sizes(self):
        # a variant with the volume constraint relaxed: rows keep their violations in a 49- and a 50-row batch,
        # and feasible() agrees with an all-zero violation row
        X = PRESSURE_VESSEL.space.lower + RandomStream(3).uniform((50, 4)) * PRESSURE_VESSEL.space.widths
        X[:, 0] = 0.0193 * X[:, 2] + np.linspace(-0.5, 0.5, 50)  # g1 holds on about half of the rows
        strict = PRESSURE_VESSEL.violations_many(X)  # caches the 50-row layout of the original
        relaxed = replace(PRESSURE_VESSEL, g_upper=np.array([0.0, 0.0, 1e9, 0.0]))
        v50, v49 = relaxed.violations_many(X), relaxed.violations_many(X[:49])
        assert v50[:49].tobytes() == v49.tobytes()
        assert np.all(v50[:, 2] == 0.0) and np.any(strict[:, 2] > 0.0)
        zero = ~v50.any(axis=1)
        assert 0 < zero.sum() < 50
        assert [relaxed.feasible(x, tol=0.0) for x in X] == zero.tolist()
        assert PRESSURE_VESSEL.violations_many(X).tobytes() == strict.tobytes()


class TestPenalty:
    def test_feasible_point_pays_nothing(self):
        cfg = PenaltyConfig()
        x = np.array([1.0, 1.0, 50.0, 100.0])  # comfortably feasible
        assert PRESSURE_VESSEL.feasible(x, tol=0.0)
        assert penalized_fitness(PRESSURE_VESSEL, x, cfg) == PRESSURE_VESSEL.raw(x)

    def test_length_violation_priced_squared(self):
        cfg = PenaltyConfig(weight=100.0)
        x = np.array([6.0, 6.0, 50.0, 250.0])  # x4 - 240 = 10
        viol = PRESSURE_VESSEL.violations_many(x[None, :])[0]
        assert viol[3] == 10.0
        expected = PRESSURE_VESSEL.raw(x) + 100.0 * float((viol**2).sum())
        assert penalized_fitness(PRESSURE_VESSEL, x, cfg) == pytest.approx(expected, rel=1e-15)
        assert penalized_fitness(PRESSURE_VESSEL, x, cfg) - PRESSURE_VESSEL.raw(x) >= 100.0 * 10.0**2

    def test_zero_weight_degenerates_to_raw(self):
        cfg = PenaltyConfig(weight=0.0)
        rng = RandomStream(2)
        space = PRESSURE_VESSEL.space
        for _ in range(50):
            x = space.lower + rng.uniform(4) * space.widths
            assert penalized_fitness(PRESSURE_VESSEL, x, cfg) == PRESSURE_VESSEL.raw(x)

    def test_interval_violation_arithmetic(self):
        # Himmelblau constraints are two-sided: both shortfall and excess count
        g_low, g_high = HIMMELBLAU.g_lower, HIMMELBLAU.g_upper
        probe = np.array([[85.0, 120.0, 22.0]])  # g2 exceeds 110 by 10
        viol = np.maximum(0.0, np.maximum(g_low - probe, probe - g_high))
        assert np.array_equal(viol, [[0.0, 10.0, 0.0]])

    def test_penalized_equals_raw_on_random_feasible_set(self):
        for cp in (PRESSURE_VESSEL, HIMMELBLAU):
            rng = RandomStream(13)
            X = cp.space.lower + rng.uniform((10_000, cp.space.dim)) * cp.space.widths
            viol = cp.violations_many(X)
            feasible = np.all(viol == 0.0, axis=1)
            assert feasible.sum() > 100
            raw = cp.raw_batch(X)
            pen = np.array([penalized_fitness(cp, x, PenaltyConfig()) for x in X[feasible][:200]])
            assert np.array_equal(pen, raw[feasible][:200])
            infeasible_pen = np.array(
                [penalized_fitness(cp, x, PenaltyConfig()) for x in X[~feasible][:200]]
            )
            assert np.all(infeasible_pen > raw[~feasible][:200])

    def test_feasibility_tolerance_absorbs_boundary_noise(self):
        # a point one float-noise step outside the boundary
        x = np.array([0.8125, 0.4375, 42.0984456, 176.6366])
        g = PRESSURE_VESSEL.constraints(x)
        assert g[0] > 0 and g[0] < 1e-6
        assert PRESSURE_VESSEL.feasible(x)
        assert not PRESSURE_VESSEL.feasible(x, tol=0.0)

    def test_constraints_returning_a_view_of_x(self):
        # a user constraint_batch may return a view of its input, or integers;
        # the caller's points must come back unchanged and the values right
        cp = ConstrainedProblem(
            id="view",
            space=SearchSpace.box(3, -5.0, 5.0),
            raw_batch=lambda X: X.sum(axis=1),
            constraint_batch=lambda X: X[:, :2],
            g_lower=np.array([-1.0, -1.0]),
            g_upper=np.array([1.0, 1.0]),
            grids=(None, None, None),
        )
        x = np.array([3.0, -2.0, 0.5])
        assert penalized_fitness(cp, x, PenaltyConfig(weight=10.0)) == 1.5 + 10.0 * (2.0**2 + 1.0**2)
        assert np.array_equal(x, [3.0, -2.0, 0.5])
        X = np.array([[3.0, -2.0, 0.5], [0.0, 0.5, 1.0]])
        kept = X.copy()
        assert np.array_equal(cp.violations_many(X), [[2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(X, kept)
        integer = replace(cp, constraint_batch=lambda X: np.rint(X[:, :2]).astype(int))
        assert np.array_equal(integer.violations_many(X), [[2.0, 1.0], [0.0, 0.0]])

    def test_met_one_sided_bound_at_infinity_reads_zero(self):
        # g4 = -inf meets g4 <= 0, but -inf - (-inf) used to read NaN, with numpy's invalid-value warning
        assert PRESSURE_VESSEL.violations_many([[1, 1, 50, -np.inf]]).tolist() == [[0.0, 0.0, np.inf, 0.0]]
        cp = ConstrainedProblem(
            id="open",
            space=SearchSpace.box(2, -1.0, 1.0),
            raw_batch=lambda X: X.sum(axis=1),
            constraint_batch=lambda X: X,
            g_lower=np.array([-np.inf, 0.0]),
            g_upper=np.array([0.0, np.inf]),
            grids=(None, None),
        )
        inf, nan = np.inf, np.nan
        X = np.array([[-inf, inf], [inf, -inf], [nan, nan], [2.0, -3.0], [-2.0, 3.0], [-0.0, 0.0]])
        viol = cp.violations_many(X)
        expected = [[0.0, 0.0], [inf, inf], [nan, nan], [2.0, 3.0], [0.0, 0.0], [0.0, 0.0]]
        assert np.array_equal(viol, expected, equal_nan=True)
        # a constraint bounded on neither side is never violated, and a NaN g still reads NaN
        free = replace(cp, g_lower=np.array([-inf, -inf]), g_upper=np.array([inf, inf]))
        assert np.array_equal(free.violations_many(X[2:]), [[nan, nan]] + [[0.0, 0.0]] * 3, equal_nan=True)

    def test_penalty_config_validation(self):
        with pytest.raises(ValueError):
            PenaltyConfig(weight=-1.0)


class TestProblemWrapper:
    def test_snaps_before_evaluating(self):
        p = as_problem(PRESSURE_VESSEL)
        raw_x = np.array([0.80, 0.43, 50.0, 100.0])
        snapped = PRESSURE_VESSEL.snap(raw_x)
        assert p.evaluate(raw_x) == penalized_fitness(PRESSURE_VESSEL, snapped, PenaltyConfig())

    def test_probe_clamping_requested(self):
        assert as_problem(PRESSURE_VESSEL).clamp_probes is True
        assert as_problem(HIMMELBLAU).clamp_probes is True

    def test_registered_in_catalog(self):
        ids = {e["id"] for e in list_problems()}
        assert {"PV", "HB"} <= ids
        assert len(ids) == 25
        assert get_problem("pv").id == "PV"
        assert get_problem("HB").space.dim == 5

    def test_unknown_constrained_id(self):
        with pytest.raises(KeyError):
            constrained_problem("XX")

    def test_lookup_is_case_insensitive(self):
        # the constrained registry resolves through the catalog's id rule, core.lookup
        assert constrained_problem("pv") is PRESSURE_VESSEL
        assert constrained_problem("Hb") is HIMMELBLAU

    def test_report_shape(self):
        rep = PRESSURE_VESSEL.report([0.80, 0.43, 50.0, 100.0])
        assert set(rep) == {"x", "raw_objective", "g", "feasible"}
        assert len(rep["x"]) == 4 and len(rep["g"]) == 4
        assert rep["x"][0] == pytest.approx(0.8125)

    def test_himmelblau_bounds(self):
        space = HIMMELBLAU.space
        assert np.array_equal(space.lower, [78.0, 33.0, 27.0, 27.0, 27.0])
        assert np.array_equal(space.upper, [102.0, 45.0, 45.0, 45.0, 45.0])


# every single-point entry of a constrained problem, each taking a point x
_SINGLE_POINT = {
    "evaluate": lambda cp, x: as_problem(cp).evaluate(x),  # a guard: Problem.evaluate checked the length already
    "snap": lambda cp, x: cp.snap(x),
    "raw": lambda cp, x: cp.raw(x),
    "constraints": lambda cp, x: cp.constraints(x),
    "feasible": lambda cp, x: cp.feasible(x),
    "report": lambda cp, x: cp.report(x),
    "penalized_fitness": lambda cp, x: penalized_fitness(cp, x, PenaltyConfig()),
}


class TestShapes:
    """A point of the wrong length, or a batch of the wrong width, is an error that names the problem."""

    @pytest.mark.parametrize("cp", [PRESSURE_VESSEL, HIMMELBLAU], ids=["PV", "HB"])
    @pytest.mark.parametrize("entry", list(_SINGLE_POINT))
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_point_of_wrong_length_rejected(self, cp, entry, extra):
        # PV's extra coordinate was ignored (report gave raw_objective 25.4066 for [1.0] * 5); the other
        # cases raised IndexError or numpy broadcast errors that did not name the problem
        dim = cp.space.dim
        message = rf"^{cp.id}: expected a vector of length {dim}, got shape \({dim + extra},\)$"
        with pytest.raises(ValueError, match=message):
            _SINGLE_POINT[entry](cp, np.ones(dim + extra))

    @pytest.mark.parametrize("cp", [PRESSURE_VESSEL, HIMMELBLAU], ids=["PV", "HB"])
    @pytest.mark.parametrize("method", ["snap_many", "violations_many"])
    @pytest.mark.parametrize("shape", ["narrow", "wide", "vector"])
    def test_batch_of_wrong_shape_rejected(self, cp, method, shape):
        # a wide PV batch used to return numbers, a narrow one an IndexError, and HB numpy broadcast errors
        dim = cp.space.dim
        X = np.ones({"narrow": (1, dim - 1), "wide": (1, dim + 1), "vector": (dim,)}[shape])
        message = rf"^{cp.id}: expected an \(m, {dim}\) array, got shape {re.escape(str(X.shape))}$"
        with pytest.raises(ValueError, match=message):
            getattr(cp, method)(X)
        assert getattr(cp, method)(np.ones((1, dim))).shape[0] == 1  # a good batch still passes after a bad one
