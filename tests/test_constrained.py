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
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beetleswarm import (
    ConstrainedProblem,
    PenaltyConfig,
    SearchSpace,
    constrained_problem,
    get_problem,
    list_problems,
    penalized_fitness,
)
from beetleswarm.constrained import (
    HIMMELBLAU,
    PRESSURE_VESSEL,
    DiscreteGrid,
    _PV_GRID,
    _hb_constraints,
    _hb_objective,
    _layout,
    _pv_constraints,
    _pv_cost,
    as_problem,
)

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


# PV and HB as written with Python-float literals (HB with the 37.29329 of the statement implemented here), each
# sum taken left to right as the kernels take it. The kernels hold their coefficients as 0-d arrays and HB's
# constraints fuse their nine products into one pass, which must change no bit. Should a case ever differ, this
# formula is rewritten in the kernel's order, and the kernel keeps its bits.
def _textbook(pid, X):
    x1, x2, x3, x4 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    if pid == "PV":
        f = 0.6224 * x1 * x3 * x4 + 1.7781 * x2 * x3**2 + 3.1661 * x1**2 * x4 + 19.84 * x1**2 * x3
        g3 = -math.pi * x3**2 * x4 - (4.0 / 3.0) * math.pi * x3**3 + 1296000.0
        return f, np.stack([-x1 + 0.0193 * x3, -x2 + 0.00954 * x3, g3, x4 - 240.0], axis=1)
    x5 = X[:, 4]
    f = 5.3578547 * x3**2 + 0.8356891 * x1 * x5 + 37.29329 * x1 - 40792.141
    g1 = 85.334407 + 0.0056858 * x2 * x5 + 0.00026 * x1 * x4 - 0.0022053 * x3 * x5
    g2 = 80.51249 + 0.0071317 * x2 * x5 + 0.0029955 * x1 * x2 + 0.0021813 * x3**2
    g3 = 9.300961 + 0.0047026 * x3 * x5 + 0.0012547 * x1 * x3 + 0.0019085 * x3 * x4
    return f, np.stack([g1, g2, g3], axis=1)


@pytest.mark.parametrize("pid", ["PV", "HB"])
@pytest.mark.parametrize("m", [1, 2, 50, 1500])
@pytest.mark.parametrize("order", ["C", "F"])
def test_kernels_match_textbook_bit_for_bit(pid, m, order):
    kernels = {"PV": (_pv_cost, _pv_constraints), "HB": (_hb_objective, _hb_constraints)}[pid]
    dim = {"PV": 4, "HB": 5}[pid]
    rng = np.random.default_rng(m)
    X = rng.choice([-1.0, 1.0], size=(m, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, dim))
    X[rng.uniform(size=(m, dim)) < 0.1] = 0.0
    X[rng.uniform(size=(m, dim)) < 0.1] = -0.0
    X[0] = [-0.0, 0.0] * (dim // 2) + [0.0] * (dim % 2)
    for got, expected in zip((kernel(np.asarray(X, order=order)) for kernel in kernels), _textbook(pid, X)):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("grid", [0.5, (0.0625, 1, 99), "0.0625"], ids=["float", "tuple", "str"])
    def test_grids_must_be_grids_or_none(self, grid):
        # grids=(0.5,) * 5 used to build and fail at the first snap with an AttributeError
        message = rf"^HB: each grid must be a DiscreteGrid or None, got {re.escape(repr(grid))}$"
        with pytest.raises(ValueError, match=message):
            replace(HIMMELBLAU, grids=(None, grid, None, None, None))

    def test_pv_keeps_its_grid_range(self):
        # PV's box holds k = 1..99 of its grid exactly, so narrowing the k bounds to the box moves no bit
        assert [tile[0].tolist() for tile in _layout(PRESSURE_VESSEL, 1)[2:4]] == [[1.0, 1.0], [99.0, 99.0]]

    def test_box_edge_off_the_grid_snaps_inward(self):
        # the upper corner 6.21875 = 99.5 steps used to round out to 100 steps, 6.25, outside the box; report showed
        # that point and the objective was evaluated there
        space = SearchSpace([0.0625, 0.0625, 10.0, 10.0], [6.21875, 6.21875, 200.0, 200.0])
        cp = replace(PRESSURE_VESSEL, space=space, grids=(DiscreteGrid(0.0625, 1, 200),) * 2 + (None, None))
        assert cp.snap(space.upper).tolist() == [6.1875, 6.1875, 200.0, 200.0]
        assert cp.report(space.upper)["x"] == [6.1875, 6.1875, 200.0, 200.0]

    @pytest.mark.parametrize("grid", [DiscreteGrid(10.0, 1, 200), DiscreteGrid(0.0625, 100, 300),
                                      DiscreteGrid(0.0625, -5, 0)], ids=["step-past-the-box", "above", "below"])
    def test_grid_with_no_point_in_the_box_rejected(self, grid):
        # each used to build and snap every point to a grid value outside the box
        message = r"^PV: dimension 1 has no point of its grid in its box \[0\.0625, 6\.1875\]$"
        with pytest.raises(ValueError, match=message):
            replace(PRESSURE_VESSEL, grids=(_PV_GRID, grid, None, None))

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(-100.0, 100.0),
        width=st.floats(1e-3, 100.0),
        step=st.floats(1e-3, 10.0),
        k_min=st.integers(-20_000, 20_000),
        k_span=st.integers(0, 40_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_snapped_rows_lie_on_their_grid_and_in_their_box(self, lo, width, step, k_min, k_span, seed):
        hi = lo + width
        grid = DiscreteGrid(step, k_min, k_min + k_span)
        ks = np.arange(grid.k_min, grid.k_max + 1)
        inside = ks[(ks * step >= lo) & (ks * step <= hi)]  # the grid points snapping may reach
        build = partial(replace, HIMMELBLAU, id="box", space=SearchSpace([lo, 0.0], [hi, 1.0]),
                        constraint_batch=lambda X: X[:, :1], g_lower=-np.inf, g_upper=np.inf, grids=(grid, None))
        if inside.size == 0:
            with pytest.raises(ValueError, match="^box: dimension 0 has no point of its grid in its box"):
                build()
            return
        cp = build()
        X = np.random.default_rng(seed).uniform(lo - width, hi + width, size=(64, 2))
        X[:2, 0] = lo, hi  # the box corners
        col = cp.snap_many(X)[:, 0]
        k = np.rint(col / step)
        assert np.array_equal(col, k * step)
        assert np.all((inside[0] <= k) & (k <= inside[-1]))
        assert np.all((lo <= col) & (col <= hi))


def _parent_layout(space, grids, g_lower, g_upper, m):
    """The layout a problem had before it kept one table: _layout's column and NaN rules and _grid_table's k range,
    all computed per batch size. The reference the one table must reproduce bit for bit."""
    lo, hi, inf = g_lower, g_upper, np.inf
    lo, hi = np.where((lo == -inf) & (hi < inf), np.nan, lo), np.where((hi == inf) & (lo > -inf), np.nan, hi)
    cols = [j for j, g in enumerate(grids) if g is not None] or None
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        cols = slice(cols[0], cols[-1] + 1)
    elif cols:
        cols = np.array(cols, dtype=np.intp)
    table = []
    for j, (grid, box_lo, box_hi) in enumerate(zip(grids, space.lower.tolist(), space.upper.tolist())):
        if grid is not None:
            step = float(grid.step)
            k_lo, k_hi = math.ceil(box_lo / step) - 1, math.floor(box_hi / step) + 1
            k_lo += sum(k * step < box_lo for k in (k_lo, k_lo + 1))
            k_hi -= sum(k * step > box_hi for k in (k_hi, k_hi - 1))
            k_lo, k_hi = max(grid.k_min, k_lo), min(grid.k_max, k_hi)
            if k_lo > k_hi:
                raise ValueError(f"dimension {j} has no point of its grid in its box")
            table.append((step, k_lo, k_hi))
    table = np.array(table, dtype=float).reshape(-1, 3)
    return (cols, *(np.asfortranarray(np.tile(r, (m, 1))) for r in (*table.T, lo, hi)))


@st.composite
def _grid_for(draw, lo, hi):
    """None, or a grid whose k range lies inside, across or beyond the box [lo, hi], now and then with a float step
    too small for the box."""
    if draw(st.booleans()):
        return None
    tiny = not draw(st.integers(0, 15))
    step = draw(st.sampled_from([1e-320, 5e-324])) if tiny else (hi - lo) * draw(st.floats(0.01, 2.0))
    beyond = draw(st.sampled_from([lo - 3 * (hi - lo), hi + 3 * (hi - lo)]))
    centre = draw(st.sampled_from([lo, hi, (lo + hi) / 2, (lo + hi) / 2, beyond])) / step
    k_min = round(centre) - draw(st.integers(0, 20)) if math.isfinite(centre) else draw(st.integers(-99, 99))
    return DiscreteGrid(step, k_min, k_min + draw(st.integers(0, 40)))


_INTERVALS = st.one_of(
    st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)).map(lambda t: (t[0], t[0] + t[1])),  # finite, or one value
    st.floats(-1e3, 1e3).map(lambda b: (-np.inf, b)),
    st.floats(-1e3, 1e3).map(lambda b: (b, np.inf)),
    st.just((-np.inf, np.inf)),
)


class TestOneTable:
    """A problem reads its grids and intervals once, where it is built; _layout only tiles what it read."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5), k=st.integers(1, 4), m=st.integers(1, 6))
    def test_layout_matches_the_per_batch_reading(self, data, dim, k, m):
        lower = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim)))
        space = SearchSpace(lower, lower + data.draw(st.lists(st.floats(1e-3, 100.0), min_size=dim, max_size=dim)))
        grids = tuple(data.draw(_grid_for(lo, hi)) for lo, hi in zip(space.lower.tolist(), space.upper.tolist()))
        g_lower, g_upper = np.array(data.draw(st.lists(_INTERVALS, min_size=k, max_size=k))).T
        build = partial(ConstrainedProblem, "drawn", space, lambda X: X[:, 0], lambda X: X[:, :1].repeat(k, axis=1),
                        g_lower, g_upper, grids)
        try:
            expected = _parent_layout(space, grids, g_lower, g_upper, m)
        except (ValueError, ZeroDivisionError, OverflowError):  # the last two: a float step too small for its box
            with pytest.raises(ValueError, match="^drawn: dimension "):
                build()
            return
        cp = build()
        cols, *tiles = _layout(cp, m)
        if isinstance(expected[0], np.ndarray):
            assert np.array_equal(cols, expected[0]) and cols.dtype == np.intp and not cols.flags.writeable
        else:
            assert cols == expected[0]
        for got, want in zip(tiles, expected[1:], strict=True):
            assert got.shape == want.shape and got.tobytes(order="F") == want.tobytes(order="F")
            assert got.flags.f_contiguous and not got.flags.writeable
        assert cp._table[-1] == bool(np.any((g_lower == -np.inf) & (g_upper == np.inf)))

    @pytest.mark.parametrize(
        "changes,message",
        [({"grids": (DiscreteGrid(Fraction(1, 10**400), 1, 5),) * 2 + (None, None)},
          r"dimension 0 grid step 0\.0 as a float is too small for its box"),
         ({"grids": (DiscreteGrid(1e-320, 1, 10**400),) * 2 + (None, None)},
          r"dimension 0 grid step 1e-320 as a float is too small for its box"),
         ({"grids": (_PV_GRID, DiscreteGrid(0.0625, 100, 300), None, None)},
          r"dimension 1 has no point of its grid in its box \[0\.0625, 6\.1875\]"),
         ({"g_upper": [0, 0, np.nan, 0]}, r"constraint 2 has no real g in its interval \[-inf, nan\]"),
         ({"g_lower": [1, -np.inf, -np.inf, -np.inf]}, r"constraint 0 has no real g in its interval \[1\.0, 0\.0\]"),
         ({"g_upper": [0, -np.inf, 0, 0]}, r"constraint 1 has no real g in its interval \[-inf, -inf\]")],
        ids=["step-zero-as-float", "quotient-past-floats", "no-point-in-box", "nan-bound", "empty", "upper-at-minus-inf"],
    )
    def test_bad_grid_or_interval_raises_at_construction(self, changes, message):
        # the first two used to raise a bare ZeroDivisionError and OverflowError; none may wait for the first batch
        calls, misses = [], _layout.cache_info().misses
        with pytest.raises(ValueError, match=f"^PV: {message}$"):
            replace(PRESSURE_VESSEL, raw_batch=lambda X: calls.append(X), constraint_batch=lambda X: calls.append(X),
                    **changes)
        assert calls == [] and _layout.cache_info().misses == misses


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

    @pytest.mark.parametrize(
        "bounds",
        [{"g_lower": np.zeros(2)}, {"g_upper": np.ones(4)}, {"g_lower": np.zeros((3, 1)), "g_upper": np.ones((3, 1))}],
        ids=["short-lower", "long-upper", "2-D"],
    )
    def test_bounds_must_be_one_vector_each(self, bounds):
        # a two-entry g_lower used to build, and the first violations_many failed on numpy's broadcast error
        with pytest.raises(ValueError, match=r"^HB: g_lower and g_upper must be 1-D arrays of equal length$"):
            replace(HIMMELBLAU, **bounds)

    def test_scalar_bounds_are_one_constraint(self):
        cp = replace(HIMMELBLAU, constraint_batch=lambda X: X[:, :1], g_lower=80, g_upper=90.0)
        assert cp.g_lower.shape == cp.g_upper.shape == (1,)
        X = np.tile(HIMMELBLAU.space.lower, (3, 1))
        X[:, 0] = [78.0, 85.0, 95.0]
        assert cp.violations_many(X).tolist() == [[2.0], [0.0], [5.0]]
        assert [cp.feasible(x) for x in X] == [False, True, False]

    @pytest.mark.parametrize(
        "lower,upper,message",
        [([np.nan, 90, 20], [92, 110, 25], r"0 has no real g in its interval \[nan, 92\.0\]"),
         ([0, 90, 20], [92, np.nan, 25], r"1 has no real g in its interval \[90\.0, nan\]"),
         ([200, 90, 20], [0, 110, 25], r"0 has no real g in its interval \[200\.0, 0\.0\]"),
         ([0, np.inf, 20], [92, np.inf, 25], r"1 has no real g in its interval \[inf, inf\]"),
         ([0, 90, -np.inf], [92, 110, -np.inf], r"2 has no real g in its interval \[-inf, -inf\]")],
        ids=["nan-lower", "nan-upper", "lower-above-upper", "lower-at-plus-inf", "upper-at-minus-inf"],
    )
    def test_interval_must_hold_a_real_g(self, lower, upper, message):
        # a NaN bound was no bound to the penalty but made every point infeasible; an empty interval built without a
        # word, and only the penalty showed that no point met it
        with pytest.raises(ValueError, match=f"^HB: constraint {message}$"):
            replace(HIMMELBLAU, g_lower=lower, g_upper=upper)

    def test_free_and_equality_intervals_build(self):
        # a guard: a constraint bounded on neither side, and one pinned to a single value, each hold a real g
        inf = np.inf
        free = replace(HIMMELBLAU, g_lower=[-inf, 90, 20], g_upper=[inf, 110, 25])
        pinned = replace(HIMMELBLAU, g_lower=[0, 100, 20], g_upper=[92, 100, 25])
        x = HIMMELBLAU.space.lower
        assert free.violations_many([x])[0, 0] == 0.0 and pinned.violations_many([x])[0, 1] > 0.0

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
        # a constraint bounded on neither side is never violated, also at a g of +inf or -inf (which used to warn of
        # inf - inf), and a NaN g still reads NaN
        free = replace(cp, g_lower=np.array([-inf, -inf]), g_upper=np.array([inf, inf]))
        expected = [[0.0, 0.0]] * 2 + [[nan, nan]] + [[0.0, 0.0]] * 3
        assert np.array_equal(free.violations_many(X), expected, equal_nan=True)

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


class TestUserResults:
    """What raw_batch and constraint_batch return meets the rule an objective's result meets, errors naming the
    problem and the callable."""

    @pytest.mark.parametrize("entry", ["violations_many", "constraints", "feasible", "report", "evaluate"])
    def test_complex_constraints_rejected(self, entry):
        # violations_many gave complex violations, constraints a complex vector and feasible a verdict by complex
        # comparison; report stopped only on numpy's ComplexWarning
        cp = replace(HIMMELBLAU, constraint_batch=lambda X: HIMMELBLAU.constraint_batch(X) + 0j)
        x = HIMMELBLAU.space.lower
        message = r"^HB: constraint_batch must return real numbers, got dtype complex128$"
        with pytest.raises(ValueError, match=message):
            cp.violations_many(x[None, :]) if entry == "violations_many" else _SINGLE_POINT[entry](cp, x)

    @pytest.mark.parametrize("m", [2, 4, 50])
    def test_one_raw_value_for_many_rows_rejected(self, m):
        # every row of the batch used to get the first row's objective
        cp = replace(PRESSURE_VESSEL, raw_batch=lambda X: PRESSURE_VESSEL.raw_batch(X)[:1])
        X = PRESSURE_VESSEL.space.lower + RandomStream(m).uniform((m, 4)) * PRESSURE_VESSEL.space.widths
        message = rf"^PV: raw_batch must return shape \({m},\) for {m} points, got shape \(1,\)$"
        with pytest.raises(ValueError, match=message):
            as_problem(cp).evaluate_many(X)

    @pytest.mark.parametrize("entry", ["violations_many", "evaluate_many"])
    def test_one_constraint_column_for_three_rejected(self, entry):
        # the one column used to be broadcast over all three constraints
        cp = replace(HIMMELBLAU, constraint_batch=lambda X: HIMMELBLAU.constraint_batch(X)[:, :1])
        X = np.tile(HIMMELBLAU.space.lower, (4, 1))
        call = cp.violations_many if entry == "violations_many" else as_problem(cp).evaluate_many
        message = r"^HB: constraint_batch must return shape \(4, 3\) for 4 points, got shape \(4, 1\)$"
        with pytest.raises(ValueError, match=message):
            call(X)

    def test_nan_results_keep_their_treatment(self):
        # a guard: a NaN raw value reads +inf through the wrapper and NaN from raw, and a NaN g stays NaN
        X = np.tile(HIMMELBLAU.space.lower, (3, 1))
        nan_raw = replace(HIMMELBLAU, raw_batch=lambda X: np.full(len(X), np.nan))
        assert as_problem(nan_raw).evaluate_many(X).tolist() == [np.inf] * 3 and math.isnan(nan_raw.raw(X[0]))
        nan_g = replace(HIMMELBLAU, constraint_batch=lambda X: np.full((len(X), 3), np.nan))
        assert np.isnan(nan_g.violations_many(X)).all() and not nan_g.feasible(X[0])


# PV and HB, and a problem with one constraint bounded above only and one below only; every g is a free value
_OPEN = ConstrainedProblem(
    id="open",
    space=SearchSpace.box(2, -1.0, 1.0),
    raw_batch=lambda X: X.sum(axis=1),
    constraint_batch=lambda X: X,
    g_lower=np.array([-np.inf, 0.0]),
    g_upper=np.array([0.0, np.inf]),
    grids=(None, None),
)
_READING_PROBLEMS = {"PV": PRESSURE_VESSEL, "HB": HIMMELBLAU, "open": _OPEN}


@st.composite
def _g_row(draw, cp, tol):
    """One g per constraint: any float, an infinity, NaN, or within an ulp of a bound widened by tol."""
    row = []
    for lo, hi in zip(cp.g_lower.tolist(), cp.g_upper.tolist()):
        edges = [b for b in (lo - tol, hi + tol) if math.isfinite(b)]
        near = st.sampled_from(edges).flatmap(
            lambda b: st.sampled_from([np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]))
        row.append(draw(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-np.inf, np.inf, np.nan]), near)))
    return row


class TestOneReading:
    """feasible, report, violations_many and the penalty read a constraint interval one way."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), pid=st.sampled_from(sorted(_READING_PROBLEMS)), tol=st.sampled_from([0.0, 1e-6, 1e-3]))
    def test_feasible_is_every_violation_within_tol(self, data, pid, tol):
        cp = _READING_PROBLEMS[pid]
        g = np.array([data.draw(_g_row(cp, tol)) for _ in range(3)])
        fixed = replace(cp, constraint_batch=lambda X: g[: len(X)])
        x = cp.space.lower
        viol = fixed.violations_many(np.tile(x, (3, 1)))
        assert fixed.feasible(x, tol) == bool(np.all(viol[0] <= tol))
        assert fixed.report(x, tol)["feasible"] == bool(np.all(viol[0] <= tol))

    @settings(max_examples=200, deadline=None)
    @given(
        pid=st.sampled_from(["PV", "HB"]),
        u=st.lists(st.floats(-0.2, 1.2), min_size=5, max_size=5),
        tol=st.sampled_from([0.0, 1e-6, 1e-3]),
    )
    def test_report_is_snap_raw_and_constraints(self, pid, u, tol):
        cp = _READING_PROBLEMS[pid]
        x = cp.space.lower + np.array(u[: cp.space.dim]) * cp.space.widths
        rep, xs = cp.report(x, tol), cp.snap(x)
        assert np.array(rep["x"]).tobytes() == xs.tobytes()
        assert np.float64(rep["raw_objective"]).tobytes() == np.float64(cp.raw(xs)).tobytes()
        assert np.array(rep["g"]).tobytes() == cp.constraints(xs).tobytes()
        assert rep["feasible"] == cp.feasible(xs, tol)

    @pytest.mark.parametrize("cp", [PRESSURE_VESSEL, HIMMELBLAU], ids=["PV", "HB"])
    def test_report_calls_each_callable_once(self, cp):
        # report used to call constraint_batch twice, once for g and once more inside feasible
        calls = []
        counted = replace(cp, raw_batch=lambda X: calls.append("raw") or cp.raw_batch(X),
                          constraint_batch=lambda X: calls.append("g") or cp.constraint_batch(X))
        counted.report(cp.space.lower)
        assert sorted(calls) == ["g", "raw"]

    @pytest.mark.parametrize("entry", ["feasible", "report"])
    @pytest.mark.parametrize("tol", [-1e-9, -1.0, np.nan], ids=["tiny-negative", "negative", "nan"])
    def test_tol_must_be_nonnegative(self, entry, tol):
        # a negative tol silently demanded a margin, and a NaN one made every point infeasible
        message = f"^PV: tol must be a nonnegative number, got {re.escape(repr(tol))}$"
        with pytest.raises(ValueError, match=message):
            getattr(PRESSURE_VESSEL, entry)([1.0, 1.0, 50.0, 100.0], tol)
