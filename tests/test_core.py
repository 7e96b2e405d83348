import json
import re
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beetleswarm import (
    BsoConfig,
    BsoEngine,
    PenaltyConfig,
    Problem,
    PsoConfig,
    RandomStream,
    SearchSpace,
    clamp_to_bounds,
    get_problem,
    run_bso,
    uniform_in_space,
)
from beetleswarm import benchmarks, catalog, constrained, core
from beetleswarm.bas import BasConfig, run_bas
from beetleswarm.core import clip_in_place, constants, frozen, uniform_population
from beetleswarm.harness import ALGORITHMS, run_trial_records

from .conftest import FixedStream, sphere_problem


class TestSearchSpace:
    def test_box_constructor(self):
        space = SearchSpace.box(3, -2.0, 5.0)
        assert space.dim == 3
        assert np.array_equal(space.lower, [-2.0, -2.0, -2.0])
        assert np.array_equal(space.upper, [5.0, 5.0, 5.0])
        assert np.array_equal(space.widths, [7.0, 7.0, 7.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchSpace(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_equal_bounds(self):
        with pytest.raises(ValueError):
            SearchSpace.box(2, 1.0, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SearchSpace(np.array([]), np.array([]))

    def test_bounds_are_read_only(self):
        space = SearchSpace.box(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            space.lower[0] = 5.0

    def test_callers_bounds_are_copied_and_stay_writable(self):
        # the box used to freeze the caller's own float64 arrays in place
        lower, upper = np.zeros(2), np.ones(2)
        space = SearchSpace(lower, upper)
        lower[0] = -5.0
        assert lower.flags.writeable and upper.flags.writeable
        assert np.array_equal(space.lower, [0.0, 0.0]) and not space.lower.flags.writeable

    def test_equals_only_itself_without_raising(self):
        # == compared the bound arrays and raised "truth value of an array ... is ambiguous"
        space = SearchSpace.box(2, 0.0, 1.0)
        assert (space == SearchSpace.box(2, 0.0, 1.0)) is False
        assert space == space and hash(space) == hash(space)

    def test_rejects_bounds_of_unequal_length(self):
        with pytest.raises(ValueError, match="^lower and upper must be 1-D arrays of equal length$"):
            SearchSpace(np.zeros(2), np.ones(3))

    @pytest.mark.parametrize(
        "lower,upper,dim",
        [
            ([-np.inf, 0.0], [1.0, 1.0], 0),
            ([0.0, 0.0], [1.0, np.inf], 1),
            ([-np.inf], [np.inf], 0),
            ([0.0, -1e308], [1.0, 1e308], 1),  # finite bounds, but the width overflows to inf
        ],
    )
    def test_rejects_non_finite_bounds_and_widths(self, lower, upper, dim):
        # a box with lower = -inf used to run BSO to best_f = inf at a NaN best_x, with only warnings
        with pytest.raises(ValueError, match=f"^dimension {dim}: bounds .* must be finite"):
            SearchSpace(np.array(lower), np.array(upper))


class TestClampToBounds:
    def test_projects_outside_point(self):
        space = SearchSpace.box(2, -100.0, 100.0)
        assert np.array_equal(clamp_to_bounds([150.0, 0.0], space), [100.0, 0.0])

    def test_identity_on_interior(self):
        space = SearchSpace.box(2, -10.0, 10.0)
        assert np.array_equal(clamp_to_bounds([5.0, 5.0], space), [5.0, 5.0])

    def test_lower_edge_projection(self):
        space = SearchSpace.box(1, -5.0, 5.0)
        assert np.array_equal(clamp_to_bounds([-7.3], space), [-5.0])

    def test_dimension_mismatch(self):
        space = SearchSpace.box(3, -1.0, 1.0)
        with pytest.raises(ValueError):
            clamp_to_bounds([0.0, 0.0], space)

    def test_batch_rows(self):
        space = SearchSpace.box(2, -1.0, 1.0)
        out = clamp_to_bounds(np.array([[2.0, 0.5], [-3.0, 0.0]]), space)
        assert np.array_equal(out, [[1.0, 0.5], [-1.0, 0.0]])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
    def test_idempotent(self, values):
        space = SearchSpace(np.array([-3.0, 0.0, -50.0]), np.array([4.0, 2.0, 1.0]))
        once = clamp_to_bounds(values, space)
        assert np.array_equal(clamp_to_bounds(once, space), once)
        assert np.all(once >= space.lower) and np.all(once <= space.upper)


EDGE_VALUES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0])


class TestClipInPlace:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 7, 50, 1500])
    def test_matches_ndarray_clip_bit_for_bit(self, rows, order):
        # every edge value against every ordered pair of edge-value bounds of x's shape:
        # signed zeros, NaN, infinities and subnormals keep clip's exact bits
        X = np.asarray(np.tile(EDGE_VALUES, (rows, 1)), order=order)
        for lo_value, hi_value in product(EDGE_VALUES, EDGE_VALUES):
            if not lo_value <= hi_value:
                continue
            lo, hi = np.full_like(X, lo_value), np.full_like(X, hi_value)
            expected = X.clip(lo, hi)
            out = X.copy(order="K")
            assert clip_in_place(out, lo, hi) is out
            assert out.tobytes() == expected.tobytes(), (lo_value, hi_value)


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(1234)
        b = RandomStream(1234)
        assert np.array_equal(a.uniform(100), b.uniform(100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomStream(1).uniform(50), RandomStream(2).uniform(50))

    def test_unit_interval(self):
        draws = RandomStream(7).uniform(10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)

    def test_batched_matches_sequential(self):
        batched = RandomStream(99).uniform(64)
        seq_rng = RandomStream(99)
        sequential = np.array([seq_rng.uniform() for _ in range(64)])
        assert np.array_equal(batched, sequential)

    def test_scalar_draw(self):
        assert isinstance(RandomStream(0).uniform(), float)

    @pytest.mark.parametrize(
        "seed,message",
        [(2.7, "an integer"), (True, "an integer"), ("7", "an integer"), (np.float64(3.0), "an integer"),
         (-1, "nonnegative")],
    )
    def test_seed_follows_the_int_field_rule(self, seed, message):
        # int(seed) used to run 2.7 as seed 2, True as 1 and "7" as 7
        with pytest.raises(ValueError, match=f"^seed must be {message}, got {re.escape(repr(seed))}$"):
            RandomStream(seed)
        assert type(RandomStream(np.int64(3)).seed) is int


class TestUniformInSpace:
    def test_midpoint_under_affine_map(self):
        space = SearchSpace.box(1, -1.0, 1.0)
        assert uniform_in_space(FixedStream(0.5), space) == np.array([0.0])

    def test_lower_endpoint(self):
        space = SearchSpace.box(1, -100.0, 100.0)
        assert uniform_in_space(FixedStream(0.0), space) == np.array([-100.0])

    def test_consumes_exactly_dim_draws(self):
        stream = FixedStream(0.25, 0.75)
        uniform_in_space(stream, SearchSpace.box(2, 0.0, 1.0))
        assert stream.cursor == 2

    def test_always_within_bounds(self):
        space = SearchSpace(np.array([-3.0, 10.0]), np.array([-1.0, 11.0]))
        rng = RandomStream(5)
        for _ in range(200):
            x = uniform_in_space(rng, space)
            assert np.all(x >= space.lower) and np.all(x <= space.upper)

    def test_sample_mean_near_center(self):
        # law-of-large-numbers check with a fixed seed
        space = SearchSpace.box(2, -5.0, 5.0)
        rng = RandomStream(42)
        samples = uniform_population(rng, space, 1000)
        assert np.all(np.abs(samples.mean(axis=0)) < 0.5)

    @pytest.mark.parametrize("n, message", [
        (2.7, "n must be an integer, got 2.7"),
        (True, "n must be an integer, got True"),
        (-1, "n must be nonnegative, got -1"),
    ])
    def test_population_count_is_checked(self, n, message):
        # int(n) would draw 2 rows for 2.7 and 1 for True
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            uniform_population(RandomStream(0), SearchSpace.box(2, 0.0, 1.0), n)


class TestProblem:
    def test_catalog_problem_hashes_by_identity(self):
        # hash() raised TypeError on the unhashable bound arrays; the catalog shares one Problem per id
        problem = get_problem("F1")
        assert {problem: 1}[get_problem("f1")] == 1
        assert problem == get_problem("F1") and problem != get_problem("F2")
        assert (problem == Problem("F1", problem.space, problem.batch, problem.known_fmin)) is False

    def test_evaluate_checks_dimension(self):
        p = sphere_problem(3)
        with pytest.raises(ValueError):
            p.evaluate([1.0, 2.0])
        with pytest.raises(ValueError):
            p.evaluate_many(np.zeros((4, 2)))

    def test_scalar_matches_batch(self):
        p = sphere_problem(4)
        X = RandomStream(3).uniform((6, 4)) * 10
        batch = p.evaluate_many(X)
        singles = np.array([p.evaluate(row) for row in X])
        assert np.array_equal(batch, singles)

    def test_stochastic_requires_stream(self):
        p = Problem(
            id="noisy",
            space=SearchSpace.box(1, -1.0, 1.0),
            batch=lambda X, rng: X[:, 0] + rng.uniform(X.shape[0]),
            stochastic=True,
        )
        with pytest.raises(ValueError):
            p.evaluate([0.0])
        assert 0.0 <= p.evaluate([0.0], RandomStream(0)) < 1.0

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    def test_wrong_output_shape_rejected(self, algo):
        # a scalar or an (m, 1) column fails at the evaluator, naming the
        # problem and both shapes, not later inside the runner's indexing
        cfg_type, runner = ALGORITHMS[algo]
        cfg = cfg_type(max_iters=3) if algo == "bas" else cfg_type(n=4, max_iters=3)
        for batch, got in (
            (lambda X, rng=None: float((X * X).sum()), r"\(\)"),
            (lambda X, rng=None: (X * X).sum(axis=1, keepdims=True), r"\(\d+, 1\)"),
        ):
            p = Problem(id="misshapen", space=SearchSpace.box(2, -1.0, 1.0), batch=batch)
            with pytest.raises(ValueError, match=rf"misshapen: objective must return shape \(\d+,\) .*got shape {got}"):
                runner(p, cfg, seed=0)

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    def test_complex_output_rejected(self, algo):
        # a complex value used to be cast to its real part with only a warning
        cfg_type, runner = ALGORITHMS[algo]
        cfg = cfg_type(max_iters=3) if algo == "bas" else cfg_type(n=4, max_iters=3)
        p = Problem(id="complexed", space=SearchSpace.box(2, -1.0, 1.0), batch=lambda X, rng=None: X[:, 0] + 1j)
        with pytest.raises(ValueError, match="complexed: objective must return real numbers, got dtype complex128"):
            runner(p, cfg, seed=0)

    def test_nan_reads_as_inf_and_other_values_keep_their_bits(self):
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.5, -1e308])
        p = Problem(id="table", space=SearchSpace.box(1, -1.0, 1.0), batch=lambda X, rng=None: values)
        F = p.evaluate_many(np.zeros((values.size, 1)))
        assert F.dtype == np.float64
        assert np.all(F[:2] == np.inf)
        assert F[2:].tobytes() == values[2:].tobytes()

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    def test_objective_that_writes_into_its_batch_raises(self, algo):
        # a sphere that zeroed its input used to pull the swarm onto [0, 0]
        # and report a best_f near 0 for a point whose value is 0
        def zeroing_sphere(X, rng=None):
            F = (X * X).sum(axis=1)
            X[:] = 0.0
            return F

        cfg_type, runner = ALGORITHMS[algo]
        cfg = cfg_type(max_iters=30) if algo == "bas" else cfg_type(n=10, max_iters=30)
        p = Problem(id="zeroing", space=SearchSpace.box(2, -10.0, 10.0), batch=zeroing_sphere)
        with pytest.raises(ValueError, match="read-only"):
            runner(p, cfg, seed=0)

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    @pytest.mark.parametrize("pid", ["F16", "PV"])
    def test_every_batch_is_fresh_and_never_changed(self, algo, pid):
        # the optimizers pass a fresh array on every call and never modify it afterwards: BSO writes its moved swarm
        # and the next probes into one batch, and BAS adds its point to offsets drawn a block ahead
        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        base, kept = get_problem(pid), []
        p = replace(base, batch=lambda X, rng=None: kept.append((X, X.copy())) or base.batch(X, rng))
        cfg_type, runner = ALGORITHMS[algo]
        runner(p, cfg_type(max_iters=300) if algo == "bas" else cfg_type(n=6, max_iters=40), seed=3)
        assert len({id(owner(X)) for X, _ in kept}) == len(kept)  # no two calls share memory
        assert all(X.tobytes() == copy.tobytes() for X, copy in kept)

    def test_callers_batch_stays_writable(self):
        X = np.ones((3, 2))
        assert sphere_problem(2).evaluate_many(X).tolist() == [2.0, 2.0, 2.0]
        X[0, 0] = 5.0
        assert X.flags.writeable

    @pytest.mark.parametrize(
        "out",
        [
            np.array([0.1, np.nan, -0.0], dtype=np.float32),
            np.array([0.1, np.nan, -0.0], dtype=">f8"),
            [0.1, np.nan, -0.0],
        ],
        ids=["float32", "big-endian", "list"],
    )
    def test_other_real_outputs_are_cast_to_native_float64(self, out):
        # only a native float64 ndarray skips the cast; these take it, as every output used to
        p = Problem(id="cast", space=SearchSpace.box(1, -1.0, 1.0), batch=lambda X, rng=None: out)
        F = p.evaluate_many(np.zeros((3, 1)))
        assert F.dtype == np.float64 and F.dtype.isnative
        assert F.tolist() == [float(out[0]), np.inf, 0.0] and np.signbit(F[2])

    def test_bool_output_rejected(self):
        p = Problem(id="flags", space=SearchSpace.box(1, -1.0, 1.0), batch=lambda X, rng=None: X[:, 0] > 0)
        with pytest.raises(ValueError, match="flags: objective must return real numbers, got dtype bool"):
            p.evaluate_many(np.zeros((3, 1)))

    def test_integer_output_becomes_float(self):
        p = Problem(id="ints", space=SearchSpace.box(1, -1.0, 1.0), batch=lambda X, rng=None: np.arange(X.shape[0]))
        F = p.evaluate_many(np.zeros((3, 1)))
        assert F.dtype == np.float64 and F.tolist() == [0.0, 1.0, 2.0]


def _holed_sphere(X, rng=None, cut=0.0, bad=np.nan):
    """Sphere that reads ``bad`` (NaN or +inf) wherever x0 < cut."""
    return np.where(X[:, 0] < cut, bad, (X * X).sum(axis=1))


def _holed_problem(cut: float, bad: float) -> Problem:
    return Problem(id="holed", space=SearchSpace.box(2, -10.0, 10.0), batch=partial(_holed_sphere, cut=cut, bad=bad))


def _minus_inf_sphere(X, rng=None):
    """Sphere over [-1, 1]^2 that reads -inf wherever x0 > 0."""
    return np.where(X[:, 0] > 0.0, -np.inf, (X * X).sum(axis=1))


MINUS_INF = Problem(id="minus-inf", space=SearchSpace.box(2, -1.0, 1.0), batch=_minus_inf_sphere)


class TestConfigFields:
    """Every config dataclass rejects non-finite numbers and negative integers when built."""

    @pytest.mark.parametrize(
        "cfg_type,key,value",
        [
            (BsoConfig, "a1", np.nan),
            (BsoConfig, "delta0", np.inf),
            (BsoConfig, "omega_max", np.inf),
            (BsoConfig, "v_frac", np.inf),
            (BsoConfig, "a2", -np.inf),
            (PsoConfig, "omega_min", -np.inf),
            (BasConfig, "c2_ratio", np.inf),
            (BasConfig, "delta0", np.nan),
            (PenaltyConfig, "weight", np.nan),
            (PenaltyConfig, "weight", np.inf),
        ],
    )
    def test_non_finite_value_rejected(self, cfg_type, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
            cfg_type(**{key: value})

    @pytest.mark.parametrize("cfg_type", [BsoConfig, PsoConfig, BasConfig, PenaltyConfig])
    @pytest.mark.parametrize("value", [2.5, True, "1", None, np.nan])
    def test_constructor_and_from_dict_share_the_type_rule(self, cfg_type, value):
        # an int field takes an integer, a float field any real, a float | None
        # field also None, and no field a bool; BsoConfig(n=2.5) used to build
        # and then fail inside np.tile, and BsoConfig(a1=True) ran as 1.0
        for f in fields(cfg_type):
            outcomes = []
            for build in (cfg_type, getattr(cfg_type, "from_dict", None)):
                if build is None:  # PenaltyConfig has no dict round trip
                    continue
                try:
                    cfg = build(**{f.name: value}) if build is cfg_type else build({f.name: value})
                except ValueError as exc:
                    outcomes.append(str(exc))
                else:
                    assert getattr(cfg, f.name) is value
                    outcomes.append("accepted")
            assert len(set(outcomes)) == 1, (f.name, outcomes)
            if value is None and "None" in f.type:
                assert outcomes[0] == "accepted"
            elif isinstance(value, float) and f.type != "int":
                # a real passes the type rule; NaN then fails the finite check, 2.5 at most a range check
                if np.isnan(value):
                    assert outcomes[0] == f"{f.name} must be finite, got nan"
                else:
                    assert "config key" not in outcomes[0]
            else:
                assert outcomes[0] == f"config key {f.name!r} must be {f.type}, got {value!r}"

    @pytest.mark.parametrize(
        "key,value,plain",
        [("n", np.int64(5), 5), ("lam", np.float32(0.35), float(np.float32(0.35))), ("a1", Fraction(2), 2.0),
         ("a2", Fraction(7, 2), 3.5), ("delta0", np.float64(6.0), 6.0), ("seed", np.uint8(3), 3)],
        ids=["int64", "float32", "fraction", "fraction-7/2", "float64", "uint8"],
    )
    def test_other_numbers_stored_as_plain_int_or_float(self, key, value, plain):
        # each used to be kept as given: numpy numbers broke json.dumps of the record, and a
        # Fraction passed the check and then failed the run with a UFuncTypeError
        cfg = BsoConfig(**{"n": 4, "max_iters": 3, key: value})
        assert getattr(cfg, key) == plain and type(getattr(cfg, key)) is type(plain)
        rec = run_bso(sphere_problem(2), cfg)
        assert json.loads(json.dumps(rec.to_dict()))["config"][key] == plain

    def test_int_for_a_float_field_kept_as_written(self):
        # a guard: a config read from JSON keeps its bytes, so an integer given for a float field stays an int
        cfg = BsoConfig.from_dict(json.loads('{"a1": 2, "delta0": 6.0}'))
        assert type(cfg.a1) is int and type(cfg.delta0) is float
        assert json.dumps(cfg.to_dict()).startswith('{"n": 50, "max_iters": 1000, "lam": 0.35, "a1": 2, ')
        assert BsoConfig(a2=10**300).a2 == 10**300 and type(BsoConfig(a2=10**300).a2) is int

    def test_int_for_a_float_field_runs_as_its_float(self):
        # the engine's coefficients are float64 either way, so a1=2 and a1=2.0 give the same bits
        configs = (BsoConfig(n=5, max_iters=20, a1=2, a2=3), BsoConfig(n=5, max_iters=20, a1=2.0, a2=3.0))
        runs = [run_bso(sphere_problem(3), cfg) for cfg in configs]
        assert runs[0].curve.tobytes() == runs[1].curve.tobytes()
        assert runs[0].best_x.tobytes() == runs[1].best_x.tobytes()

    @pytest.mark.parametrize(
        "cfg_type,key", [(BsoConfig, "a1"), (PsoConfig, "v_frac"), (BasConfig, "delta0"), (PenaltyConfig, "weight")]
    )
    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative", "fraction"])
    def test_number_too_large_for_a_float_rejected(self, cfg_type, key, value):
        # BsoConfig(a1=10**400) used to build, and run_bso then failed with a UFuncTypeError
        with pytest.raises(ValueError, match=f"^{key} must be finite, got a number too large for a float$"):
            cfg_type(**{key: value})

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda v: BsoConfig(n=v), "n must be nonnegative, got a 16610-bit int"),
            (lambda v: BsoConfig(seed=v), "seed must be nonnegative, got a 16610-bit int"),
            (lambda v: BasConfig(max_iters=v), "max_iters must be nonnegative, got a 16610-bit int"),
            (lambda v: RandomStream(v), "seed must be nonnegative, got a 16610-bit int"),
            (lambda v: BsoConfig(n=Fraction(v, 3)), "config key 'n' must be int, got a 16609-bit Fraction"),
        ],
        ids=["n", "seed", "max_iters", "stream-seed", "fraction"],
    )
    def test_huge_integer_named_by_its_bit_length(self, build, message):
        # repr refuses an int past 4,300 digits, so each used to raise int()'s digit-limit error, not its own
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(-(10**5000))

    @pytest.mark.parametrize("cfg_type", [BsoConfig, PsoConfig, BasConfig])
    def test_negative_seed_rejected(self, cfg_type):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            cfg_type(seed=-1)
        assert cfg_type(seed=0).seed == 0


def _arrays(value, where):
    """(where, array) for every ndarray reachable from value through tuples, lists, dicts, dataclass fields and
    functools.partial arguments."""
    if isinstance(value, np.ndarray):
        yield where, value
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _arrays(v, f"{where}[{i}]")
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _arrays(v, f"{where}[{k!r}]")
    elif is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            yield from _arrays(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, partial):
        yield from _arrays(value.args, f"{where}.args")


class TestSharedConstants:
    """Shared constant arrays are read-only where they are made, and coefficients are 0-d float64 arrays."""

    def test_frozen_makes_read_only_and_returns_its_argument(self):
        a = np.arange(3.0)
        assert frozen(a) is a and not a.flags.writeable

    def test_constants_are_read_only_float64_scalars_with_the_floats_bits(self):
        values = (2, 0.1, -np.pi, np.inf, Fraction(1, 3))
        out = constants(*values)
        assert isinstance(out, tuple) and len(out) == len(values)
        for c, v in zip(out, values):
            assert (c.dtype, c.shape, c.flags.writeable) == (np.float64, (), False)
            assert c.tobytes() == np.float64(float(v)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            out[1][()] = 1.0

    def test_every_module_level_array_is_read_only(self):
        # benchmarks froze its tables through a list of their names; constrained froze none of its arrays
        found = [
            (where, a)
            for module in (core, benchmarks, constrained)
            for key, value in vars(module).items()
            for where, a in _arrays(value, f"{module.__name__}.{key}")
        ]
        assert len(found) > 30
        assert [where for where, a in found if a.flags.writeable] == []


class TestRunPath:
    """run_bso, run_pso and run_bas resolve the config and the seed through one path, with one rule."""

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    def test_seed_follows_the_int_field_rule(self, algo):
        # each runner used to truncate or coerce its seed: 2.7 ran as seed 2, True as 1 and "7" as 7
        cfg_type, runner = ALGORITHMS[algo]
        cfg, p = cfg_type(max_iters=2), sphere_problem(2)
        rec = runner(p, cfg, seed=np.int64(3))
        assert type(rec.seed) is int and type(rec.config["seed"]) is int and rec.seed == rec.config["seed"] == 3
        for seed, message in ((2.7, "an integer"), (True, "an integer"), ("7", "an integer"),
                              (np.float64(3.0), "an integer"), (-1, "nonnegative")):
            with pytest.raises(ValueError, match=f"^seed must be {message}, got {re.escape(repr(seed))}$"):
                runner(p, cfg, seed=seed)

    @pytest.mark.parametrize(
        "algo,foreign", [(a, f) for a in ("bso", "pso", "bas") for f in ("bso", "pso", "bas") if a != f]
    )
    def test_config_of_another_optimizer_rejected(self, algo, foreign):
        # run_bas used to run a BsoConfig with BSO's delta0 and eta and record it as bas;
        # the other pairings failed with a bare AttributeError
        cfg_type, runner = ALGORITHMS[algo]
        other = ALGORITHMS[foreign][0]
        with pytest.raises(ValueError, match=f"^{algo} needs a {cfg_type.__name__}, got a {other.__name__}$"):
            runner(sphere_problem(2), other(max_iters=2), seed=0)

    def test_a_record_equals_only_itself(self):
        # the generated __eq__ compared the array fields and raised on the truth value of an array
        a, b = (run_bso(get_problem("F16"), BsoConfig(n=4, max_iters=2, seed=0)) for _ in range(2))
        assert np.array_equal(a.curve, b.curve) and np.array_equal(a.best_x, b.best_x)
        assert a == a and a != b and not (a == b)
        assert {a: "a", b: "b"}[a] == "a" and hash(a) == hash(a)


def _counted(problem: Problem, calls: list) -> Problem:
    return replace(problem, batch=lambda X, rng=None: calls.append(X.shape) or problem.batch(X, rng))


def _tanh_sum(X, rng=None):
    return np.tanh(X).sum(axis=1)  # finite at every point, +/-inf included, so only a config can overflow a run


class TestBoxCheck:
    """A config whose bounds overflow on the problem's box is rejected by the run path before the first trial."""

    @pytest.mark.parametrize(
        "algo,tunables,bound",
        [
            ("bso", {"v_frac": 1e306}, "2 * v_frac * w is inf"),  # v_hi overflows
            ("pso", {"v_frac": 1e306}, "2 * v_frac * w is inf"),
            ("bso", {"v_frac": 5e305}, "2 * v_frac * w is inf"),  # v_hi is 1e308, its span overflows
            ("pso", {"v_frac": 5e305}, "2 * v_frac * w is inf"),
            ("bso", {"a1": 1e308, "a2": 1e308}, "max(|omega_max|, |omega_min|) * v_frac * w + (a1 + a2) * w is inf"),
            ("pso", {"a1": 1e308, "a2": 1e308}, "max(|omega_max|, |omega_min|) * v_frac * w + (a1 + a2) * w is inf"),
            ("bso", {"c2_ratio": 1e-308}, "delta0 / c2_ratio * v_frac * w is inf"),
            ("bso", {"v_frac": 5e297, "delta0": 1e10, "c2_ratio": 1e10},
             "(lam + (1 - lam) * delta0) * v_frac * w is inf"),
        ],
        ids=["bso-v_frac-1e306", "pso-v_frac-1e306", "bso-v_frac-5e305", "pso-v_frac-5e305", "bso-a1-a2", "pso-a1-a2",
             "bso-c2_ratio", "bso-blended-move"],
    )
    def test_overflowing_bound_rejected_before_the_first_trial(self, algo, tunables, bound):
        # these ran on F1 at seed 0: v_frac 1e306 and 5e305 to a flat curve at 59,604.4 (every velocity inf or
        # NaN), a1 = a2 = 1e308 into the debug check at iteration 2, c2_ratio 1e-308 to 81.0 on a noise sign
        cfg_type, runner = ALGORITHMS[algo]
        calls = []
        message = f"^F1: {re.escape(bound)}, not finite \\(w = 200\\.0, the widest box side\\)$"
        with pytest.raises(ValueError, match=message):
            runner(_counted(get_problem("F1"), calls), cfg_type(max_iters=50, **tunables), seed=0)
        assert calls == []

    def test_bas_first_spacing_must_be_finite(self):
        # BasConfig(delta0=1e308, c2_ratio=0.5) used to build, and on F16 it stayed at its start point (90.314
        # for all 200 iterations at seed 0); a derived delta0 of 3.0 at c2_ratio 1e-308 ran the same way
        with pytest.raises(ValueError, match=r"^delta0 and delta0 / c2_ratio must be finite, got 1e\+308 / 0\.5$"):
            BasConfig(delta0=1e308, c2_ratio=0.5)
        calls = []
        message = r"^derived delta0 3\.0 \(0\.3 x the widest side, 10\.0\) / c2_ratio 1e-308 overflows on F16$"
        with pytest.raises(ValueError, match=message):
            run_bas(_counted(get_problem("F16"), calls), BasConfig(c2_ratio=1e-308))
        assert calls == []

    @pytest.mark.filterwarnings("ignore:antenna spacing underflowed")
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_accepted_config_keeps_the_run_finite(self, data):
        # fields drawn from their valid ranges, near 0 and near 1e308 included, on boxes 1e-300 to 1e300 wide:
        # each config is rejected before the objective is called, or it runs with every debug check passing
        algo = data.draw(st.sampled_from(["bso", "pso", "bas"]), label="algo")
        cfg_type, runner = ALGORITHMS[algo]
        positive = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-3, 10.0), st.floats(1e300, 1.7976931348623157e308))
        nonnegative = st.one_of(st.just(0.0), positive)
        ranges = {"lam": st.floats(0.0, 1.0), "eta": st.floats(5e-324, 1.0), "a1": nonnegative, "a2": nonnegative,
                  "delta0": nonnegative, "c2_ratio": positive, "v_frac": positive,
                  "omega_max": positive.flatmap(lambda v: st.sampled_from([v, -v])),
                  "omega_min": positive.flatmap(lambda v: st.sampled_from([v, -v]))}
        tunables = {f.name: data.draw(ranges[f.name], label=f.name) for f in fields(cfg_type) if f.name in ranges}
        if algo != "bas":  # omega_min must not exceed omega_max
            tunables["omega_min"], tunables["omega_max"] = sorted((tunables["omega_min"], tunables["omega_max"]))
        width = 10.0 ** data.draw(st.integers(-300, 300), label="log10 width")
        calls = []
        p = _counted(Problem("tanh", SearchSpace.box(2, -width / 2, width / 2), _tanh_sum), calls)
        sizes = {} if algo == "bas" else {"n": 3}
        try:
            cfg = cfg_type(max_iters=4, **sizes, **tunables)
            with np.errstate(over="ignore"):  # probes are sensors: one may overflow past the box, the swarm may not
                rec = runner(p, cfg, seed=0) if algo == "bas" else runner(p, cfg, seed=0, debug_checks=True)
        except ValueError:
            assert calls == []
            return
        assert np.all(np.isfinite(rec.best_x)) and np.all(np.abs(rec.best_x) <= width / 2)
        assert np.all(np.diff(rec.curve) <= 0)


class TestNonFiniteObjective:
    """NaN and +inf regions never disable an agent or become a NaN best."""

    @settings(max_examples=20, deadline=None)
    @given(
        cut=st.floats(-10.0, 10.0),
        bad=st.sampled_from([np.nan, np.inf]),
        seed=st.integers(0, 2**16),
        algo=st.sampled_from(["bso", "pso"]),
    )
    def test_swarm_best_is_the_least_value_visited(self, cut, bad, seed, algo):
        # the box check in debug_checks fails on any NaN position
        cfg = BsoConfig(n=6, max_iters=25) if algo == "bso" else PsoConfig(n=6, max_iters=25).to_bso()
        p = _holed_problem(cut, bad)
        engine = BsoEngine(p, cfg, seed=seed, debug_checks=True)
        least = p.evaluate_many(engine.state.X).min()
        for _ in range(cfg.max_iters):
            engine.step()
            assert not np.isnan(engine.state.V).any()
            least = min(least, p.evaluate_many(engine.state.X).min())
        assert not np.isnan(engine.curve).any()
        assert engine.state.Gf == least  # finite once any visited position was

    @settings(max_examples=20, deadline=None)
    @given(cut=st.floats(-10.0, 10.0), bad=st.sampled_from([np.nan, np.inf]), seed=st.integers(0, 2**16))
    def test_bas_best_is_the_least_value_evaluated(self, cut, bad, seed):
        seen = []

        def recorded(X, rng=None):
            assert not np.isnan(X).any()  # no probe or move lands on NaN
            F = _holed_sphere(X, cut=cut, bad=bad)
            seen.extend(F)
            return F

        p = Problem(id="holed", space=SearchSpace.box(2, -10.0, 10.0), batch=recorded)
        rec = run_bas(p, BasConfig(max_iters=30), seed=seed)
        assert not np.isnan(rec.curve).any() and not np.isnan(rec.best_x).any()
        assert rec.best_f == np.fmin(seen, np.inf).min()  # every probe and move feeds the best

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pooled_records_match_serial(self, algo, bad, monkeypatch, two_cpus):
        cfg_type = ALGORITHMS[algo][0]
        cfg = cfg_type(max_iters=30) if algo == "bas" else cfg_type(n=8, max_iters=30)
        p = _holed_problem(0.0, bad)
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BSO_THREADS", threads)
            runs[threads] = run_trial_records(algo, p, cfg, n_trials=4, base_seed=0)
        for a, b in zip(runs["1"], runs["2"]):
            assert not np.isnan(a.curve).any()
            assert np.array_equal(a.curve, b.curve)
            assert np.array_equal(a.best_x, b.best_x)
            assert a.best_f == b.best_f

    @pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
    @pytest.mark.parametrize("seed", range(5))
    def test_minus_inf_raises_naming_the_run(self, algo, seed):
        # -inf had no treatment: a run ended at best_f = -inf with every debug check passing
        cfg_type, runner = ALGORITHMS[algo]
        cfg = cfg_type(max_iters=20) if algo == "bas" else cfg_type(n=6, max_iters=20)
        checks = {} if algo == "bas" else {"debug_checks": True}
        with pytest.raises(ValueError, match=rf"^minus-inf: {algo}, seed {seed}, reached -inf; an objective must not"):
            runner(MINUS_INF, cfg, seed=seed, **checks)

    def test_pooled_minus_inf_raises_with_the_trial_note(self, monkeypatch, two_cpus):
        monkeypatch.setenv("BSO_THREADS", "2")
        with pytest.raises(ValueError, match=r"^minus-inf: bso, seed 0, reached -inf") as caught:
            run_trial_records("bso", MINUS_INF, BsoConfig(n=6, max_iters=20), n_trials=2, base_seed=0)
        assert caught.value.__notes__ == ["bso on minus-inf, seed 0"]


_LOWER, _UPPER = np.array([-1.0, 2.0, 3.0]), np.array([5.0, 6.0, 7.0])
_F16, _PV, _HB = get_problem("F16"), constrained.PRESSURE_VESSEL, constrained.HIMMELBLAU
_F16_BATCH = np.array([[0.0, 1.0], [-1.0, 2.0], [3.0, -7.0]])
_PV_BATCH = np.array([[1.0, 2.0, 50.0, 100.0], [3.0, 1.0, 10.0, 240.0], [6.0, 6.0, 200.0, 10.0]])
_HB_BATCH = np.array([[78.0, 33.0, 27.0, 45.0, 37.0], [102.0, 45.0, 45.0, 45.0, 45.0]])


def _returning(F):
    """evaluate_many of a one-column problem named "out" whose objective returns F."""
    return Problem(id="out", space=SearchSpace.box(1, -1.0, 1.0), batch=lambda X, rng=None: F).evaluate_many(
        np.zeros((len(F), 1)))


# every place that takes an array from a caller: (call on the array, the array as C-order float64, the name
# its ValueError starts with)
REAL_ENTRIES = {
    "SearchSpace-lower": (lambda a: SearchSpace(a, _UPPER).lower, _LOWER, "lower bound"),
    "SearchSpace-upper": (lambda a: SearchSpace(_LOWER, a).upper, _UPPER, "upper bound"),
    "SearchSpace.box": (lambda a: SearchSpace.box(3, a, 9.0).lower, np.array(-1.0), "lower bound"),
    "SearchSpace.row": (lambda a: _F16.space.row(a, "F16"), _F16_BATCH[1], "F16"),
    "Problem.evaluate": (_F16.evaluate, _F16_BATCH[1], "F16"),
    "catalog.evaluate": (partial(catalog.evaluate, "F16"), _F16_BATCH[1], "F16"),
    "snap": (_PV.snap, _PV_BATCH[1], "PV"),
    "raw": (_PV.raw, _PV_BATCH[1], "PV"),
    "constraints": (_PV.constraints, _PV_BATCH[1], "PV"),
    "feasible": (_PV.feasible, _PV_BATCH[0], "PV"),
    "report": (_PV.report, _PV_BATCH[1], "PV"),
    "penalized_fitness": (lambda a: constrained.penalized_fitness(_PV, a, PenaltyConfig()), _PV_BATCH[1], "PV"),
    "evaluate_many": (_F16.evaluate_many, _F16_BATCH, "F16"),
    "evaluate_many-output": (_returning, np.array([1.0, 2.0, -7.0]), "out"),
    "snap_many": (_PV.snap_many, _PV_BATCH, "PV"),
    "violations_many": (_PV.violations_many, _PV_BATCH, "PV"),
    "clamp_to_bounds": (lambda a: clamp_to_bounds(a, _F16.space), _F16_BATCH, "clamp_to_bounds"),
    "g_lower": (lambda a: replace(_HB, g_lower=a).violations_many(_HB_BATCH), _HB.g_lower, "HB g_lower"),
    "g_upper": (lambda a: replace(_HB, g_upper=a).violations_many(_HB_BATCH), _HB.g_upper, "HB g_upper"),
}
REAL_FORMS = {  # the first four are rejected, the last three keep the float64 bits
    "complex128": lambda a: a + 0j,
    "bool": lambda a: a > 0,
    "str": lambda a: a.astype(str),
    "Fraction": lambda a: np.array([Fraction(v) for v in a.flat], dtype=object).reshape(a.shape),
    "int64": lambda a: a.astype(np.int64),
    "float32": lambda a: a.astype(np.float32),
    "F-order": lambda a: np.asarray(a, order="F"),
}


def _bits(value):
    return (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize("form", list(REAL_FORMS))
@pytest.mark.parametrize("entry", list(REAL_ENTRIES))
def test_every_caller_array_meets_the_real_number_rule(entry, form):
    # only the objective's output was checked: a complex point was evaluated at its real part with a ComplexWarning,
    # strings were parsed, booleans read as 1 and 0, and Fractions cast one by one
    call, a, name = REAL_ENTRIES[entry]
    assert a.dtype == np.float64 and a.flags.c_contiguous and np.array_equal(a, a.astype(np.int64))
    converted = REAL_FORMS[form](a)
    if form in ("int64", "float32", "F-order"):
        assert _bits(call(converted)) == _bits(call(a))
    else:
        message = rf"^{re.escape(name)}: (expected|objective must return) real numbers, got dtype {converted.dtype}$"
        with pytest.raises(ValueError, match=message):
            call(converted)
