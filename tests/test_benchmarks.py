"""Benchmark catalog checks.

Every function is validated two independent ways: against a frozen
minimum witness (the catalogued f_min at a known or derived argmin), and
against a straight-line scalar re-implementation of the same formula
evaluated at random points. The straight-line versions below are written
with plain loops on purpose; they share no code with the package.
"""

import dataclasses
import math

import numpy as np
import pytest

import beetleswarm
from beetleswarm import RandomStream, constrained_problem, evaluate, get_problem, list_problems, problem_ids, spec
from beetleswarm.benchmarks import BENCHMARK_IDS, _goldstein_rows, quartic_without_noise

# id -> (dim, lower, upper, fmin) as catalogued
EXPECTED_SPECS = {
    "F1": (30, -100, 100, 0.0),
    "F2": (30, -10, 10, 0.0),
    "F3": (30, -100, 100, 0.0),
    "F4": (30, -100, 100, 0.0),
    "F5": (30, -30, 30, 0.0),
    "F6": (30, -100, 100, 0.0),
    "F7": (30, -1.28, 1.28, 0.0),
    "F8": (30, -500, 500, -418.9829 * 30),
    "F9": (30, -5.12, 5.12, 0.0),
    "F10": (30, -32, 32, 0.0),
    "F11": (30, -600, 600, 0.0),
    "F12": (30, -50, 50, 0.0),
    "F13": (30, -50, 50, 0.0),
    "F14": (2, -65, 65, 0.9980),
    "F15": (4, -5, 5, 0.00030),
    "F16": (2, -5, 5, -1.0316),
    "F17": (2, -5, 5, 0.398),
    "F18": (2, -2, 2, 3.0),
    "F19": (3, 1, 3, -3.86),
    "F20": (6, 0, 1, -3.32),
    "F21": (4, 0, 10, -10.1532),
    "F22": (4, 0, 10, -10.4028),
    "F23": (4, 0, 10, -10.5363),
}

# Minimum witnesses. Values were derived up front with an independent
# oracle (scipy local refinement / scans over the straight-line formulas)
# and frozen here; "expected" is the witness's exact fitness, "table" the
# catalogued minimum it must reproduce.
WITNESSES = {
    "F1": (np.zeros(30), 0.0),
    "F2": (np.zeros(30), 0.0),
    "F3": (np.zeros(30), 0.0),
    "F4": (np.zeros(30), 0.0),
    "F5": (np.ones(30), 0.0),
    "F6": (np.zeros(30), 0.0),
    "F8": (np.full(30, 420.9687465232851), -12569.486618173014),
    "F9": (np.zeros(30), 0.0),
    "F10": (np.zeros(30), 4.440892098500626e-16),
    "F11": (np.zeros(30), 0.0),
    "F12": (-np.ones(30), 1.570544771786639e-32),
    "F13": (np.ones(30), 1.3497838043956716e-32),
    "F14": (np.array([-32.0, -32.0]), 0.998003838818649),
    "F15": (np.array([0.19283345, 0.19083624, 0.1231173, 0.13576599]), 0.0003074859878056476),
    "F16": (np.array([0.08984201, -0.7126564]), -1.031628453489877),
    "F17": (np.array([math.pi, 2.275]), 0.39788735772973816),
    "F18": (np.array([0.0, -1.0]), 3.0),
    "F19": (np.array([0.11458889, 0.55564889, 0.85254699]), -3.8627797873326624),
    "F20": (
        np.array([0.20168951, 0.15001069, 0.47687398, 0.27533243, 0.31165162, 0.65730053]),
        -3.322368011415515,
    ),
    "F21": (np.array([4.00003715, 4.00013328, 4.00003715, 4.00013328]), -10.153199679058224),
    "F22": (np.array([4.00057291, 4.00068937, 3.99948971, 3.99960616]), -10.402940566818655),
    "F23": (np.array([4.00074653, 4.00059293, 3.9996634, 3.9995098]), -10.536409816692043),
}


# ---------------------------------------------------------------------------
# straight-line scalar re-implementations (independent oracle)
# ---------------------------------------------------------------------------


def _u(x, a, k, m):
    if x > a:
        return k * (x - a) ** m
    if x < -a:
        return k * (-x - a) ** m
    return 0.0


def _direct(fid, x):
    n = len(x)
    if fid == "F1":
        return sum(v * v for v in x)
    if fid == "F2":
        s = sum(abs(v) for v in x)
        p = 1.0
        for v in x:
            p *= abs(v)
        return s + p
    if fid == "F3":
        total = 0.0
        for i in range(n):
            total += sum(x[: i + 1]) ** 2
        return total
    if fid == "F4":
        return max(abs(v) for v in x)
    if fid == "F5":
        return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (x[i] - 1.0) ** 2 for i in range(n - 1))
    if fid == "F6":
        return sum(math.floor(v + 0.5) ** 2 for v in x)
    if fid == "F7":  # deterministic part only
        return sum((i + 1) * x[i] ** 4 for i in range(n))
    if fid == "F8":
        return sum(-v * math.sin(math.sqrt(abs(v))) for v in x)
    if fid == "F9":
        return sum(v * v - 10.0 * math.cos(2 * math.pi * v) + 10.0 for v in x)
    if fid == "F10":
        s1 = sum(v * v for v in x) / n
        s2 = sum(math.cos(2 * math.pi * v) for v in x) / n
        return -20.0 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20.0 + math.e
    if fid == "F11":
        s = sum(v * v for v in x) / 4000.0
        p = 1.0
        for i, v in enumerate(x):
            p *= math.cos(v / math.sqrt(i + 1))
        return s - p + 1.0
    if fid == "F12":
        y = [1.0 + (v + 1.0) / 4.0 for v in x]
        s = 10.0 * math.sin(math.pi * y[0]) ** 2
        for i in range(n - 1):
            s += (y[i] - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * y[i + 1]) ** 2)
        s += (y[-1] - 1.0) ** 2
        return math.pi / n * s + sum(_u(v, 10, 100, 4) for v in x)
    if fid == "F13":
        s = math.sin(3 * math.pi * x[0]) ** 2
        for i in range(n - 1):
            s += (x[i] - 1.0) ** 2 * (1.0 + math.sin(3 * math.pi * x[i + 1]) ** 2)
        s += (x[-1] - 1.0) ** 2 * (1.0 + math.sin(2 * math.pi * x[-1]) ** 2)
        return 0.1 * s + sum(_u(v, 5, 100, 4) for v in x)
    if fid == "F14":
        a1 = [-32, -16, 0, 16, 32] * 5
        a2 = [v for v in (-32, -16, 0, 16, 32) for _ in range(5)]
        s = 1.0 / 500.0
        for j in range(25):
            s += 1.0 / ((j + 1) + (x[0] - a1[j]) ** 6 + (x[1] - a2[j]) ** 6)
        return 1.0 / s
    if fid == "F15":
        a = [0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
        b = [1.0 / v for v in (0.25, 0.5, 1, 2, 4, 6, 8, 10, 12, 14, 16)]
        return sum(
            (a[i] - x[0] * (b[i] ** 2 + b[i] * x[1]) / (b[i] ** 2 + b[i] * x[2] + x[3])) ** 2
            for i in range(11)
        )
    if fid == "F16":
        x1, x2 = x
        return 4 * x1**2 - 2.1 * x1**4 + x1**6 / 3 + x1 * x2 - 4 * x2**2 + 4 * x2**4
    if fid == "F17":
        x1, x2 = x
        return (
            (x2 - 5.1 / (4 * math.pi**2) * x1**2 + 5 / math.pi * x1 - 6) ** 2
            + 10 * (1 - 1 / (8 * math.pi)) * math.cos(x1)
            + 10
        )
    if fid == "F18":
        x1, x2 = x
        t1 = 1 + (x1 + x2 + 1) ** 2 * (19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2)
        t2 = 30 + (2 * x1 - 3 * x2) ** 2 * (
            18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
        )
        return t1 * t2
    if fid in ("F19", "F20"):
        if fid == "F19":
            A = [[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]]
            P = [
                [0.3689, 0.1170, 0.2673],
                [0.4699, 0.4387, 0.7470],
                [0.1091, 0.8732, 0.5547],
                [0.0381, 0.5743, 0.8828],
            ]
        else:
            A = [
                [10, 3, 17, 3.5, 1.7, 8],
                [0.05, 10, 17, 0.1, 8, 14],
                [3, 3.5, 1.7, 10, 17, 8],
                [17, 8, 0.05, 10, 0.1, 14],
            ]
            P = [
                [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
                [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
                [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
                [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
            ]
        C = [1.0, 1.2, 3.0, 3.2]
        total = 0.0
        for i in range(4):
            inner = sum(A[i][j] * (x[j] - P[i][j]) ** 2 for j in range(len(x)))
            total -= C[i] * math.exp(-inner)
        return total
    if fid in ("F21", "F22", "F23"):
        m = {"F21": 5, "F22": 7, "F23": 10}[fid]
        a = [
            [4, 4, 4, 4],
            [1, 1, 1, 1],
            [8, 8, 8, 8],
            [6, 6, 6, 6],
            [3, 7, 3, 7],
            [2, 9, 2, 9],
            [5, 5, 3, 3],
            [8, 1, 8, 1],
            [6, 2, 6, 2],
            [7, 3.6, 7, 3.6],
        ]
        c = [0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5]
        total = 0.0
        for i in range(m):
            d = sum((x[j] - a[i][j]) ** 2 for j in range(4))
            total -= 1.0 / (d + c[i])
        return total
    raise AssertionError(fid)


# ---------------------------------------------------------------------------
# catalog metadata
# ---------------------------------------------------------------------------


class TestSpecs:
    def test_all_ids_present(self):
        assert BENCHMARK_IDS == tuple(EXPECTED_SPECS)

    @pytest.mark.parametrize("fid", list(EXPECTED_SPECS))
    def test_spec_matches_expectations(self, fid):
        dim, lo, hi, fmin = EXPECTED_SPECS[fid]
        s = spec(fid)
        assert (s.dim, s.lower, s.upper) == (dim, lo, hi)
        assert s.fmin == pytest.approx(fmin, abs=1e-12)

    def test_spec_examples(self):
        assert (spec("F5").dim, spec("F5").lower, spec("F5").upper, spec("F5").fmin) == (30, -30, 30, 0.0)
        assert (spec("F20").dim, spec("F20").lower, spec("F20").upper, spec("F20").fmin) == (6, 0, 1, -3.32)
        assert (spec("F23").dim, spec("F23").lower, spec("F23").upper, spec("F23").fmin) == (4, 0, 10, -10.5363)

    def test_case_insensitive_lookup(self):
        assert spec("f9").id == "F9"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            spec("F99")

    def test_catalog_lookup_returns_one_shared_instance(self):
        assert get_problem("f1") is get_problem("F1")
        for pid in problem_ids():
            assert get_problem(pid.lower()) is get_problem(pid)
        assert not get_problem("PV").space.lower.flags.writeable
        with pytest.raises(KeyError):
            get_problem("F99")

    def test_catalog_listing(self):
        entries = {e["id"]: e for e in list_problems()}
        assert tuple(entries)[:23] == BENCHMARK_IDS
        assert entries["F7"]["stochastic"] is True
        assert entries["F20"] == {
            "id": "F20",
            "dim": 6,
            "lower": 0.0,
            "upper": 1.0,
            "fmin": -3.32,
            "stochastic": False,
        }

    def test_spec_is_the_listing_entry(self):
        # guard: spec and list_problems describe a function from the one Problem the catalog holds
        entries = {e["id"]: e for e in list_problems()}
        for fid in BENCHMARK_IDS:
            assert dataclasses.asdict(spec(fid)) == entries[fid]
        assert not hasattr(beetleswarm, "problem")  # the catalog has one lookup, get_problem
        for pid in ("PV", "F99"):
            with pytest.raises(KeyError, match="unknown benchmark"):
                spec(pid)

    @pytest.mark.parametrize("lookup,args,message", [
        (get_problem, ("f99",), "unknown problem 'f99'"),
        (spec, ("PV",), "unknown benchmark 'PV'"),
        (evaluate, ("PV", [1.0, 1.0, 10.0, 10.0]), "unknown benchmark 'PV'"),
        (constrained_problem, ("xx",), "unknown constrained problem 'xx'"),
    ], ids=["get_problem", "spec", "evaluate", "constrained_problem"])
    def test_every_registry_names_an_unknown_id_alike(self, lookup, args, message):
        # one id rule (core.lookup) serves the catalog's full and F1-F23 tables and the constrained registry
        with pytest.raises(KeyError) as error:
            lookup(*args)
        assert error.value.args == (message,)


# ---------------------------------------------------------------------------
# evaluation contracts
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            evaluate("F1", np.zeros(29))

    def test_f7_requires_stream(self):
        with pytest.raises(ValueError):
            evaluate("F7", np.zeros(30))

    def test_simple_point_values(self):
        assert evaluate("F1", np.zeros(30)) == 0.0
        assert evaluate("F16", [0.0, 0.0]) == 0.0
        assert evaluate("F9", np.zeros(30)) == 0.0
        assert abs(evaluate("F10", np.zeros(30))) < 1e-12
        assert evaluate("F11", np.zeros(30)) == 0.0
        assert evaluate("F6", np.full(30, 0.4)) == 0.0

    @pytest.mark.parametrize("fid", list(WITNESSES))
    def test_witness_reproduces_catalog_minimum(self, fid):
        witness, frozen = WITNESSES[fid]
        value = evaluate(fid, witness)
        assert value == pytest.approx(frozen, rel=1e-12, abs=1e-300)
        table = EXPECTED_SPECS[fid][3]
        if fid in ("F19", "F20"):
            # the catalog prints these minima to two decimals, which loses
            # more than 1e-3; agreement is at that printed precision
            assert round(value, 2) == table
        else:
            tol = 1e-4 if fid in ("F14", "F16", "F21") else 1e-3
            assert value == pytest.approx(table, abs=tol)

    @pytest.mark.parametrize("fid", BENCHMARK_IDS)
    def test_matches_straight_line_reimplementation(self, fid):
        s = spec(fid)
        rng = RandomStream(hash(fid) % 2**32)
        X = s.lower + rng.uniform((25, s.dim)) * (s.upper - s.lower)
        for row in X:
            if fid == "F7":
                got = float(quartic_without_noise(row[None, :])[0])
            else:
                got = evaluate(fid, row)
            want = _direct(fid, [float(v) for v in row])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_batch_matches_scalar_rows(self):
        # a point's value must not depend on the batch it is evaluated in,
        # or batching calls differently would change seeded runs
        deterministic = [pid for pid in problem_ids() if not get_problem(pid).stochastic]
        assert len(deterministic) == 24
        for pid in deterministic:
            p = get_problem(pid)
            rng = RandomStream(11)
            X = p.space.lower + rng.uniform((200, p.space.dim)) * p.space.widths
            batch = p.evaluate_many(X)
            singles = np.array([p.evaluate(row) for row in X])
            pairs = np.concatenate([p.evaluate_many(X[i : i + 2]) for i in range(0, len(X), 2)])
            assert np.array_equal(batch, singles), pid
            assert np.array_equal(pairs, singles), pid

    @pytest.mark.parametrize("pid", [pid for pid in problem_ids() if not get_problem(pid).stochastic])
    def test_batch_size_place_and_memory_order_keep_every_bit(self, pid):
        # 4,500 rows are a cell engine's batch at the protocol scale (T * 3n); a column-major copy used to sum
        # its strided rows in another order, which gave other bits on 10 of these problems
        p = get_problem(pid)
        X = p.space.lower + RandomStream(11).uniform((4500, p.space.dim)) * p.space.widths
        whole = p.evaluate_many(X).tobytes()
        for m in (1, 2, 3, 7, 100, 150, 1500):
            assert np.concatenate([p.evaluate_many(X[i : i + m]) for i in range(0, len(X), m)]).tobytes() == whole, m
        shifted = np.empty((len(X) + 1, p.space.dim))
        shifted[1:] = X
        assert p.evaluate_many(shifted[1:]).tobytes() == whole
        assert p.evaluate_many(np.asfortranarray(X)).tobytes() == whole


# F16-F18 as written with Python-float literals: the kernels hold their coefficients as 0-d arrays, which must
# change no bit. F17 has no golden run digest, so this is its only bit pin.
def _textbook_2d(fid, x1, x2):
    x1_sq, x2_sq = x1 * x1, x2 * x2
    if fid == "F16":
        x1_4 = x1_sq * x1_sq
        return 4.0 * x1_sq - 2.1 * x1_4 + x1_4 * x1_sq / 3.0 + x1 * x2 - 4.0 * x2_sq + 4.0 * (x2_sq * x2_sq)
    if fid == "F17":
        a = x2 - 5.1 / (4 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0
        return a**2 + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1) + 10.0
    t1 = 1.0 + (x1 + x2 + 1.0) ** 2 * (19.0 - 14.0 * x1 + 3.0 * x1_sq - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2_sq)
    t2 = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1_sq + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2_sq
    )
    return t1 * t2


@pytest.mark.parametrize("fid", ["F16", "F17", "F18"])
@pytest.mark.parametrize("m", [1, 2, 50, 1500])
def test_2d_kernels_match_textbook_bit_for_bit(fid, m):
    rng = np.random.default_rng(m)
    X = rng.choice([-1.0, 1.0], size=(m, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 2))
    X[rng.uniform(size=(m, 2)) < 0.1] = 0.0
    X[rng.uniform(size=(m, 2)) < 0.1] = -0.0
    X[0] = [-0.0, 0.0]
    got = get_problem(fid).batch(X)
    assert got.tobytes() == _textbook_2d(fid, X[:, 0], X[:, 1]).tobytes()


_HOSTILE = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e154, -1e154, 1e300, -1e300, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("fid", ["F16", "F18"])
@pytest.mark.parametrize("m", [1, 2, 3, 50, 150, 1500, 5000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_2d_kernels_match_textbook_on_hostile_input(fid, m, order):
    # F16 shares its squares over both columns and F18 takes both factors as rows of one stack, a subtracted term as
    # a negated coefficient (tiled rows up to 4096, broadcast columns past it): each op must still give the
    # textbook's bits, overflow, inf - inf and NaN included
    rng = np.random.default_rng(100 + m)
    X = rng.uniform(-3.0, 3.0, size=(m, 2))
    hostile = rng.uniform(size=(m, 2)) < 0.5
    X[hostile] = rng.choice(_HOSTILE, size=np.count_nonzero(hostile))
    X[0] = rng.choice(_HOSTILE, size=2)
    with np.errstate(all="ignore"):
        got = get_problem(fid).batch(np.asarray(X, order=order))
        expected = _textbook_2d(fid, X[:, 0], X[:, 1])
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan) and np.array_equal(np.signbit(got), np.signbit(expected))
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def test_a_large_f18_batch_keeps_no_tiled_rows():
    before = _goldstein_rows.cache_info()
    get_problem("F18").batch(np.zeros((5000, 2)))
    assert _goldstein_rows.cache_info() == before  # no 5000-row coefficients cached for the rest of the process


class TestProperties:
    @pytest.mark.parametrize("fid", ["F1", "F2", "F3", "F4", "F5", "F6", "F9", "F10", "F11", "F12", "F13"])
    def test_nonnegative_on_box(self, fid):
        p = get_problem(fid)
        rng = RandomStream(2024)
        X = p.space.lower + rng.uniform((10_000, p.space.dim)) * p.space.widths
        assert np.all(p.evaluate_many(X) >= 0.0)

    def test_quartic_noise_free_variant(self):
        rng = RandomStream(5)
        X = -1.28 + rng.uniform((10_000, 30)) * 2.56
        assert np.all(quartic_without_noise(X) >= 0.0)
        assert quartic_without_noise(np.zeros((1, 30)))[0] == 0.0

    def test_f7_noise_is_uniform_additive(self):
        p = get_problem("F7")
        rng = RandomStream(17)
        X = -1.28 + rng.uniform((500, 30)) * 2.56
        noisy = p.evaluate_many(X, RandomStream(3))
        clean = quartic_without_noise(X)
        noise = noisy - clean
        assert np.all(noise >= -1e-10) and np.all(noise < 1.0)
        # the noise draws come straight off the provided stream, one per row;
        # at the origin the deterministic part is 0, so equality is exact
        at_origin = p.evaluate_many(np.zeros((500, 30)), RandomStream(3))
        assert np.array_equal(at_origin, RandomStream(3).uniform(500))

    @pytest.mark.parametrize("fid", ["F1", "F8", "F9"])
    def test_separable_functions_decompose(self, fid):
        p = get_problem(fid)
        rng = RandomStream(31)
        for _ in range(10):
            x = p.space.lower + rng.uniform(p.space.dim) * p.space.widths
            per_coordinate = 0.0
            for i in range(p.space.dim):
                e = np.zeros(p.space.dim)
                e[i] = x[i]
                per_coordinate += p.evaluate(e)
            assert p.evaluate(x) == pytest.approx(per_coordinate, rel=1e-9, abs=1e-9)

    def test_f8_argmin_by_coordinate_scan(self):
        # separable, so scan one coordinate: -x sin(sqrt(|x|)) on [-500, 500]
        grid = np.linspace(-500.0, 500.0, 1_000_001)
        values = -grid * np.sin(np.sqrt(np.abs(grid)))
        coord = grid[int(np.argmin(values))]
        assert coord == pytest.approx(420.9687465232851, abs=1e-2)
        witness = np.full(30, 420.9687465232851)
        assert evaluate("F8", witness) == pytest.approx(-418.9829 * 30, abs=1e-3)

    def test_f12_witness_is_local_minimum(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        start = -np.ones(30) + 0.05 * (RandomStream(1).uniform(30) - 0.5)
        res = scipy_opt.minimize(
            lambda x: evaluate("F12", x), start, method="Nelder-Mead",
            options={"maxfev": 60_000, "xatol": 1e-10, "fatol": 1e-14},
        )
        assert res.fun >= -1e-12
        assert res.fun < 1e-8

    def test_f19_listed_minimum_lies_outside_its_box(self):
        # the paper's box for F19 is [1, 3]^3; the standard Hartmann-3 domain, which holds -3.86 and its witness,
        # is [0, 1]^3, so a converged run ends at the corner (1, 1, 1), 3.56 above the listed minimum
        scipy_opt = pytest.importorskip("scipy.optimize")
        p, (witness, _) = get_problem("F19"), WITNESSES["F19"]
        assert np.all(witness < p.space.lower)
        corner = evaluate("F19", p.space.lower)
        assert corner == pytest.approx(-0.3004760740554008, rel=1e-12) and corner > p.known_fmin + 3.5
        starts = p.space.lower + RandomStream(0).uniform((20, 3)) * p.space.widths
        bounds = list(zip(p.space.lower, p.space.upper))
        found = [scipy_opt.minimize(p.evaluate, x0, method="L-BFGS-B", bounds=bounds) for x0 in starts]
        assert min(r.fun for r in found) == pytest.approx(corner, rel=1e-12)
        assert all(r.fun >= corner for r in found)
