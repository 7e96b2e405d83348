from dataclasses import fields

import numpy as np
import pytest

from beetleswarm import BsoConfig, PsoConfig, get_problem, run_pso

from .conftest import sphere_problem


class TestPsoConfig:
    def test_dict_round_trip(self):
        cfg = PsoConfig(n=9, max_iters=25, a1=1.0, seed=3)
        assert PsoConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_engine_only_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            PsoConfig.from_dict({"lam": 0.5})
        with pytest.raises(ValueError, match="unknown config keys"):
            PsoConfig.from_dict({"delta0": 1.0})

    def test_validation_delegated(self):
        with pytest.raises(ValueError):
            PsoConfig(n=1)
        with pytest.raises(ValueError):
            PsoConfig(omega_min=1.0, omega_max=0.5)

    def test_engine_mapping(self):
        # every PSO field, each off its default, carries over; the antenna is off and eta, c2_ratio keep BSO's
        pso = PsoConfig(n=7, max_iters=12, a1=1.25, a2=1.75, omega_max=0.8, omega_min=0.3, v_frac=0.15, seed=4)
        assert all(getattr(pso, f.name) != f.default for f in fields(PsoConfig))
        bso = pso.to_bso()
        assert {key: getattr(bso, key) for key in pso.to_dict()} == pso.to_dict()
        assert (bso.lam, bso.delta0) == (1.0, 0.0)
        assert (bso.eta, bso.c2_ratio) == (BsoConfig.eta, BsoConfig.c2_ratio)


class TestRunPso:
    def test_metadata_and_snapshot(self):
        rec = run_pso(sphere_problem(2), PsoConfig(n=6, max_iters=4, seed=2))
        assert rec.algorithm == "pso"
        assert "lam" not in rec.config
        assert rec.config["n"] == 6
        assert rec.config["seed"] == 2

    def test_same_seed_identical_records(self):
        cfg = PsoConfig(n=10, max_iters=40, seed=31)
        a = run_pso(get_problem("F10"), cfg)
        b = run_pso(get_problem("F10"), cfg)
        assert np.array_equal(a.curve, b.curve)
        assert np.array_equal(a.best_x, b.best_x)

    def test_curve_monotone_and_in_bounds(self):
        for seed in range(5):
            p = get_problem("F16")
            rec = run_pso(p, PsoConfig(n=12, max_iters=80), seed=seed, debug_checks=True)
            assert np.all(np.diff(rec.curve) <= 0.0)
            assert np.all(rec.best_x >= p.space.lower) and np.all(rec.best_x <= p.space.upper)

    def test_short_run_finds_camel_valley(self):
        finals = [
            run_pso(get_problem("F16"), PsoConfig(n=50, max_iters=200), seed=s).best_f
            for s in range(5)
        ]
        assert np.median(finals) == pytest.approx(-1.0316, abs=1e-3)

    def test_protocol_scale_gates(self):
        # full protocol (50 agents, 1000 iterations, 30 trials): the sphere
        # reaches 1e-8 in the best trial and the camel-valley median holds
        f1 = np.array(
            [run_pso(get_problem("F1"), PsoConfig(), seed=s).best_f for s in range(30)]
        )
        assert f1.min() <= 1e-8
        f16 = np.array(
            [run_pso(get_problem("F16"), PsoConfig(), seed=s).best_f for s in range(30)]
        )
        assert np.median(f16) == pytest.approx(-1.0316, abs=1e-3)
