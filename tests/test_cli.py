import json
import os
from pathlib import Path

import pytest

from beetleswarm import BsoConfig, PsoConfig, catalog, cli, harness
from beetleswarm.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--algo", "bso", "--problem", "F1", "--iters", "50",
            "--pop", "10", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["schema"] == "beetleswarm-run-v1"
        assert doc["problem"] == "F1"
        assert doc["algorithm"] == "bso"
        assert doc["seed"] == 7
        assert doc["config"]["n"] == 10
        assert doc["config"]["max_iters"] == 50
        assert doc["config"]["lam"] == 0.35  # defaults echoed back
        curve = (out / "curve.csv").read_text().strip().splitlines()
        assert len(curve) == 52  # header + iters + 1
        assert "best_f" in capsys.readouterr().out or True

    def test_repeat_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--algo", "bso", "--problem", "F9", "--iters", "40", "--pop", "8", "--seed", "3"]
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        assert (out_a / "curve.csv").read_bytes() == (out_b / "curve.csv").read_bytes()

    def test_unknown_problem(self, tmp_path, capsys):
        code = run_cli("run", "--algo", "bso", "--problem", "F99", "--out", str(tmp_path))
        assert code == 2
        assert "unknown problem F99" in capsys.readouterr().err

    def test_unknown_algorithm(self, tmp_path, capsys):
        code = run_cli("run", "--algo", "ga", "--problem", "F1", "--out", str(tmp_path))
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_invalid_numeric_flag(self, tmp_path, capsys):
        code = run_cli("run", "--algo", "bso", "--problem", "F1", "--iters", "ten")
        assert code == 2

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "F1", "--iters", "3", "--seed", "-1", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_problem(self, capsys):
        assert run_cli("run", "--algo", "bso") == 2
        assert "no problem" in capsys.readouterr().err

    def test_bas_run(self, tmp_path):
        code = run_cli(
            "run", "--algo", "bas", "--problem", "F16", "--iters", "60",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["algorithm"] == "bas"
        assert doc["config"]["max_iters"] == 60


class TestConfigFile:
    def test_file_values_applied_and_echoed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithm": "pso", "problem": "F16", "max_iters": 30, "n": 6,
            "seed": 11, "out": str(tmp_path / "from-file"),
        }))
        assert run_cli("run", "--config", str(cfg)) == 0
        doc = json.loads((tmp_path / "from-file" / "run.json").read_text())
        assert doc["algorithm"] == "pso"
        assert doc["config"]["max_iters"] == 30
        assert doc["config"]["n"] == 6
        assert doc["seed"] == doc["config"]["seed"] == 11
        assert "lam" not in doc["config"]  # PSO's own config, with no BSO key

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "bso", "problem": "F16", "max_iters": 30, "seed": 1}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg), "--iters", "12", "--seed", "5", "--out", str(out)) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["max_iters"] == 12
        assert doc["seed"] == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "F1", "swarm_size": 10}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_removed_velocity_clamp_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "F1", "v_max": 1.0}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "unknown config keys: ['v_max']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("n", 10.5, "must be int"),
            ("max_iters", 2.5, "must be int"),
            ("lam", "0.3", "must be float"),
            ("a1", True, "must be float"),
            ("n", None, "must be int"),
            ("problem", 5, "must be a string"),
            ("algorithm", 5, "must be a string"),
        ],
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "F1", "max_iters": 3, key: value}))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"config key {key!r} {expected}, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("a1", "NaN"), ("delta0", "Infinity"), ("v_frac", "-Infinity"),
            pytest.param("a2", "1" + "0" * 400, id="a2-10**400"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, value):
        # Python's json reads these literals; they used to run with a flat curve, and the
        # 401-digit integer, too large for a float, used to end the run with a traceback (exit 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"problem": "F1", "max_iters": 3, "{key}": {value}}}')
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"bad bso config: {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv,tunables,message",
        [
            (["run", "--problem", "F1"], {"v_frac": 1e306}, "bad bso config: F1: 2 * v_frac * w is inf"),
            (["run", "--problem", "F1", "--algo", "pso"], {"a1": 1e308, "a2": 1e308},
             "bad pso config: F1: max(|omega_max|, |omega_min|) * v_frac * w + (a1 + a2) * w is inf"),
            (["bench", "--problems", "F16,F1", "--trials", "1"], {"c2_ratio": 1e-308},
             "bad bso config: F16: delta0 / c2_ratio * v_frac * w is inf"),
            (["constrained", "--problem", "pv", "--algo", "bas", "--trials", "1"], {"c2_ratio": 1e-308},
             "bad bas config: derived delta0 57.0 (0.3 x the widest side, 190.0) / c2_ratio 1e-308 overflows on PV"),
            (["run", "--problem", "F16", "--algo", "bas"], {"delta0": 1e308, "c2_ratio": 0.5},
             "bad bas config: delta0 and delta0 / c2_ratio must be finite, got 1e+308 / 0.5"),
        ],
        ids=["run-v_frac", "run-pso-a1-a2", "bench-c2_ratio", "constrained-bas-derived", "run-bas-delta0"],
    )
    def test_config_that_overflows_on_its_box_rejected(self, tmp_path, capsys, argv, tunables, message):
        # each of these used to run: run --problem F1 with v_frac 1e306 exited 0 with best_f=59604.4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 5, **tunables}))
        assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # stopped before the output directory and the first trial

    def test_non_string_out_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "F1", "max_iters": 3, "out": 5}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "config key 'out' must be a string, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,settings,key,hint",
        [
            # these used to be ignored: bench ran seeds 0 and 1, run ran once at seed 0
            ("bench", {"problems": "F16", "seed": 5}, "seed", "use base_seed"),
            ("constrained", {"problem": "pv", "seed": 5}, "seed", "use base_seed"),
            ("run", {"problem": "F16", "n_trials": 7, "base_seed": 3}, "base_seed", ""),
            ("run", {"problem": "F16", "algorithms": "bso"}, "algorithms", ""),
            ("bench", {"problems": "F16", "problem": "F1"}, "problem", ""),
            ("constrained", {"problem": "pv", "problems": "F1"}, "problems", ""),
        ],
        ids=["bench-seed", "constrained-seed", "run-base_seed", "run-algorithms", "bench-problem", "constrained-problems"],
    )
    def test_other_commands_run_level_key_rejected(self, tmp_path, capsys, command, settings, key, hint):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "max_iters": 3, "n": 4, "out": str(tmp_path / "o")}))
        assert run_cli(command, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r} does not apply to {command}" in err
        assert hint in err
        assert not (tmp_path / "o").exists()

    def test_bad_json(self, tmp_path, capsys):
        # json refuses an integer past int()'s 4,300 digits with a plain ValueError, which used to end in a traceback
        huge = '{"problem": "F1", "a1": 1' + "0" * 5000 + "}"
        cfg = tmp_path / "cfg.json"
        for text, expected in (
            ("{not json", "is not valid JSON"), (huge, "is not valid JSON"), ("[1, 2]", "must hold a JSON object")
        ):
            cfg.write_text(text)
            assert run_cli("run", "--config", str(cfg)) == 2
            assert f"config file {cfg} {expected}" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "none.json")) == 2

    def test_directory_rejected(self, tmp_path, capsys):
        # used to raise IsADirectoryError: traceback, exit 1
        assert run_cli("run", "--problem", "F16", "--config", str(tmp_path)) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        # used to raise UnicodeDecodeError: traceback, exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"problem": "F\xff16"}')
        assert run_cli("run", "--config", str(cfg)) == 2
        assert f"cannot read config file {cfg}" in capsys.readouterr().err


class TestBench:
    def test_small_matrix(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_cli(
            "bench", "--algos", "bso,pso", "--problems", "F16,F18", "--trials", "2",
            "--iters", "30", "--pop", "8", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["problems"] == ["F16", "F18"]
        assert doc["algorithms"] == ["bso", "pso"]
        assert doc["cells"]["F16"]["bso"]["n_trials"] == 2
        assert (out / "report.txt").exists()
        assert "problem" in capsys.readouterr().out

    def test_report_carries_the_configs_it_ran_with(self, tmp_path):
        configs = []
        for iters in ("5", "6"):
            out = tmp_path / iters
            assert run_cli("bench", "--algos", "bso,pso", "--problems", "F16", "--trials", "2", "--iters", iters,
                           "--pop", "4", "--seed", "3", "--out", str(out)) == 0
            configs.append(json.loads((out / "report.json").read_text())["configs"])
        assert configs[0] != configs[1] and [c["bso"]["max_iters"] for c in configs] == [5, 6]
        for c in configs:
            assert c["bso"] == BsoConfig(n=4, max_iters=c["bso"]["max_iters"], seed=3).to_dict()
            assert c["pso"] == PsoConfig(n=4, max_iters=c["pso"]["max_iters"], seed=3).to_dict()  # the base seed

    def test_problem_range_expansion(self, tmp_path):
        out = tmp_path / "rep"
        code = run_cli(
            "bench", "--algos", "bso", "--problems", "F16..F18", "--trials", "1",
            "--iters", "10", "--pop", "6", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["problems"] == ["F16", "F17", "F18"]

    def test_single_trial_zero_std(self, tmp_path):
        out = tmp_path / "rep"
        assert run_cli(
            "bench", "--algos", "bso", "--problems", "F1", "--trials", "1",
            "--iters", "5", "--pop", "5", "--seed", "0", "--out", str(out),
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["cells"]["F1"]["bso"]["std"] == 0.0

    def test_unknown_algorithm(self, capsys):
        assert run_cli("bench", "--algos", "ga", "--problems", "F1", "--trials", "1") == 2
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("algos", ["", ","])
    def test_no_algorithms_rejected(self, tmp_path, capsys, algos):
        code = run_cli("bench", "--algos", algos, "--problems", "F1", "--trials", "1", "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "no algorithms given" in capsys.readouterr().err

    def test_bad_range(self, tmp_path, capsys):
        for problems, expected in (
            ("F5..F2", "empty problem range 'F5..F2'"),
            ("A1..F3", "bad problem range 'A1..F3'; ranges use benchmark ids like F1..F13"),
            ("F1..Fx", "bad problem range 'F1..Fx'"),
            (",", "no problems given"),
        ):
            out = tmp_path / "rep"
            assert run_cli("bench", "--algos", "bso", "--problems", problems, "--trials", "1", "--out", str(out)) == 2
            assert f"error: {expected}" in capsys.readouterr().err
            assert not out.exists()

    def test_list_valued_config_keys(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "algorithms": ["bso", "pso"], "problems": ["F16", "F18"],
            "n_trials": 1, "base_seed": 2, "max_iters": 15, "n": 6,
            "out": str(tmp_path / "rep"),
        }))
        assert run_cli("bench", "--config", str(cfg)) == 0
        doc = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert doc["algorithms"] == ["bso", "pso"]
        assert doc["problems"] == ["F16", "F18"]

    def test_spaced_list_items_are_stripped(self, tmp_path):
        # --algos "bso, pso" used to exit 2 with "unknown algorithm ' pso'", while --problems stripped its items
        out = tmp_path / "rep"
        code = run_cli(
            "bench", "--algos", "bso, pso", "--problems", "F16, F18", "--trials", "1",
            "--iters", "5", "--pop", "4", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["algorithms"] == ["bso", "pso"]
        assert doc["problems"] == ["F16", "F18"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithms": [" bso", "pso "], "problems": ["F16 ", " F17..F18"]}))
        assert run_cli("bench", "--config", str(cfg), "--trials", "1", "--iters", "5", "--pop", "4",
                       "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["algorithms"] == ["bso", "pso"]
        assert doc["problems"] == ["F16", "F17", "F18"]

    @pytest.mark.parametrize("key", ["algorithms", "problems"])
    @pytest.mark.parametrize("value", [True, None, 3, ["bso", 3]], ids=["bool", "null", "number", "mixed-list"])
    def test_list_key_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        # these used to exit 2 as an unknown algorithm or problem ('true', None, '3'), without naming the key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithms": "bso", "problems": "F16", key: value}))
        code = run_cli("bench", "--config", str(cfg), "--trials", "1", "--iters", "2", "--pop", "4",
                       "--out", str(tmp_path / "rep"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"config key {key!r} must be a comma string or a list of strings, got {value!r}" in err
        assert not (tmp_path / "rep").exists()

    def test_non_numeric_trials_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problems": "F16", "n_trials": "many"}))
        assert run_cli("bench", "--algos", "bso", "--config", str(cfg)) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("n_trials", 2.7), ("base_seed", True)])
    def test_non_integer_trial_setting_rejected(self, tmp_path, capsys, key, value):
        # these used to become 2 trials and seed 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problems": "F16", "n_trials": 2, key: value}))
        code = run_cli("bench", "--algos", "bso", "--iters", "3", "--pop", "4", "--config", str(cfg),
                       "--out", str(tmp_path / "rep"))
        assert code == 2
        assert f"config key {key!r} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_negative_base_seed_rejected(self, tmp_path, capsys):
        code = run_cli("bench", "--problems", "F1", "--trials", "2", "--iters", "3", "--pop", "4",
                       "--seed", "-1", "--out", str(tmp_path / "rep"))
        assert code == 2
        # the flag sets base_seed, so the message names that key, not the config's seed
        assert "base_seed (--seed) must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = run_cli("bench", "--problems", "F1", "--trials", "0", "--iters", "3", "--pop", "4",
                       "--out", str(tmp_path / "rep"))
        assert code == 2
        assert "n_trials (--trials) must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_repeated_ids_run_once(self, tmp_path):
        out = tmp_path / "rep"
        code = run_cli(
            "bench", "--algos", "bso,pso,bso", "--problems", "F16..F18,F17", "--trials", "1",
            "--iters", "5", "--pop", "4", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["algorithms"] == ["bso", "pso"]
        assert doc["problems"] == ["F16", "F17", "F18"]

    def test_camel_valley_report_value(self, tmp_path):
        # protocol-length runs reproduce the known optimum in the ave column
        # (the default step schedule anneals over ~1000 iterations, so
        # shorter budgets end before the refinement phase)
        out = tmp_path / "rep"
        assert run_cli(
            "bench", "--algos", "bso", "--problems", "F16", "--trials", "3",
            "--iters", "1000", "--pop", "50", "--seed", "0", "--out", str(out),
        ) == 0
        doc = json.loads((out / "report.json").read_text())
        assert abs(doc["cells"]["F16"]["bso"]["ave"] - (-1.0316)) <= 1e-3

    def test_bad_thread_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BSO_THREADS", "lots")
        code = run_cli(
            "bench", "--algos", "bso", "--problems", "F1", "--trials", "2",
            "--iters", "5", "--pop", "5", "--out", str(tmp_path / "rep"),
        )
        assert code == 2
        assert "BSO_THREADS must be a positive integer, got 'lots'" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_list_catalog(self, capsys):
        assert run_cli("bench", "--list") == 0
        entries = json.loads(capsys.readouterr().out)
        ids = [e["id"] for e in entries]
        assert len(ids) == 25
        assert "F1" in ids and "F23" in ids and "PV" in ids and "HB" in ids
        f5 = next(e for e in entries if e["id"] == "F5")
        assert (f5["dim"], f5["lower"], f5["upper"], f5["fmin"]) == (30, -30.0, 30.0, 0.0)
        pv = next(e for e in entries if e["id"] == "PV")
        assert (pv["dim"], pv["lower"], pv["upper"], pv["fmin"]) == (
            4, [0.0625, 0.0625, 10.0, 10.0], [6.1875, 6.1875, 200.0, 200.0], None
        )


class TestConstrained:
    def test_small_run_reports(self, tmp_path, capsys):
        code = run_cli(
            "constrained", "--problem", "pv", "--iters", "150", "--pop", "20",
            "--trials", "3", "--seed", "0", "--out", str(tmp_path),
        )
        assert code in (0, 3)
        doc = json.loads((tmp_path / "constrained.json").read_text())
        assert doc["schema"] == "beetleswarm-constrained-v1"
        assert doc["problem"] == "PV"
        assert len(doc["best"]["x"]) == 4
        assert len(doc["best"]["g"]) == 4
        out = capsys.readouterr().out
        assert "x1=" in out and "g1=" in out

    def test_zero_iterations_never_crashes(self, capsys):
        code = run_cli("constrained", "--problem", "pv", "--iters", "0", "--pop", "10", "--trials", "2", "--seed", "1")
        assert code in (0, 3)

    def test_no_feasible_trial_exits_3(self, capsys):
        code = run_cli("constrained", "--problem", "hb", "--iters", "0", "--pop", "2", "--trials", "1", "--seed", "0")
        assert code == 3
        assert "HB: no feasible solution found in 1 trials; best infeasible point:" in capsys.readouterr().out

    def test_hb_small(self, capsys):
        code = run_cli("constrained", "--problem", "hb", "--iters", "120", "--pop", "20", "--trials", "2", "--seed", "0")
        assert code in (0, 3)
        assert "HB" in capsys.readouterr().out

    def test_bad_thread_count(self, capsys, monkeypatch):
        monkeypatch.setenv("BSO_THREADS", "-3")
        code = run_cli("constrained", "--problem", "pv", "--iters", "5", "--pop", "5", "--trials", "2")
        assert code == 2
        assert "BSO_THREADS must be a positive integer, got '-3'" in capsys.readouterr().err
        # one trial never pools, and the count is still checked
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("BSO_THREADS", "5")
        assert run_cli("constrained", "--problem", "pv", "--iters", "5", "--pop", "4", "--trials", "1") == 2
        assert "BSO_THREADS must not exceed the CPU count (4), got '5'" in capsys.readouterr().err

    def test_negative_base_seed_rejected(self, tmp_path, capsys):
        code = run_cli("constrained", "--problem", "hb", "--trials", "1", "--iters", "3", "--pop", "4",
                       "--seed", "-1", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "base_seed (--seed) must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_problem(self, capsys):
        for given, named in (("F1", "F1"), ("xx", "XX")):
            assert run_cli("constrained", "--problem", given, "--trials", "1", "--iters", "2") == 2
            assert f"unknown constrained problem '{named}' (choose from pv, hb)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value,expected",
        [(5, "config key 'problem' must be a string, got 5"), ("xx", "unknown constrained problem 'XX'")],
    )
    def test_bad_problem_in_config(self, tmp_path, capsys, value, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": value}))
        assert run_cli("constrained", "--config", str(cfg), "--iters", "3", "--pop", "4", "--trials", "1") == 2
        assert expected in capsys.readouterr().err


# each command with a file it writes into --out
OUT_CASES = pytest.mark.parametrize(
    "argv, written",
    [
        (("run", "--problem", "F16", "--iters", "2"), "curve.csv"),
        (("bench", "--problems", "F16", "--iters", "2", "--pop", "4", "--trials", "1"), "report.txt"),
        (("constrained", "--problem", "pv", "--iters", "2", "--pop", "4", "--trials", "1"), "constrained.json"),
    ],
    ids=["run", "bench", "constrained"],
)


class TestOutDir:
    @pytest.fixture
    def no_trial(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_one", fail)
        monkeypatch.setattr(cli, "run_one", fail)

    @OUT_CASES
    def test_out_naming_a_file_fails_before_any_trial(self, tmp_path, capsys, no_trial, argv, written):
        # mkdir used to fail only after every trial had run: traceback, exit 1, results lost
        target = tmp_path / "taken"
        target.write_text("")
        assert run_cli(*argv, "--out", str(target)) == 2
        assert f"cannot use {target} as the output directory" in capsys.readouterr().err

    @OUT_CASES
    def test_output_file_that_is_a_directory_fails_before_any_trial(self, tmp_path, capsys, no_trial, argv, written):
        # the write used to fail only after every trial had run: IsADirectoryError, exit 1, results lost
        (tmp_path / "od" / written).mkdir(parents=True)
        assert run_cli(*argv, "--out", str(tmp_path / "od")) == 2
        assert f"cannot write {tmp_path / 'od' / written}: it is a directory" in capsys.readouterr().err


class TestLookups:
    @pytest.mark.parametrize(
        "argv, looked_up",
        [
            (("run", "--problem", "f16", "--iters", "2", "--pop", "4"), ["f16"]),
            # two from the command, then run_matrix's own two, by the ids the command passes it
            (("bench", "--algos", "bso,pso", "--problems", "F16,F18", "--iters", "2", "--pop", "4", "--trials", "1"),
             ["F16", "F18", "F16", "F18"]),
            (("constrained", "--problem", "pv", "--iters", "2", "--pop", "4", "--trials", "1"), ["PV"]),
        ],
        ids=["run", "bench", "constrained"],
    )
    def test_each_problem_id_is_looked_up_once_per_command(self, tmp_path, monkeypatch, argv, looked_up):
        # run looked its problem up 3 times, constrained 2 and this bench 8: once more per config and per run
        calls = []
        get_problem = catalog.get_problem
        monkeypatch.setattr(catalog, "get_problem", lambda pid: calls.append(pid) or get_problem(pid))
        assert run_cli(*argv, "--out", str(tmp_path)) in (0, 3)
        assert calls == looked_up


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert run_cli() == 2
        assert "beetleswarm" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert run_cli("optimize") == 2


class TestReadme:
    def test_flag_table_matches_the_parser_table(self):
        # the README lists every row of cli.FLAGS, in order; a default must appear in the value cell
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = []
        for line in readme.splitlines():
            if line.startswith("| `--"):
                flag, key, commands, value = (cell.strip() for cell in line.strip("|").split("|"))
                commands = ("run", "bench", "constrained") if commands == "all" else tuple(commands.split(", "))
                rows.append((flag.strip("`"), key.strip("`"), commands, value))
        assert [row[:3] for row in rows] == [(f.flag, f.key, f.commands) for f in cli.FLAGS]
        for (flag, key, _, value), row in zip(rows, cli.FLAGS):
            if row.default not in (None, ""):
                assert f"default `{row.default}`" in value, (flag, key, value)
