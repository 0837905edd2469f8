import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from scipy.optimize import brentq

import energy_contracts
from energy_contracts import ScenarioConfig, __version__, cli, composition_table, default_gamma_grid, solver
from energy_contracts.cli import (
    CONTRACT_COLUMNS,
    CURVE_COLUMNS,
    SWEEP_COLUMNS,
    ConfigError,
    load_config,
    main,
    read_contract_csv,
    resolve_config,
)
from energy_contracts import feasibility
from energy_contracts.feasibility import DEFAULT_TOL, MAX_TYPES

LN2 = math.log(2.0)


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def solves_report(monkeypatch, **fields) -> None:
    """Make solver.solve, which the commands look up at call time, report `fields` on its real result."""
    real_solve = solver.solve
    monkeypatch.setattr(solver, "solve", lambda *args: real_solve(*args)._replace(**fields))


# the scenario fields that set the type ladder theta = G^2/a, each named when the ladder is refused
LADDER_FIELDS = ("path_loss_alpha", "ref_atten_db", "d_ms_range", "a_range")

# each integer field: the command that reads it, its section and its key
INTEGER_FIELDS = [
    ("solve", "scenario", "n_eaps"),
    ("solve", "scenario", "k_types"),
    ("solve", "scenario", "rng_seed"),
    ("sweep", "sweep", "gamma_steps"),
    ("curves", "curves", "probe_types"),
]


# each real field: the command that reads it, its section and its key (a range's for its low end)
REAL_FIELDS = [
    *(("solve", "scenario", key) for key in ("path_loss_alpha", "ref_atten_db", "eta", "bandwidth_hz", "noise_mw")),
    *(("solve", "scenario", key) for key in ("a_range", "d_ms_range", "d_as_range")),
    ("solve", "solve", "gamma"),
    ("solve", "solve", "tol"),
    ("sweep", "sweep", "gamma_min"),
    ("sweep", "sweep", "gamma_max"),
    ("curves", "curves", "gamma"),
]

# values no real field takes, by id: a null gamma takes its default from the scenario, so null is left out there
NON_REALS = {"true": True, "string": "0.5", "null": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "1e400": 10**400}


def field_run(tmp_path: Path, command: str, section: str, key: str, value) -> tuple[int, Path]:
    """(exit code, output directory) of `command` with the field set to value (a probe list's one entry, a
    range's low end)."""
    payload = {"scenario": {"n_eaps": 2, "k_types": 5}}
    if key == "probe_types":
        value = [value]
    elif key.endswith("_range"):
        value = [value, ScenarioConfig._field_defaults[key][1]]
    payload.setdefault(section, {})[key] = value
    out = tmp_path / "out"
    return main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]), out


class TestConfigHandling:
    def test_defaults_are_complete(self):
        cfg = resolve_config(None)
        assert cfg["scenario"]["k_types"] == 5
        assert cfg["sweep"]["gamma_steps"] == 9

    def test_missing_scenario_section(self, tmp_path):
        path = write_config(tmp_path, {"solve": {}})
        with pytest.raises(ConfigError, match="scenario"):
            resolve_config(load_config(path))

    def test_missing_required_field_named(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2}})
        with pytest.raises(ConfigError, match="scenario.k_types"):
            resolve_config(load_config(path))

    def test_unknown_field_named(self, tmp_path):
        path = write_config(
            tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "bandwith_hz": 1.0}}
        )
        with pytest.raises(ConfigError, match="bandwith_hz"):
            resolve_config(load_config(path))

    def test_unknown_section_named(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "plotting": {}})
        with pytest.raises(ConfigError, match="plotting"):
            resolve_config(load_config(path))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": {\n  "n_eaps": 2,,\n}}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config")
        assert not out.exists()

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            load_config(path)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="section 'solve' must be a JSON object"):
            resolve_config({"scenario": {"n_eaps": 2, "k_types": 5}, "solve": 3})

    def test_non_numeric_gamma_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "solve": {"gamma": "x"}})
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: solve.gamma 'x' is not a finite number\n"
        assert not out.exists()

    def test_cli_exit_code_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2}})
        out = tmp_path / "out"
        code = main(["solve", "--config", path, "--out", str(out)])
        assert code == 1
        assert "scenario.k_types" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_gamma_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "solve": {"gamma": math.nan}})
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        assert "solve.gamma" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_gamma_max_is_a_config_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "sweep": {"gamma_max": math.inf}}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 1
        assert "sweep.gamma_max" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_tol_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "solve": {"tol": math.nan}})
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "solve.tol" in capsys.readouterr().err
        assert main(["solve", "--out", str(tmp_path / "run")]) == 0
        contract = str(tmp_path / "run" / "contract.csv")
        assert main(["verify", "--config", path, "--contract", contract, "--out", str(tmp_path / "v")]) == 1
        assert "solve.tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "v").exists()

    @pytest.mark.parametrize(
        "command, section, key, value", [(*field, value) for field in INTEGER_FIELDS for value in (True, 2.7, "3")]
    )
    def test_non_integer_field_is_a_config_error(self, tmp_path, capsys, command, section, key, value):
        # one check, market._integer, and one message for every integer field
        code, out = field_run(tmp_path, command, section, key, value)
        assert code == 1
        err = capsys.readouterr().err
        named = {"gamma_steps": "sweep.gamma_steps", "probe_types": "curves.probe_types: probe type"}.get(key, key)
        assert err.startswith("config error:") and err.endswith(f"{named} {value!r} is not an integer\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            pytest.param(*field, value, id=f"{field[2]}-{name}")
            for field in REAL_FIELDS
            for name, value in NON_REALS.items()
            if not (value is None and field[2].startswith("gamma"))
        ],
    )
    def test_non_real_field_is_a_config_error(self, tmp_path, capsys, command, section, key, value):
        # one check, market._real, and one message for every real field: true and "0.5" were read as 1.0
        # and 0.5, and a gamma or tolerance of 10**400 ended in an OverflowError traceback
        code, out = field_run(tmp_path, command, section, key, value)
        assert code == 1
        err = capsys.readouterr().err
        named = f"{key}[0]" if key.endswith("_range") else key if section == "scenario" else f"{section}.{key}"
        assert err.startswith("config error:") and err.endswith(f"{named} {value!r} is not a finite number\n")
        assert not out.exists()

    def test_retired_power_unit_is_an_unknown_field(self, tmp_path, capsys):
        # removed in 0.8.0: q is carried in uW, and no utility depends on the unit
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "power_unit": "mW"}})
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: unknown field 'scenario.power_unit'\n"
        assert not out.exists()

    def test_integral_float_count_is_accepted(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2.0, "k_types": 5.0}})
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert len(read_rows(out / "contract.csv")) == 5

    def test_unconvertible_range_entry_names_its_field(self, tmp_path, capsys):
        # it was refused as "'<' not supported between instances of 'float' and 'str'"
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "a_range": ["a", 1.0]}})
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: invalid scenario: a_range[0] 'a' is not a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", INTEGER_FIELDS)
    def test_every_integer_field_reads_an_integral_float(self, tmp_path, command, section, key):
        assert field_run(tmp_path, command, section, key, 3.0)[0] == 0

    @staticmethod
    def _assert_solver_section_refused(tmp_path, capsys, command, key, value):
        # since 0.4.0 the whole section is unknown, whatever retired key it holds
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "solver": {key: value}})
        out = tmp_path / key
        assert main([command, "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: unknown section 'solver'\n"
        assert not out.exists()

    def test_retired_backtrack_keys_are_unknown_fields(self, tmp_path, capsys):
        # removed in 0.2.0 with the gradient-ascent line search they tuned
        for key, value in (("backtrack_beta", 0.5), ("backtrack_c", 1e-4)):
            self._assert_solver_section_refused(tmp_path, capsys, "solve", key, value)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_retired_init_q_is_an_unknown_field(self, tmp_path, capsys, command):
        # removed in 0.3.0: every solve starts at the mean-field point
        self._assert_solver_section_refused(tmp_path, capsys, command, "init_q", [1.0] * 5)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_retired_solver_keys_are_an_unknown_section(self, tmp_path, capsys, command):
        # removed in 0.4.0 with the section: the Newton stopping rule is the solver's constants
        for key, value in (("grad_tol", 1e-6), ("max_iters", 50)):
            self._assert_solver_section_refused(tmp_path, capsys, command, key, value)

    def test_defaults_come_from_the_records(self):
        cfg = resolve_config(None)
        assert cli._resolve("solve", cfg)["scenario"] == ScenarioConfig()
        assert cfg["solve"]["tol"] == DEFAULT_TOL
        assert cfg["sweep"]["gamma_steps"] == inspect.signature(default_gamma_grid).parameters["steps"].default

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "scenario",
        [
            {"a_range": [1e-320, 1.0]},
            {"a_range": [0.1, math.inf]},
            {"ref_atten_db": math.nan},
            {"path_loss_alpha": math.inf},
            {"bandwidth_hz": math.inf},
            {"d_ms_range": [0.5, 10.0]},
        ],
    )
    def test_out_of_domain_scenario_is_a_config_error(self, tmp_path, capsys, command, scenario):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, **scenario}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        # nothing reaches stderr ahead of the config error
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("ref_atten_db", [-4000.0, -2000.0])
    def test_overflowing_path_loss_names_the_field(self, tmp_path, capsys, command, ref_atten_db):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "ref_atten_db": ref_atten_db}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "ref_atten_db" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize(
        "scenario, named",
        [
            # theta = G^2/a underflows to 0
            ({"path_loss_alpha": 400}, LADDER_FIELDS),
            ({"d_ms_range": [5.0, 1e200]}, LADDER_FIELDS),
            ({"ref_atten_db": 4000}, LADDER_FIELDS),
            # one theta for all five types
            ({"d_ms_range": [5.0, 5.0], "a_range": [1.0, 1.0]}, LADDER_FIELDS),
            # W = bandwidth_hz / 1e6 underflows to 0, which would solve to the all-zero menu
            ({"bandwidth_hz": 1e-320}, ("bandwidth_hz",)),
            # theta from 1e-314 is subnormal, and its 1/theta would overflow in the solver
            ({"ref_atten_db": 1580}, LADDER_FIELDS),
        ],
    )
    def test_underflowing_ladder_or_bandwidth_names_the_fields(self, tmp_path, capsys, command, scenario, named):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, **scenario}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert all(field in lines[0] for field in named)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "curves"])
    def test_over_budget_table_is_a_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 10, "k_types": 20}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "20,030,010" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, field", [("solve", "solve.gamma"), ("sweep", "sweep.gamma_min")])
    @pytest.mark.parametrize("scenario, named", [({"eta": 0.0}, None), ({"noise_mw": math.inf}, "noise_mw")])
    def test_derived_gamma_must_be_positive(self, tmp_path, capsys, command, field, scenario, named):
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, **scenario}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and (named or field) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, named",
        [
            # one type has one count vector, but its table is built from N+1 log-factorials
            (["solve"], {"scenario": {"n_eaps": 20_000_000, "k_types": 1}}, "20,000,001 log-factorials"),
            (["sweep"], {"scenario": {"n_eaps": 2, "k_types": 5}, "sweep": {"gamma_steps": 10**13}}, "gamma_steps"),
            (
                ["sweep", "--gamma-steps", str(cli.MAX_GAMMA_STEPS + 1)],
                {"scenario": {"n_eaps": 2, "k_types": 5}},
                "sweep.gamma_steps",
            ),
        ],
    )
    def test_oversized_request_refused_before_allocating(self, tmp_path, capsys, argv, config, named):
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            assert main([*argv, "--config", path, "--out", str(out)]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert "types" not in err
        assert not out.exists()
        assert composition_table.cache_info().misses == 0
        assert peak < 1e6

    @pytest.mark.parametrize("n, k", [(2, 4000), (1, 100_000)])
    def test_wide_market_refused_before_allocating(self, tmp_path, capsys, n, k):
        # a few million split-table rows, but 4 and 83 GB of them and of the K x K Newton Hessian
        path = write_config(tmp_path, {"scenario": {"n_eaps": n, "k_types": k}})
        out = tmp_path / "out"
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            assert main(["solve", "--config", path, "--out", str(out)]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Newton Hessian" in err
        assert "K x K table" not in err  # over the type budget too, but the byte budget is checked first
        assert not out.exists()
        assert composition_table.cache_info()[:2] == (0, 0)  # no hits, no misses
        assert peak < 10e6

    def test_huge_market_refusal_names_the_budget(self, tmp_path, capsys):
        # its exact count, C(199999, 99999), has 60,203 digits: too many to format, and slow to form
        path = write_config(tmp_path, {"scenario": {"n_eaps": 100_000, "k_types": 100_000}})
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["solve", "--config", path, "--out", str(out)]) == 1
        assert time.perf_counter() - start < 0.1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "more than 10,000,000 count vectors" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "curves"])
    def test_type_budget_refuses_a_k_by_k_table(self, tmp_path, capsys, command):
        # N=1 passes the table and byte budgets up to 7,194 types: 118 MB of feasibility.json at 2,000
        path = write_config(tmp_path, {"scenario": {"n_eaps": 1, "k_types": MAX_TYPES + 1}})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"at most {MAX_TYPES:,} types, got 1,001" in err
        assert not out.exists()

    def test_sweep_writes_no_k_by_k_table(self):
        # so only the byte budget bounds it
        cfg = resolve_config({"scenario": {"n_eaps": 1, "k_types": MAX_TYPES + 1}})
        assert cli._resolve("sweep", cfg)["scenario"].k_types == MAX_TYPES + 1

    @pytest.mark.parametrize(
        "argv, section",
        [
            (["solve"], {"solve": {"gamma": 1e308}}),
            (["curves"], {"curves": {"gamma": 1e308}}),
            (["sweep", "--gamma-steps", "1"], {"sweep": {"gamma_min": 1e308, "gamma_max": 1e308}}),
        ],
    )
    def test_overflowing_gamma_is_a_config_error(self, tmp_path, capsys, argv, section):
        # gamma N q overflows at the solver's start: this warned and ran 10,000 iterations unconverged
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "bandwidth_hz": 1e9}, **section})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "overflows a float" in err
        assert not out.exists()

    def test_wide_ladder_is_not_built_before_the_budget_check(self):
        # a ScenarioConfig builds its K-type ladder: 72 MB of floats at a million types
        cfg = resolve_config({"scenario": {"n_eaps": 0, "k_types": 1_000_000}})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="Newton Hessian"):
                cli._resolve("solve", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestSolveCommand:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        rows = read_rows(out / "contract.csv")
        assert len(rows) == 5
        assert list(rows[0].keys()) == CONTRACT_COLUMNS
        assert [r["type_index"] for r in rows] == ["1", "2", "3", "4", "5"]
        report = json.loads((out / "feasibility.json").read_text())
        assert report["feasible"] is True
        assert all(report["self_reveal"])
        assert report["solver"]["converged"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["output_paths"]) == [
            "config_echo.json",
            "contract.csv",
            "feasibility.json",
        ]
        assert manifest["config_echo"]["scenario"]["k_types"] == 5

    def test_manifest_records_the_solve(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        (record,) = json.loads((out / "manifest.json").read_text())["solve"]["solve_results"]
        solver = json.loads((out / "feasibility.json").read_text())["solver"]
        assert record == {key: solver[key] for key in ("gamma", "iterations", "kkt_residual", "converged")}
        assert record["converged"] is True and record["iterations"] >= 1

    def test_ten_type_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 5, "k_types": 10}})
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "contract.csv")
        assert len(rows) == 10
        report = json.loads((out / "feasibility.json").read_text())
        assert report["feasible"] is True
        assert report["monotone_q"] and report["monotone_pi"]

    def test_single_type_matches_scalar_oracle(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 1}})
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        row = read_rows(out / "contract.csv")[0]
        theta, q = float(row["theta"]), float(row["q"])
        echo = json.loads((out / "config_echo.json").read_text())
        gamma = echo["solve"]["gamma"]
        n = 2
        # stationarity of log2(1 + gamma*n*q) - (n/theta) q^2
        oracle = brentq(
            lambda x: gamma / (LN2 * (1.0 + gamma * n * x)) - 2.0 * x / theta,
            0.0,
            theta * gamma,
            xtol=1e-16,
        )
        assert q == pytest.approx(oracle, rel=1e-6)

    def test_explicit_gamma_respected(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path,
            {"scenario": {"n_eaps": 2, "k_types": 3}, "solve": {"gamma": 0.2}},
        )
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "feasibility.json").read_text())
        assert report["solver"]["gamma"] == 0.2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENERGY_CONTRACTS_OUTDIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        assert main(["solve"]) == 0
        assert (tmp_path / "from_env" / "contract.csv").exists()

    def test_unconverged_solve_exits_2_with_its_files(self, tmp_path, capsys, monkeypatch):
        solves_report(monkeypatch, converged=False)
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 2
        assert "solver did not converge" in capsys.readouterr().err
        assert json.loads((out / "feasibility.json").read_text())["solver"]["converged"] is False
        assert len(read_rows(out / "contract.csv")) == 5

    def test_non_monotone_menu_exits_3_with_its_files(self, tmp_path, capsys, monkeypatch):
        solves_report(monkeypatch, monotone=False)
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 3
        assert "contract failed feasibility" in capsys.readouterr().err
        assert json.loads((out / "feasibility.json").read_text())["solver"]["monotone"] is False

    def test_unverifiable_menu_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        # the menu came from the solver, so a slack that is not finite is the solve's fault
        def refuse(*args):
            raise ValueError("the menu's utilities overflow a float, so its slacks are not finite")

        monkeypatch.setattr(feasibility, "verify_contract", refuse)
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_default_columns_and_ordering(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--gamma-steps", "4"]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 4
        assert list(rows[0].keys()) == SWEEP_COLUMNS
        for row in rows:
            complete = float(row["welfare_complete"])
            contract = float(row["welfare_contract"])
            linear = float(row["welfare_linear"])
            assert complete >= contract - 1e-8
            assert contract >= linear - 1e-8

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["sweep", "--out", str(out), "--gamma-min", "0.125", "--gamma-max", "0.125", "--gamma-steps", "1"]
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["gamma"]) == 0.125

    def test_repeat_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--gamma-steps", "3"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_manifest_records_each_solve(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--gamma-steps", "3"]) == 0
        records = json.loads((out / "manifest.json").read_text())["sweep"]["solve_results"]
        gammas = [float(row["gamma"]) for row in read_rows(out / "sweep.csv")]
        assert [r["gamma"] for r in records] == gammas
        for record in records:
            assert record["converged"] is True
            assert record["iterations"] >= 1
            assert 0.0 <= record["kkt_residual"] <= solver._GRAD_TOL

    def test_bad_range_rejected(self, tmp_path, capsys):
        code = main(
            ["sweep", "--out", str(tmp_path / "x"), "--gamma-min", "2.0", "--gamma-max", "1.0"]
        )
        assert code == 1
        assert "gamma range" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "_GRAD_TOL", 1e-14)
        monkeypatch.setattr(solver, "_MAX_ITERS", 1)
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}})
        out = tmp_path / "x"
        # 10^2 and 10^4 times the reference gamma 0.125 take 3 and 5 iterations from the mean-field start
        args = ["--gamma-min", "12.5", "--gamma-max", "1250", "--gamma-steps", "2"]
        code = main(["sweep", "--config", cfg, "--out", str(out), *args])
        assert code == 2
        assert "sweep aborted" in capsys.readouterr().err
        assert not out.exists()


class TestCurvesCommand:
    def test_probe_selection(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path,
            {"scenario": {"n_eaps": 5, "k_types": 10}, "curves": {"probe_types": [3, 6, 9]}},
        )
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "curves.csv")
        assert len(rows) == 30
        assert list(rows[0].keys()) == CURVE_COLUMNS
        for probe in (3, 6, 9):
            utilities = [float(r["utility"]) for r in rows if r["probe_type"] == str(probe)]
            assert len(utilities) == 10
            # own item peaks; the adjacent item below ties exactly by design
            assert utilities[probe - 1] >= max(utilities) - 1e-12

    def test_bottom_probe_peak_is_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path,
            {"scenario": {"n_eaps": 2, "k_types": 5}, "curves": {"probe_types": [1]}},
        )
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "curves.csv")
        assert len(rows) == 5
        own = [r for r in rows if r["item_index"] == "1"][0]
        assert float(own["utility"]) == 0.0

    def test_all_probes_by_default(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 4}})
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out / "curves.csv")) == 16

    def test_probe_out_of_range(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"scenario": {"n_eaps": 2, "k_types": 5}, "curves": {"probe_types": [6]}},
        )
        out = tmp_path / "x"
        code = main(["curves", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert "probe type" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_out_of_range_refused_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("curves solved before checking its probe types")

        monkeypatch.setattr(solver, "solve", no_solve)
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 20, "k_types": 8}, "curves": {"probe_types": [9]}})
        out = tmp_path / "x"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 1
        assert "probe type 9 outside 1..8" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_solve_exits_2_without_a_directory(self, tmp_path, capsys, monkeypatch):
        solves_report(monkeypatch, converged=False)
        out = tmp_path / "run"
        assert main(["curves", "--out", str(out)]) == 2
        assert "solver did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_solve(self, tmp_path):
        out = tmp_path / "run"
        assert main(["curves", "--out", str(out)]) == 0
        (record,) = json.loads((out / "manifest.json").read_text())["curves"]["solve_results"]
        assert set(record) == {"gamma", "iterations", "kkt_residual", "converged"}
        assert record["gamma"] == json.loads((out / "config_echo.json").read_text())["curves"]["gamma"]
        assert record["converged"] is True and record["iterations"] >= 1

    @pytest.mark.parametrize("probes", [["x"], 3, [math.inf], [2.7], [True]])
    def test_non_integer_probes_are_a_config_error(self, tmp_path, capsys, probes):
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "curves": {"probe_types": probes}})
        out = tmp_path / "x"
        assert main(["curves", "--config", cfg, "--out", str(out)]) == 1
        assert "config error: curves.probe_types" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_solver_output_verifies(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        verify_out = tmp_path / "verify"
        code = main(["verify", "--contract", str(out / "contract.csv"), "--out", str(verify_out)])
        assert code == 0
        report = json.loads((verify_out / "feasibility.json").read_text())
        assert report["feasible"] is True

    def test_tampered_contract_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        rows = read_rows(out / "contract.csv")
        rows[2]["pi"] = "0.0"  # wipe a middle reward: that type now pays to work
        tampered = tmp_path / "tampered.csv"
        with open(tampered, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CONTRACT_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        code = main(["verify", "--contract", str(tampered), "--out", str(tmp_path / "v")])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_bad_columns_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(["verify", "--contract", str(bad), "--out", str(tmp_path / "v")])
        assert code == 1

    @pytest.mark.parametrize("column", ["theta", "q", "pi"])
    def test_nan_cell_is_a_config_error(self, tmp_path, capsys, column):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        rows = read_rows(out / "contract.csv")
        rows[2][column] = "nan"
        bad = tmp_path / "nan.csv"
        with open(bad, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CONTRACT_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["verify", "--contract", str(bad), "--out", str(tmp_path / "v")]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            [(1e-10, 1e200, 0.0)],  # q^2/theta overflows
            [(1.0, 1.3e154, 0.0), (2.0, 0.0, 1.7e308)],  # finite utilities whose differences overflow
        ],
    )
    def test_overflowing_contract_is_a_config_error(self, tmp_path, capsys, rows):
        path = tmp_path / "overflow.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CONTRACT_COLUMNS)
            writer.writerows((i, *row) for i, row in enumerate(rows, start=1))
        out = tmp_path / "v"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--contract", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("past_budget", ["1001,1001.0,0.0,0.0", "1001,not a number,0.0,0.0"])
    def test_rows_past_the_type_budget_are_refused(self, tmp_path, capsys, past_budget):
        # the rows past the budget are not read: a malformed one gets the budget's message
        lines = ["type_index,theta,q,pi", *(f"{i},{i}.0,0.0,0.0" for i in range(1, MAX_TYPES + 1)), past_budget]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "v"
        assert main(["verify", "--contract", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"more than {MAX_TYPES:,} rows" in err
        assert not out.exists()
        path.write_text("\n".join(lines[:-1]) + "\n")
        profile, _ = read_contract_csv(path)
        assert profile.k == MAX_TYPES

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read contract"),
            ("type_index,theta,q,pi\n1,1.0,x,0.0\n", "bad numeric value"),
            ("type_index,theta,q,pi\n", "no contract rows"),
            # a short row ended in a TypeError from float(None), a long row's fifth cell was dropped, and a
            # type_index of x or 7 was read as row 1
            (
                "type_index,theta,q,pi\n1,1.0,0.5\n",
                r"contract.csv: line 2: expected 1,theta,q,pi, got \['1', '1.0', '0.5'\]$",
            ),
            ("type_index,theta,q,pi\n1,1.0,0.5,0.5,9\n", "line 2: expected 1,theta,q,pi, got .*'9'"),
            ("type_index,theta,q,pi\nx,1.0,0.5,0.5\n", r"line 2: expected 1,theta,q,pi, got \['x'"),
            ("type_index,theta,q,pi\n7,1.0,0.5,0.5\n", r"line 2: expected 1,theta,q,pi, got \['7'"),
            ("type_index,theta,q,pi\n1,1.0,0.5,0.5\n\n1,2.0,0.5,0.5\n", r"line 4: expected 2,theta,q,pi, got \['1'"),
            # a cell past the csv module's field size limit ended in a csv.Error traceback
            pytest.param(
                "type_index,theta,q,pi\n1," + "1" * 200_000 + ",0,0\n", "line 2: field larger than field limit", id="huge-cell"
            ),
        ],
    )
    def test_unreadable_contract_is_a_config_error(self, tmp_path, text, message):
        path = tmp_path / "contract.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            read_contract_csv(path)

    def test_read_contract_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        profile, contract = read_contract_csv(out / "contract.csv")
        assert profile.k == 5
        assert len(contract) == 5


class TestRoundTrip:
    def test_config_echo_reproduces_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        assert main(["solve", "--out", str(out_a)]) == 0
        echo = out_a / "config_echo.json"
        out_b = tmp_path / "b"
        assert main(["solve", "--config", str(echo), "--out", str(out_b)]) == 0
        assert (out_a / "contract.csv").read_bytes() == (out_b / "contract.csv").read_bytes()
        assert (out_a / "feasibility.json").read_bytes() == (out_b / "feasibility.json").read_bytes()

    def test_sweep_echo_reproduces_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        assert main(["sweep", "--out", str(out_a), "--gamma-steps", "3"]) == 0
        out_b = tmp_path / "b"
        assert main(["sweep", "--config", str(out_a / "config_echo.json"), "--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_curves_echo_reproduces_outputs(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 3, "k_types": 4}, "curves": {"probe_types": [2, 4.0]}})
        out_a = tmp_path / "a"
        assert main(["curves", "--config", cfg, "--out", str(out_a)]) == 0
        out_b = tmp_path / "b"
        assert main(["curves", "--config", str(out_a / "config_echo.json"), "--out", str(out_b)]) == 0
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()
        assert (out_a / "contract.csv").read_bytes() == (out_b / "contract.csv").read_bytes()

    def test_seed_override_lands_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config_echo"]["scenario"]["rng_seed"] == 99

    @pytest.mark.parametrize("command", ["solve", "sweep", "curves"])
    def test_scenario_is_echoed_as_checked(self, tmp_path, command):
        # integral floats are echoed as the ints the scenario runs on, and a range's entries as floats:
        # "rng_seed": 3.0 was written as "seed": 3.0. The echo and outputs match the integer config's
        exact = {"n_eaps": 2, "k_types": 5, "rng_seed": 3, "a_range": [0.1, 1.0]}
        loose = {"n_eaps": 2.0, "k_types": 5.0, "rng_seed": 3.0, "a_range": [0.1, 1]}
        steps = ["--gamma-steps", "2"] if command == "sweep" else []
        runs = []
        for name, scenario in (("exact", exact), ("loose", loose)):
            out = tmp_path / name
            config = write_config(tmp_path, {"scenario": scenario}, f"{name}.json")
            assert main([command, "--config", config, "--out", str(out), *steps]) == 0
            runs.append(out)
        manifest = json.loads((runs[1] / "manifest.json").read_text())
        assert manifest["seed"] == 3 and type(manifest["seed"]) is int
        assert '"seed": 3,' in (runs[1] / "manifest.json").read_text()
        for name in sorted({path.name for path in runs[0].iterdir()} - {"manifest.json"}):
            assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes(), name

    def test_verify_echoes_the_scenario_as_checked(self, tmp_path, capsys):
        # verify builds no ladder, but echoes each field as solve does: "rng_seed": 3.0 was recorded as "seed": 3.0
        assert main(["solve", "--out", str(tmp_path / "run")]) == 0
        contract = str(tmp_path / "run" / "contract.csv")
        config = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "rng_seed": 3.0, "a_range": [0.1, 1]}})
        out = tmp_path / "verify"
        assert main(["verify", "--config", config, "--contract", contract, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3 and type(manifest["seed"]) is int
        assert manifest["config_echo"]["scenario"]["a_range"] == [0.1, 1.0]
        assert '"seed": 3,' in (out / "manifest.json").read_text()
        config = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5, "eta": True}}, "eta.json")
        assert main(["verify", "--config", config, "--contract", contract, "--out", str(tmp_path / "v")]) == 1
        assert capsys.readouterr().err.endswith("config error: invalid scenario: eta True is not a finite number\n")
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_tol_is_echoed_as_checked(self, tmp_path, command):
        # the tolerance the run used: "tol": 1 ran as 1.0 but was echoed as 1
        assert main(["solve", "--out", str(tmp_path / "run")]) == 0
        config = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "solve": {"tol": 1}})
        contract = ["--contract", str(tmp_path / "run" / "contract.csv")] if command == "verify" else []
        out = tmp_path / "out"
        assert main([command, "--config", config, *contract, "--out", str(out)]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["solve"]["tol"] == 1.0 and type(echo["solve"]["tol"]) is float

    def test_full_precision_floats(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        rows = read_rows(out / "contract.csv")
        for row in rows:
            value = float(row["q"])
            assert repr(value) == row["q"]  # round-trip exact


def refuse_menu(*args):
    raise ValueError("the menu's utilities overflow a float, so its slacks are not finite")


# every outcome path: its argv ({tmp} is the test's directory), what solve reports on its real result (None:
# verify_contract refuses the solved menu), the exit code and whether the path writes files
OUTCOMES = {
    "solve-ok": (["solve"], {}, 0, True),
    "solve-unconverged": (["solve"], {"converged": False}, 2, True),
    "solve-non-monotone": (["solve"], {"monotone": False}, 3, True),
    "solve-unverifiable": (["solve"], None, 2, False),
    "sweep-ok": (["sweep", "--gamma-steps", "2"], {}, 0, True),
    "sweep-aborted": (["sweep", "--gamma-steps", "2"], {"converged": False}, 2, False),
    "curves-ok": (["curves"], {}, 0, True),
    "curves-unconverged": (["curves"], {"converged": False}, 2, False),
    "verify-feasible": (["verify", "--contract", "{tmp}/feasible.csv"], {}, 0, True),
    "verify-infeasible": (["verify", "--contract", "{tmp}/infeasible.csv"], {}, 3, True),
    "config-error": (["solve", "--config", "{tmp}/missing.json"], {}, 1, False),
}


class TestOutputFiles:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_each_outcome_prints_one_line(self, tmp_path, capsys, monkeypatch, outcome):
        argv, reports, code, writes = OUTCOMES[outcome]
        (tmp_path / "feasible.csv").write_text("type_index,theta,q,pi\n1,1.0,0.0,0.0\n2,2.0,0.0,0.0\n")
        (tmp_path / "infeasible.csv").write_text("type_index,theta,q,pi\n1,1.0,1.0,0.0\n2,2.0,1.0,0.0\n")
        if reports is None:
            monkeypatch.setattr(feasibility, "verify_contract", refuse_menu)
        else:
            solves_report(monkeypatch, **reports)
        out = tmp_path / "out"
        assert main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)]) == code
        captured = capsys.readouterr()
        (line,) = (captured.out + captured.err).splitlines()
        assert (captured.out, captured.err) == ((f"{line}\n", "") if code == 0 else ("", f"{line}\n"))
        assert out.exists() == writes

    @pytest.mark.parametrize("command", ["solve", "sweep", "curves", "verify"])
    def test_directory_holds_exactly_the_manifest_outputs(self, tmp_path, command):
        args = [command, "--gamma-steps", "2"] if command == "sweep" else [command]
        if command == "verify":
            assert main(["solve", "--out", str(tmp_path / "run")]) == 0
            args += ["--contract", str(tmp_path / "run" / "contract.csv")]
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert "config_echo.json" in manifest["output_paths"]
        assert {path.name for path in out.iterdir()} == {*manifest["output_paths"], "manifest.json"}
        assert json.loads((out / "config_echo.json").read_text()) == manifest["config_echo"]

    @pytest.mark.parametrize("command", ["solve", "sweep", "curves"])
    def test_manifest_records_the_table(self, tmp_path, command):
        # N=3, K=4: C(6, 3) = 20 count vectors, summed over a split table read from composition_table(3, 3):
        # 10 rows of 3 uint8 counts and a float64 probability, which weigh the pairs themselves
        cfg = write_config(tmp_path, {"scenario": {"n_eaps": 3, "k_types": 4}})
        args = [command, "--gamma-steps", "2"] if command == "sweep" else [command]
        out = tmp_path / "out"
        composition_table.cache_clear()
        assert main(args + ["--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["table"] == {"rows": 20, "bytes": 10 * (3 + 8)}
        # the record is computed, not read from a second table lookup
        if command != "sweep":
            assert composition_table.cache_info().hits == 0


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def table_lookups(argv: list[str]) -> tuple[int, int]:
    """(misses, hits) of composition_table's cache over one CLI run from a cleared cache."""
    composition_table.cache_clear()
    assert main(argv) == 0
    info = composition_table.cache_info()
    return info.misses, info.hits


class TestTableLookups:
    """The lookups bench/run.py's traced runs depend on. They read compositions.cache_hit_ratio
    from composition_table's cache_info(), and each workload's idle list says which metrics read
    exactly 0: a hit on a solve or any lookup by verify fails every traced op. ROADMAP item 1
    moves these metrics onto a recorder; until then this pattern is pinned here."""

    @pytest.fixture(scope="class")
    def solve_large(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("solve-large")
        lookups = table_lookups(["solve", "--config", str(WORKLOADS / "solve-large.json"), "--out", str(out)])
        return lookups, out / "contract.csv"

    def test_solve_looks_the_table_up_once(self, solve_large):
        assert solve_large[0] == (1, 0)

    def test_sweep_builds_one_table_and_reuses_it(self, tmp_path):
        config = str(WORKLOADS / "sweep-mid.json")
        misses, hits = table_lookups(["sweep", "--config", config, "--out", str(tmp_path)])
        assert misses == 1 and hits >= 1

    def test_odd_k_sweep_looks_one_table_up(self, tmp_path):
        # K=7 splits into halves of 4 and 3 types, both read from one table
        config = write_config(tmp_path, {"scenario": {"n_eaps": 12, "k_types": 7}})
        misses, hits = table_lookups(["sweep", "--gamma-steps", "2", "--config", config, "--out", str(tmp_path / "out")])
        assert misses == 1 and hits >= 1
        assert composition_table.cache_info().currsize == 1

    def test_verify_looks_no_table_up(self, solve_large, tmp_path):
        config = str(WORKLOADS / "solve-large.json")
        argv = ["verify", "--config", config, "--contract", str(solve_large[1]), "--out", str(tmp_path)]
        assert table_lookups(argv) == (0, 0)


# runs cli.main on its arguments (none: only the import) and prints its exit code and which of numpy
# and dataclasses it loaded
IMPORT_PROBE = """
import sys
from energy_contracts import cli
try:
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as exc:
    code = exc.code
print(code, *sorted({"numpy", "dataclasses"} & set(sys.modules)))
"""


def import_probe(argv: list[str]) -> tuple[int, set[str]]:
    """(exit code, which of numpy and dataclasses were loaded) of a fresh interpreter that imports the
    package under test and runs argv."""
    src = Path(energy_contracts.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


class TestNumpyFreeCommands:
    """The feasibility checks are plain-float algebra: importing numpy would be most of a verify's wall
    time and memory. Only the commands that sum an expectation load it."""

    def test_importing_the_cli_loads_no_numpy(self):
        code, loaded = import_probe([])
        assert code == 0 and "numpy" not in loaded

    def test_importing_the_cli_loads_no_dataclasses(self):
        # its import pulls in inspect, ast, dis and tokenize: about 11 ms of every command's start-up
        code, loaded = import_probe([])
        assert code == 0 and "dataclasses" not in loaded

    def test_verify_loads_no_numpy(self, tmp_path):
        code, loaded = import_probe(["solve", "--out", str(tmp_path / "run")])
        assert code == 0 and "numpy" in loaded
        argv = ["verify", "--contract", str(tmp_path / "run" / "contract.csv"), "--out", str(tmp_path / "v")]
        code, loaded = import_probe(argv)
        assert code == 0 and "numpy" not in loaded
        assert json.loads((tmp_path / "v" / "feasibility.json").read_text())["feasible"] is True

    def test_help_and_config_errors_load_no_numpy(self, tmp_path):
        code, loaded = import_probe(["--help"])
        assert code == 0 and "numpy" not in loaded
        path = write_config(tmp_path, {"scenario": {"n_eaps": 2, "k_types": 5}, "solver": {}})
        code, loaded = import_probe(["solve", "--config", path, "--out", str(tmp_path / "x")])
        assert code == 1 and "numpy" not in loaded


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert version == __version__
