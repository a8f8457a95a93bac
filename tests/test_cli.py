"""Run-spec parsing, dispatch, report determinism, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import bellbench
from bellbench import DomainError, bell_expression
from bellbench.cli import (
    COMMANDS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    RunSpec,
    _build_parser,
    main,
    parse_angle,
    parse_grid,
    parse_phases,
    parse_runspec,
    parse_state,
    render_report,
    run,
)
from bellbench.optimize import StateFamily
from bellbench.polytope import facet_check
from bellbench.quantum import StateVector
from bellbench.scenario import Scenario

PI = np.pi
ROOT8 = 2 * np.sqrt(2)

FIXTURES = resources.files("bellbench") / "fixtures"


def fixture_path(name):
    return str(FIXTURES / name)


class TestParseAngle:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0", 0.0),
            ("0.5", 0.5),
            ("-1/12pi", -PI / 12),
            ("1/4pi", PI / 4),
            ("pi", PI),
            ("-pi", -PI),
            ("2pi", 2 * PI),
            ("pi/6", PI / 6),
            ("0.5pi", PI / 2),
            (" -5/12pi ", -5 * PI / 12),
        ],
    )
    def test_accepted(self, token, expected):
        assert abs(parse_angle(token) - expected) < 1e-15

    @pytest.mark.parametrize("token", ["", "pie", "1//2pi", "pi/0", "x"])
    def test_rejected(self, token):
        with pytest.raises(DomainError):
            parse_angle(token)

    @pytest.mark.parametrize("token", ["nan", "-nan", "inf", "-inf", "nanpi", "pi/nan", "1e308pi"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(DomainError, match="not finite"):
            parse_angle(token)


class TestParseState:
    def test_family_with_angles(self):
        state = parse_state("ghz_qubit:1/4pi", Scenario(3, 2))
        assert isinstance(state, StateVector)
        assert abs(state.amplitudes[0] - 1 / np.sqrt(2)) < 1e-12

    def test_family_without_angles(self):
        family = parse_state("w_state", Scenario(3, 2))
        assert isinstance(family, StateFamily)
        assert family.name == "w_state"

    def test_ghz_max(self):
        state = parse_state("ghz_max", Scenario(4, 2))
        assert abs(state.amplitudes[0] - 1 / np.sqrt(2)) < 1e-12

    def test_amplitudes(self):
        state = parse_state("amps:0.70711,0,0,0.70711", Scenario(2, 2))
        assert abs(state.amplitudes[0] - 1 / np.sqrt(2)) < 1e-5

    def test_amplitudes_must_be_near_unit(self):
        with pytest.raises(DomainError):
            parse_state("amps:1,0,0,1", Scenario(2, 2))

    def test_bad_descriptor(self):
        with pytest.raises(DomainError):
            parse_state("teleport:1", Scenario(3, 2))

    def test_family_wrong_angle_count(self):
        with pytest.raises(DomainError, match=r"needs 1 angles \(theta\), got 2"):
            parse_state("ghz_qubit:1,2", Scenario(3, 2))

    def test_family_wrong_scenario(self):
        with pytest.raises(DomainError):
            parse_state("ghz_qutrit:1,2", Scenario(3, 2))


class TestParsePhasesAndGrid:
    def test_phases(self):
        cfg = parse_phases("0,-1/12pi; 0,1/4pi; 0,-1/6pi; 0,1/3pi; 0,0; 0,1/6pi", Scenario(3, 2))
        assert abs(cfg.vector(1, 1)[1] + PI / 12) < 1e-15

    def test_phase_count_mismatch(self):
        with pytest.raises(DomainError):
            parse_phases("0,0; 0,0", Scenario(3, 2))

    def test_grid_product(self):
        grid = parse_grid("0,1;2,3")
        assert grid == [(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)]


class TestRunSpec:
    def test_round_trip(self):
        spec = RunSpec(command="classical", n=3, d=4, seed=7, starts=16)
        assert RunSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            RunSpec.from_json_dict({"command": "classical", "n": 3, "d": 2, "mode": "x"})

    def test_out_of_range_d(self):
        with pytest.raises(DomainError):
            RunSpec(command="classical", n=3, d=1)

    def test_csv_only_for_sweep(self):
        with pytest.raises(DomainError):
            RunSpec(command="classical", n=3, d=2, format="csv")

    def test_flag_overrides_file(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"command": "threshold", "violation": 2.5, "seed": 7}))
        spec = parse_runspec(["--config", str(config), "--seed", "9"])
        assert spec.seed == 9
        assert spec.violation == 2.5

    def test_cli_example(self):
        spec = parse_runspec(["classical", "--n", "3", "--d", "4"])
        assert spec.command == "classical"
        assert (spec.n, spec.d, spec.family) == (3, 4, "multipartite")

    def test_parser_flags_are_the_runspec_fields(self):
        dests = {action.dest for action in _build_parser()._actions}
        assert dests - {"help", "config"} == {f.name for f in fields(RunSpec)}

    @pytest.mark.parametrize(
        "values",
        [
            {"n": "3"},
            {"starts": "4"},
            {"threads": 2.5},
            {"d": True},
            {"tol": "1e-9"},
            {"violation": False},
            {"state": 5},
            {"no_timestamp": 1},
            {"seed": None},
        ],
        ids=lambda values: next(iter(values)),
    )
    def test_config_values_are_type_checked(self, values, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"command": "classical", "n": 3, "d": 2, **values}))
        assert main(["--config", str(config)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(values)) in err


class TestRunCommands:
    def test_classical(self):
        report = run(RunSpec(command="classical", n=3, d=3, no_timestamp=True))
        assert report["result"]["classical_max"] == "2"
        assert report["result"]["histogram"] == {"-4": 27, "-1": 432, "2": 270}
        assert report["diagnostics"]["iterations"] == 729

    def test_facet(self):
        report = run(RunSpec(command="facet", n=3, d=2, no_timestamp=True))
        assert report["result"]["is_facet"] is True
        assert report["result"]["dimension"] == 26

    def test_threshold(self):
        report = run(RunSpec(command="threshold", violation=2.8284271, no_timestamp=True))
        assert abs(report["result"]["f_thr"] - 0.2928932) < 1e-6

    def test_violate_requires_explicit_phases(self):
        with pytest.raises(DomainError):
            run(RunSpec(command="violate", n=3, d=2, state="ghz_qubit:1/4pi", phases="optimize"))

    def test_reduce(self):
        report = run(RunSpec(command="reduce", n=3, d=3, no_timestamp=True))
        assert report["result"]["classical_max"] == "2"
        assert report["result"]["terms"] == [["11", 1], ["12", 1], ["21", 1], ["22", -1]]

    def test_mermin(self):
        spec = RunSpec(
            command="mermin",
            state="amps:1,0,0,0,0,0,0,0",
            starts=8,
            seed=1,
            no_timestamp=True,
        )
        report = run(spec)
        assert abs(report["result"]["mermin_max"] - 2.0) < 1e-6

    def test_optimize_and_seesaw(self):
        spec = RunSpec(
            command="optimize", n=3, d=2, state="ghz_qubit:1/4pi",
            starts=4, seed=1, no_timestamp=True,
        )
        report = run(spec)
        assert report["result"]["best_value"] >= ROOT8 - 1e-3
        spec = RunSpec(command="seesaw", n=2, d=2, starts=2, seed=1, no_timestamp=True)
        report = run(spec)
        assert report["result"]["best_value"] >= ROOT8 - 1e-3

    def test_report_embeds_spec(self):
        spec = RunSpec(command="threshold", violation=4.0, no_timestamp=True)
        report = run(spec)
        assert report["spec"] == spec.to_json_dict()

    def test_sweep_csv(self):
        spec = RunSpec(
            command="sweep", n=3, d=2, state="ghz_qubit", grid="1/8pi,1/4pi",
            starts=3, seed=2, no_timestamp=True,
        )
        report = run(spec)
        text = render_report(spec, report)
        lines = text.strip().split("\n")
        assert lines[0] == "theta,best_value,converged"
        assert len(lines) == 3


class TestMainEntry:
    def test_fixture_files_give_reported_values(self):
        targets = {
            "ghz3_qubit.json": ROOT8,
            "ghz4_qubit.json": ROOT8,
            "ghz5_qubit.json": ROOT8,
            "ghz3_qutrit.json": 2.915,
        }
        for name, target in targets.items():
            out = json.loads(_capture(["--config", fixture_path(name), "--no-timestamp"]))
            tolerance = 2e-3 if name == "ghz3_qutrit.json" else 1e-9
            assert abs(out["result"]["bell_value"] - target) < tolerance, name

    def test_byte_identical_reports(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["seesaw", "--n", "2", "--d", "2", "--starts", "2", "--seed", "3",
                "--no-timestamp", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first
        result = json.loads(first)["result"]
        assert 0 <= result["converged_starts"] <= 2
        assert len(result["trajectories"]) == 2
        assert all(len(t) >= 2 for t in result["trajectories"])

    def test_non_finite_sweep_point_writes_no_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n", "3", "--d", "2", "--state", "ghz_qubit",
                "--grid", "nan,1/4pi", "--starts", "2", "--out", str(out)]
        assert main(argv) == EXIT_DOMAIN
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err

    def test_threads_do_not_change_report(self, tmp_path):
        # the report embeds the resolved spec, so compare result sections only
        out = tmp_path / "report.json"
        base = ["optimize", "--n", "3", "--d", "2", "--state", "ghz_qubit:0.5",
                "--starts", "4", "--seed", "5", "--no-timestamp", "--out", str(out)]
        assert main(base + ["--threads", "1"]) == EXIT_OK
        first = json.loads(out.read_text())
        assert main(base + ["--threads", "4"]) == EXIT_OK
        second = json.loads(out.read_text())
        assert first["result"] == second["result"]
        assert first["diagnostics"] == second["diagnostics"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--state", "ghz_qubit:1/4pi"],
            ["sweep", "--state", "ghz_qubit", "--grid", "1/4pi"],
        ],
    )
    def test_negative_seed_exits_cleanly(self, argv, capsys):
        argv = argv + ["--n", "3", "--d", "2", "--starts", "2", "--seed", "-1"]
        assert main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err

    def test_domain_error_exit(self, capsys):
        assert main(["classical", "--n", "3", "--d", "1"]) == EXIT_DOMAIN
        assert "error" in capsys.readouterr().err

    def test_eight_qutrit_classical_report(self, tmp_path):
        # 3**16 strategies, reported from the two-party scan
        out = tmp_path / "report.json"
        argv = ["classical", "--n", "8", "--d", "3", "--no-timestamp", "--out", str(out)]
        assert main(argv) == EXIT_OK
        result = json.loads(out.read_text())["result"]
        assert result["classical_max"] == "2"
        assert result["argmax_index"] == 0
        assert sum(result["histogram"].values()) == 3**16

    @pytest.mark.parametrize("n,d,rank", [(5, 4, 16805), (6, 3, 15623)])
    def test_facet_report_past_a_dense_gram(self, n, d, rank, tmp_path):
        # D + 1 = 7**5 and 5**6: a dense Gram matrix of the saturating rows
        # would take about 2 GiB
        out = tmp_path / "report.json"
        argv = ["facet", "--n", str(n), "--d", str(d), "--no-timestamp", "--out", str(out)]
        assert main(argv) == EXIT_OK
        result = json.loads(out.read_text())["result"]
        assert result["is_facet"] is True
        assert result["affine_rank"] == rank == result["dimension"] - 1

    def test_facet_at_forty_qutrits_certifies(self, tmp_path):
        # (2d-1)**N = 5**40 frequencies, certified by the zero coset's 25-wide block
        out = tmp_path / "report.json"
        start = time.perf_counter()
        assert main(["facet", "--n", "40", "--d", "3", "--no-timestamp", "--out", str(out)]) == EXIT_OK
        assert time.perf_counter() - start < 1
        result = json.loads(out.read_text())["result"]
        assert result["is_facet"] is True
        assert result["affine_rank"] == 5**40 - 2 == result["dimension"] - 1
        two_party = facet_check(bell_expression(2, 3)).saturating_count
        assert result["saturating_count"] == two_party * 3**76

    def test_classical_report_counts_exactly_past_int64(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["classical", "--n", "40", "--d", "3", "--no-timestamp", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["result"]["classical_max"] == "2"
        assert sum(report["result"]["histogram"].values()) == 3**80
        assert report["diagnostics"]["iterations"] == 3**80

    def test_budget_bounds_the_two_party_scan(self, tmp_path):
        # 6**3 = 216 scanned strategies, not the 6**10 of the five-party space
        out = tmp_path / "report.json"
        argv = ["classical", "--n", "5", "--d", "6", "--budget", "1296", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert json.loads(out.read_text())["result"]["classical_max"] == "2"

    def test_budget_bounds_the_zero_coset_block(self, tmp_path, capsys):
        # the certificate's d shift blocks hold (4d-3)**2 + (d-1)(4d-4)**2
        # entries: 15 682 393 at d = 100, 1 313 at d = 5
        out = tmp_path / "report.json"
        start = time.perf_counter()
        argv = ["facet", "--n", "2", "--d", "100", "--out", str(out)]
        assert main([*argv, "--budget", "15682392"]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 1
        assert "zero-coset block" in capsys.readouterr().err
        argv = ["facet", "--n", "3", "--d", "5", "--out", str(out)]
        assert main([*argv, "--budget", "1312"]) == EXIT_RESOURCE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("resource error: ")
        assert main([*argv, "--budget", "1313"]) == EXIT_OK
        assert json.loads(out.read_text())["result"]["is_facet"] is True

    def test_resource_error_exit(self, capsys):
        # the scan reads the 6**3 = 216 strategies of the two-party slice
        argv = ["classical", "--n", "5", "--d", "6", "--no-timestamp"]
        assert main([*argv, "--budget", "215"]) == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("resource error: ")
        assert main([*argv, "--budget", "216"]) == EXIT_OK

    def test_seesaw_past_the_operator_cap_exits_resource(self, tmp_path, capsys):
        # the cap guards the phase search on a fixed state as well
        out = tmp_path / "report.json"
        for argv in (
            ["seesaw", "--n", "10", "--d", "3"],
            ["optimize", "--n", "12", "--d", "3", "--state", "ghz_max", "--starts", "1"],
        ):
            assert main([*argv, "--out", str(out)]) == EXIT_RESOURCE
            assert not out.exists()
            assert capsys.readouterr().err.startswith("resource error: ")

    def test_unknown_flag_maps_to_domain_exit(self, capsys):
        assert main(["classical", "--n", "3", "--d", "2", "--frobnicate"]) == EXIT_DOMAIN

    def test_missing_command(self, capsys):
        assert main(["--n", "3"]) == EXIT_DOMAIN

    def test_csv_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--n", "3", "--d", "2", "--state", "ghz_qubit",
            "--grid", "1/4pi", "--starts", "2", "--seed", "1",
            "--no-timestamp", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        assert out.read_text().startswith("theta,best_value,converged\n")


class TestParserReuse:
    def test_two_main_calls_build_one_parser(self, monkeypatch):
        _build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(2):
            assert main(["threshold", "--violation", "2.5", "--no-timestamp"]) == EXIT_OK
        assert len(built) == 1

    def test_flags_do_not_carry_into_the_next_call(self):
        first = parse_runspec(["threshold", "--violation", "2.5", "--seed", "5", "--no-timestamp"])
        assert (first.seed, first.no_timestamp) == (5, True)
        second = parse_runspec(["threshold", "--violation", "2.5"])
        assert (second.seed, second.no_timestamp) == (0, False)

    def test_argparse_error_leaves_the_next_report_unchanged(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["mermin", "--state", "amps:1,0,0,0,0,0,0,0", "--starts", "4", "--seed", "1",
                "--no-timestamp", "--out", str(out)]
        assert _fresh_run([argv]) == [EXIT_OK]
        fresh = out.read_bytes()
        out.unlink()
        assert main(argv) == EXIT_OK
        assert main(["classical", "--n", "x"]) == EXIT_DOMAIN
        assert "invalid int value" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == fresh


# Runs each argv through cli.main in a fresh interpreter in which importing
# scipy fails, and prints the exit codes.
_FRESH_RUN = """
import json, sys
sys.modules["scipy"] = None
from bellbench import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def _fresh_run(commands):
    src = str(Path(bellbench.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# The exact commands, and the searches with small settings; together they
# cover every command, the config fixture running "violate".
_EXACT_COMMANDS = [
    ["classical", "--n", "3", "--d", "3"],
    ["facet", "--n", "3", "--d", "2"],
    ["reduce", "--n", "3", "--d", "3"],
    ["threshold", "--violation", "2.8284271"],
    ["--config", fixture_path("ghz3_qubit.json")],
]
_SEARCHES = [
    ["optimize", "--n", "3", "--d", "2", "--state", "ghz_qubit:1/4pi"],
    ["seesaw", "--n", "2", "--d", "2"],
    ["sweep", "--n", "3", "--d", "2", "--state", "ghz_qubit", "--grid", "1/4pi"],
    ["mermin", "--state", "amps:1,0,0,0,0,0,0,0"],
]


class TestScipyLoading:
    """No command loads scipy, and no search starts a thread."""

    def test_exact_commands_never_load_scipy(self, tmp_path):
        assert len(_EXACT_COMMANDS) + len(_SEARCHES) == len(COMMANDS)
        commands = [argv + ["--out", str(tmp_path / f"{k}.out")]
                    for k, argv in enumerate(_EXACT_COMMANDS)]
        assert _fresh_run(commands) == [EXIT_OK] * len(commands)

    @pytest.mark.parametrize("argv", _SEARCHES, ids=lambda argv: argv[0])
    def test_searches_load_scipy(self, argv, tmp_path):
        # a search that imported scipy would fail here
        argv = argv + ["--starts", "2", "--seed", "1", "--out", str(tmp_path / "report")]
        assert _fresh_run([argv]) == [EXIT_OK]

    @pytest.mark.parametrize(
        "argv",
        [
            ["mermin", "--state", "amps:1,0,0,0,0,0,0,0"],
            ["optimize", "--n", "3", "--d", "3", "--state", "ghz_max"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_first_search_on_two_threads_matches_a_preloaded_run(self, argv, tmp_path):
        # the second run finds every module loaded by the first; the report
        # echoes the spec, so only its out entry may differ
        argv = argv + ["--starts", "8", "--seed", "3", "--threads", "2", "--no-timestamp"]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        runs = [argv + ["--out", str(cold)], argv + ["--out", str(warm)]]
        assert _fresh_run(runs) == [EXIT_OK, EXIT_OK]
        assert warm.read_bytes() == cold.read_bytes().replace(b"cold.json", b"warm.json")

    def test_searches_start_no_thread(self, tmp_path):
        # the report echoes the spec, so only its threads entry may differ
        out = tmp_path / "report.json"
        argv = ["optimize", "--n", "3", "--d", "3", "--state", "ghz_max",
                "--starts", "8", "--seed", "3", "--no-timestamp", "--out", str(out)]
        before = threading.active_count()
        reports = {}
        for threads in (8, 1):
            assert main(argv + ["--threads", str(threads)]) == EXIT_OK
            assert threading.active_count() == before
            reports[threads] = out.read_bytes()
        assert reports[8] == reports[1].replace(b'"threads": 1,', b'"threads": 8,')
        assert reports[8] != reports[1]


def _capture(argv):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == EXIT_OK
    return buffer.getvalue()
