import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import scenario_path
from test_scenario import MINIMAL
from wbgame import __version__, cli
from wbgame.cli import main
from wbgame.model import PARAMETER_NAMES, build_game, prune_zero
from wbgame.scenario import export_dot, load_scenario
from wbgame.solver import RISK_NAMES, solve

SRC = Path(__file__).resolve().parent.parent / "src"
TOL_COMMANDS = [["threshold", "--param", "w", "--lo", "0", "--hi", "1"], ["levers"]]
# (argv after --scenario baseline_noleak, stderr): arguments the library rejects
BAD_ARGUMENTS = [
    (["threshold", "--param", "qq", "--lo", "0", "--hi", "1"], "error: unknown parameter 'qq'"),
    (["sweep", "--param", "w", "--from", "0", "--to", "1", "--steps", "1"],
     "error: need at least 2 grid points, got 1"),
    (["simulate", "--n", "0", "--seed", "1"], "error: n must be >= 1, got 0"),
    (["sweep", "--param", "B", "--from=-inf", "--to", "0", "--steps", "3"],
     "error: grid bracket [-inf, 0.0] needs finite ends and a finite width"),
    (["threshold", "--param", "B", "--lo=-inf", "--hi", "10"],
     "error: grid bracket [-inf, 10.0] needs finite ends and a finite width"),
    (["threshold", "--param", "a", "--lo=-1e308", "--hi", "1e308"],
     "error: grid bracket [-1e+308, 1e+308] needs finite ends and a finite width"),
    # the bracket's ends are probed first, so the error names hi, not a grid point
    (["threshold", "--param", "x", "--lo", "0", "--hi", "1"], "error: x + y = 1.3 > 1"),
    # a risk coefficient is sweepable but not bracketable
    (["threshold", "--param", "risk_alice", "--lo", "-1", "--hi", "1"],
     "error: unknown parameter 'risk_alice'"),
    # the message names what the command accepts, the risk coefficients too
    (["sweep", "--param", "qq", "--from", "0", "--to", "1", "--steps", "3"],
     f"error: unknown parameter 'qq'; expected one of {PARAMETER_NAMES + RISK_NAMES}\n"),
]
# every command that solves the scenario, but sweep; each must exit 2 where
# Tom's risk transform overflows (sweep makes the point an error row)
OVERFLOW_COMMANDS = [
    ["solve"],
    ["levers"],
    ["validate"],
    ["simulate", "--n", "10", "--seed", "1"],
    ["export-tree", "--with-solution"],
    ["threshold", "--param", "w", "--lo", "0", "--hi", "1"],
]
# (argv after --scenario baseline, stderr): valid arguments with no answer
NO_ANSWERS = [
    (["threshold", "--param", "H", "--lo", "-4", "--hi", "-3.5"], "match at both ends"),
    (["levers"], "already solves to a leak"),
]


def overflow_scenario(tmp_path) -> str:
    """baseline.scn with D = 1000 and risk_tom = -1: it parses and validates;
    only Tom's transform of D + H = 997 overflows."""
    text = Path(scenario_path("baseline")).read_text().replace("D = 0.5", "D = 1000")
    path = tmp_path / "overflow.scn"
    path.write_text(text + "risk_tom = -1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, seconds=60):
    """Run the CLI in a child process, so a hang fails the test instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "wbgame.cli", *argv],
        capture_output=True, text=True, env=env, timeout=seconds,
    )


class TestSolve:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", scenario_path("baseline"))
        assert code == 0
        assert "root value" in out
        assert "# tool: wbgame" in out

    def test_json_output_parses(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--scenario", scenario_path("baseline"),
            "--format", "json", "--no-meta",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["root_value"]["alice"] == pytest.approx(1.88)
        assert "meta" not in payload

    def test_missing_scenario_file(self, capsys):
        code, _, err = run(capsys, "solve", "--scenario", "/no/such/file.scn")
        assert code == 2
        assert "error" in err

    def test_invalid_scenario_content(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("w = 2.0\n")
        code, _, err = run(capsys, "solve", "--scenario", str(bad))
        assert code == 2
        assert "missing required keys" in err or "outside" in err

    def test_unreadable_scenario_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--scenario", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno") and err.count("\n") == 1

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "levers", "--scenario", scenario_path("baseline_noleak"),
            "--out", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno") and err.count("\n") == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run(
            capsys, "solve", "--scenario", scenario_path("baseline"),
            "--format", "csv", "--out", str(target), "--no-meta",
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("terminal,class,")


class TestSweep:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--scenario", scenario_path("baseline"),
            "--param", "w", "--from", "0", "--to", "1", "--steps", "5", "--no-meta",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("w,valid,error,alice_leaks")
        assert len(lines) == 6

    def test_bad_steps(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--scenario", scenario_path("baseline"),
            "--param", "w", "--from", "0", "--to", "1", "--steps", "1",
        )
        assert code == 2

    def test_unknown_param(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--scenario", scenario_path("baseline"),
            "--param", "qq", "--from", "0", "--to", "1", "--steps", "3",
        )
        assert code == 2
        assert "unknown parameter" in err

    def test_risk_transform_overflow_is_an_error_row(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "sweep", "--scenario", overflow_scenario(tmp_path),
            "--param", "D", "--from", "0", "--to", "1000", "--steps", "3", "--no-meta",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["0.0", "true"], ["500.0", "true"], ["1000.0", "false"],
        ]
        assert rows[2].split(",")[2] == "risk transform overflows for v=997.0; alpha=-1.0"


class TestThreshold:
    def test_finds_flip(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--scenario", scenario_path("baseline_noleak"),
            "--param", "y", "--lo", "0", "--hi", "0.8", "--no-meta",
        )
        assert code == 0
        critical = float(next(l for l in out.splitlines() if l.startswith("critical")).split()[1])
        assert critical == pytest.approx(1 / 2.85, abs=1e-5)

    def test_unknown_parameter_message_lists_only_game_parameters(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--scenario", scenario_path("baseline_noleak"),
            "--param", "risk_alice", "--lo", "-1", "--hi", "1",
        )
        assert (code, err) == (
            2, f"error: unknown parameter 'risk_alice'; expected one of {PARAMETER_NAMES}\n",
        )

    def test_same_class_end_points_exit_3(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--scenario", scenario_path("baseline"),
            "--param", "H", "--lo", "-4", "--hi", "-3.5",
        )
        assert code == 3
        assert "match at both ends" in err


class TestLevers:
    def test_report_rows(self, capsys):
        code, out, _ = run(
            capsys, "levers", "--scenario", scenario_path("baseline_noleak"), "--no-meta"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lever,param,search_from,search_to,critical"
        assert len(lines) == 4
        assert any("no flip in range" in l for l in lines)

    def test_leaking_base_exit_3(self, capsys):
        code, _, err = run(capsys, "levers", "--scenario", scenario_path("baseline"))
        assert code == 3

    def test_hopeless_blocking_reports_no_flip(self, capsys, tmp_path):
        text = Path(scenario_path("baseline_noleak")).read_text()
        scn = tmp_path / "noblock.scn"
        scn.write_text(text.replace("B = -8 ", "B = -inf "))
        code, out, err = run(capsys, "levers", "--scenario", str(scn), "--no-meta")
        assert code == 0, err
        assert "publish-faster,B,-inf,-1000.0,no flip in range\n" in out


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--scenario", scenario_path("baseline"),
            "--n", "2000", "--seed", "9", "--no-meta",
        )
        assert code == 0
        assert "playouts: 2000" in out
        assert "class,frequency,stderr,solved_probability" in out

    def test_bad_n(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--scenario", scenario_path("baseline"),
            "--n", "0", "--seed", "9",
        )
        assert code == 2


class TestValidate:
    @pytest.mark.parametrize(
        "name", ["snowden", "baseline", "baseline_noleak", "weinstein_pre", "weinstein_post"]
    )
    def test_oracle_agrees(self, capsys, name):
        code, out, _ = run(
            capsys, "validate", "--scenario", scenario_path(name), "--no-meta"
        )
        assert code == 0
        assert "oracle agrees" in out

    def test_unmet_expected_outcome_exits_4(self, capsys, tmp_path):
        # MINIMAL solves to uncensored-anonymous at p = 0.48; blocked has p = 0
        path = tmp_path / "blocked.scn"
        path.write_text(MINIMAL + "expected_outcome = blocked\n")
        code, out, err = run(capsys, "validate", "--scenario", str(path), "--no-meta")
        assert code == 4
        assert out == ""
        assert "expected: blocked p=0.0" in err
        assert "modal:    uncensored-anonymous p=0.48" in err

    @pytest.mark.parametrize("expected", ["censored-anonymous", "uncensored-anonymous"])
    def test_expected_outcome_tied_for_the_top_passes(self, capsys, tmp_path, expected):
        # dyadic chances: both classes have p = 0.375 exactly, the top
        text = MINIMAL.replace("w = 0.6", "w = 0.75").replace("x = 0.2", "x = 0.5")
        text = text.replace("y = 0.3", "y = 0.25")
        path = tmp_path / "tied.scn"
        path.write_text(text + f"expected_outcome = {expected}\n")
        code, out, err = run(capsys, "validate", "--scenario", str(path), "--no-meta")
        assert (code, err) == (0, "")
        assert "oracle agrees" in out

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        # force the oracle to contradict the solver to exercise the failure path
        import wbgame.cli as cli_mod
        from wbgame.oracle import brute_force_spe

        def lying_oracle(tree, risk, ties):
            result = brute_force_spe(tree, risk, ties)
            wrong = dict(result.canonical)
            wrong[""] = "stay" if wrong[""] == "leak" else "leak"
            result.canonical = wrong
            return result

        monkeypatch.setattr(cli_mod.oracle, "brute_force_spe", lying_oracle)
        code, _, err = run(capsys, "validate", "--scenario", scenario_path("baseline"))
        assert code == 4
        assert "disagreement" in err


class TestThresholdValidation:
    def test_inverted_bracket_exits_2(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--scenario", scenario_path("baseline_noleak"),
            "--param", "w", "--lo", "1", "--hi", "0",
        )
        assert code == 2
        assert "error: invalid bracket [1.0, 0.0]" in err

    def test_bad_tol_exits_2(self, capsys):
        for command in TOL_COMMANDS:
            for tol in ("-1", "0", "nan", "inf"):
                code, _, err = run(
                    capsys, *command, "--scenario", scenario_path("baseline_noleak"),
                    "--tol", tol,
                )
                assert code == 2, (command, tol)
                assert "error: tol must be positive and finite" in err

    @pytest.mark.parametrize("argv,message", BAD_ARGUMENTS)
    def test_bad_argument_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--scenario", scenario_path("baseline_noleak"))
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("argv,message", NO_ANSWERS)
    def test_no_answer_exits_3(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--scenario", scenario_path("baseline"))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv", OVERFLOW_COMMANDS, ids=[a[0] for a in OVERFLOW_COMMANDS])
    def test_risk_transform_overflow_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--scenario", overflow_scenario(tmp_path), "--no-meta")
        assert (code, out) == (2, "")
        assert err == "error: risk transform overflows for v=997.0, alpha=-1.0\n"

    @pytest.mark.parametrize("command", TOL_COMMANDS)
    def test_tol_below_float_spacing_ends(self, command):
        proc = run_child(*command, "--scenario", scenario_path("baseline_noleak"),
                         "--tol", "1e-20", "--no-meta")
        assert proc.returncode == 0, proc.stderr
        assert "0.877192982456140" in proc.stdout


class TestExportTree:
    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "export-tree", "--scenario", scenario_path("baseline"), "--no-meta"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("[shape=") == 39

    def test_pruned_smaller(self, capsys):
        _, full, _ = run(
            capsys, "export-tree", "--scenario", scenario_path("weinstein_post"), "--no-meta"
        )
        _, pruned, _ = run(
            capsys, "export-tree", "--scenario", scenario_path("weinstein_post"),
            "--pruned", "--no-meta",
        )
        assert pruned.count("[shape=") < full.count("[shape=")

    def test_pruned_with_solution_solves_the_pruned_tree_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *a: calls.append(a) or solve(*a))
        _, out, _ = run(
            capsys, "export-tree", "--scenario", scenario_path("weinstein_post"),
            "--pruned", "--with-solution", "--no-meta",
        )
        scn = load_scenario(scenario_path("weinstein_post"))
        pruned = prune_zero(build_game(scn.parameters))
        assert len(calls) == 1
        assert out == export_dot(pruned, solve(pruned, scn.risk, scn.ties))

    def test_with_solution_highlights(self, capsys):
        _, out, _ = run(
            capsys, "export-tree", "--scenario", scenario_path("baseline"),
            "--with-solution", "--no-meta",
        )
        assert "penwidth=2.5" in out


class TestHarness:
    def test_help_exits_zero_and_lists_commands(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for cmd in ("solve", "sweep", "threshold", "levers", "simulate", "validate", "export-tree"):
            assert cmd in out

    def test_every_subcommand_help_documents_flags(self, capsys):
        flags = {
            "solve": ["--scenario", "--format", "--out", "--no-meta"],
            "sweep": ["--param", "--from", "--to", "--steps"],
            "threshold": ["--param", "--lo", "--hi", "--tol"],
            "levers": ["--tol"],
            "simulate": ["--n", "--seed"],
            "validate": ["--scenario"],
            "export-tree": ["--pruned", "--with-solution"],
        }
        for cmd, wanted in flags.items():
            code, out, _ = run(capsys, cmd, "--help")
            assert code == 0
            for flag in wanted:
                assert flag in out, (cmd, flag)

    def test_unknown_command_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_warnings_on_stderr(self, capsys, tmp_path):
        custom = tmp_path / "warn.scn"
        base = Path(scenario_path("baseline")).read_text().replace("H = -3", "H = 1")
        custom.write_text(base)
        code, _, err = run(capsys, "solve", "--scenario", str(custom), "--no-meta")
        assert code == 0
        assert "warning" in err

    def test_rerun_gives_identical_output(self, capsys):
        args = (
            "sweep", "--scenario", scenario_path("baseline"),
            "--param", "z", "--from", "0", "--to", "1", "--steps", "9", "--no-meta",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


REPRO_COMMANDS = [
    ("solve", "--format", "json"),
    ("solve", "--format", "csv"),
    ("solve", "--format", "text"),
    ("sweep", "--param", "w", "--from", "0", "--to", "1", "--steps", "7"),
    ("simulate", "--n", "3000", "--seed", "42"),
    ("validate",),
    ("export-tree", "--with-solution"),
]


@pytest.mark.parametrize("extra", REPRO_COMMANDS, ids=lambda e: "-".join(e))
def test_no_meta_outputs_are_byte_identical(capsys, extra):
    argv = [extra[0], "--scenario", scenario_path("baseline"), "--no-meta"] + list(extra[1:])
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_threshold_no_meta_byte_identical(capsys):
    argv = [
        "threshold", "--scenario", scenario_path("baseline_noleak"),
        "--param", "w", "--lo", "0", "--hi", "1", "--no-meta",
    ]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1.encode() == out2.encode()


def test_levers_no_meta_byte_identical(capsys):
    argv = ["levers", "--scenario", scenario_path("baseline_noleak"), "--no-meta"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1.encode() == out2.encode()


NOLEAK_PARAMETERS = (
    "w=0.75 x=0.2 y=0.3 z=0.85 a=-1.0 b=-2.0 c=-8.0 d=-1.0 e=5.0 f=4.0 g=-4.0 "
    "B=-8.0 C=2.0 D=0.4 E=-7.0 F=-5.0 G=-3.0 H=-0.5 I=-1.7 variant=standard"
)
# (argv after the command's own name, metadata lines after the shared ones)
HEADER_COMMANDS = [
    ("solve", [], []),
    ("sweep", ["--param", "w", "--from", "0", "--to", "1", "--steps", "2"], ["param: w"]),
    ("threshold", ["--param", "y", "--lo", "0", "--hi", "0.8"], []),
    ("levers", [], []),
    ("simulate", ["--n", "10", "--seed", "3"],
     ["n: 10", "seed: 3", "generator: random.Random (Mersenne Twister)"]),
    ("validate", [], []),
    ("export-tree", [], []),
]


def header_lines(command, scenario_label, parameters, risk, ties, extra):
    return [
        f"tool: wbgame {__version__}", f"command: {command}", f"scenario: {scenario_label}",
        f"parameters: {parameters}", f"risk: {risk}", f"ties: {ties}", *extra,
    ]


@pytest.mark.parametrize("command,argv,extra", HEADER_COMMANDS, ids=[c[0] for c in HEADER_COMMANDS])
def test_metadata_header_names_the_run(capsys, command, argv, extra):
    code, out, err = run(capsys, command, "--scenario", scenario_path("baseline_noleak"), *argv)
    assert (code, err) == (0, "")
    prefix = "// " if command == "export-tree" else "# "
    header = [l[len(prefix):] for l in out.splitlines() if l.startswith(prefix)]
    assert header[2].startswith("generated: ")
    del header[2]
    assert header == header_lines(
        command, "baseline-noleak", NOLEAK_PARAMETERS,
        "alice=0.0 tom=0.0", "alice=refrain tom=act", extra,
    )


def test_json_meta_names_an_unnamed_scenario_by_its_path(capsys, tmp_path):
    path = tmp_path / "unnamed.scn"
    path.write_text(MINIMAL + "risk_alice = 0.25\ntie_alice = act\ntie_tom = refrain\n")
    code, out, err = run(capsys, "solve", "--scenario", str(path), "--format", "json")
    assert (code, err) == (0, "")
    meta = json.loads(out)["meta"]
    assert meta.pop("generated")
    parameters = (
        "w=0.6 x=0.2 y=0.3 z=0.5 a=-1.0 b=-2.0 c=-8.0 d=-1.0 e=5.0 f=4.0 g=-4.0 "
        "B=-5.0 C=2.0 D=0.5 E=-5.0 F=-6.0 G=-3.0 H=-3.0 I=-2.5 variant=standard"
    )
    assert [f"{k}: {v}" for k, v in meta.items()] == header_lines(
        "solve", str(path), parameters, "alice=0.25 tom=0.0", "alice=act tom=refrain", [],
    )
