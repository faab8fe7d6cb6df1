import json
import math

import pytest
from hypothesis import given, strategies as st

from conftest import scenario_path
from wbgame.analysis import OutcomeClass
from wbgame.model import Variant, build_game
from wbgame.scenario import (
    Scenario,
    ScenarioError,
    export_dot,
    load_scenario,
    parse_scenario,
    render_result,
    render_scenario,
)
from wbgame.solver import RiskProfile, TiePolicy, TieRule, solve
from wbgame.tree import NEG_INF, Player, terminal

MINIMAL = """\
w = 0.6
x = 0.2
y = 0.3
z = 0.5
a = -1
b = -2
c = -8
d = -1
e = 5
f = 4
g = -4
B = -5
C = 2
D = 0.5
E = -5
F = -6
G = -3
H = -3
I = -2.5
"""


class TestParse:
    def test_minimal_gets_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.parameters.variant is Variant.STANDARD
        assert s.risk == RiskProfile(0.0, 0.0)
        assert s.ties == TiePolicy(TieRule.REFRAIN_ON_TIE, TieRule.ACT_ON_TIE)
        assert s.expected_outcome is None
        assert s.name == ""
        assert s.parameters.w == 0.6
        assert s.parameters.I == -2.5

    def test_comments_and_blank_lines_ignored(self):
        s = parse_scenario("# header\n\n" + MINIMAL.replace("w = 0.6", "w = 0.6  # trust"))
        assert s.parameters.w == 0.6

    def test_missing_key_reported(self):
        text = MINIMAL.replace("z = 0.5\n", "")
        with pytest.raises(ScenarioError, match="missing required keys: z"):
            parse_scenario(text)

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ScenarioError, match="line 2.*unknown key 'zz'"):
            parse_scenario("# hi\nzz = 4\n" + MINIMAL)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate key 'w'"):
            parse_scenario(MINIMAL + "w = 0.1\n")

    def test_syntax_error_has_position(self):
        err = None
        try:
            parse_scenario("w 0.6\n")
        except ScenarioError as exc:
            err = exc
        assert err is not None and err.line == 1

    def test_simplex_violation_message(self):
        text = MINIMAL.replace("x = 0.2", "x = 0.5").replace("y = 0.3", "y = 0.6")
        with pytest.raises(ScenarioError, match="x \\+ y"):
            parse_scenario(text)

    def test_simplex_boundary_rejected_at_parse_time(self):
        text = MINIMAL.replace("x = 0.2", "x = 0.5").replace("y = 0.3", "y = 0.500000001")
        with pytest.raises(ScenarioError, match=r"x \+ y = 1\.000000001 > 1"):
            parse_scenario(text)

    def test_probability_range_violation(self):
        with pytest.raises(ScenarioError, match="outside \\[0, 1\\]"):
            parse_scenario(MINIMAL.replace("w = 0.6", "w = 1.2"))

    def test_neg_inf_legal_only_for_B(self):
        ok = MINIMAL.replace("B = -5", "B = -inf")
        assert parse_scenario(ok).parameters.B == NEG_INF
        bad = MINIMAL.replace("C = 2", "C = -inf")
        with pytest.raises(ScenarioError, match="-inf is only legal for B"):
            parse_scenario(bad)

    def test_nan_and_plus_inf_rejected(self):
        for token in ("nan", "inf"):
            with pytest.raises(ScenarioError):
                parse_scenario(MINIMAL.replace("e = 5", f"e = {token}"))

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", ["risk_alice", "risk_tom"])
    def test_non_finite_risk_rejected_with_position(self, field, token):
        # MINIMAL is 19 lines, so the risk line is line 20; a value's column
        # is that of its first character, one past the space after "="
        with pytest.raises(ScenarioError, match=f"{field} must be finite") as info:
            parse_scenario(MINIMAL + f"{field} = {token}\n")
        column = len(field) + 4
        assert (info.value.line, info.value.column) == (20, column)
        assert str(info.value) == f"line 20, column {column}: {field} must be finite"

    def test_bad_number_reported_with_position(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario(MINIMAL.replace("w = 0.6", "w = zero"))

    @pytest.mark.parametrize("line, column, message", [
        ("risk_alice = abc", 14, "cannot parse number 'abc' for risk_alice"),
        ("expected_outcome = mystery", 20, "unknown outcome class 'mystery' (options: no-leak,"),
        ("name =", 7, "missing value for 'name'"),
    ])
    def test_bad_option_reported_with_position(self, line, column, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(MINIMAL + line + "\n")
        assert (info.value.line, info.value.column) == (20, column)
        assert str(info.value).startswith(f"line 20, column {column}: {message}")

    @pytest.mark.parametrize("text, line, column, message", [
        ("variant = sideways\n" + MINIMAL.replace("w = 0.6", "w = zero"),
         2, 5, "cannot parse number 'zero' for w"),
        (MINIMAL + "risk_alice = abc\nvariant = sideways\n", 21, 11,
         "unknown variant 'sideways' (options: standard, duncan-to-harry, alice-to-harry)"),
        (MINIMAL + "tie_alice = always\nrisk_tom = abc\n", 21, 12,
         "cannot parse number 'abc' for risk_tom"),
        (MINIMAL + "expected_outcome = mystery\ntie_tom = always\n", 21, 11,
         "tie_tom must be 'act' or 'refrain', got 'always'"),
    ], ids=["number-before-variant", "variant-before-risk", "risk-before-tie",
            "tie-before-expected-outcome"])
    def test_first_bad_value_in_check_order_is_reported(self, text, line, column, message):
        # the value checked first is on the later line, so file order would
        # report the other one
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"line {line}, column {column}: {message}"

    def test_option_parsing(self):
        text = MINIMAL + (
            "name = demo\nrisk_alice = 0.5\nrisk_tom = -0.25\n"
            "tie_alice = act\ntie_tom = refrain\nexpected_outcome = blocked\n"
        )
        s = parse_scenario(text)
        assert s.name == "demo"
        assert s.risk == RiskProfile(0.5, -0.25)
        assert s.ties == TiePolicy(TieRule.ACT_ON_TIE, TieRule.REFRAIN_ON_TIE)
        assert s.expected_outcome is OutcomeClass.BLOCKED

    def test_bad_tie_token(self):
        with pytest.raises(ScenarioError, match="'act' or 'refrain'"):
            parse_scenario(MINIMAL + "tie_tom = always\n")

    def test_bad_variant_token(self):
        with pytest.raises(ScenarioError, match="unknown variant"):
            parse_scenario(MINIMAL + "variant = sideways\n")

    def test_variant_forcing_enforced(self):
        with pytest.raises(ScenarioError, match="requires y = 1"):
            parse_scenario(MINIMAL + "variant = duncan-to-harry\n")

    def test_positive_cost_warning(self):
        s = parse_scenario(MINIMAL.replace("H = -3", "H = 2"))
        assert any("H = " in w for w in s.warnings)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.scn"
        with open(scenario_path("baseline"), encoding="utf-8") as fh:
            path.write_text("\ufeff" + fh.read(), encoding="utf-8")
        assert load_scenario(str(path)) == load_scenario(scenario_path("baseline"))

    def test_shipped_scenarios_parse(self):
        for name in ("baseline", "baseline_noleak", "snowden", "weinstein_pre", "weinstein_post"):
            s = load_scenario(scenario_path(name))
            assert s.expected_outcome is not None


class TestRoundTrip:
    def test_minimal_round_trip(self):
        s = parse_scenario(MINIMAL)
        assert parse_scenario(render_scenario(s)) == s

    def test_every_option_round_trips(self):
        text = MINIMAL.replace("w = 0.6", "w = 1").replace("x = 0.2", "x = 0")
        text = text.replace("y = 0.3", "y = 1").replace("B = -5", "B = -inf")
        s = parse_scenario(
            text + "variant = alice-to-harry\ntie_alice = act\ntie_tom = refrain\n"
        )
        assert s.parameters.variant is Variant.ALICE_TO_HARRY
        assert s.ties == TiePolicy(TieRule.ACT_ON_TIE, TieRule.REFRAIN_ON_TIE)
        rendered = render_scenario(s)
        for line in ("variant = alice-to-harry", "tie_alice = act", "tie_tom = refrain"):
            assert line in rendered.splitlines()
        assert parse_scenario(rendered) == s

    def test_render_without_options(self):
        assert render_scenario(parse_scenario(MINIMAL)) == (
            "w = 0.6\nx = 0.2\ny = 0.3\nz = 0.5\n"
            "a = -1.0\nb = -2.0\nc = -8.0\nd = -1.0\ne = 5.0\nf = 4.0\ng = -4.0\n"
            "B = -5.0\nC = 2.0\nD = 0.5\nE = -5.0\nF = -6.0\nG = -3.0\n"
            "H = -3.0\nI = -2.5\n"
        )

    def test_render_with_every_option_set(self):
        text = MINIMAL.replace("x = 0.2", "x = 0").replace("y = 0.3", "y = 1") + (
            "name = demo\nvariant = duncan-to-harry\nrisk_alice = 0.5\nrisk_tom = -0.25\n"
            "tie_alice = act\ntie_tom = refrain\nexpected_outcome = blocked\n"
        )
        assert render_scenario(parse_scenario(text)) == (
            "name = demo\n"
            "w = 0.6\nx = 0.0\ny = 1.0\nz = 0.5\n"
            "a = -1.0\nb = -2.0\nc = -8.0\nd = -1.0\ne = 5.0\nf = 4.0\ng = -4.0\n"
            "B = -5.0\nC = 2.0\nD = 0.5\nE = -5.0\nF = -6.0\nG = -3.0\n"
            "H = -3.0\nI = -2.5\n"
            "variant = duncan-to-harry\nrisk_alice = 0.5\nrisk_tom = -0.25\n"
            "tie_alice = act\ntie_tom = refrain\nexpected_outcome = blocked\n"
        )

    def test_shipped_files_round_trip(self):
        for name in ("baseline", "baseline_noleak", "snowden", "weinstein_pre", "weinstein_post"):
            s = load_scenario(scenario_path(name))
            assert parse_scenario(render_scenario(s)) == s

    @given(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0, max_value=0.5, allow_nan=False),
        st.floats(min_value=0, max_value=0.5, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.booleans(),
    )
    def test_random_round_trip(self, w, x, y, payoff, alpha, use_inf):
        text = MINIMAL.replace("w = 0.6", f"w = {w!r}")
        text = text.replace("x = 0.2", f"x = {x!r}").replace("y = 0.3", f"y = {y!r}")
        text = text.replace("e = 5", f"e = {payoff!r}")
        if use_inf:
            text = text.replace("B = -5", "B = -inf")
        text += f"risk_tom = {alpha!r}\n"
        s = parse_scenario(text)
        assert parse_scenario(render_scenario(s)) == s


class TestRenderResult:
    @pytest.fixture()
    def solved(self, baseline):
        tree = build_game(baseline.parameters)
        return tree, solve(tree, baseline.risk, baseline.ties)

    def test_csv_single_terminal(self):
        tree = terminal("no-leak", 0.0, 0.0)
        result = solve(tree)
        out = render_result(result, tree, "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "terminal,class,probability,alice_payoff,tom_payoff"
        assert len(lines) == 2
        assert lines[1].endswith("1.0,0.0,0.0")

    def test_csv_probabilities_sum_to_one(self, solved):
        tree, result = solved
        out = render_result(result, tree, "csv")
        rows = out.strip().splitlines()[1:]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert math.isclose(total, 1.0, abs_tol=1e-9)
        assert len(rows) == 21

    def test_json_round_trips_values(self, solved):
        tree, result = solved
        payload = json.loads(render_result(result, tree, "json"))
        assert payload["root_value"]["alice"] == pytest.approx(
            result.root_value[Player.ALICE], abs=1e-12
        )
        for nid, prob in result.outcome_distribution.items():
            assert payload["outcome_distribution"][nid] == pytest.approx(prob, abs=1e-12)
        assert payload["profile"] == result.profile

    def test_json_encodes_neg_inf_as_string(self):
        from wbgame.model import alice_to_harry
        from test_model import params

        tree = build_game(alice_to_harry(params()))
        result = solve(tree)
        out = render_result(result, tree, "json")
        assert "Infinity" not in out
        payload = json.loads(out)
        assert payload["node_values"]["leak/trust/block"]["tom"] == "-inf"

    def test_text_mentions_decisions_in_plain_words(self, solved):
        tree, result = solved
        out = render_result(result, tree, "text")
        assert "tom holds" in out
        assert "alice leaks" in out
        assert "root value" in out

    def test_meta_lines_prefixed(self, solved):
        tree, result = solved
        out = render_result(result, tree, "csv", meta={"tool": "wbgame x.y"})
        assert out.startswith("# tool: wbgame x.y\n")

    def test_unknown_format_rejected(self, solved):
        tree, result = solved
        with pytest.raises(ValueError, match="unknown format"):
            render_result(result, tree, "yaml")

    def test_deterministic_bytes(self, solved):
        tree, result = solved
        for fmt in ("text", "json", "csv"):
            assert render_result(result, tree, fmt) == render_result(result, tree, fmt)


class TestExportDot:
    def test_single_terminal(self):
        out = export_dot(terminal("no-leak", 0.0, 0.0))
        assert out.startswith("digraph")
        assert out.count("[shape=") == 1

    def test_standard_tree_node_and_edge_counts(self, baseline):
        tree = build_game(baseline.parameters)
        out = export_dot(tree)
        assert out.count("[shape=") == 39
        assert out.count("->") == 38

    def test_solution_styling_present(self, baseline):
        tree = build_game(baseline.parameters)
        result = solve(tree, baseline.risk, baseline.ties)
        out = export_dot(tree, result)
        assert out.count("penwidth=2.5") == len(result.profile)

    def test_pruned_variant_is_smaller(self):
        from wbgame.model import alice_to_harry, prune_zero
        from test_model import params

        full = build_game(alice_to_harry(params()))
        pruned = prune_zero(full)
        assert export_dot(pruned).count("[shape=") < export_dot(full).count("[shape=")

    def test_outcome_letters_attached(self, baseline):
        out = export_dot(build_game(baseline.parameters))
        assert "[b, B]" in out
        assert "[f, F]" in out
