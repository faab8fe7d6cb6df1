import math
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from conftest import sample_parameters, scenario_path
from test_model import params
import wbgame
from wbgame import analysis, model
from wbgame.analysis import (
    PRESCAN,
    AnalysisError,
    OutcomeClass,
    alice_leaks,
    class_distribution,
    classify_terminal,
    even_grid,
    find_threshold,
    grid_scan_flip,
    lever_report,
    outcome_support,
    simulate,
    sweep,
)
from wbgame.model import build_game
from wbgame.scenario import load_scenario
from wbgame.solver import RISK_NAMES, RiskProfile, TiePolicy, TieRule, solve
from wbgame.tree import Player, chance, decision, terminal, terminals


def passive_tom(**overrides):
    """Tom strictly prefers proceed/hold/drop everywhere; x = 0 clears the
    censored slice, so Alice's post-trust value is exactly e."""
    base = dict(x=0.0, y=0.3, B=-100.0, C=0.0, D=0.0, E=0.0, F=0.0, G=0.0, H=-1.0, I=-1.0)
    base.update(overrides)
    return params(**base)


@contextmanager
def rejects_argument(match=None):
    """A bad argument raises a plain ValueError, not the no-answer AnalysisError."""
    with pytest.raises(ValueError, match=match) as info:
        yield
    assert not isinstance(info.value, AnalysisError)


def test_classify_terminal():
    assert classify_terminal("no-leak") is OutcomeClass.NO_LEAK
    with pytest.raises(ValueError):
        classify_terminal("mystery")


def test_outcome_classes_are_the_model_s_terminal_labels():
    assert OutcomeClass is model.OutcomeClass is wbgame.OutcomeClass
    labels = {node.label for _, node in terminals(build_game(params()))}
    assert labels == {cls.value for cls in OutcomeClass}


def test_class_distribution_rejects_a_label_that_is_not_a_class():
    tree = chance("c", [("h", 0.5, terminal("no-leak", 0.0, 0.0)),
                        ("t", 0.5, terminal("mystery", 0.0, 0.0))])
    with pytest.raises(ValueError, match="terminal label 'mystery' is not an outcome class"):
        class_distribution(tree, solve(tree))


def test_class_distribution_sums_to_one(baseline):
    tree = build_game(baseline.parameters)
    result = solve(tree, baseline.risk, baseline.ties)
    dist = class_distribution(tree, result)
    assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-9)


class TestSweep:
    def test_leak_flag_flips_once_at_closed_form_point(self):
        # with a passive Tom the leak value is (1-w)a + w*e; a=-1, e=5 flips at 1/6
        p = passive_tom(a=-1.0, e=5.0)
        grid = [i / 100 for i in range(101)]
        table = sweep(p, "w", grid)
        flags = [row.alice_leaks for row in table.rows]
        flips = [i for i in range(100) if flags[i] != flags[i + 1]]
        assert len(flips) == 1
        assert grid[flips[0]] <= 1 / 6 <= grid[flips[0] + 1]

    def test_world_backing_tom_kills_uncensored_classes(self):
        table = sweep(params(y=0.0), "x", [0.0, 1.0])
        row = table.rows[1]
        assert row.valid
        for cls in (
            OutcomeClass.UNCENSORED_ANONYMOUS,
            OutcomeClass.UNCENSORED_IMPUNITY,
            OutcomeClass.UNCENSORED_JAILED,
        ):
            assert row.class_probabilities[cls] == 0.0

    def test_baseline_alice_value_monotone_in_z(self, baseline):
        grid = [i / 10 for i in range(11)]
        table = sweep(baseline.parameters, "z", grid)
        values = [row.root_alice for row in table.rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_invalid_grid_point_reported_not_fatal(self):
        table = sweep(params(x=0.2), "y", [0.0, 0.5, 0.9])
        assert [row.valid for row in table.rows] == [True, True, False]
        assert "x + y" in table.rows[2].error

    def test_grid_must_be_strictly_increasing(self):
        with rejects_argument():
            sweep(params(), "w", [0.5, 0.5])

    def test_unknown_parameter_rejected(self):
        # the message names what sweep accepts: the risk coefficients too
        with rejects_argument(match=r"unknown parameter 'q'; .*'I', 'risk_alice', 'risk_tom'\)$"):
            sweep(params(), "q", [0.0, 1.0])

    def test_empty_grid_rejected(self):
        with rejects_argument(match="empty grid"):
            sweep(params(), "w", [])

    @pytest.mark.parametrize("lo, hi", [
        (-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0),
    ])
    def test_grid_with_an_infinite_end_or_width_rejected(self, lo, hi):
        # the inner points would be NaN: even_grid(-inf, 0, 3) was [nan, nan, 0.0]
        with rejects_argument(match=r"grid bracket \[.*\] needs finite ends"):
            even_grid(lo, hi, 3)

    def test_nan_grid_value_rejected(self):
        with rejects_argument(match="strictly increasing"):
            sweep(params(), "w", [0.0, math.nan, 1.0])

    def test_explicit_grid_may_start_at_minus_infinity(self):
        table = sweep(params(), "B", [-math.inf, 0.0])
        assert [row.valid for row in table.rows] == [True, True]

    def test_rows_equal_independent_solves(self, baseline):
        grid = [0.1, 0.4, 0.9]
        table = sweep(baseline.parameters, "w", grid)
        for row in table.rows:
            tree = build_game(replace(baseline.parameters, w=row.value))
            result = solve(tree)
            assert row.root_alice == result.root_value[Player.ALICE]
            assert row.root_tom == result.root_value[Player.TOM]

    def test_point_whose_risk_transform_overflows_is_an_error_row(self, baseline):
        # Tom's transform of D + H = 997 at risk_tom = -1 overflows; the
        # rows at D = 0 and D = 500 stay
        table = sweep(baseline.parameters, "D", [0.0, 500.0, 1000.0], RiskProfile(tom=-1.0))
        assert [row.valid for row in table.rows] == [True, True, False]
        assert table.rows[2].error == "risk transform overflows for v=997.0, alpha=-1.0"

    @pytest.mark.parametrize("param", RISK_NAMES)
    def test_risk_rows_equal_direct_solves(self, param):
        # -1000 overflows as soon as one of the player's payoffs exceeds
        # about 0.71; no coefficient from -1 up can overflow on these draws
        grid = [-1000.0, -1.0, -0.25, 0.0, 0.5, 3.0]
        rng = random.Random(2021)
        overflows = 0
        for _ in range(25):
            p = sample_parameters(rng)
            risk = RiskProfile(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            table = sweep(p, param, grid, risk)
            assert table.param == param
            for row in table.rows:
                if param == "risk_alice":
                    direct = RiskProfile(row.value, risk.tom)
                else:
                    direct = RiskProfile(risk.alice, row.value)
                tree = build_game(p)
                try:
                    result = solve(tree, direct)
                except OverflowError as exc:
                    assert row.value == -1000.0
                    assert (row.valid, row.error) == (False, str(exc))
                    overflows += 1
                    continue
                assert row.valid
                got = (row.alice_leaks, row.root_alice, row.root_tom, row.class_probabilities)
                want = (alice_leaks(result), result.root_value[Player.ALICE],
                        result.root_value[Player.TOM], class_distribution(tree, result))
                assert repr(got) == repr(want)
        assert overflows > 0


class TestFindThreshold:
    def test_censored_pursuit_flip_at_D_minus_C(self):
        # flip governed by C + I >= D alone; Alice must leak on both sides so
        # the support change is visible
        p = params(w=1.0, x=1.0, y=0.0, a=0.0, c=3.0, d=2.0, C=1.0, D=0.25, B=-50.0, H=-1.0)
        report = find_threshold(p, "I", -2.0, 0.0, tol=1e-6)
        assert report.critical == pytest.approx(p.D - p.C, abs=2e-6)
        assert report.monotone

    def test_passive_tom_trust_flip_matches_closed_form(self):
        p = passive_tom(a=-1.0, e=5.0)
        report = find_threshold(p, "w", 0.0, 1.0, tol=1e-6)
        assert report.critical == pytest.approx(1 / 6, abs=1e-6)
        assert OutcomeClass.NO_LEAK in report.below_classes
        assert OutcomeClass.NO_LEAK not in report.above_classes

    def test_same_class_at_both_ends_is_an_error(self, baseline):
        # H in [-4, -3.5] never tips Tom into censoring on the baseline
        with pytest.raises(AnalysisError, match="match at both ends"):
            find_threshold(baseline.parameters, "H", -4.0, -3.5)

    def test_bad_bracket_rejected(self):
        with rejects_argument():
            find_threshold(params(), "w", 0.8, 0.2)
        with rejects_argument():
            find_threshold(params(), "w", 0.0, 1.0, tol=-1.0)
        with rejects_argument(match="tol must be positive"):
            find_threshold(params(), "w", 0.0, 1.0, tol=math.nan)
        with rejects_argument(match="tol must be positive and finite, got inf"):
            find_threshold(params(), "w", 0.0, 1.0, tol=math.inf)

    @pytest.mark.parametrize("param, lo, hi", [("B", -math.inf, 10.0), ("a", -1e308, 1e308)])
    def test_bracket_with_an_infinite_end_or_width_rejected(self, baseline, param, lo, hi):
        # rejected before any probe, whether or not the two ends' supports differ
        for base in (baseline.parameters, replace(baseline.parameters, w=0.0)):
            with rejects_argument(match=r"grid bracket \[.*\] needs finite ends"):
                find_threshold(base, param, lo, hi)

    def test_an_invalid_end_is_named(self, baseline_noleak):
        # the ends are probed before the grid's inner points, so the error
        # names hi (x + y = 1.3), not the first invalid grid point
        with rejects_argument(match=r"x \+ y = 1\.3 > 1"):
            find_threshold(baseline_noleak.parameters, "x", 0.0, 1.0)

    def test_each_point_is_probed_once(self, baseline_noleak, monkeypatch):
        base, point, seen = baseline_noleak.parameters, analysis._point, []

        def recording_point(b, param, value):
            seen.append(value)
            return point(b, param, value)

        monkeypatch.setattr(analysis, "_point", recording_point)
        find_threshold(base, "y", 0.0, 0.8)
        # 64 scan points, 14 bisection steps, then critical -/+ tol solved once each
        assert len(seen) == 80
        assert len(set(seen)) == len(seen)

    def test_flip_just_below_hi_is_in_the_last_scan_segment(self):
        # hi is the first float past the 1/6 flip; lo + 63 * (hi - lo) / 63
        # rounds to one float short of hi, so the grid must end at hi itself
        p = passive_tom(a=-1.0, e=5.0)
        lo, hi = 0.0075, 0.16666666666666669
        assert grid_scan_flip(p, "w", lo, hi, 64) == [(0.16414021164021167, hi)]
        report = find_threshold(p, "w", lo, hi, tol=1e-6)
        assert abs(report.critical - 1 / 6) <= report.tol
        assert OutcomeClass.NO_LEAK in report.below_classes
        assert OutcomeClass.NO_LEAK not in report.above_classes

    def test_tol_below_float_spacing_stops_at_adjacent_floats(self, baseline_noleak):
        # a tol below the float spacing must end at two adjacent floats
        p = baseline_noleak.parameters
        report = find_threshold(p, "w", 0.0, 1.0, tol=1e-20)
        assert report.critical == pytest.approx(1 / 1.14, abs=1e-15)
        # the stated accuracy is the bracket reached, one float spacing
        assert report.tol == math.ulp(report.critical) > 1e-20
        assert report.below_classes == find_threshold(p, "w", 0.0, 1.0).below_classes
        assert report.below_classes != report.above_classes

    def test_report_sides_reproduce_at_critical_plus_minus_tol(self, baseline_noleak):
        report = find_threshold(baseline_noleak.parameters, "y", 0.0, 0.8, tol=1e-6)
        p_lo = replace(baseline_noleak.parameters, y=report.critical - report.tol)
        p_hi = replace(baseline_noleak.parameters, y=report.critical + report.tol)
        t_lo = build_game(p_lo)
        t_hi = build_game(p_hi)
        assert outcome_support(t_lo, solve(t_lo)) == report.below_classes
        assert outcome_support(t_hi, solve(t_hi)) == report.above_classes
        assert report.lo <= report.critical <= report.hi

    def test_bisection_agrees_with_grid_scan(self, baseline_noleak):
        tol = 1e-6
        direct = find_threshold(baseline_noleak.parameters, "y", 0.0, 0.8, tol=tol)
        segments = grid_scan_flip(baseline_noleak.parameters, "y", 0.0, 0.8, 10_001)
        assert len(segments) == 1
        refined = find_threshold(baseline_noleak.parameters, "y", *segments[0], tol=tol)
        assert abs(direct.critical - refined.critical) <= 2 * tol

    @pytest.mark.parametrize(
        "ties", [TiePolicy(alice, tom) for alice in TieRule for tom in TieRule],
        ids=lambda t: f"alice-{t.alice.value}-tom-{t.tom.value}",
    )
    @pytest.mark.parametrize("name, tied, param, lo, hi, risk", [
        ("baseline_noleak", True, "w", 0.0, 1.0, RiskProfile(-0.4, 0.2)),
        ("baseline", True, "E", -10.0, 10.0, RiskProfile(-0.4, 0.2)),
        ("baseline", False, "w", 0.0, 1.0, RiskProfile(0.3, 0.0)),
        ("snowden", False, "I", -5.0, 0.0, RiskProfile(0.0, -0.5)),
    ])
    def test_bisection_agrees_with_grid_scan_under_risk_and_ties(
        self, name, tied, param, lo, hi, risk, ties
    ):
        base = load_scenario(scenario_path(name)).parameters
        if tied:  # Tom is indifferent about a censored pursuit: his tie rule picks the support
            base = replace(base, C=base.D, I=0.0)
        tol = 1e-6
        report = find_threshold(base, param, lo, hi, tol, risk, ties)
        first, last = grid_scan_flip(base, param, lo, hi, 401, risk, ties)[0]
        assert first - 2 * tol <= report.critical <= last + 2 * tol

    @pytest.mark.parametrize("param", ["q", "risk_alice"])
    def test_grid_scan_rejects_an_unknown_parameter(self, param):
        # a risk coefficient is not a game parameter: the message lists the 19 only
        with rejects_argument(match=rf"unknown parameter '{param}'; .*'H', 'I'\)$"):
            grid_scan_flip(params(), param, 0.0, 1.0, 5)

    def test_grid_scan_checks_its_grid_before_the_parameter(self):
        with rejects_argument(match="need at least 2 grid points, got 1"):
            grid_scan_flip(params(), "q", 0.0, 1.0, 1)


class TestLeverReport:
    def test_three_rows_on_shipped_no_leak_base(self, baseline_noleak):
        findings = lever_report(baseline_noleak.parameters)
        assert [f.param for f in findings] == ["B", "I", "w"]
        by_param = {f.param: f for f in findings}
        # hand-derived flip points for the shipped scenario
        assert by_param["w"].critical == pytest.approx(1 / 1.14, abs=1e-5)
        assert by_param["I"].critical == pytest.approx(-2.3, abs=1e-5)
        assert by_param["B"].critical is None  # tom already proceeds

    def test_blocking_base_gives_finite_critical_B(self):
        # Tom blocks (B above continuation value), blocked Alice stays quiet,
        # but the post-proceed subgame favours her: pushing B down flips her
        p = params(w=1.0, a=0.0, b=-1.0, x=0.0, y=1.0, z=1.0,
                   e=5.0, f=4.0, B=-1.0, E=-2.0, F=-9.0, G=-9.0, I=-3.0, H=-1.0)
        tree = build_game(p)
        result = solve(tree)
        assert result.profile["leak/trust"] == "block"
        assert not alice_leaks(result)
        findings = {f.param: f for f in lever_report(p)}
        assert findings["B"].critical is not None
        # flip happens where B meets Tom's continuation value
        u3 = result.node_values["leak/trust/proceed"][Player.TOM]
        assert findings["B"].critical == pytest.approx(u3, abs=1e-5)

    def test_trust_flip_just_below_one_is_found(self, baseline_noleak):
        # Alice leaks at w = 1 but not one float below it, and
        # start + 63 * (1 - start) / 63 rounds to 1 - 2**-53, so the scan
        # grid must end at 1 itself to see the flip
        start = 0.046381377257436185
        p = replace(baseline_noleak.parameters, w=start, B=100.0, b=1e-17)
        assert even_grid(start, 1.0, PRESCAN)[-1] == 1.0
        assert alice_leaks(solve(build_game(replace(p, w=1.0))))
        assert not alice_leaks(solve(build_game(replace(p, w=math.nextafter(1.0, 0.0)))))
        findings = {f.param: f for f in lever_report(p)}
        assert 1.0 - 1e-6 <= findings["w"].critical < 1.0

    def test_no_flip_reported_when_trust_cannot_help(self):
        # subgame value for Alice is negative everywhere, so no amount of
        # trust makes leaking attractive
        p = passive_tom(a=-1.0, e=-2.0, w=0.1)
        findings = {f.param: f for f in lever_report(p)}
        assert findings["w"].critical is None

    def test_leaking_base_is_an_error(self, baseline):
        with pytest.raises(AnalysisError, match="already solves to a leak"):
            lever_report(baseline.parameters)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_tol_must_be_positive(self, baseline_noleak, tol):
        with rejects_argument(match="tol must be positive"):
            lever_report(baseline_noleak.parameters, tol=tol)

    def test_tol_below_float_spacing_ends(self, baseline_noleak):
        findings = {f.param: f for f in lever_report(baseline_noleak.parameters, tol=1e-20)}
        assert findings["w"].critical == pytest.approx(1 / 1.14, abs=1e-15)
        assert findings["I"].critical == pytest.approx(-2.3, abs=1e-15)

    def test_hopeless_blocking_has_no_block_lever(self, baseline_noleak):
        # B = -inf is the block lever's limit, so there is nothing to scan
        p = replace(baseline_noleak.parameters, B=-math.inf)
        findings = lever_report(p)
        shipped = lever_report(baseline_noleak.parameters)
        assert findings[0].param == "B" and findings[0].critical is None
        assert [f.critical for f in findings[1:]] == [f.critical for f in shipped[1:]]

    def test_payoff_lever_below_the_floor_is_not_scanned_upward(self, baseline_noleak):
        # scanning up to the floor would make blocking (B) or pursuit (I)
        # more attractive to Tom, the opposite of each lever; both bases
        # flip Alice to leaking at -1500 on the way up
        base = baseline_noleak.parameters
        past_b = replace(base, B=-2000.0, C=-1500.0, D=-1500.0, E=-1500.0, F=-1500.0,
                         G=-1500.0, a=0.0, b=5.0, c=-50.0, d=-50.0, e=-50.0, f=-50.0,
                         g=-50.0)
        past_i = replace(base, I=-2000.0, C=1500.0, D=0.0, E=0.0, F=1500.0, G=1500.0,
                         c=5.0, d=-5.0, e=-5.0, f=5.0, g=5.0)
        for p, param in ((past_b, "B"), (past_i, "I")):
            finding = next(f for f in lever_report(p) if f.param == param)
            assert (finding.start, finding.end) == (-2000.0, -1000.0)
            assert finding.critical is None, param


class TestSimulate:
    def test_no_chance_nodes_is_deterministic(self):
        tree = decision(
            Player.ALICE, "root",
            [("a", terminal("no-leak", 1.0, 0.0)), ("b", terminal("no-trust", 0.0, 0.0))],
        )
        sim = simulate(tree, {"": "a"}, 500, seed=1)
        assert sim.terminal_counts == {"a": 500}
        assert sim.mean_payoffs[Player.ALICE] == 1.0
        assert sim.payoff_standard_errors[Player.ALICE] == 0.0

    def test_fair_coin_mean_within_five_standard_errors(self):
        tree = chance("flip", [("h", 0.5, terminal("no-leak", 1.0, 0.0)),
                               ("t", 0.5, terminal("no-trust", 0.0, 0.0))])
        sim = simulate(tree, {}, 100_000, seed=7)
        se = 0.5 / math.sqrt(100_000)
        assert abs(sim.mean_payoffs[Player.ALICE] - 0.5) < 5 * se

    def test_identical_seed_reproduces_exactly(self, baseline):
        tree = build_game(baseline.parameters)
        profile = solve(tree, baseline.risk, baseline.ties).profile
        a = simulate(tree, profile, 5_000, seed=42)
        b = simulate(tree, profile, 5_000, seed=42)
        assert a == b
        c = simulate(tree, profile, 5_000, seed=43)
        assert c.terminal_counts != a.terminal_counts

    def test_zero_probability_branches_never_sampled(self):
        tree = chance("c", [("dead", 0.0, terminal("no-leak", 0.0, 0.0)),
                            ("live", 1.0, terminal("no-trust", 1.0, 0.0))])
        sim = simulate(tree, {}, 2_000, seed=3)
        assert sim.terminal_counts == {"live": 2000}

    def test_frequencies_converge_toward_solved_distribution(self, baseline):
        tree = build_game(baseline.parameters)
        result = solve(tree, baseline.risk, baseline.ties)
        solved = class_distribution(tree, result)

        def total_error(n):
            sim = simulate(tree, result.profile, n, seed=11)
            return sum(abs(sim.class_frequencies[c] - solved[c]) for c in OutcomeClass)

        assert total_error(100_000) < total_error(1_000)

    def test_one_playout_has_no_payoff_standard_error(self):
        tree = chance("flip", [("h", 0.5, terminal("no-leak", 1.0, 0.0)),
                               ("t", 0.5, terminal("no-trust", 0.0, 0.0))])
        sim = simulate(tree, {}, 1, seed=7)
        assert sum(sim.terminal_counts.values()) == 1
        assert all(math.isnan(se) for se in sim.payoff_standard_errors.values())
        assert all(math.isnan(se) for se in sim.class_standard_errors.values())

    def test_n_must_be_positive(self, baseline):
        tree = build_game(baseline.parameters)
        with pytest.raises(ValueError):
            simulate(tree, solve(tree).profile, 0, seed=1)
