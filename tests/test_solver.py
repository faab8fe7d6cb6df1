import gc
import math
import random

import pytest
from hypothesis import given, strategies as st

from test_model import params
from wbgame.model import build_game
from wbgame.oracle import brute_force_spe
from wbgame.solver import (
    RiskProfile,
    TieRule,
    expected_utility,
    one_shot_violations,
    preferred_on_tie,
    risk_transform,
    solve,
)
from wbgame.tree import NEG_INF, Player, chance, decision, terminal

NEUTRAL = RiskProfile()


def test_strict_dominance_picks_better_action():
    tree = decision(
        Player.ALICE,
        "root",
        [("leak", terminal("t1", -1.0, 0.0)), ("stay", terminal("t2", 0.0, 0.0))],
    )
    result = solve(tree)
    assert result.profile == {"": "stay"}
    assert result.root_value == {Player.ALICE: 0.0, Player.TOM: 0.0}
    assert result.outcome_distribution == {"leak": 0.0, "stay": 1.0}


def test_tom_acts_on_tie():
    tree = decision(
        Player.TOM,
        "root",
        [("act", terminal("t1", 0.0, 5.0)), ("wait", terminal("t2", 0.0, 5.0))],
    )
    assert solve(tree).profile == {"": "act"}


def test_active_flag_beats_listing_order_on_tie():
    tree = decision(
        Player.TOM,
        "root",
        [("wait", terminal("t1", 0.0, 5.0)), ("act", terminal("t2", 0.0, 5.0))],
        active="act",
    )
    assert solve(tree).profile == {"": "act"}


def test_alice_refrains_on_tie():
    tree = decision(
        Player.ALICE,
        "root",
        [("leak", terminal("t1", 0.0, 0.0)), ("stay", terminal("t2", 0.0, 0.0))],
        active="leak",
    )
    assert solve(tree).profile == {"": "stay"}


def test_chance_values_are_weighted_averages():
    tree = chance("c", [("up", 0.5, terminal("a", 4.0, 1.0)), ("down", 0.5, terminal("b", -2.0, 3.0))])
    result = solve(tree)
    assert result.root_value[Player.ALICE] == pytest.approx(1.0)
    assert result.root_value[Player.TOM] == pytest.approx(2.0)


def test_zero_probability_branch_does_not_poison_average():
    tree = chance(
        "c",
        [("dead", 0.0, terminal("bad", 0.0, NEG_INF)), ("live", 1.0, terminal("ok", 1.0, 2.0))],
    )
    result = solve(tree)
    assert result.root_value[Player.TOM] == 2.0


def test_negative_infinity_is_absorbing_with_positive_probability():
    tree = chance(
        "c",
        [("l", 0.5, terminal("bad", 0.0, NEG_INF)), ("r", 0.5, terminal("ok", 1.0, 2.0))],
    )
    assert solve(tree).root_value[Player.TOM] == NEG_INF


def test_invalid_tree_rejected():
    tree = chance("c", [("a", 0.7, terminal("t", 0.0, 0.0))])
    with pytest.raises(ValueError, match="invalid tree"):
        solve(tree)


def test_non_finite_risk_rejected():
    tree = terminal("t", 0.0, 0.0)
    with pytest.raises(ValueError):
        solve(tree, RiskProfile(alice=float("nan")))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("player", ["alice", "tom"])
@pytest.mark.parametrize("entry", ["solve", "expected_utility", "brute_force_spe"])
def test_non_finite_risk_message_from_every_entry_point(entry, player, alpha):
    tree = build_game(params())
    risk = RiskProfile(**{player: alpha})
    calls = {
        "solve": lambda: solve(tree, risk),
        "expected_utility": lambda: expected_utility(tree, solve(tree).profile, risk),
        "brute_force_spe": lambda: brute_force_spe(tree, risk),
    }
    with pytest.raises(ValueError, match=r"^risk coefficient must be finite, got "):
        calls[entry]()


class TestRiskTransform:
    def test_zero_alpha_is_exact_identity(self):
        for v in (7.0, -3.25, 0.1 + 0.2):
            assert risk_transform(v, 0.0) is v or risk_transform(v, 0.0) == v

    def test_zero_payoff_maps_to_zero_for_any_alpha(self):
        for alpha in (-2.0, -1e-9, 1e-9, 3.0):
            assert risk_transform(0.0, alpha) == 0.0

    def test_unit_case_matches_independent_evaluation(self):
        # 1 - exp(-1) evaluated independently: 0.6321205588285577
        assert risk_transform(1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_negative_infinity_maps_to_itself(self):
        for alpha in (-1.0, 0.0, 1.0):
            assert risk_transform(NEG_INF, alpha) == NEG_INF

    def test_risk_averse_saturates_to_neg_inf(self):
        assert risk_transform(-1e6, 1.0) == NEG_INF

    def test_risk_seeking_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            risk_transform(1e6, -1.0)

    def test_result_past_the_float_range_is_an_error(self):
        # expm1(700) is finite, but dividing it by 1e-5 is not
        with pytest.raises(OverflowError, match="risk transform out of range for v=70000000.0"):
            risk_transform(7e7, -1e-5)

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ValueError):
            risk_transform(1.0, float("inf"))

    @pytest.mark.parametrize("alpha", [1e-12, -1e-12, 1e-17, -1e-17, 1e-300, -1e-300])
    def test_tiny_alpha_matches_risk_neutral_solve(self, baseline, alpha):
        # (1 - exp(-a*v)) / a cancels to 0 as a -> 0; the solve must not notice
        from wbgame.model import build_game

        tree = build_game(baseline.parameters)
        neutral = solve(tree)
        tiny = solve(tree, RiskProfile(alpha, alpha))
        assert tiny.profile == neutral.profile
        for p in (Player.ALICE, Player.TOM):
            assert tiny.root_value[p] == pytest.approx(neutral.root_value[p], rel=1e-9)

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]),
    )
    def test_monotone_non_decreasing(self, v1, v2, alpha):
        if v1 == v2:
            return
        lo, hi = sorted((v1, v2))
        assert risk_transform(lo, alpha) <= risk_transform(hi, alpha)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]),
    )
    def test_strictly_increasing_where_floats_resolve(self, v1, v2, alpha):
        # far out on the saturating tail the float image plateaus, so strict
        # growth is only assertable where the slope exceeds float resolution
        lo, hi = sorted((v1, v2))
        if hi - lo > 1e-6:
            assert risk_transform(lo, alpha) < risk_transform(hi, alpha)


class TestExpectedUtility:
    def test_certain_path_returns_terminal_payoff(self):
        tree = decision(Player.ALICE, "root", [("a", terminal("t", 3.0, -1.0)), ("b", terminal("u", 0.0, 0.0))])
        eu = expected_utility(tree, {"": "a"})
        assert eu == {Player.ALICE: 3.0, Player.TOM: -1.0}

    def test_lottery_average(self):
        tree = chance("c", [("h", 0.5, terminal("a", 4.0, 0.0)), ("t", 0.5, terminal("b", -2.0, 0.0))])
        assert expected_utility(tree, {})[Player.ALICE] == pytest.approx(1.0)

    def test_matches_solver_root_value(self, baseline):
        from wbgame.model import build_game

        tree = build_game(baseline.parameters)
        result = solve(tree, baseline.risk, baseline.ties)
        eu = expected_utility(tree, result.profile, baseline.risk)
        for p in (Player.ALICE, Player.TOM):
            assert eu[p] == pytest.approx(result.root_value[p], abs=1e-9)

    def test_profile_mismatch_raises(self):
        tree = decision(Player.ALICE, "root", [("a", terminal("t", 0.0, 0.0)), ("b", terminal("u", 0.0, 0.0))])
        with pytest.raises(ValueError):
            expected_utility(tree, {})


def test_preferred_on_tie_rules():
    assert preferred_on_tie(["wait", "act"], TieRule.ACT_ON_TIE, "act") == "act"
    assert preferred_on_tie(["wait", "act"], TieRule.ACT_ON_TIE, None) == "wait"
    assert preferred_on_tie(["act", "wait"], TieRule.REFRAIN_ON_TIE, "act") == "wait"
    assert preferred_on_tie(["act"], TieRule.REFRAIN_ON_TIE, "act") == "act"


# --- whole-solver properties on random whistleblowing games ------------------


def test_one_shot_deviation_property_random_games():
    from conftest import sample_parameters
    from wbgame.model import build_game

    rng = random.Random(7)
    for _ in range(50):
        tree = build_game(sample_parameters(rng))
        result = solve(tree)
        assert one_shot_violations(tree, result.profile) == []


def test_scaling_tom_payoffs_by_two_scales_his_values_exactly():
    # doubling is exact in binary floating point, so equality is bitwise
    from conftest import sample_parameters
    from dataclasses import replace
    from wbgame.model import build_game

    rng = random.Random(11)
    for _ in range(25):
        p = sample_parameters(rng)
        doubled = replace(
            p,
            B=2 * p.B, C=2 * p.C, D=2 * p.D, E=2 * p.E, F=2 * p.F, G=2 * p.G,
            H=2 * p.H, I=2 * p.I,
        )
        r1 = solve(build_game(p))
        r2 = solve(build_game(doubled))
        assert r1.profile == r2.profile
        assert r2.root_value[Player.TOM] == 2 * r1.root_value[Player.TOM]
        assert r2.root_value[Player.ALICE] == r1.root_value[Player.ALICE]


def test_raising_one_terminal_payoff_never_hurts_that_player():
    from conftest import sample_parameters
    from wbgame.model import build_game
    from wbgame.tree import Chance, Decision, Terminal, terminals

    def bump(node, path, target, player, delta):
        if isinstance(node, Terminal):
            if path != target:
                return node
            new = dict(node.payoffs)
            new[player] = new[player] + delta
            return Terminal(node.label, new)
        if isinstance(node, Decision):
            return Decision(
                node.owner,
                node.label,
                tuple((l, bump(c, f"{path}/{l}" if path else l, target, player, delta))
                      for l, c in node.actions),
                node.active_action,
            )
        return Chance(
            node.label,
            tuple((l, pr, bump(c, f"{path}/{l}" if path else l, target, player, delta))
                  for l, pr, c in node.branches),
        )

    rng = random.Random(13)
    for _ in range(25):
        tree = build_game(sample_parameters(rng))
        nid, _ = terminals(tree)[rng.randrange(21)]
        player = rng.choice([Player.ALICE, Player.TOM])
        bumped = bump(tree, "", nid, player, rng.uniform(0.0, 5.0))
        before = solve(tree).root_value[player]
        after = solve(bumped).root_value[player]
        assert after >= before - 1e-12


def test_solve_is_deterministic(baseline):
    from wbgame.model import build_game
    from wbgame.scenario import render_result

    tree = build_game(baseline.parameters)
    r1 = solve(tree, baseline.risk, baseline.ties)
    r2 = solve(tree, baseline.risk, baseline.ties)
    assert r1 == r2
    assert render_result(r1, tree, "json") == render_result(r2, tree, "json")


@pytest.mark.parametrize(
    "nid, expected",
    [
        # on the equilibrium path: Tom is reached here with probability 0.12
        (
            "leak/trust/proceed/hold/world-tom",
            ["leak/trust/proceed/hold/world-tom: switching to 'drop' raises tom from -0.5 to 0.5"],
        ),
        # off the path: Tom holds, so the censor branch is never reached
        (
            "leak/trust/proceed/censor/world-neutral",
            ["leak/trust/proceed/censor/world-neutral: switching to 'drop' raises tom from -3.5 to -2.5"],
        ),
        # a bad pursuit also makes censoring look better one level up
        (
            "leak/trust/proceed/hold/world-duncan",
            [
                "leak/trust/proceed: switching to 'censor' raises tom from -4.5 to -4.15",
                "leak/trust/proceed/hold/world-duncan: switching to 'drop' raises tom from -7.0 to -5.0",
            ],
        ),
    ],
)
def test_one_shot_violations_finds_a_worse_pursuit(baseline, nid, expected):
    tree = build_game(baseline.parameters)
    profile = dict(solve(tree, baseline.risk, baseline.ties).profile)
    assert profile[nid] == "drop"
    profile[nid] = "pursue"
    assert one_shot_violations(tree, profile, baseline.risk) == expected


@pytest.mark.parametrize("call", [
    lambda tree, profile: solve(tree),
    lambda tree, profile: expected_utility(tree, profile),
    lambda tree, profile: one_shot_violations(tree, profile),
    lambda tree, profile: brute_force_spe(tree),
], ids=["solve", "expected_utility", "one_shot_violations", "brute_force_spe"])
def test_call_leaves_nothing_for_the_cyclic_gc(call):
    # garbage in cycles waits for a full collection, so repeated calls
    # would pile it up between collections and raise peak memory
    tree = build_game(params())
    profile = solve(tree).profile
    gc.collect()
    gc.disable()
    try:
        call(tree, profile)
        assert gc.collect() == 0
    finally:
        gc.enable()
