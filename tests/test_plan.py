"""The compiled game plan: the tree it builds, and its evaluator against solve.

``solve_plan`` must give exactly what ``build_game`` + ``solve`` give, read
through ``outcome_support`` and ``alice_leaks``: the threshold and lever
searches probe the plan, so any difference would move a reported flip point.
"""

import math
import random
from dataclasses import replace

import pytest

from conftest import sample_parameters
from test_acceptance import N_SAMPLES, SAMPLE_SEED
from test_model import params
from test_oracle import tie_heavy_parameters
from wbgame import analysis
from wbgame.analysis import OutcomeClass, alice_leaks, outcome_support
from wbgame.model import (
    GAME_PLAN,
    alice_to_harry,
    build_game,
    duncan_to_harry,
    plan_values,
)
from wbgame.solver import PAPER_TIES, RISK_NEUTRAL, RiskProfile, TiePolicy, TieRule, solve, solve_plan
from wbgame.tree import NEG_INF, Chance, Decision, count_nodes


def plan_answer(p, risk=RISK_NEUTRAL, ties=PAPER_TIES):
    labels, root_choice = solve_plan(GAME_PLAN, plan_values(p), risk, ties)
    return frozenset(map(OutcomeClass, labels)), root_choice == "leak"


def solver_answer(p, risk=RISK_NEUTRAL, ties=PAPER_TIES):
    tree = build_game(p)
    result = solve(tree, risk, ties)
    return outcome_support(tree, result), alice_leaks(result)


def post_order(node):
    if type(node) is Decision:
        for _, child in node.actions:
            yield from post_order(child)
    elif type(node) is Chance:
        for _, _, child in node.branches:
            yield from post_order(child)
    yield node


def test_slots_list_the_tree_in_depth_first_post_order():
    # solve meets terminals (and so raises its first risk-transform error)
    # in this order, so solve_plan must too
    tree = build_game(params())
    assert count_nodes(tree) == (9, 9, 21)
    assert [(type(n), n.label) for n in post_order(tree)] == [
        (slot.kind, slot.label) for slot in GAME_PLAN.slots
    ]


@pytest.mark.parametrize("mode", ["neutral", "risk"])
def test_plan_matches_solve_on_criterion_1_draws(mode):
    rng = random.Random(SAMPLE_SEED)
    risk_rng = random.Random(7)
    for _ in range(N_SAMPLES):
        p = sample_parameters(rng)
        risk = RISK_NEUTRAL
        if mode == "risk":
            risk = RiskProfile(risk_rng.uniform(-1.0, 1.0), risk_rng.uniform(-1.0, 1.0))
        assert plan_answer(p, risk) == solver_answer(p, risk), (p, risk)


@pytest.mark.parametrize("alice", list(TieRule))
@pytest.mark.parametrize("tom", list(TieRule))
def test_plan_matches_solve_on_tie_heavy_games(alice, tom):
    ties = TiePolicy(alice=alice, tom=tom)
    rng = random.Random(4242)
    for _ in range(40):
        p = tie_heavy_parameters(rng)
        assert plan_answer(p, ties=ties) == solver_answer(p, ties=ties), p


@pytest.mark.parametrize("risk", [RISK_NEUTRAL, RiskProfile(0.4, -0.3)])
def test_plan_matches_solve_on_variants_and_hopeless_blocking(risk):
    rng = random.Random(99)
    for _ in range(50):
        p = sample_parameters(rng)
        for q in (duncan_to_harry(p), alice_to_harry(p), replace(p, B=NEG_INF)):
            assert plan_answer(q, risk) == solver_answer(q, risk), q


def test_plan_matches_solve_where_a_reach_product_underflows():
    # Tom holds, so censoring needs the World to back him: reached with
    # probability w * x = 1e-400, which rounds to 0 in both evaluations
    p = params(w=1e-200, x=1e-200, a=1.0, B=-50.0, H=-50.0)
    support, leaks = solver_answer(p)
    assert support == {OutcomeClass.NO_TRUST, OutcomeClass.UNCENSORED_ANONYMOUS} and leaks
    assert plan_answer(p) == (support, leaks)


@pytest.mark.parametrize("base, param, value, risk", [
    (params(), "w", 1.5, RISK_NEUTRAL),
    (params(), "w", math.nan, RISK_NEUTRAL),
    (params(), "x", 0.9, RISK_NEUTRAL),  # x + y > 1
    (params(), "B", math.inf, RISK_NEUTRAL),
    (params(), "e", -math.inf, RISK_NEUTRAL),
    (alice_to_harry(params()), "w", 0.5, RISK_NEUTRAL),  # the variant needs w = 1
    (params(H=1e308), "C", 1e308, RISK_NEUTRAL),  # C + H overflows in the tree
    (params(), "D", 900.0, RiskProfile(0.0, -1.0)),  # Tom's risk transform overflows
    (params(), "w", 0.5, RiskProfile(math.nan, 0.0)),
])
def test_invalid_probe_raises_the_solvers_error(base, param, value, risk):
    with pytest.raises((ValueError, OverflowError)) as solved:
        analysis._solve_point(base, param, value, risk, PAPER_TIES)
    with pytest.raises(type(solved.value)) as probed:
        analysis._probe(base, param, value, risk, PAPER_TIES)
    assert str(probed.value) == str(solved.value)
