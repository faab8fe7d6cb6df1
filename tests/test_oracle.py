import itertools
import math
import random

import pytest

from conftest import sample_parameters
from wbgame.model import build_game, duncan_to_harry, prune_zero
from wbgame.oracle import EnumerationCapError, brute_force_spe, enumerate_profiles
from wbgame.solver import TiePolicy, TieRule, expected_utility, one_shot_violations, solve
from wbgame.tree import PLAYERS, Chance, Decision, Player, chance, decision, iter_nodes, terminal


def test_single_binary_decision_yields_two_profiles():
    tree = decision(Player.ALICE, "d", [("a", terminal("t", 0.0, 0.0)), ("b", terminal("u", 1.0, 0.0))])
    assert len(list(enumerate_profiles(tree))) == 2


def test_standard_tree_yields_512_profiles():
    tree = build_game(sample_parameters(random.Random(1)))
    profiles = list(enumerate_profiles(tree))
    assert len(profiles) == 512
    assert len({tuple(sorted(p.items())) for p in profiles}) == 512


def test_pruned_variant_profile_count_matches_surviving_decisions():
    tree = prune_zero(build_game(duncan_to_harry(sample_parameters(random.Random(2)))))
    from wbgame.tree import decisions

    expected = 2 ** len(decisions(tree))
    assert len(list(enumerate_profiles(tree))) == expected
    assert expected == 2**5


def test_cap_exceeded():
    # 21 binary decisions in a chain: 2**21 profiles, one past the cap of 2**20.
    # The cap is checked before anything is enumerated, so this stays instant.
    tree = terminal("end", 0.0, 0.0)
    for i in range(21):
        tree = decision(Player.ALICE, f"d{i}", [("on", tree), ("off", terminal(f"t{i}", 0.0, 0.0))])
    message = "^2097152 profiles exceed the cap of 1048576$"
    with pytest.raises(EnumerationCapError, match=message):
        list(enumerate_profiles(tree))
    with pytest.raises(EnumerationCapError, match=message):
        brute_force_spe(tree)


def test_trivial_tree_certification():
    tree = decision(
        Player.ALICE, "root",
        [("leak", terminal("t", -1.0, 0.0)), ("stay", terminal("u", 0.0, 0.0))],
    )
    result = brute_force_spe(tree)
    assert result.canonical == {"": "stay"}
    assert result.canonical_root_value == {Player.ALICE: 0.0, Player.TOM: 0.0}
    assert len(result.spe_profiles) == 1


def test_oracle_matches_solver_on_baseline(baseline):
    tree = build_game(baseline.parameters)
    solved = solve(tree, baseline.risk, baseline.ties)
    certified = brute_force_spe(tree, baseline.risk, baseline.ties)
    assert certified.canonical == solved.profile
    for p in (Player.ALICE, Player.TOM):
        assert certified.canonical_root_value[p] == pytest.approx(solved.root_value[p], abs=1e-9)


def test_oracle_matches_solver_on_random_draws():
    rng = random.Random(123)
    for _ in range(60):
        tree = build_game(sample_parameters(rng))
        solved = solve(tree)
        certified = brute_force_spe(tree)
        assert certified.canonical == solved.profile
        for p in (Player.ALICE, Player.TOM):
            assert certified.canonical_root_value[p] == pytest.approx(
                solved.root_value[p], abs=1e-9
            )


def test_ties_leave_many_spe_profiles_but_one_canonical():
    # dyadic chances and flat payoffs make Tom indifferent everywhere,
    # exactly in floats, so all 2^8 of his action combinations are
    # subgame-perfect. Eight of them (proceed, hold, node-8 drop, node-4
    # drop, node-6 pursue, censor-side pursue nodes free) put Alice's leak
    # value at exactly 0, so those count twice: 248 + 2*8 = 264 profiles.
    from test_model import params

    p = params(w=0.5, x=0.25, y=0.25, z=0.5,
               B=4.0, C=4.0, D=4.0, E=4.0, F=4.0, G=4.0, H=0.0, I=0.0)
    tree = build_game(p)
    certified = brute_force_spe(tree)
    assert len(certified.spe_profiles) == 264
    assert certified.canonical == solve(tree).profile


def test_every_reported_profile_passes_one_shot_check():
    from wbgame.solver import one_shot_violations

    tree = build_game(sample_parameters(random.Random(55)))
    certified = brute_force_spe(tree)
    for profile in certified.spe_profiles:
        assert one_shot_violations(tree, profile) == []


def test_oracle_runtime_on_standard_tree():
    import time

    tree = build_game(sample_parameters(random.Random(99)))
    start = time.perf_counter()
    brute_force_spe(tree)
    assert time.perf_counter() - start < 1.0


def tie_heavy_parameters(rng: random.Random):
    """Integer payoffs in [-2, 2] and dyadic probabilities: every expected
    value is exact in floats, so equal values really tie."""
    from test_model import params

    x = rng.choice([0.0, 0.25, 0.5])
    return params(
        w=rng.choice([0.0, 0.5, 1.0]),
        x=x,
        y=rng.choice([q for q in (0.0, 0.25, 0.5) if x + q <= 1.0]),
        z=rng.choice([0.0, 0.5, 1.0]),
        H=float(rng.randint(-1, 0)),
        I=float(rng.randint(-1, 0)),
        **{k: float(rng.randint(-2, 2)) for k in "abcdefgBCDEFG"},
    )


@pytest.mark.parametrize("alice", list(TieRule))
@pytest.mark.parametrize("tom", list(TieRule))
def test_canonical_profile_matches_solver_on_tie_heavy_games(alice, tom):
    ties = TiePolicy(alice=alice, tom=tom)
    rng = random.Random(4242)
    tied_games = 0
    for _ in range(40):
        tree = build_game(tie_heavy_parameters(rng))
        solved = solve(tree, ties=ties)
        certified = brute_force_spe(tree, ties=ties)
        assert certified.canonical == solved.profile
        assert certified.canonical_root_value == solved.root_value
        tied_games += len(certified.spe_profiles) > 1
    assert tied_games >= 20  # the tie filter, not uniqueness, picks the profile


def generic_tree(rng: random.Random, budget: int = 5):
    """A random tree of no fixed shape, for keys the standard game never cuts.

    The root is a chance node. Below it, decisions with 2 or 3 actions and
    chance nodes with 2 or 3 branches nest while ``budget`` decisions last.
    Its zero-probability branch leads to a decision with a -inf payoff.
    Payoffs are integers in [-2, 2] and probabilities dyadic, so every value
    is exact in floats and equal values really tie.
    """
    labels = itertools.count()

    def leaf():
        return terminal(f"t{next(labels)}", float(rng.randint(-2, 2)), float(rng.randint(-2, 2)))

    def subtree(depth):
        nonlocal budget
        if depth == 0 or rng.random() < 0.25:
            return leaf()
        if budget and rng.random() < 0.6:
            budget -= 1
            actions = [(f"a{i}", subtree(depth - 1)) for i in range(rng.choice((2, 3)))]
            return decision(rng.choice(PLAYERS), f"d{next(labels)}", actions,
                            rng.choice((None, "a0", "a1")))
        probs = rng.choice(((0.5, 0.5), (0.25, 0.75), (0.25, 0.25, 0.5), (0.5, 0.0, 0.5)))
        return chance(f"c{next(labels)}",
                      [(f"b{i}", p, subtree(depth - 1)) for i, p in enumerate(probs)])

    doomed = rng.choice(((-math.inf, 0.0), (0.0, -math.inf)))
    unreached = decision(rng.choice(PLAYERS), "z", [("x", terminal("doomed", *doomed)), ("y", leaf())])
    return chance("root", [("p", 0.5, subtree(3)), ("q", 0.5, subtree(3)), ("z", 0.0, unreached)])


def test_oracle_matches_one_shot_checks_on_generic_trees():
    rng = random.Random(2718)
    three_actions = chance_over_decisions = tied = 0
    for _ in range(30):
        tree = generic_tree(rng)
        certified = brute_force_spe(tree)
        assert certified.spe_profiles == [
            p for p in enumerate_profiles(tree) if not one_shot_violations(tree, p)
        ]
        for profile, value in zip(certified.spe_profiles, certified.root_values):
            assert value == expected_utility(tree, profile)
        nodes = [node for _, node in iter_nodes(tree)][1:]
        three_actions += any(type(n) is Decision and len(n.actions) == 3 for n in nodes)
        chance_over_decisions += any(
            type(n) is Chance
            and sum(any(type(d) is Decision for _, d in iter_nodes(child)) for _, _, child in n.branches) > 1
            for n in nodes
        )
        tied += len(certified.spe_profiles) > 1
    # the draws cover the shapes the keys are cut for, and ties
    assert min(three_actions, chance_over_decisions, tied) >= 5
