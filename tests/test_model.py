import math
import random
from dataclasses import replace

import pytest

from conftest import sample_parameters
from wbgame.model import (
    BLOCK_NODE_ID,
    CENSOR_NODE_ID,
    CENSORED_NODE_IDS,
    PARAMETER_NAMES,
    UNCENSORED_NODE_IDS,
    GameParameters,
    Variant,
    alice_leak_value,
    alice_to_harry,
    build_game,
    duncan_to_harry,
    parameter_warnings,
    prune_zero,
    tom_blocks,
    tom_pursues_censored,
    tom_pursues_uncensored,
    validate_parameters,
)
from wbgame.solver import solve
from wbgame.tree import (
    NEG_INF,
    NodeCounts,
    Player,
    count_nodes,
    terminals,
    validate_tree,
)


def params(**overrides):
    base = dict(
        w=0.6, x=0.2, y=0.3, z=0.5,
        a=-1.0, b=-2.0, c=-8.0, d=-1.0, e=5.0, f=4.0, g=-4.0,
        B=-5.0, C=2.0, D=0.5, E=-5.0, F=-6.0, G=-3.0, H=-3.0, I=-2.5,
    )
    base.update(overrides)
    return GameParameters(**base)


class TestParameterValidation:
    def test_valid_baseline(self):
        assert validate_parameters(params()) == []

    def test_probability_out_of_range(self):
        assert any("w" in p for p in validate_parameters(params(w=1.5)))

    def test_simplex_violation(self):
        assert any("x + y" in p for p in validate_parameters(params(x=0.5, y=0.6)))

    def test_near_one_simplex_sum_is_fine(self):
        # 0.9 + 0.1 lands a hair above 1.0 in floats; must still validate
        assert validate_parameters(params(x=0.9, y=0.1)) == []
        build_game(params(x=0.9, y=0.1))

    def test_simplex_check_rejects_what_the_tree_check_rejects(self):
        # x + y == 1.0 + SIMPLEX_TOL in floats, yet x + y - 1 exceeds the
        # tree's probability-sum tolerance; passing it made solve fail
        assert validate_parameters(params(x=0.5, y=0.500000001)) == ["x + y = 1.000000001 > 1"]
        # the floats either side of that boundary: parameter validation
        # passes exactly where the built tree validates
        y = 0.500000001
        for _ in range(4):
            y = math.nextafter(y, 0.0)
        for _ in range(9):
            p = params(x=0.5, y=y)
            if validate_parameters(p) == []:
                assert validate_tree(build_game(p)) == [], repr(y)
            else:
                assert validate_parameters(p) == [f"x + y = {0.5 + y!r} > 1"]
            y = math.nextafter(y, 1.0)

    def test_neg_inf_only_for_B(self):
        assert validate_parameters(params(B=NEG_INF)) == []
        assert any("finite" in p for p in validate_parameters(params(C=NEG_INF)))
        assert any("finite" in p for p in validate_parameters(params(a=NEG_INF)))

    def test_variant_forcing(self):
        assert any("y = 1" in p for p in validate_parameters(params(variant=Variant.DUNCAN_TO_HARRY)))
        forced = duncan_to_harry(params())
        assert validate_parameters(forced) == []
        assert forced.y == 1.0 and forced.x == 0.0

        assert validate_parameters(alice_to_harry(params())) == []
        bad = replace(alice_to_harry(params()), B=0.0)
        assert any("B = -inf" in p for p in validate_parameters(bad))

    def test_positive_costs_warn_but_do_not_fail(self):
        p = params(H=1.0, I=0.5)
        assert validate_parameters(p) == []
        warnings = parameter_warnings(p)
        assert len(warnings) == 2

    def test_build_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            build_game(params(w=-0.1))


class TestTreeShape:
    # Terminal count re-derived from the branch structure: 1 stay + 1
    # no-trust + 1 blocked + 4 outcomes when the world backs Tom (2 censor
    # choices x pursue/drop) + 8 when it backs Duncan (2 x pursue/drop x
    # strong/weak... pursue splits on Harry, drop collapses to two e-leaves)
    # + 6 when neutral (censor side: 2, hold side: 4) = 21. Decisions: root +
    # block + censor + 6 pursue = 9. Chance: trust + 2 world + 6 Harry = 9.
    def test_standard_counts(self):
        assert count_nodes(build_game(params())) == NodeCounts(9, 9, 21)

    def test_standard_tree_valid_for_random_parameters(self):
        rng = random.Random(3)
        for _ in range(100):
            tree = build_game(sample_parameters(rng))
            assert validate_tree(tree) == []

    def test_world_backing_tom_means_censored_everywhere(self):
        # x = 1: whatever anyone decides, every chance-reachable terminal past
        # Tom's proceed carries a censored payoff for Alice
        from wbgame.tree import decisions, terminal_reach_probabilities

        p = params(x=1.0, y=0.0)
        tree = build_game(p)
        for pursue in ("pursue", "drop"):
            profile = {nid: "leak" for nid, _ in decisions(tree)}
            profile["leak/trust"] = "proceed"
            profile["leak/trust/proceed"] = "hold"
            for nid, node in decisions(tree):
                if nid.count("/") >= 3:
                    profile[nid] = pursue
            reach = terminal_reach_probabilities(tree, profile)
            checked = 0
            for nid, node in terminals(tree):
                if nid.startswith("leak/trust/proceed") and reach[nid] > 0.0:
                    checked += 1
                    assert node.payoffs[Player.ALICE] in (p.c, p.d)
            assert checked > 0

    def test_terminal_payoff_composition(self):
        # every terminal's payoffs are exactly the advertised letter plus the
        # applicable H/I adjustments
        rng = random.Random(5)
        for _ in range(50):
            p = sample_parameters(rng)
            tree = build_game(p)
            for nid, node in terminals(tree):
                alice = node.payoffs[Player.ALICE]
                tom = node.payoffs[Player.TOM]
                extra = p.H if "/censor/" in nid else 0.0
                if nid == "stay":
                    assert (alice, tom) == (0.0, 0.0)
                elif nid == "leak/no-trust":
                    assert (alice, tom) == (p.a, 0.0)
                elif nid == "leak/trust/block":
                    assert (alice, tom) == (p.b, p.B)
                elif nid.endswith("pursue") and node.label.startswith("censored"):
                    assert (alice, tom) == (p.c, p.C + extra + p.I)
                elif nid.endswith("drop") and node.label.startswith("censored"):
                    assert (alice, tom) == (p.d, p.D + extra)
                elif "/pursue/harry-strong" in nid:
                    assert (alice, tom) == (p.f, p.F + extra + p.I)
                elif "/pursue/harry-weak" in nid:
                    assert (alice, tom) == (p.g, p.G + extra + p.I)
                else:
                    assert "/drop/harry-" in nid
                    assert (alice, tom) == (p.e, p.E + extra)


class TestVariants:
    def test_alice_to_harry_never_blocks(self):
        rng = random.Random(9)
        for _ in range(100):
            p = alice_to_harry(sample_parameters(rng))
            result = solve(build_game(p))
            assert result.profile[BLOCK_NODE_ID] == "proceed"

    def test_duncan_to_harry_reaches_only_duncan_branches(self):
        rng = random.Random(10)
        for _ in range(50):
            p = duncan_to_harry(sample_parameters(rng))
            tree = build_game(p)
            result = solve(tree)
            for nid, prob in result.outcome_distribution.items():
                if "world-tom" in nid or "world-neutral" in nid:
                    assert prob == 0.0

    def test_alice_to_harry_pruned_tree_is_smaller(self):
        pruned = prune_zero(build_game(alice_to_harry(params())))
        counts = count_nodes(pruned)
        assert counts.terminal < 21
        # stay + blocked + 4 under censor/world-duncan + 4 under hold/world-duncan
        assert counts.terminal == 10


class TestPruneZero:
    def test_no_zero_branches_is_identity(self):
        tree = build_game(params())
        assert prune_zero(tree) is tree

    def test_prune_preserves_root_values(self):
        rng = random.Random(21)
        for _ in range(50):
            p = duncan_to_harry(sample_parameters(rng))
            tree = build_game(p)
            pruned = prune_zero(tree)
            assert validate_tree(pruned) == []
            full = solve(tree)
            small = solve(pruned)
            for pl in (Player.ALICE, Player.TOM):
                assert small.root_value[pl] == pytest.approx(full.root_value[pl], abs=1e-12)

    def test_prune_preserves_distribution_over_surviving_terminals(self):
        p = duncan_to_harry(params())
        tree = build_game(p)
        pruned = prune_zero(tree)
        full = solve(tree)
        small = solve(pruned)
        # pruning reuses terminal objects, so match them up by identity
        full_by_obj = {id(node): full.outcome_distribution[nid] for nid, node in terminals(tree)}
        for nid, node in terminals(pruned):
            assert small.outcome_distribution[nid] == pytest.approx(full_by_obj[id(node)], abs=1e-12)


class TestClosedFormRules:
    def test_censored_rule_examples(self):
        assert tom_pursues_censored(params(C=4.0, I=-2.0, D=1.0)) is True
        assert tom_pursues_censored(params(C=4.0, I=-2.0, D=2.0)) is True  # tie -> act
        assert tom_pursues_censored(params(C=4.0, I=-2.0, D=2.5)) is False

    def test_uncensored_rule_examples(self):
        assert tom_pursues_uncensored(params(z=1.0, F=0.0, I=0.0, E=0.0)) is True  # tie
        assert tom_pursues_uncensored(params(z=0.0, G=-10.0, I=0.0, E=0.0)) is False

    def test_block_rule_examples(self):
        assert tom_blocks(params(B=NEG_INF), -123.0) is False
        assert tom_blocks(params(B=5.0), 5.0) is True  # tie -> act

    def test_alice_leak_value_examples(self):
        assert alice_leak_value(params(w=0.0, a=-1.0), 99.0) == -1.0
        assert alice_leak_value(params(w=1.0), 0.0) == 0.0

    def test_rules_match_solver_on_random_parameters(self):
        rng = random.Random(2024)
        for _ in range(1000):
            p = sample_parameters(rng)
            tree = build_game(p)
            result = solve(tree)

            want = "pursue" if tom_pursues_censored(p) else "drop"
            for nid in CENSORED_NODE_IDS:
                assert result.profile[nid] == want, (p, nid)

            want = "pursue" if tom_pursues_uncensored(p) else "drop"
            for nid in UNCENSORED_NODE_IDS:
                assert result.profile[nid] == want, (p, nid)

            u3 = result.node_values[CENSOR_NODE_ID][Player.TOM]
            want = "block" if tom_blocks(p, u3) else "proceed"
            assert result.profile[BLOCK_NODE_ID] == want, p

            trust_value = result.node_values[BLOCK_NODE_ID][Player.ALICE]
            leak_value = alice_leak_value(p, trust_value)
            assert result.node_values["leak"][Player.ALICE] == pytest.approx(leak_value, abs=1e-9)
            assert (result.profile[""] == "leak") == (leak_value > 0.0), p

    def test_censored_rule_holds_under_risk_transforms(self):
        # both sides of the censored comparison are degenerate lotteries, so
        # any increasing transform preserves the choice
        from wbgame.solver import RiskProfile

        rng = random.Random(77)
        for _ in range(100):
            p = sample_parameters(rng)
            result = solve(build_game(p), RiskProfile(alice=0.3, tom=-0.4))
            want = "pursue" if tom_pursues_censored(p) else "drop"
            for nid in CENSORED_NODE_IDS:
                assert result.profile[nid] == want


def test_no_trust_terminal_reached_with_probability_one_minus_w():
    from wbgame.tree import decisions, terminal_reach_probabilities

    p = params(w=0.3)
    tree = build_game(p)
    profile = {nid: node.actions[0][0] for nid, node in decisions(tree)}
    profile[""] = "leak"
    reach = terminal_reach_probabilities(tree, profile)
    assert reach["leak/no-trust"] == pytest.approx(0.7, abs=1e-15)


def test_full_indifference_resolves_to_all_active_choices():
    # dyadic probabilities keep the chance averages exact, so every Tom
    # comparison is an exact tie and ActOnTie decides all of them
    p = params(w=0.5, x=0.25, y=0.25, z=0.5, B=4.0, C=4.0, D=4.0, E=4.0, F=4.0, G=4.0, H=0.0, I=0.0)
    result = solve(build_game(p))
    assert result.profile[BLOCK_NODE_ID] == "block"
    assert result.profile[CENSOR_NODE_ID] == "censor"
    for nid in CENSORED_NODE_IDS + UNCENSORED_NODE_IDS:
        assert result.profile[nid] == "pursue"


def test_one_parameter_list_serves_sweeps_and_scenario_files():
    assert PARAMETER_NAMES == (
        "w", "x", "y", "z",
        "a", "b", "c", "d", "e", "f", "g",
        "B", "C", "D", "E", "F", "G", "H", "I",
    )
