import math

import pytest
from hypothesis import given, strategies as st

from wbgame.tree import (
    Chance,
    Decision,
    NodeCounts,
    Player,
    Terminal,
    chance,
    count_nodes,
    decision,
    iter_nodes,
    terminal,
    terminal_reach_probabilities,
    terminals,
    validate_tree,
)


def leaf(alice=0.0, tom=0.0, label="end"):
    return terminal(label, alice, tom)


class TestValidateTree:
    def test_single_terminal_is_valid(self):
        assert validate_tree(leaf()) == []

    def test_bad_probability_sum_reported(self):
        tree = chance("c", [("a", 0.5, leaf()), ("b", 0.6, leaf())])
        report = validate_tree(tree)
        assert len(report) == 1
        assert "sum to 1.1" in report[0]

    def test_probability_outside_range(self):
        tree = chance("c", [("a", -0.2, leaf()), ("b", 1.2, leaf())])
        report = validate_tree(tree)
        assert any("outside [0, 1]" in v for v in report)

    def test_single_action_decision(self):
        tree = decision(Player.TOM, "d", [("only", leaf())])
        assert any("needs >= 2" in v for v in validate_tree(tree))

    def test_duplicate_action_labels(self):
        tree = decision(Player.TOM, "d", [("go", leaf()), ("go", leaf())])
        assert any("duplicate action labels" in v for v in validate_tree(tree))

    def test_missing_payoff(self):
        tree = Chance("c", (("a", 1.0, Terminal("t", {Player.ALICE: 1.0})),))
        assert any("missing a payoff" in v for v in validate_tree(tree))

    def test_rejects_nan_and_positive_infinity(self):
        for bad in (float("inf"), float("nan")):
            tree = leaf(alice=bad)
            assert any("must be finite or -inf" in v for v in validate_tree(tree))

    def test_negative_infinity_is_a_legal_payoff(self):
        assert validate_tree(leaf(tom=float("-inf"))) == []

    def test_aliased_node_reported(self):
        shared = leaf()
        tree = decision(Player.TOM, "d", [("l", shared), ("r", shared)])
        assert any("more than one path" in v for v in validate_tree(tree))

    @pytest.mark.parametrize("walker", ["simulate", "expected_utility", "one_shot_violations", "export_dot"])
    def test_walkers_reject_a_shared_node_object(self, walker):
        # walkers key nodes by object, so an aliased node must not reach them
        from wbgame.analysis import simulate
        from wbgame.scenario import export_dot
        from wbgame.solver import expected_utility, one_shot_violations

        shared = terminal("end", 1.0, 0.0)
        tree = decision(Player.ALICE, "d", [("l", shared), ("r", shared)])
        calls = {
            "simulate": lambda: simulate(tree, {"": "l"}, 10, seed=1),
            "expected_utility": lambda: expected_utility(tree, {"": "l"}),
            "one_shot_violations": lambda: one_shot_violations(tree, {"": "l"}),
            "export_dot": lambda: export_dot(tree),
        }
        with pytest.raises(ValueError, match="^invalid tree: r: node object reachable by more than one path$"):
            calls[walker]()

    def test_every_violation_message_verbatim(self):
        shared = chance("s", [("h", 0.5, leaf()), ("t", 0.5, leaf())])
        tree = Decision(Player.ALICE, "root", (
            ("dup", chance("c", [("x", 0.5, leaf()), ("x", 0.7, leaf())])),
            ("dup", decision(Player.TOM, "one", [("only", Terminal("t", {Player.ALICE: 1.0}))])),
            ("", chance("e", [("", 1.0, leaf(alice=math.inf, tom=math.nan))])),
            ("probs", chance("p", [
                ("neg", -0.1, leaf()), ("big", 1.5, leaf()),
                ("nan", math.nan, leaf()), ("ok", 0.3, leaf()),
            ])),
            ("act", decision(Player.TOM, "a", [("p", shared), ("q", shared)], active="zzz")),
            ("none", Decision(Player.TOM, "empty", ())),
            ("pay", Terminal("t", {Player.TOM: math.inf})),
        ), "missing")
        labels = "['dup', 'dup', '', 'probs', 'act', 'none', 'pay']"
        assert validate_tree(tree) == [
            f"(root): duplicate action labels {labels}",
            "(root): empty action label",
            f"(root): active_action 'missing' is not one of {labels}",
            "dup: duplicate branch labels ['x', 'x']",
            "dup: probabilities sum to 1.2, not 1",
            "dup: decision node has 1 action(s), needs >= 2",
            "dup/only: terminal is missing a payoff for tom",
            "(root): empty branch label",
            "/: payoff for alice is inf (must be finite or -inf)",
            "/: payoff for tom is nan (must be finite or -inf)",
            "probs: branch 'neg' probability -0.1 outside [0, 1]",
            "probs: branch 'big' probability 1.5 outside [0, 1]",
            "probs: branch 'nan' probability nan outside [0, 1]",
            "probs: probabilities sum to 0.3, not 1",
            "act: active_action 'zzz' is not one of ['p', 'q']",
            "act/q: node object reachable by more than one path",
            "none: decision node has 0 action(s), needs >= 2",
            "pay: terminal is missing a payoff for alice",
            "pay: payoff for tom is inf (must be finite or -inf)",
        ]

    def test_validation_is_idempotent(self):
        tree = chance("c", [("a", 0.5, leaf()), ("b", 0.6, leaf())])
        assert validate_tree(tree) == validate_tree(tree)


class TestCountNodes:
    def test_single_terminal(self):
        assert count_nodes(leaf()) == NodeCounts(0, 0, 1)

    def test_counts_partition_all_nodes(self):
        tree = decision(
            Player.ALICE,
            "root",
            [
                ("l", chance("c", [("h", 0.5, leaf()), ("t", 0.5, leaf())])),
                ("r", leaf()),
            ],
        )
        counts = count_nodes(tree)
        assert counts == NodeCounts(1, 1, 3)
        assert counts.terminal == len(terminals(tree))


class TestTerminalReachProbabilities:
    def make(self, w=0.3):
        inner = chance("trust", [("trust", 1.0 - w, leaf(label="in")), ("no-trust", w, leaf(label="out"))])
        return decision(Player.ALICE, "root", [("leak", inner), ("stay", leaf(label="quiet"))])

    def test_chance_multiplies_and_unchosen_action_is_zero(self):
        reach = terminal_reach_probabilities(self.make(w=0.3), {"": "leak"})
        assert reach == {"leak/trust": 0.7, "leak/no-trust": 0.3, "stay": 0.0}

    @pytest.mark.parametrize("profile, message", [
        ({}, r"missing \[''\], extra \[\]"),
        ({"": "leak", "bogus": "x"}, r"missing \[\], extra \['bogus'\]"),
        ({"": "jump"}, "unknown action 'jump' at ''"),
    ])
    def test_profile_must_fit_the_tree(self, profile, message):
        with pytest.raises(ValueError, match=message):
            terminal_reach_probabilities(self.make(), profile)


# --- random-tree property tests ---------------------------------------------

payoffs = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def trees(draw, depth=3):
    if depth == 0:
        return terminal("leaf", draw(payoffs), draw(payoffs))
    kind = draw(st.sampled_from(["terminal", "decision", "chance"]))
    if kind == "terminal":
        return terminal("leaf", draw(payoffs), draw(payoffs))
    n = draw(st.integers(min_value=2, max_value=3))
    children = [draw(trees(depth=depth - 1)) for _ in range(n)]
    labels = [f"k{i}" for i in range(n)]
    if kind == "decision":
        owner = draw(st.sampled_from([Player.ALICE, Player.TOM]))
        return decision(owner, "d", list(zip(labels, children)))
    weights = [draw(st.integers(min_value=0, max_value=8)) for _ in range(n)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return chance("c", [(l, wt / total, ch) for l, wt, ch in zip(labels, weights, children)])


@st.composite
def trees_with_profiles(draw):
    tree = draw(trees())
    from wbgame.tree import decisions

    profile = {}
    for nid, node in decisions(tree):
        profile[nid] = draw(st.sampled_from([label for label, _ in node.actions]))
    return tree, profile


@given(trees_with_profiles())
def test_terminal_reach_probabilities_sum_to_one(tp):
    tree, profile = tp
    reach = terminal_reach_probabilities(tree, profile)
    assert math.isclose(sum(reach.values()), 1.0, abs_tol=1e-9)
    assert set(reach) == {nid for nid, _ in terminals(tree)}


@given(trees())
def test_random_trees_are_valid(tree):
    # generator only produces structurally legal trees
    assert validate_tree(tree) == []


def test_iter_nodes_ids_with_empty_labels():
    tree = decision(Player.ALICE, "r", [
        ("", chance("c", [("", 0.5, leaf()), ("h", 0.5, leaf())])),
        ("b", leaf()),
    ])
    assert [nid for nid, _ in iter_nodes(tree)] == ["", "", "/", "/h", "b"]
