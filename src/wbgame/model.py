"""The parameterized whistleblowing game.

Cast: Alice (the source) and Tom (the adversary who can block, censor, and
de-anonymise) are the strategic players. Duncan (the reporter), the World
(public reaction), and Harry (the regulator protecting Alice) act with known
probabilities, so they enter as chance nodes.

Move order in the standard game:

1. Alice decides to ``leak`` or ``stay``; staying ends the game at (0, 0).
2. Duncan trusts Alice with probability ``w``; otherwise (a, 0).
3. Tom may ``block`` Duncan before anything airs: (b, B).
4. If Tom ``proceed``s he chooses whether to attempt censorship (``censor``,
   cost H) or to ``hold``.
5. The World backs Tom with probability ``x``, backs Duncan with ``y``, or
   stays neutral with 1 - x - y. Backing Tom means the broadcast dies no
   matter what Tom spent; backing Duncan means it airs no matter what;
   neutrality lets Tom's censorship attempt decide.
6. After a censored broadcast Tom may still ``pursue`` Alice (cost I):
   pursue -> (c, C + costs), drop -> (d, D + costs).
7. After an uncensored broadcast Harry's protection is strong with
   probability ``z``. pursue & strong -> (f, F + costs), pursue & weak ->
   (g, G + costs), drop -> (e, E + costs) either way -- impunity requires an
   actual pursuit defeated by Harry, so Harry's draw is irrelevant when Tom
   drops (the node is kept so both Harry outcomes exist on every uncensored
   path).

``costs`` is H on everything downstream of a censor attempt (attempts are
sunk even when the World makes them moot) plus I on every pursuit terminal.
H and I are signed additive adjustments: a cost is a negative number. The
closed-form decision rules below stay in this additive convention, e.g. Tom
pursues at a censored node exactly when C + I >= D.

Labels carry the game's traditional node numbering for display: node 1 is
Alice's choice, 2 Tom's block, 3 the censor choice, 9/7/5 the pursue choices
after censoring (World backing Tom / neutral / Duncan) and 8/6/4 after
holding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from operator import attrgetter

from .tree import (
    NEG_INF,
    PROB_SUM_TOL,
    Chance,
    Decision,
    Node,
    Plan,
    Player,
    Terminal,
)

#: slack used when checking x + y <= 1, so e.g. x=0.9, y=0.1 parses cleanly;
#: the tree's probability-sum tolerance, so both checks reject the same points
SIMPLEX_TOL = PROB_SUM_TOL


class Variant(Enum):
    STANDARD = "standard"
    #: Duncan hands the story straight to Harry: the World always backs Duncan.
    DUNCAN_TO_HARRY = "duncan-to-harry"
    #: Alice goes straight to Harry: trust is certain, blocking is hopeless.
    ALICE_TO_HARRY = "alice-to-harry"


class OutcomeClass(Enum):
    """How the game ends; each terminal's label is its class's value."""

    NO_LEAK = "no-leak"
    NO_TRUST = "no-trust"
    BLOCKED = "blocked"
    CENSORED_JAILED = "censored-jailed"
    CENSORED_ANONYMOUS = "censored-anonymous"
    UNCENSORED_ANONYMOUS = "uncensored-anonymous"
    UNCENSORED_IMPUNITY = "uncensored-impunity"
    UNCENSORED_JAILED = "uncensored-jailed"


@dataclass(frozen=True)
class GameParameters:
    """Full parameter vector for one whistleblowing scenario.

    Probabilities:
        w  Duncan trusts Alice
        x  the World backs Tom
        y  the World backs Duncan (neutral has probability 1 - x - y)
        z  Harry's protection is strong

    Alice's payoffs (finite): a no-trust, b blocked, c censored & jailed,
    d censored & anonymous, e uncensored & anonymous, f uncensored &
    impunity, g uncensored & jailed.

    Tom's payoffs: B block (may be -inf: blocking is hopeless), C censored &
    Alice jailed, D censored & Alice anonymous, E uncensored & anonymous,
    F uncensored & impunity, G uncensored & Alice jailed.

    H and I are the censorship-attempt and de-anonymisation-attempt
    adjustments added to Tom's payoff on the affected terminals; costs are
    negative values.
    """

    w: float
    x: float
    y: float
    z: float
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    g: float
    B: float
    C: float
    D: float
    E: float
    F: float
    G: float
    H: float
    I: float
    variant: Variant = Variant.STANDARD


#: the 19 numeric parameters, in declaration order
PARAMETER_NAMES = tuple(f.name for f in fields(GameParameters) if f.name != "variant")


def validate_parameters(p: GameParameters) -> list[str]:
    """Every invariant violation in ``p``; empty list means valid."""
    problems: list[str] = []

    for name in ("w", "x", "y", "z"):
        v = getattr(p, name)
        if math.isnan(v) or v < 0.0 or v > 1.0:
            problems.append(f"{name} = {v!r} outside [0, 1]")
    if p.x + p.y - 1.0 > SIMPLEX_TOL:  # subtracting 1 is exact here, as in validate_tree
        problems.append(f"x + y = {p.x + p.y!r} > 1")

    for name in ("a", "b", "c", "d", "e", "f", "g", "C", "D", "E", "F", "G", "H", "I"):
        v = getattr(p, name)
        if not math.isfinite(v):
            problems.append(f"{name} = {v!r} must be finite")
    if math.isnan(p.B) or p.B == math.inf:
        problems.append(f"B = {p.B!r} must be finite or -inf")

    if p.variant is Variant.DUNCAN_TO_HARRY and p.y != 1.0:
        problems.append(f"variant {p.variant.value} requires y = 1, got {p.y!r}")
    if p.variant is Variant.ALICE_TO_HARRY:
        if p.w != 1.0:
            problems.append(f"variant {p.variant.value} requires w = 1, got {p.w!r}")
        if p.y != 1.0:
            problems.append(f"variant {p.variant.value} requires y = 1, got {p.y!r}")
        if p.B != NEG_INF:
            problems.append(f"variant {p.variant.value} requires B = -inf, got {p.B!r}")

    return problems


def parameter_warnings(p: GameParameters) -> list[str]:
    """Suspicious-but-legal configurations (positive attempt "costs")."""
    warnings = []
    if p.H > 0:
        warnings.append(f"H = {p.H!r} > 0: censorship attempts normally cost (H <= 0)")
    if p.I > 0:
        warnings.append(f"I = {p.I!r} > 0: de-anonymisation attempts normally cost (I <= 0)")
    return warnings


def duncan_to_harry(p: GameParameters) -> GameParameters:
    """Variant where Duncan goes straight to Harry (World backs Duncan surely)."""
    return replace(p, variant=Variant.DUNCAN_TO_HARRY, x=0.0, y=1.0)


def alice_to_harry(p: GameParameters) -> GameParameters:
    """Variant where Alice goes straight to Harry (trust certain, blocking hopeless)."""
    return replace(p, variant=Variant.ALICE_TO_HARRY, w=1.0, x=0.0, y=1.0, B=NEG_INF)


#: names of a game plan's value vector: the 19 parameters, then the derived
#: chance probabilities and the constant 0.0 (see :func:`plan_values`)
PLAN_VALUE_NAMES = PARAMETER_NAMES + ("1-w", "neutral", "1-z", "0")

_parameter_values = attrgetter(*PARAMETER_NAMES)


def plan_values(p: GameParameters) -> list[float]:
    """``p``'s value vector for :data:`GAME_PLAN`, indexed as :data:`PLAN_VALUE_NAMES`."""
    neutral = 1.0 - p.x - p.y
    if neutral < 0.0:  # only possible within SIMPLEX_TOL of zero
        neutral = 0.0
    return [*_parameter_values(p), 1.0 - p.w, neutral, 1.0 - p.z, 0.0]


#: the derived values of :func:`plan_values` that each parameter also moves
_DERIVED = {"w": ("1-w",), "x": ("neutral",), "y": ("neutral",), "z": ("1-z",)}

#: parameter -> indices into :func:`plan_values` of every value that changes
#: when only that parameter does: its own entry, plus ``1-w`` for w,
#: ``neutral`` for x and y, and ``1-z`` for z
MOVED_VALUES = {
    name: tuple(PLAN_VALUE_NAMES.index(v) for v in (name, *_DERIVED.get(name, ())))
    for name in PARAMETER_NAMES
}


def _game_plan() -> Plan:
    """The one description of the game's shape; see the module docstring.

    Each node's children, whole subtrees, are created one after another in
    the order they are listed, so the slots come out in the post-order that
    :class:`~wbgame.tree.Plan` describes.
    """
    plan = Plan(PLAN_VALUE_NAMES)
    term, chance, decide = plan.terminal, plan.chance, plan.decision

    def censored(extra: str, paper_node: int) -> int:
        # broadcast already dead; only the pursuit question remains
        return decide(
            Player.TOM,
            f"tom: pursue alice? (node {paper_node})",
            [
                ("pursue", term(OutcomeClass.CENSORED_JAILED.value, ("c",), ("C", extra, "I"))),
                ("drop", term(OutcomeClass.CENSORED_ANONYMOUS.value, ("d",), ("D", extra))),
            ],
            active="pursue",
        )

    def uncensored(extra: str, paper_node: int) -> int:
        # broadcast is out; Harry's strength decides whether a pursuit lands
        pursue_harry = chance(
            "harry protection",
            [
                ("harry-strong", "z",
                 term(OutcomeClass.UNCENSORED_IMPUNITY.value, ("f",), ("F", extra, "I"))),
                ("harry-weak", "1-z",
                 term(OutcomeClass.UNCENSORED_JAILED.value, ("g",), ("G", extra, "I"))),
            ],
        )
        drop_harry = chance(
            "harry protection",
            [
                ("harry-strong", "z",
                 term(OutcomeClass.UNCENSORED_ANONYMOUS.value, ("e",), ("E", extra))),
                ("harry-weak", "1-z",
                 term(OutcomeClass.UNCENSORED_ANONYMOUS.value, ("e",), ("E", extra))),
            ],
        )
        return decide(
            Player.TOM,
            f"tom: pursue alice? (node {paper_node})",
            [("pursue", pursue_harry), ("drop", drop_harry)],
            active="pursue",
        )

    def world(label_suffix: str, paper_nodes: tuple[int, int, int], extra: str,
              attempted: bool) -> int:
        tom_n, neutral_n, duncan_n = paper_nodes
        return chance(
            f"world reaction ({label_suffix})",
            [
                ("world-tom", "x", censored(extra, tom_n)),
                ("world-duncan", "y", uncensored(extra, duncan_n)),
                # neutrality lets the censorship attempt (or its absence) decide
                ("world-neutral", "neutral",
                 censored(extra, neutral_n) if attempted else uncensored(extra, neutral_n)),
            ],
        )

    block_choice = decide(
        Player.TOM,
        "tom: block duncan? (node 2)",
        [
            ("block", term(OutcomeClass.BLOCKED.value, ("b",), ("B",))),
            ("proceed", decide(
                Player.TOM,
                "tom: censor? (node 3)",
                [
                    ("censor", world("after censor attempt", (9, 7, 5), "H", attempted=True)),
                    ("hold", world("no censor attempt", (8, 6, 4), "0", attempted=False)),
                ],
                active="censor",
            )),
        ],
        active="block",
    )
    trust = chance(
        "duncan: trust alice?",
        [
            ("trust", "w", block_choice),
            ("no-trust", "1-w", term(OutcomeClass.NO_TRUST.value, ("a",), ("0",))),
        ],
    )
    decide(
        Player.ALICE,
        "alice: leak? (node 1)",
        [
            ("leak", trust),
            ("stay", term(OutcomeClass.NO_LEAK.value, ("0",), ("0",))),
        ],
        active="leak",
    )
    return plan


#: the standard game's shape, compiled once: every variant and every
#: parameter point shares it, so only :func:`plan_values` changes. Read-only.
GAME_PLAN = _game_plan()


def build_game(p: GameParameters) -> Node:
    """Build the whistleblowing tree for ``p`` (root node).

    All variants share the standard structure, :data:`GAME_PLAN`; the variant
    builders merely pin probabilities/payoffs, leaving zero-probability
    branches in place (use :func:`prune_zero` to drop them).
    """
    problems = validate_parameters(p)
    if problems:
        raise ValueError("invalid parameters: " + "; ".join(problems))
    return GAME_PLAN.instantiate(plan_values(p))


def prune_zero(node: Node) -> Node:
    """Drop chance branches with probability exactly 0; collapse unit branches.

    A chance node left with a single branch of probability 1 is replaced by
    that branch's (pruned) child. Subtrees that need no change are returned
    as the same objects, so terminals surviving a prune are shared with the
    original tree.
    """
    if isinstance(node, Terminal):
        return node
    if isinstance(node, Decision):
        actions = tuple((label, prune_zero(child)) for label, child in node.actions)
        if all(new is old for (_, new), (_, old) in zip(actions, node.actions)):
            return node
        return Decision(node.owner, node.label, actions, node.active_action)

    kept = tuple(
        (label, prob, prune_zero(child))
        for label, prob, child in node.branches
        if prob != 0.0
    )
    if len(kept) == 1 and abs(kept[0][1] - 1.0) <= PROB_SUM_TOL:
        return kept[0][2]
    if len(kept) == len(node.branches) and all(
        new is old for (_, _, new), (_, _, old) in zip(kept, node.branches)
    ):
        return node
    return Chance(node.label, kept)


# --- closed-form decision rules -------------------------------------------
#
# These re-derive Tom's and Alice's equilibrium choices directly from the
# parameters, independently of the tree walk, so the solver can be
# cross-checked. H never appears: it is sunk at every node where these
# comparisons happen, so it cancels.


def tom_pursues_censored(p: GameParameters) -> bool:
    """Tom pursues Alice after a censored broadcast iff C + I >= D."""
    return p.C + p.I >= p.D


def tom_pursues_uncensored(p: GameParameters) -> bool:
    """Tom pursues after an uncensored broadcast iff z*F + (1-z)*G + I >= E.

    Left side: pursuing yields impunity (F) when Harry is strong, a jailed
    Alice (G) when he is weak, minus the attempt. Right side: dropping leaves
    Alice anonymous (E).
    """
    return p.z * p.F + (1.0 - p.z) * p.G + p.I >= p.E


def tom_blocks(p: GameParameters, censor_node_value: float) -> bool:
    """Tom blocks Duncan iff B >= the value of letting the game continue.

    ``censor_node_value`` is Tom's solved expected value at the censor
    decision (the game's node 3).
    """
    return p.B >= censor_node_value


def alice_leak_value(p: GameParameters, trust_subgame_value: float) -> float:
    """Alice's expected value of leaking: (1-w)*a + w*(post-trust value).

    She leaks exactly when this is strictly positive (staying is worth 0).
    """
    return (1.0 - p.w) * p.a + p.w * trust_subgame_value


# node identifiers of the six pursue decisions in the built tree
CENSORED_NODE_IDS = (
    "leak/trust/proceed/censor/world-tom",
    "leak/trust/proceed/censor/world-neutral",
    "leak/trust/proceed/hold/world-tom",
)
UNCENSORED_NODE_IDS = (
    "leak/trust/proceed/censor/world-duncan",
    "leak/trust/proceed/hold/world-duncan",
    "leak/trust/proceed/hold/world-neutral",
)
BLOCK_NODE_ID = "leak/trust"
CENSOR_NODE_ID = "leak/trust/proceed"
ROOT_NODE_ID = ""
