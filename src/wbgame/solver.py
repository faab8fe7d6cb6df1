"""Subgame-perfect equilibrium by backward induction.

The solver works leaves-to-root: terminal payoffs are passed through the
owner's risk transform, chance nodes take probability-weighted averages
(skipping zero-probability branches so -inf terminals behind dead branches
cannot poison the average), and each decision node picks the action
maximising its owner's value, with exact ties resolved by a per-player
:class:`TiePolicy`.

Risk attitudes use the constant-absolute-risk-aversion family

    u_a(v) = (1 - exp(-a * v)) / a        (a != 0, evaluated as -expm1(-a*v) / a)
    u_0(v) = v                            (exact identity, no limit taken)

``a > 0`` is risk-averse, ``a < 0`` risk-seeking. ``u_a(0) = 0`` for every
``a``, which preserves the root decision's "strictly better than staying
quiet" semantics. ``u_a(-inf) = -inf`` by definition for all ``a``, keeping
negative infinity absorbing and dominated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .tree import (
    NEG_INF,
    PLAYERS,
    Chance,
    Node,
    Plan,
    Player,
    StrategyProfile,
    Terminal,
    chosen_children,
    decisions,
    require_valid,
    unchecked_reach_probabilities,
)


class TieRule(Enum):
    ACT_ON_TIE = "act"
    REFRAIN_ON_TIE = "refrain"


@dataclass(frozen=True)
class TiePolicy:
    """Per-player tie rule. Defaults: Tom acts on ties, Alice refrains."""

    alice: TieRule = TieRule.REFRAIN_ON_TIE
    tom: TieRule = TieRule.ACT_ON_TIE

    def rule_for(self, player: Player) -> TieRule:
        return self.alice if player is Player.ALICE else self.tom


@dataclass(frozen=True)
class RiskProfile:
    """Per-player risk coefficient; 0 = neutral, > 0 averse, < 0 seeking."""

    alice: float = 0.0
    tom: float = 0.0

    def coefficient(self, player: Player) -> float:
        return self.alice if player is Player.ALICE else self.tom


#: scenario keys of :class:`RiskProfile`'s coefficients: ``"risk_"`` and
#: each field name, in field order; ``analysis.sweep`` takes them too
RISK_NAMES = ("risk_alice", "risk_tom")

RISK_NEUTRAL = RiskProfile()
PAPER_TIES = TiePolicy()


@dataclass(frozen=True)
class SolveResult:
    """Equilibrium profile plus per-node expected values and outcome odds.

    ``node_values`` covers every node (terminals hold their transformed
    payoffs); ``outcome_distribution`` maps every terminal identifier to its
    reach probability under ``profile``, zero entries included.
    """

    profile: StrategyProfile
    node_values: dict[str, dict[Player, float]]
    root_value: dict[Player, float]
    outcome_distribution: dict[str, float]


def risk_transform(v: float, alpha: float) -> float:
    """Apply u_a to one extended-real payoff.

    Saturates to -inf when that is the mathematical limit (a > 0 with v very
    negative); raises OverflowError when the true value would exceed the
    float range upward (a < 0 with v very positive), since +inf is not a
    legal payoff.
    """
    if alpha == 0.0:
        return v
    if not math.isfinite(alpha):
        raise ValueError(f"risk coefficient must be finite, got {alpha!r}")
    if v == NEG_INF:
        return NEG_INF
    try:
        # expm1, not 1 - exp: the difference cancels to 0 as alpha -> 0
        u = -math.expm1(-alpha * v) / alpha
    except OverflowError:
        if alpha > 0:
            return NEG_INF
        raise OverflowError(
            f"risk transform overflows for v={v!r}, alpha={alpha!r}"
        ) from None
    if u == math.inf or math.isnan(u):
        raise OverflowError(f"risk transform out of range for v={v!r}, alpha={alpha!r}")
    return u


def preferred_on_tie(candidates: list[str], rule: TieRule, active: str | None) -> str:
    """Canonical choice among equally-good actions.

    ActOnTie prefers the flagged active action when it is among the
    candidates; RefrainOnTie prefers the first candidate that is not the
    active action. Either way the fallback is the first-listed candidate.
    """
    if rule is TieRule.ACT_ON_TIE:
        if active is not None and active in candidates:
            return active
        return candidates[0]
    passive = [c for c in candidates if c != active]
    return passive[0] if passive else candidates[0]


def solve(root: Node, risk: RiskProfile = RISK_NEUTRAL, ties: TiePolicy = PAPER_TIES) -> SolveResult:
    """Backward-induction SPE for a valid tree.

    Deterministic: identical inputs give identical results, including tie
    resolution.
    """
    require_valid(root)

    alice, tom = Player.ALICE, Player.TOM
    alpha_alice, alpha_tom = risk.alice, risk.tom
    node_values: dict[str, dict[Player, float]] = {}
    profile: StrategyProfile = {}

    # one recursive pass; ``nid`` is built as "/".join(path) would build it,
    # so only the root's children go without the "/" separator
    def visit(node: Node, nid: str, is_root: bool) -> dict[Player, float]:
        kind = type(node)
        if kind is Terminal:
            payoffs = node.payoffs
            vals = {
                alice: risk_transform(payoffs[alice], alpha_alice),
                tom: risk_transform(payoffs[tom], alpha_tom),
            }
        elif kind is Chance:
            prefix = "" if is_root else nid + "/"
            acc_alice = acc_tom = 0.0
            for label, prob, child in node.branches:
                cv = visit(child, prefix + label, False)
                if prob > 0.0:  # 0 * -inf would be NaN
                    acc_alice += prob * cv[alice]
                    acc_tom += prob * cv[tom]
            vals = {alice: acc_alice, tom: acc_tom}
        else:
            prefix = "" if is_root else nid + "/"
            owner = node.owner
            kids: dict[str, dict[Player, float]] = {}
            winners: list[str] = []
            best = NEG_INF
            for label, child in node.actions:
                cv = kids[label] = visit(child, prefix + label, False)
                v = cv[owner]
                if v > best or not winners:
                    best = v
                    winners = [label]
                elif v == best:
                    winners.append(label)
            choice = preferred_on_tie(winners, ties.rule_for(owner), node.active_action)
            profile[nid] = choice
            vals = dict(kids[choice])
        node_values[nid] = vals
        return vals

    try:
        root_value = visit(root, "", True)
    finally:
        del visit  # it refers to itself: unbound, it leaves no cycle for the GC
    # solve built the profile from the tree itself, so it needs no check_profile
    distribution = unchecked_reach_probabilities(root, profile)
    return SolveResult(profile, node_values, root_value, distribution)


class PlanEvaluator:
    """:func:`solve_plan` for a run of value vectors that differ only at ``moved``.

    ``moved`` holds indices into the plan's value vector; every vector passed
    must equal the first one everywhere else. The first call evaluates every
    slot. Later calls re-evaluate only the slots :meth:`Plan.dependents`
    lists for ``moved``; every other slot keeps its value, chosen child and
    choice from before, which that slot would compute again bit for bit. Each
    call therefore answers exactly as a fresh ``solve_plan`` at its vector
    would, and raises the same error. A call that raises leaves no stale
    slot behind: the slots it may have written are re-evaluated by the next
    call, or, if no call has succeeded yet, every slot is.

    Without ``moved`` every call evaluates every slot.
    """

    def __init__(self, plan: Plan, risk: RiskProfile = RISK_NEUTRAL,
                 ties: TiePolicy = PAPER_TIES, moved=None) -> None:
        self.plan = plan
        self.risk = risk
        self.ties = ties
        count = len(plan.slots)
        #: per-slot values for each player, chosen child slot and chosen label
        self._alice = [0.0] * count
        self._tom = [0.0] * count
        self._chosen = [0] * count
        self._choices: list[str | None] = [None] * count
        if moved is None:
            self._terminals, self._inner = plan.terminals, plan.inner
        else:
            slots = plan.slots
            dependent = plan.dependents(moved)
            self._terminals = [i for i in dependent if slots[i].kind is Terminal]
            self._inner = [i for i in dependent if slots[i].kind is not Terminal]
        #: whether a call has evaluated every slot without raising
        self._primed = False

    def __call__(self, values) -> tuple[frozenset[str], str | None]:
        plan = self.plan
        slots = plan.slots
        ext = plan.extend(values)
        if self._primed:
            terminals, inner = self._terminals, self._inner
        else:
            terminals, inner = plan.terminals, plan.inner
        alice_v, tom_v, chosen, choices = self._alice, self._tom, self._chosen, self._choices
        # solve validates the whole tree before it transforms any payoff
        for i in terminals:
            alice_at, tom_at = slots[i].payoffs
            a = alice_v[i] = ext[alice_at]
            t = tom_v[i] = ext[tom_at]
            if not (NEG_INF <= a < math.inf and NEG_INF <= t < math.inf):  # NaN fails too
                require_valid(plan.instantiate(values))  # raises solve's error
        alpha_alice, alpha_tom = self.risk.alice, self.risk.tom
        if alpha_alice != 0.0 or alpha_tom != 0.0:
            for i in terminals:
                alice_v[i] = risk_transform(alice_v[i], alpha_alice)
                tom_v[i] = risk_transform(tom_v[i], alpha_tom)

        rule_for = self.ties.rule_for
        for i in inner:
            kind, _, owner, active, labels, children, probs, _ = slots[i]
            if kind is Chance:
                acc_alice = acc_tom = 0.0
                for q, c in zip(probs, children):
                    prob = ext[q]
                    if prob > 0.0:  # 0 * -inf would be NaN
                        acc_alice += prob * alice_v[c]
                        acc_tom += prob * tom_v[c]
                alice_v[i] = acc_alice
                tom_v[i] = acc_tom
            else:
                own = alice_v if owner is Player.ALICE else tom_v
                winners: list[str] = []
                best = NEG_INF
                for label, c in zip(labels, children):
                    v = own[c]
                    if v > best or not winners:
                        best = v
                        winners = [label]
                    elif v == best:
                        winners.append(label)
                choice = preferred_on_tie(winners, rule_for(owner), active)
                c = children[labels.index(choice)]
                alice_v[i] = alice_v[c]
                tom_v[i] = tom_v[c]
                chosen[i] = c
                choices[i] = choice
        self._primed = True

        # reach probabilities as unchecked_reach_probabilities multiplies them;
        # a subtree reached with probability 0 keeps 0 all the way down
        reached: set[str] = set()
        stack = [(len(slots) - 1, 1.0)]
        pop, push = stack.pop, stack.append
        while stack:
            i, prob = pop()
            if not prob > 0.0:
                continue
            kind, label, _, _, _, children, probs, _ = slots[i]
            if kind is Terminal:
                reached.add(label)
            elif kind is Chance:
                for q, c in zip(probs, children):
                    push((c, prob * ext[q]))
            else:
                push((chosen[i], prob))
        return frozenset(reached), choices[-1]


def solve_plan(
    plan: Plan, values, risk: RiskProfile = RISK_NEUTRAL, ties: TiePolicy = PAPER_TIES
) -> tuple[frozenset[str], str | None]:
    """Labels of the terminals reached with positive probability, and the
    root's chosen action (None if the root is not a decision).

    Equal to what ``solve(plan.instantiate(values), risk, ties)`` gives through
    its outcome distribution and profile, bit for bit: the same float
    operations run in the same order, over the plan's slots instead of tree
    nodes, with no tree, node ids or dicts built. ``values`` must give chance
    probabilities that :func:`wbgame.tree.validate_tree` accepts; a payoff it
    would reject raises the same ``invalid tree`` error as ``solve``.

    This is one full evaluation by a fresh :class:`PlanEvaluator`. A caller
    that probes many values of one parameter keeps one evaluator instead,
    which re-evaluates only the slots that parameter reaches.
    """
    return PlanEvaluator(plan, risk, ties)(values)


def _eu_walk(node: Node, chosen: dict[int, Node], risk: RiskProfile) -> dict[Player, float]:
    """Transformed payoff per player below ``node``, summed over its paths."""
    totals = {p: 0.0 for p in PLAYERS}

    def walk(node: Node, prob: float) -> None:
        if prob == 0.0:
            return
        if isinstance(node, Terminal):
            for p in PLAYERS:
                totals[p] += prob * risk_transform(node.payoffs[p], risk.coefficient(p))
        elif isinstance(node, Chance):
            for _, q, child in node.branches:
                walk(child, prob * q)
        else:
            walk(chosen[id(node)], prob)

    try:
        walk(node, 1.0)
    finally:
        del walk  # it refers to itself: unbound, it leaves no cycle for the GC
    return totals


def expected_utility(
    root: Node, profile: StrategyProfile, risk: RiskProfile = RISK_NEUTRAL
) -> dict[Player, float]:
    """Probability-weighted transformed payoff per player under ``profile``.

    Computed by direct summation over root-to-terminal paths, so this is an
    independent route to the same number ``solve`` assigns to the root.
    """
    return _eu_walk(root, chosen_children(root, profile), risk)


def one_shot_violations(
    root: Node,
    profile: StrategyProfile,
    risk: RiskProfile = RISK_NEUTRAL,
) -> list[str]:
    """Single-node deviations that strictly improve the deviating owner.

    Empty for a subgame-perfect profile: in a finite perfect-information tree
    a profile is subgame-perfect exactly when no one-shot deviation helps.
    Both sides of each comparison are recomputed by path summation, so the
    check does not reuse the solver's own arithmetic.
    """
    chosen = chosen_children(root, profile)
    violations = []
    for nid, node in decisions(root):
        base = _eu_walk(node, chosen, risk)[node.owner]
        for label, child in node.actions:
            if label == profile[nid]:
                continue
            deviated = dict(chosen)
            deviated[id(node)] = child
            dev = _eu_walk(node, deviated, risk)[node.owner]
            if dev > base:
                violations.append(
                    f"{nid or '(root)'}: switching to {label!r} raises "
                    f"{node.owner.value} from {base!r} to {dev!r}"
                )
    return violations
