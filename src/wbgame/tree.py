"""Generic extensive-form game trees: two strategic players plus chance nodes.

Trees are immutable after construction and all operations here are pure
functions, so trees can be shared freely across threads.

Node identifiers are path strings (action/branch labels joined by "/", root =
""), which stay stable across refactors of the builders. They name nodes in
profiles, results and output. Only this module composes them (plus the hot
loop of :func:`wbgame.solver.solve`, which builds the same strings inline).
Every other walker keys nodes by ``id(node)``: :func:`validate_tree` rejects
any node object reachable by two paths, so in a valid tree each object is
exactly one node. Walkers that key by object call :func:`require_valid`
first (directly or through :func:`chosen_children`).

Payoffs are extended reals: any finite float, or negative infinity
(``float("-inf")``). Positive infinity and NaN are rejected by validation.
IEEE semantics give exactly the arithmetic we need (-inf + finite = -inf,
-inf < every finite value), with one caveat handled throughout this package:
0 * -inf is NaN, so zero-probability branches are always skipped when
averaging.

A :class:`Plan` is one tree shape whose numbers come from a value vector: it
stands for every tree that differs from the others only in its numbers, so a
caller that re-solves one shape at many points builds the shape once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterator, NamedTuple, Union

NEG_INF = float("-inf")

#: absolute tolerance for chance-branch probabilities summing to 1
PROB_SUM_TOL = 1e-9

_first = itemgetter(0)


class Player(Enum):
    ALICE = "alice"
    TOM = "tom"

    # Enum hashes by name in Python code; members are singletons compared by
    # identity, so identity hashing is equivalent and keeps the payoff and
    # value dict lookups of every solve in C.
    __hash__ = object.__hash__


PLAYERS = (Player.ALICE, Player.TOM)


@dataclass(frozen=True)
class Terminal:
    """Leaf node holding one payoff per player."""

    label: str
    payoffs: dict[Player, float]


@dataclass(frozen=True)
class Decision:
    """Node owned by a strategic player.

    ``actions`` is an ordered tuple of (action label, child). ``active_action``
    optionally flags the "do something" action for tie-breaking; see
    :mod:`wbgame.solver`.
    """

    owner: Player
    label: str
    actions: tuple[tuple[str, "Node"], ...]
    active_action: str | None = None


@dataclass(frozen=True)
class Chance:
    """Node resolved by a known distribution.

    ``branches`` is an ordered tuple of (branch label, probability, child).
    Branch labels participate in node identifiers, so they must be unique
    within a node.
    """

    label: str
    branches: tuple[tuple[str, float, "Node"], ...]


Node = Union[Terminal, Decision, Chance]

#: pure strategy: decision-node identifier -> chosen action label
StrategyProfile = dict[str, str]


def terminal(label: str, alice: float, tom: float) -> Terminal:
    return Terminal(label, {Player.ALICE: alice, Player.TOM: tom})


def decision(
    owner: Player,
    label: str,
    actions: list[tuple[str, Node]] | tuple[tuple[str, Node], ...],
    active: str | None = None,
) -> Decision:
    return Decision(owner, label, tuple(actions), active)


def chance(
    label: str,
    branches: list[tuple[str, float, Node]] | tuple[tuple[str, float, Node], ...],
) -> Chance:
    return Chance(label, tuple(branches))


def iter_nodes(root: Node) -> Iterator[tuple[str, Node]]:
    """Yield (identifier, node) pairs in preorder."""
    # explicit stack of (identifier, node, is_root); children are pushed in
    # reverse so they pop in order. Only the root's children skip the "/",
    # which matches "/".join(path) even when labels are empty.
    stack: list[tuple[str, Node, bool]] = [("", root, True)]
    pop, push = stack.pop, stack.append
    while stack:
        nid, node, is_root = pop()
        yield nid, node
        kind = type(node)
        if kind is Decision:
            prefix = "" if is_root else nid + "/"
            for label, child in reversed(node.actions):
                push((prefix + label, child, False))
        elif kind is Chance:
            prefix = "" if is_root else nid + "/"
            for label, _, child in reversed(node.branches):
                push((prefix + label, child, False))


def decisions(root: Node) -> list[tuple[str, Decision]]:
    return [(nid, n) for nid, n in iter_nodes(root) if type(n) is Decision]


def terminals(root: Node) -> list[tuple[str, Terminal]]:
    return [(nid, n) for nid, n in iter_nodes(root) if type(n) is Terminal]


class NodeCounts(NamedTuple):
    decision: int
    chance: int
    terminal: int


def count_nodes(root: Node) -> NodeCounts:
    """Exact node counts by kind."""
    dec = cha = ter = 0
    for _, node in iter_nodes(root):
        if isinstance(node, Decision):
            dec += 1
        elif isinstance(node, Chance):
            cha += 1
        else:
            ter += 1
    return NodeCounts(dec, cha, ter)


def validate_tree(root: Node) -> list[str]:
    """Collect every structural violation; an empty list means the tree is valid.

    Checks: chance probabilities lie in [0, 1] and sum to 1 (within
    PROB_SUM_TOL), decision nodes have >= 2 uniquely-labelled actions,
    terminals carry a payoff for both players with no +inf/NaN, labels on
    outgoing edges are unique and non-empty, and no node object appears twice
    (which would make a node have two parents, or a cycle).
    """
    violations: list[str] = []
    append = violations.append
    seen: set[int] = set()
    stack: list[tuple[str, Node, bool]] = [("", root, True)]
    pop, push = stack.pop, stack.append
    while stack:
        nid, node, is_root = pop()
        where = nid or "(root)"
        before = len(seen)
        seen.add(id(node))
        if len(seen) == before:
            append(f"{where}: node object reachable by more than one path")
            continue
        kind = type(node)
        if kind is Terminal:
            payoffs = node.payoffs
            for p in PLAYERS:
                if p not in payoffs:
                    append(f"{where}: terminal is missing a payoff for {p.value}")
                elif not NEG_INF <= payoffs[p] < math.inf:  # NaN fails too
                    append(
                        f"{where}: payoff for {p.value} is {payoffs[p]!r} "
                        "(must be finite or -inf)"
                    )
            continue
        prefix = "" if is_root else nid + "/"
        if kind is Decision:
            actions = node.actions
            labels = list(map(_first, actions))
            if len(actions) < 2:
                append(f"{where}: decision node has {len(actions)} action(s), needs >= 2")
            if len(set(labels)) != len(labels):
                append(f"{where}: duplicate action labels {labels}")
            if not all(labels):
                append(f"{where}: empty action label")
            active = node.active_action
            if active is not None and active not in labels:
                append(f"{where}: active_action {active!r} is not one of {labels}")
            for label, child in reversed(actions):
                push((prefix + label, child, False))
            continue
        branches = node.branches
        labels = list(map(_first, branches))
        if len(set(labels)) != len(labels):
            append(f"{where}: duplicate branch labels {labels}")
        if not all(labels):
            append(f"{where}: empty branch label")
        total = 0.0
        for label, prob, _ in branches:
            if 0.0 <= prob <= 1.0:  # False for NaN
                total += prob
            else:
                append(f"{where}: branch {label!r} probability {prob!r} outside [0, 1]")
        if abs(total - 1.0) > PROB_SUM_TOL:
            append(f"{where}: probabilities sum to {total!r}, not 1")
        for label, _, child in reversed(branches):
            push((prefix + label, child, False))
    return violations


def require_valid(root: Node) -> None:
    """Raise ValueError listing every violation unless ``root`` is a valid tree."""
    problems = validate_tree(root)
    if problems:
        raise ValueError("invalid tree: " + "; ".join(problems))


def check_profile(root: Node, profile: StrategyProfile) -> None:
    """Raise ValueError unless ``profile``'s domain is exactly the decision nodes."""
    wanted: dict[str, Decision] = dict(decisions(root))
    extra = set(profile) - set(wanted)
    missing = set(wanted) - set(profile)
    if extra or missing:
        raise ValueError(
            f"profile does not match tree (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    for nid, node in wanted.items():
        labels = {label for label, _ in node.actions}
        if profile[nid] not in labels:
            raise ValueError(f"profile chooses unknown action {profile[nid]!r} at {nid!r}")


def chosen_children(root: Node, profile: StrategyProfile) -> dict[int, Node]:
    """``id(decision)`` -> the child ``profile`` picks there, for a valid tree and profile."""
    require_valid(root)
    check_profile(root, profile)
    return {id(node): dict(node.actions)[profile[nid]] for nid, node in decisions(root)}


def terminal_reach_probabilities(root: Node, profile: StrategyProfile) -> dict[str, float]:
    """Probability of reaching each terminal under ``profile``, zero entries included."""
    check_profile(root, profile)
    return unchecked_reach_probabilities(root, profile)


def unchecked_reach_probabilities(root: Node, profile: StrategyProfile) -> dict[str, float]:
    """:func:`terminal_reach_probabilities` for a profile already known to fit ``root``."""
    out: dict[str, float] = {}
    stack: list[tuple[str, Node, bool, float]] = [("", root, True, 1.0)]
    pop, push = stack.pop, stack.append
    while stack:
        nid, node, is_root, prob = pop()
        kind = type(node)
        if kind is Terminal:
            out[nid] = prob
            continue
        prefix = "" if is_root else nid + "/"
        if kind is Decision:
            chosen = profile[nid]
            for label, child in reversed(node.actions):
                push((prefix + label, child, False, prob if label == chosen else 0.0))
        else:
            for label, p, child in reversed(node.branches):
                push((prefix + label, child, False, prob * p))
    return out


class PlanSlot(NamedTuple):
    """One node of a :class:`Plan`.

    ``kind`` is :class:`Terminal`, :class:`Chance` or :class:`Decision`.
    ``labels[i]`` names the edge to slot ``children[i]``; a chance slot's
    ``probs[i]`` is the value index of that edge's probability. A terminal's
    ``payoffs`` are indices into :meth:`Plan.extend`'s vector, one per player
    in ``PLAYERS`` order.
    """

    kind: type
    label: str
    owner: Player | None
    active: str | None
    labels: tuple[str, ...]
    children: tuple[int, ...]
    probs: tuple[int, ...]
    payoffs: tuple[int, ...]


class Plan:
    """A fixed tree shape whose numbers are indices into a value vector.

    ``slots`` lists the nodes, root last. Each of :meth:`terminal`,
    :meth:`chance` and :meth:`decision` appends one slot and returns its
    index, so calls nested as the tree nests, each node's children written in
    order, list the slots in the order a depth-first walk leaves the nodes
    (post-order), which is the order :func:`wbgame.solver.solve` finishes
    them. Numbers are named by ``value_names``. A payoff names the terms of a sum taken left to
    right, so ``("C", "H", "I")`` is ``(C + H) + I``; each distinct sum is
    taken once per value vector, by :meth:`extend`. :meth:`instantiate` turns
    one value vector into the tree.
    """

    def __init__(self, value_names: tuple[str, ...]) -> None:
        self.value_names = value_names
        self._index = {name: i for i, name in enumerate(value_names)}
        #: extended-vector index of each sum of two or more terms, by its terms
        self._sum_index: dict[tuple[int, ...], int] = {}
        #: (first term, later terms) of each such sum, in extended-vector order
        self.sums: list[tuple[int, tuple[int, ...]]] = []
        self.slots: list[PlanSlot] = []
        #: indices of the terminal slots, and of the others, in slot order
        self.terminals: list[int] = []
        self.inner: list[int] = []

    def _add(self, slot: PlanSlot) -> int:
        index = len(self.slots)
        self.slots.append(slot)
        (self.terminals if slot.kind is Terminal else self.inner).append(index)
        return index

    def _payoff(self, names: tuple[str, ...]) -> int:
        terms = tuple(self._index[name] for name in names)
        if len(terms) == 1:
            return terms[0]
        if terms not in self._sum_index:
            self._sum_index[terms] = len(self.value_names) + len(self.sums)
            self.sums.append((terms[0], terms[1:]))
        return self._sum_index[terms]

    def terminal(self, label: str, alice: tuple[str, ...], tom: tuple[str, ...]) -> int:
        payoffs = (self._payoff(alice), self._payoff(tom))
        return self._add(PlanSlot(Terminal, label, None, None, (), (), (), payoffs))

    def chance(self, label: str, branches: list[tuple[str, str, int]]) -> int:
        return self._add(PlanSlot(
            Chance, label, None, None,
            tuple(b[0] for b in branches),
            tuple(b[2] for b in branches),
            tuple(self._index[b[1]] for b in branches),
            (),
        ))

    def decision(self, owner: Player, label: str, actions: list[tuple[str, int]],
                 active: str | None = None) -> int:
        return self._add(PlanSlot(
            Decision, label, owner, active,
            tuple(a[0] for a in actions),
            tuple(a[1] for a in actions),
            (),
            (),
        ))

    def dependents(self, indices) -> list[int]:
        """The slots, in post-order, that depend on a value at one of ``indices``.

        ``indices`` index :attr:`value_names`. A slot depends on them when it is
        a terminal whose payoff sum uses one, a chance slot whose probability is
        one, or an ancestor of such a slot; every other slot's value stays the
        same however those values change.
        """
        moved = set(indices)
        first_sum = len(self.value_names)
        for k, (first, rest) in enumerate(self.sums):
            if first in moved or not moved.isdisjoint(rest):
                moved.add(first_sum + k)
        hit = [False] * len(self.slots)
        for i, slot in enumerate(self.slots):  # children come before their parent
            hit[i] = (not moved.isdisjoint(slot.payoffs) or not moved.isdisjoint(slot.probs)
                      or any(hit[c] for c in slot.children))
        return [i for i, h in enumerate(hit) if h]

    def extend(self, values) -> list[float]:
        """``values`` followed by the plan's payoff sums, each summed left to right."""
        ext = list(values)
        append = ext.append
        for first, rest in self.sums:
            v = ext[first]
            for k in rest:
                v += ext[k]
            append(v)
        return ext

    def instantiate(self, values) -> Node:
        """The tree this plan describes at ``values`` (indexed as ``value_names``)."""
        ext = self.extend(values)
        value = ext.__getitem__
        nodes: list[Node] = []
        node, append = nodes.__getitem__, nodes.append
        alice, tom = PLAYERS
        for kind, label, owner, active, labels, children, probs, payoffs in self.slots:
            if kind is Terminal:
                a, t = payoffs
                append(Terminal(label, {alice: ext[a], tom: ext[t]}))
            elif kind is Chance:
                append(Chance(label, tuple(zip(labels, map(value, probs), map(node, children)))))
            else:
                append(Decision(owner, label, tuple(zip(labels, map(node, children))), active))
        return nodes[-1]
