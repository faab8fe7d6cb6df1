"""Brute-force certification of subgame perfection.

Enumerates every pure strategy profile and keeps those for which no
single-node deviation improves the deviating owner's value in the subgame
rooted at that node -- in a finite perfect-information tree that condition is
exactly subgame perfection. Ties are then filtered with the same tie policy
the solver uses, leaving one canonical profile that must match ``solve``.

Per-subtree expected utilities are tabulated once per call: one table per
node, keyed by ``id(node)`` (sound because the tree is validated first), that
maps the restriction of a profile to the subtree's decisions to the
subtree's value. The tables are filled on demand: an entry is computed from
the child tables the first time a deviation check reads it, by cutting its
key at fixed offsets into the children's keys and running the same float
operations in the same order as tabulating every entry up front would.
The checks reject most profiles at a deep node, so a call on the standard
9-decision tree fills about 20 of its 1207 entries, and
checking all its profiles costs a few thousand lookups rather than millions
of tree walks.

The lookups are the hot loop, so each is prepared once per call. A node's
sub-profile key is cut from the full profile by ``operator.itemgetter`` over
the positions of its subtree's decisions, which runs in C where a generator
expression per lookup would not; ``itemgetter`` of one position returns the
bare label, so a one-decision table is keyed by that label. A node with no
decision below it (every terminal, and a chance node over terminals only)
is resolved to its constant value before the loop, so a payoff the risk
transform rejects fails before any profile is enumerated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .solver import RISK_NEUTRAL, PAPER_TIES, RiskProfile, TiePolicy, preferred_on_tie, risk_transform
from .tree import (
    Chance,
    Decision,
    Node,
    Player,
    StrategyProfile,
    Terminal,
    decisions,
    require_valid,
)

#: most pure strategy profiles the oracle enumerates; the standard game has 512
PROFILE_CAP = 2**20

_PLAYER_INDEX = {Player.ALICE: 0, Player.TOM: 1}


class EnumerationCapError(ValueError):
    """Raised when a tree has more pure profiles than :data:`PROFILE_CAP`."""


@dataclass
class OracleResult:
    """All subgame-perfect profiles plus the tie-canonical one.

    ``root_values[i]`` belongs to ``spe_profiles[i]``. ``canonical`` is the
    unique profile surviving the tie filter; it is what ``solve`` must match.
    """

    spe_profiles: list[StrategyProfile]
    root_values: list[dict[Player, float]]
    canonical: StrategyProfile
    canonical_root_value: dict[Player, float]


def _label_sets(decs: list[tuple[str, Decision]]) -> list[list[str]]:
    """Action labels per decision; raises EnumerationCapError past :data:`PROFILE_CAP`."""
    label_sets = [[label for label, _ in node.actions] for _, node in decs]
    total = math.prod(map(len, label_sets))
    if total > PROFILE_CAP:
        raise EnumerationCapError(f"{total} profiles exceed the cap of {PROFILE_CAP}")
    return label_sets


def enumerate_profiles(root: Node):
    """Yield every pure strategy profile, in deterministic preorder digits.

    Raises EnumerationCapError if the profile count exceeds :data:`PROFILE_CAP`.
    """
    decs = decisions(root)
    ids = [nid for nid, _ in decs]
    for combo in itertools.product(*_label_sets(decs)):
        yield dict(zip(ids, combo))


class _LazyTable(dict):
    """Sub-profile key -> (alice, tom) EU; each entry is computed on its first read."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill  # reads child tables only, so no reference cycle

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _part(entry, offset: int, width: int):
    """Getter of a child's value from its parent's key tuple, in which the
    child's ``width`` decisions start at ``offset``; ``entry`` is the child's
    constant value when ``width`` is 0, else its table."""
    if width == 0:
        return lambda key: entry
    if width == 1:  # one-decision tables are keyed by the bare label
        return lambda key: entry[key[offset]]
    end = offset + width
    return lambda key: entry[key[offset:end]]


def _chance_fill(probs: list[float], parts: list, width: int):
    """Entry of a chance node's table over ``width`` decisions: its
    children's values weighted by branch probability."""

    def fill(key):
        if width == 1:  # a one-decision key is the bare label
            key = (key,)
        alice = tom = 0.0
        for prob, part in zip(probs, parts):
            if prob > 0.0:  # 0 * -inf would be NaN
                kid_value = part(key)
                alice += prob * kid_value[0]
                tom += prob * kid_value[1]
        return alice, tom

    return fill


def _decision_fill(parts: dict, width: int):
    """Entry of a decision node's table over ``width`` decisions: the value of
    the child its own label (the key's first) picks."""

    def fill(key):
        if width == 1:
            key = (key,)
        return parts[key[0]](key)

    return fill


def _build_tables(root: Node, risk: RiskProfile) -> dict[int, tuple[tuple[int, ...], object]]:
    """Per ``id(node)``: (``id`` of each decision in its subtree, in preorder,
    its constant (alice, tom) EU when that tuple is empty, else its lazy
    table keyed by sub-profile, or by the bare label for one decision)."""
    tables: dict[int, tuple[tuple[int, ...], object]] = {}

    def walk(node: Node):
        if isinstance(node, Terminal):
            value = (
                risk_transform(node.payoffs[Player.ALICE], risk.alice),
                risk_transform(node.payoffs[Player.TOM], risk.tom),
            )
            entry = ((), value)
        else:
            is_chance = isinstance(node, Chance)
            if is_chance:
                edges = [(prob, child) for _, prob, child in node.branches]
                ids: tuple[int, ...] = ()
            else:
                edges = node.actions
                ids = (id(node),)
            # each child's key is cut from this node's key at a fixed offset
            parts = []
            for _, child in edges:
                kid_ids, kid_entry = walk(child)
                parts.append(_part(kid_entry, len(ids), len(kid_ids)))
                ids += kid_ids
            if is_chance:
                fill = _chance_fill([prob for prob, _ in edges], parts, len(ids))
            else:
                fill = _decision_fill(dict(zip([label for label, _ in edges], parts)), len(ids))
            # no decision below (a chance node over terminals): resolve it now
            entry = (ids, _LazyTable(fill)) if ids else ((), fill(()))
        tables[id(node)] = entry
        return entry

    try:
        walk(root)
    finally:
        del walk  # it refers to itself: unbound, it leaves no cycle for the GC
    return tables


def brute_force_spe(
    root: Node,
    risk: RiskProfile = RISK_NEUTRAL,
    ties: TiePolicy = PAPER_TIES,
) -> OracleResult:
    """Enumerate profiles and certify subgame perfection by deviation checks."""
    require_valid(root)

    decs = decisions(root)
    label_sets = _label_sets(decs)
    tables = _build_tables(root, risk)
    ids = [nid for nid, _ in decs]
    index_of = {id(node): i for i, (_, node) in enumerate(decs)}

    # per node: a C-level getter of its sub-profile key from a full combo and
    # the table it keys, or (None, value) when no decision lies below it
    lookups: dict[int, tuple[itemgetter | None, object]] = {}
    for key, (sub_ids, table) in tables.items():
        # itemgetter of one position returns the bare label, as its table expects
        lookups[key] = (itemgetter(*[index_of[i] for i in sub_ids]) if sub_ids else None, table)

    # per decision node: its index in a combo, the owner's value index, its
    # own lookup, one (label, lookup) per child, and the active action.
    # Reversed preorder checks every decision before its ancestors: deep
    # checks have short keys and reject most failing profiles sooner. The
    # checks form a conjunction, so their order changes no result.
    checks = [
        (
            index,
            _PLAYER_INDEX[node.owner],
            *lookups[id(node)],
            [(label, *lookups[id(child)]) for label, child in node.actions],
            node.active_action,
        )
        for index, (_, node) in enumerate(decs)
    ][::-1]

    spe_profiles: list[StrategyProfile] = []
    root_values: list[dict[Player, float]] = []
    canonical: list[StrategyProfile] = []
    canonical_values: list[dict[Player, float]] = []
    root_key, root_table = lookups[id(root)]

    for combo in itertools.product(*label_sets):
        is_spe = True
        is_canonical = True
        for index, owner_idx, own_key, own_table, kids, active in checks:
            base = own_table[own_key(combo)][owner_idx]
            chosen = combo[index]
            best = base
            winners = []
            for label, kid_key, kid_table in kids:
                val = (kid_table[kid_key(combo)] if kid_key else kid_table)[owner_idx]
                if val > base:
                    is_spe = False
                    break
                if val == best:
                    winners.append(label)
            if not is_spe:
                break
            if len(winners) > 1:
                rule = ties.rule_for(Player.ALICE if owner_idx == 0 else Player.TOM)
                if chosen != preferred_on_tie(winners, rule, active):
                    is_canonical = False
        if not is_spe:
            continue
        profile = dict(zip(ids, combo))
        value_pair = root_table[root_key(combo)] if root_key else root_table
        value = {Player.ALICE: value_pair[0], Player.TOM: value_pair[1]}
        spe_profiles.append(profile)
        root_values.append(value)
        if is_canonical:
            canonical.append(profile)
            canonical_values.append(value)

    if len(canonical) != 1:
        raise AssertionError(
            f"tie filtering left {len(canonical)} canonical profiles, expected exactly 1"
        )
    return OracleResult(spe_profiles, root_values, canonical[0], canonical_values[0])
