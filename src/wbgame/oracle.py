"""Brute-force certification of subgame perfection.

Enumerates every pure strategy profile and keeps those for which no
single-node deviation improves the deviating owner's value in the subgame
rooted at that node -- in a finite perfect-information tree that condition is
exactly subgame perfection. Ties are then filtered with the same tie policy
the solver uses, leaving one canonical profile that must match ``solve``.

Per-subtree expected utilities are tabulated once per call: one table per
node, keyed by ``id(node)`` (sound because the tree is validated first), that
maps the restriction of a profile to the subtree's decisions to the
subtree's value. Checking all profiles of the standard 9-decision tree then
costs a few thousand lookups rather than millions of tree walks.

The lookups are the hot loop, so each is prepared once per call. A node's
sub-profile key is cut from the full profile by ``operator.itemgetter`` over
the positions of its subtree's decisions, which runs in C where a generator
expression per lookup would not; ``itemgetter`` of one position returns the
bare label, so a one-decision table is re-keyed by that label. A node with no
decision below it (every terminal, and a chance node over terminals only)
has a one-entry table whose value no profile can change, so it is resolved
to that constant before the loop.
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


def _build_tables(
    root: Node, risk: RiskProfile
) -> dict[int, tuple[tuple[int, ...], dict[tuple[str, ...], tuple[float, float]]]]:
    """Per ``id(node)``: (``id`` of each decision in its subtree, in preorder,
    sub-profile -> (alice, tom) EU)."""
    tables: dict[int, tuple[tuple[int, ...], dict[tuple[str, ...], tuple[float, float]]]] = {}

    def walk(node: Node):
        if isinstance(node, Terminal):
            value = (
                risk_transform(node.payoffs[Player.ALICE], risk.alice),
                risk_transform(node.payoffs[Player.TOM], risk.tom),
            )
            entry = ((), {(): value})
        elif isinstance(node, Chance):
            kids = [(prob, walk(child)) for _, prob, child in node.branches]
            ids: tuple[int, ...] = tuple(i for _, (kid_ids, _) in kids for i in kid_ids)
            table: dict[tuple[str, ...], tuple[float, float]] = {}
            for rows in itertools.product(*[kid_table.items() for _, (_, kid_table) in kids]):
                key = tuple(k for kid_key, _ in rows for k in kid_key)
                alice = tom = 0.0
                for (prob, _), (_, kid_value) in zip(kids, rows):
                    if prob > 0.0:  # 0 * -inf would be NaN
                        alice += prob * kid_value[0]
                        tom += prob * kid_value[1]
                table[key] = (alice, tom)
            entry = (ids, table)
        else:
            kids = [(label, walk(child)) for label, child in node.actions]
            ids = (id(node),) + tuple(i for _, (kid_ids, _) in kids for i in kid_ids)
            table = {}
            for rows in itertools.product(*[kid_table.items() for _, (_, kid_table) in kids]):
                key_rest = tuple(k for kid_key, _ in rows for k in kid_key)
                for idx, (label, _) in enumerate(kids):
                    table[(label,) + key_rest] = rows[idx][1]
            entry = (ids, table)
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
        positions = [index_of[i] for i in sub_ids]
        if not positions:
            lookups[key] = (None, table[()])
        elif len(positions) == 1:  # itemgetter(i) returns the bare label
            lookups[key] = (itemgetter(positions[0]), {k[0]: v for k, v in table.items()})
        else:
            lookups[key] = (itemgetter(*positions), table)

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
