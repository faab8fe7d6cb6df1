"""Scenario files, result serialization, and DOT export.

Scenario grammar (``.scn``, UTF-8, a leading byte-order mark allowed): one
``key = value`` per line, ``#`` starts a comment, blank lines are ignored.
The 19 numeric keys are required::

    w x y z            probabilities (x + y <= 1)
    a b c d e f g      Alice's payoffs
    B C D E F G        Tom's payoffs
    H I                attempt-cost adjustments (warn when positive)

Optional keys: ``name`` (free text), ``variant`` (standard |
duncan-to-harry | alice-to-harry), ``risk_alice`` / ``risk_tom`` (finite
reals, default 0), ``tie_alice`` / ``tie_tom`` (act | refrain, defaults
refrain / act), ``expected_outcome`` (an outcome-class name asserting the
modal class of the solved game, for golden tests).

The token ``-inf`` is legal only for ``B``. Unknown and duplicate keys are
errors. ``parse_scenario(render_scenario(s)) == s`` for every valid ``s``.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass

from .model import GameParameters, OutcomeClass, Variant
from .solver import (
    PAPER_TIES, RISK_NAMES, RISK_NEUTRAL, RiskProfile, SolveResult, TiePolicy, TieRule,
)
from .tree import NEG_INF, Chance, Decision, Node, Player, iter_nodes, require_valid, terminals
from . import model


_TIE_KEYS = ("tie_alice", "tie_tom")
OPTION_KEYS = ("name", "variant", *RISK_NAMES, *_TIE_KEYS, "expected_outcome")


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class Scenario:
    name: str
    parameters: GameParameters
    risk: RiskProfile
    ties: TiePolicy
    expected_outcome: OutcomeClass | None
    warnings: tuple[str, ...]


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"cannot parse number {raw!r} for {key}") from None


def _parse_number(key: str, raw: str) -> float:
    if raw == "-inf":
        if key != "B":
            raise ValueError(f"-inf is only legal for B, not {key}")
        return NEG_INF
    value = _parse_float(key, raw)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{key} = {raw!r} is not a finite number")
    return value


def _parse_risk(key: str, raw: str) -> float:
    value = _parse_float(key, raw)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite")
    return value


def _parse_tie(key: str, raw: str) -> TieRule:
    try:
        return TieRule(raw)
    except ValueError:
        options = " or ".join(repr(rule.value) for rule in TieRule)
        raise ValueError(f"{key} must be {options}, got {raw!r}") from None


#: option key -> (its noun in messages, the enum whose values it takes)
_CHOICES = {"variant": ("variant", Variant), "expected_outcome": ("outcome class", OutcomeClass)}


def _parse_choice(key: str, raw: str) -> Variant | OutcomeClass:
    noun, kind = _CHOICES[key]
    try:
        return kind(raw)
    except ValueError:
        options = ", ".join(member.value for member in kind)
        raise ValueError(f"unknown {noun} {raw!r} (options: {options})") from None


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate one scenario file; its first bad value in
    the order of ``PARAMETER_NAMES`` then ``OPTION_KEYS`` is the one reported."""
    seen: dict[str, tuple[str, int, int]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line_no, 1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        column = len(line) - len(value) + 1  # 1-based, the value's first character
        if key not in model.PARAMETER_NAMES and key not in OPTION_KEYS:
            raise ScenarioError(f"unknown key {key!r}", line_no, 1)
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r}", line_no, 1)
        if not value:
            raise ScenarioError(f"missing value for {key!r}", line_no, column)
        seen[key] = (value, line_no, column)

    missing = [k for k in model.PARAMETER_NAMES if k not in seen]
    if missing:
        raise ScenarioError(f"missing required keys: {', '.join(missing)}")

    def given(keys, parse, prefix=""):
        """``parse(key, raw)`` of each of ``keys`` the file sets, keyed without
        ``prefix``; a ValueError from ``parse`` becomes a ScenarioError at the value."""
        parsed = {}
        for key in keys:
            if key in seen:
                raw, line_no, column = seen[key]
                try:
                    parsed[key.removeprefix(prefix)] = parse(key, raw)
                except ValueError as exc:
                    raise ScenarioError(str(exc), line_no, column) from None
        return parsed

    # the keys the file leaves out take the defaults of the types built here
    numbers = given(model.PARAMETER_NAMES, _parse_number)
    variant = given(("variant",), _parse_choice)
    risk = given(RISK_NAMES, _parse_risk, "risk_")
    ties = given(_TIE_KEYS, _parse_tie, "tie_")
    expected = given(("expected_outcome",), _parse_choice)

    parameters = GameParameters(**numbers, **variant)
    problems = model.validate_parameters(parameters)
    if problems:
        raise ScenarioError("; ".join(problems))

    return Scenario(
        name=seen["name"][0] if "name" in seen else "",
        parameters=parameters,
        risk=RiskProfile(**risk),
        ties=TiePolicy(**ties),
        expected_outcome=expected.get("expected_outcome"),
        warnings=tuple(model.parameter_warnings(parameters)),
    )


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file; a leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_scenario(fh.read())


def format_number(v: float) -> str:
    if v == NEG_INF:
        return "-inf"
    return repr(v)


def render_scenario(s: Scenario) -> str:
    """Canonical text for a scenario; parse(render(s)) == s."""
    lines = []
    if s.name:
        lines.append(f"name = {s.name}")
    for key in model.PARAMETER_NAMES:
        lines.append(f"{key} = {format_number(getattr(s.parameters, key))}")
    if s.parameters.variant is not Variant.STANDARD:
        lines.append(f"variant = {s.parameters.variant.value}")
    for key, value, neutral in zip(RISK_NAMES, astuple(s.risk), astuple(RISK_NEUTRAL)):
        if value != neutral:
            lines.append(f"{key} = {format_number(value)}")
    for key, rule, paper in zip(_TIE_KEYS, astuple(s.ties), astuple(PAPER_TIES)):
        if rule is not paper:
            lines.append(f"{key} = {rule.value}")
    if s.expected_outcome is not None:
        lines.append(f"expected_outcome = {s.expected_outcome.value}")
    return "\n".join(lines) + "\n"


# --- result rendering -------------------------------------------------------


def _json_ready(value):
    """Make a float, or a (nested) dict of floats and strings keyed by
    :class:`Player` or string, JSON-safe; -inf becomes the string "-inf"."""
    if isinstance(value, float):
        return "-inf" if value == NEG_INF else value
    if isinstance(value, dict):
        return {
            (k.value if isinstance(k, Player) else k): _json_ready(v)
            for k, v in value.items()
        }
    return value


def _terminal_rows(tree: Node, result: SolveResult) -> list[tuple[str, str, float, float, float]]:
    rows = []
    for nid, node in terminals(tree):
        rows.append(
            (
                nid,
                node.label,
                result.outcome_distribution[nid],
                node.payoffs[Player.ALICE],
                node.payoffs[Player.TOM],
            )
        )
    return rows


def meta_header(meta: dict | None, comment: str = "#") -> str:
    """One ``<comment> key: value`` line per metadata entry; empty without meta."""
    if not meta:
        return ""
    return "".join(f"{comment} {k}: {v}\n" for k, v in meta.items())


def render_result(
    result: SolveResult,
    tree: Node,
    fmt: str = "text",
    meta: dict | None = None,
) -> str:
    """Serialize a solve result as text, json, or csv (deterministic)."""
    if fmt == "json":
        payload: dict = {}
        if meta:
            payload["meta"] = _json_ready(meta)
        payload["root_value"] = _json_ready(result.root_value)
        payload["profile"] = dict(result.profile)
        payload["node_values"] = _json_ready(result.node_values)
        payload["outcome_distribution"] = _json_ready(result.outcome_distribution)
        payload["outcomes"] = [
            {
                "terminal": nid,
                "class": label,
                "probability": _json_ready(prob),
                "alice": _json_ready(alice),
                "tom": _json_ready(tom),
            }
            for nid, label, prob, alice, tom in _terminal_rows(tree, result)
        ]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    if fmt == "csv":
        lines = ["terminal,class,probability,alice_payoff,tom_payoff"]
        for nid, label, prob, alice, tom in _terminal_rows(tree, result):
            lines.append(f"{nid},{label},{prob!r},{format_number(alice)},{format_number(tom)}")
        return meta_header(meta) + "\n".join(lines) + "\n"

    if fmt == "text":
        return _render_text(result, tree, meta)

    raise ValueError(f"unknown format {fmt!r} (expected text, json, or csv)")


_WALK_PHRASES = {
    (model.ROOT_NODE_ID, "leak"): "alice leaks",
    (model.ROOT_NODE_ID, "stay"): "alice stays quiet",
    (model.BLOCK_NODE_ID, "block"): "tom blocks duncan before the broadcast",
    (model.BLOCK_NODE_ID, "proceed"): "tom lets duncan proceed",
    (model.CENSOR_NODE_ID, "censor"): "tom attempts censorship",
    (model.CENSOR_NODE_ID, "hold"): "tom holds (no censorship attempt)",
}


def _decision_phrase(nid: str, action: str) -> str:
    phrase = _WALK_PHRASES.get((nid, action))
    if phrase:
        return phrase
    if action == "pursue":
        return "tom pursues de-anonymisation"
    if action == "drop":
        return "tom drops the pursuit"
    return f"{nid or '(root)'} -> {action}"


def _render_text(result: SolveResult, tree: Node, meta: dict | None) -> str:
    lines = []
    ra = result.root_value[Player.ALICE]
    rt = result.root_value[Player.TOM]
    lines.append(f"root value: alice={format_number(ra)} tom={format_number(rt)}")
    lines.append("equilibrium decisions:")
    for nid, action in sorted(result.profile.items()):
        lines.append(f"  {nid or '(root)'}: {action}  ({_decision_phrase(nid, action)})")
    lines.append("realized outcomes:")
    any_reached = False
    for nid, label, prob, alice, tom in _terminal_rows(tree, result):
        if prob <= 0.0:
            continue
        any_reached = True
        extra = ""
        if "harry-strong" in nid:
            extra = "  [harry strong]"
        elif "harry-weak" in nid:
            extra = "  [harry weak]"
        lines.append(
            f"  {label}: p={prob!r} alice={format_number(alice)} "
            f"tom={format_number(tom)}{extra}  ({nid})"
        )
    if not any_reached:
        lines.append("  (none)")
    return meta_header(meta) + "\n".join(lines) + "\n"


# --- DOT export --------------------------------------------------------------

_OUTCOME_LETTERS = {
    OutcomeClass.NO_LEAK.value: ("0", "0"),
    OutcomeClass.NO_TRUST.value: ("a", "0"),
    OutcomeClass.BLOCKED.value: ("b", "B"),
    OutcomeClass.CENSORED_JAILED.value: ("c", "C"),
    OutcomeClass.CENSORED_ANONYMOUS.value: ("d", "D"),
    OutcomeClass.UNCENSORED_ANONYMOUS.value: ("e", "E"),
    OutcomeClass.UNCENSORED_IMPUNITY.value: ("f", "F"),
    OutcomeClass.UNCENSORED_JAILED.value: ("g", "G"),
}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(tree: Node, result: SolveResult | None = None) -> str:
    """DOT digraph of the tree; solved decisions drawn bold when given.

    Decisions are boxes, chance nodes ellipses, terminals notes labelled with
    their payoffs (and outcome letters when the terminal is one of the
    whistleblowing outcomes).
    """
    require_valid(tree)  # names are keyed by node object
    nodes = list(iter_nodes(tree))
    names = {id(node): f"n{i}" for i, (_, node) in enumerate(nodes)}
    node_lines, edge_lines = [], []
    for nid, node in nodes:
        name = names[id(node)]
        if isinstance(node, Decision):
            node_lines.append(f'  {name} [shape=box, label="{_dot_escape(node.label)}"];')
            chosen = result.profile.get(nid) if result else None
            for label, child in node.actions:
                style = ' penwidth=2.5 color="red"' if label == chosen else ""
                edge_lines.append(
                    f'  {name} -> {names[id(child)]} [label="{_dot_escape(label)}"{style}];'
                )
        elif isinstance(node, Chance):
            node_lines.append(f'  {name} [shape=ellipse, label="{_dot_escape(node.label)}"];')
            for label, prob, child in node.branches:
                edge_lines.append(
                    f'  {name} -> {names[id(child)]} '
                    f'[label="{_dot_escape(label)} {prob!r}", style=dashed];'
                )
        else:
            alice = format_number(node.payoffs[Player.ALICE])
            tom = format_number(node.payoffs[Player.TOM])
            letters = _OUTCOME_LETTERS.get(node.label)
            tag = f" [{letters[0]}, {letters[1]}]" if letters else ""
            node_lines.append(
                f'  {name} [shape=note, label="{_dot_escape(node.label)}{tag}\\n'
                f'alice={alice} tom={tom}"];'
            )
    return "\n".join(["digraph game {", "  rankdir=LR;", *node_lines, *edge_lines, "}"]) + "\n"
