"""Comparative statics and validation over the whistleblowing game.

Sweeps re-solve the game along a parameter grid; threshold search bisects on
the point where the equilibrium's outcome support changes; the lever report
asks how far each of the three intervention levers (making publication too
fast to block, raising the price of unmasking Alice, building Alice-Duncan
trust) must move before a quiet Alice decides to leak; and ``simulate`` plays
the solved strategy forward with a seeded generator to validate the solver's
probability arithmetic empirically.

The threshold and lever searches probe many nearby points, so each probe
evaluates the compiled :data:`wbgame.model.GAME_PLAN`, which gives the
solver's answer bit for bit without building a tree. Each search changes one
parameter, so it keeps one incremental :class:`wbgame.solver.PlanEvaluator`:
its first probe evaluates every slot of the plan, and later probes only the
slots that read a value the parameter moves (:data:`wbgame.model.MOVED_VALUES`)
and the slots above them, 2 of 39 for ``w`` and 24 for ``I``. A search probes
each point once and compares the plan's answers as they come: a terminal's
label is its outcome class's value, so equal label sets are equal supports.
:func:`grid_scan_flip`, the referee the searches are tested against, takes one
fresh full evaluation per point instead. What a report states about a single
point (the supports either side of a flip, the lever base's no-leak check)
still comes from :func:`wbgame.solver.solve`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace

from . import model
from .model import GameParameters, OutcomeClass, build_game
from .solver import (
    PAPER_TIES,
    RISK_NAMES,
    RISK_NEUTRAL,
    PlanEvaluator,
    RiskProfile,
    SolveResult,
    TiePolicy,
    solve,
    solve_plan,
)
from .tree import (
    Decision,
    Node,
    Player,
    StrategyProfile,
    Terminal,
    chosen_children,
    iter_nodes,
    terminals,
)


class AnalysisError(ValueError):
    """Valid inputs that have no answer: a threshold bracket whose ends share
    an outcome support, or a lever base that already leaks. A bad argument
    (unknown parameter, bad ``tol``, bracket or grid) raises a plain
    :class:`ValueError` instead."""


# label -> position in OutcomeClass; plain-string keys keep the per-solve
# tallies clear of Enum's Python-level __hash__
_CLASS_INDEX = {cls.value: i for i, cls in enumerate(OutcomeClass)}


def classify_terminal(label: str) -> OutcomeClass:
    try:
        return OutcomeClass(label)
    except ValueError:
        raise ValueError(f"terminal label {label!r} is not an outcome class") from None


def class_distribution(tree: Node, result: SolveResult) -> dict[OutcomeClass, float]:
    """Aggregate the solved outcome distribution by outcome class."""
    totals = [0.0] * len(_CLASS_INDEX)
    reach = result.outcome_distribution
    for nid, node in terminals(tree):
        i = _CLASS_INDEX.get(node.label)
        if i is None:
            classify_terminal(node.label)  # raises the ValueError
        totals[i] += reach[nid]
    return dict(zip(OutcomeClass, totals))


def outcome_support(tree: Node, result: SolveResult) -> frozenset[OutcomeClass]:
    """Classes realized with strictly positive probability."""
    return frozenset(
        cls for cls, prob in class_distribution(tree, result).items() if prob > 0.0
    )


def alice_leaks(result: SolveResult) -> bool:
    return result.profile.get(model.ROOT_NODE_ID) == "leak"


def _check_param(param: str, accepted: tuple[str, ...]) -> None:
    if param not in accepted:
        raise ValueError(f"unknown parameter {param!r}; expected one of {accepted}")


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def even_grid(lo: float, hi: float, points: int) -> list[float]:
    """``points`` evenly spaced values from ``lo`` to ``hi``, both included;
    the last is ``hi`` itself, not a sum that may round short of it.

    ``lo``, ``hi`` and the width ``hi - lo`` must be finite: an infinite one
    would make the inner points NaN.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    if not math.isfinite(hi - lo):  # also inf or NaN when lo or hi is
        raise ValueError(f"grid bracket [{lo!r}, {hi!r}] needs finite ends and a finite width")
    return [lo + i * (hi - lo) / (points - 1) for i in range(points - 1)] + [hi]


def _point(base: GameParameters, param: str, value: float) -> GameParameters:
    p = replace(base, **{param: value})
    problems = model.validate_parameters(p)
    if problems:
        raise ValueError("; ".join(problems))
    return p


def _solve_point(base: GameParameters, param: str, value: float,
                 risk: RiskProfile, ties: TiePolicy) -> tuple[Node, SolveResult]:
    tree = build_game(_point(base, param, value))
    return tree, solve(tree, risk, ties)


def _probe(base: GameParameters, param: str, value: float,
           risk: RiskProfile, ties: TiePolicy) -> tuple[frozenset[str], str | None]:
    """Labels of the terminals reached and Alice's root action at one point,
    from the compiled plan: :func:`wbgame.solver.solve_plan`'s answer, which
    ``outcome_support`` and ``alice_leaks`` of :func:`_solve_point` read the
    same, without building or solving a tree."""
    return solve_plan(model.GAME_PLAN, model.plan_values(_point(base, param, value)), risk, ties)


def _prober(base: GameParameters, param: str, risk: RiskProfile, ties: TiePolicy):
    """``value -> _probe(base, param, value, risk, ties)``, the plan's own
    answer, from one incremental evaluator that re-evaluates only the slots ``param`` reaches."""
    _check_param(param, model.PARAMETER_NAMES)
    evaluate = PlanEvaluator(model.GAME_PLAN, risk, ties, model.MOVED_VALUES[param])
    return lambda value: evaluate(model.plan_values(_point(base, param, value)))


@dataclass(frozen=True)
class SweepRow:
    value: float
    valid: bool
    error: str | None
    alice_leaks: bool | None
    root_alice: float | None
    root_tom: float | None
    class_probabilities: dict[OutcomeClass, float] | None


@dataclass(frozen=True)
class SweepTable:
    param: str
    rows: tuple[SweepRow, ...]


def sweep(
    base: GameParameters,
    param: str,
    grid: list[float],
    risk: RiskProfile = RISK_NEUTRAL,
    ties: TiePolicy = PAPER_TIES,
) -> SweepTable:
    """Solve once per grid point; invalid points, and points whose risk
    transform overflows, become error rows.

    ``param`` is one of the 19 game parameters or a risk coefficient
    (:data:`wbgame.solver.RISK_NAMES`), which replaces that coefficient of
    ``risk``. The grid must be strictly increasing. Rows are computed one
    after another in grid order: the work is pure Python and holds the
    interpreter lock throughout, so threads would only add overhead.
    """
    _check_param(param, model.PARAMETER_NAMES + RISK_NAMES)
    if len(grid) == 0:
        raise ValueError("empty grid")
    if any(not a < b for a, b in zip(grid, grid[1:])):  # NaN fails too
        raise ValueError("grid values must be strictly increasing")

    def point(value: float) -> SweepRow:
        try:
            if param in RISK_NAMES:
                tree = build_game(base)
                result = solve(tree, replace(risk, **{param.removeprefix("risk_"): value}), ties)
            else:
                tree, result = _solve_point(base, param, value, risk, ties)
        except (ValueError, OverflowError) as exc:
            return SweepRow(value, False, str(exc), None, None, None, None)
        return SweepRow(
            value,
            True,
            None,
            alice_leaks(result),
            result.root_value[Player.ALICE],
            result.root_value[Player.TOM],
            class_distribution(tree, result),
        )

    return SweepTable(param, tuple(point(v) for v in grid))


@dataclass(frozen=True)
class ThresholdReport:
    param: str
    lo: float
    hi: float
    critical: float
    tol: float
    below_classes: frozenset[OutcomeClass]
    above_classes: frozenset[OutcomeClass]
    monotone: bool


#: points of the grid that :func:`find_threshold` and :func:`lever_report`
#: scan for flips before bisecting the first one
PRESCAN = 64


def _scan(key, xs: list[float]) -> tuple[list, list[tuple[float, float, object]]]:
    """``key`` at every point of the grid ``xs``, and (start, end, key at
    start) of each segment whose two ends have different ``key``.

    The two ends are probed first, so an end that ``key`` rejects raises the
    error that names it, before any inner point the caller never gave.
    """
    first, last = key(xs[0]), key(xs[-1])
    keys = [first, *map(key, xs[1:-1]), last]
    segments = [(xs[i], xs[i + 1], keys[i]) for i in range(len(xs) - 1) if keys[i] != keys[i + 1]]
    return keys, segments


def _flip_search(key, lo: float, hi: float, tol: float) -> tuple:
    """Bisect the first change of ``key`` on a :data:`PRESCAN`-point scan
    from ``lo`` to ``hi``, a grid built before the first probe.

    Returns (that point, or None if the scan sees no change; the final
    bracket's width; changing segments; ``key`` at ``lo``; ``key`` at
    ``hi``). Stops at ``tol`` or the float spacing.
    """
    keys, segments = _scan(key, even_grid(lo, hi, PRESCAN))
    if not segments:
        return None, 0.0, 0, keys[0], keys[-1]
    a, b, key_a = segments[0]
    while abs(b - a) > tol:
        mid = (a + b) / 2.0
        if mid == a or mid == b:
            break
        if key(mid) == key_a:
            a = mid
        else:
            b = mid
    return (a + b) / 2.0, b - a, len(segments), keys[0], keys[-1]


def grid_scan_flip(
    base: GameParameters,
    param: str,
    lo: float,
    hi: float,
    points: int,
    risk: RiskProfile = RISK_NEUTRAL,
    ties: TiePolicy = PAPER_TIES,
) -> list[tuple[float, float]]:
    """Consecutive grid segments whose endpoints have different outcome support."""
    grid = even_grid(lo, hi, points)
    _check_param(param, model.PARAMETER_NAMES)
    _, segments = _scan(lambda v: _probe(base, param, v, risk, ties)[0], grid)
    return [(a, b) for a, b, _ in segments]


def find_threshold(
    base: GameParameters,
    param: str,
    lo: float,
    hi: float,
    tol: float = 1e-6,
    risk: RiskProfile = RISK_NEUTRAL,
    ties: TiePolicy = PAPER_TIES,
) -> ThresholdReport:
    """Bisect to the parameter value where the outcome support flips.

    Requires different outcome support at ``lo`` and ``hi``. A
    :data:`PRESCAN`-point scan guards against several flips in the bracket:
    if more than one is detected, the first is reported and ``monotone`` is
    False. So ``monotone`` True means "no second flip seen at the prescan
    spacing": two flips inside one prescan segment look like none. Bisection
    stops at ``tol`` or at the float spacing, whichever is wider.
    """
    _check_tol(tol)
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo!r}, {hi!r}]")
    probe = _prober(base, param, risk, ties)
    critical, width, flips, at_lo, at_hi = _flip_search(lambda v: probe(v)[0], lo, hi, tol)
    if at_lo == at_hi:
        raise AnalysisError(
            f"outcome classes match at both ends of [{lo!r}, {hi!r}]; nothing to bracket"
        )
    # a tol below the float spacing would probe the critical point itself
    below = max(lo, min(critical - tol, math.nextafter(critical, -math.inf)))
    above = min(hi, max(critical + tol, math.nextafter(critical, math.inf)))
    below_classes = outcome_support(*_solve_point(base, param, below, risk, ties))
    above_classes = outcome_support(*_solve_point(base, param, above, risk, ties))
    # report the accuracy reached, which the float spacing can make wider than tol
    return ThresholdReport(param, lo, hi, critical, max(tol, width),
                           below_classes, above_classes, flips <= 1)


LEVER_PUBLISH_FASTER = "publish-faster"
LEVER_RAISE_DEANON_COST = "raise-deanon-cost"
LEVER_BUILD_TRUST = "build-trust"

#: how far :func:`lever_report` pushes the payoff levers B and I down
LEVER_FLOOR = -1000.0


@dataclass(frozen=True)
class LeverFinding:
    lever: str
    param: str
    start: float
    end: float
    critical: float | None  # None: no flip inside [start, end]


def lever_report(
    base: GameParameters,
    risk: RiskProfile = RISK_NEUTRAL,
    ties: TiePolicy = PAPER_TIES,
    tol: float = 1e-6,
) -> list[LeverFinding]:
    """Smallest move of each lever that flips Alice from staying quiet to leaking.

    Lever 1 pushes Tom's blocking payoff B down to :data:`LEVER_FLOOR`
    (publication too fast to block), lever 2 pushes the de-anonymisation
    adjustment I down to the same floor (unmasking Alice gets pricier),
    lever 3 raises trust w to 1. The base must currently solve to no leak.
    A lever at or past its limit (B = -inf, B or I at or below the floor,
    w = 1) has nowhere to move and reports no flip.
    """
    _check_tol(tol)
    if alice_leaks(solve(build_game(base), risk, ties)):
        raise AnalysisError("base scenario already solves to a leak; no lever needed")

    searches = [  # (lever, param, start, end, direction the lever moves param)
        (LEVER_PUBLISH_FASTER, "B", base.B, LEVER_FLOOR, -1),
        (LEVER_RAISE_DEANON_COST, "I", base.I, LEVER_FLOOR, -1),
        (LEVER_BUILD_TRUST, "w", base.w, 1.0, 1),
    ]
    report = []
    for lever, param, start, end, direction in searches:
        critical = None
        if (end - start) * direction > 0:  # else the lever is at or past its limit
            probe = _prober(base, param, risk, ties)
            critical = _flip_search(lambda v: probe(v)[1], start, end, tol)[0]
        report.append(LeverFinding(lever, param, start, end, critical))
    return report


GENERATOR_NAME = "random.Random (Mersenne Twister)"


@dataclass(frozen=True)
class SimulationResult:
    n: int
    seed: int
    generator: str
    terminal_counts: dict[str, int]
    class_frequencies: dict[OutcomeClass, float]
    class_standard_errors: dict[OutcomeClass, float]
    mean_payoffs: dict[Player, float]
    payoff_standard_errors: dict[Player, float]


def simulate(tree: Node, profile: StrategyProfile, n: int, seed: int) -> SimulationResult:
    """Play ``profile`` forward ``n`` times, sampling every chance node.

    Fully determined by (tree, profile, n, seed): playouts run sequentially
    off one seeded generator. Payoffs are reported untransformed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    chosen = chosen_children(tree, profile)

    # one step per node, children before parents: a terminal's is (None, its
    # index, its payoffs); a chance node's is (cumulative thresholds of its
    # positive branches, the steps of those branches' children plus the last
    # one again for round-off at the top of the CDF); a decision's is the
    # step of its chosen child
    steps: dict[int, tuple] = {}
    reached: list[tuple[str, Terminal]] = []
    for nid, node in reversed(list(iter_nodes(tree))):
        kind = type(node)
        if kind is Terminal:
            step = (None, len(reached), node.payoffs[Player.ALICE], node.payoffs[Player.TOM])
            reached.append((nid, node))
        elif kind is Decision:
            step = steps[id(chosen[id(node)])]
        else:
            acc = 0.0
            thresholds, targets = [], []
            for _, prob, child in node.branches:
                if prob > 0.0:
                    acc += prob
                    thresholds.append(acc)
                    targets.append(steps[id(child)])
            step = (tuple(thresholds), (*targets, targets[-1]))
        steps[id(node)] = step
    start = steps[id(tree)]

    draw = random.Random(seed).random
    counts: Counter[int] = Counter()  # terminal index -> playouts ending there
    alice_sum = tom_sum = alice_sumsq = tom_sumsq = 0.0
    for _ in range(n):
        step = start
        while step[0] is not None:
            step = step[1][bisect_right(step[0], draw())]
        _, index, alice, tom = step
        counts[index] += 1
        alice_sum += alice
        tom_sum += tom
        alice_sumsq += alice * alice
        tom_sumsq += tom * tom
    sums = {Player.ALICE: alice_sum, Player.TOM: tom_sum}
    sumsq = {Player.ALICE: alice_sumsq, Player.TOM: tom_sumsq}

    terminal_counts = {}
    class_freq = {cls: 0.0 for cls in OutcomeClass}
    for index, k in counts.items():  # first-reached order, as the sums were taken
        nid, node = reached[index]
        terminal_counts[nid] = k
        try:
            cls = classify_terminal(node.label)
        except ValueError:
            continue  # generic tree without class labels
        class_freq[cls] += k / n
    # one playout gives no spread to estimate, as for the payoffs below
    class_se = {
        cls: math.sqrt(freq * (1.0 - freq) / n) if n > 1 else float("nan")
        for cls, freq in class_freq.items()
    }

    means = {p: sums[p] / n for p in sums}
    ses = {}
    for p in sums:
        if n > 1 and math.isfinite(means[p]):
            var = max(0.0, (sumsq[p] / n - means[p] ** 2) * n / (n - 1))
            ses[p] = math.sqrt(var / n)
        else:
            ses[p] = float("nan")
    return SimulationResult(
        n=n,
        seed=seed,
        generator=GENERATOR_NAME,
        terminal_counts=dict(sorted(terminal_counts.items())),
        class_frequencies=class_freq,
        class_standard_errors=class_se,
        mean_payoffs=means,
        payoff_standard_errors=ses,
    )
