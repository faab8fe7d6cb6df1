"""The benchmark's workloads: seeded inputs, one op, and the op's check.

Every workload draws its inputs from one ``random.Random`` and hands the
program only the generated inputs. Parameter draws follow the criterion-1
distribution of the acceptance suite (``sample_parameters`` below). Checks
run outside the timed region and re-derive each answer through the
brute-force oracle, which shares no code with the backward-induction solver,
so a wrong ``solve`` fails the check even when the check's own fresh solve
is wrong in the same way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from wbgame import analysis, model, oracle, solver, tree
from wbgame.analysis import OutcomeClass
from wbgame.model import GameParameters
from wbgame.solver import RISK_NEUTRAL, RiskProfile
from wbgame.tree import Player

PROBABILITIES = ("w", "x", "y", "z")
PAYOFFS = ("a", "b", "c", "d", "e", "f", "g", "B", "C", "D", "E", "F", "G")
COSTS = ("H", "I")
PARAMS = PROBABILITIES + PAYOFFS + COSTS

SWEEP_POINTS = 201
#: flip-point accuracy asked of every threshold and lever search
TOL = 1e-6
#: seeded order of one block of flip ops: a quarter lever reports; of the
#: threshold queries, a quarter bracket a payoff under nonzero risk
FLIP_BLOCK = ("lever",) * 4 + ("threshold",) * 9 + ("risky",) * 3
THRESHOLD_PARAMS = ("w", "y", "z", "I")
PLAYOUTS = 1000
#: a class count is flagged when a correct solver would produce a count at
#: least that extreme with lower probability than this
BINOMIAL_ALARM = 1e-9
VALUE_TOL = 1e-9


def sample_parameters(rng: random.Random) -> GameParameters:
    """One random parameter draw (criterion 1's distribution).

    w, z uniform on [0, 1]; (x, y) uniform on the triangle x, y >= 0,
    x + y <= 1 (reflection method); payoffs uniform on [-10, 10]; H, I
    uniform on [-5, 0].
    """
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    pay = {k: rng.uniform(-10.0, 10.0) for k in "abcdefg"}
    tom = {k: rng.uniform(-10.0, 10.0) for k in "BCDEFG"}
    return GameParameters(
        w=rng.random(),
        x=u,
        y=v,
        z=rng.random(),
        H=rng.uniform(-5.0, 0.0),
        I=rng.uniform(-5.0, 0.0),
        **pay,
        **tom,
    )


def natural_range(param: str) -> tuple[float, float]:
    if param in PROBABILITIES:
        return 0.0, 1.0
    if param in COSTS:
        return -5.0, 0.0
    return -10.0, 10.0


def _base(rng: random.Random, shipped: list[GameParameters]) -> GameParameters:
    """A shipped scenario one time in four, otherwise a fresh draw."""
    if rng.random() < 0.25:
        return rng.choice(shipped)
    return sample_parameters(rng)


def _risk(rng: random.Random) -> RiskProfile:
    return RiskProfile(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _at(base: GameParameters, param: str, value: float) -> GameParameters:
    return replace(base, **{param: value})


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= VALUE_TOL


def _certified(game, risk: RiskProfile) -> solver.SolveResult:
    """A fresh solve, required to agree with the brute-force oracle."""
    fresh = solver.solve(game, risk)
    certified = oracle.brute_force_spe(game, risk)
    if certified.canonical != fresh.profile:
        raise AssertionError("fresh solve and oracle pick different profiles")
    for player in (Player.ALICE, Player.TOM):
        if not _close(fresh.root_value[player], certified.canonical_root_value[player]):
            raise AssertionError(f"fresh solve and oracle disagree on {player.value}'s value")
    return fresh


def _class_reach(game, profile) -> dict[OutcomeClass, float]:
    """Class probabilities recomputed from a profile, without the solver."""
    reach = tree.terminal_reach_probabilities(game, profile)
    dist = {cls: 0.0 for cls in OutcomeClass}
    for nid, node in tree.terminals(game):
        dist[OutcomeClass(node.label)] += reach[nid]
    return dist


def _support(params: GameParameters, risk: RiskProfile, certify: bool = True) -> frozenset[OutcomeClass]:
    """Outcome classes reached at ``params``; from the oracle's profile when ``certify``.

    Input generation passes ``certify=False``: it only needs the program's
    own answer, and a wrong program must yield failed ops, not a crash.
    """
    game = model.build_game(params)
    if not certify:
        return analysis.outcome_support(game, solver.solve(game, risk))
    fresh = _certified(game, risk)
    return frozenset(c for c, p in _class_reach(game, fresh.profile).items() if p > 0.0)


def _leaks(params: GameParameters, certify: bool = True) -> bool:
    game = model.build_game(params)
    result = _certified(game, RISK_NEUTRAL) if certify else solver.solve(game)
    return result.profile[model.ROOT_NODE_ID] == "leak"


# -- sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepInput:
    base: GameParameters
    param: str
    grid: tuple[float, ...]
    risk: RiskProfile
    probe: int  # the row the check re-derives from scratch


def sweep_inputs(rng: random.Random, shipped: list[GameParameters]) -> Iterator[SweepInput]:
    """Blocks of 76 ops: every parameter four times, once under nonzero risk."""
    while True:
        block = [(param, k == 0) for param in PARAMS for k in range(4)]
        rng.shuffle(block)
        for param, risky in block:
            lo, hi = natural_range(param)
            grid = tuple(lo + i * (hi - lo) / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS))
            base = _base(rng, shipped)
            risk = _risk(rng) if risky else RISK_NEUTRAL
            yield SweepInput(base, param, grid, risk, rng.randrange(SWEEP_POINTS))


def run_sweep(inp: SweepInput) -> analysis.SweepTable:
    return analysis.sweep(inp.base, inp.param, list(inp.grid), inp.risk)


def check_sweep(inp: SweepInput, table: analysis.SweepTable) -> list[str]:
    if table.param != inp.param or [r.value for r in table.rows] != list(inp.grid):
        return ["table does not follow the requested grid"]
    problems = []
    for row in table.rows:
        invalid = model.validate_parameters(_at(inp.base, inp.param, row.value))
        if row.valid == bool(invalid):
            problems.append(f"{inp.param}={row.value!r}: validity disagrees with validate_parameters")
        elif row.valid and abs(sum(row.class_probabilities.values()) - 1.0) > VALUE_TOL:
            problems.append(f"{inp.param}={row.value!r}: class probabilities do not sum to 1")
    row = table.rows[inp.probe]
    if row.valid:
        game = model.build_game(_at(inp.base, inp.param, row.value))
        fresh = _certified(game, inp.risk)
        if row.alice_leaks != (fresh.profile[model.ROOT_NODE_ID] == "leak"):
            problems.append(f"{inp.param}={row.value!r}: leak decision differs from the oracle")
        if not (_close(row.root_alice, fresh.root_value[Player.ALICE])
                and _close(row.root_tom, fresh.root_value[Player.TOM])):
            problems.append(f"{inp.param}={row.value!r}: root values differ from the oracle")
        want = _class_reach(game, fresh.profile)
        if any(abs(row.class_probabilities[c] - want[c]) > VALUE_TOL for c in OutcomeClass):
            problems.append(f"{inp.param}={row.value!r}: class probabilities differ from the oracle")
    return problems


def valid_points(table: analysis.SweepTable) -> int:
    return sum(row.valid for row in table.rows)


# -- flip ----------------------------------------------------------------


@dataclass(frozen=True)
class FlipInput:
    kind: str  # "threshold" or "lever"
    base: GameParameters
    param: str = ""
    lo: float = 0.0
    hi: float = 0.0
    risk: RiskProfile = RISK_NEUTRAL


def _draw_flip(rng: random.Random, shipped: list[GameParameters], kind: str) -> FlipInput:
    while True:
        base = _base(rng, shipped)
        if kind == "lever":
            if not _leaks(base, certify=False):
                return FlipInput("lever", base)
            continue
        if kind == "threshold":
            param, risk = rng.choice(THRESHOLD_PARAMS), RISK_NEUTRAL
        else:
            param, risk = rng.choice(PAYOFFS), _risk(rng)
        lo, hi = natural_range(param)
        if param == "y":
            hi = 1.0 - base.x
        if (_support(_at(base, param, lo), risk, certify=False)
                != _support(_at(base, param, hi), risk, certify=False)):
            return FlipInput("threshold", base, param, lo, hi, risk)


def flip_inputs(rng: random.Random, shipped: list[GameParameters]) -> Iterator[FlipInput]:
    """Brackets whose ends differ in support, and no-leak bases for levers.

    Rejection sampling costs a few solves per input; it runs between ops,
    outside the timed region.
    """
    while True:
        block = list(FLIP_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield _draw_flip(rng, shipped, kind)


def run_flip(inp: FlipInput):
    if inp.kind == "lever":
        return analysis.lever_report(inp.base, tol=TOL)
    return analysis.find_threshold(inp.base, inp.param, inp.lo, inp.hi, tol=TOL, risk=inp.risk)


def check_flip(inp: FlipInput, out) -> list[str]:
    if inp.kind == "lever":
        return _check_levers(inp, out)
    report: analysis.ThresholdReport = out
    if not inp.lo <= report.critical <= inp.hi:
        return [f"critical point {report.critical!r} outside [{inp.lo!r}, {inp.hi!r}]"]
    below = _support(_at(inp.base, inp.param, max(inp.lo, report.critical - TOL)), inp.risk)
    above = _support(_at(inp.base, inp.param, min(inp.hi, report.critical + TOL)), inp.risk)
    problems = []
    if below == above:
        problems.append(f"{inp.param}: support does not change across {report.critical!r} +- tol")
    if (report.below_classes, report.above_classes) != (below, above):
        problems.append(f"{inp.param}: reported supports differ from the oracle's")
    return problems


def _check_levers(inp: FlipInput, findings: list[analysis.LeverFinding]) -> list[str]:
    problems = []
    for f in findings:
        if f.critical is None:
            if _leaks(_at(inp.base, f.param, f.end)):
                problems.append(f"{f.lever}: no flip reported, yet Alice leaks at {f.end!r}")
            continue
        lo, hi = min(f.start, f.end), max(f.start, f.end)
        if not lo <= f.critical <= hi:
            problems.append(f"{f.lever}: critical point {f.critical!r} outside [{lo!r}, {hi!r}]")
            continue
        step = TOL if f.end > f.start else -TOL
        before = min(hi, max(lo, f.critical - step))
        after = min(hi, max(lo, f.critical + step))
        if _leaks(_at(inp.base, f.param, before)) or not _leaks(_at(inp.base, f.param, after)):
            problems.append(f"{f.lever}: leak decision does not flip at {f.critical!r}")
    if len(findings) != 3:
        problems.append(f"expected 3 lever findings, got {len(findings)}")
    return problems


# -- certify -------------------------------------------------------------


@dataclass(frozen=True)
class CertifyInput:
    game: tree.Node
    sim_seed: int


def certify_inputs(rng: random.Random, shipped: list[GameParameters]) -> Iterator[CertifyInput]:
    """Fresh random games only, so no two ops share parameters."""
    while True:
        yield CertifyInput(model.build_game(sample_parameters(rng)), rng.getrandbits(32))


def run_certify(inp: CertifyInput):
    result = solver.solve(inp.game)
    certified = oracle.brute_force_spe(inp.game)
    sim = analysis.simulate(inp.game, result.profile, PLAYOUTS, inp.sim_seed)
    return result, certified, sim


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X <= k) or P(X >= k) for X ~ Binomial(n, p), whichever side k is on."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    span = range(k, n + 1) if k >= n * p else range(0, k + 1)
    log_n = math.lgamma(n + 1)
    return math.fsum(
        math.exp(log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
        for i in span
    )


def check_certify(inp: CertifyInput, out) -> list[str]:
    result, certified, sim = out
    if certified.canonical != result.profile:
        return ["solver and oracle pick different profiles"]
    problems = []
    for player in (Player.ALICE, Player.TOM):
        if not _close(result.root_value[player], certified.canonical_root_value[player]):
            problems.append(f"solver and oracle disagree on {player.value}'s value")
    reach = tree.terminal_reach_probabilities(inp.game, certified.canonical)
    if any(abs(result.outcome_distribution[nid] - p) > VALUE_TOL for nid, p in reach.items()):
        problems.append("solver's outcome distribution differs from the oracle profile's")
    expected = _class_reach(inp.game, certified.canonical)
    labels = {nid: node.label for nid, node in tree.terminals(inp.game)}
    counts = {cls: 0 for cls in OutcomeClass}
    for nid, k in sim.terminal_counts.items():
        counts[OutcomeClass(labels[nid])] += k
    if sim.n != PLAYOUTS or sum(counts.values()) != PLAYOUTS:
        problems.append(f"simulate reports {sim.n} playouts, asked for {PLAYOUTS}")
    for cls in OutcomeClass:
        tail = binomial_tail(counts[cls], PLAYOUTS, expected[cls])
        if tail < BINOMIAL_ALARM:
            problems.append(
                f"{cls.value}: {counts[cls]} of {PLAYOUTS} playouts, tail probability "
                f"{tail:.3g} at p={expected[cls]!r}"
            )
    return problems


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random, list[GameParameters]], Iterator]
    run: Callable
    check: Callable[[object, object], list[str]]
    #: ops run untimed during set-up
    warmup_ops: int
    #: valid grid points in an op's output, for per-point ratios
    points: Callable[[object], int] | None = None


WORKLOADS = {
    "sweep": Workload(sweep_inputs, run_sweep, check_sweep, warmup_ops=2, points=valid_points),
    "flip": Workload(flip_inputs, run_flip, check_flip, warmup_ops=4),
    "certify": Workload(certify_inputs, run_certify, check_certify, warmup_ops=20),
}
