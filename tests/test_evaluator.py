"""The incremental plan evaluator that the threshold and lever searches keep.

A search changes one parameter, so its evaluator re-evaluates only the plan
slots that parameter reaches. Each answer must still equal a fresh
``solve_plan`` at that point, bit for bit and error for error, and the slots
it skips must really be the ones the parameter cannot change.
"""

import math
import random
from dataclasses import replace

import pytest

from conftest import sample_parameters
from test_model import params
from test_oracle import tie_heavy_parameters
from test_plan import post_order
from wbgame import analysis
from wbgame.model import (
    GAME_PLAN,
    MOVED_VALUES,
    PARAMETER_NAMES,
    PLAN_VALUE_NAMES,
    alice_to_harry,
    duncan_to_harry,
    plan_values,
)
from wbgame.solver import (
    PAPER_TIES,
    RISK_NEUTRAL,
    PlanEvaluator,
    RiskProfile,
    TiePolicy,
    TieRule,
    solve_plan,
)
from wbgame.tree import NEG_INF

PROBABILITIES = ("w", "x", "y", "z")
#: a payoff this large overflows a risk-seeking owner's transform
OVERFLOWING = 1e6


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def probe_values(rng, base, param, tie_heavy):
    """About 30 values of ``param``: grid points, random values, the base value
    and repeats, one invalid value in the middle, and one payoff large enough
    to overflow a risk-seeking owner's transform at a random place."""
    if param in PROBABILITIES:
        grid = [i / 8 for i in range(9)]
        draws = [rng.choice(grid) if tie_heavy else rng.random() for _ in range(10)]
    else:
        grid = [float(v) for v in range(-4, 5)]
        draws = [float(rng.randint(-3, 3)) if tie_heavy else rng.uniform(-10.0, 10.0)
                 for _ in range(10)]
    values = grid + draws + [getattr(base, param)]
    values += rng.sample(values, 6)
    values.insert(len(values) // 2, math.inf)  # invalid for every parameter
    if param not in PROBABILITIES:
        values.insert(rng.randrange(len(values) + 1), OVERFLOWING)
    return values


def risks(rng):
    return [RISK_NEUTRAL, RiskProfile(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))]


def cases():
    """(name, base, risk, ties): criterion-1 draws, tie-heavy draws under each
    tie policy, both variants and hopeless blocking, at zero and seeded risk."""
    rng = random.Random(2024)
    for k in range(4):
        p = sample_parameters(rng)
        for risk in risks(rng):
            yield f"draw-{k}", p, risk, PAPER_TIES
    for alice in TieRule:
        for tom in TieRule:
            p = tie_heavy_parameters(rng)
            for risk in risks(rng):
                yield f"ties-{alice.value}-{tom.value}", p, risk, TiePolicy(alice, tom)
    p = sample_parameters(rng)
    for name, q in (("duncan-to-harry", duncan_to_harry(p)), ("alice-to-harry", alice_to_harry(p)),
                    ("hopeless-block", replace(p, B=NEG_INF))):
        for risk in risks(rng):
            yield name, q, risk, PAPER_TIES


CASES = list(cases())


@pytest.mark.parametrize("name, base, risk, ties", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_every_probe_equals_a_fresh_evaluation(name, base, risk, ties):
    rng = random.Random(name)
    tie_heavy = name.startswith("ties")
    raised = set()
    for param in PARAMETER_NAMES:
        probe = analysis._prober(base, param, risk, ties)
        for value in probe_values(rng, base, param, tie_heavy):
            got = outcome(probe, value)
            want = outcome(analysis._probe, base, param, value, risk, ties)
            assert got == want, (param, value)
            if type(want) is tuple and isinstance(want[0], type):
                raised.add(want[0])
    assert ValueError in raised  # the invalid value in the middle
    if risk.alice < 0.0 or risk.tom < 0.0:
        assert OverflowError in raised


def test_a_payoff_sum_that_overflows_mid_search_raises_and_the_next_probe_is_right():
    # C + H is a terminal's payoff sum, so C = 1e308 makes it inf: the
    # evaluator itself rejects the vector, after earlier probes primed it
    base = params(H=1e308)
    probe = analysis._prober(base, "C", RISK_NEUTRAL, PAPER_TIES)
    for value in (-1e308, 2.0, 1e308, 5.0, 1e308, -3.0):
        want = outcome(analysis._probe, base, "C", value, RISK_NEUTRAL, PAPER_TIES)
        assert outcome(probe, value) == want, value
    assert outcome(probe, 1e308)[0] is ValueError


def test_a_first_call_that_raises_leaves_the_next_call_a_full_evaluation():
    risk = RiskProfile(0.0, -1.0)
    base = params(D=900.0)
    moved = MOVED_VALUES["D"]
    evaluate = PlanEvaluator(GAME_PLAN, risk, PAPER_TIES, moved)
    with pytest.raises(OverflowError, match="v=897.0"):
        evaluate(plan_values(base))
    for d in (0.5, -3.0, 900.0, -0.75):
        values = plan_values(replace(base, D=d))
        assert outcome(evaluate, values) == outcome(solve_plan, GAME_PLAN, values, risk), d


def test_the_first_probe_is_not_taken_at_the_base():
    # Tom's transform overflows at the base's own D (v = 900 - 3 = 897), a
    # value no probe of [-10, 10] reaches
    base, risk = params(D=900.0), RiskProfile(0.0, -1.0)
    with pytest.raises(OverflowError):
        analysis._probe(base, "D", base.D, risk, PAPER_TIES)
    report = analysis.find_threshold(base, "D", -10.0, 10.0, risk=risk)
    assert report.critical == -0.49999993944925
    assert report.monotone
    assert report.below_classes == {
        analysis.OutcomeClass.NO_TRUST,
        analysis.OutcomeClass.UNCENSORED_ANONYMOUS,
        analysis.OutcomeClass.CENSORED_JAILED,
    }
    assert report.above_classes == {
        analysis.OutcomeClass.NO_TRUST,
        analysis.OutcomeClass.UNCENSORED_ANONYMOUS,
        analysis.OutcomeClass.CENSORED_ANONYMOUS,
    }


def other_value(rng, p, param):
    """A valid value of ``param`` for ``p`` that differs from its own."""
    if param == "x":
        return rng.uniform(0.0, 1.0 - p.y)
    if param == "y":
        return rng.uniform(0.0, 1.0 - p.x)
    if param in PROBABILITIES:
        return rng.random()
    return rng.uniform(-10.0, 10.0)


@pytest.mark.parametrize("param", PARAMETER_NAMES)
def test_every_slot_whose_subtree_changes_is_dependent(param):
    # slots and tree nodes share one post-order (test_plan checks it); a
    # frozen node compares equal to another exactly when their whole
    # subtrees do, numbers included
    dependent = GAME_PLAN.dependents(MOVED_VALUES[param])
    rng = random.Random(param)
    for _ in range(5):
        p = sample_parameters(rng)
        q = replace(p, **{param: other_value(rng, p, param)})
        old = post_order(GAME_PLAN.instantiate(plan_values(p)))
        new = post_order(GAME_PLAN.instantiate(plan_values(q)))
        changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        # generic numbers: every dependent slot changes too
        assert changed == dependent


@pytest.mark.parametrize("param, slots, terminals", [
    ("w", 2, 0), ("y", 6, 0), ("z", 15, 0), ("I", 24, 9),
])
def test_dependent_slot_counts(param, slots, terminals):
    dependent = GAME_PLAN.dependents(MOVED_VALUES[param])
    assert len(dependent) == slots
    assert len(set(dependent) & set(GAME_PLAN.terminals)) == terminals
    assert dependent == sorted(dependent)
    assert dependent[-1] == len(GAME_PLAN.slots) - 1  # the root


def test_moved_values_are_the_plan_values_a_parameter_changes():
    rng = random.Random(11)
    for _ in range(50):
        p = sample_parameters(rng)
        for param in PARAMETER_NAMES:
            q = replace(p, **{param: other_value(rng, p, param)})
            old, new = plan_values(p), plan_values(q)
            changed = tuple(i for i, (a, b) in enumerate(zip(old, new)) if a != b)
            assert changed == MOVED_VALUES[param], (
                param, [PLAN_VALUE_NAMES[i] for i in changed]
            )
