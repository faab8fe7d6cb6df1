"""Golden outputs: CLI text and solver results pinned byte for byte.

``golden/*.txt`` hold the ``--no-meta`` stdout of criterion 10's commands
plus two sweeps that reach invalid and edge rows and one sweep of a risk
coefficient. ``golden/solve_digests.json``
holds, per seeded criterion-1 game, a truncated SHA-256 of each
``SolveResult`` field (profile, node_values, root_value,
outcome_distribution). Floats enter the
digest by ``repr``, so a match means every float is bit-identical.
``golden/flip_digests.json`` holds every ``ThresholdReport`` field of
``find_threshold`` on each shipped scenario and each parameter whose natural
range (below) has different outcome support at its two ends, plus every
``LeverFinding`` of ``lever_report`` on each non-leaking base. Floats are
stored by ``repr``; class sets as their sorted values, since set order
follows string hashing. ``golden/certify_digests.json`` holds, per criterion-1
game of the solve digests, a truncated SHA-256 of each ``OracleResult`` field
(every subgame-perfect profile in order, their root values, the canonical
profile and its value) and of each ``SimulationResult`` field for
``CERTIFY_PLAYOUTS`` playouts of the solved profile at a fixed seed.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR, sample_parameters, scenario_path
from test_acceptance import CLI_COMMANDS, SAMPLE_SEED
from test_model import params
from wbgame.analysis import (
    alice_leaks,
    find_threshold,
    lever_report,
    outcome_support,
    simulate,
)
from wbgame.cli import main
from wbgame.model import PARAMETER_NAMES, build_game
from wbgame.oracle import brute_force_spe
from wbgame.scenario import load_scenario
from wbgame.solver import RISK_NEUTRAL, RiskProfile, solve
from wbgame.tree import Player

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGEST_FILE = GOLDEN_DIR / "solve_digests.json"
FLIP_FILE = GOLDEN_DIR / "flip_digests.json"
CERTIFY_FILE = GOLDEN_DIR / "certify_digests.json"
CERTIFY_PLAYOUTS = 1000
CERTIFY_SEED = 2024
N_GAMES = 200
RISK_SEED = 7919

GOLDEN_COMMANDS = dict(
    zip(
        [
            "solve-text", "solve-json", "solve-csv", "sweep-w", "threshold-y",
            "levers", "simulate", "validate-snowden", "export-tree-solution",
            "export-tree-pruned",
        ],
        CLI_COMMANDS,
        strict=True,
    )
)
GOLDEN_COMMANDS["sweep-baseline-x"] = [
    "sweep", "--scenario", scenario_path("baseline"), "--param", "x",
    "--from", "0", "--to", "1", "--steps", "41",
]
GOLDEN_COMMANDS["sweep-snowden-I"] = [
    "sweep", "--scenario", scenario_path("snowden"), "--param", "I",
    "--from", "-5", "--to", "0", "--steps", "41",
]
GOLDEN_COMMANDS["sweep-baseline-risk_tom"] = [
    "sweep", "--scenario", scenario_path("baseline"), "--param", "risk_tom",
    "--from", "-1", "--to", "1", "--steps", "21",
]

#: risk modes pinned in the digest file
DIGEST_MODES = ("neutral", "risk")


def cli_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv + ["--no-meta"]) == 0, argv
    return buf.getvalue()


def _games(mode: str):
    rng = random.Random(SAMPLE_SEED)
    risk_rng = random.Random(RISK_SEED)
    for _ in range(N_GAMES):
        params = sample_parameters(rng)
        if mode == "neutral":
            risk = RISK_NEUTRAL
        else:
            risk = RiskProfile(risk_rng.uniform(-1.0, 1.0), risk_rng.uniform(-1.0, 1.0))
        yield params, risk


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _players(values) -> str:
    return f"{values[Player.ALICE]!r} {values[Player.TOM]!r}"


def _profile(profile) -> str:
    return " ".join(f"{nid}={a}" for nid, a in sorted(profile.items()))


def result_digest(result) -> dict[str, str]:
    return {
        "profile": _sha(f"{nid}={a}" for nid, a in sorted(result.profile.items())),
        "node_values": _sha(f"{nid}:{_players(v)}" for nid, v in sorted(result.node_values.items())),
        "root_value": _sha([_players(result.root_value)]),
        "outcome_distribution": _sha(
            f"{nid}={p!r}" for nid, p in sorted(result.outcome_distribution.items())
        ),
    }


def digests(mode: str) -> list[dict[str, str]]:
    return [result_digest(solve(build_game(p), risk)) for p, risk in _games(mode)]


def certify_digest(tree, risk) -> dict[str, str]:
    oracle = brute_force_spe(tree, risk)
    sim = simulate(tree, solve(tree, risk).profile, CERTIFY_PLAYOUTS, CERTIFY_SEED)

    def by_class(values):
        return [f"{cls.value}={v!r}" for cls, v in values.items()]

    return {
        "spe_profiles": _sha(map(_profile, oracle.spe_profiles)),
        "root_values": _sha(map(_players, oracle.root_values)),
        "canonical": _sha([_profile(oracle.canonical)]),
        "canonical_root_value": _sha([_players(oracle.canonical_root_value)]),
        "sim_header": _sha([f"{sim.n} {sim.seed} {sim.generator}"]),
        "terminal_counts": _sha(f"{nid}={k}" for nid, k in sim.terminal_counts.items()),
        "class_frequencies": _sha(by_class(sim.class_frequencies)),
        "class_standard_errors": _sha(by_class(sim.class_standard_errors)),
        "mean_payoffs": _sha([_players(sim.mean_payoffs)]),
        "payoff_standard_errors": _sha([_players(sim.payoff_standard_errors)]),
    }


def certify_digests(mode: str) -> list[dict[str, str]]:
    return [certify_digest(build_game(p), risk) for p, risk in _games(mode)]


SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.scn"))


def natural_range(p, param: str) -> tuple[float, float]:
    """The parameter's feasible span given the rest of ``p``; payoffs and
    costs use criterion 1's sampling ranges."""
    if param in ("w", "z"):
        return 0.0, 1.0
    if param == "x":
        return 0.0, 1.0 - p.y
    if param == "y":
        return 0.0, 1.0 - p.x
    if param in ("H", "I"):
        return -5.0, 0.0
    return -10.0, 10.0


def _support(p, param, value):
    tree = build_game(replace(p, **{param: value}))
    return outcome_support(tree, solve(tree))


def _classes(classes) -> str:
    return repr(sorted(c.value for c in classes))


def threshold_digests() -> dict[str, dict[str, str]]:
    out = {}
    for name in SCENARIOS:
        p = load_scenario(scenario_path(name)).parameters
        for param in PARAMETER_NAMES:
            lo, hi = natural_range(p, param)
            if _support(p, param, lo) == _support(p, param, hi):
                continue
            report = find_threshold(p, param, lo, hi)
            out[f"{name}/{param}"] = {
                f.name: _classes(v) if isinstance(v, frozenset) else repr(v)
                for f in fields(report)
                for v in [getattr(report, f.name)]
            }
    return out


def lever_bases():
    """Every shipped scenario that solves to no leak, as shipped and with
    blocking hopeless (B = -inf), plus a base where Tom blocks, so the block
    lever has a flip to find."""
    for name in SCENARIOS:
        p = load_scenario(scenario_path(name)).parameters
        if not alice_leaks(solve(build_game(p))):
            yield name, p
            yield f"{name}/B=-inf", replace(p, B=-math.inf)
    yield "tom-blocks", params(
        w=1.0, a=0.0, b=-1.0, x=0.0, y=1.0, z=1.0,
        e=5.0, f=4.0, B=-1.0, E=-2.0, F=-9.0, G=-9.0, I=-3.0, H=-1.0,
    )


def lever_digests() -> dict[str, list[list[str]]]:
    return {
        name: [[repr(getattr(f, k.name)) for k in fields(f)] for f in lever_report(p)]
        for name, p in lever_bases()
    }


def flip_digests() -> dict:
    return {"threshold": threshold_digests(), "levers": lever_digests()}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert cli_output(GOLDEN_COMMANDS[name]).encode() == expected


@pytest.mark.parametrize("mode", DIGEST_MODES)
def test_solve_results_match_digests(mode):
    pinned = json.loads(DIGEST_FILE.read_text())[mode]
    assert len(pinned) == N_GAMES
    for i, (got, want) in enumerate(zip(digests(mode), pinned)):
        assert got == want, f"{mode} game {i}"


@pytest.mark.parametrize("mode", DIGEST_MODES)
def test_certify_results_match_digests(mode):
    pinned = json.loads(CERTIFY_FILE.read_text())[mode]
    assert len(pinned) == N_GAMES
    for i, (got, want) in enumerate(zip(certify_digests(mode), pinned)):
        assert got == want, f"{mode} game {i}"


def test_flip_results_match_digests():
    pinned = json.loads(FLIP_FILE.read_text())
    got = flip_digests()
    assert sorted(got["threshold"]) == sorted(pinned["threshold"])
    for key, report in pinned["threshold"].items():
        assert got["threshold"][key] == report, key
    assert got["levers"] == pinned["levers"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_COMMANDS.items():
        (GOLDEN_DIR / f"{name}.txt").write_bytes(cli_output(argv).encode())
    for path, make in ((DIGEST_FILE, digests), (CERTIFY_FILE, certify_digests)):
        path.write_text(
            "{\n"
            + ",\n".join(
                f'"{mode}": [\n' + ",\n".join(json.dumps(d) for d in make(mode)) + "\n]"
                for mode in DIGEST_MODES
            )
            + "\n}\n"
        )
    FLIP_FILE.write_text(json.dumps(flip_digests(), indent=1) + "\n")
