"""Golden outputs: CLI text and solver results pinned byte for byte.

``golden/*.txt`` hold the ``--no-meta`` stdout of criterion 10's commands
plus two sweeps that reach invalid and edge rows. ``golden/solve_digests.json``
holds, per seeded criterion-1 game, a truncated SHA-256 of each
``SolveResult`` field (profile, node_values, root_value,
outcome_distribution). Floats enter the
digest by ``repr``, so a match means every float is bit-identical.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from conftest import sample_parameters, scenario_path
from test_acceptance import CLI_COMMANDS, SAMPLE_SEED
from wbgame.cli import main
from wbgame.model import build_game
from wbgame.solver import RISK_NEUTRAL, RiskProfile, solve
from wbgame.tree import Player

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGEST_FILE = GOLDEN_DIR / "solve_digests.json"
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


def result_digest(result) -> dict[str, str]:
    def players(values):
        return f"{values[Player.ALICE]!r} {values[Player.TOM]!r}"

    return {
        "profile": _sha(f"{nid}={a}" for nid, a in sorted(result.profile.items())),
        "node_values": _sha(f"{nid}:{players(v)}" for nid, v in sorted(result.node_values.items())),
        "root_value": _sha([players(result.root_value)]),
        "outcome_distribution": _sha(
            f"{nid}={p!r}" for nid, p in sorted(result.outcome_distribution.items())
        ),
    }


def digests(mode: str) -> list[dict[str, str]]:
    return [result_digest(solve(build_game(p), risk)) for p, risk in _games(mode)]


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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN_COMMANDS.items():
        (GOLDEN_DIR / f"{name}.txt").write_bytes(cli_output(argv).encode())
    DIGEST_FILE.write_text(
        "{\n"
        + ",\n".join(
            f'"{mode}": [\n' + ",\n".join(json.dumps(d) for d in digests(mode)) + "\n]"
            for mode in DIGEST_MODES
        )
        + "\n}\n"
    )
