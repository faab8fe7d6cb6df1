"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/

They run every workload briefly, prove that a wrong solver is counted as
failed, and check the tracer's counts against independent counters.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import layertrace
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

workloads = run.load_program()
import wbgame  # noqa: E402  (importable once load_program put src/ on the path)
from wbgame import analysis, model, scenario, solver  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    meta = json.loads(next(line[2:] for line in proc.stdout.splitlines() if line.startswith("# ")))
    assert meta["pinned_core"] in os.sched_getaffinity(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], float), name


def _wrong_solve(real):
    """``solve`` with Alice's root decision flipped: a plausible-looking wrong answer."""

    def wrong(game, risk=solver.RISK_NEUTRAL, ties=solver.PAPER_TIES):
        result = real(game, risk, ties)
        profile = dict(result.profile)
        profile[model.ROOT_NODE_ID] = "stay" if profile[model.ROOT_NODE_ID] == "leak" else "leak"
        reach = wbgame.tree.terminal_reach_probabilities(game, profile)
        return replace(result, profile=profile, outcome_distribution=reach)

    return wrong


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_solve_counts_in_failed_ratio(workload, monkeypatch):
    real = solver.solve
    wrong = _wrong_solve(real)
    for mod in [m for k, m in sys.modules.items() if k == "wbgame" or k.startswith("wbgame.")]:
        if vars(mod).get("solve") is real:
            monkeypatch.setattr(mod, "solve", wrong)
    _, wl, shipped, _ = run.set_up(workload)
    stats = run.run_loop(wl, wl.inputs(random.Random(5), shipped), 0.2)
    assert stats.attempted >= 1
    assert stats.failed == stats.attempted, stats.problems


@pytest.fixture(scope="module")
def noleak():
    return scenario.load_scenario(str(ROOT / "scenarios" / "baseline_noleak.scn")).parameters


@pytest.mark.parametrize("query", ["threshold", "levers"])
def test_solves_per_query_matches_an_independent_count(query, noleak, monkeypatch):
    tracer = layertrace.Tracer()
    calls = 0
    with tracer.active():
        traced_solve = analysis.solve

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return traced_solve(*args, **kwargs)

        monkeypatch.setattr(analysis, "solve", counting)
        if query == "threshold":
            analysis.find_threshold(noleak, "w", 0.0, 1.0, tol=1e-6)
        else:
            analysis.lever_report(noleak)
        monkeypatch.undo()
    assert tracer.calls_within("solver.solve", run.QUERIES) == calls > 0


def test_tracing_loses_nothing_under_a_crowded_pool(noleak, monkeypatch):
    """Four pool threads on fewer cores, switching every microsecond."""
    monkeypatch.setenv("WBGAME_THREADS", "4")
    grid = [i / 200 for i in range(201)]
    risk = solver.RiskProfile(0.3, -0.2)
    tracer = layertrace.Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.active():
            table = analysis.sweep(noleak, "w", grid, risk)
    finally:
        sys.setswitchinterval(interval)
    assert all(row.valid for row in table.rows)
    totals, counts = tracer.summary()
    terminals = len(wbgame.tree.terminals(model.build_game(noleak)))
    assert counts["solver.risk_transform"] == len(grid) * terminals * 2
    assert totals["solver.solve"].calls == len(grid)
    assert tracer.calls_within("solver.solve", {"analysis.sweep"}) == len(grid)
    assert tracer.calls_within("tree.validate_tree", {"solver.solve"}) == len(grid)
    assert counts[layertrace.VALIDATE_PASSED] == 2 * len(grid)
    sweep_span = totals["analysis.sweep"]
    assert 0 < sweep_span.self_ns < sweep_span.total_ns


def test_binomial_tail():
    tail = workloads.binomial_tail
    assert tail(500, 1000, 0.5) == pytest.approx(0.5126, abs=1e-3)
    assert tail(0, 1000, 0.5) < 1e-300
    assert tail(0, 1000, 0.0) == 1.0 and tail(1, 1000, 0.0) == 0.0
    assert tail(1000, 1000, 1.0) == 1.0 and tail(999, 1000, 1.0) == 0.0
    assert tail(10, 1000, 0.05) < 1e-9 < tail(15, 1000, 0.05)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
