"""wbgame benchmark: one closed-loop client runs one workload for a fixed time.

    python3 bench/run.py --workload sweep|flip|certify --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``wbgame`` from
``src/`` and reads the shipped scenarios from ``scenarios/``. Inputs come
from ``--seed`` alone. Ops run back to back until ``--seconds`` of op time is
spent; every op's output is checked outside the timed region. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every other op runs under the layer tracer and the metrics are
the per-layer ones (see README.md beside this file).

Reported times are the process's CPU time (all its threads), at reference
host speed: each raw CPU time is scaled by how long a fixed calibration loop
takes just before and just after the op, against CAL_REFERENCE_S. Shared
hosts drift in speed by up to ~2x within minutes, and this scaling cancels
the drift; the raw figures and the wall times are printed beside them. The
whole run, the sweep pool's threads included, stays on one core (see
``pin_to_one_core``), so CPU time is the op's wall time less the time that
core gave to other processes.
"""

import time

T0 = time.process_time()  # set-up is timed from here, before wbgame is imported

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
TRACE_DIR = ROOT / ".bench_out"
#: set-up runs this many times per run (this process plus fresh children)
SETUP_SAMPLES = 5
#: warm-up inputs come from their own seed, so no measured op repeats one
WARMUP_SEED = "warm-up"
#: the calibration loop's duration at reference speed, about its median on
#: the 2-core x86-64 host, Python 3.11, that this benchmark was tuned on
CAL_REFERENCE_S = 1.6e-3


def _calibration_tree(depth: int):
    if depth == 0:
        return ("leaf", {"a": 1.5, "b": -0.5})
    return ("node", tuple((f"k{i}", _calibration_tree(depth - 1)) for i in range(3)))


_CALIBRATION_TREE = _calibration_tree(4)


def _calibration_walk(node, path: tuple[str, ...], out: dict) -> dict:
    kind, body = node
    if kind == "leaf":
        values = {player: v * 0.5 for player, v in body.items()}
    else:
        kids = [(label, _calibration_walk(child, path + (label,), out)) for label, child in body]
        best = max(v["a"] for _, v in kids)
        values = dict(next(v for _, v in kids if v["a"] == best))
    out["/".join(path)] = values
    return values


def calibration_sample() -> float:
    """CPU seconds a fixed pure-Python loop takes right now.

    The loop mimics backward induction (recursion, path tuples and joins,
    small dicts) on a fixed 121-node tree but shares no code with wbgame,
    so a change to the program cannot move it. It tracks the host's speed
    about twice as closely as plain arithmetic and dict loops do.
    """
    start = time.process_time()
    for _ in range(8):
        _calibration_walk(_CALIBRATION_TREE, (), {})
    return time.process_time() - start


def speed_factor(samples: list[float]) -> float:
    """Multiply a raw duration taken amid ``samples`` by this to get it at reference speed."""
    return CAL_REFERENCE_S / statistics.median(samples)


def pin_to_one_core() -> tuple[int, int | None]:
    """Keep this process, and every thread and child it starts, on one core.

    The sweep pool's threads take turns holding the interpreter lock. Spread
    over two cores of a shared host, each hand-over waits until the other
    core is free, which the single-threaded calibration loop does not see:
    the middle half of ten ``sweep`` runs spread over a third of their
    median. On one core the hand-overs cost the same from run to run, the
    pool's own overhead is still measured, and the calibration samples share
    the ops' core.

    Returns the number of cores available before, and the core kept (None
    where the platform cannot set affinity).
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1, None
    cores = os.sched_getaffinity(0)
    core = max(cores)
    os.sched_setaffinity(0, {core})
    return len(cores), core


def load_program():
    """Import wbgame from this checkout's ``src/``; exit if it is not there."""
    if not (SRC / "wbgame" / "__init__.py").is_file() or not SCENARIO_DIR.is_dir():
        sys.exit(f"run.py: no wbgame sources or scenarios under {ROOT}")
    sys.path.insert(0, str(SRC))
    import wbgame
    import workloads

    if Path(wbgame.__file__).resolve().parent != SRC / "wbgame":
        sys.exit(f"run.py: imported wbgame from {wbgame.__file__}, not from {SRC}")
    return workloads


def set_up(name: str, traced: bool = False):
    """Import, load the shipped scenarios, warm up; returns the state ops need.

    When ``traced``, scenario loading runs under a tracer of its own, which
    is returned too.
    """
    workloads = load_program()
    from wbgame import scenario

    setup_tracer = layertrace.Tracer() if traced else None
    with setup_tracer.active() if traced else nullcontext():
        shipped = [scenario.load_scenario(str(p)).parameters
                   for p in sorted(SCENARIO_DIR.glob("*.scn"))]
    wl = workloads.WORKLOADS[name]
    warm = wl.inputs(random.Random(WARMUP_SEED), shipped)
    for _ in range(wl.warmup_ops):
        wl.run(next(warm))
    return workloads, wl, shipped, setup_tracer


@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    #: op CPU seconds at reference speed, untraced and traced ops apart
    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    #: raw CPU and wall seconds of the untraced ops, and the host speed factors
    plain_raw: list[float] = field(default_factory=list)
    plain_wall: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    traced_points: int = 0
    problems: list[str] = field(default_factory=list)


def run_loop(wl, inputs, seconds: float, tracer=None) -> LoopStats:
    """Closed loop, one client: ops back to back until ``seconds`` of op wall time.

    With a tracer every second op runs traced, so the traced and untraced
    halves see the same input mix and the same machine conditions.
    A calibration sample follows each op's check, and an op's times are
    scaled by the mean of the samples on either side of it: the host's
    speed shifts within a second, faster than a window of recent samples
    can follow.
    """
    stats = LoopStats()
    before = calibration_sample()
    spent = 0.0
    while spent < seconds:
        inp = next(inputs)
        traced = tracer is not None and stats.attempted % 2 == 1
        with tracer.active() if traced else nullcontext():
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                out = wl.run(inp)
                problems = []
            except Exception as exc:  # an op that raises is a failed op
                problems = [f"raised {type(exc).__name__}: {exc}"]
            elapsed = time.process_time() - start_cpu
            wall = time.perf_counter() - start
        if not problems:
            try:
                problems = wl.check(inp, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        after = calibration_sample()
        factor = speed_factor([before, after])
        before = after
        spent += wall
        stats.attempted += 1
        if traced:
            stats.traced.append(elapsed * factor)
        else:
            stats.plain.append(elapsed * factor)
            stats.plain_raw.append(elapsed)
            stats.plain_wall.append(wall)
            stats.factors.append(factor)
        if problems:
            stats.failed += 1
            stats.problems.extend(problems[: 3 - len(stats.problems)])
        elif traced and wl.points:
            stats.traced_points += wl.points(out)
    return stats


def setup_seconds() -> float:
    """Set-up CPU time so far, at reference speed."""
    raw = time.process_time() - T0
    return raw * speed_factor([calibration_sample() for _ in range(9)])


def setup_child_seconds(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int, cores: int, core: int | None) -> dict:
    """Run metadata; ``cores`` is the count available before pinning to ``core``."""
    from wbgame import analysis

    # the sweep pool's size as the program picks it; 1 once the pool is gone
    workers = analysis._worker_count() if hasattr(analysis, "_worker_count") else 1
    if workers > cores:
        print(f"warning: {workers} sweep workers on {cores} available cores", file=sys.stderr)
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": cores,
        "pinned_core": core,
        "sweep_workers": workers,
    }


def end_to_end(stats: LoopStats, setup_samples: list[float]) -> dict:
    lat = stats.plain
    return {
        "ops_per_s": ((stats.attempted - stats.failed) / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) > 1 else lat[0] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1.0 - stats.failed / stats.attempted, "ratio"),
    }


#: per-layer functions traced during set-up and reported per set-up
PER_SETUP = {"scenario.load_scenario"}
QUERIES = {"analysis.find_threshold", "analysis.lever_report"}


def per_layer(setup_tracer, tracer, stats: LoopStats, playouts: int) -> dict:
    totals, counts = tracer.summary()
    setup_totals, _ = setup_tracer.summary()
    ops = len(stats.traced)
    empty = layertrace.LayerTotals(0, 0, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for mod, fns in layertrace.SPANNED.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            if name in PER_SETUP:
                t, per, den = setup_totals.get(name, empty), "setup", 1
            else:
                t, per, den = totals.get(name, empty), "op", ops
            metrics[f"{name}.calls_per_{per}"] = (ratio(t.calls, den), f"calls/{per}")
            metrics[f"{name}.self_ms_per_{per}"] = (ratio(t.self_ns / 1e6, den), f"ms/{per}")
    for mod, fns in layertrace.COUNTED.items():
        for fn in fns:
            metrics[f"{mod}.{fn}.calls_per_op"] = (ratio(counts[f"{mod}.{fn}"], ops), "calls/op")
    sim = totals.get("analysis.simulate", empty)
    metrics["analysis.simulate.playouts_per_s"] = (ratio(sim.calls * playouts, sim.total_ns / 1e9), "1/s")
    solves = totals.get("solver.solve", empty).calls
    metrics["solver.solve.calls_per_point"] = (
        ratio(tracer.calls_within("solver.solve", {"analysis.sweep"}), stats.traced_points), "ratio")
    metrics["model.validate_parameters.calls_per_solve"] = (
        ratio(counts[layertrace.VALIDATE_PASSED], solves), "ratio")
    metrics["tree.validate_tree.calls_per_solve"] = (
        ratio(tracer.calls_within("tree.validate_tree", {"solver.solve"}), solves), "ratio")
    queries = sum(totals.get(q, empty).calls for q in QUERIES)
    metrics["analysis.solves_per_query"] = (
        ratio(tracer.calls_within("solver.solve", QUERIES), queries), "ratio")
    untraced_rate = ratio(len(stats.plain), sum(stats.plain))
    traced_rate = ratio(ops, sum(stats.traced))
    metrics["trace.ops_per_s_ratio"] = (ratio(traced_rate, untraced_rate), "ratio")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "flip", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample in a fresh process, for setup_s
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if "WBGAME_THREADS" in os.environ:
        del os.environ["WBGAME_THREADS"]
        print("note: WBGAME_THREADS unset; the benchmark measures the default pool",
              file=sys.stderr)
    cores, core = pin_to_one_core()
    if args.setup_only:
        set_up(args.workload)
        print(setup_seconds())
        return 0

    workloads, wl, shipped, setup_tracer = set_up(args.workload, traced=bool(args.trace))
    setup_samples = [setup_seconds()]
    meta = metadata(args.seed, cores, core)
    tracer = layertrace.Tracer() if args.trace else None
    inputs = wl.inputs(random.Random(args.seed), shipped)
    stats = run_loop(wl, inputs, args.seconds, tracer)
    if args.trace:
        metrics = per_layer(setup_tracer, tracer, stats, workloads.PLAYOUTS)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        meta["spans_file"] = f"{out.relative_to(ROOT)} ({tracer.write(out)} spans)"
    else:
        setup_samples += [setup_child_seconds(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(stats, setup_samples)

    print("# " + json.dumps(meta, sort_keys=True))
    print(f"workload {args.workload}: {stats.attempted} ops attempted, {stats.failed} failed "
          f"(failed_ratio {stats.failed / stats.attempted}), "
          f"{len(stats.plain)} timed untraced, {len(stats.traced)} traced")
    for clock, raw in (("raw cpu", stats.plain_raw), ("raw wall", stats.plain_wall)):
        print(f"{clock}: op_ms_p50 {statistics.median(raw) * 1e3:.3f} ms, "
              f"{len(raw) / sum(raw):.3f} untraced ops/s")
    wall_scaled = [w * f for w, f in zip(stats.plain_wall, stats.factors)]
    print(f"scaled wall: op_ms_p50 {statistics.median(wall_scaled) * 1e3:.3f} ms, "
          f"{len(wall_scaled) / sum(wall_scaled):.3f} untraced ops/s; "
          f"host speed factor {min(stats.factors):.3f}..{max(stats.factors):.3f}")
    for problem in stats.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
