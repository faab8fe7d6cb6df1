"""Command-line interface.

Exit codes: 0 success, 2 a scenario or argument the tool rejects (the
library raises ``ValueError``, or ``OverflowError`` for a risk transform
that overflows; ``sweep`` makes such a point an error row instead), 3
valid inputs with no answer (the library raises ``AnalysisError``, e.g. a
threshold bracket whose ends share an outcome class), 4 a failed
``validate``: the solver and the oracle disagree, or the scenario's
``expected_outcome`` is not a modal class. An unreadable ``--scenario`` or
unwritable ``--out`` exits 2. Only :func:`main` loads the scenario, writes
the output and maps errors to exit codes 2, 3 and 4; each ``cmd_*`` returns
its text.

Every output embeds the effective parameter set and tool version in a
metadata header (a ``meta`` object in json, ``# key: value`` lines
otherwise); ``--no-meta`` suppresses the header entirely, which also removes
the only timestamp, making repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

from . import __version__, analysis, model, oracle, scenario
from .analysis import AnalysisError
from .model import OutcomeClass, build_game, prune_zero
from .solver import solve
from .tree import Player
from .scenario import Scenario, format_number

OK, USAGE_ERROR, ANALYSIS_ERROR, DISAGREEMENT = 0, 2, 3, 4


class ValidationFailure(Exception):
    """A failed ``validate``; the message is its stderr report."""


def _meta(args, scn: Scenario, **extra) -> dict | None:
    if args.no_meta:
        return None
    meta = {
        "tool": f"wbgame {__version__}",
        "command": args.command,
        "generated": datetime.now(timezone.utc).isoformat(),
        "scenario": scn.name or args.scenario,
    }
    params = {k: format_number(getattr(scn.parameters, k)) for k in model.PARAMETER_NAMES}
    params["variant"] = scn.parameters.variant.value
    meta["parameters"] = " ".join(f"{k}={v}" for k, v in params.items())
    meta["risk"] = f"alice={format_number(scn.risk.alice)} tom={format_number(scn.risk.tom)}"
    meta["ties"] = f"alice={scn.ties.alice.value} tom={scn.ties.tom.value}"
    meta.update(extra)
    return meta


def cmd_solve(args, scn: Scenario) -> str:
    tree = build_game(scn.parameters)
    result = solve(tree, scn.risk, scn.ties)
    return scenario.render_result(result, tree, args.format, _meta(args, scn))


def cmd_sweep(args, scn: Scenario) -> str:
    grid = analysis.even_grid(args.start, args.stop, args.steps)
    table = analysis.sweep(scn.parameters, args.param, grid, scn.risk, scn.ties)
    lines = [scenario.meta_header(_meta(args, scn, param=args.param))]
    classes = [c.value for c in OutcomeClass]
    lines.append(
        f"{args.param},valid,error,alice_leaks,root_alice,root_tom,"
        + ",".join(f"p_{c}" for c in classes)
        + "\n"
    )
    for row in table.rows:
        if not row.valid:
            err = (row.error or "").replace(",", ";")
            lines.append(f"{row.value!r},false,{err},,,," + "," * (len(classes) - 1) + "\n")
            continue
        probs = ",".join(repr(row.class_probabilities[c]) for c in OutcomeClass)
        lines.append(
            f"{row.value!r},true,,{str(row.alice_leaks).lower()},"
            f"{format_number(row.root_alice)},{format_number(row.root_tom)},{probs}\n"
        )
    return "".join(lines)


def cmd_threshold(args, scn: Scenario) -> str:
    report = analysis.find_threshold(
        scn.parameters, args.param, args.lo, args.hi, args.tol, scn.risk, scn.ties
    )
    lines = [scenario.meta_header(_meta(args, scn))]
    lines.append(f"param: {report.param}\n")
    lines.append(f"bracket: [{report.lo!r}, {report.hi!r}]\n")
    lines.append(f"critical: {report.critical!r} +/- {report.tol!r}\n")
    lines.append(f"below: {', '.join(sorted(c.value for c in report.below_classes))}\n")
    lines.append(f"above: {', '.join(sorted(c.value for c in report.above_classes))}\n")
    lines.append(f"single_flip: {str(report.monotone).lower()}\n")
    return "".join(lines)


def cmd_levers(args, scn: Scenario) -> str:
    findings = analysis.lever_report(scn.parameters, scn.risk, scn.ties, args.tol)
    lines = [scenario.meta_header(_meta(args, scn))]
    lines.append("lever,param,search_from,search_to,critical\n")
    for f in findings:
        crit = repr(f.critical) if f.critical is not None else "no flip in range"
        lines.append(f"{f.lever},{f.param},{f.start!r},{f.end!r},{crit}\n")
    return "".join(lines)


def cmd_simulate(args, scn: Scenario) -> str:
    tree = build_game(scn.parameters)
    result = solve(tree, scn.risk, scn.ties)
    sim = analysis.simulate(tree, result.profile, args.n, args.seed)
    meta = _meta(args, scn, n=args.n, seed=args.seed, generator=sim.generator)
    lines = [scenario.meta_header(meta)]
    lines.append(f"playouts: {sim.n}\n")
    lines.append("class,frequency,stderr,solved_probability\n")
    solved = analysis.class_distribution(tree, result)
    for cls in OutcomeClass:
        lines.append(
            f"{cls.value},{sim.class_frequencies[cls]!r},"
            f"{sim.class_standard_errors[cls]!r},{solved[cls]!r}\n"
        )
    lines.append("player,mean_payoff,stderr,solved_value\n")
    for player in (Player.ALICE, Player.TOM):
        lines.append(
            f"{player.value},{sim.mean_payoffs[player]!r},"
            f"{sim.payoff_standard_errors[player]!r},{format_number(result.root_value[player])}\n"
        )
    return "".join(lines)


def cmd_validate(args, scn: Scenario) -> str:
    tree = build_game(scn.parameters)
    result = solve(tree, scn.risk, scn.ties)
    certified = oracle.brute_force_spe(tree, scn.risk, scn.ties)
    profile_ok = certified.canonical == result.profile
    value_ok = all(
        math.isclose(certified.canonical_root_value[p], result.root_value[p],
                     rel_tol=0.0, abs_tol=1e-9)
        for p in (Player.ALICE, Player.TOM)
    )
    if not (profile_ok and value_ok):
        raise ValidationFailure(
            "solver/oracle disagreement:\n"
            f"  solver profile: {result.profile}\n"
            f"  oracle profile: {certified.canonical}\n"
            f"  solver value:   {result.root_value}\n"
            f"  oracle value:   {certified.canonical_root_value}"
        )
    expected = scn.expected_outcome
    if expected is not None:
        dist = analysis.class_distribution(tree, result)
        modal = max(dist, key=dist.get)
        if dist[expected] < dist[modal]:  # a tie for the top counts as a match
            raise ValidationFailure(
                "expected outcome is not the modal class:\n"
                f"  expected: {expected.value} p={format_number(dist[expected])}\n"
                f"  modal:    {modal.value} p={format_number(dist[modal])}"
            )
    lines = [scenario.meta_header(_meta(args, scn))]
    lines.append(
        f"oracle agrees: canonical profile matches across "
        f"{len(certified.spe_profiles)} subgame-perfect profile(s)\n"
    )
    lines.append(
        f"root value: alice={format_number(result.root_value[Player.ALICE])} "
        f"tom={format_number(result.root_value[Player.TOM])}\n"
    )
    return "".join(lines)


def cmd_export_tree(args, scn: Scenario) -> str:
    tree = build_game(scn.parameters)
    if args.pruned:
        tree = prune_zero(tree)
    result = solve(tree, scn.risk, scn.ties) if args.with_solution else None
    return scenario.meta_header(_meta(args, scn), "//") + scenario.export_dot(tree, result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbgame",
        description="Solve and analyse the sequential-move whistleblowing game.",
    )
    parser.add_argument("--version", action="version", version=f"wbgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=True, help="path to a .scn scenario file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument(
            "--no-meta", action="store_true",
            help="suppress the metadata header (makes output byte-reproducible)",
        )
        p.set_defaults(func=func)
        return p

    p = command("solve", cmd_solve, "solve the scenario and print the equilibrium")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = command("sweep", cmd_sweep, "re-solve along a parameter grid")
    p.add_argument(
        "--param", required=True,
        help="parameter name (w x y z a..g B..G H I) or risk coefficient (risk_alice risk_tom)",
    )
    p.add_argument("--from", dest="start", type=float, required=True, help="grid start")
    p.add_argument("--to", dest="stop", type=float, required=True, help="grid end")
    p.add_argument("--steps", type=int, required=True, help="number of grid points (>= 2)")

    p = command("threshold", cmd_threshold, "bisect to an equilibrium flip point")
    p.add_argument(
        "--param", required=True,
        help="parameter name (w x y z a..g B..G H I); not a risk coefficient",
    )
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = command("levers", cmd_levers,
                "minimal change per intervention lever that makes alice leak")
    p.add_argument("--tol", type=float, default=1e-6)

    p = command("simulate", cmd_simulate, "Monte Carlo playouts of the solved strategy")
    p.add_argument("--n", type=int, required=True, help="number of playouts")
    p.add_argument("--seed", type=int, required=True, help="generator seed")

    command("validate", cmd_validate, "check the solver against brute-force enumeration")

    p = command("export-tree", cmd_export_tree, "emit the game tree as DOT")
    p.add_argument("--pruned", action="store_true", help="drop zero-probability branches")
    p.add_argument("--with-solution", action="store_true", help="highlight chosen actions")

    return parser


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad options, 0 on --help
        return int(exc.code or 0)
    try:
        scn = scenario.load_scenario(args.scenario)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        return _fail(exc, USAGE_ERROR)
    for warning in scn.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        text = args.func(args, scn)
    except ValidationFailure as exc:
        print(exc, file=sys.stderr)
        return DISAGREEMENT
    except AnalysisError as exc:
        return _fail(exc, ANALYSIS_ERROR)
    except (ValueError, OverflowError) as exc:
        return _fail(exc, USAGE_ERROR)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _fail(exc, USAGE_ERROR)
    return OK


if __name__ == "__main__":
    sys.exit(main())
