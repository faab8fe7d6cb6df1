"""Sequential-move whistleblowing game: model, equilibrium solver, analysis."""

__version__ = "0.1.0"

from .tree import (
    NEG_INF,
    Chance,
    Decision,
    Node,
    NodeCounts,
    Player,
    StrategyProfile,
    Terminal,
    chance,
    count_nodes,
    decision,
    terminal,
    validate_tree,
)
from .solver import (
    RiskProfile,
    SolveResult,
    TiePolicy,
    TieRule,
    expected_utility,
    one_shot_violations,
    risk_transform,
    solve,
)
from .model import (
    GameParameters,
    Variant,
    alice_leak_value,
    alice_to_harry,
    build_game,
    duncan_to_harry,
    prune_zero,
    tom_blocks,
    tom_pursues_censored,
    tom_pursues_uncensored,
    validate_parameters,
)
from .oracle import EnumerationCapError, OracleResult, brute_force_spe, enumerate_profiles
from .analysis import (
    AnalysisError,
    LeverFinding,
    OutcomeClass,
    SimulationResult,
    SweepTable,
    ThresholdReport,
    class_distribution,
    find_threshold,
    lever_report,
    simulate,
    sweep,
)
from .scenario import (
    Scenario,
    ScenarioError,
    export_dot,
    load_scenario,
    parse_scenario,
    render_result,
    render_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
