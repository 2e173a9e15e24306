"""stormcover: storm-track observation scoring for three satellite operating concepts.

The library compares a nadir-staring baseline, an agile slewing model, and
multistage constellation reconfiguration against moving tropical-cyclone
ground tracks, with impulsive maneuver costing and an exact branch-and-bound
slot planner at desk scale.

The usual entry points are re-exported here; the submodules remain the
authoritative homes (orbits, tracks, visibility, agility, maneuvers, mcrp,
harness, cli).
"""

from .agility import (
    AgilityConfig,
    SlewSchedule,
    optimize_slew_schedule,
    optimize_slew_schedules,
    score_agility,
)
from .harness import (
    DEFAULT_SATELLITES,
    ComparisonReport,
    ModelResult,
    ScenarioConfig,
    Spacecraft,
    default_corpus,
    emit_report,
    evaluate_track,
    load_config,
    parse_models,
    run_corpus,
    write_outputs,
)
from .maneuvers import (
    CostMatrix,
    GridMode,
    SlotGridSpec,
    TransferCost,
    TransferStrategy,
    build_cost_matrix,
    calibrate_plane_spans,
    generate_slot_grid,
    transfer_cost,
)
from .mcrp import (
    ReconfigPlan,
    RewardMatrix,
    build_reward_matrix,
    score_plan,
    solve_mcrp,
    solve_mcrp_exhaustive,
)
from .orbits import EARTH, ClassicalOrbitalElements, TimeGrid, propagate
from .tracks import TcTrack, parse_track_csv, serialize_track, synthesize_track
from .visibility import FovSpec

__version__ = "0.1.0"

__all__ = [
    "AgilityConfig",
    "ClassicalOrbitalElements",
    "ComparisonReport",
    "CostMatrix",
    "DEFAULT_SATELLITES",
    "EARTH",
    "FovSpec",
    "GridMode",
    "ModelResult",
    "ReconfigPlan",
    "RewardMatrix",
    "ScenarioConfig",
    "SlewSchedule",
    "SlotGridSpec",
    "Spacecraft",
    "TcTrack",
    "TimeGrid",
    "TransferCost",
    "TransferStrategy",
    "build_cost_matrix",
    "build_reward_matrix",
    "calibrate_plane_spans",
    "default_corpus",
    "emit_report",
    "evaluate_track",
    "generate_slot_grid",
    "load_config",
    "optimize_slew_schedule",
    "optimize_slew_schedules",
    "parse_models",
    "parse_track_csv",
    "propagate",
    "run_corpus",
    "score_agility",
    "score_plan",
    "serialize_track",
    "solve_mcrp",
    "solve_mcrp_exhaustive",
    "synthesize_track",
    "transfer_cost",
    "write_outputs",
]
