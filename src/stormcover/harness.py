"""Scenario harness: the model matrix, corpus runs, and comparison reports.

Everything upstream of this module scores one satellite, one grid, or one
solve at a time.  Here the pieces are wired into the comparison the
project exists for: eight observation concepts run against the same set
of moving-target tracks, scored by the same reward arithmetic.

The concept matrix, over two slot grids: phasing (20 phases on the
initial plane) and unrestricted (9 planes of 15 phases)::

    name  stages  grid          slots       scored by
    B        1    phasing       [0:1]       all-stay plan on slot 0
    A        1    phasing       [0:1]       per-satellite slew schedules
    P1       2    phasing       [::2] (10)  reconfiguration, phasing slots
    P2       2    phasing       all         reconfiguration, phasing slots
    P3       4    phasing       [::2] (10)  reconfiguration, phasing slots
    P4       4    phasing       all         reconfiguration, phasing slots
    U1       2    unrestricted  all         reconfiguration, plane + phasing
    U2       4    unrestricted  all         reconfiguration, plane + phasing

Model B goes through the same visibility tensor and reward matrix as the
reconfiguration concepts (an all-stay plan whose only slot is the initial
orbit), so the baseline and the optimized concepts never disagree about
what "seen" means.  Model A sums per-satellite agility rewards without
deduplicating steps where two satellites observe at once; its reward is
an observation count rather than a coverage count, which can favour A in
dense constellations and is noted wherever the numbers are reported.

Every grid step rewards one cell, the storm's active target, so the
visibility of a slot grid is one (satellite, slot, step) array over the
whole horizon, built against the (step, 3) active-target table.  Each
concept's tensor is a reshape of its slots of that array, and its stage
costs a slice of the grid's, so B is slot 0 of the phasing grid and P1
reads P2's even phases, bit for bit.  The slot grids themselves, with
their layout, constants and stage-0 costs, do not depend on the track:
each is built once per config, at the first track that reads it.

Later concepts are warm-started from earlier winners mapped onto their
slots.  A source's slots are the target's own or every other one of
them, and stage splitting lands on bitwise-identical boundary epochs
with zero-cost stays, so a mapped winner is always budget-feasible and
the chained models can never score below their coarser parents, whether
or not the solver finishes its optimality proof.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .agility import (
    AgilityConfig,
    SlewSchedule,
    line_of_sight,
    optimize_slew_schedules,
    score_agility,
    slewed_step_visibility,
)
from .maneuvers import (
    CostMatrix,
    GridMode,
    SlotGrid,
    SlotGridSpec,
    build_cost_matrix,
    calibrate_plane_spans,
    generate_slot_grid,
    grid_layout,
)
from .mcrp import (
    DEFAULT_NODE_LIMIT,
    ReconfigPlan,
    RewardMatrix,
    active_point_of_step,
    build_reward_matrix,
    score_plan,
    solve_mcrp,
)
from .orbits import ClassicalOrbitalElements, TimeGrid, geodetic_to_eci
from .tracks import TcTrack, parse_track_csv, serialize_track, synthesize_track, target_eci_table, track_to_targets
from .visibility import FovSpec, slot_visibility

__all__ = [
    "Spacecraft",
    "DEFAULT_SATELLITES",
    "ModelSpec",
    "MODEL_MATRIX",
    "MODEL_ORDER",
    "parse_models",
    "ScenarioConfig",
    "default_corpus",
    "parse_config",
    "load_config",
    "ModelResult",
    "evaluate_track",
    "run_corpus",
    "ComparisonReport",
    "build_report",
    "emit_report",
    "write_outputs",
]


# ---------------------------------------------------------------------------
# Constellation and model matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spacecraft:
    """One constellation member: a name and its initial orbit."""

    name: str
    elements: ClassicalOrbitalElements


def _coe(a, e, i_deg, raan_deg, argp_deg, nu_deg) -> ClassicalOrbitalElements:
    return ClassicalOrbitalElements(
        a,
        e,
        math.radians(i_deg),
        math.radians(raan_deg),
        math.radians(argp_deg),
        math.radians(nu_deg),
    )


#: Five flown sun-synchronous imagers used as the reference constellation.
DEFAULT_SATELLITES: Tuple[Spacecraft, ...] = (
    Spacecraft("DMC3-FM3", _coe(7006.01, 17.07e-4, 97.72, 307.83, 77.52, 104.88)),
    Spacecraft("DMC3-FM1", _coe(6992.54, 8.03e-4, 97.72, 306.02, 116.04, 302.43)),
    Spacecraft("HUANJING-1B", _coe(7003.07, 48.93e-4, 97.80, 89.49, 107.47, 140.62)),
    Spacecraft("HUANJING-1A", _coe(7007.36, 39.24e-4, 97.79, 85.41, 116.27, 189.24)),
    Spacecraft("NIGERIASAT-1", _coe(6992.76, 41.58e-4, 97.85, 228.61, 260.58, 149.89)),
)


@dataclass(frozen=True)
class ModelSpec:
    """Shape of one observation concept.

    kind is "baseline", "agile", or "reconfig"; grid names the slot grid
    in _SLOT_GRIDS and slots the slice of it the concept reads.  Both only
    matter for the kinds scored through the visibility tensor (baseline
    runs on slot 0 so it shares the reconfiguration code path).
    """

    name: str
    kind: str
    num_stages: int
    grid: str
    slots: slice


# The two slot grids every concept views: grid name -> (mode, shape).
_SLOT_GRIDS: Dict[str, Tuple[GridMode, SlotGridSpec]] = {
    "phasing": (GridMode.PHASING_ONLY, SlotGridSpec(num_phases=20)),
    "unrestricted": (GridMode.UNRESTRICTED, SlotGridSpec(num_phases=15, num_plane_axis=5)),
}

MODEL_MATRIX: Dict[str, ModelSpec] = {
    "B": ModelSpec("B", "baseline", 1, "phasing", slice(0, 1)),
    "A": ModelSpec("A", "agile", 1, "phasing", slice(0, 1)),
    "P1": ModelSpec("P1", "reconfig", 2, "phasing", slice(0, None, 2)),
    "P2": ModelSpec("P2", "reconfig", 2, "phasing", slice(None)),
    "P3": ModelSpec("P3", "reconfig", 4, "phasing", slice(0, None, 2)),
    "P4": ModelSpec("P4", "reconfig", 4, "phasing", slice(None)),
    "U1": ModelSpec("U1", "reconfig", 2, "unrestricted", slice(None)),
    "U2": ModelSpec("U2", "reconfig", 4, "unrestricted", slice(None)),
}

MODEL_ORDER: Tuple[str, ...] = tuple(MODEL_MATRIX)

# Warm-start sources per model, applied when the source ran earlier in the
# same track evaluation; each source reads the same grid as its target.
_WARM_SOURCES: Dict[str, Tuple[str, ...]] = {
    "P2": ("P1",),
    "P3": ("P1",),
    "P4": ("P2", "P3"),
    "U2": ("U1",),
}


def parse_models(text: str) -> Tuple[str, ...]:
    """Parse a comma list of concept names into canonical order.

    ``X..Y`` expands to the span of the canonical order from X to Y
    inclusive, so ``B,A,P1..U2`` selects everything.  Duplicates
    collapse; the result always runs in canonical order because warm
    chains need their sources solved first.
    """
    picked = set()
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise ValueError("empty model name in list")
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            lo, hi = lo.strip(), hi.strip()
            for name in (lo, hi):
                if name not in MODEL_MATRIX:
                    raise ValueError(f"unknown model {name!r}")
            a, b = MODEL_ORDER.index(lo), MODEL_ORDER.index(hi)
            if a > b:
                raise ValueError(f"model range {piece!r} runs against canonical order")
            picked.update(MODEL_ORDER[a : b + 1])
        elif piece in MODEL_MATRIX:
            picked.add(piece)
        else:
            raise ValueError(f"unknown model {piece!r}")
    if not picked:
        raise ValueError("no models selected")
    return tuple(name for name in MODEL_ORDER if name in picked)


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a corpus run needs besides the tracks themselves."""

    satellites: Tuple[Spacecraft, ...] = DEFAULT_SATELLITES
    models: Tuple[str, ...] = MODEL_ORDER
    fov_half_angle: float = math.radians(45.0)
    step: float = 300.0
    control_step: float = 1800.0
    max_rate: float = math.radians(3.0)
    max_slew: float = math.radians(35.0)
    budget_km_s: float = 2.0
    max_revs: int = 4
    node_limit: int = DEFAULT_NODE_LIMIT
    fov: FovSpec = field(init=False, repr=False, compare=False)
    agility: AgilityConfig = field(init=False, repr=False, compare=False)
    _slot_grids: Dict[str, SlotGrid] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.satellites:
            raise ValueError("need at least one satellite")
        names = [sc.name for sc in self.satellites]
        if len(set(names)) != len(names):
            raise ValueError("satellite names must be unique")
        if not self.models:
            raise ValueError("need at least one model")
        for name in self.models:
            if name not in MODEL_MATRIX:
                raise ValueError(f"unknown model {name!r}")
        if self.max_revs < 1:
            raise ValueError("max_revs must be at least 1")
        if self.node_limit < 0:
            raise ValueError("node_limit must be non-negative")
        if not self.budget_km_s >= 0.0:
            raise ValueError(f"budget_km_s must be non-negative, got {self.budget_km_s:g}")
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step_s must be positive and finite, got {self.step:g}")
        ratio = self.control_step / self.step
        if not (math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9):
            raise ValueError(
                f"control_step_s {self.control_step:g} is not a positive multiple of step_s {self.step:g}"
            )
        # the cone and slew rules live in FovSpec and AgilityConfig; building
        # both here fails a bad value before any compute, named by its key
        try:
            fov = FovSpec(self.fov_half_angle)
        except ValueError as exc:
            raise ValueError(f"fov_deg {math.degrees(self.fov_half_angle):g}: {exc}") from None
        try:
            agility = AgilityConfig(
                self.max_rate, self.max_rate, self.max_rate, self.max_slew, self.control_step
            )
        except ValueError as exc:
            raise ValueError(
                f"max_rate_deg_s {math.degrees(self.max_rate):g}, "
                f"max_slew_deg {math.degrees(self.max_slew):g}, "
                f"control_step_s {self.control_step:g}: {exc}"
            ) from None
        # the budget sizes the unrestricted grid's planes: fail here, not at the first U1 or U2
        if any(_SLOT_GRIDS[MODEL_MATRIX[name].grid][0] is GridMode.UNRESTRICTED for name in self.models):
            for sc in self.satellites:
                try:
                    calibrate_plane_spans(sc.elements, self.budget_km_s)
                except ValueError as exc:
                    raise ValueError(f"budget_km_s {self.budget_km_s:g}, satellite {sc.name!r}: {exc}") from None
        object.__setattr__(self, "fov", fov)
        object.__setattr__(self, "agility", agility)

    def slot_grid(self, name: str) -> SlotGrid:
        """Every satellite's slots on the named slot grid, laid out by
        construction, built at the first use and kept for the whole run."""
        if name not in self._slot_grids:
            mode, spec = _SLOT_GRIDS[name]
            initials = [sc.elements for sc in self.satellites]
            slots = [generate_slot_grid(orbit, spec, self.budget_km_s, mode) for orbit in initials]
            self._slot_grids[name] = SlotGrid(
                slots, *grid_layout(spec, mode), initials, self.max_revs, self.budget_km_s
            )
        return self._slot_grids[name]


def default_corpus(count: int = 20) -> Tuple[TcTrack, ...]:
    """Seeded synthetic tracks ramping from short to long lifetimes.

    Track i (1-based) lasts 2.75 + (i - 1) * 12.75 / (count - 1) days
    rounded to the nearest quarter day, so a 20-track corpus spans 2.75
    through 15.5 days; basins alternate west, east, west, ...
    """
    if count < 1:
        raise ValueError("corpus needs at least one track")
    tracks = []
    for i in range(1, count + 1):
        days = 2.75 if count == 1 else 2.75 + (i - 1) * 12.75 / (count - 1)
        days = round(days * 4.0) / 4.0
        region = "west-hemisphere" if i % 2 == 1 else "east-hemisphere"
        tracks.append(synthesize_track(i, days, region))
    return tuple(tracks)


def _radians(text: str) -> float:
    return math.radians(float(text))


# config key -> (ScenarioConfig field, parser of the written value)
_CONFIG_FIELDS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "fov_deg": ("fov_half_angle", _radians),
    "step_s": ("step", float),
    "control_step_s": ("control_step", float),
    "max_rate_deg_s": ("max_rate", _radians),
    "max_slew_deg": ("max_slew", _radians),
    "budget_km_s": ("budget_km_s", float),
    "max_revs": ("max_revs", int),
    "node_limit": ("node_limit", int),
    "models": ("models", parse_models),
}

_CONFIG_KEYS = frozenset(_CONFIG_FIELDS) | {"tracks"}

# ScenarioConfig fields checked together: the step pair, and the budget (it sizes U1 and U2's grid) with the models
_STEP_FIELDS = ("step", "control_step")
_CHECKED_WITH = {"step": _STEP_FIELDS, "control_step": _STEP_FIELDS, "budget_km_s": ("budget_km_s", "models")}


def parse_config(
    text: str, base_dir: Optional[str] = None
) -> Tuple[ScenarioConfig, Tuple[TcTrack, ...]]:
    """Read a flat ``key = value`` scenario file.

    ``#`` starts a comment, blank lines are skipped, every key is
    optional and unknown or repeated keys are rejected with their line
    number.  The ``tracks`` value is either ``synthetic:N`` or a comma
    list of track CSV paths resolved against ``base_dir``.

    Returns the configuration and the loaded track corpus.
    """
    values: Dict[str, Tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or not key:
            raise ValueError(f"config line {lineno}: expected `key = value`, got {raw.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        if not val:
            raise ValueError(f"config line {lineno}: empty value for {key!r}")
        values[key] = (lineno, val)

    kwargs = {}
    for key, (name, conv) in _CONFIG_FIELDS.items():
        if key in values:
            lineno, val = values[key]
            try:
                kwargs[name] = conv(val)
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: bad {key}: {exc}") from None
    for key, (name, _) in _CONFIG_FIELDS.items():
        if key not in values:
            continue
        # the config's own rules on this value alone (or with the field its
        # rules read), whose messages name the key, so a bad value is
        # reported against its line
        together = _CHECKED_WITH.get(name, (name,))
        try:
            ScenarioConfig(**{n: kwargs[n] for n in together if n in kwargs})
        except ValueError as exc:
            raise ValueError(f"config line {values[key][0]}: {exc}") from None
    config = ScenarioConfig(**kwargs)
    if "tracks" in values:
        lineno, spec = values["tracks"]
        try:
            tracks = _load_tracks(spec, base_dir)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad tracks: {exc}") from None
    else:
        tracks = default_corpus(20)
    for track in tracks:
        try:
            TimeGrid(track.duration_seconds, config.step, config.control_step)
        except ValueError as exc:
            where = f"config line {values['step_s'][0]}: " if "step_s" in values else ""
            raise ValueError(f"{where}step_s {config.step:g}, track {track.name!r}: {exc}") from None
    return config, tracks


def _load_tracks(spec: str, base_dir: Optional[str]) -> Tuple[TcTrack, ...]:
    if spec.startswith("synthetic:"):
        arg = spec[len("synthetic:") :]
        try:
            count = int(arg)
        except ValueError:
            raise ValueError(f"bad synthetic track count {arg!r}") from None
        return default_corpus(count)
    paths = [piece.strip() for piece in spec.split(",")]
    if not all(paths):
        raise ValueError("empty track path in list")
    tracks = []
    for path in paths:
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            tracks.append(parse_track_csv(raw))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return tuple(tracks)


def load_config(path) -> Tuple[ScenarioConfig, Tuple[TcTrack, ...]]:
    """parse_config on a file, resolving track paths beside it."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Single-track evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelResult:
    """Score of one concept on one track.

    proven means the reward is the concept's exact score rather than an
    incumbent left behind by a tripped node budget; it is always True for
    the baseline and agile concepts.
    """

    model: str
    reward: float
    proven: bool
    elapsed_s: float
    plan: Optional[ReconfigPlan] = None
    schedules: Optional[Tuple[SlewSchedule, ...]] = None


class _TrackWorkspace:
    """Per-track caches: time grids, rewards, and per slot grid its visibility and stage costs."""

    def __init__(self, track: TcTrack, config: ScenarioConfig):
        self.track = track
        self.config = config
        self._grids: Dict[int, TimeGrid] = {}
        self._rewards: Dict[int, RewardMatrix] = {}
        # slot grid name -> visibility, stage epoch -> delta_v array
        self._visible: Dict[str, np.ndarray] = {}
        self._costs: Dict[str, Dict[float, np.ndarray]] = {}
        base = self.grid_for(1)
        self.targets = track_to_targets(track, base)
        self.table = target_eci_table(self.targets, base)

    def grid_for(self, stages: int) -> TimeGrid:
        if stages not in self._grids:
            self._grids[stages] = TimeGrid(
                self.track.duration_seconds, self.config.step, self.config.control_step, stages
            )
        return self._grids[stages]

    def tensor_for(self, spec: ModelSpec) -> np.ndarray:
        """The concept's slots of its grid's (K, J, T) visibility, viewed
        as (S, K, J, T_s, 1)."""
        if spec.grid not in self._visible:
            self._visible[spec.grid] = slot_visibility(
                self.config.slot_grid(spec.grid), self.table, self.grid_for(1), self.config.fov
            )
        visible = self._visible[spec.grid][:, spec.slots]
        n_sats, n_slots, _ = visible.shape
        t_stage = self.grid_for(spec.num_stages).steps_per_stage
        return visible.reshape(n_sats, n_slots, spec.num_stages, t_stage, 1).transpose(2, 0, 1, 3, 4)

    def rewards_for(self, stages: int) -> RewardMatrix:
        if stages not in self._rewards:
            self._rewards[stages] = build_reward_matrix(self.grid_for(stages).num_steps, 1, stages)
        return self._rewards[stages]

    def costs_for(self, spec: ModelSpec) -> CostMatrix:
        """The concept's cost matrix, sliced from its grid's stage arrays:
        each stage epoch is priced once per grid, and the 2- and 4-stage
        concepts share the epochs 0 and T/2."""
        priced = self._costs.setdefault(spec.grid, {})
        full = build_cost_matrix(self.config.slot_grid(spec.grid), self.grid_for(spec.num_stages), priced)
        sl = spec.slots
        stages = tuple(c[:, :, sl] if s == 0 else c[:, sl, sl] for s, c in enumerate(full.stages))
        return CostMatrix(stages=stages, budget=full.budget)


def _run_baseline(ws: _TrackWorkspace) -> ModelResult:
    """Model B: every satellite rides its initial orbit the whole horizon."""
    t0 = time.perf_counter()
    spec = MODEL_MATRIX["B"]
    tensor = ws.tensor_for(spec)
    rewards = ws.rewards_for(spec.num_stages)
    n_sats = len(ws.config.satellites)
    paths = tuple((0, 0) for _ in range(n_sats))
    shell = ReconfigPlan(
        paths=paths,
        per_stage_cost=np.zeros((n_sats, 1)),
        objective=0.0,
        proven_optimal=True,
    )
    z = score_plan(shell, tensor, rewards)
    plan = replace(shell, objective=z, objective_bound=z)
    return ModelResult("B", z, True, time.perf_counter() - t0, plan=plan)


def _run_agile(ws: _TrackWorkspace) -> ModelResult:
    """Model A: independent slew schedules, rewards summed per satellite."""
    t0 = time.perf_counter()
    config = ws.config
    grid = ws.grid_for(1)
    n_steps = grid.num_steps
    n_points = ws.targets.num_points
    active = [active_point_of_step(t, n_steps, n_points) for t in range(n_steps)]

    spo = grid.steps_per_opportunity
    opp_targets = []
    for i in range(grid.num_opportunities):
        lo = i * spo
        hi = min(lo + spo, n_steps)
        when = grid.opportunity_time(i)
        points = sorted(set(active[lo:hi]))
        opp_targets.append(
            np.array([geodetic_to_eci(ws.targets.points[p], when) for p in points])
        )

    acfg = config.agility
    orbits = [sc.elements for sc in config.satellites]
    positions, sight = zip(*(line_of_sight(orbit, ws.table, grid) for orbit in orbits))
    schedules = tuple(optimize_slew_schedules(orbits, opp_targets, acfg, grid, np.array(sight)))
    total = 0.0
    for pos, seen, schedule in zip(positions, sight, schedules):
        visible = slewed_step_visibility(pos, schedule, ws.table, config.fov_half_angle, grid, seen)
        total += score_agility(schedule, visible, acfg, grid).total_reward
    return ModelResult("A", total, True, time.perf_counter() - t0, schedules=schedules)


def _warm_candidates(spec: ModelSpec, results: Dict[str, ModelResult], grid_size: int) -> List[Tuple[int, ...]]:
    """Seeds mapped from the model's warm sources.

    Each source slot goes to its index on the shared grid of ``grid_size``
    slots, then to that grid slot's index among the target's slots, and
    each stage repeats once per target stage it spans.  By construction a
    seed costs exactly what its source path did (identical slot floats,
    zero-cost stays at shared epochs); solve_mcrp still checks every
    seed's budget and raises on one that does not fit."""
    out = []
    target = range(grid_size)[spec.slots]
    for source_name in _WARM_SOURCES.get(spec.name, ()):
        source = results.get(source_name)
        if source is None or source.plan is None:
            continue
        source_spec = MODEL_MATRIX[source_name]
        on_grid = range(grid_size)[source_spec.slots]
        repeat = spec.num_stages // source_spec.num_stages
        paths = source.plan.paths
        out.append(tuple(target.index(on_grid[j]) for path in paths for j in path[1:] for _ in range(repeat)))
    return out


def _run_reconfig(ws: _TrackWorkspace, spec: ModelSpec, results: Dict[str, ModelResult]) -> ModelResult:
    t0 = time.perf_counter()
    tensor = ws.tensor_for(spec)
    rewards = ws.rewards_for(spec.num_stages)
    costs = ws.costs_for(spec)
    warm = _warm_candidates(spec, results, len(ws.config.slot_grid(spec.grid).slots[0]))
    plan = solve_mcrp(
        tensor, rewards, costs, node_limit=ws.config.node_limit, warm_starts=warm
    )
    return ModelResult(
        spec.name, plan.objective, plan.proven_optimal, time.perf_counter() - t0, plan=plan
    )


def evaluate_track(
    track: TcTrack, config: ScenarioConfig, models: Optional[Sequence[str]] = None
) -> Dict[str, ModelResult]:
    """Score the requested concepts against one track.

    Concepts always run in canonical order so warm chains find their
    sources; an absent source simply contributes no seed.
    """
    requested = set(config.models if models is None else models)
    for name in requested:
        if name not in MODEL_MATRIX:
            raise ValueError(f"unknown model {name!r}")
    ordered = tuple(name for name in MODEL_ORDER if name in requested)
    results: Dict[str, ModelResult] = {}
    if not ordered:
        return results
    ws = _TrackWorkspace(track, config)
    for name in ordered:
        spec = MODEL_MATRIX[name]
        if spec.kind == "baseline":
            results[name] = _run_baseline(ws)
        elif spec.kind == "agile":
            results[name] = _run_agile(ws)
        else:
            results[name] = _run_reconfig(ws, spec, results)
    return results


# ---------------------------------------------------------------------------
# Corpus runs and reports
# ---------------------------------------------------------------------------


_worker_config: Optional[ScenarioConfig] = None


def _start_worker(config: ScenarioConfig) -> None:
    global _worker_config
    _worker_config = config


def _evaluate_in_worker(track: TcTrack) -> Dict[str, ModelResult]:
    return evaluate_track(track, _worker_config)


def run_corpus(
    tracks: Sequence[TcTrack], config: ScenarioConfig, threads: int = 1
) -> Tuple["ComparisonReport", List[Dict[str, ModelResult]]]:
    """Evaluate every track and assemble the comparison report.

    threads > 1 fans tracks out to worker processes (the solves are CPU
    bound), each handed the config once, so it builds each slot grid once;
    results are gathered in track order either way, so the report
    does not depend on scheduling.  Every (track, model) time grid is
    built first, so a grid that does not fit fails before any compute,
    naming the track and the model.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    for track in tracks:
        for name in config.models:
            stages = MODEL_MATRIX[name].num_stages
            try:
                TimeGrid(track.duration_seconds, config.step, config.control_step, stages)
            except ValueError as exc:
                raise ValueError(f"track {track.name!r}, model {name}: {exc}") from None
    if threads == 1 or len(tracks) <= 1:
        all_results = [evaluate_track(track, config) for track in tracks]
    else:
        # fork starts every worker at the first submit: none beyond the tracks
        workers = min(threads, len(tracks))
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(config,)) as pool:
            all_results = list(pool.map(_evaluate_in_worker, tracks))
    report = build_report(tracks, config.models, all_results)
    return report, all_results


@dataclass(frozen=True)
class ComparisonReport:
    """Reward matrix over (track, model) with the derived statistics.

    rewards is float (tracks, models); proven mirrors it with the
    optimality flags.  Percentages are against the baseline column and a
    track with baseline reward zero is undefined rather than infinite.
    """

    track_names: Tuple[str, ...]
    model_names: Tuple[str, ...]
    rewards: np.ndarray
    proven: np.ndarray

    def __post_init__(self) -> None:
        shape = (len(self.track_names), len(self.model_names))
        if self.rewards.shape != shape or self.proven.shape != shape:
            raise ValueError(f"reward and proven matrices must be shaped {shape}")

    @property
    def num_tracks(self) -> int:
        return len(self.track_names)

    def column(self, model: str) -> int:
        try:
            return self.model_names.index(model)
        except ValueError:
            raise ValueError(f"model {model!r} not in report") from None

    def percent_increase(self, baseline: str = "B") -> np.ndarray:
        """Per-track percentage gain over the baseline column.

        Rows where the baseline scored zero come back NaN across every
        model; reports show them as "undefined" and keep them out of the
        summary statistics.
        """
        b = self.rewards[:, self.column(baseline)]
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = 100.0 * (self.rewards - b[:, None]) / b[:, None]
        pct[b == 0.0] = np.nan
        return pct

    def outperformance(self) -> np.ndarray:
        """Counts out[r][c] of tracks where model c strictly beats model r."""
        return (self.rewards[:, None, :] > self.rewards[:, :, None]).sum(axis=0)


def build_report(
    tracks: Sequence[TcTrack],
    model_names: Sequence[str],
    per_track: Sequence[Dict[str, ModelResult]],
) -> ComparisonReport:
    names = tuple(model_names)
    if len(per_track) != len(tracks):
        raise ValueError("one result dict per track required")
    rewards = np.zeros((len(tracks), len(names)))
    proven = np.zeros((len(tracks), len(names)), dtype=bool)
    for r, results in enumerate(per_track):
        for c, name in enumerate(names):
            if name not in results:
                raise ValueError(f"track {tracks[r].name!r} has no result for model {name!r}")
            rewards[r, c] = results[name].reward
            proven[r, c] = results[name].proven
    return ComparisonReport(
        track_names=tuple(t.name for t in tracks),
        model_names=names,
        rewards=rewards,
        proven=proven,
    )


_SUMMARY_HEADER = [
    "model",
    "tracks",
    "proven",
    "mean_reward",
    "mean_pct_vs_B",
    "std_pct_vs_B",
    "min_pct_vs_B",
    "max_pct_vs_B",
    "undefined",
    "wins_vs_B",
]


def _summary_rows(report: ComparisonReport, baseline: str) -> List[List[str]]:
    rows: List[List[str]] = []
    if report.num_tracks == 0:
        return rows
    base_present = baseline in report.model_names
    pct = report.percent_increase(baseline) if base_present else None
    wins = report.outperformance() if base_present else None
    base_col = report.column(baseline) if base_present else -1
    for c, name in enumerate(report.model_names):
        z = report.rewards[:, c]
        row = [name, str(report.num_tracks), str(int(report.proven[:, c].sum()))]
        row.append(repr(float(z.mean())))
        if base_present:
            col = pct[:, c]
            good = col[~np.isnan(col)]
            undefined = int(np.isnan(col).sum())
            if good.size:
                row.extend(
                    [
                        repr(float(good.mean())),
                        repr(float(good.std())),
                        repr(float(good.min())),
                        repr(float(good.max())),
                    ]
                )
            else:
                row.extend(["undefined"] * 4)
            row.append(str(undefined))
            row.append(str(int(wins[base_col, c])))
        else:
            row.extend(["undefined"] * 4 + [str(report.num_tracks), "undefined"])
        rows.append(row)
    return rows


def emit_report(report: ComparisonReport, fmt: str, baseline: str = "B") -> bytes:
    """Render the per-model summary as ``csv`` or ``text-table`` bytes.

    An empty corpus renders as the header alone.  Percent statistics use
    the population standard deviation and skip undefined tracks; the
    undefined column counts how many were skipped.
    """
    rows = _summary_rows(report, baseline)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_SUMMARY_HEADER)
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "text-table":
        def fmt_cell(cell: str) -> str:
            if cell.isdigit():  # the count columns stay integers
                return cell
            try:
                return f"{float(cell):.3f}"
            except ValueError:
                return cell

        display = [[row[0]] + [fmt_cell(c) for c in row[1:]] for row in rows]
        table = [_SUMMARY_HEADER] + display
        widths = [max(len(row[i]) for row in table) for i in range(len(_SUMMARY_HEADER))]
        lines = []
        for row in table:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def write_outputs(
    out_dir,
    tracks: Sequence[TcTrack],
    per_track: Sequence[Dict[str, ModelResult]],
    report: ComparisonReport,
    satellite_names: Optional[Sequence[str]] = None,
) -> None:
    """Write the run artifacts under ``out_dir``.

    rewards.csv, pct_increase.csv, outperform.csv and summary.csv carry
    the comparison; plans/ holds one slot-path CSV per reconfiguration
    solve (and the baseline's trivial plan), schedules/ the agile slew
    angles, tracks/ the evaluated polylines.  Every float is written with
    repr so identical runs produce identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("plans", "schedules", "tracks"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    def open_csv(name: str):
        return open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8")

    with open_csv("rewards.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["track", "model", "reward", "proven"])
        for r, name in enumerate(report.track_names):
            for c, model in enumerate(report.model_names):
                writer.writerow(
                    [name, model, repr(float(report.rewards[r, c])), str(int(report.proven[r, c]))]
                )

    base_present = "B" in report.model_names
    pct = report.percent_increase("B") if base_present else None
    with open_csv("pct_increase.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["track", "model", "pct_increase_vs_B"])
        for r, name in enumerate(report.track_names):
            for c, model in enumerate(report.model_names):
                if pct is None or np.isnan(pct[r, c]):
                    writer.writerow([name, model, "undefined"])
                else:
                    writer.writerow([name, model, repr(float(pct[r, c]))])

    with open_csv("outperform.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model"] + list(report.model_names))
        counts = report.outperformance()
        for r, model in enumerate(report.model_names):
            writer.writerow([model] + [str(int(v)) for v in counts[r]])

    with open(os.path.join(out_dir, "summary.csv"), "wb") as fh:
        fh.write(emit_report(report, "csv"))

    for track, results in zip(tracks, per_track):
        stem = _safe_name(track.name)
        with open(os.path.join(out_dir, "tracks", f"{stem}.csv"), "wb") as fh:
            fh.write(serialize_track(track))
        for model, result in results.items():
            if result.plan is not None:
                result.plan.to_csv(os.path.join(out_dir, "plans", f"{stem}__{model}.csv"))
            if result.schedules is not None:
                for sat, schedule in enumerate(result.schedules):
                    if satellite_names is not None:
                        sat_name = _safe_name(satellite_names[sat])
                    else:
                        sat_name = f"sat{sat}"
                    path = os.path.join(
                        out_dir, "schedules", f"{stem}__{model}__{sat_name}.csv"
                    )
                    _write_schedule(path, schedule)


def _write_schedule(path, schedule: SlewSchedule) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["opportunity", "alpha_rad", "beta_rad", "gamma_rad"])
        for i, row in enumerate(schedule.angles):
            writer.writerow([i, repr(float(row[0])), repr(float(row[1])), repr(float(row[2]))])
