"""Slew scheduling and degraded-reward scoring for an agile satellite.

One satellite, a sequence of control opportunities, three body-frame slew
angles per opportunity.  The planner picks angles that point the boresight
as close as possible to the active target while respecting the slew-angle
box and the per-opportunity rate budget; the scorer then converts the
resulting pointing history into observation rewards that shrink as the
total slew magnitude grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .orbits import EARTH, ClassicalOrbitalElements, EarthModel, TimeGrid, eci_positions
from .visibility import visibility_mask

__all__ = [
    "AgilityConfig",
    "SlewSchedule",
    "AgilityScore",
    "rotation_matrix",
    "pointing_direction",
    "angular_difference",
    "optimize_slew_schedule",
    "score_agility",
    "slewed_step_visibility",
]

# Multistart grid resolution per axis and the descent iteration cap.  Seven
# points put grid nodes at most ~2.4 deg from any box point at the 35 deg
# angle limit, close enough for the polish step to finish the job.
_GRID_POINTS = 7
_DESCENT_ITERS = 25
_STEP_LADDER = 0.5 ** np.arange(22)


@dataclass(frozen=True)
class AgilityConfig:
    """Slew capability of one satellite.

    Attributes:
        max_rate_x, max_rate_y, max_rate_z: per-axis rate limits, rad/s.
        max_angle: symmetric slew-angle bound per axis, rad.
        control_step: seconds between consecutive control opportunities.
    """

    max_rate_x: float
    max_rate_y: float
    max_rate_z: float
    max_angle: float
    control_step: float

    def __post_init__(self) -> None:
        if min(self.max_rate_x, self.max_rate_y, self.max_rate_z) < 0.0:
            raise ValueError("slew rates must be non-negative")
        if not 0.0 <= self.max_angle <= math.pi / 2.0:
            raise ValueError(f"max_angle must lie in [0, pi/2], got {self.max_angle!r}")
        if self.control_step <= 0.0:
            raise ValueError("control_step must be positive")

    @property
    def rates(self) -> np.ndarray:
        return np.array([self.max_rate_x, self.max_rate_y, self.max_rate_z])

    @property
    def rate_budget(self) -> np.ndarray:
        """Largest per-axis angle change between consecutive opportunities."""
        return self.rates * self.control_step


@dataclass(frozen=True)
class SlewSchedule:
    """Slew angles per control opportunity, radians, shape (n, 3).

    The implicit opportunity 0 (before the first control point) is all
    zeros; rate feasibility is measured against that origin.
    """

    angles: np.ndarray
    objective_value: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.angles, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"angles must be (n, 3), got {arr.shape}")
        object.__setattr__(self, "angles", arr)

    def __len__(self) -> int:
        return self.angles.shape[0]

    def is_feasible(self, config: AgilityConfig, tol: float = 1e-9) -> bool:
        """Angle box and rate box, walked from the all-zeros origin."""
        if np.any(np.abs(self.angles) > config.max_angle + tol):
            return False
        prev = np.zeros(3)
        budget = config.rate_budget
        for row in self.angles:
            if np.any(np.abs(row - prev) > budget + tol):
                return False
            prev = row
        return True


@dataclass(frozen=True)
class AgilityScore:
    """Observation outcome of one schedule.

    total_reward sums the per-step rewards; objective_value carries the
    planner's pointing objective (radians) when known.
    """

    total_reward: float
    per_step_reward: np.ndarray
    objective_value: float


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Body rotation for slew angles applied in x, then y, then z order.

    Closed-form expansion of M_x(alpha) @ M_y(beta) @ M_z(gamma) for the
    row-vector-free convention used throughout: each factor rotates the
    frame about its axis with the sine on the upper off-diagonal.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return np.array(
        [
            [cb * cg, cb * sg, -sb],
            [sa * sb * cg - ca * sg, sa * sb * sg + ca * cg, sa * cb],
            [ca * sb * cg + sa * sg, ca * sb * sg - sa * cg, ca * cb],
        ]
    )


def pointing_direction(nadir: np.ndarray, angles: Sequence[float]) -> np.ndarray:
    """Boresight after slewing: the rotation applied to the nadir vector."""
    return rotation_matrix(*angles) @ np.asarray(nadir, dtype=float)


def angular_difference(d: np.ndarray, t: np.ndarray) -> float:
    """Angle between two vectors in [0, pi], with the ratio clamped.

    Raises:
        ValueError: if either vector is zero.
    """
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    nd = float(np.linalg.norm(d))
    nt = float(np.linalg.norm(t))
    if nd == 0.0 or nt == 0.0:
        raise ValueError("angular difference of a zero vector is undefined")
    return math.acos(min(1.0, max(-1.0, float(d @ t) / (nd * nt))))


def _batched_objective(angles: np.ndarray, nadir: np.ndarray, target_dirs: np.ndarray) -> np.ndarray:
    """Pointing objective for a batch of angle triples.

    angles: (B, 3); nadir: unit (3,); target_dirs: unit (P, 3).
    Returns (B,) sums of off-target angles.
    """
    a, b, g = angles[:, 0], angles[:, 1], angles[:, 2]
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    n0, n1, n2 = nadir
    u0 = cb * cg * n0 + cb * sg * n1 - sb * n2
    u1 = (sa * sb * cg - ca * sg) * n0 + (sa * sb * sg + ca * cg) * n1 + sa * cb * n2
    u2 = (ca * sb * cg + sa * sg) * n0 + (ca * sb * sg - sa * cg) * n1 + ca * cb * n2
    u = np.stack([u0, u1, u2], axis=1)
    dots = np.clip(u @ target_dirs.T, -1.0, 1.0)
    return np.arccos(dots).sum(axis=1)


def _candidate_key(objective: float, angles: np.ndarray) -> tuple:
    return (objective, float(np.abs(angles).sum()))


def _optimize_one_opportunity(
    prev: np.ndarray,
    nadir: np.ndarray,
    target_dirs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple:
    """Best angles for a single opportunity inside [lower, upper]^3.

    Coarse grid multistart, then projected gradient descent with a
    backtracking step ladder from the best grid node.  Ties resolve toward
    the smallest total slew.
    """

    toward_zero = np.clip(np.zeros(3), lower, upper)
    if target_dirs.shape[0] == 0:
        # Nothing to chase: relax toward nadir as fast as the rate box allows.
        return toward_zero, 0.0

    axes = [np.linspace(lower[i], upper[i], _GRID_POINTS) for i in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    extra = np.stack([np.clip(prev, lower, upper), toward_zero])
    candidates = np.concatenate([grid, extra])
    values = _batched_objective(candidates, nadir, target_dirs)
    order = np.lexsort((np.abs(candidates).sum(axis=1), values))
    best = candidates[order[0]].copy()
    best_val = float(values[order[0]])

    x = best.copy()
    fx = best_val
    if fx > 1e-9:
        h = 1e-6
        for _ in range(_DESCENT_ITERS):
            probes = np.repeat(x[None, :], 6, axis=0)
            probes[[0, 1, 2], [0, 1, 2]] += h
            probes[[3, 4, 5], [0, 1, 2]] -= h
            pv = _batched_objective(np.clip(probes, lower, upper), nadir, target_dirs)
            grad = (pv[:3] - pv[3:]) / (2.0 * h)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-12:
                break
            trials = np.clip(x[None, :] - np.outer(_STEP_LADDER / gnorm, grad), lower, upper)
            tv = _batched_objective(trials, nadir, target_dirs)
            i = int(np.argmin(tv))
            if tv[i] >= fx - 1e-14:
                break
            x = trials[i]
            fx = float(tv[i])
        if _candidate_key(fx, x) < _candidate_key(best_val, best):
            best, best_val = x, fx
    return best, best_val


def optimize_slew_schedule(
    orbit: ClassicalOrbitalElements,
    targets: Sequence[np.ndarray],
    config: AgilityConfig,
    grid: TimeGrid,
    earth: EarthModel = EARTH,
) -> SlewSchedule:
    """Plan slew angles over all control opportunities of the grid.

    Args:
        orbit: satellite elements at scenario epoch.
        targets: one array of active-target ECI positions (m, 3) per
            control opportunity; an empty array means nothing to observe.
        config: slew limits; its control_step must match the grid.
        grid: scenario time discretisation.

    Returns:
        A feasible schedule.  Its summed pointing objective never exceeds
        the objective of the all-zeros (nadir) schedule; when the greedy
        pass loses to nadir, nadir itself is returned.

    Raises:
        ValueError: on rate/step mismatches or wrong target counts.
    """
    if config.control_step != grid.control_step:
        raise ValueError(
            f"config control_step {config.control_step} differs from grid {grid.control_step}"
        )
    n_opps = grid.num_opportunities
    if len(targets) != n_opps:
        raise ValueError(f"expected targets for {n_opps} opportunities, got {len(targets)}")

    epochs = np.array([grid.opportunity_time(i) for i in range(n_opps)])
    positions = eci_positions(orbit, epochs, earth=earth)
    budget = config.rate_budget
    bound = config.max_angle

    prev = np.zeros(3)
    rows = []
    greedy_total = 0.0
    nadir_total = 0.0
    for i in range(n_opps):
        pos = positions[i]
        nadir = -pos / np.linalg.norm(pos)
        tgt = np.asarray(targets[i], dtype=float).reshape(-1, 3)
        dirs = tgt - pos[None, :]
        norms = np.linalg.norm(dirs, axis=1)
        dirs = dirs[norms > 0.0] / norms[norms > 0.0, None]
        lower = np.maximum(-bound, prev - budget)
        upper = np.minimum(bound, prev + budget)
        angles, value = _optimize_one_opportunity(prev, nadir, dirs, lower, upper)
        rows.append(angles)
        greedy_total += value
        if dirs.shape[0]:
            nadir_total += float(_batched_objective(np.zeros((1, 3)), nadir, dirs)[0])
        prev = angles

    if greedy_total > nadir_total:
        # The rate box can trap the greedy pass; never do worse than not slewing.
        return SlewSchedule(np.zeros((n_opps, 3)), objective_value=nadir_total)
    return SlewSchedule(np.array(rows).reshape(n_opps, 3), objective_value=greedy_total)


def score_agility(
    schedule: SlewSchedule,
    step_visible: np.ndarray,
    config: AgilityConfig,
    grid: TimeGrid,
) -> AgilityScore:
    """Degraded observation reward of a schedule.

    Each visible step earns 1 minus the opportunity's total slew magnitude
    over twice the summed per-axis angle limits, so the reward floors at
    one half when every axis sits at the bound.

    Args:
        schedule: feasible slew angles per opportunity.
        step_visible: boolean (num_steps,) visibility with the slewed axis.
        config: supplies the angle limit in the denominator.
        grid: maps steps to their opportunity.
    """
    visible = np.asarray(step_visible, dtype=bool)
    if visible.shape[0] != grid.num_steps:
        raise ValueError(f"step_visible covers {visible.shape[0]} steps, grid has {grid.num_steps}")
    if len(schedule) != grid.num_opportunities:
        raise ValueError("schedule length does not match the grid's opportunity count")
    l1 = np.abs(schedule.angles).sum(axis=1)
    denom = 2.0 * (3.0 * config.max_angle)
    per_opp = 1.0 - l1 / denom
    opp_of_step = np.arange(grid.num_steps) // grid.steps_per_opportunity
    per_step = np.where(visible, per_opp[opp_of_step], 0.0)
    objective = schedule.objective_value if schedule.objective_value is not None else 0.0
    return AgilityScore(
        total_reward=float(per_step.sum()),
        per_step_reward=per_step,
        objective_value=float(objective),
    )


def slewed_step_visibility(
    orbit: ClassicalOrbitalElements,
    schedule: SlewSchedule,
    step_targets: np.ndarray,
    half_angle: float,
    grid: TimeGrid,
    earth: EarthModel = EARTH,
) -> np.ndarray:
    """Per-step visibility of the active target through the slewed cone.

    The slew angles of an opportunity stay fixed across its steps, while
    the nadir axis they rotate is recomputed at every step; the boresight
    therefore keeps tracking the local vertical between control points.

    Args:
        step_targets: (num_steps, 3) active-target ECI position per step;
            rows of NaN mean no active target (never visible).

    Returns:
        Boolean (num_steps,) array.
    """
    step_targets = np.asarray(step_targets, dtype=float)
    if step_targets.shape != (grid.num_steps, 3):
        raise ValueError(f"step_targets must be ({grid.num_steps}, 3), got {step_targets.shape}")
    times = np.arange(grid.num_steps, dtype=float) * grid.step
    positions = eci_positions(orbit, times, earth=earth)
    nadirs = -positions / np.linalg.norm(positions, axis=1, keepdims=True)
    opp_of_step = np.arange(grid.num_steps) // grid.steps_per_opportunity
    mats = np.stack([rotation_matrix(*row) for row in schedule.angles])
    axes = np.einsum("tij,tj->ti", mats[opp_of_step], nadirs)
    active = ~np.isnan(step_targets).any(axis=1)
    out = np.zeros(grid.num_steps, dtype=bool)
    if np.any(active):
        mask = visibility_mask(
            positions[active], step_targets[active][:, None, :], half_angle, cone_axes=axes[active], earth=earth
        )
        out[active] = mask[:, 0]
    return out
