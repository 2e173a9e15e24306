"""Pointing geometry and slot visibility.

The question answered here, for every (satellite, slot, step): does the
sensor cone of that slot, pointed at nadir, contain the step's active
target, with an unobstructed line of sight?  The answer is a plain boolean
(K, J, T) array over the whole horizon; the comparison harness reshapes it
per stage count for the reconfiguration solver, and the agility scorer
uses the vectorised mask it is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .orbits import EARTH, ClassicalOrbitalElements, EarthModel, StateVector, TimeGrid, eci_positions

__all__ = [
    "FovSpec",
    "target_pointing",
    "is_visible",
    "visibility_mask",
    "slot_visibility",
]

# Treat satellite and target as coincident below this separation (km).
_COINCIDENT_KM = 1e-9


@dataclass(frozen=True)
class FovSpec:
    """Conical field of view, described by its half-angle.

    Attributes:
        half_angle: Cone half-angle in radians, strictly inside (0, pi/2).
    """

    half_angle: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_angle < math.pi / 2.0:
            raise ValueError(f"half_angle must lie in (0, pi/2), got {self.half_angle!r}")


def target_pointing(sat_pos: np.ndarray, target_pos: np.ndarray) -> np.ndarray:
    """Unit vector from the satellite toward the target.

    Raises:
        ValueError: if the two points coincide (no direction is defined).
    """
    d = np.asarray(target_pos, dtype=float) - np.asarray(sat_pos, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm < _COINCIDENT_KM:
        raise ValueError("satellite and target positions coincide")
    return d / norm


def _segment_blocked(sat_pos: np.ndarray, target_pos: np.ndarray, earth: EarthModel) -> bool:
    """True when the straight segment satellite -> target dips inside Earth.

    Only a strict interior crossing counts: grazing the surface, or an
    endpoint sitting exactly on it, is still a clear line of sight.
    """
    d = target_pos - sat_pos
    dd = float(d @ d)
    if dd == 0.0:
        return False
    u = -float(sat_pos @ d) / dd
    if not 0.0 < u < 1.0:
        return False
    rr = float(sat_pos @ sat_pos)
    closest_sq = rr - (float(sat_pos @ d)) ** 2 / dd
    return closest_sq < earth.radius_km**2


def is_visible(
    sat_state: StateVector,
    target_eci: np.ndarray,
    fov: FovSpec,
    cone_axis: Optional[np.ndarray] = None,
    earth: EarthModel = EARTH,
) -> bool:
    """Scalar visibility check: inside the cone and above the horizon.

    Args:
        sat_state: satellite state; only the position is used.
        target_eci: target position in the same frame, km.
        fov: cone description.
        cone_axis: boresight direction.  Defaults to nadir (minus the radial
            direction) when omitted; normalised if supplied.

    Returns:
        True iff the off-axis angle is at most ``fov.half_angle`` and the
        line of sight does not pass through the Earth sphere.
    """
    pos = np.asarray(sat_state.position, dtype=float)
    tgt = np.asarray(target_eci, dtype=float)
    if cone_axis is None:
        axis = -pos / np.linalg.norm(pos)
    else:
        axis = np.asarray(cone_axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
    try:
        pointing = target_pointing(pos, tgt)
    except ValueError:
        return False
    off_axis = math.acos(min(1.0, max(-1.0, float(axis @ pointing))))
    if off_axis > fov.half_angle:
        return False
    return not _segment_blocked(pos, tgt, earth)


def visibility_mask(
    sat_positions: np.ndarray,
    target_positions: np.ndarray,
    half_angle: float,
    cone_axes: Optional[np.ndarray] = None,
    earth: EarthModel = EARTH,
) -> np.ndarray:
    """Vectorised form of :func:`is_visible` over a time series.

    Args:
        sat_positions: (T, 3) satellite positions, km.
        target_positions: (T, P, 3) target positions per step, km.
        half_angle: cone half-angle, rad.
        cone_axes: (T, 3) boresight per step, or None for nadir.

    Returns:
        Boolean array of shape (T, P).
    """
    pos = np.asarray(sat_positions, dtype=float)
    tgt = np.asarray(target_positions, dtype=float)
    n_steps, n_targets = tgt.shape[0], tgt.shape[1]
    if pos.shape != (n_steps, 3):
        raise ValueError(f"satellite positions shaped {pos.shape}, expected ({n_steps}, 3)")
    if n_targets == 0:
        return np.zeros((n_steps, 0), dtype=bool)

    if cone_axes is None:
        axes = -pos / np.linalg.norm(pos, axis=1, keepdims=True)
    else:
        axes = np.asarray(cone_axes, dtype=float)
        axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)

    d = tgt - pos[:, None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        dd = np.einsum("tpi,tpi->tp", d, d)
        cos_off = np.einsum("ti,tpi->tp", axes, d) / np.sqrt(dd)
        in_cone = np.arccos(np.clip(cos_off, -1.0, 1.0)) <= half_angle
        rd = np.einsum("ti,tpi->tp", pos, d)
        rr = np.einsum("ti,ti->t", pos, pos)[:, None]
        u = -rd / dd
        closest_sq = rr - rd * rd / dd
        blocked = (u > 0.0) & (u < 1.0) & (closest_sq < earth.radius_km**2)
    # A coincident satellite/target pair produces NaNs; treat it as unseen.
    return in_cone & ~blocked & (dd > 0.0)


def slot_visibility(
    slots: Sequence[Sequence[ClassicalOrbitalElements]],
    targets: np.ndarray,
    grid: TimeGrid,
    fov: FovSpec,
    earth: EarthModel = EARTH,
) -> np.ndarray:
    """Nadir-cone visibility of each step's active target from every slot.

    Args:
        slots: slots[k] lists the candidate orbits of satellite k; every
            satellite lists the same number of slots.
        targets: (num_steps, 3) ECI position of each step's active target.
        grid: scenario time discretisation; only its steps are used, so
            every stage count reads the same array.
        fov: cone description.

    Returns:
        Boolean array of shape (K, J, num_steps).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (grid.num_steps, 3):
        raise ValueError(f"targets shaped {targets.shape}, grid needs ({grid.num_steps}, 3)")
    n_slots = {len(slot_list) for slot_list in slots}
    if len(n_slots) > 1:
        raise ValueError(f"satellites list unequal slot counts {sorted(n_slots)}")
    times = np.arange(grid.num_steps, dtype=float) * grid.step
    column = targets[:, None, :]
    visible = np.zeros((len(slots), n_slots.pop() if n_slots else 0, grid.num_steps), dtype=bool)
    for k, slot_list in enumerate(slots):
        for j, coe in enumerate(slot_list):
            pos = eci_positions(coe, times, earth=earth)
            visible[k, j] = visibility_mask(pos, column, fov.half_angle, earth=earth)[:, 0]
    return visible
