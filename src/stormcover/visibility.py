"""Nadir-cone visibility of each step's active target from every slot.

The question answered here, for every (satellite, slot, step): does the
sensor cone of that slot, pointed at nadir, contain the step's active
target, with an unobstructed line of sight?  The answer is a plain boolean
(K, J, T) array over the whole horizon; the comparison harness reshapes it
per stage count for the reconfiguration solver, and the agility scorer
uses the vectorised mask it is built from.

Nearly every cell of that array is False: a slot grid carries one phase
comb per orbit plane, and at most steps the target lies far off the
plane's ground track.  :func:`slot_visibility` therefore screens each
plane before it propagates the plane's slots.  A satellite on the plane
sits on the plane's great circle, so the target's angle from that circle
is a lower bound on the central angle between satellite and target.  A
step is dropped for the whole plane when that angle exceeds the cone's
reach: the smaller of the cone limit asin(r sin(eta) / rho) - eta (while
the cone's edge misses the limb) and the horizon limit
acos(q / r) + acos(q / rho), q = min(rho, R_E), at the apoapsis radius
r = p / (1 - e) and the target's own radius rho (:func:`_kept_steps`).
A 1e-6 rad margin is added because :func:`visibility_mask` decides
points on that boundary from rounded floats.  Each plane's slots are then
propagated and tested as one (slots x kept steps) block.  Kepler's
equation runs on the kept steps too: a Newton loop over fewer entries can
stop a step earlier and move bits, so the plane kernel
(:func:`~stormcover.orbits.plane_positions`) keeps a block row only when
it took the step count after which every entry provably converges, and
solves the slot's full row otherwise.  The array is bit-identical to
testing every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .orbits import EARTH, ClassicalOrbitalElements, TimeGrid, orbit_planes, plane_positions, secular_angles

__all__ = [
    "FovSpec",
    "visibility_mask",
    "slot_visibility",
]

# Absolute slack (rad) added to the screen's reach.  The reach is exact
# geometry, but visibility_mask decides a boundary point from rounded
# floats: arccos near zero and the grazing-horizon test each move the
# boundary by up to a few 1e-8 rad.  One microradian (7 mm at orbit
# radius) keeps every such point and drops nothing the screen needs to.
_SCREEN_MARGIN = 1e-6


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


def visibility_mask(
    sat_positions: np.ndarray,
    target_positions: np.ndarray,
    half_angle: float,
    cone_axes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cone and line-of-sight test over a time series.

    A target is visible when its off-axis angle is at most ``half_angle``
    and the segment from the satellite to it does not pass strictly inside
    the Earth sphere; grazing the surface still counts as clear.

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
        blocked = (u > 0.0) & (u < 1.0) & (closest_sq < EARTH.radius_km**2)
    # A coincident satellite/target pair produces NaNs; treat it as unseen.
    return in_cone & ~blocked & (dd > 0.0)


def _kept_steps(
    coe: ClassicalOrbitalElements,
    times: np.ndarray,
    unit: np.ndarray,
    rho: np.ndarray,
    half_angle: float,
) -> np.ndarray:
    """Indices of the steps at which a slot on ``coe``'s plane may see its target.

    The target's angle from the plane's great circle is tested against the
    widest central angle at which the nadir cone of a satellite at radius
    r sees a point at the target's radius rho unblocked.  With
    q = min(rho, R_E), the radius of the sphere that blocks the view:

    - horizon limit: acos(q / r) + acos(q / rho), where the line of sight
      grazes that sphere;
    - cone limit: asin(r sin(eta) / rho) - eta, the near point where the
      cone's edge meets the target sphere.  It applies only while the edge
      ray misses the limb (r sin(eta) < q); past it the cone reaches the
      horizon and only the horizon limits.

    The reach is the smaller of the two.  Both grow with r, so the apoapsis
    radius p / (1 - e) bounds every point of the orbit.  A plane whose
    perigee does not clear the Earth is not screened.
    """
    p, e = coe.semi_latus_rectum, coe.eccentricity
    if p / (1.0 + e) <= EARTH.radius_km:
        return np.arange(len(times))
    _, raan, _ = secular_angles(coe, times - coe.epoch)
    si, ci = math.sin(coe.inclination), math.cos(coe.inclination)
    # |normal . unit| with the plane normal (si sin O, -si cos O, ci)
    sin_off = np.abs(si * (np.sin(raan) * unit[:, 0] - np.cos(raan) * unit[:, 1]) + ci * unit[:, 2])
    off_plane = np.arcsin(np.minimum(sin_off, 1.0))

    apoapsis = p / (1.0 - e)
    q = np.minimum(rho, EARTH.radius_km)
    edge = apoapsis * math.sin(half_angle)
    horizon = np.arccos(q / apoapsis) + np.arccos(q / rho)
    cone = np.arcsin(np.minimum(edge / rho, 1.0)) - half_angle
    reach = np.where(edge < q, np.minimum(cone, horizon), horizon)
    # a NaN (a target at the Earth's centre) compares False and is kept
    return np.flatnonzero(~(off_plane > reach + _SCREEN_MARGIN))


def slot_visibility(
    slots: Sequence[Sequence[ClassicalOrbitalElements]],
    targets: np.ndarray,
    grid: TimeGrid,
    fov: FovSpec,
) -> np.ndarray:
    """Nadir-cone visibility of each step's active target from every slot.

    Each satellite's slots are grouped by orbit plane.  For each plane and
    step, the plane's normal (from the J2-drifted RAAN, by the arithmetic
    of :func:`~stormcover.orbits.eci_positions`) gives the target's angle
    from the plane's great circle.  The step is dropped for every slot on
    the plane when that angle exceeds the cone's unblocked reach
    (:func:`_kept_steps`) at the apoapsis radius p / (1 - e) and the
    target's own radius, plus a 1e-6 rad margin for the rounding of
    :func:`visibility_mask`.

    Each plane then makes one :func:`~stormcover.orbits.plane_positions`
    call over its (slots x kept steps) block and one
    :func:`visibility_mask` call over the same block.  The plane kernel
    solves Kepler's equation on the kept steps alone and holds each row to
    its full row's bits by a certified Newton step count, solving the full
    row only where the certificate fails, so the result is bit-identical
    to testing every step of every slot.

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
    rho = np.linalg.norm(targets, axis=1)
    unit = targets / rho[:, None]
    column = targets[:, None, :]
    visible = np.zeros((len(slots), n_slots.pop() if n_slots else 0, grid.num_steps), dtype=bool)
    for k, slot_list in enumerate(slots):
        for plane in orbit_planes(slot_list):
            kept = _kept_steps(slot_list[plane[0]], times, unit, rho, fov.half_angle)
            if not kept.size:
                continue
            pos = plane_positions([slot_list[j] for j in plane], times, kept)
            targets_block = np.tile(column[kept], (len(plane), 1, 1))
            seen = visibility_mask(pos.reshape(-1, 3), targets_block, fov.half_angle)
            visible[k, np.array(plane)[:, None], kept] = seen.reshape(len(plane), kept.size)
    return visible
