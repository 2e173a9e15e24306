"""Nadir-cone visibility of each step's active target from every slot.

The question answered here, for every (satellite, slot, step): does the
sensor cone of that slot, pointed at nadir, contain the step's active
target, with an unobstructed line of sight?  The answer is a plain boolean
(K, J, T) array over the whole horizon; the comparison harness reshapes it
per stage count for the reconfiguration solver, and the agility scorer
uses the vectorised mask it is built from.

Nearly every cell of that array is False: a slot grid carries one phase
comb per orbit plane, and at most steps the target lies far off the
plane's ground track, or far along it from the slot.
:func:`slot_visibility` therefore screens each plane twice before it
propagates anything.  Both screens bound the central angle between a
slot's sub-satellite point and the target from below and drop a cell when
that bound exceeds the cone's reach: the smaller of the cone limit
asin(r sin(eta) / rho) - eta (while the cone's edge misses the limb) and
the horizon limit acos(q / r) + acos(q / rho), q = min(rho, R_E), at the
apoapsis radius r = p / (1 - e) and the target's own radius rho.

- Across the plane (:func:`_kept_steps`): a satellite sits on the
  plane's great circle, so the target's angle from that circle bounds
  the central angle, and a step is dropped for every slot on the plane.
- Along the plane (:func:`_phase_cells`): the in-plane angle between the
  slot and the target's projection bounds it too, up to pi/2.  The slot's
  argument of latitude comes from its mean anomaly, without a Kepler
  solve, widened by the largest equation of centre.

A 1e-6 rad margin is added to the reach because :func:`visibility_mask`
decides points on that boundary from rounded floats.  Each plane's slots
are then propagated and tested as one block of the cells that survive
both screens, one row per slot.  Kepler's equation runs on those cells
too: a Newton loop over fewer entries can stop a step earlier and move
bits, so the plane kernel (:func:`~stormcover.orbits.plane_positions`)
keeps a block row only when it took the step count after which every
entry provably converges, and solves the slot's full row otherwise.  The
array is bit-identical to testing every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .orbits import (
    EARTH,
    ClassicalOrbitalElements,
    TimeGrid,
    orbit_planes,
    plane_positions,
    secular_angles,
    true_to_mean_anomaly,
)

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

# Largest eccentricity screened along the plane (see _phase_cells).
_PHASE_SCREEN_MAX_ECC = 0.5


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
) -> tuple[np.ndarray, np.ndarray]:
    """Steps at which a slot on ``coe``'s plane may see its target, and the reach there.

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
    perigee does not clear the Earth is not screened, and its reach is
    infinite.

    Returns:
        (indices of the kept steps, the reach in rad at each of them).
    """
    p, e = coe.semi_latus_rectum, coe.eccentricity
    if p / (1.0 + e) <= EARTH.radius_km:
        return np.arange(len(times)), np.full(len(times), np.inf)
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
    kept = np.flatnonzero(~(off_plane > reach + _SCREEN_MARGIN))
    return kept, reach[kept]


def _centre_bound(e: float) -> float:
    """Largest |nu - M| at eccentricity e: e + 2 asin(e / (1 + sqrt(1 - e^2)))."""
    return e + 2.0 * math.asin(e / (1.0 + math.sqrt(1.0 - e * e)))


def _phase_cells(
    plane: Sequence[ClassicalOrbitalElements],
    times: np.ndarray,
    unit: np.ndarray,
    kept: np.ndarray,
    reach: np.ndarray,
) -> np.ndarray:
    """Which (slot, kept step) cells of one plane the in-plane screen keeps.

    In the plane's frame, with node N = (cos O, sin O, 0),
    Q = (-sin O cos i, cos O cos i, sin i) and normal W = N x Q, the target
    direction is cos(off) (cos u_t N + sin u_t Q) + sin(off) W, where off
    is its angle from the plane (:func:`_kept_steps`) and
    u_t = atan2(unit . Q, unit . N).  A satellite at argument of latitude
    lambda looks down along cos(lambda) N + sin(lambda) Q, so the central
    angle d between the two obeys cos d = cos(off) cos(du), du = lambda - u_t
    wrapped to [-pi, pi] (a right spherical triangle).  While |du| <= pi/2,
    cos d <= cos du; past it cos d <= 0.  Hence d >= min(|du|, pi/2).  The
    clamp matters: the horizon reach of a high orbit over a raised target
    can pass pi/2.

    lambda is the drifted argument of periapsis plus the true anomaly nu,
    and nu lies within C(e) of the mean anomaly M = M_0 + n_bar dt
    (:func:`_centre_bound`), which needs no Kepler solve:

    - E - M = e sin E, so |E - M| <= e;
    - with beta = e / (1 + sqrt(1 - e^2)), nu - E = 2 arg(1 - beta exp(-iE)),
      twice the angle of a point on the circle of radius beta about 1,
      which is at most asin(beta).

    So a cell with min(max(|wrap(u_t - omega - M)| - C(e), 0), pi/2) above
    the reach plus the 1e-6 rad margin cannot be visible.  The margin holds
    this screen's rounding as well as the mask's.  M is the float the plane
    kernel solves, whose Newton stop leaves E within 1e-12 / (1 - e) of the
    root, and d nu / dE <= sqrt((1 + e) / (1 - e)), so at e <= 0.5 the
    solved nu is within 1e-11 rad of the nu above.  u_t is within 1e-7 rad
    of its own angle where cos(off) >= 1e-7; where the projection is
    shorter, off and so d are within 1e-7 of pi/2, which bounds the clamped
    term.  Above e = 0.5 every cell is kept: C(e) passes 1 rad, so the
    screen drops little, and the Kepler error grows as (1 - e)^(-3/2).

    Returns:
        Boolean (len(plane), len(kept)) mask of the cells that may be seen.
    """
    coe = plane[0]
    e = coe.eccentricity
    if e > _PHASE_SCREEN_MAX_ECC:
        return np.ones((len(plane), kept.size), dtype=bool)
    dt = times[kept] - coe.epoch
    n_eff, raan, argp = secular_angles(coe, dt)
    co, so = np.cos(raan), np.sin(raan)
    ci, si = math.cos(coe.inclination), math.sin(coe.inclination)
    x, y, z = unit[kept].T
    u_target = np.arctan2(ci * (y * co - x * so) + si * z, x * co + y * so)
    m0 = np.array([true_to_mean_anomaly(c.true_anomaly, e) for c in plane])
    mean_lat = argp + (m0[:, None] + n_eff * dt)
    gap = np.abs(np.mod(u_target - mean_lat + math.pi, 2.0 * math.pi) - math.pi)
    lower = np.minimum(np.maximum(gap - _centre_bound(e), 0.0), math.pi / 2.0)
    return ~(lower > reach + _SCREEN_MARGIN)


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
    :func:`visibility_mask`.  On the steps left, a slot's cell is dropped
    when its in-plane angle from the target, bounded from the mean anomaly
    and the largest equation of centre, exceeds the same reach
    (:func:`_phase_cells`).

    Each plane then makes one :func:`~stormcover.orbits.plane_positions`
    call and one :func:`visibility_mask` call over its surviving cells,
    one row per slot, each row padded to the widest by repeating its own
    first step.  The plane kernel solves Kepler's equation on those cells
    alone and holds each row to its full row's bits by a certified Newton
    step count, solving the full row only where the certificate fails, so
    the result is bit-identical to testing every step of every slot.

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
    visible = np.zeros((len(slots), n_slots.pop() if n_slots else 0, grid.num_steps), dtype=bool)
    for k, slot_list in enumerate(slots):
        for plane in orbit_planes(slot_list):
            orbits = [slot_list[j] for j in plane]
            kept, reach = _kept_steps(orbits[0], times, unit, rho, fov.half_angle)
            cells = _phase_cells(orbits, times, unit, kept, reach)
            rows = np.flatnonzero(cells.any(axis=1))
            if not rows.size:
                continue
            cells = cells[rows]
            count = cells.sum(axis=1)
            # each row's kept columns first, padded with its first one
            cols = np.argsort(~cells, axis=1, kind="stable")[:, : count.max()]
            cols = np.where(np.arange(cols.shape[1]) < count[:, None], cols, cols[:, :1])
            steps = kept[cols]
            pos = plane_positions([orbits[r] for r in rows], times, steps)
            seen = visibility_mask(pos.reshape(-1, 3), targets[steps.reshape(-1), None], fov.half_angle)
            visible[k, np.array(plane)[rows, None], steps] = seen.reshape(steps.shape)
    return visible
