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
:func:`slot_visibility` therefore screens the cells before it propagates
anything, in one pass over the grid.  Both screens bound the central angle
between a slot's sub-satellite point and the target from below and drop a
cell when that bound exceeds the cone's reach (:func:`_reach`): the
smaller of the cone limit asin(r sin(eta) / rho) - eta (while the cone's
edge misses the limb) and the horizon limit acos(q / r) + acos(q / rho),
q = min(rho, R_E), at the apoapsis radius r = p / (1 - e) and the
target's own radius rho.  The reach depends on the orbit only through r,
so it is computed once per distinct apoapsis.

- Across the plane (:func:`_kept_steps`, one plane at a time): a
  satellite sits on the plane's great circle, so the target's angle from
  that circle bounds the central angle, and a step is dropped for every
  slot on the plane.
- Along the plane (:func:`_phase_cells`, one satellite at a time): the
  in-plane angle between the slot and the target's projection bounds it
  too, up to pi/2.  The slot's argument of latitude comes from its mean
  anomaly, without a Kepler solve, widened by the largest equation of
  centre, so the slots a step keeps are those whose mean anomaly at epoch
  falls in one window, found by a binary search among the plane's slots.

A 1e-6 rad margin is added to the reach because :func:`visibility_mask`
decides points on that boundary from rounded floats.  The J2 constants of
each plane and the mean anomaly at epoch of each phase are computed once
per run, into the :class:`~stormcover.orbits.OrbitTable` of the
:class:`~stormcover.maneuvers.SlotGrid`, which both screens and the kernel
read; the grid's layout names each satellite's orbit planes.  Every cell
of the grid left by both screens is then positioned by one
:func:`~stormcover.orbits.cell_positions` call and tested by one
:func:`visibility_mask` call.  Kepler's equation runs on
those cells only, each stopped on its own residual, so every cell holds
the bits of positioning its slot at that step alone, whichever other
cells the screens keep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .maneuvers import SlotGrid
from .orbits import EARTH, OrbitTable, TimeGrid, cell_positions

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


def _reach(apoapsis: float, rho: np.ndarray, half_angle: float) -> np.ndarray:
    """Widest central angle, per step, at which the nadir cone of a
    satellite at radius ``apoapsis`` sees a point at the target's radius
    rho unblocked.

    With q = min(rho, R_E), the radius of the sphere that blocks the view:

    - horizon limit: acos(q / r) + acos(q / rho), where the line of sight
      grazes that sphere;
    - cone limit: asin(r sin(eta) / rho) - eta, the near point where the
      cone's edge meets the target sphere.  It applies only while the edge
      ray misses the limb (r sin(eta) < q); past it the cone reaches the
      horizon and only the horizon limits.

    The reach is the smaller of the two.  Both grow with r, so the apoapsis
    radius p / (1 - e) bounds every point of the orbit.
    """
    q = np.minimum(rho, EARTH.radius_km)
    edge = apoapsis * math.sin(half_angle)
    horizon = np.arccos(q / apoapsis) + np.arccos(q / rho)
    cone = np.arcsin(np.minimum(edge / rho, 1.0)) - half_angle
    return np.where(edge < q, np.minimum(cone, horizon), horizon)


def _kept_steps(
    plane: OrbitTable, times: np.ndarray, unit: np.ndarray, reach_at: Callable[[float], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Steps at which a slot on one orbit plane may see its target, and the reach there.

    ``plane`` is one orbit's row of an :class:`~stormcover.orbits.OrbitTable`
    and ``reach_at`` gives :func:`_reach` at an apoapsis radius.  The
    target's angle from the plane's great circle, from the J2-drifted node
    as :func:`~stormcover.orbits.eci_positions` drifts it, is tested
    against the reach at the plane's apoapsis.  A plane whose perigee does
    not clear the Earth is not screened, and its reach is infinite.

    Returns:
        (indices of the kept steps, the reach in rad at each of them).
    """
    p, e = plane.semi_latus_rectum, plane.eccentricity
    if p / (1.0 + e) <= EARTH.radius_km:
        return np.arange(len(times)), np.full(len(times), np.inf)
    raan = plane.raan + plane.raan_rate * (times - plane.epoch)
    # |normal . unit| with the plane normal (si sin O, -si cos O, ci)
    sin_off = np.abs(plane.sin_i * (np.sin(raan) * unit[:, 0] - np.cos(raan) * unit[:, 1]) + plane.cos_i * unit[:, 2])
    off_plane = np.arcsin(np.minimum(sin_off, 1.0))
    reach = reach_at(p / (1.0 - e))
    # a NaN (a target at the Earth's centre) compares False and is kept
    kept = np.flatnonzero(~(off_plane > reach + _SCREEN_MARGIN))
    return kept, reach[kept]


def _centre_bound(e: np.ndarray) -> np.ndarray:
    """Largest |nu - M| at eccentricity e: e + 2 asin(e / (1 + sqrt(1 - e^2)))."""
    return e + 2.0 * np.arcsin(e / (1.0 + np.sqrt(1.0 - e * e)))


def _phase_cells(
    orbits: OrbitTable,
    planes: Sequence[tuple[Sequence[int], np.ndarray, np.ndarray]],
    times: np.ndarray,
    unit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Which cells of one satellite's slots the in-plane screen keeps.

    In a plane's frame, with node N = (cos O, sin O, 0),
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
    the reach plus the 1e-6 rad margin cannot be visible.  While that limit
    is below pi/2, the cells kept are exactly the slots whose M_0 lies on
    the circle within C(e) + limit of u_t - omega - n_bar dt, a window
    found by one binary search per (plane, kept step) pair among the
    plane's slots sorted by M_0; at or above pi/2, or where the window
    would span the circle, every slot of the plane is kept.  The margin
    holds this screen's rounding as well as the mask's.  The window's
    centre and the search keys (M_0 plus 8 pi per plane) are rounded
    within about 1e-11 rad while n_bar dt stays below 1e4 rad (some 100
    days in low orbit).  :func:`~stormcover.orbits.cell_positions` solves
    M = M_0 + n_bar dt in floats, its Newton stop leaves E within
    1e-12 / (1 - e) of the root, and d nu / dE <= sqrt((1 + e) / (1 - e)),
    so at e <= 0.5 the solved nu is within 1e-11 rad of the nu above.  u_t is within 1e-7 rad of its own
    angle where cos(off) >= 1e-7; where the projection is shorter, off and
    so d are within 1e-7 of pi/2, which bounds the clamped term.  Above
    e = 0.5 every cell is kept (C(e) counts as infinite): C(e) passes
    1 rad, so the screen drops little, and the Kepler error grows as
    (1 - e)^(-3/2).

    Args:
        orbits: the constants of every slot (:class:`OrbitTable`).
        planes: one satellite's orbit planes with kept steps, each as (the
            indices into ``orbits`` of its slots, the steps
            :func:`_kept_steps` kept, the reach at them).

    Returns:
        (slot, step) index arrays of the cells kept.
    """
    size = np.array([kept.size for _, kept, _ in planes])
    n_slots = np.array([len(slots) for slots, _, _ in planes])
    plane = np.repeat(np.arange(len(planes)), size)
    step = np.concatenate([kept for _, kept, _ in planes])
    limit = np.concatenate([reach for _, _, reach in planes]) + _SCREEN_MARGIN
    pair = orbits.take(np.array([slots[0] for slots, _, _ in planes])[plane])
    dt = times[step] - pair.epoch
    raan = pair.raan + pair.raan_rate * dt
    co, so = np.cos(raan), np.sin(raan)
    x, y, z = unit[step].T
    u_target = np.arctan2(pair.cos_i * (y * co - x * so) + pair.sin_i * z, x * co + y * so)
    e = pair.eccentricity
    half = np.minimum(np.where(e > _PHASE_SCREEN_MAX_ECC, np.inf, _centre_bound(e)) + limit, math.pi)
    # each plane's slots sorted by M_0 in [0, 2 pi), then again 2 pi on,
    # planes 8 pi apart, so that one search finds a window that wraps
    slots = np.concatenate([slots for slots, _, _ in planes])
    key = np.repeat(np.arange(len(planes)) * 8.0 * math.pi, n_slots) + orbits.mean_anomaly[slots]
    key = np.concatenate([key, key + 2.0 * math.pi])
    order = np.argsort(key, kind="stable")
    key, ring = key[order], np.concatenate([slots, slots])[order]
    centre = u_target - (pair.argp + pair.argp_rate * dt) - pair.n_eff * dt
    lo = np.mod(centre - half, 2.0 * math.pi) + plane * 8.0 * math.pi
    start = np.searchsorted(key, lo)
    end = np.searchsorted(key, lo + 2.0 * half, side="right")
    # a NaN limit (a target at the Earth's centre) keeps every slot too
    every = ~((half < math.pi) & (limit < math.pi / 2.0))
    first = 2 * (np.cumsum(n_slots) - n_slots)[plane]
    start = np.where(every, first, start)
    count = np.where(every, n_slots[plane], end - start)
    cell = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return ring[cell], np.repeat(step, count)


def slot_visibility(
    grid: SlotGrid,
    targets: np.ndarray,
    time_grid: TimeGrid,
    fov: FovSpec,
) -> np.ndarray:
    """Nadir-cone visibility of each step's active target from every slot.

    One pass over the whole slot grid, read from the grid's
    :class:`~stormcover.orbits.OrbitTable`, with the cone's reach
    (:func:`_reach`) once per distinct apoapsis radius.  Each orbit plane
    is screened across the plane (:func:`_kept_steps`), then each
    satellite's slots along their planes at the steps left
    (:func:`_phase_cells`), each screen with a 1e-6 rad margin for the
    rounding of :func:`visibility_mask`.  Every cell that survives both is
    positioned by one :func:`~stormcover.orbits.cell_positions` call, each
    cell's Newton solve stopped on its own residual, and tested by one
    :func:`visibility_mask` call.  So the result equals testing every step
    of every slot, each positioned at that step alone.

    Args:
        grid: every satellite's candidate orbits (:class:`SlotGrid`).
        targets: (num_steps, 3) ECI position of each step's active target.
        time_grid: scenario time discretisation; only its steps are used,
            so every stage count reads the same array.
        fov: cone description.

    Returns:
        Boolean array of shape (K, J, num_steps).
    """
    targets = np.asarray(targets, dtype=float)
    n_steps = time_grid.num_steps
    if targets.shape != (n_steps, 3):
        raise ValueError(f"targets shaped {targets.shape}, grid needs ({n_steps}, 3)")
    n_sats, n_slot = grid.plane.shape
    visible = np.zeros((n_sats, n_slot, n_steps), dtype=bool)
    times = np.arange(n_steps, dtype=float) * time_grid.step
    rho = np.linalg.norm(targets, axis=1)
    unit = targets / rho[:, None]
    reach_at = functools.cache(lambda apoapsis: _reach(apoapsis, rho, fov.half_angle))
    which, steps = [], []
    for k, plane_of in enumerate(grid.plane):
        # the satellite's orbit planes, as indices into the flattened grid
        planes = [k * n_slot + np.flatnonzero(plane_of == p) for p in range(plane_of.max() + 1)]
        screened = [(group, *_kept_steps(grid.orbits.take(group[0]), times, unit, reach_at)) for group in planes]
        screened = [plane for plane in screened if plane[1].size]
        if screened:
            slot, step = _phase_cells(grid.orbits, screened, times, unit)
            which.append(slot)
            steps.append(step)
    if which:
        which, steps = np.concatenate(which), np.concatenate(steps)
        pos = cell_positions(grid.orbits, which, times, steps)
        seen = visibility_mask(pos, targets[steps, None], fov.half_angle)
        visible.reshape(-1, n_steps)[which, steps] = seen[:, 0]
    return visible
