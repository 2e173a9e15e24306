"""Impulsive transfer pricing, candidate slot grids, and the cost matrix.

All costs assume near-circular orbits at a shared altitude: phasing is a
two-impulse resize-and-return ellipse, plane changes are single impulses at
a node, and combinations price the phasing leg after the plane change.
Phasing tries only the two rev pairs that can win (:func:`_phase_rev_pairs`),
and the all-pairs matrix is a plane leg (the cheapest plane change covering
the plane offset) plus a phase leg, each 0 when its offset is, priced once
per pair of orbit planes and once per pair of distinct phases.
Slot grids put candidate orbits on equally spaced phase offsets and, in the
unrestricted mode, on inclination and RAAN offsets calibrated so that the
most distant plane costs exactly the per-satellite fuel budget to reach in
one maneuver.  A :class:`SlotGrid` carries every satellite's slots with
their layout (:func:`grid_layout`), J2 constants and mean anomalies at
epoch, so it is built once per run and prices every track's stages.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .orbits import (
    EARTH,
    ClassicalOrbitalElements,
    OrbitTable,
    TimeGrid,
    _norm_angle,
    mean_motion,
    mean_to_true_anomaly,
)

__all__ = [
    "TransferStrategy",
    "TransferCost",
    "GridMode",
    "SlotGridSpec",
    "CostMatrix",
    "phasing_cost",
    "inclination_change_cost",
    "raan_change_cost",
    "combined_plane_cost",
    "transfer_cost",
    "calibrate_plane_spans",
    "generate_slot_grid",
    "grid_layout",
    "SlotGrid",
    "build_cost_matrix",
]

TWO_PI = 2.0 * math.pi

# Orbits are treated as interchangeable when angles agree to this tolerance.
_ANGLE_TOL = 1e-12
_SMA_TOL_KM = 1e-6
_MAX_ECC = 0.01

# Phasing ellipses must keep their periapsis this far above the surface.
_MIN_PERIAPSIS_CLEARANCE_KM = 100.0


class TransferStrategy(enum.Enum):
    """The stay option plus the seven priced transfer types."""

    STAY = "stay"
    PHASE = "phase"
    INCLINATION = "inclination"
    RAAN = "raan"
    PLANE = "plane"
    INCLINATION_PHASE = "inclination+phase"
    RAAN_PHASE = "raan+phase"
    PLANE_PHASE = "plane+phase"


# Preference order on cost ties: simpler maneuvers win.
_STRATEGY_ORDER = list(TransferStrategy)


@dataclass(frozen=True)
class TransferCost:
    """Priced transfer: Δv in km/s, the strategy, and the wait time in s.

    An infinite delta_v marks an edge excluded by the periapsis guard.
    """

    delta_v: float
    strategy: TransferStrategy
    transfer_time: float

    def __post_init__(self) -> None:
        if math.isnan(self.delta_v) or self.delta_v < 0.0:
            raise ValueError(f"delta_v must be non-negative, got {self.delta_v!r}")


class GridMode(enum.Enum):
    PHASING_ONLY = "phasing-only"
    UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class SlotGridSpec:
    """Shape of a candidate slot grid.

    Attributes:
        num_phases: phase offsets per plane (the grid spacing is 2 pi over
            this count).
        num_plane_axis: planes along each of the inclination and RAAN axes,
            center included; the two axes share the center plane, so the
            unrestricted grid holds (2*num_plane_axis - 1) planes.  Must be
            odd so offsets come in symmetric pairs.  The extreme offsets
            are calibrated from the fuel budget at generation time.
    """

    num_phases: int
    num_plane_axis: int = 1

    def __post_init__(self) -> None:
        if self.num_phases < 1:
            raise ValueError("num_phases must be at least 1")
        if self.num_plane_axis < 1:
            raise ValueError("num_plane_axis must be at least 1")


def _circular_speed(a: float) -> float:
    return math.sqrt(EARTH.mu_km3_s2 / a)


def _require_near_circular(orbit: ClassicalOrbitalElements) -> None:
    if orbit.eccentricity >= _MAX_ECC:
        raise ValueError(
            f"cost formulas assume near-circular orbits (e < {_MAX_ECC}), got e={orbit.eccentricity}"
        )


def _phase_rev_pairs(max_revs: int) -> Tuple[Tuple[int, int], ...]:
    """The (k_tgt, k_tfr) rev pairs, R = max_revs, that can phase cheapest.

    With f = dphi / 2 pi in (0, 1), a_phase / a = ((k_tgt + f) / k_tfr)^(2/3)
    and the delta_v grows with |a_phase - a| on each side of a.  Above a
    (k_tgt >= k_tfr) the closest pair is k_tgt = k_tfr = R; below a
    (k_tgt < k_tfr) it is k_tfr = k_tgt + 1 = R.  The clearance guard
    strikes only below a, at every a_phase under one threshold, so when it
    rejects the closest pair below a it rejects every pair further below.
    The pair below comes first, as in a loop over ascending k_tgt, so the
    first-wins tie-break is kept.

    The argument holds in exact arithmetic.  In floating point, with
    max_revs >= 15 and an offset within about 2.1e-12 rad of a whole turn,
    rounding can tie the delta_v of a skipped pair and a tried one (to
    about 5e-14 km/s), and the transfer_time returned may then be a later
    pair's than the all-pairs loop returns; the delta_v is equal.  Nothing
    of the kind was seen with max_revs <= 8.
    """
    if max_revs < 1:
        raise ValueError("max_revs must be at least 1")
    if max_revs == 1:
        return ((1, 1),)
    return ((max_revs - 1, max_revs), (max_revs, max_revs))


def phasing_cost(
    orbit: ClassicalOrbitalElements,
    phase_offset: float,
    max_revs: int = 4,
) -> TransferCost:
    """Cheapest two-impulse phasing rendezvous over the allowed rev counts.

    The chaser enters an ellipse whose period makes it return to the
    departure point, after k_tfr transfer revolutions, exactly when the
    target slot arrives there after k_tgt revolutions plus the phase
    offset.  Rev counts run independently over 1..max_revs, of which only
    :func:`_phase_rev_pairs` can win; ellipses that would dip below a
    100 km surface clearance are discarded.

    Args:
        orbit: departure orbit (sets the radius and mean motion).
        phase_offset: how far the target slot trails, rad; wrapped into
            [0, 2 pi).
        max_revs: largest rev count for both the target and the transfer.

    Returns:
        TransferCost with the STAY strategy and zero cost for an offset
        within 1e-12 rad of a whole turn (as in transfer_cost), the PHASE
        strategy otherwise; +inf if every rev pair is excluded by the
        clearance guard.
    """
    _require_near_circular(orbit)
    rev_pairs = _phase_rev_pairs(max_revs)
    dphi = math.fmod(phase_offset, TWO_PI)
    if dphi < 0.0:
        dphi += TWO_PI
    if not _ANGLE_TOL < dphi < TWO_PI - _ANGLE_TOL:
        return TransferCost(0.0, TransferStrategy.STAY, 0.0)

    a = orbit.semi_major_axis
    n = mean_motion(a)
    v_circ = _circular_speed(a)
    mu = EARTH.mu_km3_s2
    floor_radius = EARTH.radius_km + _MIN_PERIAPSIS_CLEARANCE_KM
    best_dv = math.inf
    best_time = math.inf
    for k_tgt, k_tfr in rev_pairs:
        t_phase = (TWO_PI * k_tgt + dphi) / n
        a_phase = mu ** (1.0 / 3.0) * (t_phase / (TWO_PI * k_tfr)) ** (2.0 / 3.0)
        if a_phase < a and 2.0 * a_phase - a < floor_radius:
            continue
        dv = 2.0 * abs(math.sqrt(mu * (2.0 / a - 1.0 / a_phase)) - v_circ)
        if dv < best_dv:
            best_dv = dv
            best_time = t_phase
    return TransferCost(best_dv, TransferStrategy.PHASE, best_time)


def inclination_change_cost(orbit: ClassicalOrbitalElements, di: float) -> TransferCost:
    """Single-impulse inclination change at a node: 2 v sin(|di| / 2)."""
    _require_near_circular(orbit)
    v = _circular_speed(orbit.semi_major_axis)
    dv = 2.0 * v * math.sin(abs(di) / 2.0)
    return TransferCost(dv, TransferStrategy.INCLINATION, 0.0)


def raan_change_cost(orbit: ClassicalOrbitalElements, draan: float) -> TransferCost:
    """Single-impulse RAAN change at constant inclination.

    The rotation angle theta between the two orbit planes satisfies
    cos(theta) = cos^2(i) + sin^2(i) cos(dO).  An equatorial orbit has no
    node to move, so the cost degenerates to zero with a warning.
    """
    _require_near_circular(orbit)
    i = orbit.inclination
    if abs(math.sin(i)) < 1e-12 and abs(draan) > _ANGLE_TOL:
        warnings.warn("RAAN change on an equatorial orbit is undefined; costing 0", stacklevel=2)
        return TransferCost(0.0, TransferStrategy.RAAN, 0.0)
    # 1 - cos(theta) collapses to sin^2(i) (1 - cos(dO)), so the half-angle
    # sine is |sin i sin(dO/2)| exactly; evaluating it this way avoids the
    # arccos precision cliff near zero offsets.
    sin_half = abs(math.sin(i) * math.sin(draan / 2.0))
    v = _circular_speed(orbit.semi_major_axis)
    return TransferCost(2.0 * v * sin_half, TransferStrategy.RAAN, 0.0)


def combined_plane_cost(orbit: ClassicalOrbitalElements, di: float, draan: float) -> TransferCost:
    """Single impulse rotating the plane through both offsets at once.

    cos(theta) = cos(i1) cos(i2) + sin(i1) sin(i2) cos(dO), i2 = i1 + di.
    """
    _require_near_circular(orbit)
    i1 = orbit.inclination
    i2 = i1 + di
    # Same half-angle rearrangement as the RAAN case:
    # 1 - cos(theta) = 2 sin^2(di/2) + 2 sin(i1) sin(i2) sin^2(dO/2),
    # which degenerates exactly to the single-offset formulas.
    radicand = math.sin(di / 2.0) ** 2 + math.sin(i1) * math.sin(i2) * math.sin(draan / 2.0) ** 2
    sin_half = math.sqrt(min(1.0, max(0.0, radicand)))
    v = _circular_speed(orbit.semi_major_axis)
    return TransferCost(2.0 * v * sin_half, TransferStrategy.PLANE, 0.0)


def _wrap_signed(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(angle, TWO_PI)
    if wrapped > math.pi:
        wrapped -= TWO_PI
    elif wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def transfer_cost(
    from_orbit: ClassicalOrbitalElements,
    to_orbit: ClassicalOrbitalElements,
    max_revs: int = 4,
) -> TransferCost:
    """Cheapest strategy moving between two slots at the same altitude.

    Offsets are read off the element differences at the caller's common
    epoch: the phase offset is how far the target slot trails the chaser
    in argument of latitude, because the phasing ellipse returns the
    chaser to its own departure phase.  Every strategy whose legs exactly
    cover the needed changes is priced; the cheapest wins, with simpler
    strategies preferred on exact ties.

    Raises:
        ValueError: when the semi-major axes differ (altitude transfers
            are out of scope).
    """
    _require_near_circular(from_orbit)
    _require_near_circular(to_orbit)
    a = from_orbit.semi_major_axis
    if abs(a - to_orbit.semi_major_axis) > _SMA_TOL_KM:
        raise ValueError(
            f"transfer between different altitudes ({a} vs {to_orbit.semi_major_axis} km) is unsupported"
        )
    di = to_orbit.inclination - from_orbit.inclination
    draan = _wrap_signed(to_orbit.raan - from_orbit.raan)
    dphi = math.fmod(from_orbit.argument_of_latitude - to_orbit.argument_of_latitude, TWO_PI)
    if dphi < 0.0:
        dphi += TWO_PI
    has_i = abs(di) > _ANGLE_TOL
    has_o = abs(draan) > _ANGLE_TOL
    has_p = _ANGLE_TOL < dphi < TWO_PI - _ANGLE_TOL

    candidates: List[TransferCost] = []
    if not (has_i or has_o or has_p):
        candidates.append(TransferCost(0.0, TransferStrategy.STAY, 0.0))
    if has_p and not (has_i or has_o):
        candidates.append(phasing_cost(from_orbit, dphi, max_revs))
    if has_i and not (has_o or has_p):
        candidates.append(inclination_change_cost(from_orbit, di))
    if has_o and not (has_i or has_p):
        candidates.append(raan_change_cost(from_orbit, draan))
    if (has_i or has_o) and not has_p:
        candidates.append(combined_plane_cost(from_orbit, di, draan))
    if has_p and (has_i or has_o):
        phase_leg = phasing_cost(from_orbit, dphi, max_revs)
        if has_i and not has_o:
            plane_leg = inclination_change_cost(from_orbit, di)
            strategy = TransferStrategy.INCLINATION_PHASE
            candidates.append(
                TransferCost(plane_leg.delta_v + phase_leg.delta_v, strategy, phase_leg.transfer_time)
            )
        if has_o and not has_i:
            plane_leg = raan_change_cost(from_orbit, draan)
            candidates.append(
                TransferCost(
                    plane_leg.delta_v + phase_leg.delta_v,
                    TransferStrategy.RAAN_PHASE,
                    phase_leg.transfer_time,
                )
            )
        plane_leg = combined_plane_cost(from_orbit, di, draan)
        candidates.append(
            TransferCost(
                plane_leg.delta_v + phase_leg.delta_v,
                TransferStrategy.PLANE_PHASE,
                phase_leg.transfer_time,
            )
        )
    return min(candidates, key=lambda c: (c.delta_v, _STRATEGY_ORDER.index(c.strategy)))


def calibrate_plane_spans(initial: ClassicalOrbitalElements, budget: float) -> Tuple[float, float]:
    """Extreme plane offsets whose single-maneuver cost equals the budget.

    Inverts the inclination formula directly; the RAAN span then solves
    the constant-inclination rotation formula for the same total angle.

    Raises:
        ValueError: if the budget exceeds a full plane reversal, or the
            orbit is too close to equatorial for any RAAN offset to cost
            that much.
    """
    v = _circular_speed(initial.semi_major_axis)
    ratio = budget / (2.0 * v)
    if ratio > 1.0:
        raise ValueError(f"budget {budget} km/s exceeds a plane reversal at this altitude")
    theta_max = 2.0 * math.asin(ratio)
    incl_span = theta_max
    i = initial.inclination
    si2 = math.sin(i) ** 2
    if si2 < 1e-12:
        raise ValueError("cannot size a RAAN span on an equatorial orbit")
    cos_draan = (math.cos(theta_max) - math.cos(i) ** 2) / si2
    if cos_draan < -1.0:
        raise ValueError("budget exceeds the largest possible RAAN rotation at this inclination")
    raan_span = math.acos(min(1.0, cos_draan))
    return incl_span, raan_span


def generate_slot_grid(
    initial: ClassicalOrbitalElements,
    spec: SlotGridSpec,
    budget: float,
    mode: GridMode,
) -> List[ClassicalOrbitalElements]:
    """Candidate slots around an initial orbit.

    Phasing-only mode returns num_phases slots spaced equally in phase on
    the initial plane.  Unrestricted mode adds (num_plane_axis - 1)
    inclination-offset planes and as many RAAN-offset planes, graded
    symmetrically out to spans that cost exactly the budget to reach in a
    single direct maneuver, each plane carrying the full phase comb.

    Slot 0 is the initial orbit itself; within a plane, phases ascend;
    planes are ordered center, inclination axis from most negative to most
    positive offset, then the RAAN axis the same way.  Slot index =
    plane_index * num_phases + phase_index.
    """
    n_phase = spec.num_phases
    phase_offsets = [TWO_PI * q / n_phase for q in range(n_phase)]

    def plane_slots(di: float, draan: float) -> List[ClassicalOrbitalElements]:
        return [
            replace(
                initial,
                inclination=initial.inclination + di,
                raan=(initial.raan + draan) % TWO_PI,
                true_anomaly=(initial.true_anomaly + off) % TWO_PI,
            )
            for off in phase_offsets
        ]

    if mode is GridMode.PHASING_ONLY:
        return plane_slots(0.0, 0.0)

    if spec.num_plane_axis % 2 == 0:
        raise ValueError(
            "num_plane_axis must be odd so plane offsets come in symmetric +/- pairs"
        )
    incl_span, raan_span = calibrate_plane_spans(initial, budget)

    slots = plane_slots(0.0, 0.0)
    half = (spec.num_plane_axis - 1) // 2
    if half:
        fractions = [-q / half for q in range(half, 0, -1)] + [q / half for q in range(1, half + 1)]
        for frac in fractions:
            slots.extend(plane_slots(frac * incl_span, 0.0))
        for frac in fractions:
            slots.extend(plane_slots(0.0, frac * raan_span))
    return slots


def grid_layout(spec: SlotGridSpec, mode: GridMode) -> Tuple[np.ndarray, np.ndarray]:
    """Orbit plane and phase index of each slot :func:`generate_slot_grid`
    lays out: slot j lies on plane j // num_phases; the center and
    inclination-offset planes carry phases of their own, in slot order,
    and the RAAN-offset planes the center plane's (same i and nu)."""
    n = spec.num_phases
    axis = spec.num_plane_axis if mode is GridMode.UNRESTRICTED else 1
    plane = np.repeat(np.arange(2 * axis - 1), n)
    return plane, np.concatenate([np.arange(axis * n), np.tile(np.arange(n), axis - 1)])


@dataclass(frozen=True)
class CostMatrix:
    """Per-stage transfer costs c[s][k][i][j] with the per-satellite budget.

    stages[s] is a (K, J_prev, J) array of Δv in km/s for the maneuver at
    the start of stage s; stage 0 departs from the single initial orbit,
    so its from-axis has length 1.  Only the cheapest strategy's Δv is
    kept; :func:`transfer_cost` names the strategy for one pair.
    """

    stages: Tuple[np.ndarray, ...]
    budget: np.ndarray

    def __post_init__(self) -> None:
        for s, c in enumerate(self.stages):
            if not np.all(c >= 0.0):
                raise ValueError(f"stage {s} costs must be non-negative, not NaN")

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_satellites(self) -> int:
        return self.stages[0].shape[0]


class _SlotLayout(NamedTuple):
    """Every satellite's slots at one epoch, one row per satellite: slot j
    of satellite k lies on plane ``plane[k, j]`` and phase ``phase[k, j]``.
    Per plane: semi-major axis, inclination, RAAN and its J2 rate.  Per
    phase: argument of latitude, mean anomaly at epoch, eccentricity, and
    the J2 mean motion and periapsis drift of its first slot's plane.  A
    satellite with fewer planes or phases repeats its last entry."""

    plane: np.ndarray
    phase: np.ndarray
    sma: np.ndarray
    incl: np.ndarray
    raan: np.ndarray
    raan_rate: np.ndarray
    u: np.ndarray
    mean_anomaly: np.ndarray
    ecc: np.ndarray
    n_eff: np.ndarray
    argp: np.ndarray
    argp_rate: np.ndarray


def _first_of(labels: np.ndarray) -> np.ndarray:
    """Index of the first entry holding each of the labels 0, 1, ..."""
    order = np.argsort(labels, kind="stable")
    return order[np.searchsorted(labels[order], np.arange(labels.max() + 1))]


def _layout(slots: Sequence[ClassicalOrbitalElements], plane, phase) -> Tuple[_SlotLayout, OrbitTable]:
    """One satellite's row of a :class:`_SlotLayout` at epoch 0 and the table of its slots."""
    plane_at, phase_at = _first_of(plane), _first_of(phase)
    planes, phases = [slots[j] for j in plane_at], [slots[j] for j in phase_at]
    table = OrbitTable.of(planes, phases, plane, phase)
    p, q = table.take(plane_at), table.take(phase_at)
    sma, incl = np.array([(c.semi_major_axis, c.inclination) for c in planes]).T
    u = _wrap(q.argp + [c.true_anomaly for c in phases])
    per_phase = (q.mean_anomaly, q.eccentricity, q.n_eff, q.argp, q.argp_rate)
    return _SlotLayout(plane, phase, sma, incl, p.raan, p.raan_rate, u, *per_phase), table


def _layouts(slots, plane, phase) -> Tuple[_SlotLayout, OrbitTable]:
    """Every satellite's :class:`_SlotLayout` row, and the table of all slots."""

    def stack(column):  # one row per satellite, each padded with its last entry
        width = max(len(x) for x in column)
        return np.stack([np.append(x, np.repeat(x[-1:], width - len(x))) for x in column])

    rows, tables = zip(*map(_layout, slots, plane, phase))
    return _SlotLayout(*map(stack, zip(*rows))), OrbitTable(*map(np.concatenate, zip(*tables)))


def _wrap(angle: np.ndarray) -> np.ndarray:
    """:func:`~stormcover.orbits._norm_angle` elementwise, in the same arithmetic."""
    y = np.fmod(angle, TWO_PI)
    return np.where(y < 0.0, y + TWO_PI, y)


def _stage_angles(layout: _SlotLayout, dt: float) -> _SlotLayout:
    """The layout ``dt`` s after epoch 0, its RAAN and argument of latitude drifted.

    The values are those of ``propagate(slot, dt)`` and its
    ``argument_of_latitude``, bit for bit: the same operations in the
    same order, with the double wrap the propagated elements' own
    normalization adds.  The drift is computed once per orbit plane and
    phase, and Kepler's equation solved once per phase, which the
    RAAN-offset planes of an unrestricted grid share with the center plane.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return layout
    argp = _wrap(_wrap(layout.argp + layout.argp_rate * dt))
    mean = (layout.mean_anomaly + layout.n_eff * dt).ravel().tolist()
    nu = [_norm_angle(mean_to_true_anomaly(m, e)) for m, e in zip(mean, layout.ecc.ravel().tolist())]
    raan = _wrap(_wrap(layout.raan + layout.raan_rate * dt))
    return layout._replace(raan=raan, u=_wrap(argp + np.reshape(nu, argp.shape)))


class SlotGrid:
    """Every satellite's slots on one slot grid, with their layout and constants.

    ``slots[k][j]`` lies on orbit plane ``plane[k, j]`` and phase
    ``phase[k, j]``, each numbered 0, 1, ... in slot order: a plane's slots
    share every element but the true anomaly, a phase's share a, e, i,
    omega and nu.  ``plane`` and ``phase`` may be one (J,) layout for every
    satellite, as :func:`grid_layout` gives it.  The per-plane J2 constants
    and per-phase mean anomalies are computed once, into ``layout`` for
    pricing and ``orbits`` (every slot, satellite-major) for visibility;
    stage 0 from ``initials`` (default: each slot 0) is priced at first use.
    """

    def __init__(self, slots, plane, phase, initials=None, max_revs: int = 4, budget: float = 2.0):
        counts = {len(slot_list) for slot_list in slots}
        if len(counts) != 1:
            raise ValueError(f"satellites list unequal slot counts {sorted(counts)}")
        self.slots = tuple(tuple(slot_list) for slot_list in slots)
        shape = (len(self.slots), counts.pop())
        self.plane, self.phase = np.broadcast_to(plane, shape), np.broadcast_to(phase, shape)
        self.initials = tuple(slot_list[0] for slot_list in self.slots) if initials is None else tuple(initials)
        self.max_revs, self.budget = max_revs, float(budget)
        self.layout, self.orbits = _layouts(self.slots, self.plane, self.phase)

    @cached_property
    def departures(self) -> np.ndarray:
        """(K, 1, J) delta_v from each satellite's initial orbit to its
        slots at epoch 0, read-only: stage 0 of every cost matrix."""
        one = np.zeros((len(self.initials), 1), dtype=np.intp)
        starts, _ = _layouts([[orbit] for orbit in self.initials], one, one)
        costs = _pairwise_costs(starts, self.layout, self.max_revs)
        costs.flags.writeable = False
        return costs


def _pairwise_costs(from_angles: _SlotLayout, to_angles: _SlotLayout, max_revs: int) -> np.ndarray:
    """Vectorised all-pairs transfer pricing for every satellite at one stage.

    The cheapest strategy of transfer_cost, as plane leg + phase leg:
    rounding is monotone, so adding one phase leg to each plane candidate
    keeps their order.  The plane leg is priced on the distinct planes and
    the phase leg on the distinct arguments of latitude, then both are
    gathered to slot pairs; each entry is the same elementwise arithmetic
    on the same values as a slot-by-slot evaluation.  Pinned by tests.
    Returns delta_v shaped (K, len(from slots), len(to slots)).
    """
    rev_pairs = _phase_rev_pairs(max_revs)
    sma = from_angles.sma[:, :1]
    if np.any(np.abs(np.concatenate([from_angles.sma, to_angles.sma], axis=1) - sma) > _SMA_TOL_KM):
        raise ValueError("slot grids must share one altitude")
    mu = EARTH.mu_km3_s2
    a = sma[:, :, None]
    v = np.sqrt(mu / a)
    n = np.array([mean_motion(x) for x in sma[:, 0].tolist()])[:, None, None]
    floor_radius = EARTH.radius_km + _MIN_PERIAPSIS_CLEARANCE_KM

    # Phase leg on (from, to) arguments of latitude: minimum over the rev
    # pairs with the clearance guard.  The guard region covers every
    # negative vis-viva argument, so the NaNs produced under errstate are
    # always replaced.  Both arguments of latitude lie in [0, 2 pi), so
    # their difference lies in (-2 pi, 2 pi) and one added turn wraps it
    # as np.mod would.
    dphi = from_angles.u[:, :, None] - to_angles.u[:, None, :]
    dphi = np.where(dphi < 0.0, dphi + TWO_PI, dphi)
    phase_leg = None
    for k_tgt, k_tfr in rev_pairs:
        t_phase = (TWO_PI * k_tgt + dphi) / n
        a_phase = mu ** (1.0 / 3.0) * (t_phase / (TWO_PI * k_tfr)) ** (2.0 / 3.0)
        bad = (a_phase < a) & (2.0 * a_phase - a < floor_radius)
        with np.errstate(invalid="ignore"):
            dv = 2.0 * np.abs(np.sqrt(mu * (2.0 / a - 1.0 / a_phase)) - v)
        dv[bad] = np.inf
        phase_leg = dv if phase_leg is None else np.minimum(phase_leg, dv, out=phase_leg)
    phase_leg[(dphi <= _ANGLE_TOL) | (dphi >= TWO_PI - _ANGLE_TOL)] = 0.0

    # Plane leg on (from, to) planes, through the same half-angle
    # identities as the scalar ops; a single-axis offset may also fly the
    # combined rotation.
    fi = from_angles.incl[:, :, None]
    di = to_angles.incl[:, None, :] - fi
    draan = np.mod(to_angles.raan[:, None, :] - from_angles.raan[:, :, None], TWO_PI)
    draan = np.where(draan > math.pi, draan - TWO_PI, draan)
    has_i = np.abs(di) > _ANGLE_TOL
    has_o = np.abs(draan) > _ANGLE_TOL
    incl_dv = 2.0 * v * np.sin(np.abs(di) / 2.0)
    raan_dv = 2.0 * v * np.abs(np.sin(fi) * np.sin(draan / 2.0))
    radicand = np.sin(di / 2.0) ** 2 + np.sin(fi) * np.sin(fi + di) * np.sin(draan / 2.0) ** 2
    plane_dv = 2.0 * v * np.sqrt(np.clip(radicand, 0.0, 1.0))
    plane_leg = np.select(
        [has_i & has_o, has_i, has_o],
        [plane_dv, np.minimum(incl_dv, plane_dv), np.minimum(raan_dv, plane_dv)],
        0.0,
    )
    # Gathered per satellite, rows then columns; both legs are >= +0.0 (or inf), so adding a zero leg is exact.
    costs = np.empty(from_angles.plane.shape + to_angles.plane.shape[1:])
    rows = zip(costs, plane_leg, phase_leg, from_angles.plane, to_angles.plane, from_angles.phase, to_angles.phase)
    for out, plane, phase, from_plane, to_plane, from_phase, to_phase in rows:
        np.add(plane[from_plane][:, to_plane], phase[from_phase][:, to_phase], out=out)
    return costs


def build_cost_matrix(
    grid: SlotGrid,
    time_grid: TimeGrid,
    priced: Optional[Dict[float, np.ndarray]] = None,
) -> CostMatrix:
    """Assemble c[s][k][i][j] for every stage boundary.

    Every stage reads the grid's slots (the grid does not move, the orbits
    in it drift).  Stage 0, from each satellite's initial orbit at epoch
    0, is the grid's :attr:`SlotGrid.departures`.  From stage 1 on, the
    from- and to-slots are the grid's slots at the stage-boundary epoch:
    the drift is computed once per orbit plane and Kepler's equation
    solved once per phase (:func:`_stage_angles`), the plane leg is priced
    once per pair of planes and the phase leg once per pair of distinct
    arguments of latitude, then both are gathered to the slot pairs.

    Args:
        priced: delta_v stage arrays already priced on this grid, keyed by
            stage epoch.  A stage whose epoch is there is referenced, not
            priced again, and each newly priced stage is added, so stage
            counts whose boundaries coincide share their arrays.
    """
    if priced is None:
        priced = {}
    priced.setdefault(0.0, grid.departures)
    for s in range(1, time_grid.num_stages):
        epoch = time_grid.stage_start_time(s)
        if epoch not in priced:
            angles = _stage_angles(grid.layout, epoch)
            priced[epoch] = _pairwise_costs(angles, angles, grid.max_revs)
    return CostMatrix(
        stages=tuple(priced[time_grid.stage_start_time(s)] for s in range(time_grid.num_stages)),
        budget=np.full(len(grid.slots), grid.budget),
    )
