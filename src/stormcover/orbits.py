"""Orbital state representation and Keplerian propagation with J2 secular rates.

Everything downstream (visibility, slew planning, maneuver costing) consumes the
types and propagation routines defined here. The propagator is deliberately
simple: two-body motion plus first-order J2 secular drift on the node, the
argument of periapsis and the mean motion. That substitutes for a full SGP4
ephemeris; the comparison statistics this library produces depend on relative
model performance, not absolute ephemeris fidelity, and the substitution is
noted in every generated report.

Angles are radians and lengths kilometers throughout. Epochs are seconds from
scenario start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "EarthModel",
    "EARTH",
    "ClassicalOrbitalElements",
    "GeodeticPoint",
    "TimeGrid",
    "solve_kepler",
    "mean_motion",
    "orbital_period",
    "j2_raan_rate",
    "j2_arg_periapsis_rate",
    "j2_mean_motion",
    "true_to_mean_anomaly",
    "mean_to_true_anomaly",
    "propagate",
    "geodetic_to_eci",
    "secular_angles",
    "eci_positions",
    "OrbitTable",
    "cell_positions",
]

TWO_PI = 2.0 * math.pi

# Newton iteration settings for Kepler's equation (residual tolerance in rad).
KEPLER_TOL = 1e-12
KEPLER_MAX_ITER = 50


@dataclass(frozen=True)
class EarthModel:
    """Physical constants of the (spherical) Earth model.

    Attributes:
        mu_km3_s2: Gravitational parameter, km^3/s^2.
        j2: Second zonal harmonic coefficient, dimensionless.
        radius_km: Mean equatorial radius, km. The Earth is treated as a
            sphere of this radius for both occlusion tests and geodetic
            conversion.
        rotation_rate_rad_s: Uniform sidereal rotation rate, rad/s.
    """

    mu_km3_s2: float = 398600.4418
    j2: float = 1.08262668e-3
    radius_km: float = 6378.137
    rotation_rate_rad_s: float = 7.2921159e-5


EARTH = EarthModel()


def _norm_angle(x: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    y = math.fmod(x, TWO_PI)
    return y + TWO_PI if y < 0.0 else y


@dataclass(frozen=True)
class ClassicalOrbitalElements:
    """One orbit (a, e, i, RAAN, argument of periapsis, true anomaly) at an epoch.

    This is the unit of an "orbital slot": a candidate orbit a satellite may
    occupy during a stage. Angles are normalized to [0, 2*pi) on construction.

    Attributes:
        semi_major_axis: a, km.
        eccentricity: e, dimensionless, in [0, 1).
        inclination: i, rad, in [0, pi].
        raan: Right ascension of the ascending node, rad.
        arg_periapsis: Argument of periapsis, rad.
        true_anomaly: nu, rad.
        epoch: Seconds from scenario start at which these elements hold.
    """

    semi_major_axis: float
    eccentricity: float
    inclination: float
    raan: float
    arg_periapsis: float
    true_anomaly: float
    epoch: float = 0.0

    def __post_init__(self) -> None:
        if not self.semi_major_axis > 0.0:
            raise ValueError(f"semi-major axis must be positive, got {self.semi_major_axis}")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(f"eccentricity must be in [0, 1), got {self.eccentricity}")
        if not 0.0 <= self.inclination <= math.pi:
            raise ValueError(f"inclination must be in [0, pi], got {self.inclination}")
        for name in ("raan", "arg_periapsis", "true_anomaly"):
            object.__setattr__(self, name, _norm_angle(getattr(self, name)))

    @property
    def semi_latus_rectum(self) -> float:
        """p = a (1 - e^2), km."""
        return self.semi_major_axis * (1.0 - self.eccentricity**2)

    @property
    def argument_of_latitude(self) -> float:
        """u = omega + nu in [0, 2*pi), the along-track phase for near-circular orbits."""
        return _norm_angle(self.arg_periapsis + self.true_anomaly)


@dataclass(frozen=True)
class GeodeticPoint:
    """Spherical-Earth geodetic coordinates.

    Attributes:
        latitude: rad, in [-pi/2, pi/2].
        longitude: rad, in [-pi, pi).
        altitude: km above the sphere, >= 0.
    """

    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self) -> None:
        if not -math.pi / 2 <= self.latitude <= math.pi / 2:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -math.pi <= self.longitude < math.pi:
            # Accept +pi and wrap it rather than erroring; anything else is a bug.
            if math.isclose(self.longitude, math.pi):
                object.__setattr__(self, "longitude", -math.pi)
            else:
                raise ValueError(f"longitude out of range: {self.longitude}")
        if self.altitude < 0.0:
            raise ValueError(f"altitude must be >= 0, got {self.altitude}")


@dataclass(frozen=True)
class TimeGrid:
    """Discretization of the scenario horizon.

    The horizon of ``duration`` seconds is cut into ``num_steps`` visibility
    steps of ``step`` seconds, grouped into ``num_stages`` equal stages (the
    reconfiguration sub-horizons) and into control opportunities of
    ``control_step`` seconds (the slew decision points). Step t (1-based)
    covers time [(t-1)*step, t*step); stage s covers steps
    (s-1)*steps_per_stage+1 .. s*steps_per_stage.

    Raises:
        ValueError: if the divisibility requirements fail. The stage check
            names the valid stage counts so the caller can adjust.
    """

    duration: float
    step: float
    control_step: float
    num_stages: int = 1
    num_steps: int = field(init=False)
    steps_per_stage: int = field(init=False)

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.control_step < self.step:
            raise ValueError("control_step must be >= step")
        t = self.duration / self.step
        if abs(t - round(t)) > 1e-9 or round(t) < 1:
            raise ValueError(f"duration {self.duration} s is not a positive multiple of step {self.step} s")
        object.__setattr__(self, "num_steps", int(round(t)))
        r = self.control_step / self.step
        if abs(r - round(r)) > 1e-9:
            raise ValueError(f"control_step {self.control_step} s is not a multiple of step {self.step} s")
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        if self.num_steps % self.num_stages != 0:
            divisors = [s for s in range(1, min(self.num_steps, 12) + 1) if self.num_steps % s == 0]
            raise ValueError(
                f"num_steps {self.num_steps} is not divisible by num_stages {self.num_stages}; "
                f"choose a stage count dividing it (e.g. {divisors})"
            )
        object.__setattr__(self, "steps_per_stage", self.num_steps // self.num_stages)

    @property
    def steps_per_opportunity(self) -> int:
        return int(round(self.control_step / self.step))

    @property
    def num_opportunities(self) -> int:
        """Number of control opportunities covering all steps (last may be partial)."""
        r = self.steps_per_opportunity
        return -(-self.num_steps // r)

    def opportunity_of_step(self, t_index: int) -> int:
        """0-based control opportunity containing 0-based step ``t_index``."""
        return t_index // self.steps_per_opportunity

    def opportunity_time(self, tau_index: int) -> float:
        """Start time of 0-based opportunity ``tau_index``."""
        return tau_index * self.control_step

    def stage_start_time(self, s_index: int) -> float:
        """Start time of 0-based stage ``s_index`` (its maneuver epoch)."""
        return s_index * self.steps_per_stage * self.step

    def stage_step_range(self, s_index: int) -> tuple[int, int]:
        """Half-open global 0-based step range [lo, hi) of 0-based stage ``s_index``."""
        lo = s_index * self.steps_per_stage
        return lo, lo + self.steps_per_stage


# ---------------------------------------------------------------------------
# Kepler machinery
# ---------------------------------------------------------------------------


def mean_motion(semi_major_axis: float) -> float:
    """Two-body mean motion n = sqrt(mu / a^3), rad/s."""
    return math.sqrt(EARTH.mu_km3_s2 / semi_major_axis**3)


def orbital_period(semi_major_axis: float) -> float:
    """Two-body period 2*pi*sqrt(a^3/mu), s."""
    return TWO_PI / mean_motion(semi_major_axis)


def solve_kepler(mean_anomaly: float, eccentricity: float) -> float:
    """Solve Kepler's equation E - e sin E = M for the eccentric anomaly.

    Newton iteration seeded with M (or M + e when M > pi), run to a residual
    below ``KEPLER_TOL`` radians.  The seed can overshoot at high
    eccentricity; if Newton has not converged after ``KEPLER_MAX_ITER``
    steps, bisection on [0, 2*pi) finishes the solve.

    Args:
        mean_anomaly: M, rad; any value, internally normalized to [0, 2*pi).
        eccentricity: e in [0, 1).

    Returns:
        Eccentric anomaly E in [0, 2*pi).
    """
    m = _norm_angle(mean_anomaly)
    e = eccentricity
    big_e = m + e if m > math.pi else m
    for _ in range(KEPLER_MAX_ITER):
        f = big_e - e * math.sin(big_e) - m
        if abs(f) < KEPLER_TOL:
            return _norm_angle(big_e)
        big_e -= f / (1.0 - e * math.cos(big_e))
    return float(_bisect_kepler(np.array(m), e))


def _solve_kepler_array(mean_anomaly: np.ndarray, eccentricity: float) -> np.ndarray:
    """Vectorized Newton solve of Kepler's equation, stopped for the whole array at once.

    Same seed and tolerance as :func:`solve_kepler`, but the array
    iterates until its largest residual is below ``KEPLER_TOL``, so an
    entry can take Newton steps past its own convergence and its last bits
    depend on the other entries.  Entries still off after
    ``KEPLER_MAX_ITER`` steps are solved by bisection.
    :func:`eci_positions`, and through it model A, reads these bits, which
    A's reference digests pin; ROADMAP items 2 and 6 retire this loop for
    :func:`_solve_kepler_cells` when those digests are re-recorded.
    """
    m = np.mod(mean_anomaly, TWO_PI)
    e = eccentricity
    big_e = np.where(m > math.pi, m + e, m)
    for _ in range(KEPLER_MAX_ITER):
        f = big_e - e * np.sin(big_e) - m
        if np.all(np.abs(f) < KEPLER_TOL):
            return np.mod(big_e, TWO_PI)
        big_e = big_e - f / (1.0 - e * np.cos(big_e))
    off = ~(np.abs(big_e - e * np.sin(big_e) - m) < KEPLER_TOL)
    big_e[off] = _bisect_kepler(m[off], e)
    return np.mod(big_e, TWO_PI)


def _solve_kepler_cells(mean_anomaly: np.ndarray, eccentricity: float | np.ndarray) -> np.ndarray:
    """Vectorized Newton solve of Kepler's equation, each entry stopped on its own residual.

    The stopping rule of :func:`solve_kepler`, entry by entry: an entry
    stops once its residual is below ``KEPLER_TOL``, so its bits depend on
    neither the other entries nor their order, and equal those of
    :func:`_solve_kepler_array` on that entry alone.  ``eccentricity`` is
    one value or one per entry.  Entries still off after
    ``KEPLER_MAX_ITER`` steps are solved by bisection.
    """
    m = np.mod(mean_anomaly, TWO_PI)
    e = np.broadcast_to(eccentricity, m.shape)
    big_e = np.where(m > math.pi, m + e, m)
    for _ in range(KEPLER_MAX_ITER):
        f = big_e - e * np.sin(big_e) - m
        live = ~(np.abs(f) < KEPLER_TOL)
        if not live.any():
            return np.mod(big_e, TWO_PI)
        big_e = np.where(live, big_e - f / (1.0 - e * np.cos(big_e)), big_e)
    off = ~(np.abs(big_e - e * np.sin(big_e) - m) < KEPLER_TOL)
    big_e[off] = _bisect_kepler(m[off], e[off])
    return np.mod(big_e, TWO_PI)


def _bisect_kepler(m: np.ndarray, e: float | np.ndarray) -> np.ndarray:
    """Kepler's equation by bisection on [0, 2*pi), for M in [0, 2*pi).

    E - e sin E - M rises monotonically from -M at 0 to 2*pi - M, so the
    bracket always holds the root; 64 halvings narrow it below one ulp.
    """
    lo = np.zeros_like(m)
    hi = np.full_like(m, TWO_PI)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mid - e * np.sin(mid) - m < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.mod(0.5 * (lo + hi), TWO_PI)


def true_to_mean_anomaly(true_anomaly: float, eccentricity: float) -> float:
    """Convert true anomaly to mean anomaly via the eccentric anomaly."""
    e = eccentricity
    nu = true_anomaly
    big_e = math.atan2(math.sqrt(1.0 - e * e) * math.sin(nu), e + math.cos(nu))
    return _norm_angle(big_e - e * math.sin(big_e))


def mean_to_true_anomaly(mean_anomaly: float, eccentricity: float) -> float:
    """Convert mean anomaly to true anomaly (solves Kepler's equation)."""
    e = eccentricity
    big_e = solve_kepler(mean_anomaly, e)
    return _norm_angle(
        math.atan2(math.sqrt(1.0 - e * e) * math.sin(big_e), math.cos(big_e) - e)
    )


# ---------------------------------------------------------------------------
# J2 secular rates
# ---------------------------------------------------------------------------


def j2_raan_rate(coe: ClassicalOrbitalElements) -> float:
    """Secular node drift dOmega/dt = -(3/2) n J2 (R_E/p)^2 cos i, rad/s."""
    n = mean_motion(coe.semi_major_axis)
    ratio = EARTH.radius_km / coe.semi_latus_rectum
    return -1.5 * n * EARTH.j2 * ratio**2 * math.cos(coe.inclination)


def j2_arg_periapsis_rate(coe: ClassicalOrbitalElements) -> float:
    """Secular periapsis drift domega/dt = (3/4) n J2 (R_E/p)^2 (5 cos^2 i - 1), rad/s."""
    n = mean_motion(coe.semi_major_axis)
    ratio = EARTH.radius_km / coe.semi_latus_rectum
    return 0.75 * n * EARTH.j2 * ratio**2 * (5.0 * math.cos(coe.inclination) ** 2 - 1.0)


def j2_mean_motion(coe: ClassicalOrbitalElements) -> float:
    """J2-corrected mean motion, rad/s.

    n_bar = n [1 + (3/4) J2 (R_E/p)^2 sqrt(1-e^2) (3 cos^2 i - 1)]
    """
    n = mean_motion(coe.semi_major_axis)
    ratio = EARTH.radius_km / coe.semi_latus_rectum
    correction = (
        0.75
        * EARTH.j2
        * ratio**2
        * math.sqrt(1.0 - coe.eccentricity**2)
        * (3.0 * math.cos(coe.inclination) ** 2 - 1.0)
    )
    return n * (1.0 + correction)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def propagate(coe: ClassicalOrbitalElements, dt: float, include_j2: bool = True) -> ClassicalOrbitalElements:
    """Advance elements by ``dt`` seconds.

    The shape of the orbit (a, e, i) is untouched. The mean anomaly advances
    at the J2-corrected rate (or the two-body rate if ``include_j2`` is
    false); RAAN and the argument of periapsis drift at their J2 secular
    rates.

    Args:
        coe: Elements at their own epoch.
        dt: Non-negative time offset, s.
        include_j2: Apply the secular J2 model. Disable for pure two-body
            motion (period-closure checks and the like).

    Returns:
        Elements at epoch + dt.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return coe
    if include_j2:
        n_eff = j2_mean_motion(coe)
        raan = coe.raan + j2_raan_rate(coe) * dt
        argp = coe.arg_periapsis + j2_arg_periapsis_rate(coe) * dt
    else:
        n_eff = mean_motion(coe.semi_major_axis)
        raan = coe.raan
        argp = coe.arg_periapsis
    m0 = true_to_mean_anomaly(coe.true_anomaly, coe.eccentricity)
    nu = mean_to_true_anomaly(m0 + n_eff * dt, coe.eccentricity)
    return replace(
        coe,
        raan=_norm_angle(raan),
        arg_periapsis=_norm_angle(argp),
        true_anomaly=nu,
        epoch=coe.epoch + dt,
    )


# ---------------------------------------------------------------------------
# Ground points and batch propagation
# ---------------------------------------------------------------------------


def geodetic_to_eci(point: GeodeticPoint, t: float) -> np.ndarray:
    """Inertial position of a ground point at time ``t``.

    Spherical Earth rotated by theta = rotation_rate * t, so the returned
    norm is exactly radius + altitude.
    """
    theta = EARTH.rotation_rate_rad_s * t
    lon = point.longitude + theta
    rho = EARTH.radius_km + point.altitude
    clat = math.cos(point.latitude)
    return np.array(
        [rho * clat * math.cos(lon), rho * clat * math.sin(lon), rho * math.sin(point.latitude)]
    )


def secular_angles(coe: ClassicalOrbitalElements, dt: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """J2 mean motion, RAAN and argument of periapsis after ``dt`` seconds.

    The secular part of :func:`eci_positions`.  None depends on the true
    anomaly, so every slot on one orbit plane gets the same arrays;
    :class:`OrbitTable` holds the same constants for many orbits.

    Returns:
        (n_eff in rad/s, RAAN array, argument-of-periapsis array), the
        angles shaped like ``dt`` and not wrapped.
    """
    n_eff = j2_mean_motion(coe)
    raan = coe.raan + j2_raan_rate(coe) * dt
    argp = coe.arg_periapsis + j2_arg_periapsis_rate(coe) * dt
    return n_eff, raan, argp


def eci_positions(coe: ClassicalOrbitalElements, times: np.ndarray) -> np.ndarray:
    """Inertial positions of one orbit at many absolute times.

    Vectorized positions of ``propagate(coe, t - epoch)`` (with J2) for
    each time t, which must be >= the element epoch.

    Args:
        coe: Elements at their epoch.
        times: Absolute times, s, shape (N,).

    Returns:
        Array of shape (N, 3), km.
    """
    dt = _elapsed(coe.epoch, times)
    e = coe.eccentricity
    n_eff, raan, argp = secular_angles(coe, dt)
    m0 = true_to_mean_anomaly(coe.true_anomaly, e)
    big_e = _solve_kepler_array(m0 + n_eff * dt, e)
    i = coe.inclination
    return _positions(e, coe.semi_latus_rectum, math.cos(i), math.sin(i), big_e, raan, argp)


class OrbitTable(NamedTuple):
    """What :func:`eci_positions` derives from each of R orbits before it
    reads a time, one (R,) array per field, in the same arithmetic, so
    every position built from it carries the same bits.  Indexing the
    fields with one integer gives one orbit's scalars (:meth:`take`).
    """

    epoch: np.ndarray
    eccentricity: np.ndarray
    semi_latus_rectum: np.ndarray
    cos_i: np.ndarray
    sin_i: np.ndarray
    n_eff: np.ndarray  # J2 mean motion, rad/s
    raan: np.ndarray  # at epoch; drifts at raan_rate
    raan_rate: np.ndarray
    argp: np.ndarray  # at epoch; drifts at argp_rate
    argp_rate: np.ndarray
    mean_anomaly: np.ndarray  # at epoch

    @classmethod
    def of(cls, planes: Sequence[ClassicalOrbitalElements], phases, plane, phase) -> "OrbitTable":
        """The table of the orbits whose i-th lies on orbit plane
        ``planes[plane[i]]`` with the eccentricity and true anomaly of
        ``phases[phase[i]]``.  Everything but the mean anomaly is computed
        once per plane, the mean anomaly once per phase."""
        shared = [
            (c.epoch, c.eccentricity, c.semi_latus_rectum, math.cos(c.inclination), math.sin(c.inclination),
             j2_mean_motion(c), c.raan, j2_raan_rate(c), c.arg_periapsis, j2_arg_periapsis_rate(c))
            for c in planes
        ]
        mean_anomaly = np.array([true_to_mean_anomaly(c.true_anomaly, c.eccentricity) for c in phases])
        return cls(*(np.array(column)[plane] for column in zip(*shared)), mean_anomaly[phase])

    def take(self, index) -> "OrbitTable":
        """The orbits at ``index``: an index array, or one integer for scalars."""
        return OrbitTable(*(field[index] for field in self))


def cell_positions(orbits: OrbitTable, which: np.ndarray, times: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Inertial positions of many orbits, each at its own selected times.

    Cell i is ``eci_positions(orbit which[i], times[[steps[i]]])[0]`` bit
    for bit: Kepler's equation runs on the cells alone, each stopped on
    its own residual (:func:`_solve_kepler_cells`), so a cell's bits
    depend on neither the other cells nor their order.  A cell may differ
    in its last bits from the same time inside a longer
    :func:`eci_positions` call, whose Newton loop stops for all its times
    at once.

    Args:
        orbits: the orbits' constants (:class:`OrbitTable`).
        which: (N,) index into ``orbits`` of each cell.
        times: Absolute times, s, shape (T,).
        steps: (N,) index into ``times`` of each cell, whose time may not
            precede the epoch of the cell's orbit.

    Returns:
        Array of shape (N, 3), km.
    """
    c = orbits.take(which)
    dt = _elapsed(c.epoch, np.asarray(times, dtype=float)[steps])
    big_e = _solve_kepler_cells(c.mean_anomaly + c.n_eff * dt, c.eccentricity)
    raan, argp = c.raan + c.raan_rate * dt, c.argp + c.argp_rate * dt
    return _positions(c.eccentricity, c.semi_latus_rectum, c.cos_i, c.sin_i, big_e, raan, argp)


def _elapsed(epoch: float | np.ndarray, times: np.ndarray) -> np.ndarray:
    """Seconds from the element epoch to each time; none may precede it."""
    dt = np.asarray(times, dtype=float) - epoch
    if dt.size and float(dt.min()) < -1e-9:
        raise ValueError("times precede the element epoch")
    return dt


def _positions(
    e: float | np.ndarray,
    p: float | np.ndarray,
    cos_i: float | np.ndarray,
    sin_i: float | np.ndarray,
    big_e: np.ndarray,
    raan: np.ndarray,
    argp: np.ndarray,
) -> np.ndarray:
    """Inertial positions from the orbit shape (e, p, cos i, sin i),
    eccentric anomalies and drifted RAAN and argument of periapsis, all
    broadcast together."""
    nu = np.mod(np.arctan2(np.sqrt(1.0 - e * e) * np.sin(big_e), np.cos(big_e) - e), TWO_PI)
    r_mag = p / (1.0 + e * np.cos(nu))
    u = argp + nu
    cu, su = np.cos(u), np.sin(u)
    co, so = np.cos(raan), np.sin(raan)
    out = np.empty(u.shape + (3,), dtype=float)
    out[..., 0] = r_mag * (co * cu - so * su * cos_i)
    out[..., 1] = r_mag * (so * cu + co * su * cos_i)
    out[..., 2] = r_mag * (su * sin_i)
    return out
