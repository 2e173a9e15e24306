"""Independent reference implementations used only by the test suite.

Each function here re-derives a quantity the library computes, using a
different algorithm or algebraic arrangement where possible (bisection
instead of Newton, angular-momentum vectors instead of the spherical law of
cosines, explicit factor-matrix products instead of closed forms, plain
Python loops instead of vectorized code). Tests compare library output
against these. Nothing in this module imports the package under test; an
oracle that must share the library's kernels takes them as arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MU = 398600.4418  # km^3/s^2
J2 = 1.08262668e-3
R_EARTH = 6378.137  # km
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Kepler / propagation oracles
# ---------------------------------------------------------------------------


def kepler_bisection(mean_anomaly: float, ecc: float, tol: float = 1e-13) -> float:
    """Solve E - e sin E = M by bisection (monotone for e < 1)."""
    m = mean_anomaly % TWO_PI
    lo, hi = 0.0, TWO_PI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - ecc * math.sin(mid) - m > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# The array Newton solve of Kepler's equation as the library ran it on
# one whole row before it solved blocks of rows, kept verbatim as the
# reference for _solve_kepler_array; the library's bisection finish is
# passed in.

KEPLER_TOL = 1e-12
KEPLER_MAX_ITER = 50
# Allowance (rad) for floating-point rounding per Newton step, in the step
# bound of kepler_certified_steps.
KEPLER_ROUNDING = 1e-13


def kepler_newton_row(mean_anomaly: np.ndarray, ecc: float, bisect) -> tuple[np.ndarray, int]:
    """(E, Newton steps taken) for a 1-D array that iterates until every
    entry converges; entries still off after the last step are bisected."""
    m = np.mod(mean_anomaly, TWO_PI)
    e = ecc
    big_e = np.where(m > math.pi, m + e, m)
    for n in range(KEPLER_MAX_ITER):
        f = big_e - e * np.sin(big_e) - m
        if np.max(np.abs(f)) < KEPLER_TOL:
            return np.mod(big_e, TWO_PI), n
        big_e = big_e - f / (1.0 - e * np.cos(big_e))
    off = ~(np.abs(big_e - e * np.sin(big_e) - m) < KEPLER_TOL)
    big_e[off] = bisect(m[off], e)
    return np.mod(big_e, TWO_PI), KEPLER_MAX_ITER


# The certificate path: how the library's slot-visibility kernel held a
# subset of each slot's steps to the bits of the slot's whole
# eci_positions row, before each cell stopped Newton on its own residual.
# Kept as the reference for that kernel on the corpus.


def kepler_newton_rows(
    mean_anomaly: np.ndarray, eccentricity, bisect, starts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Newton solve of Kepler's equation on rows, each stopped on its own residual.

    The rows are those of a 2-D ``mean_anomaly`` or, given ``starts``, the
    runs of a 1-D one that begin at each of those ascending indices (every
    run non-empty).  ``eccentricity`` is one value or, for runs, one per
    entry, equal along a run.  A row iterates until its largest residual
    is below ``KEPLER_TOL``, as :func:`kepler_newton_row` does.  Entries of
    a row still off after ``KEPLER_MAX_ITER`` steps are bisected.

    Returns:
        (E in [0, 2*pi) shaped like ``mean_anomaly``, the Newton steps each
        row took before its residual check passed; ``KEPLER_MAX_ITER`` for
        a row that went on to bisection).
    """
    m = np.mod(mean_anomaly, TWO_PI)
    if starts is None:
        rows, width = m.shape
        if not m.size:
            return m, np.zeros(rows, dtype=int)
        big_e, steps = kepler_newton_rows(m.ravel(), eccentricity, bisect, np.arange(0, m.size, width))
        return big_e.reshape(m.shape), steps
    e = eccentricity
    big_e = np.where(m > math.pi, m + e, m)
    steps = np.full(starts.size, KEPLER_MAX_ITER)
    live = slice(None)  # the entries of rows still iterating
    for n in range(KEPLER_MAX_ITER):
        f = big_e - e * np.sin(big_e) - m
        stop = (np.maximum.reduceat(np.abs(f), starts) < KEPLER_TOL) & (steps == KEPLER_MAX_ITER)
        if stop.any():
            steps[stop] = n
            if not (steps == KEPLER_MAX_ITER).any():
                return np.mod(big_e, TWO_PI), steps
            live = np.repeat(steps == KEPLER_MAX_ITER, np.diff(starts, append=m.size))
        big_e[live] -= (f / (1.0 - e * np.cos(big_e)))[live]
    off = ~(np.abs(big_e - e * np.sin(big_e) - m) < KEPLER_TOL)
    big_e[off] = bisect(m[off], np.broadcast_to(e, m.shape)[off])
    return np.mod(big_e, TWO_PI), steps


def kepler_certified_steps(eccentricity: float) -> int | None:
    """Newton steps after which every row of :func:`kepler_newton_rows` has stopped.

    Returns the least n such that, at eccentricity e, the residual check
    after n steps passes for every mean anomaly, or None when the bound
    below proves no such n within ``KEPLER_MAX_ITER`` (e above about
    0.618).  With g(E) = E - e sin E - M, root E* and d_n = |E_n - E*|:

    - the seed error is d_0 <= 2e: E* - M = e sin E*, so the seed M is
      within e, and the seed M + e (taken when M > pi) within 2e;
    - Newton gives d_{n+1} <= e / (2 (1 - e)) d_n^2, because
      |g''| = e |sin E| <= e and g' = 1 - e cos E >= 1 - e everywhere;
    - the residual is |g(E_n)| <= (1 + e) d_n, since g' <= 1 + e;
    - floating point adds to each step's iterate, and to the computed
      residual, a few ulps of numbers below 8 divided by g' >= 0.38
      (about 2e-14 where a certificate exists); ``KEPLER_ROUNDING``
      (1e-13) allows five times that.

    So d_0 <= D_0 = 2e with D_{n+1} = e / (2 (1 - e)) D_n^2 + 1e-13, and
    the check passes once (1 + e) D_n + 1e-13 < ``KEPLER_TOL``.  A row
    over a subset of a longer row's entries has the same iterates and so
    stops no later; if it took exactly the certified count, the longer
    row stopped at that step too, and the two agree bit for bit.
    """
    e = eccentricity
    rate = e / (2.0 * (1.0 - e))
    bound = 2.0 * e
    for n in range(KEPLER_MAX_ITER):
        if (1.0 + e) * bound + KEPLER_ROUNDING < KEPLER_TOL:
            return n
        bound = rate * bound * bound + KEPLER_ROUNDING
    return None


def certified_cell_positions(orbits, table, which, times, steps) -> np.ndarray:
    """The library's ``cell_positions`` as it ran under the certificate:
    cell i is ``eci_positions(orbit which[i], times)[steps[i]]`` bit for
    bit.  The cells are grouped into one run per orbit, each solved as one
    Newton row (:func:`kepler_newton_rows`); a run that took other than
    the certified step count, and every run of an orbit with no
    certificate, is solved again on its orbit's full row through
    ``orbits._solve_kepler_array``.  ``table`` is the library's
    ``OrbitTable`` and its ``orbits`` module is passed in for its kernels."""
    order = np.argsort(which, kind="stable")
    which, steps = np.asarray(which)[order], np.asarray(steps)[order]
    times = np.asarray(times, dtype=float)
    big_e = np.empty(which.size)
    c = table.take(which)
    dt = orbits._elapsed(c.epoch, times[steps])
    if which.size:
        starts = np.flatnonzero(np.diff(which, prepend=-1))
        ends = np.append(starts[1:], which.size)
        m = c.mean_anomaly + c.n_eff * dt
        big_e, took = kepler_newton_rows(m, c.eccentricity, orbits._bisect_kepler, starts)
        for r, (q, run) in enumerate(zip(which[starts], map(slice, starts, ends))):
            if took[r] != kepler_certified_steps(float(table.eccentricity[q])):
                full = table.mean_anomaly[q] + table.n_eff[q] * (times - table.epoch[q])
                big_e[run] = orbits._solve_kepler_array(full, table.eccentricity[q])[steps[run]]
    raan, argp = c.raan + c.raan_rate * dt, c.argp + c.argp_rate * dt
    pos = orbits._positions(c.eccentricity, c.semi_latus_rectum, c.cos_i, c.sin_i, big_e, raan, argp)
    out = np.empty_like(pos)
    out[order] = pos
    return out


# Element-to-state conversion, the reference ``eci_positions`` is tested
# against; the library itself only needs positions, in batches.


@dataclass(frozen=True)
class StateVector:
    """Inertial position/velocity at a time.

    Attributes:
        position: ECI position, km, shape (3,).
        velocity: ECI velocity, km/s, shape (3,).
        time: Seconds from scenario start.
    """

    position: np.ndarray
    velocity: np.ndarray
    time: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
        if self.position.shape != (3,) or self.velocity.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")


def coe_to_state(coe) -> StateVector:
    """Convert elements to an inertial state vector.

    Perifocal position/velocity from the conic equation, rotated into ECI by
    the 3-1-3 sequence (RAAN about z, inclination about x, argument of
    periapsis about z).
    """
    p = coe.semi_latus_rectum
    e = coe.eccentricity
    nu = coe.true_anomaly
    r_mag = p / (1.0 + e * math.cos(nu))
    r_pf = np.array([r_mag * math.cos(nu), r_mag * math.sin(nu), 0.0])
    v_scale = math.sqrt(MU / p)
    v_pf = np.array([-v_scale * math.sin(nu), v_scale * (e + math.cos(nu)), 0.0])

    co, so = math.cos(coe.raan), math.sin(coe.raan)
    ci, si = math.cos(coe.inclination), math.sin(coe.inclination)
    cw, sw = math.cos(coe.arg_periapsis), math.sin(coe.arg_periapsis)
    rot = np.array(
        [
            [co * cw - so * sw * ci, -co * sw - so * cw * ci, so * si],
            [so * cw + co * sw * ci, -so * sw + co * cw * ci, -co * si],
            [sw * si, cw * si, ci],
        ]
    )
    return StateVector(position=rot @ r_pf, velocity=rot @ v_pf, time=coe.epoch)


def visviva_speed(r_km: float, a_km: float) -> float:
    """Vis-viva: v = sqrt(mu (2/r - 1/a))."""
    return math.sqrt(MU * (2.0 / r_km - 1.0 / a_km))


def raan_drift_deg_per_day(a_km: float, ecc: float, inc_rad: float) -> float:
    """Secular J2 node rate, arranged with the (R/a)^2 / (1-e^2)^2 form."""
    n = math.sqrt(MU / a_km**3)
    rate = -1.5 * n * J2 * (R_EARTH / a_km) ** 2 * math.cos(inc_rad) / (1.0 - ecc**2) ** 2
    return math.degrees(rate) * 86400.0


def argp_drift_deg_per_day(a_km: float, ecc: float, inc_rad: float) -> float:
    n = math.sqrt(MU / a_km**3)
    rate = (
        0.75
        * n
        * J2
        * (R_EARTH / a_km) ** 2
        * (5.0 * math.cos(inc_rad) ** 2 - 1.0)
        / (1.0 - ecc**2) ** 2
    )
    return math.degrees(rate) * 86400.0


# ---------------------------------------------------------------------------
# Rotation-matrix oracles (explicit factor matrices, multiplied numerically)
# ---------------------------------------------------------------------------


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rot_y(b: float) -> np.ndarray:
    c, s = math.cos(b), math.sin(b)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_z(g: float) -> np.ndarray:
    c, s = math.cos(g), math.sin(g)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_product(a: float, b: float, g: float) -> np.ndarray:
    """M_x(alpha) @ M_y(beta) @ M_z(gamma), the order-of-rotation product."""
    return rot_x(a) @ rot_y(b) @ rot_z(g)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Numerically stable angle via the cross/dot form."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


# The pointing helpers the library exported before its planner batched them
# away: the boresight after a slew, and the clamped arccos angle the
# objective sums.  ``rotation`` is the library's rotation_matrix under test.


def pointing_direction(nadir: np.ndarray, angles, rotation) -> np.ndarray:
    """Boresight after slewing: the rotation applied to the nadir vector."""
    return rotation(*angles) @ np.asarray(nadir, dtype=float)


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


# ---------------------------------------------------------------------------
# Maneuver-cost oracles
# ---------------------------------------------------------------------------


def phasing_cost_brute(a_km: float, dphi_rad: float, max_revs: int) -> float:
    """Exhaustive minimum over (k_tgt, k_tfr) of the two-impulse phasing cost.

    Wait time t = (2 pi k_tgt + dphi) / n, transfer ellipse semi-major axis
    from its period t / k_tfr, both impulses at the departure radius a.
    Combinations whose phasing-orbit periapsis dips below R_EARTH + 100 km
    are discarded. Returns math.inf if none survive.
    """
    if dphi_rad == 0.0:
        return 0.0
    n = math.sqrt(MU / a_km**3)
    v_circ = math.sqrt(MU / a_km)
    best = math.inf
    for k_tgt in range(1, max_revs + 1):
        t_phase = (TWO_PI * k_tgt + dphi_rad) / n
        for k_tfr in range(1, max_revs + 1):
            a_ph = (MU * (t_phase / (TWO_PI * k_tfr)) ** 2) ** (1.0 / 3.0)
            if a_ph < a_km and 2.0 * a_ph - a_km < R_EARTH + 100.0:
                continue
            arg = MU * (2.0 / a_km - 1.0 / a_ph)
            if arg <= 0.0:
                continue
            dv = 2.0 * abs(math.sqrt(arg) - v_circ)
            best = min(best, dv)
    return best


# The 16 rev-pair searches and the eight-way strategy stack the library
# priced phasing and transfers with before it tried only the two rev pairs
# that can win, kept verbatim as their bit-for-bit reference.

_ANGLE_TOL = 1e-12
_FLOOR_RADIUS_KM = R_EARTH + 100.0


def phasing_cost_loop(a_km: float, dphi_rad: float, max_revs: int) -> tuple[float, float]:
    """(delta_v, transfer_time) of the cheapest rev pair, for a phase
    offset in (0, 2 pi); the first pair in loop order wins ties."""
    n = math.sqrt(MU / a_km**3)
    v_circ = math.sqrt(MU / a_km)
    best_dv = math.inf
    best_time = math.inf
    for k_tgt in range(1, max_revs + 1):
        t_phase = (TWO_PI * k_tgt + dphi_rad) / n
        for k_tfr in range(1, max_revs + 1):
            a_phase = MU ** (1.0 / 3.0) * (t_phase / (TWO_PI * k_tfr)) ** (2.0 / 3.0)
            if a_phase < a_km and 2.0 * a_phase - a_km < _FLOOR_RADIUS_KM:
                continue
            dv = 2.0 * abs(math.sqrt(MU * (2.0 / a_km - 1.0 / a_phase)) - v_circ)
            if dv < best_dv:
                best_dv = dv
                best_time = t_phase
    return best_dv, best_time


def pairwise_costs_loop(from_slots, to_slots, max_revs: int) -> np.ndarray:
    """(len(from_slots), len(to_slots)) cheapest delta_v between slots
    sharing one altitude: the phasing minimum over all 16 rev pairs, then
    the minimum over the eight strategies' masked candidates."""
    a = from_slots[0].semi_major_axis
    fi = np.array([s.inclination for s in from_slots])
    fo = np.array([s.raan for s in from_slots])
    fu = np.array([s.argument_of_latitude for s in from_slots])
    ti = np.array([s.inclination for s in to_slots])
    to = np.array([s.raan for s in to_slots])
    tu = np.array([s.argument_of_latitude for s in to_slots])

    di = ti[None, :] - fi[:, None]
    draan = np.mod(to[None, :] - fo[:, None], TWO_PI)
    draan = np.where(draan > math.pi, draan - TWO_PI, draan)
    dphi = np.mod(fu[:, None] - tu[None, :], TWO_PI)
    has_i = np.abs(di) > _ANGLE_TOL
    has_o = np.abs(draan) > _ANGLE_TOL
    has_p = (dphi > _ANGLE_TOL) & (dphi < TWO_PI - _ANGLE_TOL)

    v = math.sqrt(MU / a)
    n = math.sqrt(MU / a**3)

    phase_dv = np.full(dphi.shape, np.inf)
    for k_tgt in range(1, max_revs + 1):
        t_phase = (TWO_PI * k_tgt + dphi) / n
        for k_tfr in range(1, max_revs + 1):
            a_phase = MU ** (1.0 / 3.0) * (t_phase / (TWO_PI * k_tfr)) ** (2.0 / 3.0)
            bad = (a_phase < a) & (2.0 * a_phase - a < _FLOOR_RADIUS_KM)
            with np.errstate(invalid="ignore"):
                dv = 2.0 * np.abs(np.sqrt(MU * (2.0 / a - 1.0 / a_phase)) - v)
            phase_dv = np.minimum(phase_dv, np.where(bad, np.inf, dv))
    phase_dv = np.where(has_p, phase_dv, 0.0)

    incl_dv = 2.0 * v * np.sin(np.abs(di) / 2.0)
    i2 = fi[:, None] + di
    raan_dv = 2.0 * v * np.abs(np.sin(fi[:, None]) * np.sin(draan / 2.0))
    radicand = np.sin(di / 2.0) ** 2 + np.sin(fi[:, None]) * np.sin(i2) * np.sin(draan / 2.0) ** 2
    plane_dv = 2.0 * v * np.sqrt(np.clip(radicand, 0.0, 1.0))

    inf = np.inf
    stay = np.where(~(has_i | has_o | has_p), 0.0, inf)
    only_p = has_p & ~(has_i | has_o)
    only_i = has_i & ~(has_o | has_p)
    only_o = has_o & ~(has_i | has_p)
    plane_ok = (has_i | has_o) & ~has_p
    ip = has_i & ~has_o & has_p
    op = has_o & ~has_i & has_p
    pp = (has_i | has_o) & has_p
    stack = np.stack(
        [
            stay,
            np.where(only_p, phase_dv, inf),
            np.where(only_i, incl_dv, inf),
            np.where(only_o, raan_dv, inf),
            np.where(plane_ok, plane_dv, inf),
            np.where(ip, incl_dv + phase_dv, inf),
            np.where(op, raan_dv + phase_dv, inf),
            np.where(pp, plane_dv + phase_dv, inf),
        ]
    )
    return stack.min(axis=0)


def plane_rotation_angle(i1: float, raan1: float, i2: float, raan2: float) -> float:
    """Angle between two orbit planes via their angular-momentum directions.

    h_hat(i, O) = (sin i sin O, -sin i cos O, cos i); the rotation angle of a
    single-impulse plane change is the angle between the two h_hat vectors.
    """
    h1 = np.array([math.sin(i1) * math.sin(raan1), -math.sin(i1) * math.cos(raan1), math.cos(i1)])
    h2 = np.array([math.sin(i2) * math.sin(raan2), -math.sin(i2) * math.cos(raan2), math.cos(i2)])
    return angle_between(h1, h2)


def plane_change_dv(v_circ: float, rotation_angle: float) -> float:
    return 2.0 * v_circ * math.sin(0.5 * rotation_angle)


def transfer_cost_brute(
    a_km: float,
    i1: float,
    raan1: float,
    u1: float,
    i2: float,
    raan2: float,
    u2: float,
    max_revs: int,
    angle_tol: float = 1e-12,
) -> float:
    """Minimum delta-v over the seven strategy types, enumerated explicitly.

    u1, u2 are arguments of latitude; the phase to make up is
    (u1 - u2) mod 2 pi. A strategy is admissible only if it nulls every
    nonzero offset it does not address.
    """
    v = math.sqrt(MU / a_km)
    di = i2 - i1
    draan = (raan2 - raan1 + math.pi) % TWO_PI - math.pi
    dphi = (u1 - u2) % TWO_PI
    has_i = abs(di) > angle_tol
    has_o = abs(draan) > angle_tol
    has_p = dphi > angle_tol and TWO_PI - dphi > angle_tol

    cost_i = plane_change_dv(v, abs(di))
    theta_o = plane_rotation_angle(i1, 0.0, i1, draan)
    cost_o = plane_change_dv(v, theta_o)
    theta_c = plane_rotation_angle(i1, raan1, i2, raan2)
    cost_c = plane_change_dv(v, theta_c)
    cost_p = phasing_cost_brute(a_km, dphi, max_revs) if has_p else 0.0

    candidates = []
    if not (has_i or has_o or has_p):
        candidates.append(0.0)
    if not (has_i or has_o):
        candidates.append(cost_p)
    if not (has_o or has_p):
        candidates.append(cost_i)
    if not (has_i or has_p):
        candidates.append(cost_o)
    if not has_p:
        candidates.append(cost_c)
    if not has_o:
        candidates.append(cost_i + cost_p)
    if not has_i:
        candidates.append(cost_o + cost_p)
    candidates.append(cost_c + cost_p)
    return min(candidates)


# ---------------------------------------------------------------------------
# Agility oracles
# ---------------------------------------------------------------------------


def schedule_violations(
    angles: np.ndarray,
    max_angle: float,
    rates: tuple[float, float, float],
    control_step: float,
    tol: float = 1e-9,
) -> list[str]:
    """Walk a schedule and list every constraint violation (empty = feasible)."""
    problems: list[str] = []
    prev = np.zeros(3)
    for tau, row in enumerate(np.asarray(angles, float)):
        for axis in range(3):
            # written so that a NaN angle is a violation
            if not abs(row[axis]) <= max_angle + tol:
                problems.append(f"opportunity {tau}: axis {axis} angle {row[axis]} exceeds {max_angle}")
            if not abs(row[axis] - prev[axis]) <= rates[axis] * control_step + tol:
                problems.append(f"opportunity {tau}: axis {axis} rate exceeded")
        prev = row
    return problems


def grid_best_objective(objective, max_angle: float, step_deg: float = 5.0) -> float:
    """Brute-force minimum of a per-opportunity pointing objective on a cubic grid."""
    vals = np.deg2rad(np.arange(-math.degrees(max_angle), math.degrees(max_angle) + 1e-9, step_deg))
    best = math.inf
    for a in vals:
        for b in vals:
            for g in vals:
                best = min(best, objective(a, b, g))
    return best


def degraded_reward(step_visible: np.ndarray, step_angles: np.ndarray, max_angle: float) -> float:
    """Eq-style degraded reward sum, computed with plain loops."""
    z = 0.0
    for vis, (a, b, g) in zip(step_visible, step_angles):
        if vis:
            z += 1.0 - (abs(a) + abs(b) + abs(g)) / (2.0 * 3.0 * max_angle)
    return z


# The per-satellite greedy slew planner the library ran before it batched
# satellites, kept as the bit-for-bit reference: one satellite at a time,
# one opportunity at a time, with 1-D vector arithmetic throughout.

_GRID_POINTS = 7
_DESCENT_ITERS = 25
_STEP_LADDER = 0.5 ** np.arange(22)


def slew_objective(angles: np.ndarray, nadir: np.ndarray, target_dirs: np.ndarray) -> np.ndarray:
    """Sums of off-target angles for (B, 3) angle triples, unit nadir (3,)
    and unit target directions (P, 3)."""
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


def candidate_key(objective: float, angles: np.ndarray) -> tuple:
    return (objective, float(np.abs(angles).sum()))


# Candidate index of ``prev`` in the multistart: it follows the grid nodes.
PREV_SLOT = _GRID_POINTS**3


def multistart_winner(prev, nadir, target_dirs, lower, upper) -> tuple:
    """Grid nodes, then prev, then the box point nearest zero; returns the
    winner's candidate index, angles and objective.  Ties go to the smallest
    total slew, then the lowest index."""
    axes = [np.linspace(lower[i], upper[i], _GRID_POINTS) for i in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    extra = np.stack([np.clip(prev, lower, upper), np.clip(np.zeros(3), lower, upper)])
    candidates = np.concatenate([grid, extra])
    values = slew_objective(candidates, nadir, target_dirs)
    order = np.lexsort((np.abs(candidates).sum(axis=1), values))
    return int(order[0]), candidates[order[0]].copy(), float(values[order[0]])


def optimize_one_opportunity(prev, nadir, target_dirs, lower, upper) -> tuple:
    """Grid multistart then projected gradient descent inside [lower, upper]^3;
    ties go to the smallest total slew."""
    if target_dirs.shape[0] == 0:
        return np.clip(np.zeros(3), lower, upper), 0.0

    _, best, best_val = multistart_winner(prev, nadir, target_dirs, lower, upper)

    x = best.copy()
    fx = best_val
    if fx > 1e-9:
        h = 1e-6
        for _ in range(_DESCENT_ITERS):
            probes = np.repeat(x[None, :], 6, axis=0)
            probes[[0, 1, 2], [0, 1, 2]] += h
            probes[[3, 4, 5], [0, 1, 2]] -= h
            pv = slew_objective(np.clip(probes, lower, upper), nadir, target_dirs)
            grad = (pv[:3] - pv[3:]) / (2.0 * h)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-12:
                break
            trials = np.clip(x[None, :] - np.outer(_STEP_LADDER / gnorm, grad), lower, upper)
            tv = slew_objective(trials, nadir, target_dirs)
            i = int(np.argmin(tv))
            if tv[i] >= fx - 1e-14:
                break
            x = trials[i]
            fx = float(tv[i])
        if candidate_key(fx, x) < candidate_key(best_val, best):
            best, best_val = x, fx
    return best, best_val


def greedy_slew_schedule(positions, targets, rate_budget, max_angle, chained=True) -> tuple:
    """One satellite's greedy schedule from its (n, 3) positions at the
    control opportunities; returns (angles (n, 3), objective).  Falls back
    to the all-zeros schedule when the greedy total loses to nadir.
    Without ``chained`` every opportunity starts from previous angles of
    zero."""
    n_opps = positions.shape[0]
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
        lower = np.maximum(-max_angle, prev - rate_budget)
        upper = np.minimum(max_angle, prev + rate_budget)
        angles, value = optimize_one_opportunity(prev, nadir, dirs, lower, upper)
        rows.append(angles)
        greedy_total += value
        if dirs.shape[0]:
            nadir_total += float(slew_objective(np.zeros((1, 3)), nadir, dirs)[0])
        if chained:
            prev = angles
    if greedy_total > nadir_total:
        return np.zeros((n_opps, 3)), nadir_total
    return np.array(rows).reshape(n_opps, 3), greedy_total


def independent_slew_schedule(positions, targets, max_angle) -> tuple:
    """The schedule of a rate box that cannot bind: each opportunity solved
    on its own, ``optimize_one_opportunity(np.zeros(3), ...)`` in the full
    angle box; returns (angles (n, 3), objective) as
    :func:`greedy_slew_schedule` does."""
    return greedy_slew_schedule(positions, targets, np.full(3, math.inf), max_angle, chained=False)


# ---------------------------------------------------------------------------
# Visibility oracles
# ---------------------------------------------------------------------------

# The scalar visibility check the library shipped before its vectorised
# mask, kept as the mask's reference.  It reads ``sat_state.position`` and
# ``fov.half_angle`` only, so it takes a StateVector and the library's
# FovSpec without importing it.

_COINCIDENT_KM = 1e-9


def target_pointing(sat_pos, target_pos) -> np.ndarray:
    """Unit vector from the satellite toward the target.

    Raises:
        ValueError: if the two points coincide (no direction is defined).
    """
    d = np.asarray(target_pos, dtype=float) - np.asarray(sat_pos, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm < _COINCIDENT_KM:
        raise ValueError("satellite and target positions coincide")
    return d / norm


def _segment_blocked(sat_pos: np.ndarray, target_pos: np.ndarray) -> bool:
    """True when the straight segment satellite -> target dips inside the
    Earth; grazing it, or an endpoint exactly on it, is still clear."""
    d = target_pos - sat_pos
    dd = float(d @ d)
    if dd == 0.0:
        return False
    u = -float(sat_pos @ d) / dd
    if not 0.0 < u < 1.0:
        return False
    rr = float(sat_pos @ sat_pos)
    closest_sq = rr - (float(sat_pos @ d)) ** 2 / dd
    return closest_sq < R_EARTH**2


def is_visible(sat_state, target_eci, fov, cone_axis=None) -> bool:
    """Inside the cone (boresight ``cone_axis``, nadir when omitted) and
    above the Earth's horizon."""
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
    return not _segment_blocked(pos, tgt)


def line_of_sight(positions, step_targets) -> np.ndarray:
    """Per step: does the satellite at ``positions[t]`` see the target
    ``step_targets[t]`` past the Earth, whatever its pointing?  A missing
    (NaN) or coincident target is out of sight."""
    return np.array([
        bool(np.all(np.isfinite(tgt)) and np.any(tgt != pos)) and not _segment_blocked(pos, tgt)
        for pos, tgt in zip(np.asarray(positions, dtype=float), np.asarray(step_targets, dtype=float))
    ], dtype=bool)


def slewed_step_visibility(
    orbit, angles, step_targets, half_angle, grid, eci_positions, visibility_mask, rotation_matrix
) -> np.ndarray:
    """Model A's per-step visibility as the library scored it before its
    line-of-sight screen: the orbit propagated over every step, and the
    slewed cone tested at every step with an active target.  The library's
    kernels are passed in, so a comparison isolates the screen, bit for
    bit.  Rows of NaN in ``step_targets`` mean no active target."""
    times = np.arange(grid.num_steps, dtype=float) * grid.step
    positions = eci_positions(orbit, times)
    nadirs = -positions / np.linalg.norm(positions, axis=1, keepdims=True)
    opp_of_step = np.arange(grid.num_steps) // grid.steps_per_opportunity
    mats = np.stack([rotation_matrix(*row) for row in angles])
    axes = np.einsum("tij,tj->ti", mats[opp_of_step], nadirs)
    active = ~np.isnan(step_targets).any(axis=1)
    out = np.zeros(grid.num_steps, dtype=bool)
    if np.any(active):
        mask = visibility_mask(
            positions[active], step_targets[active][:, None, :], half_angle, cone_axes=axes[active]
        )
        out[active] = mask[:, 0]
    return out


# ---------------------------------------------------------------------------
# Slot layout by hashing
# ---------------------------------------------------------------------------


def orbit_planes(orbits) -> list[list[int]]:
    """Indices of ``orbits`` grouped by orbit plane: every element but the
    true anomaly equal, so the group shares its secular angles.  The
    library found its slots' planes this way before its slot grids carried
    their layout."""
    groups: dict[tuple, list[int]] = {}
    for j, c in enumerate(orbits):
        key = (c.semi_major_axis, c.eccentricity, c.inclination, c.raan, c.arg_periapsis, c.epoch)
        groups.setdefault(key, []).append(j)
    return list(groups.values())


def slot_layout(slots) -> tuple[np.ndarray, np.ndarray]:
    """(plane, phase) index of each slot of one satellite's list, found by
    hashing element tuples, each numbered in order of first slot: planes
    as :func:`orbit_planes` groups them, phases by (a, e, i, omega, nu),
    as the library's cost pricing grouped them."""
    plane = np.empty(len(slots), dtype=np.intp)
    for p, group in enumerate(orbit_planes(slots)):
        plane[group] = p
    phases: dict[tuple, int] = {}
    phase = np.array(
        [
            phases.setdefault(
                (c.semi_major_axis, c.eccentricity, c.inclination, c.arg_periapsis, c.true_anomaly), len(phases)
            )
            for c in slots
        ],
        dtype=np.intp,
    )
    return plane, phase


def hashed_grid(slot_grid_cls, slots, **kwargs):
    """The library's ``SlotGrid`` (passed in) of hand-built slot lists,
    each satellite's layout found by :func:`slot_layout`."""
    layouts = [slot_layout(slot_list) for slot_list in slots]
    return slot_grid_cls(slots, [p for p, _ in layouts], [q for _, q in layouts], **kwargs)


def orbit_table_columns(orbits, slots) -> tuple:
    """The columns of the library's ``OrbitTable`` of a slot list, as it
    built them from :func:`orbit_planes`: the J2 constants once per plane,
    at its first slot, and the mean anomaly once per slot.  The library's
    ``orbits`` module is passed in for its element functions."""
    plane = np.empty(len(slots), dtype=np.intp)
    shared = []
    for q, group in enumerate(orbit_planes(slots)):
        plane[group] = q
        c = slots[group[0]]
        shared.append((
            c.epoch, c.eccentricity, c.semi_latus_rectum, math.cos(c.inclination), math.sin(c.inclination),
            orbits.j2_mean_motion(c), c.raan, orbits.j2_raan_rate(c), c.arg_periapsis, orbits.j2_arg_periapsis_rate(c),
        ))
    mean_anomaly = np.array([orbits.true_to_mean_anomaly(c.true_anomaly, c.eccentricity) for c in slots])
    return tuple(np.array(column)[plane] for column in zip(*shared)) + (mean_anomaly,)


@dataclass(frozen=True)
class StageAngles:
    """Slot angles at one epoch in the shape the library's
    ``_pairwise_costs`` reads, for one satellite: (1, n) arrays of sma,
    incl and raan per plane, u per phase, and plane and phase per slot."""

    sma: np.ndarray
    incl: np.ndarray
    raan: np.ndarray
    u: np.ndarray
    plane: np.ndarray
    phase: np.ndarray


def hashed_stage_angles(slots, dt: float, propagate) -> StageAngles:
    """One satellite's slot angles ``dt`` s on, from the slots grouped by
    :func:`slot_layout`: the first slot of each plane and each phase
    propagated by the library's ``propagate`` (passed in), as the library
    priced stages before its slot grids carried their layout."""
    plane, phase = slot_layout(slots)
    planes = [propagate(slots[int(np.flatnonzero(plane == p)[0])], dt) for p in range(plane.max() + 1)]
    phases = [propagate(slots[int(np.flatnonzero(phase == q)[0])], dt) for q in range(phase.max() + 1)]
    return StageAngles(
        np.array([[c.semi_major_axis for c in planes]]),
        np.array([[c.inclination for c in planes]]),
        np.array([[c.raan for c in planes]]),
        np.array([[c.argument_of_latitude for c in phases]]),
        plane[None],
        phase[None],
    )


def slot_visibility_loop(slots, targets, grid, fov, eci_positions, visibility_mask) -> np.ndarray:
    """The per-slot loop the library ran before its plane screen: every
    slot propagated and tested at every step.  The library's own
    ``eci_positions`` and ``visibility_mask`` are passed in, so a
    comparison isolates the screen, bit for bit."""
    times = np.arange(grid.num_steps, dtype=float) * grid.step
    column = np.asarray(targets, dtype=float)[:, None, :]
    n_slots = len(slots[0]) if len(slots) else 0
    visible = np.zeros((len(slots), n_slots, grid.num_steps), dtype=bool)
    for k, slot_list in enumerate(slots):
        for j, coe in enumerate(slot_list):
            pos = eci_positions(coe, times)
            visible[k, j] = visibility_mask(pos, column, fov.half_angle)[:, 0]
    return visible


def _plane_kept_steps(coe, times, unit, rho, half, secular_angles):
    """(kept steps, reach at them) of the screen across one orbit plane, as
    the library computed it for each plane on its own."""
    p, e = coe.semi_latus_rectum, coe.eccentricity
    if p / (1.0 + e) <= R_EARTH:
        return np.arange(len(times)), np.full(len(times), np.inf)
    _, raan, _ = secular_angles(coe, times - coe.epoch)
    si, ci = math.sin(coe.inclination), math.cos(coe.inclination)
    sin_off = np.abs(si * (np.sin(raan) * unit[:, 0] - np.cos(raan) * unit[:, 1]) + ci * unit[:, 2])
    off_plane = np.arcsin(np.minimum(sin_off, 1.0))
    apoapsis = p / (1.0 - e)
    q = np.minimum(rho, R_EARTH)
    edge = apoapsis * math.sin(half)
    horizon = np.arccos(q / apoapsis) + np.arccos(q / rho)
    cone = np.arcsin(np.minimum(edge / rho, 1.0)) - half
    reach = np.where(edge < q, np.minimum(cone, horizon), horizon)
    kept = np.flatnonzero(~(off_plane > reach + 1e-6))
    return kept, reach[kept]


def plane_screen_visibility(
    slots, targets, grid, fov, secular_angles, plane_positions, visibility_mask
) -> np.ndarray:
    """The library's slot visibility with its screen across the orbit plane
    only: a step is dropped for every slot of a plane when the target's
    angle from the plane's great circle exceeds the cone's reach (plus a
    1e-6 rad margin), and each plane's slots are positioned and tested on
    all the steps left.  The library's kernels are passed in, so a
    comparison isolates the screen along the plane, bit for bit."""
    targets = np.asarray(targets, dtype=float)
    times = np.arange(grid.num_steps, dtype=float) * grid.step
    rho = np.linalg.norm(targets, axis=1)
    unit = targets / rho[:, None]
    column = targets[:, None, :]
    half = fov.half_angle
    n_slots = len(slots[0]) if len(slots) else 0
    visible = np.zeros((len(slots), n_slots, grid.num_steps), dtype=bool)
    for k, slot_list in enumerate(slots):
        for plane in orbit_planes(slot_list):
            coe = slot_list[plane[0]]
            kept, _ = _plane_kept_steps(coe, times, unit, rho, half, secular_angles)
            if not kept.size:
                continue
            pos = plane_positions([slot_list[j] for j in plane], times, kept)
            targets_block = np.tile(column[kept], (len(plane), 1, 1))
            seen = visibility_mask(pos.reshape(-1, 3), targets_block, half)
            visible[k, np.array(plane)[:, None], kept] = seen.reshape(len(plane), kept.size)
    return visible


def plane_positions(orbits, plane, times, steps) -> np.ndarray:
    """The library's position kernel for the orbits of one plane, as it ran
    before one kernel call positioned a whole slot grid, kept as the
    reference for it.  Entry (q, l) is
    ``eci_positions(plane[q], times)[steps[q, l]]``: Kepler's equation runs
    as one (orbits x steps) block whose rows each stop on their own
    residual, and a row that took other than the certified Newton step
    count, or any row of an orbit with no certificate, is solved again on
    its full row.  ``steps`` is (len(plane), L), or (L,) for every orbit.
    The library's ``orbits`` module is passed in for its kernels."""
    if len(orbit_planes(plane)) != 1:
        raise ValueError("orbits do not share one orbit plane")
    coe = plane[0]
    e = coe.eccentricity
    dt = orbits._elapsed(coe.epoch, times)
    steps = np.broadcast_to(steps, (len(plane), np.shape(steps)[-1]))
    n_eff, raan, argp = orbits.secular_angles(coe, dt[steps])
    drift = n_eff * dt
    m0 = np.array([orbits.true_to_mean_anomaly(c.true_anomaly, e) for c in plane])
    need = kepler_certified_steps(e)
    if need is None:
        big_e = np.empty(steps.shape)
        redo = range(len(plane))
    else:
        big_e, took = kepler_newton_rows(m0[:, None] + drift[steps], e, orbits._bisect_kepler)
        redo = np.flatnonzero(took != need)
    for q in redo:
        big_e[q] = orbits._solve_kepler_array(m0[q] + drift, e)[steps[q]]
    i = coe.inclination
    return orbits._positions(e, coe.semi_latus_rectum, math.cos(i), math.sin(i), big_e, raan, argp)


def per_plane_visibility(slots, targets, grid, fov, orbits, visibility_mask, positions=None) -> np.ndarray:
    """The library's slot visibility as it ran one orbit plane at a time,
    kept as the reference for the pass over the whole grid.  Each plane is
    screened across the plane, then each of its slots along it (from the
    mean anomaly, widened by the largest equation of centre, skipped above
    e = 0.5), and the surviving cells are positioned by
    :func:`plane_positions`, one row per slot padded to the widest by
    repeating the row's first step, and tested.  The library's ``orbits``
    module and ``visibility_mask`` are passed in, and ``positions``, a
    function of (plane, times, steps) like :func:`plane_positions`, may
    replace that kernel."""
    if positions is None:
        positions = functools.partial(plane_positions, orbits)
    targets = np.asarray(targets, dtype=float)
    times = np.arange(grid.num_steps, dtype=float) * grid.step
    rho = np.linalg.norm(targets, axis=1)
    unit = targets / rho[:, None]
    n_slots = len(slots[0]) if len(slots) else 0
    visible = np.zeros((len(slots), n_slots, grid.num_steps), dtype=bool)
    for k, slot_list in enumerate(slots):
        for plane in orbit_planes(slot_list):
            group = [slot_list[j] for j in plane]
            coe = group[0]
            e = coe.eccentricity
            kept, reach = _plane_kept_steps(coe, times, unit, rho, fov.half_angle, orbits.secular_angles)
            if e > 0.5:
                cells = np.ones((len(group), kept.size), dtype=bool)
            else:
                dt = times[kept] - coe.epoch
                n_eff, raan, argp = orbits.secular_angles(coe, dt)
                co, so = np.cos(raan), np.sin(raan)
                ci, si = math.cos(coe.inclination), math.sin(coe.inclination)
                x, y, z = unit[kept].T
                u_target = np.arctan2(ci * (y * co - x * so) + si * z, x * co + y * so)
                m0 = np.array([orbits.true_to_mean_anomaly(c.true_anomaly, e) for c in group])
                mean_lat = argp + (m0[:, None] + n_eff * dt)
                gap = np.abs(np.mod(u_target - mean_lat + math.pi, 2.0 * math.pi) - math.pi)
                centre = e + 2.0 * math.asin(e / (1.0 + math.sqrt(1.0 - e * e)))
                lower = np.minimum(np.maximum(gap - centre, 0.0), math.pi / 2.0)
                cells = ~(lower > reach + 1e-6)
            rows = np.flatnonzero(cells.any(axis=1))
            if not rows.size:
                continue
            cells = cells[rows]
            count = cells.sum(axis=1)
            cols = np.argsort(~cells, axis=1, kind="stable")[:, : count.max()]
            cols = np.where(np.arange(cols.shape[1]) < count[:, None], cols, cols[:, :1])
            steps = kept[cols]
            pos = positions([group[r] for r in rows], times, steps)
            seen = visibility_mask(pos.reshape(-1, 3), targets[steps.reshape(-1), None], fov.half_angle)
            visible[k, np.array(plane)[rows, None], steps] = seen.reshape(steps.shape)
    return visible


# ---------------------------------------------------------------------------
# Reward / coverage oracles
# ---------------------------------------------------------------------------


def active_windows_floor(num_steps: int, num_points: int) -> list[tuple[int, int]]:
    """1-based inclusive windows [floor(1+(p-1)T/P), floor(pT/P)] per point."""
    out = []
    for p in range(1, num_points + 1):
        lo = math.floor(1 + (p - 1) * num_steps / num_points)
        hi = math.floor(p * num_steps / num_points)
        out.append((lo, hi))
    return out


def score_plan_loops(
    vis: np.ndarray,
    rewards: np.ndarray,
    coverage_req: np.ndarray,
    paths: np.ndarray,
) -> float:
    """Objective of a slot plan by triple loop: z = sum pi * [count >= r]."""
    num_stages, num_sats, _, steps, points = vis.shape
    z = 0.0
    for s in range(num_stages):
        for t in range(steps):
            for p in range(points):
                count = 0
                for k in range(num_sats):
                    if vis[s, k, paths[k][s + 1], t, p]:
                        count += 1
                if count >= coverage_req[s, t, p]:
                    z += rewards[s, t, p]
    return z


def memo_free_search(search_cls):
    """The binary branch-and-bound search as it ran before level entries
    were pruned by dominance: ``search_cls`` (the library's ``_Search``)
    with a ``_level`` that enters every level it is called with."""

    class MemoFreeSearch(search_cls):
        def _level(self, k, union, z_union, flat):
            inst = self.inst
            if k == inst.K:
                self.offer(tuple(flat), z=z_union)
                return
            tables = self._fresh_tables(k, union)
            self._stages(k, 0, 0, float(inst.budget[k]), union, z_union, flat, tables)

    return MemoFreeSearch


def instance_words_dense(visible: np.ndarray, pi: np.ndarray, n_slots: int) -> tuple:
    """(words, masks) of a solver instance, built as the library built them
    before packing rows once per satellite: a dense (K, S, J, max(W, 1))
    boolean mask, zero outside each stage's cell range, then packed into
    little-endian uint64 words, zero-padded to a whole word.
    """
    n_stages, n_sats = visible.shape[:2]
    act = pi > 0.0
    width = int(act.sum())
    rows = np.transpose(visible[:, :, :n_slots], (1, 2, 0, 3, 4))[:, :, act]  # (K, J, W)
    bounds = np.searchsorted(np.nonzero(act)[0], np.arange(n_stages + 1))
    masks = np.zeros((n_sats, n_stages, n_slots, max(width, 1)), dtype=bool)
    for s in range(n_stages):
        lo, hi = bounds[s], bounds[s + 1]
        masks[:, s, :, lo:hi] = rows[:, :, lo:hi]
    bits = np.packbits(masks, axis=-1, bitorder="little")
    pad = (-bits.shape[-1]) % 8
    bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return np.ascontiguousarray(bits).view(np.uint64), masks


def cell_words_gather(visible: np.ndarray, act: np.ndarray, pack_words) -> np.ndarray:
    """(K, S, J, W64) cell words as the library built them before it read
    a fully active instance's rows as a reshape: every satellite's rows
    gathered through the boolean ``act`` mask, packed by the library's
    ``pack_words`` and ANDed with each stage's word range."""
    n_stages, n_sats, n_slots = visible.shape[:3]
    stage_words = pack_words(np.nonzero(act)[0] == np.arange(n_stages)[:, None])
    words = np.empty((n_sats, n_stages, n_slots, stage_words.shape[-1]), dtype=np.uint64)
    for k in range(n_sats):
        rows = pack_words(np.transpose(visible[:, k], (1, 0, 2, 3))[:, act])
        np.bitwise_and(rows, stage_words[:, None], out=words[k])
    return words


def instance_frontiers_loop(inst) -> tuple[list, list, list]:
    """(trail_cost, trail_frame, root_cap) of a solver instance, built as
    the library built them before it summed only the finite frontier
    entries: each stage's whole (J, J, V) sum, infinite terms included,
    reduced along its middle (to-slot) axis, one satellite at a time.

    ``inst`` supplies the packed cell words, the cost matrix and budgets.
    """
    root_pc = np.bitwise_count(inst.words).sum(axis=-1).astype(np.int64)
    trail_cost, trail_frame, root_cap = [], [], []
    for k in range(inst.K):
        g = root_pc[k]
        v_axis = np.arange(int(g.max(axis=1).sum()) + 1)
        minc = np.where(v_axis[None, :] <= g[-1][:, None], 0.0, np.inf)
        per_stage = []
        for s in range(inst.S - 2, -1, -1):
            edge = np.asarray(inst.costs.stages[s + 1][k], dtype=float)
            cand = (edge[:, :, None] + minc[None, :, :]).min(axis=1)
            per_stage.append(cand)
            idx = np.maximum(v_axis[None, :] - g[s][:, None], 0)
            minc = np.take_along_axis(cand, idx, axis=1)
        per_stage.reverse()
        entry = np.asarray(inst.costs.stages[0][k][0], dtype=float)
        total = (entry[:, None] + minc).min(axis=0)
        cap = int(np.searchsorted(total, inst.budget[k], side="right")) - 1
        root_cap.append(max(cap, 0))
        trail_cost.append([cand.tolist() for cand in per_stage])
        trail_frame.append([cand.min(axis=0).tolist() for cand in per_stage])
    return trail_cost, trail_frame, root_cap


def instance_budget_tables_loop(inst) -> tuple[list, list, list, list, np.ndarray]:
    """(cheapest_entry, entry_perm, entry_sorted, afford_full, afford_from)
    of a solver instance, built as the library built them before its
    whole-array passes: one (satellite, stage) at a time, then one OR per
    stage from the last stage back.

    ``inst`` supplies the packed cell words, the cost matrix and budgets.
    """
    cheapest_entry, entry_perm, entry_sorted = [], [], []
    for k in range(inst.K):
        ce_k, perm_k, sort_k = [], [], []
        for s in range(inst.S):
            ce = inst.costs.stages[s][k].min(axis=0)
            perm = np.argsort(ce, kind="stable")
            ce_k.append(ce)
            perm_k.append(perm)
            sort_k.append([float(x) for x in ce[perm]])
        cheapest_entry.append(ce_k)
        entry_perm.append(perm_k)
        entry_sorted.append(sort_k)
    afford_full = [
        [cheapest_entry[k][s] <= inst.budget[k] for s in range(inst.S)] for k in range(inst.K)
    ]
    afford_from = np.zeros((inst.K, inst.S + 1, inst.words.shape[-1]), dtype=np.uint64)
    for k in range(inst.K):
        for s in range(inst.S - 1, -1, -1):
            row = afford_from[k, s + 1].copy()
            mask = afford_full[k][s]
            if mask.any():
                row |= np.bitwise_or.reduce(inst.words[k, s][mask], axis=0)
            afford_from[k, s] = row
    return cheapest_entry, entry_perm, entry_sorted, afford_full, afford_from


def merge_stages(full: np.ndarray, factor: int) -> np.ndarray:
    """Join runs of ``factor`` consecutive stages of a bool (S, K, J, T_s, P)
    visibility array end to end in time, giving S / factor coarser stages."""
    n_stages = full.shape[0]
    groups = [
        np.concatenate(list(full[lo : lo + factor]), axis=2)
        for lo in range(0, n_stages, factor)
    ]
    return np.stack(groups)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float, radius: float = R_EARTH) -> float:
    """Great-circle distance between two lat/lon points in radians."""
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(0.5 * dlat) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(0.5 * dlon) ** 2
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(h)))


# ---------------------------------------------------------------------------
# Four slot families: the workspace before its two slot grids
# ---------------------------------------------------------------------------

# concept -> (num_stages, num_phases, num_plane_axis): each distinct
# (num_phases, num_plane_axis) pair was a slot family with its own slots,
# visibility and priced stage costs
FAMILY_SHAPES = {
    "B": (1, 1, 1),
    "A": (1, 1, 1),
    "P1": (2, 10, 1),
    "P2": (2, 20, 1),
    "P3": (4, 10, 1),
    "P4": (4, 20, 1),
    "U1": (2, 15, 5),
    "U2": (4, 15, 5),
}

# warm sources per concept with the mapping kind each one used
FAMILY_WARM_SOURCES = {
    "P2": (("P1", "phase-double"),),
    "P3": (("P1", "stage-split"),),
    "P4": (("P2", "stage-split"), ("P3", "phase-double")),
    "U2": (("U1", "stage-split"),),
}


def family_slots(initials, budget: float, family, generate_slot_grid, grid_spec, grid_mode) -> list:
    """Every satellite's slots on a (num_phases, num_plane_axis) family,
    with the grid mode chosen from the plane count.  The library's
    ``generate_slot_grid``, ``SlotGridSpec`` and ``GridMode`` are passed in."""
    num_phases, num_plane_axis = family
    mode = grid_mode.UNRESTRICTED if num_plane_axis > 1 else grid_mode.PHASING_ONLY
    spec = grid_spec(num_phases=num_phases, num_plane_axis=num_plane_axis)
    return [generate_slot_grid(orbit, spec, budget, mode) for orbit in initials]


def map_flat(flat: tuple, source: str, target: str, kind: str, n_sats: int) -> tuple:
    """Re-index a flat slot vector from the source family onto the target's."""
    src_stages, src_phases, _ = FAMILY_SHAPES[source]
    dst_stages, dst_phases, _ = FAMILY_SHAPES[target]
    if kind == "phase-double":
        mapped = []
        for j in flat:
            plane, phase = divmod(j, src_phases)
            mapped.append(plane * dst_phases + 2 * phase)
        return tuple(mapped)
    if kind == "stage-split":
        factor = dst_stages // src_stages
        mapped = []
        for k in range(n_sats):
            for j in flat[k * src_stages : (k + 1) * src_stages]:
                mapped.extend([j] * factor)
        return tuple(mapped)
    raise ValueError(f"unknown warm mapping {kind!r}")


def family_warm_seeds(target: str, paths_by_model: dict, n_sats: int) -> list:
    """The seeds of ``target`` from whichever of its sources have paths."""
    out = []
    for source, kind in FAMILY_WARM_SOURCES.get(target, ()):
        if source in paths_by_model:
            flat = tuple(j for path in paths_by_model[source] for j in path[1:])
            out.append(map_flat(flat, source, target, kind, n_sats))
    return out
