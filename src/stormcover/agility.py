"""Slew scheduling and degraded-reward scoring for agile satellites.

Each satellite has a sequence of control opportunities with three slew
angles per opportunity.  The angles rotate the satellite's nadir vector
about the inertial (ECI) x, y and z axes, not about body axes, so a
boresight can sit further off nadir than the per-axis box.  The planner
picks angles that point the boresight as close as possible to the active
target while respecting the slew-angle box and the per-opportunity rate
budget; the scorer then converts the resulting pointing history into
observation rewards that shrink as the total slew magnitude grows.

The planner solves only the (satellite, opportunity) rows with the
target in :func:`line_of_sight` at some step; any other row is unseen
under any slew, so, like a row without targets, it holds nadir or relaxes
toward it.  The scorer tests the cone only at the steps in line of sight.

The plan is greedy in time: each opportunity takes the best angles in the
rate box around the previous opportunity's angles, by a multistart over a
coarse grid, the previous angles and the box point nearest zero, then a
projected descent from the winner.  The previous angles enter in two
places only: they set the rate box, and they are one multistart
candidate.  When every axis's rate budget spans the whole angle box, the
box cannot depend on them, and the planner solves (satellite,
opportunity) rows in three passes:

- Guess: solve every row at once as if the previous angles were zero.
  Every row then has the same box and so the same candidates, built once.
- Check: with the box fixed, the previous angles are the only multistart
  candidate that can differ from the guess's, so score that one candidate
  alone, at its predecessor's guessed angles.  A row keeps its guessed
  angles when its box is bitwise the guess's, its guessed winner is not
  the previous angles' slot, and the previous angles score worse than that
  winner by more than ``_CHECK_MARGIN`` per target direction: its winner is
  then the guess's, and the descent is a pure function of the winner, the
  box and the geometry.  The margin covers the rounding of a one-candidate
  batch, whose matrix product can take another route than the full
  multistart's; a row inside it goes to the replay, which is exact.
- Replay: walk each satellite in time order from its first row the check
  could not keep, solving rows again from their true previous angles,
  until a row reproduces its guessed angles; the rows after it were
  checked against the right predecessor.

When the rate box can bind there is no guess, and the replay alone is the
sequential greedy pass with all satellites in step.  Either way each row
rounds exactly as in a one-satellite, one-opportunity run, so the
schedules do not depend on the batching: rows are batched only with rows
of the same target count, and the batched matrix products, row norms,
sums and minima below were chosen to take the same floating-point route
as their one-row forms.  The guess's shared (1, 345, 3) candidates are
broadcast against every row's geometry, so each element still meets the
same operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .orbits import ClassicalOrbitalElements, TimeGrid, eci_positions
from .visibility import visibility_mask

__all__ = [
    "AgilityConfig",
    "SlewSchedule",
    "AgilityScore",
    "rotation_matrix",
    "optimize_slew_schedule",
    "optimize_slew_schedules",
    "score_agility",
    "line_of_sight",
    "slewed_step_visibility",
]

# Multistart grid resolution per axis and the descent iteration cap.  Seven
# points put grid nodes at most ~2.4 deg from any box point at the 35 deg
# angle limit, close enough for the polish step to finish the job.
_GRID_POINTS = 7
_DESCENT_ITERS = 25
_STEP_LADDER = 0.5 ** np.arange(22)
# Candidate index of the previous angles in the multistart, after the grid.
_PREV_SLOT = _GRID_POINTS**3
# Multistart rows solved together: enough to amortize numpy's per-call cost,
# few enough that the (rows, 345, 3) pointing vectors and (rows, 345, P) dot
# products stay near half a megabyte.  On the 45 deg agile45 inputs (synth-01,
# -07 and -13 with B and A), 512-row multistart blocks raised a run's peak
# memory (VmHWM) from 37.0 to 42.4 MB.
_BLOCK_ROWS = 64
# Descent rows solved together.  A block makes numpy calls until its last row
# stalls, so wider blocks make fewer calls, and a descending row holds only 6
# probes and 22 trials.  On the same run and a 2-core host, 512-row blocks
# took 0.63 s against 1.00 s for 64-row blocks, at 37.0 against 35.8 MB of
# peak memory; one block per target count peaked at 45.5 MB.
_DESCENT_ROWS = 512
# Rounding allowance of the check, per target direction.  Scoring one
# candidate alone takes another matrix-product route than the full
# multistart, so a dot product can differ in its last bits: by at most one
# ulp of 1 (1.5e-8 rad of arccos) on the 45 deg corpus.  Near a dot of +-1 a
# gap of delta moves its arccos by about sqrt(2 * delta), so 1e-7 rad covers
# a gap of about twenty ulps of 1.  A row's value sums one arccos per target
# direction, so the allowance is multiplied by the row's direction count.
_CHECK_MARGIN = 1e-7


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
        # A zero box is the same as not slewing, and the degraded reward
        # divides by the box.
        if not 0.0 < self.max_angle <= math.pi / 2.0:
            raise ValueError(f"max_angle must lie in (0, pi/2], got {self.max_angle!r}")
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


def _batched_objective(angles: np.ndarray, nadirs: np.ndarray, target_dirs: np.ndarray) -> np.ndarray:
    """Pointing objective for a batch of angle triples per satellite.

    angles: (K, B, 3), or (1, B, 3) shared by every satellite; nadirs:
    unit (K, 3); target_dirs: unit (K, P, 3).  Returns (K, B) sums of
    off-target angles.
    """
    c, s = np.cos(angles), np.sin(angles)
    ca, cb, cg = c[..., 0], c[..., 1], c[..., 2]
    sa, sb, sg = s[..., 0], s[..., 1], s[..., 2]
    n0, n1, n2 = nadirs[:, 0, None], nadirs[:, 1, None], nadirs[:, 2, None]
    sasb, casb = sa * sb, ca * sb
    u = np.empty((nadirs.shape[0],) + angles.shape[1:])
    u[..., 0] = cb * cg * n0 + cb * sg * n1 - sb * n2
    u[..., 1] = (sasb * cg - ca * sg) * n0 + (sasb * sg + ca * cg) * n1 + sa * cb * n2
    u[..., 2] = (casb * cg + sa * sg) * n0 + (casb * sg - sa * cg) * n1 + ca * cb * n2
    # in place: with many rows, these (K, B, P) arrays are the largest
    dots = u @ target_dirs.transpose(0, 2, 1)
    np.clip(dots, -1.0, 1.0, out=dots)
    return np.arccos(dots, out=dots).sum(axis=-1)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each last-axis row, rounded like the 1-D ``norm``.

    A stacked (1, 3) @ (3, 1) product takes the same dot-product route as
    ``np.linalg.norm`` of a single vector; ``norm(v, axis=-1)`` and
    ``einsum`` can differ from it in the last bit.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _candidates(prev: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The coarse grid, ``prev`` and the point nearest zero, per row.

    Each of the R rows is one [lower, upper]^3 box; ``prev`` is candidate
    ``_PREV_SLOT``, after the grid nodes.  Returns (R, 345, 3) angles.
    """
    axes = np.linspace(lower, upper, _GRID_POINTS, axis=-1)
    nodes = np.broadcast_arrays(
        axes[:, 0, :, None, None], axes[:, 1, None, :, None], axes[:, 2, None, None, :]
    )
    extra = np.stack([np.clip(prev, lower, upper), np.clip(np.zeros(3), lower, upper)], axis=1)
    return np.concatenate([np.stack(nodes, axis=-1).reshape(prev.shape[0], -1, 3), extra], axis=1)


def _multistart(candidates: np.ndarray, nadirs: np.ndarray, target_dirs: np.ndarray) -> tuple:
    """Best candidate per row: (R, 345, 3) candidates of its own, or
    (1, 345, 3) shared by all R rows.

    Ties resolve toward the smallest total slew, then the lowest candidate
    index.  Returns the (R,) winning candidate index, (R, 3) angles and (R,)
    values.
    """
    values = _batched_objective(candidates, nadirs, target_dirs)
    slew = np.abs(candidates).sum(axis=-1)
    # Values are sums of arccos of clipped dots, never NaN, so the minimum's
    # equality mask finds every tie, and argmin takes the lowest index among
    # the smallest slews.
    tied = values == values.min(axis=-1, keepdims=True)
    first = np.argmin(np.where(tied, slew, np.inf), axis=-1)
    rows = np.arange(values.shape[0])
    return first, np.broadcast_to(candidates, values.shape + (3,))[rows, first], values[rows, first]


def _descend(
    best: np.ndarray,
    best_val: np.ndarray,
    nadirs: np.ndarray,
    target_dirs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple:
    """Polish each row's multistart winner by projected gradient descent.

    Central-difference gradient, then a backtracking step ladder; each row
    leaves on its own stall test.  Returns (R, 3) angles and (R,) values.
    """
    x = best.copy()
    fx = best_val.copy()
    # Each step computes only the rows still descending, gathered into one
    # batch; the rows never mix, so each rounds as if alone.
    going = np.flatnonzero(fx > 1e-9)
    h = 1e-6
    for _ in range(_DESCENT_ITERS):
        if going.size == 0:
            break
        xa, fa, na, da = x[going], fx[going], nadirs[going], target_dirs[going]
        lo, hi = lower[going, None], upper[going, None]
        probes = np.repeat(xa[:, None], 6, axis=1)
        probes[:, [0, 1, 2], [0, 1, 2]] += h
        probes[:, [3, 4, 5], [0, 1, 2]] -= h
        pv = _batched_objective(probes.clip(lo, hi), na, da)
        grad = (pv[:, :3] - pv[:, 3:]) / (2.0 * h)
        gnorm = _row_norms(grad)
        live = gnorm >= 1e-12
        steps = (_STEP_LADDER / np.where(live, gnorm, 1.0)[:, None])[..., None] * grad[:, None, :]
        trials = (xa[:, None] - steps).clip(lo, hi)
        tv = _batched_objective(trials, na, da)
        pick = np.argmin(tv, axis=-1)
        rows = np.arange(going.size)
        live &= tv[rows, pick] < fa - 1e-14
        x[going[live]] = trials[rows, pick][live]
        fx[going[live]] = tv[rows, pick][live]
        going = going[live]

    # Keep the polished point only if it sorts before the grid node on
    # (objective, total slew), as the multistart's tie-break does.
    polished = (fx < best_val) | (
        (fx == best_val) & (np.abs(x).sum(axis=-1) < np.abs(best).sum(axis=-1))
    )
    return np.where(polished[:, None], x, best), np.where(polished, fx, best_val)


def _kept_directions(positions: np.ndarray, targets: Sequence[np.ndarray], rows: np.ndarray) -> tuple:
    """Unit target directions of every (satellite, opportunity) row.

    positions: (K, n, 3) satellite positions at the opportunities;
    rows: boolean (K, n), the rows to build.  Other rows keep no
    direction.  A zero-length direction (a target at the satellite
    itself) is dropped; the kept directions come first and in order, so a
    row solved with its first ``count`` directions has the shapes of its
    one-satellite run and rounds the same.

    Returns (K * n, m, 3) directions, zero-padded to the largest target
    count m, and the (K * n,) kept counts; row k * n + i is satellite k at
    opportunity i.
    """
    n_sats, n_opps = positions.shape[:2]
    tgts = [np.asarray(t, dtype=float).reshape(-1, 3) for t in targets]
    lengths = np.array([len(t) for t in tgts], dtype=np.intp)
    padded = np.zeros((n_opps, max(lengths, default=0), 3))
    for i, tgt in enumerate(tgts):
        padded[i, : len(tgt)] = tgt
    sats, opps = np.nonzero(rows)
    d = padded[opps] - positions[sats, opps, None, :]
    norms = np.linalg.norm(d, axis=-1)
    valid = (norms > 0.0) & (np.arange(padded.shape[1]) < lengths[opps, None])
    order = np.argsort(~valid, axis=1, kind="stable")
    dirs = np.zeros((n_sats, n_opps) + padded.shape[1:])
    dirs[sats, opps] = np.take_along_axis(d / np.where(valid, norms, 1.0)[..., None], order[..., None], axis=1)
    counts = np.zeros((n_sats, n_opps), dtype=np.intp)
    counts[sats, opps] = valid.sum(axis=1)
    return dirs.reshape(n_sats * n_opps, -1, 3), counts.reshape(-1)


def _blocks(counts: np.ndarray, size: int):
    """Indices of the rows with each kept-direction count, in blocks of at
    most ``size``."""
    for count in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == count)
        for start in range(0, rows.size, size):
            yield int(count), rows[start : start + size]


def _box_cannot_bind(config: AgilityConfig) -> bool:
    """Does every axis's rate budget span the whole angle box?

    Then an opportunity's box is the full angle box whatever the angles
    before it, and the previous angles enter only as one multistart
    candidate.
    """
    return bool(np.all(config.rate_budget >= 2.0 * config.max_angle))


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per last-axis row: are the two float rows bit-for-bit equal?"""
    return (a.view(np.int64) == b.view(np.int64)).all(axis=-1)


def optimize_slew_schedules(
    orbits: Sequence[ClassicalOrbitalElements],
    targets: Sequence[np.ndarray],
    config: AgilityConfig,
    grid: TimeGrid,
    in_sight: Optional[np.ndarray] = None,
) -> List[SlewSchedule]:
    """Plan slew angles over all control opportunities for each satellite.

    The plan is the greedy one: each opportunity, in time order, takes the
    best angles inside the rate box around the previous opportunity's.
    When the box cannot bind, every opportunity is solved at once with a
    guessed previous of zero, checked against the guess of its
    predecessor, and replayed in order only from where the guess mattered
    (see the module docstring).  A satellite's schedule does not depend on
    the others, nor on its place in ``orbits``.

    Args:
        orbits: satellite elements at scenario epoch, one per schedule.
        targets: one array of active-target ECI positions (m, 3) per
            control opportunity, shared by every satellite; an empty array
            means nothing to observe.  A target direction of zero length
            (a target at the satellite itself) is dropped for that
            satellite.
        config: slew limits; its control_step must match the grid.
        grid: scenario time discretisation.
        in_sight: boolean (len(orbits), num_steps), each satellite's
            :func:`line_of_sight`; an opportunity with none of its steps in
            sight has nothing to chase.  None puts every step in sight.

    Returns:
        One feasible schedule per orbit, in order.  Its summed pointing
        objective, over the rows in sight, never exceeds the objective of
        the all-zeros (nadir) schedule; when the greedy pass loses to
        nadir, nadir itself is returned for that satellite.

    Raises:
        ValueError: on rate/step mismatches, wrong target counts or an
            in_sight mask of the wrong shape or dtype.
    """
    if config.control_step != grid.control_step:
        raise ValueError(
            f"config control_step {config.control_step} differs from grid {grid.control_step}"
        )
    n_opps = grid.num_opportunities
    if len(targets) != n_opps:
        raise ValueError(f"expected targets for {n_opps} opportunities, got {len(targets)}")
    n_sats = len(orbits)
    in_sight = np.ones((n_sats, grid.num_steps), dtype=bool) if in_sight is None else np.asarray(in_sight)
    if in_sight.shape != (n_sats, grid.num_steps) or in_sight.dtype != bool:
        raise ValueError(
            f"in_sight must be a bool ({n_sats}, {grid.num_steps}) array, got {in_sight.dtype} {in_sight.shape}"
        )
    if not orbits:
        return []

    epochs = np.array([grid.opportunity_time(i) for i in range(n_opps)])
    positions = np.stack([eci_positions(orbit, epochs) for orbit in orbits])
    nadirs = (-positions / _row_norms(positions)[..., None]).reshape(-1, 3)
    budget = config.rate_budget
    bound = config.max_angle

    # One row per (satellite, opportunity), row k * n_opps + i, solved in
    # groups of equal direction count.
    opp_starts = np.arange(0, grid.num_steps, grid.steps_per_opportunity)
    dirs, counts = _kept_directions(positions, targets, np.logical_or.reduceat(in_sight, opp_starts, axis=1))

    def box(prev):
        return np.maximum(-bound, prev - budget), np.minimum(bound, prev + budget)

    def unchanged(rows, first, lower, upper):
        # The descent is a pure function of the winner, the box and the
        # geometry, so a row whose winner and box are what the guess gave
        # (and whose winner is not the previous angles) keeps its angles.
        return (
            (first == guess_first[rows])
            & (first != _PREV_SLOT)
            & _same_bits(lower, guess_lower)
            & _same_bits(upper, guess_upper)
        )

    angles = np.zeros((n_sats * n_opps, 3))
    values = np.zeros(n_sats * n_opps)
    guess_first = np.full(n_sats * n_opps, -1)
    guess_lower, guess_upper = box(np.zeros(3))
    exact = np.zeros(n_sats * n_opps, dtype=bool)
    if _box_cannot_bind(config):
        # Guess a previous of zero for every row, so every row has the same
        # box and candidates; rows with nothing to chase stay at zero.
        shared = _candidates(np.zeros((1, 3)), guess_lower[None], guess_upper[None])
        best = np.zeros((n_sats * n_opps, 3))
        guess_val = np.zeros(n_sats * n_opps)
        for count, rows in _blocks(counts, _BLOCK_ROWS):
            if count:
                guess_first[rows], best[rows], guess_val[rows] = _multistart(shared, nadirs[rows], dirs[rows, :count])
        for count, rows in _blocks(counts, _DESCENT_ROWS):
            if count:
                lower, upper = box(np.zeros((rows.size, 3)))
                angles[rows], values[rows] = _descend(
                    best[rows], guess_val[rows], nadirs[rows], dirs[rows, :count], lower, upper
                )
        # Check each row against its predecessor's guessed angles.  With the
        # box unchanged only the previous angles' candidate can differ from
        # the guess's multistart, so score it alone; it must lose to the
        # guessed winner by more than the rounding margin.
        before = np.zeros((n_sats, n_opps, 3))
        before[:, 1:] = angles.reshape(n_sats, n_opps, 3)[:, :-1]
        before = before.reshape(-1, 3)
        for count, rows in _blocks(counts, counts.size):
            lower, upper = box(before[rows])
            exact[rows] = unchanged(rows, guess_first[rows], lower, upper)
            if count:
                at_prev = np.clip(before[rows], lower, upper)[:, None]
                prev_val = _batched_objective(at_prev, nadirs[rows], dirs[rows, :count])[:, 0]
                exact[rows] &= prev_val > guess_val[rows] + count * _CHECK_MARGIN

    # Replay in time order, per satellite, from its first row the check could
    # not keep; go on while the replayed angles differ from the guessed ones.
    # While a satellite is back on its guess, the check's verdicts ahead of it
    # hold.  Without a guess this is the plain greedy pass, in step.
    open_at = np.where(exact.reshape(n_sats, n_opps), n_opps, np.arange(n_opps))
    next_open = np.minimum.accumulate(open_at[:, ::-1], axis=1)[:, ::-1]
    next_open = np.concatenate([next_open, np.full((n_sats, 1), n_opps)], axis=1)
    sats = np.arange(n_sats)
    at = np.zeros(n_sats, dtype=np.intp)
    on_guess = np.ones(n_sats, dtype=bool)
    while True:
        at = np.where(on_guess, next_open[sats, at], at)
        moving = np.flatnonzero(at < n_opps)
        if moving.size == 0:
            break
        rows_now = moving * n_opps + at[moving]
        prev_now = np.where((at[moving] > 0)[:, None], angles[rows_now - 1], 0.0)
        for count in np.flatnonzero(np.bincount(counts[rows_now])):
            pick = counts[rows_now] == count
            rows, prev = rows_now[pick], prev_now[pick]
            lower, upper = box(prev)
            if count == 0:
                # Nothing to chase: relax toward nadir as fast as the rate box allows.
                new, new_val = np.clip(np.zeros(3), lower, upper), np.zeros(rows.size)
            else:
                candidates = _candidates(prev, lower, upper)
                first, best, best_val = _multistart(candidates, nadirs[rows], dirs[rows, :count])
                new, new_val = angles[rows], values[rows]
                redo = ~unchanged(rows, first, lower, upper)
                new[redo], new_val[redo] = _descend(
                    best[redo], best_val[redo], nadirs[rows[redo]], dirs[rows[redo], :count], lower[redo], upper[redo]
                )
            on_guess[moving[pick]] = _same_bits(new, angles[rows])
            angles[rows], values[rows] = new, new_val
        at[moving] += 1

    nadir_values = np.zeros(n_sats * n_opps)
    for count, rows in _blocks(counts, counts.size):
        if count:
            nadir_values[rows] = _batched_objective(np.zeros((1, 1, 3)), nadirs[rows], dirs[rows, :count])[:, 0]
    values = values.reshape(n_sats, n_opps)
    nadir_values = nadir_values.reshape(n_sats, n_opps)
    greedy_total = np.zeros(n_sats)
    nadir_total = np.zeros(n_sats)
    for i in range(n_opps):
        greedy_total += values[:, i]
        nadir_total += nadir_values[:, i]

    planned = angles.reshape(n_sats, n_opps, 3)
    schedules = []
    for k in range(n_sats):
        if greedy_total[k] > nadir_total[k]:
            # The rate box can trap the greedy pass; never do worse than not slewing.
            schedules.append(SlewSchedule(np.zeros((n_opps, 3)), objective_value=float(nadir_total[k])))
        else:
            schedules.append(SlewSchedule(planned[k], objective_value=float(greedy_total[k])))
    return schedules


def optimize_slew_schedule(
    orbit: ClassicalOrbitalElements,
    targets: Sequence[np.ndarray],
    config: AgilityConfig,
    grid: TimeGrid,
) -> SlewSchedule:
    """The schedule :func:`optimize_slew_schedules` plans for one satellite."""
    return optimize_slew_schedules([orbit], targets, config, grid)[0]


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


def line_of_sight(orbit: ClassicalOrbitalElements, step_targets: np.ndarray, grid: TimeGrid) -> tuple:
    """One satellite's ECI positions at the step times, (num_steps, 3), and
    its boolean (num_steps,) line of sight to each step's target.

    The test is ``visibility_mask``'s at a cone of pi, which admits every
    direction, so only the Earth (or a missing target) hides a step; a
    step out of sight is unseen under any slew.
    """
    positions = eci_positions(orbit, np.arange(grid.num_steps, dtype=float) * grid.step)
    return positions, visibility_mask(positions, step_targets[:, None, :], math.pi)[:, 0]


def slewed_step_visibility(
    positions: np.ndarray,
    schedule: SlewSchedule,
    step_targets: np.ndarray,
    half_angle: float,
    grid: TimeGrid,
    in_sight: np.ndarray,
) -> np.ndarray:
    """Per-step visibility of the active target through the slewed cone.

    The slew angles of an opportunity stay fixed across its steps, while
    the nadir axis they rotate is recomputed at every step; the boresight
    therefore keeps tracking the local vertical between control points.
    The cone is tested only at the steps in line of sight: the Earth hides
    the target at every other step, whatever the slew.

    Args:
        positions: (num_steps, 3) satellite ECI positions at the step
            times, from :func:`line_of_sight`.
        step_targets: (num_steps, 3) active-target ECI position per step.
        in_sight: boolean (num_steps,) line of sight from the satellite to
            the step's target, from :func:`line_of_sight`.

    Returns:
        Boolean (num_steps,) array.
    """
    steps = np.flatnonzero(in_sight)
    out = np.zeros(grid.num_steps, dtype=bool)
    if steps.size:
        pos = positions[steps]
        nadirs = -pos / np.linalg.norm(pos, axis=1, keepdims=True)
        opp = steps // grid.steps_per_opportunity  # ascending: one run per opportunity
        starts = np.concatenate([[True], opp[1:] != opp[:-1]])
        mats = np.stack([rotation_matrix(*schedule.angles[i]) for i in opp[starts]])
        axes = np.einsum("tij,tj->ti", mats[np.cumsum(starts) - 1], nadirs)
        out[steps] = visibility_mask(pos, step_targets[steps, None, :], half_angle, cone_axes=axes)[:, 0]
    return out
