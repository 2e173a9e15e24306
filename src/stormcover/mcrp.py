"""Reward construction and the multistage reconfiguration solver.

The decision problem: every satellite occupies one orbital slot per stage,
transitions between consecutive stages cost fuel from a per-satellite
budget, and a reward cell (stage, step, target) pays off when enough
satellites see it.  With unit rewards and a single-coverage requirement
the cells collapse to bitsets, coverage to a union, and the solver runs an
exact depth-first branch-and-bound over per-satellite stage paths:

* cell bitsets: the active cells are numbered in (stage, step, target)
  order, each satellite's (slot, cell) visibility rows are packed into
  uint64 words once, and a per-stage word mask keeps stage s's bit range
  in the (satellite, stage, slot) row; no per-cell boolean array outlives
  the build, and only the weighted / multi-coverage search unpacks one;
* marginal tables: for the satellite whose path is being branched on, the
  per-(stage, slot) count of still-uncovered cells that slot would add,
  recomputed against the union committed by earlier satellites;
* admissible bound: per stage, the best marginal among slots whose
  cheapest entry edge fits the remaining budget (connectivity and actual
  edge costs are relaxed, so the bound never underestimates), plus the
  same relaxation for every satellite not yet branched on;
* pruning: once any incumbent exists, a node dies unless its bound
  strictly beats the incumbent objective;
* dominance: a satellite's level is entered at most once per union on
  the cells it and the satellites after it can reach under their full
  budgets, unless a later entry brings a strictly larger reward.  Equal
  unions there give equal completions, the earlier entry's subtree has
  already raised the incumbent to its best leaf, and leaves only replace
  the incumbent when strictly better, so the plan is the one the search
  without this rule returns, in fewer nodes.

The guaranteed contract is the objective: when the solver finishes, the
returned value is the exact optimum, and the plan is one deterministic
plan achieving it (the first the fixed-order search completes).  Earlier
revisions also minimized fuel among reward-optimal plans, but that tie
refinement has no useful lower bound (staying is free), so certifying it
devoured arbitrarily large node budgets on corpus-scale instances; the
solver no longer promises anything about which optimal plan comes back
beyond determinism and budget feasibility.  A node budget turns the
solver into an anytime method: when it trips, the incumbent comes back
flagged unproven together with a sound bound on the true optimum.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .maneuvers import CostMatrix

__all__ = [
    "RewardMatrix",
    "ReconfigPlan",
    "active_windows",
    "active_point_of_step",
    "build_reward_matrix",
    "compute_coverage",
    "score_plan",
    "solve_mcrp",
    "solve_mcrp_exhaustive",
    "DEFAULT_NODE_LIMIT",
]

DEFAULT_NODE_LIMIT = 1_000_000

# Joint-path cap for the exhaustive oracle.
_EXHAUSTIVE_CAP = 10_000_000

# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


def active_windows(num_steps: int, num_points: int) -> List[Tuple[int, int]]:
    """Half-open step window [lo, hi) during which each point is active.

    Point p (0-based) owns steps floor(p T / P) .. floor((p+1) T / P) - 1;
    the windows tile [0, T) for any T and P, equal-sized when P divides T.
    """
    if num_points < 1 or num_steps < 1:
        raise ValueError("need at least one step and one point")
    return [
        (p * num_steps // num_points, (p + 1) * num_steps // num_points)
        for p in range(num_points)
    ]


def active_point_of_step(t_index: int, num_steps: int, num_points: int) -> int:
    """Index of the single point active at a (0-based) global step."""
    if not 0 <= t_index < num_steps:
        raise ValueError(f"step {t_index} outside [0, {num_steps})")
    return ((t_index + 1) * num_points + num_steps - 1) // num_steps - 1


@dataclass(frozen=True)
class RewardMatrix:
    """Per-stage rewards pi[s][t][p] and coverage requirements r[s][t][p]."""

    pi: np.ndarray
    coverage_req: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        req = np.asarray(self.coverage_req, dtype=np.int64)
        if pi.ndim != 3 or pi.shape != req.shape:
            raise ValueError(f"pi {pi.shape} and coverage_req {req.shape} must both be (S, T_s, P)")
        if pi.size and pi.min() < 0.0:
            raise ValueError("rewards must be non-negative")
        if req.size and req.min() < 1:
            raise ValueError("coverage requirements must be at least 1")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "coverage_req", req)

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self.pi.shape


def build_reward_matrix(track_length_steps: int, num_points: int, num_stages: int) -> RewardMatrix:
    """Unit rewards, one active point per step, re-indexed by stage.

    Raises:
        ValueError: if the stage count does not divide the step count;
            the scenario grid must be adjusted, not the rewards.
    """
    t_total = track_length_steps
    if t_total % num_stages != 0:
        raise ValueError(
            f"{num_stages} stages do not divide {t_total} steps; "
            "adjust the time grid so stages are equal"
        )
    t_stage = t_total // num_stages
    pi = np.zeros((num_stages, t_stage, num_points))
    by_step = pi.reshape(t_total, num_points)  # step t is (t // t_stage, t % t_stage)
    for p, (lo, hi) in enumerate(active_windows(t_total, num_points)):
        by_step[lo:hi, p] = 1.0
    return RewardMatrix(pi=pi, coverage_req=np.ones_like(pi, dtype=np.int64))


# ---------------------------------------------------------------------------
# Plans and scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconfigPlan:
    """One slot path per satellite plus its cost breakdown and score.

    paths[k] has length S + 1; entry 0 is the initial slot index.  When
    proven_optimal is False the search hit its node budget and
    objective_bound is a certified upper bound on the true optimum.
    """

    paths: Tuple[Tuple[int, ...], ...]
    per_stage_cost: np.ndarray
    objective: float
    proven_optimal: bool = True
    objective_bound: float = field(default=math.nan)

    def __post_init__(self) -> None:
        cost = np.asarray(self.per_stage_cost, dtype=float)
        if cost.ndim != 2 or cost.shape[0] != len(self.paths):
            raise ValueError("per_stage_cost must be (K, S)")
        for path in self.paths:
            if len(path) != cost.shape[1] + 1:
                raise ValueError("each path must list S+1 slots including the start")
        object.__setattr__(self, "per_stage_cost", cost)
        if math.isnan(self.objective_bound):
            object.__setattr__(self, "objective_bound", self.objective)

    def total_cost(self, k: int) -> float:
        return _satellite_totals(self.per_stage_cost)[k]

    def to_csv(self, path) -> None:
        """Write `sat, stage, from_slot, to_slot, delta_v_km_s` rows.

        Satellites and slots are 0-based, stages 1-based.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sat", "stage", "from_slot", "to_slot", "delta_v_km_s"])
            for k, p in enumerate(self.paths):
                for s in range(len(p) - 1):
                    writer.writerow([k, s + 1, p[s], p[s + 1], repr(float(self.per_stage_cost[k, s]))])


def _path_stage_costs(costs: CostMatrix, paths: Sequence[Sequence[int]]) -> np.ndarray:
    """(K, S) cost table for explicit paths; raises on out-of-range slots."""
    n_sats = len(paths)
    n_stages = costs.num_stages
    out = np.zeros((n_sats, n_stages))
    for k, path in enumerate(paths):
        if len(path) != n_stages + 1:
            raise ValueError(f"path for satellite {k} must have {n_stages + 1} entries")
        for s in range(n_stages):
            table = costs.stages[s][k]
            i, j = path[s], path[s + 1]
            if not (0 <= i < table.shape[0] and 0 <= j < table.shape[1]):
                raise ValueError(f"slot index out of range at satellite {k}, stage {s}")
            out[k, s] = table[i, j]
    return out


def _satellite_totals(stage_costs: np.ndarray) -> List[float]:
    """Stage-sequential per-satellite sums, the association every
    comparison in this module uses."""
    totals = []
    for k in range(stage_costs.shape[0]):
        acc = 0.0
        for s in range(stage_costs.shape[1]):
            acc += float(stage_costs[k, s])
        totals.append(acc)
    return totals


def _check_visibility(visible: np.ndarray, rewards: RewardMatrix) -> Tuple[int, ...]:
    """Shape (S, K, J, T_s, P) of a boolean visibility array that matches
    the rewards' (S, T_s, P)."""
    if visible.dtype != bool or visible.ndim != 5:
        raise ValueError(
            "visibility must be a boolean (S, K, J, T_s, P) array, "
            f"got {visible.dtype} {visible.shape}"
        )
    n_stages, _, _, t_stage, n_points = visible.shape
    if rewards.dims != (n_stages, t_stage, n_points):
        raise ValueError(
            f"rewards shaped {rewards.dims}, visibility expects {(n_stages, t_stage, n_points)}"
        )
    return visible.shape


def compute_coverage(
    paths: Sequence[Sequence[int]], visible: np.ndarray, rewards: RewardMatrix
) -> np.ndarray:
    """Coverage y[s][t][p] implied by explicit paths: the count of seeing
    satellites meets the requirement.

    Args:
        paths: one slot path of length S + 1 per satellite, start first.
        visible: boolean (S, K, J, T_s, P) visibility.
        rewards: requirements, shaped (S, T_s, P).

    Returns:
        Boolean array of shape (S, T_s, P).
    """
    n_stages, n_sats, j_max, t_stage, n_points = _check_visibility(visible, rewards)
    if len(paths) != n_sats:
        raise ValueError(f"expected {n_sats} paths, got {len(paths)}")
    counts = np.zeros((n_stages, t_stage, n_points), dtype=np.int64)
    for k, path in enumerate(paths):
        if len(path) != n_stages + 1:
            raise ValueError(f"path for satellite {k} must have {n_stages + 1} entries")
        for s in range(n_stages):
            j = path[s + 1]
            if not 0 <= j < j_max:
                raise ValueError(f"slot {j} out of range for satellite {k}, stage {s}")
            counts[s] += visible[s, k, j]
    return counts >= rewards.coverage_req


def score_plan(plan: ReconfigPlan, visible: np.ndarray, rewards: RewardMatrix) -> float:
    """Objective of a plan: rewards collected where coverage is met."""
    y = compute_coverage(plan.paths, visible, rewards)
    return float(rewards.pi[y].sum())


# ---------------------------------------------------------------------------
# Bitset plumbing
# ---------------------------------------------------------------------------


def _pack_words(vec: np.ndarray) -> np.ndarray:
    """Pack boolean rows (..., W) into little-endian uint64 words, at
    least one per row."""
    bits = np.packbits(np.ascontiguousarray(vec), axis=-1, bitorder="little")
    pad = 8 * max(1, -(-bits.shape[-1] // 8)) - bits.shape[-1]
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    return np.ascontiguousarray(bits).view(np.uint64)


def _cell_words(visible: np.ndarray, act: np.ndarray) -> np.ndarray:
    """(K, S, J, W64) words: bit c of [k, s, j] is set when satellite k in
    slot j sees active cell c during stage s.

    Cells are numbered in (stage, step, target) order, so stage s owns one
    contiguous bit range.  Each satellite's (J, W) rows are packed once and
    ANDed with a word mask per stage range; the unpacked rows die here.
    When every cell is active, as with one active target per step, the
    rows are the (J, S T_s P) reshape of the satellite's slots, which is a
    view of a (K, J, T) array's slot rows, so nothing is gathered.
    """
    n_stages, n_sats, n_slots = visible.shape[:3]
    stage_words = _pack_words(np.nonzero(act)[0] == np.arange(n_stages)[:, None])  # (S, W64)
    words = np.empty((n_sats, n_stages, n_slots, stage_words.shape[-1]), dtype=np.uint64)
    every = act.all()
    for k in range(n_sats):
        rows = np.transpose(visible[:, k], (1, 0, 2, 3))
        rows = rows.reshape(n_slots, -1) if every else rows[:, act]
        np.bitwise_and(_pack_words(rows), stage_words[:, None], out=words[k])  # (J, W64) rows
    return words


def _frontier(edge: np.ndarray, minc: np.ndarray) -> np.ndarray:
    """(K, I, V) minimum over t of edge[k, i, t] + minc[k, t, v], summed
    only where minc is finite, since an infinite term cannot win.

    minc rows are nondecreasing, so with each satellite's to-slots sorted
    by the length of their finite prefix, column v sums the first n(v)
    sorted slots, and each run of columns with one n is one (I, w, n) sum
    and min.  A run whose minc block is all zero takes its edge columns'
    row minimum plus 0.0, which turns -0.0 into +0.0 as the sum does; so
    no minc entry is -0.0, and the exact min keeps the full sum's bits.
    """
    finite = np.count_nonzero(minc < np.inf, axis=2)
    order = np.argsort(-finite, axis=1, kind="stable")
    counts = np.count_nonzero(finite[:, None, :] > np.arange(minc.shape[2])[:, None], axis=2)
    cand = np.full(edge.shape[:2] + minc.shape[2:], np.inf)
    for k, row in enumerate(counts.tolist()):
        to_slots = edge[k][:, order[k]]
        sorted_minc = np.ascontiguousarray(minc[k][order[k]].T)
        lo = 0
        for n, run in itertools.groupby(row):
            hi = lo + len(list(run))
            block = sorted_minc[lo:hi, :n]
            if block.any():
                np.minimum.reduce(to_slots[:, None, :n] + block, axis=2, out=cand[k, :, lo:hi])
            elif n:
                cand[k, :, lo:hi] = np.minimum.reduce(to_slots[:, :n], axis=1)[:, None] + 0.0
            lo = hi
    return cand


class _Instance:
    """Preprocessed solver input shared by both solve routes."""

    def __init__(self, visible: np.ndarray, rewards: RewardMatrix, costs: CostMatrix):
        n_stages, n_sats, j_max, _, _ = _check_visibility(visible, rewards)
        if costs.num_stages != n_stages or costs.num_satellites != n_sats:
            raise ValueError("cost matrix dimensions disagree with the visibility array")
        self.S, self.K = n_stages, n_sats
        self.J = costs.stages[-1].shape[2]
        if self.J > j_max:
            raise ValueError(f"cost matrix offers {self.J} slots, visibility holds {j_max}")
        self.costs = costs
        self.budget = np.asarray(costs.budget, dtype=float)

        act = rewards.pi > 0.0
        self.cell_weights = rewards.pi[act]
        self.cell_req = rewards.coverage_req[act]
        self.W = int(act.sum())
        self.binary = bool(np.all(rewards.coverage_req == 1)) and bool(
            np.all(np.isin(rewards.pi, (0.0, 1.0)))
        )

        # (K, S, J, W64) cell bitsets, packed from each satellite's rows
        # and split by stage in words (_cell_words).  The binary route
        # reads only these; _GeneralSearch unpacks its own dense mask.
        self.words = _cell_words(visible[:, :, : self.J], act)
        self.zero_words = np.zeros(self.words.shape[-1], dtype=np.uint64)

        # Budget-relaxation tables: the cheapest way to appear in a slot at
        # each stage, ignoring where the satellite came from, as (K, S, J)
        # arrays; entry_sorted holds the rows the search bisects as lists.
        self.cheapest_entry = np.stack([c.min(axis=1) for c in costs.stages], axis=1)
        self.entry_perm = np.argsort(self.cheapest_entry, axis=-1, kind="stable")
        self.entry_sorted = np.take_along_axis(self.cheapest_entry, self.entry_perm, axis=-1).tolist()

        # Reachable-cell unions under the full budget, used for the
        # union-form bounds.  afford_from[k][s] ORs every slot row the
        # satellite could in principle afford at stages >= s.
        self.afford_full = self.cheapest_entry <= self.budget[:, None, None]
        stage_union = np.bitwise_or.reduce(self.words, axis=2, where=self.afford_full[..., None], initial=0)
        self.afford_from = np.zeros((n_sats, n_stages + 1, self.words.shape[-1]), dtype=np.uint64)
        self.afford_from[:, :-1] = np.bitwise_or.accumulate(stage_union[:, ::-1], axis=1)[:, ::-1]

        # Completion frontiers, frozen against the empty union.  For each
        # satellite, trail_cost[k][s][j][v] is the least fuel stages s+1
        # onward can cost while still collecting at least v more cells,
        # given the satellite sits in slot j during stage s.  Stage cells
        # are disjoint, so within one satellite the stage sums are exact,
        # and the frontier prices budget accumulation across stages, which
        # per-stage maxima ignore.  Root gains only shrink as the union
        # grows, so these lookups stay admissible anywhere in the tree.
        # All satellites share one value axis; the columns past a
        # satellite's own depth are +inf and are cut off its tables.
        root_pc = np.bitwise_count(self.words).sum(axis=-1).astype(np.int64)
        depth = (root_pc.max(axis=2).sum(axis=1) + 1).tolist()
        v_axis = np.arange(max(depth))
        minc = np.where(v_axis <= root_pc[:, -1, :, None], 0.0, np.inf)
        per_stage = []
        for s in range(n_stages - 2, -1, -1):
            cand = _frontier(np.asarray(costs.stages[s + 1], dtype=float), minc)
            per_stage.append(cand)
            minc = np.take_along_axis(cand, np.maximum(v_axis - root_pc[:, s, :, None], 0), axis=2)
        per_stage.reverse()
        total = (np.asarray(costs.stages[0][:, 0], dtype=float)[:, :, None] + minc).min(axis=1)
        frames = [cand.min(axis=1).tolist() for cand in per_stage]
        self.trail_cost = []   # [k][s]: J nondecreasing cost-per-value rows
        self.trail_frame = []  # [k][s]: slot-independent row, min over slots
        self.root_cap = []     # [k]: best value a full-budget path can reach
        for k, v in enumerate(depth):
            self.trail_cost.append([cand[k, :, :v].tolist() for cand in per_stage])
            self.trail_frame.append([frame[k][:v] for frame in frames])
            cap = int(np.searchsorted(total[k, :v], self.budget[k], side="right")) - 1
            self.root_cap.append(max(cap, 0))
        self._arange_j = np.arange(self.J)

    def stage_cost(self, s: int, k: int, i: int, j: int) -> float:
        return float(self.costs.stages[s][k][i, j])


def _score_words(words_union: np.ndarray) -> int:
    return int(np.bitwise_count(words_union).sum())


class _Abort(Exception):
    pass


class _LevelTables:
    """Per-level search tables for one satellite against a fixed union."""

    __slots__ = (
        "gains", "order", "prefix_max", "entry_sorted", "from_pc", "suffix",
        "trail_cost", "trail_frame",
    )

    def __init__(
        self, gains, order, prefix_max, entry_sorted, from_pc, suffix,
        trail_cost, trail_frame,
    ):
        self.gains = gains
        self.order = order
        self.prefix_max = prefix_max
        self.entry_sorted = entry_sorted
        self.from_pc = from_pc
        self.suffix = suffix
        self.trail_cost = trail_cost
        self.trail_frame = trail_frame


class _Search:
    """Branch-and-bound state for the binary fast path.

    Stage cells are disjoint, so a satellite's stage-s gain against the
    level-entry union stays exact no matter what its other stages add;
    gain tables are therefore computed once per level, and the candidate
    loop is pure scalar arithmetic.
    """

    def __init__(self, inst: _Instance, node_limit: int):
        self.inst = inst
        self.node_limit = node_limit
        self.nodes = 0
        self.aborted = False
        self.abort_bound = -math.inf
        self.best_key: Optional[tuple] = None
        self.best_paths: Optional[list] = None
        # reach[k]: bit positions, in the union's unpacked bits, of the
        # cells satellites k..K-1 can cover under their full budgets
        bits = np.unpackbits(inst.afford_from[:, 0].view(np.uint8), axis=-1, bitorder="little")
        reach = np.bitwise_or.accumulate(bits[::-1], axis=0)[::-1]
        self.reach = [np.flatnonzero(row) for row in reach]
        self.entered: dict = {}

    def offer(self, flat_path: tuple, z: Optional[int] = None) -> None:
        """Install a candidate incumbent.

        Seeds may tie each other in reward; among those the cheaper total
        fuel wins, then the lexicographically smaller vector, so seeding
        order cannot change the outcome.  Search leaves only arrive here
        with strictly better rewards and always replace.
        """
        inst = self.inst
        if z is None:
            union = inst.zero_words.copy()
            for k in range(inst.K):
                for s in range(inst.S):
                    union |= inst.words[k, s, flat_path[k * inst.S + s]]
            z = _score_words(union)
        key = (-z, _total_fuel(inst, flat_path), flat_path)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_paths = list(flat_path)

    def solve(self) -> None:
        try:
            self._level(0, self.inst.zero_words.copy(), 0, [])
        except _Abort:
            self.aborted = True

    # -- bounds ------------------------------------------------------------

    def _fresh_tables(self, k: int, union: np.ndarray) -> _LevelTables:
        """Exact per-stage gains for satellite k against the committed
        union, plus relaxed bounds for the satellites after it.

        Two admissible forms per later satellite, the tighter one wins:
        the root-frozen completion frontier cap (ignores overlap and the
        union, exact on budget), and the current popcount of every cell
        it could reach at all (ignores the budget split).  Both only
        shrink as the union grows, so level-entry values stay sound
        deeper in the level.
        """
        inst = self.inst
        not_union = ~union
        # int64: these feed sign-sensitive sort keys and exact bounds.
        own = np.bitwise_count(inst.words[k] & not_union).sum(axis=-1).astype(np.int64)
        gains, order, prefix_max = [], [], []
        for s in range(inst.S):
            gains.append(own[s].tolist())
            order.append(np.lexsort((inst._arange_j, -own[s])).tolist())
            prefix_max.append(np.maximum.accumulate(own[s][inst.entry_perm[k][s]]).tolist())
        from_pc = np.bitwise_count(inst.afford_from[k] & not_union).sum(axis=-1).tolist()
        suffix = 0
        if k + 1 < inst.K:
            union_forms = (
                np.bitwise_count(inst.afford_from[k + 1 :, 0] & not_union)
                .sum(axis=-1)
                .tolist()
            )
            for off, union_form in enumerate(union_forms):
                suffix += min(inst.root_cap[k + 1 + off], union_form)
        return _LevelTables(
            gains, order, prefix_max, inst.entry_sorted[k], from_pc, suffix,
            inst.trail_cost[k], inst.trail_frame[k],
        )

    def _trailing(self, tables: _LevelTables, s: int, budget_left: float) -> int:
        """Bound on what stages > s can still add with the given budget."""
        total = 0
        for s2 in range(s + 1, self.inst.S):
            idx = bisect.bisect_right(tables.entry_sorted[s2], budget_left) - 1
            if idx >= 0:
                total += tables.prefix_max[s2][idx]
        best = min(total, tables.from_pc[s + 1])
        if s + 1 < self.inst.S:
            cap = bisect.bisect_right(tables.trail_frame[s], budget_left) - 1
            if cap < 0:
                cap = 0
            if cap < best:
                best = cap
        return best

    # -- search ------------------------------------------------------------

    def _level(self, k, union, z_union, flat):
        """Branch on satellite k's path against the union of the paths in ``flat``.

        Dominance: the entry is keyed by k and the union's bits on the
        cells satellites k..K-1 can reach under their full budgets, and
        skipped unless its reward beats every earlier entry's with that
        key.  The plan and reward do not change:

        - an equal key means equal completions: every completion covers
          only reachable cells, so it adds the same cells to either union;
        - the earlier entry's subtree has finished, so the incumbent is
          already at least that entry's best leaf, which is at least this
          entry's best leaf;
        - leaves only ever strictly improve, because the last stage's
          bound is exact (no trailing stages, no later satellites), so no
          leaf of this entry would have replaced the incumbent;
        - so the sequence of incumbents is the same, with fewer nodes.
        """
        inst = self.inst
        if k == inst.K:
            self.offer(tuple(flat), z=z_union)
            return
        if k:
            bits = np.unpackbits(union.view(np.uint8), bitorder="little")[self.reach[k]]
            key = (k, np.packbits(bits).tobytes())
            if self.entered.get(key, -1) >= z_union:
                return
            self.entered[key] = z_union
        tables = self._fresh_tables(k, union)
        self._stages(k, 0, 0, float(inst.budget[k]), union, z_union, flat, tables)

    def _stages(self, k, s, slot, budget_left, union, z_union, flat, tables):
        inst = self.inst
        if s == inst.S:
            self._level(k + 1, union, z_union, flat)
            return
        row = inst.costs.stages[s][k][slot]
        gains = tables.gains[s]
        suffix = tables.suffix
        trail_frame = self._trailing(tables, s, budget_left)
        best_key = self.best_key
        inc_z = -best_key[0] if best_key is not None else -1
        last_stage = s == inst.S - 1
        try:
            for j in tables.order[s]:
                gain = gains[j]
                # candidates come gain-descending: once even a free ride at
                # full budget cannot beat the incumbent, none that follow can
                if z_union + gain + trail_frame + suffix <= inc_z:
                    break
                edge = float(row[j])
                if edge > budget_left:
                    continue
                if last_stage and gain == 0 and edge > 0.0:
                    # a free stay reaches the same leaf reward
                    continue
                self.nodes += 1
                if self.nodes > self.node_limit:
                    raise _Abort
                left = budget_left - edge
                trail = self._trailing(tables, s, left)
                if not last_stage:
                    # slot-specific frontier row beats the frame-wide one
                    cap = bisect.bisect_right(tables.trail_cost[s][j], left) - 1
                    if cap < 0:
                        cap = 0
                    if cap < trail:
                        trail = cap
                bound = z_union + gain + trail + suffix
                if bound > inc_z:
                    flat.append(j)
                    self._stages(
                        k, s + 1, j, budget_left - edge,
                        union | inst.words[k, s, j], z_union + gain,
                        flat, tables,
                    )
                    flat.pop()
                    if self.best_key is not best_key:
                        best_key = self.best_key
                        inc_z = -best_key[0]
        except _Abort:
            # Unexplored subtrees all hang off this frame's children, and
            # the frame bound dominates every child bound.
            own_now = 0
            idx = bisect.bisect_right(tables.entry_sorted[s], budget_left) - 1
            if idx >= 0:
                own_now = tables.prefix_max[s][idx]
            frame_bound = z_union + min(own_now + self._trailing(tables, s, budget_left),
                                        tables.from_pc[s]) + suffix
            self.abort_bound = max(self.abort_bound, float(frame_bound))
            raise


def _paths(inst: _Instance, flat: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Per-satellite slot paths, start slot 0 first, of a satellite-major
    flat vector with one slot per stage."""
    return tuple(
        tuple([0] + [int(flat[k * inst.S + s]) for s in range(inst.S)]) for k in range(inst.K)
    )


def _total_fuel(inst: _Instance, flat: Sequence[int]) -> float:
    """Fleet fuel of a flat vector, summed satellite by satellite."""
    total = 0.0
    for t in _satellite_totals(_path_stage_costs(inst.costs, _paths(inst, flat))):
        total += t
    return total


def _plan_from_flat(
    inst: _Instance, flat: Sequence[int], objective: float, proven: bool, bound: float
) -> ReconfigPlan:
    paths = _paths(inst, flat)
    return ReconfigPlan(
        paths=paths,
        per_stage_cost=_path_stage_costs(inst.costs, paths),
        objective=objective,
        proven_optimal=proven,
        objective_bound=bound,
    )


def _validate_start(inst: _Instance, flat: Sequence[int], label: str) -> None:
    if len(flat) != inst.K * inst.S:
        raise ValueError(f"{label} must list one slot per satellite per stage")
    stage_costs = _path_stage_costs(inst.costs, _paths(inst, flat))
    for k, total in enumerate(_satellite_totals(stage_costs)):
        if total > inst.budget[k]:
            raise ValueError(f"{label} exceeds satellite {k}'s budget")


# ---------------------------------------------------------------------------
# General (weighted / multi-coverage) search
# ---------------------------------------------------------------------------


class _GeneralSearch:
    """Count-based variant used when rewards are weighted or r > 1.

    Same branching order as the fast path; bounds relax the coverage
    requirement (each touched, still-unsatisfied cell counts its full
    weight), which keeps them admissible.  Unlike the fast path it only
    prunes strictly worse bounds, so among reward-optimal plans it keeps
    searching and lands on the cheapest-fuel, lexicographically smallest
    one; at the small sizes that need this route the extra work is
    affordable, but it is an implementation nicety, not part of the
    solver contract.
    """

    def __init__(self, inst: _Instance, node_limit: int):
        self.inst = inst
        self.node_limit = node_limit
        self.nodes = 0
        self.aborted = False
        self.abort_bound = -math.inf
        self.best_key: Optional[tuple] = None
        self.best_paths: Optional[list] = None
        # (K, S, J, max(W, 1)): the one dense per-cell array, on this route only
        self.masks = np.unpackbits(
            inst.words.view(np.uint8), axis=-1, bitorder="little"
        )[..., : max(inst.W, 1)].view(bool)
        self.cell_idx = [
            [
                [np.nonzero(self.masks[k, s, j])[0] for j in range(inst.J)]
                for s in range(inst.S)
            ]
            for k in range(inst.K)
        ]

    def score_flat(self, flat: Sequence[int]) -> float:
        inst = self.inst
        counts = np.zeros(max(inst.W, 1), dtype=np.int64)
        for k in range(inst.K):
            for s in range(inst.S):
                counts[self.cell_idx[k][s][flat[k * inst.S + s]]] += 1
        if inst.W == 0:
            return 0.0
        return float(inst.cell_weights[counts[: inst.W] >= inst.cell_req].sum())

    def offer(self, flat: tuple) -> None:
        key = (-self.score_flat(flat), _total_fuel(self.inst, flat), flat)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_paths = list(flat)

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _Abort

    def solve(self) -> None:
        counts = np.zeros(max(self.inst.W, 1), dtype=np.int64)
        try:
            self._level(0, counts, [])
        except _Abort:
            self.aborted = True

    def _potentials(self, k: int, counts: np.ndarray):
        inst = self.inst
        if inst.W == 0:
            return np.zeros((inst.K - k, inst.S, inst.J)), 0.0
        open_w = np.where(counts[: inst.W] < inst.cell_req, inst.cell_weights, 0.0)
        pot = (self.masks[k:, :, :, : inst.W] * open_w).sum(axis=-1)
        suffix = 0.0
        for off in range(1, pot.shape[0]):
            kk = k + off
            for s in range(inst.S):
                affordable = inst.cheapest_entry[kk][s] <= inst.budget[kk]
                if affordable.any():
                    suffix += float(pot[off][s][affordable].max())
        return pot, suffix

    def _stage_ub(self, k: int, s: int, budget_left: float, own: np.ndarray) -> float:
        affordable = self.inst.cheapest_entry[k][s] <= budget_left
        if not affordable.any():
            return 0.0
        return float(own[s][affordable].max())

    def _level(self, k: int, counts: np.ndarray, flat: list):
        inst = self.inst
        if k == inst.K:
            self.offer(tuple(flat))
            return
        own, suffix = self._potentials(k, counts)
        own = own[0]
        self._stages(k, 0, 0, float(inst.budget[k]), counts, flat, own, suffix)

    def _stages(self, k, s, slot, budget_left, counts, flat, own, suffix):
        inst = self.inst
        if s == inst.S:
            self._level(k + 1, counts, flat)
            return
        z_now = None
        table = inst.costs.stages[s][k]
        order = np.lexsort((np.arange(inst.J), -own[s]))
        try:
            for j in order:
                j = int(j)
                edge = float(table[slot, j])
                if edge > budget_left:
                    continue
                self.tick()
                if z_now is None:
                    z_now = (
                        float(inst.cell_weights[counts[: inst.W] >= inst.cell_req].sum())
                        if inst.W
                        else 0.0
                    )
                bound = z_now
                for s2 in range(s, inst.S):
                    bound += self._stage_ub(k, s2, budget_left, own)
                bound += suffix
                if self.best_key is not None:
                    if bound < -self.best_key[0] - 1e-12:
                        continue
                idx = self.cell_idx[k][s][j]
                counts[idx] += 1
                flat.append(j)
                self._stages(
                    k, s + 1, j, budget_left - edge, counts, flat, own, suffix,
                )
                flat.pop()
                counts[idx] -= 1
        except _Abort:
            fb = z_now
            if fb is None:
                fb = (
                    float(inst.cell_weights[counts[: inst.W] >= inst.cell_req].sum())
                    if inst.W
                    else 0.0
                )
            for s2 in range(s, inst.S):
                fb += self._stage_ub(k, s2, budget_left, own)
            fb += suffix
            self.abort_bound = max(self.abort_bound, fb)
            raise


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def solve_mcrp(
    visible: np.ndarray,
    rewards: RewardMatrix,
    costs: CostMatrix,
    node_limit: int = DEFAULT_NODE_LIMIT,
    warm_starts: Sequence[Sequence[int]] = (),
) -> ReconfigPlan:
    """Exact multistage reconfiguration solve.

    Args:
        visible: boolean visibility over (stage, satellite, slot, step,
            target).
        rewards: rewards and coverage requirements.
        costs: per-stage transfer costs with the per-satellite budget.
        node_limit: search nodes before giving up on the proof; the
            incumbent is then returned with proven_optimal False and a
            sound objective_bound.
        warm_starts: optional flat slot vectors (satellite-major, one
            entry per stage) seeding the incumbent; each must respect the
            budget.

    Returns:
        A plan achieving the exact optimal objective (flagged
        proven_optimal) unless the node limit tripped, in which case the
        best incumbent with a sound objective_bound.  The plan itself is
        a deterministic representative: budget-feasible and reproducible
        run to run, but when several plans share the optimal objective no
        promise is made about which one comes back.
    """
    inst = _Instance(visible, rewards, costs)
    search = _Search(inst, node_limit) if inst.binary else _GeneralSearch(inst, node_limit)

    all_stay = tuple([0] * (inst.K * inst.S))
    _validate_start(inst, all_stay, "all-stay start")
    search.offer(all_stay)
    for w, start in enumerate(warm_starts):
        flat = tuple(int(x) for x in start)
        _validate_start(inst, flat, f"warm start {w}")
        search.offer(flat)

    search.solve()
    assert search.best_key is not None and search.best_paths is not None
    z = float(-search.best_key[0])
    bound = z if not search.aborted else max(z, float(search.abort_bound))
    return _plan_from_flat(inst, search.best_paths, z, not search.aborted, bound)


def solve_mcrp_exhaustive(
    visible: np.ndarray,
    rewards: RewardMatrix,
    costs: CostMatrix,
) -> ReconfigPlan:
    """Plain enumeration over all joint slot paths, for verification.

    Raises:
        ValueError: when the joint path count exceeds 10^7.
    """
    inst = _Instance(visible, rewards, costs)
    per_sat_paths: List[List[tuple]] = []
    for k in range(inst.K):
        paths_k = []
        for combo in itertools.product(range(inst.J), repeat=inst.S):
            total = 0.0
            slot = 0
            ok = True
            for s, j in enumerate(combo):
                edge = inst.stage_cost(s, k, slot, j)
                total += edge
                slot = j
                if total > inst.budget[k]:
                    ok = False
                    break
            if ok:
                paths_k.append((combo, total))
        if not paths_k:
            raise ValueError(f"satellite {k} has no affordable slot path")
        per_sat_paths.append(paths_k)
    joint = 1
    for paths_k in per_sat_paths:
        joint *= len(paths_k)
        if joint > _EXHAUSTIVE_CAP:
            raise ValueError("instance too large for exhaustive enumeration")

    scorer = _GeneralSearch(inst, node_limit=0)
    best_key = None
    best_flat = None
    for combo in itertools.product(*per_sat_paths):
        flat = tuple(itertools.chain.from_iterable(c[0] for c in combo))
        total = 0.0
        for c in combo:
            total += c[1]
        z = scorer.score_flat(flat)
        key = (-z, total, flat)
        if best_key is None or key < best_key:
            best_key = key
            best_flat = flat
    assert best_flat is not None
    return _plan_from_flat(inst, best_flat, float(-best_key[0]), True, float(-best_key[0]))
