"""Reconfiguration solver tests.

The load-bearing check is solve vs. plain enumeration on random
instances, with keys compared whole (objective, fuel, path vector) so
tie-breaking is pinned down, not just the optimum value.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from stormcover import mcrp
from stormcover.harness import MODEL_MATRIX, ScenarioConfig, _TrackWorkspace, default_corpus
from stormcover.maneuvers import CostMatrix
from stormcover.mcrp import (
    DEFAULT_NODE_LIMIT,
    RewardMatrix,
    active_point_of_step,
    active_windows,
    build_reward_matrix,
    compute_coverage,
    score_plan,
    solve_mcrp,
    solve_mcrp_exhaustive,
)


def make_costs(rng, n_sats, n_stages, n_slots, budget_range=(0.3, 2.0), levels=None):
    """Random cost matrix with free stay edges and slot 0 as the start.

    `levels` draws every moving edge from a small discrete set, which
    makes cost ties common and exercises the tie-break order.
    """

    def draw(shape):
        if levels is None:
            return rng.uniform(0.05, 1.2, size=shape)
        return rng.choice(levels, size=shape)

    stages = []
    first = np.zeros((n_sats, 1, n_slots))
    first[:, 0, 1:] = draw((n_sats, n_slots - 1))
    stages.append(first)
    for _ in range(1, n_stages):
        block = draw((n_sats, n_slots, n_slots))
        for k in range(n_sats):
            np.fill_diagonal(block[k], 0.0)
        stages.append(block)
    budget = rng.uniform(*budget_range, size=n_sats)
    return CostMatrix(stages=tuple(stages), budget=budget)


def random_instance(rng, n_sats, n_stages, n_slots, t_stage, n_points,
                    vis_density=0.3, reward_density=0.6, max_req=1, levels=None):
    full = rng.random((n_stages, n_sats, n_slots, t_stage, n_points)) < vis_density
    pi = (rng.random((n_stages, t_stage, n_points)) < reward_density).astype(float)
    req = np.ones_like(pi, dtype=np.int64)
    if max_req > 1:
        req = rng.integers(1, max_req + 1, size=pi.shape)
    rewards = RewardMatrix(pi=pi, coverage_req=req)
    costs = make_costs(rng, n_sats, n_stages, n_slots, levels=levels)
    return full, rewards, costs


def plan_key(plan):
    return (-plan.objective, sum(plan.total_cost(k) for k in range(len(plan.paths))), plan.paths)


class TestWindows:
    @pytest.mark.parametrize("steps,points", [(8, 2), (12, 5), (7, 3), (100, 7), (5, 5), (9, 1)])
    def test_matches_floor_oracle(self, steps, points):
        ours = active_windows(steps, points)
        ref = oracles.active_windows_floor(steps, points)
        assert [(lo + 1, hi) for lo, hi in ours] == ref

    @pytest.mark.parametrize("steps,points", [(8, 2), (7, 3), (100, 7), (31, 4)])
    def test_partition_and_lookup(self, steps, points):
        windows = active_windows(steps, points)
        owner = np.full(steps, -1)
        for p, (lo, hi) in enumerate(windows):
            assert owner[lo:hi].max(initial=-1) == -1, "windows overlap"
            owner[lo:hi] = p
        assert (owner >= 0).all(), "windows leave gaps"
        for t in range(steps):
            assert active_point_of_step(t, steps, points) == owner[t]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            active_windows(0, 3)
        with pytest.raises(ValueError, match="outside"):
            active_point_of_step(8, 8, 2)


class TestRewardBuilder:
    def test_eight_steps_two_points_two_stages(self):
        rm = build_reward_matrix(8, 2, 2)
        assert rm.dims == (2, 4, 2)
        # point 0 pays during stage 0 only, point 1 during stage 1 only
        assert rm.pi[0, :, 0].tolist() == [1.0] * 4
        assert rm.pi[0, :, 1].tolist() == [0.0] * 4
        assert rm.pi[1, :, 0].tolist() == [0.0] * 4
        assert rm.pi[1, :, 1].tolist() == [1.0] * 4
        assert (rm.coverage_req == 1).all()

    @pytest.mark.parametrize("steps,points,stages", [(12, 5, 4), (30, 7, 2), (9, 2, 3)])
    def test_single_active_point_per_step(self, steps, points, stages):
        rm = build_reward_matrix(steps, points, stages)
        t_stage = steps // stages
        for t in range(steps):
            row = rm.pi[t // t_stage, t % t_stage]
            assert row.sum() == 1.0
            assert row[active_point_of_step(t, steps, points)] == 1.0

    def test_stage_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            build_reward_matrix(10, 2, 4)

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError, match="non-negative"):
            RewardMatrix(pi=-np.ones((1, 2, 2)), coverage_req=np.ones((1, 2, 2), dtype=int))
        with pytest.raises(ValueError, match="at least 1"):
            RewardMatrix(pi=np.ones((1, 2, 2)), coverage_req=np.zeros((1, 2, 2), dtype=int))


class TestScoring:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tensor, rewards, costs = random_instance(
                rng, n_sats=2, n_stages=2, n_slots=3, t_stage=6, n_points=2, max_req=2
            )
            paths = [
                [0] + [int(rng.integers(0, 3)) for _ in range(2)] for _ in range(2)
            ]
            plan = _wrap_paths(paths, costs)
            ours = score_plan(plan, tensor, rewards)
            ref = oracles.score_plan_loops(
                tensor, rewards.pi, rewards.coverage_req, paths
            )
            assert ours == ref

    def test_structured_full_visibility_scores_track_length(self):
        # one active point per step and a slot that always sees it: z = T
        steps, points, stages = 12, 3, 2
        rm = build_reward_matrix(steps, points, stages)
        full = np.zeros((stages, 1, 2, steps // stages, points), dtype=bool)
        full[:, 0, 1] = rm.pi[:, :, :] > 0
        plan = _wrap_paths([[0, 1, 1]], make_costs(np.random.default_rng(0), 1, stages, 2))
        assert score_plan(plan, full, rm) == float(steps)

    def test_double_coverage_single_satellite_scores_zero(self):
        full = np.ones((1, 1, 2, 4, 1), dtype=bool)
        rm = RewardMatrix(
            pi=np.ones((1, 4, 1)), coverage_req=np.full((1, 4, 1), 2, dtype=np.int64)
        )
        plan = _wrap_paths([[0, 1]], make_costs(np.random.default_rng(0), 1, 1, 2))
        assert score_plan(plan, full, rm) == 0.0

    def test_out_of_range_slot_rejected(self):
        tensor, rewards, costs = random_instance(
            np.random.default_rng(3), 1, 1, 2, 4, 1
        )
        with pytest.raises(ValueError, match="out of range"):
            compute_coverage([[0, 5]], tensor, rewards)

    def test_visibility_must_be_boolean_with_five_axes(self):
        tensor, rewards, costs = random_instance(np.random.default_rng(3), 1, 1, 2, 4, 1)
        for bad in (tensor[0], tensor.astype(np.uint8), tensor[:, :, :, :3]):
            with pytest.raises(ValueError, match="visibility"):
                solve_mcrp(bad, rewards, costs)
            with pytest.raises(ValueError, match="visibility"):
                compute_coverage([[0, 1]], bad, rewards)

    def test_coverage_linkage(self):
        # y must flip exactly where the seeing-satellite count crosses r
        rng = np.random.default_rng(11)
        tensor, rewards, _ = random_instance(rng, 2, 2, 3, 5, 2, max_req=2)
        paths = [[0, 1, 2], [0, 0, 1]]
        y = compute_coverage(paths, tensor, rewards)
        assert y.shape == rewards.dims and y.dtype == bool
        counts = np.zeros_like(rewards.coverage_req)
        for k, path in enumerate(paths):
            for s in range(2):
                counts[s] += tensor[s, k, path[s + 1]]
        assert (y == (counts >= rewards.coverage_req)).all()


def _solve_general(visible, rewards, costs):
    """solve_mcrp with the weighted / multi-coverage search forced on a
    binary instance, which would otherwise take the bitset fast path."""
    from stormcover.mcrp import _GeneralSearch, _Instance, _plan_from_flat

    inst = _Instance(visible, rewards, costs)
    assert inst.binary
    search = _GeneralSearch(inst, DEFAULT_NODE_LIMIT)
    search.offer(tuple([0] * (inst.K * inst.S)))
    search.solve()
    assert not search.aborted
    z = float(-search.best_key[0])
    return _plan_from_flat(inst, search.best_paths, z, True, z)


def _wrap_paths(paths, costs):
    from stormcover.mcrp import ReconfigPlan, _path_stage_costs

    stage_costs = _path_stage_costs(costs, paths)
    return ReconfigPlan(
        paths=tuple(tuple(p) for p in paths),
        per_stage_cost=stage_costs,
        objective=0.0,
    )


class TestSolveToys:
    def test_stay_only_instance(self):
        # nothing affordable but staying put
        rng = np.random.default_rng(1)
        tensor, rewards, _ = random_instance(rng, 2, 2, 3, 4, 2)
        costs = make_costs(rng, 2, 2, 3, budget_range=(0.01, 0.02))
        for s in range(2):
            costs.stages[s][costs.stages[s] > 0] += 5.0
        plan = solve_mcrp(tensor, rewards, costs)
        assert all(p == (0, 0, 0) for p in plan.paths)
        assert plan.proven_optimal
        assert (plan.per_stage_cost == 0.0).all()

    def test_zero_budget_returns_all_stay(self):
        rng = np.random.default_rng(2)
        tensor, rewards, costs = random_instance(rng, 2, 2, 4, 5, 2)
        broke = CostMatrix(stages=costs.stages, budget=np.zeros(2))
        plan = solve_mcrp(tensor, rewards, broke)
        assert all(p == (0, 0, 0) for p in plan.paths)

    def test_obvious_move_taken(self):
        # slot 1 sees every reward cell, slot 0 sees nothing, move is cheap
        steps = 6
        rm = build_reward_matrix(steps, 1, 1)
        full = np.zeros((1, 1, 2, steps, 1), dtype=bool)
        full[0, 0, 1] = True
        stages = (np.array([[[0.0, 0.4]]]),)
        costs = CostMatrix(stages=stages, budget=np.array([2.0]))
        plan = solve_mcrp(full, rm, costs)
        assert plan.paths == ((0, 1),)
        assert plan.objective == float(steps)
        assert plan.per_stage_cost[0, 0] == 0.4
        assert plan.proven_optimal and plan.objective_bound == plan.objective

    def test_equal_coverage_ties_break_to_stay(self):
        # both slots free and identical: lexicographically smaller path wins
        full = np.ones((1, 1, 2, 4, 1), dtype=bool)
        rm = build_reward_matrix(4, 1, 1)
        stages = (np.zeros((1, 1, 2)),)
        costs = CostMatrix(stages=stages, budget=np.array([1.0]))
        plan = solve_mcrp(full, rm, costs)
        assert plan.paths == ((0, 0),)

    def test_tied_slots_give_deterministic_representative(self):
        # identical coverage at different prices: the solver promises the
        # optimal objective and a reproducible feasible plan, not which of
        # the tied slots it lands on
        full = np.zeros((1, 1, 3, 4, 1), dtype=bool)
        full[0, 0, 1] = True
        full[0, 0, 2] = True
        rm = build_reward_matrix(4, 1, 1)
        stages = (np.array([[[0.0, 0.9, 0.3]]]),)
        costs = CostMatrix(stages=stages, budget=np.array([2.0]))
        plan = solve_mcrp(full, rm, costs)
        again = solve_mcrp(full, rm, costs)
        assert plan.objective == 4.0 and plan.proven_optimal
        assert plan.paths[0][1] in (1, 2)
        assert plan.total_cost(0) <= 2.0
        assert again.paths == plan.paths


class TestSolveMatchesExhaustive:
    def test_random_instances_binary(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            tensor, rewards, costs = random_instance(
                rng,
                n_sats=int(rng.integers(1, 3)),
                n_stages=int(rng.integers(1, 3)),
                n_slots=int(rng.integers(2, 5)),
                t_stage=int(rng.integers(1, 11)),
                n_points=int(rng.integers(1, 4)),
                vis_density=float(rng.uniform(0.1, 0.7)),
            )
            got = solve_mcrp(tensor, rewards, costs)
            ref = solve_mcrp_exhaustive(tensor, rewards, costs)
            assert got.objective == ref.objective, f"trial {trial}"
            assert got.objective == score_plan(got, tensor, rewards)
            assert got.proven_optimal
            for k in range(len(got.paths)):
                assert got.total_cost(k) <= costs.budget[k]
            again = solve_mcrp(tensor, rewards, costs)
            assert again.paths == got.paths, f"trial {trial}"

    def test_random_instances_tied_costs(self):
        # discrete cost levels force plenty of exact fuel ties; the
        # objective must still match enumeration and the representative
        # must reproduce, though it need not be enumeration's tie winner
        rng = np.random.default_rng(99)
        for trial in range(40):
            tensor, rewards, costs = random_instance(
                rng, 2, 2, 3, 5, 2, levels=np.array([0.0, 0.25, 0.5])
            )
            got = solve_mcrp(tensor, rewards, costs)
            ref = solve_mcrp_exhaustive(tensor, rewards, costs)
            assert got.objective == ref.objective, f"trial {trial}"
            assert got.objective == score_plan(got, tensor, rewards)
            again = solve_mcrp(tensor, rewards, costs)
            assert again.paths == got.paths, f"trial {trial}"

    def test_random_instances_multi_coverage(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            tensor, rewards, costs = random_instance(
                rng, 2, 2, 3, 4, 2, max_req=2, vis_density=0.5
            )
            got = solve_mcrp(tensor, rewards, costs)
            ref = solve_mcrp_exhaustive(tensor, rewards, costs)
            assert got.objective == ref.objective, f"trial {trial}"
            assert got.paths == ref.paths, f"trial {trial}"

    def test_forced_general_route_agrees(self):
        # both routes must agree on the objective; representatives may
        # differ because only the general route refines ties
        rng = np.random.default_rng(5)
        for trial in range(20):
            tensor, rewards, costs = random_instance(rng, 2, 2, 3, 5, 2)
            fast = solve_mcrp(tensor, rewards, costs)
            slow = _solve_general(tensor, rewards, costs)
            assert fast.objective == slow.objective, f"trial {trial}"
            assert fast.objective == score_plan(fast, tensor, rewards)
            assert slow.objective == score_plan(slow, tensor, rewards)

    def test_weighted_rewards(self):
        rng = np.random.default_rng(23)
        for trial in range(15):
            tensor, rewards, costs = random_instance(rng, 2, 1, 3, 6, 2)
            weighted = RewardMatrix(
                pi=rewards.pi * rng.uniform(0.5, 3.0, size=rewards.pi.shape),
                coverage_req=rewards.coverage_req,
            )
            got = solve_mcrp(tensor, weighted, costs)
            ref = solve_mcrp_exhaustive(tensor, weighted, costs)
            assert got.objective == ref.objective, f"trial {trial}"
            assert got.paths == ref.paths


class TestLevelDominance:
    """The level-entry memo against the memo-free search it prunes."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(2, 4),
        n_stages=st.integers(1, 3),
        n_slots=st.integers(2, 5),
        t_stage=st.integers(1, 8),
        vis_density=st.floats(0.1, 0.7),
        tied=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_memo_free_search(self, seed, n_sats, n_stages, n_slots, t_stage, vis_density, tied):
        rng = np.random.default_rng(seed)
        tensor, rewards, costs = random_instance(
            rng, n_sats, n_stages, n_slots, t_stage, int(rng.integers(1, 3)),
            vis_density=vis_density, levels=[0.3, 0.6] if tied else None,
        )
        got = solve_mcrp(tensor, rewards, costs)
        # the memo-free search can need more nodes than the default limit
        # to prove what solve_mcrp proves: 1,541,484 on seed=2425,
        # n_sats=4, n_stages=3, n_slots=5, t_stage=6, vis_density=0.5, tied
        with mock.patch.object(mcrp, "_Search", oracles.memo_free_search(mcrp._Search)):
            want = solve_mcrp(tensor, rewards, costs, node_limit=4_000_000)
        assert got.objective == want.objective and got.paths == want.paths
        assert got.proven_optimal and want.proven_optimal
        assert got.objective_bound == want.objective_bound
        if n_slots ** (n_stages * n_sats) <= 4096:
            assert got.objective == solve_mcrp_exhaustive(tensor, rewards, costs).objective

    def test_prunes_repeated_entries(self):
        # three satellites: some level is entered again with a reachable
        # union it has already been searched under, and is skipped
        rng = np.random.default_rng(78)
        tensor, rewards, costs = random_instance(rng, 3, 2, 4, 6, 2, vis_density=0.4)
        runs = {}
        for label, cls in (("memo", mcrp._Search), ("free", oracles.memo_free_search(mcrp._Search))):
            search = cls(mcrp._Instance(tensor, rewards, costs), DEFAULT_NODE_LIMIT)
            search.offer(tuple([0] * 6))
            search.solve()
            runs[label] = (search.nodes, search.best_key, search.best_paths)
        assert runs["memo"][1:] == runs["free"][1:]
        assert runs["memo"][0] < runs["free"][0]


def _repriced(rng, costs, price, share=0.3):
    """The cost matrix with a random share of its edges priced ``price``:
    +inf, as the periapsis guard prices the edges it excludes, or -0.0."""
    stages = [c.copy() for c in costs.stages]
    for c in stages:
        c[rng.random(c.shape) < share] = price
    return CostMatrix(stages=tuple(stages), budget=costs.budget)


@pytest.fixture(scope="module")
def reconfig30_instances():
    """Every P1-U2 solver input of the reconfig30 benchmark's seed-0
    tracks (synth-01, -06, -11) at 30 and 45 deg."""
    out = []
    for fov in (30.0, 45.0):
        config = ScenarioConfig(fov_half_angle=math.radians(fov))
        for i in (0, 5, 10):
            ws = _TrackWorkspace(default_corpus(20)[i], config)
            for name in ("P1", "P2", "P3", "P4", "U1", "U2"):
                spec = MODEL_MATRIX[name]
                out.append((ws.tensor_for(spec), ws.rewards_for(spec.num_stages), ws.costs_for(spec)))
    return out


class TestFrontiers:
    """The completion frontiers, summed over finite entries only, against
    the whole-array sum they replaced, bit for bit."""

    @staticmethod
    def _assert_match(inst):
        got = (inst.trail_cost, inst.trail_frame, inst.root_cap)
        # float repr round-trips, so equal reprs are equal bits
        assert repr(got) == repr(oracles.instance_frontiers_loop(inst))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 3),
        n_stages=st.integers(1, 4),
        n_slots=st.integers(1, 7),
        t_stage=st.integers(1, 8),
        vis_density=st.floats(0.1, 0.9),
        tied=st.booleans(),
        unreachable=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_instances_match_oracle(
        self, seed, n_sats, n_stages, n_slots, t_stage, vis_density, tied, unreachable
    ):
        rng = np.random.default_rng(seed)
        tensor, rewards, costs = random_instance(
            rng, n_sats, n_stages, n_slots, t_stage, int(rng.integers(1, 3)),
            vis_density=vis_density, levels=[0.3, 0.6] if tied else None,
        )
        if unreachable:
            costs = _repriced(rng, costs, np.inf)
        self._assert_match(mcrp._Instance(tensor, rewards, costs))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 3),
        n_stages=st.integers(2, 4),
        n_slots=st.integers(1, 7),
        t_stage=st.integers(1, 8),
        unreachable=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_zero_last_stage_matches_oracle(
        self, seed, n_sats, n_stages, n_slots, t_stage, unreachable
    ):
        # only the last stage sees cells, and every slot sees all of them,
        # so the last stage's minc is zero everywhere: its frontier is one
        # row minimum of the edges, and a -0.0 edge must come back +0.0
        rng = np.random.default_rng(seed)
        tensor, rewards, costs = random_instance(rng, n_sats, n_stages, n_slots, t_stage, 2)
        tensor[:-1] = False
        tensor[-1] = True
        costs = _repriced(rng, costs, -0.0)
        if unreachable:
            costs = _repriced(rng, costs, np.inf)
        inst = mcrp._Instance(tensor, rewards, costs)
        gains = np.bitwise_count(inst.words).sum(axis=-1)
        assert not gains[:, :-1].any() and np.all(gains[:, -1] == gains[:, -1, :1])
        self._assert_match(inst)

    def test_reconfig30_instances_match_oracle(self, reconfig30_instances):
        for args in reconfig30_instances:
            self._assert_match(mcrp._Instance(*args))

    def test_synth_20_u2_matches_oracle(self):
        ws = _TrackWorkspace(default_corpus(20)[19], ScenarioConfig())
        spec = MODEL_MATRIX["U2"]
        args = (ws.tensor_for(spec), ws.rewards_for(spec.num_stages), ws.costs_for(spec))
        self._assert_match(mcrp._Instance(*args))


class TestBudgetTables:
    """The budget-relaxation tables, built in whole-array passes, against
    the per-(satellite, stage) loops they replaced, bit for bit."""

    @staticmethod
    def _assert_match(inst):
        cheapest, perm, ordered, full, union = oracles.instance_budget_tables_loop(inst)
        for name, want in (
            ("cheapest_entry", np.array(cheapest)),
            ("entry_perm", np.array(perm)),
            ("afford_full", np.array(full)),
            ("afford_from", union),
        ):
            got = getattr(inst, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        # float repr round-trips and tells -0.0 from 0.0
        assert repr(inst.entry_sorted) == repr(ordered)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 3),
        n_stages=st.integers(1, 4),
        n_slots=st.integers(1, 7),
        t_stage=st.integers(1, 8),
        vis_density=st.floats(0.1, 0.9),
        tied=st.booleans(),
        edges=st.sampled_from(["plain", "unreachable", "signed zeros"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_instances_match_oracle(
        self, seed, n_sats, n_stages, n_slots, t_stage, vis_density, tied, edges
    ):
        rng = np.random.default_rng(seed)
        tensor, rewards, costs = random_instance(
            rng, n_sats, n_stages, n_slots, t_stage, int(rng.integers(1, 3)),
            vis_density=vis_density, levels=[0.3, 0.6] if tied else None,
        )
        if edges != "plain":
            costs = _repriced(rng, costs, np.inf if edges == "unreachable" else -0.0)
        self._assert_match(mcrp._Instance(tensor, rewards, costs))

    def test_reconfig30_instances_match_oracle(self, reconfig30_instances):
        for args in reconfig30_instances:
            self._assert_match(mcrp._Instance(*args))


class TestCellWords:
    """The packed cell words against the dense-mask build they replaced,
    bit for bit, and the memory that build needs."""

    @pytest.fixture(scope="class")
    def synth_20_u2_30(self):
        config = ScenarioConfig(fov_half_angle=math.radians(30.0))
        ws = _TrackWorkspace(default_corpus(20)[19], config)
        spec = MODEL_MATRIX["U2"]
        return ws.tensor_for(spec), ws.rewards_for(spec.num_stages), ws.costs_for(spec)

    @staticmethod
    def _assert_match(visible, rewards, costs):
        inst = mcrp._Instance(visible, rewards, costs)
        words, masks = oracles.instance_words_dense(visible, rewards.pi, inst.J)
        assert inst.words.dtype == words.dtype and inst.words.shape == words.shape
        assert np.array_equal(inst.words, words)
        assert not hasattr(inst, "masks")
        derived = mcrp._GeneralSearch(inst, 0).masks
        assert derived.dtype == masks.dtype and np.array_equal(derived, masks)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 3),
        n_stages=st.integers(1, 4),
        n_slots=st.integers(1, 6),
        t_stage=st.integers(1, 12),
        n_points=st.integers(1, 3),
        rewards_kind=st.sampled_from(["unit", "weighted", "double", "zero"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_instances_match_dense_oracle(
        self, seed, n_sats, n_stages, n_slots, t_stage, n_points, rewards_kind
    ):
        rng = np.random.default_rng(seed)
        tensor, rewards, costs = random_instance(
            rng, n_sats, n_stages, n_slots, t_stage, n_points,
            max_req=2 if rewards_kind == "double" else 1,
        )
        if rewards_kind == "weighted":
            rewards = RewardMatrix(pi=rewards.pi * rng.uniform(0.5, 3.0, size=rewards.pi.shape),
                                   coverage_req=rewards.coverage_req)
        elif rewards_kind == "zero":
            rewards = RewardMatrix(pi=np.zeros_like(rewards.pi), coverage_req=rewards.coverage_req)
        self._assert_match(tensor, rewards, costs)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 3),
        n_stages=st.integers(1, 4),
        n_slots=st.integers(1, 6),
        t_stage=st.integers(1, 40),
        n_points=st.integers(1, 3),
        density=st.sampled_from([1.0, 0.5, 0.05]),
        empty_stage=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_words_match_the_gather_path(
        self, seed, n_sats, n_stages, n_slots, t_stage, n_points, density, empty_stage
    ):
        # the (S, K, J, T_s, P) view the harness hands over, of a (K, J, T)
        # array when P = 1, and active masks full, sparse or with a stage
        # that has no active cell
        rng = np.random.default_rng(seed)
        base = rng.uniform(size=(n_sats, n_slots, n_stages, t_stage, n_points)) < 0.3
        visible = base.transpose(2, 0, 1, 3, 4)
        act = rng.uniform(size=(n_stages, t_stage, n_points)) < density
        if empty_stage:
            act[rng.integers(n_stages)] = False
        got = mcrp._cell_words(visible, act)
        want = oracles.cell_words_gather(visible, act, mcrp._pack_words)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_synth_20_u2_matches_dense_oracle(self, synth_20_u2_30):
        self._assert_match(*synth_20_u2_30)

    def test_build_peak_is_linear_in_its_inputs(self, synth_20_u2_30):
        """Besides the words it keeps, the build holds one satellite's
        unpacked rows, then the frontier temporaries.  A dense
        (K, S, J, W) mask alone is S = 4 times the (P = 1) visibility and
        breaks the bound."""
        visible = synth_20_u2_30[0]
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            inst = mcrp._Instance(*synth_20_u2_30)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        bound = 2 * visible.nbytes + inst.words.nbytes
        assert peak < bound


class TestSolverInvariants:
    def test_never_below_all_stay(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            tensor, rewards, costs = random_instance(rng, 2, 2, 4, 6, 2)
            plan = solve_mcrp(tensor, rewards, costs)
            stay = _wrap_paths([[0, 0, 0], [0, 0, 0]], costs)
            assert plan.objective >= score_plan(stay, tensor, rewards)

    def test_objective_matches_independent_rescore(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            tensor, rewards, costs = random_instance(rng, 2, 2, 4, 6, 2, max_req=2)
            plan = solve_mcrp(tensor, rewards, costs)
            assert plan.objective == score_plan(plan, tensor, rewards)
            for k in range(2):
                assert plan.total_cost(k) <= costs.budget[k]

    def test_budget_monotone(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            tensor, rewards, costs = random_instance(rng, 2, 2, 3, 5, 2)
            tighter = CostMatrix(stages=costs.stages, budget=costs.budget * 0.4)
            z_low = solve_mcrp(tensor, rewards, tighter).objective
            z_high = solve_mcrp(tensor, rewards, costs).objective
            assert z_high >= z_low

    def test_slot_monotone(self):
        # extending every stage with an extra candidate slot cannot hurt
        rng = np.random.default_rng(43)
        for _ in range(12):
            full = rng.random((2, 2, 3, 5, 2)) < 0.35
            pi = (rng.random((2, 5, 2)) < 0.6).astype(float)
            rewards = RewardMatrix(pi=pi, coverage_req=np.ones_like(pi, dtype=np.int64))
            costs3 = make_costs(rng, 2, 2, 3)
            z3 = solve_mcrp(full, rewards, costs3).objective

            wide = np.concatenate([full, rng.random((2, 2, 1, 5, 2)) < 0.35], axis=2)
            first = np.concatenate(
                [costs3.stages[0], rng.uniform(0.05, 1.2, (2, 1, 1))], axis=2
            )
            block = np.full((2, 4, 4), 5.0)
            block[:, :3, :3] = costs3.stages[1]
            block[:, 3, 3] = 0.0
            new_col = rng.uniform(0.05, 1.2, (2, 3))
            new_row = rng.uniform(0.05, 1.2, (2, 3))
            block[:, :3, 3] = new_col
            block[:, 3, :3] = new_row
            costs4 = CostMatrix(stages=(first, block), budget=costs3.budget)
            z4 = solve_mcrp(wide, rewards, costs4).objective
            assert z4 >= z3

    def test_node_limit_returns_flagged_incumbent(self):
        rng = np.random.default_rng(47)
        tensor, rewards, costs = random_instance(rng, 2, 2, 4, 8, 2)
        full = solve_mcrp(tensor, rewards, costs)
        capped = solve_mcrp(tensor, rewards, costs, node_limit=1)
        assert not capped.proven_optimal
        assert capped.objective <= full.objective
        assert capped.objective_bound >= full.objective
        stay = _wrap_paths([[0, 0, 0], [0, 0, 0]], costs)
        assert capped.objective >= score_plan(stay, tensor, rewards)

    def test_warm_start_respected_under_tiny_limit(self):
        rng = np.random.default_rng(53)
        tensor, rewards, costs = random_instance(rng, 2, 2, 4, 8, 2)
        ref = solve_mcrp_exhaustive(tensor, rewards, costs)
        flat = [j for path in ref.paths for j in path[1:]]
        capped = solve_mcrp(tensor, rewards, costs, node_limit=0, warm_starts=[flat])
        assert capped.objective == ref.objective
        assert capped.paths == ref.paths

    def test_infeasible_warm_start_rejected(self):
        rng = np.random.default_rng(59)
        tensor, rewards, costs = random_instance(rng, 1, 1, 3, 4, 1)
        broke = CostMatrix(stages=costs.stages, budget=np.zeros(1))
        with pytest.raises(ValueError, match="budget"):
            solve_mcrp(tensor, rewards, broke, warm_starts=[[1]])

    def test_exhaustive_cap(self):
        rng = np.random.default_rng(61)
        tensor, rewards, costs = random_instance(rng, 5, 4, 8, 2, 1, vis_density=0.2)
        with pytest.raises(ValueError, match="too large"):
            solve_mcrp_exhaustive(tensor, rewards, costs)


class TestSerialization:
    def test_plan_csv(self, tmp_path):
        rng = np.random.default_rng(67)
        tensor, rewards, costs = random_instance(rng, 2, 2, 3, 4, 2)
        plan = solve_mcrp(tensor, rewards, costs)
        out = tmp_path / "plan.csv"
        plan.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sat,stage,from_slot,to_slot,delta_v_km_s"
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[:2] == ["0", "1"]
        assert float(first[4]) == plan.per_stage_cost[0, 0]
        plan.to_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()
