"""Slew planner, rotation convention, and degraded-reward tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from _oracles import coe_to_state
from stormcover import agility
from stormcover.agility import (
    AgilityConfig,
    SlewSchedule,
    optimize_slew_schedule,
    optimize_slew_schedules,
    rotation_matrix,
    score_agility,
    slewed_step_visibility,
)
from stormcover.harness import ScenarioConfig, _TrackWorkspace, default_corpus, evaluate_track
from stormcover.mcrp import active_point_of_step
from stormcover.orbits import (
    EARTH,
    ClassicalOrbitalElements,
    TimeGrid,
    eci_positions,
    geodetic_to_eci,
    propagate,
)
from stormcover.visibility import FovSpec, visibility_mask

DEG = math.pi / 180.0
ZETA = 35.0 * DEG
R_E = EARTH.radius_km

angle_triples = st.tuples(
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)


def default_config(control_step=1800.0, rate=3.0 * DEG):
    return AgilityConfig(rate, rate, rate, ZETA, control_step)


def surface_point_off_nadir(sat_pos, off_axis, azimuth=0.0):
    """Earth-surface point seen from sat_pos at the given off-nadir angle."""
    sat_pos = np.asarray(sat_pos, float)
    nadir = -sat_pos / np.linalg.norm(sat_pos)
    seed = np.array([0.0, 1.0, 0.0]) if abs(nadir[1]) < 0.9 else np.array([0.0, 0.0, 1.0])
    east = np.cross(nadir, seed)
    east /= np.linalg.norm(east)
    north = np.cross(nadir, east)
    perp = math.cos(azimuth) * east + math.sin(azimuth) * north
    ray = math.cos(off_axis) * nadir + math.sin(off_axis) * perp
    b = float(sat_pos @ ray)
    c = float(sat_pos @ sat_pos) - R_E**2
    disc = b * b - c
    assert disc > 0.0, "ray misses the Earth; pick a smaller off-nadir angle"
    length = -b - math.sqrt(disc)
    return sat_pos + length * ray


class TestRotationMatrix:
    def test_identity_at_zero(self):
        assert np.allclose(rotation_matrix(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_x(self):
        expect = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])
        assert np.allclose(rotation_matrix(math.pi / 2, 0.0, 0.0), expect, atol=1e-12)

    @given(t=angle_triples)
    @settings(max_examples=300, deadline=None)
    def test_matches_factor_product_oracle(self, t):
        mine = rotation_matrix(*t)
        ref = oracles.rotation_product(*t)
        assert np.max(np.abs(mine - ref)) < 1e-12

    @given(t=angle_triples)
    @settings(max_examples=300, deadline=None)
    def test_orthonormal(self, t):
        m = rotation_matrix(*t)
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-12
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


class TestPointing:
    def test_zero_angles_identity(self):
        n = np.array([0.3, -0.5, 0.81])
        assert np.allclose(oracles.pointing_direction(n, (0, 0, 0), rotation_matrix), n)

    def test_norm_preserved_at_limit(self):
        d = oracles.pointing_direction(np.array([0.0, 0.0, -1.0]), (ZETA, 0.0, 0.0), rotation_matrix)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        assert not np.allclose(d, [0, 0, -1])

    @given(t=angle_triples, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_norm_preserved_random(self, t, seed):
        n = np.random.default_rng(seed).normal(size=3)
        assert np.linalg.norm(oracles.pointing_direction(n, t, rotation_matrix)) == pytest.approx(
            float(np.linalg.norm(n)), rel=1e-12
        )


class TestAngularDifference:
    def test_parallel(self):
        assert oracles.angular_difference([1, 0, 0], [2, 0, 0]) == 0.0

    def test_antiparallel(self):
        assert oracles.angular_difference([1, 0, 0], [-3, 0, 0]) == pytest.approx(math.pi)

    def test_orthogonal(self):
        assert oracles.angular_difference([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            oracles.angular_difference([0, 0, 0], [1, 0, 0])

    def test_clamped_against_rounding(self):
        v = np.array([0.1, 0.2, 0.30000000000000004])
        assert oracles.angular_difference(v, v * 7.0) == 0.0


def one_opportunity_grid():
    return TimeGrid(duration=1800.0, step=300.0, control_step=1800.0)


class TestOptimizer:
    def test_nadir_target_gives_zero_schedule(self):
        grid = TimeGrid(duration=5400.0, step=300.0, control_step=1800.0)
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 0.0)
        targets = []
        for i in range(grid.num_opportunities):
            pos = coe_to_state(propagate(orbit, grid.opportunity_time(i))).position
            sub = pos / np.linalg.norm(pos) * R_E
            targets.append(sub[None, :])
        sched = optimize_slew_schedule(orbit, targets, default_config(), grid)
        assert np.allclose(sched.angles, 0.0, atol=1e-12)
        assert sched.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_reachable_target_nulled(self):
        grid = one_opportunity_grid()
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        sat = coe_to_state(orbit).position
        target = surface_point_off_nadir(sat, 20 * DEG)
        sched = optimize_slew_schedule(orbit, [target[None, :]], default_config(), grid)
        assert sched.objective_value <= 1e-6

    @pytest.mark.parametrize("off_deg,azimuth_deg", [(10, 0), (25, 45), (33, 120), (48, 200)])
    def test_grid_oracle_gap_single_opportunity(self, off_deg, azimuth_deg):
        grid = one_opportunity_grid()
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 30 * DEG, 0.0, 0.0, 15 * DEG)
        sat = coe_to_state(orbit).position
        nadir = -sat / np.linalg.norm(sat)
        target = surface_point_off_nadir(sat, off_deg * DEG, azimuth_deg * DEG)

        def objective(a, b, g):
            d = oracles.rotation_product(a, b, g) @ nadir
            return oracles.angle_between(d, target - sat)

        best_grid = oracles.grid_best_objective(objective, ZETA, step_deg=5.0)
        sched = optimize_slew_schedule(orbit, [target[None, :]], default_config(), grid)
        assert sched.objective_value <= best_grid + 1e-3

    def test_grid_oracle_gap_two_opportunities(self):
        # Rate budget 3 deg/s * 1800 s dwarfs the angle box, so the two
        # opportunities decouple and the grid oracle applies per opportunity.
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 97.8 * DEG, 50 * DEG, 0.0, 0.0)
        targets, oracle_total = [], 0.0
        for i, (off, az) in enumerate([(18.0, 30.0), (40.0, 260.0)]):
            pos = coe_to_state(propagate(orbit, grid.opportunity_time(i))).position
            nadir = -pos / np.linalg.norm(pos)
            target = surface_point_off_nadir(pos, off * DEG, az * DEG)
            targets.append(target[None, :])

            def objective(a, b, g, nadir=nadir, target=target, pos=pos):
                d = oracles.rotation_product(a, b, g) @ nadir
                return oracles.angle_between(d, target - pos)

            oracle_total += oracles.grid_best_objective(objective, ZETA, step_deg=5.0)
        sched = optimize_slew_schedule(orbit, targets, default_config(), grid)
        assert sched.objective_value <= oracle_total + 2e-3

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_feasible_and_dominates_nadir(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=5400.0, step=300.0, control_step=1800.0)
        orbit = ClassicalOrbitalElements(
            7000.0, 0.0, rng.uniform(0.3, 1.7), rng.uniform(0, 6.2), 0.0, rng.uniform(0, 6.2)
        )
        # A deliberately tight rate so the rate box actually binds.
        config = AgilityConfig(1e-5, 2e-5, 1e-5, ZETA, 1800.0)
        targets, nadir_total = [], 0.0
        for i in range(grid.num_opportunities):
            pos = coe_to_state(propagate(orbit, grid.opportunity_time(i))).position
            if rng.random() < 0.2:
                targets.append(np.zeros((0, 3)))
                continue
            target = surface_point_off_nadir(
                pos, rng.uniform(5, 60) * DEG, rng.uniform(0, 2 * math.pi)
            )
            targets.append(target[None, :])
            nadir = -pos / np.linalg.norm(pos)
            nadir_total += oracles.angle_between(nadir, target - pos)
        sched = optimize_slew_schedule(orbit, targets, config, grid)
        violations = oracles.schedule_violations(
            sched.angles, ZETA, (1e-5, 2e-5, 1e-5), 1800.0
        )
        assert violations == []
        assert sched.is_feasible(config)
        assert sched.objective_value <= nadir_total + 1e-12
        # NaN angles compare False against any bound, and are infeasible
        for row in (0, len(sched) - 1):
            broken = sched.angles.copy()
            broken[row, 1] = np.nan
            assert not SlewSchedule(broken).is_feasible(config)
            assert oracles.schedule_violations(broken, ZETA, (1e-5, 2e-5, 1e-5), 1800.0)

    def test_empty_opportunities_relax_to_zero(self):
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        sched = optimize_slew_schedule(orbit, [np.zeros((0, 3))] * 2, default_config(), grid)
        assert np.array_equal(sched.angles, np.zeros((2, 3)))

    def test_control_step_mismatch_rejected(self):
        grid = one_opportunity_grid()
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            optimize_slew_schedule(orbit, [np.zeros((0, 3))], default_config(control_step=900.0), grid)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            AgilityConfig(-1.0, 1.0, 1.0, ZETA, 1800.0)

    @pytest.mark.parametrize("rates,step", [((1.0, math.nan, 1.0), 1800.0), ((1.0, 1.0, 1.0), math.nan)])
    def test_nan_rate_or_step_rejected(self, rates, step):
        with pytest.raises(ValueError, match="must be"):
            AgilityConfig(*rates, ZETA, step)

    def test_infinite_rate_cannot_bind(self):
        assert agility._box_cannot_bind(AgilityConfig(math.inf, math.inf, math.inf, ZETA, 1800.0))


def box_cannot_bind(config):
    """Does every axis's rate budget span the whole angle box?"""
    return bool(np.all(config.rate_budget >= 2.0 * config.max_angle))


def oracle_schedules(orbits, targets, config, grid, greedy=None):
    """(angles, objective) per orbit from the per-satellite reference
    planner: each opportunity on its own when the rate box cannot bind,
    the sequential greedy pass when it can, or as ``greedy`` says."""
    epochs = np.array([grid.opportunity_time(i) for i in range(grid.num_opportunities)])
    greedy = not box_cannot_bind(config) if greedy is None else greedy
    out = []
    for orbit in orbits:
        positions = eci_positions(orbit, epochs)
        if greedy:
            out.append(oracles.greedy_slew_schedule(positions, targets, config.rate_budget, config.max_angle))
        else:
            out.append(oracles.independent_slew_schedule(positions, targets, config.max_angle))
    return out


def step_sight(orbit, step_targets, grid):
    """Positions at the step times and the oracle's line of sight."""
    positions = eci_positions(orbit, np.arange(grid.num_steps, dtype=float) * grid.step)
    return positions, oracles.line_of_sight(positions, step_targets)


def hidden_opportunities(sight, grid):
    """Per opportunity: is the target out of sight at every one of its steps?"""
    spo = grid.steps_per_opportunity
    return ~np.array([sight[i * spo : (i + 1) * spo].any() for i in range(grid.num_opportunities)])


def screened_oracle_schedules(orbits, targets, step_targets, config, grid):
    """The sequential greedy oracle with each opportunity that a satellite
    sees at none of its steps stripped of its targets, for that satellite
    alone."""
    out = []
    for orbit in orbits:
        hidden = hidden_opportunities(step_sight(orbit, step_targets, grid)[1], grid)
        own = [np.zeros((0, 3)) if hidden[i] else t for i, t in enumerate(targets)]
        out += oracle_schedules([orbit], own, config, grid, greedy=True)
    return out


def assert_schedules_match(schedules, expected):
    assert len(schedules) == len(expected)
    for sched, (angles, objective) in zip(schedules, expected):
        assert np.array_equal(sched.angles, angles)
        assert sched.objective_value == objective


def corpus_opportunity_targets(track, config):
    """The harness's per-opportunity active-target positions, rebuilt point by point."""
    ws = _TrackWorkspace(track, config)
    grid = ws.grid_for(1)
    n_steps, n_points = grid.num_steps, ws.targets.num_points
    spo = grid.steps_per_opportunity
    targets = []
    for i in range(grid.num_opportunities):
        steps = range(i * spo, min((i + 1) * spo, n_steps))
        points = sorted({active_point_of_step(t, n_steps, n_points) for t in steps})
        when = grid.opportunity_time(i)
        targets.append(np.array([geodetic_to_eci(ws.targets.points[p], when) for p in points]))
    return grid, targets


def random_orbit(rng):
    return ClassicalOrbitalElements(
        rng.uniform(6800.0, 7400.0), 0.0, rng.uniform(0.3, 1.7), rng.uniform(0, 6.2), 0.0, rng.uniform(0, 6.2)
    )


def geostationary_case(box_deg, off_deg):
    """Two geostationary satellites over 60 one-minute opportunities, all
    chasing one target ``off_deg`` off satellite 0's nadir, with a slew box
    of ``box_deg`` that the rate cannot bind."""
    grid = TimeGrid(duration=3600.0, step=60.0, control_step=60.0)
    config = AgilityConfig(3.0 * DEG, 3.0 * DEG, 3.0 * DEG, box_deg * DEG, 60.0)
    orbits = [
        ClassicalOrbitalElements(42164.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        ClassicalOrbitalElements(42164.0, 0.0, 5 * DEG, 0.0, 0.0, 3 * DEG),
    ]
    target = surface_point_off_nadir(coe_to_state(orbits[0]).position, off_deg * DEG, 30 * DEG)
    return orbits, [target[None, :]] * grid.num_opportunities, config, grid


def binding_case():
    """Three satellites over 60 opportunities with a rate box of about one
    degree per opportunity, chasing targets 5 to 60 degrees off nadir."""
    rng = np.random.default_rng(7)
    grid = TimeGrid(duration=60 * 1800.0, step=300.0, control_step=1800.0)
    config = AgilityConfig(1e-5, 2e-5, 1e-5, ZETA, 1800.0)
    orbits = [random_orbit(rng) for _ in range(3)]
    targets = []
    for i in range(grid.num_opportunities):
        if rng.random() < 0.2:
            targets.append(np.zeros((0, 3)))
            continue
        pos = coe_to_state(propagate(orbits[rng.integers(3)], grid.opportunity_time(i))).position
        targets.append(np.array([
            surface_point_off_nadir(pos, rng.uniform(5, 60) * DEG, rng.uniform(0, 2 * math.pi))
            for _ in range(rng.integers(1, 4))
        ]))
    return orbits, targets, config, grid


def count_descended_rows(monkeypatch):
    """Patch the optimizer's descent to count the rows it polishes."""
    descend = agility._descend
    counted = [0]

    def counting(best, *args):
        counted[0] += best.shape[0]
        return descend(best, *args)

    monkeypatch.setattr(agility, "_descend", counting)
    return counted


class TestBatchedOptimizer:
    """optimize_slew_schedules against the per-satellite planner it replaced."""

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_corpus_schedules_match_per_satellite_oracle(self, index):
        # the harness plans only the opportunities in line of sight
        track = default_corpus(20)[index]
        config = ScenarioConfig()
        grid, targets = corpus_opportunity_targets(track, config)
        orbits = [sc.elements for sc in config.satellites]
        schedules = evaluate_track(track, config, models=("A",))["A"].schedules
        expected = screened_oracle_schedules(orbits, targets, _TrackWorkspace(track, config).table, config.agility, grid)
        assert_schedules_match(schedules, expected)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 4),
        rate=st.sampled_from([1e-5, 3.0 * DEG]),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_cases_match_per_satellite_oracle(self, seed, n_sats, rate):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=7200.0, step=300.0, control_step=1800.0)
        config = AgilityConfig(rate, 2.0 * rate, rate, ZETA, 1800.0)
        orbits = [random_orbit(rng) for _ in range(n_sats)]
        targets = []
        for i in range(grid.num_opportunities):
            if rng.random() < 0.2:
                targets.append(np.zeros((0, 3)))
                continue
            # off-nadir points of one satellite; the others see them from afar
            pos = coe_to_state(propagate(orbits[rng.integers(n_sats)], grid.opportunity_time(i))).position
            targets.append(np.array([
                surface_point_off_nadir(pos, rng.uniform(5, 60) * DEG, rng.uniform(0, 2 * math.pi))
                for _ in range(rng.integers(1, 4))
            ]))
        schedules = optimize_slew_schedules(orbits, targets, config, grid)
        assert_schedules_match(schedules, oracle_schedules(orbits, targets, config, grid))

    def test_nadir_fallback_fires_per_satellite(self):
        # Two opportunities pull satellite 0 off nadir against a tight rate
        # box; the third puts six targets under it, where the greedy pass
        # cannot get back in time and so loses to never slewing at all.
        grid = TimeGrid(duration=7200.0, step=300.0, control_step=1800.0)
        config = AgilityConfig(1e-5, 1e-5, 1e-5, ZETA, 1800.0)
        orbits = [
            ClassicalOrbitalElements(7000.0, 0.0, 50 * DEG, 10 * DEG, 0.0, 0.0),
            ClassicalOrbitalElements(7000.0, 0.0, 50 * DEG, 10 * DEG, 0.0, 30 * DEG),
        ]
        epochs = np.array([grid.opportunity_time(i) for i in range(grid.num_opportunities)])
        lead = eci_positions(orbits[0], epochs)
        targets = [surface_point_off_nadir(lead[i], 40 * DEG)[None, :] for i in range(2)]
        targets += [np.repeat((lead[i] / np.linalg.norm(lead[i]) * R_E)[None, :], 6, axis=0) for i in (2, 3)]
        expected = oracle_schedules(orbits, targets, config, grid)
        assert np.array_equal(expected[0][0], np.zeros((4, 3)))
        assert np.any(expected[1][0] != 0.0)
        assert_schedules_match(optimize_slew_schedules(orbits, targets, config, grid), expected)

    def test_permuting_orbits_permutes_schedules(self):
        track = default_corpus(20)[0]
        config = ScenarioConfig()
        grid, targets = corpus_opportunity_targets(track, config)
        orbits = [sc.elements for sc in config.satellites]
        order = [3, 0, 4, 2, 1]
        straight = optimize_slew_schedules(orbits, targets, config.agility, grid)
        permuted = optimize_slew_schedules([orbits[k] for k in order], targets, config.agility, grid)
        for k, sched in zip(order, permuted):
            assert np.array_equal(sched.angles, straight[k].angles)
            assert sched.objective_value == straight[k].objective_value

    def test_zero_length_direction_dropped_per_satellite(self):
        # A target placed exactly at satellite 0 has no direction from it and
        # counts for nothing there, while satellite 1 still chases it.  The
        # opportunities leave satellite 0 two, one, none and seven directions.
        grid = TimeGrid(duration=7200.0, step=300.0, control_step=1800.0)
        config = default_config()
        orbits = [
            ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 0.0),
            ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 20 * DEG),
        ]
        epochs = np.array([grid.opportunity_time(i) for i in range(grid.num_opportunities)])
        own = eci_positions(orbits[0], epochs)
        kept = [
            [surface_point_off_nadir(own[i], (10 + 4 * n) * DEG, (50 * n + 30 * i) * DEG) for n in range(count)]
            for i, count in enumerate([2, 1, 0, 7])
        ]
        targets = [np.array(points[:1] + [own[i]] + points[1:]) for i, points in enumerate(kept)]
        schedules = optimize_slew_schedules(orbits, targets, config, grid)
        assert_schedules_match(schedules, oracle_schedules(orbits, targets, config, grid))
        alone = optimize_slew_schedule(
            orbits[0], [np.array(points).reshape(-1, 3) for points in kept], config, grid
        )
        assert np.array_equal(schedules[0].angles, alone.angles)
        assert schedules[0].objective_value == alone.objective_value
        assert np.any(schedules[1].angles[2] != 0.0)

    # With a 25 deg box the middle grid node is not exactly zero, so next to
    # nadir the point nearest zero wins, in the previous angles' place.
    @pytest.mark.parametrize("box_deg,off_deg", [(35.0, 4.0), (25.0, 0.5)])
    def test_winning_previous_angles_are_not_a_candidate(self, monkeypatch, box_deg, off_deg):
        # At geostationary radius with one-minute opportunities the pointing
        # barely moves, so the previous angles win the sequential multistart.
        # The box cannot bind, so each opportunity is solved on its own and
        # the schedule is the independent one, not the sequential one.
        orbits, targets, config, grid = geostationary_case(box_deg, off_deg)
        winners = []
        winner = oracles.multistart_winner

        def recording(*args):
            found = winner(*args)
            winners.append(found[0])
            return found

        monkeypatch.setattr(oracles, "multistart_winner", recording)
        sequential = oracle_schedules(orbits, targets, config, grid, greedy=True)
        assert oracles.PREV_SLOT in winners
        assert agility._box_cannot_bind(config)
        schedules = optimize_slew_schedules(orbits, targets, config, grid)
        assert_schedules_match(schedules, oracle_schedules(orbits, targets, config, grid))
        assert not all(np.array_equal(s.angles, angles) for s, (angles, _) in zip(schedules, sequential))

    @pytest.mark.parametrize("case", ["geostationary", "corpus"])
    def test_emptied_opportunities_leave_the_other_rows_alone(self, case):
        # With a box that cannot bind, no row depends on another: emptying
        # the targets of a random half of the opportunities keeps every other
        # row's angles bit for bit and puts the emptied rows at nadir.
        if case == "geostationary":
            orbits, targets, config, grid = geostationary_case(35.0, 4.0)
        else:
            scenario = ScenarioConfig()
            grid, targets = corpus_opportunity_targets(default_corpus(20)[0], scenario)
            orbits, config = [sc.elements for sc in scenario.satellites], scenario.agility
        assert agility._box_cannot_bind(config)
        emptied = np.random.default_rng(11).permutation(grid.num_opportunities) < grid.num_opportunities // 2
        thinned = [np.zeros((0, 3)) if out else t for out, t in zip(emptied, targets)]
        full = optimize_slew_schedules(orbits, targets, config, grid)
        kept = optimize_slew_schedules(orbits, thinned, config, grid)
        for a, b in zip(full, kept):
            assert np.array_equal(b.angles[~emptied], a.angles[~emptied])
            assert np.all(b.angles[emptied] == 0.0)

    def test_binding_rate_box_descends_each_row_once(self, monkeypatch):
        orbits, targets, config, grid = binding_case()
        expected = oracle_schedules(orbits, targets, config, grid)
        budget = config.rate_budget
        on_edge = 0
        for angles, _ in expected:
            steps = np.abs(np.diff(angles, axis=0, prepend=np.zeros((1, 3))))
            on_edge += int(np.any(np.isclose(steps, budget, rtol=0.0, atol=1e-12), axis=1).sum())
        assert on_edge >= 50
        assert not agility._box_cannot_bind(config)
        descended = count_descended_rows(monkeypatch)
        assert_schedules_match(optimize_slew_schedules(orbits, targets, config, grid), expected)
        assert descended[0] <= len(orbits) * grid.num_opportunities

    def test_no_orbits_no_schedules(self):
        grid = one_opportunity_grid()
        assert optimize_slew_schedules([], [np.zeros((0, 3))], default_config(), grid) == []


def full_box_rows(rows):
    return np.full((rows, 3), -ZETA), np.full((rows, 3), ZETA)


class TestCheckPass:
    """The shared candidate grid of the rows solved on their own, and the
    descent blocks, bit for bit against the per-satellite planner in
    ``_oracles``."""

    def corpus_case(self):
        config = ScenarioConfig()
        grid, targets = corpus_opportunity_targets(default_corpus(20)[0], config)
        orbits = [sc.elements for sc in config.satellites]
        expected = oracle_schedules(orbits, targets, config.agility, grid)
        return orbits, targets, config.agility, grid, expected

    @pytest.mark.parametrize("count", [1, 2])
    def test_shared_grid_multistart_matches_per_row_candidates(self, count):
        rng = np.random.default_rng(count)
        rows = 40
        nadirs = rng.normal(size=(rows, 3))
        # over a pole the objective ignores the last angle bit for bit, so
        # each winner ties with the other six nodes of its (alpha, beta)
        nadirs[:4] = [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]
        nadirs /= np.linalg.norm(nadirs, axis=1)[:, None]
        dirs = -nadirs[:, None] + rng.normal(scale=0.4, size=(rows, count, 3))
        dirs /= np.linalg.norm(dirs, axis=2)[..., None]
        lower, upper = full_box_rows(rows)
        shared = agility._candidates(np.zeros((1, 3)), lower[:1], upper[:1])
        own = agility._candidates(np.zeros((rows, 3)), lower, upper)
        got = agility._multistart(shared, nadirs, dirs)
        for a, b in zip(got, agility._multistart(own, nadirs, dirs)):
            assert np.array_equal(a, b)
        indices = []
        for r in range(rows):
            index, angles, value = oracles.multistart_winner(np.zeros(3), nadirs[r], dirs[r], lower[r], upper[r])
            assert got[1][r] == value
            assert np.array_equal(got[0][r], angles)
            indices.append(index)
        values = agility._batched_objective(shared, nadirs[:4], dirs[:4])
        for r in range(4):
            tied = np.flatnonzero(values[r] == got[1][r])
            assert tied.size >= 7 and tied[0] < indices[r], (r, tied)
            assert indices[r] % 7 == 3 and shared[0, indices[r], 2] == 0.0

    def test_wide_descent_blocks_match_one_row_blocks(self, monkeypatch):
        orbits, targets, config, grid, expected = self.corpus_case()
        widths = []
        descend = agility._descend

        def recording(best, *args):
            widths.append(best.shape[0])
            return descend(best, *args)

        monkeypatch.setattr(agility, "_descend", recording)
        wide = optimize_slew_schedules(orbits, targets, config, grid)
        assert max(widths) > agility._BLOCK_ROWS
        monkeypatch.setattr(agility, "_DESCENT_ROWS", 1)
        widths.clear()
        narrow = optimize_slew_schedules(orbits, targets, config, grid)
        assert max(widths) == 1
        assert_schedules_match(wide, expected)
        assert_schedules_match(narrow, [(s.angles, s.objective_value) for s in wide])


class TestScore:
    def test_no_degradation(self):
        grid = TimeGrid(duration=1000.0, step=100.0, control_step=1000.0)
        sched = SlewSchedule(np.zeros((1, 3)))
        score = score_agility(sched, np.ones(10, dtype=bool), default_config(1000.0), grid)
        assert score.total_reward == 10.0
        assert np.all(score.per_step_reward == 1.0)

    def test_single_axis_extreme_is_five_sixths(self):
        grid = TimeGrid(duration=100.0, step=100.0, control_step=100.0)
        sched = SlewSchedule(np.array([[ZETA, 0.0, 0.0]]))
        score = score_agility(sched, np.ones(1, dtype=bool), default_config(100.0), grid)
        assert score.total_reward == 5.0 / 6.0

    def test_all_axes_extreme_is_half(self):
        grid = TimeGrid(duration=100.0, step=100.0, control_step=100.0)
        sched = SlewSchedule(np.array([[ZETA, -ZETA, ZETA]]))
        score = score_agility(sched, np.ones(1, dtype=bool), default_config(100.0), grid)
        assert score.total_reward == 0.5

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_oracle_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        angles = rng.uniform(-ZETA, ZETA, (2, 3))
        visible = rng.random(grid.num_steps) < 0.6
        score = score_agility(SlewSchedule(angles), visible, default_config(), grid)
        step_angles = angles[np.arange(grid.num_steps) // grid.steps_per_opportunity]
        ref = oracles.degraded_reward(visible, step_angles, ZETA)
        assert score.total_reward == pytest.approx(ref, rel=1e-12)
        n_vis = int(visible.sum())
        assert 0.5 * n_vis <= score.total_reward <= n_vis
        assert np.all((score.per_step_reward >= 0.0) & (score.per_step_reward <= 1.0))
        assert np.all(score.per_step_reward[visible] >= 0.5)

    def test_length_mismatch_rejected(self):
        grid = TimeGrid(duration=1000.0, step=100.0, control_step=1000.0)
        with pytest.raises(ValueError):
            score_agility(SlewSchedule(np.zeros((1, 3))), np.ones(7, bool), default_config(1000.0), grid)


def full_step_visibility(orbit, schedule, step_targets, half_angle, grid):
    return oracles.slewed_step_visibility(
        orbit, schedule.angles, step_targets, half_angle, grid, eci_positions, visibility_mask, rotation_matrix
    )


class TestSlewedVisibility:
    def test_slew_reveals_off_cone_target(self):
        grid = one_opportunity_grid()
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        sat = coe_to_state(orbit).position
        target = surface_point_off_nadir(sat, 45 * DEG)
        half = 30 * DEG
        assert not oracles.is_visible(coe_to_state(orbit), target, FovSpec(half))
        sched = optimize_slew_schedule(orbit, [target[None, :]], default_config(), grid)
        step_targets = np.full((grid.num_steps, 3), np.nan)
        step_targets[0] = target
        positions, sight = step_sight(orbit, step_targets, grid)
        vis = slewed_step_visibility(positions, sched, step_targets, half, grid, sight)
        assert vis[0]
        assert not vis[1:].any()

    def test_zero_schedule_matches_nadir_axis(self):
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 97.8 * DEG, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        step_targets = rng.normal(size=(grid.num_steps, 3))
        step_targets = step_targets / np.linalg.norm(step_targets, axis=1, keepdims=True) * R_E
        sched = SlewSchedule(np.zeros((grid.num_opportunities, 3)))
        positions, sight = step_sight(orbit, step_targets, grid)
        vis = slewed_step_visibility(positions, sched, step_targets, 45 * DEG, grid, sight)
        for t in range(grid.num_steps):
            state = coe_to_state(propagate(orbit, t * grid.step))
            assert vis[t] == oracles.is_visible(state, step_targets[t], FovSpec(45 * DEG))

    @given(seed=st.integers(0, 2**32 - 1), half_deg=st.sampled_from([30.0, 45.0]))
    @settings(max_examples=30, deadline=None)
    def test_screened_steps_match_full_step_oracle(self, seed, half_deg):
        # targets in and out of sight and in and out of the cone, some missing
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=6 * 1800.0, step=300.0, control_step=1800.0)
        orbit = random_orbit(rng)
        positions = eci_positions(orbit, np.arange(grid.num_steps, dtype=float) * grid.step)
        step_targets = np.array([
            surface_point_off_nadir(pos, rng.uniform(0, 55) * DEG, rng.uniform(0, 2 * math.pi))
            if rng.random() < 0.7 else rng.normal(size=3) / 1e-3
            for pos in positions
        ])
        step_targets[rng.random(grid.num_steps) < 0.1] = np.nan
        sched = SlewSchedule(rng.uniform(-ZETA, ZETA, (grid.num_opportunities, 3)))
        screened, sight = agility.line_of_sight(orbit, step_targets, grid)
        assert np.array_equal(screened, positions)
        assert np.array_equal(sight, oracles.line_of_sight(positions, step_targets))
        assert sight.any() and not sight.all()
        got = slewed_step_visibility(positions, sched, step_targets, half_deg * DEG, grid, sight)
        assert np.array_equal(got, full_step_visibility(orbit, sched, step_targets, half_deg * DEG, grid))


class TestLineOfSightScreen:
    """Model A planned and scored only where the target is in line of
    sight, against the unscreened planner and the full-step scoring."""

    def assert_screen_keeps_rewards(self, orbits, targets, step_targets, config, grid, half_angle):
        """Plan with and without each satellite's line of sight, check every
        row and the reward; returns the oracle's (K, num_steps) sight."""
        sights = [step_sight(orbit, step_targets, grid) for orbit in orbits]
        sight = np.array([s for _, s in sights])
        screened = optimize_slew_schedules(orbits, targets, config, grid, sight)
        unscreened = optimize_slew_schedules(orbits, targets, config, grid)
        for orbit, (positions, seen), new, old in zip(orbits, sights, screened, unscreened):
            hidden = hidden_opportunities(seen, grid)
            assert np.array_equal(new.angles[~hidden], old.angles[~hidden])
            assert np.all(new.angles[hidden] == 0.0)
            visible = slewed_step_visibility(positions, new, step_targets, half_angle, grid, seen)
            full = full_step_visibility(orbit, old, step_targets, half_angle, grid)
            assert np.array_equal(visible, full)
            assert score_agility(new, visible, config, grid).total_reward == score_agility(old, full, config, grid).total_reward
        return sight, screened, unscreened

    def test_one_satellite_sees_and_the_other_does_not(self):
        # Satellite 1 trails satellite 0 by half an orbit, so the Earth
        # hides from it the points just off satellite 0's nadir.
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        orbits = [
            ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 0.0),
            ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 180 * DEG),
        ]
        epochs = np.array([grid.opportunity_time(i) for i in range(grid.num_opportunities)])
        lead = eci_positions(orbits[0], epochs)
        targets = [surface_point_off_nadir(pos, 30 * DEG, 1.0)[None, :] for pos in lead]
        step_targets = np.repeat(np.concatenate(targets), grid.steps_per_opportunity, axis=0)
        sight, screened, unscreened = self.assert_screen_keeps_rewards(
            orbits, targets, step_targets, default_config(), grid, 45 * DEG
        )
        assert sight[0].any() and not sight[1].any()
        assert np.all(screened[0].angles != 0.0)
        assert np.all(screened[1].angles == 0.0) and np.all(unscreened[1].angles != 0.0)

    def test_one_step_in_sight_still_plans_the_opportunity(self):
        # The target of opportunity 0 is in sight at its fourth step only;
        # at every other step the active target lies across the Earth.
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        orbit = ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 0.0)
        positions = eci_positions(orbit, np.arange(grid.num_steps, dtype=float) * grid.step)
        step_targets = np.array([-surface_point_off_nadir(pos, 30 * DEG, 1.0) for pos in positions])
        step_targets[3] *= -1.0
        targets = [step_targets[3:4], step_targets[6:7]]
        sight, screened, unscreened = self.assert_screen_keeps_rewards(
            [orbit], targets, step_targets, default_config(), grid, 45 * DEG
        )
        assert sight[0].tolist() == [False] * 3 + [True] + [False] * 8
        assert np.all(screened[0].angles[0] != 0.0) and np.all(screened[0].angles[1] == 0.0)
        assert np.any(unscreened[0].angles[1] != 0.0)

    @pytest.mark.parametrize("index", [0, 6, 12])
    def test_corpus_rewards_match_the_unscreened_path(self, index):
        track, config = default_corpus(20)[index], ScenarioConfig()
        grid, targets = corpus_opportunity_targets(track, config)
        step_targets = _TrackWorkspace(track, config).table
        orbits = [sc.elements for sc in config.satellites]
        unscreened = optimize_slew_schedules(orbits, targets, config.agility, grid)
        hidden = [hidden_opportunities(step_sight(orbit, step_targets, grid)[1], grid) for orbit in orbits]
        assert 0 < sum(map(np.sum, hidden)) < len(orbits) * grid.num_opportunities
        for half_deg in (45.0, 30.0):
            result = evaluate_track(track, ScenarioConfig(fov_half_angle=half_deg * DEG), models=("A",))["A"]
            reward = 0.0
            for orbit, new, old, out in zip(orbits, result.schedules, unscreened, hidden):
                assert np.array_equal(new.angles[~out], old.angles[~out])
                assert np.all(new.angles[out] == 0.0)
                visible = full_step_visibility(orbit, old, step_targets, half_deg * DEG, grid)
                reward += score_agility(old, visible, config.agility, grid).total_reward
            assert result.reward == reward

    def test_one_propagation_per_satellite_over_the_steps(self, monkeypatch):
        track = default_corpus(20)[0]
        config = ScenarioConfig()
        grid = _TrackWorkspace(track, config).grid_for(1)
        lengths = []

        def counting(orbit, times):
            lengths.append(len(times))
            return eci_positions(orbit, times)

        monkeypatch.setattr(agility, "eci_positions", counting)
        evaluate_track(track, config, models=("A",))
        n_sats = len(config.satellites)
        assert lengths.count(grid.num_steps) == n_sats
        assert sorted(lengths) == sorted([grid.num_steps] * n_sats + [grid.num_opportunities] * n_sats)

    @pytest.mark.parametrize("shape,dtype", [((2, 11), bool), ((1, 12), bool), ((2, 12), np.int8)])
    def test_bad_mask_rejected_before_propagation(self, monkeypatch, shape, dtype):
        grid = TimeGrid(duration=3600.0, step=300.0, control_step=1800.0)
        orbits = [ClassicalOrbitalElements(7000.0, 0.0, 40 * DEG, 10 * DEG, 0.0, 0.0)] * 2
        propagated = []
        monkeypatch.setattr(agility, "eci_positions", lambda *args: propagated.append(args))
        with pytest.raises(ValueError, match=r"\(2, 12\).*" + re.escape(str(shape))):
            optimize_slew_schedules(orbits, [np.zeros((0, 3))] * 2, default_config(), grid, np.ones(shape, dtype))
        assert propagated == []
