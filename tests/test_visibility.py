"""Visibility cone, occlusion, and slot-visibility tests."""

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from _oracles import StateVector, coe_to_state, is_visible, target_pointing
from stormcover import orbits, visibility
from stormcover.harness import ScenarioConfig, _TrackWorkspace, default_corpus
from stormcover.maneuvers import SlotGrid
from stormcover.orbits import (
    EARTH,
    ClassicalOrbitalElements,
    GeodeticPoint,
    TimeGrid,
    cell_positions,
    eci_positions,
    geodetic_to_eci,
    j2_mean_motion,
    mean_to_true_anomaly,
    propagate,
    secular_angles,
)
from stormcover.visibility import FovSpec, slot_visibility, visibility_mask

DEG = math.pi / 180.0
R_E = EARTH.radius_km


def hashed(slots):
    """A SlotGrid of hand-built slot lists, laid out by the hashing oracle."""
    return oracles.hashed_grid(SlotGrid, slots)


def state_at(pos):
    return StateVector(np.asarray(pos, float), np.zeros(3), 0.0)


def scalar_visible(sat_pos, target_pos, half_angle):
    """Reference check written independently of the library internals.

    Off-axis angle through atan2, occlusion through the clipped closest
    point of the segment.
    """
    sat_pos = np.asarray(sat_pos, float)
    target_pos = np.asarray(target_pos, float)
    d = target_pos - sat_pos
    if oracles.angle_between(-sat_pos, d) > half_angle:
        return False
    dd = float(d @ d)
    if dd == 0.0:
        return False
    u = min(1.0, max(0.0, -float(sat_pos @ d) / dd))
    closest = sat_pos + u * d
    # Millimetre slack: a surface target's norm rounds a hair below R_E, and
    # an endpoint sitting on the sphere must still count as clear.
    return float(np.linalg.norm(closest)) >= R_E - 1e-6


class TestTargetPointing:
    def test_radial_case(self):
        out = target_pointing([7000.0, 0, 0], [6378.0, 0, 0])
        assert np.allclose(out, [-1, 0, 0], atol=1e-12)

    def test_oblique_case(self):
        out = target_pointing([7000.0, 0, 0], [0, 6378.0, 0])
        expect = np.array([-7000.0, 6378.0, 0.0])
        expect /= np.linalg.norm(expect)
        assert np.allclose(out, expect, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-9000, 9000, 3)
        b = rng.uniform(-9000, 9000, 3)
        if np.linalg.norm(a - b) < 1e-6:
            return
        assert np.linalg.norm(target_pointing(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            target_pointing([7000.0, 0, 0], [7000.0, 0, 0])


class TestIsVisible:
    def test_subsatellite_point(self):
        fov = FovSpec(half_angle=1e-6)
        assert is_visible(state_at([7000.0, 0, 0]), np.array([R_E, 0, 0]), fov)

    def test_antipodal_occluded(self):
        fov = FovSpec(half_angle=89.0 * DEG)
        assert not is_visible(state_at([7000.0, 0, 0]), np.array([-R_E, 0, 0]), fov)

    def test_cone_boundary_inclusive(self):
        # 3-4-5 construction: the offset direction and the boundary angle are
        # the same float, so this really does exercise the <= comparison.
        sat = np.array([7000.0, 0.0, 0.0])
        target = sat + np.array([300.0, 400.0, 0.0])
        half = math.acos(0.6)
        axis = np.array([1.0, 0.0, 0.0])
        assert is_visible(state_at(sat), target, FovSpec(half), cone_axis=axis)
        assert not is_visible(state_at(sat), target, FovSpec(half - 1e-9), cone_axis=axis)

    def test_horizon_grazing_counts_as_clear(self):
        # Tangent segment: closest approach exactly R_E, strictly-inside test
        # keeps it visible.
        sat = np.array([0.0, -7000.0, R_E])
        target = np.array([0.0, 7000.0, R_E])
        assert is_visible(state_at(sat), target, FovSpec(89.0 * DEG))

    @given(
        lat=st.floats(-80 * DEG, 80 * DEG),
        lon=st.floats(-math.pi, math.pi - 1e-9),
        half=st.floats(5 * DEG, 85 * DEG),
    )
    @settings(max_examples=150, deadline=None)
    def test_far_side_never_visible(self, lat, lon, half):
        sat = np.array([7000.0, 0.0, 0.0])
        target = geodetic_to_eci(GeodeticPoint(lat, lon, 0.0), 0.0)
        if oracles.angle_between(sat, target) <= math.pi / 2:
            return
        assert not is_visible(state_at(sat), target, FovSpec(half))

    @given(
        seed=st.integers(0, 2**32 - 1),
        half_small=st.floats(5 * DEG, 60 * DEG),
        widen=st.floats(0.0, 25 * DEG),
    )
    @settings(max_examples=150, deadline=None)
    def test_fov_monotone(self, seed, half_small, widen):
        rng = np.random.default_rng(seed)
        sat = rng.uniform(-1, 1, 3)
        sat = sat / np.linalg.norm(sat) * rng.uniform(6800, 7500)
        target = rng.uniform(-1, 1, 3)
        target = target / np.linalg.norm(target) * R_E
        if is_visible(state_at(sat), target, FovSpec(half_small)):
            assert is_visible(state_at(sat), target, FovSpec(half_small + widen))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_scalar_check(self, seed):
        rng = np.random.default_rng(seed)
        sat = rng.uniform(-1, 1, 3)
        sat = sat / np.linalg.norm(sat) * rng.uniform(6800, 8000)
        target = rng.uniform(-1, 1, 3)
        target = target / np.linalg.norm(target) * rng.uniform(R_E, R_E + 20)
        half = rng.uniform(5, 85) * DEG
        assert is_visible(state_at(sat), target, FovSpec(half)) == scalar_visible(sat, target, half)


class TestRaanSymmetry:
    @given(
        raan_deg=st.floats(0.0, 359.0),
        shift_deg=st.floats(0.0, 359.0),
        lat=st.floats(-60 * DEG, 60 * DEG),
        lon=st.floats(-math.pi, math.pi - 1e-9),
    )
    @settings(max_examples=80, deadline=None)
    def test_joint_rotation_invariant(self, raan_deg, shift_deg, lat, lon):
        half = FovSpec(45 * DEG)

        def check(raan, lon_):
            coe = ClassicalOrbitalElements(7000.0, 0.0, 97.8 * DEG, raan, 0.0, 40 * DEG)
            target = geodetic_to_eci(GeodeticPoint(lat, ((lon_ + math.pi) % (2 * math.pi)) - math.pi, 0.0), 0.0)
            return is_visible(coe_to_state(coe), target, half)

        shift = shift_deg * DEG
        assert check(raan_deg * DEG, lon) == check(raan_deg * DEG + shift, lon + shift)


class TestMaskAgainstScalar:
    def test_mask_equals_scalar_loop(self):
        rng = np.random.default_rng(7)
        n_steps, n_targets = 25, 4
        pos = rng.uniform(-1, 1, (n_steps, 3))
        pos = pos / np.linalg.norm(pos, axis=1, keepdims=True) * rng.uniform(6800, 7600, (n_steps, 1))
        tgt = rng.uniform(-1, 1, (n_steps, n_targets, 3))
        tgt = tgt / np.linalg.norm(tgt, axis=2, keepdims=True) * R_E
        half = 50 * DEG
        mask = visibility_mask(pos, tgt, half)
        for t in range(n_steps):
            for p in range(n_targets):
                assert mask[t, p] == scalar_visible(pos[t], tgt[t, p], half)

    def test_zero_targets(self):
        mask = visibility_mask(np.full((3, 3), 7000.0), np.zeros((3, 0, 3)), 0.5)
        assert mask.shape == (3, 0)


def small_scenario():
    """Two satellites with two slots each, and a (T, 3) active-target table
    that alternates between two ground points."""
    grid = TimeGrid(duration=1200.0, step=100.0, control_step=600.0, num_stages=2)
    sats = [
        ClassicalOrbitalElements(7000.0, 0.0, 97.8 * DEG, 0.0, 0.0, 0.0),
        ClassicalOrbitalElements(7006.0, 1e-3, 97.7 * DEG, 40 * DEG, 10 * DEG, 120 * DEG),
    ]
    slots = [
        [
            coe,
            ClassicalOrbitalElements(
                coe.semi_major_axis,
                coe.eccentricity,
                coe.inclination,
                coe.raan,
                coe.arg_periapsis,
                coe.true_anomaly + 0.6,
            ),
        ]
        for coe in sats
    ]
    points = [GeodeticPoint(10 * DEG, 20 * DEG, 0.0), GeodeticPoint(-5 * DEG, -140 * DEG, 0.0)]
    targets = np.stack(
        [geodetic_to_eci(points[t % 2], t * grid.step) for t in range(grid.num_steps)]
    )
    return grid, slots, targets


class TestTensor:
    def test_matches_entrywise_scalar_recomputation(self):
        grid, slots, targets = small_scenario()
        fov = FovSpec(80 * DEG)
        visible = slot_visibility(hashed(slots), targets, grid, fov)
        assert visible.shape == (2, 2, grid.num_steps) and visible.dtype == bool
        for k in range(2):
            for j in range(2):
                for t in range(grid.num_steps):
                    coe = propagate(slots[k][j], t * grid.step)
                    pos = coe_to_state(coe).position
                    expect = scalar_visible(pos, targets[t], fov.half_angle)
                    assert visible[k, j, t] == expect
        # both values occur, so the comparison above is not vacuous
        assert visible.any() and not visible.all()

    def test_overhead_start_bit_set(self):
        grid = TimeGrid(duration=600.0, step=100.0, control_step=600.0)
        coe = ClassicalOrbitalElements(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        target = geodetic_to_eci(GeodeticPoint(0.0, 0.0, 0.0), 0.0)
        targets = np.broadcast_to(target, (grid.num_steps, 3)).copy()
        visible = slot_visibility(hashed([[coe]]), targets, grid, FovSpec(45 * DEG))
        assert visible[0, 0, 0]

    def test_fov_monotone_pointwise(self):
        grid, slots, targets = small_scenario()
        narrow = slot_visibility(hashed(slots), targets, grid, FovSpec(30 * DEG))
        wide = slot_visibility(hashed(slots), targets, grid, FovSpec(45 * DEG))
        assert np.all(narrow <= wide)

    def test_dimension_mismatch_rejected(self):
        grid, slots, targets = small_scenario()
        with pytest.raises(ValueError, match="targets shaped"):
            slot_visibility(hashed(slots), targets[:-1], grid, FovSpec(0.5))
        with pytest.raises(ValueError, match="targets shaped"):
            slot_visibility(hashed(slots), targets[:, None, :], grid, FovSpec(0.5))

    def test_unequal_slot_lists_rejected(self):
        grid, slots, targets = small_scenario()
        with pytest.raises(ValueError, match="unequal slot counts"):
            slot_visibility(hashed([slots[0], slots[1][:1]]), targets, grid, FovSpec(0.5))


class TestFovSpecValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi / 2, 2.0])
    def test_half_angle_range(self, bad):
        with pytest.raises(ValueError):
            FovSpec(bad)


def loop_oracle(slots, targets, grid, fov):
    return oracles.slot_visibility_loop(slots, targets, grid, fov, eci_positions, visibility_mask)


def one_time_positions(coe, times):
    """eci_positions of one orbit with each time asked for alone, as
    cell_positions positions each cell."""
    return np.array([eci_positions(coe, times[t : t + 1])[0] for t in range(len(times))]).reshape(-1, 3)


def cell_loop_oracle(slots, targets, grid, fov):
    """The per-slot loop with every step positioned alone."""
    return oracles.slot_visibility_loop(slots, targets, grid, fov, one_time_positions, visibility_mask)


def plane_positions(plane, times, steps):
    return oracles.plane_positions(orbits, plane, times, steps)


def certified_cell_positions(table, which, times, steps):
    return oracles.certified_cell_positions(orbits, table, which, times, steps)


def plane_screen_oracle(slots, targets, grid, fov, positions=plane_positions):
    return oracles.plane_screen_visibility(
        slots, targets, grid, fov, secular_angles, positions, visibility_mask
    )


def per_plane_oracle(slots, targets, grid, fov, positions=None):
    return oracles.per_plane_visibility(slots, targets, grid, fov, orbits, visibility_mask, positions)


def assert_matches_oracles(slots, targets, grid, fov):
    """slot_visibility against the per-plane path, the plane-screen-only
    path and the per-slot loop, each with every cell positioned alone."""
    row = functools.cache(lambda coe: one_time_positions(coe, np.arange(grid.num_steps) * grid.step))

    def positions(plane, times, steps):
        steps = np.broadcast_to(steps, (len(plane), np.shape(steps)[-1]))
        return np.stack([row(coe)[s] for coe, s in zip(plane, steps)])

    got = slot_visibility(hashed(slots), targets, grid, fov)
    assert np.array_equal(got, per_plane_oracle(slots, targets, grid, fov, positions))
    assert np.array_equal(got, plane_screen_oracle(slots, targets, grid, fov, positions))
    assert np.array_equal(
        got, oracles.slot_visibility_loop(slots, targets, grid, fov, lambda coe, _: row(coe), visibility_mask)
    )
    return got


class TestPlaneScreen:
    """The screened slot_visibility against the per-slot loop, bit for bit:
    on the corpus the loop positions each slot's whole row at once, and
    at edge targets it positions every cell alone, as the kernel does."""

    @pytest.mark.parametrize("fov_deg", [30.0, 45.0])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_corpus_families_match_loop(self, index, fov_deg):
        track = default_corpus(20)[index]
        config = ScenarioConfig(fov_half_angle=fov_deg * DEG)
        ws = _TrackWorkspace(track, config)
        for grid in ("phasing", "unrestricted"):
            slot_grid = config.slot_grid(grid)
            got = slot_visibility(slot_grid, ws.table, ws.grid_for(1), config.fov)
            want = loop_oracle(slot_grid.slots, ws.table, ws.grid_for(1), config.fov)
            assert np.array_equal(got, want), grid
        assert want.any()

    @given(
        a_km=st.floats(R_E + 150.0, R_E + 40000.0),
        ecc=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        inc=st.floats(0.0, math.pi),
        raan=st.floats(0.0, 2 * math.pi),
        argp=st.floats(0.0, 2 * math.pi),
        nu=st.floats(0.0, 2 * math.pi),
        half=st.floats(1e-4, math.pi / 2 - 1e-6),
        step=st.floats(30.0, 900.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_orbits_and_edge_targets_match_loop(self, a_km, ecc, inc, raan, argp, nu, half, step, seed):
        # perigee at least 150 km up, so every satellite is above the targets
        a_km = max(a_km, (R_E + 150.0) / (1.0 - ecc))
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=24 * step, step=step, control_step=step)
        plane = [ClassicalOrbitalElements(a_km, ecc, inc, raan, argp, nu + q * 2.1) for q in range(3)]
        times = np.arange(grid.num_steps) * grid.step
        pos = eci_positions(plane[0], times)
        # on the sphere, or up to 1 or 100 km above it
        rho = R_E + rng.choice([0.0, 0.0, 1.0, 100.0], size=grid.num_steps) * rng.uniform(0.0, 1.0, grid.num_steps)
        targets = edge_targets(plane[0], times, rho, half)
        # every third step: a random point near the sub-satellite point
        scatter = pos[::3] / np.linalg.norm(pos[::3], axis=1, keepdims=True) + rng.normal(0.0, 0.3, (len(pos[::3]), 3))
        targets[::3] = scatter / np.linalg.norm(scatter, axis=1, keepdims=True) * rho[::3, None]
        slots = [plane, [replace(plane[0], raan=raan + 0.5, true_anomaly=nu + q) for q in range(3)]]
        fov = FovSpec(half)
        got = slot_visibility(hashed(slots), targets, grid, fov)
        assert np.array_equal(got, cell_loop_oracle(slots, targets, grid, fov))
        # the edge targets are seen by the slot they were built for
        edge = np.ones(grid.num_steps, bool)
        edge[::3] = False
        assert got[0, 0, edge].all()

    def test_subsurface_perigee_is_not_screened(self):
        grid = TimeGrid(duration=3000.0, step=100.0, control_step=100.0)
        coe = ClassicalOrbitalElements(R_E + 100.0, 0.03, 60 * DEG, 1.0, 2.0, 0.5)
        assert coe.semi_latus_rectum / 1.03 < R_E
        pos = eci_positions(coe, np.arange(grid.num_steps) * grid.step)
        targets = pos / np.linalg.norm(pos, axis=1, keepdims=True) * R_E
        fov = FovSpec(40 * DEG)
        got = slot_visibility(hashed([[coe]]), targets, grid, fov)
        assert np.array_equal(got, loop_oracle([[coe]], targets, grid, fov))


def table_of(orbit_list):
    return hashed([orbit_list]).orbits


def random_orbit(rng, ecc):
    return ClassicalOrbitalElements(
        rng.uniform(R_E + 300.0, R_E + 2000.0) / (1.0 - ecc), ecc, rng.uniform(0.0, math.pi),
        *rng.uniform(0.0, 2 * math.pi, 3),
    )


def runs(step_lists):
    """(which, steps) of cell_positions with one run per step list."""
    which = np.repeat(np.arange(len(step_lists)), [len(s) for s in step_lists])
    return which, np.concatenate([np.asarray(s, dtype=int) for s in step_lists])


class TestPlaneKernel:
    """The grid kernel, cell_positions, against eci_positions asked for
    each cell's time alone, and the certificate path it replaced
    (tests/_oracles.py) against each orbit's full eci_positions row, bit
    for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        ecc=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.95)),
        n_orbits=st.integers(1, 6),
        n_cells=st.integers(0, 80),
    )
    @settings(max_examples=100, deadline=None)
    def test_cells_are_one_time_calls(self, seed, ecc, n_orbits, n_cells):
        # orbits on different planes and of different shapes, a random
        # subset of cells in random order, repeats allowed
        rng = np.random.default_rng(seed)
        table_orbits = [random_orbit(rng, ecc * rng.uniform()) for _ in range(n_orbits)]
        times = np.arange(500) * rng.uniform(10.0, 600.0)
        which = rng.integers(0, n_orbits, n_cells)
        steps = rng.integers(0, times.size, n_cells)
        got = cell_positions(table_of(table_orbits), which, times, steps)
        assert got.shape == (n_cells, 3)
        for q, s, pos in zip(which, steps, got):
            assert np.array_equal(pos, eci_positions(table_orbits[q], times[[s]])[0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        ecc=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.95)),
        n_cells=st.integers(1, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_permuted_cells_permute_the_output(self, seed, ecc, n_cells):
        rng = np.random.default_rng(seed)
        coe = random_orbit(rng, ecc)
        table_orbits = [replace(coe, true_anomaly=nu) for nu in rng.uniform(0.0, 2 * math.pi, 3)]
        table_orbits.append(random_orbit(rng, ecc * rng.uniform()))
        table = table_of(table_orbits)
        times = np.arange(300) * rng.uniform(10.0, 600.0)
        which, steps = rng.integers(0, len(table_orbits), n_cells), rng.integers(0, times.size, n_cells)
        order = rng.permutation(n_cells)
        got = cell_positions(table, which, times, steps)
        assert np.array_equal(cell_positions(table, which[order], times, steps[order]), got[order])

    @given(
        seed=st.integers(0, 2**32 - 1),
        ecc=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
        n_orbits=st.integers(1, 6),
        share=st.floats(0.0, 0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_are_rows_of_the_full_call(self, seed, ecc, n_orbits, share):
        # orbits on different planes and of different shapes in one call
        rng = np.random.default_rng(seed)
        plane = [random_orbit(rng, ecc * rng.uniform()) for _ in range(n_orbits)]
        times = np.arange(500) * rng.uniform(10.0, 600.0)
        steps = np.flatnonzero(rng.uniform(size=times.size) < share)
        which, cells = runs([steps] * n_orbits)
        got = certified_cell_positions(table_of(plane), which, times, cells)
        assert got.shape == (n_orbits * steps.size, 3)
        for q, orbit in enumerate(plane):
            assert np.array_equal(got[which == q], eci_positions(orbit, times)[steps])

    @given(
        seed=st.integers(0, 2**32 - 1),
        ecc=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.4, 0.6)),
        n_orbits=st.integers(1, 6),
        share=st.floats(0.0, 0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_padded_rows_are_rows_of_the_full_call(self, seed, ecc, n_orbits, share):
        # ragged step lists, each padded to the widest by repeating one of
        # its own steps, which leaves a run's stopping step as it was
        rng = np.random.default_rng(seed)
        coe = random_orbit(rng, ecc)
        plane = [replace(coe, true_anomaly=nu) for nu in rng.uniform(0.0, 2 * math.pi, n_orbits)]
        times = np.arange(400) * rng.uniform(10.0, 600.0)
        rows = [np.flatnonzero(rng.uniform(size=times.size) < share) for _ in plane]
        rows = [r if r.size else rng.integers(0, times.size, 1) for r in rows]
        width = max(r.size for r in rows)
        steps = np.stack([np.concatenate([r, np.full(width - r.size, rng.choice(r))]) for r in rows])
        which, cells = runs(steps)
        got = certified_cell_positions(table_of(plane), which, times, cells).reshape(n_orbits, width, 3)
        for q, orbit in enumerate(plane):
            assert np.array_equal(got[q], eci_positions(orbit, times)[steps[q]])

    def test_kept_steps_that_converge_early_fall_back_to_the_full_row(self):
        # one step at M = 0: the seed is the root, so the certificate
        # path's row stops after 0 Newton steps, short of the certified
        # count, while the full row needs the certified count
        coe = ClassicalOrbitalElements(R_E + 700.0, 0.01, 1.0, 0.5, 0.0, 0.0)
        times = np.arange(200) * 60.0
        steps = np.array([0])
        need = oracles.kepler_certified_steps(coe.eccentricity)
        m_full = j2_mean_motion(coe) * times
        assert oracles.kepler_newton_rows(m_full[None, steps], coe.eccentricity, orbits._bisect_kepler)[1][0] == 0 < need
        assert oracles.kepler_newton_rows(m_full[None, :], coe.eccentricity, orbits._bisect_kepler)[1][0] == need
        with mock.patch.object(orbits, "_solve_kepler_array", wraps=orbits._solve_kepler_array) as full_row:
            got = certified_cell_positions(table_of([coe]), np.zeros(1, dtype=int), times, steps)
        assert full_row.call_count == 1
        assert np.array_equal(got, eci_positions(coe, times)[steps])
        got = cell_positions(table_of([coe]), np.zeros(1, dtype=int), times, steps)
        assert np.array_equal(got, eci_positions(coe, times[steps]))

    def test_one_run_falls_back_among_runs_that_pass(self):
        coe = ClassicalOrbitalElements(R_E + 700.0, 0.01, 1.0, 0.5, 0.0, 0.0)
        others = [replace(coe, true_anomaly=1.0), replace(coe, raan=2.0, true_anomaly=3.0)]
        table = table_of([others[0], coe, others[1]])
        times = np.arange(200) * 60.0
        which, steps = runs([np.arange(0, 200, 3), [0], np.arange(1, 200, 5)])
        with mock.patch.object(orbits, "_solve_kepler_array", wraps=orbits._solve_kepler_array) as full_row:
            got = certified_cell_positions(table, which, times, steps)
        assert full_row.call_count == 1
        for q, orbit in enumerate([others[0], coe, others[1]]):
            assert np.array_equal(got[which == q], eci_positions(orbit, times)[steps[which == q]])

    def test_orbit_without_certificate_solves_every_full_row(self):
        coe = ClassicalOrbitalElements(4.0 * R_E, 0.7, 1.0, 0.5, 0.2, 0.0)
        assert oracles.kepler_certified_steps(coe.eccentricity) is None
        plane = [replace(coe, true_anomaly=nu) for nu in (0.0, 2.0, 4.0)]
        times = np.arange(300) * 120.0
        steps = np.arange(0, 300, 7)
        with mock.patch.object(orbits, "_solve_kepler_array", wraps=orbits._solve_kepler_array) as full_row:
            which, cells = runs([steps] * 3)
            got = certified_cell_positions(table_of(plane), which, times, cells).reshape(3, -1, 3)
        assert full_row.call_count == len(plane)
        for q, orbit in enumerate(plane):
            assert np.array_equal(got[q], eci_positions(orbit, times)[steps])

    def test_times_before_an_epoch_rejected(self):
        coe = ClassicalOrbitalElements(R_E + 700.0, 0.0, 1.0, 0.5, 0.0, 0.0, epoch=120.0)
        # the cell at 60 s precedes the epoch; one at 120 s would not
        with pytest.raises(ValueError, match="precede"):
            cell_positions(table_of([coe]), np.zeros(2, dtype=int), np.arange(3) * 60.0, np.array([2, 1]))

    def test_each_cell_checked_against_its_own_orbit_epoch(self):
        # epochs 0 and 1000 s and cells only at 1200 and 1500 s: no time a
        # cell reads precedes its orbit's epoch, as eci_positions agrees
        early = ClassicalOrbitalElements(R_E + 700.0, 0.001, 1.0, 0.5, 0.0, 0.0)
        late = replace(early, raan=2.0, epoch=1000.0)
        times = np.arange(6) * 300.0
        which, steps = np.array([0, 1, 1]), np.array([4, 4, 5])
        got = cell_positions(table_of([early, late]), which, times, steps)
        for q, s, pos in zip(which, steps, got):
            assert np.array_equal(pos, eci_positions([early, late][q], times[[s]])[0])
        with pytest.raises(ValueError, match="precede"):
            cell_positions(table_of([early, late]), np.array([0, 1]), times, np.array([4, 3]))


def edge_targets(coe, times, rho, half, along=0):
    """Per step, the point at radius rho straight out of the orbit plane
    (or, with ``along`` +1 or -1, ahead or behind along the ground track,
    per step where ``along`` is an array) from the
    satellite's nadir point, at the widest angle visibility_mask still
    calls visible there: a scan finds the last visible angle and bisection
    narrows it to the float where the mask flips.  The satellite is
    positioned at each step alone, as slot_visibility positions it."""
    pos = one_time_positions(coe, times)
    up = pos / np.linalg.norm(pos, axis=1, keepdims=True)
    _, raan, _ = secular_angles(coe, times)
    si, ci = math.sin(coe.inclination), math.cos(coe.inclination)
    normal = np.stack([si * np.sin(raan), -si * np.cos(raan), np.full_like(raan, ci)], axis=1)
    side = np.cross(normal, up) * np.reshape(along, (-1, 1)) if np.any(along) else normal

    def points(beta):
        return (np.cos(beta)[..., None] * up[:, None] + np.sin(beta)[..., None] * side[:, None]) * rho[:, None, None]

    scan = np.linspace(0.0, math.pi, 2001)
    seen = visibility_mask(pos, points(np.broadcast_to(scan, (len(times), scan.size))), half)
    assert seen[:, 0].all() and not seen[:, -1].any()
    last = scan.size - 1 - np.argmax(seen[:, ::-1], axis=1)
    lo, hi = scan[last], scan[last + 1]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ok = visibility_mask(pos, points(mid[:, None]), half)[:, 0]
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return points(lo[:, None])[:, 0]


def screened_cells(plane, times, unit, rho, half):
    """The steps one plane's screen across it keeps, and the (slots, kept
    steps) mask of the cells the screen along it keeps."""
    table = table_of(plane)
    kept, reach = visibility._kept_steps(
        table.take(0), times, unit, lambda apoapsis: visibility._reach(apoapsis, rho, half)
    )
    slot, step = visibility._phase_cells(table, [(np.arange(len(plane)), kept, reach)], times, unit)
    cells = np.zeros((len(plane), times.size), dtype=bool)
    cells[slot, step] = True
    return kept, cells[:, kept]


class TestPhaseScreen:
    """The screen along the plane against the plane-screen-only path and
    the per-slot loop, bit for bit."""

    @pytest.mark.parametrize("fov_deg", [30.0, 45.0])
    def test_corpus_matches_plane_screen_oracle(self, fov_deg):
        config = ScenarioConfig(fov_half_angle=fov_deg * DEG)
        for track in default_corpus(20):
            ws = _TrackWorkspace(track, config)
            for grid in ("phasing", "unrestricted"):
                slot_grid = config.slot_grid(grid)
                got = slot_visibility(slot_grid, ws.table, ws.grid_for(1), config.fov)
                want = plane_screen_oracle(slot_grid.slots, ws.table, ws.grid_for(1), config.fov)
                assert np.array_equal(got, want), (track.name, grid)

    def test_positions_few_of_the_plane_kept_cells(self, monkeypatch):
        # synth-11 at 30 deg: the plane screen alone positions every kept
        # step of every slot on the plane; both screens, under a tenth
        track = default_corpus(20)[10]
        config = ScenarioConfig(fov_half_angle=30 * DEG)
        ws = _TrackWorkspace(track, config)
        cells = {"plane": 0, "both": 0}

        def counting_plane(plane, times, steps):
            cells["plane"] += len(plane) * np.shape(steps)[-1]
            return plane_positions(plane, times, steps)

        def counting_grid(table, which, times, steps):
            cells["both"] += np.size(steps)
            return cell_positions(table, which, times, steps)

        monkeypatch.setattr(visibility, "cell_positions", counting_grid)
        for grid in ("phasing", "unrestricted"):
            slot_grid = config.slot_grid(grid)
            got = slot_visibility(slot_grid, ws.table, ws.grid_for(1), config.fov)
            want = plane_screen_oracle(slot_grid.slots, ws.table, ws.grid_for(1), config.fov, counting_plane)
            assert np.array_equal(got, want)
        assert 0 < cells["both"] < 0.1 * cells["plane"]

    @given(
        a_km=st.floats(R_E + 150.0, R_E + 40000.0),
        ecc=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        inc=st.floats(0.0, math.pi),
        raan=st.floats(0.0, 2 * math.pi),
        argp=st.floats(0.0, 2 * math.pi),
        nu=st.floats(0.0, 2 * math.pi),
        half=st.floats(1e-4, math.pi / 2 - 1e-6),
        step=st.floats(30.0, 900.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_targets_at_the_ground_track_edge(self, a_km, ecc, inc, raan, argp, nu, half, step, seed):
        # each step's target lies on slot 0's ground track, at the last
        # in-plane angle the mask still sees, ahead or behind
        a_km = max(a_km, (R_E + 150.0) / (1.0 - ecc))
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=24 * step, step=step, control_step=step)
        plane = [ClassicalOrbitalElements(a_km, ecc, inc, raan, argp, nu + q * 2.1) for q in range(3)]
        times = np.arange(grid.num_steps) * grid.step
        rho = R_E + rng.choice([0.0, 0.0, 1.0, 100.0], size=grid.num_steps) * rng.uniform(0.0, 1.0, grid.num_steps)
        targets = edge_targets(plane[0], times, rho, half, along=rng.choice([-1.0, 1.0], grid.num_steps))
        slots = [plane, [replace(plane[0], raan=raan + 0.5, true_anomaly=nu + q) for q in range(3)]]
        fov = FovSpec(half)
        got = assert_matches_oracles(slots, targets, grid, fov)
        assert got[0, 0].all()

    @given(
        a_km=st.floats(R_E + 150.0, 45000.0),
        height=st.floats(0.0, 100.0),
        half=st.floats(1e-3, math.pi / 2 - 1e-6),
        south=st.booleans(),
        nu=st.floats(0.0, 2 * math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_polar_targets_under_equatorial_orbits(self, a_km, height, half, south, nu):
        # the target is pi/2 from every point of the plane, where the
        # in-plane bound is clamped and a high orbit's reach passes pi/2
        grid = TimeGrid(duration=3600.0 * 24, step=3600.0, control_step=3600.0)
        slots = [[ClassicalOrbitalElements(a_km, 0.0, 0.0, 0.0, 0.0, nu + q * 1.3) for q in range(4)]]
        pole = np.array([0.0, 0.0, -1.0 if south else 1.0]) * (R_E + height)
        assert_matches_oracles(slots, np.tile(pole, (grid.num_steps, 1)), grid, FovSpec(half))

    def test_geostationary_ring_sees_a_raised_pole(self):
        grid = TimeGrid(duration=3600.0 * 24, step=3600.0, control_step=3600.0)
        slots = [[ClassicalOrbitalElements(42164.0, 0.0, 0.0, 0.0, 0.0, q * 1.3) for q in range(4)]]
        pole = np.tile([0.0, 0.0, R_E + 100.0], (grid.num_steps, 1))
        assert assert_matches_oracles(slots, pole, grid, FovSpec(30 * DEG)).all()
        ground = np.tile([0.0, 0.0, R_E], (grid.num_steps, 1))
        assert not assert_matches_oracles(slots, ground, grid, FovSpec(30 * DEG)).any()

    @given(
        ecc=st.sampled_from([0.3, 0.45, 0.5, 0.55, 0.7]),
        perigee_km=st.floats(R_E + 150.0, R_E + 5000.0),
        inc=st.floats(0.0, math.pi),
        raan=st.floats(0.0, 2 * math.pi),
        argp=st.floats(0.0, 2 * math.pi),
        nu=st.floats(0.0, 2 * math.pi),
        half=st.floats(1e-3, math.pi / 2 - 1e-6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_eccentric_orbits_either_side_of_the_skip(self, ecc, perigee_km, inc, raan, argp, nu, half, seed):
        rng = np.random.default_rng(seed)
        coe = ClassicalOrbitalElements(perigee_km / (1.0 - ecc), ecc, inc, raan, argp, nu)
        grid = TimeGrid(duration=48 * 600.0, step=600.0, control_step=600.0)
        times = np.arange(grid.num_steps) * grid.step
        plane = [replace(coe, true_anomaly=nu + q * 0.9) for q in range(7)]
        rho = np.full(grid.num_steps, R_E)
        targets = edge_targets(coe, times, rho, half, along=rng.choice([-1.0, 0.0, 1.0]))
        scatter = rng.normal(0.0, 1.0, (grid.num_steps, 3))
        pick = rng.uniform(size=grid.num_steps) < 0.5
        targets[pick] = (scatter / np.linalg.norm(scatter, axis=1, keepdims=True) * R_E)[pick]
        fov = FovSpec(half)
        assert_matches_oracles([plane], targets, grid, fov)
        unit = targets / np.linalg.norm(targets, axis=1, keepdims=True)
        _, cells = screened_cells(plane, times, unit, rho, half)
        if ecc > visibility._PHASE_SCREEN_MAX_ECC:
            assert cells.all()

    def test_screen_drops_cells_below_the_skip(self):
        coe = ClassicalOrbitalElements((R_E + 600.0) / 0.5, 0.5, 1.0, 0.3, 0.2, 0.0)
        plane = [replace(coe, true_anomaly=q * 0.9) for q in range(7)]
        times = np.arange(48) * 600.0
        pos = eci_positions(coe, times)
        unit = pos / np.linalg.norm(pos, axis=1, keepdims=True)
        rho = np.full(times.size, R_E)
        kept, cells = screened_cells(plane, times, unit, rho, 10 * DEG)
        assert kept.size == times.size
        assert cells[0].all() and not cells.all()
        with mock.patch.object(visibility, "_PHASE_SCREEN_MAX_ECC", 0.49):
            assert screened_cells(plane, times, unit, rho, 10 * DEG)[1].all()

    def test_cells_near_perigee_fall_back_to_the_full_row(self):
        # eight steps per anomalistic orbit and the slot 3e-3 rad past
        # perigee at step 0, with each step's target at the perigee point:
        # only every eighth step survives, each within 5e-3 rad of the
        # apsis, where Newton converges a step before the certified count,
        # so the certificate path solves the full row
        coe = ClassicalOrbitalElements(R_E + 700.0, 0.002, 1.0, 0.5, 0.0, mean_to_true_anomaly(3e-3, 0.002))
        step = 2 * math.pi / j2_mean_motion(coe) / 8
        grid = TimeGrid(duration=64 * step, step=step, control_step=step)
        times = np.arange(grid.num_steps) * grid.step
        _, raan, argp = secular_angles(coe, times)
        ci, si = math.cos(coe.inclination), math.sin(coe.inclination)
        node = np.stack([np.cos(raan), np.sin(raan), np.zeros_like(raan)], axis=1)
        ahead = np.stack([-np.sin(raan) * ci, np.cos(raan) * ci, np.full_like(raan, si)], axis=1)
        targets = (np.cos(argp)[:, None] * node + np.sin(argp)[:, None] * ahead) * R_E
        fov = FovSpec(0.1)
        need = oracles.kepler_certified_steps(coe.eccentricity)
        mean = orbits.true_to_mean_anomaly(coe.true_anomaly, coe.eccentricity) + j2_mean_motion(coe) * times
        assert oracles.kepler_newton_rows(mean[None, ::8], coe.eccentricity, orbits._bisect_kepler)[1][0] < need
        assert oracles.kepler_newton_rows(mean[None, :], coe.eccentricity, orbits._bisect_kepler)[1][0] == need
        with mock.patch.object(visibility, "cell_positions", certified_cell_positions), mock.patch.object(
            orbits, "_solve_kepler_array", wraps=orbits._solve_kepler_array
        ) as full_row:
            want = slot_visibility(hashed([[coe]]), targets, grid, fov)
        assert full_row.call_count == 1
        assert np.array_equal(want, plane_screen_oracle([[coe]], targets, grid, fov))
        assert np.array_equal(want, loop_oracle([[coe]], targets, grid, fov))
        got = slot_visibility(hashed([[coe]]), targets, grid, fov)
        assert np.array_equal(got, cell_loop_oracle([[coe]], targets, grid, fov))
        for seen in (got, want):
            assert np.array_equal(np.flatnonzero(seen[0, 0]), np.arange(0, grid.num_steps, 8))


class TestGridPass:
    """The pass over the whole slot grid against the per-plane path it
    replaced and the certificate path, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sats=st.integers(1, 3),
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        eccs=st.lists(st.sampled_from([0.0, 0.002, 0.3, 0.55, 0.7]), min_size=4, max_size=4),
        half=st.floats(0.05, 1.2),
        subsurface=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_satellite_grids_match_the_per_plane_oracle(self, seed, n_sats, sizes, eccs, half, subsurface):
        # every satellite splits the same slot count into planes of
        # unequal size, with eccentricities either side of the phase
        # screen's skip and of the Kepler certificate's limit; a plane
        # whose perigee lies inside the Earth is not screened
        rng = np.random.default_rng(seed)
        grid = TimeGrid(duration=48 * 600.0, step=600.0, control_step=600.0)
        times = np.arange(grid.num_steps) * grid.step
        slots = []
        for k in range(n_sats):
            slot_list = []
            for q, size in enumerate(rng.permutation(sizes + [1] * subsurface)):
                ecc = eccs[(k + q) % len(eccs)]
                coe = ClassicalOrbitalElements(
                    rng.uniform(R_E + 150.0, R_E + 3000.0) / (1.0 - ecc), ecc, rng.uniform(0.0, math.pi),
                    *rng.uniform(0.0, 2 * math.pi, 3),
                )
                slot_list += [replace(coe, true_anomaly=nu) for nu in rng.uniform(0.0, 2 * math.pi, size)]
            slots.append(slot_list)
        if subsurface:
            slots[0][0] = ClassicalOrbitalElements(R_E + 100.0, 0.03, 1.0, *rng.uniform(0.0, 2 * math.pi, 3))
        # edge targets of a slot above the Earth, the rest near the nadir
        # point of a random slot
        k, j = n_sats - 1, len(slots[0]) - 1
        rho = R_E + rng.choice([0.0, 1.0, 100.0], size=grid.num_steps) * rng.uniform(0.0, 1.0, grid.num_steps)
        targets = edge_targets(slots[k][j], times, rho, half, along=rng.choice([-1.0, 0.0, 1.0], grid.num_steps))
        near = rng.uniform(size=grid.num_steps) < 0.6
        for t in np.flatnonzero(near):
            kk, jj = rng.integers(n_sats), rng.integers(len(slots[0]))
            up = eci_positions(slots[kk][jj], times[t : t + 1])[0]
            up = up / np.linalg.norm(up) + rng.normal(0.0, 0.1, 3)
            targets[t] = up / np.linalg.norm(up) * rho[t]
        got = assert_matches_oracles(slots, targets, grid, FovSpec(half))
        assert got[k, j, ~near].all()

    def test_one_row_falls_back_among_rows_that_pass(self):
        # each step's target sits at the perigee point of an orbit stepped
        # eight times per anomalistic period.  Slot 0 passes it 3e-3 rad
        # after perigee, where Newton stops a step before the certified
        # count; slot 1 of the second satellite, its perigee 1 rad behind,
        # passes it 1.04 rad after its own, where Newton takes that count.
        # So the certificate path solves one full row
        coe = ClassicalOrbitalElements(R_E + 700.0, 0.002, 1.0, 0.5, 0.0, 0.0)
        step = 2 * math.pi / j2_mean_motion(coe) / 8
        grid = TimeGrid(duration=64 * step, step=step, control_step=step)
        times = np.arange(grid.num_steps) * grid.step
        _, raan, argp = secular_angles(coe, times)
        ci, si = math.cos(coe.inclination), math.sin(coe.inclination)
        node = np.stack([np.cos(raan), np.sin(raan), np.zeros_like(raan)], axis=1)
        ahead = np.stack([-np.sin(raan) * ci, np.cos(raan) * ci, np.full_like(raan, si)], axis=1)
        targets = (np.cos(argp)[:, None] * node + np.sin(argp)[:, None] * ahead) * R_E
        early = replace(coe, true_anomaly=mean_to_true_anomaly(3e-3, coe.eccentricity))
        m_late = orbits.true_to_mean_anomaly(1.04, coe.eccentricity) - math.pi / 2
        late = replace(coe, arg_periapsis=-1.0, true_anomaly=mean_to_true_anomaly(m_late, coe.eccentricity))
        away = replace(coe, raan=2.0)
        slots = [[early, away], [away, late]]
        fov = FovSpec(0.5)
        cells = []

        def counting_grid(table, which, times, steps):
            cells.append(which)
            return certified_cell_positions(table, which, times, steps)

        with mock.patch.object(visibility, "cell_positions", counting_grid), mock.patch.object(
            orbits, "_solve_kepler_array", wraps=orbits._solve_kepler_array
        ) as full_row:
            want = slot_visibility(hashed(slots), targets, grid, fov)
        assert full_row.call_count == 1
        assert set(cells[0]) >= {0, 3}
        assert np.array_equal(want, per_plane_oracle(slots, targets, grid, fov))
        assert np.array_equal(want, loop_oracle(slots, targets, grid, fov))
        got = assert_matches_oracles(slots, targets, grid, fov)
        for seen in (got, want):
            assert np.array_equal(np.flatnonzero(seen[0, 0]), np.arange(0, grid.num_steps, 8))
            assert np.array_equal(np.flatnonzero(seen[1, 1]), np.arange(2, grid.num_steps, 8))

    @pytest.mark.parametrize(
        "fov_deg, index",
        # the tracks of the benchmark's reconfig30 and agile45 workloads
        [(30.0, 0), (30.0, 5), (30.0, 10), (45.0, 0), (45.0, 6), (45.0, 12)],
    )
    def test_benchmark_tracks_match_the_certificate_path(self, fov_deg, index):
        # the kernel that held each slot's cells to its full row's bits
        track = default_corpus(20)[index]
        config = ScenarioConfig(fov_half_angle=fov_deg * DEG)
        ws = _TrackWorkspace(track, config)
        for grid in ("phasing", "unrestricted"):
            slot_grid = config.slot_grid(grid)
            got = slot_visibility(slot_grid, ws.table, ws.grid_for(1), config.fov)
            with mock.patch.object(visibility, "cell_positions", certified_cell_positions):
                want = slot_visibility(slot_grid, ws.table, ws.grid_for(1), config.fov)
            assert np.array_equal(got, want), grid
            assert want.any()
