"""Visibility cone, occlusion, and tensor-packing tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from stormcover.orbits import (
    EARTH,
    ClassicalOrbitalElements,
    GeodeticPoint,
    StateVector,
    TimeGrid,
    coe_to_state,
    geodetic_to_eci,
    propagate,
)
from stormcover.visibility import (
    FovSpec,
    VisibilityTensor,
    compute_vtw_tensor,
    is_visible,
    target_pointing,
    visibility_mask,
)

DEG = math.pi / 180.0
R_E = EARTH.radius_km


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
    grid = TimeGrid(duration=1200.0, step=100.0, control_step=600.0, num_stages=2)
    sats = [
        ClassicalOrbitalElements(7000.0, 0.0, 97.8 * DEG, 0.0, 0.0, 0.0),
        ClassicalOrbitalElements(7006.0, 1e-3, 97.7 * DEG, 40 * DEG, 10 * DEG, 120 * DEG),
    ]
    slots = []
    for coe in sats:
        per_stage = []
        for _ in range(grid.num_stages):
            per_stage.append(
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
            )
        slots.append(per_stage)
    points = [GeodeticPoint(10 * DEG, 20 * DEG, 0.0), GeodeticPoint(-5 * DEG, -140 * DEG, 0.0)]
    targets = np.stack(
        [
            np.stack([geodetic_to_eci(p, t * grid.step) for p in points])
            for t in range(grid.num_steps)
        ]
    )
    return grid, slots, targets


class TestTensor:
    def test_matches_entrywise_scalar_recomputation(self):
        grid, slots, targets = small_scenario()
        fov = FovSpec(80 * DEG)
        tensor = compute_vtw_tensor(slots, targets, grid, fov)
        assert tensor.dims == (2, 2, 2, 6, 2)
        full = tensor.unpack()
        for s in range(2):
            lo, _hi = grid.stage_step_range(s)
            for k in range(2):
                for j in range(2):
                    for t_local in range(grid.steps_per_stage):
                        t_global = lo + t_local
                        coe = propagate(slots[k][s][j], t_global * grid.step)
                        pos = coe_to_state(coe).position
                        for p in range(2):
                            expect = scalar_visible(pos, targets[t_global, p], fov.half_angle)
                            assert full[s, k, j, t_local, p] == expect
                            assert tensor.value(s, k, j, t_local, p) == expect

    def test_overhead_start_bit_set(self):
        grid = TimeGrid(duration=600.0, step=100.0, control_step=600.0)
        coe = ClassicalOrbitalElements(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        target = geodetic_to_eci(GeodeticPoint(0.0, 0.0, 0.0), 0.0)
        targets = np.broadcast_to(target, (grid.num_steps, 1, 3)).copy()
        tensor = compute_vtw_tensor([[[coe]]], targets, grid, FovSpec(45 * DEG))
        assert tensor.value(0, 0, 0, 0, 0)

    def test_zero_targets_all_false(self):
        grid, slots, _ = small_scenario()
        tensor = compute_vtw_tensor(slots, np.zeros((grid.num_steps, 0, 3)), grid, FovSpec(0.5))
        assert tensor.count() == 0

    def test_fov_monotone_pointwise(self):
        grid, slots, targets = small_scenario()
        narrow = compute_vtw_tensor(slots, targets, grid, FovSpec(30 * DEG)).unpack()
        wide = compute_vtw_tensor(slots, targets, grid, FovSpec(45 * DEG)).unpack()
        assert np.all(narrow <= wide)

    def test_dimension_mismatch_rejected(self):
        grid, slots, targets = small_scenario()
        with pytest.raises(ValueError):
            compute_vtw_tensor(slots, targets[:-1], grid, FovSpec(0.5))

    def test_dump_load_round_trip(self, tmp_path):
        grid, slots, targets = small_scenario()
        tensor = compute_vtw_tensor(slots, targets, grid, FovSpec(45 * DEG))
        path = tmp_path / "vtw.bin"
        tensor.dump(path)
        first = path.read_bytes()
        tensor.dump(path)
        assert path.read_bytes() == first
        loaded = VisibilityTensor.load(path)
        assert loaded.dims == tensor.dims
        assert np.array_equal(loaded.bits, tensor.bits)
        assert np.array_equal(loaded.unpack(), tensor.unpack())

    def test_header_is_five_little_endian_int64(self, tmp_path):
        grid, slots, targets = small_scenario()
        tensor = compute_vtw_tensor(slots, targets, grid, FovSpec(45 * DEG))
        path = tmp_path / "vtw.bin"
        tensor.dump(path)
        raw = path.read_bytes()
        dims = np.frombuffer(raw[:40], dtype="<i8")
        assert tuple(int(d) for d in dims) == tensor.dims
        assert len(raw) == 40 + tensor.bits.size


class TestFovSpecValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi / 2, 2.0])
    def test_half_angle_range(self, bad):
        with pytest.raises(ValueError):
            FovSpec(bad)
