"""Transfer pricing, slot grids, and cost-matrix assembly tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from stormcover.harness import MODEL_MATRIX, ScenarioConfig, _TrackWorkspace, default_corpus
from stormcover.maneuvers import (
    CostMatrix,
    GridMode,
    SlotGridSpec,
    TransferCost,
    TransferStrategy,
    _MAX_ECC,
    _pairwise_costs,
    _phase_rev_pairs,
    _stage_angles,
    build_cost_matrix,
    calibrate_plane_spans,
    combined_plane_cost,
    generate_slot_grid,
    inclination_change_cost,
    phasing_cost,
    raan_change_cost,
    transfer_cost,
)
from stormcover.orbits import ClassicalOrbitalElements, TimeGrid, mean_motion, propagate

DEG = math.pi / 180.0
TWO_PI = 2.0 * math.pi


def circular(a=7000.0, i_deg=97.72, raan_deg=40.0, u_deg=0.0, e=0.0):
    return ClassicalOrbitalElements(a, e, i_deg * DEG, raan_deg * DEG, 0.0, u_deg * DEG)


class TestPhasing:
    def test_zero_offset_is_stay(self):
        cost = phasing_cost(circular(), 0.0)
        assert cost.delta_v == 0.0
        assert cost.strategy is TransferStrategy.STAY
        assert cost.transfer_time == 0.0

    def test_half_turn_matches_brute_force(self):
        cost = phasing_cost(circular(), math.pi, max_revs=4)
        assert cost.delta_v == pytest.approx(oracles.phasing_cost_brute(7000.0, math.pi, 4), abs=1e-12)
        assert cost.strategy is TransferStrategy.PHASE

    @given(
        a=st.floats(6700.0, 7500.0),
        dphi=st.floats(0.0, TWO_PI - 1e-9),
        max_revs=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, a, dphi, max_revs):
        cost = phasing_cost(circular(a=a), dphi, max_revs)
        assert cost.delta_v == pytest.approx(oracles.phasing_cost_brute(a, dphi, max_revs), abs=1e-12)

    @given(dphi=st.floats(1e-6, TWO_PI - 1e-6))
    @settings(max_examples=150, deadline=None)
    def test_more_revs_never_cost_more(self, dphi):
        orbit = circular()
        prev = math.inf
        for revs in (1, 2, 3, 4):
            dv = phasing_cost(orbit, dphi, revs).delta_v
            assert dv <= prev + 1e-15
            prev = dv

    def test_low_altitude_guard_still_matches_oracle(self):
        # At 170 km altitude several fast-transfer pairs violate the
        # periapsis floor and must be skipped on both sides.
        a = 6550.0
        dv = phasing_cost(circular(a=a), 0.9 * TWO_PI, 4).delta_v
        assert math.isfinite(dv)
        assert dv == pytest.approx(oracles.phasing_cost_brute(a, 0.9 * TWO_PI, 4), abs=1e-12)

    def test_wait_time_consistent_with_offset(self):
        orbit = circular()
        cost = phasing_cost(orbit, 2.0, 4)
        revs = (cost.transfer_time * mean_motion(7000.0) - 2.0) / TWO_PI
        assert revs == pytest.approx(round(revs), abs=1e-9)
        assert 1 <= round(revs) <= 4

    def test_eccentric_orbit_rejected(self):
        with pytest.raises(ValueError):
            phasing_cost(circular(e=0.02), 1.0)

    def test_bad_rev_count_rejected(self):
        with pytest.raises(ValueError):
            phasing_cost(circular(), 1.0, max_revs=0)

    def test_rev_pairs_closest_below_then_above(self):
        assert _phase_rev_pairs(1) == ((1, 1),)
        assert _phase_rev_pairs(4) == ((3, 4), (4, 4))
        with pytest.raises(ValueError, match="max_revs must be at least 1"):
            _phase_rev_pairs(0)

    @given(dphi=st.one_of(st.floats(0.0, 1e-12), st.floats(TWO_PI - 1e-12, TWO_PI, exclude_max=True)))
    def test_offset_within_tolerance_of_whole_turn_is_stay(self, dphi):
        assert phasing_cost(circular(), dphi) == TransferCost(0.0, TransferStrategy.STAY, 0.0)

    # Down to 6,500 km the clearance guard rejects the pair below the orbit.
    @given(
        a=st.floats(6500.0, 9000.0),
        dphi=st.floats(1e-12, TWO_PI - 1e-12, exclude_min=True, exclude_max=True),
        max_revs=st.integers(1, 8),
    )
    @settings(max_examples=400, deadline=None)
    def test_two_rev_pairs_match_all_pairs_bit_for_bit(self, a, dphi, max_revs):
        cost = phasing_cost(circular(a=a), dphi, max_revs)
        assert (cost.delta_v, cost.transfer_time) == oracles.phasing_cost_loop(a, dphi, max_revs)

    # Within a few 1e-12 rad of a whole turn, rounding can tie two rev
    # pairs' delta_v for max_revs >= 15, and a later pair's transfer_time
    # may win the tie; the delta_v still agrees.
    @pytest.mark.parametrize("max_revs", range(1, 21))
    def test_two_rev_pairs_match_all_pairs_delta_v_near_a_whole_turn(self, max_revs):
        for a in (6500.0, 7000.0, 8000.0, 9000.0):
            for gap in np.geomspace(1.01e-12, 1e-8, 40):
                for dphi in (float(gap), TWO_PI - float(gap)):
                    cost = phasing_cost(circular(a=a), dphi, max_revs)
                    assert cost.delta_v == oracles.phasing_cost_loop(a, dphi, max_revs)[0], (a, dphi)


class TestPlaneChanges:
    def test_inclination_zero(self):
        assert inclination_change_cost(circular(), 0.0).delta_v == 0.0

    def test_inclination_one_degree(self):
        dv = inclination_change_cost(circular(), 1.0 * DEG).delta_v
        v = math.sqrt(398600.4418 / 7000.0)
        assert dv == pytest.approx(2.0 * v * math.sin(0.5 * DEG), rel=1e-12)
        assert dv == pytest.approx(0.13171, abs=5e-5)

    def test_inclination_full_reversal(self):
        v = math.sqrt(398600.4418 / 7000.0)
        assert inclination_change_cost(circular(), math.pi).delta_v == pytest.approx(2.0 * v, rel=1e-12)

    def test_raan_zero(self):
        assert raan_change_cost(circular(), 0.0).delta_v == 0.0

    def test_raan_polar_reduces_to_rotation_by_draan(self):
        v = math.sqrt(398600.4418 / 7000.0)
        dv = raan_change_cost(circular(i_deg=90.0), 10.0 * DEG).delta_v
        assert dv == pytest.approx(2.0 * v * math.sin(5.0 * DEG), rel=1e-12)

    def test_raan_matches_momentum_vector_oracle(self):
        orbit = circular(i_deg=97.72)
        theta = oracles.plane_rotation_angle(orbit.inclination, 0.0, orbit.inclination, 2.0 * DEG)
        expect = oracles.plane_change_dv(math.sqrt(398600.4418 / 7000.0), theta)
        assert raan_change_cost(orbit, 2.0 * DEG).delta_v == pytest.approx(expect, abs=1e-12)

    def test_raan_equatorial_degenerates_with_warning(self):
        with pytest.warns(UserWarning):
            cost = raan_change_cost(circular(i_deg=0.0), 1.0 * DEG)
        assert cost.delta_v == 0.0

    def test_combined_zero(self):
        assert combined_plane_cost(circular(), 0.0, 0.0).delta_v == 0.0

    @given(di=st.floats(-0.3, 0.3))
    @settings(max_examples=100, deadline=None)
    def test_combined_reduces_to_inclination(self, di):
        orbit = circular()
        assert combined_plane_cost(orbit, di, 0.0).delta_v == pytest.approx(
            inclination_change_cost(orbit, di).delta_v, abs=1e-12
        )

    @given(di=st.floats(-0.3, 0.3), draan=st.floats(-0.5, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_combined_cheaper_than_sequential(self, di, draan):
        orbit = circular()
        combo = combined_plane_cost(orbit, di, draan).delta_v
        split = inclination_change_cost(orbit, di).delta_v + raan_change_cost(orbit, draan).delta_v
        assert combo <= split + 1e-12

    @given(di=st.floats(-0.3, 0.3), draan=st.floats(-0.5, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_combined_matches_momentum_vector_oracle(self, di, draan):
        orbit = circular()
        theta = oracles.plane_rotation_angle(
            orbit.inclination, orbit.raan, orbit.inclination + di, orbit.raan + draan
        )
        expect = oracles.plane_change_dv(math.sqrt(398600.4418 / 7000.0), theta)
        assert combined_plane_cost(orbit, di, draan).delta_v == pytest.approx(expect, abs=1e-12)

    @given(di=st.floats(-0.3, 0.3), draan=st.floats(-0.5, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_plane_costs_symmetric(self, di, draan):
        a_orbit = circular()
        b_orbit = replace(
            a_orbit,
            inclination=a_orbit.inclination + di,
            raan=(a_orbit.raan + draan) % TWO_PI,
        )
        forward = combined_plane_cost(a_orbit, di, draan).delta_v
        back = combined_plane_cost(b_orbit, -di, -draan).delta_v
        assert forward == pytest.approx(back, abs=1e-12)


class TestTransferCost:
    def test_identical_orbits_stay(self):
        orbit = circular()
        cost = transfer_cost(orbit, orbit)
        assert cost.delta_v == 0.0
        assert cost.strategy is TransferStrategy.STAY

    def test_pure_phase_equals_phasing_cost(self):
        orbit = circular()
        target = replace(orbit, true_anomaly=orbit.true_anomaly + 1.1)
        cost = transfer_cost(orbit, target)
        # Phase to make up: the slot leads, so the offset is u1 - u2 wrapped.
        expect = phasing_cost(orbit, (-1.1) % TWO_PI)
        assert cost.delta_v == expect.delta_v
        assert cost.strategy is TransferStrategy.PHASE

    # Offsets are either exactly zero or at least a nanoradian: the 1e-12
    # admissibility threshold is a knife edge where two equally valid
    # wrapping routes disagree by an ulp, and real grids sit degrees away.
    offset = st.one_of(st.just(0.0), st.floats(1e-9, 0.4), st.floats(-0.4, -1e-9))

    @given(
        di=offset,
        draan=offset,
        dphi=st.one_of(st.just(0.0), st.floats(1e-9, TWO_PI - 1e-9)),
        max_revs=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_strategy_enumeration_oracle(self, di, draan, dphi, max_revs):
        orbit = circular()
        target = replace(
            orbit,
            inclination=orbit.inclination + di,
            raan=(orbit.raan + draan) % TWO_PI,
            true_anomaly=(orbit.true_anomaly - dphi) % TWO_PI,
        )
        cost = transfer_cost(orbit, target, max_revs)
        expect = oracles.transfer_cost_brute(
            7000.0,
            orbit.inclination,
            orbit.raan,
            orbit.argument_of_latitude,
            target.inclination,
            target.raan,
            target.argument_of_latitude,
            max_revs,
        )
        assert cost.delta_v == pytest.approx(expect, abs=1e-12)

    def test_plane_plus_phase_bounds(self):
        orbit = circular()
        target = replace(
            orbit,
            inclination=orbit.inclination + 2.0 * DEG,
            raan=orbit.raan + 3.0 * DEG,
            true_anomaly=orbit.true_anomaly + 2.5,
        )
        cost = transfer_cost(orbit, target)
        assert cost.strategy in (TransferStrategy.PLANE_PHASE,)
        phase_leg = phasing_cost(orbit, (orbit.true_anomaly - target.true_anomaly) % TWO_PI)
        plane_leg = combined_plane_cost(orbit, 2.0 * DEG, 3.0 * DEG)
        assert cost.delta_v <= plane_leg.delta_v + phase_leg.delta_v + 1e-15
        assert cost.delta_v >= max(plane_leg.delta_v, phase_leg.delta_v) - 1e-15
        assert cost.transfer_time == phase_leg.transfer_time

    @given(dphi=st.floats(0.1, TWO_PI - 0.1))
    @settings(max_examples=80, deadline=None)
    def test_max_revs_monotone(self, dphi):
        orbit = circular()
        target = replace(orbit, true_anomaly=(orbit.true_anomaly - dphi) % TWO_PI)
        assert transfer_cost(orbit, target, 4).delta_v <= transfer_cost(orbit, target, 1).delta_v + 1e-15

    def test_altitude_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transfer_cost(circular(a=7000.0), circular(a=7010.0))


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


class TestPairwiseCosts:
    """The plane leg + phase leg fold over two rev pairs against the
    16-pair, eight-strategy stack it replaced, bit for bit."""

    # Zero, within a few ulps of the 1e-12 rad offset tolerance, or broad.
    edge = st.floats(-2e-12, 2e-12)
    offset = st.one_of(st.just(0.0), edge, st.floats(-0.4, 0.4))
    slot = st.tuples(offset, offset, st.one_of(st.just(0.0), edge, st.floats(0.0, TWO_PI)))

    @given(
        a=st.floats(6500.0, 8000.0),
        i_deg=st.floats(30.0, 150.0),
        from_offsets=st.lists(slot, min_size=1, max_size=6),
        to_offsets=st.lists(slot, min_size=1, max_size=6),
        max_revs=st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_strategy_stack_oracle(self, a, i_deg, from_offsets, to_offsets, max_revs):
        base = circular(a=a, i_deg=i_deg)

        def slots(offsets):
            return [
                replace(
                    base,
                    inclination=base.inclination + di,
                    raan=(base.raan + draan) % TWO_PI,
                    true_anomaly=(base.true_anomaly + du) % TWO_PI,
                )
                for di, draan, du in offsets
            ]

        froms, tos = slots(from_offsets), slots(to_offsets)
        got = _pairwise_costs(_stage_angles(froms, 0.0), _stage_angles(tos, 0.0), max_revs)
        assert _bits(got) == _bits(oracles.pairwise_costs_loop(froms, tos, max_revs))

    @given(
        a=st.floats(6800.0, 7500.0),
        orbits=st.lists(
            st.tuples(
                st.floats(0.0, _MAX_ECC, exclude_max=True),
                st.floats(30.0, 150.0),
                st.floats(0.0, TWO_PI, exclude_max=True),
                st.floats(0.0, TWO_PI, exclude_max=True),
                st.floats(0.0, TWO_PI, exclude_max=True),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda orbit: orbit[2],
        ),
        overlap=st.sampled_from(["none", "shape", "plane"]),
        num_phases=st.integers(1, 8),
        num_plane_axis=st.sampled_from([1, 3, 5]),
        mode=st.sampled_from(list(GridMode)),
        dt=st.one_of(st.just(0.0), st.floats(0.0, 4.0e6)),
        max_revs=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_stage_angles_match_propagate(
        self, a, orbits, overlap, num_phases, num_plane_axis, mode, dt, max_revs, data
    ):
        # one or two satellites' grids, shuffled together.  The two initial
        # orbits differ in RAAN, so they share no plane; or they differ in
        # RAAN and the argument of periapsis only ("shape"), or in the
        # argument of periapsis only ("plane")
        if overlap != "none" and len(orbits) == 2:
            (e, i_deg, raan0, _, nu), (_, _, raan1, argp, _) = orbits
            orbits[1] = (e, i_deg, raan0 if overlap == "plane" else raan1, argp, nu)
        initials = [
            ClassicalOrbitalElements(a, e, i_deg * DEG, raan, argp, nu) for e, i_deg, raan, argp, nu in orbits
        ]
        spec = SlotGridSpec(num_phases, num_plane_axis)
        slots = [x for init in initials for x in generate_slot_grid(init, spec, 2.0, mode)]
        slots = [slots[j] for j in data.draw(st.permutations(range(len(slots))))]

        angles = _stage_angles(slots, dt)
        moved = [propagate(x, dt) for x in slots]
        assert _bits(angles.incl[angles.plane]) == _bits([x.inclination for x in moved])
        assert _bits(angles.raan[angles.plane]) == _bits([x.raan for x in moved])
        assert _bits(angles.u[angles.phase]) == _bits([x.argument_of_latitude for x in moved])
        assert _bits(angles.sma[angles.plane]) == _bits([a] * len(slots))
        if mode is GridMode.UNRESTRICTED and len(initials) == 1:
            assert len(angles.incl) == 2 * num_plane_axis - 1
            assert len(angles.u) == num_plane_axis * num_phases

        got = _pairwise_costs(angles, angles, max_revs)
        assert _bits(got) == _bits(oracles.pairwise_costs_loop(moved, moved, max_revs))
        start = _stage_angles(initials[:1], dt)
        got = _pairwise_costs(start, angles, max_revs)
        want = oracles.pairwise_costs_loop([propagate(initials[0], dt)], moved, max_revs)
        assert _bits(got) == _bits(want)

    def test_stage_angles_reject_negative_dt(self):
        with pytest.raises(ValueError, match="dt must be >= 0"):
            _stage_angles([circular()], -1.0)

    def test_mixed_altitudes_rejected(self):
        angles = _stage_angles([circular(), circular(a=7001.0)], 0.0)
        with pytest.raises(ValueError, match="share one altitude"):
            _pairwise_costs(angles, angles, 4)

    def test_corpus_stage_arrays_match_oracle(self):
        """Every stage array of every reconfiguration concept, each a slice
        of its slot grid's arrays, on synth-01, -11, -20."""
        config = ScenarioConfig()
        tracks = default_corpus(20)
        initials = [sc.elements for sc in config.satellites]
        for track in (tracks[0], tracks[10], tracks[19]):
            ws = _TrackWorkspace(track, config)
            for spec in MODEL_MATRIX.values():
                if spec.kind != "reconfig":
                    continue
                slots = [slot_list[spec.slots] for slot_list in ws.grid_slots(spec.grid)]
                grid = ws.grid_for(spec.num_stages)
                for s, stage in enumerate(ws.costs_for(spec).stages):
                    epoch = grid.stage_start_time(s)
                    for k, slot_list in enumerate(slots):
                        tos = [propagate(x, epoch) for x in slot_list]
                        froms = [propagate(initials[k], epoch)] if s == 0 else tos
                        want = oracles.pairwise_costs_loop(froms, tos, config.max_revs)
                        assert _bits(stage[k]) == _bits(want), (track.name, spec.name, s, k)


class TestSlotGrid:
    def test_phasing_only_spacing(self):
        initial = circular(u_deg=25.0)
        slots = generate_slot_grid(initial, SlotGridSpec(num_phases=10), 2.0, GridMode.PHASING_ONLY)
        assert len(slots) == 10
        assert slots[0] == initial
        for q, slot in enumerate(slots):
            du = (slot.argument_of_latitude - initial.argument_of_latitude) % TWO_PI
            assert du == pytest.approx(TWO_PI * q / 10.0, abs=1e-12)
            assert slot.inclination == initial.inclination
            assert slot.raan == initial.raan

    def test_finer_phase_grid_nests_coarser(self):
        initial = circular()
        coarse = generate_slot_grid(initial, SlotGridSpec(10), 2.0, GridMode.PHASING_ONLY)
        fine = generate_slot_grid(initial, SlotGridSpec(20), 2.0, GridMode.PHASING_ONLY)
        for q in range(10):
            assert fine[2 * q] == coarse[q]

    def test_unrestricted_count_and_structure(self):
        initial = circular(i_deg=97.8)
        spec = SlotGridSpec(num_phases=15, num_plane_axis=5)
        slots = generate_slot_grid(initial, spec, 2.0, GridMode.UNRESTRICTED)
        assert len(slots) == 135
        assert slots[0] == initial
        incl_span, raan_span = calibrate_plane_spans(initial, 2.0)
        # Planes: center, then the inclination axis -max..-half..+half..+max,
        # then the RAAN axis in the same order; 15 phases each.
        incs = [slots[p * 15].inclination - initial.inclination for p in range(9)]
        raans = [(slots[p * 15].raan - initial.raan) % TWO_PI for p in range(9)]
        assert np.allclose(incs[:5], [0.0, -incl_span, -incl_span / 2, incl_span / 2, incl_span], atol=1e-12)
        assert np.allclose(incs[5:], 0.0, atol=1e-12)
        expected_raans = np.array([-raan_span, -raan_span / 2, raan_span / 2, raan_span]) % TWO_PI
        assert np.allclose(raans[:5], 0.0, atol=1e-12)
        assert np.allclose(raans[5:], expected_raans, atol=1e-12)

    def test_extreme_planes_cost_the_budget(self):
        initial = circular(i_deg=97.8)
        spec = SlotGridSpec(num_phases=15, num_plane_axis=5)
        slots = generate_slot_grid(initial, spec, 2.0, GridMode.UNRESTRICTED)
        extreme_incl = slots[4 * 15]
        extreme_raan = slots[8 * 15]
        assert transfer_cost(initial, extreme_incl).delta_v == pytest.approx(2.0, abs=1e-6)
        assert transfer_cost(initial, extreme_raan).delta_v == pytest.approx(2.0, abs=1e-6)

    def test_even_plane_axis_rejected(self):
        with pytest.raises(ValueError):
            generate_slot_grid(circular(), SlotGridSpec(10, num_plane_axis=4), 2.0, GridMode.UNRESTRICTED)

    def test_single_plane_axis_collapses_to_phase_comb(self):
        slots = generate_slot_grid(circular(), SlotGridSpec(8, num_plane_axis=1), 2.0, GridMode.UNRESTRICTED)
        assert len(slots) == 8

    def test_budget_beyond_reversal_rejected(self):
        with pytest.raises(ValueError):
            calibrate_plane_spans(circular(), 20.0)


def two_stage_setup():
    grid = TimeGrid(duration=86400.0, step=300.0, control_step=1800.0, num_stages=2)
    initials = [circular(u_deg=10.0), circular(a=7006.0, i_deg=97.8, raan_deg=90.0)]
    spec = SlotGridSpec(num_phases=4, num_plane_axis=3)
    slot_grids = []
    for init in initials:
        slot_grids.append(generate_slot_grid(init, spec, 2.0, GridMode.UNRESTRICTED))
    return grid, initials, slot_grids


class TestCostMatrix:
    def test_single_slot_is_all_zero(self):
        grid = TimeGrid(duration=7200.0, step=300.0, control_step=1800.0, num_stages=2)
        orbit = circular()
        matrix = build_cost_matrix([[orbit]], grid, budget=2.0)
        assert matrix.num_stages == 2
        for s in range(2):
            assert matrix.stages[s].shape == (1, 1, 1)
            assert matrix.stages[s][0, 0, 0] == 0.0

    def test_diagonals_zero_and_entries_match_scalar(self):
        grid, initials, slot_grids = two_stage_setup()
        matrix = build_cost_matrix(slot_grids, grid, max_revs=4, budget=2.0, initial_orbits=initials)
        assert matrix.stages[0].shape == (2, 1, 20)
        assert matrix.stages[1].shape == (2, 20, 20)
        assert np.all(np.diagonal(matrix.stages[1], axis1=1, axis2=2) == 0.0)
        for s in range(2):
            epoch = grid.stage_start_time(s)
            for k in range(2):
                tos = [propagate(x, epoch) for x in slot_grids[k]]
                froms = [propagate(initials[k], epoch)] if s == 0 else tos
                for i, f in enumerate(froms):
                    for j, t in enumerate(tos):
                        scalar = transfer_cost(f, t, 4)
                        assert matrix.stages[s][k, i, j] == pytest.approx(scalar.delta_v, abs=1e-12)

    def test_later_stage_differs_through_drift(self):
        grid, initials, slot_grids = two_stage_setup()
        matrix = build_cost_matrix(slot_grids, grid, initial_orbits=initials)
        square0 = np.zeros_like(matrix.stages[1][:, :, :])
        # Rebuild stage-1-shaped costs at epoch zero for comparison.
        epoch0 = build_cost_matrix(
            slot_grids,
            TimeGrid(duration=600.0, step=300.0, control_step=300.0, num_stages=2),
            initial_orbits=initials,
        ).stages[1]
        assert epoch0.shape == matrix.stages[1].shape
        assert not np.allclose(epoch0, matrix.stages[1], atol=1e-9)
        del square0

    def test_rejects_nan_and_negative_costs(self):
        for bad in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="stage 1"):
                CostMatrix(stages=(np.zeros((1, 1, 2)), np.array([[[0.0, bad]]])), budget=np.ones(1))
        CostMatrix(stages=(np.array([[[0.0, math.inf]]]),), budget=np.ones(1))

    def test_zero_revs_rejected_before_pricing(self):
        grid = TimeGrid(duration=7200.0, step=300.0, control_step=1800.0, num_stages=1)
        slots = generate_slot_grid(circular(), SlotGridSpec(4), 2.0, GridMode.PHASING_ONLY)
        with pytest.raises(ValueError, match="max_revs must be at least 1"):
            build_cost_matrix([slots], grid, max_revs=0)

    def test_budget_vector(self):
        grid, initials, slot_grids = two_stage_setup()
        matrix = build_cost_matrix(slot_grids, grid, budget=2.0)
        assert matrix.budget.shape == (2,)
        assert np.all(matrix.budget == 2.0)

    def test_stage_epochs_priced_once_and_shared(self):
        _, initials, slot_grids = two_stage_setup()
        grids = [TimeGrid(duration=86400.0, step=300.0, control_step=1800.0, num_stages=n) for n in (2, 4)]
        priced = {}
        two, four = (build_cost_matrix(slot_grids, g, initial_orbits=initials, priced=priced) for g in grids)
        # the 2- and 4-stage boundaries at 0 and T/2 are the same floats
        assert sorted(priced) == [0.0, 21600.0, 43200.0, 64800.0]
        assert two.stages[0] is four.stages[0] and two.stages[1] is four.stages[2]
        fresh = build_cost_matrix(slot_grids, grids[1], initial_orbits=initials)
        for got, want in zip(four.stages, fresh.stages):
            assert np.array_equal(got, want)
