"""Orbital-state, propagation, and frame-conversion tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracles
from _oracles import coe_to_state
from stormcover.orbits import (
    EARTH,
    ClassicalOrbitalElements,
    GeodeticPoint,
    KEPLER_MAX_ITER,
    KEPLER_TOL,
    TimeGrid,
    _bisect_kepler,
    _solve_kepler_array,
    _solve_kepler_cells,
    eci_positions,
    geodetic_to_eci,
    j2_raan_rate,
    orbital_period,
    propagate,
    solve_kepler,
)

DEG = math.pi / 180.0

# The five flown sun-synchronous disaster-monitoring orbits used as the
# default scenario (a km, e, i deg, raan deg, argp deg, nu deg).
FLOWN_ORBITS = [
    ("DMC3-FM3", 7006.01, 17.07e-4, 97.72, 307.83, 77.52, 104.88),
    ("DMC3-FM1", 6992.54, 8.03e-4, 97.72, 306.02, 116.04, 302.43),
    ("HUANJING-1B", 7003.07, 48.93e-4, 97.80, 89.49, 107.47, 140.62),
    ("HUANJING-1A", 7007.36, 39.24e-4, 97.79, 85.41, 116.27, 189.24),
    ("NIGERIASAT-1", 6992.76, 41.58e-4, 97.85, 228.61, 260.58, 149.89),
]


def make_coe(a, e, i_deg, raan_deg, argp_deg, nu_deg, epoch=0.0):
    return ClassicalOrbitalElements(a, e, i_deg * DEG, raan_deg * DEG, argp_deg * DEG, nu_deg * DEG, epoch)


elements_strategy = st.builds(
    make_coe,
    a=st.floats(6700.0, 9000.0),
    e=st.floats(1e-6, 0.9),
    i_deg=st.floats(1.0, 179.0),
    raan_deg=st.floats(0.0, 359.9),
    argp_deg=st.floats(0.0, 359.9),
    nu_deg=st.floats(0.0, 359.9),
)


class TestKepler:
    def test_zero_eccentricity_identity(self):
        assert solve_kepler(1.234, 0.0) == pytest.approx(1.234, abs=1e-12)

    @given(m=st.floats(0.0, 2.0 * math.pi - 1e-9), e=st.floats(1e-6, 0.9))
    @example(m=4.938412173144684, e=0.8944656812042917)  # Newton from M + e diverges
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_oracle(self, m, e):
        big_e = solve_kepler(m, e)
        ref = oracles.kepler_bisection(m, e)
        assert abs(big_e - ref) < 1e-10
        # residual at the stated tolerance
        assert abs(big_e - e * math.sin(big_e) - m) < 1e-11

    def test_array_solver_finishes_diverging_entries(self):
        # Newton diverges on the first entry only; the array path bisects
        # that entry and returns every entry at the scalar path's tolerance.
        e = 0.8944656812042917
        m = np.array([4.938412173144684, 1.0, 3.0, 6.0])
        big_e = _solve_kepler_array(m, e)
        for mi, ei in zip(m, big_e):
            assert abs(ei - oracles.kepler_bisection(mi, e)) < 1e-10
            assert abs(ei - e * math.sin(ei) - mi) < 1e-11


    @given(
        seed=st.integers(0, 2**32 - 1),
        e=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.95)),
        rows=st.integers(1, 5),
        cols=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_whole_row_newton_oracle(self, seed, e, rows, cols):
        m = np.random.default_rng(seed).uniform(-20.0, 20.0, (rows, cols))
        for q in range(rows):
            got = _solve_kepler_array(m[q], e)
            assert got.shape == (cols,)
            if cols:
                assert np.array_equal(got, oracles.kepler_newton_row(m[q], e, _bisect_kepler)[0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        eccs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.95)), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_ragged_rows_match_whole_row_newton_oracle(self, seed, eccs):
        # the certificate path's ragged rows (tests/_oracles.py), of unequal
        # length, each with its own eccentricity
        rng = np.random.default_rng(seed)
        rows = [rng.uniform(-20.0, 20.0, rng.integers(1, 30)) for _ in eccs]
        starts = np.cumsum([0] + [r.size for r in rows[:-1]])
        e = np.repeat(eccs, [r.size for r in rows])
        big_e, steps = oracles.kepler_newton_rows(np.concatenate(rows), e, _bisect_kepler, starts)
        for q, (m, ecc) in enumerate(zip(rows, eccs)):
            want, took = oracles.kepler_newton_row(m, ecc, _bisect_kepler)
            assert np.array_equal(big_e[starts[q] : starts[q] + m.size], want) and steps[q] == took

    def test_rows_finish_diverging_entries_like_the_oracle(self):
        # each entry stops on its own: the diverging one is bisected, the
        # others keep the Newton steps they took alone
        e = 0.8944656812042917
        m = np.array([4.938412173144684, 1.0, 3.0, 6.0])
        big_e = _solve_kepler_cells(m, e)
        took = []
        for mi, ei in zip(m, big_e):
            want, n = oracles.kepler_newton_row(np.array([mi]), e, _bisect_kepler)
            assert ei == want[0]
            took.append(n)
        assert took[0] == KEPLER_MAX_ITER > max(took[1:])

    @pytest.mark.parametrize("e, need", [(0.0, 0), (1e-4, 2), (4.9e-3, 2), (0.03125, 3), (0.5, 6), (0.62, None)])
    def test_certified_steps(self, e, need):
        # the certificate path's step bound (tests/_oracles.py)
        assert oracles.kepler_certified_steps(e) == need

    @given(seed=st.integers(0, 2**32 - 1), e=st.floats(0.0, 0.61))
    @settings(max_examples=150, deadline=None)
    def test_no_row_outlasts_its_certificate(self, seed, e):
        m = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 4000)
        m[:4] = [0.0, math.pi, math.nextafter(math.pi, 4.0), 1.5 * math.pi]
        # one entry per row: every mean anomaly's own step count
        _, steps = oracles.kepler_newton_rows(m[:, None], e, _bisect_kepler)
        assert steps.max() <= oracles.kepler_certified_steps(e)


class TestKeplerCells:
    """The per-entry Newton stop of the slot-visibility kernel."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 60),
        e_max=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.95)),
    )
    @example(seed=0, size=1, e_max=0.0)
    @settings(max_examples=200, deadline=None)
    def test_every_entry_converged_or_bisected(self, seed, size, e_max):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-20.0, 20.0, size)
        e = rng.uniform(0.0, e_max, size)
        # Newton from M + e diverges here
        m[: size // 4], e[: size // 4] = 4.938412173144684, 0.8944656812042917
        big_e = _solve_kepler_cells(m, e)
        m = np.mod(m, 2.0 * math.pi)
        residual = np.mod(big_e - e * np.sin(big_e) - m + math.pi, 2.0 * math.pi) - math.pi
        assert np.all((np.abs(residual) < KEPLER_TOL) | (big_e == _bisect_kepler(m, e)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 60),
        e_max=st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 0.95)),
    )
    @settings(max_examples=200, deadline=None)
    def test_entries_equal_their_own_solve_in_any_subset_and_order(self, seed, size, e_max):
        rng = np.random.default_rng(seed)
        m = rng.uniform(-20.0, 20.0, size)
        e = rng.uniform(0.0, e_max, size)
        big_e = _solve_kepler_cells(m, e)
        for mi, ei, got in zip(m, e, big_e):
            assert got == _solve_kepler_array(np.array([mi]), ei)[0]
        pick = rng.permutation(size)[: rng.integers(1, size + 1)]
        assert np.array_equal(_solve_kepler_cells(m[pick], e[pick]), big_e[pick])


class TestPropagate:
    def test_zero_dt_is_identity(self):
        coe = make_coe(*FLOWN_ORBITS[0][1:])
        assert propagate(coe, 0.0) is coe

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            propagate(make_coe(7000.0, 0.0, 45, 0, 0, 0), -1.0)

    def test_period_closure_without_j2(self):
        coe = make_coe(7000.0, 0.0, 51.6, 40.0, 0.0, 12.0)
        period = 2.0 * math.pi * math.sqrt(7000.0**3 / oracles.MU)
        after = propagate(coe, period, include_j2=False)
        assert after.true_anomaly == pytest.approx(coe.true_anomaly, abs=1e-9)
        assert after.raan == coe.raan
        assert after.arg_periapsis == coe.arg_periapsis

    def test_sun_synchronous_raan_drift(self):
        coe = make_coe(7000.0, 1e-6, 97.8, 0.0, 0.0, 0.0)
        drift_deg_day = math.degrees(j2_raan_rate(coe)) * 86400.0
        assert drift_deg_day == pytest.approx(0.9856, rel=0.05)
        assert drift_deg_day == pytest.approx(
            oracles.raan_drift_deg_per_day(7000.0, 1e-6, 97.8 * DEG), rel=1e-9
        )

    @given(coe=elements_strategy, t1=st.floats(0.0, 5e4), t2=st.floats(0.0, 5e4))
    @settings(max_examples=100, deadline=None)
    def test_composition(self, coe, t1, t2):
        once = propagate(coe, t1 + t2)
        twice = propagate(propagate(coe, t1), t2)
        assert twice.semi_major_axis == once.semi_major_axis
        assert twice.eccentricity == once.eccentricity
        assert twice.inclination == once.inclination
        for attr in ("raan", "arg_periapsis", "true_anomaly"):
            d = abs(getattr(twice, attr) - getattr(once, attr))
            assert min(d, 2.0 * math.pi - d) < 1e-8

    @given(coe=elements_strategy, dt=st.floats(0.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_shape_conserved(self, coe, dt):
        after = propagate(coe, dt)
        assert after.semi_major_axis == coe.semi_major_axis
        assert after.eccentricity == coe.eccentricity
        assert after.inclination == coe.inclination


class TestStateConversion:
    def test_circular_equatorial_points_along_x(self):
        coe = make_coe(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        state = coe_to_state(coe)
        assert np.allclose(state.position, [7000.0, 0.0, 0.0], atol=1e-9)
        assert np.linalg.norm(state.position) == pytest.approx(7000.0, abs=1e-9)

    @pytest.mark.parametrize("row", FLOWN_ORBITS, ids=lambda r: r[0])
    def test_flown_orbit_radius_bounds(self, row):
        _, a, e, *angles = row
        state = coe_to_state(make_coe(a, e, *angles))
        r = np.linalg.norm(state.position)
        assert a * (1.0 - e) < r < a * (1.0 + e)

    @given(coe=elements_strategy)
    @settings(max_examples=200, deadline=None)
    def test_visviva(self, coe):
        state = coe_to_state(coe)
        r = float(np.linalg.norm(state.position))
        v = float(np.linalg.norm(state.velocity))
        assert v == pytest.approx(oracles.visviva_speed(r, coe.semi_major_axis), rel=1e-9)

    @pytest.mark.parametrize("row", FLOWN_ORBITS, ids=lambda r: r[0])
    def test_angular_momentum_along_plane_normal(self, row):
        # r x v points along (sin i sin O, -sin i cos O, cos i), not against it
        _, a, e, *angles = row
        coe = make_coe(a, e, *angles)
        state = coe_to_state(coe)
        h = np.cross(state.position, state.velocity)
        i, raan = coe.inclination, coe.raan
        normal = [math.sin(i) * math.sin(raan), -math.sin(i) * math.cos(raan), math.cos(i)]
        assert np.allclose(h / np.linalg.norm(h), normal, atol=1e-12)

    @pytest.mark.parametrize("row", FLOWN_ORBITS, ids=lambda r: r[0])
    def test_ascending_node_lies_on_node_line(self, row):
        # with nu = omega = 0 the satellite sits at the ascending node
        _, a, e, i_deg, raan_deg, _, _ = row
        coe = make_coe(a, e, i_deg, raan_deg, 0.0, 0.0)
        pos = coe_to_state(coe).position
        node = [math.cos(coe.raan), math.sin(coe.raan), 0.0]
        assert np.allclose(pos / np.linalg.norm(pos), node, atol=1e-12)


class TestGeodetic:
    def test_axis_alignments(self):
        r_e = EARTH.radius_km
        assert np.allclose(geodetic_to_eci(GeodeticPoint(0.0, 0.0, 0.0), 0.0), [r_e, 0, 0])
        assert np.allclose(geodetic_to_eci(GeodeticPoint(0.0, math.pi / 2, 0.0), 0.0), [0, r_e, 0], atol=1e-9)

    def test_pole_invariant_under_rotation(self):
        p = GeodeticPoint(math.pi / 2, 0.0, 12.0)
        for t in (0.0, 1e4, 5e5):
            assert np.allclose(geodetic_to_eci(p, t), [0, 0, EARTH.radius_km + 12.0], atol=1e-9)

    @given(
        lat=st.floats(-math.pi / 2, math.pi / 2),
        lon=st.floats(-math.pi, math.pi - 1e-9),
        alt=st.floats(0.0, 500.0),
        t=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_norm_preserved(self, lat, lon, alt, t):
        out = geodetic_to_eci(GeodeticPoint(lat, lon, alt), t)
        assert np.linalg.norm(out) == pytest.approx(EARTH.radius_km + alt, rel=1e-12)

    @given(
        lat=st.floats(-math.pi / 2, math.pi / 2),
        lon=st.floats(-math.pi, math.pi - 1e-9),
        alt=st.floats(0.0, 500.0),
        times=st.lists(st.floats(0.0, 1e6), min_size=0, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_of_times_matches_scalar_calls(self, lat, lon, alt, times):
        point = GeodeticPoint(lat, lon, alt)
        out = geodetic_to_eci(point, np.array(times))
        assert out.shape == (len(times), 3)
        want = [geodetic_to_eci(point, t).tobytes() for t in times]
        assert [row.tobytes() for row in out] == want


class TestBatchPropagation:
    def test_matches_scalar_path(self):
        coe = make_coe(*FLOWN_ORBITS[2][1:])
        times = np.linspace(0.0, 3.0 * orbital_period(coe.semi_major_axis), 40)
        batch = eci_positions(coe, times)
        for t, pos in zip(times, batch):
            ref = coe_to_state(propagate(coe, float(t))).position
            assert np.allclose(pos, ref, atol=1e-6)

    def test_rejects_times_before_epoch(self):
        coe = make_coe(7000.0, 0.0, 45, 0, 0, 0, epoch=100.0)
        with pytest.raises(ValueError):
            eci_positions(coe, np.array([0.0]))


class TestTimeGrid:
    def test_derived_fields(self):
        g = TimeGrid(duration=86400.0, step=100.0, control_step=1800.0, num_stages=4)
        assert g.num_steps == 864
        assert g.steps_per_stage == 216
        assert g.steps_per_opportunity == 18
        assert g.num_opportunities == 48
        assert g.stage_start_time(1) == 216 * 100.0
        assert g.stage_step_range(3) == (648, 864)
        assert g.opportunity_of_step(17) == 0
        assert g.opportunity_of_step(18) == 1

    def test_partial_last_opportunity(self):
        g = TimeGrid(duration=2000.0, step=100.0, control_step=1800.0)
        assert g.num_steps == 20
        assert g.num_opportunities == 2

    def test_stage_divisibility_error_names_alternatives(self):
        with pytest.raises(ValueError, match="stage count"):
            TimeGrid(duration=1000.0, step=100.0, control_step=100.0, num_stages=3)

    def test_control_step_must_divide(self):
        with pytest.raises(ValueError):
            TimeGrid(duration=1000.0, step=100.0, control_step=250.0)


class TestElementValidation:
    def test_angle_normalization(self):
        coe = make_coe(7000.0, 0.1, 45.0, 370.0, -10.0, 720.0)
        assert coe.raan == pytest.approx(10.0 * DEG)
        assert coe.arg_periapsis == pytest.approx(350.0 * DEG)
        assert coe.true_anomaly == pytest.approx(0.0, abs=1e-12)

    def test_rejects_hyperbolic(self):
        with pytest.raises(ValueError):
            ClassicalOrbitalElements(7000.0, 1.5, 0.0, 0.0, 0.0, 0.0)
