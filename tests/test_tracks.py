"""Track parsing, serialization stability, and target conversion."""

import math

import numpy as np
import pytest

import _oracles as oracles
from stormcover.harness import default_corpus
from stormcover.mcrp import active_point_of_step
from stormcover.orbits import EARTH, TimeGrid, geodetic_to_eci
from stormcover.tracks import (
    SAMPLE_INTERVAL_S,
    SYNTH_REGIONS,
    TargetSet,
    TcTrack,
    TrackSample,
    parse_track_csv,
    serialize_track,
    synthesize_track,
    target_eci_table,
    track_to_targets,
)

GOLDEN = b"""name,time_hours,lat_deg,lon_deg
IRMA,0.0,16.1,-48.2
IRMA,6.0,16.5,-50.0
IRMA,12.0,17.05,-51.7
"""


def twelve_row_track() -> bytes:
    rows = ["name,time_hours,lat_deg,lon_deg"]
    for i in range(12):
        rows.append(f"TEST,{6.0 * i},{10.0 + 0.4 * i},{-60.0 - 1.1 * i}")
    return ("\n".join(rows) + "\n").encode()


class TestParse:
    def test_golden(self):
        track = parse_track_csv(GOLDEN)
        assert track.name == "IRMA"
        assert track.num_samples == 3
        assert [s.time_s for s in track.samples] == [0.0, 21600.0, 43200.0]
        assert track.samples[1].lat_rad == pytest.approx(math.radians(16.5), abs=1e-12)
        assert track.samples[2].lon_rad == pytest.approx(math.radians(-51.7), abs=1e-12)

    def test_twelve_rows_is_two_and_three_quarter_days(self):
        track = parse_track_csv(twelve_row_track())
        assert track.num_samples == 12
        assert track.duration_seconds == 11 * SAMPLE_INTERVAL_S
        assert track.duration_seconds == pytest.approx(2.75 * 86400.0)

    def test_bad_header(self):
        with pytest.raises(ValueError, match="expected header"):
            parse_track_csv(b"storm,hours,lat,lon\nX,0,1,2\n")

    def test_malformed_row_cites_line(self):
        bad = GOLDEN.replace(b"16.5", b"sixteen")
        with pytest.raises(ValueError, match="line 3"):
            parse_track_csv(bad)

    def test_short_row_cites_line(self):
        with pytest.raises(ValueError, match="line 2.*4 fields"):
            parse_track_csv(b"name,time_hours,lat_deg,lon_deg\nX,0.0,1.0\n")

    def test_spacing_violation(self):
        bad = GOLDEN.replace(b"IRMA,12.0", b"IRMA,13.0")
        with pytest.raises(ValueError, match="spacing"):
            parse_track_csv(bad)

    def test_latitude_out_of_range(self):
        bad = GOLDEN.replace(b"16.5", b"91.0")
        with pytest.raises(ValueError, match=r"line 3.*\[-90, 90\]"):
            parse_track_csv(bad)

    def test_inconsistent_name(self):
        bad = GOLDEN.replace(b"IRMA,12.0", b"JOSE,12.0")
        with pytest.raises(ValueError, match="line 4"):
            parse_track_csv(bad)

    def test_empty_and_header_only(self):
        with pytest.raises(ValueError, match="empty"):
            parse_track_csv(b"")
        with pytest.raises(ValueError, match="no rows"):
            parse_track_csv(b"name,time_hours,lat_deg,lon_deg\n")

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            parse_track_csv(b"name,time_hours,lat_deg,lon_deg\nX,0.0,1.0,2.0\n")

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError, match="offset 0"):
            TcTrack(
                name="X",
                samples=(
                    TrackSample(21600.0, 0.1, 0.2),
                    TrackSample(43200.0, 0.1, 0.2),
                ),
            )


class TestSerialize:
    def test_round_trip_identity(self):
        track = parse_track_csv(GOLDEN)
        again = parse_track_csv(serialize_track(track))
        assert again == track

    def test_byte_stable_cycle(self):
        # awkward decimals chosen to stress the degree/radian conversion
        raw = (
            b"name,time_hours,lat_deg,lon_deg\n"
            b"W,0.0,16.123456789012345,-48.98765432109876\n"
            b"W,6.0,17.000000000000004,179.99999999999997\n"
            b"W,12.0,-89.99999999999999,-179.99999999999997\n"
        )
        once = serialize_track(parse_track_csv(raw))
        twice = serialize_track(parse_track_csv(once))
        assert twice == once

    def test_byte_stable_on_synthetic(self):
        tracks = [synthesize_track(seed, 4.0, "east-hemisphere") for seed in range(1, 8)]
        for track in tracks + list(default_corpus(20)):
            once = serialize_track(track)
            assert serialize_track(parse_track_csv(once)) == once
            assert parse_track_csv(once) == track


class TestTargets:
    def make_grid(self, track, stages=4):
        return TimeGrid(
            duration=track.duration_seconds,
            step=300.0,
            control_step=1800.0,
            num_stages=stages,
        )

    def test_point_per_sample_with_floor_windows(self):
        track = parse_track_csv(twelve_row_track())
        grid = self.make_grid(track)
        targets = track_to_targets(track, grid)
        assert targets.num_points == 12
        assert targets.num_steps == grid.num_steps == 792
        ref = oracles.active_windows_floor(grid.num_steps, 12)
        assert [(lo + 1, hi) for lo, hi in targets.windows] == ref
        for point, sample in zip(targets.points, track.samples):
            assert point.latitude == sample.lat_rad
            assert point.altitude == 0.0

    def test_duration_mismatch_rejected(self):
        track = parse_track_csv(twelve_row_track())
        grid = TimeGrid(duration=86400.0, step=300.0, control_step=1800.0)
        with pytest.raises(ValueError, match="track lasts"):
            track_to_targets(track, grid)

    def test_windows_partition_for_many_shapes(self):
        for seed, days in [(1, 2.75), (2, 5.0), (3, 9.25), (4, 15.5)]:
            track = synthesize_track(seed, days)
            grid = self.make_grid(track)
            targets = track_to_targets(track, grid)
            covered = sum(hi - lo for lo, hi in targets.windows)
            assert covered == grid.num_steps
            assert targets.num_points == track.num_samples

    def test_eci_table_matches_pointwise(self):
        track = parse_track_csv(GOLDEN)
        grid = TimeGrid(duration=43200.0, step=300.0, control_step=1800.0, num_stages=2)
        targets = track_to_targets(track, grid)
        table = target_eci_table(targets, grid)
        assert table.shape == (144, 3)
        # row t is the active point of step t, at the step time
        for t in range(144):
            p = active_point_of_step(t, 144, 3)
            ref = geodetic_to_eci(targets.points[p], t * grid.step)
            assert np.array_equal(table[t], ref)
        norms = np.linalg.norm(table, axis=-1)
        assert np.allclose(norms, EARTH.radius_km, atol=1e-9)

    def test_corpus_eci_tables_match_pointwise(self):
        # one array call per activity window gives every step the bits of
        # the scalar call at that step's time
        for track in default_corpus(20):
            grid = TimeGrid(duration=track.duration_seconds, step=300.0, control_step=1800.0, num_stages=1)
            targets = track_to_targets(track, grid)
            table = target_eci_table(targets, grid)
            want = [
                geodetic_to_eci(point, t * grid.step).tobytes()
                for point, (lo, hi) in zip(targets.points, targets.windows)
                for t in range(lo, hi)
            ]
            assert [row.tobytes() for row in table] == want, track.name

    def test_window_validation(self):
        from stormcover.orbits import GeodeticPoint

        pts = (GeodeticPoint(0.1, 0.1), GeodeticPoint(0.2, 0.2))
        with pytest.raises(ValueError, match="tile"):
            TargetSet(points=pts, windows=((0, 4), (5, 8)))
        with pytest.raises(ValueError, match="one window per point"):
            TargetSet(points=pts, windows=((0, 4),))


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_track(7, 6.25, "west-hemisphere")
        b = synthesize_track(7, 6.25, "west-hemisphere")
        assert a == b
        assert serialize_track(a) == serialize_track(b)

    def test_seeds_differ(self):
        assert synthesize_track(1, 5.0) != synthesize_track(2, 5.0)

    @pytest.mark.parametrize("days,count", [(2.75, 12), (5.0, 21), (15.5, 63)])
    def test_sample_count(self, days, count):
        assert synthesize_track(3, days).num_samples == count

    @pytest.mark.parametrize("region", sorted(SYNTH_REGIONS))
    def test_genesis_inside_region(self, region):
        lon_lo, lon_hi = SYNTH_REGIONS[region]
        for seed in range(1, 21):
            first = synthesize_track(seed, 3.0, region).samples[0]
            lat0 = math.degrees(first.lat_rad)
            lon0 = math.degrees(first.lon_rad)
            assert 5.0 - 1e-9 <= abs(lat0) <= 25.0 + 1e-9
            assert lon_lo - 1e-9 <= lon0 <= lon_hi + 1e-9
            assert abs(lat0) <= 30.0

    def test_six_hour_displacement_under_limit(self):
        for seed in range(1, 21):
            days = 2.75 + (seed % 5) * 3.0
            region = "west-hemisphere" if seed % 2 else "east-hemisphere"
            track = synthesize_track(seed, days, region)
            for a, b in zip(track.samples, track.samples[1:]):
                d = oracles.haversine_km(a.lat_rad, a.lon_rad, b.lat_rad, b.lon_rad)
                assert d <= 200.0, f"seed {seed}: step of {d:.1f} km"

    def test_duration_domain(self):
        with pytest.raises(ValueError, match="outside"):
            synthesize_track(1, 2.5)
        with pytest.raises(ValueError, match="outside"):
            synthesize_track(1, 15.75)
        with pytest.raises(ValueError, match="6-hour"):
            synthesize_track(1, 3.1)

    def test_unknown_region(self):
        with pytest.raises(ValueError, match="unknown region"):
            synthesize_track(1, 5.0, "equator")

    def test_feeds_target_pipeline(self):
        track = synthesize_track(11, 2.75)
        grid = TimeGrid(
            duration=track.duration_seconds, step=300.0, control_step=1800.0, num_stages=4
        )
        targets = track_to_targets(track, grid)
        assert targets.num_points == 12
        table = target_eci_table(targets, grid)
        assert table.shape == (792, 3)
