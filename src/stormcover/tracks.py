"""Tropical-cyclone track ingestion and target synthesis.

A track is a named sequence of 6-hourly center fixes.  For scenario use
each fix becomes a static ground target that is "active" during the slice
of the horizon nearest its fix time, so a moving storm turns into a
sequence of stationary points with disjoint activity windows.

Serialization detail: the CSV stores degrees and hours while the in-memory
track stores radians and seconds.  Conversion between the two is not
exactly invertible in floating point, so constructors normalize every
value to a fixpoint of the save/load conversion; serialize -> parse ->
serialize is then byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .orbits import EARTH, GeodeticPoint, TimeGrid, geodetic_to_eci
from .mcrp import active_windows

__all__ = [
    "TrackSample",
    "TcTrack",
    "TargetSet",
    "SAMPLE_INTERVAL_S",
    "parse_track_csv",
    "serialize_track",
    "track_to_targets",
    "target_eci_table",
    "synthesize_track",
    "SYNTH_REGIONS",
]

SAMPLE_INTERVAL_S = 21600.0

_HEADER = ["name", "time_hours", "lat_deg", "lon_deg"]

SYNTH_REGIONS = {
    "west-hemisphere": (-100.0, -30.0),
    "east-hemisphere": (100.0, 170.0),
}

_MIN_SYNTH_DAYS = 2.75
_MAX_SYNTH_DAYS = 15.5


def _fix(value: float, save, load) -> float:
    """Drive value to a fixpoint of one save/load conversion cycle."""
    for _ in range(4):
        cycled = load(save(value))
        if cycled == value:
            return value
        value = cycled
    raise ValueError(f"serialization round trip does not settle for {value!r}")


def _fix_angle(rad: float) -> float:
    return _fix(rad, math.degrees, math.radians)


def _fix_lat(rad: float) -> float:
    # normalization may drift an ulp past the pole; the clamp target +-pi/2
    # is itself conversion-stable
    return min(max(_fix_angle(rad), -math.pi / 2), math.pi / 2)


def _fix_time(seconds: float) -> float:
    return _fix(seconds, lambda s: s / 3600.0, lambda h: h * 3600.0)


@dataclass(frozen=True)
class TrackSample:
    """One center fix: offset from track start (s), position (rad)."""

    time_s: float
    lat_rad: float
    lon_rad: float


@dataclass(frozen=True)
class TcTrack:
    """Named storm track with uniform sample spacing.

    Raises:
        ValueError: fewer than two samples, nonzero start offset,
            nonuniform spacing, or latitude outside [-pi/2, pi/2].
    """

    name: str
    samples: Tuple[TrackSample, ...]
    sample_interval: float = SAMPLE_INTERVAL_S

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("track needs a name")
        if len(self.samples) < 2:
            raise ValueError("track needs at least two samples")
        if self.sample_interval <= 0.0:
            raise ValueError("sample interval must be positive")
        if abs(self.samples[0].time_s) > 1e-6:
            raise ValueError("track must start at time offset 0")
        for a, b in zip(self.samples, self.samples[1:]):
            if abs((b.time_s - a.time_s) - self.sample_interval) > 1e-6:
                raise ValueError(
                    f"sample spacing {b.time_s - a.time_s} s differs from "
                    f"the {self.sample_interval} s interval"
                )
        for sample in self.samples:
            if not -math.pi / 2 <= sample.lat_rad <= math.pi / 2:
                raise ValueError(f"latitude {sample.lat_rad} rad out of range")

    @property
    def duration_seconds(self) -> float:
        return self.samples[-1].time_s - self.samples[0].time_s

    @property
    def num_samples(self) -> int:
        return len(self.samples)


def parse_track_csv(data: bytes) -> TcTrack:
    """Read one track from CSV bytes.

    Columns: name, time_hours, lat_deg, lon_deg.  All rows must carry the
    same name.  Errors cite the offending 1-based line.
    """
    text = data.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty track file") from None
    if [h.strip() for h in header] != _HEADER:
        raise ValueError(f"expected header {','.join(_HEADER)!r}, got {','.join(header)!r}")
    name = None
    samples: List[TrackSample] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"line {line_no}: expected 4 fields, got {len(row)}")
        row_name = row[0].strip()
        if name is None:
            name = row_name
        elif row_name != name:
            raise ValueError(f"line {line_no}: name {row_name!r} differs from {name!r}")
        try:
            hours = float(row[1])
            lat_deg = float(row[2])
            lon_deg = float(row[3])
        except ValueError:
            raise ValueError(f"line {line_no}: non-numeric field in {row!r}") from None
        if not -90.0 <= lat_deg <= 90.0:
            raise ValueError(f"line {line_no}: latitude {lat_deg} outside [-90, 90]")
        lon = math.radians(lon_deg)
        if not -math.pi <= lon < math.pi:
            # wrap only what is out of range: the atan2 round trip can move
            # an in-range value by an ulp
            lon = math.atan2(math.sin(lon), math.cos(lon))
            if lon >= math.pi:
                lon = -math.pi
        samples.append(
            TrackSample(
                time_s=_fix_time(hours * 3600.0),
                lat_rad=_fix_lat(math.radians(lat_deg)),
                lon_rad=_fix_angle(lon),
            )
        )
    if name is None:
        raise ValueError("track file has a header but no rows")
    return TcTrack(name=name, samples=tuple(samples))


def serialize_track(track: TcTrack) -> bytes:
    """Inverse of parse_track_csv, byte-stable across cycles."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_HEADER)
    for sample in track.samples:
        writer.writerow(
            [
                track.name,
                repr(sample.time_s / 3600.0),
                repr(math.degrees(sample.lat_rad)),
                repr(math.degrees(sample.lon_rad)),
            ]
        )
    return out.getvalue().encode("utf-8")


@dataclass(frozen=True)
class TargetSet:
    """Static targets with half-open [lo, hi) step activity windows.

    The windows tile the whole horizon in point order; together with the
    reward construction this is what turns a moving storm into a
    stationary target per slice.
    """

    points: Tuple[GeodeticPoint, ...]
    windows: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.windows):
            raise ValueError("one window per point required")
        if not self.points:
            raise ValueError("target set is empty")
        cursor = 0
        for lo, hi in self.windows:
            if lo != cursor or hi < lo:
                raise ValueError("windows must tile the horizon in order")
            cursor = hi
        if cursor < 1:
            raise ValueError("windows cover no steps")

    @property
    def num_steps(self) -> int:
        return self.windows[-1][1]

    @property
    def num_points(self) -> int:
        return len(self.points)


def track_to_targets(track: TcTrack, grid: TimeGrid) -> TargetSet:
    """Freeze each fix into a static target active in its horizon slice.

    The grid must span exactly the track duration; the slice boundaries
    follow the same floor rule the reward builder uses, so the two stay
    consistent bit for bit.
    """
    if abs(grid.duration - track.duration_seconds) > 1e-6:
        raise ValueError(
            f"grid spans {grid.duration} s but the track lasts {track.duration_seconds} s"
        )
    points = []
    for s in track.samples:
        # stored longitudes are serialization fixpoints and may sit an ulp
        # outside the point type's domain; rewrap for geometry use
        lon = math.atan2(math.sin(s.lon_rad), math.cos(s.lon_rad))
        points.append(GeodeticPoint(latitude=s.lat_rad, longitude=lon, altitude=0.0))
    points = tuple(points)
    windows = tuple(active_windows(grid.num_steps, len(points)))
    return TargetSet(points=points, windows=windows)


def target_eci_table(targets: TargetSet, grid: TimeGrid) -> np.ndarray:
    """Inertial position of the active target at every step, shape (num_steps, 3).

    Row t is the point whose activity window holds step t, evaluated at
    the step time; the other points are inactive then and earn nothing.
    """
    if targets.num_steps != grid.num_steps:
        raise ValueError(
            f"target windows cover {targets.num_steps} steps, grid has {grid.num_steps}"
        )
    out = np.empty((grid.num_steps, 3))
    for point, (lo, hi) in zip(targets.points, targets.windows):
        out[lo:hi] = geodetic_to_eci(point, np.arange(lo, hi) * grid.step)
    return out


def synthesize_track(
    seed: int,
    duration_days: float,
    region: str = "west-hemisphere",
) -> TcTrack:
    """Deterministic plausible storm track for a given seed.

    Starts in the tropics of the chosen region's longitude band, moves
    westward at typical translation speeds, and curves poleward; every
    6-hour displacement stays safely under 200 km.  Duration must lie in
    [2.75, 15.5] days and be a whole number of 6-hour intervals.
    """
    if region not in SYNTH_REGIONS:
        raise ValueError(f"unknown region {region!r}; choose from {sorted(SYNTH_REGIONS)}")
    if not _MIN_SYNTH_DAYS <= duration_days <= _MAX_SYNTH_DAYS:
        raise ValueError(
            f"duration {duration_days} d outside [{_MIN_SYNTH_DAYS}, {_MAX_SYNTH_DAYS}]"
        )
    intervals = duration_days * 4.0
    if abs(intervals - round(intervals)) > 1e-9:
        raise ValueError("duration must be a whole number of 6-hour intervals")
    intervals = int(round(intervals))

    rng = np.random.default_rng(seed)
    lon_lo, lon_hi = SYNTH_REGIONS[region]
    pole = 1.0 if rng.random() < 0.5 else -1.0
    lat = pole * math.radians(rng.uniform(5.0, 25.0))
    lon = math.radians(rng.uniform(lon_lo, lon_hi))
    bearing = math.radians(270.0 + rng.uniform(-10.0, 10.0))  # from north, westbound
    speed_kmh = rng.uniform(11.0, 21.0)

    samples = [TrackSample(time_s=0.0, lat_rad=_fix_angle(lat), lon_rad=_fix_angle(lon))]
    for i in range(1, intervals + 1):
        dist = speed_kmh * 6.0 * rng.uniform(0.85, 1.15)
        dist = min(dist, 195.0)
        arc = dist / EARTH.radius_km
        lat_new = lat + arc * math.cos(bearing)
        # hold the storm out of high latitudes instead of letting the
        # recurvature run away
        if abs(lat_new) > math.radians(55.0):
            lat_new = lat
        lon = lon + arc * math.sin(bearing) / math.cos(lat)
        lon = math.atan2(math.sin(lon), math.cos(lon))
        if lon >= math.pi:
            lon = -math.pi
        lat = lat_new
        bearing += pole * math.radians(rng.uniform(1.5, 4.5))
        samples.append(
            TrackSample(
                time_s=_fix_time(i * SAMPLE_INTERVAL_S),
                lat_rad=_fix_angle(lat),
                lon_rad=_fix_angle(lon),
            )
        )
    return TcTrack(name=f"synth-{seed:02d}", samples=tuple(samples))
