"""Pointing geometry and the packed visibility tensor.

The tensor answers one question for every (stage, satellite, slot, time,
target) tuple: does the sensor cone of that slot, pointed at nadir, contain
the target, with an unobstructed line of sight?  Everything downstream (the
reconfiguration solver, the agility scorer, the comparison harness) consumes
either this tensor or the vectorised mask it is built from.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .orbits import EARTH, ClassicalOrbitalElements, EarthModel, StateVector, TimeGrid, eci_positions

__all__ = [
    "FovSpec",
    "VisibilityTensor",
    "target_pointing",
    "is_visible",
    "visibility_mask",
    "compute_vtw_tensor",
]

# Treat satellite and target as coincident below this separation (km).
_COINCIDENT_KM = 1e-9

_HEADER = struct.Struct("<5q")


@dataclass(frozen=True)
class FovSpec:
    """Conical field of view, described by its half-angle.

    Attributes:
        half_angle: Cone half-angle in radians, strictly inside (0, pi/2).
    """

    half_angle: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_angle < math.pi / 2.0:
            raise ValueError(f"half_angle must lie in (0, pi/2), got {self.half_angle!r}")


def target_pointing(sat_pos: np.ndarray, target_pos: np.ndarray) -> np.ndarray:
    """Unit vector from the satellite toward the target.

    Raises:
        ValueError: if the two points coincide (no direction is defined).
    """
    d = np.asarray(target_pos, dtype=float) - np.asarray(sat_pos, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm < _COINCIDENT_KM:
        raise ValueError("satellite and target positions coincide")
    return d / norm


def _segment_blocked(sat_pos: np.ndarray, target_pos: np.ndarray, earth: EarthModel) -> bool:
    """True when the straight segment satellite -> target dips inside Earth.

    Only a strict interior crossing counts: grazing the surface, or an
    endpoint sitting exactly on it, is still a clear line of sight.
    """
    d = target_pos - sat_pos
    dd = float(d @ d)
    if dd == 0.0:
        return False
    u = -float(sat_pos @ d) / dd
    if not 0.0 < u < 1.0:
        return False
    rr = float(sat_pos @ sat_pos)
    closest_sq = rr - (float(sat_pos @ d)) ** 2 / dd
    return closest_sq < earth.radius_km**2


def is_visible(
    sat_state: StateVector,
    target_eci: np.ndarray,
    fov: FovSpec,
    cone_axis: Optional[np.ndarray] = None,
    earth: EarthModel = EARTH,
) -> bool:
    """Scalar visibility check: inside the cone and above the horizon.

    Args:
        sat_state: satellite state; only the position is used.
        target_eci: target position in the same frame, km.
        fov: cone description.
        cone_axis: boresight direction.  Defaults to nadir (minus the radial
            direction) when omitted; normalised if supplied.

    Returns:
        True iff the off-axis angle is at most ``fov.half_angle`` and the
        line of sight does not pass through the Earth sphere.
    """
    pos = np.asarray(sat_state.position, dtype=float)
    tgt = np.asarray(target_eci, dtype=float)
    if cone_axis is None:
        axis = -pos / np.linalg.norm(pos)
    else:
        axis = np.asarray(cone_axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
    try:
        pointing = target_pointing(pos, tgt)
    except ValueError:
        return False
    off_axis = math.acos(min(1.0, max(-1.0, float(axis @ pointing))))
    if off_axis > fov.half_angle:
        return False
    return not _segment_blocked(pos, tgt, earth)


def visibility_mask(
    sat_positions: np.ndarray,
    target_positions: np.ndarray,
    half_angle: float,
    cone_axes: Optional[np.ndarray] = None,
    earth: EarthModel = EARTH,
) -> np.ndarray:
    """Vectorised form of :func:`is_visible` over a time series.

    Args:
        sat_positions: (T, 3) satellite positions, km.
        target_positions: (T, P, 3) target positions per step, km.
        half_angle: cone half-angle, rad.
        cone_axes: (T, 3) boresight per step, or None for nadir.

    Returns:
        Boolean array of shape (T, P).
    """
    pos = np.asarray(sat_positions, dtype=float)
    tgt = np.asarray(target_positions, dtype=float)
    n_steps, n_targets = tgt.shape[0], tgt.shape[1]
    if pos.shape != (n_steps, 3):
        raise ValueError(f"satellite positions shaped {pos.shape}, expected ({n_steps}, 3)")
    if n_targets == 0:
        return np.zeros((n_steps, 0), dtype=bool)

    if cone_axes is None:
        axes = -pos / np.linalg.norm(pos, axis=1, keepdims=True)
    else:
        axes = np.asarray(cone_axes, dtype=float)
        axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)

    d = tgt - pos[:, None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        dd = np.einsum("tpi,tpi->tp", d, d)
        cos_off = np.einsum("ti,tpi->tp", axes, d) / np.sqrt(dd)
        in_cone = np.arccos(np.clip(cos_off, -1.0, 1.0)) <= half_angle
        rd = np.einsum("ti,tpi->tp", pos, d)
        rr = np.einsum("ti,ti->t", pos, pos)[:, None]
        u = -rd / dd
        closest_sq = rr - rd * rd / dd
        blocked = (u > 0.0) & (u < 1.0) & (closest_sq < earth.radius_km**2)
    # A coincident satellite/target pair produces NaNs; treat it as unseen.
    return in_cone & ~blocked & (dd > 0.0)


@dataclass(frozen=True)
class VisibilityTensor:
    """Bit-packed visibility over (stage, satellite, slot, step, target).

    Bits are packed in index order [s][k][j][t][p] with the target index
    fastest, little-endian bit order within each byte.  Slots beyond a
    satellite's actual slot count for a stage are zero-filled so the array
    is rectangular.
    """

    dims: tuple  # (S, K, J_max, T_s, P)
    bits: np.ndarray  # packed uint8

    def __post_init__(self) -> None:
        if len(self.dims) != 5 or any(int(d) < 0 for d in self.dims):
            raise ValueError(f"dims must be five non-negative sizes, got {self.dims!r}")
        expected = (int(np.prod(self.dims)) + 7) // 8
        if self.bits.size != expected:
            raise ValueError(f"packed size {self.bits.size} does not match dims {self.dims}")

    def unpack(self) -> np.ndarray:
        """Expand to a boolean array of shape dims."""
        total = int(np.prod(self.dims))
        flat = np.unpackbits(self.bits, count=total, bitorder="little")
        return flat.astype(bool).reshape(self.dims)

    def value(self, s: int, k: int, j: int, t: int, p: int) -> bool:
        """Single entry lookup without unpacking the whole tensor."""
        dims = self.dims
        idx = (((s * dims[1] + k) * dims[2] + j) * dims[3] + t) * dims[4] + p
        byte = self.bits[idx >> 3]
        return bool((byte >> (idx & 7)) & 1)

    def count(self) -> int:
        """Total number of set bits."""
        return int(np.unpackbits(self.bits, count=int(np.prod(self.dims)), bitorder="little").sum())

    def dump(self, path) -> None:
        """Write the five dimensions (little-endian int64) then the bitset."""
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(*(int(d) for d in self.dims)))
            fh.write(self.bits.tobytes())

    @classmethod
    def load(cls, path) -> "VisibilityTensor":
        with open(path, "rb") as fh:
            dims = _HEADER.unpack(fh.read(_HEADER.size))
            payload = fh.read()
        expected = (int(np.prod(dims)) + 7) // 8
        bits = np.frombuffer(payload, dtype=np.uint8)
        if bits.size != expected:
            raise ValueError(f"bitset holds {bits.size} bytes, dims {dims} need {expected}")
        return cls(dims=tuple(int(d) for d in dims), bits=bits.copy())


def compute_vtw_tensor(
    slots: Sequence[Sequence[Sequence[ClassicalOrbitalElements]]],
    targets: np.ndarray,
    grid: TimeGrid,
    fov: FovSpec,
    earth: EarthModel = EARTH,
) -> VisibilityTensor:
    """Build the full visibility tensor with a nadir cone axis.

    Args:
        slots: slots[k][s] lists the candidate orbits of satellite k during
            stage s.  Lists may have different lengths; shorter ones are
            zero-padded in the tensor.
        targets: (num_steps, P, 3) target ECI positions over the whole
            scenario; stage s consumes its contiguous block of steps.  The
            harness passes P = 1: the active target of each step.
        grid: scenario time discretisation.
        fov: cone description.

    Returns:
        VisibilityTensor with dims (S, K, J_max, steps_per_stage, P).
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3 or targets.shape[2] != 3:
        raise ValueError(f"targets must be (num_steps, P, 3), got {targets.shape}")
    if targets.shape[0] != grid.num_steps:
        raise ValueError(
            f"targets cover {targets.shape[0]} steps, grid has {grid.num_steps}"
        )
    n_sats = len(slots)
    n_stages = grid.num_stages
    for k in range(n_sats):
        if len(slots[k]) != n_stages:
            raise ValueError(f"satellite {k} lists {len(slots[k])} stages, grid has {n_stages}")
    j_max = max((len(slots[k][s]) for k in range(n_sats) for s in range(n_stages)), default=0)
    t_stage = grid.steps_per_stage
    n_targets = targets.shape[1]

    full = np.zeros((n_stages, n_sats, j_max, t_stage, n_targets), dtype=bool)
    for s in range(n_stages):
        lo, hi = grid.stage_step_range(s)
        times = np.arange(lo, hi, dtype=float) * grid.step
        block = targets[lo:hi]
        for k in range(n_sats):
            for j, coe in enumerate(slots[k][s]):
                pos = eci_positions(coe, times, earth=earth)
                full[s, k, j] = visibility_mask(pos, block, fov.half_angle, earth=earth)

    bits = np.packbits(full.reshape(-1).astype(np.uint8), bitorder="little")
    return VisibilityTensor(dims=(n_stages, n_sats, j_max, t_stage, n_targets), bits=bits)
