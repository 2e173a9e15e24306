"""
Storm tracks and nadir visibility
=================================

A synthetic tropical-cyclone track is sampled every six hours; between
samples the storm's position is interpolated onto the scoring grid, and
at each grid step exactly one interpolated cell is "active".  Here we
synthesize a four-day storm, stare straight down with the default
constellation, and count how often anybody catches the active cell.
"""

import math

import numpy as np

from stormcover.harness import DEFAULT_SATELLITES
from stormcover.maneuvers import SlotGrid
from stormcover.mcrp import ReconfigPlan, build_reward_matrix, score_plan
from stormcover.orbits import TimeGrid
from stormcover.tracks import synthesize_track, target_eci_table, track_to_targets
from stormcover.visibility import FovSpec, slot_visibility

track = synthesize_track(seed=7, duration_days=4.0)
first, last = track.samples[0], track.samples[-1]
print(f"track {track.name}: {len(track.samples)} six-hour samples")
print(f"  start {math.degrees(first.lat_rad):+7.2f} deg lat, {math.degrees(first.lon_rad):+8.2f} deg lon")
print(f"  end   {math.degrees(last.lat_rad):+7.2f} deg lat, {math.degrees(last.lon_rad):+8.2f} deg lon")

# Score on a 900 s grid with one stage (nobody maneuvers in this demo).
grid = TimeGrid(track.duration_seconds, step=900.0, control_step=1800.0, num_stages=1)
targets = track_to_targets(track, grid)
table = target_eci_table(targets, grid)  # (T, 3): the active cell of each step
print(f"grid: {grid.num_steps} steps, {targets.num_points} target cells")

# Visibility for the stay-only constellation: one slot per satellite (on
# plane 0, phase 0), 45 degree nadir cone, against the active cell of
# each step.
slots = SlotGrid([[sc.elements] for sc in DEFAULT_SATELLITES], plane=[0], phase=[0])
fov = FovSpec(math.radians(45.0))
visible = slot_visibility(slots, table, grid, fov)  # (K, J, T) booleans

per_sat = visible[:, 0, :]  # (K, T) active-cell hits
print("\nactive-cell sightings per satellite:")
for k, sc in enumerate(DEFAULT_SATELLITES):
    print(f"  {sc.name:<12s} {int(per_sat[k].sum()):4d} of {grid.num_steps} steps")

# The baseline reward is the same count taken across the whole
# constellation: steps where at least one satellite sees the active cell.
rewards = build_reward_matrix(grid.num_steps, 1, grid.num_stages)
stay = ReconfigPlan(
    paths=tuple((0, 0) for _ in DEFAULT_SATELLITES),
    per_stage_cost=np.zeros((len(DEFAULT_SATELLITES), 1)),
    objective=0.0,
)
# The solver side reads (stage, satellite, slot, step, target) arrays.
z = score_plan(stay, visible[None, :, :, :, None], rewards)
print(f"\nconstellation baseline reward: {z:.0f} of {grid.num_steps} steps "
      f"({100.0 * z / grid.num_steps:.1f}% of the storm's lifetime)")
