"""
Reconfiguration planning on a hand-built instance
=================================================

The planner picks one slot per satellite per stage to maximize the
number of storm cells covered, subject to a per-satellite fuel budget.
To watch it work, we build a tiny two-stage instance by hand, small
enough to read, and check the branch-and-bound answer against plain
enumeration.
"""

import numpy as np

from stormcover.maneuvers import CostMatrix
from stormcover.mcrp import (
    build_reward_matrix,
    compute_coverage,
    score_plan,
    solve_mcrp,
    solve_mcrp_exhaustive,
)

# One satellite, two stages, three slots, four steps per stage, and two
# target cells (the first four steps activate cell 0, the rest cell 1).
S, K, J, T, P = 2, 1, 3, 4, 2

visible = np.zeros((S, K, J, T, P), dtype=bool)
# stage 1: home slot sees one step of cell 0, slot 1 sees three
visible[0, 0, 0, 0, 0] = True
visible[0, 0, 1, :3, 0] = True
# stage 2: slot 1 again sees one step, slot 2 sees all four of cell 1
visible[1, 0, 1, 0, 1] = True
visible[1, 0, 2, :, 1] = True
rewards = build_reward_matrix(S * T, P, S)

# Stage-entry costs: stage 1 departs the single initial orbit; staying
# is free, the good stage-2 slot costs 0.6 to reach from slot 1.
stage1 = np.array([[[0.0, 0.5, 1.4]]])
stage2 = np.array([[[0.0, 0.5, 1.4],
                    [0.5, 0.0, 0.6],
                    [1.4, 0.6, 0.0]]])
costs = CostMatrix(stages=(stage1, stage2), budget=np.array([1.2]))

plan = solve_mcrp(visible, rewards, costs)
print(f"optimal objective: {plan.objective:.0f} cells  "
      f"(proven optimal: {plan.proven_optimal})")
for k, path in enumerate(plan.paths):
    spent = plan.total_cost(k)
    print(f"  satellite {k}: slots {' -> '.join(map(str, path))}  "
          f"spent {spent:.2f} of {costs.budget[k]:.2f} km/s")

# The y profile shows which (stage, step) slices were actually covered.
y = compute_coverage(plan.paths, visible, rewards)
print("coverage by stage and step (cell index in brackets):")
for s in range(S):
    row = " ".join(f"{int(y[s, t, :].max())}[{int(np.argmax(visible[s, 0, plan.paths[0][s + 1], t, :]))}]"
                   if y[s, t, :].any() else "0[-]" for t in range(T))
    print(f"  stage {s + 1}: {row}")

# Enumeration over all 3^2 joint paths agrees.
reference = solve_mcrp_exhaustive(visible, rewards, costs)
print(f"exhaustive check: {reference.objective:.0f} cells, paths {reference.paths}")
assert plan.objective == reference.objective
assert score_plan(plan, visible, rewards) == plan.objective

# The winning route spends 0.5 + 0.6 = 1.1 km/s across both hops.
# Tighten the budget below that and the planner has to keep the middle
# slot, trading away the rich stage-2 position:
tight = CostMatrix(costs.stages, np.array([1.0]))
squeezed = solve_mcrp(visible, rewards, tight)
print(f"\nwith a 1.0 km/s budget: objective {squeezed.objective:.0f}, "
      f"paths {squeezed.paths}")
