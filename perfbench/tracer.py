"""Spans around the calls into each stormcover module, made from outside it.

Each wrapper replaces a function at the name its caller bound it to
(``harness.compute_vtw_tensor``, ``tracks.geodetic_to_eci`` and so on),
records one span per call and, for a few calls, adds exact work counts
taken from the call's arguments and result.  Spans stay in memory, each
with its parent and the track being evaluated, and are written out once
the run has ended.  Leaf functions, which call nothing wrapped, are
called up to a few hundred thousand times per track; their calls under
one parent share a single span that sums their durations and counts
the calls.

A span belongs to the layer that defines the called function, whatever
module it was called from.  Self time is a span's duration minus the
durations of its direct children, so the self times of all spans add up
to the duration of the root span.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter

LAYERS = ("tracks", "orbits", "visibility", "maneuvers", "mcrp", "agility", "harness", "cli")


def _count_tensor(counts, args, kwargs, tensor):
    s, k, j, t, p = (int(d) for d in tensor.dims)
    counts["visibility.cells"] += s * k * j * t * p
    counts["visibility.active_cells"] += s * k * j * t  # one active target per step
    counts["visibility.tensor_bytes"] += int(tensor.bits.nbytes)


def _count_table(counts, args, kwargs, table):
    counts["tracks.table_cells"] += int(table.shape[0]) * int(table.shape[1])


def _count_geodetic(counts, args, kwargs, result):
    counts["orbits.geodetic_calls"] += 1


def _count_states(counts, args, kwargs, positions):
    counts["orbits.states"] += int(positions.size) // 3


def _count_slews(counts, args, kwargs, schedule):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    counts["agility.opportunities"] += len(targets)
    counts["agility.target_points"] += sum(len(t) for t in targets)


def _count_costs(counts, args, kwargs, costs):
    counts["maneuvers.cost_entries"] += sum(int(c.size) for c in costs.stages)


def _count_solve(counts, args, kwargs, plan):
    counts["mcrp.solves"] += 1
    counts["mcrp.bound_gap"] += plan.objective_bound - plan.objective


# (module, attribute, counter, leaf): the module is where the caller looks
# the name up, so the wrapper sees every call made through that binding.
TARGETS = (
    ("cli", "main", None, False),
    ("harness", "load_config", None, False),
    ("harness", "run_corpus", None, False),
    ("harness", "evaluate_track", None, False),
    ("harness", "merge_tensor_stages", None, False),
    ("harness", "build_report", None, False),
    ("harness", "emit_report", None, False),
    ("harness", "write_outputs", None, False),
    ("harness", "parse_track_csv", None, False),
    ("harness", "serialize_track", None, False),
    ("harness", "track_to_targets", None, False),
    ("harness", "target_eci_table", _count_table, False),
    ("harness", "geodetic_to_eci", _count_geodetic, True),
    ("tracks", "geodetic_to_eci", _count_geodetic, True),
    ("harness", "compute_vtw_tensor", _count_tensor, False),
    ("visibility", "eci_positions", _count_states, True),
    ("agility", "eci_positions", _count_states, True),
    ("maneuvers", "propagate", None, True),
    ("harness", "generate_slot_grid", None, False),
    ("harness", "build_cost_matrix", _count_costs, False),
    ("harness", "build_reward_matrix", None, False),
    ("harness", "score_plan", None, False),
    ("harness", "solve_mcrp", _count_solve, False),
    ("harness", "optimize_slew_schedule", _count_slews, False),
    ("harness", "slewed_step_visibility", None, False),
    ("harness", "score_agility", None, False),
)


class Tracer:
    """Installs the wrappers, records spans and derives the layer metrics."""

    def __init__(self):
        # span: [layer, call site, parent index, track, start, duration, calls]
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._leaves = {}
        self._track = None
        for module_name, attr, count, leaf in TARGETS:
            module = importlib.import_module(f"stormcover.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                # a later refactor removed this name; its layer reads zero
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_leaf if leaf else self._wrap
            setattr(module, attr, wrap(fn, f"{module_name}.{attr}", count))

    def _wrap(self, fn, site, count):
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        is_track = site == "harness.evaluate_track"

        def wrapper(*args, **kwargs):
            if is_track:
                self._track = args[0].name
            span = [layer, site, stack[-1] if stack else -1, self._track, clock(), 0.0, 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock() - span[4]
                stack.pop()
                if is_track:
                    self._track = None
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_leaf(self, fn, site, count):
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack, counts, leaves = self.spans, self._stack, self.counts, self._leaves
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                parent = stack[-1] if stack else -1
                index = leaves.get((parent, site))
                if index is None:
                    leaves[parent, site] = len(spans)
                    spans.append([layer, site, parent, self._track, start, elapsed, 1])
                else:
                    span = spans[index]
                    span[5] += elapsed
                    span[6] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        own = [s[5] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[5]
        return own

    def layer_metrics(self):
        own = self.self_times()
        busy = dict.fromkeys(LAYERS, 0.0)
        harness_self = merge = write = 0.0
        for span, self_s in zip(self.spans, own):
            busy[span[0]] += self_s
            if span[1] == "harness.evaluate_track":
                harness_self += self_s
            elif span[1] == "harness.merge_tensor_stages":
                merge += span[5]
            elif span[1] == "harness.write_outputs":
                write += span[5]
        c = self.counts
        cells = c["visibility.cells"]
        metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
        metrics.update(
            {
                "harness.self_s": harness_self,
                "harness.merge_s": merge,
                "harness.write_s": write,
                "visibility.cells": cells,
                "visibility.active_ratio": c["visibility.active_cells"] / cells if cells else 0.0,
                "visibility.tensor_bytes": c["visibility.tensor_bytes"],
                "tracks.table_cells": c["tracks.table_cells"],
                "orbits.geodetic_calls": c["orbits.geodetic_calls"],
                "orbits.states": c["orbits.states"],
                "agility.opportunities": c["agility.opportunities"],
                "agility.target_points": c["agility.target_points"],
                "maneuvers.cost_entries": c["maneuvers.cost_entries"],
                "mcrp.solves": c["mcrp.solves"],
                "mcrp.bound_gap": float(c["mcrp.bound_gap"]),
                "trace.wall_s": math.fsum(s[5] for s in self.spans if s[2] < 0),
            }
        )
        return metrics

    def write_spans(self, path):
        """One JSON array per line: layer, site, parent, track, start, duration, calls."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
