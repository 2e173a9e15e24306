"""One measured `stormcover run`, in a process of its own.

run.py starts this script once per measured run, so that the process's
peak RSS belongs to that run alone.  It calls ``stormcover.cli.main`` in
process on the generated config, swallows the summary table the CLI
prints, and writes its timings to the JSON file named by ``--result``.

Untraced, the only wrapper is one around ``harness.evaluate_track`` that
times each track.  With ``--setup-only`` that wrapper ends the run at the
first track, after import, config parse and track CSV parse, so a run
costs little more than its set-up.  With ``--trace`` every public call
between the modules is wrapped (see tracer.py), the spans are written
beside the result and the result carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time


class SetupDone(Exception):
    """Raised at the first evaluate_track call of a --setup-only run."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args()

    from stormcover import cli, harness

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    track_seconds = []
    first_call = []
    evaluate = harness.evaluate_track

    def timed_evaluate(track, *rest, **kwargs):
        start = time.perf_counter()
        if not first_call:
            first_call.append(time.monotonic())
            if args.setup_only:
                raise SetupDone
        result = evaluate(track, *rest, **kwargs)
        track_seconds.append([track.name, time.perf_counter() - start])
        return result

    harness.evaluate_track = timed_evaluate

    argv = ["run", "--config", args.config, "--out", args.out]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SetupDone:
            code = 0
        wall = time.perf_counter() - start

    result = {
        "setup_s": first_call[0] - args.spawned_at if first_call else None,
        "wall_s": wall,
        "track_seconds": track_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["harness.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(args.out) for f in files
        )
        result["layers"] = layers
        result["missing"] = tracer.missing
        tracer.write_spans(os.path.join(os.path.dirname(args.result), "spans.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
