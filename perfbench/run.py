"""stormcover benchmark: one named workload, timed end to end or traced.

    python3 perfbench/run.py --workload reconfig30 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout.  The benchmark writes a config
file and track CSVs generated from ``--seed``, then starts child.py
again and again, one fresh process per measured `stormcover run`, until
``--seconds`` is used up.  It checks every run's outputs and prints the
metrics, with units, as the last line of stdout in one JSON object.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and gives the per-layer metrics.

Workloads, metrics and the predictions they test are in NOTES.md.
Everything the benchmark writes goes under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: The seed whose first run's tracks are exactly ``default_corpus(20)``;
#: that run's output CSVs must match the digests in reference.json.
REFERENCE_SEED = 0
CORPUS_SIZE = 20
#: Run r of benchmark seed n takes its tracks from corpus seed n * 1000 + r.
SEED_STRIDE = 1000
#: set-up-only processes started before each measured run, for setup_s
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
REPORT_CSVS = ("rewards.csv", "pct_increase.csv", "outperform.csv", "summary.csv")


@dataclass(frozen=True)
class Workload:
    models: Tuple[str, ...]
    fov_deg: float
    #: 1-based positions in the 20-track corpus, short to long lifetimes
    tracks: Tuple[int, ...]


WORKLOADS: Dict[str, Workload] = {
    "corpus45-all": Workload(("B", "A", "P1", "P2", "P3", "P4", "U1", "U2"), 45.0, (1, 2, 4)),
    "reconfig30": Workload(("B", "P1", "P2", "P3", "P4", "U1", "U2"), 30.0, (1, 6, 11)),
    "agile45": Workload(("B", "A"), 45.0, (1, 7, 13)),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "track_days_per_s": "storm-days/s",
    "track_s.p50": "s",
    "track_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "proven_ratio": "1",
}

PER_LAYER_UNITS = {
    "visibility.busy_s": "s",
    "visibility.cells": "count",
    "visibility.active_ratio": "1",
    "visibility.tensor_bytes": "B",
    "tracks.busy_s": "s",
    "tracks.table_cells": "count",
    "orbits.busy_s": "s",
    "orbits.geodetic_calls": "count",
    "orbits.states": "count",
    "agility.busy_s": "s",
    "agility.opportunities": "count",
    "agility.target_points": "count",
    "maneuvers.busy_s": "s",
    "maneuvers.cost_entries": "count",
    "mcrp.busy_s": "s",
    "mcrp.solves": "count",
    "mcrp.bound_gap": "reward",
    "harness.busy_s": "s",
    "harness.self_s": "s",
    "harness.merge_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "B",
    "cli.busy_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def corpus_lifetimes() -> List[Tuple[float, str]]:
    """(days, basin) of each corpus track, by the rule of default_corpus."""
    out = []
    for i in range(1, CORPUS_SIZE + 1):
        days = 2.75 + (i - 1) * 12.75 / (CORPUS_SIZE - 1)
        out.append((round(days * 4.0) / 4.0, "west-hemisphere" if i % 2 == 1 else "east-hemisphere"))
    return out


def seeded_corpus(corpus_seed: int):
    """The 20 corpus tracks of one corpus seed.

    Track i keeps default_corpus's lifetime and basin and takes
    synthesize_track seed 20 * corpus_seed + i, so corpus seed 0 is
    default_corpus(20).
    """
    from stormcover.tracks import synthesize_track

    return [
        synthesize_track(CORPUS_SIZE * corpus_seed + i, days, basin)
        for i, (days, basin) in enumerate(corpus_lifetimes(), start=1)
    ]


def write_inputs(workload: Workload, corpus, in_dir: str) -> Tuple[str, Dict[str, bytes], Dict[str, float]]:
    """Track CSVs and a config file; returns its path, CSV bytes and lifetimes."""
    from stormcover.tracks import serialize_track

    os.makedirs(in_dir)
    csv_bytes, days = {}, {}
    for i in workload.tracks:
        track = corpus[i - 1]
        data = serialize_track(track)
        with open(os.path.join(in_dir, f"{track.name}.csv"), "wb") as fh:
            fh.write(data)
        csv_bytes[track.name] = data
        days[track.name] = track.duration_seconds / 86400.0
    config = os.path.join(in_dir, "scenario.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(
            f"fov_deg = {workload.fov_deg}\n"
            "step_s = 300\n"
            f"models = {','.join(workload.models)}\n"
            f"tracks = {','.join(f'{name}.csv' for name in csv_bytes)}\n"
        )
    return config, csv_bytes, days


def roundtrip_mismatches(corpus) -> List[str]:
    """Tracks whose CSV changes on serialize -> parse -> serialize."""
    from stormcover.tracks import parse_track_csv, serialize_track

    bad = []
    for track in corpus:
        data = serialize_track(track)
        if serialize_track(parse_track_csv(data)) != data:
            bad.append(track.name)
    return bad


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(path: str) -> str:
    """Digest of every file name and its bytes under path, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + _sha(fh.read()).encode())
    return h.hexdigest()


def output_digests(out: str) -> Dict[str, str]:
    digests = {}
    for name in REPORT_CSVS:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = _sha(fh.read())
    digests["plans/"] = tree_digest(os.path.join(out, "plans"))
    digests["schedules/"] = tree_digest(os.path.join(out, "schedules"))
    return digests


# Acceptance invariants: each pair (lo, hi) requires reward(lo) <= reward(hi).
_ORDERED = (("P1", "P2"), ("P2", "P4"), ("P1", "P3"), ("P3", "P4"), ("U1", "U2")) + tuple(
    ("B", m) for m in ("P1", "P2", "P3", "P4", "U1", "U2")
)


def check_outputs(out: str, workload: Workload, csv_bytes: Dict[str, bytes]):
    """Problems found in one run's outputs, its proven flags and track diffs.

    csv_bytes maps each input track's name to its CSV, in config order.
    """
    names = list(csv_bytes)
    problems = []
    with open(os.path.join(out, "rewards.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expected = [[t, m] for t in names for m in workload.models]
    if rows[0] != ["track", "model", "reward", "proven"] or [r[:2] for r in rows[1:]] != expected:
        return [f"rewards.csv does not list {len(expected)} track x model rows in order"], [], []
    reward = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    proven = [r[3] == "1" for r in rows[1:]]
    for t in names:
        for lo, hi in _ORDERED:
            if (t, lo) in reward and (t, hi) in reward and reward[t, lo] > reward[t, hi]:
                problems.append(f"{t}: {lo} {reward[t, lo]} > {hi} {reward[t, hi]}")
        for m in workload.models:
            if m == "A":
                continue
            if not os.path.isfile(os.path.join(out, "plans", f"{t}__{m}.csv")):
                problems.append(f"{t}: no plan for {m}")
    if "A" in workload.models:
        schedules = [f for f in os.listdir(os.path.join(out, "schedules")) if "__A__" in f]
        if len(schedules) != 5 * len(names):
            problems.append(f"{len(schedules)} schedule files for {len(names)} tracks x 5 satellites")
    changed = []
    for t in names:
        with open(os.path.join(out, "tracks", f"{t}.csv"), "rb") as fh:
            if fh.read() != csv_bytes[t]:
                changed.append(t)
    return problems, proven, changed


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_child(
    config: str, run_dir: str, mode: str, timeout: float
) -> Tuple[Optional[dict], str]:
    """One child.py process; mode is "", "--trace" or "--setup-only"."""
    out = os.path.join(run_dir, "out")
    result_path = os.path.join(run_dir, "result.json")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = SRC
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--config", config,
        "--out", out,
        "--result", result_path,
    ]
    if mode:
        cmd.append(mode)
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {timeout:.0f} s and was killed"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-2000:]}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), ""


def git_revision() -> str:
    """HEAD's commit, read from .git in the checkout, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "stormcover", "cli.py")):
        print(f"perfbench: no stormcover sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    sys.path.insert(0, SRC)
    import numpy

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    reference = None
    if args.seed == REFERENCE_SEED:
        from stormcover.harness import default_corpus

        if seeded_corpus(0) != list(default_corpus(CORPUS_SIZE)):
            print("perfbench: corpus seed 0 does not reproduce default_corpus(20)", file=sys.stderr)
            return 1
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][args.workload]

    deadline = started + args.seconds
    runs: List[dict] = []
    traced: List[dict] = []
    failures: List[str] = []
    proven: List[bool] = []
    changed_tracks: List[str] = []
    digest_notes: Dict[str, str] = {}
    durations: List[float] = []
    attempted = 0
    while True:
        # Traced invocations alternate an untraced and a traced run on the
        # same inputs.  Every other pair of runs, or every run untraced,
        # gets tracks of the same lifetimes from the next corpus seed, so a
        # run's medians pool over several track geometries.
        pair, trace = divmod(attempted, 2) if args.trace else (attempted, 0)
        now = time.monotonic()
        # start another run (or pair) only if a typical one ends by the deadline
        step = statistics.median(durations) * (1 + args.trace) if durations else 0.0
        if pair >= 1 and not trace and (now + step > deadline or now - started > RUN_LIMIT_S / 2):
            break
        attempted += 1
        run_dir = os.path.join(work, f"run-{attempted:03d}")
        corpus_seed = args.seed * SEED_STRIDE + pair
        config, csv_bytes, days = write_inputs(
            workload, seeded_corpus(corpus_seed), os.path.join(run_dir, "inputs")
        )
        t0 = time.monotonic()
        setups, error = [], ""
        for probe in range(0 if args.trace else SETUP_PROBES):
            probe_dir = os.path.join(run_dir, f"setup-{probe}")
            result, error = run_child(config, probe_dir, "--setup-only", RUN_LIMIT_S - (t0 - started))
            if result is None:
                break
            setups.append(result["setup_s"])
        if not error:
            mode = "--trace" if trace else ""
            result, error = run_child(config, run_dir, mode, RUN_LIMIT_S - (t0 - started))
        durations.append(time.monotonic() - t0)
        if result is None:
            failures.append(f"run {attempted}: {error}")
            continue
        result["setups"] = setups + [result["setup_s"]]
        out = os.path.join(run_dir, "out")
        try:
            problems, run_proven, changed = check_outputs(out, workload, csv_bytes)
            digests = output_digests(out) if reference is not None and corpus_seed == 0 else None
        except (OSError, ValueError, IndexError) as exc:
            problems, run_proven, changed, digests = [f"unreadable outputs: {exc}"], [], [], None
        changed_tracks.extend(changed)
        if not problems and digests is not None:
            for key, want in reference.items():
                same = digests[key] == want
                digest_notes[key] = "match" if same else "DIFFERS"
                # the comparison CSVs must match; plans/ and schedules/ are
                # reported, since a change may alter them for a stated reason
                if not same and key in REPORT_CSVS:
                    problems.append(f"{key} differs from the reference")
        if problems:
            failures.append(f"run {attempted}: " + "; ".join(problems))
            continue
        proven.extend(run_proven)
        result["days"] = sum(days[name] for name, _ in result["track_seconds"])
        result["pair"] = pair
        (traced if trace else runs).append(result)

    failed = len(failures)
    metrics: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    if args.trace == 0 and runs:
        track_s = [s for r in runs for _, s in r["track_seconds"]]
        deciles = statistics.quantiles(track_s, n=10, method="inclusive")
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "track_days_per_s": statistics.median(
                r["days"] / sum(s for _, s in r["track_seconds"]) for r in runs
            ),
            "track_s.p50": deciles[4],
            "track_s.p90": deciles[8],
            "setup_s": statistics.median(s for r in runs for s in r["setups"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "proven_ratio": sum(proven) / len(proven),
        }
        samples = {
            "runs": len(runs),
            "track_s": len(track_s),
            "setup_s": sum(len(r["setups"]) for r in runs),
        }
    elif args.trace == 1:
        untraced_wall = {r["pair"]: r["wall_s"] for r in runs}
        pairs = [t for t in traced if t["pair"] in untraced_wall]
        if pairs:
            # times are medians over pairs; counts come from the first pair,
            # whose inputs are fixed by the seed, so they repeat exactly
            metrics = {
                name: statistics.median(t["layers"][name] for t in pairs)
                if unit == "s"
                else pairs[0]["layers"][name]
                for name, unit in PER_LAYER_UNITS.items()
                if name != "trace.overhead_s"
            }
            metrics["trace.overhead_s"] = statistics.median(
                t["layers"]["trace.wall_s"] - untraced_wall[t["pair"]] for t in pairs
            )
        samples = {"pairs": len(pairs)}
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    correct = failed == 0 and len(metrics) == len(units)

    env_info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    corpus_bad = roundtrip_mismatches(seeded_corpus(args.seed * SEED_STRIDE))
    diagnostics = {
        # known defect: track CSVs that do not survive serialize -> parse ->
        # serialize, over the seed's first 20-track corpus and over the
        # track CSVs the runs wrote back out
        "roundtrip_mismatch.corpus": corpus_bad,
        "roundtrip_mismatch.run": len(changed_tracks),
        "reference": digest_notes or "not the reference seed",
    }
    if args.trace == 1 and metrics:
        # layer self times add up to the traced wall time by construction
        diagnostics["trace.wall_s"] = statistics.median(t["layers"]["trace.wall_s"] for t in pairs)
        diagnostics["trace.layer_sum_s"] = sum(v for n, v in metrics.items() if n.endswith(".busy_s"))
        diagnostics["trace.missing_names"] = pairs[0]["missing"]
    summary = {
        "env": env_info,
        "samples": samples,
        "diagnostics": diagnostics,
        "failures": failures,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)

    print(f"# {tag}: {attempted} runs in {time.monotonic() - started:.1f} s")
    print(f"# env {json.dumps(env_info)}")
    for name, value in metrics.items():
        print(f"#   {name:<26} {value:>16.6f} {units[name]}")
    print(f"#   {'fail_ratio':<26} {failed / attempted:>16.6f} 1 ({failed}/{attempted})")
    print(f"# samples {json.dumps(samples)}")
    print(f"# diagnostics {json.dumps(diagnostics)}")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
