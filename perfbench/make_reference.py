"""Record reference.json: output digests of every workload on the reference seed.

    python3 perfbench/make_reference.py

Run it on a commit whose outputs are the reference, from the root of the
checkout.  run.py then requires rewards.csv, pct_increase.csv,
outperform.csv and summary.csv of the reference seed to match these
digests byte for byte, and reports whether plans/ and schedules/ do.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    corpus = run.seeded_corpus(run.REFERENCE_SEED)
    work = os.path.join(run.WORK, "reference")
    shutil.rmtree(work, ignore_errors=True)
    digests = {}
    for name, workload in run.WORKLOADS.items():
        config, csv_bytes, _ = run.write_inputs(workload, corpus, os.path.join(work, name, "inputs"))
        run_dir = os.path.join(work, name, "run")
        result, error = run.run_child(config, run_dir, "", run.RUN_LIMIT_S)
        if result is None:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        out = os.path.join(run_dir, "out")
        problems, _, _ = run.check_outputs(out, workload, csv_bytes)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        digests[name] = run.output_digests(out)
        print(name, json.dumps(digests[name]))
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": run.REFERENCE_SEED, "workloads": digests}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
