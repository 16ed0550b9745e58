"""Regenerate the golden digests from the every-cycle reference path.

    python3 perfbench/make_golden.py            # all workloads, seeds 1-20
    python3 perfbench/make_golden.py --scale tiny --workload loops --out x.json

The reference path turns every skip engine and fast representation off
(legacy memory walk, no fast-forward, no replay, full issue-queue scan),
so every simulated cycle is stepped.  The benchmark's own passes use the
defaults; their digests must match these.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import uuid

from run import GOLDEN, JOBS, ROOT, Runner

#: Environment selecting the every-cycle reference path.
REFERENCE_ENV = {
    "REPRO_LEGACY_MEMORY": "1",
    "REPRO_FAST_FORWARD": "0",
    "REPRO_REPLAY": "0",
    "REPRO_LEGACY_ISSUE_SCAN": "1",
}

#: Seeds with golden digests.  Other seeds are checked by the timed and
#: traced runs against each other (see run.py).
GOLDEN_SEEDS = range(1, 21)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=JOBS,
        help="repeatable; default: every workload")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=str(GOLDEN))
    args = parser.parse_args(argv)
    golden = {
        "scale": args.scale,
        "reference": REFERENCE_ENV,
        "seeds": {str(seed): {} for seed in GOLDEN_SEEDS},
    }
    workloads = args.workload or list(JOBS)
    for seed in GOLDEN_SEEDS:
        for workload in workloads:
            args.seed, args.workload = seed, workload
            tmp = ROOT / ".perfbench_tmp" / uuid.uuid4().hex
            tmp.mkdir(parents=True)
            try:
                runner = Runner(
                    args, tmp, seconds=24 * 3600, env=REFERENCE_ENV)
                record = runner.measure("cold", JOBS[args.workload])
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            errors = {k: v for k, v in record["digests"].items()
                      if v.startswith("error")}
            if errors:
                print(f"{workload} seed {seed}: reference run failed: "
                      f"{errors}", file=sys.stderr)
                return 1
            golden["seeds"][str(seed)][workload] = record["digests"]
            print(f"{workload} seed {seed}: "
                  f"{len(record['digests'])} digests, "
                  f"{record['wall_s']:.1f} s", flush=True)
    with open(args.out, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
