"""Repository benchmark: time one workload end to end, or trace its layers.

Run from the repository root:

    python3 perfbench/run.py --workload spec-stacks --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics: a cold pass on an empty
result cache, warm passes reading it back, and set-up time.  ``--trace 1``
prints the per-layer metrics of a serial traced pass, with the tracing
overhead against a serial untraced pass.  Every measurement runs in a
fresh interpreter with private cache, checkpoint and failure
directories.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See ``README.md``
in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Golden digests of seeds 1-20 at full size, from the every-cycle
#: reference path (see make_golden.py).
GOLDEN = HERE / "golden.json"
#: Fresh interpreters that only set up, besides the measured one.
SETUP_PROBES = 4
#: Warm passes per run at least: the 90th percentile then has ten
#: samples beyond it.
WARM_MIN = 100
#: Pool workers of the timed pass: flops-artifacts runs on a pool with one
#: worker per CPU of the 2-CPU host the bounds were set on.
JOBS = {"spec-stacks": 1, "flops-artifacts": 2, "loops": 1}
#: Cold passes per run, each in a fresh interpreter; ``wall_s`` is their
#: median.  A loops pass takes 6-10 s, too short to ride out the shared
#: host's bursts of slowness (one pass spread 0.2 over ten runs); the
#: other workloads' passes take 15-36 s.
COLD_PASSES = {"spec-stacks": 1, "flops-artifacts": 1, "loops": 2}
#: Every run ends within this many seconds or fails.
RUN_DEADLINE_S = 175.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=JOBS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=5.0,
        help="time spent on repeated warm passes (at least %d passes)"
        % WARM_MIN)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: 2,000-instruction cases, for smoke tests")
    parser.add_argument(
        "--golden", type=Path, default=GOLDEN,
        help="golden digest file (applies to its own seeds and scale)")
    parser.add_argument(
        "--out-dir", type=Path, default=ROOT / ".perfbench_out",
        help="where runs leave their digests and traced runs their span "
        "dumps")
    return parser.parse_args(argv)


class Runner:
    """Starts measurement processes in fresh interpreters."""

    def __init__(self, args, tmp: Path, *, seconds=RUN_DEADLINE_S,
                 env=None) -> None:
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + seconds
        #: Extra environment for every measurement.
        self.env = env or {}
        self.count = 0

    def measure(self, mode: str, jobs: int, **extra) -> dict:
        self.count += 1
        work = self.tmp / f"m{self.count}"
        work.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(work / "cache"),
            REPRO_CHECKPOINT_DIR=str(work / "checkpoints"),
            REPRO_FAILURES_DIR=str(work / "failures"),
            TMPDIR=str(work),
            **self.env,
        )
        out = work / "record.json"
        command = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode, "--jobs", str(jobs), "--out", str(out),
        ]
        if self.args.scale == "tiny":
            command.append("--tiny")
        for key, value in extra.items():
            command += [f"--{key.replace('_', '-')}", str(value)]
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            command + ["--t-spawn", repr(t_spawn)], env=env, cwd=ROOT,
            start_new_session=True,
        )
        try:
            code = proc.wait(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: {mode} measurement timed out")
        finally:
            _kill_group(proc.pid)
            proc.wait()
        if code != 0:
            raise SystemExit(f"perfbench: {mode} measurement exited {code}")
        with open(out) as fh:
            return json.load(fh)


def _kill_group(pgid: int) -> None:
    """Stop any process the measurement left behind (orphaned workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def load_golden(args) -> dict:
    """Golden digests for this workload, if they apply to this run."""
    if not args.golden.is_file():
        return {}
    with open(args.golden) as fh:
        golden = json.load(fh)
    if golden["scale"] != args.scale:
        return {}
    return golden["seeds"].get(str(args.seed), {}).get(args.workload, {})


def source_key() -> str:
    """Hash of the package sources, so that only runs of the same code
    compare their digests."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()[:12]


def exchange_digests(args, digests: dict) -> dict | None:
    """Leave this run's digests in ``--out-dir`` and return those left by
    a run of the other ``--trace`` mode of the same workload, seed, scale
    and sources, or None if there was none yet.

    So the timed run (``--trace 0``, on a pool for flops-artifacts) and
    the traced run (serial) check each other at every seed, whichever
    comes second.
    """
    stem = (f"digests-{args.workload}-seed{args.seed}-{args.scale}-"
            f"{source_key()}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    mine = args.out_dir / f"{stem}-trace{args.trace}.json"
    partial = mine.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(digests))
    os.replace(partial, mine)
    other = args.out_dir / f"{stem}-trace{1 - args.trace}.json"
    try:
        return json.loads(other.read_text())
    except FileNotFoundError:
        return None


def count_failures(record: dict, references: list[dict]) -> tuple[int, int, list]:
    """(attempted, failed, reasons) for one measured pass.

    A case fails if it raised or left a hole (no result), broke an
    invariant, or has a digest differing from a reference digest map
    (golden digests, the other ``--trace`` mode's run, another pass of
    the same seed); a reference that itself failed the case is skipped.
    Each paper shape claim is one more attempt.
    """
    digests = record["digests"]
    reasons = {}
    for label, value in digests.items():
        if value.startswith("error"):
            reasons[label] = value
            continue
        for reference in references:
            expected = reference.get(label, value)
            if expected != value and not expected.startswith("error"):
                reasons[label] = f"digest {value} != expected {expected}"
                break
    for reference in references:
        for label in reference.keys() - digests.keys():
            reasons[label] = "case missing"
    for name, holds in record["claims"]:
        if not holds:
            reasons[name] = "paper shape claim broken"
    attempted = len(digests) + len(record["claims"])
    return attempted, len(reasons), [f"{k}: {v}" for k, v in reasons.items()]


def end_to_end(runner: Runner, workload: str) -> tuple:
    """Cold passes, warm passes and set-up probes; metrics and references."""
    jobs = JOBS[workload]
    record = runner.measure(
        "cold", jobs, warm_seconds=runner.args.seconds, warm_min=WARM_MIN)
    others = [
        runner.measure("cold", jobs) for _ in range(COLD_PASSES[workload] - 1)
    ]
    setups = [r["setup_s"] for r in (record, *others)] + [
        runner.measure("setup", jobs)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    walls = [r["wall_s"] for r in (record, *others)]
    wall = statistics.median(walls)
    warm = record["warm_pass_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "sim_kinstr_per_s": (
            record["committed_instrs"] / 1e3 / wall, "kinstr/s"),
        "warm_pass_s_min": (min(warm), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MiB"),
    }
    notes = [
        f"warm_pass_s_p50 {statistics.median(warm):.6g} s, warm_pass_s_p90 "
        f"{statistics.quantiles(warm, n=10)[8]:.6g} s, warm_pass_s_mean "
        f"{statistics.fmean(warm):.6g} s over {len(warm)} warm passes; "
        f"setup_s over {len(setups)} interpreters",
        "wall_s median of cold passes: "
        + ", ".join(f"{w:.3f} s" for w in walls),
    ]
    references = record["warm_digests"] + [r["digests"] for r in others]
    return record, metrics, references, notes


def traced(runner: Runner, args) -> tuple:
    """Serial untraced pass, then serial traced pass; per-layer metrics."""
    plain = runner.measure("cold", 1)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    record = runner.measure("traced", 1, spans_out=spans_path)
    metrics = dict(record["layers"])
    metrics["trace.overhead_ratio"] = (
        record["wall_s"] / plain["wall_s"], "ratio")
    notes = [
        f"{name:38s} {value:>16.6g} {unit} (0 by construction)"
        for name, (value, unit) in record["harness_counts"].items()
    ]
    notes += [
        f"traced pass {record['wall_s']:.3f} s, untraced serial pass "
        f"{plain['wall_s']:.3f} s; spans in {spans_path}",
        f"trace.self {record['trace_self_s']:.3f} s of wrapper bookkeeping "
        f"({record['wrapper_cost_s'] * 1e9:.0f} ns per aggregated call) "
        f"taken out of the callers' self times",
    ]
    return record, metrics, [plain["digests"], *record["warm_digests"]], notes


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its measurement and removes its
    # scratch directory (the ``finally`` clauses below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / uuid.uuid4().hex
    tmp.mkdir(parents=True)
    try:
        runner = Runner(args, tmp)
        if args.trace:
            record, metrics, references, notes = traced(runner, args)
        else:
            record, metrics, references, notes = end_to_end(
                runner, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if warm_sims := record["warm_simulations"]:
        record["claims"].append(
            (f"warm passes read the cache ({warm_sims} simulations)", False))
    golden = load_golden(args)
    other = exchange_digests(args, record["digests"])
    attempted, failed, reasons = count_failures(
        record, [golden, other or {}, *references])

    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"trace={args.trace} scale={args.scale} cpus={os.cpu_count()} "
        f"python={platform.python_version()} commit={commit()} "
        f"golden={'yes' if golden else 'no'} "
        f"trace{1 - args.trace}-run={'yes' if other is not None else 'no'}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':38s} {failed / attempted:>16.6g} ratio "
          f"({failed}/{attempted})")
    for note in notes:
        print(f"  {note}")
    for reason in reasons:
        print(f"  FAILED {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
