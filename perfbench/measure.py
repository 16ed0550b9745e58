"""One measurement of one workload, in a fresh interpreter.

Started by ``run.py``, never by hand: it expects the environment that
``run.py`` prepares (``PYTHONPATH`` at the package sources, private
``REPRO_*`` directories, no engine toggles) and writes one JSON record to
``--out``.

Modes:

* ``setup``: import, resolve presets, build the case list, stop.
* ``cold``: the above, then one pass on an empty cache, then warm passes
  (in-process memo cleared before each, results read back from the disk
  cache) for ``--warm-seconds`` and at least ``--warm-min`` passes.
* ``traced``: ``cold`` with span wrappers installed (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from workloads import WORKLOADS

#: Warm passes in a traced run (enough to trace the cache read path).
TRACED_WARM_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "cold", "traced"))
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--warm-seconds", type=float, default=0.0)
    parser.add_argument("--warm-min", type=int, default=0)
    parser.add_argument(
        "--t-spawn", type=float, required=True,
        help="perf_counter() of the parent just before it started us")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of the largest process: this one or one of its
    reaped pool workers, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv=None) -> None:
    args = parse_args(argv)
    from repro.experiments import clear_cache
    from repro.experiments.cache import TELEMETRY

    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    t_submit = time.perf_counter()
    record = {"setup_s": t_submit - args.t_spawn}
    if args.mode == "setup":
        _write(args.out, record)
        return

    def one_pass(name):
        if tracer is None:
            return workload.run(args.jobs)
        return tracer.span(name, workload.run, args.jobs)

    cold = one_pass("bench.cold_pass")
    record["wall_s"] = time.perf_counter() - t_submit
    outcome = workload.outcome(cold)

    warm_min, warm_seconds = args.warm_min, args.warm_seconds
    if tracer is not None:
        warm_min, warm_seconds = TRACED_WARM_PASSES, 0.0
    warm_times = []
    warm_outcomes = []
    simulated_before = TELEMETRY.sim_invocations
    deadline = time.perf_counter() + warm_seconds
    while len(warm_times) < warm_min or time.perf_counter() < deadline:
        clear_cache(disk=False)
        start = time.perf_counter()
        raw = one_pass("bench.warm_pass")
        warm_times.append(time.perf_counter() - start)
        if len(warm_outcomes) < 2:
            warm_outcomes.append(workload.outcome(raw))
        else:
            warm_outcomes[1] = workload.outcome(raw)
    if tracer is not None:
        tracer.uninstall()

    record.update(
        warm_pass_s=warm_times,
        warm_simulations=TELEMETRY.sim_invocations - simulated_before,
        peak_rss_mb=peak_rss_mb(),
        committed_instrs=outcome.committed_instrs(),
        digests=outcome.digests(),
        warm_digests=[w.digests() for w in warm_outcomes],
        claims=outcome.claims,
    )
    if tracer is not None:
        record["wrapper_cost_s"] = spans.wrapper_cost()
        record["trace_self_s"] = tracer.book_overhead(
            record["wrapper_cost_s"])
        record["layers"] = spans.layer_metrics(tracer)
        record["harness_counts"] = spans.harness_counts(tracer)
        if args.spans_out:
            tracer.dump(args.spans_out)
    _write(args.out, record)


def _write(path, record) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
