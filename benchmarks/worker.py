"""One benchmark process: set up one workload, then run its body once per
"body" line read from stdin, until any other line or end of input.

    python3 benchmarks/worker.py --root DIR --workload NAME --seed N --work DIR
        [--report PATH] [--trace] [--setup-only]

Messages to the parent are stdout lines starting with "@bench ": one when
set-up is done, one per body (host timings and the host speed scale of
`hostspeed`, oracle results, per-layer metrics when traced) and one at exit
(peak memory).  Everything the package prints
is captured by the workload.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time

def emit(**message) -> None:
    print("@bench " + json.dumps(message), flush=True)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--report", help="scan report the exploit workload reads")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from pmu_prospector import corpus

    import hostspeed
    import oracles
    import workloads

    logging.getLogger().addHandler(logging.NullHandler())  # keeps cli's basicConfig quiet
    lost = workloads.LostWork()
    logging.getLogger("pmu_prospector.collector").addHandler(lost)
    fx = oracles.Fixtures.load(
        os.path.join(args.root, "tests", "data"), corpus.DEFAULT_POOL.supported_extensions
    )
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, tracing.armed_table(fx.families))
    extra = (args.report,) if args.workload == "exploit" else ()
    workload = workloads.WORKLOADS[args.workload](fx, args.work, args.seed, lost, *extra)
    emit(ready=True)
    if args.setup_only:
        return 0

    peak_rss_mb = None
    while sys.stdin.readline().strip() == "body":
        lost.reset()
        if tracer is not None:
            tracer.reset()
        with hostspeed.Sampler() as speed:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            workload.body()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        cpu -= speed.cpu_s
        if peak_rss_mb is None:  # set-up and one body, before any oracle allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = tracer.metrics() if tracer is not None else {}
        layers["collector.batches_lost"] = lost.batches
        layers["collector.instructions_skipped"] = len(lost.skipped)
        checks = oracles.Checks()
        try:
            workload.check(checks)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            # an output the body should have written is missing or malformed
            checks.expect("outputs.readable", False, f"{type(exc).__name__}: {exc}")
        emit(wall_s=wall, cpu_s=cpu, scale=speed.scale(), measurements=workload.measurements,
             attempted=checks.attempted, failed=checks.failed, details=checks.details,
             layers=layers)
    emit(done=True, peak_rss_mb=peak_rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
