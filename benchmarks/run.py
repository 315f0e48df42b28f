"""Host-time benchmark of pmu-prospector on the bundled fixtures.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: scan, scan-records, exploit,
native-probe (see BENCHMARK.json and benchmarks/README.md).

--trace 0 measures the end-to-end metrics.  One process sets the workload up
and runs its body again and again for S seconds, and at least MIN_BODIES
times; before each body, a fresh process only sets up, for setup_s.
--trace 1 runs the body untraced for S/2 seconds, then traced for S/2
seconds, and reports the per-layer metrics and the tracing overhead.  Every
body's output is checked against seed-independent oracles.  Each metric is
the median of its samples in the run.  Every timing is scaled to a reference
host speed measured while it runs (see hostspeed.py).

Prints a table of each metric (median, quartiles and sample count) and every
failed check by name, then as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 1 when a check fails that is not a known defect, 2 when the package
or its fixtures are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REQUIRED = (
    "BENCHMARK.json",
    "src/pmu_prospector/cli.py",
    "tests/data/corpus.tsv",
    "tests/data/catalog.csv",
    "tests/data/sim_model.json",
    "tests/data/secret.bin",
)
# Bodies per timed run whatever --seconds says, so that even the slowest
# workload reports the median of several.
MIN_BODIES = 4
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        # a fixed hash seed gives every process the same set and dict layouts
        self.env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"), PYTHONHASHSEED="0")
        os.makedirs(self.env["TMPDIR"])
        self.report = os.path.join(work, "scan-report.json")
        self.procs: list[subprocess.Popen] = []
        # whatever is still running at the limit is killed, so the run ends in time
        self.watchdog = threading.Timer(RUN_LIMIT_S, self.close)
        self.watchdog.start()

    def close(self) -> None:
        """Kill and reap every process still running."""
        self.watchdog.cancel()
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def _launch(self, cmd: list[str], env: dict[str, str], stdin=None) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=ROOT)
        self.procs.append(proc)
        return proc

    @staticmethod
    def _finish(proc: subprocess.Popen, what: str) -> None:
        if proc.wait() != 0:
            raise BenchError(f"{what} exited with code {proc.returncode}")

    @staticmethod
    def _message(proc: subprocess.Popen) -> dict:
        for line in proc.stdout:
            if line.startswith("@bench "):
                return json.loads(line[len("@bench "):])
        raise BenchError("worker ended without reporting")

    def prepare(self) -> None:
        """The exploit workload reads a scan report; build it outside any timing."""
        if self.workload != "exploit":
            return
        data = os.path.join(ROOT, "tests", "data")
        proc = self._launch([
            sys.executable, "-m", "pmu_prospector.cli", "scan",
            "--corpus", os.path.join(data, "corpus.tsv"),
            "--catalog", os.path.join(data, "catalog.csv"),
            "--sim-model", os.path.join(data, "sim_model.json"),
            "--repetitions", "3", "--seed", str(self.seed), "--out", self.report,
        ], dict(self.env, PYTHONPATH=os.path.join(ROOT, "src")))
        proc.stdout.read()
        self._finish(proc, "scan for the exploit report")

    def _worker(self, *flags: str) -> tuple[subprocess.Popen, tuple[float, float]]:
        """Start a worker and wait until it has set up; returns it and its
        set-up time with the host speed scale around it."""
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--root", ROOT,
            "--workload", self.workload, "--seed", str(self.seed), "--work", self.work,
            "--report", self.report, *flags,
        ]
        with hostspeed.Sampler() as speed:
            start = time.perf_counter()
            proc = self._launch(cmd, self.env, stdin=subprocess.PIPE)
            self._message(proc)
            setup = time.perf_counter() - start
        return proc, (setup, speed.scale())

    def setup_time(self) -> tuple[float, float]:
        proc, setup = self._worker("--setup-only")
        proc.stdin.close()
        self._finish(proc, "set-up worker")
        return setup

    def session(self, seconds: float, trace: bool = False, min_bodies: int = MIN_BODIES):
        """Run bodies in one process for `seconds`; returns (set-up times with
        their scales, per-body messages, peak RSS in MiB)."""
        proc, setup = self._worker(*(["--trace"] if trace else []))
        setups = [setup]
        bodies: list[dict] = []
        cycles: list[float] = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            if not trace:
                setups.append(self.setup_time())
            proc.stdin.write("body\n")
            proc.stdin.flush()
            bodies.append(self._message(proc))
            cycles.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            if len(bodies) >= min_bodies and elapsed + statistics.median(cycles) > seconds:
                break
        proc.stdin.close()
        done = self._message(proc)
        self._finish(proc, "worker")
        return setups, bodies, done["peak_rss_mb"]


def describe(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a pmu-prospector checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, BENCH_DIR)
    from oracles import KNOWN_DEFECTS

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(args.workload, args.seed, work)
    try:
        runner.prepare()
        if args.trace:
            _, plain, _ = runner.session(args.seconds / 2, min_bodies=1)
            _, traced, _ = runner.session(args.seconds / 2, trace=True, min_bodies=1)
            bodies = plain + traced
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            samples = {
                name: [b["layers"].get(name, 0) * (b["scale"] if units[name] == "s" else 1)
                       for b in traced]
                for name in units
            }
            traced_wall, plain_wall = (
                statistics.median(b["wall_s"] * b["scale"] for b in runs)
                for runs in (traced, plain)
            )
            samples["trace.overhead_s"] = [traced_wall - plain_wall]
            unscaled = {"wall_s": [b["wall_s"] for b in bodies]}
        else:
            setups, bodies, peak_rss_mb = runner.session(args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            samples = {
                "wall_s": [b["wall_s"] * b["scale"] for b in bodies],
                "cpu_s": [b["cpu_s"] * b["scale"] for b in bodies],
                "measurements_per_s": [b["measurements"] / (b["wall_s"] * b["scale"])
                                       for b in bodies],
                "setup_s": [setup * scale for setup, scale in setups],
                "peak_rss_mb": [peak_rss_mb],
                "ok_share": [1 - len(b["failed"]) / b["attempted"] for b in bodies],
            }
            unscaled = {
                "wall_s": [b["wall_s"] for b in bodies],
                "cpu_s": [b["cpu_s"] for b in bodies],
                "setup_s": [setup for setup, _ in setups],
            }
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # the parent, once no other run uses it
            os.rmdir(os.path.dirname(work))

    attempted = sum(b["attempted"] for b in bodies)
    failures = sum(len(b["failed"]) for b in bodies)
    failed: dict[str, str] = {}
    for body in bodies:
        for name in body["failed"]:
            failed.setdefault(name, body["details"][name])
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  {len(bodies)} bodies")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    metrics = {}
    for name, unit in units.items():
        median, q1, q3 = describe(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:36} {median:12.6g} {q1:12.6g} {q3:12.6g} {len(samples[name]):4}  {unit}")
    print("unscaled host times and the host speed scale (see hostspeed.py):")
    unscaled["scale"] = [b["scale"] for b in bodies]
    for name, values in unscaled.items():
        median, q1, q3 = describe(values)
        print(f"  {name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {len(values):4}")
    print(f"error_share: {failures} of {attempted} checks failed ({failures / attempted:.6g})")
    for name, detail in failed.items():
        if name in KNOWN_DEFECTS:
            print(f"known defect: {name}: {detail} [{KNOWN_DEFECTS[name]}]")
        else:
            print(f"FAILED: {name}: {detail}")
    correct = all(name in KNOWN_DEFECTS for name in failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failures,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
