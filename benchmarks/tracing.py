"""Per-layer tracing of pmu_prospector from outside the package.

`install` swaps the package's public callables for timing wrappers and makes
the simulated model hand out proxy backends and executors, so every layer
boundary records a span without a line of the package changing.  Spans are
aggregated in memory by name: call count, total time, and self time (total
minus the time of spans opened inside it).
"""

from __future__ import annotations

import subprocess
import time
from collections import Counter

from pmu_prospector import backend, cli, collector, corpus, detection, sidechannel, umask

# Span totals reported under a shorter metric name.
_ALIASES = {
    "corpus.native.compile.s": "corpus.native.compile_s",
    "corpus.native.run.s": "corpus.native.run_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: Counter[str] = Counter()
        self._children = [0.0]  # time of closed child spans, per open span

    def reset(self) -> None:
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._children[:] = [0.0]

    def _stat(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        """Span around fn that may contain other spans."""
        stat = self._stat(name)
        stack = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children

        return traced

    def leaf(self, name: str, fn):
        """Cheaper span for a hot call that opens no spans itself."""
        stat = self._stat(name)
        stack = self._children
        clock = time.perf_counter

        def traced(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            stack[-1] += elapsed
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, own) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[_ALIASES.get(f"{name}.s", f"{name}.s")] = total
            out[f"{name}.self_s"] = own
        out.update(self.counts)
        programs = out.get("backend.program.calls", 0)
        out["backend.armed_ratio"] = self.counts["backend.armed"] / programs if programs else 0.0
        screened = self.counts["sidechannel.screened"]
        out["sidechannel.kept_ratio"] = self.counts["sidechannel.kept"] / screened if screened else 0.0
        return out


def armed_table(families) -> list[bool]:
    """Per packed selector: whether a model family is gated on by its umask."""
    table = [False] * (1 << 16)
    for fam in families:
        for umask_value in range(256):
            if fam.mask == 0 or umask_value & fam.mask:
                table[(umask_value << 8) | fam.code] = True
    return table


class TracedBackend:
    """Counter-backend proxy timing program, read and record_execution."""

    def __init__(self, inner, tracer: Tracer, armed: list[bool]):
        self._inner = inner
        self.read = tracer.leaf("backend.read", inner.read)
        self.record_execution = tracer.leaf("backend.record_execution", inner.record_execution)
        program = tracer.leaf("backend.program", inner.program)
        counts = tracer.counts

        def armed_program(slot, value):
            if armed[value.selector.packed]:
                counts["backend.armed"] += 1
            program(slot, value)

        self.program = armed_program

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedExecutor:
    """Executor proxy timing execute; keeps the wrapped executor's backend."""

    def __init__(self, inner, tracer: Tracer):
        self.backend = inner.backend
        self.dialect = inner.dialect
        self.execute = tracer.wrap("corpus.execute", inner.execute)


class _TracedSubprocess:
    """Stand-in for the subprocess module inside corpus: times the probe's
    compiler launch and its run separately."""

    def __init__(self, tracer: Tracer):
        self._compile = tracer.wrap("corpus.native.compile", subprocess.run)
        self._run = tracer.wrap("corpus.native.run", subprocess.run)

    def run(self, argv, **kwargs):
        launch = self._compile if "-o" in argv else self._run
        return launch(argv, **kwargs)

    def __getattr__(self, name):
        return getattr(subprocess, name)


def install(tracer: Tracer, armed: list[bool]):
    """Trace every layer; returns a function that undoes the patches."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap(module, name, span):
        patch(module, name, tracer.wrap(span, getattr(module, name)))

    make_backend = backend.SimModel.make_backend
    patch(backend.SimModel, "make_backend",
          lambda model, seed=0: TracedBackend(make_backend(model, seed), tracer, armed))
    for module, name in ((cli, "SimulatedExecutor"), (corpus, "NativeExecutor")):
        factory = getattr(module, name)
        patch(module, name,
              lambda *a, _factory=factory, **k: TracedExecutor(_factory(*a, **k), tracer))
    patch(corpus, "subprocess", _TracedSubprocess(tracer))

    def counted_seed(*parts, _derive=backend.derive_seed):
        tracer.counts["seeding.derive_seed.calls"] += 1
        return _derive(*parts)

    patch(backend, "derive_seed", counted_seed)

    dispatch = cli.dispatch

    def traced_dispatch(argv):
        name = "-".join(argv[:2]) if argv[0] in ("detect", "sidechannel") else argv[0]
        return tracer.wrap(f"cli.{name}", dispatch)(argv)

    patch(cli, "dispatch", traced_dispatch)

    wrap(collector, "full_scan", "collector.full_scan")
    wrap(collector, "control_values", "collector.control_values")
    wrap(collector, "persist_report", "collector.persist_report")
    sink_factory = collector.ndjson_record_sink
    patch(collector, "ndjson_record_sink",
          lambda fh: tracer.leaf("collector.record_sink", sink_factory(fh)))
    wrap(umask, "infer_report_masks", "umask.infer_report_masks")
    wrap(detection, "collect_samples", "detection.collect_samples")
    wrap(sidechannel, "recover_byte", "sidechannel.recover_byte")

    traced_train = tracer.wrap("detection.train", detection.train)

    def train(*args, **kwargs):
        result = traced_train(*args, **kwargs)
        tracer.counts["detection.train.epochs"] += result.epochs
        return result

    patch(detection, "train", train)

    screen_events = sidechannel.screen_channel_events

    def screen_channel_events(selectors, *args, **kwargs):
        selectors = list(selectors)
        kept = screen_events(selectors, *args, **kwargs)
        tracer.counts["sidechannel.screened"] += len(selectors)
        tracer.counts["sidechannel.kept"] += len(kept)
        return kept

    patch(sidechannel, "screen_channel_events", screen_channel_events)

    def undo() -> None:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)

    return undo

