"""Spans recorded from the benchmark's side of the program's public API.

A :class:`Tracer` keeps every span in memory as ``(name, start, end,
run)``: ``run`` is one id per spec (or per replay pass), and parents are
recovered afterwards from interval nesting, since every span of a run
is recorded on one thread. Spans come from three places, none of them
inside ``src/``:

* ``with tracer.span(name):`` around a call the benchmark makes
  (``RunSpec(...)``, ``ScenarioSpec.build``, ``FastSimulator(...)``, …);
* :meth:`Tracer.wrap`, which replaces a bound method *on one instance*
  (``sim.round_begin``, ``balancer.step``, ``system.move``,
  ``cache.get``) by a timed pass-through — the class and every other
  instance are untouched;
* :class:`LayerProbe`, a :class:`~repro.sim.telemetry.CountersProbe`
  that turns the kernel's existing phase spans (``play_round``,
  ``observe``, ``record``, ``converge``, ``wake_wave``) into tracer
  spans and keeps the decision counters.

Benchmark roots are named ``bench.*``; everything else is a named
layer. :func:`analyse` computes each span's self time (its duration
minus its children's) and the share of root time no layer claims.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

from repro.sim.telemetry import CountersProbe

perf = time.perf_counter

#: kernel phase span -> traced span name.
_PHASES = {
    "play_round": "sim.kernel.play_round",
    "observe": "sim.kernel.observe",
    "record": "sim.kernel.record",
    "converge": "sim.kernel.converge",
    "wake_wave": "sim.events.wake_wave",
}


class NullTracer:
    """Tracing off: every hook is a no-op and engines get the null probe."""

    enabled = False
    keep_rounds = False

    def span(self, name: str):
        return nullcontext()

    def begin_run(self) -> None:
        pass

    def wrap(self, obj, attr: str, name: str) -> None:
        pass

    def probe(self):
        return "null"


class Tracer:
    """In-memory span store for one traced pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.run_id = 0
        self.counters: dict[str, int] = {}
        self.round_ms: list[float] = []
        #: per-round wall times are kept only while this is set (the
        #: steady workload clears it for its untimed warm-up).
        self.keep_rounds = True

    def begin_run(self) -> None:
        """Start a new run id: spans recorded from now on belong to it."""
        self.run_id += 1

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, self.run_id))

    @contextmanager
    def span(self, name: str):
        t0 = perf()
        try:
            yield
        finally:
            self.record(name, t0, perf())

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as span *name* (this instance only)."""
        fn = getattr(obj, attr)
        record = self.record

        def traced(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, t0, perf())

        setattr(obj, attr, traced)

    def probe(self) -> "LayerProbe":
        return LayerProbe(self)

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans (with parent indices) and *extra* as JSON."""
        parents = _parents(self.spans)
        spans = [
            {"name": n, "start": s, "end": e, "run": r, "parent": p}
            for (n, s, e, r), p in zip(self.spans, parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": spans}, fh)


class LayerProbe(CountersProbe):
    """Kernel phase spans into the tracer; counters summed across runs.

    ``finalize`` leaves ``result.telemetry`` unset, so a traced result
    serialises to the same payload as an untraced one.
    """

    name = "counters"

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        self._round_t0 = 0.0

    def span(self, name: str, start_s: float, end_s: float) -> None:
        tracer = self.tracer
        tracer.record(_PHASES.get(name, "sim.kernel." + name), start_s, end_s)
        if name == "play_round":
            self._round_t0 = start_s
        elif name == "converge" and tracer.keep_rounds:
            tracer.round_ms.append((end_s - self._round_t0) * 1e3)

    def finalize(self, result) -> None:
        totals = self.tracer.counters
        for key, n in self.counters.items():
            totals[key] = totals.get(key, 0) + n


def _parents(spans) -> list[int | None]:
    """Index of each span's innermost enclosing span of the same run."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][3], spans[i][1], -spans[i][2]))
    parents: list[int | None] = [None] * len(spans)
    stack: list[int] = []
    for i in order:
        _, start, _, run = spans[i]
        while stack and (spans[stack[-1]][3] != run
                         or spans[stack[-1]][2] <= start):
            stack.pop()
        parents[i] = stack[-1] if stack else None
        stack.append(i)
    return parents


def analyse(spans) -> tuple[dict[str, float], float, float]:
    """Self seconds per span name, root seconds, unattributed root seconds.

    Roots are the ``bench.*`` spans; a root's self time is the part of
    it no named layer covers.
    """
    parents = _parents(spans)
    child = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p is not None:
            child[p] += spans[i][2] - spans[i][1]
    self_s: dict[str, float] = {}
    root_s = unattributed = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        own = (end - start) - child[i]
        if name.startswith("bench."):
            if parents[i] is None:
                root_s += end - start
            unattributed += own
        else:
            self_s[name] = self_s.get(name, 0.0) + own
    return self_s, root_s, unattributed
