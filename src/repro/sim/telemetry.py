"""Probe-based telemetry: per-phase spans, structured counters, traces.

The Recorder (:mod:`repro.sim.recording`) answers *what happened to the
load surface*; it says nothing about where the engines spend their time
or how often the fast-path screens actually fire. This module adds the
second axis of observability as the same kind of policy object: a
:class:`Probe` that the :class:`~repro.sim.kernel.SimulationLoop` and
every engine driver emit into — wall-time *spans* for each kernel phase
(``play_round`` / ``observe`` / ``record`` / ``converge``, plus
``wake_wave`` drains in the event engines) and structured *counters*
from the decision bodies (Phase-A/B decisions evaluated, screen
hit/miss rates, no-effect waves skipped, RNG draws, transfers
issued/refused, event-queue pops).

Three implementations ship:

========================= ==========================================
``null``                  the default — ``enabled`` is False and every
                          instrumentation site is gated on that flag,
                          so the run is provably unchanged: records,
                          RNG stream and cache keys are untouched
``counters``              O(1) aggregate dict (counter totals plus
                          per-phase call counts and summed wall time)
                          attached to ``SimulationResult.telemetry``
                          and serialised in the wire format
``trace[:PATH]``          everything ``counters`` keeps *plus* a
                          Chrome trace-event JSON written per run —
                          loadable in ``chrome://tracing`` or Perfetto
========================= ==========================================

Probes are named by spec strings (``"null"``, ``"counters"``,
``"trace:profile.json"``) so they can ride inside a
:class:`~repro.runner.spec.RunSpec` and be selected from the CLI
(``--probe``). The hot-path contract mirrors the recorder's: callers
gate *all* instrumentation on ``probe.enabled`` (a plain class
attribute), so the null probe costs one boolean check per phase and
nothing per decision.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Union

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import SimulationResult

__all__ = [
    "Probe",
    "NullProbe",
    "CountersProbe",
    "TraceProbe",
    "ProbeSpec",
    "make_probe",
    "probe_tag",
    "DEFAULT_TRACE_PATH",
]

#: what a ``probe=`` engine/spec knob accepts.
ProbeSpec = Union[str, "Probe"]

#: where a bare ``trace`` spec (no path) writes its JSON.
DEFAULT_TRACE_PATH = "pplb-trace.json"


class Probe:
    """Telemetry sink: what the kernel and engines emit while running.

    The lifecycle mirrors :class:`~repro.sim.recording.Recorder`:
    :meth:`start` once per run, :meth:`incr`/:meth:`span` on the hot
    path (both gated on :attr:`enabled` by the caller), and
    :meth:`finalize` once at the end, installing whatever was kept into
    :attr:`~repro.sim.results.SimulationResult.telemetry`.

    ``enabled`` is a class attribute, not a property — the hot-path
    check is one attribute load. The base class doubles as the null
    probe: disabled, records nothing, finalizes to nothing.
    """

    #: spec-string name (subclasses override; ``trace`` renders ``trace:PATH``).
    name = "null"

    #: callers skip every instrumentation site when this is False.
    enabled = False

    def start(self) -> None:
        """Reset per-run state (probes are reusable across runs)."""

    def incr(self, name: str, n: int = 1) -> None:
        """Add *n* to the structured counter *name*."""

    def span(self, name: str, start_s: float, end_s: float) -> None:
        """Record one completed wall-time span (``perf_counter`` seconds)."""

    def finalize(self, result: "SimulationResult") -> None:
        """Install the kept telemetry into *result* (and/or write files)."""

    def tag(self) -> str:
        """The spec string this probe answers to (cache-key form)."""
        return self.name


class NullProbe(Probe):
    """The default: telemetry off, zero overhead, zero behavior change."""


#: stateless, so one shared instance serves every engine.
NULL_PROBE = NullProbe()


class CountersProbe(Probe):
    """O(1) aggregates: counter totals plus per-phase call/time sums.

    Nothing per-event is retained; :meth:`finalize` attaches one dict —
    ``{"probe", "counters", "phases"}`` — to the result, which the wire
    format serialises (and omits entirely for probe-less runs, keeping
    legacy payloads loadable).
    """

    name = "counters"
    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.phases: dict[str, list] = {}
        self._t0 = 0.0

    def start(self) -> None:
        self.counters = {}
        self.phases = {}
        self._t0 = time.perf_counter()

    def incr(self, name: str, n: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def span(self, name: str, start_s: float, end_s: float) -> None:
        phase = self.phases.get(name)
        if phase is None:
            self.phases[name] = phase = [0, 0.0]
        phase[0] += 1
        phase[1] += end_s - start_s

    def telemetry(self) -> dict[str, object]:
        """The JSON-ready aggregate block this probe kept."""
        return {
            "probe": self.tag(),
            "counters": dict(self.counters),
            "phases": {
                name: {"calls": calls, "total_s": total}
                for name, (calls, total) in self.phases.items()
            },
        }

    def finalize(self, result: "SimulationResult") -> None:
        result.telemetry = self.telemetry()


class TraceProbe(CountersProbe):
    """Everything ``counters`` keeps, plus a Chrome trace-event JSON.

    Each span becomes a complete (``"ph": "X"``) trace event with
    microsecond timestamps relative to run start; :meth:`finalize`
    writes ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` to
    :attr:`path` — the format ``chrome://tracing`` and Perfetto load
    directly — with the counter totals riding along under ``otherData``
    (ignored by the viewers, kept for humans and scripts).
    """

    name = "trace"

    def __init__(self, path: str = DEFAULT_TRACE_PATH):
        super().__init__()
        if not path:
            raise ConfigurationError("trace probe needs a non-empty path")
        self.path = str(path)
        self._events: list[dict] = []

    def start(self) -> None:
        super().start()
        self._events = []

    def span(self, name: str, start_s: float, end_s: float) -> None:
        super().span(name, start_s, end_s)
        self._events.append(
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start_s - self._t0) * 1e6,
                "dur": (end_s - start_s) * 1e6,
            }
        )

    def trace_dict(self) -> dict[str, object]:
        """The JSON-ready Chrome trace-event document."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {"counters": dict(self.counters)},
        }

    def finalize(self, result: "SimulationResult") -> None:
        super().finalize(result)
        telemetry = result.telemetry
        assert telemetry is not None
        telemetry["trace_path"] = self.path
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_dict(), fh)

    def tag(self) -> str:
        return f"trace:{self.path}"


def make_probe(spec: ProbeSpec = "null") -> Probe:
    """Build a probe from a spec string (or pass an instance through).

    Accepted spec strings: ``"null"``, ``"counters"``, ``"trace"``
    (writes :data:`DEFAULT_TRACE_PATH`) and ``"trace:<path>"``. Unknown
    specs raise :class:`~repro.exceptions.ConfigurationError`.
    """
    if isinstance(spec, Probe):
        return spec
    if spec == "null":
        return NULL_PROBE
    if spec == "counters":
        return CountersProbe()
    if spec == "trace":
        return TraceProbe()
    if isinstance(spec, str) and spec.startswith("trace:"):
        return TraceProbe(spec.split(":", 1)[1])
    raise ConfigurationError(
        f"unknown probe spec {spec!r}; expected 'null', 'counters', "
        f"'trace' or 'trace:<path>'"
    )


def probe_tag(spec: ProbeSpec) -> str:
    """Canonical spec string for *spec* (validates along the way)."""
    return make_probe(spec).tag()
