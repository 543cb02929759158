"""Composable scenarios: orthogonal workload components and their algebra.

The paper's claims are about how the balancer behaves across *settings*
— topologies, load shapes, heterogeneity, churn — so a scenario is data,
not code: a :class:`ScenarioSpec` assembled from five orthogonal,
registry-driven component kinds:

========================  =====================================================
kind                      examples
========================  =====================================================
``topology``              ``mesh`` / ``torus`` / ``hypercube`` / ``random`` / …
``placement``             ``hotspot`` / ``uniform`` / ``clustered`` / ``power-law`` / …
``links``                 ``unit`` / ``jittered`` / ``faulty`` / ``fault-storm``
``heterogeneity``         ``stragglers`` / ``tiered`` node speeds
``dynamics``              ``churn`` / ``bursty`` / ``diurnal`` / ``moving-hotspot`` / ``replay``
========================  =====================================================

Every component owns its typed keyword parameters (unknown keys raise
:class:`~repro.exceptions.ConfigurationError` naming the accepted keys)
and a distinct derived RNG stream, so adding jitter to the links can
never perturb the placement draws.

**Grammar.** Anywhere a scenario name is accepted, a compact composed
string works too::

    mesh:16x16+hotspot+stragglers:frac=0.1+diurnal

Components are joined with ``+``; each is ``name`` or ``name:args``
where *args* is either ``k=v,k=v`` pairs or, for topologies, a
positional shorthand (``16x16``, ``6``). Kinds are inferred from the
component name; at most one component per kind; a topology is required,
placement defaults to ``hotspot`` and links to ``unit``.
:meth:`ScenarioSpec.canonical` renders the unique canonical string form
(sorted keys, normalised values) — the identity the runner's cache
hashes.

**Legacy aliases.** The twelve historical scenario names (and the new
pre-composed ones) are registered through :func:`register_alias` by
:mod:`repro.workloads.scenarios`; an alias maps the legacy flat kwargs
(``side``, ``n_tasks``, …) onto components and builds a bit-for-bit
identical :class:`Scenario` to the constructor it replaced.

**RNG streams.** ``build(seed)`` derives one independent stream per
component kind via :func:`repro.rng.derive`: placement = 0, links = 1,
heterogeneity = 2, dynamics = 3 — exactly the streams the legacy
constructors used, which is what makes alias parity (and therefore
cache-key continuity) possible. Components needing several draws key
sub-streams under their kind (``derive(seed, 3, 1)``), so composed
axes stay pairwise independent; the one exception is the historical
``bursty-arrivals`` *alias*, whose hot-node choice keeps its
pre-composition stream 2 for bit-for-bit parity (see ``_dyn_bursty``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.network import builders
from repro.network.links import LinkAttributes
from repro.network.topology import Topology
from repro.rng import RngLike, derive, ensure_rng
from repro.tasks.task import TaskSystem

# Direct module import (not an attribute read on the parent package):
# this module must stay importable while ``repro.workloads``'s own
# __init__ is still executing.
import repro.workloads.distributions as distributions
from repro.workloads.dynamic import (
    DiurnalWorkload,
    DynamicWorkload,
    MovingHotspotWorkload,
)
from repro.workloads.traces import TraceReplay, record_trace

#: component kinds in canonical order (also the build order).
KINDS = ("topology", "placement", "links", "heterogeneity", "dynamics")

#: derived RNG stream key per component kind (legacy-compatible).
STREAMS = {"placement": 0, "links": 1, "heterogeneity": 2, "dynamics": 3}


# --------------------------------------------------------------------- #
# The built object
# --------------------------------------------------------------------- #


@dataclass
class Scenario:
    """One fully-built experimental setting.

    Attributes
    ----------
    name:
        Registered alias this scenario was built from, or the canonical
        composed string.
    topology, links, system:
        The network, its link attributes, and the populated task system.
    task_ids:
        Ids of the initially created tasks.
    node_speeds:
        Optional per-node processing speeds (None = homogeneous). The
        engines use them for the effective metric surface; the event
        engine additionally derives per-node balancing cadences from
        them (a slow node balances less often).
    dynamic:
        Optional workload churn process the engines should drive (None
        = static workload).
    spec:
        The :class:`ScenarioSpec` this scenario was built from (None
        for scenarios assembled by hand).
    """

    name: str
    topology: Topology
    links: LinkAttributes
    system: TaskSystem
    task_ids: list[int] = field(default_factory=list)
    node_speeds: np.ndarray | None = None
    dynamic: DynamicWorkload | None = None
    spec: "ScenarioSpec | None" = None


# --------------------------------------------------------------------- #
# Typed parameters
# --------------------------------------------------------------------- #

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One typed component parameter: default, converter and bounds."""

    default: object = _REQUIRED
    convert: type = float
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple[str, ...] | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def validate(self, owner: str, key: str, value):
        """Convert and range-check *value*; raise ConfigurationError."""
        if value is None:
            return None
        if self.convert is int and isinstance(value, float) and not value.is_integer():
            # int() would silently truncate 4.9 -> 4: a different machine
            # than the one asked for. Typed params reject, not round.
            raise ConfigurationError(
                f"{owner}: parameter {key!r} expects int, got {value!r}"
            )
        try:
            value = self.convert(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{owner}: parameter {key!r} expects {self.convert.__name__}, "
                f"got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            # NaN slips through every < / > bound check; reject at the
            # validation layer instead of crashing later in a worker.
            raise ConfigurationError(
                f"{owner}: parameter {key!r} must be finite, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"{owner}: parameter {key!r} must be one of "
                f"{sorted(self.choices)}, got {value!r}"
            )
        if self.lo is not None:
            bad = value <= self.lo if self.lo_open else value < self.lo
            if bad:
                op = ">" if self.lo_open else ">="
                raise ConfigurationError(
                    f"{owner}: parameter {key!r} must be {op} {self.lo}, got {value}"
                )
        if self.hi is not None:
            bad = value >= self.hi if self.hi_open else value > self.hi
            if bad:
                op = "<" if self.hi_open else "<="
                raise ConfigurationError(
                    f"{owner}: parameter {key!r} must be {op} {self.hi}, got {value}"
                )
        return value


def _p_int(default=_REQUIRED, lo=1, hi=None, hi_open=False) -> Param:
    return Param(default=default, convert=int, lo=lo, hi=hi, hi_open=hi_open)


def _p_float(default=_REQUIRED, lo=None, hi=None, lo_open=False, hi_open=False) -> Param:
    return Param(
        default=default, convert=float, lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open
    )


def _p_str(default=_REQUIRED, choices=None) -> Param:
    return Param(default=default, convert=str, choices=choices)


# --------------------------------------------------------------------- #
# Components and their registries
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Component:
    """A registered scenario component: typed params plus a builder.

    ``build``'s signature depends on the kind — see the builder
    functions below. ``positional`` maps a shorthand arity onto
    parameter names (``mesh:16x16`` → ``rows=16, cols=16``);
    ``normalize`` rewrites validated kwargs into a canonical form so
    equivalent specs share one canonical string (and cache key).
    """

    kind: str
    name: str
    summary: str
    params: Mapping[str, Param]
    build: Callable
    positional: Mapping[int, tuple[str, ...]] = field(default_factory=dict)
    normalize: Callable[[dict], dict] | None = None

    def validate(self, kwargs: Mapping) -> dict:
        """Validate *kwargs* against the declared params; return them
        converted (and normalised), defaults *not* filled in."""
        unknown = set(kwargs) - set(self.params)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {sorted(unknown)} for {self.kind} "
                f"component {self.name!r}; accepted: {sorted(self.params)}"
            )
        out = {
            key: self.params[key].validate(f"{self.kind} {self.name!r}", key, value)
            for key, value in kwargs.items()
        }
        out = {k: v for k, v in out.items() if v is not None}
        if self.normalize is not None:
            out = self.normalize(out)
        # Drop values that equal the parameter default: the spec keeps
        # only what deviates, so `mesh:side=8` and `mesh` are the same
        # spec — one canonical string, one cache entry. (A component
        # default may only change together with a simulation-behaviour
        # version bump, which already invalidates the cache.)
        return {
            k: v for k, v in out.items()
            if self.params[k].required or v != self.params[k].default
        }

    def resolved(self, kwargs: Mapping) -> dict:
        """Validated kwargs with defaults filled in (build-time view)."""
        out = {
            key: param.default
            for key, param in self.params.items()
            if not param.required and param.default is not None
        }
        out.update(self.validate(kwargs))
        missing = [
            key
            for key, param in self.params.items()
            if param.required and key not in out
        ]
        if missing:
            raise ConfigurationError(
                f"{self.kind} component {self.name!r} is missing required "
                f"parameter(s) {sorted(missing)}"
            )
        return out


#: kind -> name -> Component
REGISTRY: dict[str, dict[str, Component]] = {kind: {} for kind in KINDS}
#: flat name -> Component (names are globally unique across kinds)
_BY_NAME: dict[str, Component] = {}


def register_component(component: Component) -> Component:
    """Register *component*; names must be unique across all kinds."""
    if component.kind not in REGISTRY:
        raise ConfigurationError(
            f"unknown component kind {component.kind!r}; kinds: {list(KINDS)}"
        )
    if component.name in _BY_NAME:
        raise ConfigurationError(
            f"component name {component.name!r} is already registered "
            f"(as a {_BY_NAME[component.name].kind} component)"
        )
    REGISTRY[component.kind][component.name] = component
    _BY_NAME[component.name] = component
    return component


def component_names(kind: str | None = None) -> list[str]:
    """Registered component names, optionally restricted to *kind*."""
    if kind is None:
        return sorted(_BY_NAME)
    if kind not in REGISTRY:
        raise ConfigurationError(
            f"unknown component kind {kind!r}; kinds: {list(KINDS)}"
        )
    return sorted(REGISTRY[kind])


def get_component(name: str) -> Component:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario component {name!r}; available: "
            + ", ".join(
                f"{kind}: {sorted(REGISTRY[kind])}" for kind in KINDS if REGISTRY[kind]
            )
        )


# --------------------------------------------------------------------- #
# ComponentSpec / ScenarioSpec
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ComponentSpec:
    """One chosen component plus its (validated, non-default) kwargs."""

    kind: str
    name: str
    kwargs: tuple[tuple[str, object], ...] = ()

    @property
    def component(self) -> Component:
        return _BY_NAME[self.name]

    def kwargs_dict(self) -> dict:
        return dict(self.kwargs)

    def with_kwargs(self, extra: Mapping) -> "ComponentSpec":
        merged = {**self.kwargs_dict(), **extra}
        return make_component(self.name, merged, kind=self.kind)

    def token(self) -> str:
        """Canonical grammar token, e.g. ``stragglers:frac=0.1``."""
        if not self.kwargs:
            return self.name
        args = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(self.kwargs))
        return f"{self.name}:{args}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def make_component(
    name: str, kwargs: Mapping | None = None, kind: str | None = None
) -> ComponentSpec:
    """Validated :class:`ComponentSpec` for registered component *name*."""
    comp = get_component(name)
    if kind is not None and comp.kind != kind:
        raise ConfigurationError(
            f"component {name!r} is a {comp.kind} component, not {kind}"
        )
    validated = comp.validate(kwargs or {})
    return ComponentSpec(comp.kind, comp.name, tuple(sorted(validated.items())))


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as data: one component per kind, serialisable.

    Build one from the grammar (:func:`parse_scenario`), from parts
    (:meth:`compose`) or from a plain dict (:meth:`from_dict`); realise
    it with :meth:`build`. ``alias`` records the registered name this
    spec was resolved from (``Scenario.name`` keeps legacy names
    stable; the cache key of a bare legacy name is unchanged).
    """

    topology: ComponentSpec
    placement: ComponentSpec
    links: ComponentSpec
    heterogeneity: ComponentSpec | None = None
    dynamics: ComponentSpec | None = None
    alias: str | None = None

    # ------------------------------ assembly -------------------------- #

    @classmethod
    def compose(
        cls,
        topology: str | ComponentSpec,
        placement: str | ComponentSpec = "hotspot",
        links: str | ComponentSpec = "unit",
        heterogeneity: str | ComponentSpec | None = None,
        dynamics: str | ComponentSpec | None = None,
        alias: str | None = None,
    ) -> "ScenarioSpec":
        """Assemble a spec from component names/tokens or ComponentSpecs."""

        def coerce(value, kind):
            if value is None:
                return None
            if isinstance(value, ComponentSpec):
                if value.kind != kind:
                    raise ConfigurationError(
                        f"expected a {kind} component, got {value.kind} "
                        f"component {value.name!r}"
                    )
                return value
            spec = _parse_token(str(value))
            if spec.kind != kind:
                raise ConfigurationError(
                    f"expected a {kind} component, got {spec.kind} "
                    f"component {spec.name!r}"
                )
            return spec

        return cls(
            topology=coerce(topology, "topology"),
            placement=coerce(placement, "placement"),
            links=coerce(links, "links"),
            heterogeneity=coerce(heterogeneity, "heterogeneity"),
            dynamics=coerce(dynamics, "dynamics"),
            alias=alias,
        )

    def components(self) -> list[ComponentSpec]:
        present = [self.topology, self.placement, self.links,
                   self.heterogeneity, self.dynamics]
        return [c for c in present if c is not None]

    # ------------------------------ identity -------------------------- #

    def canonical(self) -> str:
        """The unique canonical grammar string for this composition.

        Components appear in kind order with sorted ``k=v`` kwargs;
        default links (``unit`` with no overrides) and absent
        heterogeneity/dynamics are omitted. Parsing the canonical
        string reproduces this spec exactly (minus the alias tag).
        """
        parts = [self.topology.token(), self.placement.token()]
        if self.links.kwargs or self.links.name != "unit":
            parts.insert(2, self.links.token())
        for comp in (self.heterogeneity, self.dynamics):
            if comp is not None:
                parts.append(comp.token())
        return "+".join(parts)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready; inverts via :meth:`from_dict`)."""
        out: dict = {}
        for kind in KINDS:
            comp: ComponentSpec | None = getattr(self, kind)
            if comp is not None:
                out[kind] = {"name": comp.name, **comp.kwargs_dict()}
        if self.alias:
            out["alias"] = self.alias
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Rebuild a spec exported with :meth:`to_dict`."""
        parts: dict = {"alias": data.get("alias")}
        for kind in KINDS:
            entry = data.get(kind)
            if entry is None:
                parts[kind] = None
                continue
            entry = dict(entry)
            try:
                name = entry.pop("name")
            except KeyError:
                raise ConfigurationError(
                    f"scenario spec {kind} entry is missing its 'name'"
                )
            parts[kind] = make_component(name, entry, kind=kind)
        if parts.get("topology") is None:
            raise ConfigurationError("scenario spec needs a topology component")
        if parts.get("placement") is None:
            parts["placement"] = make_component("hotspot", {}, kind="placement")
        if parts.get("links") is None:
            parts["links"] = make_component("unit", {}, kind="links")
        return cls(**parts)

    # ------------------------------ overrides ------------------------- #

    def with_overrides(self, kwargs: Mapping) -> "ScenarioSpec":
        """Route flat *kwargs* onto components by accepted-key lookup.

        A key accepted by exactly one present component is routed there;
        a key accepted by several raises (set it inline in the grammar
        instead); a key accepted by none raises with the accepted keys
        per component. Composed specs are deliberately *strict* — the
        ignore-what-you-don't-read tolerance survives only for
        registered legacy names (see :func:`resolve_scenario`), so a
        mistyped or legacy-spelled key (``straggler_frac`` instead of
        ``frac``) can never silently run the default experiment.
        """
        if not kwargs:
            return self
        routed: dict[str, dict] = {}
        comps = self.components()
        for key, value in kwargs.items():
            owners = [c for c in comps if key in c.component.params]
            if len(owners) > 1:
                names = [c.name for c in owners]
                raise ConfigurationError(
                    f"scenario override {key!r} is ambiguous between "
                    f"components {names}; set it inline, e.g. "
                    f"'{owners[0].name}:{key}={_fmt(value)}'"
                )
            if not owners:
                accepted = {c.name: sorted(c.component.params) for c in comps}
                raise ConfigurationError(
                    f"unknown scenario override {key!r}; accepted per "
                    f"component: {accepted}"
                )
            routed.setdefault(owners[0].name, {})[key] = value
        spec = self
        for kind in KINDS:
            comp: ComponentSpec | None = getattr(spec, kind)
            if comp is not None and comp.name in routed:
                spec = replace(spec, **{kind: comp.with_kwargs(routed[comp.name])})
        return spec

    # ------------------------------ build ----------------------------- #

    def build(self, seed: RngLike = 0, topology=None) -> Scenario:
        """Realise the spec into a :class:`Scenario`.

        Each component kind consumes its own derived stream
        (:data:`STREAMS`), so component choices never perturb each
        other's draws and legacy aliases reproduce their historical
        constructors bit for bit.

        *topology* optionally supplies a pre-built topology to use
        instead of building one. Topology construction consumes no seed
        (networks are deterministic given the spec), so passing the
        topology built by the same spec yields a value-identical
        scenario — the replicate-batched engine uses this to share one
        :class:`~repro.network.topology.Topology` object (and its CSR
        adjacency) across all seeds of a batch.
        """
        if topology is not None:
            topo = topology
        else:
            topo = self.topology.component.build(**self.topology.component.resolved(
                self.topology.kwargs_dict()))
        links_comp = self.links.component
        links = links_comp.build(
            topo, derive(seed, STREAMS["links"]),
            **links_comp.resolved(self.links.kwargs_dict()),
        )
        system = TaskSystem(topo)
        placement_comp = self.placement.component
        task_ids = placement_comp.build(
            system, derive(seed, STREAMS["placement"]),
            **placement_comp.resolved(self.placement.kwargs_dict()),
        )
        node_speeds = None
        if self.heterogeneity is not None:
            het = self.heterogeneity.component
            node_speeds = het.build(
                topo, ensure_rng(derive(seed, STREAMS["heterogeneity"])),
                **het.resolved(self.heterogeneity.kwargs_dict()),
            )
        dynamic = None
        if self.dynamics is not None:
            from_legacy_alias = (
                self.alias is not None
                and self.alias in ALIASES
                and ALIASES[self.alias].legacy
            )
            dyn = self.dynamics.component
            dynamic = dyn.build(
                topo, system, seed, _legacy=from_legacy_alias,
                **dyn.resolved(self.dynamics.kwargs_dict()),
            )
        name = self.alias if self.alias else self.canonical()
        return Scenario(
            name, topo, links, system, task_ids,
            node_speeds=node_speeds, dynamic=dynamic, spec=self,
        )


# --------------------------------------------------------------------- #
# Grammar
# --------------------------------------------------------------------- #


def _parse_value(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_token(token: str) -> ComponentSpec:
    """Parse one grammar token (``name`` or ``name:args``)."""
    token = token.strip()
    if not token:
        raise ConfigurationError("empty scenario component")
    name, _, argstr = token.partition(":")
    comp = get_component(name.strip())
    kwargs: dict = {}
    argstr = argstr.strip()
    if argstr:
        if "=" in argstr:
            for pair in argstr.split(","):
                key, sep, raw = pair.partition("=")
                if not sep or not key.strip():
                    raise ConfigurationError(
                        f"malformed argument {pair!r} in component {token!r}; "
                        "expected k=v[,k=v...]"
                    )
                kwargs[key.strip()] = _parse_value(raw.strip())
        else:
            values = argstr.split("x")
            if any(v.strip() == "" for v in values):
                # '16x' or '8xx16' is a typo, not a smaller request.
                raise ConfigurationError(
                    f"malformed positional shorthand {argstr!r} in "
                    f"component {comp.name!r}"
                )
            keys = comp.positional.get(len(values))
            if keys is None:
                raise ConfigurationError(
                    f"component {comp.name!r} does not accept the positional "
                    f"shorthand {argstr!r}; use k=v form (accepted keys: "
                    f"{sorted(comp.params)})"
                )
            kwargs = dict(zip(keys, (_parse_value(v) for v in values)))
    return make_component(comp.name, kwargs)


def _ensure_aliases() -> None:
    # Alias registration happens at scenarios-module import; the lazy
    # import avoids a cycle (scenarios imports this module at its top).
    import repro.workloads.scenarios  # noqa: F401


#: registered aliases: name -> (accepted legacy kwargs, spec factory)
@dataclass(frozen=True)
class Alias:
    """A registered scenario name mapping flat kwargs onto a spec.

    ``legacy`` marks the pre-composition names: only those keep the
    historical ignore-unread-shared-kwargs tolerance (they have years
    of grids and caches built on it); names registered after the
    composition system validate strictly against ``accepts``.
    """

    name: str
    summary: str
    accepts: frozenset[str]
    make: Callable[[Mapping], ScenarioSpec]
    legacy: bool = False


ALIASES: dict[str, Alias] = {}


def register_alias(
    name: str,
    summary: str,
    accepts: Iterable[str],
    make: Callable[[Mapping], ScenarioSpec],
    legacy: bool = False,
) -> None:
    """Register scenario *name* as an alias for a composed spec."""
    if name in ALIASES:
        raise ConfigurationError(f"scenario alias {name!r} is already registered")
    ALIASES[name] = Alias(name, summary, frozenset(accepts), make, legacy)


def resolve_scenario(name: str, kwargs: Mapping | None = None) -> ScenarioSpec:
    """Resolve a scenario *name* (alias or composed string) to a spec.

    For aliases the legacy kwarg convention applies: keys the alias
    does not read are ignored *if* they belong to the historical shared
    set (``SCENARIO_KWARGS``) — one kwargs dict may serve a whole grid
    — while anything else raises with the alias's accepted keys. For
    composed strings, kwargs are routed per component
    (:meth:`ScenarioSpec.with_overrides`).
    """
    _ensure_aliases()
    kwargs = dict(kwargs or {})
    alias = ALIASES.get(name)
    if alias is not None:
        used = _check_alias_kwargs(alias, kwargs)
        spec = alias.make(used)
        return replace(spec, alias=name)
    spec = parse_scenario(name)
    return spec.with_overrides(kwargs)


def _check_alias_kwargs(alias: Alias, kwargs: Mapping) -> dict:
    """Validate flat kwargs against *alias*; return the keys it reads.

    Legacy aliases tolerate (and ignore) unread keys from the
    historical shared-grid set; post-composition aliases are strict.
    """
    if alias.legacy:
        from repro.workloads.scenarios import SCENARIO_KWARGS

        unknown = set(kwargs) - SCENARIO_KWARGS
        tolerated = SCENARIO_KWARGS - alias.accepts
        if unknown:
            raise ConfigurationError(
                f"unknown kwargs {sorted(unknown)} for scenario "
                f"{alias.name!r}; accepted: {sorted(alias.accepts)} (keys "
                f"from the shared legacy set are tolerated and "
                f"ignored: {sorted(tolerated)})"
            )
    else:
        unknown = set(kwargs) - alias.accepts
        if unknown:
            raise ConfigurationError(
                f"unknown kwargs {sorted(unknown)} for scenario "
                f"{alias.name!r}; accepted: {sorted(alias.accepts)}"
            )
    return {k: v for k, v in kwargs.items() if k in alias.accepts}


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a scenario string: a registered alias or a composed form.

    Raises :class:`~repro.exceptions.ConfigurationError` on unknown
    names, unknown component parameters, duplicate kinds or a missing
    topology.
    """
    _ensure_aliases()
    text = str(text).strip()
    if not text:
        raise ConfigurationError("empty scenario name")
    alias = ALIASES.get(text)
    if alias is not None:
        return replace(alias.make({}), alias=text)
    if "+" not in text and text.partition(":")[0].strip() not in _BY_NAME:
        raise ConfigurationError(
            f"unknown scenario {text!r}; registered scenarios: "
            f"{sorted(ALIASES)} — or compose components "
            f"(e.g. 'mesh:16x16+hotspot'; see component kinds in "
            f"repro.workloads.composition)"
        )
    chosen: dict[str, ComponentSpec] = {}
    for token in text.split("+"):
        spec = _parse_token(token)
        if spec.kind in chosen:
            raise ConfigurationError(
                f"scenario {text!r} names two {spec.kind} components "
                f"({chosen[spec.kind].name!r} and {spec.name!r})"
            )
        chosen[spec.kind] = spec
    if "topology" not in chosen:
        raise ConfigurationError(
            f"scenario {text!r} needs a topology component; available: "
            f"{component_names('topology')} (or a registered name: "
            f"{sorted(ALIASES)})"
        )
    return ScenarioSpec(
        topology=chosen["topology"],
        placement=chosen.get("placement", make_component("hotspot")),
        links=chosen.get("links", make_component("unit")),
        heterogeneity=chosen.get("heterogeneity"),
        dynamics=chosen.get("dynamics"),
    )


def canonical_scenario_name(name: str, kwargs: Mapping | None = None) -> str:
    """Cache-key identity of a scenario string, in one parse.

    Registered names canonicalise to themselves — the canonical JSON
    (and therefore the cache key) of every pre-composition spec is
    unchanged, so existing caches keep replaying. Composed strings
    canonicalise to their unique canonical grammar form, so equivalent
    spellings share one cache entry.

    When *kwargs* is given (``RunSpec.scenario_kwargs``), the flat
    overrides are validated in the same pass — routing and values —
    but are **not** folded into the returned identity: the runner
    hashes them as a separate spec field.
    """
    _ensure_aliases()
    kwargs = dict(kwargs or {})
    alias = ALIASES.get(name)
    if alias is not None:
        if kwargs:
            alias.make(_check_alias_kwargs(alias, kwargs))  # validates
        return name
    spec = parse_scenario(name)
    if kwargs:
        spec.with_overrides(kwargs)  # validates routing + values
    return spec.canonical()


def compose_scenarios(
    topologies: Sequence[str],
    placements: Sequence[str] = ("hotspot",),
    links: Sequence[str] = ("unit",),
    heterogeneity: Sequence[str | None] = (None,),
    dynamics: Sequence[str | None] = (None,),
) -> list[str]:
    """The scenario algebra: a cross product over component axes.

    Each axis is a sequence of component tokens (``None`` = omit the
    optional kind); the result is the list of canonical composed
    strings in deterministic (topology-major) order, ready to feed
    :func:`repro.runner.spec.expand_grid` — the workload cross product
    as data.
    """
    if not topologies:
        raise ConfigurationError("compose_scenarios needs at least one topology")
    out = []
    for topo in topologies:
        for place in placements or ("hotspot",):
            for link in links or ("unit",):
                for het in heterogeneity or (None,):
                    for dyn in dynamics or (None,):
                        out.append(
                            ScenarioSpec.compose(
                                topo, place, link, het, dyn
                            ).canonical()
                        )
    return out


def describe_components() -> dict[str, list[dict]]:
    """Structured listing of every registered component (CLI `scenarios`)."""
    out: dict[str, list[dict]] = {}
    for kind in KINDS:
        rows = []
        for name in sorted(REGISTRY[kind]):
            comp = REGISTRY[kind][name]
            def show(key: str, p: Param) -> str:
                if p.required or p.default is None:
                    return key
                return f"{key}={_fmt(p.default)}"

            params = ", ".join(show(k, p) for k, p in comp.params.items())
            rows.append({"component": name, "parameters": params or "—",
                         "what": comp.summary})
        out[kind] = rows
    return out


def describe_aliases() -> list[dict]:
    """Structured listing of registered scenario names (CLI `scenarios`)."""
    _ensure_aliases()
    return [
        {
            "scenario": name,
            "composition": ALIASES[name].make({}).canonical(),
            "what": ALIASES[name].summary,
        }
        for name in sorted(ALIASES)
    ]


# --------------------------------------------------------------------- #
# Topology components
# --------------------------------------------------------------------- #


def _norm_square(kw: dict) -> dict:
    # A square grid has one canonical spelling: side=N. A lone rows= or
    # cols= is square too (the missing dimension defaults to the given
    # one at build time). side= together with rows=/cols= is two
    # competing size requests — reject, don't pick one.
    if "side" in kw and ("rows" in kw or "cols" in kw):
        raise ConfigurationError(
            "grid topology takes either side= or rows=/cols=, not both: "
            f"got {sorted(kw)}"
        )
    rows, cols = kw.get("rows"), kw.get("cols")
    square = rows if rows is not None else cols
    if square is not None and (rows or square) == (cols or square):
        kw = dict(kw)
        kw["side"] = square
        kw.pop("rows", None)
        kw.pop("cols", None)
    return kw


def _grid_dims(side, rows, cols) -> tuple[int, int]:
    if rows is None and cols is None:
        return side, side
    if rows is None:
        return cols, cols
    if cols is None:
        return rows, rows
    return rows, cols


def _build_mesh(side=8, rows=None, cols=None) -> Topology:
    return builders.mesh(*_grid_dims(side, rows, cols))


def _build_torus(side=8, rows=None, cols=None) -> Topology:
    return builders.torus(*_grid_dims(side, rows, cols))


register_component(Component(
    kind="topology", name="mesh",
    summary="2-D grid (the paper's height-map substrate)",
    params={"side": _p_int(8), "rows": _p_int(None), "cols": _p_int(None)},
    build=_build_mesh,
    positional={1: ("side",), 2: ("rows", "cols")},
    normalize=_norm_square,
))

register_component(Component(
    kind="topology", name="torus",
    summary="2-D mesh with wraparound links (≥3 per wrapped dimension)",
    params={"side": _p_int(8, lo=3), "rows": _p_int(None, lo=3),
            "cols": _p_int(None, lo=3)},
    build=_build_torus,
    positional={1: ("side",), 2: ("rows", "cols")},
    normalize=_norm_square,
))

register_component(Component(
    kind="topology", name="hypercube",
    summary="binary hypercube, 2^dim nodes",
    params={"dim": _p_int(6)},
    build=lambda dim=6: builders.hypercube(dim),
    positional={1: ("dim",)},
))

register_component(Component(
    kind="topology", name="ring",
    summary="cycle of n nodes",
    params={"n": _p_int(64, lo=3)},
    build=lambda n=64: builders.ring(n),
    positional={1: ("n",)},
))

register_component(Component(
    kind="topology", name="star",
    summary="hub node 0 plus n-1 leaves",
    params={"n": _p_int(64, lo=2)},
    build=lambda n=64: builders.star(n),
    positional={1: ("n",)},
))

register_component(Component(
    kind="topology", name="complete",
    summary="all-pairs LAN model",
    params={"n": _p_int(16, lo=2)},
    build=lambda n=16: builders.complete(n),
    positional={1: ("n",)},
))

register_component(Component(
    kind="topology", name="tree",
    summary="complete branching-ary tree of the given depth",
    params={"branching": _p_int(2), "depth": _p_int(5, lo=0)},
    build=lambda branching=2, depth=5: builders.tree(branching, depth),
    positional={2: ("branching", "depth")},
))

register_component(Component(
    kind="topology", name="kary",
    summary="k-ary n-cube (ring/torus/hypercube family)",
    params={"k": _p_int(4, lo=2), "n": _p_int(3)},
    build=lambda k=4, n=3: builders.kary_ncube(k, n),
    positional={2: ("k", "n")},
))

register_component(Component(
    kind="topology", name="random",
    summary="connected Erdős–Rényi graph (graph_seed fixes the wiring)",
    params={"n_nodes": _p_int(64, lo=2), "avg_degree": _p_float(4.0, lo=0.0),
            "graph_seed": _p_int(1, lo=0)},
    build=lambda n_nodes=64, avg_degree=4.0, graph_seed=1:
        builders.random_connected(n_nodes, avg_degree, seed=graph_seed),
    positional={1: ("n_nodes",)},
))


# --------------------------------------------------------------------- #
# Placement components
# --------------------------------------------------------------------- #

#: shared placement size params: explicit n_tasks wins over the
#: machine-scaled default ``round(load_factor · n_nodes)``. n_tasks=0
#: is allowed — the empty-workload control the legacy constructors
#: accepted; negatives raise.
_SIZE_PARAMS = {
    "n_tasks": _p_int(None, lo=0),
    "load_factor": _p_float(8.0, lo=0.0, lo_open=True),
}


def _n_tasks(system: TaskSystem, n_tasks, load_factor) -> int:
    if n_tasks is not None:
        return int(n_tasks)
    return int(round(load_factor * system.topology.n_nodes))


def _place_hotspot(system, rng, n_tasks=None, load_factor=8.0, node=None):
    return distributions.single_hotspot(
        system, _n_tasks(system, n_tasks, load_factor), rng, node=node
    )


def _place_uniform(system, rng, n_tasks=None, load_factor=8.0):
    return distributions.uniform_random(
        system, _n_tasks(system, n_tasks, load_factor), rng
    )


def _place_two_valleys(system, rng, n_tasks=None, load_factor=8.0):
    return distributions.multi_hotspot(
        system, _n_tasks(system, n_tasks, load_factor), rng,
        n_spots=2, weights=[0.7, 0.3],
    )


def _place_valleys(system, rng, n_tasks=None, load_factor=8.0, n_spots=3):
    return distributions.multi_hotspot(
        system, _n_tasks(system, n_tasks, load_factor), rng, n_spots=n_spots
    )


def _place_ramp(system, rng, n_tasks=None, load_factor=8.0, axis=0):
    return distributions.linear_ramp(
        system, _n_tasks(system, n_tasks, load_factor), rng, axis=axis
    )


def _place_blob(system, rng, n_tasks=None, load_factor=8.0, sigma=2.0):
    return distributions.gaussian_blob(
        system, _n_tasks(system, n_tasks, load_factor), rng, sigma_hops=sigma
    )


def _place_balanced(system, rng, per_node=8):
    return distributions.balanced(system, per_node, rng)


def _place_clustered(system, rng, n_tasks=None, load_factor=8.0,
                     n_clusters=4, sigma=1.5):
    return distributions.clustered(
        system, _n_tasks(system, n_tasks, load_factor), rng,
        n_clusters=n_clusters, sigma_hops=sigma,
    )


def _place_power_law(system, rng, n_tasks=None, load_factor=8.0,
                     alpha=2.2, mean=1.0):
    return distributions.uniform_random(
        system, _n_tasks(system, n_tasks, load_factor), rng,
        distribution="pareto", alpha=alpha, mean=mean,
    )


register_component(Component(
    kind="placement", name="hotspot",
    summary="all tasks on one node (most central unless node= given)",
    params={**_SIZE_PARAMS, "node": _p_int(None, lo=0)},
    build=_place_hotspot,
))

register_component(Component(
    kind="placement", name="uniform",
    summary="each task lands on a uniformly random node",
    params=dict(_SIZE_PARAMS),
    build=_place_uniform,
))

register_component(Component(
    kind="placement", name="two-valleys",
    summary="two far-apart hotspots at a 70/30 split (arbiter benchmark)",
    params=dict(_SIZE_PARAMS),
    build=_place_two_valleys,
))

register_component(Component(
    kind="placement", name="valleys",
    summary="n_spots pairwise-far hotspots, equal weights",
    params={**_SIZE_PARAMS, "n_spots": _p_int(3)},
    build=_place_valleys,
))

register_component(Component(
    kind="placement", name="ramp",
    summary="load density increases linearly along one embedding axis",
    params={**_SIZE_PARAMS, "axis": _p_int(0, lo=0, hi=1)},
    build=_place_ramp,
))

register_component(Component(
    kind="placement", name="blob",
    summary="Gaussian fall-off in hop distance from the centre",
    params={**_SIZE_PARAMS, "sigma": _p_float(2.0, lo=0.0, lo_open=True)},
    build=_place_blob,
))

register_component(Component(
    kind="placement", name="balanced",
    summary="flat control: per_node equal-size tasks everywhere",
    params={"per_node": _p_int(8)},
    build=_place_balanced,
))

register_component(Component(
    kind="placement", name="clustered",
    summary="tasks around n_clusters far-apart centres with hop fall-off",
    params={**_SIZE_PARAMS, "n_clusters": _p_int(4),
            "sigma": _p_float(1.5, lo=0.0, lo_open=True)},
    build=_place_clustered,
))

register_component(Component(
    kind="placement", name="power-law",
    summary="uniform placement, Pareto(alpha) task sizes (heavy tail)",
    params={**_SIZE_PARAMS, "alpha": _p_float(2.2, lo=1.0, lo_open=True),
            "mean": _p_float(1.0, lo=0.0, lo_open=True)},
    build=_place_power_law,
))


# --------------------------------------------------------------------- #
# Link components
# --------------------------------------------------------------------- #


def _links_uniform(topo, rng, bandwidth=1.0, distance=1.0, fault_prob=0.0):
    return LinkAttributes.uniform(
        topo, bandwidth=bandwidth, distance=distance, fault_prob=fault_prob
    )


def _links_jittered(topo, rng, bw_lo=0.5, bw_hi=2.0, dist_lo=0.5, dist_hi=2.0):
    if bw_lo > bw_hi:
        raise ConfigurationError(
            f"links 'jittered': bw_lo must be <= bw_hi, got {bw_lo} > {bw_hi}"
        )
    if dist_lo > dist_hi:
        raise ConfigurationError(
            f"links 'jittered': dist_lo must be <= dist_hi, got "
            f"{dist_lo} > {dist_hi}"
        )
    return LinkAttributes.heterogeneous(
        topo, seed=ensure_rng(rng),
        bandwidth_range=(bw_lo, bw_hi), distance_range=(dist_lo, dist_hi),
    )


def _links_faulty(topo, rng, fault=0.05):
    return LinkAttributes.heterogeneous(
        topo, seed=ensure_rng(rng),
        bandwidth_range=(0.5, 2.0), distance_range=(1.0, 1.0),
        fault_range=(0.0, fault),
    )


def _links_fault_storm(topo, rng, frac=0.1, prob=0.3):
    rng = ensure_rng(rng)
    m = topo.n_edges
    n_storm = max(1, round(frac * m))
    storm = rng.choice(m, size=n_storm, replace=False)
    fault = np.zeros(m)
    fault[storm] = prob
    return LinkAttributes(
        topology=topo, bandwidth=np.ones(m), distance=np.ones(m), fault_prob=fault
    )


register_component(Component(
    kind="links", name="unit",
    summary="homogeneous links (the paper's control configuration)",
    params={"bandwidth": _p_float(1.0, lo=0.0, lo_open=True),
            "distance": _p_float(1.0, lo=0.0, lo_open=True),
            "fault_prob": _p_float(0.0, lo=0.0, hi=1.0, hi_open=True)},
    build=_links_uniform,
))

register_component(Component(
    kind="links", name="jittered",
    summary="per-edge bandwidth/distance drawn uniformly from ranges",
    params={"bw_lo": _p_float(0.5, lo=0.0, lo_open=True),
            "bw_hi": _p_float(2.0, lo=0.0, lo_open=True),
            "dist_lo": _p_float(0.5, lo=0.0, lo_open=True),
            "dist_hi": _p_float(2.0, lo=0.0, lo_open=True)},
    build=_links_jittered,
))

register_component(Component(
    kind="links", name="faulty",
    summary="heterogeneous bandwidth plus per-edge fault probabilities",
    params={"fault": _p_float(0.05, lo=0.0, hi=1.0, hi_open=True)},
    build=_links_faulty,
))

register_component(Component(
    kind="links", name="fault-storm",
    summary="a random fraction of links is storm-prone (high fault prob)",
    params={"frac": _p_float(0.1, lo=0.0, hi=1.0, lo_open=True),
            "prob": _p_float(0.3, lo=0.0, hi=1.0, hi_open=True)},
    build=_links_fault_storm,
))


# --------------------------------------------------------------------- #
# Heterogeneity components (node speeds)
# --------------------------------------------------------------------- #


def _het_stragglers(topo, rng, frac=0.125, slowdown=4.0):
    n_slow = max(1, round(frac * topo.n_nodes))
    slow = rng.choice(topo.n_nodes, size=n_slow, replace=False)
    speeds = np.ones(topo.n_nodes)
    speeds[slow] = 1.0 / slowdown
    return speeds


def _het_tiered(topo, rng, tiers=2, ratio=4.0):
    group = (np.arange(topo.n_nodes) * tiers) // topo.n_nodes
    return ratio ** (-group.astype(np.float64))


register_component(Component(
    kind="heterogeneity", name="stragglers",
    summary="a random fraction of nodes runs 1/slowdown as fast",
    params={"frac": _p_float(0.125, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
            "slowdown": _p_float(4.0, lo=1.0)},
    build=_het_stragglers,
))

register_component(Component(
    kind="heterogeneity", name="tiered",
    summary="deterministic speed tiers: group g runs at ratio^-g",
    params={"tiers": _p_int(2, lo=2), "ratio": _p_float(4.0, lo=1.0, lo_open=True)},
    build=_het_tiered,
))


# --------------------------------------------------------------------- #
# Dynamics components
# --------------------------------------------------------------------- #


def _dyn_churn(topo, system, seed, rate=4.0, completion_prob=0.02,
               mean_size=1.0, spread=0.5, _legacy=False):
    return DynamicWorkload(
        arrival_rate=rate, completion_prob=completion_prob,
        mean_size=mean_size, spread=spread,
        rng=derive(seed, STREAMS["dynamics"]),
    )


def _dyn_bursty(topo, system, seed, rate=8.0, completion_prob=0.05, n_hot=4,
                _legacy=False):
    # The composed path draws the hot-node choice from a dedicated
    # sub-stream of the dynamics stream, so it can never correlate with
    # the heterogeneity stream (stragglers). The historical
    # `bursty-arrivals` alias predates that discipline and must keep
    # drawing from stream 2 for bit-for-bit parity (it never combines
    # with heterogeneity, so the correlation cannot arise there).
    if not 1 <= n_hot <= topo.n_nodes:
        raise ConfigurationError(
            f"n_hot must be in [1, {topo.n_nodes}], got {n_hot}"
        )
    hot_rng = ensure_rng(derive(seed, 2) if _legacy
                         else derive(seed, STREAMS["dynamics"], 1))
    hot = [int(v) for v in hot_rng.choice(topo.n_nodes, size=n_hot, replace=False)]
    return DynamicWorkload(
        arrival_rate=rate, completion_prob=completion_prob,
        arrival_nodes=hot, rng=derive(seed, STREAMS["dynamics"]),
    )


def _dyn_diurnal(topo, system, seed, rate=6.0, amplitude=0.9, period=50,
                 completion_prob=0.05, _legacy=False):
    return DiurnalWorkload(
        arrival_rate=rate, completion_prob=completion_prob,
        amplitude=amplitude, period=period,
        rng=derive(seed, STREAMS["dynamics"]),
    )


def _dyn_moving_hotspot(topo, system, seed, rate=8.0, completion_prob=0.05,
                        dwell=20, mode="adversarial", _legacy=False):
    return MovingHotspotWorkload(
        arrival_rate=rate, completion_prob=completion_prob,
        dwell=dwell, mode=mode,
        rng=derive(seed, STREAMS["dynamics"]),
    )


def _dyn_replay(topo, system, seed, horizon=120, rate=4.0,
                completion_prob=0.02, _legacy=False):
    # Freeze a stochastic churn process into a trace at build time, so
    # every algorithm (and every engine) replays byte-identical events.
    # The recording runs against a throwaway clone of the just-placed
    # system; task ids are sequential from zero in both, so completion
    # draws line up exactly.
    twin = TaskSystem(topo)
    twin.add_tasks(system.loads_array(), system.locations_array())
    workload = DynamicWorkload(
        arrival_rate=rate, completion_prob=completion_prob,
        rng=derive(seed, STREAMS["dynamics"]),
    )
    trace = record_trace(workload, twin, horizon)
    return TraceReplay(trace)


register_component(Component(
    kind="dynamics", name="churn",
    summary="Poisson arrivals anywhere + geometric completions",
    params={"rate": _p_float(4.0, lo=0.0), "completion_prob": _p_float(0.02, lo=0.0, hi=1.0),
            "mean_size": _p_float(1.0, lo=0.0, lo_open=True),
            "spread": _p_float(0.5, lo=0.0, hi=1.0, hi_open=True)},
    build=_dyn_churn,
))

register_component(Component(
    kind="dynamics", name="bursty",
    summary="all arrivals land on n_hot random nodes (sustained imbalance)",
    params={"rate": _p_float(8.0, lo=0.0), "completion_prob": _p_float(0.05, lo=0.0, hi=1.0),
            "n_hot": _p_int(4)},
    build=_dyn_bursty,
))

register_component(Component(
    kind="dynamics", name="diurnal",
    summary="sinusoidal day/night arrival-rate modulation",
    params={"rate": _p_float(6.0, lo=0.0), "amplitude": _p_float(0.9, lo=0.0, hi=1.0),
            "period": _p_int(50), "completion_prob": _p_float(0.05, lo=0.0, hi=1.0)},
    build=_dyn_diurnal,
))

register_component(Component(
    kind="dynamics", name="moving-hotspot",
    summary="arrival hotspot re-targets every dwell rounds "
            "(adversarial: onto the currently least-loaded node)",
    params={"rate": _p_float(8.0, lo=0.0), "completion_prob": _p_float(0.05, lo=0.0, hi=1.0),
            "dwell": _p_int(20), "mode": _p_str("adversarial", choices=("adversarial", "walk"))},
    build=_dyn_moving_hotspot,
))

register_component(Component(
    kind="dynamics", name="replay",
    summary="churn frozen into a trace at build: identical events for "
            "every algorithm and engine",
    params={"horizon": _p_int(120), "rate": _p_float(4.0, lo=0.0),
            "completion_prob": _p_float(0.02, lo=0.0, hi=1.0)},
    build=_dyn_replay,
))
