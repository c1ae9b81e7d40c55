"""Engine resolution: which tracer a (structure, config) pair gets.

Two engines trace rays: the scalar per-ray :class:`~repro.rt.tracer.Tracer`
(full feature set, including GRTX-HW checkpointing) and the batched
:class:`~repro.rt.wavefront.WavefrontTracer` (both structure families,
``multiround`` and ``singleround``, ``record_blended`` and per-ray fetch
traces; no checkpointing).  This module holds the support predicates,
:func:`resolve_engine`, fallback observability and the proxy-label
tuples the serving layer resolves requests with.

Engine names: ``"scalar"``, ``"wavefront"``, ``"auto"`` (the batched
engine whenever it covers the pair, scalar otherwise) and ``"packet"``,
kept as an alias of ``"wavefront"`` — :func:`resolve_engine` maps it
before any cache key is built, so an alias and its target share every
cache entry.
"""

from __future__ import annotations

import threading
import warnings

from repro.obs import get_registry
from repro.obs import events as obs_events
from repro.obs import flight

from repro.bvh.flatten import flattenable
from repro.rt.tracer import TraceConfig

#: Proxy labels that build monolithic structures.
MONOLITHIC_PROXIES = ("20-tri", "80-tri", "custom")

#: Proxy labels that build two-level (GRTX-SW) structures.
TWO_LEVEL_PROXIES = ("tlas+sphere", "tlas+20-tri", "tlas+80-tri")

#: Every proxy label the batched engine covers — the single source for
#: request-level engine resolution, so the serving layer can never
#: drift from :func:`packet_supported`.
PACKET_PROXIES = MONOLITHIC_PROXIES + TWO_LEVEL_PROXIES

#: Engine names that request the batched engine.
BATCHED_ENGINES = ("packet", "wavefront")


def packet_config_supported(config: TraceConfig) -> bool:
    """The config half of :func:`packet_supported`: GRTX-HW
    checkpointing stays on the scalar engine (``record_blended`` is
    batched — the blend stage extracts per-ray blend lists)."""
    return not config.checkpointing


def packet_supported(structure, config: TraceConfig) -> bool:
    """Whether the batched engine covers this (structure, config) pair.

    Structural support is :func:`repro.bvh.flatten.flattenable` — the
    same predicate the scalar tracer's table setup uses — so both
    engines agree by construction on what a structure is.
    """
    return flattenable(structure) and packet_config_supported(config)


def fallback_reason(structure, config: TraceConfig) -> str | None:
    """Why this (structure, config) pair needs the scalar engine
    (``None`` when the batched engine covers it)."""
    if not flattenable(structure):
        return f"unsupported structure type {type(structure).__name__}"
    if config.checkpointing:
        return "checkpointing (GRTX-HW) is scalar-engine-only"
    return None


# ---------------------------------------------------------------------------
# Fallback observability: the registry counter ``rt.packet_fallbacks``
# plus a one-time warning per distinct reason, so an explicit batched
# request silently degrading to the scalar tracer is visible to callers
# (the render server surfaces the counter as a gauge, ``repro doctor``
# reads it from incident bundles).

_warned_lock = threading.Lock()
_warned_reasons: set[str] = set()


def note_packet_fallback(reason: str) -> None:
    """Record one batched->scalar degrade; warns once per reason."""
    with _warned_lock:
        first = reason not in _warned_reasons
        _warned_reasons.add(reason)
    # Inside a pool worker the registry delta rides back to the parent
    # with the task result, so worker-side degrades are counted too.
    get_registry().add("rt.packet_fallbacks")
    # And into the flight ring with the *reason* — a counter says how
    # often, the black box says why and when relative to the incident.
    flight.record(obs_events.FALLBACK, "rt.packet_fallback", reason=reason)
    if first:
        warnings.warn(
            f"batched engine unavailable ({reason}); falling back to the "
            "scalar tracer", RuntimeWarning, stacklevel=3)


def resolve_engine(engine: str, structure, config: TraceConfig) -> str:
    """The concrete engine a (structure, config) pair will trace with:
    ``"scalar"`` or ``"wavefront"``.

    ``"auto"`` silently picks the batched engine whenever it covers the
    pair and the scalar tracer otherwise — that is its contract.  An
    explicit ``"wavefront"`` (or its alias ``"packet"``) that cannot be
    honored *degrades* to scalar: the degrade is counted (registry
    counter ``rt.packet_fallbacks``) and warned about once per reason,
    because the caller asked for something they are not getting.
    Unknown engine names are a fail-fast ``ValueError`` (a typo must not
    silently render with the wrong engine).
    """
    if engine == "scalar":
        return "scalar"
    if engine not in BATCHED_ENGINES and engine != "auto":
        raise ValueError(
            f"unknown engine {engine!r}; valid engines are: "
            "scalar, packet, wavefront, auto")
    reason = fallback_reason(structure, config)
    if reason is not None:
        if engine in BATCHED_ENGINES:
            note_packet_fallback(reason)
        return "scalar"
    return "wavefront"
