"""Spans around repro's public calls, and a cProfile fold into layers.

Both live in the benchmark, outside ``src/``: :class:`Tracer` replaces a
fixed list of public functions and methods with timing wrappers for the
duration of one traced run and restores them afterwards, and
:func:`fold_profile` charges a cProfile pass's self time to the layers the
benchmark reports on.  Spans stay in memory and are written as JSON when the
run ends.
"""

from __future__ import annotations

import functools
import json
import os
import pstats
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

#: (path prefix under src/repro/, layer) — first match wins
LAYER_PREFIXES = (
    ("sim/eventlist.py", "sim.eventlist"),
    ("sim/queues.py", "sim.queues"),
    ("sim/pipe.py", "sim.queues"),
    ("sim/network.py", "sim.queues"),
    ("sim/packet.py", "sim.packet"),
    ("sim/pool.py", "sim.packet"),
    ("core/", "core"),
    ("transports/", "transports"),
    ("topology/", "topology"),
    ("routing/", "topology"),
    ("harness/sweep.py", "harness.sweep"),
    ("harness/figures.py", "harness.figures"),
)

LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_PREFIXES)) + ("other",)

#: periodic-timer callbacks of the baseline transports
TIMER_CALLBACKS = frozenset(
    {"_timer_tick", "_handle_rto", "_handle_timeout", "_sender_timeout"}
)

#: spans recorded individually per name; later calls are only counted
SPAN_CAP = 20_000

BUILD_SPANS = ("build_network", "Network.build")


def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``owner.attr`` with ``make(original)``; return the undo.

    *owner* is a module or a class; a classmethod stays a classmethod.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, raw)


class Tracer:
    """Records (name, start, end, parent) spans around public repro calls."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.events = 0
        self.sim_ps = 0
        self.pending_at_run_end = 0
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # --- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            recorded = tracer.calls[name] < SPAN_CAP
            tracer.calls[name] += 1
            if recorded:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append([name, start, None, parent])
                tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.total_s[name] += end - start
                if recorded:
                    tracer.spans[index][2] = end
                    tracer._stack.pop()

        return traced

    def _wrap_eventlist_run(self, fn: Callable) -> Callable:
        traced = self.wrap("EventList.run", fn)
        tracer = self

        @functools.wraps(fn)
        def run(eventlist, *args, **kwargs):
            events, now = eventlist.events_executed, eventlist.now()
            try:
                return traced(eventlist, *args, **kwargs)
            finally:
                tracer.events += eventlist.events_executed - events
                tracer.sim_ps += eventlist.now() - now
                tracer.pending_at_run_end = max(
                    tracer.pending_at_run_end, eventlist.pending_events())

        return run

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._restore.append(patch(owner, attr, make))

    def install(self) -> "Tracer":
        """Wrap every public call the benchmark drives (idempotent per run)."""
        from repro.harness import experiment, figures, sweep
        from repro.harness.baseline_networks import PHostNetwork, TcpNetwork
        from repro.harness.ndp_network import NdpNetwork
        from repro.sim.eventlist import EventList
        from repro.transports import registry

        self._patch(EventList, "run", self._wrap_eventlist_run)
        for name in ("run_until_complete", "start_incast"):
            self._patch(experiment, name, functools.partial(self.wrap, name))
        self._patch(registry, "build_network", functools.partial(self.wrap, "build_network"))
        network_classes = {NdpNetwork, TcpNetwork, PHostNetwork}
        network_classes |= {spec.network_cls for spec in registry.specs(True)}
        for cls in network_classes:
            for attr, span in (("build", "Network.build"), ("create_flow", "create_flow")):
                if attr in cls.__dict__:
                    self._patch(cls, attr, functools.partial(self.wrap, span))
        self._patch(sweep, "run_specs", functools.partial(self.wrap, "run_specs"))
        self._patch(sweep.RunSpec, "execute", functools.partial(self.wrap, "RunSpec.execute"))
        self._patch(sweep.ResultCache, "get", functools.partial(self.wrap, "ResultCache.get"))
        self._patch(
            sweep.ResultCache, "put_encoded",
            functools.partial(self.wrap, "ResultCache.put_encoded"),
        )
        plans = figures.FIGURE_PLANS
        originals = dict(plans)
        for name, build in originals.items():
            plans[name] = self._traced_plan(build)
        self._restore.append(lambda: plans.update(originals))
        return self

    def _traced_plan(self, build: Callable) -> Callable:
        traced_build = self.wrap("Plan.build", build)

        @functools.wraps(build)
        def plan(*args, **kwargs):
            built = traced_build(*args, **kwargs)
            return built._replace(assemble=self.wrap("Plan.assemble", built.assemble))

        return plan

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # --- derived numbers ---------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name and end is not None]

    def outermost_s(self, names) -> float:
        """Total time of spans in *names* not nested inside another of them."""
        names = set(names)
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name not in names or end is None:
                continue
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                total += end - start
        return total

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            **meta,
            "span_cap": SPAN_CAP,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def layer_of(filename: str, repro_root: str) -> Optional[str]:
    """The layer a source file belongs to, ``other`` for the rest of repro,
    and ``None`` for code outside repro (built-ins, stdlib, the benchmark)."""
    if not filename.startswith(repro_root):
        return None
    relative = filename[len(repro_root):].lstrip(os.sep).replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


def fold_profile(profiler, repro_root: str) -> Dict[str, Any]:
    """Fold a cProfile pass into per-layer self time and call counts.

    Built-ins and library functions have no layer of their own: the self
    time of each one is charged to the layers of its direct callers, in
    proportion to the time each caller spent in it.  What remains, and the
    self time of the benchmark's own code, goes to ``other``.
    """
    stats = pstats.Stats(profiler).stats
    self_s: Counter = Counter()
    calls: Counter = Counter()
    timer_calls = 0
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(filename, repro_root)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            if layer == "transports" and func in TIMER_CALLBACKS:
                timer_calls += ncalls
            continue
        charged = 0.0
        for (caller_file, _l, _f), edge in callers.items():
            caller_layer = layer_of(caller_file, repro_root)
            if caller_layer is not None:
                self_s[caller_layer] += edge[2]
                charged += edge[2]
        self_s["other"] += max(0.0, tottime - charged)
    total = sum(self_s.values()) or 1.0
    return {
        "self_share": {layer: self_s[layer] / total for layer in LAYERS},
        "self_s": {layer: self_s[layer] for layer in LAYERS},
        "calls": {layer: calls[layer] for layer in LAYERS},
        "timer_calls": timer_calls,
    }
