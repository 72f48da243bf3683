"""Per-layer tracing for the benchmark's one traced run.

:class:`Tracer` installs wrappers from this file only; the simulator's source
is untouched, and :meth:`Tracer.remove` puts every original back.  There are
two kinds of wrapper:

* ``Simulator.schedule_at`` and ``Simulator.every`` wrap each callback in an
  *event span* tagged with the layer of the module that defines the callback
  (``repro.net.beacons`` -> ``net``).
* The public calls listed in :meth:`Tracer.install` get *call spans*, which
  nest inside event spans.

A span's self time is its duration minus the time of its child spans, so the
self times of all spans sum to the time the top-level spans cover.  The rest
of the traced wall is kernel dispatch and tracing overhead, and is reported
as ``trace.uncovered_s`` and folded into ``sim.self_s``.

Layers are named after the ``src/repro`` packages, with the link cache and
the RNG shim split out of ``radio`` as ``link`` and ``rng``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from repro.agilla.tuplespace import TupleSpace
from repro.dynamics import DeploymentDynamics
from repro.net.acquaintance import AcquaintanceList
from repro.net.beacons import BeaconService
from repro.net.stack import NetworkStack
from repro.radio.channel import Channel, Radio
from repro.radio.linkcache import LinkCache
from repro.radio.rngshim import CompatRng
from repro.scenarios import spec as scenario_spec
from repro.scenarios import workloads as scenario_workloads
from repro.sim.kernel import Simulator

#: Layers in report order.  Callbacks from any other module land in "other".
LAYERS = ("sim", "radio", "link", "rng", "net", "tinyos", "agilla", "dynamics", "other")
#: The layers whose modules define kernel callbacks (the link cache and the
#: RNG shim only ever run inside another layer's event).
EVENT_LAYERS = ("sim", "radio", "net", "tinyos", "agilla", "dynamics", "other")

#: Span name -> the build phase metric it feeds.
BUILD_SPANS = {
    "build.topology": "build.topology_s",
    "build.network": "build.network_s",
    "build.dynamics": "build.dynamics_s",
    "build.agents": "build.agents_s",
}


def layer_of(fn) -> str:
    """The layer of the module that defines callback ``fn``."""
    module = getattr(fn, "__module__", None) or type(fn).__module__
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "radio" and len(parts) > 2:
        if parts[2] == "linkcache":
            return "link"
        if parts[2] == "rngshim":
            return "rng"
    return parts[1] if parts[1] in LAYERS else "other"


class Tracer:
    """Span and count collection over wrapped simulator entry points."""

    def __init__(self):
        #: One child-time accumulator per open span, innermost last.
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)  # by layer
        self.span_s: defaultdict[str, float] = defaultdict(float)  # by span name
        self.calls: Counter[str] = Counter()  # span entries by span name
        self.counts: Counter[str] = Counter()  # counts taken at the wrappers
        #: Time under top-level spans (those with no open parent).
        self.covered_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop what was collected so far (the wrappers stay installed)."""
        self.self_s.clear()
        self.span_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.covered_s = 0.0

    def span(self, fn, name: str, layer: str):
        """``fn`` wrapped in a span called ``name`` whose self time is ``layer``'s."""
        stack = self._stack
        clock = time.perf_counter
        self_s, span_s, calls = self.self_s, self.span_s, self.calls

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                span_s[name] += elapsed
                self_s[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered_s += elapsed

        return traced

    def event(self, fn):
        """An event span for kernel callback ``fn``."""
        layer = layer_of(fn)
        return self.span(fn, f"{layer}.event", layer)

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, layer: str) -> None:
        original = getattr(owner, attr)
        traced = self.span(original, name, layer)
        if not isinstance(original, type):  # a class keeps no useful metadata
            traced = functools.wraps(original)(traced)
        self._patch(owner, attr, traced)

    def install(self) -> None:
        """Install every wrapper; pair with :meth:`remove`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        schedule_at = Simulator.schedule_at
        every = Simulator.every

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time_us, fn, *args, benign=False):
            counts["sim.schedules"] += 1
            return schedule_at(sim, time_us, self.event(fn), *args, benign=benign)

        @functools.wraps(every)
        def traced_every(sim, period, fn, *args):
            return every(sim, period, self.event(fn), *args)

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "every", traced_every)

        # Build phases, at the names Scenario.build calls.
        self._wrap(scenario_spec, "topology_from_spec", "build.topology", "other")
        self._wrap(scenario_spec, "SensorNetwork", "build.network", "other")
        self._wrap(scenario_spec, "dynamics_from_spec", "build.dynamics", "dynamics")
        self._wrap(DeploymentDynamics, "start", "build.dynamics", "dynamics")
        workload_classes = [scenario_workloads.Workload]
        for cls in workload_classes:
            workload_classes.extend(cls.__subclasses__())
            if "install" in cls.__dict__:
                self._wrap(cls, "install", "build.agents", "agilla")

        # radio
        send = Radio.send

        @functools.wraps(send)
        def counted_send(radio, *args, **kwargs):
            counts["radio.sends"] += 1
            return send(radio, *args, **kwargs)

        self._patch(Radio, "send", counted_send)
        hearers = Channel.hearers  # unwrapped: counting hearers adds no span
        self._wrap(Channel, "busy_for", "radio.sense", "radio")
        self._wrap(Channel, "hearers", "radio.hearers", "radio")
        self._wrap(Channel, "move", "radio.move", "radio")
        end_transmission = self.span(Channel.end_transmission, "radio.fanout", "radio")

        @functools.wraps(Channel.end_transmission)
        def traced_fanout(channel, tx):
            end_transmission(channel, tx)
            if not tx.corrupted:
                counts["radio.fanout.hearers"] += len(hearers(channel, tx.radio))

        self._patch(Channel, "end_transmission", traced_fanout)
        # radio.linkcache and radio.rngshim
        self._wrap(LinkCache, "fill", "link.fill", "link")
        self._wrap(LinkCache, "fill_slots", "link.fill", "link")
        self._wrap(CompatRng, "random", "rng.random", "rng")
        self._wrap(CompatRng, "randint", "rng.randint", "rng")
        random_vector = self.span(CompatRng.random_vector, "rng.vector", "rng")

        @functools.wraps(CompatRng.random_vector)
        def traced_vector(rng, count):
            counts["rng.vector_words"] += count
            return random_vector(rng, count)

        self._patch(CompatRng, "random_vector", traced_vector)
        # net
        self._wrap(NetworkStack, "send", "net.send", "net")
        self._wrap(BeaconService, "_beat", "net.beacon", "net")
        update = AcquaintanceList.update

        @functools.wraps(update)
        def counted_update(acquaintances, *args, **kwargs):
            counts["net.acq.updates"] += 1
            return update(acquaintances, *args, **kwargs)

        self._patch(AcquaintanceList, "update", counted_update)
        # agilla tuple space
        for op in ("out", "rdp", "inp", "count", "remove_all"):
            self._wrap(TupleSpace, op, "agilla.ts", "agilla")

    def remove(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------
    def build_metrics(self) -> dict[str, float]:
        """Build-phase span times (read before :meth:`reset`)."""
        return {metric: self.span_s[name] for name, metric in BUILD_SPANS.items()}

    def layer_times(self, wall_s: float) -> dict[str, float]:
        """Per-layer events, event time and self time over a traced wall."""
        uncovered = wall_s - self.covered_s
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            if layer in EVENT_LAYERS:
                if layer != "sim":  # sim.events is the kernel's own count
                    metrics[f"{layer}.events"] = self.calls[f"{layer}.event"]
                metrics[f"{layer}.event_s"] = self.span_s[f"{layer}.event"]
            metrics[f"{layer}.self_s"] = self.self_s[layer] + (uncovered if layer == "sim" else 0.0)
        metrics["trace.uncovered_s"] = uncovered
        metrics["trace.wall_s"] = wall_s
        return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Finished:
    """What the layer counters read from a finished single-process run."""

    def __init__(self, scenario_run, tracer: Tracer):
        net = scenario_run.net
        self.run = scenario_run
        self.sim, self.channel = net.sim, net.channel
        self.cache = net.channel.link_cache
        self.nodes = list(net.nodes.values())
        self.middlewares = [node.middleware for node in self.nodes]
        self.span_s, self.calls, self.counts = tracer.span_s, tracer.calls, tracer.counts

    def total(self, read) -> int:
        return sum(read(node) for node in self.nodes)

    def agilla(self, read) -> int:
        return sum(read(middleware) for middleware in self.middlewares)


#: Layer counters of a single-process run, read from the layers' public
#: counters and from the wrappers' spans and counts.
NETWORK_METRICS = {
    "sim.events": lambda f: f.sim.events_fired,
    "sim.schedules": lambda f: f.counts["sim.schedules"],
    "sim.compactions": lambda f: f.sim.compactions,
    "sim.handle_reuses": lambda f: f.sim.handle_reuses,
    "radio.sends": lambda f: f.counts["radio.sends"],
    "radio.frames": lambda f: f.channel.frames_transmitted,
    "radio.collisions": lambda f: f.channel.collisions,
    "radio.prr_drops": lambda f: f.channel.prr_drops,
    "radio.mac_giveups": lambda f: f.channel.mac_giveups,
    "radio.sense.calls": lambda f: f.calls["radio.sense"],
    "radio.sense.s": lambda f: f.span_s["radio.sense"],
    "radio.sense_idle": lambda f: f.channel.sense_idle,
    "radio.sense_scalar": lambda f: f.channel.sense_scalar,
    "radio.sense_vector": lambda f: f.channel.sense_vector,
    "radio.fanout.calls": lambda f: f.calls["radio.fanout"],
    "radio.fanout.s": lambda f: f.span_s["radio.fanout"],
    "radio.fanout.hearers": lambda f: f.counts["radio.fanout.hearers"],
    "radio.receptions": lambda f: sum(r.frames_received for r in f.channel.radios),
    "radio.reception_ratio": lambda f: _ratio(
        sum(r.frames_received for r in f.channel.radios), f.counts["radio.fanout.hearers"]
    ),
    "radio.hearers.calls": lambda f: f.calls["radio.hearers"],
    "radio.hearers.s": lambda f: f.span_s["radio.hearers"],
    "radio.move.calls": lambda f: f.calls["radio.move"],
    "radio.move.s": lambda f: f.span_s["radio.move"],
    "radio.index_moves": lambda f: f.channel.index_moves,
    "radio.index_rebuilds": lambda f: f.channel.full_invalidations
    - f.run.invalidations_at_build,
    "link.hits": lambda f: f.cache.cache_hits,
    "link.misses": lambda f: f.cache.cache_misses,
    "link.invalidations": lambda f: f.cache.cache_invalidations,
    "link.hit_ratio": lambda f: _ratio(
        f.cache.cache_hits, f.cache.cache_hits + f.cache.cache_misses
    ),
    "link.fill.s": lambda f: f.span_s["link.fill"],
    "rng.scalar_calls": lambda f: f.calls["rng.random"] + f.calls["rng.randint"],
    "rng.vector_calls": lambda f: f.calls["rng.vector"],
    "rng.vector_words": lambda f: f.counts["rng.vector_words"],
    "rng.s": lambda f: f.span_s["rng.random"] + f.span_s["rng.randint"] + f.span_s["rng.vector"],
    "net.sent": lambda f: f.total(lambda n: n.stack.sent),
    "net.received": lambda f: f.total(lambda n: n.stack.received),
    "net.filtered": lambda f: f.total(lambda n: n.stack.dropped_by_filter),
    "net.queue_overflows": lambda f: f.total(lambda n: n.stack.queue_overflows),
    "net.send.s": lambda f: f.span_s["net.send"],
    "net.beacons": lambda f: f.total(lambda n: n.beacons.beacons_sent),
    "net.beacon.s": lambda f: f.span_s["net.beacon"],
    "net.acq.updates": lambda f: f.counts["net.acq.updates"],
    "tinyos.tasks": lambda f: f.total(lambda n: n.mote.tasks.tasks_posted),
    "tinyos.cycles": lambda f: f.total(lambda n: n.mote.cpu.cycles_executed),
    "agilla.instructions": lambda f: f.agilla(lambda m: m.engine.instructions_executed),
    "agilla.context_switches": lambda f: f.agilla(lambda m: m.engine.context_switches),
    "agilla.traps": lambda f: f.agilla(lambda m: m.engine.traps),
    "agilla.slice_suspensions": lambda f: f.agilla(lambda m: m.engine.slice_suspensions),
    "agilla.ts.ops": lambda f: f.calls["agilla.ts"],
    "agilla.ts.s": lambda f: f.span_s["agilla.ts"],
    "agilla.migration.started": lambda f: f.agilla(lambda m: m.migration.transfers_started),
    "agilla.migration.arrivals": lambda f: f.agilla(lambda m: m.migration.arrivals),
    "agilla.migration.aborts": lambda f: f.agilla(lambda m: m.migration.aborts),
    "agilla.migration.messages": lambda f: f.agilla(lambda m: m.migration.messages_sent),
    "agilla.migration.success_ratio": lambda f: _ratio(
        f.agilla(lambda m: m.migration.arrivals),
        f.agilla(lambda m: m.migration.transfers_started),
    ),
    "dynamics.moves": lambda f: f.run.dynamics.moves_applied,
}

#: Sharded runs aggregate these layer counters on the supervisor side; the
#: rest of NETWORK_METRICS stays inside the forked workers and reads 0.
SHARDED_COUNTERS = {
    "sim.events": "events",
    "radio.frames": "frames",
    "radio.collisions": "collisions",
    "radio.prr_drops": "prr_drops",
    "radio.mac_giveups": "mac_giveups",
    "radio.receptions": "frames_received",
    "dynamics.moves": "moves",
}


def shard_metrics(result) -> dict[str, float]:
    """Shard-sync counters from the supervisor side of a sharded ``RunResult``.

    ``shard.rounds`` is the slowest worker's protocol round count and
    ``shard.round_us`` that worker's wall time per round, so their product is
    the time the slowest worker spent in the lookahead loop.
    """
    counters = result.counters if result is not None else {}
    supervision = result.supervision if result is not None else {}
    per_shard = result.per_shard if result is not None else ()
    worker = max(per_shard, key=lambda stats: stats["wall_s"], default={"rounds": 0, "wall_s": 0.0})
    return {
        "shard.rounds": worker["rounds"],
        "shard.round_us": _ratio(worker["wall_s"] * 1e6, worker["rounds"]),
        "shard.envelopes": counters.get("envelopes_out", 0),
        "shard.ghost_frames": counters.get("ghost_frames", 0),
        "shard.checkpoints": supervision.get("checkpoints", 0),
        "shard.clone_rss_kb": supervision.get("clone_rss_kb", 0),
    }


def layer_metrics(repeat, tracer: Tracer, untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced repeat.

    ``repeat`` carries the run (``scenario_run`` for a single-process run,
    ``result`` for a sharded one), its traced run time ``run_s`` and the
    build-phase spans; ``untraced_run_s`` is the untraced median run time.
    """
    if repeat.scenario_run is not None:
        finished = _Finished(repeat.scenario_run, tracer)
        metrics = {name: read(finished) for name, read in NETWORK_METRICS.items()}
    else:
        metrics = dict.fromkeys(NETWORK_METRICS, 0)
        for name, key in SHARDED_COUNTERS.items():
            metrics[name] = repeat.result.counters.get(key, 0)
    for metric in BUILD_SPANS.values():
        metrics[metric] = repeat.build_spans.get(metric, 0.0)
    metrics.update(tracer.layer_times(repeat.run_s))
    metrics.update(shard_metrics(repeat.result))
    metrics["trace.overhead"] = repeat.run_s / untraced_run_s
    return metrics
