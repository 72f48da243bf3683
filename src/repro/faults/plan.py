"""Declarative fault plans: timed, seeded fault events as data.

The paper's core claim is that agent-based applications *survive* a hostile
field — crashed motes, lossy links, partitions — so faults must be as
declarative and reproducible as everything else in a scenario.  A
:class:`FaultPlan` is a plain dict/JSON spec (the ``faults:`` scenario key)
composing timed fault events::

    {"events": [
        {"kind": "link", "at_s": 2.0, "duration_s": 3.0,
         "links": [[[1, 1], [2, 1]]], "prr": 0.0, "symmetric": true},
        {"kind": "noise", "at_s": 4.0, "duration_s": 1.0,
         "nodes": [[3, 2]], "prr": 0.1},
        {"kind": "crash", "at_s": 5.0, "nodes": [[2, 2]],
         "reboot_s": 2.0, "volatile": true},
        {"kind": "corrupt", "at_s": 1.0, "duration_s": 2.0,
         "nodes": [[1, 2]], "probability": 0.5},
        {"kind": "worker_kill", "at_s": 1.5, "shard": 1},
    ]}

Event kinds:

``link``
    Degrade explicit directed links (``[[src, dst], ...]`` location pairs) to
    ``prr`` for a window, via :attr:`Channel.prr_overrides` — cache-bypassing,
    so the very next delivery feels it.  ``symmetric`` degrades both
    directions.  Omitting ``duration_s`` makes the damage permanent.
``noise``
    A receiver-side noise burst: every link *into* each victim node is
    degraded to ``prr`` for the window.  Victims are an explicit ``nodes``
    list, or (single-process runs only) a ``fraction`` drawn from the
    seed-derived ``"faults"`` RNG stream.
``crash``
    Mote crash: the radio goes down and, with ``volatile`` (the default),
    RAM-resident state dies with it — hosted agents are killed and the tuple
    space and reaction registry are wiped.  ``volatile: false`` models
    flash-persisted state: the node returns with its memory intact.
    ``reboot_s`` recovers the radio that many seconds after the crash.
``corrupt``
    Frame corruption at the transmitter: during the window, each frame sent
    by a victim node (``nodes``; omitted = every node) is marked corrupted
    with ``probability``, drawn from the ``"faults"`` stream.  A corrupted
    frame still occupies the air — carrier sense and collisions stay exact —
    but no receiver passes CRC.
``correlated_crash``
    Regional power loss: every mote inside an inclusive location rectangle
    (``rect: [[x0, y0], [x1, y1]]``) crashes at ``at_s``, and each one
    reboots at ``reboot_s`` plus its own stagger drawn uniformly from
    ``[0, stagger_s]`` — the correlated-failure shape (a breaker trips, the
    motes come back one by one).  Expanded by :meth:`FaultPlan.resolve` into
    per-node ``crash`` events with the stagger drawn from the plan-level
    ``"{seed}/correlated-crash"`` stream, *not* a simulator stream, so the
    expansion is identical in every shard of a sharded run.
``worker_kill`` / ``worker_hang``
    Process-level chaos for the sharded runtime: SIGKILL (or hang, for
    ``hang_s`` seconds — omitted means forever) the worker driving ``shard``
    at ``at_s`` simulated seconds.  Applied only on a worker's first
    incarnation, so supervised recovery replays cleanly; ignored by the
    inline driver (which is the undisturbed parity reference).

Campaigns can also be *drawn* instead of written: :meth:`FaultPlan.generate`
takes a seed and a distribution spec (event count, kinds, a target field
rectangle, parameter ranges) and returns a concrete, validated plan — chaos
runs sample a campaign distribution while staying exactly replayable.

Determinism contract: every random choice a plan makes is drawn either from
the simulator's seed-derived ``"faults"`` stream (injector-time draws) or
from a plan-level stream derived from the same scenario seed (generation and
correlated-crash expansion, which must agree across shards), so a fixed-seed
campaign replays bit-identically — and an empty/absent plan installs nothing
at all, leaving the run bit-for-bit identical to one without the faults
layer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import NetworkError

Loc = tuple[int, int]

#: Event kinds that target motes (routed to the owning shard region) vs the
#: forked workers themselves (consumed by the sharded runtime's supervisor).
NODE_KINDS = frozenset({"link", "noise", "crash", "corrupt", "correlated_crash"})
PROCESS_KINDS = frozenset({"worker_kill", "worker_hang"})

_COMMON_KEYS = frozenset({"kind", "at_s"})
_EVENT_KEYS = {
    "link": _COMMON_KEYS | {"duration_s", "links", "prr", "symmetric"},
    "noise": _COMMON_KEYS | {"duration_s", "nodes", "fraction", "prr"},
    "crash": _COMMON_KEYS | {"nodes", "reboot_s", "volatile"},
    "corrupt": _COMMON_KEYS | {"duration_s", "nodes", "probability"},
    "correlated_crash": _COMMON_KEYS | {"rect", "reboot_s", "stagger_s", "volatile"},
    "worker_kill": _COMMON_KEYS | {"shard"},
    "worker_hang": _COMMON_KEYS | {"shard", "hang_s"},
}


def _loc(value, what: str) -> Loc:
    try:
        x, y = value
        return (int(x), int(y))
    except (TypeError, ValueError):
        raise NetworkError(f"{what} must be an [x, y] location: {value!r}") from None


def _locs(value, what: str) -> tuple[Loc, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise NetworkError(f"{what} must be a non-empty list of [x, y] locations")
    return tuple(_loc(entry, what) for entry in value)


def _prr(value, what: str) -> float:
    prr = float(value)
    if not (0.0 <= prr <= 1.0):
        raise NetworkError(f"{what} must be in [0, 1]: {value!r}")
    return prr


def _window(spec: dict) -> float | None:
    if "duration_s" not in spec:
        return None
    duration = float(spec["duration_s"])
    if duration <= 0:
        raise NetworkError(f"fault duration_s must be positive: {duration}")
    return duration


@dataclass(frozen=True)
class FaultEvent:
    """Base: every fault fires at ``at_s`` simulated seconds."""

    kind: str
    at_s: float


@dataclass(frozen=True)
class LinkFault(FaultEvent):
    """Degrade explicit directed links to ``prr`` for a window."""

    links: tuple[tuple[Loc, Loc], ...] = ()
    prr: float = 0.0
    duration_s: float | None = None

    @property
    def directed(self) -> tuple[tuple[Loc, Loc], ...]:
        return self.links


@dataclass(frozen=True)
class NoiseFault(FaultEvent):
    """Degrade every link into each victim node for a window."""

    nodes: tuple[Loc, ...] = ()
    fraction: float | None = None
    prr: float = 0.0
    duration_s: float | None = None


@dataclass(frozen=True)
class CrashFault(FaultEvent):
    """Mote crash (optionally rebooting), volatile state lost or persisted."""

    nodes: tuple[Loc, ...] = ()
    reboot_s: float | None = None
    volatile: bool = True


@dataclass(frozen=True)
class CorruptFault(FaultEvent):
    """Probabilistic frame corruption at the transmitter for a window."""

    nodes: tuple[Loc, ...] | None = None  # None = every transmitter
    probability: float = 1.0
    duration_s: float | None = None


@dataclass(frozen=True)
class CorrelatedCrashFault(FaultEvent):
    """Crash every mote in a rectangle, with staggered seed-drawn reboots.

    Unresolved form: carries the rectangle, not the member nodes — it must
    pass through :meth:`FaultPlan.resolve` (which knows the topology and the
    scenario seed) before it can be installed or split across shards.
    """

    rect: tuple[Loc, Loc] = ((0, 0), (0, 0))
    reboot_s: float | None = None
    stagger_s: float = 0.0
    volatile: bool = True


@dataclass(frozen=True)
class WorkerFault(FaultEvent):
    """Process chaos: kill or hang the forked worker driving ``shard``."""

    shard: int = 0
    hang_s: float | None = None


def _parse_event(spec) -> FaultEvent:
    if not isinstance(spec, dict):
        raise NetworkError(f"fault event must be a dict: {spec!r}")
    kind = spec.get("kind")
    if kind not in _EVENT_KEYS:
        known = ", ".join(sorted(_EVENT_KEYS))
        raise NetworkError(f"unknown fault kind {kind!r} (expected one of {known})")
    unknown = set(spec) - _EVENT_KEYS[kind]
    if unknown:
        raise NetworkError(f"unknown {kind} fault keys: {sorted(unknown)}")
    if "at_s" not in spec:
        raise NetworkError(f"{kind} fault event requires 'at_s'")
    at_s = float(spec["at_s"])
    if at_s < 0:
        raise NetworkError(f"fault at_s must be non-negative: {at_s}")

    if kind == "link":
        raw = spec.get("links")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise NetworkError("link fault requires 'links': [[src, dst], ...]")
        pairs = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise NetworkError(f"link fault entries are [src, dst] pairs: {entry!r}")
            src, dst = _loc(entry[0], "link src"), _loc(entry[1], "link dst")
            pairs.append((src, dst))
            if spec.get("symmetric", False):
                pairs.append((dst, src))
        return LinkFault(
            kind=kind,
            at_s=at_s,
            links=tuple(pairs),
            prr=_prr(spec.get("prr", 0.0), "link prr"),
            duration_s=_window(spec),
        )
    if kind == "noise":
        nodes = spec.get("nodes")
        fraction = spec.get("fraction")
        if (nodes is None) == (fraction is None):
            raise NetworkError("noise fault takes exactly one of 'nodes' or 'fraction'")
        if fraction is not None and not (0.0 < float(fraction) <= 1.0):
            raise NetworkError(f"noise fraction must be in (0, 1]: {fraction!r}")
        return NoiseFault(
            kind=kind,
            at_s=at_s,
            nodes=_locs(nodes, "noise nodes") if nodes is not None else (),
            fraction=float(fraction) if fraction is not None else None,
            prr=_prr(spec.get("prr", 0.0), "noise prr"),
            duration_s=_window(spec),
        )
    if kind == "crash":
        reboot_s = spec.get("reboot_s")
        if reboot_s is not None and float(reboot_s) <= 0:
            raise NetworkError(f"crash reboot_s must be positive: {reboot_s!r}")
        return CrashFault(
            kind=kind,
            at_s=at_s,
            nodes=_locs(spec.get("nodes"), "crash nodes"),
            reboot_s=float(reboot_s) if reboot_s is not None else None,
            volatile=bool(spec.get("volatile", True)),
        )
    if kind == "corrupt":
        nodes = spec.get("nodes")
        return CorruptFault(
            kind=kind,
            at_s=at_s,
            nodes=_locs(nodes, "corrupt nodes") if nodes is not None else None,
            probability=_prr(spec.get("probability", 1.0), "corrupt probability"),
            duration_s=_window(spec),
        )
    if kind == "correlated_crash":
        rect = spec.get("rect")
        if not isinstance(rect, (list, tuple)) or len(rect) != 2:
            raise NetworkError(
                "correlated_crash requires 'rect': [[x0, y0], [x1, y1]]"
            )
        (x0, y0), (x1, y1) = (_loc(rect[0], "rect corner"), _loc(rect[1], "rect corner"))
        if x1 < x0 or y1 < y0:
            raise NetworkError(
                f"correlated_crash rect corners must be [min, max]: {rect!r}"
            )
        reboot_s = spec.get("reboot_s")
        if reboot_s is not None and float(reboot_s) <= 0:
            raise NetworkError(f"correlated_crash reboot_s must be positive: {reboot_s!r}")
        stagger_s = float(spec.get("stagger_s", 0.0))
        if stagger_s < 0:
            raise NetworkError(f"correlated_crash stagger_s must be >= 0: {stagger_s!r}")
        if stagger_s > 0 and reboot_s is None:
            raise NetworkError("correlated_crash stagger_s requires reboot_s")
        return CorrelatedCrashFault(
            kind=kind,
            at_s=at_s,
            rect=((x0, y0), (x1, y1)),
            reboot_s=float(reboot_s) if reboot_s is not None else None,
            stagger_s=stagger_s,
            volatile=bool(spec.get("volatile", True)),
        )
    # worker_kill / worker_hang
    shard = spec.get("shard")
    if not isinstance(shard, int) or shard < 0:
        raise NetworkError(f"{kind} fault requires a non-negative 'shard': {shard!r}")
    hang_s = spec.get("hang_s")
    if hang_s is not None and float(hang_s) <= 0:
        raise NetworkError(f"worker_hang hang_s must be positive: {hang_s!r}")
    return WorkerFault(
        kind=kind,
        at_s=at_s,
        shard=shard,
        hang_s=float(hang_s) if hang_s is not None else None,
    )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated campaign of fault events.

    Built from a spec via :meth:`from_spec`; an empty plan is the explicit
    spelling of "no faults" and installs nothing (the bit-identity contract).
    """

    events: tuple[FaultEvent, ...] = ()

    @classmethod
    def from_spec(cls, spec: "FaultPlan | dict | list | str | Path | None") -> "FaultPlan":
        """Build from ``None``, a dict (``{"events": [...]}``), a bare event
        list, a JSON file path, or an existing plan (passed through)."""
        if spec is None:
            return cls()
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, (str, Path)):
            try:
                spec = json.loads(Path(spec).read_text())
            except OSError as error:
                raise NetworkError(f"unreadable fault plan {str(spec)!r}: {error}") from error
            except json.JSONDecodeError as error:
                raise NetworkError(f"malformed fault plan JSON: {error}") from error
        if isinstance(spec, dict):
            unknown = set(spec) - {"events"}
            if unknown:
                raise NetworkError(f"unknown fault plan keys: {sorted(unknown)}")
            spec = spec.get("events", [])
        if not isinstance(spec, (list, tuple)):
            raise NetworkError(f"fault plan must be a dict or event list: {spec!r}")
        events = tuple(sorted((_parse_event(entry) for entry in spec), key=lambda e: e.at_s))
        return cls(events=events)

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed, spec: dict) -> "FaultPlan":
        """Draw a campaign from a seeded distribution instead of a fixed list.

        ``spec`` describes the distribution; every draw comes from a
        ``random.Random(f"{seed}/fault-plan")`` stream, so ``(seed, spec)``
        always yields the same campaign — a chaos run can sample fresh
        campaigns per seed while staying exactly replayable.  Keys:

        ``field`` (required)
            ``[[x0, y0], [x1, y1]]`` inclusive location bounds every target
            is drawn from (use the deployment's grid extent).
        ``duration_s`` (required)
            Campaign horizon; events start inside ``[0, 0.6 * duration_s]``.
        ``count`` (default 4)
            Number of events to draw.
        ``kinds`` (default ``["link", "noise", "crash", "corrupt"]``)
            Event kinds to draw from; may include ``correlated_crash``.
        ``prr`` / ``probability`` / ``window_s`` / ``reboot_s`` / ``stagger_s``
            Optional ``[lo, hi]`` ranges overriding the built-in defaults
            (degradation severity, corruption odds, window widths, reboot
            delay, correlated-reboot stagger).

        Generated events always name explicit nodes (never ``fraction``), so
        a generated campaign is valid for sharded runs as-is.
        """
        known = {
            "field", "duration_s", "count", "kinds",
            "prr", "probability", "window_s", "reboot_s", "stagger_s",
        }
        unknown = set(spec) - known
        if unknown:
            raise NetworkError(f"unknown fault generator keys: {sorted(unknown)}")
        try:
            (x0, y0), (x1, y1) = (
                _loc(spec["field"][0], "generator field corner"),
                _loc(spec["field"][1], "generator field corner"),
            )
        except (KeyError, TypeError, IndexError):
            raise NetworkError(
                "fault generator requires 'field': [[x0, y0], [x1, y1]]"
            ) from None
        if x1 < x0 or y1 < y0:
            raise NetworkError("fault generator field corners must be [min, max]")
        if "duration_s" not in spec:
            raise NetworkError("fault generator requires 'duration_s'")
        duration = float(spec["duration_s"])
        if duration <= 0:
            raise NetworkError(f"fault generator duration_s must be positive: {duration}")
        count = int(spec.get("count", 4))
        if count < 1:
            raise NetworkError(f"fault generator count must be >= 1: {count}")
        kinds = tuple(spec.get("kinds", ("link", "noise", "crash", "corrupt")))
        drawable = NODE_KINDS
        if not kinds or any(k not in drawable for k in kinds):
            raise NetworkError(
                f"fault generator kinds must be drawn from {sorted(drawable)}: {kinds!r}"
            )

        def span(key: str, lo: float, hi: float) -> tuple[float, float]:
            if key not in spec:
                return (lo, hi)
            try:
                a, b = (float(v) for v in spec[key])
            except (TypeError, ValueError):
                raise NetworkError(f"generator {key} must be a [lo, hi] range") from None
            if b < a:
                raise NetworkError(f"generator {key} range must be [lo, hi]: {spec[key]!r}")
            return (a, b)

        prr_range = span("prr", 0.0, 0.3)
        probability_range = span("probability", 0.1, 0.5)
        window_range = span("window_s", 0.1 * duration, 0.3 * duration)
        reboot_range = span("reboot_s", 0.05 * duration, 0.2 * duration)
        stagger_range = span("stagger_s", 0.0, 0.1 * duration)

        rng = random.Random(f"{seed}/fault-plan")
        node = lambda: (rng.randint(x0, x1), rng.randint(y0, y1))  # noqa: E731
        events: list[dict] = []
        for _ in range(count):
            kind = rng.choice(kinds)
            at_s = round(rng.uniform(0.0, 0.6 * duration), 3)
            window = round(rng.uniform(*window_range), 3)
            event: dict = {"kind": kind, "at_s": at_s}
            if kind == "link":
                src = node()
                # A neighbor one cell over (clamped into the field) so the
                # degraded link is one the topology can actually exercise.
                dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
                dst = (min(max(src[0] + dx, x0), x1), min(max(src[1] + dy, y0), y1))
                if dst == src:
                    dst = (min(max(src[0] - dx, x0), x1), min(max(src[1] - dy, y0), y1))
                event.update(
                    links=[[list(src), list(dst)]],
                    prr=round(rng.uniform(*prr_range), 3),
                    duration_s=window,
                    symmetric=rng.random() < 0.5,
                )
            elif kind == "noise":
                victims = sorted({node() for _ in range(rng.randint(1, 3))})
                event.update(
                    nodes=[list(v) for v in victims],
                    prr=round(rng.uniform(*prr_range), 3),
                    duration_s=window,
                )
            elif kind == "crash":
                victims = sorted({node() for _ in range(rng.randint(1, 2))})
                event.update(
                    nodes=[list(v) for v in victims],
                    reboot_s=round(rng.uniform(*reboot_range), 3),
                    volatile=rng.random() < 0.5,
                )
            elif kind == "corrupt":
                event.update(
                    probability=round(rng.uniform(*probability_range), 3),
                    duration_s=window,
                )
            else:  # correlated_crash
                ax, ay = node()
                bx = min(ax + rng.randint(0, max(1, (x1 - x0) // 2)), x1)
                by = min(ay + rng.randint(0, max(1, (y1 - y0) // 2)), y1)
                event.update(
                    rect=[[ax, ay], [bx, by]],
                    reboot_s=round(rng.uniform(*reboot_range), 3),
                    stagger_s=round(rng.uniform(*stagger_range), 3),
                    volatile=rng.random() < 0.5,
                )
            events.append(event)
        return cls.from_spec({"events": events})

    # ------------------------------------------------------------------
    def resolve(self, topology, seed) -> "FaultPlan":
        """Expand :class:`CorrelatedCrashFault` events into per-node crashes.

        Each member of an event's rectangle gets its own ``crash`` with a
        reboot staggered by a uniform draw from the plan-level
        ``"{seed}/correlated-crash"`` stream — deterministic in the scenario
        seed alone, so the single-process build, the inline driver, and
        every forked worker expand the exact same plan (events in plan
        order, members in sorted location order).  Plans without correlated
        events pass through untouched.
        """
        if not any(isinstance(e, CorrelatedCrashFault) for e in self.events):
            return self
        rng = random.Random(f"{seed}/correlated-crash")
        present = sorted((loc.x, loc.y) for loc in topology.locations())
        events: list[FaultEvent] = []
        for event in self.events:
            if not isinstance(event, CorrelatedCrashFault):
                events.append(event)
                continue
            (x0, y0), (x1, y1) = event.rect
            members = [
                loc for loc in present if x0 <= loc[0] <= x1 and y0 <= loc[1] <= y1
            ]
            if not members:
                raise NetworkError(
                    f"correlated_crash rect {list(event.rect)} contains no "
                    "deployed motes"
                )
            for member in members:
                reboot = event.reboot_s
                if reboot is not None and event.stagger_s:
                    reboot = round(reboot + rng.uniform(0.0, event.stagger_s), 6)
                events.append(
                    CrashFault(
                        kind="crash",
                        at_s=event.at_s,
                        nodes=(member,),
                        reboot_s=reboot,
                        volatile=event.volatile,
                    )
                )
        return FaultPlan(events=tuple(sorted(events, key=lambda e: e.at_s)))

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not self.events

    @property
    def node_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in NODE_KINDS)

    @property
    def process_events(self) -> tuple[WorkerFault, ...]:
        return tuple(e for e in self.events if e.kind in PROCESS_KINDS)

    # ------------------------------------------------------------------
    def _known_locations(self) -> set[Loc]:
        known: set[Loc] = set()
        for event in self.node_events:
            if isinstance(event, LinkFault):
                for src, dst in event.links:
                    known.update((src, dst))
            elif getattr(event, "nodes", None):
                known.update(event.nodes)
        return known

    def validate_against(self, topology) -> None:
        """Fail fast on nodes the deployment does not contain."""
        present = {(loc.x, loc.y) for loc in topology.locations()}
        unknown = sorted(self._known_locations() - present)
        if unknown:
            raise NetworkError(f"fault plan references unknown nodes: {unknown}")

    def validate_sharded(self, shards: int) -> None:
        """The extra constraints of a sharded run: explicit victims only
        (fraction draws cannot be coordinated across per-region RNG streams)
        and chaos targets that actually exist."""
        for event in self.node_events:
            if isinstance(event, NoiseFault) and event.fraction is not None:
                raise NetworkError(
                    "sharded runs require explicit noise victim 'nodes': a "
                    "'fraction' draw cannot span per-region RNG streams"
                )
        for event in self.process_events:
            if event.shard >= shards:
                raise NetworkError(
                    f"fault plan targets worker {event.shard} but the run has "
                    f"{shards} shard(s)"
                )

    # ------------------------------------------------------------------
    def for_region(self, partition, index: int) -> "FaultPlan":
        """The node events region ``index`` must apply locally.

        Routing rule: an event lands where its *effect* is decided — link and
        noise degradation at the receiver's home region (delivery is resolved
        there; ghost replays consult the same overrides), crash/reboot at the
        victim's owner, corruption at the transmitter's owner (the corrupted
        flag rides the seam envelope).
        """
        owned = {(loc.x, loc.y) for loc in partition.regions[index].locations}
        kept: list[FaultEvent] = []
        for event in self.node_events:
            if isinstance(event, CorrelatedCrashFault):
                raise NetworkError(
                    "correlated_crash events must be resolved (FaultPlan."
                    "resolve) before a plan can be split across shards"
                )
            if isinstance(event, LinkFault):
                links = tuple(pair for pair in event.links if pair[1] in owned)
                if links:
                    kept.append(replace(event, links=links))
            elif isinstance(event, NoiseFault):
                nodes = tuple(n for n in event.nodes if n in owned)
                if nodes:
                    kept.append(replace(event, nodes=nodes))
            elif isinstance(event, CrashFault):
                nodes = tuple(n for n in event.nodes if n in owned)
                if nodes:
                    kept.append(replace(event, nodes=nodes))
            elif isinstance(event, CorruptFault):
                if event.nodes is None:
                    kept.append(event)  # every region corrupts its own senders
                else:
                    nodes = tuple(n for n in event.nodes if n in owned)
                    if nodes:
                        kept.append(replace(event, nodes=nodes))
        return FaultPlan(events=tuple(kept))

    def to_spec(self) -> dict:
        """The plain-dict round trip (JSON-serializable)."""
        events = []
        for event in self.events:
            entry: dict = {"kind": event.kind, "at_s": event.at_s}
            if isinstance(event, LinkFault):
                entry["links"] = [[list(src), list(dst)] for src, dst in event.links]
                entry["prr"] = event.prr
                if event.duration_s is not None:
                    entry["duration_s"] = event.duration_s
            elif isinstance(event, NoiseFault):
                if event.fraction is not None:
                    entry["fraction"] = event.fraction
                else:
                    entry["nodes"] = [list(n) for n in event.nodes]
                entry["prr"] = event.prr
                if event.duration_s is not None:
                    entry["duration_s"] = event.duration_s
            elif isinstance(event, CrashFault):
                entry["nodes"] = [list(n) for n in event.nodes]
                entry["volatile"] = event.volatile
                if event.reboot_s is not None:
                    entry["reboot_s"] = event.reboot_s
            elif isinstance(event, CorruptFault):
                if event.nodes is not None:
                    entry["nodes"] = [list(n) for n in event.nodes]
                entry["probability"] = event.probability
                if event.duration_s is not None:
                    entry["duration_s"] = event.duration_s
            elif isinstance(event, CorrelatedCrashFault):
                entry["rect"] = [list(corner) for corner in event.rect]
                entry["volatile"] = event.volatile
                if event.reboot_s is not None:
                    entry["reboot_s"] = event.reboot_s
                if event.stagger_s:
                    entry["stagger_s"] = event.stagger_s
            elif isinstance(event, WorkerFault):
                entry["shard"] = event.shard
                if event.hang_s is not None:
                    entry["hang_s"] = event.hang_s
            events.append(entry)
        return {"events": events}
