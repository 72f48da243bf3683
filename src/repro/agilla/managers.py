"""Middleware managers: tuple space, agents, and context (paper Figure 4).

* :class:`TupleSpaceManager` — owns the local tuple space, the reaction
  registry, and the wait queue behind blocking ``in``/``rd``.
* :class:`AgentManager` — tracks resident agents ("by default ... up to 4"),
  allocates/frees their resources, and mints agent ids.
* :class:`ContextManager` — location, neighbor list, and the pre-defined
  context tuples ("If a node has a thermometer, Agilla would insert a
  'temperature tuple' into its tuple space" §2.2; also the identities of
  co-located agents).
"""

from __future__ import annotations

from typing import Any

from repro.agilla import params as P
from repro.agilla.agent import Agent, AgentState
from repro.agilla.fields import AgentIdField, LocationField, StringField
from repro.agilla.reactions import (
    NEIGHBOR_FOUND_TAG,
    NEIGHBOR_LOST_TAG,
    NEIGHBOR_TAG,
    WAKEUP_TAG,
    Reaction,
    ReactionRegistry,
    neighbor_found_template,
    neighbor_lost_template,
    wakeup_template,
)
from repro.agilla.tuples import AgillaTuple, make_template, make_tuple
from repro.net.acquaintance import (
    NEIGHBOR_DISPLACED,
    NEIGHBOR_FOUND,
    NEIGHBOR_LOST,
    NEIGHBOR_MOVED,
    Acquaintance,
)
from repro.net.addresses import Location
from repro.agilla.tuplespace import TupleSpace
from repro.agilla.vm_ops import ts_work_cycles
from repro.errors import (
    AgentLimitError,
    ReactionRegistryFullError,
    TupleSpaceFullError,
)
from repro.mote.sensors import SENSOR_TAGS

#: Tuple tag marking a co-located agent: <'agt', agent-id>.
AGENT_TAG = "agt"

#: RAM bytes one agent context occupies: 16 stack slots x 5 B + 12 heap
#: slots x 5 B + registers and scheduling state (Figure 6).
AGENT_CONTEXT_BYTES = 148


class TupleSpaceManager:
    """Tuple space + reactions + blocked-agent wait queue for one node."""

    def __init__(self, middleware: Any):
        self.middleware = middleware
        params = middleware.params
        self.space = TupleSpace(params.ts_arena_bytes)
        self.registry = ReactionRegistry(params.reaction_registry_bytes)
        self._blocked: list[Agent] = []
        memory = middleware.mote.memory
        memory.allocate("TupleSpaceManager", "arena", params.ts_arena_bytes)
        memory.allocate("TupleSpaceManager", "bookkeeping", 24)
        memory.allocate("ReactionRegistry", "registry", params.reaction_registry_bytes)
        # Statistics.
        self.reactions_fired = 0

    # ------------------------------------------------------------------
    # Operations (each returns its result plus CPU cycles of arena work)
    # ------------------------------------------------------------------
    def insert(self, tup: AgillaTuple) -> tuple[bool, int]:
        """``out``: insert, fire matching reactions, wake blocked agents.

        Returns ``(inserted, extra_cycles)``; a full arena rejects the tuple
        rather than evicting (the paper leaves richer policies as future
        work).
        """
        try:
            self.space.out(tup)
        except TupleSpaceFullError:
            return False, ts_work_cycles(self.space.last_work)
        extra = ts_work_cycles(self.space.last_work)
        extra += len(self.registry) * P.RXN_MATCH_CYCLES
        engine = self.middleware.engine
        agent_manager = self.middleware.agent_manager
        for reaction in self.registry.matching(tup):
            agent = agent_manager.get(reaction.agent_id)
            if agent is not None:
                self.reactions_fired += 1
                engine.deliver_reaction(agent, reaction.handler_pc, tup)
        # "the agents in this queue are notified and can re-check" (§3.4).
        for agent in list(self._blocked):
            self.unblock(agent)
            engine.make_ready(agent)
        return True, extra

    def take(self, template: AgillaTuple) -> tuple[AgillaTuple | None, int]:
        """``inp``: probe-and-remove."""
        result = self.space.inp(template)
        return result, ts_work_cycles(self.space.last_work)

    def read(self, template: AgillaTuple) -> tuple[AgillaTuple | None, int]:
        """``rdp``: probe."""
        result = self.space.rdp(template)
        return result, ts_work_cycles(self.space.last_work)

    def count(self, template: AgillaTuple) -> tuple[int, int]:
        """``tcount``."""
        result = self.space.count(template)
        return result, ts_work_cycles(self.space.last_work)

    # ------------------------------------------------------------------
    # Reactions
    # ------------------------------------------------------------------
    def register_reaction(self, reaction: Reaction) -> bool:
        try:
            self.registry.register(reaction)
        except ReactionRegistryFullError:
            return False
        return True

    def deregister_reaction(self, agent_id: int, template: AgillaTuple) -> bool:
        return self.registry.deregister(agent_id, template)

    # ------------------------------------------------------------------
    # Blocking in/rd wait queue
    # ------------------------------------------------------------------
    def block(self, agent: Agent) -> None:
        if agent not in self._blocked:
            self._blocked.append(agent)

    def unblock(self, agent: Agent) -> None:
        if agent in self._blocked:
            self._blocked.remove(agent)

    # ------------------------------------------------------------------
    def remove_agent(self, agent: Agent) -> list[Reaction]:
        """Strip an agent's registrations and wait-queue entries."""
        self.unblock(agent)
        return self.registry.remove_agent(agent.id)


class AgentManager:
    """Resident-agent table and life-cycle management."""

    DEATH_LOG_LIMIT = 256

    def __init__(self, middleware: Any):
        self.middleware = middleware
        self.max_agents = middleware.params.max_agents
        self.agents: dict[int, Agent] = {}
        self._id_counter = 0
        middleware.mote.memory.allocate(
            "AgentManager", "agent contexts", self.max_agents * AGENT_CONTEXT_BYTES
        )
        #: (agent id, name, reason, time) for every departed/dead agent.
        self.death_log: list[tuple[int, str, str, int]] = []
        # Statistics.
        self.installed = 0

    # ------------------------------------------------------------------
    def mint_id(self) -> int:
        """A node-unique agent id (node id in the high bits — §3.3: a cloned
        agent is assigned a new ID)."""
        self._id_counter += 1
        minted = ((self.middleware.mote.id << 10) + self._id_counter) & 0xFFFF
        return minted if minted != 0 else 1

    def get(self, agent_id: int) -> Agent | None:
        return self.agents.get(agent_id)

    def resident(self) -> list[Agent]:
        return sorted(self.agents.values(), key=lambda a: a.id)

    def can_accept(self, code_size: int) -> bool:
        """Room for one more agent with this much code?"""
        if len(self.agents) >= self.max_agents:
            return False
        return self.middleware.instruction_manager.can_fit(code_size)

    # ------------------------------------------------------------------
    def install(self, agent: Agent, code: bytes, make_ready: bool = True) -> None:
        """Admit an agent: allocate code memory, advertise it, schedule it."""
        if len(self.agents) >= self.max_agents:
            raise AgentLimitError(
                f"mote {self.middleware.mote.id}: already hosting "
                f"{self.max_agents} agents"
            )
        self.middleware.instruction_manager.allocate(agent.id, code)
        self.agents[agent.id] = agent
        self.installed += 1
        self.middleware.context_manager.agent_added(agent)
        if make_ready:
            self.middleware.engine.make_ready(agent)

    def kill(self, agent: Agent, reason: str) -> None:
        """Remove an agent and free everything it held (§2.2: "When an agent
        completes its task it dies, allowing Agilla to free its resources")."""
        if agent.state == AgentState.DEAD:
            return
        agent.state = AgentState.DEAD
        agent.death_reason = reason
        self.middleware.engine.remove(agent)
        self.middleware.tuplespace_manager.remove_agent(agent)
        self.middleware.remote_ops.cancel_agent(agent)
        if self.middleware.instruction_manager.holds(agent.id):
            self.middleware.instruction_manager.free(agent.id)
        self.agents.pop(agent.id, None)
        self.middleware.context_manager.agent_removed(agent)
        if len(self.death_log) < self.DEATH_LOG_LIMIT:
            self.death_log.append(
                (agent.id, agent.name, reason, self.middleware.mote.sim.now)
            )


class ContextManager:
    """Location, neighbors, and pre-defined context tuples (§2.2, §3.2)."""

    def __init__(self, middleware: Any):
        self.middleware = middleware
        self._watching = False
        #: Ids pushed out of the acquaintance table by capacity pressure,
        #: mapped to the sim time of the displacement.  Prompt re-admission
        #: is table thrash, not discovery — the matching ``<'nbf'>`` event
        #: is suppressed so dense fields (audible degree above capacity) do
        #: not storm reactions with phantom finds.  The marker expires after
        #: the staleness horizon: a displaced node that then genuinely
        #: departs and returns much later *is* a recovery and must fire.
        self._displaced_ids: dict[int, int] = {}
        #: Mirror addresses whose last sync lost tuples to a full arena;
        #: retried on the next event so the mirror re-converges once the
        #: arena drains.
        self._dirty_mirrors: set[Location] = set()
        #: Steward flap damping: mote id -> sim time its last ``<'nbf'>``
        #: actually fired.  A repeat find inside the hold-down window
        #: (``params.find_hold_down_intervals`` beacon periods) is *deferred*
        #: instead of fired — the pending location is parked here and flushed
        #: once the window expires, if the neighbor is still up.
        self._last_find_fired: dict[int, int] = {}
        self._deferred_finds: dict[int, Location] = {}
        # Statistics.
        self.neighbor_events = 0
        self.wake_events = 0
        self.find_events = 0
        self.refind_suppressions = 0
        self.flap_deferrals = 0
        self.deferred_finds_fired = 0

    @property
    def location(self):
        return self.middleware.mote.location

    @property
    def acquaintances(self):
        return self.middleware.acquaintances

    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Insert the sensor-availability context tuples at start-up."""
        for sensor_type in self.middleware.mote.sensors.types():
            tag = SENSOR_TAGS.get(sensor_type)
            if tag is not None:
                self.middleware.tuplespace_manager.insert(
                    make_tuple(StringField(tag))
                )

    # ------------------------------------------------------------------
    # Adaptive neighborhoods: churn surfaced as tuples (reactions fire)
    # ------------------------------------------------------------------
    def watch_neighborhood(self) -> None:
        """Mirror acquaintance churn and radio wake-ups into the tuple space.

        Installed at boot by adaptive deployments (after priming, so the
        warm-start neighbor set raises no events).  The mirror keeps one
        ``<'nbr', location>`` tuple per live neighbor; a membership change
        additionally (re)inserts the matching one-shot event tuple —
        ``<'nbf', location>`` on discovery/recovery, ``<'nbl', location>``
        on beacon loss, ``<'wup'>`` on the node's own radio powering up —
        which is what agent reactions actually vector on.  Only the latest
        event tuple of each kind is retained, so the arena footprint stays
        bounded no matter how long the deployment churns.
        """
        if self._watching:
            return
        self._watching = True
        acquaintances = self.middleware.acquaintances
        acquaintances.listeners.append(self._on_neighbor_event)
        self.middleware.stack.radio.power_listeners.append(self._on_radio_power)
        for entry in acquaintances.neighbors():
            if not self._insert(self._neighbor_tuple(NEIGHBOR_TAG, entry.location)):
                self._dirty_mirrors.add(entry.location)  # retried on next event

    @property
    def watching(self) -> bool:
        return self._watching

    def _neighbor_tuple(self, tag: str, location: Location) -> AgillaTuple:
        return make_tuple(StringField(tag), LocationField(location))

    def _insert(self, tup: AgillaTuple) -> bool:
        """Best-effort context insert: a full arena drops the tuple (exactly
        as the paper's fixed-RAM middleware would have to).  Returns whether
        it landed, so mirror syncs can schedule a retry."""
        inserted, _ = self.middleware.tuplespace_manager.insert(tup)
        return inserted

    def _replace(self, template: AgillaTuple, tup: AgillaTuple) -> None:
        self.middleware.tuplespace_manager.space.remove_all(template)
        self._insert(tup)

    def _sync_mirror_at(self, location: Location) -> None:
        """Rebuild the ``<'nbr', location>`` tuples for one address from the
        live list.  Locations are not identities — two mobile neighbors can
        quantize to the same grid address — so removal is never keyed on a
        single entry: the mirror at an address is exactly one tuple per live
        acquaintance currently there.  If the arena is too full to hold the
        rebuilt mirror, the address is marked dirty and re-synced on the
        next event, so a transient arena spike cannot permanently desync
        the mirror from the live list."""
        space = self.middleware.tuplespace_manager.space
        space.remove_all(self._neighbor_tuple(NEIGHBOR_TAG, location))
        complete = True
        for entry in self.middleware.acquaintances.neighbors():
            if entry.location == location:
                complete &= self._insert(self._neighbor_tuple(NEIGHBOR_TAG, location))
        if complete:
            self._dirty_mirrors.discard(location)
        else:
            self._dirty_mirrors.add(location)

    def _retry_dirty_mirrors(self) -> None:
        for location in list(self._dirty_mirrors):
            self._sync_mirror_at(location)

    def _on_neighbor_event(
        self, event: str, entry: Acquaintance, previous: Location | None
    ) -> None:
        self.neighbor_events += 1
        self._retry_dirty_mirrors()
        if event == NEIGHBOR_FOUND:
            self._sync_mirror_at(entry.location)
            displaced_at = self._displaced_ids.pop(entry.mote_id, None)
            now = self.middleware.mote.sim.now
            horizon = self.middleware.acquaintances.timeout
            if displaced_at is not None and now - displaced_at <= horizon:
                # Table thrash: this neighbor was never gone, only squeezed
                # out moments ago.  Re-admission is not discovery/recovery.
                self.refind_suppressions += 1
            else:
                # Either a first discovery, or a displaced node that stayed
                # silent past the staleness horizon — that is a recovery.
                self._raise_find(entry.mote_id, entry.location, now)
        elif event == NEIGHBOR_LOST:
            self._displaced_ids.pop(entry.mote_id, None)
            # A pending deferred find is moot: the neighbor went dark again
            # before its hold-down expired (the flap damping working).
            self._deferred_finds.pop(entry.mote_id, None)
            self._sync_mirror_at(entry.location)
            self._replace(
                neighbor_lost_template(),
                self._neighbor_tuple(NEIGHBOR_LOST_TAG, entry.location),
            )
        elif event == NEIGHBOR_DISPLACED:
            # Capacity pressure, not beacon loss: the neighbor is alive and
            # its next beacon re-adds it — update the mirror, raise no event.
            self._displaced_ids[entry.mote_id] = self.middleware.mote.sim.now
            self._sync_mirror_at(entry.location)
        elif event == NEIGHBOR_MOVED and previous is not None:
            self._sync_mirror_at(previous)
            self._sync_mirror_at(entry.location)

    # ------------------------------------------------------------------
    # Steward flap damping (hold-down before repeat <'nbf'> events)
    # ------------------------------------------------------------------
    @property
    def find_hold_down(self) -> int:
        """The hold-down window in µs (0 when damping is disabled)."""
        intervals = self.middleware.params.find_hold_down_intervals
        if intervals <= 0:
            return 0
        return intervals * self.middleware.beacons.period

    def _raise_find(self, mote_id: int, location: Location, now: int) -> None:
        """Fire ``<'nbf', location>`` — or defer it inside the hold-down.

        The first find for a mote always fires immediately (a recovery after
        genuine silence must re-knit monitoring without delay).  A *repeat*
        find within ``find_hold_down`` of the last fired one is the flapping
        pattern the steward must not chase: the location is parked and one
        flush is scheduled for the window's end, so however often the node
        flaps, watching agents see at most one ``<'nbf'>`` per window — and
        still see one if the node finally stabilizes mid-window.
        """
        hold_down = self.find_hold_down
        last_fired = self._last_find_fired.get(mote_id)
        if hold_down > 0 and last_fired is not None and now - last_fired < hold_down:
            self.flap_deferrals += 1
            if mote_id not in self._deferred_finds:
                self.middleware.mote.sim.schedule(
                    last_fired + hold_down - now, self._flush_deferred_find, mote_id
                )
            self._deferred_finds[mote_id] = location
            return
        self.find_events += 1
        self._last_find_fired[mote_id] = now
        self._replace(
            neighbor_found_template(),
            self._neighbor_tuple(NEIGHBOR_FOUND_TAG, location),
        )

    def _flush_deferred_find(self, mote_id: int) -> None:
        location = self._deferred_finds.pop(mote_id, None)
        if location is None:
            return  # lost again before the window expired: nothing to monitor
        if mote_id not in self.middleware.acquaintances:
            return  # expired from the live list while the window ran out
        self.deferred_finds_fired += 1
        self._raise_find(mote_id, location, self.middleware.mote.sim.now)

    def _on_radio_power(self, up: bool) -> None:
        if up:
            self.wake_events += 1
            self._retry_dirty_mirrors()
            self._replace(wakeup_template(), make_tuple(StringField(WAKEUP_TAG)))

    # ------------------------------------------------------------------
    def agent_added(self, agent: Agent) -> None:
        """Advertise a co-located agent: <'agt', id> (§2.2 context info)."""
        self.middleware.tuplespace_manager.insert(
            make_tuple(StringField(AGENT_TAG), AgentIdField(agent.id))
        )

    def agent_removed(self, agent: Agent) -> None:
        template = make_template(StringField(AGENT_TAG), AgentIdField(agent.id))
        self.middleware.tuplespace_manager.space.remove_all(template)
