"""Hop-by-hop agent migration: the agent sender and receiver (paper §3.2).

"To help minimize this problem, agents are migrated one hop at a time, and
each message is acknowledged.  ...  If a one-hop acknowledgement is not
received within 0.1 seconds, the message is retransmitted.  This repeats up
for four times.  If the operation stalls for over 0.25 seconds, the receiver
aborts.  If the sender detects a failure, it resumes the agent running on the
local machine with the condition code set to zero.  While this may result in
duplicate agents, the alternative is to simply kill the agent."

Custody transfer: the sender only finalizes (kills a moved agent / resumes a
cloning parent with condition 1) after the receiver acknowledges the final
*commit* message, so an agent is never lost to a half-finished hop — only
duplicated, exactly the trade the paper chose.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.agilla.agent import Agent, AgentState
from repro.agilla.reactions import Reaction
from repro.agilla.wire import (
    AgentImage,
    IncomingAgent,
    MigrationMessage,
    decode_ack,
    encode_ack,
    messages_from_image,
    serialize_agent,
)
from repro.errors import AgentLimitError, CodeMemoryError, NetworkError
from repro.location import Location
from repro.net import am
from repro.net.codec import pack_location, unpack_location
from repro.radio.frame import Frame
from repro.sim.kernel import EventHandle

#: CPU cycles to package / unpack an agent around a hop transfer.
PACKAGE_CYCLES = 2600
INSTALL_CYCLES = 2600

#: How long a finished transfer keeps re-acknowledging stray retransmits.
COMPLETED_CACHE_US = 2_000_000


@dataclass
class OutgoingTransfer:
    """One hop transfer in progress (origin or relay)."""

    kind: str
    final_dest: Location
    agent_id: int
    next_hop: int
    messages: list[MigrationMessage]
    agent: Agent | None = None  # present at the origin node only
    image: AgentImage | None = None  # present at relay nodes only
    removed_reactions: list[Reaction] = field(default_factory=list)
    index: int = 0
    retransmits: int = 0
    started_at: int = 0

    @property
    def at_origin(self) -> bool:
        return self.agent is not None


class MigrationService:
    """Agent sender + agent receiver for one node."""

    def __init__(self, middleware: Any):
        self.middleware = middleware
        self.params = middleware.params
        stack = middleware.stack
        for am_type in am.MIGRATION_DATA_TYPES:
            stack.register_handler(am_type, self._on_data)
        stack.register_handler(am.AM_MIGRATE_ACK, self._on_ack)
        stack.register_handler(am.AM_MIGRATE_E2E, self._on_e2e)
        self._queue: deque[OutgoingTransfer] = deque()
        self._active: OutgoingTransfer | None = None
        self._ack_timer: EventHandle | None = None
        self._gap_timer: EventHandle | None = None
        self._incoming: IncomingAgent | None = None
        self._abort_timer: EventHandle | None = None
        #: (src mote, agent id) -> expiry; lets us re-ack late retransmits
        #: after custody already transferred.
        self._completed: dict[tuple[int, int], int] = {}
        memory = middleware.mote.memory
        memory.allocate("AgentReceiver", "staging buffer", 280)
        memory.allocate("AgentSender", "transfer state", 64)
        #: (event, agent id, time) log consumed by tests and benchmarks.
        #: Events: start, hop_ok, fail, arrival, relay, local_clone, stuck.
        self.events: list[tuple[str, int, int]] = []
        # Statistics.
        self.transfers_started = 0
        self.hop_successes = 0
        self.failures = 0
        self.arrivals = 0
        self.aborts = 0
        self.messages_sent = 0
        self.duplicate_acks = 0
        self.install_drops = 0

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.middleware.mote.sim

    @property
    def busy(self) -> bool:
        """True while any transfer is in progress at this node (an agent may
        exist only as a staged image here, not as an installed Agent)."""
        return (
            self._active is not None
            or bool(self._queue)
            or self._incoming is not None
        )

    def move_destination(self, agent: Agent) -> Location | None:
        """Where a hop-by-hop move of ``agent`` from this node is bound, while
        the move still holds the origin copy; otherwise None."""
        for transfer in (self._active, *self._queue):
            if transfer is not None and transfer.agent is agent:
                return transfer.final_dest if transfer.kind in ("smove", "wmove") else None
        return None

    def _log(self, event: str, agent_id: int) -> None:
        if len(self.events) < 100_000:
            self.events.append((event, agent_id, self.sim.now))

    # ==================================================================
    # Sender side
    # ==================================================================
    def initiate(self, agent: Agent, kind: str, dest: Location) -> None:
        """Entry point from the smove/wmove/sclone/wclone handlers.

        Deferred through the task queue so the engine finishes the
        instruction (and parks the agent in MIGRATING) first.
        """
        self.middleware.mote.tasks.post(PACKAGE_CYCLES, self._start, agent, kind, dest)

    def _start(self, agent: Agent, kind: str, dest: Location) -> None:
        if agent.state != AgentState.MIGRATING:
            return  # killed while the packaging task was queued
        self.transfers_started += 1
        self._log("start", agent.id)
        router = self.middleware.router
        if router.is_self(dest):
            self._migrate_to_self(agent, kind)
            return
        next_hop = router.next_hop(dest)
        if next_hop is None:
            self._fail_at_origin(agent, kind, reactions=None)
            return
        code = self.middleware.instruction_manager.code_of(agent.id)
        is_clone = kind in ("sclone", "wclone")
        if is_clone:
            reactions = self.middleware.tuplespace_manager.registry.for_agent(agent.id)
            removed: list[Reaction] = []
        else:
            # Moves take their reactions along; restore them if the hop fails.
            removed = self.middleware.tuplespace_manager.registry.remove_agent(agent.id)
            reactions = removed
        if self.params.e2e_migration:
            self._start_e2e(agent, kind, dest, code, reactions)
            return
        messages = serialize_agent(agent, kind, dest, code, reactions)
        transfer = OutgoingTransfer(
            kind=kind,
            final_dest=dest,
            agent_id=agent.id,
            next_hop=next_hop,
            messages=messages,
            agent=agent,
            removed_reactions=removed,
            started_at=self.sim.now,
        )
        self._enqueue(transfer)

    def _enqueue(self, transfer: OutgoingTransfer) -> None:
        self._queue.append(transfer)
        self._pump_sender()

    def _pump_sender(self) -> None:
        if self._active is not None or not self._queue:
            return
        self._active = self._queue.popleft()
        self._send_current()

    def _send_current(self) -> None:
        transfer = self._active
        if transfer is None:
            return
        message = transfer.messages[transfer.index]
        self.messages_sent += 1
        self.middleware.stack.send(transfer.next_hop, message.am_type, message.payload)
        self._arm_ack_timer()

    def _arm_ack_timer(self) -> None:
        self._cancel_ack_timer()
        self._ack_timer = self.sim.schedule(self.params.ack_timeout, self._ack_timeout)

    def _cancel_ack_timer(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _ack_timeout(self) -> None:
        self._ack_timer = None
        transfer = self._active
        if transfer is None:
            return
        transfer.retransmits += 1
        if transfer.retransmits > self.params.max_retransmits:
            self._hop_failed(transfer)
            return
        self._send_current()

    def _on_ack(self, frame: Frame) -> None:
        transfer = self._active
        if transfer is None:
            return
        try:
            agent_id, seq = decode_ack(frame.payload)
        except NetworkError:
            return
        if agent_id != transfer.agent_id or frame.src != transfer.next_hop:
            return
        expected = transfer.messages[transfer.index].seq
        if seq != expected:
            self.duplicate_acks += 1
            return
        self._cancel_ack_timer()
        transfer.retransmits = 0
        transfer.index += 1
        if transfer.index >= len(transfer.messages):
            self._hop_succeeded(transfer)
            return
        # Pace the next message through the TinyOS send path (§ calibration).
        self._gap_timer = self.sim.schedule(self.params.send_gap, self._send_current)

    # ------------------------------------------------------------------
    def _hop_succeeded(self, transfer: OutgoingTransfer) -> None:
        self.hop_successes += 1
        self._log("hop_ok", transfer.agent_id)
        self._active = None
        if transfer.at_origin:
            agent = transfer.agent
            if transfer.kind in ("smove", "wmove"):
                # Custody transferred: the local copy dies silently.
                self.middleware.agent_manager.kill(agent, "moved")
            else:
                agent.clones_spawned += 1
                agent.condition = 1
                self.middleware.engine.make_ready(agent)
        self._pump_sender()

    def _hop_failed(self, transfer: OutgoingTransfer) -> None:
        self.failures += 1
        self._log("fail", transfer.agent_id)
        self._active = None
        if transfer.at_origin:
            agent = transfer.agent
            for reaction in transfer.removed_reactions:
                self.middleware.tuplespace_manager.register_reaction(reaction)
            if agent.state == AgentState.MIGRATING:
                agent.condition = 0
                self.middleware.engine.make_ready(agent)
        elif transfer.image is not None:
            # A relay that cannot push the agent onward hosts it, condition 0:
            # better a duplicate/waylaid agent than a lost one (§3.2).
            self._install_image(transfer.image, success=False)
        self._pump_sender()

    def _fail_at_origin(self, agent: Agent, kind: str, reactions) -> None:
        self.failures += 1
        self._log("fail", agent.id)
        if agent.state == AgentState.MIGRATING:
            agent.condition = 0
            self.middleware.engine.make_ready(agent)

    def _migrate_to_self(self, agent: Agent, kind: str) -> None:
        """Destination is this node: moves are no-ops, clones fork locally."""
        if kind in ("smove", "wmove"):
            if kind == "wmove":
                agent.reset_weak()
            agent.condition = 1
            self.middleware.engine.make_ready(agent)
            return
        code = self.middleware.instruction_manager.code_of(agent.id)
        reactions = self.middleware.tuplespace_manager.registry.for_agent(agent.id)
        image = AgentImage(
            kind=kind,
            final_dest=self.middleware.mote.location,
            agent_id=agent.id,
            species=agent.name,
            pc=agent.pc,
            condition=1,
            code=code,
            heap=dict(agent.heap),
            stack=list(agent.stack),
            reactions=[(r.handler_pc, r.template) for r in reactions],
        )
        installed = self._install_image(image, success=True)
        self._log("local_clone", agent.id)
        agent.condition = 1 if installed else 0
        if installed:
            agent.clones_spawned += 1
        self.middleware.engine.make_ready(agent)

    # ==================================================================
    # End-to-end mode (the §3.2 ablation: "We tried using end-to-end
    # communication where messages are not acknowledged till they reach the
    # final destination, but found that the high packet-loss probability
    # over multiple links made this unacceptably prone to failure.")
    # ==================================================================
    #: Per-message routing header: final destination (4 B) + inner type (1 B).
    E2E_HEADER_BYTES = 5

    def _start_e2e(self, agent: Agent, kind: str, dest: Location, code, reactions) -> None:
        from repro.agilla.wire import CODE_CHUNK_BYTES

        messages = serialize_agent(
            agent, kind, dest, code, reactions,
            code_chunk=CODE_CHUNK_BYTES - self.E2E_HEADER_BYTES,
        )
        for index, message in enumerate(messages):
            self.sim.schedule(
                index * self.params.send_gap, self._e2e_send, dest, message
            )
        # The sender gets no feedback; it finalizes optimistically once the
        # last message has (probably) left — the weakness the paper cites.
        done = len(messages) * self.params.send_gap + 300_000
        self.sim.schedule(done, self._e2e_complete, agent, kind)

    def _e2e_send(self, dest: Location, message: MigrationMessage) -> None:
        hop = self.middleware.router.next_hop(dest)
        if hop is None:
            return
        payload = pack_location(dest) + bytes([message.am_type]) + message.payload
        self.messages_sent += 1
        self.middleware.stack.send(hop, am.AM_MIGRATE_E2E, payload)

    def _e2e_complete(self, agent: Agent, kind: str) -> None:
        if agent.state != AgentState.MIGRATING:
            return
        self._log("e2e_sent", agent.id)
        if kind in ("smove", "wmove"):
            self.middleware.agent_manager.kill(agent, "moved (e2e, unconfirmed)")
        else:
            agent.condition = 1
            self.middleware.engine.make_ready(agent)

    def _on_e2e(self, frame: Frame) -> None:
        payload = frame.payload
        if len(payload) < self.E2E_HEADER_BYTES + 3:
            return
        dest = unpack_location(payload, 0)
        inner_type = payload[4]
        inner = payload[self.E2E_HEADER_BYTES :]
        if not self.middleware.router.is_self(dest):
            hop = self.middleware.router.next_hop(dest)
            if hop is not None:
                self.middleware.stack.send(hop, am.AM_MIGRATE_E2E, payload)
            return
        self._receive_data(frame.src, inner_type, inner, send_acks=False)

    # ==================================================================
    # Receiver side
    # ==================================================================
    def _on_data(self, frame: Frame) -> None:
        self._receive_data(frame.src, frame.am_type, frame.payload, send_acks=True)

    def _receive_data(
        self, src: int, am_type: int, payload: bytes, send_acks: bool
    ) -> None:
        if am_type == am.AM_MIGRATE_STATE:
            self._on_state(src, payload, send_acks)
            return
        incoming = self._incoming
        if incoming is None or incoming.src_mote != src:
            if send_acks:
                self._maybe_reack(src, payload)
            return
        try:
            seq = incoming.accept(am_type, payload)
        except NetworkError:
            return
        incoming.messages[seq] = MigrationMessage(am_type, seq, payload)
        if send_acks:
            self._send_ack(src, incoming.agent_id, seq)
        self._arm_abort_timer()
        if am_type == am.AM_MIGRATE_COMMIT and incoming.complete:
            self._finish_incoming()

    def _on_state(self, src: int, payload: bytes, send_acks: bool) -> None:
        try:
            probe = IncomingAgent(src, payload)
        except NetworkError:
            return
        incoming = self._incoming
        if incoming is not None:
            if incoming.src_mote == src and incoming.agent_id == probe.agent_id:
                # Duplicate state message: our ack was lost; re-ack.
                if send_acks:
                    self._send_ack(src, probe.agent_id, 0)
                self._arm_abort_timer()
            return  # busy with another transfer: stay silent, sender aborts
        if (src, probe.agent_id) in self._completed_now():
            if send_acks:
                self._send_ack(src, probe.agent_id, 0)
            return
        # Admission control: accept only if the agent could be hosted here.
        manager = self.middleware.agent_manager
        if not manager.can_accept(probe.code_size):
            self.install_drops += 1
            return  # no ack: the sender fails the hop and resumes the agent
        self._incoming = probe
        probe.messages[0] = MigrationMessage(am.AM_MIGRATE_STATE, 0, payload)
        if send_acks:
            self._send_ack(src, probe.agent_id, 0)
        self._arm_abort_timer()

    def _maybe_reack(self, src: int, payload: bytes) -> None:
        """Re-acknowledge retransmits of already-completed transfers."""
        try:
            agent_id = payload[0] | (payload[1] << 8)
            seq = payload[2]
        except IndexError:
            return
        if (src, agent_id) in self._completed_now():
            self.duplicate_acks += 1
            self._send_ack(src, agent_id, seq)

    def _completed_now(self) -> dict[tuple[int, int], int]:
        now = self.sim.now
        self._completed = {k: t for k, t in self._completed.items() if t > now}
        return self._completed

    def _send_ack(self, dest: int, agent_id: int, seq: int) -> None:
        self.middleware.stack.send(dest, am.AM_MIGRATE_ACK, encode_ack(agent_id, seq))

    def _arm_abort_timer(self) -> None:
        self._cancel_abort_timer()
        self._abort_timer = self.sim.schedule(
            self.params.receiver_abort, self._abort_incoming
        )

    def _cancel_abort_timer(self) -> None:
        if self._abort_timer is not None:
            self._abort_timer.cancel()
            self._abort_timer = None

    def _abort_incoming(self) -> None:
        """Receiver-side stall abort (0.25 s without progress, §3.2)."""
        self._abort_timer = None
        if self._incoming is not None:
            self.aborts += 1
            self._log("abort", self._incoming.agent_id)
            self._incoming = None

    # ------------------------------------------------------------------
    def _finish_incoming(self) -> None:
        incoming = self._incoming
        self._incoming = None
        self._cancel_abort_timer()
        self._completed_now()[(incoming.src_mote, incoming.agent_id)] = (
            self.sim.now + COMPLETED_CACHE_US
        )
        image = incoming.build()
        router = self.middleware.router
        if router.is_self(image.final_dest):
            self.middleware.mote.tasks.post(
                INSTALL_CYCLES, self._install_image, image, True
            )
            return
        next_hop = router.next_hop(image.final_dest)
        if next_hop is None:
            # Routing void mid-path: host the agent here, condition 0.
            self._log("stuck", image.agent_id)
            self.middleware.mote.tasks.post(
                INSTALL_CYCLES, self._install_image, image, False
            )
            return
        self._log("relay", image.agent_id)
        ordered = [incoming.messages[seq] for seq in sorted(incoming.messages)]
        transfer = OutgoingTransfer(
            kind=image.kind,
            final_dest=image.final_dest,
            agent_id=image.agent_id,
            next_hop=next_hop,
            messages=ordered,
            image=image,
            started_at=self.sim.now,
        )
        self.middleware.mote.tasks.post(PACKAGE_CYCLES, self._enqueue, transfer)

    def _install_image(self, image: AgentImage, success: bool) -> bool:
        """Instantiate an arrived agent (final destination or stranded relay)."""
        manager = self.middleware.agent_manager
        agent_id = manager.mint_id() if image.is_clone else image.agent_id
        agent = Agent(agent_id, name=image.species)
        if image.is_weak:
            agent.reset_weak()
        else:
            agent.pc = image.pc
            agent.stack = list(image.stack)
            agent.heap = dict(image.heap)
        agent.condition = 1 if success else 0
        agent.hops += 1
        try:
            manager.install(agent, image.code, make_ready=True)
        except (AgentLimitError, CodeMemoryError):
            self.install_drops += 1
            return False
        for handler_pc, template in image.reactions:
            self.middleware.tuplespace_manager.register_reaction(
                Reaction(agent.id, template, handler_pc)
            )
        self.arrivals += 1
        self._log("arrival", agent.id)
        return True
