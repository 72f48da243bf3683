"""Migration message formats (paper Figure 5).

An agent cannot fit in one 27-byte TinyOS payload, so a migration is split
into typed messages:

========  ==============================================================
state     registers, code size, message counts (first message, seq 0)
code      one 22-byte instruction block per message
heap      up to four (slot, value) pairs per message
stack     up to four stack slots per message, bottom-up
reaction  one registered reaction (handler PC + template) per message
commit    final message: transfers custody of the agent to the receiver
========  ==============================================================

Every message carries the agent id and a transfer-wide sequence number; the
receiver acknowledges each sequence number individually (§3.2).  Weak
operations send only state + code + commit ("only the code is transferred").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agilla.agent import Agent
from repro.agilla.fields import Field, decode_field, pack_string, unpack_string
from repro.agilla.reactions import Reaction
from repro.agilla.tuples import AgillaTuple
from repro.errors import NetworkError
from repro.location import Location
from repro.net import am
from repro.net.codec import (
    pack_i16,
    pack_location,
    pack_u16,
    unpack_i16,
    unpack_location,
    unpack_u16,
)

KIND_CODES = {"smove": 0, "wmove": 1, "sclone": 2, "wclone": 3}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}

WEAK_KINDS = ("wmove", "wclone")
CLONE_KINDS = ("sclone", "wclone")

CODE_CHUNK_BYTES = 22
HEAP_ENTRIES_PER_MSG = 4
STACK_ENTRIES_PER_MSG = 4


@dataclass
class MigrationMessage:
    """One on-air migration message."""

    am_type: int
    seq: int
    payload: bytes


@dataclass
class AgentImage:
    """Everything needed to reconstruct an agent at a hop."""

    kind: str
    final_dest: Location
    agent_id: int
    species: str
    pc: int
    condition: int
    code: bytes
    heap: dict[int, Field] = field(default_factory=dict)
    stack: list[Field] = field(default_factory=list)
    reactions: list[tuple[int, AgillaTuple]] = field(default_factory=list)

    @property
    def is_weak(self) -> bool:
        return self.kind in WEAK_KINDS

    @property
    def is_clone(self) -> bool:
        return self.kind in CLONE_KINDS


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def serialize_agent(
    agent: Agent,
    kind: str,
    final_dest: Location,
    code: bytes,
    reactions: list[Reaction],
    code_chunk: int = CODE_CHUNK_BYTES,
) -> list[MigrationMessage]:
    """Package an agent into the Figure-5 message sequence.

    ``code_chunk`` shrinks code messages for transports with extra header
    overhead (the end-to-end ablation mode wraps each message in a
    5-byte routing header).
    """
    if kind not in KIND_CODES:
        raise NetworkError(f"unknown migration kind {kind!r}")
    weak = kind in WEAK_KINDS

    code_msgs = [
        code[offset : offset + code_chunk]
        for offset in range(0, len(code), code_chunk)
    ]
    heap_items = [] if weak else [(s, agent.heap[s]) for s in agent.heap_used]
    heap_msgs = _chunk(heap_items, HEAP_ENTRIES_PER_MSG)
    stack_items = [] if weak else list(agent.stack)
    stack_msgs = _chunk(stack_items, STACK_ENTRIES_PER_MSG)
    rxn_items = [] if weak else [(r.handler_pc, r.template) for r in reactions]

    state = (
        pack_u16(agent.id)
        + bytes([KIND_CODES[kind]])
        + pack_location(final_dest)
        + pack_u16(0 if weak else agent.pc)
        + pack_i16(0 if weak else agent.condition)
        + pack_u16(len(code))
        + bytes([len(code_msgs), len(heap_msgs), len(stack_msgs), len(rxn_items)])
        + pack_string(_species_tag(agent.name))
    )
    messages = [MigrationMessage(am.AM_MIGRATE_STATE, 0, state)]
    seq = 1
    for index, chunk in enumerate(code_msgs):
        payload = (
            pack_u16(agent.id)
            + bytes([seq])
            + pack_u16(index * code_chunk)
            + chunk
        )
        messages.append(MigrationMessage(am.AM_MIGRATE_CODE, seq, payload))
        seq += 1
    for group in heap_msgs:
        body = b"".join(bytes([slot]) + value.encode() for slot, value in group)
        payload = pack_u16(agent.id) + bytes([seq]) + body
        messages.append(MigrationMessage(am.AM_MIGRATE_HEAP, seq, payload))
        seq += 1
    base = 0
    for group in stack_msgs:
        body = b"".join(value.encode() for value in group)
        payload = pack_u16(agent.id) + bytes([seq, base]) + body
        messages.append(MigrationMessage(am.AM_MIGRATE_STACK, seq, payload))
        base += len(group)
        seq += 1
    for handler_pc, template in rxn_items:
        payload = (
            pack_u16(agent.id) + bytes([seq]) + pack_u16(handler_pc) + template.encode()
        )
        messages.append(MigrationMessage(am.AM_MIGRATE_RXN, seq, payload))
        seq += 1
    commit = pack_u16(agent.id) + bytes([seq, (seq + 1) & 0xFF])
    messages.append(MigrationMessage(am.AM_MIGRATE_COMMIT, seq, commit))
    return messages


def _chunk(items: list, per_msg: int) -> list[list]:
    return [items[i : i + per_msg] for i in range(0, len(items), per_msg)]


def _species_tag(name: str) -> str:
    """First three packable characters of the agent's name (sim metadata)."""
    tag = "".join(c for c in name.lower() if c in "abcdefghijklmnopqrstuvwxyz_-.!?")
    return tag[:3] or "agt"


# ----------------------------------------------------------------------
# Reassembly
# ----------------------------------------------------------------------
class IncomingAgent:
    """Incremental reassembly of a migration at the receiving hop."""

    def __init__(self, src_mote: int, state_payload: bytes):
        if len(state_payload) < 18:
            raise NetworkError("truncated migration state message")
        self.src_mote = src_mote
        self.agent_id = unpack_u16(state_payload, 0)
        kind_code = state_payload[2]
        if kind_code not in KIND_NAMES:
            raise NetworkError(f"unknown migration kind code {kind_code}")
        self.kind = KIND_NAMES[kind_code]
        self.final_dest = unpack_location(state_payload, 3)
        self.pc = unpack_u16(state_payload, 7)
        self.condition = unpack_i16(state_payload, 9)
        self.code_size = unpack_u16(state_payload, 11)
        self.n_code = state_payload[13]
        self.n_heap = state_payload[14]
        self.n_stack = state_payload[15]
        self.n_rxn = state_payload[16]
        self.species = unpack_string(state_payload, 17)
        self.total_messages = 2 + self.n_code + self.n_heap + self.n_stack + self.n_rxn
        self._received: set[int] = {0}
        self._code_chunks: dict[int, bytes] = {}
        self._heap: dict[int, Field] = {}
        self._stack: dict[int, Field] = {}
        self._reactions: list[tuple[int, AgillaTuple]] = []
        self._committed = False
        #: Original messages kept for relaying to the next hop unchanged.
        self.messages: dict[int, MigrationMessage] = {}

    # ------------------------------------------------------------------
    def seen(self, seq: int) -> bool:
        return seq in self._received

    def accept(self, am_type: int, payload: bytes) -> int:
        """Record one data message; returns its sequence number.

        Duplicates are idempotent (the caller re-acknowledges them).
        """
        if len(payload) < 3:
            raise NetworkError("truncated migration message")
        agent_id = unpack_u16(payload, 0)
        if agent_id != self.agent_id:
            raise NetworkError(
                f"message for agent {agent_id} inside transfer of {self.agent_id}"
            )
        seq = payload[2]
        if seq in self._received:
            return seq
        body = payload[3:]
        if am_type == am.AM_MIGRATE_CODE:
            offset = unpack_u16(body, 0)
            self._code_chunks[offset] = body[2:]
        elif am_type == am.AM_MIGRATE_HEAP:
            cursor = 0
            while cursor < len(body):
                slot = body[cursor]
                value, consumed = decode_field(body, cursor + 1)
                self._heap[slot] = value
                cursor += 1 + consumed
        elif am_type == am.AM_MIGRATE_STACK:
            base = body[0]
            cursor = 1
            index = base
            while cursor < len(body):
                value, consumed = decode_field(body, cursor)
                self._stack[index] = value
                index += 1
                cursor += consumed
        elif am_type == am.AM_MIGRATE_RXN:
            handler_pc = unpack_u16(body, 0)
            template, _ = AgillaTuple.decode(body, 2)
            self._reactions.append((handler_pc, template))
        elif am_type == am.AM_MIGRATE_COMMIT:
            self._committed = True
        else:
            raise NetworkError(f"unexpected migration AM type 0x{am_type:02x}")
        self._received.add(seq)
        return seq

    @property
    def complete(self) -> bool:
        return self._committed and len(self._received) == self.total_messages

    # ------------------------------------------------------------------
    def build(self) -> AgentImage:
        """Reconstruct the agent image once all messages are present."""
        if not self.complete:
            raise NetworkError("migration transfer is incomplete")
        code = b"".join(
            self._code_chunks[offset] for offset in sorted(self._code_chunks)
        )
        if len(code) != self.code_size:
            raise NetworkError(
                f"code reassembly mismatch: {len(code)} != {self.code_size}"
            )
        stack = [self._stack[i] for i in sorted(self._stack)]
        return AgentImage(
            kind=self.kind,
            final_dest=self.final_dest,
            agent_id=self.agent_id,
            species=self.species,
            pc=self.pc,
            condition=self.condition,
            code=code,
            heap=dict(self._heap),
            stack=stack,
            reactions=list(self._reactions),
        )


# ----------------------------------------------------------------------
# Acknowledgements
# ----------------------------------------------------------------------
def encode_ack(agent_id: int, seq: int) -> bytes:
    return pack_u16(agent_id) + bytes([seq])


def decode_ack(payload: bytes) -> tuple[int, int]:
    if len(payload) < 3:
        raise NetworkError("truncated migration ack")
    return unpack_u16(payload, 0), payload[2]


def messages_from_image(image: AgentImage) -> list[MigrationMessage]:
    """Re-serialize a reassembled image for the next hop (relay path)."""
    shell = Agent(image.agent_id, name=image.species)
    shell.pc = image.pc
    shell.condition = image.condition
    shell.stack = list(image.stack)
    shell.heap = dict(image.heap)
    reactions = [
        Reaction(image.agent_id, template, pc) for pc, template in image.reactions
    ]
    return serialize_agent(shell, image.kind, image.final_dest, image.code, reactions)
