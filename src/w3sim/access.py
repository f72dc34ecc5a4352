"""Client-side entry points: data preparation, browser-wallet submission,
agent batching, and confirmed-state retrieval.

prepare_data is the one route from an op's data to the chain: it stores
the data by the storage plan and returns the tagged on-chain record
(0x00 + data inline, 0x01 + cid linked) that either submission carries.

A wallet must connect before it can submit. An agent is a custodial
intermediary: registered users hand it operations, it bundles up to
batch_size of them into one transaction signed with the agent key, and
the chain attributes each embedded operation to its originating user.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from . import identity, storage, txcraft, vm
from .consensus import ChainNetwork, Confirmation


class AccessError(Exception):
    pass


class NotConnected(AccessError):
    pass


class UnregisteredUser(AccessError):
    pass


class NoConfirmedState(AccessError):
    pass


@dataclass(frozen=True, slots=True)
class UserOp:
    """One application-level request, before it becomes a transaction."""

    contract_id: bytes
    method: str
    args: tuple[bytes, ...] = ()
    data: bytes = b""


@dataclass
class WalletClient:
    keypair: identity.KeyPair
    address: identity.Address
    session: str | None = None
    nonce_cache: int = 0

    @classmethod
    def create(cls, seed: bytes, scheme: identity.AddressScheme = identity.AddressScheme.BASE16_ETH):
        kp = identity.generate_keypair(seed)
        return cls(keypair=kp, address=identity.derive_address(kp.public_key, scheme))


def connect_wallet(client: WalletClient, service_id: str) -> str:
    """Establish (or reuse) a session with a service; idempotent."""
    if client.session is None:
        client.session = service_id
    return client.session


def _next_nonce(client: WalletClient | Agent, chain: ChainNetwork) -> int:
    """The nonce client's next transaction goes out under.

    It does not advance client.nonce_cache: the caller does that once the
    chain has taken the transaction, so a rejected submission leaves no gap.
    """
    return max(chain.expected_nonce(client.address.payload), client.nonce_cache)


# One int object per distinct gas limit, which every pending transaction
# with that limit shares; keyed by the limit, so no call hashes a schedule.
_GAS_LIMITS: dict[int, int] = {}


def _gas_limit_for(inline_len: int, schedule: vm.GasSchedule) -> int:
    # Generous static envelope: constructor-free built-ins never exceed it.
    limit = schedule.base_tx + schedule.per_inline_byte * inline_len + 60_000
    return _GAS_LIMITS.setdefault(limit, limit)


@functools.cache
def contract_address(contract_id: bytes) -> identity.Address:
    """Present a 20-byte contract handle as a receiver address.

    An Address is immutable, so every transaction to one contract shares
    one instance.
    """
    return identity.Address(scheme=identity.AddressScheme.BASE16_ETH,
                            payload=contract_id,
                            text=identity.encode_base16(contract_id))


def submit_direct(client: WalletClient, chain: ChainNetwork, op: UserOp,
                  schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE,
                  inline: bytes = b"") -> bytes:
    """Build, sign and submit one transaction for one request; returns tx id.

    inline is the op's on-chain data record, as prepare_data returns it.
    """
    if client.session is None:
        raise NotConnected("connect the wallet before submitting")
    metadata = txcraft.TxMetadata(
        sender=client.address,
        receiver=contract_address(op.contract_id) if op.contract_id else client.address,
        nonce=_next_nonce(client, chain),
        gas_limit=_gas_limit_for(len(inline), schedule),
        sim_time=chain.now,
    )
    payload = txcraft.TxPayload(contract_id=op.contract_id, method=op.method,
                                args=op.args, inline_data=inline)
    tx = txcraft.build_transaction(client.keypair.secret_key, metadata, payload)
    chain.submit(tx)
    client.nonce_cache = metadata.nonce + 1
    return tx.tx_id


def prepare_data(op: UserOp, fabric: storage.StorageFabric) -> bytes:
    """Route op.data through the storage plan; returns its on-chain record, empty without data."""
    if not op.data:
        return b""
    return fabric.put(op.data)


class AgentBehavior(Enum):
    HONEST = "Honest"
    WITHHOLDING = "Withholding"


@dataclass(frozen=True, slots=True)
class BundleTicket:
    origin: bytes
    seq: int


@dataclass
class Agent:
    """Custodial batcher: one on-chain sender for many users' operations."""

    keypair: identity.KeyPair
    address: identity.Address
    batch_size: int = 10
    behavior: AgentBehavior = AgentBehavior.HONEST
    registered_users: set[bytes] = field(default_factory=set)
    batch_buffer: list[tuple[BundleTicket, UserOp, bytes]] = field(default_factory=list)
    nonce_cache: int = 0
    _seqs: dict[bytes, int] = field(default_factory=dict)

    @classmethod
    def create(cls, seed: bytes, batch_size: int = 10,
               behavior: AgentBehavior = AgentBehavior.HONEST):
        kp = identity.generate_keypair(seed)
        return cls(keypair=kp, address=identity.derive_address(kp.public_key),
                   batch_size=batch_size, behavior=behavior)

    def register_user(self, user_payload: bytes):
        self.registered_users.add(user_payload)

    def genesis_registrations(self, state: vm.ContractState):
        """Record grants in system storage so the chain can check them."""
        for user in sorted(self.registered_users):
            state.set_storage(vm.SYSTEM_CONTRACT_ID, b"agt:" + self.address.payload + user, b"\x01")


def submit_via_agent(agent: Agent, user_payload: bytes, op: UserOp,
                     chain: ChainNetwork,
                     schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE,
                     inline: bytes = b"") -> BundleTicket:
    """Buffer a registered user's operation; flushes when the buffer fills.

    The user has already stored the op's data and hands the agent its
    on-chain record, inline, so the buffered entry is submission-ready.
    The automatic flush prices its bundles with `schedule`.
    """
    if user_payload not in agent.registered_users:
        raise UnregisteredUser(user_payload.hex())
    seq = agent._seqs.get(user_payload, 0)
    agent._seqs[user_payload] = seq + 1
    ticket = BundleTicket(origin=user_payload, seq=seq)
    agent.batch_buffer.append((ticket, op, inline))
    if len(agent.batch_buffer) >= agent.batch_size:
        flush(agent, chain, schedule)
    return ticket


def flush(agent: Agent, chain: ChainNetwork,
          schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE) -> list[bytes]:
    """Emit one transaction per batch_size slice of the buffer.

    A slice leaves the buffer only once the chain has taken its
    transaction, so an op whose bundle the chain refused (PoolFull,
    DuplicateTx) waits, in order, for the next flush. A withholding agent
    clears its buffer and returns the would-be tx ids without ever
    submitting; no protocol error surfaces, only the missing
    confirmations tell.
    """
    tx_ids: list[bytes] = []
    buffer = agent.batch_buffer
    for _ in range(0, len(buffer), agent.batch_size):  # one pass per slice, each from the front
        chunk = buffer[: agent.batch_size]
        ops = []
        inline_total = 0
        for ticket, op, inline in chunk:
            inline_total += len(inline)
            ops.append(vm.BundleOp(ticket.origin, ticket.seq, op.contract_id, op.method,
                                   op.args, inline))
        blob = vm.encode_bundle(ops)
        target = ops[0].contract_id if ops else b"\x00" * 20
        metadata = txcraft.TxMetadata(
            sender=agent.address,
            receiver=contract_address(target),
            nonce=_next_nonce(agent, chain),
            gas_limit=schedule.base_tx + schedule.per_inline_byte * inline_total + 70_000 * len(ops),
            sim_time=chain.now,
        )
        payload = txcraft.TxPayload(contract_id=target, method=vm.BUNDLE_METHOD, args=(blob,))
        tx = txcraft.build_transaction(agent.keypair.secret_key, metadata, payload)
        tx_ids.append(tx.tx_id)
        if agent.behavior is AgentBehavior.HONEST:
            chain.submit(tx)
        del buffer[: len(chunk)]
        agent.nonce_cache = metadata.nonce + 1  # a withholding agent moves on as if it had sent
    return tx_ids


@dataclass(frozen=True)
class RetrievedState:
    """Latest confirmed values relevant to an address, plus the confirming tx id."""

    entries: tuple[tuple[str, str], ...]
    tx_id: bytes
    tick: int


def retrieve_state(chain: ChainNetwork, addr: identity.Address,
                   contract_id: bytes) -> RetrievedState:
    """Read the latest confirmed state slice for (addr, contract).

    The slice belongs to the latest successful confirmation that wrote to
    the contract and names the address, as its sender or in an address
    field of an event. Its values come from the chain's confirmed state,
    which by persistence every honest maintainer's view agrees with. The
    search reads the kept confirmations, so it needs a chain built with
    keep_history and its cost grows with their number.
    """
    if chain.confirmations is None:
        raise ValueError("chain kept no confirmations; build it with keep_history=True")
    payload = addr.payload
    conf = next((c for c in reversed(chain.confirmations) if _touches(c, payload, contract_id)),
                None)
    if conf is None:
        raise NoConfirmedState(f"no confirmed transaction touches {addr.text} in {contract_id.hex()}")
    # Only entries keyed by the address itself: any change to one of these
    # comes from a transaction that touches the address and so supersedes
    # this confirmation, which is what keeps retrieval stable in between.
    mine = [key for cid, key in conf.receipt.writes if cid == contract_id and payload in key]
    values: dict[str, str] = {}
    for key in _standard_keys(chain.state, contract_id, payload) + mine:
        raw = chain.state.get_storage(contract_id, key)
        values[key.hex()] = raw.hex() if raw is not None else ""
    return RetrievedState(entries=tuple(sorted(values.items())), tx_id=conf.tx.tx_id,
                          tick=conf.tick)


# Event fields whose value is an address: a transaction touches the
# addresses they name as well as its sender.
_ADDRESS_FIELDS = frozenset(("src", "dst", "owner", "seller", "buyer", "spender", "origin"))


def _touches(conf: Confirmation, payload: bytes, contract_id: bytes) -> bool:
    """True if conf succeeded, wrote to contract_id and names payload."""
    receipt = conf.receipt
    if not receipt.success or all(cid != contract_id for cid, _ in receipt.writes):
        return False
    return conf.tx.metadata.sender.payload == payload or any(
        key in _ADDRESS_FIELDS and value == payload
        for ev in receipt.events for key, value in ev.fields)


def _standard_keys(state: vm.ContractState, contract_id: bytes, payload: bytes) -> list[bytes]:
    contract = state.contracts.get(contract_id)
    if contract is None:
        return []
    if contract.kind is vm.ContractKind.FUNGIBLE_TOKEN:
        return [b"bal:" + payload, b"sup:"]
    if contract.kind is vm.ContractKind.NON_FUNGIBLE_TOKEN:
        return [b"cnt:" + payload]
    return []
