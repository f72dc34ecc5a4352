"""Client-side entry points: data preparation, browser-wallet submission,
agent batching, and confirmed-state retrieval.

An op is one call record from client to chain, the txcraft.TxPayload it
makes: contract, method, args and its on-chain data record.
prepare_data(data, fabric) is the one route from an op's data to the
chain: it stores the data by the storage plan and returns that tagged
record (0x00 + data inline, 0x01 + cid linked).

A wallet must connect before it can submit, and signs each call as its
own transaction. An agent is a custodial intermediary: registered users
hand it calls, it buffers each as the vm.BundleOp it will encode, and
bundles up to batch_size of them into one transaction signed with the
agent key; the chain attributes each embedded op to its originating user.
Both modes sign through one helper, so one place builds an envelope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from . import identity, storage, txcraft, vm
from .consensus import ChainNetwork, Confirmation, PoolFull


class AccessError(Exception):
    pass


class NotConnected(AccessError):
    pass


class UnregisteredUser(AccessError):
    pass


class NoConfirmedState(AccessError):
    pass


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


def _signed(signer: WalletClient | Agent, chain: ChainNetwork, payload: txcraft.TxPayload,
            gas_limit: int) -> txcraft.Transaction:
    """Sign payload as signer's next transaction on chain.

    The nonce is the chain's expected one, or past it if signer has sent
    more; signer.nonce_cache is not advanced: the caller does that once
    the chain has taken the transaction, so a refused one leaves no gap.
    """
    cid = payload.contract_id
    metadata = txcraft.TxMetadata(
        sender=signer.address,
        receiver=contract_address(cid) if cid else signer.address,
        nonce=max(chain.expected_nonce(signer.address.payload), signer.nonce_cache),
        gas_limit=gas_limit,
        sim_time=chain.now,
    )
    return txcraft.build_transaction(signer.keypair.secret_key, metadata, payload)


def submit_direct(client: WalletClient, chain: ChainNetwork, call: txcraft.TxPayload,
                  schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE) -> bytes:
    """Sign and submit one call as the wallet's own transaction; returns tx id."""
    if client.session is None:
        raise NotConnected("connect the wallet before submitting")
    tx = _signed(client, chain, call, _gas_limit_for(len(call.inline_data), schedule))
    chain.submit(tx)
    client.nonce_cache = tx.metadata.nonce + 1
    return tx.tx_id


def prepare_data(data: bytes, fabric: storage.StorageFabric) -> bytes:
    """Route data through the storage plan; returns its on-chain record, empty without data."""
    if not data:
        return b""
    return fabric.put(data)


class AgentBehavior(Enum):
    HONEST = "Honest"
    WITHHOLDING = "Withholding"


@dataclass
class Agent:
    """Custodial batcher: one on-chain sender for many users' operations."""

    keypair: identity.KeyPair
    address: identity.Address
    batch_size: int = 10
    behavior: AgentBehavior = AgentBehavior.HONEST
    registered_users: set[bytes] = field(default_factory=set)
    batch_buffer: list[vm.BundleOp] = field(default_factory=list)
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


def submit_via_agent(agent: Agent, user_payload: bytes, call: txcraft.TxPayload,
                     chain: ChainNetwork,
                     schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE) -> vm.BundleOp:
    """Buffer a registered user's call; returns the buffered op as the user's handle.

    A full buffer flushes, pricing its bundles with `schedule`. If the
    pool refuses a bundle (PoolFull), its ops stay buffered, so the op is
    still returned and the next flush sends it or raises.
    """
    if user_payload not in agent.registered_users:
        raise UnregisteredUser(user_payload.hex())
    seq = agent._seqs.get(user_payload, 0)
    agent._seqs[user_payload] = seq + 1
    op = vm.BundleOp(user_payload, seq, call.contract_id, call.method, call.args,
                     call.inline_data)
    agent.batch_buffer.append(op)
    if len(agent.batch_buffer) >= agent.batch_size:
        try:
            flush(agent, chain, schedule)
        except PoolFull:
            pass
    return op


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
        ops = buffer[: agent.batch_size]
        payload = txcraft.TxPayload(contract_id=ops[0].contract_id, method=vm.BUNDLE_METHOD,
                                    args=(vm.encode_bundle(ops),))
        inline_total = sum(len(op.inline_data) for op in ops)
        tx = _signed(agent, chain, payload,
                     schedule.base_tx + schedule.per_inline_byte * inline_total + 70_000 * len(ops))
        tx_ids.append(tx.tx_id)
        if agent.behavior is AgentBehavior.HONEST:
            chain.submit(tx)
        del buffer[: len(ops)]
        agent.nonce_cache = tx.metadata.nonce + 1  # a withholding agent moves on as if it had sent
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
