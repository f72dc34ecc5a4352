"""Deterministic gas-metered contract state machine with built-in contracts.

Contracts are built-in kinds rather than interpreted bytecode: a fungible
token with the six standard ledger methods, a non-fungible token with
unique (contract, token_id) ownership, a market that settles payment and
ownership atomically, and a verifier that anchors commitments for work
executed off-chain.

State root: every entry (storage cell, native balance, contract record)
hashes to a 32-byte digest; the root is the sum of those digests mod
2**256, rendered big-endian. The combiner is order-independent, so the
root is a pure function of the entry set and can be maintained
incrementally, with no per-cell term kept. A storage write marks its cell
dirty and, on the cell's first write since the last read, notes the value
it had at that read; reading `state_root`, once per block, folds each
dirty cell in, subtracting the digest of its noted value and adding the
digest of its value now. So a cell written many times between two reads
hashes its old and new value once, a cell rewritten with its noted value
hashes nothing, and a created or deleted cell hashes one value. Tests
recompute the root from scratch as an independent oracle.

Execution writes through a per-transaction overlay with an undo journal;
the state takes the overlay only on success, so a reverted call leaves
the state root untouched. Event fields hold raw values (bytes, int, str)
and are rendered as text only on export. Gas is the schedule's
base cost plus per-component costs summed over the call.
"""

from __future__ import annotations

import functools
import json
import random
import struct
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

from . import identity
from .txcraft import Transaction, _ser_bytes

_ROOT_MOD = 2**256

SYSTEM_CONTRACT_ID = b"\x00" * 20
# The verifier contract that anchors each hybrid block's commitments.
VERIFIER_ID = b"\x04" * 20

# Storage key prefixes. Payment and ownership entries ("core") always
# execute on-chain; the rest ("aux") may be delegated to an off-chain
# executor under hybrid computation.
_CORE_PREFIXES = (b"bal:", b"sup:", b"own:", b"agt:", b"seq:", b"com:")


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise ValueError unless value is an int, not a bool, and at least low if low is set."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


class ContractKind(Enum):
    FUNGIBLE_TOKEN = "FungibleToken"
    NON_FUNGIBLE_TOKEN = "NonFungibleToken"
    NFT_MARKET = "NftMarket"
    HYBRID_VERIFIER = "HybridVerifier"


@dataclass(frozen=True)
class GasSchedule:
    base_tx: int = 21000
    per_storage_write: int = 5000
    per_storage_read: int = 200
    per_event: int = 375
    per_inline_byte: int = 16

    def __post_init__(self):
        for f in fields(self):
            check_int(f.name, getattr(self, f.name), 0)


DEFAULT_GAS_SCHEDULE = GasSchedule()


@dataclass
class ContractDef:
    contract_id: bytes
    kind: ContractKind
    params: dict


class Event(NamedTuple):
    """A logged event; fields come in sorted key order and hold raw values."""

    tx_id: bytes
    name: str
    fields: tuple[tuple[str, bytes | int | str], ...]

    def field(self, key: str) -> bytes | int | str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return None


class TxStatus(Enum):
    SUCCESS = "Success"
    REVERTED = "Reverted"


@dataclass(frozen=True, slots=True)
class Receipt:
    """A status-code receipt: the block header commits to the post-state root."""

    status: TxStatus
    reason: str | None
    gas_used: int
    events: tuple[Event, ...]
    writes: tuple[tuple[bytes, bytes], ...] = ()

    @property
    def success(self) -> bool:
        return self.status is TxStatus.SUCCESS


class VmError(Exception):
    pass


class DuplicateContract(VmError):
    pass


class QueryError(VmError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Revert(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _u64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _u128(n: int) -> bytes:
    # Unsigned 128-bit wrap-around domain; negatives are guarded before
    # every debit, the mask only matters for corrupted counters.
    return (n & (2**128 - 1)).to_bytes(16, "big")


@functools.lru_cache(maxsize=256)
def _listing(price: int, seller: bytes) -> bytes:
    """A market listing's stored value; equal listings share one bytes object."""
    return _u128(price) + seller


def _canon_params(params: dict) -> bytes:
    items = []
    for k in sorted(params):
        v = params[k]
        items.append(f"{k}={v.hex() if isinstance(v, bytes) else v}")
    return ";".join(items).encode()


class ContractState:
    """Logical contract state: storage cells, native balances, contracts."""

    def __init__(self):
        self.storage: dict[bytes, dict[bytes, bytes]] = {}
        self.native_balances: dict[bytes, int] = {}
        self.contracts: dict[bytes, ContractDef] = {}
        self.event_log: list[Event] | None = []  # None: a chain that keeps no history
        self._root_acc = 0
        # Each storage cell written since the root was last read, to its
        # value at that read (None: the cell was empty). Reading the root
        # folds them in, so a cell written many times in one block hashes
        # its old and new value once.
        self._dirty: dict[tuple[bytes, bytes], bytes | None] = {}

    @staticmethod
    def storage_entry_digest(contract_id: bytes, key: bytes, value: bytes) -> bytes:
        return identity.digest(b"w3/st" + _ser_bytes(contract_id) + _ser_bytes(key) + _ser_bytes(value))

    @staticmethod
    def native_entry_digest(payload: bytes, amount: int) -> bytes:
        return identity.digest(b"w3/nb" + _ser_bytes(payload) + _u128(amount))

    @staticmethod
    def contract_entry_digest(c: ContractDef) -> bytes:
        return identity.digest(b"w3/cd" + _ser_bytes(c.contract_id) + c.kind.value.encode() + _canon_params(c.params))

    @property
    def state_root(self) -> bytes:
        if self._dirty:
            self._fold_dirty()
        return self._root_acc.to_bytes(32, "big")

    def _add(self, entry_digest: bytes):
        self._root_acc = (self._root_acc + int.from_bytes(entry_digest, "big")) % _ROOT_MOD

    def _remove(self, entry_digest: bytes):
        self._root_acc = (self._root_acc - int.from_bytes(entry_digest, "big")) % _ROOT_MOD

    def get_storage(self, contract_id: bytes, key: bytes) -> bytes | None:
        return self.storage.get(contract_id, {}).get(key)

    def set_storage(self, contract_id: bytes, key: bytes, value: bytes | None):
        """Write one cell; None deletes it."""
        self.take_writes({(contract_id, key): value})

    def take_writes(self, writes: dict[tuple[bytes, bytes], bytes | None]):
        """Write value to each (contract_id, key) cell of writes, deleting it for None.

        The cells only turn dirty here, each noting its value before its
        first write since the last root read; the next read folds them in.
        """
        storage, dirty = self.storage, self._dirty
        for slot, value in writes.items():
            contract_id, key = slot
            area = storage.get(contract_id)
            if area is None:
                area = storage[contract_id] = {}
            if slot not in dirty:
                dirty[slot] = area.get(key)
            if value is None:
                area.pop(key, None)
            else:
                area[key] = value

    def _fold_dirty(self):
        """Swap each dirty cell's digest at the last read for the digest of its value now."""
        acc = self._root_acc
        storage, digest = self.storage, identity.digest
        for (contract_id, key), old in self._dirty.items():
            new = storage[contract_id].get(key)
            if new == old:
                continue
            # storage_entry_digest(contract_id, key, value) of both values, sharing the head.
            head = b"".join((b"w3/st", len(contract_id).to_bytes(4, "big"), contract_id,
                             len(key).to_bytes(4, "big"), key))
            if old is not None:
                acc -= int.from_bytes(digest(b"".join((head, len(old).to_bytes(4, "big"), old))), "big")
            if new is not None:
                acc += int.from_bytes(digest(b"".join((head, len(new).to_bytes(4, "big"), new))), "big")
        self._dirty.clear()
        self._root_acc = acc % _ROOT_MOD

    def native_balance(self, payload: bytes) -> int:
        return self.native_balances.get(payload, 0)

    def credit_native(self, payload: bytes, amount: int):
        self._set_native(payload, self.native_balance(payload) + amount)

    def _set_native(self, payload: bytes, amount: int):
        old = self.native_balances.get(payload)
        if old is not None:
            self._remove(self.native_entry_digest(payload, old))
        if amount == 0:
            self.native_balances.pop(payload, None)
        else:
            self.native_balances[payload] = amount
            self._add(self.native_entry_digest(payload, amount))

    def register_contract(self, contract: ContractDef):
        if contract.contract_id in self.contracts:
            raise DuplicateContract(f"contract {contract.contract_id.hex()} already deployed")
        self.contracts[contract.contract_id] = contract
        self._add(self.contract_entry_digest(contract))


def is_aux_key(key: bytes) -> bool:
    """True for bookkeeping entries that hybrid computation may delegate."""
    return not key.startswith(_CORE_PREFIXES)


def deploy_contract(state: ContractState, contract: ContractDef) -> tuple[ContractState, bytes]:
    """Register a contract and run its constructor writes."""
    state.register_contract(contract)
    if contract.kind is ContractKind.FUNGIBLE_TOKEN:
        supply = int(contract.params["supply"])
        deployer = contract.params["deployer"]
        state.set_storage(contract.contract_id, b"sup:", _u128(supply))
        if supply:
            state.set_storage(contract.contract_id, b"bal:" + deployer, _u128(supply))
    return state, contract.contract_id


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class BundleOp(NamedTuple):
    """One user operation inside an agent-signed bundle."""

    origin: bytes
    seq: int
    contract_id: bytes
    method: str
    args: tuple[bytes, ...] = ()
    inline_data: bytes = b""


BUNDLE_METHOD = "__bundle__"


def encode_bundle(ops: list[BundleOp]) -> bytes:
    parts = [len(ops).to_bytes(4, "big")]
    for op in ops:
        parts.append(_ser_bytes(op.origin))
        parts.append(_u64(op.seq))
        parts.append(_ser_bytes(op.contract_id))
        parts.append(_ser_bytes(op.method.encode()))
        parts.append(len(op.args).to_bytes(4, "big"))
        parts.extend(_ser_bytes(a) for a in op.args)
        parts.append(_ser_bytes(op.inline_data))
    return b"".join(parts)


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

def decode_bundle(blob: bytes) -> list[BundleOp]:
    """Inverse of encode_bundle; a truncated blob, or bytes after the last
    op, raise ValueError, so each bundle has exactly one encoding.

    A length that runs past the end leaves a short slice, and the next
    fixed-width read past the end fails, so one check after the last
    field covers the rest.
    """
    u32, u64 = _U32.unpack_from, _U64.unpack_from
    ops = []
    origins: dict[bytes, bytes] = {}  # one bytes object per distinct origin
    try:
        count, = u32(blob, 0)
        pos = 4
        for _ in range(count):
            n, = u32(blob, pos)
            origin = blob[pos + 4 : pos + 4 + n]
            origin = origins.setdefault(origin, origin)
            pos += 4 + n
            seq, = u64(blob, pos)
            n, = u32(blob, pos + 8)
            contract_id = blob[pos + 12 : pos + 12 + n]
            pos += 12 + n
            n, = u32(blob, pos)
            method = blob[pos + 4 : pos + 4 + n].decode()
            pos += 4 + n
            argc, = u32(blob, pos)
            pos += 4
            args = []
            for _ in range(argc):
                n, = u32(blob, pos)
                args.append(blob[pos + 4 : pos + 4 + n])
                pos += 4 + n
            n, = u32(blob, pos)
            inline = blob[pos + 4 : pos + 4 + n]
            pos += 4 + n
            ops.append(BundleOp(origin, seq, contract_id, method, tuple(args), inline))
    except struct.error as err:
        raise ValueError("truncated bundle") from err
    if pos > len(blob):
        raise ValueError("truncated bundle")
    if pos < len(blob):
        raise ValueError("trailing bytes after the last bundle op")
    return ops


class ExecutorBehavior(Enum):
    HONEST = "Honest"
    MALICIOUS = "Malicious"


# Where a malicious executor aims its tampering: any delegated write, only
# writes inside the on-chain checked region, or only writes outside it.
TAMPER_TARGETS = ("auto", "checked", "unchecked")

# bytes.translate table that flips every bit: a tampered value is the written one, inverted.
_FLIP = bytes(b ^ 0xFF for b in range(256))


@dataclass
class DelegationPolicy:
    """Hybrid-computation context for one execution.

    Aux writes are delegated to the off-chain executor: they still land in
    the logical state but cost no on-chain write gas; instead a commitment
    event anchors their digest. A write is inside the on-chain checked
    region iff digest(key)[0] < 256*(1 - offchain_fraction). A malicious
    executor tampers one delegated write per call: landing in the checked
    region raises CommitmentMismatch, outside it the wrong value is applied
    silently and reported to violation_sink. SimConfig checks
    offchain_fraction, and FaultPlan the executor's settings.
    """

    offchain_fraction: float = 0.5
    executor_behavior: ExecutorBehavior = ExecutorBehavior.HONEST
    tamper_target: str = "auto"
    run_seed: int = 0

    def is_checked(self, key: bytes) -> bool:
        bound = int(256 * (1.0 - self.offchain_fraction))
        return identity.digest(b"w3/chk" + key)[0] < bound


_UNSET = object()  # journal marker: the slot had no overlay entry


class _TxOverlay:
    """One transaction's writes, laid over the state, with an undo journal.

    sstore writes through to the overlay, keyed by a (contract, key) slot,
    and journals the slot's previous overlay value; sload probes the
    overlay, then the state. An op that fails rolls back its own journal
    entries, and the state takes the overlay only when the whole
    transaction succeeds.
    """

    __slots__ = ("state", "tx_id", "overlay", "journal", "reads", "events")

    def __init__(self, state: ContractState, tx_id: bytes):
        self.state = state
        self.tx_id = tx_id
        self.overlay: dict[tuple[bytes, bytes], bytes | None] = {}
        self.journal: list[tuple[tuple[bytes, bytes], object, bytes | None]] = []  # (slot, old, new)
        self.reads: list[bytes] = []  # every key read, for the gas meter
        self.events: list[Event] = []

    def peek(self, contract_id: bytes, key: bytes) -> bytes | None:
        value = self.overlay.get((contract_id, key), _UNSET)
        return self.state.get_storage(contract_id, key) if value is _UNSET else value

    def sload(self, contract_id: bytes, key: bytes) -> bytes | None:
        """peek, counted as a read."""
        self.reads.append(key)
        value = self.overlay.get((contract_id, key), _UNSET)
        return self.state.get_storage(contract_id, key) if value is _UNSET else value

    def sstore(self, contract_id: bytes, key: bytes, value: bytes | None):
        slot = (contract_id, key)
        self.journal.append((slot, self.overlay.get(slot, _UNSET), value))
        self.overlay[slot] = value

    def emit(self, name: str, *fields: tuple[str, bytes | int | str]):
        """Log an event; callers pass the fields in sorted key order."""
        self.events.append(Event(self.tx_id, name, fields))

    def rollback(self, mark: int, event_mark: int):
        """Undo the journal entries and events from the marks on."""
        overlay = self.overlay
        for slot, old, _ in reversed(self.journal[mark:]):
            if old is _UNSET:
                del overlay[slot]
            else:
                overlay[slot] = old
        del self.journal[mark:], self.events[event_mark:]


def _load_amount(raw: bytes | None) -> int:
    return int.from_bytes(raw, "big") if raw else 0


def _ft_call(ov: _TxOverlay, cid: bytes, sender: bytes, method: str, args: tuple[bytes, ...]):
    if method == "transfer":
        to, amount = args[0], _load_amount(args[1])
        bal = _load_amount(ov.sload(cid, b"bal:" + sender))
        if bal < amount:
            raise _Revert("InsufficientBalance")
        ov.sstore(cid, b"bal:" + sender, _u128(bal - amount))
        ov.sstore(cid, b"bal:" + to, _u128(_load_amount(ov.sload(cid, b"bal:" + to)) + amount))
        ov.emit("Transfer", ("amount", amount), ("dst", to), ("src", sender))
    elif method == "approve":
        spender, amount = args[0], _load_amount(args[1])
        ov.sstore(cid, b"alw:" + sender + spender, _u128(amount))
        ov.emit("Approval", ("amount", amount), ("owner", sender), ("spender", spender))
    elif method == "transferFrom":
        src, dst, amount = args[0], args[1], _load_amount(args[2])
        allowance = _load_amount(ov.sload(cid, b"alw:" + src + sender))
        if allowance < amount:
            raise _Revert("InsufficientAllowance")
        bal = _load_amount(ov.sload(cid, b"bal:" + src))
        if bal < amount:
            raise _Revert("InsufficientBalance")
        ov.sstore(cid, b"alw:" + src + sender, _u128(allowance - amount))
        ov.sstore(cid, b"bal:" + src, _u128(bal - amount))
        ov.sstore(cid, b"bal:" + dst, _u128(_load_amount(ov.sload(cid, b"bal:" + dst)) + amount))
        ov.emit("Transfer", ("amount", amount), ("dst", dst), ("src", src))
    elif method in ("totalSupply", "balanceOf", "allowance"):
        if method == "totalSupply":
            ov.sload(cid, b"sup:")
        elif method == "balanceOf":
            ov.sload(cid, b"bal:" + args[0])
        else:
            ov.sload(cid, b"alw:" + args[0] + args[1])
    else:
        raise _Revert("UnknownMethod")


def _nft_call(ov: _TxOverlay, cid: bytes, sender: bytes, method: str, args, inline_data: bytes):
    if method == "mint":
        token_id = args[0]
        if ov.sload(cid, b"own:" + token_id) is not None:
            raise _Revert("DuplicateTokenId")
        ov.sstore(cid, b"own:" + token_id, sender)
        ov.sstore(cid, b"dat:" + token_id, inline_data)
        count = _load_amount(ov.sload(cid, b"cnt:" + sender))
        ov.sstore(cid, b"cnt:" + sender, _u128(count + 1))
        ov.emit("Mint", ("owner", sender), ("token_id", token_id))
    elif method == "transferFrom":
        src, dst, token_id = args[0], args[1], args[2]
        owner = ov.sload(cid, b"own:" + token_id)
        if owner is None or owner != src or sender != src:
            raise _Revert("NotOwner")
        ov.sstore(cid, b"own:" + token_id, dst)
        ov.sstore(cid, b"cnt:" + src, _u128(_load_amount(ov.sload(cid, b"cnt:" + src)) - 1))
        ov.sstore(cid, b"cnt:" + dst, _u128(_load_amount(ov.sload(cid, b"cnt:" + dst)) + 1))
        ov.emit("NftTransfer", ("dst", dst), ("src", src), ("token_id", token_id))
    elif method == "ownerOf":
        if ov.sload(cid, b"own:" + args[0]) is None:
            raise _Revert("NotMinted")
    else:
        raise _Revert("UnknownMethod")


def _market_call(ov: _TxOverlay, contract: ContractDef, sender: bytes, method: str, args):
    cid = contract.contract_id
    nft = contract.params["nft"]
    token = contract.params["token"]
    if method == "list":
        token_id, price = args[0], _load_amount(args[1])
        owner = ov.sload(nft, b"own:" + token_id)
        if owner != sender:
            raise _Revert("NotOwner")
        ov.sstore(cid, b"lst:" + token_id, _listing(price, sender))
        ov.emit("Listed", ("price", price), ("seller", sender), ("token_id", token_id))
    elif method == "buy":
        token_id, offered = args[0], _load_amount(args[1])
        listing = ov.sload(cid, b"lst:" + token_id)
        if listing is None:
            raise _Revert("NotListed")
        price, seller = _load_amount(listing[:16]), listing[16:]
        if offered != price:
            raise _Revert("PriceMismatch")
        if ov.sload(nft, b"own:" + token_id) != seller:
            raise _Revert("NotOwner")
        bal = _load_amount(ov.sload(token, b"bal:" + sender))
        if bal < price:
            raise _Revert("InsufficientBalance")
        # Payment and ownership transfer settle in one call frame.
        ov.sstore(token, b"bal:" + sender, _u128(bal - price))
        ov.sstore(token, b"bal:" + seller, _u128(_load_amount(ov.sload(token, b"bal:" + seller)) + price))
        ov.sstore(nft, b"own:" + token_id, sender)
        ov.sstore(nft, b"cnt:" + seller, _u128(_load_amount(ov.sload(nft, b"cnt:" + seller)) - 1))
        ov.sstore(nft, b"cnt:" + sender, _u128(_load_amount(ov.sload(nft, b"cnt:" + sender)) + 1))
        ov.sstore(cid, b"lst:" + token_id, None)
        # The three events share the raw buyer, seller, token id and price.
        tid = ("token_id", token_id)
        ov.emit("Transfer", ("amount", price), ("dst", seller), ("src", sender))
        ov.emit("NftTransfer", ("dst", sender), ("src", seller), tid)
        ov.emit("Sale", ("buyer", sender), ("price", price), ("seller", seller), tid)
    else:
        raise _Revert("UnknownMethod")


def _dispatch(ov: _TxOverlay, sender: bytes, contract_id: bytes, method: str, args,
              inline_data: bytes):
    contract = ov.state.contracts.get(contract_id)
    if contract is None:
        raise _Revert("UnknownContract")
    if contract.kind is ContractKind.FUNGIBLE_TOKEN:
        _ft_call(ov, contract_id, sender, method, args)
    elif contract.kind is ContractKind.NON_FUNGIBLE_TOKEN:
        _nft_call(ov, contract_id, sender, method, args, inline_data)
    elif contract.kind is ContractKind.NFT_MARKET:
        _market_call(ov, contract, sender, method, args)
    else:
        raise _Revert("UnknownMethod")


def execute(state: ContractState, tx: Transaction, schedule: GasSchedule = DEFAULT_GAS_SCHEDULE,
            *, delegation: DelegationPolicy | None = None,
            violation_sink=None) -> tuple[ContractState, Receipt]:
    """Apply one validated transaction; returns the (mutated) state and receipt.

    Deterministic: same state, tx, schedule and delegation yield the same
    receipt and root. On revert only gas accounting survives; the state
    root is untouched.
    """
    ov = _TxOverlay(state, tx.tx_id)
    payload = tx.payload
    gas = schedule.base_tx + schedule.per_inline_byte * len(payload.inline_data)
    sender = tx.metadata.sender.payload
    revert_reason: str | None = None

    if payload.method == BUNDLE_METHOD:
        ops = []
        try:
            ops = decode_bundle(payload.args[0] if payload.args else b"")
        except (ValueError, IndexError):
            revert_reason = "MalformedBundle"
        for i, op in enumerate(ops):
            gas += schedule.per_inline_byte * len(op.inline_data)
            gas += 2 * schedule.per_storage_read  # registration + sequence lookups
            seq_key = b"seq:" + sender + op.origin
            if ov.peek(SYSTEM_CONTRACT_ID, b"agt:" + sender + op.origin) is None:
                fail_reason = "UnregisteredUser"
            elif op.seq != _load_amount(ov.peek(SYSTEM_CONTRACT_ID, seq_key)):
                fail_reason = "SequenceMismatch"
            else:
                # Sequence numbers are consumed even when the op reverts.
                ov.sstore(SYSTEM_CONTRACT_ID, seq_key, _u64(op.seq + 1))
                gas += schedule.per_storage_write
                op_gas, fail_reason = _run_op(ov, schedule, delegation, violation_sink,
                                              i.to_bytes(4, "big"), op.origin, op.contract_id,
                                              op.method, op.args, op.inline_data)
                gas += op_gas
            # Marker fields in sorted key order, like every emitted event.
            if fail_reason is None:
                ov.emit("OpOk", ("origin", op.origin), ("seq", op.seq))
            else:
                ov.emit("OpFailed", ("origin", op.origin), ("reason", fail_reason), ("seq", op.seq))
            gas += schedule.per_event
    else:
        op_gas, revert_reason = _run_op(ov, schedule, delegation, violation_sink, b"", sender,
                                        payload.contract_id, payload.method, payload.args,
                                        payload.inline_data)
        gas += op_gas

    if revert_reason is None and gas > tx.metadata.gas_limit:
        revert_reason = "OutOfGas"
        gas = tx.metadata.gas_limit

    if revert_reason is not None:
        return state, Receipt(TxStatus.REVERTED, revert_reason, min(gas, tx.metadata.gas_limit), ())

    # The overlay holds each cell's last value: a bundle rewrites its
    # sequence cell once per op, the state takes it once.
    state.take_writes(ov.overlay)
    if state.event_log is not None:
        state.event_log.extend(ov.events)
    return state, Receipt(TxStatus.SUCCESS, None, gas, tuple(ov.events),
                          tuple([slot for slot, _, _ in ov.journal]))


def _run_op(ov: _TxOverlay, schedule: GasSchedule, policy: DelegationPolicy | None,
            violation_sink, seed_extra: bytes, sender: bytes, contract_id: bytes, method: str,
            args, inline_data: bytes) -> tuple[int, str | None]:
    """Run one op against the overlay; returns (gas, fail_reason).

    A failed op leaves no write or event behind. With a delegation policy
    the core leg executes on-chain at full price while aux writes are
    applied under a commitment anchored by one event.
    """
    read_mark, mark, event_mark = len(ov.reads), len(ov.journal), len(ov.events)
    try:
        _dispatch(ov, sender, contract_id, method, args, inline_data)
    except _Revert as err:
        ov.rollback(mark, event_mark)
        return schedule.per_storage_read * (len(ov.reads) - read_mark), err.reason

    if policy is None:
        return (schedule.per_storage_read * (len(ov.reads) - read_mark)
                + schedule.per_storage_write * (len(ov.journal) - mark)
                + schedule.per_event * (len(ov.events) - event_mark)), None

    core, aux_entries = [], []
    for entry in ov.journal[mark:]:
        (aux_entries if is_aux_key(entry[0][1]) else core).append(entry)
    aux = [(slot, value) for slot, _, value in aux_entries]

    tampered_checked = False
    if policy.executor_behavior is ExecutorBehavior.MALICIOUS and aux:
        rng = random.Random(policy.run_seed
                            ^ int.from_bytes(identity.digest(ov.tx_id + seed_extra)[:8], "big"))
        pool = aux
        if policy.tamper_target == "checked":
            pool = [w for w in aux if policy.is_checked(w[0][1])]
        elif policy.tamper_target == "unchecked":
            pool = [w for w in aux if not policy.is_checked(w[0][1])]
        if pool:
            idx = aux.index(rng.choice(pool))
            slot, value = aux[idx]
            bad = value.translate(_FLIP) if value else b"\xff"
            aux[idx] = (slot, bad)
            if policy.is_checked(slot[1]):
                tampered_checked = True
            else:
                if all(s != slot for s, _ in aux[idx + 1:]):  # the cell keeps its last write
                    ov.overlay[slot] = bad
                if violation_sink is not None:
                    violation_sink(ov.tx_id)

    core_reads = sum(1 for key in ov.reads[read_mark:] if not is_aux_key(key))
    gas = schedule.per_storage_read * core_reads
    gas += schedule.per_storage_write * len(core)
    gas += schedule.per_event * (len(ov.events) - event_mark)
    if aux:
        gas += schedule.per_event  # the commitment anchoring the delegated leg
    if tampered_checked:
        ov.rollback(mark, event_mark)
        return gas, "CommitmentMismatch"

    if aux:
        # b"w3/com" + _ser_bytes(c) + _ser_bytes(k) + _ser_bytes(v or b"") per write, in one join.
        parts = [b"w3/com"]
        for (c, k), v in aux:
            v = v or b""
            parts += (len(c).to_bytes(4, "big"), c, len(k).to_bytes(4, "big"), k,
                      len(v).to_bytes(4, "big"), v)
        commitment = identity.digest(b"".join(parts))
        ov.emit("Commitment", ("digest", commitment))
    # The receipt lists the op's core writes, then its delegated ones.
    ov.journal[mark:] = core + aux_entries
    return gas, None


def anchor_commitments(state: ContractState, height: int, receipts: list[Receipt],
                       schedule: GasSchedule) -> int:
    """Anchor a block's Commitment events on-chain; returns the gas it costs.

    The block's commitment digests, in receipt order, fold into one
    digest stored at com:<height> of the verifier contract: one storage
    write. A block without commitments anchors nothing and costs nothing.
    """
    digests = [ev.field("digest") for r in receipts for ev in r.events if ev.name == "Commitment"]
    if not digests:
        return 0
    state.set_storage(VERIFIER_ID, b"com:" + _u64(height),
                      identity.digest(b"w3/fold" + b"".join(digests)))
    return schedule.per_storage_write


# ---------------------------------------------------------------------------
# Read-only queries
# ---------------------------------------------------------------------------


def query_state(state: ContractState, contract_id: bytes, method: str, args: tuple[bytes, ...] = ()):
    """Read-only path: no state change, no gas."""
    contract = state.contracts.get(contract_id)
    if contract is None:
        raise QueryError("UnknownContract")
    kind = contract.kind
    if kind is ContractKind.FUNGIBLE_TOKEN:
        if method == "totalSupply":
            return _load_amount(state.get_storage(contract_id, b"sup:"))
        if method == "balanceOf":
            return _load_amount(state.get_storage(contract_id, b"bal:" + args[0]))
        if method == "allowance":
            return _load_amount(state.get_storage(contract_id, b"alw:" + args[0] + args[1]))
    elif kind is ContractKind.NON_FUNGIBLE_TOKEN:
        if method == "ownerOf":
            owner = state.get_storage(contract_id, b"own:" + args[0])
            if owner is None:
                raise QueryError("NotMinted")
            return owner
        if method == "dataOf":
            data = state.get_storage(contract_id, b"dat:" + args[0])
            if data is None:
                raise QueryError("NotMinted")
            return data
    elif kind is ContractKind.NFT_MARKET:
        if method == "listing":
            listing = state.get_storage(contract_id, b"lst:" + args[0])
            if listing is None:
                raise QueryError("NotListed")
            return listing
    elif kind is ContractKind.HYBRID_VERIFIER:
        if method == "commitmentAt":
            return state.get_storage(contract_id, b"com:" + args[0])
    raise QueryError("UnknownMethod")


def export_events_ndjson(state: ContractState) -> str:
    """Event log as newline-delimited JSON records.

    Field values render as text here only: bytes as lowercase hex, ints
    in decimal, strings as they are.
    """
    if state.event_log is None:
        raise ValueError("state kept no event log; build its chain with keep_history=True")
    lines = []
    for ev in state.event_log:
        fields = {k: v.hex() if isinstance(v, bytes) else str(v) for k, v in ev.fields}
        record = {"tx_id": ev.tx_id.hex(), "event_name": ev.name, "fields": fields}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
