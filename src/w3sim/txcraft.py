"""Signed transaction envelopes with a canonical byte serialization.

The canonical form is length-prefixed fields in declaration order with
big-endian integers, so transaction ids are bit-exact across builds.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from . import identity
from .identity import Address, KeyPair, Signature


class TxError(Exception):
    pass


class SenderKeyMismatch(TxError):
    pass


class InvalidSignature(TxError):
    pass


class StaleNonce(TxError):
    pass


class FutureNonce(TxError):
    pass


@dataclass(frozen=True, slots=True)
class TxMetadata:
    sender: Address
    receiver: Address
    nonce: int
    gas_limit: int
    sim_time: int


@dataclass(frozen=True, slots=True)
class TxPayload:
    contract_id: bytes = b""
    method: str = ""
    args: tuple[bytes, ...] = ()
    inline_data: bytes = b""

    def __post_init__(self):
        if self.method and not self.contract_id:
            raise ValueError("a method call requires a contract_id")


@dataclass(frozen=True, slots=True)
class Transaction:
    metadata: TxMetadata
    payload: TxPayload
    signature: Signature
    tx_id: bytes

    def wire_bytes(self) -> bytes:
        return serialize_transaction(self)

    def wire_size(self) -> int:
        """len(self.wire_bytes()), computed from field lengths."""
        m, p = self.metadata, self.payload
        return (_WIRE_FIXED + len(m.sender.payload) + len(m.receiver.payload)
                + len(p.contract_id) + len(p.method.encode()) + len(p.inline_data)
                + 4 * len(p.args) + sum(map(len, p.args)) + len(self.signature.tag))


def _ser_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def serialize_metadata(m: TxMetadata) -> bytes:
    # Addresses serialize as their scheme-independent 20-byte payload.
    sender, receiver = m.sender.payload, m.receiver.payload
    return b"".join((
        len(sender).to_bytes(4, "big"), sender,
        len(receiver).to_bytes(4, "big"), receiver,
        m.nonce.to_bytes(8, "big"), m.gas_limit.to_bytes(8, "big"), m.sim_time.to_bytes(8, "big"),
    ))


def serialize_payload(p: TxPayload) -> bytes:
    method = p.method.encode()
    parts = [len(p.contract_id).to_bytes(4, "big"), p.contract_id,
             len(method).to_bytes(4, "big"), method, len(p.args).to_bytes(4, "big")]
    for a in p.args:
        parts += (len(a).to_bytes(4, "big"), a)
    parts += (len(p.inline_data).to_bytes(4, "big"), p.inline_data)
    return b"".join(parts)


def signing_bytes(metadata: TxMetadata, payload: TxPayload) -> bytes:
    return serialize_metadata(metadata) + serialize_payload(payload)


def serialize_transaction(tx: Transaction) -> bytes:
    return signing_bytes(tx.metadata, tx.payload) + _ser_bytes(tx.signature.tag)


# Fixed part of serialize_transaction, for Transaction.wire_size: seven
# 4-byte length prefixes (sender, receiver, contract_id, method, arg count,
# inline_data, signature tag) and three u64 fields (nonce, gas_limit,
# sim_time). Each arg adds its own 4-byte prefix. Keep in step with the
# serializers above.
_WIRE_FIXED = 7 * 4 + 3 * 8


def build_transaction(sk: bytes, metadata: TxMetadata, payload: TxPayload) -> Transaction:
    """Sign (metadata, payload) with sk and seal the envelope with its id."""
    pk = identity._public_key_of(sk)
    if identity.digest(pk)[: identity.ADDRESS_BYTES] != metadata.sender.payload:
        raise SenderKeyMismatch("secret key does not control metadata.sender")
    blob = signing_bytes(metadata, payload)
    sig = identity.sign(sk, blob)
    body = blob + _ser_bytes(sig.tag)
    return Transaction(metadata=metadata, payload=payload, signature=sig, tx_id=identity.digest(body))


def validate_transaction(tx: Transaction, expected_nonce: int,
                         keys: Mapping[bytes, KeyPair]) -> None:
    """Raise InvalidSignature / StaleNonce / FutureNonce; return None when ok.

    keys maps an address payload to the key pair whose signatures count
    for it; a sender missing from keys has an invalid signature.
    """
    kp = keys.get(tx.metadata.sender.payload)
    if kp is None or not identity.verify(kp, signing_bytes(tx.metadata, tx.payload), tx.signature):
        raise InvalidSignature(f"transaction {tx.tx_id.hex()[:12]} has a bad signature")
    if tx.metadata.nonce < expected_nonce:
        raise StaleNonce(f"nonce {tx.metadata.nonce} already used (expected {expected_nonce})")
    if tx.metadata.nonce > expected_nonce:
        raise FutureNonce(f"nonce {tx.metadata.nonce} leaves a gap (expected {expected_nonce})")
