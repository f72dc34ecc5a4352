import random

import pytest
from hypothesis import example, given, strategies as st

from w3sim import identity, txcraft
from w3sim.txcraft import (
    FutureNonce,
    InvalidSignature,
    SenderKeyMismatch,
    StaleNonce,
    Transaction,
    TxMetadata,
    TxPayload,
    build_transaction,
    signing_bytes,
    validate_transaction,
)

CONTRACT = b"\x07" * 20


def make_wallet(tag: bytes):
    kp = identity.generate_keypair(tag)
    return kp, identity.derive_address(kp.public_key)


def metadata_for(addr, nonce=0, gas_limit=100_000, sim_time=0):
    return TxMetadata(sender=addr, receiver=addr, nonce=nonce,
                      gas_limit=gas_limit, sim_time=sim_time)


def test_build_deterministic():
    kp, addr = make_wallet(b"tx-wallet")
    payload = TxPayload(contract_id=CONTRACT, method="transfer", args=(b"\x01",))
    t1 = build_transaction(kp.secret_key, metadata_for(addr), payload)
    t2 = build_transaction(kp.secret_key, metadata_for(addr), payload)
    assert t1.tx_id == t2.tx_id
    assert t1 == t2


def test_sender_key_mismatch():
    kp1, _ = make_wallet(b"w1")
    _, addr2 = make_wallet(b"w2")
    with pytest.raises(SenderKeyMismatch):
        build_transaction(kp1.secret_key, metadata_for(addr2), TxPayload())


def test_nonce_changes_tx_id():
    kp, addr = make_wallet(b"w3")
    payload = TxPayload(contract_id=CONTRACT, method="m", args=())
    t0 = build_transaction(kp.secret_key, metadata_for(addr, nonce=0), payload)
    t1 = build_transaction(kp.secret_key, metadata_for(addr, nonce=1), payload)
    assert t0.tx_id != t1.tx_id


def test_validate_ok_and_nonce_errors():
    kp, addr = make_wallet(b"w4")
    tx = build_transaction(kp.secret_key, metadata_for(addr, nonce=5), TxPayload())
    keys = {addr.payload: kp}
    assert validate_transaction(tx, 5, keys) is None
    with pytest.raises(StaleNonce):
        validate_transaction(tx, 6, keys)  # replay: nonce already consumed
    with pytest.raises(FutureNonce):
        validate_transaction(tx, 3, keys)


def test_tampered_payload_invalid_signature():
    kp, addr = make_wallet(b"w5")
    tx = build_transaction(kp.secret_key, metadata_for(addr),
                           TxPayload(contract_id=CONTRACT, method="m", inline_data=b"AA"))
    forged_payload = TxPayload(contract_id=CONTRACT, method="m", inline_data=b"AB")
    forged = Transaction(metadata=tx.metadata, payload=forged_payload,
                         signature=tx.signature, tx_id=tx.tx_id)
    with pytest.raises(InvalidSignature):
        validate_transaction(forged, 0, {addr.payload: kp})


def test_method_requires_contract():
    with pytest.raises(ValueError):
        TxPayload(method="orphan")


def test_build_validate_fuzz():
    rng = random.Random(99)
    for i in range(1_000):
        kp, addr = make_wallet(b"fuzz-%d" % i)
        metadata = TxMetadata(sender=addr, receiver=addr,
                              nonce=rng.randrange(2**32), gas_limit=rng.randrange(21_000, 2**40),
                              sim_time=rng.randrange(2**32))
        payload = TxPayload(contract_id=rng.randbytes(20), method="op",
                            args=tuple(rng.randbytes(rng.randrange(0, 8)) for _ in range(rng.randrange(0, 4))),
                            inline_data=rng.randbytes(rng.randrange(0, 64)))
        tx = build_transaction(kp.secret_key, metadata, payload)
        assert validate_transaction(tx, metadata.nonce, {addr.payload: kp}) is None


def test_serialization_injective_on_corpus():
    kp, addr = make_wallet(b"inj")
    rng = random.Random(4)
    seen = {}
    for i in range(2_000):
        metadata = metadata_for(addr, nonce=rng.randrange(100), sim_time=rng.randrange(100))
        payload = TxPayload(contract_id=CONTRACT, method=rng.choice(["a", "b", "ab"]),
                            args=tuple(rng.randbytes(rng.randrange(0, 3)) for _ in range(rng.randrange(0, 3))),
                            inline_data=rng.randbytes(rng.randrange(0, 4)))
        blob = signing_bytes(metadata, payload)
        key = (metadata, payload)
        if blob in seen:
            assert seen[blob] == key
        seen[blob] = key


@given(
    st.lists(st.binary(max_size=6), max_size=4).map(tuple),
    st.lists(st.binary(max_size=6), max_size=4).map(tuple),
    st.binary(max_size=12), st.binary(max_size=12),
)
def test_args_vs_inline_never_collide(args_a, args_b, inline_a, inline_b):
    # Length prefixes make field boundaries unambiguous.
    pa = TxPayload(contract_id=CONTRACT, method="m", args=args_a, inline_data=inline_a)
    pb = TxPayload(contract_id=CONTRACT, method="m", args=args_b, inline_data=inline_b)
    if (args_a, inline_a) != (args_b, inline_b):
        assert txcraft.serialize_payload(pa) != txcraft.serialize_payload(pb)
    else:
        assert txcraft.serialize_payload(pa) == txcraft.serialize_payload(pb)


def test_wire_bytes_roundtrip_stable():
    kp, addr = make_wallet(b"wire")
    tx = build_transaction(kp.secret_key, metadata_for(addr),
                           TxPayload(contract_id=CONTRACT, method="m", inline_data=b"xyz"))
    assert tx.wire_bytes() == txcraft.serialize_transaction(tx)
    assert identity.digest(tx.wire_bytes()) == tx.tx_id


@given(
    st.text(max_size=8),
    st.lists(st.binary(max_size=40), max_size=5).map(tuple),
    st.binary(max_size=300),
    st.binary(min_size=1, max_size=20),
    st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
)
@example("m\u00efnt\u2713", (), b"", b"\x01" * 20, 0, 0, 0)
def test_wire_size_matches_serialized_length(method, args, inline, receiver_payload,
                                             nonce, gas_limit, sim_time):
    kp, addr = make_wallet(b"size")
    receiver = identity.Address(scheme=addr.scheme, payload=receiver_payload,
                                text=identity.encode_base16(receiver_payload))
    metadata = TxMetadata(sender=addr, receiver=receiver, nonce=nonce,
                          gas_limit=gas_limit, sim_time=sim_time)
    payload = TxPayload(contract_id=CONTRACT if method else b"", method=method,
                        args=args, inline_data=inline)
    tx = build_transaction(kp.secret_key, metadata, payload)
    assert tx.wire_size() == len(tx.wire_bytes())
