import random

import pytest
from hypothesis import given, strategies as st

from w3sim import identity, txcraft
from w3sim.consensus import ChainNetwork, ConsensusConfig
from w3sim.identity import (
    AddressScheme,
    BASE58_ALPHABET,
    EmptySeed,
    MalformedKey,
    decode_base16,
    decode_base58,
    derive_address,
    encode_base16,
    encode_base58,
    generate_keypair,
    sign,
    verify,
)


def base58_oracle(data: bytes) -> str:
    """Independent schoolbook long-division-by-58 over a digit list."""
    digits = list(data)
    n_pad = 0
    for d in digits:
        if d != 0:
            break
        n_pad += 1
    out = []
    work = digits[n_pad:]
    while work:
        remainder = 0
        quotient = []
        for d in work:
            acc = remainder * 256 + d
            quotient.append(acc // 58)
            remainder = acc % 58
        while quotient and quotient[0] == 0:
            quotient.pop(0)
        out.append(BASE58_ALPHABET[remainder])
        work = quotient
    return "1" * n_pad + "".join(reversed(out))


class TestKeypairs:
    def test_deterministic(self):
        assert generate_keypair(b"seed-a") == generate_keypair(b"seed-a")

    def test_distinct_seeds_distinct_keys(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(10_000):
            kp = generate_keypair(rng.randbytes(32))
            seen.add(kp.public_key)
        assert len(seen) == 10_000

    def test_empty_seed(self):
        with pytest.raises(EmptySeed):
            generate_keypair(b"")

    def test_pk_is_function_of_sk(self):
        kp1 = generate_keypair(b"same")
        kp2 = generate_keypair(b"same")
        assert kp1.public_key == kp2.public_key
        assert len(kp1.secret_key) == len(kp1.public_key) == 32


class TestAddresses:
    def test_deterministic(self):
        pk = generate_keypair(b"addr-seed").public_key
        assert derive_address(pk) == derive_address(pk)

    def test_schemes_share_payload(self):
        pk = generate_keypair(b"addr-seed2").public_key
        a16 = derive_address(pk, AddressScheme.BASE16_ETH)
        a58 = derive_address(pk, AddressScheme.BASE58_BTC)
        assert a16.payload == a58.payload
        assert a16.text != a58.text

    def test_malformed_key(self):
        with pytest.raises(MalformedKey):
            derive_address(b"\x01" * 16)

    def test_base16_shape(self):
        pk = generate_keypair(b"addr-seed3").public_key
        addr = derive_address(pk, AddressScheme.BASE16_ETH)
        assert addr.text.startswith("0x")
        assert len(addr.text) == 42
        assert addr.text == addr.text.lower()

    def test_base58_forbidden_chars(self):
        rng = random.Random(3)
        for _ in range(200):
            pk = generate_keypair(rng.randbytes(32)).public_key
            text = derive_address(pk, AddressScheme.BASE58_BTC).text
            assert not set(text) & set("0OIl")

    def test_roundtrip_decodable(self):
        rng = random.Random(5)
        for _ in range(200):
            pk = generate_keypair(rng.randbytes(32)).public_key
            a16 = derive_address(pk, AddressScheme.BASE16_ETH)
            a58 = derive_address(pk, AddressScheme.BASE58_BTC)
            assert decode_base16(a16.text) == a16.payload
            assert decode_base58(a58.text) == a58.payload


class TestBase58:
    def test_empty(self):
        assert encode_base58(b"") == ""

    def test_single_zero(self):
        assert encode_base58(b"\x00") == "1"
        assert base58_oracle(b"\x00") == "1"

    def test_leading_zeros(self):
        assert encode_base58(b"\x00\x00\x01") == "112"
        assert base58_oracle(b"\x00\x00\x01") == "112"

    def test_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(500):
            data = rng.randbytes(rng.randrange(0, 40))
            assert encode_base58(data) == base58_oracle(data)

    def test_bad_char(self):
        with pytest.raises(ValueError):
            decode_base58("0")

    @given(st.binary(max_size=64))
    def test_roundtrip(self, data):
        assert decode_base58(encode_base58(data)) == data


class TestBase16:
    def test_vectors(self):
        assert encode_base16(b"") == "0x"
        assert encode_base16(b"\xde\xad") == "0xdead"
        assert encode_base16(b"\x00\x0f") == "0x000f"

    def test_missing_prefix(self):
        with pytest.raises(ValueError):
            decode_base16("dead")

    @given(st.binary(max_size=64))
    def test_roundtrip(self, data):
        assert decode_base16(encode_base16(data)) == data


class TestSignatures:
    def test_roundtrip(self):
        kp = generate_keypair(b"signer")
        sig = sign(kp.secret_key, b"hello world")
        assert verify(kp, b"hello world", sig)

    def test_wrong_key(self):
        kp1 = generate_keypair(b"signer-1")
        kp2 = generate_keypair(b"signer-2")
        sig = sign(kp1.secret_key, b"msg")
        assert not verify(kp2, b"msg", sig)

    def test_all_single_byte_flips_fail(self):
        kp = generate_keypair(b"flipper")
        message = bytes(range(16))
        sig = sign(kp.secret_key, message)
        for pos in range(16):
            for delta in range(1, 256):
                mutated = bytearray(message)
                mutated[pos] ^= delta
                assert not verify(kp, bytes(mutated), sig)

    def test_flipped_sig_fails(self):
        kp = generate_keypair(b"flipper2")
        sig = sign(kp.secret_key, b"payload")
        bad = identity.Signature(tag=bytes([sig.tag[0] ^ 1]) + sig.tag[1:])
        assert not verify(kp, b"payload", bad)

    def test_random_forgeries_fail(self):
        kp = generate_keypair(b"forgery-target")
        rng = random.Random(13)
        for _ in range(10_000):
            forged = identity.Signature(tag=rng.randbytes(32))
            assert not verify(kp, b"the message", forged)

    def test_module_keeps_no_mutable_state(self):
        generate_keypair(b"stateless")
        mutable = [name for name, value in vars(identity).items()
                   if not name.startswith("__")
                   and isinstance(value, (dict, list, set, bytearray))]
        assert mutable == []

    def test_unknown_pk_fails(self):
        # A chain accepts only keys registered with it; this one never was.
        kp = generate_keypair(b"never-registered")
        addr = derive_address(kp.public_key)
        metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                      gas_limit=100_000, sim_time=0)
        tx = txcraft.build_transaction(kp.secret_key, metadata, txcraft.TxPayload())
        chain = ChainNetwork(ConsensusConfig())
        with pytest.raises(txcraft.InvalidSignature):
            txcraft.validate_transaction(tx, 0, chain.keys)
