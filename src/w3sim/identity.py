"""Key pairs, blockchain addresses, and simulator-grade signing.

Every digest in the simulator is SHA-256. Key pairs are deterministic
digest chains over a caller-supplied seed; a signature is its bytes, the
32-byte digest over (secret key, message), and verification re-derives
the digest from the signer's key pair. The module keeps no state: a
chain holds the key pairs whose signatures it accepts
(ChainNetwork.register_key). The function surface mirrors a real scheme
so an actual signature algorithm can be swapped in without touching
callers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

ADDRESS_BYTES = 20

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def digest(data: bytes) -> bytes:
    """The simulator's one fixed 256-bit digest (SHA-256)."""
    return hashlib.sha256(data).digest()


class IdentityError(Exception):
    pass


class EmptySeed(IdentityError):
    pass


class MalformedKey(IdentityError):
    pass


class AddressScheme(Enum):
    BASE16_ETH = "base16"
    BASE58_BTC = "base58"


@dataclass(frozen=True)
class KeyPair:
    secret_key: bytes
    public_key: bytes


@dataclass(frozen=True)
class Address:
    scheme: AddressScheme
    payload: bytes
    text: str

    def __str__(self) -> str:
        return self.text


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a key pair deterministically from a non-empty seed."""
    if not seed:
        raise EmptySeed("seed must be non-empty")
    sk = digest(b"w3/sk" + seed)
    return KeyPair(secret_key=sk, public_key=_public_key_of(sk))


def _public_key_of(sk: bytes) -> bytes:
    return digest(b"w3/pk" + sk)


def derive_address(pk: bytes, scheme: AddressScheme = AddressScheme.BASE16_ETH) -> Address:
    """Derive a 20-byte address from a 32-byte public key and encode it."""
    if len(pk) != 32:
        raise MalformedKey(f"public key must be 32 bytes, got {len(pk)}")
    payload = digest(pk)[:ADDRESS_BYTES]
    if scheme is AddressScheme.BASE16_ETH:
        text = encode_base16(payload)
    else:
        text = encode_base58(payload)
    return Address(scheme=scheme, payload=payload, text=text)


def encode_base58(data: bytes) -> str:
    """Base-58 encode; each leading zero byte maps to one leading '1'."""
    n_pad = 0
    for b in data:
        if b != 0:
            break
        n_pad += 1
    num = int.from_bytes(data, "big")
    out = ""
    while num > 0:
        num, rem = divmod(num, 58)
        out = BASE58_ALPHABET[rem] + out
    return BASE58_ALPHABET[0] * n_pad + out


def decode_base58(text: str) -> bytes:
    n_pad = 0
    for ch in text:
        if ch != BASE58_ALPHABET[0]:
            break
        n_pad += 1
    num = 0
    for ch in text:
        idx = BASE58_ALPHABET.find(ch)
        if idx < 0:
            raise ValueError(f"invalid base58 character {ch!r}")
        num = num * 58 + idx
    body = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    return b"\x00" * n_pad + body


def encode_base16(data: bytes) -> str:
    return "0x" + data.hex()


def decode_base16(text: str) -> bytes:
    if not text.startswith("0x"):
        raise ValueError("base16 text must start with '0x'")
    return bytes.fromhex(text[2:])


def sign(sk: bytes, message: bytes) -> bytes:
    """Simulated signature: the 32-byte digest binding the secret key to the message."""
    return digest(b"w3/sig" + sk + message)


def verify(kp: KeyPair, message: bytes, sig: bytes) -> bool:
    """True iff sig was produced over message by kp's secret key.

    Simulator-grade: the verifier holds the signer's key pair, so it
    re-derives the digest; a real scheme needs only the public key.
    """
    return sig == digest(b"w3/sig" + kp.secret_key + message)
