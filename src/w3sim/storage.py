"""Content storage in three routes: inline on-chain, replicated off-chain
with an on-chain hook, and a size-thresholded hybrid of the two.

put() turns a blob into its on-chain record, tagged 0x00 + data when the
plan inlines it and 0x01 + cid when it goes off-chain; a cid is the
blob's 32-byte digest. read() turns a record, as the chain holds it, back
into the blob: the one place that parses the tag.

Off-chain nodes are liveness flags over one copy of each blob; integrity
of a linked blob is a digest check against the cid in its record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random

from . import identity

INLINE_CAP_BYTES = 1024
DEFAULT_REPLICAS = 3  # content is kept in at least three locations
DEFAULT_INLINE_THRESHOLD = 256


class StorageError(Exception):
    pass


class InlineTooLarge(StorageError):
    pass


class InsufficientStorageNodes(StorageError):
    pass


class AllReplicasDown(StorageError):
    pass


class NotFound(StorageError):
    pass


class DigestMismatch(StorageError):
    pass


class Route(Enum):
    ON_CHAIN = "OnChain"
    OFF_CHAIN = "OffChain"
    HYBRID = "Hybrid"


@dataclass(frozen=True)
class StoragePlan:
    route: Route = Route.ON_CHAIN
    replicas: int = DEFAULT_REPLICAS
    inline_threshold: int = DEFAULT_INLINE_THRESHOLD
    inline_cap: int = INLINE_CAP_BYTES

    def inlines(self, size: int) -> bool:
        """True if a blob of size bytes goes inline on-chain, False if off-chain."""
        if self.route is Route.HYBRID:
            return size <= min(self.inline_threshold, self.inline_cap)
        return self.route is Route.ON_CHAIN


class OffChainStore:
    """A fixed set of storage nodes with cid -> replica-set placement.

    Every replica of a cid holds the same bytes, so the store keeps one
    copy per cid; a replica set is the cid's placement plus each node's
    liveness flag, and a read succeeds while any placed node is alive.
    """

    def __init__(self, n_nodes: int = 10):
        self.alive = [True] * n_nodes
        self.blobs: dict[bytes, bytes] = {}
        self.placement: dict[bytes, tuple[int, ...]] = {}
        # One tuple per distinct replica set, which every blob placed on it shares.
        self._replica_sets: dict[tuple[int, ...], tuple[int, ...]] = {}

    def set_alive(self, node_id: int, alive: bool):
        self.alive[node_id] = alive

    def sample_crashes(self, rng: Random, crash_prob: float):
        """Resample per-access availability under a fault plan."""
        self.alive = [not (crash_prob > 0 and rng.random() < crash_prob) for _ in self.alive]

    def write(self, data: bytes, replicas: int) -> bytes:
        """Store data on replicas live nodes; returns its cid."""
        live = [node_id for node_id, up in enumerate(self.alive) if up]
        if len(live) < replicas:
            raise InsufficientStorageNodes(f"{len(live)} live nodes < {replicas} replicas")
        cid = identity.digest(data)
        # Deterministic placement: rotate by content digest for spread.
        start = int.from_bytes(cid[:4], "big") % len(live)
        chosen = tuple([live[(start + i) % len(live)] for i in range(replicas)])
        self.blobs[cid] = data
        self.placement[cid] = self._replica_sets.setdefault(chosen, chosen)
        return cid

    def read(self, cid: bytes) -> bytes:
        placed = self.placement.get(cid)
        if placed is None:
            raise NotFound(cid.hex())
        for node_id in placed:
            if self.alive[node_id]:
                return self.blobs[cid]
        raise AllReplicasDown(cid.hex())

    def tamper(self, cid: bytes, mutate) -> None:
        """Apply mutate() to the one copy of cid, which every replica holds (test/fault hook)."""
        if cid in self.blobs:
            self.blobs[cid] = mutate(self.blobs[cid])


class StorageFabric:
    """Route-aware put/read facade over one off-chain store.

    Each off-chain access first resamples which storage nodes are up, each
    crashing with crash_prob, from the fabric's own seeded stream.
    """

    def __init__(self, plan: StoragePlan, store: OffChainStore | None = None,
                 crash_prob: float = 0.0, seed: int = 0):
        self.plan = plan
        self.store = store if store is not None else OffChainStore()
        self.offchain_bytes = 0
        self.crash_prob = crash_prob
        self.crash_rng = Random(seed ^ 0x5707A6E)

    def _sample_faults(self):
        if self.crash_prob > 0:
            self.store.sample_crashes(self.crash_rng, self.crash_prob)

    def put(self, data: bytes) -> bytes:
        """Route data by the plan; returns its on-chain record."""
        plan = self.plan
        if plan.inlines(len(data)):
            if len(data) > plan.inline_cap:
                raise InlineTooLarge(f"{len(data)} bytes exceeds inline cap {plan.inline_cap}")
            return b"\x00" + data
        if not data:
            raise StorageError("off-chain put requires non-empty data")
        self._sample_faults()  # storage nodes crash only where a write reaches them
        cid = self.store.write(data, plan.replicas)
        self.offchain_bytes += len(data) * plan.replicas
        return b"\x01" + cid

    def get(self, cid: bytes) -> bytes:
        self._sample_faults()
        return self.store.read(cid)

    def verify_integrity(self, cid: bytes, data: bytes) -> bool:
        return identity.digest(data) == cid

    def read(self, record: bytes) -> bytes:
        """The data behind an on-chain record; StorageError if the record cannot serve it.

        An empty record holds no data and an inline one holds its data. A
        linked record's blob is fetched, which draws storage crashes, and
        checked against the record's cid. Any other tag or length fails.
        """
        tag, body = record[:1], record[1:]
        if tag in (b"", b"\x00"):
            return body
        if tag != b"\x01" or len(body) != 32:  # a cid is a 32-byte digest
            raise StorageError(f"malformed {len(record)}-byte record, tag {tag.hex()}")
        blob = self.get(body)
        if not self.verify_integrity(body, blob):
            raise DigestMismatch(body.hex())
        return blob
