import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from w3sim import identity
from w3sim.access import prepare_data
from w3sim.archetypes import (
    AccessMode,
    ComputeMode,
    SimConfig,
    StorageMode,
    storage_plan_for,
    type_from_tuple,
)
from w3sim.storage import (
    DEFAULT_INLINE_THRESHOLD,
    INLINE_CAP_BYTES,
    AllReplicasDown,
    DigestMismatch,
    InlineTooLarge,
    InsufficientStorageNodes,
    NotFound,
    OffChainStore,
    Route,
    StorageError,
    StorageFabric,
    StoragePlan,
)


def fabric_for(route, n_nodes=3, **plan_kwargs):
    plan = StoragePlan(route=route, **plan_kwargs)
    return StorageFabric(plan, OffChainStore(n_nodes))


def stored(fabric, data):
    """Put data off-chain; returns its cid, the body of its linked record."""
    record = fabric.put(data)
    assert record[:1] == b"\x01"
    return record[1:]


class TestPut:
    def test_onchain_inline(self):
        fabric = fabric_for(Route.ON_CHAIN)
        assert fabric.put(b"x" * 1000) == b"\x00" + b"x" * 1000

    def test_onchain_too_large(self):
        fabric = fabric_for(Route.ON_CHAIN)
        with pytest.raises(InlineTooLarge):
            fabric.put(b"x" * 1025)

    def test_hybrid_threshold(self):
        fabric = fabric_for(Route.HYBRID)
        assert fabric.put(b"x" * 200) == b"\x00" + b"x" * 200
        assert fabric.put(b"x" * 300) == b"\x01" + identity.digest(b"x" * 300)

    def test_hybrid_links_a_blob_between_the_cap_and_a_larger_threshold(self):
        fabric = fabric_for(Route.HYBRID, n_nodes=5, inline_threshold=2000)
        assert fabric.put(b"x" * 1024) == b"\x00" + b"x" * 1024
        assert fabric.put(b"x" * 1500) == b"\x01" + identity.digest(b"x" * 1500)

    def test_only_an_offchain_write_draws_storage_crashes(self, monkeypatch):
        draws = []
        monkeypatch.setattr(OffChainStore, "sample_crashes",
                            lambda store, rng, crash_prob: draws.append(crash_prob))
        fabric = StorageFabric(StoragePlan(route=Route.HYBRID), OffChainStore(5),
                               crash_prob=0.6, seed=1)
        fabric.put(b"x" * 256)  # inline: no storage node is touched
        assert draws == []
        fabric.put(b"x" * 257)
        assert draws == [0.6]

    def test_offchain_needs_enough_live_nodes(self):
        fabric = fabric_for(Route.OFF_CHAIN, n_nodes=3)
        fabric.store.set_alive(0, False)
        with pytest.raises(InsufficientStorageNodes):
            fabric.put(b"payload")

    def test_offchain_rejects_empty(self):
        fabric = fabric_for(Route.OFF_CHAIN)
        with pytest.raises(Exception):
            fabric.put(b"")

    def test_default_replica_count_is_three(self):
        assert StoragePlan(route=Route.OFF_CHAIN).replicas == 3
        fabric = fabric_for(Route.OFF_CHAIN, n_nodes=5)
        assert len(fabric.store.placement[stored(fabric, b"replicated")]) == 3

    def test_mode_mapping(self):
        sim = SimConfig(replicas=4, inline_threshold=128, inline_cap=512)
        for mode, route in ((StorageMode.ON_CHAIN, Route.ON_CHAIN),
                            (StorageMode.HYBRID, Route.HYBRID),
                            (StorageMode.OFF_CHAIN, Route.OFF_CHAIN)):
            arch = type_from_tuple(AccessMode.BROWSER, ComputeMode.ON_CHAIN, mode)
            assert storage_plan_for(arch, sim) == StoragePlan(
                route=route, replicas=4, inline_threshold=128, inline_cap=512)


# Both sides of each routing boundary under the default plan.
RECORD_SIZES = (0, 1, DEFAULT_INLINE_THRESHOLD - 1, DEFAULT_INLINE_THRESHOLD,
                DEFAULT_INLINE_THRESHOLD + 1, INLINE_CAP_BYTES - 1, INLINE_CAP_BYTES,
                INLINE_CAP_BYTES + 1)


def at_record_sizes(test):
    for size in RECORD_SIZES:
        test = example(size=size)(test)
    return test


class TestRecordFormat:
    @pytest.mark.parametrize("route", list(Route))
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(0, 2 * INLINE_CAP_BYTES))
    @at_record_sizes
    def test_one_tagged_record_per_op(self, route, size):
        fabric = fabric_for(route, n_nodes=5)
        plan = fabric.plan
        data = random.Random(size).randbytes(size)
        if data and plan.inlines(size) and size > plan.inline_cap:
            assert route is Route.ON_CHAIN  # the only route with nowhere else to put it
            with pytest.raises(InlineTooLarge):
                prepare_data(data, fabric)
            return
        record = prepare_data(data, fabric)
        if not data:
            assert record == b""
        elif plan.inlines(size):
            assert record == b"\x00" + data
        else:
            cid = identity.digest(data)
            assert record == b"\x01" + cid
            assert fabric.get(cid) == data


class TestRead:
    @pytest.mark.parametrize("route", list(Route))
    @pytest.mark.parametrize("threshold", [DEFAULT_INLINE_THRESHOLD, 2 * INLINE_CAP_BYTES],
                             ids=["threshold-below-cap", "threshold-above-cap"])
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(0, 2 * INLINE_CAP_BYTES))
    @at_record_sizes
    def test_reads_back_what_put_stored(self, route, threshold, size):
        fabric = fabric_for(route, n_nodes=5, inline_threshold=threshold)
        data = random.Random(size).randbytes(size)
        if route is Route.ON_CHAIN and size > INLINE_CAP_BYTES or route is Route.OFF_CHAIN and not size:
            return  # put refuses the blob (TestPut, TestRecordFormat)
        assert fabric.read(fabric.put(data)) == data

    def test_the_empty_record_of_an_op_without_data_reads_as_no_data(self):
        fabric = fabric_for(Route.OFF_CHAIN)
        assert fabric.read(prepare_data(b"", fabric)) == b""

    @pytest.mark.parametrize("make, error", [
        (lambda cid: b"\x02" + cid, StorageError),            # unknown tag
        (lambda cid: b"\xff", StorageError),                  # an empty record, each byte flipped
        (lambda cid: b"\x01" + cid[:-1], StorageError),       # truncated
        (lambda cid: b"\x01" + cid + b"\x00", StorageError),  # over-long
        (lambda cid: b"\x01", StorageError),                  # a tag without a cid
        (lambda cid: b"\x01" + identity.digest(b"never stored"), NotFound),
    ], ids=["unknown-tag", "flipped-empty", "truncated", "over-long", "tag-only", "missing-cid"])
    def test_a_record_storage_cannot_serve_raises(self, make, error):
        fabric = fabric_for(Route.OFF_CHAIN)
        cid = stored(fabric, b"content")
        with pytest.raises(error):
            fabric.read(make(cid))

    def test_a_digest_mismatch_raises(self):
        fabric = fabric_for(Route.OFF_CHAIN)
        record = fabric.put(b"content")
        fabric.store.tamper(record[1:], flip_first_byte)
        with pytest.raises(DigestMismatch):
            fabric.read(record)

    def test_only_a_linked_read_draws_storage_crashes_once(self, monkeypatch):
        draws = []
        monkeypatch.setattr(OffChainStore, "sample_crashes",
                            lambda store, rng, crash_prob: draws.append(crash_prob))
        fabric = StorageFabric(StoragePlan(route=Route.HYBRID), OffChainStore(5),
                               crash_prob=0.6, seed=1)
        inline, linked = fabric.put(b"x" * 256), fabric.put(b"x" * 257)
        draws.clear()
        assert fabric.read(inline) == b"x" * 256
        assert fabric.read(b"") == b""
        assert draws == []
        assert fabric.read(linked) == b"x" * 257
        assert draws == [0.6]

    def test_a_crashed_store_fails_a_linked_read(self):
        fabric = fabric_for(Route.HYBRID)
        inline, linked = fabric.put(b"x" * 256), fabric.put(b"x" * 257)
        for i in range(3):
            fabric.store.set_alive(i, False)
        assert fabric.read(inline) == b"x" * 256
        with pytest.raises(AllReplicasDown):
            fabric.read(linked)


class TestInlines:
    def test_on_chain_inlines_every_blob(self):
        plan = StoragePlan(route=Route.ON_CHAIN)
        assert all(plan.inlines(size) for size in (0, 256, 1024, 1025, 10**6))

    def test_off_chain_inlines_nothing(self):
        plan = StoragePlan(route=Route.OFF_CHAIN)
        assert not any(plan.inlines(size) for size in (0, 1, 256, 1024))

    @pytest.mark.parametrize("threshold, cap, limit", [
        (256, 1024, 256),    # the threshold is the limit
        (1024, 1024, 1024),  # threshold at the cap
        (2000, 1024, 1024),  # threshold over the cap: the cap is the limit
    ])
    def test_hybrid_inlines_up_to_the_lower_of_threshold_and_cap(self, threshold, cap, limit):
        plan = StoragePlan(route=Route.HYBRID, inline_threshold=threshold, inline_cap=cap)
        assert plan.inlines(0) and plan.inlines(limit)
        assert not plan.inlines(limit + 1)


class TestGet:
    def test_any_two_failures_survive(self):
        fabric = fabric_for(Route.OFF_CHAIN, n_nodes=3)
        cid = stored(fabric, b"three copies")
        for down in itertools.combinations(range(3), 2):
            for i in range(3):
                fabric.store.set_alive(i, i not in down)
            assert fabric.get(cid) == b"three copies"

    def test_all_replicas_down(self):
        fabric = fabric_for(Route.OFF_CHAIN, n_nodes=3)
        cid = stored(fabric, b"gone")
        for i in range(3):
            fabric.store.set_alive(i, False)
        with pytest.raises(AllReplicasDown):
            fabric.get(cid)

    def test_unknown_cid(self):
        fabric = fabric_for(Route.OFF_CHAIN)
        with pytest.raises(NotFound):
            fabric.get(identity.digest(b"never stored"))


class TestIntegrity:
    def test_roundtrip_verified(self):
        fabric = fabric_for(Route.OFF_CHAIN)
        cid = stored(fabric, b"content")
        assert fabric.verify_integrity(cid, fabric.get(cid)) is True

    def test_flipped_byte_mismatch(self):
        fabric = fabric_for(Route.OFF_CHAIN)
        cid = stored(fabric, b"content")
        fabric.store.tamper(cid, lambda b: bytes([b[0] ^ 1]) + b[1:])
        got = fabric.get(cid)
        assert fabric.verify_integrity(cid, got) is False

    def test_tamper_detection_complete_1000_mutations(self):
        rng = random.Random(6)
        fabric = fabric_for(Route.OFF_CHAIN)
        data = rng.randbytes(512)
        cid = stored(fabric, data)
        for _ in range(1_000):
            mutated = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
            if bytes(mutated) == data:
                continue
            assert fabric.verify_integrity(cid, bytes(mutated)) is False


class TestAllRoutesRoundtrip:
    @pytest.mark.parametrize("route,size", [
        (Route.HYBRID, 700),   # above threshold: linked
        (Route.OFF_CHAIN, 300),
    ])
    def test_put_then_get_verifies(self, route, size):
        fabric = fabric_for(route, n_nodes=5)
        data = bytes(range(256))[:200] * 4
        data = data[:size]
        cid = stored(fabric, data)
        assert fabric.get(cid) == data
        assert fabric.verify_integrity(cid, fabric.get(cid)) is True


class TestAvailabilityMonotonicity:
    def test_success_rate_nondecreasing_in_replicas(self):
        rates = []
        for replicas in (1, 2, 3, 4):
            rng = random.Random(42)
            fabric = fabric_for(Route.OFF_CHAIN, n_nodes=8, replicas=replicas)
            cid = stored(fabric, b"monotone")
            ok = 0
            for _ in range(1_000):
                for node_id in range(8):
                    fabric.store.set_alive(node_id, rng.random() >= 0.5)
                try:
                    fabric.get(cid)
                    ok += 1
                except AllReplicasDown:
                    pass
            rates.append(ok / 1_000)
        assert rates == sorted(rates)


class TestContentId:
    def test_digest_identity(self):
        store = OffChainStore(3)
        assert store.write(b"a", 1) == store.write(b"a", 2) == identity.digest(b"a")
        assert store.write(b"a", 1) != store.write(b"b", 1)

    def test_corpus_injective(self):
        rng = random.Random(8)
        blobs = {rng.randbytes(rng.randrange(1, 64)) for _ in range(2_000)}
        store = OffChainStore(3)
        cids = {store.write(b, 1) for b in blobs}
        assert len(cids) == len(blobs)


class ReplicaStore:
    """Reference model of OffChainStore that keeps a blob map on every node."""

    def __init__(self, n_nodes: int):
        self.alive = [True] * n_nodes
        self.node_blobs = [{} for _ in range(n_nodes)]
        self.placement = {}

    def set_alive(self, node_id, alive):
        self.alive[node_id] = alive

    def sample_crashes(self, rng, crash_prob):
        for node_id in range(len(self.alive)):
            self.alive[node_id] = not (crash_prob > 0 and rng.random() < crash_prob)

    def write(self, data, replicas):
        live = [node_id for node_id, up in enumerate(self.alive) if up]
        if len(live) < replicas:
            raise InsufficientStorageNodes()
        cid = identity.digest(data)
        start = int.from_bytes(cid[:4], "big") % len(live)
        chosen = tuple(live[(start + i) % len(live)] for i in range(replicas))
        for node_id in chosen:
            self.node_blobs[node_id][cid] = data
        self.placement[cid] = chosen
        return cid

    def read(self, cid):
        if cid not in self.placement:
            raise NotFound()
        for node_id in self.placement[cid]:
            if self.alive[node_id] and cid in self.node_blobs[node_id]:
                return self.node_blobs[node_id][cid]
        raise AllReplicasDown()

    def tamper(self, cid, mutate):
        for node_id in self.placement.get(cid, ()):
            blobs = self.node_blobs[node_id]
            if cid in blobs:
                blobs[cid] = mutate(blobs[cid])


STORE_NODES = 5
BLOBS = (b"alpha", b"beta", b"gamma" * 40)
NEVER_STORED = identity.digest(b"never stored")


def flip_first_byte(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 1]) + blob[1:]


store_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), st.sampled_from(BLOBS), st.integers(1, STORE_NODES)),
    st.tuples(st.just("set_alive"), st.integers(0, STORE_NODES - 1), st.booleans()),
    st.tuples(st.just("sample_crashes"), st.integers(0, 2**16),
              st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    st.tuples(st.just("read"), st.sampled_from(BLOBS + (None,))),
    st.tuples(st.just("tamper"), st.sampled_from(BLOBS)),
), max_size=40)


def outcome(call):
    try:
        return call()
    except StorageError as err:
        return type(err)


class TestOneCopyStore:
    @settings(max_examples=200, deadline=None)
    @given(ops=store_ops)
    # One cid written, tampered, then rewritten under another live set, and read.
    @example(ops=[("write", b"alpha", 3), ("tamper", b"alpha"), ("set_alive", 0, False),
                  ("set_alive", 2, False), ("write", b"alpha", 3), ("read", b"alpha"),
                  ("set_alive", 0, True), ("tamper", b"alpha"), ("read", b"alpha")])
    # Every replica down, then one back up.
    @example(ops=[("write", b"beta", 2), ("sample_crashes", 1, 1.0), ("read", b"beta"),
                  ("sample_crashes", 1, 0.3), ("read", b"beta")])
    def test_answers_like_a_blob_map_per_replica(self, ops):
        store, model = OffChainStore(STORE_NODES), ReplicaStore(STORE_NODES)
        for op, *args in ops:
            if op == "write":
                data, replicas = args
                assert outcome(lambda: store.write(data, replicas)) == \
                    outcome(lambda: model.write(data, replicas))
            elif op == "set_alive":
                store.set_alive(*args)
                model.set_alive(*args)
            elif op == "sample_crashes":
                seed, crash_prob = args
                store.sample_crashes(random.Random(seed), crash_prob)
                model.sample_crashes(random.Random(seed), crash_prob)
            elif op == "read":
                cid = NEVER_STORED if args[0] is None else identity.digest(args[0])
                assert outcome(lambda: store.read(cid)) == outcome(lambda: model.read(cid))
            else:
                cid = identity.digest(args[0])
                store.tamper(cid, flip_first_byte)
                model.tamper(cid, flip_first_byte)
            assert store.alive == model.alive
            assert store.placement == model.placement
            for digest, placed in model.placement.items():
                # Every replica of a cid holds the one copy the store keeps.
                assert {model.node_blobs[node_id][digest] for node_id in placed} == \
                    {store.blobs[digest]}
