import json
import random

import pytest
from hypothesis import given, strategies as st

from w3sim import identity, txcraft, vm
from w3sim.vm import (
    BundleOp,
    ContractDef,
    ContractKind,
    ContractState,
    DelegationPolicy,
    DuplicateContract,
    QueryError,
    TxStatus,
    decode_bundle,
    deploy_contract,
    encode_bundle,
    execute,
    query_state,
)

FT = b"\x11" * 20
NFT = b"\x12" * 20
MARKET = b"\x13" * 20


def wallet(tag):
    kp = identity.generate_keypair(tag)
    return kp, identity.derive_address(kp.public_key)


def call(state, kp, addr, contract, method, args=(), inline=b"", gas_limit=500_000):
    metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                  gas_limit=gas_limit, sim_time=0)
    payload = txcraft.TxPayload(contract_id=contract, method=method, args=args, inline_data=inline)
    tx = txcraft.build_transaction(kp.secret_key, metadata, payload)
    return execute(state, tx)[1]


def fresh_state(supply=1_000, deployer=None):
    state = ContractState()
    deploy_contract(state, ContractDef(FT, ContractKind.FUNGIBLE_TOKEN,
                                       {"supply": supply, "deployer": deployer or b"\xaa" * 20}))
    deploy_contract(state, ContractDef(NFT, ContractKind.NON_FUNGIBLE_TOKEN, {}))
    deploy_contract(state, ContractDef(MARKET, ContractKind.NFT_MARKET, {"nft": NFT, "token": FT}))
    return state


def recompute_root(state: ContractState) -> bytes:
    """From-scratch oracle for the incremental root: sum entry digests mod 2**256."""
    acc = 0
    for cid, area in state.storage.items():
        for key, value in area.items():
            acc += int.from_bytes(ContractState.storage_entry_digest(cid, key, value), "big")
    for payload, amount in state.native_balances.items():
        acc += int.from_bytes(ContractState.native_entry_digest(payload, amount), "big")
    for contract in state.contracts.values():
        acc += int.from_bytes(ContractState.contract_entry_digest(contract), "big")
    return (acc % 2**256).to_bytes(32, "big")


def amount(n):
    return n.to_bytes(16, "big")


class TestDeploy:
    def test_fungible_constructor(self):
        deployer = b"\xaa" * 20
        state = fresh_state(supply=1_000, deployer=deployer)
        assert query_state(state, FT, "balanceOf", (deployer,)) == 1_000
        assert query_state(state, FT, "totalSupply") == 1_000

    def test_duplicate_contract(self):
        state = fresh_state()
        with pytest.raises(DuplicateContract):
            deploy_contract(state, ContractDef(FT, ContractKind.FUNGIBLE_TOKEN,
                                               {"supply": 1, "deployer": b"\xbb" * 20}))

    def test_nft_starts_empty(self):
        state = fresh_state()
        with pytest.raises(QueryError) as err:
            query_state(state, NFT, "ownerOf", ((1).to_bytes(32, "big"),))
        assert err.value.reason == "NotMinted"


class TestFungibleToken:
    def test_insufficient_balance_reverts_cleanly(self):
        kp, addr = wallet(b"poor")
        state = fresh_state()
        root = state.state_root
        receipt = call(state, kp, addr, FT, "transfer", (b"\xbb" * 20, amount(50)))
        assert receipt.status is TxStatus.REVERTED
        assert receipt.reason == "InsufficientBalance"
        assert state.state_root == root

    def test_approve_transfer_from_ledger(self):
        owner_kp, owner = wallet(b"owner")
        spender_kp, spender = wallet(b"spender")
        dst = b"\xdd" * 20
        state = fresh_state(supply=1_000, deployer=owner.payload)
        assert call(state, owner_kp, owner, FT, "approve", (spender.payload, amount(50))).success
        assert call(state, spender_kp, spender, FT, "transferFrom",
                    (owner.payload, dst, amount(30))).success
        # Independent replay on plain maps.
        balances = {owner.payload: 1_000}
        allowances = {}
        allowances[(owner.payload, spender.payload)] = 50
        allowances[(owner.payload, spender.payload)] -= 30
        balances[owner.payload] -= 30
        balances[dst] = 30
        assert query_state(state, FT, "allowance", (owner.payload, spender.payload)) == \
            allowances[(owner.payload, spender.payload)] == 20
        assert query_state(state, FT, "balanceOf", (owner.payload,)) == balances[owner.payload]
        assert query_state(state, FT, "balanceOf", (dst,)) == 30

    def test_insufficient_allowance(self):
        owner_kp, owner = wallet(b"owner2")
        spender_kp, spender = wallet(b"spender2")
        state = fresh_state(supply=100, deployer=owner.payload)
        receipt = call(state, spender_kp, spender, FT, "transferFrom",
                       (owner.payload, b"\xdd" * 20, amount(10)))
        assert receipt.reason == "InsufficientAllowance"

    def test_query_fresh_balance_zero(self):
        state = fresh_state()
        assert query_state(state, FT, "balanceOf", (b"\xfe" * 20,)) == 0


class TestNft:
    def test_mint_and_duplicate(self):
        kp, addr = wallet(b"minter")
        state = fresh_state()
        token = (7).to_bytes(32, "big")
        assert call(state, kp, addr, NFT, "mint", (token,), inline=b"\x00abc").success
        assert query_state(state, NFT, "ownerOf", (token,)) == addr.payload
        receipt = call(state, kp, addr, NFT, "mint", (token,), inline=b"\x00abc")
        assert receipt.reason == "DuplicateTokenId"

    def test_transfer_not_owner(self):
        kp1, a1 = wallet(b"nft1")
        kp2, a2 = wallet(b"nft2")
        state = fresh_state()
        token = (9).to_bytes(32, "big")
        call(state, kp1, a1, NFT, "mint", (token,))
        receipt = call(state, kp2, a2, NFT, "transferFrom", (a1.payload, a2.payload, token))
        assert receipt.reason == "NotOwner"
        assert call(state, kp1, a1, NFT, "transferFrom", (a1.payload, a2.payload, token)).success
        assert query_state(state, NFT, "ownerOf", (token,)) == a2.payload


class TestMarket:
    def setup_sale(self):
        seller_kp, seller = wallet(b"seller")
        buyer_kp, buyer = wallet(b"buyer")
        state = fresh_state(supply=10_000, deployer=buyer.payload)
        token = (1).to_bytes(32, "big")
        call(state, seller_kp, seller, NFT, "mint", (token,), inline=b"\x00img")
        call(state, seller_kp, seller, MARKET, "list", (token, amount(500)))
        return state, (seller_kp, seller), (buyer_kp, buyer), token

    def test_atomic_buy(self):
        state, (_, seller), (buyer_kp, buyer), token = self.setup_sale()
        receipt = call(state, buyer_kp, buyer, MARKET, "buy", (token, amount(500)))
        assert receipt.success
        names = [ev.name for ev in receipt.events]
        assert "Transfer" in names and "NftTransfer" in names and "Sale" in names
        assert query_state(state, NFT, "ownerOf", (token,)) == buyer.payload
        assert query_state(state, FT, "balanceOf", (seller.payload,)) == 500
        assert query_state(state, FT, "balanceOf", (buyer.payload,)) == 9_500

    def test_price_mismatch(self):
        state, _, (buyer_kp, buyer), token = self.setup_sale()
        receipt = call(state, buyer_kp, buyer, MARKET, "buy", (token, amount(499)))
        assert receipt.reason == "PriceMismatch"

    def test_not_listed(self):
        state, _, (buyer_kp, buyer), _ = self.setup_sale()
        receipt = call(state, buyer_kp, buyer, MARKET, "buy",
                       ((42).to_bytes(32, "big"), amount(500)))
        assert receipt.reason == "NotListed"

    def test_buy_insufficient_balance(self):
        state, _, (buyer_kp, buyer), token = self.setup_sale()
        pauper_kp, pauper = wallet(b"pauper")
        receipt = call(state, pauper_kp, pauper, MARKET, "buy", (token, amount(500)))
        assert receipt.reason == "InsufficientBalance"

    def test_equal_listings_share_one_stored_value(self):
        seller_kp, seller = wallet(b"seller")
        state = fresh_state()
        for n in range(1, 21):
            token = n.to_bytes(32, "big")
            call(state, seller_kp, seller, NFT, "mint", (token,), inline=b"\x00img")
            assert call(state, seller_kp, seller, MARKET, "list", (token, amount(500))).success
        listings = [v for k, v in state.storage[MARKET].items() if k.startswith(b"lst:")]
        assert len(listings) == 20
        assert listings[0] == amount(500) + seller.payload
        assert len({id(v) for v in listings}) == 1


class TestConservationFuzz:
    def test_ledger_oracle_10k_ops(self):
        actors = [wallet(b"actor-%d" % i) for i in range(6)]
        deployer = actors[0][1].payload
        supply = 1_000_000
        state = fresh_state(supply=supply, deployer=deployer)
        balances = {a[1].payload: 0 for a in actors}
        balances[deployer] = supply
        allowances = {}
        rng = random.Random(1234)

        for _ in range(10_000):
            op = rng.choice(("transfer", "approve", "transferFrom"))
            src_kp, src = rng.choice(actors)
            dst = rng.choice(actors)[1].payload
            amt = rng.randrange(0, 5_000)
            if op == "transfer":
                receipt = call(state, src_kp, src, FT, "transfer", (dst, amount(amt)))
                if balances[src.payload] >= amt:
                    assert receipt.success
                    balances[src.payload] -= amt
                    balances[dst] += amt
                else:
                    assert receipt.reason == "InsufficientBalance"
            elif op == "approve":
                receipt = call(state, src_kp, src, FT, "approve", (dst, amount(amt)))
                assert receipt.success
                allowances[(src.payload, dst)] = amt
            else:
                owner = rng.choice(actors)[1].payload
                receipt = call(state, src_kp, src, FT, "transferFrom", (owner, dst, amount(amt)))
                allowed = allowances.get((owner, src.payload), 0)
                if allowed >= amt and balances[owner] >= amt:
                    assert receipt.success
                    allowances[(owner, src.payload)] = allowed - amt
                    balances[owner] -= amt
                    balances[dst] += amt
                else:
                    assert receipt.reason in ("InsufficientAllowance", "InsufficientBalance")
            # Exact equality of the full fungible ledger after every receipt.
            assert sum(balances.values()) == supply
            for payload, expected in balances.items():
                assert query_state(state, FT, "balanceOf", (payload,)) == expected
        assert query_state(state, FT, "totalSupply") == supply
        for (owner, spender), expected in allowances.items():
            assert query_state(state, FT, "allowance", (owner, spender)) == expected


class TestNftUniqueness:
    def test_single_owner_always(self):
        actors = [wallet(b"nft-actor-%d" % i) for i in range(4)]
        state = fresh_state()
        owners = {}
        rng = random.Random(77)
        for _ in range(2_000):
            kp, addr = rng.choice(actors)
            token = rng.randrange(0, 50).to_bytes(32, "big")
            if rng.random() < 0.5:
                receipt = call(state, kp, addr, NFT, "mint", (token,))
                if token not in owners:
                    assert receipt.success
                    owners[token] = addr.payload
                else:
                    assert receipt.reason == "DuplicateTokenId"
            else:
                dst = rng.choice(actors)[1].payload
                receipt = call(state, kp, addr, NFT, "transferFrom", (addr.payload, dst, token))
                if owners.get(token) == addr.payload:
                    assert receipt.success
                    owners[token] = dst
                else:
                    assert not receipt.success
            for token_id, owner in owners.items():
                assert query_state(state, NFT, "ownerOf", (token_id,)) == owner


class TestDeterminismAndRoot:
    def build_sequence(self):
        rng = random.Random(55)
        actors = [wallet(b"det-%d" % i) for i in range(3)]
        txs = []
        for i in range(200):
            kp, addr = rng.choice(actors)
            metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=i,
                                          gas_limit=500_000, sim_time=i)
            payload = txcraft.TxPayload(contract_id=FT, method="transfer",
                                        args=(rng.choice(actors)[1].payload, amount(rng.randrange(100))))
            txs.append(txcraft.build_transaction(kp.secret_key, metadata, payload))
        return actors, txs

    def test_replay_identical_root(self):
        actors, txs = self.build_sequence()
        roots = []
        for _ in range(2):
            state = fresh_state(supply=10_000, deployer=actors[0][1].payload)
            for tx in txs:
                execute(state, tx)
            roots.append(state.state_root)
        assert roots[0] == roots[1]

    def test_incremental_root_matches_scratch_oracle(self):
        actors, txs = self.build_sequence()
        state = fresh_state(supply=10_000, deployer=actors[0][1].payload)
        for tx in txs[:50]:
            execute(state, tx)
        assert state.state_root == recompute_root(state)
        state.credit_native(b"\xcc" * 20, 123)
        state.set_storage(FT, b"bal:" + b"\xee" * 20, None)
        assert state.state_root == recompute_root(state)

    @given(st.lists(st.tuples(st.sampled_from((FT, NFT, b"\x00" * 20)),
                              st.sampled_from((b"a", b"b", b"own:\x01", b"")),
                              st.none() | st.binary(max_size=8)),
                    max_size=60))
    def test_cell_writes_keep_incremental_root(self, writes):
        # Few contracts and keys, so sequences overwrite, delete and
        # re-insert the same cells.
        state = fresh_state()
        for cid, key, value in writes:
            state.set_storage(cid, key, value)
            assert state.state_root == recompute_root(state)

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("set"), st.sampled_from((FT, NFT, b"\x00" * 20)),
                      st.sampled_from((b"a", b"b", b"own:\x01", b"")),
                      st.none() | st.binary(max_size=8)),
            st.tuples(st.just("take"), st.dictionaries(
                st.tuples(st.sampled_from((FT, MARKET)), st.sampled_from((b"a", b"c"))),
                st.none() | st.binary(max_size=4), max_size=3)),
            st.tuples(st.just("native"), st.sampled_from((b"\xcc" * 20, b"\xdd" * 20)),
                      st.integers(0, 3)),
            st.tuples(st.just("deploy"), st.binary(min_size=20, max_size=20)),
            st.just(("read",))),
        max_size=60))
    def test_root_read_at_any_point_matches_scratch_oracle(self, actions):
        # Writes only mark their cells dirty; a read folds whatever piled
        # up since the last one, so the root must not depend on where the
        # reads fall.
        state = fresh_state()
        for action in actions:
            kind = action[0]
            if kind == "set":
                state.set_storage(*action[1:])
            elif kind == "take":
                state.take_writes(action[1])
            elif kind == "native":
                state.credit_native(action[1], action[2])
            elif kind == "deploy" and action[1] not in state.contracts:
                state.register_contract(ContractDef(action[1], ContractKind.NON_FUNGIBLE_TOKEN, {}))
            elif kind == "read":
                assert state.state_root == recompute_root(state)
        assert state.state_root == recompute_root(state)

    def test_fold_hashes_each_cell_against_its_value_at_the_last_read(self, monkeypatch):
        # Each window between two root reads writes cells A and B; a read
        # hashes a changed cell's value at the last read and its value now.
        state = fresh_state()
        state.set_storage(FT, b"B", b"b0")
        assert state.state_root == recompute_root(state)
        digests = []
        real_digest = identity.digest
        windows = (
            # A created, overwritten, deleted and re-created; B rewritten with its own value.
            ([(b"A", b"1"), (b"A", b"2"), (b"A", None), (b"A", b"3"), (b"B", b"b0")], 1),
            # A overwritten; B deleted.
            ([(b"A", b"4"), (b"B", None)], 3),
            # A deleted and put back as it was; B re-created; C created and deleted.
            ([(b"A", None), (b"A", b"4"), (b"B", b"b0"), (b"C", b"c"), (b"C", None)], 1),
        )
        for writes, hashed in windows:
            for key, value in writes:
                state.set_storage(FT, key, value)
            monkeypatch.setattr(identity, "digest", lambda data: digests.append(data) or real_digest(data))
            root = state.state_root
            monkeypatch.setattr(identity, "digest", real_digest)
            assert root == recompute_root(state)
            assert len(digests) == hashed
            digests.clear()

    def test_root_changes_iff_entries_change(self):
        state = fresh_state()
        root = state.state_root
        state.set_storage(FT, b"x", b"1")
        assert state.state_root != root
        state.set_storage(FT, b"x", None)
        assert state.state_root == root


class TestGas:
    def test_gas_components_pinned(self):
        kp, addr = wallet(b"gas")
        state = fresh_state(supply=100, deployer=addr.payload)
        receipt = call(state, kp, addr, FT, "transfer", (b"\xbb" * 20, amount(10)))
        sched = vm.DEFAULT_GAS_SCHEDULE
        # transfer: 2 balance reads, 2 balance writes, 1 event, no inline bytes
        expected = sched.base_tx + 2 * sched.per_storage_read + 2 * sched.per_storage_write + sched.per_event
        assert receipt.gas_used == expected

    def test_extra_write_strictly_increases_gas(self):
        kp, addr = wallet(b"gas2")
        state = fresh_state(supply=100, deployer=addr.payload)
        approve = call(state, kp, addr, FT, "approve", (b"\xbb" * 20, amount(1)))
        transfer = call(state, kp, addr, FT, "transfer", (b"\xbb" * 20, amount(1)))
        # transfer performs one more storage write (and reads) than approve
        assert transfer.gas_used > approve.gas_used

    def test_inline_bytes_metered(self):
        kp, addr = wallet(b"gas3")
        state = fresh_state()
        r1 = call(state, kp, addr, NFT, "mint", ((1).to_bytes(32, "big"),), inline=b"\x00" + b"a" * 10)
        r2 = call(state, kp, addr, NFT, "mint", ((2).to_bytes(32, "big"),), inline=b"\x00" + b"a" * 11)
        assert r2.gas_used - r1.gas_used == vm.DEFAULT_GAS_SCHEDULE.per_inline_byte

    def test_out_of_gas(self):
        kp, addr = wallet(b"gas4")
        state = fresh_state(supply=100, deployer=addr.payload)
        root = state.state_root
        receipt = call(state, kp, addr, FT, "transfer", (b"\xbb" * 20, amount(10)), gas_limit=21_001)
        assert receipt.reason == "OutOfGas"
        assert receipt.gas_used == 21_001
        assert state.state_root == root

    def test_unknown_method_and_contract(self):
        kp, addr = wallet(b"gas5")
        state = fresh_state()
        assert call(state, kp, addr, FT, "mintAll").reason == "UnknownMethod"
        assert call(state, kp, addr, b"\x99" * 20, "transfer").reason == "UnknownContract"


BUNDLE_OPS = st.lists(
    st.builds(
        BundleOp,
        origin=st.binary(min_size=20, max_size=20),
        seq=st.integers(min_value=0, max_value=2**64 - 1),
        contract_id=st.binary(min_size=20, max_size=20),
        method=st.text(max_size=12),
        args=st.lists(st.binary(max_size=8), max_size=3).map(tuple),
        inline_data=st.binary(max_size=32),
    ),
    max_size=6,
)


class TestBundles:
    def make_bundle_tx(self, agent_kp, agent_addr, ops, gas_limit=2_000_000):
        blob = encode_bundle(ops)
        metadata = txcraft.TxMetadata(sender=agent_addr, receiver=agent_addr, nonce=0,
                                      gas_limit=gas_limit, sim_time=0)
        payload = txcraft.TxPayload(contract_id=FT, method=vm.BUNDLE_METHOD, args=(blob,))
        return txcraft.build_transaction(agent_kp.secret_key, metadata, payload)

    def setup_agent(self, users):
        agent_kp, agent = wallet(b"bundle-agent")
        state = fresh_state(supply=10_000, deployer=users[0][1].payload)
        for _, user in users:
            state.set_storage(vm.SYSTEM_CONTRACT_ID,
                              b"agt:" + agent.payload + user.payload, b"\x01")
        return state, agent_kp, agent

    def test_codec_roundtrip(self):
        ops = [BundleOp(b"\x01" * 20, 3, FT, "transfer", (b"\x02" * 20, amount(5)), b"data")]
        assert decode_bundle(encode_bundle(ops)) == ops

    @given(BUNDLE_OPS)
    def test_codec_roundtrip_property(self, ops):
        assert decode_bundle(encode_bundle(ops)) == ops

    @given(BUNDLE_OPS, st.binary(min_size=1, max_size=8))
    def test_every_strict_prefix_is_rejected(self, ops, suffix):
        # ValueError only: a struct.error or IndexError would escape
        # execute's MalformedBundle revert.
        blob = encode_bundle(ops)
        for end in range(len(blob)):
            with pytest.raises(ValueError):
                decode_bundle(blob[:end])
        # Nor may bytes follow the last op: one bundle, one encoding.
        with pytest.raises(ValueError):
            decode_bundle(blob + suffix)

    def test_decoded_ops_of_one_origin_share_one_origin_object(self):
        ops = [BundleOp(origin, seq, FT, "transfer", (amount(1),))
               for seq, origin in enumerate([b"\x01" * 20, b"\x02" * 20, b"\x01" * 20])]
        decoded = decode_bundle(encode_bundle(ops))
        assert decoded == ops
        assert decoded[0].origin is decoded[2].origin

    def test_truncated_bundle_rejected(self):
        blob = encode_bundle([BundleOp(b"\x01" * 20, 0, FT, "transfer", (amount(1),))])
        with pytest.raises(ValueError):
            decode_bundle(blob[:-3])

    def assert_reverts_as_malformed(self, tag, mangle):
        users = [wallet(tag)]
        state, agent_kp, agent = self.setup_agent(users)
        root = state.state_root
        ops = [BundleOp(users[0][1].payload, 0, FT, "approve", (b"\x01" * 20, amount(1)))]
        metadata = txcraft.TxMetadata(sender=agent, receiver=agent, nonce=0,
                                      gas_limit=2_000_000, sim_time=0)
        payload = txcraft.TxPayload(contract_id=FT, method=vm.BUNDLE_METHOD,
                                    args=(mangle(encode_bundle(ops)),))
        receipt = execute(state, txcraft.build_transaction(agent_kp.secret_key, metadata, payload))[1]
        assert receipt.status is TxStatus.REVERTED
        assert receipt.reason == "MalformedBundle"
        assert state.state_root == root

    def test_truncated_bundle_reverts_the_tx(self):
        self.assert_reverts_as_malformed(b"bundle-cut", lambda blob: blob[:-1])

    def test_trailing_bytes_revert_the_tx(self):
        self.assert_reverts_as_malformed(b"bundle-junk", lambda blob: blob + b"junk")

    def test_bundle_executes_per_origin(self):
        users = [wallet(b"bundle-user-%d" % i) for i in range(2)]
        state, agent_kp, agent = self.setup_agent(users)
        u0, u1 = users[0][1].payload, users[1][1].payload
        ops = [
            BundleOp(u0, 0, FT, "transfer", (u1, amount(100))),
            BundleOp(u1, 0, FT, "transfer", (u0, amount(40))),
        ]
        receipt = execute(state, self.make_bundle_tx(agent_kp, agent, ops))[1]
        assert receipt.success
        ok_events = [ev for ev in receipt.events if ev.name == "OpOk"]
        assert len(ok_events) == 2
        assert query_state(state, FT, "balanceOf", (u1,)) == 60

    def test_unregistered_user_op_fails_inside_bundle(self):
        users = [wallet(b"bundle-reg")]
        state, agent_kp, agent = self.setup_agent(users)
        stranger = wallet(b"stranger")[1].payload
        ops = [BundleOp(stranger, 0, FT, "transfer", (users[0][1].payload, amount(1)))]
        receipt = execute(state, self.make_bundle_tx(agent_kp, agent, ops))[1]
        failed = [ev for ev in receipt.events if ev.name == "OpFailed"]
        assert len(failed) == 1
        assert failed[0].field("reason") == "UnregisteredUser"

    def test_sequence_enforced_across_bundles(self):
        users = [wallet(b"bundle-seq")]
        state, agent_kp, agent = self.setup_agent(users)
        u = users[0][1].payload
        first = [BundleOp(u, 0, FT, "approve", (b"\x01" * 20, amount(1)))]
        replay = [BundleOp(u, 0, FT, "approve", (b"\x01" * 20, amount(2)))]
        assert execute(state, self.make_bundle_tx(agent_kp, agent, first))[1].success
        receipt = execute(state, self.make_bundle_tx(agent_kp, agent, replay))[1]
        failed = [ev for ev in receipt.events if ev.name == "OpFailed"]
        assert failed and failed[0].field("reason") == "SequenceMismatch"

    def test_rewritten_cells_keep_every_write_in_the_receipt(self):
        # An agent bundle rewrites the user's seq: cell once per op, and here
        # its allowance cell too; the receipt lists every write in order,
        # while the state holds each cell's last value.
        users = [wallet(b"bundle-rewrite")]
        state, agent_kp, agent = self.setup_agent(users)
        u, spender = users[0][1].payload, b"\x01" * 20
        ops = [BundleOp(u, seq, FT, "approve", (spender, amount(10 * (seq + 1))))
               for seq in range(3)]
        receipt = execute(state, self.make_bundle_tx(agent_kp, agent, ops))[1]
        assert receipt.success
        seq_cell = (vm.SYSTEM_CONTRACT_ID, b"seq:" + agent.payload + u)
        alw_cell = (FT, b"alw:" + u + spender)
        assert receipt.writes == (seq_cell, alw_cell) * 3
        assert state.get_storage(*seq_cell) == (3).to_bytes(8, "big")
        assert query_state(state, FT, "allowance", (u, spender)) == 30
        assert state.state_root == recompute_root(state)

    def test_failing_op_isolated(self):
        users = [wallet(b"bundle-iso-%d" % i) for i in range(2)]
        state, agent_kp, agent = self.setup_agent(users)
        u0, u1 = users[0][1].payload, users[1][1].payload
        ops = [
            BundleOp(u1, 0, FT, "transfer", (u0, amount(999_999))),  # insufficient
            BundleOp(u0, 0, FT, "transfer", (u1, amount(10))),
        ]
        receipt = execute(state, self.make_bundle_tx(agent_kp, agent, ops))[1]
        assert receipt.success
        reasons = [ev.field("reason") for ev in receipt.events if ev.name == "OpFailed"]
        assert reasons == ["InsufficientBalance"]
        assert query_state(state, FT, "balanceOf", (u1,)) == 10

    def test_commitment_mismatch_rolls_back_only_its_own_op(self):
        # A tampering executor whose every delegated write lands in the
        # checked region: the mint (core own:, aux dat: and cnt:) fails
        # with CommitmentMismatch, the transfer after it has no aux write.
        users = [wallet(b"bundle-tamper-%d" % i) for i in range(2)]
        state, agent_kp, agent = self.setup_agent(users)
        u0, u1 = users[0][1].payload, users[1][1].payload
        token = (5).to_bytes(32, "big")
        ops = [BundleOp(u0, 0, NFT, "mint", (token,), b"\x00img"),
               BundleOp(u0, 1, FT, "transfer", (u1, amount(25)))]
        policy = DelegationPolicy(offchain_fraction=0.0,
                                  executor_behavior=vm.ExecutorBehavior.MALICIOUS)
        receipt = execute(state, self.make_bundle_tx(agent_kp, agent, ops), delegation=policy)[1]
        assert receipt.success
        failed = [ev for ev in receipt.events if ev.name == "OpFailed"]
        assert [ev.field("reason") for ev in failed] == ["CommitmentMismatch"]
        assert not any(ev.name in ("Mint", "Commitment") for ev in receipt.events)
        assert state.storage.get(NFT, {}) == {}
        seq_cell = (vm.SYSTEM_CONTRACT_ID, b"seq:" + agent.payload + u0)
        assert state.get_storage(*seq_cell) == (2).to_bytes(8, "big")
        assert query_state(state, FT, "balanceOf", (u1,)) == 25
        assert receipt.writes == (seq_cell, seq_cell, (FT, b"bal:" + u0), (FT, b"bal:" + u1))
        assert state.state_root == recompute_root(state)


class TestEventsExport:
    def test_ndjson_schema(self):
        kp, addr = wallet(b"events")
        state = fresh_state(supply=50, deployer=addr.payload)
        call(state, kp, addr, FT, "transfer", (b"\xbb" * 20, amount(5)))
        out = vm.export_events_ndjson(state)
        lines = [line for line in out.splitlines() if line]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"tx_id", "event_name", "fields"}

    def test_every_event_kind_keeps_its_fields_in_sorted_order(self):
        seller_kp, seller = wallet(b"order-seller")
        buyer_kp, buyer = wallet(b"order-buyer")
        agent_kp, agent = wallet(b"order-agent")
        state = fresh_state(supply=10_000, deployer=seller.payload)
        token, spare = (1).to_bytes(32, "big"), (2).to_bytes(32, "big")
        policy = DelegationPolicy(offchain_fraction=1.0)
        steps = [
            (seller_kp, seller, FT, "transfer", (buyer.payload, amount(600))),
            (seller_kp, seller, FT, "approve", (buyer.payload, amount(50))),
            (buyer_kp, buyer, FT, "transferFrom", (seller.payload, buyer.payload, amount(20))),
            (seller_kp, seller, NFT, "mint", (token,)),
            (seller_kp, seller, NFT, "mint", (spare,)),
            (seller_kp, seller, NFT, "transferFrom", (seller.payload, buyer.payload, spare)),
            (seller_kp, seller, MARKET, "list", (token, amount(500))),
            (buyer_kp, buyer, MARKET, "buy", (token, amount(500))),
        ]
        for kp, addr, contract, method, args in steps:
            assert call(state, kp, addr, contract, method, args).success
        state.set_storage(vm.SYSTEM_CONTRACT_ID, b"agt:" + agent.payload + buyer.payload, b"\x01")
        ops = [BundleOp(buyer.payload, 0, FT, "approve", (seller.payload, amount(1))),
               BundleOp(buyer.payload, 7, FT, "approve", (seller.payload, amount(2)))]
        metadata = txcraft.TxMetadata(sender=agent, receiver=agent, nonce=0,
                                      gas_limit=2_000_000, sim_time=0)
        payload = txcraft.TxPayload(contract_id=FT, method=vm.BUNDLE_METHOD,
                                    args=(encode_bundle(ops),))
        bundle = txcraft.build_transaction(agent_kp.secret_key, metadata, payload)
        assert execute(state, bundle, delegation=policy)[1].success
        kinds = set()
        for ev in state.event_log:
            keys = [key for key, _ in ev.fields]
            assert keys == sorted(keys), ev.name
            kinds.add(ev.name)
        assert kinds == {"Transfer", "Approval", "Mint", "NftTransfer", "Listed", "Sale",
                         "OpOk", "OpFailed", "Commitment"}

    def test_export_renders_raw_fields_as_text(self):
        kp, addr = wallet(b"export-text")
        spender, dst = b"\xcc" * 20, b"\xbb" * 20
        state = fresh_state(supply=1_000, deployer=addr.payload)
        tx_ids = []
        for nonce, (method, args) in enumerate([("transfer", (dst, amount(5))),
                                                ("approve", (spender, amount(70)))]):
            metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=nonce,
                                          gas_limit=500_000, sim_time=0)
            payload = txcraft.TxPayload(contract_id=FT, method=method, args=args)
            tx = txcraft.build_transaction(kp.secret_key, metadata, payload)
            assert execute(state, tx)[1].success
            tx_ids.append(tx.tx_id.hex())
        me = addr.payload.hex()
        assert vm.export_events_ndjson(state) == (
            '{"event_name":"Transfer","fields":{"amount":"5","dst":"' + "bb" * 20
            + '","src":"' + me + '"},"tx_id":"' + tx_ids[0] + '"}\n'
            '{"event_name":"Approval","fields":{"amount":"70","owner":"' + me
            + '","spender":"' + "cc" * 20 + '"},"tx_id":"' + tx_ids[1] + '"}\n')


class TestDelegation:
    def test_checked_predicate_respects_fraction(self):
        all_on = DelegationPolicy(offchain_fraction=0.0)
        all_off = DelegationPolicy(offchain_fraction=1.0)
        keys = [b"dat:" + bytes([i]) for i in range(64)]
        assert all(all_on.is_checked(k) for k in keys)
        assert not any(all_off.is_checked(k) for k in keys)

    def test_the_tamper_table_inverts_every_byte(self):
        flipped = bytes(range(256)).translate(vm._FLIP)
        assert list(flipped) == [b ^ 0xFF for b in range(256)] == [255 - b for b in range(256)]
