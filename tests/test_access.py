import contextlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from w3sim import identity, storage, txcraft, vm
from w3sim.access import (
    AgentBehavior,
    prepare_data,
    NoConfirmedState,
    NotConnected,
    UnregisteredUser,
    WalletClient,
    connect_wallet,
    contract_address,
    flush,
    retrieve_state,
    submit_direct,
    submit_via_agent,
)
from w3sim.archetypes import FT_ID, NFT_ID, SimConfig, architecture, compose
from w3sim.consensus import ConsensusConfig, PoolFull
from w3sim.vm import QueryError, query_state

from test_consensus import confirmed_by


def build_topology(type_id=1, n_users=2, seed=7, **sim_kwargs):
    wallets = [WalletClient.create(b"acc-user-%d-%d" % (seed, i)) for i in range(n_users)]
    funded = {w.address.payload: 100_000 for w in wallets}
    topo = compose(architecture(type_id), SimConfig(seed=seed, **sim_kwargs),
                   funded=funded,
                   registered_users=tuple(w.address.payload for w in wallets),
                   keep_history=True)
    for w in wallets:
        topo.chain.register_key(w.keypair)
    return topo, wallets


def transfer_op(dst, amount=10):
    return txcraft.TxPayload(FT_ID, "transfer", (dst, amount.to_bytes(16, "big")))


class TestWalletSessions:
    def test_connect_then_submit(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        tx_id = submit_direct(w1, topo.chain, transfer_op(w2.address.payload))
        assert tx_id in topo.chain.pool

    def test_submit_without_connect(self):
        topo, (w1, w2) = build_topology()
        with pytest.raises(NotConnected):
            submit_direct(w1, topo.chain, transfer_op(w2.address.payload))

    def test_connect_idempotent(self):
        topo, (w1, _) = build_topology()
        s1 = connect_wallet(w1, "svc")
        s2 = connect_wallet(w1, "another")
        assert s1 == s2 == "svc"


class TestDirectSubmission:
    def test_one_tx_per_request(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        ids = [submit_direct(w1, topo.chain, transfer_op(w2.address.payload, i + 1))
               for i in range(7)]
        assert len(set(ids)) == 7
        topo.chain.run_until_drained()
        assert len(topo.chain.confirmations) == 7

    def test_key_rotation_surfaces_invalid_signature(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        rotated = identity.generate_keypair(b"rotated-key")
        metadata = txcraft.TxMetadata(sender=w1.address, receiver=w1.address, nonce=0,
                                      gas_limit=100_000, sim_time=0)
        payload = txcraft.TxPayload(contract_id=FT_ID, method="transfer",
                                    args=(w2.address.payload, (1).to_bytes(16, "big")))
        sig = identity.sign(rotated.secret_key, txcraft.signing_bytes(metadata, payload))
        body = txcraft.signing_bytes(metadata, payload) + len(sig.tag).to_bytes(4, "big") + sig.tag
        forged = txcraft.Transaction(metadata, payload, sig, identity.digest(body))
        with pytest.raises(txcraft.InvalidSignature):
            txcraft.validate_transaction(forged, 0, topo.chain.keys)
        topo.chain.submit(forged)
        topo.chain.run_until_drained(max_rounds=30)
        assert topo.chain.discards == {"InvalidSignature": 1}
        assert forged.tx_id not in topo.chain.confirmed_tick

    def test_inline_too_large_surfaces(self):
        topo, (w1, _) = build_topology(type_id=1)
        connect_wallet(w1, "svc")
        with pytest.raises(storage.InlineTooLarge):
            prepare_data(b"x" * 4096, topo.fabric)  # before any transaction is built

    def test_one_receiver_address_per_contract(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        for _ in range(2):
            submit_direct(w1, topo.chain, transfer_op(w2.address.payload))
        first, second = (tx.metadata.receiver for tx in topo.chain.pool.values())
        assert first is second is contract_address(FT_ID)
        assert first == identity.Address(identity.AddressScheme.BASE16_ETH, FT_ID,
                                         identity.encode_base16(FT_ID))

    def test_one_gas_limit_object_per_limit(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        for _ in range(2):
            submit_direct(w1, topo.chain, transfer_op(w2.address.payload))
        first, second = (tx.metadata.gas_limit for tx in topo.chain.pool.values())
        assert first == 81_000 and first is second


class TestAgentBatching:
    def test_ten_ops_one_tx(self):
        topo, wallets = build_topology(type_id=7, batch_size=10)
        agent = topo.agent
        w1, w2 = wallets
        for i in range(10):
            submit_via_agent(agent, w1.address.payload,
                             transfer_op(w2.address.payload, i + 1), topo.chain)
        # Buffer filled: auto-flush happened, exactly one bundle on-chain.
        assert len(topo.chain.pool) == 1
        topo.chain.run_until_drained()
        assert len(topo.chain.confirmations) == 1
        ok = [ev for c in topo.chain.confirmations for ev in c.receipt.events if ev.name == "OpOk"]
        assert len(ok) == 10

    def test_25_ops_three_txs(self):
        topo, wallets = build_topology(type_id=7, batch_size=10)
        agent = topo.agent
        w1, w2 = wallets
        for i in range(25):
            submit_via_agent(agent, w1.address.payload,
                             transfer_op(w2.address.payload, 1), topo.chain)
        flush(agent, topo.chain)
        topo.chain.run_until_drained()
        assert len(topo.chain.confirmations) == 3
        ok = [ev for c in topo.chain.confirmations for ev in c.receipt.events if ev.name == "OpOk"]
        assert len(ok) == 25

    def test_unregistered_user(self):
        topo, wallets = build_topology(type_id=7)
        stranger = WalletClient.create(b"acc-stranger")
        with pytest.raises(UnregisteredUser):
            submit_via_agent(topo.agent, stranger.address.payload,
                             transfer_op(wallets[0].address.payload), topo.chain)

    def test_withholding_detected_only_by_liveness(self):
        topo, wallets = build_topology(type_id=7, batch_size=10)
        agent = topo.agent
        agent.behavior = AgentBehavior.WITHHOLDING
        w1, w2 = wallets
        for i in range(3):
            submit_via_agent(agent, w1.address.payload,
                             transfer_op(w2.address.payload, 1), topo.chain)
        tx_ids = flush(agent, topo.chain)  # no error raised
        assert tx_ids and agent.batch_buffer == []
        assert len(topo.chain.pool) == 0
        assert not confirmed_by(topo.chain, tx_ids[0], 2_000)

    def test_agent_is_onchain_sender_for_all_routed_txs(self):
        topo, wallets = build_topology(type_id=7, batch_size=4)
        agent = topo.agent
        w1, w2 = wallets
        for i in range(8):
            sender = (w1, w2)[i % 2]
            dst = (w2, w1)[i % 2]
            submit_via_agent(agent, sender.address.payload,
                             transfer_op(dst.address.payload, 1), topo.chain)
        flush(agent, topo.chain)
        topo.chain.run_until_drained()
        assert topo.chain.confirmations
        for c in topo.chain.confirmations:
            assert c.tx.metadata.sender.payload == agent.address.payload
            for w in wallets:
                assert c.tx.metadata.sender.payload != w.address.payload

    def test_batching_conservation(self):
        topo, wallets = build_topology(type_id=7, batch_size=6)
        agent = topo.agent
        w1, w2 = wallets
        submitted = []
        for i in range(17):
            op = transfer_op(w2.address.payload, i + 1)
            submit_via_agent(agent, w1.address.payload, op, topo.chain)
            submitted.append(i + 1)
        flush(agent, topo.chain)
        topo.chain.run_until_drained()
        moved = [int(ev.field("amount"))
                 for c in topo.chain.confirmations
                 for ev in c.receipt.events if ev.name == "Transfer"]
        assert sorted(moved) == sorted(submitted)

    def test_handles_are_the_ops_the_bundles_carry(self):
        topo, (w1, w2) = build_topology(type_id=7, batch_size=3)
        agent, chain = topo.agent, topo.chain
        calls = [transfer_op(w2.address.payload, i + 1) for i in range(5)]
        handles = [submit_via_agent(agent, w1.address.payload, call, chain) for call in calls]
        for seq, (handle, call) in enumerate(zip(handles, calls)):
            assert isinstance(handle, vm.BundleOp)
            assert handle == (w1.address.payload, seq, call.contract_id, call.method,
                              call.args, call.inline_data)
            assert pickle.loads(pickle.dumps(handle)) == handle
        flush(agent, chain)
        chain.run_until_drained()
        carried = [op for c in chain.confirmations for op in vm.decode_bundle(c.tx.payload.args[0])]
        assert carried == handles

    def test_both_modes_sign_one_envelope_form(self):
        topo, (w1, w2) = build_topology(type_id=7, batch_size=1)
        chain = topo.chain
        connect_wallet(w1, "svc")
        submit_direct(w1, chain, transfer_op(w2.address.payload, 1))
        submit_via_agent(topo.agent, w1.address.payload, transfer_op(w2.address.payload, 2), chain)
        chain.run_until_drained()
        assert [c.tx.metadata.sender for c in chain.confirmations] == [w1.address,
                                                                        topo.agent.address]
        keys = {w1.address.payload: w1.keypair, topo.agent.address.payload: topo.agent.keypair}
        for c in chain.confirmations:
            assert c.tx.metadata.receiver == contract_address(FT_ID)
            assert c.tx.metadata.nonce == 0
            txcraft.validate_transaction(c.tx, 0, keys)  # a good signature, nonce 0


class TestRejectedSubmission:
    """A submission the chain rejects uses up no nonce, so the signer's later txs confirm."""

    def test_a_full_pool_leaves_the_wallet_nonce_unused(self):
        topo, (w1, w2) = build_topology(consensus=ConsensusConfig(pool_capacity=1))
        chain = topo.chain
        connect_wallet(w1, "svc")
        submit_direct(w1, chain, transfer_op(w2.address.payload, 1))
        with pytest.raises(PoolFull):
            submit_direct(w1, chain, transfer_op(w2.address.payload, 2))
        assert w1.nonce_cache == 1
        chain.run_until_drained()
        tx_id = submit_direct(w1, chain, transfer_op(w2.address.payload, 2))
        chain.run_until_drained()
        assert chain.quiescent and tx_id in chain.confirmed_tick

    def test_a_full_pool_leaves_the_agent_nonce_unused(self):
        topo, (w1, w2) = build_topology(type_id=7, consensus=ConsensusConfig(pool_capacity=1))
        agent, chain = topo.agent, topo.chain
        for batch in range(2):
            submit_via_agent(agent, w1.address.payload, transfer_op(w2.address.payload, 1), chain)
            if batch:
                with pytest.raises(PoolFull):
                    flush(agent, chain)
            else:
                flush(agent, chain)
        assert agent.nonce_cache == 1
        chain.run_until_drained()
        submit_via_agent(agent, w1.address.payload, transfer_op(w2.address.payload, 1), chain)
        (tx_id,) = flush(agent, chain)
        chain.run_until_drained()
        assert chain.quiescent and tx_id in chain.confirmed_tick

    def test_a_refused_bundle_keeps_its_ops_for_the_next_flush(self):
        # One op per bundle: the second op's bundle meets a full pool, so the
        # op stays buffered and goes out ahead of the third, under its own seq.
        # The call still hands the user the buffered op.
        topo, (w1, w2) = build_topology(type_id=7, batch_size=1,
                                        consensus=ConsensusConfig(pool_capacity=1))
        agent, chain = topo.agent, topo.chain
        submit_via_agent(agent, w1.address.payload, transfer_op(w2.address.payload, 1), chain)
        second = submit_via_agent(agent, w1.address.payload, transfer_op(w2.address.payload, 2),
                                  chain)
        assert second.seq == 1 and agent.batch_buffer == [second]
        chain.run_until_drained()
        third = submit_via_agent(agent, w1.address.payload, transfer_op(w2.address.payload, 3),
                                 chain)
        assert third.seq == 2 and agent.batch_buffer == [third]  # the held op took the one slot
        chain.run_until_drained()
        flush(agent, chain)
        chain.run_until_drained()
        assert chain.quiescent and agent.batch_buffer == []
        outcomes = [(ev.name, ev.field("seq")) for c in chain.confirmations
                    for ev in c.receipt.events if ev.name in ("OpOk", "OpFailed")]
        assert outcomes == [("OpOk", 0), ("OpOk", 1), ("OpOk", 2)]

    @settings(max_examples=60, deadline=None)
    @given(batch_size=st.integers(1, 4), pool_capacity=st.integers(1, 3),
           drains=st.lists(st.booleans(), min_size=1, max_size=12))
    def test_every_buffered_op_confirms_once_in_order(self, batch_size, pool_capacity, drains):
        # drains[i]: run the chain dry before op i; without it the automatic
        # flush may meet a full pool, and the op still comes back as a handle.
        topo, (w1, w2) = build_topology(type_id=7, batch_size=batch_size,
                                        consensus=ConsensusConfig(pool_capacity=pool_capacity))
        agent, chain = topo.agent, topo.chain
        handles = []
        for i, drain in enumerate(drains):
            if drain:
                chain.run_until_drained()
            handles.append(submit_via_agent(agent, w1.address.payload,
                                            transfer_op(w2.address.payload, i + 1), chain))
        while agent.batch_buffer:
            chain.run_until_drained()
            with contextlib.suppress(PoolFull):
                flush(agent, chain)
        chain.run_until_drained()
        n = len(drains)
        assert [op.seq for op in handles] == list(range(n))
        outcomes = [(ev.name, ev.field("seq")) for c in chain.confirmations
                    for ev in c.receipt.events if ev.name in ("OpOk", "OpFailed")]
        assert outcomes == [("OpOk", seq) for seq in range(n)]

    def test_a_withholding_agent_still_moves_on(self):
        topo, (w1, w2) = build_topology(type_id=7)
        agent = topo.agent
        agent.behavior = AgentBehavior.WITHHOLDING
        for expected in (1, 2):
            submit_via_agent(agent, w1.address.payload, transfer_op(w2.address.payload, 1),
                             topo.chain)
            flush(agent, topo.chain)
            assert agent.nonce_cache == expected


class TestRetrieval:
    def test_before_any_confirmation(self):
        topo, (w1, _) = build_topology()
        with pytest.raises(NoConfirmedState):
            retrieve_state(topo.chain, w1.address, FT_ID)

    def test_returns_confirming_tx_and_values(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        tx_id = submit_direct(w1, topo.chain, transfer_op(w2.address.payload, 25))
        topo.chain.run_until_drained()
        got = retrieve_state(topo.chain, w1.address, FT_ID)
        assert got.tx_id == tx_id
        balance_key = (b"bal:" + w1.address.payload).hex()
        assert dict(got.entries)[balance_key] == (100_000 - 25).to_bytes(16, "big").hex()

    def test_stable_until_superseded(self):
        topo, (w1, w2) = build_topology()
        connect_wallet(w1, "svc")
        submit_direct(w1, topo.chain, transfer_op(w2.address.payload, 5))
        topo.chain.run_until_drained()
        snapshot = retrieve_state(topo.chain, w1.address, FT_ID)
        for _ in range(5):
            topo.chain.run_round()  # empty rounds; nothing supersedes
        assert retrieve_state(topo.chain, w1.address, FT_ID) == snapshot
        tx2 = submit_direct(w1, topo.chain, transfer_op(w2.address.payload, 7))
        topo.chain.run_until_drained()
        superseded = retrieve_state(topo.chain, w1.address, FT_ID)
        assert superseded.tx_id == tx2
        assert superseded != snapshot

    def test_identical_across_honest_nodes(self):
        # The confirmed blocks form one linked chain, and retrieval reads
        # the state those blocks confirmed.
        topo, (w1, w2) = build_topology()
        chain = topo.chain
        connect_wallet(w1, "svc")
        tx_id = submit_direct(w1, chain, transfer_op(w2.address.payload, 3))
        chain.run_until_drained()
        assert chain.check_persistence()
        got = retrieve_state(chain, w1.address, FT_ID)
        assert got.tx_id == tx_id
        payload = w1.address.payload
        balance = query_state(chain.state, FT_ID, "balanceOf", (payload,))
        supply = query_state(chain.state, FT_ID, "totalSupply")
        assert dict(got.entries) == {(b"bal:" + payload).hex(): balance.to_bytes(16, "big").hex(),
                                     b"sup:".hex(): supply.to_bytes(16, "big").hex()}
        assert balance == 100_000 - 3


class TestIntegrityAgainstConfirmation:
    def test_unreadable_until_the_hook_confirms(self):
        # Type3 routes all data off-chain; the mint transaction is the hook.
        # Until it confirms the token has no record, so nothing names the blob.
        topo, (w1, _) = build_topology(type_id=3)
        connect_wallet(w1, "svc")
        data = b"Z" * 400
        token = (1).to_bytes(32, "big")
        record = prepare_data(data, topo.fabric)
        submit_direct(w1, topo.chain, txcraft.TxPayload(NFT_ID, "mint", (token,), record))
        with pytest.raises(QueryError):
            query_state(topo.chain.state, NFT_ID, "dataOf", (token,))
        topo.chain.run_until_drained()
        anchored = query_state(topo.chain.state, NFT_ID, "dataOf", (token,))
        assert anchored == record == b"\x01" + identity.digest(data)
        assert topo.fabric.read(anchored) == data
