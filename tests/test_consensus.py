import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from w3sim import identity, txcraft, vm
from w3sim.consensus import (
    ZERO_HASH,
    BlockHeader,
    ByzantineMode,
    ChainNetwork,
    Confirmation,
    ConsensusConfig,
    ConsensusRule,
    DuplicateTx,
    NodeBehavior,
    PoolFull,
    RuleKind,
    _limit_denominator,
    chain_ndjson,
    make_block,
)

FT = b"\x21" * 20


def quorum_oracle(n: int) -> int:
    """Independent quorum arithmetic: strictly more than 2n/3, exact rationals."""
    return int(Fraction(2, 3) * n) + 1


def funded_state(payloads, supply_each=10_000):
    state = vm.ContractState()
    vm.deploy_contract(state, vm.ContractDef(FT, vm.ContractKind.FUNGIBLE_TOKEN,
                                             {"supply": 0, "deployer": b"\x00" * 20}))
    total = 0
    for p in payloads:
        state.set_storage(FT, b"bal:" + p, supply_each.to_bytes(16, "big"))
        total += supply_each
    state.set_storage(FT, b"sup:", total.to_bytes(16, "big"))
    return state


def make_network(n=4, byzantine=0, byz_mode=ByzantineMode.SILENT, seed=1,
                 rule=None, adversarial_share=0.0, crashed=0, pool_capacity=10_000,
                 keep_history=False):
    rule = rule or ConsensusRule(kind=RuleKind.BFT_QUORUM, fraction=2 / 3)
    behaviors = []
    for i in range(n):
        if i < byzantine:
            behaviors.append(NodeBehavior.BYZANTINE)
        elif i < byzantine + crashed:
            behaviors.append(NodeBehavior.CRASHED)
        else:
            behaviors.append(NodeBehavior.HONEST)
    kp = identity.generate_keypair(b"net-user-%d" % seed)
    addr = identity.derive_address(kp.public_key)
    state = funded_state([addr.payload])
    config = ConsensusConfig(rule=rule, n_nodes=n, pool_capacity=pool_capacity)
    net = ChainNetwork(config, state, seed=seed, behaviors=behaviors, byz_mode=byz_mode,
                       adversarial_share=adversarial_share, keep_history=keep_history)
    net.register_key(kp)
    return net, kp, addr


def transfer_tx(kp, addr, nonce, sim_time=0):
    metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=nonce,
                                  gas_limit=100_000, sim_time=sim_time)
    payload = txcraft.TxPayload(contract_id=FT, method="transfer",
                                args=(b"\x0f" * 20, (1).to_bytes(16, "big")))
    return txcraft.build_transaction(kp.secret_key, metadata, payload)


def confirmed_by(net, tx_id, deadline_ticks) -> bool:
    """Run rounds until tx_id confirms or the clock reaches deadline_ticks; true iff it confirmed by then."""
    while net.now < deadline_ticks and tx_id not in net.confirmed_tick:
        net.run_round()
    return net.confirmed_tick.get(tx_id, deadline_ticks + 1) <= deadline_ticks


class TestConfigRanges:
    @pytest.mark.parametrize("field", ["n_nodes", "block_interval", "pool_capacity",
                                       "max_txs_per_block", "network_capacity",
                                       "gas_byte_equiv"])
    def test_counts_below_one_are_rejected(self, field):
        ConsensusConfig(**{field: 1})
        with pytest.raises(ValueError, match=field):
            ConsensusConfig(**{field: 0})

    @pytest.mark.parametrize("delay", [(-1, 2), (3, 2), (-2, -1)])
    def test_msg_delay_must_be_an_ordered_nonnegative_range(self, delay):
        with pytest.raises(ValueError, match="msg_delay"):
            ConsensusConfig(msg_delay=delay)

    def test_negative_confirm_depth_is_rejected(self):
        with pytest.raises(ValueError, match="confirm_depth must be >= 0, got -1"):
            ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51, confirm_depth=-1)

    @pytest.mark.parametrize("fraction", [0, -0.5, 1.5])
    def test_fraction_outside_zero_one_is_rejected(self, fraction):
        with pytest.raises(ValueError, match=f"fraction must be in \\(0, 1\\], got {fraction}"):
            ConsensusRule(fraction=fraction)
        ConsensusRule(fraction=1)

    def test_zero_confirm_depth_confirms_the_tip(self):
        rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51, confirm_depth=0)
        net, kp, addr = make_network(rule=rule)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        net.run_round()
        assert tx.tx_id in net.confirmed_tick

    def test_fixed_msg_delay_is_allowed(self):
        assert ConsensusConfig(msg_delay=(0, 0)).msg_delay == (0, 0)
        assert ConsensusConfig(msg_delay=(2, 2)).msg_delay == (2, 2)


class TestQuorum:
    @pytest.mark.parametrize("fraction, n, quorum", [
        (2 / 3, 9, 7),  # float rounding would give 6
        (0.33333, 3, 2),  # 0.33333 is taken as 1/3, not as 0.99999 of a vote
        *((1.0, n, n) for n in (1, 4, 7, 10, 1_000_000)),
    ])
    def test_pinned(self, fraction, n, quorum):
        assert ConsensusConfig(rule=ConsensusRule(fraction=fraction), n_nodes=n).quorum == quorum

    @pytest.mark.parametrize("x, max_den, ratio", [(0.25, 2, (0, 1)), (0.75, 2, (1, 1)),
                                                   (0.875, 4, (1, 1))])
    def test_a_tie_keeps_the_convergent(self, x, max_den, ratio):
        # x lies midway between the two candidates; no float in (0, 1] does at
        # a bound of 10,000, so the tie is pinned at small bounds.
        limited = Fraction(x).limit_denominator(max_den)
        assert _limit_denominator(x, max_den) == (limited.numerator, limited.denominator) == ratio

    @given(st.one_of(
        st.floats(min_value=0, max_value=1, exclude_min=True),
        st.integers(1, 20_000).flatmap(lambda q: st.integers(1, q).map(lambda p: p / q)),
        st.integers(1, 6).flatmap(lambda k: st.integers(1, 10**k).map(lambda m: m / 10**k)),
    ), st.integers(1, 10**6))
    @settings(max_examples=500)
    def test_equals_the_fraction_oracle(self, fraction, n):
        # Fraction's own nearest ratio is the oracle for the integer arithmetic.
        config = ConsensusConfig(rule=ConsensusRule(fraction=fraction), n_nodes=n)
        assert config.quorum == min(n, int(Fraction(fraction).limit_denominator(10_000) * n) + 1)


class TestSubmission:
    def test_duplicate_tx(self):
        net, kp, addr = make_network()
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        with pytest.raises(DuplicateTx):
            net.submit(tx)

    def test_pool_full(self):
        net, kp, addr = make_network(pool_capacity=3)
        for i in range(3):
            net.submit(transfer_tx(kp, addr, i))
        with pytest.raises(PoolFull):
            net.submit(transfer_tx(kp, addr, 3))

    def test_fresh_valid_tx_accepted(self):
        net, kp, addr = make_network()
        net.submit(transfer_tx(kp, addr, 0))
        assert len(net.pool) == 1


class TestKeys:
    def test_a_key_registered_only_on_another_chain_is_rejected(self):
        net, kp, addr = make_network(seed=3)
        tx = transfer_tx(kp, addr, 0)
        assert txcraft.validate_transaction(tx, 0, net.keys) is None
        fresh = ChainNetwork(ConsensusConfig(n_nodes=4), funded_state([addr.payload]), seed=3)
        with pytest.raises(txcraft.InvalidSignature):
            txcraft.validate_transaction(tx, 0, fresh.keys)
        fresh.submit(tx)
        fresh.run_until_drained(max_rounds=30)
        assert fresh.discards == {"InvalidSignature": 1}
        assert tx.tx_id not in fresh.confirmed_tick
        net.submit(tx)
        net.run_until_drained(max_rounds=30)
        assert tx.tx_id in net.confirmed_tick

    def test_maintainer_keys_are_not_registered(self):
        net = ChainNetwork(ConsensusConfig(n_nodes=4))
        assert net.keys == {}  # maintainers sign nothing


class TestBftQuorum:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_threshold_boundary(self, n):
        quorum = quorum_oracle(n)
        max_tolerated = n - quorum
        for f in range(0, min(max_tolerated + 2, n)):
            net, kp, addr = make_network(n=n, byzantine=f, seed=100 + n + f, keep_history=True)
            net.submit(transfer_tx(kp, addr, 0))
            for _ in range(4 * n):
                net.run_round()
            confirmed = len(net.confirmations) == 1
            assert confirmed == (f <= max_tolerated), (n, f)

    def test_n4_one_silent_confirms(self):
        net, kp, addr = make_network(n=4, byzantine=1)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        assert confirmed_by(net, tx.tx_id, 10_000)

    def test_n4_two_silent_never_confirms(self):
        net, kp, addr = make_network(n=4, byzantine=2, keep_history=True)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        for _ in range(60):
            net.run_round()
        assert not net.confirmations

    def test_equivocation_never_double_confirms(self):
        # 100 seeded runs within the tolerance bound: no round sees both halves reach quorum.
        for seed in range(100):
            net, kp, addr = make_network(n=7, byzantine=2, byz_mode=ByzantineMode.EQUIVOCATE,
                                         seed=seed)
            for i in range(6):
                net.submit(transfer_tx(kp, addr, i, sim_time=i))
            for _ in range(40):
                net.run_round()
            heights = [b.height for b in net.confirmed_blocks]
            assert len(heights) == len(set(heights))
            assert net.check_persistence()
            assert net.safety_breaks == 0

    def test_withholding_proposer_confirms_empty_blocks(self):
        net, kp, addr = make_network(n=4, byzantine=1, byz_mode=ByzantineMode.WITHHOLD_TXS)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        assert confirmed_by(net, tx.tx_id, 10_000)  # honest proposers pick it up


class TestMajorityChain:
    def mc_rule(self, k=6):
        return ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51, confirm_depth=k)

    def test_five_of_nine_confirms_after_k_extensions(self):
        net, kp, addr = make_network(n=9, byzantine=4, seed=3, rule=self.mc_rule(k=3),
                                     adversarial_share=4 / 9, keep_history=True)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        while tx.tx_id not in net.confirmed_tick:
            net.run_round()
        # The block holding the tx is buried exactly confirm_depth deep.
        tx_height = net.confirmed_tick and [b.height for b in net.confirmed_blocks if tx in b.txs][0]
        assert len(net._honest_branch) - 1 >= tx_height + 3

    def test_minority_adversary_honest_branch_confirms(self):
        for seed in range(100):
            net, kp, addr = make_network(n=9, byzantine=4, seed=seed,
                                         rule=self.mc_rule(), adversarial_share=0.45)
            tx = transfer_tx(kp, addr, 0)
            net.submit(tx)
            assert confirmed_by(net, tx.tx_id, 10_000), seed
            heights = [b.height for b in net.confirmed_blocks]
            assert len(heights) == len(set(heights)), seed

    def test_majority_adversary_adversarial_branch_confirms(self):
        for seed in range(100):
            net, kp, addr = make_network(n=9, byzantine=5, seed=seed,
                                         rule=self.mc_rule(), adversarial_share=0.55)
            tx = transfer_tx(kp, addr, 0)
            net.submit(tx)
            for _ in range(120):
                net.run_round()
            assert tx.tx_id not in net.confirmed_tick, seed
            confirmed = net.confirmed_blocks[1:]
            assert confirmed, seed
            assert all(b.proposer == -2 for b in confirmed), seed  # adversarial branch
            heights = [b.height for b in net.confirmed_blocks]
            assert len(heights) == len(set(heights)), seed

    def test_dead_zone_confirms_nothing(self):
        net, kp, addr = make_network(n=10, byzantine=5, seed=9,
                                     rule=self.mc_rule(), adversarial_share=0.50)
        net.submit(transfer_tx(kp, addr, 0))
        for _ in range(80):
            net.run_round()
        assert len(net.confirmed_blocks) == 1  # genesis only


    def test_one_sender_fills_every_block(self):
        # Each proposal continues the sender's nonces through the honest
        # branch's unconfirmed blocks, so 40 transfers fill five blocks in
        # five rounds; the fifth is buried confirm_depth (6) rounds later.
        net, kp, addr = make_network(n=7, seed=1, rule=self.mc_rule())
        for i in range(40):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        assert net.run_until_drained() == 5 + 6
        assert net.quiescent and net.txs_confirmed == 40 and net.discards == {}


class TestConservation:
    """Each tx the chain took confirms once, is discarded, or is still pending."""

    @settings(max_examples=40, deadline=None)
    @given(nonces=st.lists(st.integers(0, 5), min_size=1, max_size=12),
           forged=st.booleans(), majority=st.booleans(), seed=st.integers(0, 2**16))
    def test_confirmed_and_discarded_account_for_every_submission(self, nonces, forged,
                                                                 majority, seed):
        # Repeated nonces go stale once the first confirms, a gap stalls the
        # sender, and a sender whose key the chain lacks is discarded.
        rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN) if majority else None
        net, kp, addr = make_network(seed=seed, rule=rule, keep_history=True)
        for i, nonce in enumerate(nonces):
            net.submit(transfer_tx(kp, addr, nonce, sim_time=i))
        if forged:
            stranger = identity.generate_keypair(b"stranger")
            net.submit(transfer_tx(stranger, identity.derive_address(stranger.public_key), 0))
        net.run_until_drained()
        assert len(net.confirmations) == net.txs_confirmed  # no tx confirmed twice
        settled = net.txs_confirmed + sum(net.discards.values())
        assert settled <= len(net.seen_tx)
        if net.quiescent:
            assert settled == len(net.seen_tx)
        assert net.discards.get("InvalidSignature", 0) == forged


class TestStallRule:
    def test_stall_rounds_is_a_rotation_plus_the_burial_depth(self):
        net, _, _ = make_network(n=7)
        assert net.stall_rounds == 7 + ConsensusRule().confirm_depth + 1
        net, _, _ = make_network(n=4, rule=ConsensusRule(kind=RuleKind.MAJORITY_CHAIN,
                                                         fraction=0.51, confirm_depth=2))
        assert net.stall_rounds == 4 + 2 + 1

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 13), crashed=st.booleans(), seed=st.integers(0, 2**16),
           data=st.data())
    def test_fewer_than_a_third_faulty_never_stall(self, n, crashed, seed, data):
        # The faulty maintainers sit anywhere in the proposer rotation,
        # next to each other included.
        f = (n - 1) // 3
        faulty = data.draw(st.sets(st.integers(0, n - 1), min_size=f, max_size=f))
        bad = NodeBehavior.CRASHED if crashed else NodeBehavior.BYZANTINE
        behaviors = [bad if i in faulty else NodeBehavior.HONEST for i in range(n)]
        kp = identity.generate_keypair(b"stall-user")
        addr = identity.derive_address(kp.public_key)
        net = ChainNetwork(ConsensusConfig(n_nodes=n), funded_state([addr.payload]), seed=seed,
                           behaviors=behaviors)
        net.register_key(kp)
        for i in range(50):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        net.run_until_drained()
        assert net.quiescent and net.txs_confirmed == 50

    def test_a_chain_without_quorum_stalls(self):
        net, kp, addr = make_network(n=7, byzantine=3)
        for i in range(5):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        assert net.run_until_drained() == net.stall_rounds
        assert not net.quiescent and len(net.pool) == 5 and net.txs_confirmed == 0

    def test_a_majority_chain_without_a_qualifying_branch_stalls(self):
        rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51)
        net, kp, addr = make_network(n=10, seed=9, rule=rule, adversarial_share=0.5)
        net.submit(transfer_tx(kp, addr, 0))
        assert net.run_until_drained() == net.stall_rounds
        assert not net.quiescent and net.txs_confirmed == 0

    def test_an_explicit_bound_still_caps_the_rounds(self):
        net, kp, addr = make_network(n=7, byzantine=3)
        net.submit(transfer_tx(kp, addr, 0))
        assert net.run_until_drained(max_rounds=5) == 5
        net, kp, addr = make_network(n=7)
        for i in range(40):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        assert net.run_until_drained(max_rounds=2) == 2 and net.txs_confirmed == 16

    def test_a_round_that_only_discards_is_progress(self):
        # Discarding a stale tx moves the chain on as much as confirming one.
        net, kp, addr = make_network(n=4)
        net.submit(transfer_tx(kp, addr, 0))
        net.run_until_drained()
        stale = transfer_tx(kp, addr, 0, sim_time=1)
        net.submit(stale)
        assert net.run_until_drained() == 1
        assert net.quiescent and net.discards == {"StaleNonce": 1}
        assert stale.tx_id not in net.confirmed_tick


class TestProbes:
    def test_persistence_all_honest(self):
        net, kp, addr = make_network(n=5, seed=21)
        for i in range(5):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        for _ in range(10):
            net.run_round()
        assert net.check_persistence()

    def test_persistence_with_crashed_node(self):
        net, kp, addr = make_network(n=5, crashed=1, seed=22, keep_history=True)
        for i in range(4):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        for _ in range(12):
            net.run_round()
        assert net.confirmations  # others still reach quorum
        assert net.check_persistence()

    def test_persistence_detects_a_broken_link(self):
        net, kp, addr = make_network(n=4, seed=23)
        net.submit(transfer_tx(kp, addr, 0))
        for _ in range(4):
            net.run_round()
        assert len(net.confirmed_blocks) >= 3 and net.check_persistence()
        net.confirmed_blocks[1], net.confirmed_blocks[2] = net.confirmed_blocks[2], net.confirmed_blocks[1]
        assert not net.check_persistence()

    def test_liveness_deadline_zero(self):
        net, kp, addr = make_network()
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        assert not confirmed_by(net, tx.tx_id, 0)

    def test_liveness_false_when_f_at_third(self):
        net, kp, addr = make_network(n=9, byzantine=3, seed=30)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        assert not confirmed_by(net, tx.tx_id, 2_000)

    def test_liveness_true_generous_deadline(self):
        net, kp, addr = make_network(n=7, seed=31)
        tx = transfer_tx(kp, addr, 0)
        net.submit(tx)
        assert confirmed_by(net, tx.tx_id, 100_000)


class TestDeterminismAndOrder:
    def run_once(self, seed=5):
        net, kp, addr = make_network(n=7, seed=seed, keep_history=True)
        for i in range(20):
            net.submit(transfer_tx(kp, addr, i, sim_time=i))
        net.run_until_drained()
        return net

    def test_identical_confirmed_chain(self):
        a, b = self.run_once(), self.run_once()
        assert [blk.block_hash for blk in a.confirmed_blocks] == \
            [blk.block_hash for blk in b.confirmed_blocks]
        assert a.now == b.now
        assert a.gas_total == b.gas_total

    def test_execution_linearizable_across_views(self):
        net = self.run_once()
        block_order = [tx.tx_id for blk in net.confirmed_blocks for tx in blk.txs]
        assert [c.tx.tx_id for c in net.confirmations] == block_order
        assert len(block_order) == 20

    def test_quorum_proposers_rotate_from_node_one(self):
        net, _, _ = make_network(n=4)
        for _ in range(6):
            net.run_round()  # an honest proposer confirms an empty block each round
        assert [b.proposer for b in net.confirmed_blocks] == [-1, 1, 2, 3, 0, 1, 2]
        assert len(net.rounds) == 6

    def test_proposer_credited(self):
        net = self.run_once()
        credited = sum(net.state.native_balances.values())
        assert credited == net.gas_total > 0

    def test_chain_ndjson_schema(self):
        import json
        net = self.run_once()
        for line in chain_ndjson(net).splitlines():
            record = json.loads(line)
            assert set(record) == {"height", "parent_hash", "block_hash", "proposer",
                                   "state_root", "tx_ids", "tx_wire"}
            for tx_id, wire in zip(record["tx_ids"], record["tx_wire"]):
                from w3sim import identity
                assert identity.digest(bytes.fromhex(wire)).hex() == tx_id

    def test_parent_links(self):
        net = self.run_once()
        blocks = net.confirmed_blocks
        assert blocks[0].height == 0 and blocks[0].parent_hash == b"\x00" * 32
        for prev, cur in zip(blocks, blocks[1:]):
            assert cur.parent_hash == prev.block_hash
            assert cur.height == prev.height + 1


class TestSafetySweep:
    def test_no_double_heights_below_threshold_100_runs(self):
        for seed in range(100):
            net, kp, addr = make_network(n=7, byzantine=2,
                                         byz_mode=ByzantineMode.EQUIVOCATE, seed=seed + 500)
            for i in range(3):
                net.submit(transfer_tx(kp, addr, i, sim_time=i))
            for _ in range(25):
                net.run_round()
            heights = [b.height for b in net.confirmed_blocks]
            assert len(heights) == len(set(heights))


def per_transaction_records():
    """One instance of each record a confirmed transaction leaves behind."""
    net, kp, addr = make_network(seed=11)
    tx = transfer_tx(kp, addr, 0)
    receipt = vm.execute(net.state, tx)[1]
    block = make_block(1, ZERO_HASH, (tx,), net.state.state_root, 0)
    header = BlockHeader(1, ZERO_HASH, block.state_root, 0, block.block_hash)
    return [tx.metadata, tx.payload, tx, tx.signature, receipt, block, header,
            Confirmation(tx, receipt, block.block_hash, 1, 3)]


class TestCompactRecords:
    @pytest.mark.parametrize("record", per_transaction_records(),
                             ids=lambda r: type(r).__name__)
    def test_slotted_frozen_and_picklable(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)
        assert pickle.loads(pickle.dumps(record)) == record

    def test_receipt_carries_a_status_and_no_root(self):
        names = {f.name for f in dataclasses.fields(vm.Receipt)}
        assert names == {"status", "reason", "gas_used", "events", "writes"}
