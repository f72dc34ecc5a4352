import random

import pytest

from w3sim import identity, txcraft, vm
from w3sim.archetypes import (
    ALL_TYPES,
    FT_ID,
    NFT_ID,
    MARKET_ID,
    VERIFIER_ID,
    AccessMode,
    ComputeMode,
    SimConfig,
    StorageMode,
    architecture,
    compose,
    parse_tuple,
    type_from_tuple,
)
from w3sim.consensus import ChainNetwork, ConsensusConfig
from w3sim.evaluation import run_raw
from w3sim.scenario import NO_FAULTS, FaultPlan, nft_sale_script
from w3sim.storage import Route
from w3sim.vm import (
    ContractDef,
    ContractKind,
    ContractState,
    DelegationPolicy,
    ExecutorBehavior,
    deploy_contract,
    query_state,
)


class TestTypeSpace:
    def test_named_corner_types(self):
        assert type_from_tuple(AccessMode.BROWSER, ComputeMode.ON_CHAIN, StorageMode.ON_CHAIN).type_id == 1
        assert type_from_tuple(AccessMode.AGENT, ComputeMode.ON_CHAIN, StorageMode.ON_CHAIN).type_id == 7
        assert type_from_tuple(AccessMode.AGENT, ComputeMode.HYBRID, StorageMode.OFF_CHAIN).type_id == 12

    def test_bijection_roundtrip(self):
        seen = set()
        for arch in ALL_TYPES:
            a, b, c = arch.access, arch.compute, arch.storage
            again = type_from_tuple(a, b, c)
            assert again == arch
            seen.add((a, b, c))
        assert len(seen) == 12

    def test_parse_tuple(self):
        assert parse_tuple("A1,B1,C1").type_id == 1
        assert parse_tuple(" a2 , b2 , c3 ").type_id == 12
        for bad in ("A1,B1", "A3,B1,C1", "A1,B1,C4", "X1,B1,C1", "nonsense"):
            with pytest.raises(ValueError):
                parse_tuple(bad)

    def test_modified_component_counts(self):
        assert architecture(1).modified_components() == 0
        assert architecture(2).modified_components() == 1
        assert architecture(7).modified_components() == 1
        assert architecture(10).modified_components() == 2
        assert architecture(12).modified_components() == 3

    def test_unknown_type_id(self):
        with pytest.raises(ValueError):
            architecture(13)

    def test_tuple_labels(self):
        assert architecture(1).tuple_label == "A1,B1,C1"
        assert architecture(10).tuple_label == "A2,B2,C1"


class TestComposition:
    def compose_type(self, type_id):
        return compose(architecture(type_id), SimConfig(seed=5))

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_batch_size_below_one_is_rejected(self, batch_size):
        # range(0, n, -1) in the agent flush emits no bundle at all.
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(batch_size=batch_size)

    # SimConfig checks each setting when it is built, so a bad one fails
    # before any storage plan, delegation policy or run is made from it.
    BAD_SETTINGS = [
        (dict(replicas=0), "replicas must be >= 1, got 0"),
        (dict(replicas=11), "replicas must be <= storage nodes (10), got 11"),
        (dict(storage_nodes=0), "storage_nodes must be >= 1, got 0"),
        (dict(storage_nodes=0, replicas=0), "storage_nodes must be >= 1, got 0"),
        (dict(inline_threshold=0), "inline_threshold must be >= 1, got 0"),
        (dict(inline_cap=-1), "inline_cap must be >= 0, got -1"),
        (dict(offchain_fraction=1.5), "offchain_fraction must be in [0, 1], got 1.5"),
        (dict(offchain_fraction=-0.1), "offchain_fraction must be in [0, 1], got -0.1"),
    ]

    @pytest.mark.parametrize("settings, message", BAD_SETTINGS,
                             ids=[str(settings) for settings, _ in BAD_SETTINGS])
    def test_out_of_range_setting_is_rejected(self, settings, message):
        with pytest.raises(ValueError) as err:
            SimConfig(**settings)
        assert str(err.value) == message

    def test_edge_settings_are_allowed(self):
        SimConfig(storage_nodes=1, replicas=1, inline_threshold=1, inline_cap=0,
                  offchain_fraction=0.0)
        SimConfig(offchain_fraction=1.0)

    def test_more_byzantine_maintainers_than_maintainers_is_rejected(self):
        sim = SimConfig(consensus=ConsensusConfig(n_nodes=4))
        compose(architecture(1), sim, faults=FaultPlan(byzantine_maintainers=4))
        with pytest.raises(ValueError, match=r"byzantine_maintainers must be <= n_nodes \(4\), got 5"):
            compose(architecture(1), sim, faults=FaultPlan(byzantine_maintainers=5))

    def test_type1_minimal_stack(self):
        topo = self.compose_type(1)
        assert topo.agent is None
        assert topo.fabric.plan.route is Route.ON_CHAIN
        assert topo.chain.delegation is None
        assert topo.chain is not None  # consensus stays on-chain in every type

    def test_type2_running_example_stack(self):
        topo = self.compose_type(2)
        assert topo.agent is None
        assert topo.fabric.plan.route is Route.HYBRID
        assert set(topo.chain.state.contracts) == {FT_ID, NFT_ID, MARKET_ID, VERIFIER_ID}

    def test_type10_agent_hybrid_onchain(self):
        topo = self.compose_type(10)
        assert topo.agent is not None
        assert topo.chain.delegation is not None
        assert topo.fabric.plan.route is Route.ON_CHAIN

    def test_every_type_keeps_consensus_onchain(self):
        for arch in ALL_TYPES:
            topo = compose(arch, SimConfig(seed=6))
            assert topo.chain.config.n_nodes >= 1
            assert topo.chain.confirmed_blocks[0].height == 0

    def test_the_fabric_draws_storage_crashes_from_its_own_seeded_stream(self):
        topo = compose(architecture(3), SimConfig(seed=9), faults=FaultPlan(storage_crash_prob=0.3))
        assert topo.fabric.crash_prob == 0.3
        assert topo.fabric.crash_rng.random() == random.Random(9 ^ 0x5707A6E).random()
        assert self.compose_type(3).fabric.crash_prob == 0.0

    def test_funded_balances_define_supply(self):
        a, b = b"\x0a" * 20, b"\x0b" * 20
        topo = compose(architecture(1), SimConfig(seed=8), funded={a: 70, b: 30})
        assert query_state(topo.chain.state, FT_ID, "totalSupply") == 100
        assert query_state(topo.chain.state, FT_ID, "balanceOf", (a,)) == 70


def make_actors(n, tag=b"hyb"):
    out = []
    for i in range(n):
        kp = identity.generate_keypair(tag + b"-%d" % i)
        out.append((kp, identity.derive_address(kp.public_key)))
    return out


def fresh_pair_of_states(actors):
    """Two identical genesis states for differential runs."""
    states = []
    for _ in range(2):
        state = ContractState()
        deploy_contract(state, ContractDef(FT_ID, ContractKind.FUNGIBLE_TOKEN,
                                           {"supply": 0, "deployer": b"\x00" * 20}))
        deploy_contract(state, ContractDef(NFT_ID, ContractKind.NON_FUNGIBLE_TOKEN, {}))
        deploy_contract(state, ContractDef(MARKET_ID, ContractKind.NFT_MARKET,
                                           {"nft": NFT_ID, "token": FT_ID}))
        total = 0
        for _, addr in actors:
            state.set_storage(FT_ID, b"bal:" + addr.payload, (10_000).to_bytes(16, "big"))
            total += 10_000
        state.set_storage(FT_ID, b"sup:", total.to_bytes(16, "big"))
        states.append(state)
    return states


def random_workload(actors, n_ops, seed):
    rng = random.Random(seed)
    txs = []
    minted = []
    for i in range(n_ops):
        kp, addr = rng.choice(actors)
        choice = rng.random()
        if choice < 0.4 or not minted:
            token = (1000 + i).to_bytes(32, "big")
            minted.append(token)
            payload = txcraft.TxPayload(contract_id=NFT_ID, method="mint", args=(token,),
                                        inline_data=b"\x00" + rng.randbytes(24))
        elif choice < 0.7:
            payload = txcraft.TxPayload(contract_id=FT_ID, method="transfer",
                                        args=(rng.choice(actors)[1].payload,
                                              rng.randrange(50).to_bytes(16, "big")))
        else:
            payload = txcraft.TxPayload(contract_id=FT_ID, method="approve",
                                        args=(rng.choice(actors)[1].payload,
                                              rng.randrange(50).to_bytes(16, "big")))
        metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=i,
                                      gas_limit=500_000, sim_time=i)
        txs.append(txcraft.build_transaction(kp.secret_key, metadata, payload))
    return txs


class TestHybridExecution:
    def test_honest_differential_equivalence_1000_ops(self):
        actors = make_actors(4)
        pure, hybrid = fresh_pair_of_states(actors)
        policy = DelegationPolicy(offchain_fraction=0.5,
                                  executor_behavior=ExecutorBehavior.HONEST, run_seed=31)
        for tx in random_workload(actors, 1_000, seed=31):
            _, pure_receipt = vm.execute(pure, tx)
            _, hybrid_receipt = vm.execute(hybrid, tx, delegation=policy)
            assert pure_receipt.status == hybrid_receipt.status
            assert hybrid_receipt.gas_used <= pure_receipt.gas_used
        assert pure.state_root == hybrid.state_root

    def test_malicious_checked_region_rejected(self):
        actors = make_actors(2, tag=b"mal")
        _, state = fresh_pair_of_states(actors)
        policy = DelegationPolicy(offchain_fraction=0.5,
                                  executor_behavior=ExecutorBehavior.MALICIOUS,
                                  tamper_target="checked", run_seed=32)
        rejected = attempts = 0
        for tx in random_workload(actors, 200, seed=32):
            _, receipt = vm.execute(state, tx, delegation=policy)
            if receipt.reason == "CommitmentMismatch":
                rejected += 1
            if not receipt.success:
                assert receipt.reason in ("CommitmentMismatch",)
            attempts += 1
        assert rejected > 0
        # Every tx whose tamper landed (i.e. every rejected one) was caught;
        # none slipped through silently.
        assert attempts == 200

    def test_malicious_unchecked_is_silent_violation(self):
        actors = make_actors(2, tag=b"mal2")
        pure, tampered = fresh_pair_of_states(actors)
        policy = DelegationPolicy(offchain_fraction=0.5,
                                  executor_behavior=ExecutorBehavior.MALICIOUS,
                                  tamper_target="unchecked", run_seed=33)
        violations = []
        txs = random_workload(actors, 300, seed=33)
        for tx in txs:
            vm.execute(pure, tx)
            _, receipt = vm.execute(tampered, tx, delegation=policy,
                                    violation_sink=violations.append)
            assert receipt.success  # silent: no protocol-visible failure
        assert violations
        assert pure.state_root != tampered.state_root  # the harness oracle sees it

    def test_violation_count_matches_tampered_txs(self):
        actors = make_actors(2, tag=b"mal3")
        _, state = fresh_pair_of_states(actors)
        policy = DelegationPolicy(offchain_fraction=0.5,
                                  executor_behavior=ExecutorBehavior.MALICIOUS,
                                  tamper_target="unchecked", run_seed=34)
        violations = []
        for tx in random_workload(actors, 100, seed=34):
            vm.execute(state, tx, delegation=policy, violation_sink=violations.append)
        assert len(violations) == len(set(violations))  # one per tx, tx ids unique

    def test_topology_counts_violations(self):
        wallets = make_actors(2, tag=b"topo-mal")
        funded = {addr.payload: 100_000 for _, addr in wallets}
        topo = compose(architecture(4), SimConfig(seed=44), funded=funded,
                       faults=FaultPlan(executor_behavior=ExecutorBehavior.MALICIOUS,
                                        tamper_target="unchecked"))
        kp, addr = wallets[0]
        topo.chain.register_key(kp)
        token = (5).to_bytes(32, "big")
        metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                      gas_limit=500_000, sim_time=0)
        payload = txcraft.TxPayload(contract_id=NFT_ID, method="mint", args=(token,),
                                    inline_data=b"\x00data")
        topo.chain.submit(txcraft.build_transaction(kp.secret_key, metadata, payload))
        topo.chain.run_until_drained()
        assert topo.chain.integrity_violations == 1


class TestChainExecution:
    """The chain executes and anchors its blocks from its schedule and policy."""

    def test_the_chain_calls_vm_execute_through_the_module(self, monkeypatch):
        # perfbench times vm.execute by wrapping the module attribute and
        # reads the transaction from args[1].
        calls = []
        inner = vm.execute

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(vm, "execute", counting)
        stats = run_raw(architecture(4), nft_sale_script(repetitions=6), SimConfig(seed=42),
                        NO_FAULTS)
        assert len(calls) == stats.txs_confirmed > 0
        assert all(isinstance(args[1], txcraft.Transaction) for args in calls)

    @pytest.mark.parametrize("hybrid", [True, False], ids=["delegated", "on-chain"])
    def test_a_directly_built_chain_anchors_and_counts_tampers(self, hybrid):
        actors = make_actors(1, tag=b"direct")
        state, _ = fresh_pair_of_states(actors)
        deploy_contract(state, ContractDef(VERIFIER_ID, ContractKind.HYBRID_VERIFIER, {}))
        policy = DelegationPolicy(executor_behavior=ExecutorBehavior.MALICIOUS,
                                  tamper_target="unchecked", run_seed=44)
        chain = ChainNetwork(ConsensusConfig(), state, delegation=policy if hybrid else None,
                             keep_history=True)
        kp, addr = actors[0]
        chain.register_key(kp)
        metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                      gas_limit=500_000, sim_time=0)
        payload = txcraft.TxPayload(contract_id=NFT_ID, method="mint",
                                    args=((5).to_bytes(32, "big"),), inline_data=b"\x00data")
        chain.submit(txcraft.build_transaction(kp.secret_key, metadata, payload))
        chain.run_until_drained()
        conf, = chain.confirmations
        assert conf.receipt.success
        anchored = query_state(state, VERIFIER_ID, "commitmentAt", (conf.height.to_bytes(8, "big"),))
        if not hybrid:
            assert anchored is None
            assert chain.integrity_violations == 0
            assert chain.gas_total == conf.receipt.gas_used
            return
        digest, = [ev.field("digest") for ev in conf.receipt.events
                   if ev.name == "Commitment"]
        assert anchored == identity.digest(b"w3/fold" + digest)
        assert chain.integrity_violations == 1
        assert chain.gas_total == conf.receipt.gas_used + vm.DEFAULT_GAS_SCHEDULE.per_storage_write
