"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints one PASS line on success; pytest failure output marks
any FAIL. Runtime-limited criteria assert their own wall-clock budget.
"""

import random
import time
from fractions import Fraction

import pytest

from w3sim import access, cli, identity, txcraft, vm
from w3sim.archetypes import (
    ALL_TYPES,
    FT_ID,
    MARKET_ID,
    NFT_ID,
    SimConfig,
    architecture,
    compose,
)
from w3sim.consensus import ByzantineMode, ChainNetwork, ConsensusConfig, ConsensusRule, NodeBehavior, RuleKind
from w3sim.evaluation import compare, diff_against_reference, report_json, run_scenario, run_sweep
from w3sim.scenario import DEFAULT_FAULTS, NO_FAULTS, nft_sale_script
from w3sim.storage import AllReplicasDown, OffChainStore, Route, StorageFabric, StoragePlan
from w3sim.vm import DelegationPolicy, ExecutorBehavior

from test_consensus import confirmed_by
from test_identity import base58_oracle


def _amount(n):
    return n.to_bytes(16, "big")


# ---------------------------------------------------------------------------
# Criterion 1: Definition-1 security across all twelve types
# ---------------------------------------------------------------------------


# Event fields whose value is an address.
ADDRESS_FIELDS = frozenset(("src", "dst", "owner", "seller", "buyer", "spender", "origin"))


def _drive_definition1(type_id: int, target_txs: int) -> tuple[int, int]:
    """Randomized workload until target confirmed txs; retrieval checked
    against every confirmation. Returns (confirmed_txs, retrieval_checks)."""
    arch = architecture(type_id)
    # Agent routes bundle several ops per tx; a small batch keeps the
    # confirmed-transaction count (the criterion's unit) reachable fast.
    sim = SimConfig(seed=42 + type_id, batch_size=3)
    wallets = [access.WalletClient.create(b"def1-%d-%d" % (type_id, i)) for i in range(4)]
    by_payload = {w.address.payload: w.address for w in wallets}
    funded = {w.address.payload: 10**12 for w in wallets}
    topo = compose(arch, sim, funded=funded,
                   registered_users=tuple(sorted(by_payload)), keep_history=True)
    chain = topo.chain
    for w in wallets:
        chain.register_key(w.keypair)
        access.connect_wallet(w, "def1")
    rng = random.Random(4242 + type_id)
    snapshots: dict[tuple[bytes, bytes], access.RetrievedState] = {}
    checks = 0
    token_counter = 0

    # The touch rule, kept here as the oracle: a successful confirmation
    # points (address, contract) at itself for its sender and every address
    # its events name, in each contract it wrote to.
    oracle: dict[tuple[bytes, bytes], tuple[bytes, int]] = {}

    def index(confirmations):
        for c in confirmations:
            if not c.receipt.success:
                continue
            addrs = {c.tx.metadata.sender.payload}
            addrs.update(value for ev in c.receipt.events for key, value in ev.fields
                         if key in ADDRESS_FIELDS)
            for cid in {cid for cid, _ in c.receipt.writes}:
                for addr in addrs:
                    oracle[(addr, cid)] = (c.tx.tx_id, c.tick)

    def check_all_keys():
        nonlocal checks
        for (payload, cid), (tx_id, tick) in oracle.items():
            addr = by_payload.get(payload)
            if addr is None:
                continue  # the agent, or an address no wallet holds
            got = access.retrieve_state(chain, addr, cid)
            assert (got.tx_id, got.tick) == (tx_id, tick)
            for key, value in got.entries:
                raw = chain.state.get_storage(cid, bytes.fromhex(key))
                assert value == (raw.hex() if raw is not None else "")
            prev = snapshots.get((payload, cid))
            if prev is not None and prev.tx_id == tx_id:
                # Nothing newer confirmed for this key: must be bit-identical.
                assert got == prev
            snapshots[(payload, cid)] = got
            checks += 1

    def submit_one():
        nonlocal token_counter
        w = rng.choice(wallets)
        kind = rng.random()
        if kind < 0.5:
            dst = rng.choice(wallets).address.payload
            call = txcraft.TxPayload(FT_ID, "transfer", (dst, _amount(rng.randrange(1, 500))))
        elif kind < 0.8:
            dst = rng.choice(wallets).address.payload
            call = txcraft.TxPayload(FT_ID, "approve", (dst, _amount(rng.randrange(1, 500))))
        else:
            token_counter += 1
            call = txcraft.TxPayload(NFT_ID, "mint", (token_counter.to_bytes(32, "big"),),
                                     access.prepare_data(rng.randbytes(32), topo.fabric))
        if topo.agent is not None:
            access.submit_via_agent(topo.agent, w.address.payload, call, chain)
        else:
            access.submit_direct(w, chain, call)

    while len(chain.confirmations) < target_txs:
        for _ in range(48):
            submit_one()
        if topo.agent is not None:
            access.flush(topo.agent, chain)
        guard = 0
        while not chain.quiescent and guard < 500:
            index(chain.run_round())
            check_all_keys()
            guard += 1
    assert chain.integrity_violations == 0
    return len(chain.confirmations), checks


def test_criterion_1_definition_1_security():
    start = time.time()
    total_txs = 0
    total_checks = 0
    for arch in ALL_TYPES:
        confirmed, checks = _drive_definition1(arch.type_id, 1_000)
        assert confirmed >= 1_000, arch.type_id
        assert checks > 0
        total_txs += confirmed
        total_checks += checks
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: retrieval == confirmed state for {total_txs} confirmed txs "
          f"({total_checks} retrieval checks) across 12 types in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: consensus thresholds
# ---------------------------------------------------------------------------


def _bft_run(n, f, seed, byz_mode):
    behaviors = [NodeBehavior.BYZANTINE] * f + [NodeBehavior.HONEST] * (n - f)
    kp = identity.generate_keypair(b"bft-%d-%d-%d" % (n, f, seed))
    addr = identity.derive_address(kp.public_key)
    state = vm.ContractState()
    vm.deploy_contract(state, vm.ContractDef(FT_ID, vm.ContractKind.FUNGIBLE_TOKEN,
                                             {"supply": 0, "deployer": b"\x00" * 20}))
    state.set_storage(FT_ID, b"bal:" + addr.payload, _amount(10_000))
    state.set_storage(FT_ID, b"sup:", _amount(10_000))
    net = ChainNetwork(ConsensusConfig(n_nodes=n), state, seed=seed,
                       behaviors=behaviors, byz_mode=byz_mode)
    net.register_key(kp)
    metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                  gas_limit=100_000, sim_time=0)
    payload = txcraft.TxPayload(contract_id=FT_ID, method="transfer",
                                args=(b"\x01" * 20, _amount(1)))
    tx = txcraft.build_transaction(kp.secret_key, metadata, payload)
    net.submit(tx)
    for _ in range(4 * n):
        net.run_round()
    heights = [b.height for b in net.confirmed_blocks]
    assert len(heights) == len(set(heights)), "two confirmed blocks share a height"
    assert net.check_persistence()
    return tx.tx_id in net.confirmed_tick


def test_criterion_2_consensus_thresholds():
    runs = 0
    for n in (4, 7, 10):
        tolerance = n - (int(Fraction(2, 3) * n) + 1)  # f <= n - quorum
        for f in range(0, tolerance + 2):
            for seed in range(100):
                confirmed = _bft_run(n, f, seed, ByzantineMode.SILENT)
                assert confirmed == (f <= tolerance), (n, f, seed)
                runs += 1

    mc_rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51, confirm_depth=6)
    for share, honest_wins in ((0.45, True), (0.55, False)):
        for seed in range(100):
            kp = identity.generate_keypair(b"mc-%d" % seed)
            addr = identity.derive_address(kp.public_key)
            state = vm.ContractState()
            vm.deploy_contract(state, vm.ContractDef(FT_ID, vm.ContractKind.FUNGIBLE_TOKEN,
                                                     {"supply": 0, "deployer": b"\x00" * 20}))
            state.set_storage(FT_ID, b"bal:" + addr.payload, _amount(10_000))
            state.set_storage(FT_ID, b"sup:", _amount(10_000))
            net = ChainNetwork(
                ConsensusConfig(rule=mc_rule, n_nodes=9), state, seed=seed,
                behaviors=[NodeBehavior.BYZANTINE] * 4 + [NodeBehavior.HONEST] * 5,
                adversarial_share=share)
            net.register_key(kp)
            metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                          gas_limit=100_000, sim_time=0)
            payload = txcraft.TxPayload(contract_id=FT_ID, method="transfer",
                                        args=(b"\x01" * 20, _amount(1)))
            tx = txcraft.build_transaction(kp.secret_key, metadata, payload)
            net.submit(tx)
            for _ in range(120):
                net.run_round()
            heights = [b.height for b in net.confirmed_blocks]
            assert len(heights) == len(set(heights)), (share, seed)
            if honest_wins:
                assert tx.tx_id in net.confirmed_tick, seed
            else:
                assert tx.tx_id not in net.confirmed_tick, seed
                confirmed = net.confirmed_blocks[1:]
                assert confirmed and all(b.proposer == -2 for b in confirmed), seed
            runs += 1
    print(f"\nACCEPTANCE 2 PASS: thresholds hold over {runs} seeded runs, zero safety violations")


# ---------------------------------------------------------------------------
# Criterion 3: reference matrix reproduction
# ---------------------------------------------------------------------------


def test_criterion_3_matrix_reproduction():
    start = time.time()
    reports = run_sweep(seed=42, sim=SimConfig(seed=42, consensus=ConsensusConfig(n_nodes=7)))
    mismatches = diff_against_reference(compare(reports, reports[1]))
    elapsed = time.time() - start
    assert mismatches == [], [str(m) for m in mismatches]
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: matrix reproduced exactly (rule columns) and by sign "
          f"(measured columns) for all 12 types, seed 42, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: NFT running example
# ---------------------------------------------------------------------------


def test_criterion_4_nft_running_example(capsys):
    alice = access.WalletClient.create(b"c4-alice")
    bob = access.WalletClient.create(b"c4-bob")
    funded = {alice.address.payload: 5_000, bob.address.payload: 5_000}
    topo = compose(architecture(2), SimConfig(seed=42), funded=funded, keep_history=True)
    chain, fabric = topo.chain, topo.fabric
    for wallet in (alice, bob):
        chain.register_key(wallet.keypair)
        access.connect_wallet(wallet, "market")

    data = random.Random(42).randbytes(900)  # above the hybrid threshold
    token = (1).to_bytes(32, "big")
    record = access.prepare_data(data, fabric)
    assert record[0] == 1  # linked: the mint carries the cid hook
    access.submit_direct(alice, chain, txcraft.TxPayload(NFT_ID, "mint", (token,), record))
    chain.run_until_drained()
    assert vm.query_state(chain.state, NFT_ID, "ownerOf", (token,)) == alice.address.payload

    price = 1_234
    access.submit_direct(alice, chain, txcraft.TxPayload(
        MARKET_ID, "list", (token, _amount(price))))
    chain.run_until_drained()

    supply_before = vm.query_state(chain.state, FT_ID, "totalSupply")
    buy_tx = access.submit_direct(bob, chain, txcraft.TxPayload(
        MARKET_ID, "buy", (token, _amount(price))))
    chain.run_until_drained()

    buy_receipt = next(c.receipt for c in chain.confirmations if c.tx.tx_id == buy_tx)
    names = [e.name for e in buy_receipt.events]
    assert "Transfer" in names and "NftTransfer" in names  # atomic: one receipt
    assert vm.query_state(chain.state, NFT_ID, "ownerOf", (token,)) == bob.address.payload
    alice_bal = vm.query_state(chain.state, FT_ID, "balanceOf", (alice.address.payload,))
    bob_bal = vm.query_state(chain.state, FT_ID, "balanceOf", (bob.address.payload,))
    assert alice_bal == 5_000 + price and bob_bal == 5_000 - price
    assert vm.query_state(chain.state, FT_ID, "totalSupply") == supply_before == alice_bal + bob_bal
    # The buyer learns the cid from the token's record and storage checks the blob against it.
    assert fabric.read(vm.query_state(chain.state, NFT_ID, "dataOf", (token,))) == data
    assert access.retrieve_state(chain, bob.address, NFT_ID).tx_id == buy_tx

    assert cli.main(["demo", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert [out.find(b) for b in cli.PHASE_BANNERS] == sorted(out.find(b) for b in cli.PHASE_BANNERS)
    print("\nACCEPTANCE 4 PASS: mint→cid-hook→list→buy atomic; supply conserved exactly; "
          "owner is the buyer; off-chain integrity verifies true")


# ---------------------------------------------------------------------------
# Criterion 5: storage replication
# ---------------------------------------------------------------------------


def test_criterion_5_storage_replication():
    import itertools
    plan = StoragePlan(route=Route.OFF_CHAIN, replicas=3)
    fabric = StorageFabric(plan, OffChainStore(3))
    data = b"replicated content"
    record = fabric.put(data)
    cid = record[1:]
    for down in itertools.combinations(range(3), 2):
        for i in range(3):
            fabric.store.set_alive(i, i not in down)
        assert fabric.read(record) == data
    for i in range(3):
        fabric.store.set_alive(i, False)
    with pytest.raises(AllReplicasDown):
        fabric.read(record)
    for i in range(3):
        fabric.store.set_alive(i, True)

    rng = random.Random(5)
    detected = 0
    for _ in range(1_000):
        mutated = bytearray(data)
        mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
        if fabric.verify_integrity(cid, bytes(mutated)) is False:
            detected += 1
    assert detected == 1_000
    print("\nACCEPTANCE 5 PASS: replicas=3 serves all 2-node failure subsets, "
          "3-node failure is AllReplicasDown, 1000/1000 tampers detected")


# ---------------------------------------------------------------------------
# Criterion 6: agent batching
# ---------------------------------------------------------------------------


def test_criterion_6_agent_batching():
    wallets = [access.WalletClient.create(b"c6-%d" % i) for i in range(2)]
    funded = {w.address.payload: 10**9 for w in wallets}
    topo = compose(architecture(7), SimConfig(seed=7, batch_size=10), funded=funded,
                   registered_users=tuple(w.address.payload for w in wallets),
                   keep_history=True)
    w1, w2 = wallets
    for i in range(25):
        access.submit_via_agent(topo.agent, w1.address.payload,
                                txcraft.TxPayload(FT_ID, "transfer",
                                                  (w2.address.payload, _amount(1))),
                                topo.chain)
    access.flush(topo.agent, topo.chain)
    topo.chain.run_until_drained()
    assert len(topo.chain.confirmations) == 3
    ok = [e for c in topo.chain.confirmations for e in c.receipt.events if e.name == "OpOk"]
    assert len(ok) == 25

    script = nft_sale_script(repetitions=10)
    r1 = run_scenario(architecture(1), script, NO_FAULTS, seed=42)
    r7 = run_scenario(architecture(7), script, NO_FAULTS, seed=42)
    assert r7.ops_per_tx > r1.ops_per_tx

    withheld = compose(architecture(7), SimConfig(seed=8, batch_size=10), funded=funded,
                       registered_users=tuple(w.address.payload for w in wallets))
    withheld.agent.behavior = access.AgentBehavior.WITHHOLDING
    access.submit_via_agent(withheld.agent, w1.address.payload,
                            txcraft.TxPayload(FT_ID, "transfer",
                                              (w2.address.payload, _amount(1))),
                            withheld.chain)
    would_be = access.flush(withheld.agent, withheld.chain)  # raises nothing
    assert would_be
    assert not confirmed_by(withheld.chain, would_be[0], 5_000)
    print("\nACCEPTANCE 6 PASS: 25 ops @ batch 10 → exactly 3 txs; Type7 ops/tx "
          f"{r7.ops_per_tx:.0f} > Type1 {r1.ops_per_tx:.0f}; withholding caught only by liveness")


# ---------------------------------------------------------------------------
# Criterion 7: hybrid computation equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_hybrid_equivalence():
    from test_archetypes import fresh_pair_of_states, make_actors, random_workload

    actors = make_actors(4, tag=b"c7")
    pure, hybrid = fresh_pair_of_states(actors)
    honest = DelegationPolicy(executor_behavior=ExecutorBehavior.HONEST, run_seed=71)
    txs = random_workload(actors, 1_000, seed=71)
    for tx in txs:
        vm.execute(pure, tx)
        vm.execute(hybrid, tx, delegation=honest)
    assert pure.state_root == hybrid.state_root

    _, victim = fresh_pair_of_states(actors)
    malicious = DelegationPolicy(executor_behavior=ExecutorBehavior.MALICIOUS,
                                 tamper_target="checked", run_seed=72)
    root = victim.state_root
    tampered = rejected = 0
    for tx in random_workload(actors, 1_000, seed=72):
        before = victim.state_root
        _, receipt = vm.execute(victim, tx, delegation=malicious)
        if receipt.reason == "CommitmentMismatch":
            rejected += 1
            tampered += 1
            assert victim.state_root == before  # rejected: no effect
    assert tampered > 0 and rejected == tampered
    print(f"\nACCEPTANCE 7 PASS: honest hybrid root identical over 1000 workloads; "
          f"checked-region tampering rejected {rejected}/{tampered}")


# ---------------------------------------------------------------------------
# Criterion 8: encoding vectors
# ---------------------------------------------------------------------------


def test_criterion_8_encoding_vectors():
    vectors = [(b"", ""), (b"\x00", "1"), (b"\x00\x00\x01", "112")]
    for raw, expected in vectors:
        assert identity.encode_base58(raw) == expected
        assert base58_oracle(raw) == expected
    rng = random.Random(88)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 64))
        assert identity.decode_base16(identity.encode_base16(data)) == data
    print("\nACCEPTANCE 8 PASS: base58 vectors match the long-division oracle; "
          "base16 round-trips on 10000 random strings")


# ---------------------------------------------------------------------------
# Criterion 9: determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    script = nft_sale_script(repetitions=8)
    a = run_scenario(architecture(5), script, DEFAULT_FAULTS, seed=42)
    b = run_scenario(architecture(5), script, DEFAULT_FAULTS, seed=42)
    assert report_json(a) == report_json(b)

    scenario_path = tmp_path / "s.scenario"
    from w3sim.scenario import scenario_text
    scenario_path.write_text(scenario_text(script))
    files = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        assert cli.main(["simulate", "--type", "6", "--seed", "42",
                         "--scenario", str(scenario_path), "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    print("\nACCEPTANCE 9 PASS: repeated simulate invocations are byte-identical")
