"""Byte-identity guard for the default sweep at seed 42.

One sha256 covers the twelve report JSONs, the measured matrix JSON and,
per type, the fault-free run's last block hash, state root and chain
byte total. A performance change that alters any simulated outcome, even
one the reports round away, changes the digest. A second sha256 covers
the same input with each report's `config` block left out, so a change
to how a report states its configuration cannot hide a changed outcome.
"""

import hashlib
import json
from dataclasses import asdict, replace

from w3sim import access, vm
from w3sim import evaluation as ev
from w3sim.archetypes import SimConfig, architecture
from w3sim.consensus import ConsensusConfig, ConsensusRule, RuleKind, chain_ndjson
from w3sim.scenario import DEFAULT_FAULTS, NO_FAULTS, nft_sale_script, parse_faults

GOLDEN_SHA256 = "efc3123772953eb0de06a80d5968df11ae0c78116ecefee419e2b44db2e7bf28"
OUTCOME_SHA256 = "71738f6ebaf2a386311b3ac4a4c0fcc029bc7413eead00e5507f264448a16537"


def golden_digest(with_config: bool = True) -> str:
    script = nft_sale_script()
    h = hashlib.sha256()
    reports = ev.run_sweep(script, DEFAULT_FAULTS, seed=42)
    for type_id in sorted(reports):
        if with_config:
            h.update(ev.report_json(reports[type_id]).encode())
        else:
            record = reports[type_id].to_json_dict()
            del record["config"]
            h.update(json.dumps(record, sort_keys=True).encode())
    h.update(ev.matrix_json(ev.compare(reports, reports[1])).encode())
    for type_id in range(1, 13):
        run = ev._ScenarioRun(architecture(type_id), script, replace(SimConfig(), seed=42), NO_FAULTS)
        run.run()
        chain = run.topology.chain
        h.update(chain.confirmed_blocks[-1].block_hash)
        h.update(chain.state.state_root)
        h.update(chain.bytes_total.to_bytes(8, "big"))
    return h.hexdigest()


def test_default_sweep_is_byte_identical():
    assert golden_digest() == GOLDEN_SHA256


def test_default_sweep_outcomes_are_byte_identical():
    assert golden_digest(with_config=False) == OUTCOME_SHA256


# Every fault-plan field the topology wires: maintainer crashes, byzantine
# maintainers, flaky storage, a tampering executor, a withholding agent.
# Types 4, 7 and 10 store on-chain, so Type11 is the one run where the
# storage fault settings change an outcome. One equivocating maintainer
# leaves the same chain as a silent one; two change it, which pins byz_mode.
FAULT_WIRING_PLANS = (
    "maintainer_crash_prob = 0.1\nbyzantine_maintainers = 1\nbyz_mode = equivocate\n"
    "storage_crash_prob = 0.3\nexecutor_behavior = Malicious\ntamper_target = unchecked\n",
    "agent_behavior = Withholding\n",
    "byzantine_maintainers = 2\nbyz_mode = equivocate\n",
)
# Maintainer crashes draw from their own stream, apart from the message
# delays, so the first plan's runs differ from a shared-stream chain's.
# Retrieval reads each token's data through the record its dat: cell holds,
# so a record the executor silently rewrote fails retrieval: under the first
# plan, Types 4, 10 and 11 succeed on 85 ops (90, 90 and 89 when retrieval
# read a ref the run kept), which moved this digest; the chains are unchanged.
# RunStats keeps safety_breaks and integrity_violations apart, in place of
# their sum, and adds discards and offchain_bytes, which moved this digest:
# each record projected back onto the old keys (violations as the sum)
# gives the digest before, 31f042f3...e91ac8f.
FAULT_WIRING_SHA256 = "3203d23fcea57017acba226210f4c287501adc1509b81344ead1fddc2dced523"


def fault_wiring_digest() -> str:
    script = nft_sale_script()
    h = hashlib.sha256()
    for type_id in (4, 7, 10, 11):
        for text in FAULT_WIRING_PLANS:
            run = ev._ScenarioRun(architecture(type_id), script, SimConfig(seed=42),
                                  parse_faults(text))
            stats = run.run()
            chain = run.topology.chain
            h.update(json.dumps(asdict(stats), sort_keys=True).encode())
            h.update(chain.confirmed_blocks[-1].block_hash)
            h.update(chain.state.state_root)
    return h.hexdigest()


def test_fault_wiring_is_byte_identical():
    assert fault_wiring_digest() == FAULT_WIRING_SHA256


# The seed-42 fault-free agent runs, one per compute mode: every event the
# chain logged, as `--dump-events` writes it, and what retrieve_state
# serves each actor for each contract. Pins the event records, the bundle
# decoding and the touch index that retrieval reads.
AGENT_EVENTS_SHA256 = "8245d1120ea6380eebef200857692d3d7d33fb916e641be3bc62d39fdec1c681"


def agent_events_digest() -> str:
    script = nft_sale_script()
    h = hashlib.sha256()
    for type_id in (7, 10):
        run = ev._ScenarioRun(architecture(type_id), script, SimConfig(seed=42), NO_FAULTS,
                              keep_history=True)
        run.run()
        chain = run.topology.chain
        h.update(vm.export_events_ndjson(chain.state).encode())
        for name, wallet in sorted(run.wallets.items()):
            for contract_id in (vm.SYSTEM_CONTRACT_ID, *sorted(chain.state.contracts)):
                try:
                    got = access.retrieve_state(chain, wallet.address, contract_id)
                except access.NoConfirmedState:
                    h.update(b"none")
                    continue
                h.update(json.dumps([name, contract_id.hex(), got.entries, got.tx_id.hex(),
                                     got.tick]).encode())
    return h.hexdigest()


def test_agent_events_and_retrieval_are_byte_identical():
    assert agent_events_digest() == AGENT_EVENTS_SHA256


# Every type under both confirmation rules, fault-free, with a tampering
# executor (outside the checked region) over flaky storage, and with 2 of 7
# maintainers byzantine: the run's
# counters, the confirmed chain, the event log, the state root, the gas and
# byte totals, the violation counts and the ticks. test_default_sweep only
# runs the BFT rule; this pins the majority-chain confirmation path and the
# hybrid types' per-block commitment anchor. A majority-chain proposal
# continues each sender's nonces through the honest branch's unconfirmed
# blocks, so one sender's wave fills a block every round instead of one per
# confirm_depth + 1 rounds: the same txs and gas confirm in fewer rounds
# (Type1: 24 rounds and 74 ticks, from 42 and 112), which moved this digest.
# The byzantine plan pins the majority-chain adversary: its share of block
# production is the byzantine share of the maintainers (2/7, so it wins
# some rounds and the honest branch still qualifies). The plan joined the
# runs when compose began to wire that share, which moved this digest.
# Retrieval reads each token's data through its dat: record, so a record the
# tampering executor rewrote fails retrieval: under the first plan every
# hybrid-compute type (4, 5, 6, 10, 11, 12) succeeds on 35 of 48 ops under
# both rules (38 when retrieval read a ref the run kept), which moved this
# digest; the chains, event logs and roots are unchanged.
# The RunStats keys that moved FAULT_WIRING_SHA256 moved this digest too;
# projected back onto the old keys, the records give b240e3ed...c9844.
RULE_AND_HYBRID_SHA256 = "5e14e9f7ce556b5c6baccca28183c1e2160f662a9b9a4e8666e5fae26d139681"
RULE_AND_HYBRID_PLANS = (
    "storage_crash_prob = 0.3\nexecutor_behavior = Malicious\ntamper_target = unchecked\n",
    "byzantine_maintainers = 2\n",
)


def rule_and_hybrid_digest() -> str:
    script = nft_sale_script(repetitions=12)
    rules = (ConsensusRule(), ConsensusRule(kind=RuleKind.MAJORITY_CHAIN))
    h = hashlib.sha256()
    for rule in rules:
        sim = SimConfig(seed=42, consensus=ConsensusConfig(rule=rule))
        for faults in (NO_FAULTS, *(parse_faults(text) for text in RULE_AND_HYBRID_PLANS)):
            for type_id in range(1, 13):
                run = ev._ScenarioRun(architecture(type_id), script, sim, faults,
                                      keep_history=True)
                stats = run.run()
                chain = run.topology.chain
                h.update(json.dumps(asdict(stats), sort_keys=True).encode())
                h.update(chain_ndjson(chain).encode())
                h.update(vm.export_events_ndjson(chain.state).encode())
                h.update(chain.state.state_root)
                h.update(json.dumps([chain.gas_total, chain.bytes_total, chain.now,
                                     chain.safety_breaks,
                                     chain.integrity_violations]).encode())
    return h.hexdigest()


def test_both_rules_and_hybrid_anchors_are_byte_identical():
    assert rule_and_hybrid_digest() == RULE_AND_HYBRID_SHA256
