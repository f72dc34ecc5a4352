#!/usr/bin/env python3
"""Sweep consensus fault tolerance and print a confirmation grid.

For the quorum rule: every (n, byzantine f) cell over 100 seeds.
For the majority chain: adversarial shares around the 51% threshold.
"""

import argparse

from w3sim import identity, txcraft, vm
from w3sim.consensus import (
    ChainNetwork,
    ConsensusConfig,
    ConsensusRule,
    NodeBehavior,
    RuleKind,
)

FT = b"\x01" * 20


def one_tx_state(tag: bytes):
    """A funded sender's state, one transfer it signed, and its key pair."""
    kp = identity.generate_keypair(tag)
    addr = identity.derive_address(kp.public_key)
    state = vm.ContractState()
    vm.deploy_contract(state, vm.ContractDef(FT, vm.ContractKind.FUNGIBLE_TOKEN,
                                             {"supply": 0, "deployer": b"\x00" * 20}))
    state.set_storage(FT, b"bal:" + addr.payload, (10_000).to_bytes(16, "big"))
    state.set_storage(FT, b"sup:", (10_000).to_bytes(16, "big"))
    metadata = txcraft.TxMetadata(sender=addr, receiver=addr, nonce=0,
                                  gas_limit=100_000, sim_time=0)
    payload = txcraft.TxPayload(contract_id=FT, method="transfer",
                                args=(b"\x0f" * 20, (1).to_bytes(16, "big")))
    return state, txcraft.build_transaction(kp.secret_key, metadata, payload), kp


def bft_grid(seeds: int):
    print("quorum rule (2/3): confirmation rate per (n, f)")
    for n in (4, 7, 10):
        quorum = ConsensusConfig(n_nodes=n).quorum
        cells = []
        for f in range(0, n - quorum + 3):
            confirmed = 0
            for seed in range(seeds):
                state, tx, kp = one_tx_state(b"grid-%d-%d-%d" % (n, f, seed))
                net = ChainNetwork(ConsensusConfig(n_nodes=n), state, seed=seed,
                                   behaviors=[NodeBehavior.BYZANTINE] * f
                                   + [NodeBehavior.HONEST] * (n - f))
                net.register_key(kp)
                net.submit(tx)
                for _ in range(4 * n):
                    net.run_round()
                confirmed += tx.tx_id in net.confirmed_tick
            cells.append(f"f={f}:{confirmed / seeds:4.0%}")
        print(f"  n={n:2d} (quorum {quorum}): " + "  ".join(cells))


def majority_grid(seeds: int):
    print("majority chain (fraction 0.51, depth 6): honest-tx confirmation rate per share")
    rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51, confirm_depth=6)
    for share in (0.30, 0.45, 0.49, 0.55, 0.70):
        confirmed = 0
        for seed in range(seeds):
            state, tx, kp = one_tx_state(b"mc-%d-%d" % (int(share * 100), seed))
            net = ChainNetwork(ConsensusConfig(rule=rule, n_nodes=9), state, seed=seed,
                               behaviors=[NodeBehavior.BYZANTINE] * 4 + [NodeBehavior.HONEST] * 5,
                               adversarial_share=share)
            net.register_key(kp)
            net.submit(tx)
            for _ in range(120):
                net.run_round()
            confirmed += tx.tx_id in net.confirmed_tick
        print(f"  adversarial share {share:.2f}: {confirmed / seeds:4.0%}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    bft_grid(args.seeds)
    majority_grid(args.seeds)
