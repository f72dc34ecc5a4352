"""The architectural design space: access x computation x storage.

Twelve named types cover every combination of browser/agent access,
on-chain/hybrid computation, and on-chain/hybrid/off-chain storage.
Consensus and state confirmation stay on-chain in every type, which is
the decentralization floor all of them share. compose() wires a type
into one runnable simulation topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import access, consensus, storage, vm
from .consensus import ConsensusConfig
from .scenario import NO_FAULTS, FaultPlan
from .vm import check_int

FT_ID = b"\x01" * 20
NFT_ID = b"\x02" * 20
MARKET_ID = b"\x03" * 20
VERIFIER_ID = vm.VERIFIER_ID


class AccessMode(Enum):
    BROWSER = 1  # A1
    AGENT = 2    # A2


class ComputeMode(Enum):
    ON_CHAIN = 1  # B1
    HYBRID = 2    # B2


class StorageMode(Enum):
    ON_CHAIN = 1   # C1
    HYBRID = 2     # C2
    OFF_CHAIN = 3  # C3


@dataclass(frozen=True)
class ArchitectureType:
    type_id: int
    access: AccessMode
    compute: ComputeMode
    storage: StorageMode

    @property
    def tuple_label(self) -> str:
        return f"A{self.access.value},B{self.compute.value},C{self.storage.value}"

    def modified_components(self) -> int:
        return sum(
            1
            for mode in (self.access, self.compute, self.storage)
            if mode.value != 1
        )


_TYPE_TUPLES: dict[int, tuple[int, int, int]] = {
    1: (1, 1, 1), 2: (1, 1, 2), 3: (1, 1, 3),
    4: (1, 2, 1), 5: (1, 2, 2), 6: (1, 2, 3),
    7: (2, 1, 1), 8: (2, 1, 2), 9: (2, 1, 3),
    10: (2, 2, 1), 11: (2, 2, 2), 12: (2, 2, 3),
}
_TUPLE_TO_TYPE = {v: k for k, v in _TYPE_TUPLES.items()}


def architecture(type_id: int) -> ArchitectureType:
    if type_id not in _TYPE_TUPLES:
        raise ValueError(f"architecture type id must be 1..12, got {type_id}")
    a, b, c = _TYPE_TUPLES[type_id]
    return ArchitectureType(type_id, AccessMode(a), ComputeMode(b), StorageMode(c))


def type_from_tuple(access_mode: AccessMode, compute_mode: ComputeMode,
                    storage_mode: StorageMode) -> ArchitectureType:
    type_id = _TUPLE_TO_TYPE[(access_mode.value, compute_mode.value, storage_mode.value)]
    return ArchitectureType(type_id, access_mode, compute_mode, storage_mode)


def parse_tuple(text: str) -> ArchitectureType:
    """Parse 'A1,B2,C3' (case-insensitive, spaces allowed)."""
    parts = [p.strip().upper() for p in text.split(",")]
    if len(parts) != 3 or [p[0] for p in parts] != ["A", "B", "C"]:
        raise ValueError(f"expected 'Aa,Bb,Cc', got {text!r}")
    try:
        a, b, c = (int(p[1:]) for p in parts)
        return type_from_tuple(AccessMode(a), ComputeMode(b), StorageMode(c))
    except (ValueError, KeyError) as err:
        raise ValueError(f"invalid architecture tuple {text!r}") from err


ALL_TYPES = tuple(architecture(i) for i in range(1, 13))


@dataclass(frozen=True)
class SimConfig:
    """Dial set for one simulation run; defaults are the desk-scale setup.

    The chain's settings live in `consensus`; faults live in FaultPlan.
    """

    seed: int = 42
    consensus: ConsensusConfig = ConsensusConfig()
    gas_schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE
    storage_nodes: int = 10
    replicas: int = storage.DEFAULT_REPLICAS
    inline_threshold: int = storage.DEFAULT_INLINE_THRESHOLD
    inline_cap: int = storage.INLINE_CAP_BYTES
    batch_size: int = 10
    offchain_fraction: float = 0.5

    def __post_init__(self):
        check_int("seed", self.seed)
        for name in ("storage_nodes", "replicas", "inline_threshold", "batch_size"):
            check_int(name, getattr(self, name), 1)
        if self.replicas > self.storage_nodes:
            raise ValueError(f"replicas must be <= storage nodes ({self.storage_nodes}), got {self.replicas}")
        check_int("inline_cap", self.inline_cap, 0)
        if isinstance(self.offchain_fraction, bool) or not 0.0 <= self.offchain_fraction <= 1.0:
            raise ValueError(f"offchain_fraction must be in [0, 1], got {self.offchain_fraction}")


@dataclass
class SimulationTopology:
    """A composed architecture instance ready to run a workload; the chain holds its state."""

    chain: consensus.ChainNetwork
    fabric: storage.StorageFabric
    agent: access.Agent | None


def storage_plan_for(arch: ArchitectureType, config: SimConfig) -> storage.StoragePlan:
    return storage.StoragePlan(route=storage.Route[arch.storage.name], replicas=config.replicas,
                               inline_threshold=config.inline_threshold,
                               inline_cap=config.inline_cap)


def compose(arch: ArchitectureType, sim_config: SimConfig, *,
            funded: dict[bytes, int] | None = None,
            registered_users: tuple[bytes, ...] = (),
            faults: FaultPlan = NO_FAULTS,
            keep_history: bool = False) -> SimulationTopology:
    """Wire access, computation, storage and one chain into a topology.

    funded seeds fungible-token balances at genesis (the sum becomes the
    total supply); registered_users are granted to the agent when the
    access mode is agent-based. faults is the only fault configuration:
    every field of the plan is wired here, and the plan may name no more
    byzantine maintainers than sim_config has. keep_history goes to the
    chain. The chain accepts the agent's key; callers register their own
    wallets' keys with it.
    """
    n_nodes = sim_config.consensus.n_nodes
    faults.check_fits(n_nodes)
    state = vm.ContractState()

    deploy = vm.deploy_contract
    deploy(state, vm.ContractDef(FT_ID, vm.ContractKind.FUNGIBLE_TOKEN,
                                 {"supply": 0, "deployer": b"\x00" * 20}))
    deploy(state, vm.ContractDef(NFT_ID, vm.ContractKind.NON_FUNGIBLE_TOKEN, {}))
    deploy(state, vm.ContractDef(MARKET_ID, vm.ContractKind.NFT_MARKET,
                                 {"nft": NFT_ID, "token": FT_ID}))
    deploy(state, vm.ContractDef(VERIFIER_ID, vm.ContractKind.HYBRID_VERIFIER, {}))

    total = 0
    for payload, amount in sorted((funded or {}).items()):
        state.set_storage(FT_ID, b"bal:" + payload, amount.to_bytes(16, "big"))
        total += amount
    state.set_storage(FT_ID, b"sup:", total.to_bytes(16, "big"))

    agent = None
    if arch.access is AccessMode.AGENT:
        agent = access.Agent.create(
            b"agent/" + str(sim_config.seed).encode(),
            batch_size=sim_config.batch_size, behavior=faults.agent_behavior)
        for user in registered_users:
            agent.register_user(user)
        agent.genesis_registrations(state)

    delegation = None
    if arch.compute is ComputeMode.HYBRID:
        delegation = vm.DelegationPolicy(
            offchain_fraction=sim_config.offchain_fraction,
            executor_behavior=faults.executor_behavior,
            tamper_target=faults.tamper_target,
            run_seed=sim_config.seed)

    behaviors = [
        consensus.NodeBehavior.BYZANTINE if i < faults.byzantine_maintainers
        else consensus.NodeBehavior.HONEST
        for i in range(n_nodes)
    ]
    # The quorum rule reads the byzantine nodes' behaviours; the majority-chain
    # rule reads the adversary's share of block production, their share of nodes.
    chain = consensus.ChainNetwork(sim_config.consensus, state, sim_config.gas_schedule,
                                   seed=sim_config.seed, behaviors=behaviors,
                                   byz_mode=faults.byz_mode,
                                   crash_prob=faults.maintainer_crash_prob,
                                   adversarial_share=behaviors.count(
                                       consensus.NodeBehavior.BYZANTINE) / len(behaviors),
                                   delegation=delegation, keep_history=keep_history)
    if agent is not None:
        chain.register_key(agent.keypair)

    fabric = storage.StorageFabric(
        storage_plan_for(arch, sim_config),
        store=storage.OffChainStore(sim_config.storage_nodes),
        crash_prob=faults.storage_crash_prob, seed=sim_config.seed,
    )

    return SimulationTopology(chain=chain, fabric=fabric, agent=agent)

