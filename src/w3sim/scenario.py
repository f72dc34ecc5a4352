"""Scenario scripts and fault plans.

Scripts are line-oriented: one `step arg=value ...` record per line,
with `#` comments. The canonical workload is the two-actor NFT sale:
the seller mints and lists, the buyer pays, ownership moves, and the
buyer reads the confirmed state back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .access import AgentBehavior
from .consensus import ByzantineMode
from .vm import TAMPER_TARGETS, ExecutorBehavior


class StepKind(Enum):
    CREATE_IDENTITY = "create_identity"
    CONNECT_WALLET = "connect_wallet"
    MINT_NFT = "mint_nft"
    LIST_NFT = "list_nft"
    BUY_NFT = "buy_nft"
    RETRIEVE_STATE = "retrieve_state"


@dataclass(frozen=True)
class Step:
    kind: StepKind
    actor: str
    params: tuple[tuple[str, int], ...] = ()

    def param(self, key: str, default: int = 0) -> int:
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class ScenarioScript:
    steps: tuple[Step, ...]
    repetitions: int = 1

    def __post_init__(self):
        kinds = [s.kind for s in self.steps]
        if StepKind.BUY_NFT in kinds and StepKind.LIST_NFT in kinds:
            if kinds.index(StepKind.BUY_NFT) < kinds.index(StepKind.LIST_NFT):
                raise ValueError("a token cannot be bought before it is listed")


def nft_sale_script(data_size: int = 768, price: int = 100, repetitions: int = 30,
                    seller: str = "alice", buyer: str = "bob") -> ScenarioScript:
    """The default two-actor sale workload."""
    return ScenarioScript(
        steps=(
            Step(StepKind.CREATE_IDENTITY, seller),
            Step(StepKind.CREATE_IDENTITY, buyer),
            Step(StepKind.CONNECT_WALLET, seller),
            Step(StepKind.CONNECT_WALLET, buyer),
            Step(StepKind.MINT_NFT, seller, (("data_size", data_size),)),
            Step(StepKind.LIST_NFT, seller, (("price", price),)),
            Step(StepKind.BUY_NFT, buyer, (("price", price),)),
            Step(StepKind.RETRIEVE_STATE, buyer),
        ),
        repetitions=repetitions,
    )


# The parameters each step takes besides actor: each value is an int of
# at least low and, if bits is set, below 2**bits. A price is 16 bytes
# on-chain.
_STEP_PARAMS: dict[str, dict[str, tuple[int, int | None]]] = {
    "repeat": {"count": (1, None)},
    StepKind.MINT_NFT.value: {"data_size": (0, None)},
    StepKind.LIST_NFT.value: {"price": (0, 128)},
    StepKind.BUY_NFT.value: {"price": (0, 128)},
}


def _params(lineno: int, name: str, kv: dict[str, str]) -> dict[str, int]:
    """The values of kv, each checked to be a parameter that step name takes, in range."""
    ranges = _STEP_PARAMS.get(name, {})
    values = {}
    for key, value in kv.items():
        if key not in ranges:
            raise ValueError(f"line {lineno}: {name} takes no parameter {key!r}")
        low, bits = ranges[key]
        try:
            n = int(value)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {key} must be an integer, got {value!r}") from err
        if n < low or (bits is not None and n >> bits):
            bound = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
            raise ValueError(f"line {lineno}: {key} must be {bound}, got {n}")
        values[key] = n
    return values


def parse_scenario(text: str) -> ScenarioScript:
    """The script in text; a malformed line raises ValueError naming the line.

    A step takes actor and the parameters _STEP_PARAMS lists for it, each
    at most once and in range; at most one repeat line sets the count.
    """
    steps: list[Step] = []
    repetitions = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name, kv = tokens[0].lower(), {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ValueError(f"line {lineno}: expected arg=value, got {token!r}")
            key, value = token.split("=", 1)
            if key in kv:
                raise ValueError(f"line {lineno}: {key} given twice")
            kv[key] = value
        if name == "repeat":
            if repetitions is not None:
                raise ValueError(f"line {lineno}: a second repeat line")
            repetitions = _params(lineno, name, kv).get("count", 1)
            continue
        try:
            kind = StepKind(name)
        except ValueError as err:
            raise ValueError(f"line {lineno}: unknown step {name!r}") from err
        actor = kv.pop("actor", "alice")
        steps.append(Step(kind, actor, tuple(sorted(_params(lineno, name, kv).items()))))
    return ScenarioScript(steps=tuple(steps), repetitions=1 if repetitions is None else repetitions)


def scenario_text(script: ScenarioScript) -> str:
    lines = []
    for step in script.steps:
        parts = [step.kind.value, f"actor={step.actor}"]
        parts.extend(f"{k}={v}" for k, v in step.params)
        lines.append(" ".join(parts))
    lines.append(f"repeat count={script.repetitions}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FaultPlan:
    maintainer_crash_prob: float = 0.0
    byzantine_maintainers: int = 0
    byz_mode: ByzantineMode = ByzantineMode.SILENT
    agent_behavior: AgentBehavior = AgentBehavior.HONEST
    storage_crash_prob: float = 0.0
    executor_behavior: ExecutorBehavior = ExecutorBehavior.HONEST
    tamper_target: str = "auto"

    def __post_init__(self):
        for p in (self.maintainer_crash_prob, self.storage_crash_prob):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must be in [0, 1]")
        if self.tamper_target not in TAMPER_TARGETS:
            raise ValueError(f"tamper_target must be one of {TAMPER_TARGETS}, "
                             f"got {self.tamper_target!r}")


NO_FAULTS = FaultPlan()

# The default stress plan for availability measurements: flaky storage
# nodes and a lying off-chain executor, honest agent and maintainers.
DEFAULT_FAULTS = FaultPlan(storage_crash_prob=0.6,
                           executor_behavior=ExecutorBehavior.MALICIOUS)


# Fault-plan file keys and how each value is read; an absent key keeps
# the FaultPlan default.
_FAULT_KEYS = {
    "maintainer_crash_prob": float,
    "byzantine_maintainers": int,
    "byz_mode": ByzantineMode,
    "agent_behavior": AgentBehavior,
    "storage_crash_prob": float,
    "executor_behavior": ExecutorBehavior,
    "tamper_target": str,
}


def parse_faults(text: str) -> FaultPlan:
    kv: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _FAULT_KEYS:
            raise ValueError(f"line {lineno}: unknown fault setting {key!r}")
        kv[key] = _FAULT_KEYS[key](value)
    return FaultPlan(**kv)


def faults_text(plan: FaultPlan) -> str:
    return (
        f"maintainer_crash_prob = {plan.maintainer_crash_prob}\n"
        f"byzantine_maintainers = {plan.byzantine_maintainers}\n"
        f"byz_mode = {plan.byz_mode.value}\n"
        f"agent_behavior = {plan.agent_behavior.value}\n"
        f"storage_crash_prob = {plan.storage_crash_prob}\n"
        f"executor_behavior = {plan.executor_behavior.value}\n"
        f"tamper_target = {plan.tamper_target}\n"
    )
