"""Scenario scripts and fault plans.

Scripts are line-oriented: one `step arg=value ...` record per line,
with `#` comments. The canonical workload is the two-actor NFT sale:
the seller mints and lists, the buyer pays, ownership moves, and the
buyer reads the confirmed state back.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum

from .access import AgentBehavior
from .consensus import ByzantineMode
from .vm import TAMPER_TARGETS, ExecutorBehavior, check_int


class StepKind(Enum):
    CREATE_IDENTITY = "create_identity"
    CONNECT_WALLET = "connect_wallet"
    MINT_NFT = "mint_nft"
    LIST_NFT = "list_nft"
    BUY_NFT = "buy_nft"
    RETRIEVE_STATE = "retrieve_state"


# The parameters each step takes besides actor, as (default, low, bits): a value is
# at least low and, if bits is set, below 2**bits. A price is 16 bytes on-chain.
_STEP_PARAMS: dict[StepKind, dict[str, tuple[int, int, int | None]]] = {
    StepKind.MINT_NFT: {"data_size": (768, 0, None)},
    StepKind.LIST_NFT: {"price": (100, 0, 128)},
    StepKind.BUY_NFT: {"price": (100, 0, 128)},
}
_OP_KINDS = (StepKind.MINT_NFT, StepKind.LIST_NFT, StepKind.BUY_NFT, StepKind.RETRIEVE_STATE)


@dataclass(frozen=True)
class Step:
    kind: StepKind
    actor: str
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        ranges = _STEP_PARAMS.get(self.kind, {})
        for i, (key, value) in enumerate(self.params):
            if key not in ranges:
                raise ValueError(f"{self.kind.value} takes no parameter {key!r}")
            if key in dict(self.params[:i]):
                raise ValueError(f"{key} given twice")
            check_int(key, value)
            _, low, bits = ranges[key]
            if value < low or (bits is not None and value >> bits):
                bound = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
                raise ValueError(f"{key} must be {bound}, got {value}")

    def param(self, key: str) -> int:
        return dict(self.params).get(key, _STEP_PARAMS[self.kind][key][0])


class ScriptError(ValueError):
    """A broken rule over a script's steps as a whole."""


@dataclass(frozen=True)
class ScenarioScript:
    steps: tuple[Step, ...]
    repetitions: int = 1

    def __post_init__(self):
        check_int("repetitions", self.repetitions, 1)
        kinds = [s.kind for s in self.steps]
        if not any(kind in _OP_KINDS for kind in kinds):
            raise ScriptError(f"steps must include one of {', '.join(k.value for k in _OP_KINDS)}, "
                              f"got {[k.value for k in kinds]}")
        if StepKind.BUY_NFT in kinds and StepKind.LIST_NFT in kinds:
            if kinds.index(StepKind.BUY_NFT) < kinds.index(StepKind.LIST_NFT):
                raise ScriptError("a token cannot be bought before it is listed")


def nft_sale_script(data_size: int = _STEP_PARAMS[StepKind.MINT_NFT]["data_size"][0],
                    price: int = _STEP_PARAMS[StepKind.LIST_NFT]["price"][0], repetitions: int = 30,
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


def parse_scenario(text: str) -> ScenarioScript:
    """The script in text; a malformed line raises ValueError naming the line.

    Step and ScenarioScript check the values; a rule over the steps as a
    whole is reported at the last line.
    """
    steps: list[Step] = []
    repetitions, repeat_line, lineno = 1, None, 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        name, actors, params = tokens[0].lower(), [], []
        for token in tokens[1:]:
            key, eq, value = token.partition("=")
            if not eq:
                raise ValueError(f"line {lineno}: expected arg=value, got {token!r}")
            if key == "actor" and name != "repeat":
                actors.append(value)
                continue
            try:
                params.append((key, int(value)))
            except ValueError as err:
                raise ValueError(f"line {lineno}: {key} must be an integer, got {value!r}") from err
        if len(actors) > 1:
            raise ValueError(f"line {lineno}: actor given twice")
        if name == "repeat":
            if repeat_line is not None:
                raise ValueError(f"line {lineno}: a second repeat line")
            if [key for key, _ in params] not in ([], ["count"]):
                raise ValueError(f"line {lineno}: repeat takes one count, got {params}")
            repetitions, repeat_line = dict(params).get("count", 1), lineno
            continue
        try:  # an unknown name is no StepKind
            steps.append(Step(StepKind(name), actors[0] if actors else "alice",
                              tuple(sorted(params))))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from err
    try:
        return ScenarioScript(steps=tuple(steps), repetitions=repetitions)
    except ValueError as err:
        raise ValueError(f"line {lineno if isinstance(err, ScriptError) else repeat_line}: "
                         f"{err}") from err


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
        for name in ("maintainer_crash_prob", "storage_crash_prob"):
            p = getattr(self, name)
            if isinstance(p, bool) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        check_int("byzantine_maintainers", self.byzantine_maintainers, 0)
        if self.tamper_target not in TAMPER_TARGETS:
            raise ValueError(f"tamper_target must be one of {TAMPER_TARGETS}, "
                             f"got {self.tamper_target!r}")

    def check_fits(self, n_nodes: int) -> None:
        """Raise ValueError if the plan names more byzantine maintainers than n_nodes."""
        if self.byzantine_maintainers > n_nodes:
            raise ValueError(f"byzantine_maintainers must be <= n_nodes ({n_nodes}), "
                             f"got {self.byzantine_maintainers}")


NO_FAULTS = FaultPlan()

# The default stress plan for availability measurements: flaky storage
# nodes and a lying off-chain executor, honest agent and maintainers.
DEFAULT_FAULTS = FaultPlan(storage_crash_prob=0.6,
                           executor_behavior=ExecutorBehavior.MALICIOUS)


def parse_faults(text: str) -> FaultPlan:
    """The plan in text, a settings file over FaultPlan's fields."""
    return parse_settings(text, NO_FAULTS)


def _config_items(prefix: str, config) -> list[tuple[str, object]]:
    """(dotted field path, value) for every leaf setting of a config dataclass."""
    items = []
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            items += _config_items(f"{prefix}{f.name}.", value)
        else:
            items.append((prefix + f.name, value.value if isinstance(value, Enum) else value))
    return items


def settings_text(config) -> str:
    """One `key = value` line per leaf setting of a config dataclass, which parse_settings reads."""
    return "".join(f"{key} = {value}\n" for key, value in _config_items("", config))


def _parse_value(current, text: str):
    """text read as a value of current's type: int, float, str, an Enum by its value, or a tuple."""
    if isinstance(current, tuple):
        parts = text.strip("()").split(",")
        if len(parts) != len(current):
            raise ValueError(f"expected {len(current)} comma-separated values, got {text!r}")
        return tuple(_parse_value(item, part.strip()) for item, part in zip(current, parts))
    return type(current)(text)


def _with(config, names: list[str], value):
    """config with the setting at the field path names set to value."""
    name, *rest = names
    if rest:
        value = _with(getattr(config, name), rest, value)
    return replace(config, **{name: value})


def parse_settings(text: str, default):
    """default with the settings of text; a bad line raises ValueError naming the line.

    Each line is `key = value`, keyed by a leaf setting's dotted field path
    as _config_items writes it; a key given twice is an error. A value is
    read by the type of the setting's value in default, and set with
    replace, so the types' own checks fail on the line with the bad value.
    A check between two settings (replicas and storage_nodes) sees the
    file's value of both, whichever line comes first.
    """
    leaves = {key for key, _ in _config_items("", default)}
    todo: dict[str, tuple[int, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in leaves:
            raise ValueError(f"line {lineno}: unknown setting {key!r}")
        if key in todo:
            raise ValueError(f"line {lineno}: {key} given twice")
        current = default
        for name in key.split("."):
            current = getattr(current, name)
        try:
            todo[key] = lineno, _parse_value(current, value)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {key}: {err}") from err
    # Set what can be set until nothing more can: a line that fails only
    # against a setting of a later line passes once that line is set.
    config = default
    while todo:
        failed = {}
        for key, (lineno, value) in todo.items():
            try:
                config = _with(config, key.split("."), value)
            except ValueError as err:
                failed[key] = lineno, err
        if len(failed) == len(todo):
            lineno, err = next(iter(failed.values()))  # the first bad line
            raise ValueError(f"line {lineno}: {err}") from err
        todo = {key: todo[key] for key in failed}
    return config
