"""Scenario-driven architecture evaluation.

Runs the NFT sale workload on a composed architecture, measures the
quantitative metrics (throughput, scaling, gas, availability, undetected
integrity breaks) and derives the rule-scored ordinals (security,
anonymity, confidentiality, usability, stakeholder benefits). A sweep
over all twelve types compares each one against the Type1 baseline and
diffs the resulting ordinal matrix against the pinned reference matrix.

Each quality attribute is measured under its own stimulus, in the spirit
of scenario-based trade-off analysis: throughput/gas on a fault-free run,
the scaling slope between 4 and 10 maintainers, availability and
integrity under the fault plan. All sub-runs share one seed, so a report
is a pure function of (architecture, script, faults, seed, config). A
report costs at most two sub-runs, the fault-free main run and the
faulted run: without faults the maintainer count changes only the clock,
so the scaling grid is re-timed from the main run's round trace instead
of being simulated again.

Sub-runs that are provably the same run are made once. A run depends on
the architecture only through its access mode, its compute mode and the
storage route the script's data takes (_run_shape), and on the fault plan
only through the faults that can reach that shape (_reaching_faults). So
the faulted run is the main run when no fault reaches it (Types 1 and 7
under DEFAULT_FAULTS), and a sweep runs the types of one shape once (at
the default inputs, the hybrid- and off-chain-storage pairs 2/3, 5/6, 8/9
and 11/12, whose 768-byte blobs go off-chain either way).
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable, Iterator
from dataclasses import InitVar, dataclass, replace
from functools import partial
from random import Random
from typing import NamedTuple

from . import access, txcraft, vm
from .archetypes import (
    ALL_TYPES,
    NFT_ID,
    MARKET_ID,
    AccessMode,
    ArchitectureType,
    ComputeMode,
    SimConfig,
    StorageMode,
    architecture,
    compose,
    storage_plan_for,
    type_from_tuple,
)
from .consensus import ConsensusConfig, RoundRecord, round_ticks
from .scenario import (
    DEFAULT_FAULTS,
    NO_FAULTS,
    FaultPlan,
    ScenarioScript,
    Step,
    StepKind,
    _config_items,
    nft_sale_script,
)
from .storage import InlineTooLarge, Route, StorageError

SCALE_GRID = (4, 10)  # maintainer counts the scalability slope spans
DEAD_BAND = 0.05  # relative dead-band for measured-sign computation


class ScenarioInfeasible(Exception):
    pass


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class RunStats:
    """What one run counted, built once when the run ends.

    The op counts are the run's own; the transaction, clock, gas, fault
    and discard counts are the chain's, and offchain_bytes (bytes written
    off-chain, times the replicas that hold them) is the storage fabric's.
    discards holds (reason, count) pairs, sorted by reason.
    """

    ops_attempted: int
    ops_succeeded: int
    onchain_ops: int
    txs_confirmed: int
    ticks: int
    gas_total: int
    safety_breaks: int
    integrity_violations: int
    discards: tuple[tuple[str, int], ...]
    offchain_bytes: int
    infeasible_reason: str | None
    rounds: InitVar[list[RoundRecord]]

    def __post_init__(self, rounds: list[RoundRecord]):
        # The chain's per-round trace, kept as a plain attribute, not a
        # field, so asdict() and == cover the counters above only.
        object.__setattr__(self, "rounds", rounds)

    @property
    def violations(self) -> int:
        """Undetected integrity breaks: safety breaks and silent tampers together."""
        return self.safety_breaks + self.integrity_violations


def actor_seed(seed: int, name: str) -> bytes:
    return f"actor/{seed}/{name}".encode()


def _token_id(rep: int) -> bytes:
    """The id of the token that repetition rep mints, lists and sells."""
    return rep.to_bytes(32, "big")


class _Wave:
    """One step's ops, known by their signer and the range of numbers they went out under.

    A direct op's number is its transaction's nonce, an agent op's its
    bundle sequence number. A step has one actor, whose numbers come one
    after another and above every number used before, and the chain lets
    each number succeed at most once. So a success within [first, next) is
    one of the wave's ops, and a late one from an earlier wave falls below
    first.
    """

    __slots__ = ("signer", "first", "next", "submitted", "succeeded")

    def __init__(self, signer: bytes):
        self.signer = signer
        self.first = self.next = 0  # an empty range until the first op goes out
        self.submitted = self.succeeded = 0

    def add(self, number: int) -> None:
        """Count an op that went out under number."""
        if not self.submitted:
            self.first = number
        self.next = number + 1
        self.submitted += 1


class _ScenarioRun:
    """One architecture, one script, one fault plan, one seed.

    Each step's ops form a wave. A wave goes to the chain in windows that
    fit the transaction pool: once the pool has no slot left for the next
    op's transaction, the chain runs until it is quiescent, then the next
    window starts. A chain that stalls (ChainNetwork.stall_rounds rounds
    without progress) ends the wave: in a faulted run the wave's
    unconfirmed and unsubmitted ops fail, which is the availability the
    run measures; a fault-free run that stalls is infeasible.
    """

    FUND = 10**12

    def __init__(self, arch: ArchitectureType, script: ScenarioScript,
                 sim: SimConfig, faults: FaultPlan, keep_history: bool = False):
        self.arch = arch
        self.script = script
        self.sim = sim
        self.faults = faults
        self.ops_attempted = self.ops_succeeded = self.onchain_ops = 0
        names = sorted({step.actor for step in script.steps})
        self.wallets = {
            name: access.WalletClient.create(actor_seed(sim.seed, name)) for name in names
        }
        funded = {w.address.payload: self.FUND for w in self.wallets.values()}
        registered = tuple(w.address.payload for _, w in sorted(self.wallets.items()))
        self.topology = compose(arch, sim, funded=funded, registered_users=registered,
                                faults=faults, keep_history=keep_history)
        for wallet in self.wallets.values():
            self.topology.chain.register_key(wallet.keypair)
        self.data_rng = Random(sim.seed ^ 0xDA7A)
        self.wave = _Wave(b"")
        self.wave_stalled = False  # the chain stalled in this wave; its later ops fail

    # -- step helpers -----------------------------------------------------

    def _submit(self, wallet: access.WalletClient, call: txcraft.TxPayload):
        topo = self.topology
        self.ops_attempted += 1
        if not self.wave_stalled and not self._has_slot():
            self._drain()  # the window is full: run the chain until it is quiescent
        if self.wave_stalled:
            return  # a stall ended the wave; its later ops fail unsubmitted
        try:
            if topo.agent is not None:
                number = access.submit_via_agent(topo.agent, wallet.address.payload, call,
                                                 topo.chain, self.sim.gas_schedule).seq
            else:
                access.submit_direct(wallet, topo.chain, call, self.sim.gas_schedule)
                number = wallet.nonce_cache - 1
        except access.AccessError:
            return  # op failed before reaching the chain
        self.wave.add(number)

    def _has_slot(self) -> bool:
        """True if the pool can take the transaction that the next op goes out in.

        An agent op joins the bundle the buffer is filling, whose slot was
        taken when the bundle's first op came in.
        """
        topo = self.topology
        if topo.agent is not None and topo.agent.batch_buffer:
            return True
        return topo.chain.has_room()

    def _drain(self):
        """Flush the agent and run the chain until it is quiescent or stalls."""
        topo = self.topology
        chain = topo.chain
        if topo.agent is not None:
            access.flush(topo.agent, chain, self.sim.gas_schedule)
        # Passed per call, never stored: a bound method held by the chain
        # would make the run a reference cycle.
        chain.run_until_drained(sink=self._absorb)
        if not chain.quiescent:
            if self.faults == NO_FAULTS:
                raise ScenarioInfeasible(
                    f"chain stalled: {chain.stall_rounds} rounds without progress "
                    f"with {self.wave.submitted - self.wave.succeeded} ops unconfirmed")
            self.wave_stalled = True

    def _absorb(self, confirmations) -> None:
        """Count the wave's ops that a round confirmed as succeeded.

        A direct op is its signer's transaction, found by (sender, nonce);
        an agent op is an OpOk event of the bundle, found by (origin, seq).
        """
        wave = self.wave
        for c in confirmations:
            if not c.receipt.success:
                continue  # a reverted tx failed, and its receipt has no events
            meta = c.tx.metadata
            if meta.sender.payload == wave.signer and wave.first <= meta.nonce < wave.next:
                wave.succeeded += 1
            for ev in c.receipt.events:
                if (ev.name == "OpOk" and ev.field("origin") == wave.signer
                        and wave.first <= ev.field("seq") < wave.next):
                    wave.succeeded += 1

    def _settle_wave(self) -> None:
        """Drain the chain and count the wave's succeeded ops.

        An op still unconfirmed once the chain drains or stalls failed.
        """
        if not self.wave_stalled:
            self._drain()
        self.wave_stalled = False
        self.ops_succeeded += self.wave.succeeded
        self.onchain_ops += self.wave.succeeded

    # -- steps --------------------------------------------------------------

    def run(self) -> RunStats:
        # A run builds no reference cycle, so reference counting frees all
        # of it; pausing the cyclic collector stops its passes from
        # rescanning the run's state (storage cells, tx indexes, round
        # trace) as it grows. The caller's state is restored, so a
        # collector it had turned off stays off.
        collecting = gc.isenabled()
        gc.disable()
        infeasible_reason = None
        try:
            for step in self.script.steps:
                self._run_step_wave(step)
        except ScenarioInfeasible as err:
            infeasible_reason = str(err)
        finally:
            if collecting:
                gc.enable()
        chain = self.topology.chain
        return RunStats(
            ops_attempted=self.ops_attempted, ops_succeeded=self.ops_succeeded,
            onchain_ops=self.onchain_ops, txs_confirmed=chain.txs_confirmed, ticks=chain.now,
            gas_total=chain.gas_total, safety_breaks=chain.safety_breaks,
            integrity_violations=chain.integrity_violations,
            discards=tuple(sorted(chain.discards.items())),
            offchain_bytes=self.topology.fabric.offchain_bytes,
            infeasible_reason=infeasible_reason, rounds=chain.rounds)

    def _run_step_wave(self, step: Step):
        wallet = self.wallets[step.actor]
        self.wave = _Wave(wallet.address.payload)
        kind = step.kind
        if kind is StepKind.CREATE_IDENTITY:
            return  # identities were derived when the wallet was built
        if kind is StepKind.CONNECT_WALLET:
            access.connect_wallet(wallet, "nft-market")
            return
        if kind is StepKind.MINT_NFT:
            size = step.param("data_size")
            for rep in range(self.script.repetitions):
                try:
                    record = access.prepare_data(self.data_rng.randbytes(size),
                                                 self.topology.fabric)
                except InlineTooLarge as err:  # only the on-chain route has nowhere else to put it
                    raise ScenarioInfeasible(f"InlineTooLarge: {err}") from err
                except StorageError:
                    self.ops_attempted += 1
                    continue
                self._submit(wallet, txcraft.TxPayload(NFT_ID, "mint", (_token_id(rep),), record))
            self._settle_wave()
            return
        if kind in (StepKind.LIST_NFT, StepKind.BUY_NFT):
            method = "list" if kind is StepKind.LIST_NFT else "buy"
            price = step.param("price").to_bytes(16, "big")
            for rep in range(self.script.repetitions):
                self._submit(wallet, txcraft.TxPayload(MARKET_ID, method, (_token_id(rep), price)))
            self._settle_wave()
            return
        if kind is StepKind.RETRIEVE_STATE:
            for rep in range(self.script.repetitions):
                self.ops_attempted += 1
                if self._retrieve_ok(wallet, rep):
                    self.ops_succeeded += 1
            return
        raise ValueError(f"unhandled step kind {kind}")

    def _retrieve_ok(self, wallet: access.WalletClient, rep: int) -> bool:
        """True if the wallet owns rep's token and storage serves the data its record names."""
        state, token = self.topology.chain.state, (_token_id(rep),)
        try:
            if vm.query_state(state, NFT_ID, "ownerOf", token) != wallet.address.payload:
                return False
            self.topology.fabric.read(vm.query_state(state, NFT_ID, "dataOf", token))
        except (vm.QueryError, StorageError):
            return False
        return True


def run_raw(arch: ArchitectureType, script: ScenarioScript, sim: SimConfig,
            faults: FaultPlan) -> RunStats:
    return _ScenarioRun(arch, script, sim, faults).run()


def _run_shape(arch: ArchitectureType, script: ScenarioScript,
               sim: SimConfig) -> tuple[AccessMode, ComputeMode, Route]:
    """The parts of arch that its run of script under sim depends on.

    They are the access mode, the compute mode and the storage route the
    script's data takes. An empty blob is never stored, so the data takes
    the on-chain route when arch's plan inlines every non-empty blob, the
    off-chain route when it inlines none, and the hybrid one otherwise.
    """
    plan = storage_plan_for(arch, sim)
    sizes = [step.param("data_size") for step in script.steps if step.kind is StepKind.MINT_NFT]
    inlined = {plan.inlines(size) for size in sizes if size}
    route = (Route.HYBRID if len(inlined) == 2 else
             Route.OFF_CHAIN if inlined == {False} else Route.ON_CHAIN)
    return arch.access, arch.compute, route


def _reaching_faults(arch: ArchitectureType, script: ScenarioScript, sim: SimConfig,
                     faults: FaultPlan) -> FaultPlan:
    """faults with each field that cannot act on arch's run reset to its NO_FAULTS value.

    Storage crashes act only on off-chain writes and reads, the executor
    only on delegated computation, the agent only under agent access;
    maintainer faults act on every chain, but the byzantine mode only when
    some maintainer is byzantine: only byzantine nodes read it, and the
    majority-chain rule then sees an adversarial share of 0.
    """
    access_mode, compute_mode, route = _run_shape(arch, script, sim)
    cut = {}
    if route is Route.ON_CHAIN:
        cut["storage_crash_prob"] = NO_FAULTS.storage_crash_prob
    if compute_mode is ComputeMode.ON_CHAIN:
        cut["executor_behavior"] = NO_FAULTS.executor_behavior
        cut["tamper_target"] = NO_FAULTS.tamper_target
    if access_mode is AccessMode.BROWSER:
        cut["agent_behavior"] = NO_FAULTS.agent_behavior
    if faults.byzantine_maintainers == 0:
        cut["byz_mode"] = NO_FAULTS.byz_mode
    return replace(faults, **cut)


def _inputs(script: ScenarioScript | None, faults: FaultPlan | None, seed: int | None,
            sim: SimConfig | None) -> tuple[ScenarioScript, FaultPlan, SimConfig]:
    """(script, faults, base) with the defaults filled in and seed, if given, as base's seed.

    Each input checked itself when it was built; the plan is checked
    against base's chain here, so every entry point fails before any run.
    """
    base = (sim or SimConfig()) if seed is None else replace(sim or SimConfig(), seed=seed)
    faults = DEFAULT_FAULTS if faults is None else faults
    faults.check_fits(base.consensus.n_nodes)
    return script or nft_sale_script(), faults, base


def _reports(archs: list[ArchitectureType], script: ScenarioScript, faults: FaultPlan,
             base: SimConfig, main: RunStats | None = None) -> list[MetricReport]:
    """The reports on archs, which share one run shape, from their one main and faulted run.

    main, the fault-free run under base, is made here unless it is given.
    The faulted run is None when main is infeasible, which makes the
    reports infeasible whatever the faults do; main itself when no fault
    of the plan reaches the shape, since main did not stall; else a run
    under the plan as given, whose stall rule is the faulted one.
    """
    if main is None:
        main = run_raw(archs[0], script, base, NO_FAULTS)
    faulted = (None if main.infeasible_reason else
               main if _reaching_faults(archs[0], script, base, faults) == NO_FAULTS else
               run_raw(archs[0], script, base, faults))
    return [_report(arch, script, faults, base, main, faulted) for arch in archs]


# ---------------------------------------------------------------------------
# Metric reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    type_id: int
    tuple_label: str
    seed: int
    nodes: int
    feasible: bool
    infeasible_reason: str | None
    tps: float
    scalability_slope: float
    gas_total: int
    availability: float
    security_violations: int
    anonymity_score: int
    confidentiality_score: int
    usability_score: int
    ops_attempted: int
    ops_succeeded: int
    onchain_ops: int
    txs_confirmed: int
    ops_per_tx: float
    ticks: int
    agent_used: bool
    hybrid_used: bool
    offchain_used: bool
    config: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            out[key] = dict(value) if key == "config" else value
        return out


def _config_snapshot(sim: SimConfig, script: ScenarioScript, faults: FaultPlan) -> tuple:
    items = _config_items("", sim) + _config_items("faults.", faults)
    items.append(("repetitions", script.repetitions))
    return tuple(sorted((k, str(v)) for k, v in items))


def run_scenario(arch: ArchitectureType, script: ScenarioScript | None = None,
                 faults: FaultPlan | None = None, seed: int | None = None,
                 sim: SimConfig | None = None) -> MetricReport:
    """Measure one architecture under sim, with seed, if given, as its seed; deterministic."""
    return _reports([arch], *_inputs(script, faults, seed, sim))[0]


def _ticks_at(main: RunStats, consensus: ConsensusConfig, n_nodes: int) -> int:
    """The ticks main's rounds take among n_nodes maintainers.

    Exact for a fault-free run only. Without faults the maintainer count
    changes nothing but the clock: the blocks, their bytes and gas and the
    delay draws are the same at every n. Under faults it is not: crashes
    draw once per maintainer per round, and they change the round count.
    """
    return sum(round_ticks(consensus, n_nodes, record) for record in main.rounds)


def _report(arch: ArchitectureType, script: ScenarioScript, faults: FaultPlan,
            base: SimConfig, main: RunStats, faulted: RunStats | None) -> MetricReport:
    """The report on arch from its fault-free main run under base and its run under faults.

    faulted is read only when main is feasible.
    """
    scores = rule_scores(arch)
    common = dict(
        type_id=arch.type_id, tuple_label=arch.tuple_label, seed=base.seed,
        nodes=base.consensus.n_nodes,
        anonymity_score=scores.anonymity,
        confidentiality_score=scores.confidentiality,
        usability_score=scores.usability,
        agent_used=arch.access is AccessMode.AGENT,
        hybrid_used=arch.compute is ComputeMode.HYBRID,
        offchain_used=arch.storage is not StorageMode.ON_CHAIN,
        config=_config_snapshot(base, script, faults),
    )

    def infeasible(reason: str) -> MetricReport:
        return MetricReport(
            feasible=False, infeasible_reason=reason,
            tps=0.0, scalability_slope=0.0, gas_total=0, availability=0.0,
            security_violations=0, ops_attempted=main.ops_attempted, ops_succeeded=0,
            onchain_ops=0, txs_confirmed=0, ops_per_tx=0.0, ticks=main.ticks, **common)

    if main.infeasible_reason:
        return infeasible(main.infeasible_reason)

    # The scaling grid is re-timed from the main run's trace, not simulated
    # again; a trace that misses the run's own ticks has drifted from the clock.
    cons = base.consensus
    derived = _ticks_at(main, cons, cons.n_nodes)
    if derived != main.ticks:
        raise RuntimeError(f"round trace gives {derived} ticks at {cons.n_nodes} maintainers, "
                           f"the run took {main.ticks}")
    # Negated marginal per-op latency per added node: higher = scales better.
    # A plain tps difference is dominated by the tps level itself (faster
    # types fall more in absolute terms); the inverse-tps slope isolates
    # what one extra maintainer costs each confirmed operation.
    slope = 0.0
    if main.onchain_ops:
        lo, hi = SCALE_GRID
        latency = {n: _ticks_at(main, cons, n) / main.onchain_ops for n in SCALE_GRID}
        slope = -(latency[hi] - latency[lo]) / (hi - lo)

    if faulted.infeasible_reason:
        return infeasible(f"faulted run: {faulted.infeasible_reason}")
    availability = (faulted.ops_succeeded / faulted.ops_attempted) if faulted.ops_attempted else 0.0

    return MetricReport(
        feasible=True, infeasible_reason=None,
        tps=main.onchain_ops / main.ticks if main.ticks else 0.0,
        scalability_slope=slope,
        gas_total=main.gas_total,
        availability=availability,
        security_violations=faulted.violations,
        ops_attempted=main.ops_attempted,
        ops_succeeded=main.ops_succeeded,
        onchain_ops=main.onchain_ops,
        txs_confirmed=main.txs_confirmed,
        ops_per_tx=main.onchain_ops / main.txs_confirmed if main.txs_confirmed else 0.0,
        ticks=main.ticks,
        **common)


# ---------------------------------------------------------------------------
# Rule-scored ordinals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleScores:
    security: int
    anonymity: int
    confidentiality: int
    availability: int
    usability: int
    gas: int


def rule_scores(arch: ArchitectureType) -> RuleScores:
    """Component-local ordinal rules, relative to the all-on-chain baseline."""
    offchain_storage = arch.storage is not StorageMode.ON_CHAIN
    hybrid_compute = arch.compute is ComputeMode.HYBRID
    agent = arch.access is AccessMode.AGENT
    modified = arch.modified_components()
    return RuleScores(
        security=-(1 if offchain_storage else 0) - (2 if hybrid_compute else 0),
        anonymity=-3 if agent else 0,
        confidentiality=2 if (hybrid_compute or offchain_storage) else 0,
        availability=-2 if (hybrid_compute or offchain_storage) else 0,
        usability=modified,
        gas=modified,
    )


def stakeholder_benefits(arch: ArchitectureType) -> tuple[int, int, int]:
    """(user, provider, maintainer) signed ordinals."""
    m = arch.modified_components()
    return (m, -m, -m)


# ---------------------------------------------------------------------------
# Ordinal matrix
# ---------------------------------------------------------------------------


MERGED_GROUPS: tuple[tuple[int, ...], ...] = ((1,), (2, 3), (4,), (5, 6), (7,), (8, 9), (10,), (11, 12))


class Measured(NamedTuple):
    """A column's measured source: a report field, banded against the Type1 baseline's."""
    report_field: str  # averaged over a row's types
    better: int  # 1 if a higher value is better, -1 if a lower one is
    sign_key: str  # the sign cell, +1 where the row is better


class Column(NamedTuple):
    """One matrix column. Without a rule its dot cell is 0 in a measured matrix."""
    key: str  # the dot cell
    header: str  # the markdown heading
    dots: tuple[int, ...]  # the reference dot cell of each MERGED_GROUPS row
    rule: Callable[[ArchitectureType], int] | None = None  # a row's dot cell from its effective type
    measured: Measured | None = None  # its sign cell's reference is the sign of the dots


# The published columns, in order: moving a column from rule to measured is one entry.
COLUMNS: tuple[Column, ...] = (
    Column("performance", "Performance", (0, 2, 1, 2, 1, 2, 2, 3),
           measured=Measured("tps", 1, "performance_sign")),
    Column("scalability", "Scalability", (0, 2, 1, 2, 1, 2, 2, 3),
           measured=Measured("scalability_slope", 1, "scalability_sign")),
    Column("gas", "Gas Cost", (0, 1, 1, 2, 1, 2, 2, 3), lambda a: rule_scores(a).gas,
           Measured("gas_total", -1, "gas_trend_sign")),
    Column("security", "Security", (0, -1, -2, -3, 0, -1, -2, -3),
           lambda a: rule_scores(a).security),
    Column("anonymity", "Anonymity", (0, 0, 0, 0, -3, -3, -3, -3),
           lambda a: rule_scores(a).anonymity),
    Column("confidentiality", "Confidentiality", (0, 2, 2, 2, 0, 2, 2, 2),
           lambda a: rule_scores(a).confidentiality),
    Column("availability", "Availability", (0, -2, -2, -2, 0, -2, -2, -2),
           lambda a: rule_scores(a).availability,
           Measured("availability", 1, "availability_trend_sign")),
    Column("usability", "Usability", (0, 1, 1, 2, 1, 2, 2, 3), lambda a: rule_scores(a).usability),
    Column("user", "Web3 User", (0, 1, 1, 2, 1, 2, 2, 3), lambda a: stakeholder_benefits(a)[0]),
    Column("provider", "Service Provider", (0, -1, -1, -2, -1, -2, -2, -3),
           lambda a: stakeholder_benefits(a)[1]),
    Column("maintainer", "BC Maintainer", (0, -1, -1, -2, -1, -2, -2, -3),
           lambda a: stakeholder_benefits(a)[2]),
)


def _group_label(group: tuple[int, ...]) -> str:
    return "Type" + "/".join(str(t) for t in group)


def _group_tuple_label(group: tuple[int, ...]) -> str:
    archs = [architecture(t) for t in group]
    a = archs[0]
    c = "/".join(str(x.storage.value) for x in archs)
    return f"A{a.access.value},B{a.compute.value},C{c}"


@dataclass(frozen=True)
class MatrixRow:
    label: str
    tuple_label: str
    types: tuple[int, ...]
    cells: tuple[tuple[str, int], ...]

    def cell(self, column: str) -> int:
        for key, value in self.cells:
            if key == column:
                return value
        raise KeyError(column)


@dataclass(frozen=True)
class OrdinalMatrix:
    rows: tuple[MatrixRow, ...]

    def row(self, label: str) -> MatrixRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def cell(self, label: str, column: str) -> int:
        return self.row(label).cell(column)


def _row(group, dots: Callable[[Column], int], sign: Callable[[Column], int]) -> MatrixRow:
    """group's row: each column's dot cell, and each measured column's sign cell."""
    cells = {}
    for col in COLUMNS:
        cells[col.key] = dots(col)
        if col.measured:
            cells[col.measured.sign_key] = sign(col)
    return MatrixRow(label=_group_label(group), tuple_label=_group_tuple_label(group),
                     types=group, cells=tuple(sorted(cells.items())))


def reference_matrix() -> OrdinalMatrix:
    """The pinned reference evaluation: signed dot counts per merged row, and their signs."""
    return OrdinalMatrix(rows=tuple(
        _row(group, lambda col: col.dots[i], lambda col: (col.dots[i] > 0) - (col.dots[i] < 0))
        for i, group in enumerate(MERGED_GROUPS)))


def banded_sign(value: float, baseline: float, eps: float = DEAD_BAND) -> int:
    """sign(value - baseline) with a relative dead-band around the baseline."""
    band = eps * max(abs(baseline), 1e-12)
    delta = value - baseline
    if delta > band:
        return 1
    if delta < -band:
        return -1
    return 0


def compare(reports: dict[int, MetricReport], baseline: MetricReport,
            eps: float = DEAD_BAND) -> OrdinalMatrix:
    """Build the measured matrix: rule columns from effective composition,
    measured columns as banded signs against the baseline report."""
    rows = []
    for group in MERGED_GROUPS:
        members = [reports[t] for t in group if t in reports]
        if not members or not all(m.feasible for m in members) or not baseline.feasible:
            continue  # infeasible runs carry no comparable metrics
        eff = _effective_arch(members[0])

        def sign(col: Column) -> int:
            field, better, _ = col.measured
            mean = sum(getattr(m, field) for m in members) / len(members)
            return better * banded_sign(mean, getattr(baseline, field), eps)

        rows.append(_row(group, lambda col: col.rule(eff) if col.rule else 0, sign))
    return OrdinalMatrix(rows=tuple(rows))


def _effective_arch(report: MetricReport) -> ArchitectureType:
    return type_from_tuple(AccessMode.AGENT if report.agent_used else AccessMode.BROWSER,
                           ComputeMode.HYBRID if report.hybrid_used else ComputeMode.ON_CHAIN,
                           StorageMode.HYBRID if report.offchain_used else StorageMode.ON_CHAIN)


@dataclass(frozen=True)
class Mismatch:
    row: str
    column: str
    expected: int
    measured: int

    def __str__(self) -> str:
        return f"{self.row}.{self.column}: expected {self.expected:+d}, measured {self.measured:+d}"


def diff_against_reference(measured: OrdinalMatrix,
                           reference: OrdinalMatrix | None = None) -> list[Mismatch]:
    """Exact equality on rule-scored columns, sign agreement on measured ones."""
    reference = reference or reference_matrix()
    mismatches = []
    for ref_row in reference.rows:
        try:
            got_row = measured.row(ref_row.label)
        except KeyError:
            mismatches.append(Mismatch(ref_row.label, "present", 1, 0))
            continue
        for col in COLUMNS:
            checked = ((col.key,) if col.rule else ()) + \
                ((col.measured.sign_key,) if col.measured else ())
            for column in checked:
                if got_row.cell(column) != ref_row.cell(column):
                    mismatches.append(Mismatch(ref_row.label, column,
                                               ref_row.cell(column), got_row.cell(column)))
    return mismatches


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def run_sweep(script: ScenarioScript | None = None, faults: FaultPlan | None = None,
              seed: int | None = None, sim: SimConfig | None = None,
              jobs: int = 1) -> dict[int, MetricReport]:
    """Reports on all twelve types; the types of one run shape share their runs.

    seed, when given, replaces sim's seed. jobs > 1 spreads the shapes over
    that many worker processes, but no more than there are shapes.
    """
    batches = _sweep_batches(*_inputs(script, faults, seed, sim), jobs)
    reports = {report.type_id: report for batch in batches for report in batch}
    return dict(sorted(reports.items()))


def _sweep_batches(script: ScenarioScript, faults: FaultPlan, base: SimConfig,
                   jobs: int) -> Iterator[list[MetricReport]]:
    """run_sweep's reports, one list per run shape, the Type1 baseline's shape first.

    With jobs == 1 each shape runs only when its list is asked for, so a
    caller that stops after the baseline's list runs no other shape.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    shapes: dict[tuple, list[ArchitectureType]] = {}
    for arch in ALL_TYPES:  # Type1 first, so its shape is the first key
        shapes.setdefault(_run_shape(arch, script, base), []).append(arch)
    work = partial(_reports, script=script, faults=faults, base=base)
    # A process pool starts all its workers at once, so it gets no more than it can use.
    workers = min(jobs, len(shapes))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial sweep never loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(work, shapes.values()))
        yield from batches
    else:
        yield from map(work, shapes.values())  # lazily: one shape's runs are held at a time


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def report_json(report: MetricReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def matrix_json(matrix: OrdinalMatrix) -> str:
    rows = [
        {"label": r.label, "tuple": r.tuple_label, "types": list(r.types), "cells": dict(r.cells)}
        for r in matrix.rows
    ]
    return json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"


def _fmt_cell(v: int) -> str:
    return f"{v:+d}" if v else "0"


def _md_line(cells: list[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def matrix_markdown(matrix: OrdinalMatrix, title: str = "Architecture evaluation") -> str:
    """Markdown table mirroring the published layout: properties then stakeholders.

    A column without a rule shows its measured sign where its dot cell is 0.
    """
    lines = [f"### {title}", "", _md_line(["Architecture"] + [col.header for col in COLUMNS]),
             "|" + "---|" * (len(COLUMNS) + 1)]
    for r in matrix.rows:
        cells = [f"{r.tuple_label} - {r.label}"]
        for col in COLUMNS:
            value = r.cell(col.key)
            if not value and col.rule is None:
                value = r.cell(col.measured.sign_key)
            cells.append(_fmt_cell(value))
        lines.append(_md_line(cells))
    measured = [col for col in COLUMNS if col.measured]
    lines += ["", "Measured trends (sign vs Type1 baseline):", "",
              _md_line(["Architecture"] + [col.key for col in measured]),
              "|" + "---|" * (len(measured) + 1)]
    for r in matrix.rows:
        lines.append(_md_line([r.label] + [_fmt_cell(r.cell(col.measured.sign_key))
                                           for col in measured]))
    lines.append("")
    return "\n".join(lines)
