"""Simulated maintainer network producing confirmed blocks.

Two confirmation rules:

* BftQuorum: a rotating proposer's block confirms in-round once strictly
  more than fraction * n nodes vote for it (immediate finality). For the
  2/3 default that is the classic n >= 3f + 1 tolerance: f <= (n-1)/3.
* MajorityChain: weighted random election extends one of two statically
  held branches (honest vs adversarial); a block confirms once it is
  confirm_depth deep on the branch whose holder share exceeds fraction.
  Branch holding is static: confirmation is gated on holder share, so no
  two confirmed blocks can ever share a height below threshold.

Everything runs on an integer tick clock with a seeded PRNG; a round's
duration grows with node count times the block's byte and gas footprint,
which is what makes architecture choices measurable downstream.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from random import Random
from typing import NamedTuple

from . import identity, vm
from .txcraft import Transaction, validate_transaction, TxError
from .vm import check_int

ZERO_HASH = b"\x00" * 32


class ConsensusError(Exception):
    pass


class DuplicateTx(ConsensusError):
    pass


class PoolFull(ConsensusError):
    pass


class RuleKind(Enum):
    MAJORITY_CHAIN = "MajorityChain"
    BFT_QUORUM = "BftQuorum"


class NodeBehavior(Enum):
    HONEST = "Honest"
    CRASHED = "Crashed"
    BYZANTINE = "Byzantine"


class ByzantineMode(Enum):
    SILENT = "silent"
    EQUIVOCATE = "equivocate"
    WITHHOLD_TXS = "withhold"


@dataclass(frozen=True)
class ConsensusRule:
    kind: RuleKind = RuleKind.BFT_QUORUM
    fraction: float = 2 / 3
    confirm_depth: int = 6

    def __post_init__(self):
        if isinstance(self.fraction, bool) or not 0 < self.fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        check_int("confirm_depth", self.confirm_depth, 0)


@dataclass(frozen=True)
class ConsensusConfig:
    rule: ConsensusRule = ConsensusRule()
    n_nodes: int = 7
    block_interval: int = 1
    msg_delay: tuple[int, int] = (0, 2)
    pool_capacity: int = 10_000
    max_txs_per_block: int = 8
    network_capacity: int = 4_000
    gas_byte_equiv: int = 64

    def __post_init__(self):
        for name in ("n_nodes", "block_interval", "pool_capacity", "max_txs_per_block",
                     "network_capacity", "gas_byte_equiv"):
            check_int(name, getattr(self, name), 1)
        lo, hi = self.msg_delay
        for i, end in enumerate(self.msg_delay):
            check_int(f"msg_delay[{i}]", end)
        if not 0 <= lo <= hi:
            raise ValueError(f"msg_delay must satisfy 0 <= lo <= hi, got {self.msg_delay}")

    @cached_property
    def quorum(self) -> int:
        # Strictly more than fraction*n votes, computed over exact rationals
        # so 2/3 of 9 demands 7, not a float-rounded 6. Cached: every round
        # reads it, and the config is frozen.
        num, den = _limit_denominator(self.rule.fraction, 10_000)
        return min(self.n_nodes, num * self.n_nodes // den + 1)


def _limit_denominator(x: float, max_den: int) -> tuple[int, int]:
    """The ratio p/q nearest x with q <= max_den, as Fraction(x).limit_denominator picks it.

    Integer arithmetic only, so the package never imports fractions (and
    with it decimal). The candidates are the last continued-fraction
    convergent within the bound and the best semiconvergent past it; a tie
    keeps the convergent.
    """
    num, den = x.as_integer_ratio()
    if den <= max_den:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while (q2 := q0 + n // d * q1) <= max_den:
        p0, q0, p1, q1 = p1, q1, p0 + n // d * p1, q2
        n, d = d, n % d
    k = (max_den - q0) // q1
    # p1/q1 lies d/(q1*den) from x; the semiconvergent lies 1/(q1*(q0+k*q1)) from p1/q1.
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


class RoundRecord(NamedTuple):
    """What one round fed the clock: the block's tx count, bytes and gas, and the delay drawn."""

    txs: int
    block_bytes: int
    block_gas: int
    delay: int


def round_ticks(config: ConsensusConfig, n_nodes: int, record: RoundRecord) -> int:
    """Ticks the round in `record` takes among n_nodes maintainers.

    Each maintainer relays the block's bytes plus its gas in byte
    equivalents over a shared network_capacity, on top of the block
    interval and the drawn message delay. The live clock and any
    re-timing of a recorded trace both go through here.
    """
    work = n_nodes * (record.block_bytes + record.block_gas // config.gas_byte_equiv)
    return config.block_interval + math.ceil(work / config.network_capacity) + record.delay


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """A block without its transactions: what a chain keeps by default."""

    height: int
    parent_hash: bytes
    state_root: bytes
    proposer: int
    block_hash: bytes


@dataclass(frozen=True, slots=True)
class Block(BlockHeader):
    txs: tuple[Transaction, ...]


def make_block(height: int, parent_hash: bytes, txs: tuple[Transaction, ...],
               state_root: bytes, proposer: int) -> Block:
    header = b"".join(
        [height.to_bytes(8, "big"), parent_hash, proposer.to_bytes(8, "big", signed=True)]
        + [tx.tx_id for tx in txs]
        + [state_root]
    )
    return Block(height, parent_hash, state_root, proposer, identity.digest(b"w3/blk" + header), txs)


@dataclass
class MaintainerNode:
    node_id: int
    keypair: identity.KeyPair
    address: identity.Address
    behavior: NodeBehavior = NodeBehavior.HONEST
    byz_mode: ByzantineMode = ByzantineMode.SILENT


@dataclass(frozen=True, slots=True)
class Confirmation:
    tx: Transaction
    receipt: vm.Receipt
    block_hash: bytes
    height: int
    tick: int


class ChainNetwork:
    """One simulated chain instance: pool, maintainers, confirmed log, state.

    Single-threaded by contract; independent instances share nothing.
    Transactions execute under `schedule`; a `delegation` policy (hybrid
    computation) adds the verifier anchor and counts silent tampers.
    Faults are given apart from the config: fixed per-node behaviors, the
    byzantine mode, crash_prob, the chance that a maintainer is offline in
    any one round, and adversarial_share, the adversary's share of block
    production under the majority-chain rule. Crashes draw from their own
    stream, so turning them on leaves the message delays as they were.

    The chain accepts a transaction only from a sender whose key pair was
    given to register_key; any other sender's transactions are discarded
    as InvalidSignature.

    The chain keeps state, not history: storage, pool, nonces, per-tx
    confirmation ticks, the round trace and a header per confirmed block.
    run_round hands each round's confirmations to its caller. keep_history
    also keeps the block bodies, every Confirmation and the event log,
    which chain_ndjson, the event export and access.retrieve_state need.

    Its counters are txs_confirmed, the clock (now), gas_total,
    bytes_total, safety_breaks, integrity_violations and discards: the
    transactions dropped unconfirmed, counted per reason (StaleNonce, or
    the TxError that validation raised), not kept by id.
    """

    def __init__(self, config: ConsensusConfig, state: vm.ContractState | None = None,
                 schedule: vm.GasSchedule = vm.DEFAULT_GAS_SCHEDULE, seed: int = 0,
                 behaviors: list[NodeBehavior] | None = None,
                 byz_mode: ByzantineMode = ByzantineMode.SILENT,
                 crash_prob: float = 0.0,
                 adversarial_share: float = 0.0,
                 delegation: vm.DelegationPolicy | None = None,
                 keep_history: bool = False):
        self.config = config
        self.keep_history = keep_history
        self.crash_prob = crash_prob
        self.adversarial_share = adversarial_share
        self.state = state if state is not None else vm.ContractState()
        if not keep_history:
            self.state.event_log = None
        self.schedule = schedule
        self.delegation = delegation
        self.rng = Random(seed)  # message delays and majority-chain elections
        self.crash_rng = Random(seed ^ 0xC7A54)
        self.keys: dict[bytes, identity.KeyPair] = {}  # address payload -> key pair
        self.now = 0
        self.rounds: list[RoundRecord] = []  # one record per round, in order
        self.pool: dict[bytes, Transaction] = {}  # in arrival order
        self.seen_tx: set[bytes] = set()
        self.next_nonce: dict[bytes, int] = {}
        self.nodes: list[MaintainerNode] = []
        for i in range(config.n_nodes):
            kp = identity.generate_keypair(b"maintainer/" + str(seed).encode() + b"/" + str(i).encode())
            addr = identity.derive_address(kp.public_key)
            behavior = behaviors[i] if behaviors else NodeBehavior.HONEST
            self.nodes.append(MaintainerNode(i, kp, addr, behavior, byz_mode))
        genesis = make_block(0, ZERO_HASH, (), self.state.state_root, -1)
        self.confirmed_blocks: list[Block | BlockHeader] = [genesis]
        self.confirmations: list[Confirmation] | None = [] if keep_history else None
        self.confirmed_tick: dict[bytes, int] = {}
        self.discards: dict[str, int] = {}  # reason -> transactions dropped unconfirmed
        self.gas_total = 0
        self.bytes_total = 0
        self.safety_breaks = 0  # rounds in which two conflicting blocks both reached quorum
        self.integrity_violations = 0  # delegated writes tampered outside the checked region
        self._unconfirmed = 0
        self._honest_branch: list[Block] = [genesis]
        self._adv_branch: list[Block] = [genesis]
        self._mc_confirmed_upto = 0

    # -- submission ---------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        if tx.tx_id in self.seen_tx:
            raise DuplicateTx(tx.tx_id.hex())
        if len(self.pool) >= self.config.pool_capacity:
            raise PoolFull(f"pool at capacity {self.config.pool_capacity}")
        self.seen_tx.add(tx.tx_id)
        self.pool[tx.tx_id] = tx
        self._unconfirmed += 1

    def register_key(self, kp: identity.KeyPair) -> None:
        """Accept signatures by kp for the address its public key derives."""
        self.keys[identity.derive_address(kp.public_key).payload] = kp

    def expected_nonce(self, payload: bytes) -> int:
        return self.next_nonce.get(payload, 0)

    # -- round machinery ----------------------------------------------------

    @property
    def txs_confirmed(self) -> int:
        return len(self.confirmed_tick)

    def run_round(self) -> list[Confirmation]:
        if self.config.rule.kind is RuleKind.BFT_QUORUM:
            return self._run_bft_round()
        return self._run_majority_round()

    def _offline(self, node: MaintainerNode) -> bool:
        if node.behavior is NodeBehavior.CRASHED:
            return True
        return self.crash_prob > 0 and self.crash_rng.random() < self.crash_prob

    def _pack_block(self, unconfirmed: Sequence[Block] = ()) -> tuple[Transaction, ...]:
        """Pick up to max_txs_per_block pooled txs, each at its sender's next nonce.

        The next nonces continue from the confirmed ones through the txs of
        the given unconfirmed blocks, the branch the new block extends.
        """
        picked: list[Transaction] = []
        expected = dict(self.next_nonce)
        for block in unconfirmed:
            for tx in block.txs:
                expected[tx.metadata.sender.payload] = tx.metadata.nonce + 1
        drop: list[bytes] = []
        for tx_id, tx in self.pool.items():
            if len(picked) >= self.config.max_txs_per_block:
                break
            sender = tx.metadata.sender.payload
            want = expected.get(sender, 0)
            if tx.metadata.nonce == want:
                picked.append(tx)
                expected[sender] = want + 1
            elif tx.metadata.nonce < want:
                drop.append(tx_id)  # stale; replay already confirmed
        for tx_id in drop:
            self.pool.pop(tx_id, None)
            self._discard("StaleNonce")
        return tuple(picked)

    def _discard(self, reason: str) -> None:
        """Count a submitted tx that leaves the chain unconfirmed."""
        self.discards[reason] = self.discards.get(reason, 0) + 1
        self._unconfirmed -= 1

    def _advance_clock(self, txs: int, block_bytes: int, block_gas: int):
        lo, hi = self.config.msg_delay
        record = RoundRecord(txs, block_bytes, block_gas, self.rng.randint(lo, hi) if hi > lo else lo)
        self.rounds.append(record)
        self.now += round_ticks(self.config, self.config.n_nodes, record)

    def _count_violation(self, _tx_id: bytes) -> None:
        self.integrity_violations += 1

    def _execute_txs(self, txs: tuple[Transaction, ...], height: int):
        """Validate, execute and anchor a block's txs: (tx, receipt) pairs and block gas."""
        receipts: list[tuple[Transaction, vm.Receipt]] = []
        block_gas = 0
        # Passed per call, never stored: a bound method held by the chain
        # would make the chain a reference cycle.
        sink = self._count_violation
        for tx in txs:
            sender = tx.metadata.sender.payload
            try:
                validate_transaction(tx, self.next_nonce.get(sender, 0), self.keys)
            except TxError as err:
                self._discard(type(err).__name__)
                continue
            self.next_nonce[sender] = tx.metadata.nonce + 1
            _, receipt = vm.execute(self.state, tx, self.schedule, delegation=self.delegation,
                                    violation_sink=sink)
            receipts.append((tx, receipt))
            block_gas += receipt.gas_used
        if self.delegation is not None:
            block_gas += vm.anchor_commitments(self.state, height, [r for _, r in receipts],
                                               self.schedule)
        return receipts, block_gas

    def _confirm(self, block: Block, receipts: list[tuple[Transaction, vm.Receipt]],
                 block_gas: int, block_bytes: int) -> list[Confirmation]:
        """Pay a maintainer proposer the block's gas, append the block, confirm its txs now."""
        if block_gas and block.proposer >= 0:
            self.state.credit_native(self.nodes[block.proposer].address.payload, block_gas)
        if not self.keep_history:
            block = BlockHeader(block.height, block.parent_hash, block.state_root, block.proposer,
                                block.block_hash)
        self.confirmed_blocks.append(block)
        self.gas_total += block_gas
        self.bytes_total += block_bytes
        confs = []
        for tx, receipt in receipts:
            confs.append(Confirmation(tx, receipt, block.block_hash, block.height, self.now))
            self.confirmed_tick[tx.tx_id] = self.now
            self._unconfirmed -= 1
        if self.keep_history:
            self.confirmations.extend(confs)
        return confs

    def _votes_for(self, offline: set[int]) -> int:
        votes = 0
        for node in self.nodes:
            if node.node_id in offline or node.behavior is NodeBehavior.CRASHED:
                continue
            if node.behavior is NodeBehavior.HONEST:
                votes += 1
            elif node.byz_mode is not ByzantineMode.SILENT:
                votes += 1  # non-silent byzantine nodes vote to keep cover
        return votes

    def _run_bft_round(self) -> list[Confirmation]:
        # Rotates from node 1: this round is round len(self.rounds) + 1.
        proposer = self.nodes[(len(self.rounds) + 1) % self.config.n_nodes]
        offline = {node.node_id for node in self.nodes if self._offline(node)}
        height = len(self.confirmed_blocks)
        parent = self.confirmed_blocks[-1].block_hash

        txs: tuple[Transaction, ...] | None = None  # None: no block this round
        if proposer.node_id in offline or (
            proposer.behavior is NodeBehavior.BYZANTINE and proposer.byz_mode is ByzantineMode.SILENT
        ):
            pass  # an absent or silent proposer proposes nothing
        elif proposer.behavior is NodeBehavior.BYZANTINE and proposer.byz_mode is ByzantineMode.EQUIVOCATE:
            packed = self._pack_block()
            prop_a, prop_b = packed, tuple(reversed(packed))
            votes_a = votes_b = 0
            for node in self.nodes:
                if node.node_id in offline or node.behavior is NodeBehavior.CRASHED:
                    continue
                if node.behavior is NodeBehavior.BYZANTINE:
                    votes_a += 1
                    votes_b += 1
                elif node.node_id % 2 == 0:
                    votes_a += 1
                else:
                    votes_b += 1
            quorum = self.config.quorum
            if prop_a != prop_b and votes_a >= quorum and votes_b >= quorum:
                # Beyond the fault tolerance bound both halves reach quorum;
                # count the break and confirm prop_a.
                self.safety_breaks += 1
            if votes_a >= quorum:
                txs = prop_a
            elif votes_b >= quorum:
                txs = prop_b
        else:
            txs = self._pack_block()
            if proposer.behavior is NodeBehavior.BYZANTINE and proposer.byz_mode is ByzantineMode.WITHHOLD_TXS:
                txs = ()
            if self._votes_for(offline) < self.config.quorum:
                txs = None
        if txs is None:
            self._advance_clock(0, 0, 0)
            return []

        for tx in txs:
            self.pool.pop(tx.tx_id, None)
        receipts, block_gas = self._execute_txs(txs, height)
        # The root is taken after execution: the block commits to its own effects.
        block = make_block(height, parent, txs, self.state.state_root, proposer.node_id)
        block_bytes = sum(tx.wire_size() for tx in txs)
        self._advance_clock(len(txs), block_bytes, block_gas)
        return self._confirm(block, receipts, block_gas, block_bytes)

    def _qualifying_branch(self) -> list[Block] | None:
        honest_share = 1.0 - self.adversarial_share
        if honest_share > self.config.rule.fraction:
            return self._honest_branch
        if self.adversarial_share > self.config.rule.fraction:
            return self._adv_branch
        return None

    def _run_majority_round(self) -> list[Confirmation]:
        adversarial = self.rng.random() < self.adversarial_share
        if adversarial:
            branch = self._adv_branch
            txs: tuple[Transaction, ...] = ()  # adversary withholds user txs
            proposer = -2
        else:
            branch = self._honest_branch
            txs = self._pack_block(branch[self._mc_confirmed_upto + 1:])
            proposer = (len(self.rounds) + 1) % self.config.n_nodes
            for tx in txs:
                self.pool.pop(tx.tx_id, None)
        tip = branch[-1]
        # The root is taken at proposal; the block executes once confirmed.
        block = make_block(tip.height + 1, tip.block_hash, txs, self.state.state_root, proposer)
        branch.append(block)
        self._advance_clock(len(txs), sum(tx.wire_size() for tx in txs), 0)

        confs: list[Confirmation] = []
        qualifying = self._qualifying_branch()
        if qualifying is None:
            return confs
        k = self.config.rule.confirm_depth
        deep_enough = len(qualifying) - 1 - k  # highest index buried k deep
        while self._mc_confirmed_upto < deep_enough:
            self._mc_confirmed_upto += 1
            pending = qualifying[self._mc_confirmed_upto]
            receipts, block_gas = self._execute_txs(pending.txs, pending.height)
            confs.extend(self._confirm(pending, receipts, block_gas,
                                       sum(tx.wire_size() for tx in pending.txs)))
            # The branch keeps what the confirmed log keeps (a header, by default).
            qualifying[self._mc_confirmed_upto] = self.confirmed_blocks[-1]
        return confs

    # -- probes --------------------------------------------------------------

    def check_persistence(self) -> bool:
        """True iff the confirmed blocks form one hash-linked chain from genesis.

        Every honest maintainer serves this one confirmed log, so a single
        linked chain is what persistence means here.
        """
        blocks = self.confirmed_blocks
        return all(block.height == i for i, block in enumerate(blocks)) and all(
            child.parent_hash == parent.block_hash for parent, child in zip(blocks, blocks[1:]))

    @property
    def stall_rounds(self) -> int:
        """Rounds in a row without progress after which the chain has stalled.

        One full proposer rotation, so a quorum chain with fewer than n/3
        faulty maintainers always has a correct proposer among them, plus
        confirm_depth + 1, the rounds a majority-chain block takes to bury.
        """
        return self.config.n_nodes + self.config.rule.confirm_depth + 1

    @property
    def quiescent(self) -> bool:
        """True when every submitted tx has confirmed or been discarded."""
        return not self.pool and self._unconfirmed == 0

    def run_until_drained(self, max_rounds: int | None = None, sink=None) -> int:
        """Run rounds until the chain is quiescent or has stalled; returns the rounds run.

        The chain has stalled once stall_rounds rounds in a row neither
        confirm nor discard a transaction; what is left stays pooled or
        unconfirmed, so callers tell a stall by the chain not being
        quiescent. max_rounds, if given, bounds the rounds as well. sink,
        if given, is called with each round's confirmations.
        """
        rounds = idle = 0
        stall = self.stall_rounds
        while not self.quiescent and idle < stall and (max_rounds is None or rounds < max_rounds):
            left = self._unconfirmed
            confs = self.run_round()
            if sink is not None:
                sink(confs)
            rounds += 1
            idle = idle + 1 if self._unconfirmed == left else 0
        return rounds


def chain_ndjson(network: ChainNetwork) -> str:
    """Confirmed chain as newline-delimited JSON blocks.

    Each transaction appears both by id and as its canonical wire bytes
    in hex, so envelopes can be inspected or re-parsed offline. Needs a
    chain built with keep_history.
    """
    if not network.keep_history:
        raise ValueError("chain kept no block bodies; build it with keep_history=True")
    lines = []
    for block in network.confirmed_blocks:
        record = {
            "height": block.height,
            "parent_hash": block.parent_hash.hex(),
            "block_hash": block.block_hash.hex(),
            "proposer": block.proposer,
            "state_root": block.state_root.hex(),
            "tx_ids": [tx.tx_id.hex() for tx in block.txs],
            "tx_wire": [tx.wire_bytes().hex() for tx in block.txs],
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
