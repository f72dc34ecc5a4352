"""Outside-in span tracing of w3sim's public functions.

`install` replaces the public functions of the nine simulator modules with
wrappers that record one span per call: name, start, end, parent span and
run id (one id per `evaluation.run_raw` call, so every span of one
sub-run shares it). Two names other modules import by value are rebound
as well: `consensus.validate_transaction` and `evaluation.compose`.

Spans live in flat arrays while the run goes on; `dump` writes them out
once at the end and `load` reads them back. `derive` turns the spans into
the per-layer metrics: call counts, mean self time per call (span minus
child spans) and the ratios listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from array import array

from w3sim import (access, archetypes, consensus, evaluation, identity, scenario,
                   storage, txcraft, vm)

# name -> array typecode; every span appends exactly one value to each.
FIELDS = (("name", "i"), ("variant", "i"), ("parent", "i"), ("run", "i"),
          ("count", "i"), ("err", "b"), ("start", "d"), ("end", "d"))

MODULES = ("identity", "txcraft", "vm", "consensus", "storage", "access",
           "archetypes", "scenario", "evaluation")


class Spans:
    """Flat span store; field arrays are indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for field, code in FIELDS:
            setattr(self, field, array(code))
        self.stack = [-1]
        self.run_id = [0]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, probe=None, new_run: bool = False):
        """Return fn wrapped to record a span named `name` per call.

        probe(args, kwargs, result) -> (variant name or None, count) tags
        the span after a normal return; an exception sets `err` instead.
        """
        nid = self.name_id(name)
        # Bound to locals: the wrapper runs about a million times per repeat.
        names_a, variant_a, parent_a, run_a = self.name, self.variant, self.parent, self.run
        count_a, err_a, start_a, end_a = self.count, self.err, self.start, self.end
        stack, run_id, clock = self.stack, self.run_id, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start_a)
            if new_run:
                run_id[0] += 1
            names_a.append(nid)
            variant_a.append(-1)
            parent_a.append(stack[-1])
            run_a.append(run_id[0])
            count_a.append(0)
            err_a.append(0)
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end_a[i] = clock()
                stack.pop()
                err_a[i] = 1
                raise
            end_a[i] = clock()
            stack.pop()
            if probe is not None:
                variant, count = probe(args, kwargs, result)
                if variant is not None:
                    variant_a[i] = self.name_id(variant)
                count_a[i] = count
            return result

        return traced


# -- probes: tag a span from the call's arguments and result ---------------

def _execute_probe(args, kwargs, result):
    method = args[1].payload.method
    if method == vm.BUNDLE_METHOD:
        method = "bundle"
    elif method not in ("mint", "list", "buy"):
        method = "other"
    return method, 0 if result[1].success else 1


def _round_probe(args, kwargs, result):
    return f"n{len(args[0].nodes)}", len(result)


def _drain_probe(args, kwargs, result):
    chain = args[0]
    limit = args[1] if len(args) > 1 else kwargs.get("max_rounds", 5000)
    pending = len(chain.seen_tx) - len(chain.confirmed_tick) - len(chain.discards)
    return None, int(result >= limit and (bool(chain.pool) or pending > 0))


def _len_result(args, kwargs, result):
    return None, len(result)


def _len_first_arg(args, kwargs, result):
    return None, len(args[0])


def install(spans: Spans) -> None:
    """Wrap every traced function in place; the process keeps them wrapped."""
    def patch(owner, attr, name, probe=None, new_run=False):
        setattr(owner, attr, spans.wrap(name, getattr(owner, attr), probe, new_run))

    for attr in ("sign", "verify", "generate_keypair"):
        patch(identity, attr, f"identity.{attr}")
    for attr in ("build_transaction", "signing_bytes"):
        patch(txcraft, attr, f"txcraft.{attr}")
    validate = spans.wrap("txcraft.validate_transaction", txcraft.validate_transaction)
    txcraft.validate_transaction = consensus.validate_transaction = validate
    patch(vm, "execute", "vm.execute", _execute_probe)
    patch(vm, "encode_bundle", "vm.encode_bundle", _len_first_arg)
    patch(vm, "decode_bundle", "vm.decode_bundle", _len_result)
    patch(vm, "query_state", "vm.query_state")
    patch(consensus.ChainNetwork, "run_round", "consensus.run_round", _round_probe)
    patch(consensus.ChainNetwork, "submit", "consensus.submit")
    patch(consensus.ChainNetwork, "run_until_drained", "consensus.run_until_drained", _drain_probe)
    for attr in ("put", "get", "verify_integrity"):
        patch(storage.StorageFabric, attr, f"storage.{attr}")
    for attr in ("submit_direct", "submit_via_agent", "retrieve_state", "prepare_data"):
        patch(access, attr, f"access.{attr}")
    patch(access, "flush", "access.flush", _len_result)
    compose = spans.wrap("archetypes.compose", archetypes.compose)
    archetypes.compose = evaluation.compose = compose
    for attr in ("parse_scenario", "parse_faults"):
        patch(scenario, attr, f"scenario.{attr}")
    patch(evaluation, "run_raw", "evaluation.run_raw", new_run=True)
    patch(evaluation, "run_scenario", "evaluation.run_scenario")


# -- persistence -------------------------------------------------------------


def dump(spans: Spans, path: str, meta: dict) -> None:
    """Write one JSON header line, then each field array's raw bytes in FIELDS order."""
    header = dict(meta, names=spans.names, spans=len(spans),
                  fields=[[f, c] for f, c in FIELDS])
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for field, _ in FIELDS:
            getattr(spans, field).tofile(fh)


def load(path: str) -> Spans:
    spans = Spans()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            spans.name_id(name)
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            setattr(spans, field, arr)
    return spans


# -- per-layer metrics ---------------------------------------------------------


def derive(spans: Spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced repeat.

    wall_s is the traced repeat's measured wall time, the base of every
    `<module>.self_share`. Functions never called read 0.
    """
    names, n = spans.names, len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    errors: dict[str, int] = {}
    zeros: dict[str, int] = {}  # spans whose count is 0, e.g. empty rounds
    for i in range(n):
        own = end[i] - start[i] - child[i]
        keys = [names[spans.name[i]]]
        if spans.variant[i] >= 0:
            keys.append(f"{keys[0]}.{names[spans.variant[i]]}")
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own
            counts[key] = counts.get(key, 0) + spans.count[i]
            errors[key] = errors.get(key, 0) + spans.err[i]
            zeros[key] = zeros.get(key, 0) + (spans.count[i] == 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(key):
        return ratio(self_s.get(key, 0.0), calls.get(key, 0)) * 1e6

    c = calls.get
    m: dict[str, float] = {}
    for key in ("identity.sign", "identity.verify", "txcraft.build_transaction",
                "vm.execute", "consensus.run_round", "archetypes.compose"):
        m[f"{key}.calls"] = c(key, 0)
        m[f"{key}.self_us"] = self_us(key)
    m["identity.generate_keypair.calls"] = c("identity.generate_keypair", 0)
    m["txcraft.validate_transaction.self_us"] = self_us("txcraft.validate_transaction")
    m["txcraft.signing_bytes.calls"] = c("txcraft.signing_bytes", 0)
    m["txcraft.signing_bytes_per_tx"] = ratio(c("txcraft.signing_bytes", 0),
                                              c("txcraft.build_transaction", 0))
    for variant in ("mint", "list", "buy", "bundle"):
        m[f"vm.execute.{variant}.self_us"] = self_us(f"vm.execute.{variant}")
    for key in ("vm.encode_bundle", "vm.decode_bundle", "vm.query_state", "consensus.submit",
                "storage.put", "storage.get", "storage.verify_integrity",
                "access.submit_direct", "access.submit_via_agent", "access.flush",
                "access.retrieve_state", "access.prepare_data",
                "scenario.parse_scenario", "scenario.parse_faults"):
        m[f"{key}.self_us"] = self_us(key)
    executes = c("vm.execute", 0)
    direct = executes - c("vm.execute.bundle", 0)
    m["vm.ops_per_execute"] = ratio(direct + counts.get("vm.decode_bundle", 0), executes)
    m["vm.reverted_share"] = ratio(counts.get("vm.execute", 0), executes)
    for nodes in (4, 7, 10):
        m[f"consensus.run_round.n{nodes}.self_us"] = self_us(f"consensus.run_round.n{nodes}")
    rounds = c("consensus.run_round", 0)
    m["consensus.txs_per_round"] = ratio(counts.get("consensus.run_round", 0), rounds)
    m["consensus.empty_round_share"] = ratio(zeros.get("consensus.run_round", 0), rounds)
    m["consensus.drain_truncated"] = counts.get("consensus.run_until_drained", 0)
    m["storage.put.calls"] = c("storage.put", 0)
    m["storage.put.failed_share"] = ratio(errors.get("storage.put", 0), c("storage.put", 0))
    m["storage.get.failed_share"] = ratio(errors.get("storage.get", 0), c("storage.get", 0))
    m["access.flush.ops_per_tx"] = ratio(counts.get("vm.encode_bundle", 0),
                                         counts.get("access.flush", 0))
    m["evaluation.run_raw.calls"] = c("evaluation.run_raw", 0)
    m["evaluation.run_raw.self_s"] = self_us("evaluation.run_raw") / 1e6
    m["evaluation.run_scenario.calls"] = c("evaluation.run_scenario", 0)
    m["evaluation.run_raw_per_report"] = ratio(c("evaluation.run_raw", 0),
                                               c("evaluation.run_scenario", 0))
    for module in MODULES:
        total = sum(v for k, v in self_s.items()
                    if k.startswith(module + ".") and k.count(".") == 1)
        m[f"{module}.self_share"] = ratio(total, wall_s)
    return m
