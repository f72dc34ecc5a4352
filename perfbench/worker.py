"""One benchmark repeat, run in a fresh interpreter by run.py.

Reads a JSON job on stdin and prints one JSON result line on stdout. The
job carries the workload name, the seed, the scenario and fault-plan text
and a mode: `setup` stops once the inputs are parsed, `run` times the
workload, `traced` times it with every public simulator function wrapped
(see tracer.py) and adds the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

from w3sim import archetypes, evaluation, scenario

# Steps that count as user operations in RunStats.ops_attempted.
OP_STEPS = {scenario.StepKind.MINT_NFT, scenario.StepKind.LIST_NFT,
            scenario.StepKind.BUY_NFT, scenario.StepKind.RETRIEVE_STATE}


def record_runs(sink: list) -> None:
    """Keep (fault plan, RunStats, chain head) of every run_raw call, in call order.

    The chain head is the last confirmed block's hash and the state root,
    which commit to every confirmed transaction and the data it carries,
    so the output hash also covers what RunStats does not show.
    """
    inner_run, inner_compose = evaluation.run_raw, evaluation.compose
    topologies = []

    def compose(*args, **kwargs):
        topologies.append(inner_compose(*args, **kwargs))
        return topologies[-1]

    def run_raw(arch, script, sim, faults):
        stats = inner_run(arch, script, sim, faults)
        chain = topologies.pop().chain
        head = [chain.confirmed_blocks[-1].block_hash.hex(), chain.state.state_root.hex()]
        sink.append((faults, stats, head))
        return stats

    evaluation.compose = compose
    evaluation.run_raw = run_raw


def run_workload(job, script, faults, sim) -> tuple[float, list[str], list[str]]:
    """Time the workload; return (wall seconds, its serialized outputs, failed checks)."""
    failures: list[str] = []
    t0 = time.perf_counter()
    if job["workload"] == "sweep":
        reports = evaluation.run_sweep(script, faults, seed=sim.seed, sim=sim, jobs=1)
        matrix = evaluation.compare(reports, reports[1])
        mismatches = evaluation.diff_against_reference(matrix)
        outputs = [evaluation.report_json(reports[t]) for t in sorted(reports)]
        outputs.append(evaluation.matrix_json(matrix))
        wall = time.perf_counter() - t0
        failures += [f"matrix mismatch {m}" for m in mismatches]
        failures += [f"Type{t} infeasible" for t, r in reports.items() if not r.feasible]
        if sorted(reports) != list(range(1, 13)):
            failures.append(f"reports for types {sorted(reports)}")
    else:
        for type_id in job["types"]:
            evaluation.run_raw(archetypes.architecture(type_id), script, sim, faults)
        wall = time.perf_counter() - t0
        outputs = []
    return wall, outputs, failures


def check_runs(records, script) -> tuple[int, int, list[str]]:
    """Checks on every fault-free sub-run; returns (attempted, succeeded, failures)."""
    expected = script.repetitions * sum(step.kind in OP_STEPS for step in script.steps)
    attempted = succeeded = 0
    failures = []
    for i, (faults, stats, _) in enumerate(records):
        if faults != scenario.NO_FAULTS:
            continue
        attempted += stats.ops_attempted
        succeeded += stats.ops_succeeded
        if stats.violations:
            failures.append(f"run {i}: {stats.violations} integrity violations without faults")
        if stats.infeasible_reason:
            failures.append(f"run {i}: infeasible: {stats.infeasible_reason}")
        if stats.ops_attempted != expected:
            failures.append(f"run {i}: {stats.ops_attempted} ops attempted, expected {expected}")
        if not 0 <= stats.ops_succeeded <= stats.ops_attempted:
            failures.append(f"run {i}: {stats.ops_succeeded} of {stats.ops_attempted} ops succeeded")
    if not attempted:
        failures.append("no fault-free run")
    return attempted, succeeded, failures


def main() -> int:
    job = json.load(sys.stdin)
    traced = job["mode"] == "traced"
    if traced:
        from tracer import Spans, derive, dump, install, load

        spans = Spans()
        install(spans)
    records: list = []
    record_runs(records)

    script = scenario.parse_scenario(job["scenario"])
    faults = scenario.parse_faults(job["faults"])
    sim = archetypes.SimConfig(seed=job["seed"])
    ready = time.monotonic()
    if job["mode"] == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    wall, outputs, failures = run_workload(job, script, faults, sim)
    attempted, succeeded, run_failures = check_runs(records, script)
    outputs += [json.dumps([dataclasses.asdict(stats), head], sort_keys=True)
                for _, stats, head in records]
    digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
    result = {
        "ready": ready,
        "wall_s": wall,
        "hash": digest,
        "attempted": attempted,
        "succeeded": succeeded,
        "confirmed": sum(stats.ops_succeeded for _, stats, _ in records),
        "failures": failures + run_failures,
        "totals": {key: sum(getattr(stats, key) for _, stats, _ in records)
                   for key in ("ticks", "txs_confirmed", "gas_total")},
        "sub_runs": len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if traced:
        path = job["trace_path"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        dump(spans, path, {"workload": job["workload"], "seed": job["seed"],
                           "wall_s": wall, "nproc": len(os.sched_getaffinity(0)),
                           "python": sys.version.split()[0]})
        result["layers"] = derive(load(path), wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
