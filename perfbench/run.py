"""The w3sim benchmark: one workload, one seed, timed for a fixed span.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 25 --trace 0

Run it from the repository root; `--workload all` runs the three workloads
in turn, each ending in its own JSON line. Every repeat runs in a fresh interpreter
(worker.py), one at a time, so peak RSS is per repeat and no interpreter
state, such as identity's process-global key registry, carries over from
one repeat to the next. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it list
each metric with its unit, the output hash, the simulated totals, `nproc`
and the Python version.

Workloads (the reasons are in BENCHMARK.json):
  sweep        the `w3sim matrix` path: run_sweep over all 12 types at 300
               repetitions under the default fault plan, compare, diff
               against the reference matrix, serialize the 12 reports and
               the matrix.
  wallet-bulk  fault-free run_raw on Types 1, 3 and 5 (browser wallet) at
               6,000 repetitions.
  agent-bulk   the same on Types 7, 9 and 11 (agent access).

--trace 0 prints the end-to-end metrics, measured untraced: setup_s (fresh
interpreter to the first evaluation call, median over every interpreter of
the run), sweep_s (host seconds of one repeat's workload: the matrix path
on `sweep`, the three run_raw calls on the bulk workloads), and
confirmed_ops_per_s (user ops that succeeded, over every sub-run, per host
second of that workload), each a median over the repeats; op_success_share
(succeeded / attempted on the fault-free sub-runs, 0 when a check fails;
its complement prints as failed_op_share) and peak_rss_mb (median peak RSS
of a repeat's interpreter).

--trace 1 alternates untraced and traced repeats and prints the per-layer
metrics of the traced ones, plus `trace.overhead`; the spans of the last
traced repeat are written to .bench_out/trace-<workload>.bin.

The seed selects the simulation seed handed to the simulator with the
generated scenario and fault-plan text; all simulated numbers are pure
functions of it, so the benchmark measures host time only. Every repeat
of one run must produce the same output hash. A failed check prints
`"correct": false` and exits 1; a missing simulator source tree exits 2
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SCENARIO = """\
create_identity actor=alice
create_identity actor=bob
connect_wallet actor=alice
connect_wallet actor=bob
mint_nft actor=alice data_size=768
list_nft actor=alice price=100
buy_nft actor=bob price=100
retrieve_state actor=bob
repeat count={reps}
"""

NO_FAULTS = """\
maintainer_crash_prob = 0.0
byzantine_maintainers = 0
storage_crash_prob = 0.0
executor_behavior = Honest
agent_behavior = Honest
"""

# The plan `w3sim matrix` uses by default: flaky storage, lying executor.
DEFAULT_FAULTS = """\
maintainer_crash_prob = 0.0
byzantine_maintainers = 0
storage_crash_prob = 0.6
executor_behavior = Malicious
agent_behavior = Honest
"""

WORKLOADS = {
    "sweep": {"reps": 300, "faults": DEFAULT_FAULTS, "types": list(range(1, 13))},
    "wallet-bulk": {"reps": 6000, "faults": NO_FAULTS, "types": [1, 3, 5]},
    "agent-bulk": {"reps": 6000, "faults": NO_FAULTS, "types": [7, 9, 11]},
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_SAMPLES = 5   # setup-only interpreters per run, on top of one per repeat
MIN_REPEATS = 3     # untraced repeats per run, however short --seconds is


def spawn(job: dict) -> tuple[float, dict | None, str]:
    """Run one worker to completion; return (spawn time, result or None, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
                              env=env, input=json.dumps(job), capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        return started, None, "worker timed out after 170 s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return started, None, proc.stderr.strip()[-2000:]
    return started, json.loads(lines[-1]), proc.stderr


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="override the workload's repetitions (smoke test only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "w3sim", "evaluation.py")):
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run(args, name) for name in names)


def run(args, workload: str) -> int:
    """Run one workload for args.seconds, print its report, return the exit code."""
    spec = WORKLOADS[workload]
    reps = args.reps or spec["reps"]
    job = {"workload": workload, "seed": args.seed, "types": spec["types"],
           "scenario": SCENARIO.format(reps=reps), "faults": spec["faults"],
           "trace_path": os.path.join(ROOT, ".bench_out", f"trace-{workload}.bin")}

    setup_s: list[float] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            started, result, err = spawn(dict(job, mode="setup"))
            if result is None:
                print(f"error: setup failed:\n{err}", file=sys.stderr)
                return 2
            setup_s.append(result["ready"] - started)

    untraced: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    deadline = time.monotonic() + args.seconds
    while (len(untraced) < (1 if args.trace else MIN_REPEATS) or (args.trace and not traced)
           or time.monotonic() < deadline):
        mode = "traced" if args.trace and len(traced) < len(untraced) else "run"
        started, result, err = spawn(dict(job, mode=mode))
        if result is None:
            failures.append(f"{mode} repeat raised:\n{err}")
            break
        setup_s.append(result["ready"] - started)
        failures += result["failures"]
        (traced if mode == "traced" else untraced).append(result)

    repeats = untraced + traced
    hashes = sorted({r["hash"] for r in repeats})
    if len(hashes) > 1:
        failures.append(f"repeats disagree on the output hash: {hashes}")
    attempted = max(1, sum(r["attempted"] for r in repeats))
    succeeded = sum(r["succeeded"] for r in repeats)
    correct = not failures
    failed_share = (attempted - succeeded) / attempted if correct else 1.0

    if args.trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in (traced[0]["layers"] if traced else {})}
        if traced and untraced:
            metrics["trace.overhead"] = (median([r["wall_s"] for r in traced])
                                         / median([r["wall_s"] for r in untraced]) - 1)
    else:
        metrics = {
            "setup_s": median(setup_s),
            "sweep_s": median([r["wall_s"] for r in untraced]),
            "confirmed_ops_per_s": median([r["confirmed"] / r["wall_s"] for r in untraced]),
            "op_success_share": 1.0 - failed_share,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
    expected = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if correct and sorted(metrics) != sorted(expected):
        failures.append(f"metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
        correct = False

    first = repeats[0] if repeats else {"totals": {}, "sub_runs": 0}
    print(f"workload {workload}  seed {args.seed}  repetitions {reps}  "
          f"repeats {len(untraced)} untraced + {len(traced)} traced  "
          f"setup samples {len(setup_s)}")
    print(f"nproc {len(os.sched_getaffinity(0))}  python {sys.version.split()[0]}")
    print(f"output hash {hashes[0] if len(hashes) == 1 else hashes}  sub-runs {first['sub_runs']}  "
          + "  ".join(f"{k} {v}" for k, v in first["totals"].items()))
    print(f"failed_op_share {failed_share:.6f} ratio  "
          f"({attempted - succeeded} of {attempted} fault-free ops not confirmed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS.get(name, 'unlisted')}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "unlisted")} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
