#!/usr/bin/env python3
"""Measure availability of every architecture under a fault-plan grid.

Varies storage-node crash probability and executor honesty, printing the
fraction of successful scenario operations per type. Useful for seeing
where each architecture's fragility actually comes from.
"""

import argparse

from w3sim.archetypes import SimConfig, architecture
from w3sim.evaluation import run_raw
from w3sim.scenario import FaultPlan, nft_sale_script
from w3sim.vm import ExecutorBehavior


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args()

    script = nft_sale_script(repetitions=args.reps)
    grid = [
        ("no faults", FaultPlan()),
        ("storage p=0.3", FaultPlan(storage_crash_prob=0.3)),
        ("storage p=0.6", FaultPlan(storage_crash_prob=0.6)),
        ("malicious executor", FaultPlan(executor_behavior=ExecutorBehavior.MALICIOUS)),
        ("both", FaultPlan(storage_crash_prob=0.6,
                           executor_behavior=ExecutorBehavior.MALICIOUS)),
    ]
    header = "type " + "".join(f"{label:>22}" for label, _ in grid)
    print(header)
    for type_id in range(1, 13):
        cells = []
        for _, plan in grid:
            stats = run_raw(architecture(type_id), script, SimConfig(seed=args.seed), plan)
            avail = stats.ops_succeeded / stats.ops_attempted if stats.ops_attempted else 0.0
            cells.append(f"{avail:>21.3f} ")
        print(f"{type_id:4d} " + "".join(cells))


if __name__ == "__main__":
    main()
