#!/usr/bin/env python3
"""Traced heap of fault-free scenario runs, per architecture type.

For each type, runs the NFT sale script at --reps repetitions under
tracemalloc and prints the heap still traced at the end of the run (the
run object alive), the peak traced heap during the run, and the heap at
the wave drain that starts with the most of it: a wave's ops are all in
the pool then, on top of the state the earlier waves left, which is where
a run peaks (the buy wave, in a sale). The source lines holding the most
of the heap at that drain start are listed. Only allocations made after
the run starts are traced, so imports and interpreter state are left out.
tracemalloc slows the run; the figures are bytes, not time.

    python scripts/heap_profile.py --types 1,7 --reps 6000
"""

import argparse
import os
import tracemalloc

from w3sim.archetypes import SimConfig, architecture
from w3sim.evaluation import _ScenarioRun
from w3sim.scenario import NO_FAULTS, nft_sale_script

MB = 1e6


def profile(type_id: int, script, seed: int, top: int):
    """(end heap, peak heap, heap at the largest drain start, its top sites) of one run."""
    tracemalloc.start()
    run = _ScenarioRun(architecture(type_id), script, SimConfig(seed=seed), NO_FAULTS)
    drain = run._drain
    at_drain, sites, peak = 0, [], 0

    def profiled_drain():
        nonlocal at_drain, sites, peak
        heap, peak_so_far = tracemalloc.get_traced_memory()
        if heap > at_drain:
            at_drain = heap
            # Leave out the sites kept from an earlier drain, and the
            # snapshot's own allocations out of the peak.
            ignore_kept = [tracemalloc.Filter(False, tracemalloc.__file__)]
            sites = (tracemalloc.take_snapshot().filter_traces(ignore_kept)
                     .statistics("lineno")[:top])
            peak = max(peak, peak_so_far)
            tracemalloc.reset_peak()
        drain()

    run._drain = profiled_drain
    run.run()
    del run._drain  # the wrapper holds the run: free it by reference counting
    end, last_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return end, max(peak, last_peak), at_drain, sites


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--types", default="1,7", help="comma-separated type ids")
    parser.add_argument("--reps", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=5, help="allocation sites listed per type")
    args = parser.parse_args()

    script = nft_sale_script(repetitions=args.reps)
    for type_id in (int(t) for t in args.types.split(",")):
        end, peak, at_drain, sites = profile(type_id, script, args.seed, args.top)
        print(f"type {type_id}  reps {args.reps}  end {end / MB:.3f} MB  peak {peak / MB:.3f} MB"
              f"  drain {at_drain / MB:.3f} MB")
        for stat in sites:
            frame = stat.traceback[0]
            # Package and file name: w3sim/vm.py, python3.11/random.py.
            where = os.path.join(os.path.basename(os.path.dirname(frame.filename)),
                                 os.path.basename(frame.filename))
            print(f"  {stat.size / MB:8.3f} MB  {stat.count:8d} blocks  {where}:{frame.lineno}")


if __name__ == "__main__":
    main()
