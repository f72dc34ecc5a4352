"""Byte-identity guard for the default sweep at seed 42.

One sha256 covers the twelve report JSONs, the measured matrix JSON and,
per type, the fault-free run's last block hash, state root and chain
byte total. A performance change that alters any simulated outcome, even
one the reports round away, changes the digest.
"""

import hashlib
from dataclasses import replace

from w3sim import evaluation as ev
from w3sim.archetypes import SimConfig, architecture
from w3sim.scenario import DEFAULT_FAULTS, NO_FAULTS, nft_sale_script

GOLDEN_SHA256 = "d5a76a7a5062f00a17de793b3402dd7aefe6b8845d012b4ab03d9ee6121da0b6"


def golden_digest() -> str:
    script = nft_sale_script()
    h = hashlib.sha256()
    reports = ev.run_sweep(script, DEFAULT_FAULTS, seed=42)
    for type_id in sorted(reports):
        h.update(ev.report_json(reports[type_id]).encode())
    h.update(ev.matrix_json(ev.compare(reports, reports[1])).encode())
    for type_id in range(1, 13):
        run = ev._ScenarioRun(architecture(type_id), script, replace(SimConfig(), seed=42), NO_FAULTS)
        run.run()
        chain = run.topology.chain
        h.update(chain.confirmed_blocks[-1].block_hash)
        h.update(chain.state.state_root)
        h.update(chain.bytes_total.to_bytes(8, "big"))
    return h.hexdigest()


def test_default_sweep_is_byte_identical():
    assert golden_digest() == GOLDEN_SHA256
