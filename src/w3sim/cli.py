"""Command-line entry point.

Subcommands: simulate (one architecture report), sweep (all twelve types),
matrix (sweep + diff against the reference evaluation, nonzero exit on any
mismatch), demo (narrated NFT sale walking the five protocol phases), and
encode (address-encoding utilities for test vectors).

Exit codes: 0 success, 1 matrix mismatch or failed demo, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import access, evaluation, identity, vm
from .archetypes import FT_ID, NFT_ID, SimConfig, architecture, parse_tuple
from .consensus import ConsensusConfig, chain_ndjson
from .evaluation import (
    compare,
    diff_against_reference,
    matrix_json,
    matrix_markdown,
    report_json,
)
from .scenario import NO_FAULTS, nft_sale_script, parse_faults, parse_scenario, parse_settings

PHASE_BANNERS = (
    "[Π1] identity creation",
    "[Π2] transaction generation",
    "[Π3] contract execution",
    "[Π4] state consensus",
    "[Π5] state retrieval",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="w3sim",
                                     description="Deterministic Web3 protocol and architecture simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def run_flags(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"PRNG seed (overrides the config file's seed, which overrides "
                            f"W3SIM_SEED, which overrides the default {SimConfig.seed})")
        p.add_argument("--nodes", type=int, default=None,
                       help=f"maintainer count (overrides the config file; "
                            f"default {ConsensusConfig.n_nodes})")
        p.add_argument("--config", help="settings file of `dotted.field = value` lines, "
                                        "as in a report's config block")

    def common(p):
        run_flags(p)
        p.add_argument("--scenario", help="scenario script file")
        p.add_argument("--faults", help="fault plan file")
        p.add_argument("--out", help="output path (file or directory)")
        p.add_argument("--format", choices=("json", "markdown"), default="json")

    sim = sub.add_parser("simulate", help="run one architecture and emit its metric report")
    common(sim)
    sim.add_argument("--type", type=int, dest="type_id", help="architecture type id 1..12")
    sim.add_argument("--tuple", dest="tuple_text", help="architecture tuple, e.g. A1,B2,C3")
    sim.add_argument("--dump-chain", help="write the confirmed chain as NDJSON to this path")
    sim.add_argument("--dump-events", help="write the event log as NDJSON to this path")

    sw = sub.add_parser("sweep", help="run all twelve types and emit reports plus the matrix")
    common(sw)
    sw.add_argument("--jobs", type=int, default=1, help="parallel type simulations")

    mx = sub.add_parser("matrix", help="sweep and diff against the reference evaluation")
    common(mx)
    mx.add_argument("--jobs", type=int, default=1)

    demo = sub.add_parser("demo", help="narrated NFT sale across the five protocol phases")
    run_flags(demo)
    demo.add_argument("--type", type=int, dest="type_id", default=2,
                      help="architecture to demo (default Type2)")

    enc = sub.add_parser("encode", help="address-encoding utilities")
    enc.add_argument("--scheme", choices=("base58", "base16"), required=True)
    enc.add_argument("--hex", dest="hex_bytes", help="hex bytes to encode")
    enc.add_argument("--decode", help="text to decode back to hex")
    return parser


def _read(path: str | None, parse, *args):
    """parse(text of the file at path, *args), or None without a path; an error names the file."""
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text, *args)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def _load_sim(args) -> SimConfig:
    """SimConfig with the seed from W3SIM_SEED, then the --config file's settings, then --nodes.

    --seed is applied later, by evaluation._inputs, so it beats all three.
    """
    env = os.environ.get("W3SIM_SEED")
    try:
        sim = SimConfig(seed=SimConfig.seed if env is None else int(env))
    except ValueError as err:
        raise ValueError(f"W3SIM_SEED must be an integer, got {env!r}") from err
    if args.config:
        sim = _read(args.config, parse_settings, sim)
    if args.nodes is not None:
        sim = replace(sim, consensus=replace(sim.consensus, n_nodes=args.nodes))
    return sim


def _run_inputs(args):
    """(script, faults, sim) from the command's flags and files, all checked before any run."""
    return evaluation._inputs(_read(args.scenario, parse_scenario),
                              _read(args.faults, parse_faults), args.seed, _load_sim(args))


def _check_out(path: str | None, out_dir_ok=True) -> None:
    """Fail unless _write(path, ..., out_dir_ok) can write there; called before any run."""
    if path is None:
        return
    dir_named = path.endswith(os.sep) or os.path.isdir(path)
    if not path or dir_named and not out_dir_ok:
        raise ValueError(f"cannot write a file at {path!r}")
    folder = os.path.dirname(os.path.join(path, "_") if dir_named else path) or "."
    while not os.path.exists(folder):  # _write makes the missing directories
        folder = os.path.dirname(folder) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK | os.X_OK):
        raise ValueError(f"{path}: {folder} is not a writable directory")


def _write(path: str | None, default_name: str, content: str, out_dir_ok=True) -> str | None:
    if path is None:
        sys.stdout.write(content)
        return None
    target = path
    if out_dir_ok and (path.endswith(os.sep) or os.path.isdir(path)):
        os.makedirs(path, exist_ok=True)
        target = os.path.join(path, default_name)
    else:
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(content)
    return target


def _report_markdown(report) -> str:
    lines = [f"### Type{report.type_id} ({report.tuple_label}), seed {report.seed}", ""]
    for key, value in sorted(report.to_json_dict().items()):
        if key == "config":
            continue
        lines.append(f"- {key}: {value}")
    lines.append("")
    return "\n".join(lines)


def _pick_arch(args):
    if getattr(args, "tuple_text", None):
        return parse_tuple(args.tuple_text)
    type_id = getattr(args, "type_id", None)
    if type_id is None:
        raise SystemExit2("one of --type or --tuple is required")
    return architecture(type_id)


class SystemExit2(Exception):
    pass


def cmd_simulate(args) -> int:
    arch = _pick_arch(args)
    _check_out(args.out)
    _check_out(args.dump_chain, out_dir_ok=False)
    _check_out(args.dump_events, out_dir_ok=False)
    script, faults, sim = _run_inputs(args)
    # The report's fault-free main run, kept so the dumps show its chain;
    # it keeps block bodies and the event log only when a dump needs them.
    main = evaluation._ScenarioRun(arch, script, sim, NO_FAULTS,
                                   keep_history=bool(args.dump_chain or args.dump_events))
    report, = evaluation._reports([arch], script, faults, sim, main=main.run())
    content = report_json(report) if args.format == "json" else _report_markdown(report)
    _write(args.out, f"report_type{arch.type_id}.{'json' if args.format == 'json' else 'md'}", content)
    chain = main.topology.chain
    if args.dump_chain:
        _write(args.dump_chain, "chain.ndjson", chain_ndjson(chain), out_dir_ok=False)
    if args.dump_events:
        _write(args.dump_events, "events.ndjson", vm.export_events_ndjson(chain.state),
               out_dir_ok=False)
    return 0


def _sweep_outputs(args, out: str | None, whole: bool):
    """The sweep's reports, its matrix, and the matrix's name and text; out is checked first.

    Unless whole, a sweep whose Type1 baseline is infeasible stops after the
    baseline's run shape: compare measures no row against that baseline.
    """
    _check_out(out)
    reports = {}
    for batch in evaluation._sweep_batches(*_run_inputs(args), args.jobs):
        reports.update((report.type_id, report) for report in batch)
        if not whole and not reports[1].feasible:
            break
    matrix = compare(reports, reports[1])
    if args.format == "json":
        return reports, matrix, "matrix.json", matrix_json(matrix)
    return reports, matrix, "matrix.md", matrix_markdown(matrix)


def cmd_sweep(args) -> int:
    out = "." if args.out is None else args.out
    folder = os.path.join(out, "")  # names a directory, which _write makes if missing
    reports, _, name, content = _sweep_outputs(args, folder, whole=True)
    for type_id, report in sorted(reports.items()):
        _write(folder, f"report_type{type_id}.json", report_json(report))
    _write(folder, name, content)
    print(f"wrote {len(reports)} reports and {name} to {out}")
    return 0


def cmd_matrix(args) -> int:
    reports, matrix, name, content = _sweep_outputs(args, args.out, whole=False)
    mismatches = diff_against_reference(matrix)
    _write(args.out, name, content)
    baseline = reports[1]
    if not baseline.feasible:  # compare measures no row, so each would read as missing
        print(f"the Type1 baseline is infeasible, so no row is measured: "
              f"{baseline.infeasible_reason}")
        return 1
    if mismatches:
        print(f"{len(mismatches)} mismatch(es) against the reference evaluation:")
        for m in mismatches:
            print(f"  {m}")
        return 1
    print("matrix matches the reference evaluation on all rows")
    return 0


def cmd_demo(args) -> int:
    arch = architecture(args.type_id)
    script, _, sim = evaluation._inputs(nft_sale_script(repetitions=1), NO_FAULTS, args.seed,
                                        _load_sim(args))
    run = evaluation._ScenarioRun(arch, script, sim, NO_FAULTS, keep_history=True)
    stats = run.run()
    print(f"Demo: NFT sale on Type{arch.type_id} ({arch.tuple_label}), seed {sim.seed}")
    if stats.infeasible_reason or stats.ops_succeeded != stats.ops_attempted:
        print(f"demo FAILED: {stats.ops_succeeded} of {stats.ops_attempted} ops succeeded"
              + (f" ({stats.infeasible_reason})" if stats.infeasible_reason else ""))
        return 1
    chain, agent, fabric = run.topology.chain, run.topology.agent, run.topology.fabric
    alice, bob = run.wallets["alice"], run.wallets["bob"]
    signers = {alice.address.payload: "Alice", bob.address.payload: "Bob"}
    if agent is not None:
        signers[agent.address.payload] = "the agent"
    # Every op succeeded, so each of these events sits in exactly one confirmation.
    by_event = {ev.name: (conf, ev) for conf in chain.confirmations for ev in conf.receipt.events}
    (mint, minted), (listing, listed), (sale, _) = by_event["Mint"], by_event["Listed"], by_event["Sale"]

    print(PHASE_BANNERS[0])
    print(f"  Alice address {alice.address.text}")
    print(f"        base58  {identity.derive_address(alice.keypair.public_key, identity.AddressScheme.BASE58_BTC).text}")
    print(f"  Bob   address {bob.address.text}")
    print("  wallets connected to service 'nft-market'")
    if agent is not None:
        print(f"  agent {agent.address.text} registered for both users")

    # Storage reads the data back from the token's record, checking a linked blob's cid.
    record = vm.query_state(chain.state, NFT_ID, "dataOf", (minted.field("token_id"),))
    data = fabric.read(record)
    linked = not fabric.plan.inlines(len(data))

    print(PHASE_BANNERS[1])
    if linked:
        print(f"  raw data stored off-chain, cid {record[1:].hex()[:16]}…")
        print("  cid hooked on-chain inside the mint transaction")
    else:
        print(f"  raw data ({len(data)} bytes) carried inline in the mint transaction")
    for label, conf in (("mint", mint), ("list", listing), ("buy", sale)):
        print(f"  {label} tx {conf.tx.tx_id.hex()[:16]}… signed by {signers[conf.tx.metadata.sender.payload]}")

    print(PHASE_BANNERS[2])
    print("  maintainers execute mint, list and buy against the NFT, market and token contracts")
    print(PHASE_BANNERS[3])
    print(f"  mint confirmed at height {mint.height}, listing at {listing.height} "
          f"(price {listed.field('price')}), buy at {sale.height}")
    print("  the buy moved payment and ownership in one receipt")

    print(PHASE_BANNERS[4])
    retrieved = access.retrieve_state(chain, bob.address, NFT_ID)
    owner = vm.query_state(chain.state, NFT_ID, "ownerOf", (minted.field("token_id"),))
    alice_bal, bob_bal = (vm.query_state(chain.state, FT_ID, "balanceOf", (w.address.payload,))
                          for w in (alice, bob))
    supply = vm.query_state(chain.state, FT_ID, "totalSupply")
    ok_sale = retrieved.tx_id == sale.tx.tx_id
    ok_supply = supply == alice_bal + bob_bal
    print(f"  retrieval for Bob returns confirming tx {retrieved.tx_id.hex()[:12]}… (buy: {ok_sale})")
    if linked:
        print("  off-chain raw data verified against its cid by the retrieval")
    print(f"  NFT owner is Bob: {owner == bob.address.payload}; supply conserved ({supply}): {ok_supply}")
    print(f"  balances: Alice {alice_bal}, Bob {bob_bal}")
    good = ok_sale and ok_supply
    print("demo complete" if good else "demo FAILED")
    return 0 if good else 1


def cmd_encode(args) -> int:
    if args.hex_bytes is None and args.decode is None:
        raise SystemExit2("encode requires --hex or --decode")
    if args.hex_bytes is not None:
        raw = bytes.fromhex(args.hex_bytes)
        out = identity.encode_base58(raw) if args.scheme == "base58" else identity.encode_base16(raw)
        print(out)
    if args.decode is not None:
        raw = (identity.decode_base58(args.decode) if args.scheme == "base58"
               else identity.decode_base16(args.decode))
        print(raw.hex())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "matrix": cmd_matrix,
        "demo": cmd_demo,
        "encode": cmd_encode,
    }
    try:
        return handlers[args.command](args)
    except SystemExit2 as err:
        parser.error(str(err))  # exits 2
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
