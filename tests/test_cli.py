import json
import os
import subprocess
import sys

import pytest

from w3sim import access, cli, evaluation, vm
from w3sim.archetypes import SimConfig, architecture
from w3sim.consensus import ConsensusConfig, ConsensusRule, RuleKind, chain_ndjson
from w3sim.evaluation import report_json, run_scenario, run_sweep
from w3sim.scenario import DEFAULT_FAULTS, FaultPlan, parse_scenario, settings_text


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_SCENARIO = """\
create_identity actor=alice
create_identity actor=bob
connect_wallet actor=alice
connect_wallet actor=bob
mint_nft actor=alice data_size=512
list_nft actor=alice price=100
buy_nft actor=bob price=100
retrieve_state actor=bob
repeat count=4
"""


BASELINE_INFEASIBLE = "the Type1 baseline is infeasible, so no row is measured: "


@pytest.fixture
def scenario_runs(monkeypatch):
    """Every _ScenarioRun the command builds, in order."""
    runs = []
    real_init = evaluation._ScenarioRun.__init__

    def recording_init(run, *args, **kwargs):
        runs.append(run)
        real_init(run, *args, **kwargs)

    monkeypatch.setattr(evaluation._ScenarioRun, "__init__", recording_init)
    return runs


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "sale.scenario"
    path.write_text(SMALL_SCENARIO)
    return str(path)


class TestSimulate:
    def test_repeat_runs_byte_identical(self, tmp_path, scenario_file, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            code, _, _ = run_cli(["simulate", "--type", "1", "--seed", "42",
                                  "--scenario", scenario_file, "--out", str(out)], capsys)
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_tuple_selector(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run_cli(["simulate", "--tuple", "A2,B2,C3", "--seed", "1",
                              "--scenario", scenario_file, "--out", str(out)], capsys)
        assert code == 0
        record = json.loads(out.read_text())
        assert record["type_id"] == 12

    def test_report_is_valid_json_with_schema(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "r.json"
        run_cli(["simulate", "--type", "2", "--seed", "3",
                 "--scenario", scenario_file, "--out", str(out)], capsys)
        record = json.loads(out.read_text())
        for key in ("tps", "gas_total", "availability", "security_violations", "config"):
            assert key in record

    def test_dump_chain_and_events(self, tmp_path, scenario_file, capsys, scenario_runs):
        runs = scenario_runs
        chain_path = tmp_path / "chain.ndjson"
        events_path = tmp_path / "events.ndjson"
        code, _, _ = run_cli(["simulate", "--type", "2", "--seed", "4",
                              "--scenario", scenario_file,
                              "--out", str(tmp_path / "r.json"),
                              "--dump-chain", str(chain_path),
                              "--dump-events", str(events_path)], capsys)
        assert code == 0
        for line in chain_path.read_text().splitlines():
            json.loads(line)
        for line in events_path.read_text().splitlines():
            json.loads(line)
        # The dumps show the report's own fault-free main run; nothing re-runs it.
        assert len(runs) == 2  # the main run and the faulted run
        main = runs[0].topology.chain
        assert chain_path.read_text() == chain_ndjson(main)
        assert events_path.read_text() == vm.export_events_ndjson(main.state)
        assert json.loads((tmp_path / "r.json").read_text())["ticks"] == main.now
        # Only the dumped run keeps history, and its dumps are full: every
        # confirmed tx in a block body, every event in the log.
        assert main.keep_history and not runs[1].topology.chain.keep_history
        blocks = [json.loads(line) for line in chain_path.read_text().splitlines()]
        assert sum(len(b["tx_ids"]) for b in blocks) == main.txs_confirmed > 0
        assert len(events_path.read_text().splitlines()) == len(main.state.event_log) > 0

    def test_simulate_without_a_dump_keeps_no_history(self, tmp_path, scenario_file, capsys,
                                                      scenario_runs):
        runs = scenario_runs
        code, _, _ = run_cli(["simulate", "--type", "8", "--seed", "4",
                              "--scenario", scenario_file,
                              "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0 and len(runs) == 2
        for run in runs:
            chain = run.topology.chain
            assert not chain.keep_history and chain.confirmations is None
            # A dump of a chain without history fails instead of writing headers only.
            with pytest.raises(ValueError, match="keep_history"):
                chain_ndjson(chain)
            with pytest.raises(ValueError, match="keep_history"):
                vm.export_events_ndjson(chain.state)

    @pytest.mark.parametrize("type_id", [1, 7])
    def test_no_faulted_run_where_no_default_fault_reaches(self, tmp_path, scenario_file, capsys,
                                                            scenario_runs, type_id):
        # On-chain storage and compute leave the default plan's flaky storage
        # and lying executor nothing to act on: the main run is the faulted run.
        out = tmp_path / "r.json"
        code, _, _ = run_cli(["simulate", "--type", str(type_id), "--seed", "4",
                              "--scenario", scenario_file, "--out", str(out)], capsys)
        assert code == 0 and len(scenario_runs) == 1
        report = json.loads(out.read_text())
        assert report["availability"] == 1.0 and report["config"]["faults.storage_crash_prob"] == "0.6"

    def test_env_seed_override(self, tmp_path, scenario_file, capsys, monkeypatch):
        monkeypatch.setenv("W3SIM_SEED", "777")
        out = tmp_path / "r.json"
        run_cli(["simulate", "--type", "1", "--scenario", scenario_file,
                 "--out", str(out)], capsys)
        assert json.loads(out.read_text())["seed"] == 777

    def test_explicit_seed_beats_env(self, tmp_path, scenario_file, capsys, monkeypatch):
        monkeypatch.setenv("W3SIM_SEED", "777")
        out = tmp_path / "r.json"
        run_cli(["simulate", "--type", "1", "--seed", "5", "--scenario", scenario_file,
                 "--out", str(out)], capsys)
        assert json.loads(out.read_text())["seed"] == 5


class TestMatrix:
    def test_matrix_exits_zero_on_default_build(self, capsys):
        code, out, _ = run_cli(["matrix", "--seed", "42"], capsys)
        assert code == 0
        assert "matches the reference evaluation" in out

    def test_matrix_markdown_format(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "m.md"
        code, _, _ = run_cli(["matrix", "--seed", "42", "--scenario", scenario_file,
                              "--format", "markdown", "--out", str(out)], capsys)
        assert code == 0
        assert "| Architecture |" in out.read_text()


    def test_matrix_without_out_writes_the_same_text_to_stdout(self, tmp_path, scenario_file,
                                                                capsys):
        path = tmp_path / "m.md"
        args = ["matrix", "--seed", "42", "--scenario", scenario_file, "--format", "markdown"]
        run_cli([*args, "--out", str(path)], capsys)
        _, out, _ = run_cli(args, capsys)
        assert out.startswith(path.read_text())

    def test_matrix_exits_one_when_the_fault_free_chain_stalls(self, tmp_path, scenario_file,
                                                                capsys):
        # A majority-chain rule that asks for more than the whole network
        # confirms nothing; every report is infeasible, so no row is measured.
        config = tmp_path / "sim.cfg"
        config.write_text("consensus.rule.kind = MajorityChain\nconsensus.rule.fraction = 1.0\n")
        code, out, _ = run_cli(["matrix", "--seed", "42", "--scenario", scenario_file,
                                "--config", str(config)], capsys)
        assert code == 1
        assert "present" not in out  # the matrix goes to stdout, then the one reason line
        assert out.endswith("\n" + BASELINE_INFEASIBLE + "chain stalled: 14 rounds without "
                            "progress with 4 ops unconfirmed\n")
        report = tmp_path / "r.json"
        run_cli(["simulate", "--type", "1", "--seed", "42", "--scenario", scenario_file,
                 "--config", str(config), "--out", str(report)], capsys)
        record = json.loads(report.read_text())
        assert record["feasible"] is False
        assert record["infeasible_reason"].startswith("chain stalled: ")

    def test_matrix_names_an_inline_too_large_baseline_once(self, tmp_path, capsys,
                                                           scenario_runs):
        # Type1 keeps every blob on-chain, and 4096 bytes do not fit inline.
        path = tmp_path / "big.scenario"
        path.write_text(SMALL_SCENARIO.replace("data_size=512", "data_size=4096"))
        out_file = tmp_path / "m.json"
        code, out, _ = run_cli(["matrix", "--seed", "42", "--scenario", str(path),
                                "--out", str(out_file)], capsys)
        assert code == 1
        [line] = out.splitlines()
        assert line.startswith(BASELINE_INFEASIBLE + "InlineTooLarge: ")
        assert json.loads(out_file.read_text()) == {"rows": []}
        # The baseline's run is the only one: no row is measured against it.
        assert len(scenario_runs) == 1
        # A sweep still runs and writes every type's report.
        out_dir = tmp_path / "sweep"
        assert run_cli(["sweep", "--seed", "42", "--scenario", str(path),
                        "--out", str(out_dir)], capsys)[0] == 0
        swept = run_sweep(parse_scenario(path.read_text()), seed=42)
        for type_id, report in swept.items():
            assert (out_dir / f"report_type{type_id}.json").read_text() == report_json(report)
        assert len(swept) == 12 and sum(r.feasible for r in swept.values()) > 0


class TestSweep:
    def test_writes_reports_and_matrix(self, tmp_path, scenario_file, capsys):
        out = str(tmp_path / "sweepdir")
        code, _, _ = run_cli(["sweep", "--seed", "9", "--scenario", scenario_file,
                              "--out", out], capsys)
        assert code == 0
        files = sorted(os.listdir(out))
        assert "matrix.json" in files
        assert sum(1 for f in files if f.startswith("report_type")) == 12


def assert_narrated(out):
    positions = [out.find(banner) for banner in cli.PHASE_BANNERS]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)
    assert "demo complete" in out


class TestDemo:
    def test_banners_in_order(self, capsys):
        code, out, _ = run_cli(["demo", "--seed", "42"], capsys)
        assert code == 0
        assert_narrated(out)

    @pytest.mark.parametrize("type_id", range(1, 13))
    def test_every_type_runs_the_sale_through_its_access_mode(self, type_id, capsys, monkeypatch):
        calls = []
        real = access.submit_via_agent
        monkeypatch.setattr(access, "submit_via_agent",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        code, out, _ = run_cli(["demo", "--seed", "42", "--type", str(type_id)], capsys)
        assert code == 0
        assert_narrated(out)
        if type_id >= 7:  # access A2
            assert calls and "signed by the agent" in out
        else:
            assert not calls and "signed by Alice" in out

    def test_infeasible_sale_fails_the_demo(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("inline_cap = 100\n")  # the 768-byte mint cannot go inline
        code, out, _ = run_cli(["demo", "--type", "1", "--config", str(config)], capsys)
        assert code == 1
        assert "demo FAILED" in out and "InlineTooLarge" in out

    def test_demo_on_type1(self, capsys):
        code, out, _ = run_cli(["demo", "--seed", "42", "--type", "1"], capsys)
        assert code == 0
        assert "carried inline" in out


class TestEncode:
    def test_vectors(self, capsys):
        code, out, _ = run_cli(["encode", "--scheme", "base58", "--hex", "000001"], capsys)
        assert code == 0 and out.strip() == "112"
        code, out, _ = run_cli(["encode", "--scheme", "base58", "--hex", "00"], capsys)
        assert out.strip() == "1"
        code, out, _ = run_cli(["encode", "--scheme", "base16", "--hex", "dead"], capsys)
        assert out.strip() == "0xdead"

    def test_decode(self, capsys):
        code, out, _ = run_cli(["encode", "--scheme", "base58", "--decode", "112"], capsys)
        assert code == 0 and out.strip() == "000001"

    def test_empty_hex(self, capsys):
        code, out, _ = run_cli(["encode", "--scheme", "base58", "--hex", ""], capsys)
        assert code == 0 and out.strip() == ""


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_simulate_needs_selector(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--seed", "1"])
        assert err.value.code == 2

    def test_type_out_of_range(self, capsys):
        code, _, err = run_cli(["simulate", "--type", "13"], capsys)
        assert code == 2
        assert "architecture type id must be 1..12, got 13" in err

    def test_demo_type_out_of_range(self, capsys):
        assert cli.main(["demo", "--type", "99"]) == 2

    @pytest.mark.parametrize("flag, value", [("--scenario", "x"), ("--faults", "x"),
                                             ("--out", "x"), ("--format", "json")])
    def test_demo_rejects_flags_it_does_not_read(self, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["demo", flag, value])
        assert err.value.code == 2

    def test_encode_needs_input(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["encode", "--scheme", "base58"])
        assert err.value.code == 2


BAD_SCENARIO_LINES = [
    ("mint_nft actor=alice data_size=512", "mint_nft actor=alice size=100",
     "line 5: mint_nft takes no parameter 'size'"),
    ("list_nft actor=alice price=100", "list_nft actor=alice prize=5",
     "line 6: list_nft takes no parameter 'prize'"),
    ("mint_nft actor=alice data_size=512", "mint_nft actor=alice data_size=-5",
     "line 5: data_size must be >= 0, got -5"),
    ("list_nft actor=alice price=100", "list_nft actor=alice price=-1",
     "line 6: price must be in [0, 2**128), got -1"),
    ("repeat count=4", "repeat count=0", "line 9: repetitions must be >= 1, got 0"),
    ("repeat count=4", "repeat count=4\nrepeat count=5", "line 10: a second repeat line"),
]


@pytest.mark.parametrize("command", ["simulate", "matrix"])
@pytest.mark.parametrize("line, bad, message", BAD_SCENARIO_LINES,
                         ids=[bad.replace("\n", " / ") for _, bad, _ in BAD_SCENARIO_LINES])
def test_bad_scenario_file_exits_2(tmp_path, capsys, command, line, bad, message):
    path = tmp_path / "bad.scenario"
    path.write_text(SMALL_SCENARIO.replace(line, bad))
    out = tmp_path / "out"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    code, _, err = run_cli(argv + (["--type", "3"] if command == "simulate" else []), capsys)
    assert code == 2
    assert message in err
    assert not out.exists()


BAD_FAULT_PLANS = [
    ("byzantine_maintainers = -2\n", "line 1: byzantine_maintainers must be >= 0, got -2"),
    ("byzantine_maintainers = 9\n", "byzantine_maintainers must be <= n_nodes (7), got 9"),
    ("maintainer_crash_prob = lots\n",
     "line 1: maintainer_crash_prob: could not convert string to float: 'lots'"),
]


@pytest.mark.parametrize("command", ["simulate", "matrix", "sweep"])
@pytest.mark.parametrize("text, message", BAD_FAULT_PLANS,
                         ids=[text.strip() for text, _ in BAD_FAULT_PLANS])
def test_bad_fault_plan_exits_2(tmp_path, capsys, scenario_file, scenario_runs, command, text,
                                message):
    path = tmp_path / "bad.faults"
    path.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--scenario", scenario_file, "--faults", str(path), "--out", str(out)]
    code, _, err = run_cli(argv + (["--type", "1"] if command == "simulate" else []), capsys)
    assert code == 2
    assert message in err
    assert not out.exists()
    assert scenario_runs == []  # every input is checked before the first run


@pytest.mark.parametrize("command, flag, target", [
    ("simulate", "--out", ""),
    ("matrix", "--out", ""),
    ("sweep", "--out", ""),
    ("simulate", "--out", "file/report.json"),
    ("matrix", "--out", "file/deeper/"),
    ("sweep", "--out", "file"),
    ("simulate", "--dump-chain", ""),
    ("simulate", "--dump-chain", "."),
    ("simulate", "--dump-events", "file/events.ndjson"),
], ids=["simulate-empty", "matrix-empty", "sweep-empty", "simulate-under-a-file",
        "matrix-under-a-file", "sweep-into-a-file", "dump-chain-empty",
        "dump-chain-to-a-directory", "dump-events-under-a-file"])
def test_an_unusable_output_path_exits_2_before_any_run(tmp_path, monkeypatch, capsys,
                                                        scenario_file, scenario_runs,
                                                        command, flag, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("not a directory")
    argv = [command, "--scenario", scenario_file, flag, target]
    code, _, err = run_cli(argv + (["--type", "1"] if command == "simulate" else []), capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert scenario_runs == []


ONE_PATH_PLANS = {"default": DEFAULT_FAULTS, "maintainer-crash": FaultPlan(maintainer_crash_prob=0.1)}


@pytest.fixture(scope="module")
def swept():
    """run_sweep's reports under each plan of ONE_PATH_PLANS."""
    return {plan: run_sweep(parse_scenario(SMALL_SCENARIO), faults, seed=42)
            for plan, faults in ONE_PATH_PLANS.items()}


@pytest.mark.parametrize("plan", ONE_PATH_PLANS)
@pytest.mark.parametrize("type_id", range(1, 13))
def test_every_entry_point_gives_the_same_report(tmp_path, capsys, scenario_file, swept, type_id,
                                                 plan):
    # simulate, with or without a dump, run_scenario and run_sweep all end in
    # evaluation._reports, so one report comes out as the same bytes.
    faults = ONE_PATH_PLANS[plan]
    path = tmp_path / "plan.faults"
    path.write_text(settings_text(faults))
    argv = ["simulate", "--type", str(type_id), "--seed", "42", "--scenario", scenario_file,
            "--faults", str(path)]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    code, dumped, _ = run_cli(argv + ["--dump-chain", str(tmp_path / "chain.ndjson")], capsys)
    assert code == 0
    single = report_json(run_scenario(architecture(type_id), parse_scenario(SMALL_SCENARIO),
                                      faults, seed=42))
    assert plain == dumped == single == report_json(swept[plan][type_id])


def test_sweep_files_are_byte_identical_across_hash_seeds_and_jobs(tmp_path):
    # A report must not depend on set or dict order under a hash seed, nor
    # on which worker process ran its shape; each run is a fresh interpreter.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = os.path.join(root, "scenarios", "nft_sale.scenario")  # 30 repetitions
    outputs = []
    for hash_seed, jobs in (("0", "1"), ("1", "1"), ("0", "2")):
        out = tmp_path / f"hash{hash_seed}-jobs{jobs}"
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "w3sim.cli", "sweep", "--seed", "42",
                        "--scenario", scenario, "--jobs", jobs, "--out", str(out)],
                       env=env, capture_output=True, timeout=120, check=True)
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]) == 13
    assert outputs[0] == outputs[1] == outputs[2]


def test_zero_jobs_exits_2(tmp_path, capsys, scenario_file):
    out = tmp_path / "out"
    code, _, err = run_cli(["sweep", "--scenario", scenario_file, "--jobs", "0",
                            "--out", str(out)], capsys)
    assert code == 2
    assert "jobs must be >= 1, got 0" in err
    assert not out.exists()


def test_non_integer_seed_variable_exits_2(monkeypatch, capsys, scenario_file):
    monkeypatch.setenv("W3SIM_SEED", "forty-two")
    code, _, err = run_cli(["simulate", "--type", "1", "--scenario", scenario_file], capsys)
    assert code == 2
    assert "W3SIM_SEED must be an integer, got 'forty-two'" in err


SHIPPED_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "scenarios", "sim.cfg")


def load_sim(argv):
    return cli._load_sim(cli._build_parser().parse_args(["simulate", "--type", "1", *argv]))


class TestConfigFile:
    def test_consensus_config_from_file(self, tmp_path, scenario_file, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "consensus.rule.kind = BftQuorum\n"
            "consensus.rule.fraction = 0.6667\n"
            "consensus.block_interval = 2\n"
            "consensus.n_nodes = 5\n"
        )
        out = tmp_path / "r.json"
        code, _, _ = run_cli(["simulate", "--type", "1", "--seed", "6",
                              "--scenario", scenario_file, "--config", str(config),
                              "--out", str(out)], capsys)
        assert code == 0
        record = json.loads(out.read_text())
        assert record["nodes"] == 5

    def test_shipped_config_is_the_default_sim_config(self, monkeypatch):
        monkeypatch.delenv("W3SIM_SEED", raising=False)
        assert load_sim(["--config", SHIPPED_CONFIG]) == SimConfig()
        # It names every setting, the seed line commented out so W3SIM_SEED applies.
        with open(SHIPPED_CONFIG, encoding="utf-8") as fh:
            assert fh.read().endswith(settings_text(SimConfig()).replace("seed", "# seed", 1))
        monkeypatch.setenv("W3SIM_SEED", "777")
        assert load_sim(["--config", SHIPPED_CONFIG]).seed == 777

    def test_nodes_flag_beats_config_file_beats_default(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("consensus.n_nodes = 5\n")
        assert load_sim(["--nodes", "4", "--config", str(config)]).consensus.n_nodes == 4
        assert load_sim(["--config", str(config)]).consensus.n_nodes == 5
        assert load_sim([]).consensus.n_nodes == 7

    @pytest.mark.parametrize("argv, env, seed", [
        ([], None, 42),
        ([], "777", 777),
        (["--config", "{seed_file}"], "777", 9),
        (["--seed", "5", "--config", "{seed_file}"], "777", 5),
    ], ids=["default", "env", "file-beats-env", "flag-beats-file"])
    def test_seed_precedence(self, tmp_path, monkeypatch, argv, env, seed):
        seed_file = tmp_path / "seed.cfg"
        seed_file.write_text("seed = 9\n")
        if env is None:
            monkeypatch.delenv("W3SIM_SEED", raising=False)
        else:
            monkeypatch.setenv("W3SIM_SEED", env)
        args = cli._build_parser().parse_args(
            ["simulate", "--type", "1", *(a.format(seed_file=seed_file) for a in argv)])
        _, _, sim = cli._run_inputs(args)
        assert sim.seed == seed

    def test_misspelled_config_key_exits_2(self, tmp_path, scenario_file, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("consensus.max_tx_per_block = 4\n")
        code, _, err = run_cli(["simulate", "--type", "1", "--scenario", scenario_file,
                                "--config", str(config)], capsys)
        assert code == 2
        assert "consensus.max_tx_per_block" in err

    OUT_OF_RANGE = [("consensus.network_capacity = 0\n", "must be >= 1"),
                    ("consensus.max_txs_per_block = 0\n", "must be >= 1"),
                    ("consensus.block_interval = 0\n", "must be >= 1"),
                    ("consensus.n_nodes = 0\n", "must be >= 1"),
                    ("replicas = 11\n", "replicas must be <= storage nodes (10)"),
                    ("inline_cap = -1\n", "inline_cap must be >= 0, got -1"),
                    ("storage_nodes = 0\n", "storage_nodes must be >= 1, got 0"),
                    ("consensus.n_nodes = seven\n",
                     "line 1: consensus.n_nodes: invalid literal for int()"),
                    ("consensus.rule.fraction = most\n",
                     "line 1: consensus.rule.fraction: could not convert string to float: 'most'"),
                    ("gas_schedule.per_inline_byte = 1.5\n",
                     "line 1: gas_schedule.per_inline_byte: invalid literal for int()")]

    @pytest.mark.parametrize("text, message", OUT_OF_RANGE,
                             ids=[text for text, _ in OUT_OF_RANGE])
    def test_out_of_range_config_value_exits_2(self, tmp_path, scenario_file, capsys, text,
                                               message):
        config = tmp_path / "sim.cfg"
        config.write_text(text)
        out = tmp_path / "r.json"
        code, _, err = run_cli(["simulate", "--type", "1", "--scenario", scenario_file,
                                "--config", str(config), "--out", str(out)], capsys)
        assert code == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("batch_size = -1\n", "batch_size must be >= 1"),
        ("batch_size = 0\n", "batch_size must be >= 1"),
        ("consensus.rule.kind = MajorityChain\nconsensus.rule.confirm_depth = -1\n",
         "confirm_depth must be >= 0"),
    ], ids=["batch_size=-1", "batch_size=0", "confirm_depth=-1"])
    def test_bad_agent_or_rule_setting_exits_2(self, tmp_path, scenario_file, capsys,
                                              text, message):
        config = tmp_path / "sim.cfg"
        config.write_text(text)
        out = tmp_path / "r.json"
        code, _, err = run_cli(["simulate", "--type", "7", "--scenario", scenario_file,
                                "--config", str(config), "--out", str(out)], capsys)
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_consensus_rule_names(self, tmp_path, scenario_file, capsys):
        # A rule kind is named by its RuleKind value, and the file gives the
        # same rule as code: the majority chain's fraction is 2/3 in both.
        config = tmp_path / "sim.cfg"
        for kind in RuleKind:
            config.write_text(f"consensus.rule.kind = {kind.value}\n")
            assert load_sim(["--config", str(config)]) == SimConfig(
                consensus=ConsensusConfig(rule=ConsensusRule(kind)))
        for name in ("btf", "majority"):
            config.write_text(f"consensus.rule.kind = {name}\n")
            code, _, err = run_cli(["simulate", "--type", "1", "--scenario", scenario_file,
                                    "--config", str(config)], capsys)
            assert code == 2
            assert f"line 1: consensus.rule.kind: '{name}' is not a valid RuleKind" in err


@pytest.mark.parametrize("flag, text, message", [
    ("--scenario", "transmogrify actor=alice\n", "line 1: 'transmogrify' is not a valid StepKind"),
    ("--faults", "byz_mode = loud\n", "line 1: byz_mode: 'loud' is not a valid ByzantineMode"),
    ("--config", "gas_schedule.per_inline_byte = 1.5\n",
     "line 1: gas_schedule.per_inline_byte: invalid literal for int() with base 10: '1.5'"),
])
def test_an_input_file_error_names_the_file(tmp_path, capsys, flag, text, message):
    path = tmp_path / "bad.input"
    path.write_text(text)
    code, _, err = run_cli(["simulate", "--type", "1", flag, str(path)], capsys)
    assert code == 2
    assert f"error: {path}: {message}" in err
