import contextlib
import dataclasses
import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from enum import Enum
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_golden import FAULT_WIRING_PLANS

from w3sim import access, identity
from w3sim import evaluation as ev
from w3sim.access import AgentBehavior
from w3sim.archetypes import FT_ID, NFT_ID, SimConfig, architecture
from w3sim.consensus import (
    Block,
    BlockHeader,
    ByzantineMode,
    ChainNetwork,
    Confirmation,
    ConsensusConfig,
    ConsensusRule,
    RuleKind,
)
from w3sim.evaluation import (
    MERGED_GROUPS,
    banded_sign,
    compare,
    diff_against_reference,
    matrix_json,
    matrix_markdown,
    reference_matrix,
    report_json,
    rule_scores,
    run_raw,
    run_scenario,
    run_sweep,
    stakeholder_benefits,
)
from w3sim.scenario import (
    DEFAULT_FAULTS,
    NO_FAULTS,
    FaultPlan,
    ScenarioScript,
    Step,
    StepKind,
    nft_sale_script,
    parse_faults,
    parse_scenario,
    parse_settings,
    scenario_text,
    settings_text,
)
from w3sim.storage import DigestMismatch
from w3sim.txcraft import Transaction
from w3sim.vm import (TAMPER_TARGETS, ExecutorBehavior, GasSchedule, QueryError, Receipt,
                      query_state)

FAST = nft_sale_script(repetitions=6)


class TestRuleScores:
    def test_type1_all_zero(self):
        scores = rule_scores(architecture(1))
        assert dataclasses.astuple(scores) == (0, 0, 0, 0, 0, 0)

    def test_type5_6_row(self):
        for tid in (5, 6):
            scores = rule_scores(architecture(tid))
            assert scores.security == -3
            assert scores.confidentiality == 2
            assert scores.usability == 2

    def test_type7_row(self):
        scores = rule_scores(architecture(7))
        assert scores.anonymity == -3
        assert scores.security == 0
        assert scores.availability == 0

    def test_all_rows_match_reference(self):
        ref = reference_matrix()
        for group in MERGED_GROUPS:
            row = ref.row(ev._group_label(group))
            for tid in group:
                scores = rule_scores(architecture(tid))
                assert scores.security == row.cell("security")
                assert scores.anonymity == row.cell("anonymity")
                assert scores.confidentiality == row.cell("confidentiality")
                assert scores.availability == row.cell("availability")
                assert scores.usability == row.cell("usability")
                assert scores.gas == row.cell("gas")

    def test_stakeholders(self):
        assert stakeholder_benefits(architecture(1)) == (0, 0, 0)
        assert stakeholder_benefits(architecture(4)) == (1, -1, -1)
        assert stakeholder_benefits(architecture(11)) == (3, -3, -3)
        assert stakeholder_benefits(architecture(12)) == (3, -3, -3)
        ref = reference_matrix()
        for group in MERGED_GROUPS:
            row = ref.row(ev._group_label(group))
            for tid in group:
                user, provider, maintainer = stakeholder_benefits(architecture(tid))
                assert (user, provider, maintainer) == \
                    (row.cell("user"), row.cell("provider"), row.cell("maintainer"))


class TestReferenceMatrix:
    def test_pinned_cells(self):
        ref = reference_matrix()
        assert ref.cell("Type2/3", "performance") == 2
        assert ref.cell("Type11/12", "performance") == 3
        assert ref.cell("Type10", "security") == -2
        assert ref.cell("Type7", "anonymity") == -3
        assert ref.cell("Type1", "availability") == 0

    def test_baseline_row_all_zero(self):
        row = reference_matrix().row("Type1")
        assert all(value == 0 for _, value in row.cells)

    def test_each_column_has_a_dot_per_row_and_a_source(self):
        keys = [col.key for col in ev.COLUMNS]
        keys += [col.measured.sign_key for col in ev.COLUMNS if col.measured]
        assert len(set(keys)) == len(keys)
        for col in ev.COLUMNS:
            assert len(col.dots) == len(MERGED_GROUPS), col.key
            assert col.rule or col.measured, col.key

    def test_measured_signs_are_dot_signs(self):
        ref = reference_matrix()
        for row in ref.rows:
            assert row.cell("performance_sign") == (row.cell("performance") > 0) - (row.cell("performance") < 0)
            assert row.cell("availability_trend_sign") == \
                (row.cell("availability") > 0) - (row.cell("availability") < 0)


class TestBandedSign:
    def test_dead_band(self):
        assert banded_sign(1.04, 1.0) == 0
        assert banded_sign(0.96, 1.0) == 0
        assert banded_sign(1.06, 1.0) == 1
        assert banded_sign(0.94, 1.0) == -1

    def test_negative_baseline(self):
        assert banded_sign(-0.8, -1.0) == 1
        assert banded_sign(-1.2, -1.0) == -1
        assert banded_sign(-1.01, -1.0) == 0


class TestRunScenario:
    def test_type1_no_faults_ideal(self):
        report = run_scenario(architecture(1), FAST, NO_FAULTS, seed=11)
        assert report.feasible
        assert report.availability == 1.0
        assert report.security_violations == 0

    def test_determinism_byte_identical(self):
        a = run_scenario(architecture(3), FAST, DEFAULT_FAULTS, seed=13)
        b = run_scenario(architecture(3), FAST, DEFAULT_FAULTS, seed=13)
        assert report_json(a) == report_json(b)

    def test_large_data_infeasible_on_type1_feasible_on_type2(self):
        big = nft_sale_script(data_size=1_000_000, repetitions=1)
        r1 = run_scenario(architecture(1), big, NO_FAULTS, seed=14)
        r2 = run_scenario(architecture(2), big, NO_FAULTS, seed=14)
        assert not r1.feasible
        assert "InlineTooLarge" in r1.infeasible_reason
        assert r2.feasible
        assert r2.availability == 1.0

    def test_a_blob_over_the_cap_but_under_the_threshold_goes_off_chain(self):
        script = nft_sale_script(data_size=1500, repetitions=5)
        sim = SimConfig(seed=42, inline_threshold=2000)
        assert "InlineTooLarge" in run_raw(architecture(1), script, sim, NO_FAULTS).infeasible_reason
        stats = run_raw(architecture(2), script, sim, NO_FAULTS)
        assert stats.ops_succeeded == stats.ops_attempted == 20

    def test_the_seed_is_the_sims_unless_one_is_given(self):
        sim = SimConfig(seed=7)
        assert run_scenario(architecture(1), FAST, NO_FAULTS, sim=sim).seed == 7
        assert run_scenario(architecture(1), FAST, NO_FAULTS).seed == SimConfig().seed
        assert run_scenario(architecture(1), FAST, NO_FAULTS, seed=9, sim=sim).seed == 9
        assert {r.seed for r in run_sweep(FAST, NO_FAULTS, sim=sim).values()} == {7}
        assert {r.seed for r in run_sweep(FAST, NO_FAULTS, seed=9, sim=sim).values()} == {9}

    def test_infeasible_baseline_yields_missing_row_mismatches(self):
        big = nft_sale_script(data_size=1_000_000, repetitions=1)
        reports = {t: run_scenario(architecture(t), big, NO_FAULTS, seed=3) for t in (1, 2)}
        matrix = compare(reports, reports[1])
        assert matrix.rows == ()
        mismatches = diff_against_reference(matrix)
        assert mismatches and all(m.column == "present" for m in mismatches)

    def test_report_json_schema(self):
        report = run_scenario(architecture(2), FAST, NO_FAULTS, seed=15)
        record = json.loads(report_json(report))
        for field in ("tps", "scalability_slope", "gas_total", "availability",
                      "security_violations", "anonymity_score", "confidentiality_score",
                      "usability_score", "seed", "config"):
            assert field in record
        assert 0.0 <= record["availability"] <= 1.0

    def test_every_setting_is_in_the_config_block(self):
        script = nft_sale_script(repetitions=1)
        base_sim, base_faults = SimConfig(), NO_FAULTS

        def config(sim, faults):
            return dict(run_scenario(architecture(1), script, faults, seed=sim.seed,
                                     sim=sim).config)

        before = config(base_sim, base_faults)
        changed = []
        for prefix, base in (("", base_sim), ("faults.", base_faults)):
            for path, value in _leaves(base):
                new = _other_value(value)
                configured = _with(base, path, new)
                sim, faults = (base_sim, configured) if prefix else (configured, base_faults)
                after = config(sim, faults)
                assert after != before, path
                expected = new.value if isinstance(new, Enum) else new
                assert after[prefix + path] == str(expected), path
                changed.append(prefix + path)
        assert {"consensus.rule.kind", "consensus.pool_capacity", "consensus.msg_delay",
                "faults.byz_mode", "faults.tamper_target"} <= set(changed)
        assert set(before) == set(changed) | {"repetitions"}

    @pytest.mark.parametrize("n_nodes", [7, 5])
    def test_main_run_doubles_as_grid_point(self, monkeypatch, n_nodes):
        # The grid is re-timed from the main run's trace, so a report costs
        # the main and the faulted run at any maintainer count.
        calls = []

        def counting_run_raw(*args):
            calls.append(args)
            return run_raw(*args)

        monkeypatch.setattr(ev, "run_raw", counting_run_raw)
        run_scenario(architecture(3), FAST, DEFAULT_FAULTS, seed=16,
                     sim=SimConfig(consensus=ConsensusConfig(n_nodes=n_nodes)))
        assert [faults for *_, faults in calls] == [NO_FAULTS, DEFAULT_FAULTS]

    @settings(max_examples=20, deadline=None)
    @given(type_id=st.integers(1, 12), seed=st.integers(0, 2**16), reps=st.integers(1, 40),
           n_nodes=st.integers(1, 12),
           rule=st.sampled_from([ConsensusRule(), ConsensusRule(RuleKind.MAJORITY_CHAIN, 0.51)]))
    def test_grid_point_from_the_trace_equals_a_real_run(self, type_id, seed, reps, n_nodes,
                                                         rule):
        # If packing or the delay draws ever depend on the maintainer count,
        # re-timing the trace stops being exact and this fails.
        script = nft_sale_script(repetitions=reps)
        sim = SimConfig(seed=seed, consensus=ConsensusConfig(rule=rule, n_nodes=7))
        main = run_raw(architecture(type_id), script, sim, NO_FAULTS)
        at_n = dataclasses.replace(sim, consensus=ConsensusConfig(rule=rule, n_nodes=n_nodes))
        real = run_raw(architecture(type_id), script, at_n, NO_FAULTS)
        assert ev._ticks_at(main, sim.consensus, n_nodes) == real.ticks
        assert main.onchain_ops == real.onchain_ops

    def test_a_trace_that_drifts_from_the_clock_raises(self, monkeypatch):
        real_ticks_at = ev._ticks_at
        monkeypatch.setattr(ev, "_ticks_at", lambda main, cons, n: real_ticks_at(main, cons, n) + 1)
        with pytest.raises(RuntimeError, match="round trace"):
            run_scenario(architecture(1), FAST, NO_FAULTS, seed=3)

    @pytest.mark.parametrize("type_id", [1, 7])
    def test_agent_flush_uses_the_run_gas_schedule(self, type_id):
        # A pricier inline byte widens the bundle gas limit; the agent's
        # automatic flush must size its bundles with the same schedule.
        costly = dataclasses.replace(GasSchedule(), per_inline_byte=100)
        stats = run_raw(architecture(type_id), nft_sale_script(),
                        SimConfig(seed=42, gas_schedule=costly), NO_FAULTS)
        assert stats.ops_attempted == 120
        assert stats.ops_succeeded == 120


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(FAST, DEFAULT_FAULTS, seed=42)


class TestSweepAndCompare:

    def test_baseline_vs_itself_zero_row(self, sweep):
        matrix = compare(sweep, sweep[1])
        row = matrix.row("Type1")
        assert all(value == 0 for _, value in row.cells)

    def test_full_sweep_matches_reference(self, sweep):
        mismatches = diff_against_reference(compare(sweep, sweep[1]))
        assert mismatches == []

    def test_sweep_matches_reference_on_other_seed(self):
        # The reproduction must not be seed-lucky. Uses the default
        # 30-repetition workload: the availability column needs enough
        # storage/executor accesses for the fault plan to bite.
        reports = run_sweep(seed=7)
        assert diff_against_reference(compare(reports, reports[1])) == []

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_sweep_matches_reference_at_seeds_1_to_12(self, seed):
        reports = run_sweep(seed=seed)
        assert diff_against_reference(compare(reports, reports[1])) == []

    def test_monotone_throughput(self, sweep):
        base = sweep[1]
        for tid in range(2, 13):
            assert sweep[tid].tps >= base.tps

    def test_violations_only_without_honest_executor(self):
        honest = run_sweep(FAST, NO_FAULTS, seed=21)
        for tid, report in honest.items():
            assert report.security_violations == 0, tid

    def test_agent_disabled_defect_flags_anonymity(self, sweep):
        broken = dict(sweep)
        broken[7] = dataclasses.replace(sweep[7], agent_used=False)
        mismatches = diff_against_reference(compare(broken, broken[1]))
        assert any(m.row == "Type7" and m.column == "anonymity" for m in mismatches)

    def test_zeroed_gas_schedule_flags_gas_signs(self):
        sim = SimConfig(gas_schedule=GasSchedule(0, 0, 0, 0, 0))
        reports = run_sweep(FAST, DEFAULT_FAULTS, seed=22, sim=sim)
        mismatches = diff_against_reference(compare(reports, reports[1]))
        assert any(m.column == "gas_trend_sign" for m in mismatches)

    def test_merged_rows_internally_consistent(self, sweep):
        for group in MERGED_GROUPS:
            if len(group) == 1:
                continue
            a, b = (sweep[t] for t in group)
            assert a.gas_total == b.gas_total
            assert abs(a.tps - b.tps) < 1e-9

    def test_parallel_jobs_equal_sequential(self):
        seq = run_sweep(FAST, DEFAULT_FAULTS, seed=23, jobs=1)
        par = run_sweep(FAST, DEFAULT_FAULTS, seed=23, jobs=4)
        for tid in range(1, 13):
            assert report_json(seq[tid]) == report_json(par[tid])

    def test_jobs_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            run_sweep(FAST, NO_FAULTS, jobs=0)

    def test_workers_never_outnumber_the_run_shapes(self, monkeypatch):
        # A process pool forks all its workers when it starts, so the pool
        # is faked: it records its size and maps in this process.
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        script = nft_sale_script(repetitions=2)
        shapes = {ev._run_shape(arch, script, SimConfig()) for arch in ev.ALL_TYPES}
        pooled = run_sweep(script, NO_FAULTS, jobs=500)
        assert sizes == [len(shapes)] and len(shapes) <= 12
        assert pooled == run_sweep(script, NO_FAULTS, jobs=1)

    def test_emission_formats(self, sweep):
        matrix = compare(sweep, sweep[1])
        parsed = json.loads(matrix_json(matrix))
        assert len(parsed["rows"]) == 8
        md = matrix_markdown(matrix)
        assert "| Architecture |" in md
        assert "Type11/12" in md


# Each plan reaches a different set of types. In order: no fault; flaky
# storage and a lying executor; every field of the topology; a withholding
# agent; byzantine maintainers; crashing maintainers; a byzantine mode with
# no byzantine maintainer, which reaches no type.
SHARED_RUN_PLANS = (NO_FAULTS, DEFAULT_FAULTS, *(parse_faults(text) for text in FAULT_WIRING_PLANS),
                    FaultPlan(maintainer_crash_prob=0.15),
                    FaultPlan(byz_mode=ByzantineMode.EQUIVOCATE))
SHARED_RUN_PLAN_IDS = ["none", "default", "wiring", "agent", "byzantine", "crash", "byz-mode-only"]


class TestSharedRuns:
    """A sweep runs each distinct sub-run once, and reports what separate runs would."""

    @staticmethod
    def count_runs(monkeypatch) -> list:
        calls = []

        def counting_run_raw(arch, script, sim, faults):
            calls.append((arch.type_id, faults))
            return run_raw(arch, script, sim, faults)

        monkeypatch.setattr(ev, "run_raw", counting_run_raw)
        return calls

    @staticmethod
    def assert_reports_equal_two_fresh_runs(script, plan, base):
        swept = run_sweep(script, plan, sim=base)
        for type_id in range(1, 13):
            arch = architecture(type_id)
            fresh = ev._report(arch, script, plan, base, run_raw(arch, script, base, NO_FAULTS),
                               run_raw(arch, script, base, plan))
            assert swept[type_id] == fresh, type_id

    @pytest.mark.parametrize("plan", SHARED_RUN_PLANS, ids=SHARED_RUN_PLAN_IDS)
    @pytest.mark.parametrize("data_size", [0, 100, SimConfig().inline_threshold,
                                           SimConfig().inline_threshold + 1, 768])
    def test_reports_equal_two_fresh_runs_per_type(self, data_size, plan):
        script = nft_sale_script(data_size=data_size, repetitions=8)
        self.assert_reports_equal_two_fresh_runs(script, plan, SimConfig(seed=42))

    @pytest.mark.parametrize("plan", SHARED_RUN_PLANS, ids=SHARED_RUN_PLAN_IDS)
    def test_reports_equal_two_fresh_runs_when_the_threshold_exceeds_the_cap(self, plan):
        # A hybrid store links a 1,500-byte blob, which its threshold admits
        # but the cap does not; an on-chain store cannot hold it at all.
        script = nft_sale_script(data_size=1500, repetitions=8)
        self.assert_reports_equal_two_fresh_runs(script, plan,
                                                 SimConfig(seed=42, inline_threshold=2000))

    @pytest.mark.parametrize("data_size, runs", [(0, 6), (100, 14), (257, 14)])
    def test_sub_runs_per_data_size(self, monkeypatch, data_size, runs):
        # An empty blob is never stored, so at 0 bytes the storage modes share
        # one shape. A blob of at most inline_threshold bytes puts the hybrid
        # stores with the on-chain ones, a larger one with the off-chain ones
        # (256 and 768 bytes: the two tests below).
        calls = self.count_runs(monkeypatch)
        run_sweep(nft_sale_script(data_size=data_size, repetitions=4), DEFAULT_FAULTS)
        assert len(calls) == runs

    def test_the_default_sweep_makes_14_runs(self, monkeypatch):
        # One main run per merged row. Types 1 and 7 store and compute on-chain,
        # out of reach of the default plan's flaky storage and lying executor,
        # so their main run is their faulted run.
        calls = self.count_runs(monkeypatch)
        run_sweep()
        assert len(calls) == 14
        assert [t for t, faults in calls if faults == NO_FAULTS] == [1, 2, 4, 5, 7, 8, 10, 11]
        assert [t for t, faults in calls if faults == DEFAULT_FAULTS] == [2, 4, 5, 8, 10, 11]

    def test_inlined_data_keeps_hybrid_and_offchain_storage_apart(self, monkeypatch):
        # Every blob goes inline, so the hybrid stores of Types 2, 5, 8 and 11
        # run as the on-chain stores of Types 1, 4, 7 and 10 do: no storage
        # node is read or written, and the flaky storage reaches neither.
        calls = self.count_runs(monkeypatch)
        script = nft_sale_script(data_size=SimConfig().inline_threshold, repetitions=4)
        run_sweep(script, DEFAULT_FAULTS)
        assert [t for t, faults in calls if faults == NO_FAULTS] == [1, 3, 4, 6, 7, 9, 10, 12]
        assert [t for t, faults in calls if faults == DEFAULT_FAULTS] == [3, 4, 6, 9, 10, 12]

    def test_maintainer_faults_reach_every_type(self, monkeypatch):
        calls = self.count_runs(monkeypatch)
        plan = dataclasses.replace(DEFAULT_FAULTS, maintainer_crash_prob=0.1)
        run_sweep(FAST, plan)
        assert len(calls) == 16
        assert [(t, faults) for t, faults in calls if t in (1, 7)] == [
            (1, NO_FAULTS), (1, plan), (7, NO_FAULTS), (7, plan)]

    @pytest.mark.parametrize("type_id, data_size, plan, runs", [
        (1, 768, DEFAULT_FAULTS, 1), (3, 768, DEFAULT_FAULTS, 2), (7, 768, DEFAULT_FAULTS, 1),
        (10, 768, DEFAULT_FAULTS, 2), (2, 100, DEFAULT_FAULTS, 1),
        (1, 768, FaultPlan(byz_mode=ByzantineMode.EQUIVOCATE), 1),
        (1, 768, FaultPlan(byzantine_maintainers=1, byz_mode=ByzantineMode.EQUIVOCATE), 2),
    ], ids=["1-768-default-1", "3-768-default-2", "7-768-default-1", "10-768-default-2",
            "2-100-default-1", "1-768-byz-mode-only-1", "1-768-byzantine-2"])
    def test_a_single_report_runs_the_faulted_run_only_if_a_fault_reaches(
            self, monkeypatch, type_id, data_size, plan, runs):
        # At 100 bytes Type 2's hybrid store keeps every blob inline, out of
        # reach of the flaky storage. A byzantine mode acts only through a
        # byzantine maintainer.
        calls = self.count_runs(monkeypatch)
        script = nft_sale_script(data_size=data_size, repetitions=6)
        run_scenario(architecture(type_id), script, plan, seed=42)
        assert len(calls) == runs

    @pytest.mark.parametrize("entry", [
        lambda plan, sim: run_scenario(architecture(1), FAST, plan, sim=sim),
        lambda plan, sim: run_sweep(FAST, plan, sim=sim),
        lambda plan, sim: run_sweep(FAST, plan, sim=sim, jobs=2),
    ], ids=["run_scenario", "run_sweep", "run_sweep-jobs-2"])
    @pytest.mark.parametrize("n_nodes", [4, 7])
    def test_a_plan_the_chain_cannot_hold_fails_before_any_run(self, monkeypatch, entry, n_nodes):
        import concurrent.futures
        calls = self.count_runs(monkeypatch)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: pytest.fail("a worker pool started"))
        sim = SimConfig(consensus=ConsensusConfig(n_nodes=n_nodes))
        with pytest.raises(ValueError) as err:
            entry(FaultPlan(byzantine_maintainers=9), sim)
        assert str(err.value) == f"byzantine_maintainers must be <= n_nodes ({n_nodes}), got 9"
        assert calls == []

    def test_importing_the_package_loads_no_process_pool_and_no_fractions(self):
        # Only a parallel sweep imports the pool. The quorum is integer
        # arithmetic, so fractions, and with it decimal and numbers, stay
        # unloaded; a fresh interpreter tells, as pytest and Hypothesis load decimal.
        code = ("import sys, w3sim.evaluation, w3sim.cli; print(sorted({'concurrent.futures', "
                "'fractions', 'decimal', 'numbers'} & sys.modules.keys()))")
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout == "[]\n"


class TestFaultPlanPaths:
    def test_withholding_agent_starves_agent_types_only(self):
        from w3sim.access import AgentBehavior
        plan = FaultPlan(agent_behavior=AgentBehavior.WITHHOLDING)
        direct = ev.run_raw(architecture(1), FAST, SimConfig(seed=4), plan)
        agented = ev.run_raw(architecture(7), FAST, SimConfig(seed=4), plan)
        assert direct.ops_succeeded == direct.ops_attempted
        assert agented.ops_succeeded == 0

    def test_byzantine_tolerance_boundary_through_harness(self):
        at_tolerance = ev.run_raw(architecture(1), FAST, SimConfig(seed=6),
                                  FaultPlan(byzantine_maintainers=2))
        beyond = ev.run_raw(architecture(1), FAST, SimConfig(seed=6),
                            FaultPlan(byzantine_maintainers=3))
        assert at_tolerance.ops_succeeded == at_tolerance.ops_attempted
        assert beyond.ops_succeeded == 0

    def test_equivocation_beyond_tolerance_is_counted_not_raised(self):
        from w3sim.consensus import ByzantineMode
        plan = FaultPlan(byzantine_maintainers=3, byz_mode=ByzantineMode.EQUIVOCATE)
        stats = ev.run_raw(architecture(4), nft_sale_script(), SimConfig(seed=42), plan)
        assert stats.violations >= 1
        report = run_scenario(architecture(4), FAST, plan, seed=42)
        assert report.security_violations >= 1

    def test_majority_chain_rule_through_harness(self):
        from w3sim.consensus import ConsensusRule, RuleKind
        sim = SimConfig(seed=3, consensus=ConsensusConfig(
            rule=ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=0.51, confirm_depth=6)))
        stats = ev.run_raw(architecture(1), FAST, sim, NO_FAULTS)
        assert stats.ops_succeeded == stats.ops_attempted > 0

    def test_byzantine_maintainers_reach_the_majority_chain_rule(self):
        # The adversary's share of block production is the byzantine share of
        # the maintainers: 1 of 7 wins some rounds and slows the honest branch,
        # 6 of 7 outgrow it and confirm only their own empty blocks.
        sim = SimConfig(seed=42, consensus=ConsensusConfig(
            rule=ConsensusRule(kind=RuleKind.MAJORITY_CHAIN)))
        calm = ev.run_raw(architecture(1), FAST, sim, NO_FAULTS)
        one = ev.run_raw(architecture(1), FAST, sim, FaultPlan(byzantine_maintainers=1))
        six = ev.run_raw(architecture(1), FAST, sim, FaultPlan(byzantine_maintainers=6))
        assert calm.ops_succeeded == one.ops_succeeded == one.ops_attempted > 0
        assert one.ticks > calm.ticks
        assert six.ops_succeeded == 0 and six.infeasible_reason is None

    def test_transient_maintainer_crashes_below_quorum_loss(self):
        stats = ev.run_raw(architecture(1), FAST, SimConfig(seed=5),
                           FaultPlan(maintainer_crash_prob=0.15))
        assert stats.ops_succeeded == stats.ops_attempted

    @pytest.mark.parametrize("type_id", [1, 7])
    def test_maintainer_crashes_leave_the_message_delays_alone(self, type_id):
        script = nft_sale_script(repetitions=12)
        calm = ev.run_raw(architecture(type_id), script, SimConfig(seed=42), NO_FAULTS)
        crashy = ev.run_raw(architecture(type_id), script, SimConfig(seed=42),
                            FaultPlan(maintainer_crash_prob=0.15))
        assert crashy.rounds != calm.rounds  # the crashes changed the run
        common = min(len(calm.rounds), len(crashy.rounds))
        assert common > 0
        assert ([r.delay for r in crashy.rounds[:common]]
                == [r.delay for r in calm.rounds[:common]])


class TestKeyScope:
    """A run accepts the keys it registers, and nothing a run before it made."""

    def test_reports_do_not_depend_on_the_runs_before_them(self):
        forward = {t: report_json(run_scenario(architecture(t), FAST, DEFAULT_FAULTS, seed=42))
                   for t in range(1, 13)}
        backward = {t: report_json(run_scenario(architecture(t), FAST, DEFAULT_FAULTS, seed=42))
                    for t in range(12, 0, -1)}
        assert forward == backward

    @pytest.mark.parametrize("type_id", [1, 7])
    def test_a_run_registers_its_wallets_and_agent_only(self, type_id):
        run = ev._ScenarioRun(architecture(type_id), FAST, SimConfig(seed=42), NO_FAULTS)
        expected = {w.address.payload: w.keypair for w in run.wallets.values()}
        agent = run.topology.agent
        if agent is not None:
            expected[agent.address.payload] = agent.keypair
        assert run.topology.chain.keys == expected


def carried_records(run) -> dict[bytes, bytes]:
    """Each minted token's id to the data record that its confirmed mint tx carried.

    For wallet access, where one mint is one tx; the run must keep its history.
    """
    return {event.field("token_id"): c.tx.payload.inline_data
            for c in run.topology.chain.confirmations
            for event in c.receipt.events if event.name == "Mint"}


def data_record(run, rep: int) -> bytes:
    return query_state(run.topology.chain.state, NFT_ID, "dataOf", (rep.to_bytes(32, "big"),))


class TestMintHooks:
    """Retrieval reads each token's data through the record in its dat: cell."""

    def test_a_reverted_second_mint_leaves_the_first_blob_readable(self):
        # The second wave uploads new blobs whose mints revert as
        # DuplicateTokenId; each token's record still names the blob that
        # its one confirmed mint carried, and retrieval reads that blob.
        mint = Step(StepKind.MINT_NFT, "alice", (("data_size", 768),))
        script = ScenarioScript(steps=(Step(StepKind.CONNECT_WALLET, "alice"), mint, mint,
                                       Step(StepKind.RETRIEVE_STATE, "alice")), repetitions=3)
        run = ev._ScenarioRun(architecture(2), script, SimConfig(seed=42), NO_FAULTS,
                              keep_history=True)
        stats = run.run()
        data = random.Random(42 ^ 0xDA7A)
        first_wave = [data.randbytes(768) for _ in range(3)]
        carried = carried_records(run)
        assert len(carried) == 3
        for rep, blob in enumerate(first_wave):
            record = data_record(run, rep)
            assert record == carried[rep.to_bytes(32, "big")] == b"\x01" + identity.digest(blob)
            assert run.topology.fabric.read(record) == blob
        assert len(run.topology.fabric.store.blobs) == 6  # the second wave's blobs, never named
        assert stats.ops_succeeded == 3 + 3  # first mints and retrievals; second mints revert

    @pytest.mark.parametrize("second_mint", [False, True])
    def test_a_mint_that_confirms_after_its_wave_stalled_is_readable(self, second_mint):
        # Half the maintainers crash each round: the mint wave stalls with 4
        # of its 12 mints unconfirmed, and those confirm in the next wave.
        # Each token's record is the one its own mint carried, so retrieval
        # reads and verifies that blob, even when the next wave uploads new
        # blobs for the same tokens (whose mints then revert).
        mint = Step(StepKind.MINT_NFT, "alice", (("data_size", 768),))
        steps = nft_sale_script(repetitions=12).steps
        at = steps.index(mint) + 1
        script = ScenarioScript(steps=steps[:at] + (mint,) * second_mint + steps[at:],
                                repetitions=12)
        run = ev._ScenarioRun(architecture(3), script, SimConfig(seed=4),
                              FaultPlan(maintainer_crash_prob=0.5), keep_history=True)
        stats = run.run()
        carried = carried_records(run)
        assert len(carried) == 12
        fabric = run.topology.fabric
        for rep in range(12):
            record = data_record(run, rep)
            assert record == carried[rep.to_bytes(32, "big")]
            assert identity.digest(fabric.read(record)) == record[1:]
        if not second_mint:
            assert (stats.ops_attempted, stats.ops_succeeded) == (48, 44)

    @pytest.mark.parametrize("type_id", [4, 5])
    def test_retrieval_fails_only_where_the_executor_rewrote_the_record(self, type_id):
        # A malicious executor that tampers outside the checked region
        # silently rewrites some tokens' dat: records. Retrieval reads the
        # record the chain holds, so it differs from a read of the record
        # the mint carried only for a token whose cell was rewritten.
        faults = FaultPlan(executor_behavior=ExecutorBehavior.MALICIOUS, tamper_target="unchecked")
        run = ev._ScenarioRun(architecture(type_id), nft_sale_script(repetitions=12),
                              SimConfig(seed=42), faults, keep_history=True)
        run.run()
        bob, fabric, state = run.wallets["bob"], run.topology.fabric, run.topology.chain.state
        carried = carried_records(run)
        changed = []
        for rep in range(12):
            token = rep.to_bytes(32, "big")
            try:
                owned = query_state(state, NFT_ID, "ownerOf", (token,)) == bob.address.payload
                fabric.read(carried[token])
            except (QueryError, KeyError):
                owned = False
            if run._retrieve_ok(bob, rep) != owned:
                changed.append(rep)
                assert data_record(run, rep) != carried[token]
        assert len(changed) == 3  # 38 of 48 ops read the carried records, 35 the chain's

    def test_a_blob_tampered_after_its_mint_confirmed_fails_retrieval_as_a_mismatch(self):
        script = nft_sale_script(repetitions=4)
        run = ev._ScenarioRun(architecture(3), script, SimConfig(seed=42), NO_FAULTS)
        fabric = run.topology.fabric
        for step in script.steps:
            run._run_step_wave(step)
            if step.kind is StepKind.MINT_NFT:
                fabric.store.tamper(data_record(run, 0)[1:], lambda blob: bytes([blob[0] ^ 1]) + blob[1:])
        assert (run.ops_attempted, run.ops_succeeded) == (16, 15)
        with pytest.raises(DigestMismatch):
            fabric.read(data_record(run, 0))
        assert all(run._retrieve_ok(run.wallets["bob"], rep) for rep in (1, 2, 3))


class TestPoolLimit:
    # A wave goes to the chain in windows no larger than the pool. Type1
    # sends 40 wallet txs per wave through a pool of 16 (windows of 16, 16
    # and 8); Type7 sends 25 ops per wave as bundles of 10 through a pool of
    # 2 (two full bundles, then the wave's last 5 ops in a window of their own).
    @pytest.mark.parametrize("type_id, reps, capacity", [(1, 40, 16), (7, 25, 2)])
    def test_a_small_pool_runs_to_completion(self, type_id, reps, capacity):
        script = nft_sale_script(repetitions=reps)
        small = SimConfig(seed=42, consensus=ConsensusConfig(pool_capacity=capacity))
        stats = run_raw(architecture(type_id), script, small, NO_FAULTS)
        assert stats.infeasible_reason is None
        assert stats.ops_succeeded == stats.ops_attempted == 4 * reps
        # The same transactions confirm as through the default pool; only
        # their submission ticks, and so the tx ids and block timing, differ.
        full = run_raw(architecture(type_id), script, SimConfig(seed=42), NO_FAULTS)
        assert (stats.txs_confirmed, stats.gas_total) == (full.txs_confirmed, full.gas_total)
        assert run_scenario(architecture(type_id), script, DEFAULT_FAULTS, seed=42,
                            sim=small).feasible

    def test_the_pool_never_holds_more_than_its_capacity(self, monkeypatch):
        high = []
        submit = ChainNetwork.submit

        def watching(chain, tx):
            submit(chain, tx)
            high.append(len(chain.pool))

        monkeypatch.setattr(ChainNetwork, "submit", watching)
        for type_id in (1, 7):
            sim = SimConfig(seed=42, consensus=ConsensusConfig(pool_capacity=3))
            stats = run_raw(architecture(type_id), nft_sale_script(repetitions=40), sim, NO_FAULTS)
            assert stats.ops_succeeded == stats.ops_attempted
        assert max(high) == 3

    @pytest.mark.parametrize("capacity", [8, 10_000])
    def test_a_stall_in_the_faulted_run_is_lost_availability(self, capacity):
        # Three silent maintainers of seven leave no quorum: every wave
        # stalls, and its ops fail. With a pool of 8 the mint wave's 6 txs
        # stay pooled, the list wave fills the pool and the buy wave finds it
        # full; neither the stall nor the full pool ends the run.
        sim = SimConfig(seed=42, consensus=ConsensusConfig(pool_capacity=capacity))
        report = run_scenario(architecture(1), FAST, FaultPlan(byzantine_maintainers=3),
                              seed=42, sim=sim)
        assert report.feasible and report.infeasible_reason is None
        assert report.availability == 0.0
        fault_free = run_scenario(architecture(1), FAST, NO_FAULTS, seed=42, sim=sim)
        assert report.tps == fault_free.tps > 0

    @settings(max_examples=25, deadline=None)
    @given(type_id=st.sampled_from([1, 7]), reps=st.integers(1, 30),
           capacity=st.integers(1, 20), silent=st.integers(0, 3))
    def test_no_pool_size_or_stall_ends_a_run(self, type_id, reps, capacity, silent):
        # Fewer than a third silent (at most 2 of 7) never stalls the chain;
        # 3 of 7 stall every wave, whatever the pool holds.
        sim = SimConfig(seed=42, consensus=ConsensusConfig(pool_capacity=capacity))
        report = run_scenario(architecture(type_id), nft_sale_script(repetitions=reps),
                              FaultPlan(byzantine_maintainers=silent), seed=42, sim=sim)
        assert report.feasible
        assert report.availability == (0.0 if silent == 3 else 1.0)

    def test_a_stall_in_the_fault_free_run_makes_the_report_infeasible(self):
        # A majority-chain rule that asks for more than the whole network
        # confirms nothing, without any fault.
        rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=1.0)
        sim = SimConfig(seed=42, consensus=ConsensusConfig(rule=rule))
        stats = run_raw(architecture(1), FAST, sim, NO_FAULTS)
        assert stats.infeasible_reason == ("chain stalled: 14 rounds without progress "
                                           "with 6 ops unconfirmed")
        report = run_scenario(architecture(1), FAST, DEFAULT_FAULTS, seed=42, sim=sim)
        assert not report.feasible
        assert report.infeasible_reason == stats.infeasible_reason


class _KeyedRun(ev._ScenarioRun):
    """A run that also counts its succeeded ops by op key, the reference for wave counting.

    An op's key is its tx id, or its (origin, seq) for an agent op. A key is
    pending from its submission until a success that names it arrives
    within the wave, and an op still pending when its wave settles failed.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.pending: set = set()
        self.wave_ok: set = set()
        self.keyed_succeeded = 0

    def _absorb(self, confirmations) -> None:
        super()._absorb(confirmations)
        for c in confirmations:
            if not c.receipt.success:
                continue
            for key in [c.tx.tx_id] + [(event.field("origin"), event.field("seq"))
                                       for event in c.receipt.events if event.name == "OpOk"]:
                if key in self.pending:
                    self.pending.remove(key)
                    self.wave_ok.add(key)

    def _settle_wave(self) -> None:
        super()._settle_wave()
        self.keyed_succeeded += len(self.wave_ok)
        self.pending, self.wave_ok = set(), set()

    def _retrieve_ok(self, wallet, rep) -> bool:
        ok = super()._retrieve_ok(wallet, rep)
        self.keyed_succeeded += ok
        return ok

    def run(self) -> ev.RunStats:
        direct, via_agent = access.submit_direct, access.submit_via_agent

        def keyed_direct(*args, **kwargs):
            tx_id = direct(*args, **kwargs)
            self.pending.add(tx_id)
            return tx_id

        def keyed_via_agent(*args, **kwargs):
            op = via_agent(*args, **kwargs)
            self.pending.add((op.origin, op.seq))
            return op

        with mock.patch.object(access, "submit_direct", keyed_direct), \
                mock.patch.object(access, "submit_via_agent", keyed_via_agent):
            return super().run()


class TestWaveCounting:
    """A wave counts its ops by signer and number range, as many as a count by op key."""

    @settings(max_examples=60, deadline=None)
    @given(type_id=st.integers(1, 12), reps=st.integers(1, 8), seed=st.integers(0, 2**16),
           second_mint=st.booleans(),
           faults=st.builds(FaultPlan, maintainer_crash_prob=st.sampled_from([0.0, 0.5]),
                            byzantine_maintainers=st.integers(0, 3),
                            storage_crash_prob=st.sampled_from([0.0, 0.6]),
                            executor_behavior=st.sampled_from(ExecutorBehavior),
                            tamper_target=st.sampled_from(TAMPER_TARGETS),
                            agent_behavior=st.sampled_from(AgentBehavior)))
    def test_the_range_count_equals_the_keyed_count(self, type_id, reps, seed, second_mint,
                                                     faults):
        # Crashed maintainers stall a wave and confirm its ops in a later
        # one, a second mint wave of the same signer reverts on every token,
        # and 3 silent maintainers of 7 stall every wave for good.
        steps = nft_sale_script(repetitions=reps).steps
        mint = next(step for step in steps if step.kind is StepKind.MINT_NFT)
        at = steps.index(mint) + 1
        script = ScenarioScript(steps=steps[:at] + (mint,) * second_mint + steps[at:],
                                repetitions=reps)
        run = _KeyedRun(architecture(type_id), script, SimConfig(seed=seed), faults)
        stats = run.run()
        assert stats.infeasible_reason is None
        assert stats.ops_succeeded == run.keyed_succeeded


class TestRetrievalMatchesOwnership:
    """A wallet that owns a token has a confirmed NFT slice, and it equals the chain's state."""

    @settings(max_examples=40, deadline=None)
    @given(type_id=st.integers(1, 12), reps=st.integers(1, 8), seed=st.integers(0, 2**16),
           rule=st.sampled_from(RuleKind),
           faults=st.builds(FaultPlan, byzantine_maintainers=st.integers(0, 3),
                            storage_crash_prob=st.sampled_from([0.0, 0.6]),
                            executor_behavior=st.sampled_from(ExecutorBehavior),
                            tamper_target=st.sampled_from(TAMPER_TARGETS),
                            agent_behavior=st.sampled_from(AgentBehavior)))
    def test_every_owner_retrieves_the_confirmed_state(self, type_id, reps, seed, rule, faults):
        sim = SimConfig(seed=seed, consensus=ConsensusConfig(rule=ConsensusRule(rule)))
        run = ev._ScenarioRun(architecture(type_id), nft_sale_script(repetitions=reps), sim,
                              faults, keep_history=True)
        run.run()
        chain = run.topology.chain
        state = chain.state
        owned = Counter()
        for rep in range(reps):
            with contextlib.suppress(QueryError):
                owned[query_state(state, NFT_ID, "ownerOf", (ev._token_id(rep),))] += 1
        for wallet in run.wallets.values():
            payload = wallet.address.payload
            if not owned[payload]:
                continue
            got = access.retrieve_state(chain, wallet.address, NFT_ID)
            for key, value in got.entries:
                raw = state.get_storage(NFT_ID, bytes.fromhex(key))
                assert value == (raw.hex() if raw is not None else "")
            if not chain.integrity_violations:  # a silent tamper may have rewritten the count
                count = dict(got.entries)[(b"cnt:" + payload).hex()]
                assert int(count, 16) == owned[payload]

    def test_a_chain_without_history_has_nothing_to_search(self):
        run = ev._ScenarioRun(architecture(1), nft_sale_script(repetitions=1),
                              SimConfig(seed=42), NO_FAULTS)
        run.run()
        with pytest.raises(ValueError, match="keep_history=True"):
            access.retrieve_state(run.topology.chain, run.wallets["bob"].address, NFT_ID)


class TestFaultFreeAvailability:
    """Without faults every op the script attempts succeeds, at any size."""

    @settings(max_examples=30, deadline=None)
    @given(type_id=st.integers(1, 12), reps=st.integers(1, 60), seed=st.integers(0, 2**16))
    def test_every_type_at_small_sizes(self, type_id, reps, seed):
        report = run_scenario(architecture(type_id), nft_sale_script(repetitions=reps),
                              NO_FAULTS, seed=seed)
        assert report.feasible
        assert report.availability == 1.0
        assert report.ops_succeeded == report.ops_attempted == 4 * reps

    # 12,000 repetitions is more than the 10,000-transaction pool holds, so
    # the wallet type's waves go in two windows; the agent type's 1,200
    # bundles per wave fit in one.
    @pytest.mark.parametrize("reps", [6_000, 12_000])
    @pytest.mark.parametrize("type_id", [1, 7])
    def test_the_bulk_sizes(self, type_id, reps):
        stats = run_raw(architecture(type_id), nft_sale_script(repetitions=reps),
                        SimConfig(seed=42), NO_FAULTS)
        assert stats.infeasible_reason is None
        assert stats.ops_succeeded == stats.ops_attempted == 4 * reps


OP_KINDS = (StepKind.MINT_NFT, StepKind.LIST_NFT, StepKind.BUY_NFT, StepKind.RETRIEVE_STATE)
# Each step parameter, and values outside its range.
OUT_OF_RANGE_PARAMS = [
    (StepKind.MINT_NFT, "data_size", st.integers(max_value=-1)),
    (StepKind.LIST_NFT, "price", st.integers(max_value=-1) | st.integers(min_value=2**128)),
    (StepKind.BUY_NFT, "price", st.integers(max_value=-1) | st.integers(min_value=2**128)),
]
IN_RANGE_PARAMS = {
    StepKind.MINT_NFT: ("data_size", st.integers(0, 10**6)),
    StepKind.LIST_NFT: ("price", st.integers(0, 2**128 - 1)),
    StepKind.BUY_NFT: ("price", st.integers(0, 2**128 - 1)),
}


@st.composite
def scripts(draw):
    """Valid scripts: some op step, no buy before the first list, each parameter in range."""
    kinds = draw(st.lists(st.sampled_from(StepKind), min_size=1, max_size=8))
    assume(any(kind in OP_KINDS for kind in kinds))
    assume(not (StepKind.BUY_NFT in kinds and StepKind.LIST_NFT in kinds
                and kinds.index(StepKind.BUY_NFT) < kinds.index(StepKind.LIST_NFT)))
    steps = []
    for kind in kinds:
        params = ()
        if kind in IN_RANGE_PARAMS and draw(st.booleans()):
            key, values = IN_RANGE_PARAMS[kind]
            params = ((key, draw(values)),)
        steps.append(Step(kind, draw(st.sampled_from(["alice", "bob", "carol"])), params))
    return ScenarioScript(steps=tuple(steps), repetitions=draw(st.integers(1, 10**6)))


class TestIntegerSettings:
    """An integer setting takes an int and nothing else: no float, and no bool."""

    @pytest.mark.parametrize("build, message", [
        (lambda: nft_sale_script(data_size=1.5), "data_size must be an integer, got 1.5"),
        (lambda: nft_sale_script(price=True), "price must be an integer, got True"),
        (lambda: nft_sale_script(repetitions=2.0), "repetitions must be an integer, got 2.0"),
        (lambda: SimConfig(batch_size=2.5), "batch_size must be an integer, got 2.5"),
        (lambda: SimConfig(storage_nodes=True), "storage_nodes must be an integer, got True"),
        (lambda: ConsensusConfig(msg_delay=(0, 2.0)), "msg_delay[1] must be an integer, got 2.0"),
        (lambda: ConsensusConfig(msg_delay=(False, 2)),
         "msg_delay[0] must be an integer, got False"),
    ], ids=["data_size", "price", "repetitions", "batch_size", "storage_nodes", "msg_delay-hi",
            "msg_delay-lo"])
    def test_a_non_integer_fails_where_it_is_set(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("config", [SimConfig, ConsensusConfig, ConsensusRule, FaultPlan,
                                        GasSchedule])
    def test_every_number_field_rejects_the_wrong_kind(self, config):
        # Each int field turns down a float and a bool; each probability or
        # fraction field turns down a bool.
        checked = 0
        for f in dataclasses.fields(config):
            if type(f.default) is int:
                bad = (f.default + 0.5, True, False)
            elif type(f.default) is float:
                bad = (True, False)
            else:
                continue
            for value in bad:
                with pytest.raises(ValueError, match=f"^{f.name} must be"):
                    config(**{f.name: value})
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GasSchedule)])
    def test_every_gas_cost_rejects_a_negative_value(self, name):
        with pytest.raises(ValueError) as err:
            GasSchedule(**{name: -1})
        assert str(err.value) == f"{name} must be >= 0, got -1"


def leaf_paths(config, prefix=""):
    """The dotted path of every leaf field of a config dataclass, in field order."""
    paths = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        paths += (leaf_paths(value, f"{prefix}{f.name}.") if dataclasses.is_dataclass(value)
                  else [prefix + f.name])
    return paths


@st.composite
def sim_configs(draw):
    """SimConfigs over every setting: both rule kinds, msg_delay and the gas schedule."""
    counts = ("n_nodes", "block_interval", "pool_capacity", "max_txs_per_block",
              "network_capacity", "gas_byte_equiv")
    consensus = draw(st.builds(
        ConsensusConfig,
        rule=st.builds(ConsensusRule, kind=st.sampled_from(RuleKind),
                       fraction=st.floats(0, 1, exclude_min=True), confirm_depth=st.integers(0, 99)),
        msg_delay=st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda d: tuple(sorted(d))),
        **{name: st.integers(1, 10**6) for name in counts}))
    gas = draw(st.builds(GasSchedule, **{f.name: st.integers(0, 10**6)
                                          for f in dataclasses.fields(GasSchedule)}))
    storage_nodes = draw(st.integers(1, 30))  # on both sides of the default replicas, 3
    return SimConfig(seed=draw(st.integers()), consensus=consensus, gas_schedule=gas,
                     storage_nodes=storage_nodes, replicas=draw(st.integers(1, storage_nodes)),
                     inline_threshold=draw(st.integers(1, 4096)), inline_cap=draw(st.integers(0, 4096)),
                     batch_size=draw(st.integers(1, 99)), offchain_fraction=draw(st.floats(0, 1)))


class TestScenarioFiles:
    def test_script_roundtrip(self):
        script = nft_sale_script(data_size=512, price=77, repetitions=9)
        again = parse_scenario(scenario_text(script))
        assert again == script

    def test_parse_rejects_unknown_step(self):
        with pytest.raises(ValueError):
            parse_scenario("transmogrify actor=alice")

    # Each bad line, and the same values built in code where code can hold
    # them: Step and ScenarioScript raise the message, and parse_scenario
    # adds the line. The other cases are file syntax only.
    BAD_LINES = [
        ("mint_nft size=100", "line 2: mint_nft takes no parameter 'size'",
         [lambda: Step(StepKind.MINT_NFT, "alice", (("size", 100),))]),
        ("list_nft prize=5", "line 2: list_nft takes no parameter 'prize'",
         [lambda: Step(StepKind.LIST_NFT, "alice", (("prize", 5),))]),
        ("retrieve_state actor=bob count=3", "line 2: retrieve_state takes no parameter 'count'",
         [lambda: Step(StepKind.RETRIEVE_STATE, "bob", (("count", 3),))]),
        ("mint_nft data_size=-5", "line 2: data_size must be >= 0, got -5",
         [lambda: Step(StepKind.MINT_NFT, "alice", (("data_size", -5),)),
          lambda: nft_sale_script(data_size=-5)]),
        ("list_nft price=-1", "line 2: price must be in [0, 2**128), got -1",
         [lambda: Step(StepKind.LIST_NFT, "alice", (("price", -1),)),
          lambda: nft_sale_script(price=-1)]),
        (f"buy_nft price={2**128}", "line 2: price must be in [0, 2**128)",
         [lambda: Step(StepKind.BUY_NFT, "alice", (("price", 2**128),)),
          lambda: nft_sale_script(price=2**128)]),
        ("mint_nft data_size=big", "line 2: data_size must be an integer", []),
        ("mint_nft data_size=1 data_size=2", "line 2: data_size given twice",
         [lambda: Step(StepKind.MINT_NFT, "alice", (("data_size", 1), ("data_size", 2)))]),
        ("repeat count=0", "line 2: repetitions must be >= 1, got 0",
         [lambda: ScenarioScript(steps=(Step(StepKind.CONNECT_WALLET, "alice"),), repetitions=0),
          lambda: nft_sale_script(repetitions=0)]),
        ("repeat count=3\nrepeat count=4", "line 3: a second repeat line", []),
        ("create_identity actor=bob", "line 2: steps must include one of mint_nft, list_nft, "
         "buy_nft, retrieve_state, got ['connect_wallet', 'create_identity']",
         [lambda: ScenarioScript(steps=(Step(StepKind.CONNECT_WALLET, "alice"),
                                        Step(StepKind.CREATE_IDENTITY, "bob")))]),
    ]
    BUILT_LINES = [(message.split(": ", 1)[1], build)
                   for _, message, builds in BAD_LINES for build in builds]

    @pytest.mark.parametrize("line, message", [case[:2] for case in BAD_LINES],
                             ids=[line for line, _, _ in BAD_LINES])
    def test_parse_rejects_a_bad_line_by_number(self, line, message):
        with pytest.raises(ValueError) as err:
            parse_scenario(f"connect_wallet actor=alice\n{line}\n")
        assert message in str(err.value)

    @pytest.mark.parametrize("message, build", BUILT_LINES,
                             ids=[f"{i}: {message}" for i, (message, _) in enumerate(BUILT_LINES)])
    def test_building_a_bad_line_in_code_fails_alike(self, message, build):
        with pytest.raises(ValueError) as err:
            build()
        assert message in str(err.value)

    @settings(max_examples=60, deadline=None)
    @given(script=scripts())
    def test_valid_scripts_roundtrip(self, script):
        assert parse_scenario(scenario_text(script)) == script

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_out_of_range_values_fail_alike_in_code_and_in_a_file(self, data):
        kind, key, bad = data.draw(st.sampled_from(OUT_OF_RANGE_PARAMS))
        value = data.draw(bad)
        with pytest.raises(ValueError) as built:
            Step(kind, "alice", ((key, value),))
        with pytest.raises(ValueError) as parsed:
            parse_scenario(f"{kind.value} actor=alice {key}={value}\n")
        assert str(parsed.value) == f"line 1: {built.value}"
        count = data.draw(st.integers(max_value=0))
        with pytest.raises(ValueError) as built:
            ScenarioScript(steps=(Step(StepKind.RETRIEVE_STATE, "alice"),), repetitions=count)
        with pytest.raises(ValueError) as parsed:
            parse_scenario(f"retrieve_state actor=alice\nrepeat count={count}\n")
        assert str(parsed.value) == f"line 2: {built.value}"

    def test_parse_takes_the_largest_price(self):
        script = parse_scenario(f"list_nft price={2**128 - 1}\nrepeat count=1\n")
        assert script.steps[0].param("price") == 2**128 - 1

    def test_buy_before_list_rejected(self):
        text = "buy_nft actor=bob\nlist_nft actor=alice price=5\n"
        with pytest.raises(ValueError):
            parse_scenario(text)

    @settings(max_examples=100, deadline=None)
    @given(plan=st.builds(FaultPlan,
                          maintainer_crash_prob=st.floats(0, 1),
                          byzantine_maintainers=st.integers(0, 10**6),
                          byz_mode=st.sampled_from(ByzantineMode),
                          agent_behavior=st.sampled_from(AgentBehavior),
                          storage_crash_prob=st.floats(0, 1),
                          executor_behavior=st.sampled_from(ExecutorBehavior),
                          tamper_target=st.sampled_from(TAMPER_TARGETS)))
    def test_faults_roundtrip(self, plan):
        text = settings_text(plan)
        assert parse_faults(text) == plan
        assert [line.split(" = ")[0] for line in text.splitlines()] == [
            f.name for f in dataclasses.fields(FaultPlan)]

    @settings(max_examples=100, deadline=None)
    @given(sim=sim_configs(), data=st.data())
    def test_sim_config_roundtrip(self, sim, data):
        text = settings_text(sim)
        assert parse_settings(text, SimConfig()) == sim
        assert [line.split(" = ")[0] for line in text.splitlines()] == leaf_paths(SimConfig)
        # A check between two settings sees both, whatever the order of the
        # lines: a report's config block lists them sorted.
        lines = data.draw(st.permutations(text.splitlines(keepends=True)))
        assert parse_settings("".join(lines), SimConfig()) == sim

    def test_a_report_config_block_is_a_settings_file(self):
        for seed in (7, 42):
            for report in run_sweep(FAST, DEFAULT_FAULTS, seed=seed).values():
                lines = {key: f"{key} = {value}\n" for key, value in report.config}
                assert lines.pop("repetitions") == f"repetitions = {FAST.repetitions}\n"
                faults = "".join(lines.pop(key)[len("faults."):] for key in list(lines)
                                 if key.startswith("faults."))
                assert parse_settings("".join(lines.values()), SimConfig()) == SimConfig(seed=seed)
                assert parse_faults(faults) == DEFAULT_FAULTS

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nseed = 2\n", "line 2: seed given twice"),
        ("consensus = 3\n", "line 1: unknown setting 'consensus'"),
        ("consensus.msg_delay = (1, 2, 3)\n",
         "line 1: consensus.msg_delay: expected 2 comma-separated values, got '(1, 2, 3)'"),
        ("consensus.msg_delay = (3, 1)\n", "line 1: msg_delay must satisfy 0 <= lo <= hi, got (3, 1)"),
        ("replicas = 12\nstorage_nodes = 11\n",
         "line 1: replicas must be <= storage nodes (11), got 12"),
    ], ids=["twice", "group", "msg_delay-length", "msg_delay-order", "replicas"])
    def test_settings_name_the_bad_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_settings(text, SimConfig())
        assert str(err.value) == message

    @pytest.mark.parametrize("settings, message", [
        (dict(storage_crash_prob=1.5), "storage_crash_prob must be in [0, 1], got 1.5"),
        (dict(maintainer_crash_prob=-0.1), "maintainer_crash_prob must be in [0, 1], got -0.1"),
        (dict(byzantine_maintainers=-1), "byzantine_maintainers must be >= 0, got -1"),
    ], ids=["storage", "maintainer", "byzantine"])
    def test_fault_plan_ranges(self, settings, message):
        with pytest.raises(ValueError) as err:
            FaultPlan(**settings)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("storage_crash_prob = 0.6\nmaintainer_crash_prob = lots\n",
         "line 2: maintainer_crash_prob: could not convert string to float: 'lots'"),
        ("\nbyzantine_maintainers = -2\n", "line 2: byzantine_maintainers must be >= 0, got -2"),
        ("byz_mode = loud\n", "line 1: byz_mode: 'loud' is not a valid ByzantineMode"),
    ], ids=["not-a-float", "negative", "unknown-mode"])
    def test_faults_name_the_bad_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_faults(text)
        assert str(err.value) == message

    def test_faults_reject_unknown_key(self):
        # A misspelled key must not quietly leave its fault switched off.
        with pytest.raises(ValueError, match="storage_crash_probability"):
            parse_faults("storage_crash_probability = 0.9\n")

    def test_faults_reject_unknown_tamper_target(self):
        with pytest.raises(ValueError):
            FaultPlan(tamper_target="chekced")
        with pytest.raises(ValueError):
            parse_faults("executor_behavior = Malicious\ntamper_target = chekced\n")
        assert parse_faults("tamper_target = unchecked\n").tamper_target == "unchecked"

    def test_shipped_fault_plans_parse(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "scenarios", "default.faults"), encoding="utf-8") as fh:
            assert parse_faults(fh.read()) == DEFAULT_FAULTS
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(root, "perfbench", "run.py"))
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert parse_faults(bench.NO_FAULTS) == NO_FAULTS
        assert parse_faults(bench.DEFAULT_FAULTS) == DEFAULT_FAULTS
        assert parse_scenario(bench.SCENARIO.format(reps=300)) == nft_sale_script(repetitions=300)
        with open(os.path.join(root, "scenarios", "nft_sale.scenario"), encoding="utf-8") as fh:
            assert parse_scenario(fh.read()) == nft_sale_script()


fault_plans = st.builds(
    FaultPlan,
    maintainer_crash_prob=st.floats(0.0, 1.0),
    byzantine_maintainers=st.integers(0, 7),
    byz_mode=st.sampled_from(ByzantineMode),
    agent_behavior=st.sampled_from(AgentBehavior),
    storage_crash_prob=st.floats(0.0, 1.0),
    executor_behavior=st.sampled_from(ExecutorBehavior),
    tamper_target=st.sampled_from(TAMPER_TARGETS),
)


class TestRunInvariants:
    @settings(max_examples=25, deadline=None)
    @given(type_id=st.integers(1, 12), seed=st.integers(0, 2**16),
           reps=st.integers(1, 6), faults=fault_plans)
    def test_whole_run_invariants(self, type_id, seed, reps, faults):
        run = ev._ScenarioRun(architecture(type_id), nft_sale_script(repetitions=reps),
                              SimConfig(seed=seed), faults, keep_history=True)
        stats = run.run()
        chain = run.topology.chain
        ft = chain.state.storage[FT_ID]
        balances = sum(int.from_bytes(v, "big") for k, v in ft.items() if k.startswith(b"bal:"))
        assert int.from_bytes(ft[b"sup:"], "big") == balances
        assert chain.check_persistence()
        assert len(chain.confirmations) == chain.txs_confirmed
        if stats.violations == 0:
            nft = chain.state.storage.get(NFT_ID, {})
            held = Counter(v for k, v in nft.items() if k.startswith(b"own:"))
            counts = {k[4:]: int.from_bytes(v, "big") for k, v in nft.items()
                      if k.startswith(b"cnt:")}
            assert {owner: n for owner, n in counts.items() if n} == dict(held)


class TestRunStats:
    """A run's counts are one frozen record, built when the run ends."""

    def test_the_record_is_frozen(self):
        stats = run_raw(architecture(1), FAST, SimConfig(seed=42), NO_FAULTS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.ops_succeeded = 0

    def test_the_round_trace_stays_out_of_asdict_and_eq(self):
        stats = run_raw(architecture(1), FAST, SimConfig(seed=42), NO_FAULTS)
        assert stats.rounds and "rounds" not in dataclasses.asdict(stats)
        assert dataclasses.replace(stats, rounds=[]) == stats

    def test_violations_sum_the_breaks_kept_apart(self):
        # Three equivocating maintainers of 7 break safety; a tampering
        # executor writes outside the checked region unnoticed.
        plan = parse_faults("byzantine_maintainers = 3\nbyz_mode = equivocate\n"
                            "executor_behavior = Malicious\ntamper_target = unchecked\n")
        stats = run_raw(architecture(4), FAST, SimConfig(seed=42), plan)
        assert stats.safety_breaks and stats.integrity_violations
        assert stats.violations == stats.safety_breaks + stats.integrity_violations

    # Seed 42, fault-free, 300 repetitions. Type 3 writes each 768-byte blob
    # to 3 replicas; Types 1 and 7 store on-chain. Type 2 inlines a 100-byte
    # blob, so nothing goes off-chain, yet its report reads offchain_used:
    # the flag is read off the type's label, not the run.
    @pytest.mark.parametrize("type_id, data_size, expected", [
        (3, 768, 768 * 300 * 3), (1, 768, 0), (7, 768, 0), (2, 100, 0)])
    def test_offchain_bytes(self, type_id, data_size, expected):
        script = nft_sale_script(data_size=data_size, repetitions=300)
        stats = run_raw(architecture(type_id), script, SimConfig(seed=42), NO_FAULTS)
        assert stats.offchain_bytes == expected
        report = ev._report(architecture(type_id), script, NO_FAULTS, SimConfig(seed=42),
                            stats, stats)
        assert report.offchain_used is (type_id in (2, 3))

    @settings(max_examples=40, deadline=None)
    @given(type_id=st.integers(1, 12), reps=st.integers(1, 8), seed=st.integers(0, 2**16),
           faults=st.sampled_from([NO_FAULTS, DEFAULT_FAULTS, parse_faults(FAULT_WIRING_PLANS[0]),
                                   parse_faults(FAULT_WIRING_PLANS[1]),
                                   parse_faults("byzantine_maintainers = 3\n")]),
           majority=st.booleans())
    def test_no_transaction_is_counted_twice(self, type_id, reps, seed, faults, majority):
        # Three silent maintainers of 7 stall every wave, so the chain ends
        # with transactions still pooled.
        rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN) if majority else ConsensusRule()
        sim = SimConfig(seed=seed, consensus=ConsensusConfig(rule=rule))
        run = ev._ScenarioRun(architecture(type_id), nft_sale_script(repetitions=reps), sim,
                              faults, keep_history=True)
        stats = run.run()
        chain = run.topology.chain
        assert len(chain.confirmations) == stats.txs_confirmed
        settled = stats.txs_confirmed + sum(count for _, count in stats.discards)
        assert settled <= len(chain.seen_tx)
        if chain.quiescent:
            assert settled == len(chain.seen_tx)


class TestAcyclicRun:
    """A sub-run holds no reference cycle, so reference counting frees it.

    That is what makes it safe for the run to pause the cyclic collector.
    """

    @pytest.mark.parametrize("type_id", [1, 10])
    def test_a_finished_run_is_freed_without_the_collector(self, type_id):
        run = ev._ScenarioRun(architecture(type_id), FAST, SimConfig(seed=42), DEFAULT_FAULTS)
        chain = weakref.ref(run.topology.chain)
        stats = run.run()
        del run
        assert chain() is None  # the record the run returned holds nothing of it
        assert [name for name, value in vars(stats).items() if callable(value)] == []

    @pytest.mark.parametrize("type_id", [1, 4, 7, 10])
    def test_the_chain_holds_no_callable(self, type_id):
        # A callable on the chain (a closure or a bound method) is how a
        # back-reference, and so a cycle, would get in.
        chain = ev.compose(architecture(type_id), SimConfig(seed=42), faults=DEFAULT_FAULTS).chain
        assert [name for name, value in vars(chain).items() if callable(value)] == []

    @pytest.mark.parametrize("faults", [NO_FAULTS, DEFAULT_FAULTS],
                             ids=["no-faults", "default-faults"])
    @pytest.mark.parametrize("type_id", range(1, 13))
    def test_a_run_leaves_no_cyclic_garbage(self, type_id, faults):
        gc.collect()
        run_raw(architecture(type_id), nft_sale_script(repetitions=3), SimConfig(seed=42),
                faults)
        assert gc.collect() == 0

    @pytest.mark.parametrize("sim, reason", [
        (SimConfig(seed=42, inline_cap=100), "InlineTooLarge"),
        (SimConfig(seed=42, consensus=ConsensusConfig(
            rule=ConsensusRule(kind=RuleKind.MAJORITY_CHAIN, fraction=1.0))), "chain stalled"),
    ], ids=["infeasible", "stalled"])
    def test_an_infeasible_run_leaves_no_cyclic_garbage(self, sim, reason):
        gc.collect()
        stats = run_raw(architecture(1), FAST, sim, NO_FAULTS)
        assert stats.infeasible_reason.startswith(reason)
        assert gc.collect() == 0

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_a_run_pauses_the_collector_and_restores_the_callers_state(
            self, monkeypatch, enabled, raises):
        seen = []
        step = ev._ScenarioRun._run_step_wave

        def spy(run, s):
            seen.append(gc.isenabled())
            if raises:
                raise RuntimeError("step failed")
            return step(run, s)

        monkeypatch.setattr(ev._ScenarioRun, "_run_step_wave", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
                run_raw(architecture(1), FAST, SimConfig(seed=42), NO_FAULTS)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert after is enabled
        assert seen and True not in seen


def _leaves(config, prefix=""):
    """(dotted path, value) of every non-dataclass field, depth first."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def _with(config, path, value):
    head, _, rest = path.partition(".")
    inner = _with(getattr(config, head), rest, value) if rest else value
    return dataclasses.replace(config, **{head: inner})


def _other_value(value):
    """A valid setting of the same type that differs from value."""
    if isinstance(value, Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, str):
        return next(t for t in TAMPER_TARGETS if t != value)
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    return value + 1


RULES = [ConsensusRule(), ConsensusRule(kind=RuleKind.MAJORITY_CHAIN)]


class TestHistory:
    """Keeping history changes what a run holds, never what it measures."""

    @pytest.mark.parametrize("rule", RULES, ids=["bft", "majority"])
    @pytest.mark.parametrize("type_id", range(1, 13))
    def test_outputs_are_identical_with_and_without_history(self, type_id, rule):
        arch, script = architecture(type_id), nft_sale_script(repetitions=12)
        sim = SimConfig(seed=42, consensus=ConsensusConfig(rule=rule))
        seen = []
        for keep in (False, True):
            outputs, runs = [], []
            for faults in (NO_FAULTS, DEFAULT_FAULTS):
                run = ev._ScenarioRun(arch, script, sim, faults, keep_history=keep)
                stats = run.run()
                chain = run.topology.chain
                assert chain.keep_history is keep
                outputs.append((dataclasses.asdict(stats), stats.rounds,
                                chain.confirmed_blocks[-1].block_hash, chain.state.state_root,
                                chain.bytes_total, chain.now))
                runs.append(stats)
            outputs.append(report_json(ev._report(arch, script, DEFAULT_FAULTS, sim, *runs)))
            seen.append(outputs)
        assert seen[0] == seen[1]

    @staticmethod
    def held() -> Counter:
        """Live receipts, confirmations, transactions and block bodies in the process."""
        gc.collect()
        held = Counter()
        for obj in gc.get_objects():
            kind = type(obj)
            if kind in (Receipt, Confirmation, Transaction) or (kind is Block and obj.txs):
                held[kind.__name__] += 1
        return held

    @pytest.mark.parametrize("rule", RULES, ids=["bft", "majority"])
    @pytest.mark.parametrize("type_id", [1, 7])
    def test_a_run_without_history_keeps_no_receipt_or_block_body(self, type_id, rule):
        sim = SimConfig(seed=42, consensus=ConsensusConfig(rule=rule))
        script = nft_sale_script(repetitions=30)
        before = self.held()
        run = ev._ScenarioRun(architecture(type_id), script, sim, NO_FAULTS)
        stats = run.run()
        chain = run.topology.chain
        assert stats.ops_succeeded == stats.ops_attempted
        assert self.held() == before
        assert chain.confirmations is None and chain.state.event_log is None
        [tip] = chain.confirmed_blocks  # the chain holds one block: its tip's header
        assert type(tip) is BlockHeader
        # The same run with history holds them all: the probe sees retention.
        kept = ev._ScenarioRun(architecture(type_id), script, sim, NO_FAULTS, keep_history=True)
        kept.run()
        assert chain.txs_confirmed == len(kept.topology.chain.confirmations) > 0
        grown = self.held() - before
        assert grown["Receipt"] == grown["Confirmation"] == kept.topology.chain.txs_confirmed
        assert grown["Block"] > 0
        log = kept.topology.chain.confirmed_blocks
        assert (tip.block_hash, tip.height, tip.state_root) == \
            (log[-1].block_hash, log[-1].height, log[-1].state_root)
        assert tip.height == len(log) - 1 > 0

    @pytest.mark.parametrize("faults", [NO_FAULTS, parse_faults("byzantine_maintainers = 2\n")],
                             ids=["fault-free", "byzantine"])
    def test_majority_chain_branches_keep_only_their_tip_and_unconfirmed_blocks(self, faults):
        rule = ConsensusRule(kind=RuleKind.MAJORITY_CHAIN)
        sim = SimConfig(seed=42, consensus=ConsensusConfig(rule=rule))
        script = nft_sale_script(repetitions=600)
        runs = [ev._ScenarioRun(architecture(1), script, sim, faults, keep_history=keep)
                for keep in (False, True)]
        lean, kept = (run.run() for run in runs)
        assert lean == kept and lean.ops_succeeded > 0
        chain = runs[0].topology.chain
        assert chain.confirmed_blocks[-1].height > 200  # far more blocks than a branch keeps
        for branch in (chain._honest_branch, chain._adv_branch):
            assert 1 <= len(branch) <= rule.confirm_depth + 2
            assert [b.height for b in branch] == list(range(branch[0].height,
                                                            branch[-1].height + 1))
