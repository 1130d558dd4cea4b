"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible
with ``pytest -s``) and asserts it.  Statistical criteria use fixed
seeds; campaign-budget criteria compare counts gathered under identical
wall-clock budgets, so they are machine-speed independent in their
ratios.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from achilles import (
    CampaignSpec,
    GridOutcome,
    Mode,
    SeedingConfig,
    VerdictKind,
    VerificationQuery,
    check_witness,
    classify,
    forward_batch,
    format_network,
    generate_seed,
    greedy_search,
    grid_oracle,
    lipschitz_bound,
    load_network,
    make_threshold_state,
    margin_batch,
    parse_network,
    random_network,
    random_sample,
    report_digest,
    report_read,
    report_write,
    run_attack_campaign,
    run_campaign,
    save_network,
    verify_local_robustness,
)
from achilles.attacks import AttackConfig
from helpers import assert_valid_trace


def _report(criterion: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion} ({description}): {status}")


# ---------------------------------------------------------------------------
# Criterion 5/6/8 share one set of tuned synthetic suites: networks whose
# random queries are SAT between 30% and 70% of the time at the chosen
# radius, established with the grid oracle.
# ---------------------------------------------------------------------------

SUITE_SHAPE = [2, 24, 24, 2]
SUITE_SCALE = 3.0
SUITE_SEEDING = SeedingConfig(sample_set_size=500, col_num=200)


def _oracle_sat_fraction(net, delta, probes, seed):
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(probes):
        x0 = rng.uniform(0, 1, size=net.input_size)
        query = VerificationQuery.for_point(net, x0, float(delta))
        if grid_oracle(net, query, spacing=delta / 25.0).outcome is GridOutcome.SAT:
            hits += 1
    return hits / probes


def _tune_delta(net, seed, probes=30, band=(0.30, 0.70)):
    grid = np.geomspace(0.01, 0.5, 16)
    fracs = [_oracle_sat_fraction(net, d, probes, seed) for d in grid]
    for d, f in zip(grid, fracs):
        if band[0] <= f <= band[1]:
            return float(d)
    for i in range(len(grid) - 1):
        if fracs[i] < band[0] and fracs[i + 1] > band[1]:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(12):
                mid = (lo + hi) / 2
                f = _oracle_sat_fraction(net, mid, probes, seed)
                if band[0] <= f <= band[1]:
                    return float(mid)
                if f < band[0]:
                    lo = mid
                else:
                    hi = mid
    return None


@pytest.fixture(scope="session")
def tuned_suites(tmp_path_factory):
    """First ten seeds whose nets admit a 30-70% SAT radius."""
    root = tmp_path_factory.mktemp("suites")
    suites = []
    seed = 5000
    while len(suites) < 10 and seed < 5100:
        net = random_network(SUITE_SHAPE, seed, weight_scale=SUITE_SCALE)
        delta = _tune_delta(net, seed)
        if delta is not None:
            path = root / f"suite_{seed}.relunet"
            save_network(net, path)
            suites.append({"seed": seed, "delta": delta, "path": str(path), "net": net})
        seed += 1
    assert len(suites) == 10
    return suites


class TestCriterion1:
    def test_lipschitz_bound_never_violated(self):
        started = time.perf_counter()
        rng = np.random.default_rng(1001)
        violations = 0
        for i in range(50):
            if i == 0:
                shape = [5, 50, 50, 5]
            else:
                hidden = [int(rng.integers(5, 51)) for _ in range(int(rng.integers(1, 3)))]
                shape = [int(rng.integers(1, 6)), *hidden, int(rng.integers(2, 6))]
            net = random_network(shape, 1100 + i, weight_scale=float(rng.uniform(0.5, 3.0)))
            bound = lipschitz_bound(net)
            xs = rng.uniform(0, 1, size=(1000, net.input_size))
            ys = rng.uniform(0, 1, size=(1000, net.input_size))
            diffs = np.abs(forward_batch(net, xs) - forward_batch(net, ys)).max(axis=1)
            dists = np.abs(xs - ys).max(axis=1)
            keep = dists > 0
            violations += int((diffs[keep] > bound * dists[keep]).sum())
        elapsed = time.perf_counter() - started
        passed = violations == 0 and elapsed < 30.0
        _report(1, "lipschitz suite", passed)
        assert violations == 0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


ORACLE_SHAPES = [
    [1, 8, 2],
    [2, 10, 6, 2],
    [2, 16, 3],
    [3, 8, 8, 2],
    [3, 16, 2],
    [2, 8, 8, 3],
    [1, 16, 2],
    [3, 10, 6, 3],
    [2, 12, 4, 2],
    [3, 16, 4],
]


class TestCriterion2:
    def test_verifier_agrees_with_conclusive_grid_oracle(self):
        started = time.perf_counter()
        conflicts = []
        bad_witnesses = 0
        for i in range(30):
            shape = ORACLE_SHAPES[i % len(ORACLE_SHAPES)]
            net = random_network(shape, 9000 + i, weight_scale=3.0)
            assert sum(shape[1:-1]) <= 16 and shape[0] <= 3
            rng = np.random.default_rng(9000 + i)
            for _ in range(20):
                x0 = rng.uniform(0, 1, size=net.input_size)
                delta = float(np.exp(rng.uniform(np.log(0.02), np.log(0.3))))
                query = VerificationQuery.for_point(net, x0, delta, time_budget=10.0)
                verdict = verify_local_robustness(net, query)
                oracle = grid_oracle(net, query, spacing=delta / 10.0)
                sat_vs_unsat = (
                    oracle.outcome is GridOutcome.SAT and verdict.kind is VerdictKind.UNSAT
                )
                unsat_vs_sat = (
                    oracle.outcome is GridOutcome.UNSAT and verdict.kind is VerdictKind.SAT
                )
                if sat_vs_unsat or unsat_vs_sat:
                    conflicts.append((i, tuple(x0), delta))
                if verdict.kind is VerdictKind.SAT and not check_witness(net, query, verdict.witness):
                    bad_witnesses += 1
        elapsed = time.perf_counter() - started
        passed = not conflicts and bad_witnesses == 0 and elapsed < 300.0
        _report(2, "oracle equivalence", passed)
        assert conflicts == []
        assert bad_witnesses == 0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


class TestCriterion3:
    def test_greedy_soundness_over_1000_searches(self):
        started = time.perf_counter()
        searches = 0
        found = 0
        for i in range(20):
            net = random_network([2, 8, 8, 2], 3300 + i, weight_scale=2.0)
            rng = np.random.default_rng(3300 + i)
            for _ in range(50):
                x0 = rng.uniform(0, 1, size=2)
                delta = float(rng.uniform(0.02, 0.2))
                query = VerificationQuery.for_point(net, x0, delta)
                outcome = greedy_search(net, query, record_trace=True)
                searches += 1
                if outcome.found:
                    found += 1
                    ce = outcome.counter_example
                    assert classify(net, ce) != classify(net, x0)
                    assert np.abs(ce - x0).max() <= delta
                    assert net.contains(ce)
                assert_valid_trace(outcome.trace)
        elapsed = time.perf_counter() - started
        passed = searches == 1000 and found > 0 and elapsed < 60.0
        _report(3, "greedy soundness", passed)
        assert searches == 1000
        assert found > 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


class TestCriterion4:
    def test_weak_seeds_have_significantly_lower_margins(self):
        wins = 0
        details = []
        for i in range(10):
            net = random_network([4, 10, 10, 3], 4400 + i)
            rng = np.random.default_rng(4400 + i)
            random_margins = margin_batch(net, random_sample(net, rng, 200))
            state = make_threshold_state(net, rng, SeedingConfig(sample_set_size=500, col_num=200))
            weak = np.stack([generate_seed(net, state, rng) for _ in range(200)])
            weak_margins = margin_batch(net, weak)
            test = stats.mannwhitneyu(weak_margins, random_margins, alternative="less")
            ok = test.pvalue < 0.01 and weak_margins.mean() < random_margins.mean()
            wins += ok
            details.append((i, float(test.pvalue)))
        passed = wins >= 9
        _report(4, "seeding effect", passed)
        assert wins >= 9, details


def _mode_counts(suite, budget=3.0):
    counts = {}
    for mode in (Mode.R, Mode.RG, Mode.B, Mode.BG):
        spec = CampaignSpec(
            net_path=suite["path"],
            mode=mode,
            delta=suite["delta"],
            time_budget=budget,
            per_query_timeout=2.0,
            rng_seed=suite["seed"],
            seeding=SUITE_SEEDING,
        )
        counts[mode] = run_campaign(spec, net=suite["net"])
    return counts


class TestCriterion5:
    def test_mode_ordering_under_fixed_budget(self, tuned_suites):
        started = time.perf_counter()
        passing = 0
        details = []
        for suite in tuned_suites:
            reports = _mode_counts(suite)
            r = reports[Mode.R].sat_total
            rg = reports[Mode.RG].sat_total
            b = reports[Mode.B].sat_total
            bg = reports[Mode.BG].sat_total
            ordered = bg >= b >= r and bg >= rg
            boosted = bg >= 1.5 * r if r > 0 else bg >= 1
            passing += ordered and boosted
            details.append((suite["seed"], r, rg, b, bg))
        elapsed = time.perf_counter() - started
        passed = passing >= 8 and elapsed < 900.0
        _report(5, "mode ordering", passed)
        assert passing >= 8, details
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


class TestCriterion6:
    def test_mode_contract_greedy_counts(self, tuned_suites):
        suite = tuned_suites[0]
        ok = True
        for mode in (Mode.R, Mode.B, Mode.RG, Mode.BG):
            spec = CampaignSpec(
                net_path=suite["path"],
                mode=mode,
                delta=suite["delta"],
                target_counterexamples=5,
                per_query_timeout=2.0,
                rng_seed=suite["seed"],
                seeding=SUITE_SEEDING,
            )
            report = run_campaign(spec, net=suite["net"])
            if mode in (Mode.R, Mode.B) and report.sat_by_greedy != 0:
                ok = False
            if not report.sat_by_greedy <= report.sat_total <= report.runs:
                ok = False
        _report(6, "mode contract", ok)
        assert ok


class TestCriterion7:
    def test_attack_boost_direction(self):
        started = time.perf_counter()
        config = AttackConfig(eps=0.02, epo=4)
        seeding = SeedingConfig(sample_set_size=500, col_num=300)
        wins = 0
        details = []
        for i in range(20):
            net = random_network([10, 16, 16, 3], 7000 + i)
            rate_r = run_attack_campaign(net, 250, config, "r", i, seeding).rate
            rate_b = run_attack_campaign(net, 250, config, "b", i, seeding).rate
            wins += rate_b >= rate_r
            details.append((i, rate_r, rate_b))
        elapsed = time.perf_counter() - started
        passed = wins >= 18 and elapsed < 300.0
        _report(7, "attack boost", passed)
        assert wins >= 18, details
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


class TestCriterion8:
    def test_minimum_threshold_beats_average(self, tuned_suites):
        wins = 0
        details = []
        for suite in tuned_suites:
            rates = {}
            for strategy in ("minimum", "average"):
                spec = CampaignSpec(
                    net_path=suite["path"],
                    mode=Mode.B,
                    delta=suite["delta"],
                    target_counterexamples=25,
                    per_query_timeout=2.0,
                    rng_seed=suite["seed"],
                    seeding=replace(SUITE_SEEDING, threshold_strategy=strategy),
                )
                rates[strategy] = run_campaign(spec, net=suite["net"]).rate
            wins += rates["minimum"] >= rates["average"]
            details.append((suite["seed"], rates["minimum"], rates["average"]))
        passed = wins >= 7
        _report(8, "threshold strategies", passed)
        assert wins >= 7, details


class TestCriterion9:
    def test_determinism_and_lossless_formats(self, tuned_suites, tmp_path):
        suite = tuned_suites[0]
        spec = CampaignSpec(
            net_path=suite["path"],
            mode=Mode.BG,
            delta=suite["delta"],
            target_counterexamples=10,
            per_query_timeout=2.0,
            rng_seed=123,
            seeding=SUITE_SEEDING,
        )
        first = run_campaign(spec)
        second = run_campaign(spec)
        deterministic = report_digest(first) == report_digest(second)
        same_content = all(
            a.seed == b.seed and a.outcome == b.outcome and a.witness == b.witness
            for a, b in zip(first.records, second.records)
        )

        net_text = format_network(suite["net"])
        net_round_trip = format_network(parse_network(net_text)) == net_text
        net_equal = parse_network(net_text) == load_network(suite["path"])

        out = tmp_path / "report"
        report_write(first, out)
        report_round_trip = report_read(out) == first

        passed = deterministic and same_content and net_round_trip and net_equal and report_round_trip
        _report(9, "determinism and formats", passed)
        assert deterministic
        assert same_content
        assert net_round_trip
        assert net_equal
        assert report_round_trip
