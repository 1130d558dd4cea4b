import dataclasses
import json
import math

import numpy as np
import pytest

from achilles import (
    CampaignReport,
    CampaignSpec,
    Mode,
    ReportFormatError,
    RunRecord,
    SeedingConfig,
    audit_report,
    load_network,
    make_threshold_state,
    report_digest,
    report_read,
    report_write,
    run_campaign,
    run_query,
    save_network,
)
from achilles import harness
from helpers import constant_margin_net, flip_net, zero_net


@pytest.fixture
def flip_net_path(tmp_path):
    path = tmp_path / "flip.relunet"
    save_network(flip_net(), path)
    return str(path)


@pytest.fixture
def zero_net_path(tmp_path):
    path = tmp_path / "zero.relunet"
    save_network(zero_net(), path)
    return str(path)


def error_and_unknown_report():
    """A report whose error row has no seed, margin or witness, and whose
    reasons hold the CSV delimiter and quote character."""
    records = [
        RunRecord(0, "b", (), math.nan, "error", False, None,
                  'SeedSearchExhausted: no seed under "0.25", col_num reached', 1.5),
        RunRecord(1, "b", (0.1, 0.2), 0.003, "unknown", False, None, "budget, 7 boxes left", 2000.0),
        RunRecord(2, "b", (0.3, 1e-300), -0.0, "sat", False, (0.30000000000000004, 5e-324), None, 0.5),
        RunRecord(3, "b", (0.5, 0.5), 1.0, "unsat", False, None, None, 0.125),
    ]
    return CampaignReport(
        mode="b", delta=0.05, rng_seed=7, net_path="nets/net.relunet", records=records,
        wall_time_s=2.25, config={"time_budget": 2.0, "seeding": {"col_num": 10}},
        net_sha256="ab" * 32,
    )


def fast_seeding():
    return SeedingConfig(sample_set_size=100, col_num=50)


class TestMode:
    def test_flags(self):
        assert Mode.B.boosted and Mode.BG.boosted
        assert not Mode.R.boosted and not Mode.RG.boosted
        assert Mode.RG.greedy and Mode.BG.greedy
        assert not Mode.R.greedy and not Mode.B.greedy

    def test_from_string(self):
        assert Mode("bg") is Mode.BG


class TestCampaignSpec:
    def test_exactly_one_stop_condition(self):
        with pytest.raises(ValueError, match="stop condition"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.1)
        with pytest.raises(ValueError, match="stop condition"):
            CampaignSpec(
                net_path="x", mode=Mode.R, delta=0.1,
                time_budget=1.0, target_counterexamples=5,
            )

    def test_mode_coercion(self):
        spec = CampaignSpec(net_path="x", mode="rg", delta=0.1, time_budget=1.0)
        assert spec.mode is Mode.RG

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_time_limits_must_be_finite(self, value):
        with pytest.raises(ValueError, match="time_budget"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.1, time_budget=value)
        with pytest.raises(ValueError, match="per_query_timeout"):
            CampaignSpec(
                net_path="x", mode=Mode.R, delta=0.1, target_counterexamples=1,
                per_query_timeout=value,
            )

    def test_delta_positive(self):
        with pytest.raises(ValueError, match="delta"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.0, time_budget=1.0)


class TestRunQuery:
    def test_mode_r_on_zero_net_never_sat(self):
        # Every tie breaks to label 0, so no counter-example exists.
        net = zero_net()
        rng = np.random.default_rng(0)
        for _ in range(3):
            record = run_query(net, Mode.R, 0.25, rng=rng, per_query_timeout=0.2)
            assert record.outcome in ("unsat", "unknown")

    def test_mode_bg_on_flip_net_sat_by_greedy(self):
        net = flip_net()
        rng = np.random.default_rng(1)
        state = make_threshold_state(net, rng, fast_seeding())
        record = run_query(net, Mode.BG, 0.2, rng=rng, threshold_state=state)
        assert record.outcome == "sat"
        assert record.greedy_found
        assert record.witness is not None
        assert abs(record.witness[0] - record.seed[0]) <= 0.2

    def test_forced_timeout_records_unknown_budget(self):
        net = zero_net()
        rng = np.random.default_rng(2)
        record = run_query(net, Mode.R, 0.25, rng=rng, per_query_timeout=0.001)
        assert record.outcome == "unknown"
        assert record.reason == "budget"

    def test_missing_threshold_state_is_recorded_error(self):
        net = flip_net()
        record = run_query(net, Mode.B, 0.1, rng=np.random.default_rng(0))
        assert record.outcome == "error"
        assert "threshold state" in record.reason

    def test_mode_r_skips_greedy(self):
        net = flip_net()
        record = run_query(net, Mode.R, 0.2, rng=np.random.default_rng(3))
        assert not record.greedy_found


class TestRunCampaign:
    def test_target_zero_gives_empty_report(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.R, delta=0.2, target_counterexamples=0
        )
        report = run_campaign(spec)
        assert report.runs == 0
        assert report.rate == 0.0

    def test_tiny_time_budget_is_consistent(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.RG, delta=0.2, time_budget=0.2,
            per_query_timeout=0.1,
        )
        report = run_campaign(spec)
        assert report.runs >= 0
        assert 0 <= report.sat_by_greedy <= report.sat_total <= report.runs
        assert 0.0 <= report.rate <= 1.0

    def test_find_n_stops_at_target(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.BG, delta=0.2,
            target_counterexamples=5, seeding=fast_seeding(), rng_seed=7,
        )
        report = run_campaign(spec)
        assert report.sat_total == 5
        assert report.records[-1].outcome == "sat"

    def test_find_n_stops_after_its_run_cap(self, tmp_path):
        # The margin is 1 everywhere, so no run can find a counter-example.
        path = tmp_path / "constant.relunet"
        save_network(constant_margin_net(), path)
        spec = CampaignSpec(
            net_path=str(path), mode=Mode.R, delta=0.1, target_counterexamples=2
        )
        report = run_campaign(spec)
        assert report.runs == 200
        assert all(r.outcome == "unsat" for r in report.records)

    def test_mode_contract_no_greedy_hits_in_r_and_b(self, flip_net_path):
        for mode in (Mode.R, Mode.B):
            spec = CampaignSpec(
                net_path=flip_net_path, mode=mode, delta=0.2,
                target_counterexamples=3, seeding=fast_seeding(), rng_seed=11,
            )
            report = run_campaign(spec)
            assert report.sat_by_greedy == 0
            assert report.sat_total >= 3

    def test_boosted_seeds_raise_rate_on_flip_net(self, flip_net_path):
        reports = {}
        for mode in (Mode.R, Mode.BG):
            spec = CampaignSpec(
                net_path=flip_net_path, mode=mode, delta=0.1,
                target_counterexamples=8, seeding=fast_seeding(), rng_seed=3,
            )
            reports[mode] = run_campaign(spec)
        assert reports[Mode.BG].rate >= reports[Mode.R].rate

    def test_single_worker_reproducibility(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.BG, delta=0.2,
            target_counterexamples=4, seeding=fast_seeding(), rng_seed=21,
        )
        a = run_campaign(spec)
        b = run_campaign(spec)
        assert report_digest(a) == report_digest(b)
        for ra, rb in zip(a.records, b.records):
            assert ra.seed == rb.seed
            assert ra.outcome == rb.outcome
            assert ra.witness == rb.witness

    def test_witness_audit(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.BG, delta=0.2,
            target_counterexamples=4, seeding=fast_seeding(), rng_seed=5,
        )
        report = run_campaign(spec)
        audit_report(load_network(flip_net_path), report)

    def test_audit_rejects_tampered_witness(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.BG, delta=0.2,
            target_counterexamples=2, seeding=fast_seeding(), rng_seed=5,
        )
        report = run_campaign(spec)
        sat = next(r for r in report.records if r.outcome == "sat")
        tampered = dataclasses.replace(sat, witness=tuple(v + 10.0 for v in sat.witness))
        report.records[report.records.index(sat)] = tampered
        with pytest.raises(ReportFormatError, match="witness"):
            audit_report(load_network(flip_net_path), report)


class TestReportFiles:
    def _make_report(self, flip_net_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.BG, delta=0.2,
            target_counterexamples=4, seeding=fast_seeding(), rng_seed=13,
        )
        return run_campaign(spec)

    def test_round_trip_identity(self, flip_net_path, tmp_path):
        report = self._make_report(flip_net_path)
        out = tmp_path / "report"
        report_write(report, out)
        assert report_read(out) == report

    def test_csv_row_count(self, flip_net_path, tmp_path):
        report = self._make_report(flip_net_path)
        out = report_write(report, tmp_path / "report")
        lines = (out / "runs.csv").read_text().strip().splitlines()
        assert len(lines) == report.runs + 1

    def test_summary_rate_matches_rows(self, flip_net_path, tmp_path):
        report = self._make_report(flip_net_path)
        out = report_write(report, tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        recomputed = report_read(out)
        sat = sum(1 for r in recomputed.records if r.outcome == "sat")
        assert summary["sat_total"] == sat
        assert summary["rate"] == sat / summary["runs"]

    def test_tampered_counts_rejected(self, flip_net_path, tmp_path):
        report = self._make_report(flip_net_path)
        out = report_write(report, tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        summary["sat_total"] += 1
        (out / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ReportFormatError, match="disagrees"):
            report_read(out)

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(ReportFormatError):
            report_read(tmp_path / "nope")

    def test_error_and_unknown_rows_round_trip(self, tmp_path):
        report = error_and_unknown_report()
        back = report_read(report_write(report, tmp_path / "a"))
        error = back.records[0]
        assert error.seed == () and math.isnan(error.seed_margin) and error.witness is None
        assert error.reason == report.records[0].reason
        assert back.records[1:] == report.records[1:]
        assert dataclasses.replace(back, records=[]) == dataclasses.replace(report, records=[])
        report_write(back, tmp_path / "b")
        for name in ("runs.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_error_and_unknown_rows_digest(self, tmp_path):
        # Pinned: the digest's shape is part of the report format.
        report = error_and_unknown_report()
        digest = "2b0c18e7031e4bbcdda67f3dc9295d568a2c5125252414a28284a8241e263fb6"
        assert report_digest(report) == digest
        assert report_digest(report_read(report_write(report, tmp_path / "r"))) == digest

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: [],
            lambda s: 5,
            lambda s: {**s, "delta": "x"},
            lambda s: {**s, "rng_seed": None},
            lambda s: {**s, "delta": 10**400},
            lambda s: {k: v for k, v in s.items() if k != "mode"},
        ],
        ids=["list", "number", "delta-string", "rng-seed-null", "delta-too-big", "no-mode"],
    )
    def test_malformed_summary_rejected(self, tmp_path, edit):
        out = report_write(error_and_unknown_report(), tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        (out / "summary.json").write_text(json.dumps(edit(summary)))
        with pytest.raises(ReportFormatError, match="summary"):
            report_read(out)

    def test_absent_summary_keys_take_defaults(self, tmp_path):
        report = error_and_unknown_report()
        out = report_write(report, tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        for key in ("config", "net_sha256", "wall_time_s", "rate"):
            del summary[key]
        summary["delta"] = 1
        (out / "summary.json").write_text(json.dumps(summary))
        back = report_read(out)
        assert (back.config, back.net_sha256, back.wall_time_s) == ({}, "", 0.0)
        assert back.delta == 1.0 and isinstance(back.delta, float)

    def test_columns_follow_run_record_fields(self):
        assert list(harness._COLUMNS) == [f.name for f in dataclasses.fields(RunRecord)]

    def test_digest_excludes_wall_times(self, flip_net_path):
        report = self._make_report(flip_net_path)
        slower = dataclasses.replace(
            report,
            wall_time_s=report.wall_time_s + 100.0,
            records=[dataclasses.replace(r, time_ms=r.time_ms + 5.0) for r in report.records],
        )
        assert report_digest(report) == report_digest(slower)

    def test_digest_independent_of_net_directory(self, tmp_path):
        digests = []
        for where in ("one", "two"):
            path = tmp_path / where / "flip.relunet"
            path.parent.mkdir()
            save_network(flip_net(), path)
            spec = CampaignSpec(
                net_path=str(path), mode=Mode.BG, delta=0.2,
                target_counterexamples=4, seeding=fast_seeding(), rng_seed=21,
            )
            digests.append(report_digest(run_campaign(spec)))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("target", [0, 2])
    @pytest.mark.parametrize("nudge", ["weight", "input box"])
    def test_digest_tells_same_named_nets_apart(self, tmp_path, target, nudge):
        # Two nets that differ in one weight or bound, saved under one file
        # name in two directories: their records may agree, their digests
        # must not.
        net = flip_net()
        if nudge == "weight":
            weights = [w.copy() for w in net.weights]
            weights[1][0, 0] = 1.5
            nudged = dataclasses.replace(net, weights=tuple(weights))
        else:
            nudged = dataclasses.replace(net, input_upper=np.array([2.0]))
        digests = []
        for where, net in (("one", flip_net()), ("two", nudged)):
            path = tmp_path / where / "net.relunet"
            path.parent.mkdir()
            save_network(net, path)
            spec = CampaignSpec(
                net_path=str(path), mode=Mode.R, delta=0.2,
                target_counterexamples=target, seeding=fast_seeding(), rng_seed=21,
            )
            digests.append(report_digest(run_campaign(spec)))
        assert digests[0] != digests[1]

    def test_digest_sees_content_changes(self, flip_net_path):
        report = self._make_report(flip_net_path)
        changed = dataclasses.replace(
            report,
            records=[
                dataclasses.replace(report.records[0], outcome="unsat"),
                *report.records[1:],
            ],
        )
        assert report_digest(report) != report_digest(changed)


class TestErrorPropagation:
    def test_campaign_survives_seed_generation_failure(self, tmp_path):
        # Margins on the zero net are all exactly zero: the weak-seed bar
        # is non-positive and every B run records an error instead of
        # aborting the campaign.
        path = tmp_path / "zero.relunet"
        save_network(zero_net(), path)
        spec = CampaignSpec(
            net_path=str(path), mode=Mode.B, delta=0.1, time_budget=0.3,
            seeding=SeedingConfig(sample_set_size=20, col_num=10),
            per_query_timeout=0.05,
        )
        report = run_campaign(spec)
        assert report.runs > 0
        assert all(r.outcome == "error" for r in report.records)
        assert report.sat_total == 0
