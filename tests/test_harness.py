import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from achilles import (
    CampaignReport,
    CampaignSpec,
    Mode,
    ReportFormatError,
    RunRecord,
    SeedSearchExhausted,
    SeedingConfig,
    audit_report,
    load_network,
    make_threshold_state,
    margin,
    random_sample,
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
    spec = CampaignSpec(
        net_path="nets/net.relunet", mode="b", delta=0.05, time_budget=2.0, rng_seed=7,
        seeding=SeedingConfig(col_num=10),
    )
    return CampaignReport(spec, records, wall_time_s=2.25, net_sha256="ab" * 32)


def flip_net_report(records):
    spec = CampaignSpec(net_path="flip.relunet", mode="bg", delta=0.2, target_counterexamples=1)
    return CampaignReport(spec, records)


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

    def test_net_path_coerced_to_str(self, flip_net_path, tmp_path):
        # A path object reaches summary.json and reads back as the same spec.
        spec = CampaignSpec(net_path=Path(flip_net_path), mode="r", delta=0.1, target_counterexamples=1)
        assert spec.net_path == flip_net_path
        report = run_campaign(spec)
        assert report_read(report_write(report, tmp_path / "report")) == report

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_time_limits_must_be_finite(self, value):
        with pytest.raises(ValueError, match="time_budget"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.1, time_budget=value)
        with pytest.raises(ValueError, match="per_query_timeout"):
            CampaignSpec(
                net_path="x", mode=Mode.R, delta=0.1, target_counterexamples=1,
                per_query_timeout=value,
            )

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError, match="target_counterexamples"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.1, target_counterexamples=-1)

    def test_delta_positive(self):
        with pytest.raises(ValueError, match="delta"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.0, time_budget=1.0)

    @pytest.mark.parametrize("seed", [-1, 1.0, "3", None])
    def test_rng_seed_must_be_a_non_negative_integer(self, seed):
        # np.random.default_rng's rule, checked before any campaign starts.
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.1, time_budget=1.0, rng_seed=seed)

    @pytest.mark.parametrize("target", [1.5, 2.0, "3"])
    def test_target_must_be_a_non_negative_integer(self, target):
        # A float target used to run, and its report then failed to read back.
        with pytest.raises(ValueError, match="target_counterexamples must be a non-negative integer"):
            CampaignSpec(net_path="x", mode=Mode.R, delta=0.1, target_counterexamples=target)

    def test_numpy_integer_target_reads_back(self, flip_net_path, tmp_path):
        spec = CampaignSpec(net_path=flip_net_path, mode=Mode.R, delta=0.1, target_counterexamples=np.int64(1))
        assert spec.target_counterexamples == 1 and type(spec.target_counterexamples) is int
        report = run_campaign(spec)
        assert report_read(report_write(report, tmp_path / "report")) == report

    def test_numpy_integer_rng_seed_reads_back(self, flip_net_path, tmp_path):
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.R, delta=0.1, target_counterexamples=1, rng_seed=np.uint32(5)
        )
        assert spec.rng_seed == 5 and type(spec.rng_seed) is int
        report = run_campaign(spec)
        assert report_read(report_write(report, tmp_path / "report")) == report

    def test_frozen_after_checks(self):
        # A stop condition reassigned after the checks could run forever.
        spec = CampaignSpec(net_path="x", mode="b", delta=0.1, time_budget=1.0)
        for name, value in (
            ("time_budget", math.inf), ("mode", Mode.R), ("delta", 0.0),
            ("seeding", SeedingConfig(col_num=1)),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seeding.col_num = 0
        assert spec == CampaignSpec(net_path="x", mode=Mode.B, delta=0.1, time_budget=1.0)


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

    def test_error_after_the_seed_keeps_the_seed(self, monkeypatch):
        # The greedy stage finds nothing on a constant-margin net, so the
        # query reaches the verifier, which fails here.
        def failing(query):
            raise RuntimeError("verifier failed")

        monkeypatch.setattr(harness, "verify_local_robustness", failing)
        net = constant_margin_net(gap=0.5, n_inputs=2)
        record = run_query(net, Mode.RG, 0.2, rng=np.random.default_rng(4))
        seed = random_sample(net, np.random.default_rng(4))
        assert record.outcome == "error"
        assert record.reason == "RuntimeError: verifier failed"
        assert record.seed == tuple(seed)
        assert record.seed_margin == margin(net, seed) == 0.5
        assert record.witness is None and not record.greedy_found


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

    def test_audit_refuses_a_net_the_report_was_not_written_for(self, flip_net_path):
        # The wider box changes the net's fingerprint but no witness's label,
        # so only the fingerprint can tell the two nets apart.
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.BG, delta=0.2,
            target_counterexamples=2, seeding=fast_seeding(), rng_seed=5,
        )
        report = run_campaign(spec)
        net = load_network(flip_net_path)
        wider = dataclasses.replace(net, input_upper=np.array([2.0]))
        expected = f"written for net {report.net_sha256[:12]}, not {harness._net_fingerprint(wider)[:12]}"
        with pytest.raises(ReportFormatError, match=expected):
            audit_report(wider, report)
        # A report without a fingerprint is audited witness by witness.
        audit_report(wider, dataclasses.replace(report, net_sha256=""))

    # A delta that makes no query cannot reach audit_report: no CampaignSpec
    # holds one (see test_malformed_summary_rejected[delta-negative]).
    @pytest.mark.parametrize(
        "seed, message",
        [((0.4, 0.4), "shape"), ((math.nan,), "x0 must be finite")],
        ids=["wrong-length-seed", "non-finite-seed"],
    )
    def test_audit_rejects_a_row_that_makes_no_query(self, seed, message):
        report = flip_net_report([RunRecord(3, "bg", seed, 0.2, "sat", True, (0.55,), None, 1.0)])
        with pytest.raises(ReportFormatError, match=f"run 3: .*{message}"):
            audit_report(flip_net(), report)

    def test_audit_skips_non_sat_rows_and_needs_a_witness(self):
        # Rows that are not SAT are not re-validated, so seeds that make no
        # query pass; a SAT row with an empty witness cell does not.
        report = flip_net_report([
            RunRecord(0, "bg", (), math.nan, "error", False, None, "boom", 1.0),
            RunRecord(1, "bg", (0.4, 0.4), 0.2, "unsat", False, None, None, 1.0),
            RunRecord(2, "bg", (math.nan,), 0.2, "unknown", False, None, "budget", 1.0),
        ])
        audit_report(flip_net(), report)
        report.records.append(RunRecord(3, "bg", (0.4,), 0.2, "sat", True, None, None, 1.0))
        with pytest.raises(ReportFormatError, match="run 3: SAT without witness"):
            audit_report(flip_net(), report)


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

    def test_missing_runs_csv_raises(self, tmp_path):
        out = report_write(error_and_unknown_report(), tmp_path / "report")
        (out / "runs.csv").unlink()
        with pytest.raises(ReportFormatError, match="cannot read runs"):
            report_read(out)

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
        digest = "a119a5260c79b2651861220524bb38c4d56312281d7516feace70c89bce2aad0"
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
            lambda s: {k: v for k, v in s.items() if k != "config"},
            lambda s: {**s, "mode": "banana"},
            lambda s: {**s, "delta": -1.0},
            lambda s: {**s, "config": {"x": 1}},
            lambda s: {**s, "config": {**s["config"], "target_counterexamples": 3}},
            lambda s: {**s, "rng_seed": -5},
            lambda s: {**s, "config": {**s["config"], "seeding": {"col_num": 0}}},
            lambda s: {**s, "config": {**s["config"], "per_query_timeout": None}},
            lambda s: {**{k: v for k, v in s.items() if k != "wall_time_s"}, "wall_time": s["wall_time_s"]},
            lambda s: {**s, "sat_total": float(s["sat_total"])},
        ],
        ids=[
            "list", "number", "delta-string", "rng-seed-null", "delta-too-big", "no-mode", "no-config",
            "mode-unknown", "delta-negative", "config-unknown-key", "two-stop-conditions",
            "rng-seed-negative", "col-num-zero", "timeout-null", "top-level-unknown-key",
            "sat-total-float",
        ],
    )
    def test_malformed_summary_rejected(self, tmp_path, edit):
        out = report_write(error_and_unknown_report(), tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        (out / "summary.json").write_text(json.dumps(edit(summary)))
        with pytest.raises(ReportFormatError, match="summary"):
            report_read(out)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: [rows[0][:-1]] + rows[1:], "unexpected CSV header"),
            (lambda rows: rows[:-1] + [rows[-1][:-1]], "bad CSV row"),
            (lambda rows: rows[:-1] + [rows[-1][:3] + ["one"] + rows[-1][4:]], "malformed runs.csv"),
            # The last row is UNSAT, so the summary's SAT count cannot catch these.
            (lambda rows: rows[:-1] + [rows[-1][:5] + ["7"] + rows[-1][6:]], "flag must be 0 or 1, got '7'"),
            (lambda rows: rows[:-1] + [rows[-1][:4] + ["banana"] + rows[-1][5:]], "outcome must be one of"),
            (lambda rows: rows[:-1] + [rows[-1][:1] + ["bg"] + rows[-1][2:]], "run 3: mode 'bg' is not the summary's"),
        ],
        ids=[
            "wrong-header", "short-row", "unparseable-float", "flag-not-0-or-1", "unknown-outcome",
            "mode-not-the-summary's",
        ],
    )
    def test_malformed_runs_rejected(self, tmp_path, edit, message):
        out = report_write(error_and_unknown_report(), tmp_path / "report")
        with open(out / "runs.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        with open(out / "runs.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(edit(rows))
        with pytest.raises(ReportFormatError, match=message):
            report_read(out)

    def test_absent_summary_keys_take_defaults(self, tmp_path):
        # Only the report's own fields, the aggregates and the keys inside
        # config may be absent; an absent config is refused (no-config above).
        report = error_and_unknown_report()
        out = report_write(report, tmp_path / "report")
        summary = json.loads((out / "summary.json").read_text())
        for key in ("net_sha256", "wall_time_s", "rate"):
            del summary[key]
        for key in ("target_counterexamples", "per_query_timeout", "seeding"):
            del summary["config"][key]
        summary["delta"] = 1
        (out / "summary.json").write_text(json.dumps(summary))
        back = report_read(out)
        assert (back.net_sha256, back.wall_time_s) == ("", 0.0)
        assert back.spec == CampaignSpec(
            net_path="nets/net.relunet", mode=Mode.B, delta=1.0, time_budget=2.0, rng_seed=7
        )
        assert back.spec.delta == 1.0 and isinstance(back.spec.delta, float)

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
    def test_campaign_survives_seed_generation_failure(self, flip_net_path, monkeypatch):
        # A seed search that gives up fails its own run only: every B run
        # records the error instead of aborting the campaign.
        def exhausted(net, state, rng):
            raise SeedSearchExhausted("no seed")

        monkeypatch.setattr(harness, "generate_seed", exhausted)
        spec = CampaignSpec(
            net_path=flip_net_path, mode=Mode.B, delta=0.1, target_counterexamples=2,
            seeding=SeedingConfig(sample_set_size=20, col_num=10),
        )
        report = run_campaign(spec)
        assert report.runs == 200
        assert all(r.outcome == "error" and r.seed == () for r in report.records)
        assert {r.reason for r in report.records} == {"SeedSearchExhausted: no seed"}
        assert report.sat_total == 0
