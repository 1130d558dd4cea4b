"""Campaign orchestration and machine-readable reports.

A campaign repeatedly answers local-robustness queries on one network in
one of four modes -- random or weak seeds, each with or without the
greedy pre-search -- until a time budget runs out, enough
counter-examples are found or a find-N campaign reaches its run cap.  Every run is recorded; reports round-trip
through a CSV of runs plus a JSON summary.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .greedy import greedy_search
from .nn import Network, classify, format_float, load_network, margin
from .seeding import SeedingConfig, ThresholdState, generate_seed, make_threshold_state, random_sample
from .verifier import VerificationQuery, check_witness, verify_local_robustness

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "Mode",
    "ReportFormatError",
    "RunRecord",
    "audit_report",
    "report_digest",
    "report_read",
    "report_write",
    "run_campaign",
    "run_query",
]


# A find-N campaign ends after this many runs per counter-example sought,
# found or not, so a net with none within delta cannot keep it going.
_RUNS_PER_TARGET = 100


class ReportFormatError(ValueError):
    """Raised when report files cannot be parsed back."""


class Mode(Enum):
    """Seed selection x pre-analysis choice."""

    R = "r"
    RG = "rg"
    B = "b"
    BG = "bg"

    @property
    def boosted(self) -> bool:
        return self in (Mode.B, Mode.BG)

    @property
    def greedy(self) -> bool:
        return self in (Mode.RG, Mode.BG)


@dataclass
class CampaignSpec:
    """One campaign: network, mode, radius, stop condition and configs.

    Exactly one of ``time_budget`` (seconds) and
    ``target_counterexamples`` must be set.  A find-N campaign also
    stops after ``100 * target_counterexamples`` runs.
    """

    net_path: str
    mode: Mode
    delta: float
    time_budget: float | None = None
    target_counterexamples: int | None = None
    per_query_timeout: float = 60.0
    rng_seed: int = 0
    seeding: SeedingConfig = field(default_factory=SeedingConfig)

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = Mode(self.mode)
        if (self.time_budget is None) == (self.target_counterexamples is None):
            raise ValueError(
                "set exactly one stop condition: time_budget or target_counterexamples"
            )
        if self.time_budget is not None and not (
            math.isfinite(self.time_budget) and self.time_budget >= 0
        ):
            raise ValueError("time_budget must be non-negative and finite")
        if self.target_counterexamples is not None and self.target_counterexamples < 0:
            raise ValueError("target_counterexamples must be non-negative")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(self.per_query_timeout) and self.per_query_timeout > 0):
            raise ValueError("per_query_timeout must be positive and finite")


@dataclass
class RunRecord:
    """One query's worth of campaign accounting."""

    index: int
    mode: str
    seed: tuple[float, ...]
    seed_margin: float
    outcome: str  # sat | unsat | unknown | error
    greedy_found: bool
    witness: tuple[float, ...] | None
    reason: str | None
    time_ms: float


@dataclass
class CampaignReport:
    """``net_sha256`` is ``_net_fingerprint`` of the net the campaign ran on."""

    mode: str
    delta: float
    rng_seed: int
    net_path: str
    records: list[RunRecord] = field(default_factory=list)
    wall_time_s: float = 0.0
    config: dict = field(default_factory=dict)
    net_sha256: str = ""

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def sat_total(self) -> int:
        return sum(1 for r in self.records if r.outcome == "sat")

    @property
    def sat_by_greedy(self) -> int:
        return sum(1 for r in self.records if r.outcome == "sat" and r.greedy_found)

    @property
    def rate(self) -> float:
        return self.sat_total / self.runs if self.records else 0.0


def run_query(
    net: Network,
    mode: Mode,
    delta: float,
    *,
    rng: np.random.Generator,
    index: int = 0,
    threshold_state: ThresholdState | None = None,
    per_query_timeout: float = 60.0,
) -> RunRecord:
    """Seed, optionally pre-search, then verify; errors land in the record.

    A counter-example from the greedy stage settles the run as SAT and
    skips the verifier entirely.
    """
    mode = Mode(mode)
    started = time.perf_counter()
    seed_tuple: tuple[float, ...] = ()
    seed_margin = float("nan")
    outcome = "error"
    greedy_found = False
    witness = None
    reason = None
    try:
        if mode.boosted:
            if threshold_state is None:
                raise ValueError(f"mode {mode.value} needs a threshold state")
            seed = generate_seed(net, threshold_state, rng)
        else:
            seed = random_sample(net, rng)
        seed_tuple = tuple(float(v) for v in seed)
        seed_margin = margin(net, seed)

        decided = False
        if mode.greedy:
            found = greedy_search(net, seed, delta)
            if found.found:
                outcome = "sat"
                greedy_found = True
                witness = tuple(float(v) for v in found.counter_example)
                decided = True
        if not decided:
            query = VerificationQuery(
                x0=seed,
                delta=delta,
                label0=classify(net, seed),
                time_budget=per_query_timeout,
            )
            verdict = verify_local_robustness(net, query)
            outcome = verdict.kind.value
            reason = verdict.reason
            if verdict.witness is not None:
                witness = tuple(float(v) for v in verdict.witness)
    except Exception as exc:  # noqa: BLE001 - campaign must survive any run
        outcome = "error"
        reason = f"{type(exc).__name__}: {exc}"
    return RunRecord(
        index=index,
        mode=mode.value,
        seed=seed_tuple,
        seed_margin=float(seed_margin),
        outcome=outcome,
        greedy_found=greedy_found,
        witness=witness,
        reason=reason,
        time_ms=(time.perf_counter() - started) * 1000.0,
    )


def run_campaign(spec: CampaignSpec, net: Network | None = None) -> CampaignReport:
    """Loop run_query until the stop condition is met.

    Single-worker and fully sequential: identical spec and seed reproduce
    the same seeds, outcomes and witnesses (recorded times vary).
    """
    if net is None:
        net = load_network(spec.net_path)
    rng = np.random.default_rng(spec.rng_seed)
    threshold_state = None
    if spec.mode.boosted:
        threshold_state = make_threshold_state(net, rng, spec.seeding)

    records: list[RunRecord] = []
    sat_total = 0
    target = spec.target_counterexamples
    started = time.perf_counter()
    index = 0
    while True:
        if target is not None and (sat_total >= target or index >= _RUNS_PER_TARGET * target):
            break
        if spec.time_budget is not None and time.perf_counter() - started >= spec.time_budget:
            break
        record = run_query(
            net,
            spec.mode,
            spec.delta,
            rng=rng,
            index=index,
            threshold_state=threshold_state,
            per_query_timeout=spec.per_query_timeout,
        )
        records.append(record)
        if record.outcome == "sat":
            sat_total += 1
        index += 1
    return CampaignReport(
        mode=spec.mode.value,
        delta=spec.delta,
        rng_seed=spec.rng_seed,
        net_path=str(spec.net_path),
        records=records,
        wall_time_s=time.perf_counter() - started,
        config=_config_echo(spec),
        net_sha256=_net_fingerprint(net),
    )


def _net_fingerprint(net: Network) -> str:
    """SHA-256 of a network's layer sizes, weights, biases and input box."""
    digest = hashlib.sha256(repr(net.layer_sizes).encode("utf-8"))
    for arr in (*net.weights, *net.biases, net.input_lower, net.input_upper):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _config_echo(spec: CampaignSpec) -> dict:
    return {
        "time_budget": spec.time_budget,
        "target_counterexamples": spec.target_counterexamples,
        "per_query_timeout": spec.per_query_timeout,
        "seeding": asdict(spec.seeding),
    }


def audit_report(net: Network, report: CampaignReport) -> None:
    """Re-validate every stored SAT witness; raises on the first failure."""
    for record in report.records:
        if record.outcome != "sat":
            continue
        if record.witness is None:
            raise ReportFormatError(f"run {record.index}: SAT without witness")
        query = VerificationQuery(
            x0=np.array(record.seed),
            delta=report.delta,
            label0=classify(net, np.array(record.seed)),
        )
        if not check_witness(net, query, np.array(record.witness)):
            raise ReportFormatError(f"run {record.index}: witness failed re-validation")


# ---------------------------------------------------------------------------
# Report files: runs.csv (one row per run) + summary.json (aggregates).
# ---------------------------------------------------------------------------


def _pack_floats(values) -> str:
    return " ".join(format_float(v) for v in values)


def _unpack_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def _parse_flag(text: str) -> bool:
    return bool(int(text))


class _Column(NamedTuple):
    parse: Callable[[str], object]
    optional: bool = False  # an empty cell reads as None
    wall_clock: bool = False  # left out of report_digest


# The runs.csv format: one column per RunRecord field, in field order.  A
# cell is written, and digested, by the formatter of its column's parser.
_COLUMNS = {
    "index": _Column(int),
    "mode": _Column(str),
    "seed": _Column(_unpack_floats),
    "seed_margin": _Column(float),
    "outcome": _Column(str),
    "greedy_found": _Column(_parse_flag),
    "witness": _Column(_unpack_floats, optional=True),
    "reason": _Column(str, optional=True),
    "time_ms": _Column(float, wall_clock=True),
}
_CELL_FORMATS = {float: format_float, _unpack_floats: _pack_floats, _parse_flag: int}
_DIGEST_FORMATS = {float: format_float, _unpack_floats: lambda values: [format_float(v) for v in values]}
# summary.json holds every CampaignReport field but the records, and these.
_AGGREGATES = ("runs", "sat_total", "sat_by_greedy", "rate")


def _formatted(record: RunRecord, name: str, formats: dict):
    value = getattr(record, name)
    fmt = formats.get(_COLUMNS[name].parse)
    return value if value is None or fmt is None else fmt(value)


def _campaign_fields(report: CampaignReport) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "records"}


def report_write(report: CampaignReport, out_dir) -> Path:
    """Write runs.csv and summary.json under ``out_dir``; returns the dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "runs.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_COLUMNS)
        for r in report.records:
            writer.writerow([_formatted(r, name, _CELL_FORMATS) for name in _COLUMNS])
    summary = _campaign_fields(report) | {key: getattr(report, key) for key in _AGGREGATES}
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out


def _summary_value(name: str, value, kind: type):
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind:
        raise ReportFormatError(f"summary {name}={value!r} is not {kind.__name__}")
    return value


def report_read(out_dir) -> CampaignReport:
    """Read a report back; inverse of report_write.

    A summary key that is absent takes its ``CampaignReport`` default.
    """
    out = Path(out_dir)
    try:
        with open(out / "summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportFormatError(f"cannot read summary: {exc}") from None
    if not isinstance(summary, dict):
        raise ReportFormatError("summary.json does not hold a JSON object")
    kinds = get_type_hints(CampaignReport)
    campaign = {}
    for f in fields(CampaignReport):
        if f.name in summary and f.name != "records":
            campaign[f.name] = _summary_value(f.name, summary[f.name], kinds[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ReportFormatError(f"summary.json has no {f.name}")
    records: list[RunRecord] = []
    try:
        with open(out / "runs.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != list(_COLUMNS):
                raise ReportFormatError(f"unexpected CSV header {header}")
            for row in reader:
                if len(row) != len(_COLUMNS):
                    raise ReportFormatError(f"bad CSV row: {row}")
                records.append(RunRecord(**{
                    name: None if column.optional and not cell else column.parse(cell)
                    for (name, column), cell in zip(_COLUMNS.items(), row)
                }))
    except OSError as exc:
        raise ReportFormatError(f"cannot read runs: {exc}") from None
    except ValueError as exc:
        raise ReportFormatError(f"malformed runs.csv: {exc}") from None
    report = CampaignReport(records=records, **campaign)
    for key in _AGGREGATES:
        if key in summary and summary[key] != getattr(report, key):
            raise ReportFormatError(
                f"summary {key}={summary[key]} disagrees with runs.csv"
            )
    return report


def report_digest(report: CampaignReport) -> str:
    """Hash of the deterministic report content.

    Wall-clock fields are excluded: they are the only part of a
    single-worker campaign that varies between identical runs.  The net
    enters by its file name and its ``_net_fingerprint``, not its directory,
    so a campaign digests the same from any checkout.
    """
    payload = _campaign_fields(report)
    del payload["wall_time_s"]
    payload["net_path"] = Path(report.net_path).name
    payload["records"] = [
        {
            name: _formatted(r, name, _DIGEST_FORMATS)
            for name, column in _COLUMNS.items()
            if not column.wall_clock
        }
        for r in report.records
    ]
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
