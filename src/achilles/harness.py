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
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .greedy import greedy_search
from .nn import Network, format_float, load_network
from .seeding import SeedingConfig, ThresholdState, generate_seed, make_threshold_state, random_sample
from .verifier import VerdictKind, VerificationQuery, check_witness, verify_local_robustness

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


# RunRecord.outcome: a verdict kind's value, or "error" for a run that raised.
_OUTCOMES = (*(kind.value for kind in VerdictKind), "error")

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


@dataclass(frozen=True)
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
    per_query_timeout: float = VerificationQuery.time_budget
    rng_seed: int = 0
    seeding: SeedingConfig = field(default_factory=SeedingConfig)

    def __post_init__(self):
        object.__setattr__(self, "net_path", os.fspath(self.net_path))
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", Mode(self.mode))
        if (self.time_budget is None) == (self.target_counterexamples is None):
            raise ValueError("set exactly one stop condition: time_budget or target_counterexamples")
        if self.time_budget is not None and not (math.isfinite(self.time_budget) and self.time_budget >= 0):
            raise ValueError("time_budget must be non-negative and finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(self.per_query_timeout) and self.per_query_timeout > 0):
            raise ValueError("per_query_timeout must be positive and finite")
        # np.random.default_rng's rule for rng_seed, and for a target too; a
        # numpy integer is stored as an int, which summary.json can hold.
        for name in ("target_counterexamples", "rng_seed"):
            value = getattr(self, name)
            if value is None and name in _STOP_CONDITIONS:
                continue
            if not (isinstance(value, (int, np.integer)) and value >= 0):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(slots=True)
class RunRecord:
    """One query's worth of campaign accounting.

    The defaults are a run that ended before its seed was drawn: an error
    with no seed.  ``run_query`` fills the record in as each stage finishes.
    """

    index: int
    mode: str
    seed: tuple[float, ...] = ()
    seed_margin: float = math.nan
    outcome: str = "error"  # one of _OUTCOMES
    greedy_found: bool = False
    witness: tuple[float, ...] | None = None
    reason: str | None = None
    time_ms: float = 0.0


@dataclass
class CampaignReport:
    """``net_sha256`` is ``_net_fingerprint`` of the net the campaign ran on."""

    spec: CampaignSpec
    records: list[RunRecord] = field(default_factory=list)
    wall_time_s: float = 0.0
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
    per_query_timeout: float = VerificationQuery.time_budget,
) -> RunRecord:
    """Seed, optionally pre-search, then verify; errors land in the record.

    A counter-example from the greedy stage settles the run as SAT and
    skips the verifier entirely.
    """
    mode = Mode(mode)
    started = time.perf_counter()
    record = RunRecord(index=index, mode=mode.value)
    try:
        if mode.boosted:
            if threshold_state is None:
                raise ValueError(f"mode {mode.value} needs a threshold state")
            seed = generate_seed(net, threshold_state, rng)
        else:
            seed = random_sample(net, rng)
        record.seed = _point(seed)
        query = VerificationQuery(net, seed, delta, time_budget=per_query_timeout)
        record.seed_margin = query.margin0
        found = greedy_search(query) if mode.greedy else None
        if found is not None and found.found:
            record.outcome, record.greedy_found = "sat", True
            record.witness = _point(found.counter_example)
        else:
            verdict = verify_local_robustness(query)
            record.outcome, record.reason = verdict.kind.value, verdict.reason
            if verdict.witness is not None:
                record.witness = _point(verdict.witness)
    except Exception as exc:  # noqa: BLE001 - campaign must survive any run
        record.outcome = "error"
        record.reason = f"{type(exc).__name__}: {exc}"
    record.time_ms = (time.perf_counter() - started) * 1000.0
    return record


def run_campaign(spec: CampaignSpec, net: Network | None = None) -> CampaignReport:
    """Loop run_query until the stop condition is met.

    Single-worker and fully sequential: identical spec and seed reproduce
    the same seeds, outcomes and witnesses (recorded times vary), except
    that an UNKNOWN(budget) verdict depends on the host's speed, and so
    can the number of runs a find-N campaign takes.
    """
    if net is None:
        net = load_network(spec.net_path)
    rng = np.random.default_rng(spec.rng_seed)
    threshold_state = make_threshold_state(net, rng, spec.seeding) if spec.mode.boosted else None

    records: list[RunRecord] = []
    sat_total = 0
    target = spec.target_counterexamples
    started = time.perf_counter()
    while True:
        if target is not None and (sat_total >= target or len(records) >= _RUNS_PER_TARGET * target):
            break
        if spec.time_budget is not None and time.perf_counter() - started >= spec.time_budget:
            break
        record = run_query(
            net, spec.mode, spec.delta, rng=rng, index=len(records),
            threshold_state=threshold_state, per_query_timeout=spec.per_query_timeout,
        )
        records.append(record)
        if record.outcome == "sat":
            sat_total += 1
    return CampaignReport(spec, records, wall_time_s=time.perf_counter() - started, net_sha256=_net_fingerprint(net))


def _net_fingerprint(net: Network) -> str:
    """SHA-256 of a network's layer sizes, weights, biases and input box."""
    digest = hashlib.sha256(repr(net.layer_sizes).encode("utf-8"))
    for arr in (*net.weights, *net.biases, net.input_lower, net.input_upper):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def audit_report(net: Network, report: CampaignReport) -> None:
    """Re-validate every stored SAT witness; raises ``ReportFormatError``
    on the first failure, a seed that makes no query included.  A report
    that names its net's fingerprint is refused on any other net first."""
    if report.net_sha256:
        found = _net_fingerprint(net)
        if found != report.net_sha256:
            raise ReportFormatError(
                f"report was written for net {report.net_sha256[:12]}, not {found[:12]}"
            )
    for record in report.records:
        if record.outcome != "sat":
            continue
        if record.witness is None:
            raise ReportFormatError(f"run {record.index}: SAT without witness")
        try:
            query = VerificationQuery(net, record.seed, report.spec.delta)
        except ValueError as exc:
            raise ReportFormatError(f"run {record.index}: {exc}") from None
        if not check_witness(query, np.array(record.witness)):
            raise ReportFormatError(f"run {record.index}: witness failed re-validation")


# ---------------------------------------------------------------------------
# Report files: runs.csv (one row per run) + summary.json (aggregates).
# ---------------------------------------------------------------------------


def _pack_floats(values) -> str:
    return " ".join(format_float(v) for v in values)


def _point(values) -> tuple[float, ...]:
    return tuple(map(float, values))


def _unpack_floats(text: str) -> tuple[float, ...]:
    return _point(text.split())


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {text!r}")
    return text == "1"


def _parse_outcome(text: str) -> str:
    if text not in _OUTCOMES:
        raise ValueError(f"outcome must be one of {_OUTCOMES}, got {text!r}")
    return text


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
    "outcome": _Column(_parse_outcome),
    "greedy_found": _Column(_parse_flag),
    "witness": _Column(_unpack_floats, optional=True),
    "reason": _Column(str, optional=True),
    "time_ms": _Column(float, wall_clock=True),
}
_CELL_FORMATS = {float: format_float, _unpack_floats: _pack_floats, _parse_flag: int}
_DIGEST_FORMATS = {float: format_float, _unpack_floats: lambda values: [format_float(v) for v in values]}
# summary.json: each key with its value's JSON type (a dict is a nested
# object).  Four spec fields sit at the top, the rest in "config"; the
# aggregates are CampaignReport properties, checked against the runs.
_SPEC_TOP = {"net_path": str, "mode": str, "delta": float, "rng_seed": int}
_SEEDING = {"sample_set_size": int, "col_num": int, "threshold_strategy": str}
_CONFIG = {"time_budget": float, "target_counterexamples": int, "per_query_timeout": float, "seeding": _SEEDING}
_AGGREGATES = {"runs": int, "sat_total": int, "sat_by_greedy": int, "rate": float}
_SUMMARY_KEYS = _SPEC_TOP | {"config": _CONFIG, "wall_time_s": float, "net_sha256": str} | _AGGREGATES
_STOP_CONDITIONS = ("time_budget", "target_counterexamples")  # the unset one is null


def _formatted(record: RunRecord, name: str, formats: dict):
    value = getattr(record, name)
    fmt = formats.get(_COLUMNS[name].parse)
    return value if value is None or fmt is None else fmt(value)


def _summary_fields(report: CampaignReport) -> dict:
    """summary.json without its aggregates."""
    config = asdict(report.spec)
    summary = {name: config.pop(name) for name in _SPEC_TOP} | {"mode": report.spec.mode.value}
    return summary | {"config": config, "wall_time_s": report.wall_time_s, "net_sha256": report.net_sha256}


def report_write(report: CampaignReport, out_dir) -> Path:
    """Write runs.csv and summary.json under ``out_dir``; returns the dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "runs.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_COLUMNS)
        for r in report.records:
            writer.writerow([_formatted(r, name, _CELL_FORMATS) for name in _COLUMNS])
    summary = _summary_fields(report) | {key: getattr(report, key) for key in _AGGREGATES}
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out


def _summary_value(name: str, value, kind):
    if value is None and name in _STOP_CONDITIONS:
        return None
    if isinstance(kind, dict):
        unknown = sorted(_summary_value(name, value, dict).keys() - kind.keys())
        if unknown:
            raise ReportFormatError(f"summary {name} has unknown keys {unknown}")
        return {key: _summary_value(key, item, kind[key]) for key, item in value.items()}
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind:
        raise ReportFormatError(f"summary {name}={value!r} is not {kind.__name__}")
    return value


def report_read(out_dir) -> CampaignReport:
    """Read a report back; inverse of report_write.

    The spec is rebuilt through ``CampaignSpec`` and ``SeedingConfig``, so
    their rules guard a read report too.  Also refused: a value of the
    wrong JSON type, a key the format does not know, a run whose ``mode``
    is not the spec's, and an aggregate the runs disagree with.  Only
    ``wall_time_s``, ``net_sha256``, the aggregates and keys inside
    ``config`` may be absent; each takes its default.
    """
    out = Path(out_dir)
    try:
        with open(out / "summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportFormatError(f"cannot read summary: {exc}") from None
    values = _summary_value("top level", summary, _SUMMARY_KEYS)
    aggregates = {key: values.pop(key) for key in _AGGREGATES if key in values}
    try:
        config = values.pop("config")
        seeding = SeedingConfig(**config.pop("seeding", {}))
        spec = CampaignSpec(**{name: values.pop(name) for name in _SPEC_TOP}, **config, seeding=seeding)
    except KeyError as exc:
        raise ReportFormatError(f"summary.json has no {exc.args[0]}") from None
    except ValueError as exc:
        raise ReportFormatError(f"summary holds no campaign spec: {exc}") from None
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
                record = RunRecord(**{
                    name: None if column.optional and not cell else column.parse(cell)
                    for (name, column), cell in zip(_COLUMNS.items(), row)
                })
                if record.mode != spec.mode.value:
                    raise ReportFormatError(f"run {record.index}: mode {record.mode!r} is not the summary's")
                records.append(record)
    except OSError as exc:
        raise ReportFormatError(f"cannot read runs: {exc}") from None
    except ValueError as exc:
        raise ReportFormatError(f"malformed runs.csv: {exc}") from None
    report = CampaignReport(spec, records, **values)
    for key, value in aggregates.items():
        if value != getattr(report, key):
            raise ReportFormatError(f"summary {key}={value} disagrees with runs.csv")
    return report


def report_digest(report: CampaignReport) -> str:
    """Hash of the deterministic report content.

    Wall-clock fields are excluded: they are the only part of a
    single-worker campaign that varies between identical runs.  The net
    enters by its file name and its ``_net_fingerprint``, not its directory,
    so a campaign digests the same from any checkout.
    """
    payload = _summary_fields(report)
    del payload["wall_time_s"]
    payload["net_path"] = Path(report.spec.net_path).name
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
