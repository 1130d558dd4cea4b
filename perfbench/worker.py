"""The workload process: set up, measure one window, check every output.

Run by ``run.py``, one process per workload run::

    python3 perfbench/worker.py PLAN.json --t0 T [--setup-only] [--trace]

``--t0`` is the ``time.monotonic()`` reading taken just before this
process was started; set-up time runs from there to the moment every
net is loaded.

The window runs campaigns ``0, 1, 2, ...`` until ``seconds`` have passed;
campaign ``i`` runs on net ``i mod n`` with RNG seed ``rng_base + i``.
Campaign times are reported raw and in reference seconds
(``hostspeed.py``), query latencies in reference milliseconds: each
campaign is scaled by the reference kernel's readings taken just before
and after it.  With ``--trace`` the untraced window is half as
long, and the same campaigns then run again under the span tracer.

The process prints one ``progress`` line per finished campaign (so a run cut
by the wall-clock cap still shows how far it got) and one ``result`` line
at the end, both JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import kernel_s, scale

import achilles  # noqa: E402 - the import is part of the measured set-up
from achilles import (
    AttackConfig,
    CampaignSpec,
    ReportFormatError,
    SeedingConfig,
    attacks,
    audit_report,
    classify,
    load_network,
    report_digest,
    run_attack_campaign,
    run_campaign,
)


def emit(kind: str, payload: dict) -> None:
    print(kind, json.dumps(payload), flush=True)


class CampaignWorkload:
    """``run_campaign`` with find-N stop on each net in turn."""

    root_span = "harness.run_campaign"

    def __init__(self, plan, nets):
        self.plan, self.nets = plan, nets
        self.seeding = SeedingConfig(**plan["seeding"])

    def spec(self, i: int) -> CampaignSpec:
        net = self.plan["nets"][i % len(self.nets)]
        return CampaignSpec(
            net_path=net["path"],
            mode=self.plan["mode"],
            delta=net["delta"],
            target_counterexamples=self.plan["target"],
            per_query_timeout=self.plan["per_query_timeout"],
            rng_seed=self.plan["rng_base"] + i,
            seeding=self.seeding,
        )

    def run(self, i: int):
        report = run_campaign(self.spec(i), net=self.nets[i % len(self.nets)])
        return report, [r.time_ms for r in report.records]

    @staticmethod
    def digest(report) -> str:
        return report_digest(report)

    def check(self, i: int, report) -> dict:
        """Re-validate every SAT witness; count failed and found runs."""
        failed = sum(r.outcome in ("error", "unknown") for r in report.records)
        try:
            audit_report(self.nets[i % len(self.nets)], report)
            bad_witnesses = 0
        except ReportFormatError:
            bad_witnesses = report.sat_total
        return {
            "attempted": report.runs,
            "failed": failed + bad_witnesses,
            "found": report.sat_total - bad_witnesses,
            "bad_witnesses": bad_witnesses,
        }


class AttackWorkload:
    """``run_attack_campaign`` with weak-seed selection on each net in turn.

    A campaign's latencies are the gaps between successive attack
    completions (the first measured from the campaign start): each covers
    one input's seed selection and attack.
    """

    root_span = "attacks.run_attack_campaign"

    def __init__(self, plan, nets):
        self.plan, self.nets = plan, nets
        self.seeding = SeedingConfig(**plan["seeding"])
        self.config = AttackConfig(**plan["attack"])

    def run(self, i: int):
        inner = attacks.attack
        stamps = [time.perf_counter()]

        def stamped(*args, **kwargs):
            result = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        attacks.attack = stamped
        try:
            result = run_attack_campaign(
                self.nets[i % len(self.nets)],
                self.plan["n_inputs"],
                self.config,
                self.plan["selection"],
                self.plan["rng_base"] + i,
                self.seeding,
            )
        finally:
            attacks.attack = inner
        return result, [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]

    @staticmethod
    def digest(result) -> str:
        digest = hashlib.sha256()
        for seed in result.seeds:
            digest.update(" ".join(repr(float(v)) for v in seed).encode())
        digest.update(f"successes={result.successes}".encode())
        return digest.hexdigest()

    def check(self, i: int, result) -> dict:
        """Attack every seed again; each success must be a genuine flip."""
        net = self.nets[i % len(self.nets)]
        found = bad = 0
        for seed in result.seeds:
            again = attacks.attack(net, seed, self.config)
            if not again.success:
                continue
            adv = again.adversarial
            if classify(net, adv) != classify(net, seed) and net.contains(adv):
                found += 1
            else:
                bad += 1
        if found + bad != result.successes:
            bad = max(bad, 1)
        return {
            "attempted": result.attempts,
            "failed": bad,
            "found": found,
            "bad_witnesses": bad,
        }


def run_window(workload, *, seconds=None, count=None, tracer=None):
    """Campaigns ``0, 1, ...`` until ``seconds`` pass or ``count`` have run.

    Returns the outputs, each campaign's wall time (raw and in reference
    seconds) and every query's latency in reference milliseconds.
    """
    outputs, walls, raw_walls, latencies = [], [], [], []
    deadline = time.perf_counter() + (seconds or 0.0)

    def more() -> bool:
        if count is not None:
            return len(outputs) < count
        return not outputs or time.perf_counter() < deadline

    before = kernel_s()
    while more():
        i = len(outputs)
        started = time.perf_counter()
        if tracer is None:
            output, lat = workload.run(i)
        else:
            output, lat = tracer.run_span(lambda: workload.run(i), workload.root_span, i)
        wall = time.perf_counter() - started
        after = kernel_s()
        factor, before = scale(before, after), after
        outputs.append(output)
        raw_walls.append(wall)
        walls.append(wall * factor)
        latencies.extend(ms * factor for ms in lat)
        emit("progress", {"campaign": i, "queries": len(lat)})
    return outputs, walls, raw_walls, latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    nets = [load_network(net["path"]) for net in plan["nets"]]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        emit("result", {"setup_s": setup_s, "achilles": achilles.__file__})
        return 0

    kind = CampaignWorkload if plan["kind"] == "campaign" else AttackWorkload
    workload = kind(plan, nets)

    # The measured window: whole campaigns, started until time is up.
    seconds = plan["seconds"] / 2 if args.trace else plan["seconds"]
    outputs, walls, raw_walls, latencies = run_window(workload, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = [workload.digest(out) for out in outputs]
    result = {
        "peak_rss_mb": peak_rss_mb,
        "campaign_walls": walls,
        "raw_walls": raw_walls,
        "latencies_ms": latencies,
        "checks": [workload.check(i, out) for i, out in enumerate(outputs)],
        "achilles": achilles.__file__,
    }

    if args.trace:
        # Replay the same campaigns under the tracer: same specs, same
        # seeds, so every digest must match the untraced window's.
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            replays, traced_walls, _, _ = run_window(workload, count=len(outputs), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.counts["harness.runs"] = sum(
            len(r.records) for r in replays if hasattr(r, "records")
        )
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
        tracer.save(plan["spans_path"])
        result["layers"] = layers
        result["traced_agree"] = [workload.digest(out) for out in replays] == digests
        result["spans"] = len(tracer.start)

    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
