"""Campaign benchmark: counter-examples per second, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload weak-seeds --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``weak-seeds`` (``bg``
campaigns), ``attack-weak`` (weak-seed gradient attacks) and
``random-seeds`` (``rg`` campaigns, too heavy-tailed to gate, so not listed
in ``BENCHMARK.json``).  The inputs derive from ``--seed``; the library
under test is the checkout's own ``src/achilles``.  Times are in reference
seconds, scaled by a fixed kernel's speed on the host (``hostspeed.py``).

With ``--trace 0`` the run measures one untraced window of ``--seconds``
and reports the end-to-end metrics.  With ``--trace 1`` the window is half
as long; the same campaigns then run again under the span tracer, every
report digest must match the untraced one, and the run reports the
per-layer metrics.  Every counter-example is re-validated; the last line
of output is one JSON object.  Exit codes: 0 when every output checked out, 1 on a failed
witness, a digest mismatch or the wall-clock cap, 2 when the checkout
has no ``src/achilles`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Campaigns are single-worker: keep BLAS to one thread here and in every
# process this benchmark starts.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOAD_NAMES = ("weak-seeds", "random-seeds", "attack-weak")
# A run must end within 180 s; the worker gets what is left of this cap.
CAP_S = 170.0
# Processes that only set up, half before the window and half after it;
# set-up time is their median.
SETUP_PROBES = 7

END_TO_END = (
    ("cex_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("seeding.threshold_ms", "ms"),
    ("seeding.seed_ms", "ms"),
    ("seeding.samples", "count"),
    ("seeding.us_per_sample", "us"),
    ("seeding.draw_us", "us"),
    ("seeding.escalations", "count"),
    ("seeding.yield", "ratio"),
    ("seeding.self_ms", "ms"),
    ("seeding.wall_frac", "ratio"),
    ("nn.forward_calls", "count"),
    ("nn.forward_rows", "count"),
    ("nn.rows_per_call", "ratio"),
    ("nn.forward_ms", "ms"),
    ("nn.margin_us", "us"),
    ("nn.self_ms", "ms"),
    ("nn.wall_frac", "ratio"),
    ("greedy.ms", "ms"),
    ("greedy.calls", "count"),
    ("greedy.iterations", "count"),
    ("greedy.us_per_iteration", "us"),
    ("greedy.hit_rate", "ratio"),
    ("greedy.self_ms", "ms"),
    ("greedy.wall_frac", "ratio"),
    ("verifier.ms", "ms"),
    ("verifier.calls", "count"),
    ("verifier.boxes", "count"),
    ("verifier.us_per_box", "us"),
    ("verifier.max_depth", "count"),
    ("verifier.call_p90_ms", "ms"),
    ("verifier.unknown", "count"),
    ("verifier.self_ms", "ms"),
    ("verifier.wall_frac", "ratio"),
    ("harness.self_ms", "ms"),
    ("harness.runs", "count"),
    ("harness.wall_frac", "ratio"),
    ("attacks.ms", "ms"),
    ("attacks.steps", "count"),
    ("attacks.success_rate", "ratio"),
    ("attacks.self_ms", "ms"),
    ("attacks.wall_frac", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def percentile(values, pct: int) -> float:
    """Inclusive-method percentile, as ``statistics.quantiles`` gives it."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def spawn(args, env, timeout):
    """Run a worker; returns (parsed lines, hit_cap)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
        out, hit_cap = proc.stdout, False
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload process exited with {proc.returncode}")
    except subprocess.TimeoutExpired as exc:
        out, hit_cap = exc.stdout or "", True
        if isinstance(out, bytes):
            out = out.decode("utf-8", "replace")
    lines = []
    for line in out.splitlines():
        kind, _, payload = line.partition(" ")
        if kind in ("progress", "result"):
            lines.append((kind, json.loads(payload)))
    return lines, hit_cap


def end_to_end(result, setups) -> dict[str, float]:
    checks = result["checks"]
    window = sum(result["campaign_walls"])
    lat = result["latencies_ms"]
    return {
        "cex_per_s": sum(c["found"] for c in checks) / window,
        "queries_per_s": sum(c["attempted"] for c in checks) / window,
        "query_p50_ms": percentile(lat, 50),
        "query_p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(metrics, units, correct, attempted, failed) -> None:
    for name, unit in units:
        print(f"{name:<26} {metrics[name]:>16.6f} {unit}")
    print(f"{'fail_frac':<26} {failed / attempted:>16.6f} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "achilles" / "__init__.py").is_file():
        print(f"error: no achilles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostspeed import kernel_s, scale
    from workloads import generate

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        plan = generate(args.workload, args.seed, run_dir)
        plan["seconds"] = args.seconds
        plan["spans_path"] = str(WORK / f"spans-{args.workload}-{args.seed}.npz")
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        env = dict(os.environ, PYTHONPATH=str(SRC))
        probes = 0 if args.trace else SETUP_PROBES

        def setup_probes(count):
            """Set-up times in reference seconds (``hostspeed.py``)."""
            for _ in range(count):
                before = kernel_s()
                t0 = time.monotonic()
                lines, _ = spawn([str(plan_path), "--t0", repr(t0), "--setup-only"], env, 60)
                setups.append(lines[-1][1]["setup_s"] * scale(before, kernel_s()))

        # Probes before and after the window, so one slow spell of the
        # machine does not set the median.
        setups = []
        setup_probes((probes + 1) // 2)
        t0 = time.monotonic()
        worker_args = [str(plan_path), "--t0", repr(t0)] + (["--trace"] if args.trace else [])
        lines, hit_cap = spawn(worker_args, env, CAP_S - (t0 - started))
        if not hit_cap:
            setup_probes(probes // 2)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if hit_cap or not lines or lines[-1][0] != "result":
        # Whatever the window got through counts as failed.
        attempted = 1 + sum(p["queries"] for kind, p in lines if kind == "progress")
        print(f"error: wall-clock cap of {CAP_S:.0f} s hit", file=sys.stderr)
        report({name: 0.0 for name, _ in units}, units, False, attempted, attempted)
        return 1

    result = lines[-1][1]
    if not Path(result["achilles"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: measured achilles at {result['achilles']}, not under {SRC}", file=sys.stderr)
        return 2
    checks = result["checks"]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    errors = []
    if any(c["bad_witnesses"] for c in checks):
        errors.append("a counter-example failed re-validation")
    if args.trace:
        if not result["traced_agree"]:
            errors.append("traced and untraced campaigns differ")
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, setups)
        print(f"# host: {sum(result['raw_walls']) / sum(result['campaign_walls']):.3f} wall s"
              f" per reference s; wall-clock cex_per_s"
              f" {sum(c['found'] for c in checks) / sum(result['raw_walls']):.4f}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    correct = not errors
    report(metrics, units, correct, attempted, failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
