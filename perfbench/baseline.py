"""Run the benchmark over many seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--same-seeds 1,11]
        [--repeats 3] [--traced-seeds 1,11] [--workloads weak-seeds,...]
        [--seconds 45] [--out perfbench/baseline.json]

For every workload (by default all of them, the ungated ``random-seeds``
too) this runs ``run.py``:

* once untraced per seed in ``--seeds``, as the regression check does;
* ``--repeats`` times untraced on each seed in ``--same-seeds``, the seeds
  taking turns, which is the spread a comparison of two commits on one
  seed faces;
* once traced per seed in ``--traced-seeds``, which also checks that the
  traced and untraced report digests agree.

For each metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the bound in ``BENCHMARK.json``.  Each invocation writes a fresh
summary, with the machine facts, to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last) if last.startswith("{") else {}
    result["exit_code"] = proc.returncode
    result["seed"] = seed
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
    print(workload, "traced" if trace else "", seed, proc.returncode,
          result.get("attempted"), result.get("failed"), values, flush=True)
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread of each end-to-end metric over the runs
    that exited 0; a run cut by the cap prints zeros, which count only in
    ``fail_frac``."""
    good = [r for r in runs if r["exit_code"] == 0 and r.get("metrics")]
    out = {
        "runs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "exit_codes": [r["exit_code"] for r in runs],
        # Queries per run: the samples behind each run's percentiles.
        "attempted": [r.get("attempted") for r in runs],
        "fail_frac": [r["failed"] / r["attempted"] if r.get("attempted") else 1.0 for r in runs],
        "metrics": {},
    }
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in good]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "unit": good[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": bound,
            "values": values,
        }
    return out


def print_summary(label: str, entry: dict) -> None:
    for name, stats in entry["metrics"].items():
        flag = "" if stats["spread"] <= stats["bound"] / 3 else "  <-- above bound/3"
        print(f"  {label:<24} {name:<14} median {stats['median']:12.4f}"
              f"  spread {stats['spread']:.3f}  bound {stats['bound']}{flag}", flush=True)


def stage_shares(layers: dict) -> dict:
    """Inclusive shares of traced campaign wall time per stage."""
    wall = layers.get("trace.wall_ms") or 1.0
    return {
        "seeding": (layers["seeding.threshold_ms"] + layers["seeding.seed_ms"]) / wall,
        "greedy": layers["greedy.ms"] / wall,
        "verifier": layers["verifier.ms"] / wall,
        "attacks": layers["attacks.ms"] / wall,
    }


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--same-seeds", default="1,11")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--traced-seeds", default="1,11")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    gated = {w["name"] for w in bench["workloads"]}
    same_seeds = seed_list(args.same_seeds)

    summary = {
        "machine": machine_facts(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        entry = {"gated": workload in gated}
        runs = [run_once(workload, seed, seconds, 0) for seed in seed_list(args.seeds)]
        entry["across_seeds"] = summarise(runs, bounds)
        print_summary(f"{workload} seeds", entry["across_seeds"])

        repeats = [run_once(workload, seed, seconds, 0)
                   for _ in range(args.repeats) for seed in same_seeds]
        entry["same_seed"] = {}
        for seed in same_seeds:
            stats = summarise([r for r in repeats if r["seed"] == seed], bounds)
            entry["same_seed"][str(seed)] = stats
            print_summary(f"{workload} seed {seed} again", stats)

        entry["traced"] = []
        for seed in seed_list(args.traced_seeds):
            result = run_once(workload, seed, seconds, 1)
            layers = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            entry["traced"].append({
                "seed": seed,
                "exit_code": result["exit_code"],
                "digests_match": result.get("correct", False),
                "stage_shares": stage_shares(layers) if layers else {},
                "metrics": layers,
            })
            runs.append(result)
        ok &= all(r["exit_code"] == 0 and r.get("correct", False) for r in runs + repeats)
        summary["workloads"][workload] = entry

    summary["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
