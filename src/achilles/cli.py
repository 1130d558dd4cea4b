"""Command-line front end.

Subcommands: ``verify`` runs a campaign and writes reports, ``attack``
measures gradient-attack success rates under a seed-selection mode,
``gen-net`` emits synthetic network files, and ``oracle`` runs the
exhaustive grid check on tiny networks.

Exit codes: 0 success, 1 usage error, 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import SELECTIONS, AttackConfig, export_seed_list, run_attack_campaign
from .harness import CampaignSpec, Mode, ReportFormatError, report_write, run_campaign
from .nn import NetworkFormatError, format_float, format_network, load_network, random_network, save_network
from .seeding import THRESHOLD_STRATEGIES, SeedSearchExhausted, SeedingConfig
from .verifier import GridOutcome, VerificationQuery, grid_oracle

USAGE_ERROR = 1
DATA_ERROR = 2

# The figures a multi-repeat summary.json gives per repeat and as a mean.
_REPEAT_KEYS = ("runs", "sat_total", "sat_by_greedy", "rate", "wall_time_s")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="achilles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify.add_argument("--net", required=True, help="network file")
    verify.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    verify.add_argument("--delta", required=True, type=float, help="perturbation radius")
    stop = verify.add_mutually_exclusive_group(required=True)
    stop.add_argument("--budget", type=float, help="campaign time budget in seconds")
    stop.add_argument("--find", type=int, help="stop after this many counter-examples")
    verify.add_argument(
        "--timeout", type=float, default=CampaignSpec.per_query_timeout, help="per-query timeout seconds"
    )
    verify.add_argument("--seed", type=int, default=0, help="RNG seed")
    verify.add_argument("--repeats", type=int, default=1, help="independent repetitions")
    verify.add_argument("--out", required=True, help="report output directory")
    verify.add_argument("--col-num", type=int, default=SeedingConfig.col_num)
    verify.add_argument("--sample-set-size", type=int, default=SeedingConfig.sample_set_size)
    verify.add_argument("--strategy", choices=THRESHOLD_STRATEGIES, default=SeedingConfig.threshold_strategy)

    attack = sub.add_parser("attack", help="run an attack campaign")
    attack.add_argument("--net", required=True)
    attack.add_argument("--selection", required=True, choices=SELECTIONS)
    attack.add_argument("--eps", required=True, type=float)
    attack.add_argument("--epo", required=True, type=int)
    attack.add_argument("--inputs", required=True, type=int)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--seeds-out", help="write the starting points, one per line")

    gen = sub.add_parser("gen-net", help="generate a synthetic network file")
    gen.add_argument("--shape", required=True, help="comma-separated layer sizes, e.g. 2,8,8,2")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0, help="weight scale")
    gen.add_argument("--lower", type=float, default=0.0, help="input box lower bound")
    gen.add_argument("--upper", type=float, default=1.0, help="input box upper bound")
    gen.add_argument("--out", help="output file (stdout when omitted)")

    oracle = sub.add_parser("oracle", help="exhaustive grid check (<=3 inputs)")
    oracle.add_argument("--net", required=True)
    oracle.add_argument("--delta", required=True, type=float)
    oracle.add_argument("--x0", required=True, type=float, nargs="+")
    oracle.add_argument("--spacing", type=float, help="grid spacing (default delta/50)")
    return parser


def _cmd_verify(args) -> int:
    spec = CampaignSpec(
        net_path=args.net,
        mode=Mode(args.mode),
        delta=args.delta,
        time_budget=args.budget,
        target_counterexamples=args.find,
        per_query_timeout=args.timeout,
        rng_seed=args.seed,
        seeding=SeedingConfig(
            sample_set_size=args.sample_set_size,
            col_num=args.col_num,
            threshold_strategy=args.strategy,
        ),
    )
    if args.repeats < 1:
        raise ValueError("--repeats must be positive")
    net = load_network(spec.net_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # fail before the campaign, not after
    summaries = []
    for i in range(args.repeats):
        report = run_campaign(replace(spec, rng_seed=spec.rng_seed + i), net=net)
        target = out if args.repeats == 1 else out / f"repeat_{i}"
        report_write(report, target)
        summaries.append({"repeat": i} | {key: getattr(report, key) for key in _REPEAT_KEYS})
        print(
            f"repeat {i}: mode={report.spec.mode.value} runs={report.runs} "
            f"sat={report.sat_total} by_greedy={report.sat_by_greedy} "
            f"rate={report.rate:.4f} wall={report.wall_time_s:.2f}s"
        )
    if args.repeats > 1:
        mean = {key: float(np.mean([s[key] for s in summaries])) for key in _REPEAT_KEYS}
        with open(out / "summary.json", "w", encoding="utf-8") as handle:
            json.dump({"repeats": summaries, "mean": mean}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"mean over {args.repeats} repeats: sat={mean['sat_total']:.1f} "
            f"rate={mean['rate']:.4f}"
        )
    return 0


def _cmd_attack(args) -> int:
    net = load_network(args.net)
    config = AttackConfig(eps=args.eps, epo=args.epo)
    # Opened before the campaign, so an unwritable path fails at once.
    sink = open(args.seeds_out, "w", encoding="utf-8") if args.seeds_out else nullcontext()
    with sink as seeds_out:
        result = run_attack_campaign(net, args.inputs, config, args.selection, args.seed)
        if seeds_out is not None:
            seeds_out.write(export_seed_list(result.seeds))
    print(
        f"selection={result.selection} attempts={result.attempts} "
        f"successes={result.successes} rate={result.rate:.4f}"
    )
    return 0


def _cmd_gen_net(args) -> int:
    try:
        shape = [int(part) for part in args.shape.split(",")]
    except ValueError:
        raise ValueError(f"--shape must be comma-separated integers, got {args.shape!r}")
    net = random_network(
        shape,
        args.seed,
        weight_scale=args.scale,
        input_bounds=(args.lower, args.upper),
    )
    if args.out:
        save_network(net, args.out)
        print(f"wrote {net!r} to {args.out}")
    else:
        sys.stdout.write(format_network(net))
    return 0


def _cmd_oracle(args) -> int:
    net = load_network(args.net)
    x0 = np.array(args.x0, dtype=np.float64)
    query = VerificationQuery.for_point(net, x0, args.delta)
    spacing = args.spacing if args.spacing is not None else args.delta / 50.0
    result = grid_oracle(net, query, spacing)
    if result.outcome is GridOutcome.SAT:
        coords = " ".join(format_float(v) for v in result.witness)
        print(f"sat {coords}")
    else:
        print(result.outcome.value)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "attack": _cmd_attack,
    "gen-net": _cmd_gen_net,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NetworkFormatError, ReportFormatError, OSError) as exc:
        print(f"achilles: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, SeedSearchExhausted, MemoryError) as exc:
        print(f"achilles: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
