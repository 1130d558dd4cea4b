"""Workload definitions and the generator that builds their inputs.

Everything a workload feeds the program derives from the workload seed:
the network seeds, each network's query radius and the campaign RNG
seeds.  The generator writes the networks as relunet files and returns a
plan (plain JSON) that the workload process reads; the program itself
only ever sees those files and the campaign specs built from the plan.
"""

from __future__ import annotations

import functools

import numpy as np

from achilles import GridOutcome, VerificationQuery, grid_oracle, random_network, save_network

# The campaign workloads share nets and radii for a given seed.
CAMPAIGN_SHAPE = [2, 24, 24, 2]
CAMPAIGN_SCALE = 3.0
PER_QUERY_TIMEOUT = 60.0  # the CLI default

ATTACK_SHAPE = [10, 16, 16, 3]

# Radius tuning: the acceptance-suite rule.  The radius is the smallest
# point of a geometric grid whose grid-oracle SAT share over random probe
# queries lies in the band; when the share jumps over the band between
# two grid points, bisect between them.  The share grows with the radius
# (up to probe noise), so a binary search over the grid finds that point in
# a few oracle sweeps instead of sixteen.
TUNE_GRID = np.geomspace(0.01, 0.5, 16)
TUNE_PROBES = 30
TUNE_BAND = (0.30, 0.70)
TUNE_BISECTIONS = 12
# Candidate nets tried before generation gives up.
MAX_CANDIDATES = 120

# Campaigns cycle through the nets.  BENCHMARK.json lists all but
# random-seeds, whose heavy-tailed verifier cost makes its
# rates too unsteady across seeds to gate (README.md).
WORKLOADS = {
    "weak-seeds": {
        "kind": "campaign",
        "mode": "bg",
        "n_nets": 30,
        "target": 10,
        "seeding": {"sample_set_size": 1000, "col_num": 1000},
    },
    "random-seeds": {
        "kind": "campaign",
        "mode": "rg",
        "n_nets": 30,
        "target": 10,
        "seeding": {"sample_set_size": 1000, "col_num": 1000},
    },
    "attack-weak": {
        "kind": "attack",
        "selection": "b",
        "n_nets": 25,
        "n_inputs": 250,
        "seeding": {"sample_set_size": 500, "col_num": 300},
        "attack": {"eps": 0.02, "epo": 4},
    },
}

# Stream tags keep the derived seeds of one workload seed independent.
_NETS, _CAMPAIGNS, _ATTACK_NETS, _ATTACKS = 1, 2, 3, 4


def derived_seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` 32-bit seeds drawn from the workload seed and a stream tag."""
    state = np.random.SeedSequence([int(seed), stream]).generate_state(count)
    return [int(v) for v in state]


def sat_share(net, delta: float, probe_seed: int, probes: int = TUNE_PROBES) -> float:
    """Share of random probe points whose query the grid oracle finds SAT."""
    rng = np.random.default_rng(probe_seed)
    hits = 0
    for _ in range(probes):
        x0 = rng.uniform(net.input_lower, net.input_upper)
        query = VerificationQuery.for_point(net, x0, float(delta))
        hits += grid_oracle(net, query, spacing=delta / 25.0).outcome is GridOutcome.SAT
    return hits / probes


def tune_radius(net, probe_seed: int) -> float | None:
    """A radius whose SAT share lies in ``TUNE_BAND``, or None."""
    low, high = TUNE_BAND

    @functools.cache
    def share(i: int) -> float:
        return sat_share(net, TUNE_GRID[i], probe_seed)

    last = len(TUNE_GRID) - 1
    if share(last) < low:
        return None  # robust even at the largest radius
    # Binary search for the first grid point that reaches the band.
    lo_i, hi_i = -1, last
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        lo_i, hi_i = (mid, hi_i) if share(mid) < low else (lo_i, mid)
    if share(hi_i) <= high:
        return float(TUNE_GRID[hi_i])
    if lo_i < 0:
        return None  # fragile even at the smallest radius
    lo, hi = TUNE_GRID[lo_i], TUNE_GRID[hi_i]
    for _ in range(TUNE_BISECTIONS):
        mid = (lo + hi) / 2
        share_mid = sat_share(net, mid, probe_seed)
        if low <= share_mid <= high:
            return float(mid)
        lo, hi = (mid, hi) if share_mid < low else (lo, mid)
    return None


def _campaign_nets(seed: int, count: int, out_dir) -> list[dict]:
    """The first ``count`` candidate nets that admit a tuned radius."""
    nets = []
    for net_seed in derived_seeds(seed, _NETS, MAX_CANDIDATES):
        net = random_network(CAMPAIGN_SHAPE, net_seed, weight_scale=CAMPAIGN_SCALE)
        delta = tune_radius(net, net_seed)
        if delta is None:
            continue
        path = out_dir / f"net_{net_seed}.relunet"
        save_network(net, path)
        nets.append({"path": str(path), "delta": delta, "net_seed": net_seed})
        if len(nets) == count:
            return nets
    raise RuntimeError(
        f"only {len(nets)} of {MAX_CANDIDATES} candidate nets admit a tuned radius"
    )


def _attack_nets(seed: int, count: int, out_dir) -> list[dict]:
    nets = []
    for net_seed in derived_seeds(seed, _ATTACK_NETS, count):
        path = out_dir / f"net_{net_seed}.relunet"
        save_network(random_network(ATTACK_SHAPE, net_seed), path)
        nets.append({"path": str(path), "net_seed": net_seed})
    return nets


def generate(name: str, seed: int, out_dir) -> dict:
    """Write the workload's nets under ``out_dir`` and return its plan.

    The plan lists the nets in the order campaigns cycle through them;
    campaign ``i`` runs with RNG seed ``rng_base + i``, as
    ``repeat_campaign`` derives consecutive seeds.
    """
    spec = WORKLOADS[name]
    plan = {"workload": name, "seed": int(seed), **spec}
    if spec["kind"] == "campaign":
        plan["nets"] = _campaign_nets(seed, spec["n_nets"], out_dir)
        plan["per_query_timeout"] = PER_QUERY_TIMEOUT
        plan["rng_base"] = derived_seeds(seed, _CAMPAIGNS, 1)[0]
    else:
        plan["nets"] = _attack_nets(seed, spec["n_nets"], out_dir)
        plan["rng_base"] = derived_seeds(seed, _ATTACKS, 1)[0]
    return plan
