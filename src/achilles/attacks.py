"""Gradient-sign attacks and seed-selection boosting.

The attack perturbs every coordinate by a fixed amount against the sign
of the winning output's gradient, stepping until the label flips or the
step budget runs out.  Campaigns compare random starting points against
weak (low-margin) seeds to measure how much seed selection lifts the
attack success rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import Network, classify, format_float, gradient
from .seeding import (
    SeedSearchExhausted,
    SeedingConfig,
    generate_seed,
    make_threshold_state,
    random_sample,
)

__all__ = [
    "AttackCampaignResult",
    "AttackConfig",
    "AttackResult",
    "attack",
    "export_seed_list",
    "fgsm_step",
    "run_attack_campaign",
]

SELECTIONS = ("r", "b")


@dataclass(frozen=True)
class AttackConfig:
    """Per-step perturbation magnitude and step budget."""

    eps: float
    epo: int

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")
        if self.epo < 1:
            raise ValueError("epo must be a positive integer")


@dataclass(frozen=True, eq=False)
class AttackResult:
    success: bool
    adversarial: np.ndarray | None
    steps_used: int


def fgsm_step(net: Network, x, label0: int, eps: float) -> np.ndarray:
    """One signed-gradient step against the current winner, box-clipped.

    Moves each coordinate by exactly +/-eps (or not at all where the
    gradient vanishes) in the direction that lowers ``output[label0]``.
    """
    x = np.asarray(x, dtype=np.float64)
    stepped = x - eps * np.sign(gradient(net, x, label0))
    return np.clip(stepped, net.input_lower, net.input_upper)


def attack(net: Network, x, config: AttackConfig) -> AttackResult:
    """Iterate fgsm_step until the label flips, up to ``epo`` steps."""
    x = np.asarray(x, dtype=np.float64)
    label0 = classify(net, x)
    current = x
    for step in range(1, config.epo + 1):
        current = fgsm_step(net, current, label0, config.eps)
        if classify(net, current) != label0:
            assert net.contains(current)
            return AttackResult(success=True, adversarial=current, steps_used=step)
    return AttackResult(success=False, adversarial=None, steps_used=config.epo)


@dataclass
class AttackCampaignResult:
    """Outcome of attacking many starting points with one selection mode."""

    selection: str
    rate: float
    successes: int
    attempts: int
    seeds: list[np.ndarray] = field(default_factory=list)


def run_attack_campaign(
    net: Network,
    n_inputs: int,
    config: AttackConfig,
    selection: str,
    rng,
    seeding: SeedingConfig | None = None,
) -> AttackCampaignResult:
    """Attack ``n_inputs`` starting points chosen randomly ("r") or by
    weak-seed generation ("b"); reproducible for a fixed rng seed.

    When weak-seed generation cannot qualify a point (degenerate margins,
    sampling cap), that input degrades to a plain random sample so the
    campaign always completes.
    """
    if n_inputs < 1:
        raise ValueError("n_inputs must be positive")
    if selection not in SELECTIONS:
        raise ValueError(f"selection must be one of {SELECTIONS}")
    rng = np.random.default_rng(rng)
    state = None
    if selection == "b":
        state = make_threshold_state(net, rng, seeding)
    successes = 0
    seeds = []
    for _ in range(n_inputs):
        if state is not None:
            try:
                x, _ = generate_seed(net, state, rng)
            except (ValueError, SeedSearchExhausted):
                x = random_sample(net, rng)
        else:
            x = random_sample(net, rng)
        seeds.append(x)
        if attack(net, x, config).success:
            successes += 1
    return AttackCampaignResult(
        selection=selection,
        rate=successes / n_inputs,
        successes=successes,
        attempts=n_inputs,
        seeds=seeds,
    )


def export_seed_list(points) -> str:
    """One line per starting point, space-separated coordinates."""
    rows = []
    for point in points:
        rows.append(" ".join(format_float(v) for v in np.asarray(point).ravel()))
    return "\n".join(rows) + ("\n" if rows else "")
