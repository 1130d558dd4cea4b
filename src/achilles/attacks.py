"""Gradient-sign attacks and seed-selection boosting.

The attack perturbs every coordinate by a fixed amount against the sign
of the winning output's gradient, stepping until the label flips or the
step budget runs out.  Campaigns compare random starting points against
weak (low-margin) seeds to measure how much seed selection lifts the
attack success rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import Network, _as_input, _backward, _layer_outputs, format_float, gradient
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


def _signed_step(net: Network, x: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """``x`` moved ``eps`` against the sign of ``grad`` per coordinate, box-clipped."""
    return np.clip(x - eps * np.sign(grad), net.input_lower, net.input_upper)


def fgsm_step(net: Network, x, label0: int, eps: float) -> np.ndarray:
    """One signed-gradient step against the current winner, box-clipped.

    Moves each coordinate by exactly +/-eps (or not at all where the
    gradient vanishes) in the direction that lowers ``output[label0]``.
    """
    x = np.asarray(x, dtype=np.float64)
    return _signed_step(net, x, gradient(net, x, label0), eps)


def attack(net: Network, x, config: AttackConfig) -> AttackResult:
    """Take ``fgsm_step``'s steps until the label flips, up to ``epo`` steps.

    One forward pass per step: the stepped point's layer outputs give
    both its label and the next step's gradient.
    """
    layers = net._layers
    current = _as_input(net, x)
    outputs = _layer_outputs(layers, current)
    label0 = int(np.argmax(outputs[-1]))
    for step in range(1, config.epo + 1):
        current = _signed_step(net, current, _backward(layers, outputs, label0), config.eps)
        outputs = _layer_outputs(layers, current)
        if int(np.argmax(outputs[-1])) != label0:
            assert net.contains(current)
            return AttackResult(success=True, adversarial=current, steps_used=step)
    return AttackResult(success=False, adversarial=None, steps_used=config.epo)


@dataclass
class AttackCampaignResult:
    """Outcome of attacking many starting points with one selection mode.

    Row ``i`` of ``seeds``, an ``(attempts, input_size)`` array, is the
    ``i``-th starting point.
    """

    selection: str
    rate: float
    successes: int
    attempts: int
    seeds: np.ndarray


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
    campaign always completes; when no finite seed threshold exists, every
    input does.
    """
    if n_inputs < 1:
        raise ValueError("n_inputs must be positive")
    if selection not in SELECTIONS:
        raise ValueError(f"selection must be one of {SELECTIONS}")
    rng = np.random.default_rng(rng)
    state = None
    if selection == "b":
        try:
            state = make_threshold_state(net, rng, seeding)
        except ValueError:
            pass
    successes = 0
    seeds = np.empty((n_inputs, net.input_size))
    for i in range(n_inputs):
        if state is not None:
            try:
                x = generate_seed(net, state, rng)
            except (ValueError, SeedSearchExhausted):
                x = random_sample(net, rng)
        else:
            x = random_sample(net, rng)
        seeds[i] = x
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
