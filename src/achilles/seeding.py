"""Weak-seed selection.

Points whose top two outputs are nearly tied are the most promising
starting points for counter-example search.  This module computes a
margin threshold from a random sample set and then rejection-samples
fresh points until one falls below the bar, relaxing the bar by 10%
whenever too many consecutive draws miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Network, margin, margin_batch

__all__ = [
    "DEFAULT_COL_NUM",
    "DEFAULT_SAMPLE_SET_SIZE",
    "ESCALATION_FACTOR",
    "MAX_SEED_SAMPLES",
    "SeedSearchExhausted",
    "SeedingConfig",
    "ThresholdState",
    "compute_threshold",
    "draw_sample_set",
    "generate_seed",
    "make_threshold_state",
    "random_sample",
    "select_lowest_margin",
]

DEFAULT_SAMPLE_SET_SIZE = 1000
DEFAULT_COL_NUM = 1000
ESCALATION_FACTOR = 1.1
# Hard cap per generate_seed call; turns a threshold no sample can beat
# into an explicit give-up instead of a hang.
MAX_SEED_SAMPLES = 10**6

THRESHOLD_STRATEGIES = ("minimum", "average")


class SeedSearchExhausted(RuntimeError):
    """No qualifying seed found within the sampling cap."""


@dataclass
class SeedingConfig:
    """Tunables for threshold computation and seed generation."""

    sample_set_size: int = DEFAULT_SAMPLE_SET_SIZE
    col_num: int = DEFAULT_COL_NUM
    threshold_strategy: str = "minimum"

    def __post_init__(self):
        if self.sample_set_size < 1:
            raise ValueError("sample_set_size must be positive")
        if self.col_num < 1:
            raise ValueError("col_num must be positive")
        if self.threshold_strategy not in THRESHOLD_STRATEGIES:
            raise ValueError(
                f"threshold_strategy must be one of {THRESHOLD_STRATEGIES}"
            )


@dataclass
class ThresholdState:
    """Mutable acceptance bar shared by consecutive generate_seed calls.

    ``collisions`` counts the current failure streak and is zero between
    calls; ``escalations`` and ``samples_drawn`` accumulate for reports.
    Callers must serialize access to one instance; independent states may
    run in parallel.
    """

    threshold: float
    col_num: int = DEFAULT_COL_NUM
    collisions: int = 0
    escalations: int = 0
    samples_drawn: int = 0


def random_sample(net: Network, rng: np.random.Generator) -> np.ndarray:
    """One point, each coordinate uniform over its input-box interval."""
    return rng.uniform(net.input_lower, net.input_upper)


def draw_sample_set(net: Network, rng: np.random.Generator, size: int = DEFAULT_SAMPLE_SET_SIZE) -> np.ndarray:
    """An ``(size, input_size)`` array of independent uniform points."""
    if size < 1:
        raise ValueError("sample set size must be positive")
    return rng.uniform(net.input_lower, net.input_upper, size=(size, net.input_size))


def compute_threshold(net: Network, samples, strategy: str = "minimum") -> float:
    """Margin threshold over a sample set.

    ``minimum`` keeps the smallest sampled margin; ``average`` uses mean
    minus standard deviation of the sampled margins.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(1, -1)
    if samples.size == 0:
        raise ValueError("empty sample set")
    margins = margin_batch(net, samples)
    if strategy == "minimum":
        return float(margins.min())
    if strategy == "average":
        return float(margins.mean() - margins.std())
    raise ValueError(f"unknown threshold strategy {strategy!r}")


def make_threshold_state(net: Network, rng: np.random.Generator, config: SeedingConfig | None = None) -> ThresholdState:
    """Draw a fresh sample set and build the initial threshold state.

    The average strategy can produce a non-positive bar when margins are
    heavy-tailed; fall back to the sample minimum so escalation still has
    a workable base.
    """
    cfg = config or SeedingConfig()
    samples = draw_sample_set(net, rng, cfg.sample_set_size)
    value = compute_threshold(net, samples, cfg.threshold_strategy)
    if value <= 0.0:
        value = float(margin_batch(net, samples).min())
    return ThresholdState(threshold=value, col_num=cfg.col_num)


def generate_seed(
    net: Network, state: ThresholdState, rng: np.random.Generator
) -> tuple[np.ndarray, ThresholdState]:
    """Sample until a point's margin falls below the threshold.

    After strictly more than ``col_num`` consecutive misses the threshold
    is multiplied by 1.1 and the streak resets.  The escalated threshold
    stays in ``state`` for subsequent calls.  Raises
    ``SeedSearchExhausted`` after ``MAX_SEED_SAMPLES`` draws.
    """
    if state.threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if state.col_num < 1:
        raise ValueError("col_num must be positive")
    state.collisions = 0
    for _ in range(MAX_SEED_SAMPLES):
        if state.collisions > state.col_num:
            state.threshold *= ESCALATION_FACTOR
            state.escalations += 1
            state.collisions = 0
        x = random_sample(net, rng)
        state.samples_drawn += 1
        if margin(net, x) < state.threshold:
            state.collisions = 0
            return x, state
        state.collisions += 1
    state.collisions = 0
    raise SeedSearchExhausted(
        f"no sample with margin below {state.threshold!r} in {MAX_SEED_SAMPLES} draws"
    )


def select_lowest_margin(net: Network, points, count: int) -> np.ndarray:
    """Weakest ``count`` points of a user-supplied corpus.

    Sorts by margin ascending (stable, so corpus order breaks ties) and
    returns the head.  This is the selection counterpart of
    ``generate_seed`` for domains where inputs cannot be synthesized.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("corpus must be a 2-D array of points")
    if count < 0:
        raise ValueError("count must be non-negative")
    order = np.argsort(margin_batch(net, points), kind="stable")
    return points[order[:count]]
