"""Weak-seed selection.

Points whose top two outputs are nearly tied are the most promising
starting points for counter-example search.  This module computes a
margin threshold from a random sample set and then rejection-samples
fresh points until one falls below the bar, relaxing the bar by 10%
whenever too many consecutive draws miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import Network, _layer_values, _row_gap, margin_batch
from .nn import margin  # noqa: F401 - perfbench's tracer wraps seeding.margin

__all__ = [
    "DEFAULT_COL_NUM",
    "DEFAULT_SAMPLE_SET_SIZE",
    "ESCALATION_FACTOR",
    "MAX_SEED_SAMPLES",
    "SeedSearchExhausted",
    "SeedingConfig",
    "ThresholdState",
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
# generate_seed draws its candidates this many at a time.  A larger block
# spreads the per-call cost thinner but draws more in vain on an early hit.
_BLOCK = 64

THRESHOLD_STRATEGIES = ("minimum", "average")


class SeedSearchExhausted(RuntimeError):
    """No qualifying seed found within the sampling cap."""


@dataclass(frozen=True)
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

    ``escalations`` and ``samples_drawn`` accumulate for reports.
    Callers must serialize access to one instance; independent states may
    run in parallel.
    """

    threshold: float
    col_num: int = DEFAULT_COL_NUM
    escalations: int = 0
    samples_drawn: int = 0


def random_sample(net: Network, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """One point, or a ``(size, input_size)`` block of them, each coordinate
    uniform over its input-box interval: ``lower + width * u`` with ``u``
    from ``rng.random``.

    NumPy rounds the multiply and the add separately, so the bits are the
    same on every IEEE-754 build.  One double is taken per coordinate in C
    order: row ``j`` of a block of ``k`` has the bits of the ``j``-th of
    ``k`` single-point draws.
    """
    shape = net.input_size if size is None else (size, net.input_size)
    return net.input_lower + net._input_width * rng.random(shape)


def _check_bar(threshold: float) -> None:
    """Refuse a bar no draw can beat: a margin is never below 0, nor
    below a NaN bar, and escalation never moves 0 or an infinite bar."""
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"seed threshold must be finite and positive, got {threshold!r}")


def make_threshold_state(net: Network, rng: np.random.Generator, config: SeedingConfig | None = None) -> ThresholdState:
    """Draw a fresh sample set and build the initial threshold state.

    ``minimum`` keeps the smallest sampled margin; ``average`` uses mean
    minus standard deviation of the sampled margins, or the minimum when
    that is non-positive (heavy-tailed margins), so escalation still has
    a workable base.  Raises ``ValueError`` when the bar is not finite
    and positive (a single-output net's margins are all infinite,
    overflowing outputs give NaN, and a net whose top two outputs tie
    at a sampled point gives 0), since no draw could qualify against it.
    """
    cfg = config or SeedingConfig()
    margins = margin_batch(net, random_sample(net, rng, cfg.sample_set_size))
    value = float(margins.min())
    if cfg.threshold_strategy == "average":
        # Infinite margins (a single-output net) give a NaN bar, which is
        # refused below; numpy need not warn on the way.
        with np.errstate(invalid="ignore"):
            average = float(margins.mean() - margins.std())
        if not average <= 0.0:
            value = average
    _check_bar(value)
    return ThresholdState(threshold=value, col_num=cfg.col_num)


def generate_seed(
    net: Network, state: ThresholdState, rng: np.random.Generator
) -> np.ndarray:
    """Sample until a point's margin falls below the threshold.

    After strictly more than ``col_num`` consecutive misses the threshold
    is multiplied by 1.1 and the streak resets; each call starts a fresh
    streak.  The escalated threshold stays in ``state`` for subsequent
    calls.  Raises ``SeedSearchExhausted`` after ``MAX_SEED_SAMPLES`` draws.

    Candidates are drawn in blocks but judged one by one, and on a hit
    the stream is rewound to just past the accepted one: the seed,
    ``state`` and ``rng`` end exactly as with one draw per candidate.
    """
    _check_bar(state.threshold)
    if state.col_num < 1:
        raise ValueError("col_num must be positive")
    # The loop runs on locals; ``finally`` writes them back, so however
    # the call ends, ``state`` reads as if each row had written it.
    threshold, col_num = state.threshold, state.col_num
    collisions, escalations, drawn = 0, state.escalations, state.samples_drawn
    layers = net._layers
    d = net.input_size
    left = MAX_SEED_SAMPLES
    try:
        while left > 0:
            k = min(_BLOCK, left)
            left -= k
            start = rng.bit_generator.state
            block = random_sample(net, rng, k)
            for j, x in enumerate(block):
                if collisions > col_num:
                    threshold *= ESCALATION_FACTOR
                    escalations += 1
                    collisions = 0
                drawn += 1
                if _row_gap(_layer_values(layers, x)) < threshold:
                    rng.bit_generator.state = start
                    rng.random((j + 1) * d)
                    return x.copy()
                collisions += 1
        raise SeedSearchExhausted(
            f"no sample with margin below {threshold!r} in {MAX_SEED_SAMPLES} draws"
        )
    finally:
        state.threshold, state.escalations, state.samples_drawn = threshold, escalations, drawn


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
