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
# generate_seed draws its candidates this many at a time.  A larger block
# spreads the per-call cost thinner but draws more in vain on an early hit.
_BLOCK = 64

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


# ``Generator.uniform`` draws ``low + (high - low) * random()`` per
# coordinate in numpy's C code.  Spelling that out skips its argument
# handling, which costs several times the arithmetic, but gives the same
# bits only if that C code does not fuse the multiply and add (FMA); how
# numpy was built decides that.  Fused and unfused rounding differ on this
# probe box, so one fixed probe at import picks the path.
_PROBE_LOWER = np.linspace(-3.0, 2.0, 16)
_PROBE_UPPER = _PROBE_LOWER + np.linspace(0.1, 7.3, 16)


def _spelled_out_uniform(lower: np.ndarray, width: np.ndarray, rng: np.random.Generator, shape) -> np.ndarray:
    return lower + width * rng.random(shape)


def _spelled_out_uniform_is_exact() -> bool:
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    got = _spelled_out_uniform(_PROBE_LOWER, _PROBE_UPPER - _PROBE_LOWER, ours, _PROBE_LOWER.shape)
    return got.tobytes() == theirs.uniform(_PROBE_LOWER, _PROBE_UPPER).tobytes()


_SPELLED_OUT_UNIFORM_IS_EXACT = _spelled_out_uniform_is_exact()


def random_sample(net: Network, rng: np.random.Generator) -> np.ndarray:
    """One point, each coordinate uniform over its input-box interval.

    The same bits and stream as ``rng.uniform(net.input_lower,
    net.input_upper)``, at a fraction of its cost where numpy's build
    allows.
    """
    return _uniform_points(net, rng, net.input_size)


def _uniform_points(net: Network, rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform coordinates of ``shape``, the last axis being the input's.

    Both paths take one double per coordinate in C order, so row ``j`` of
    a ``(k, input_size)`` block has the bits of the ``j``-th of ``k``
    single-point draws.
    """
    if _SPELLED_OUT_UNIFORM_IS_EXACT:
        return _spelled_out_uniform(net.input_lower, net._input_width, rng, shape)
    return rng.uniform(net.input_lower, net.input_upper, size=shape)


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

    Candidates are drawn in blocks but judged one by one, and on a hit
    the stream is rewound to just past the accepted one: the seed,
    ``state`` and ``rng`` end exactly as with one draw per candidate.
    """
    if not state.threshold > 0.0:
        raise ValueError("threshold must be positive")
    if state.col_num < 1:
        raise ValueError("col_num must be positive")
    state.collisions = 0
    layers = net._layers
    left = MAX_SEED_SAMPLES
    while left > 0:
        k = min(_BLOCK, left)
        left -= k
        start = rng.bit_generator.state
        block = _uniform_points(net, rng, (k, net.input_size))
        for j, x in enumerate(block):
            if state.collisions > state.col_num:
                state.threshold *= ESCALATION_FACTOR
                state.escalations += 1
                state.collisions = 0
            state.samples_drawn += 1
            if _row_gap(_layer_values(layers, x)) < state.threshold:
                state.collisions = 0
                rng.bit_generator.state = start
                rng.random((j + 1) * net.input_size)
                return x.copy(), state
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
