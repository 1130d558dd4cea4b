"""Greedy pre-search for counter-examples.

Before handing a query to the verifier, walk from the seed toward the
decision boundary: perturb one coordinate at a time by +/-step, move to
the neighbor with the smallest margin, and halve the step once no
neighbor improves.  Any neighbor that changes the label is an immediate
counter-example; running out of step width means the search gives up
(it never certifies anything).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Network, forward_batch, margin, top_gap
from .verifier import VerificationQuery, _query_region

__all__ = ["SearchOutcome", "gen_neighbors", "greedy_search"]


# Every improving round keeps the step, so this cap is what bounds a
# search whose margin keeps falling.
_MAX_ITERATIONS = 10_000


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Result of one greedy search.

    ``counter_example`` is None when the search gave up.  ``trace`` (when
    recorded) holds one ``(step, margin)`` row per completed round that
    did not return a counter-example.
    """

    counter_example: np.ndarray | None
    iterations: int
    final_margin: float
    trace: tuple[tuple[float, float], ...] | None = None

    @property
    def found(self) -> bool:
        return self.counter_example is not None


def gen_neighbors(x, step: float, lo, hi) -> list[np.ndarray]:
    """Single-coordinate +/-step moves, clipped to the box ``[lo, hi]``.

    Emits up to 2n candidates in dimension order (+step before -step);
    candidates that collapse onto ``x`` are dropped.  Greedy passes the
    query's box, so every candidate stays within ``delta`` of x0.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = []
    for i in range(x.shape[0]):
        for sign in (1.0, -1.0):
            cand = x.copy()
            cand[i] = min(max(cand[i] + sign * step, lo[i]), hi[i])
            if cand[i] != x[i]:
                out.append(cand)
    return out


def greedy_search(net: Network, query: VerificationQuery, *, record_trace: bool = False) -> SearchOutcome:
    """Descend the margin around the query's x0 looking for a label flip.

    The first step is ``delta / 2``; a round without improvement halves
    it, and the search gives up once it falls below ``delta / 1024`` or
    after 10,000 rounds.  The flip test is always against the query's
    ``label0``, and every candidate stays in the query's box, so a
    returned point is a genuine counter-example for the query.  Fully
    deterministic.
    """
    lo, hi = _query_region(net, query)
    x, delta = query.x0, query.delta
    current = margin(net, x)
    step = delta / 2.0
    floor = delta / 1024.0
    iterations = 0
    trace: list[tuple[float, float]] | None = [] if record_trace else None

    while step >= floor and iterations < _MAX_ITERATIONS:
        iterations += 1
        candidates = gen_neighbors(x, step, lo, hi)
        moved = False
        if candidates:
            batch = forward_batch(net, np.stack(candidates))
            gaps = top_gap(batch)
            # The first flip in scan order wins; otherwise the first
            # smallest margin, if strictly below the current one.
            flips = np.flatnonzero(np.argmax(batch, axis=1) != query.label0)
            if flips.size:
                return SearchOutcome(
                    counter_example=candidates[flips[0]],
                    iterations=iterations,
                    final_margin=float(gaps[flips[0]]),
                    trace=tuple(trace) if trace is not None else None,
                )
            best = int(np.argmin(gaps))
            if gaps[best] < current:
                x, current, moved = candidates[best], float(gaps[best]), True
        if trace is not None:
            trace.append((step, current))
        if not moved:
            step /= 2.0
    return SearchOutcome(
        counter_example=None,
        iterations=iterations,
        final_margin=current,
        trace=tuple(trace) if trace is not None else None,
    )
