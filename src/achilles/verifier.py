"""Complete desk-scale local-robustness verifier.

Decides whether every point within an L-inf ball around a seed keeps the
seed's label.  Sound interval bounds are pushed through the layers; a
branch-and-bound loop splits the input region until each piece is either
certified robust or yields a concrete misclassified point.  A brute-force
grid oracle for tiny nets cross-checks the verdicts.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .nn import (
    Network,
    _as_input,
    _backward,
    _frozen_array,
    _layer_values,
    _row_gap,
    classify,
    forward_batch,
    lipschitz_bound,
)

__all__ = [
    "BUDGET",
    "GridOutcome",
    "GridResult",
    "PRECISION",
    "VerdictKind",
    "Verdict",
    "VerificationQuery",
    "check_witness",
    "grid_oracle",
    "interval_bounds",
    "verify_local_robustness",
]

# Reasons carried by UNKNOWN verdicts.
BUDGET = "budget"
PRECISION = "precision"

# Completeness is traded away below this box width, as a share of delta:
# a box narrower than delta * _PRECISION_FLOOR in every dimension is not
# split again, and the query ends UNKNOWN(precision) if no witness turns up.
_PRECISION_FLOOR = 1e-4


class VerdictKind(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class GridOutcome(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class VerificationQuery:
    """One local-robustness question: does any point within ``delta`` of
    ``x0`` (inside the input box) classify differently from ``label0``?

    Built from its network, which it keeps, so every stage answers it on
    that net: one pass at x0 gives ``label0`` and ``margin0``, and
    ``[lo, hi]`` is the ball clipped to the input box.  ``x0``, ``lo`` and
    ``hi`` are read-only copies.
    """

    net: Network
    x0: np.ndarray
    delta: float
    time_budget: float = 60.0
    label0: int = field(init=False)
    margin0: float = field(init=False)
    lo: np.ndarray = field(init=False)
    hi: np.ndarray = field(init=False)

    def __post_init__(self):
        net = self.net
        x0, delta = _frozen_array(_as_input(net, self.x0)), self.delta
        # NaN compares false against every bound, so a NaN centre gives
        # a NaN box that the interval check would certify UNSAT.
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError("delta must be positive and finite")
        if not (math.isfinite(self.time_budget) and self.time_budget > 0):
            raise ValueError("time_budget must be positive and finite")
        lo, hi = x0 - delta, x0 + delta
        # Rounding may push a bound further than delta from x0; pull it back
        # so distance checks on points at the bound never fail.
        for bound in (lo, hi):
            over = np.abs(bound - x0) > delta
            while over.any():
                bound[over] = np.nextafter(bound[over], x0[over])
                over = np.abs(bound - x0) > delta
        lo = np.maximum(lo, net.input_lower)
        hi = np.minimum(hi, net.input_upper)
        # Every point inside the box is within delta of x0 in floating point.
        if (lo > hi).any():
            raise ValueError("perturbation ball does not intersect the input box")
        lo.setflags(write=False)
        hi.setflags(write=False)
        values = _layer_values(net._layers, x0)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "label0", int(np.argmax(values)))
        object.__setattr__(self, "margin0", _row_gap(values))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def for_point(cls, net: Network, x0, delta: float, **kwargs) -> "VerificationQuery":
        """The constructor under its older name."""
        return cls(net, x0, delta, **kwargs)


@dataclass(frozen=True, eq=False)
class Verdict:
    """SAT with a validated witness, UNSAT from a certified cover, or
    UNKNOWN with the reason the search stopped."""

    kind: VerdictKind
    witness: np.ndarray | None = None
    reason: str | None = None
    boxes_explored: int = 0
    max_depth: int = 0
    wall_time: float = 0.0


def _propagate(layers, lo, hi):
    """Interval bounds of each row's box in the C-order ``(n, d)`` stacks
    ``lo`` and ``hi``.  Each product is a stacked gemv, so every row keeps
    the bits of its box bounded alone."""
    lo, hi = lo[:, :, np.newaxis], hi[:, :, np.newaxis]
    # The largest magnitude in the box, per coordinate; after a ReLU,
    # 0 <= lo <= hi makes it hi.
    scale = np.maximum(np.abs(lo), np.abs(hi))
    for w_pos, w_neg, b, err_w, err_b, hidden in layers:
        # Widen each affine step by a bound on its rounding error, then one
        # ulp more for the rounding of the widening itself.
        err = np.matmul(err_w, scale) + err_b
        new_lo = np.nextafter(np.matmul(w_pos, lo) + np.matmul(w_neg, hi) + b - err, -np.inf)
        new_hi = np.nextafter(np.matmul(w_pos, hi) + np.matmul(w_neg, lo) + b + err, np.inf)
        if hidden:
            lo = np.maximum(new_lo, 0.0)
            hi = scale = np.maximum(new_hi, 0.0)
        else:
            lo, hi = new_lo, new_hi
    return lo[:, :, 0], hi[:, :, 0]


def interval_bounds(net: Network, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Sound per-output enclosure over the box ``[lower, upper]``.

    Affine layers split weights by sign; hidden intervals clamp at zero.
    Each affine step is rounded outward, so for every x in the box and
    every output j, lo[j] <= out_j(x) <= hi[j] holds for the exact
    (real-arithmetic) output, not only for a floating-point evaluation.
    """
    lower = np.asarray(lower, dtype=np.float64, order="C")
    upper = np.asarray(upper, dtype=np.float64, order="C")
    if lower.shape != upper.shape:
        raise ValueError("box bounds must have matching shapes")
    if lower.shape != (net.input_size,):
        raise ValueError(
            f"box bounds have shape {lower.shape}, network expects {net.input_size} dimensions"
        )
    # NaN compares false against everything and would give NaN bounds.
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("box bounds must be finite")
    if (lower > upper).any():
        raise ValueError("box lower bound exceeds upper bound")
    lo, hi = _propagate(net._interval_layers, lower[np.newaxis], upper[np.newaxis])
    return lo[0], hi[0]


def _certification_gap(lo, hi, label0):
    """Lower bound on min over j != label0 of out[label0] - out[j].

    Taken over the last axis, so a batch gets one gap per row.  Positive
    means every point in the box keeps label0; with no other output the
    maximum is ``-inf`` and the gap ``inf``.
    """
    others_hi = np.delete(hi, label0, axis=-1)
    return lo[..., label0] - others_hi.max(axis=-1, initial=-math.inf)


def check_witness(query: VerificationQuery, point) -> bool:
    """True when ``point`` is a genuine counter-example for the query."""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != query.x0.shape:
        return False
    if np.abs(point - query.x0).max() > query.delta:
        return False
    if not query.net.contains(point):
        return False
    return classify(query.net, point) != query.label0


def _probe(query, lo, hi):
    # The centre, then per rival label j the corner that a gradient-sign step
    # from the centre takes to lower out[label0] - out[j].  Each point goes
    # through _layer_values, the pass classify runs, so check_witness agrees.
    net, label0 = query.net, query.label0
    layers = net._layers
    centre = 0.5 * (lo + hi)
    outputs = []
    if np.argmax(_layer_values(layers, centre, outputs)) != label0:
        return centre
    eye = np.eye(net.output_size)
    for j in range(net.output_size):
        if j != label0:
            corner = np.where(_backward(layers, outputs, eye[label0] - eye[j]) > 0, lo, hi)
            if np.argmax(_layer_values(layers, corner)) != label0:
                return corner
    return None


def verify_local_robustness(query: VerificationQuery) -> Verdict:
    """Decide a local-robustness query by input-domain branch and bound.

    Boxes whose interval bounds prove the label fixed are certified and
    dropped.  Any other box is probed at its centre and, per label j !=
    label0, at the corner ``where(g_j > 0, lo, hi)``, with g_j the input
    gradient of ``out[label0] - out[j]`` at the centre; then it splits
    along its widest dimension.  The queue serves the least-certified box
    first, so misclassified regions surface early.  Returns:

    * SAT with a re-validated witness,
    * UNSAT once the whole region is covered by certified boxes,
    * UNKNOWN(``precision``) when uncertified boxes shrank below
      ``delta * 1e-4`` in every dimension without yielding a witness,
    * UNKNOWN(``budget``) when the time budget ran out.
    """
    start = time.perf_counter()
    deadline = start + query.time_budget
    min_width = query.delta * _PRECISION_FLOOR
    layers = query.net._interval_layers

    def finish(kind, witness=None, reason=None):
        return Verdict(
            kind=kind,
            witness=witness,
            reason=reason,
            boxes_explored=explored,
            max_depth=max_depth,
            wall_time=time.perf_counter() - start,
        )

    explored = 0
    max_depth = 0
    tie = itertools.count()
    heap: list = []
    precision_exhausted = False

    def push(los, his, depth):
        # Only a positive gap certifies a row's box; a NaN gap keeps it.
        nonlocal explored
        explored += len(los)
        gaps = _certification_gap(*_propagate(layers, los, his), query.label0)
        for gap, box_lo, box_hi in zip(gaps, los, his):
            if not gap > 0:
                heapq.heappush(heap, (gap, next(tie), depth, box_lo, box_hi))

    push(query.lo[np.newaxis], query.hi[np.newaxis], 0)
    while heap:
        if time.perf_counter() > deadline:
            return finish(VerdictKind.UNKNOWN, reason=BUDGET)
        _, _, depth, box_lo, box_hi = heapq.heappop(heap)
        max_depth = max(max_depth, depth)

        candidate = _probe(query, box_lo, box_hi)
        if candidate is not None and check_witness(query, candidate):
            return finish(VerdictKind.SAT, witness=candidate)

        widths = box_hi - box_lo
        if (widths < min_width).all():
            precision_exhausted = True
            continue

        dim = int(np.argmax(widths))
        los, his = np.stack([box_lo, box_lo]), np.stack([box_hi, box_hi])
        # Halve the widest dimension: the left child is row 0, the right row 1.
        his[0, dim] = los[1, dim] = 0.5 * (box_lo[dim] + box_hi[dim])
        push(los, his, depth + 1)

    if precision_exhausted:
        return finish(VerdictKind.UNKNOWN, reason=PRECISION)
    return finish(VerdictKind.UNSAT)


# ---------------------------------------------------------------------------
# Grid oracle: exhaustive evaluation for tiny input dimensions, used to
# cross-check the branch-and-bound verdicts in tests.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridResult:
    outcome: GridOutcome
    witness: np.ndarray | None = None


_MAX_ORACLE_DIMS = 3
_GRID_CHUNK = 1 << 16
# The grid is built in memory at 48 bytes a point (three coordinate
# arrays and their stacked copy), so this cap keeps it near 200 MB.
_MAX_GRID_POINTS = 1 << 22


def grid_oracle(net: Network, query: VerificationQuery, spacing: float) -> GridResult:
    """Evaluate every grid point of the query region.

    Any misclassified grid point is a SAT witness.  If instead every grid
    point's margin toward the query label exceeds
    ``2 * L * (s / 2) * input_size`` -- with ``s`` the realized grid
    spacing (at most ``spacing``) and ``L`` the certified Lipschitz
    bound -- the entire region is provably robust and the result is
    UNSAT.  Otherwise INCONCLUSIVE.  Guarded to at most 3 input
    dimensions and 2**22 grid points.  ``net`` must equal the query's
    own network.
    """
    if net != query.net:
        raise ValueError("query was built from another network")
    spacing = float(spacing)
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError("grid spacing must be positive and finite")
    if net.input_size > _MAX_ORACLE_DIMS:
        raise ValueError(
            f"grid oracle supports at most {_MAX_ORACLE_DIMS} input dimensions"
        )
    widths = (query.hi - query.lo).tolist()
    # In Python floats a tiny spacing gives an infinite ratio, not a numpy
    # overflow warning, and the clamp counts it as too many points.
    counts = [
        1 if width == 0.0 else math.ceil(min(width / spacing, _MAX_GRID_POINTS)) + 1
        for width in widths
    ]
    if math.prod(counts) > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid spacing {spacing!r} needs more than {_MAX_GRID_POINTS} grid points"
        )
    axes = []
    realized = 0.0
    for low, high, width, n in zip(query.lo, query.hi, widths, counts):
        axes.append(np.linspace(low, high, n))
        if n > 1:
            realized = max(realized, width / (n - 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    certificate = lipschitz_bound(net) * realized * net.input_size
    robust_everywhere = True
    for chunk_start in range(0, points.shape[0], _GRID_CHUNK):
        chunk = points[chunk_start : chunk_start + _GRID_CHUNK]
        values = forward_batch(net, chunk)
        labels = np.argmax(values, axis=1)
        hits = np.nonzero(labels != query.label0)[0]
        if hits.size:
            return GridResult(GridOutcome.SAT, witness=chunk[hits[0]])
        if not (_certification_gap(values, values, query.label0) > certificate).all():
            robust_everywhere = False
    if robust_everywhere:
        return GridResult(GridOutcome.UNSAT)
    return GridResult(GridOutcome.INCONCLUSIVE)
