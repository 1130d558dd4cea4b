"""Feed-forward ReLU classification networks.

A network is a stack of affine layers: every hidden layer applies an
affine map followed by ReLU, the output layer is affine only.  Inputs
live in an axis-aligned box.  Classification is the argmax over output
values (lowest index wins ties) and the *margin* -- top output minus
runner-up -- measures how close a point sits to a decision boundary.

Networks are immutable after construction and safe to share between any
number of concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Network",
    "NetworkFormatError",
    "ball_region",
    "classify",
    "classify_batch",
    "format_float",
    "format_network",
    "forward_batch",
    "gradient",
    "lipschitz_bound",
    "load_network",
    "margin",
    "margin_batch",
    "parse_network",
    "perturbation_region",
    "random_network",
    "save_network",
    "top_gap",
]

FILE_HEADER = "relunet v1"
_BIAS_SCALE = 0.05  # standard deviation of random_network's biases


class NetworkFormatError(ValueError):
    """Raised when a network file cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Network:
    """A feed-forward ReLU classifier.

    ``weights[k]`` has shape ``(layer_sizes[k+1], layer_sizes[k])`` and
    ``biases[k]`` has length ``layer_sizes[k+1]``.  ``input_lower`` and
    ``input_upper`` bound the valid input box per dimension.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    input_lower: np.ndarray
    input_upper: np.ndarray

    def __post_init__(self):
        weights = tuple(_frozen_array(w) for w in self.weights)
        biases = tuple(_frozen_array(b) for b in self.biases)
        lower = _frozen_array(self.input_lower)
        upper = _frozen_array(self.input_upper)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "input_lower", lower)
        object.__setattr__(self, "input_upper", upper)
        self._validate()
        # The single-point layer plan: (w, b, ReLU floor) per layer, no floor
        # on the output layer.  A zero array as the floor costs np.maximum
        # less than the scalar 0.0 and gives the same bits.
        floors = [_frozen_array(np.zeros(b.shape[0])) for b in biases[:-1]] + [None]
        object.__setattr__(self, "_layers", tuple(zip(weights, biases, floors)))
        object.__setattr__(self, "_interval_layers", tuple(
            _interval_layer(w, b, floor is not None) for w, b, floor in self._layers
        ))

    def _validate(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up layer by layer")
        if len(self.weights) < 2:
            raise ValueError("network needs at least one hidden layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ValueError(f"layer {k}: weight matrix must be 2-D")
            if b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ValueError(
                    f"layer {k}: bias length {b.shape[0] if b.ndim == 1 else '?'} "
                    f"does not match {w.shape[0]} outputs"
                )
            if min(w.shape) < 1:
                raise ValueError(f"layer {k}: all layer sizes must be >= 1")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(
                    f"layer {k}: expects {w.shape[1]} inputs but layer {k - 1} "
                    f"produces {self.weights[k - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: weights and biases must be finite")
        d = self.input_size
        if self.input_lower.shape != (d,) or self.input_upper.shape != (d,):
            raise ValueError(f"input bounds must each have {d} entries")
        if not (np.isfinite(self.input_lower).all() and np.isfinite(self.input_upper).all()):
            raise ValueError("input bounds must be finite")
        if (self.input_lower > self.input_upper).any():
            bad = int(np.argmax(self.input_lower > self.input_upper))
            raise ValueError(f"input bound {bad}: lower exceeds upper")
        # Uniform sampling scales by the width, which must not overflow.
        with np.errstate(over="ignore"):
            width = self.input_upper - self.input_lower
        if not np.isfinite(width).all():
            raise ValueError("input box widths must be finite")
        # Kept, read-only, so random_sample need not subtract per draw.
        width.setflags(write=False)
        object.__setattr__(self, "_input_width", width)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_size(self) -> int:
        return self.weights[-1].shape[0]

    def contains(self, x) -> bool:
        """True when ``x`` lies inside the input box."""
        x = np.asarray(x, dtype=np.float64)
        return bool((x >= self.input_lower).all() and (x <= self.input_upper).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            len(self.weights) == len(other.weights)
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
            and np.array_equal(self.input_lower, other.input_lower)
            and np.array_equal(self.input_upper, other.input_upper)
        )

    def __repr__(self) -> str:
        shape = "-".join(str(s) for s in self.layer_sizes)
        return f"Network({shape})"


def _interval_layer(w: np.ndarray, b: np.ndarray, hidden: bool) -> tuple:
    """``(w_pos, w_neg, b, err_w, err_b, hidden)``: the positive and negative
    parts of ``w``, and ``err_w @ max(|lo|, |hi|) + err_b``, a bound on the
    rounding error of ``w_pos @ lo + w_neg @ hi + b``.

    Over n inputs that error is at most gamma_{n+2} * (|w| @ max(|lo|, |hi|)
    + |b|) plus n + 2 underflows (Higham 2002, section 3.1); k = 2 * (n + 2)
    in place of n + 2 also covers the rounding of the bound itself.
    """
    k = 2 * (w.shape[1] + 2)
    unit = np.finfo(np.float64).eps / 2
    gamma = k * unit / (1 - k * unit)
    tiny = k * np.finfo(np.float64).smallest_subnormal
    return (
        _frozen_array(np.maximum(w, 0.0)),
        _frozen_array(np.minimum(w, 0.0)),
        b,
        _frozen_array(gamma * np.abs(w)),
        _frozen_array(gamma * np.abs(b) + tiny),
        hidden,
    )


def _as_input(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_size,):
        raise ValueError(
            f"input has shape {x.shape}, network expects ({net.input_size},)"
        )
    return x


def _layer_values(layers, a: np.ndarray, outputs: list | None = None) -> np.ndarray:
    """Output values at one already validated float64 input row.

    ``layers`` is a network's ``_layers`` plan.  Each layer is one
    matrix-vector product (a BLAS gemv), which rounds exactly as the
    row's own pass in ``forward_batch``.  Given a list as ``outputs``,
    every layer's output is appended to it.
    """
    for w, b, floor in layers:
        a = w.dot(a)
        a += b
        if floor is not None:
            np.maximum(a, floor, out=a)
        if outputs is not None:
            outputs.append(a)
    return a


def _layer_outputs(layers, a: np.ndarray) -> list[np.ndarray]:
    """Every layer's output at one validated input row, the output values last.

    A hidden output, taken after ReLU, is ``> 0`` exactly where its
    pre-activation is, which is all ``_backward`` needs.
    """
    outputs = []
    _layer_values(layers, a, outputs)
    return outputs


def _backward(layers, outputs: list[np.ndarray], target_label: int) -> np.ndarray:
    """Input gradient of ``output[target_label]`` from ``_layer_outputs``."""
    v = np.zeros(outputs[-1].shape[0])
    v[target_label] = 1.0
    v = layers[-1][0].T @ v
    for (w, _, _), a in zip(layers[-2::-1], outputs[-2::-1]):
        v = v * (a > 0.0)
        v = w.T @ v
    return v


def _point_values(net: Network, x) -> np.ndarray:
    """Output values at one point."""
    return _layer_values(net._layers, _as_input(net, x))


def forward_batch(net: Network, xs) -> np.ndarray:
    """Evaluate many points at once; rows of ``xs`` are inputs.

    Returns an ``(n, output_size)`` array of output values.  Each row is
    one gemv per layer with the bits of ``_layer_values``; a stacked matmul
    makes one only for unit-stride rows, so the batch is taken in C order.
    """
    a = np.asarray(xs, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[1] != net.input_size:
        raise ValueError(
            f"batch has shape {a.shape}, expected (n, {net.input_size})"
        )
    a = a[:, :, np.newaxis]
    for w, b, floor in net._layers:
        a = np.matmul(w, a)
        a += b[:, np.newaxis]
        if floor is not None:
            np.maximum(a, 0.0, out=a)
    return a[:, :, 0]


def top_gap(values: np.ndarray) -> np.ndarray:
    """Top value minus runner-up of one output row or of each row of a batch.

    A single-output net can never change label, so its gap is ``inf``.
    """
    if values.shape[-1] == 1:
        return np.full(values.shape[:-1], math.inf)
    # Indexing the transpose serves a row and a batch alike, and costs
    # less than ``[..., k]`` on the per-sample path of ``margin``.
    part = np.partition(values, -2).T
    return part[-1] - part[-2]


def _row_gap(values: np.ndarray) -> float:
    """``top_gap`` of one output row, taken in Python floats.

    A NaN leaves the sort order undefined and a tie of ``0.0`` with
    ``-0.0`` leaves the sign of the gap to it; ``top_gap`` decides both.
    Two outputs need no sort: a NaN or a tie there fails ``gap > 0.0``.
    """
    row = values.tolist()
    if len(row) == 2:
        u, v = row
        gap = u - v if u > v else v - u
        if gap > 0.0:
            return gap
    elif len(row) == 1:
        return math.inf
    else:
        row.sort()
        gap = row[-1] - row[-2]
        if gap > 0.0 and not math.isnan(sum(row)):
            return gap
    return float(top_gap(values))


def margin(net: Network, x) -> float:
    """Top output minus runner-up at ``x``.  Zero exactly on a tie."""
    return _row_gap(_point_values(net, x))


def classify(net: Network, x) -> int:
    """Index of the winning output at ``x`` (lowest index on ties)."""
    return int(np.argmax(_point_values(net, x)))


def margin_batch(net: Network, xs) -> np.ndarray:
    return top_gap(forward_batch(net, xs))


def classify_batch(net: Network, xs) -> np.ndarray:
    return np.argmax(forward_batch(net, xs), axis=1)


def gradient(net: Network, x, target_label: int) -> np.ndarray:
    """Gradient of ``output[target_label]`` with respect to the input.

    Uses the one-sided convention that ReLU has derivative 0 at 0.
    """
    x = _as_input(net, x)
    if not 0 <= target_label < net.output_size:
        raise IndexError(
            f"label {target_label} out of range for {net.output_size} outputs"
        )
    return _backward(net._layers, _layer_outputs(net._layers, x), target_label)


def lipschitz_bound(net: Network) -> float:
    """Certified constant L with ``|out(x) - out(y)|_inf <= L * |x - y|_inf``.

    Product over layers of the max-absolute-row-sum norm; sound because
    ReLU is 1-Lipschitz coordinatewise.
    """
    bound = 1.0
    for w in net.weights:
        bound *= float(np.abs(w).sum(axis=1).max())
    return bound


def ball_region(center, radius: float, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the L-inf ball around ``center`` clipped to ``[lower, upper]``.

    Every point inside the returned bounds is within ``radius`` of the
    center in floating-point arithmetic.  The bounds cross (some lower
    entry exceeds its upper) when the ball misses the box.
    """
    center = np.asarray(center, dtype=np.float64)
    # NaN compares false against everything and would give a NaN box.
    if not radius >= 0:
        raise ValueError("radius must be non-negative")
    if not np.isfinite(center).all():
        raise ValueError("center must be finite")
    lo = center - radius
    hi = center + radius
    # Rounding may push a bound further than radius from the center;
    # pull it back so distance checks on points at the bound never fail.
    for bound in (lo, hi):
        over = np.abs(bound - center) > radius
        while over.any():
            bound[over] = np.nextafter(bound[over], center[over])
            over = np.abs(bound - center) > radius
    lo = np.maximum(lo, np.asarray(lower, dtype=np.float64))
    hi = np.minimum(hi, np.asarray(upper, dtype=np.float64))
    return lo, hi


def perturbation_region(net: Network, center, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the L-inf ball around ``center`` clipped to the input box.

    Every point inside the returned bounds is within ``radius`` of the
    center in floating-point arithmetic.  Raises ``ValueError`` when the
    ball lies entirely outside the input box.
    """
    center = _as_input(net, center)
    lo, hi = ball_region(center, radius, net.input_lower, net.input_upper)
    if (lo > hi).any():
        raise ValueError("perturbation ball does not intersect the input box")
    return lo, hi


def random_network(
    layer_sizes,
    rng,
    *,
    weight_scale: float = 1.0,
    input_bounds: tuple[float, float] = (0.0, 1.0),
) -> Network:
    """Generate a network with Gaussian weights for synthetic test suites.

    Weights are drawn N(0, weight_scale^2 / fan_in) so depth does not
    blow activations up; biases are N(0, 0.05^2).
    """
    rng = np.random.default_rng(rng)
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 3:
        raise ValueError("need at least input, one hidden and output sizes")
    weights = []
    biases = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(rng.standard_normal((n_out, n_in)) * (weight_scale / math.sqrt(n_in)))
        biases.append(rng.standard_normal(n_out) * _BIAS_SCALE)
    low, high = input_bounds
    return Network(
        weights=tuple(weights),
        biases=tuple(biases),
        input_lower=np.full(sizes[0], float(low)),
        input_upper=np.full(sizes[0], float(high)),
    )


# ---------------------------------------------------------------------------
# File format: text, line oriented, '#' starts a comment.
#
#   relunet v1
#   <layer sizes>
#   <input lower bounds>
#   <input upper bounds>
#   then per layer, one line per output neuron: weight row followed by bias.
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """The shortest text that parses back to the same float64."""
    return repr(float(x))


def format_network(net: Network) -> str:
    """The canonical text form of ``net``."""
    lines = [FILE_HEADER]
    lines.append(" ".join(str(s) for s in net.layer_sizes))
    lines.append(" ".join(format_float(v) for v in net.input_lower))
    lines.append(" ".join(format_float(v) for v in net.input_upper))
    for w, b in zip(net.weights, net.biases):
        for row, bias in zip(w, b):
            lines.append(" ".join(format_float(v) for v in row) + " " + format_float(bias))
    return "\n".join(lines) + "\n"


def _parse_floats(text: str, line: int, expected: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != expected:
        raise NetworkFormatError(
            f"{what}: expected {expected} values, found {len(parts)}", line
        )
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise NetworkFormatError(f"{what}: {exc}", line) from None
    if not np.isfinite(values).all():
        raise NetworkFormatError(f"{what}: non-finite value", line)
    return values


def parse_network(text: str) -> Network:
    """Parse the text network format, reporting errors with line numbers."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise NetworkFormatError("empty network file")
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] if rows else 0
            raise NetworkFormatError(f"unexpected end of file, expected {what}", last + 1)
        row = rows[pos]
        pos += 1
        return row

    line, header = take("header")
    if header != FILE_HEADER:
        raise NetworkFormatError(f"bad header {header!r}, expected {FILE_HEADER!r}", line)

    line, sizes_text = take("layer sizes")
    try:
        sizes = [int(p) for p in sizes_text.split()]
    except ValueError:
        raise NetworkFormatError("layer sizes must be integers", line) from None
    if len(sizes) < 3:
        raise NetworkFormatError(
            "need at least three layer sizes (input, hidden..., output)", line
        )
    if min(sizes) < 1:
        raise NetworkFormatError("all layer sizes must be >= 1", line)

    line, text_lo = take("input lower bounds")
    lower = _parse_floats(text_lo, line, sizes[0], "input lower bounds")
    line, text_hi = take("input upper bounds")
    upper = _parse_floats(text_hi, line, sizes[0], "input upper bounds")
    if (lower > upper).any():
        raise NetworkFormatError("input lower bound exceeds upper bound", line)

    weights = []
    biases = []
    for k, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        # Rows are parsed before the layer is built, so a size larger than
        # the file ends at its last line instead of in a huge allocation.
        neurons = []
        for i in range(n_out):
            line, row = take(f"layer {k} neuron {i}")
            neurons.append(_parse_floats(row, line, n_in + 1, f"layer {k} neuron {i}"))
        layer = np.array(neurons)
        weights.append(layer[:, :-1])
        biases.append(layer[:, -1])

    if pos != len(rows):
        raise NetworkFormatError("trailing content after last layer", rows[pos][0])
    return Network(
        weights=tuple(weights),
        biases=tuple(biases),
        input_lower=lower,
        input_upper=upper,
    )


def load_network(path) -> Network:
    """Load a network from a ``relunet v1`` file."""
    return parse_network(Path(path).read_text(encoding="utf-8"))


def save_network(net: Network, path) -> None:
    """Write a network to a ``relunet v1`` file in canonical form."""
    Path(path).write_text(format_network(net), encoding="utf-8")
