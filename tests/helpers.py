"""Shared test fixtures: independent oracles and hand-built networks.

The rational evaluator below is a deliberately naive straight-line
re-implementation of the forward pass over exact rationals; it must stay
independent of the package's numpy path.
"""

import math
from fractions import Fraction

import numpy as np

import achilles.seeding as seeding
from achilles import (
    AttackResult,
    GreedyConfig,
    Network,
    SearchOutcome,
    SeedSearchExhausted,
    classify,
    forward_batch,
    gen_neighbors,
    lipschitz_bound,
    margin,
    random_sample,
)


def rational_forward(weights, biases, x):
    """Exact forward pass: affine + ReLU per hidden layer, affine output."""
    acts = [Fraction(float(v)) for v in x]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        nxt = []
        for row, bias in zip(w, b):
            total = Fraction(float(bias))
            for w_ij, a_j in zip(row, acts):
                total += Fraction(float(w_ij)) * a_j
            if k != last and total < 0:
                total = Fraction(0)
            nxt.append(total)
        acts = nxt
    return acts


def rational_argmax(values):
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def rational_margin(values):
    if len(values) == 1:
        return None
    ordered = sorted(values, reverse=True)
    return ordered[0] - ordered[1]


def fd_gradient(net, x, target, h=1e-6):
    """Central finite differences of output[target] with respect to x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[i] += h
        lo[i] -= h
        vals = forward_batch(net, np.stack([hi, lo]))
        grad[i] = (vals[0, target] - vals[1, target]) / (2 * h)
    return grad


def net_from_lists(weights, biases, lower, upper):
    return Network(
        weights=tuple(np.array(w, dtype=np.float64) for w in weights),
        biases=tuple(np.array(b, dtype=np.float64) for b in biases),
        input_lower=np.array(lower, dtype=np.float64),
        input_upper=np.array(upper, dtype=np.float64),
    )


def zero_net(sizes=(2, 2, 2), lower=0.0, upper=1.0):
    """All-zero weights and biases: every output is 0 everywhere."""
    weights = []
    biases = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append([[0.0] * n_in for _ in range(n_out)])
        biases.append([0.0] * n_out)
    return net_from_lists(weights, biases, [lower] * sizes[0], [upper] * sizes[0])


def flip_net():
    """1-input net with outputs (x, 1 - x) on [0, 1]; the label flips at 0.5."""
    return net_from_lists(
        weights=[[[1.0]], [[1.0], [-1.0]]],
        biases=[[0.0], [0.0, 1.0]],
        lower=[0.0],
        upper=[1.0],
    )


def constant_margin_net(gap=1.0, n_inputs=1):
    """Zero weights, output biases (gap, 0): margin == gap everywhere."""
    return net_from_lists(
        weights=[[[0.0] * n_inputs], [[0.0], [0.0]]],
        biases=[[0.0], [float(gap), 0.0]],
        lower=[0.0] * n_inputs,
        upper=[1.0] * n_inputs,
    )


def ramp_net(lower=0.0, upper=2.0):
    """1-input net with outputs (relu(x), 0): margin equals x for x >= 0."""
    return net_from_lists(
        weights=[[[1.0]], [[1.0], [0.0]]],
        biases=[[0.0], [0.0, 0.0]],
        lower=[lower],
        upper=[upper],
    )


def assert_valid_trace(trace):
    """Check greedy trace invariants; returns the number of move rounds.

    Trace rows are (step_used, margin_after_round).  A round that moved
    keeps the step for the next round and strictly lowers the margin; a
    round that did not move halves the step afterwards and leaves the
    margin unchanged.
    """
    steps = [s for s, _ in trace]
    margins = [m for _, m in trace]
    for k in range(1, len(trace)):
        assert steps[k] == steps[k - 1] or steps[k] == steps[k - 1] / 2.0
        assert margins[k] <= margins[k - 1]
    moves = 0
    for k in range(1, len(trace) - 1):
        moved = margins[k] < margins[k - 1]
        assert moved == (steps[k + 1] == steps[k])
        moves += moved
    return moves


def dominate_class(net, target_margin):
    """Copy of ``net`` with output bias 0 raised until class 0 wins the whole
    input box by at least ``target_margin``."""
    diam = float((net.input_upper - net.input_lower).max())
    center = 0.5 * (net.input_lower + net.input_upper)
    values = forward_batch(net, center[np.newaxis, :])[0]
    spread = float(values.max() - values[0])
    boost = 2.0 * lipschitz_bound(net) * diam + spread + float(target_margin)
    biases = [np.array(b) for b in net.biases]
    biases[-1] = biases[-1].copy()
    biases[-1][0] += boost
    return Network(
        weights=net.weights,
        biases=tuple(biases),
        input_lower=net.input_lower,
        input_upper=net.input_upper,
    )


def _row_margin(values):
    if values.size == 1:
        return math.inf
    part = np.partition(values, -2)
    return float(part[-1] - part[-2])


def reference_greedy_search(net, x0, delta, config=None):
    """Per-candidate loop version of ``greedy_search``.

    Scores the candidates of each round one row at a time: the first
    label flip in scan order returns at once, otherwise the candidate with
    the smallest margin (first on ties) is taken when strictly below the
    current margin.
    """
    cfg = config or GreedyConfig.for_radius(delta)
    x0 = np.asarray(x0, dtype=np.float64)
    label0 = classify(net, x0)
    x = x0.copy()
    current = _row_margin(forward_batch(net, x[np.newaxis, :])[0])
    step = cfg.l_max / 2.0
    iterations = 0
    trace = [] if cfg.record_trace else None
    while step >= cfg.l_min and iterations < cfg.max_iterations:
        iterations += 1
        candidates = gen_neighbors(x, step, x0, delta, net.input_lower, net.input_upper)
        best = None
        best_margin = current
        if candidates:
            batch = forward_batch(net, np.stack(candidates))
            labels = np.argmax(batch, axis=1)
            for i, cand in enumerate(candidates):
                if labels[i] != label0:
                    return SearchOutcome(
                        counter_example=cand,
                        iterations=iterations,
                        final_margin=_row_margin(batch[i]),
                        trace=tuple(trace) if trace is not None else None,
                    )
                m = _row_margin(batch[i])
                if m < best_margin:
                    best, best_margin = i, m
        if best is not None:
            x = candidates[best]
            current = best_margin
        if trace is not None:
            trace.append((step, current))
        if best is None:
            step /= 2.0
    return SearchOutcome(
        counter_example=None,
        iterations=iterations,
        final_margin=current,
        trace=tuple(trace) if trace is not None else None,
    )


def reference_generate_seed(net, state, rng):
    """One-draw-per-candidate loop version of ``generate_seed``.

    Draws each candidate with ``random_sample`` and judges it with
    ``margin``; reads ``MAX_SEED_SAMPLES`` from ``achilles.seeding`` at
    call time, so a monkeypatched cap applies to both versions.
    """
    if not state.threshold > 0.0:
        raise ValueError("threshold must be positive")
    if state.col_num < 1:
        raise ValueError("col_num must be positive")
    collisions = 0
    for _ in range(seeding.MAX_SEED_SAMPLES):
        if collisions > state.col_num:
            state.threshold *= seeding.ESCALATION_FACTOR
            state.escalations += 1
            collisions = 0
        x = random_sample(net, rng)
        state.samples_drawn += 1
        if margin(net, x) < state.threshold:
            return x
        collisions += 1
    raise SeedSearchExhausted(
        f"no sample with margin below {state.threshold!r} in {seeding.MAX_SEED_SAMPLES} draws"
    )


def reference_gradient(net, x, target_label):
    """Separate-forward-pass version of ``gradient``.

    Keeps every hidden pre-activation and masks the backward pass with
    ``pre > 0``.
    """
    x = np.asarray(x, dtype=np.float64)
    pre = []
    a = x
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        if k != last:
            pre.append(z)
            a = np.maximum(z, 0.0)
    v = np.zeros(net.output_size)
    v[target_label] = 1.0
    v = net.weights[last].T @ v
    for k in range(last - 1, -1, -1):
        v = v * (pre[k] > 0.0)
        v = net.weights[k].T @ v
    return v


def reference_attack(net, x, config):
    """Two-passes-per-step version of ``attack``.

    Each step takes ``reference_gradient`` at the current point, moves
    against its sign, clips to the box, then runs ``classify`` on the
    stepped point.
    """
    x = np.asarray(x, dtype=np.float64)
    label0 = classify(net, x)
    current = x
    for step in range(1, config.epo + 1):
        stepped = current - config.eps * np.sign(reference_gradient(net, current, label0))
        current = np.clip(stepped, net.input_lower, net.input_upper)
        if classify(net, current) != label0:
            return AttackResult(success=True, adversarial=current, steps_used=step)
    return AttackResult(success=False, adversarial=None, steps_used=config.epo)
