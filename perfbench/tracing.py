"""In-memory spans around the calls into each achilles layer.

The tracer wraps the names the callers import (``harness.generate_seed``,
``greedy.forward_batch``, ...) so that every call records a span: name,
start, end, parent span and the campaign run it belongs to.  Spans live
in flat arrays while the run goes on and are written out once it ends.
Work counts are read from values the calls already return
(``ThresholdState``, ``SearchOutcome``, ``Verdict``, ``AttackResult``).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from achilles import attacks, greedy, harness, nn, seeding
from achilles.verifier import VerdictKind

# Span name -> the layer whose public function it times.
LAYER_OF = {
    "harness.run_campaign": "harness",
    "attacks.run_attack_campaign": "attacks",
    "harness.make_threshold_state": "seeding",
    "attacks.make_threshold_state": "seeding",
    "harness.generate_seed": "seeding",
    "attacks.generate_seed": "seeding",
    "harness.random_sample": "seeding",
    "seeding.random_sample": "seeding",
    "seeding.margin": "nn",
    "nn.forward_batch": "nn",
    "greedy.forward_batch": "nn",
    "harness.greedy_search": "greedy",
    "harness.verify_local_robustness": "verifier",
    "attacks.attack": "attacks",
}
LAYERS = ("seeding", "nn", "greedy", "verifier", "harness", "attacks")


def _rows(tracer, args, result):
    tracer.counts["nn.forward_rows"] += len(args[1])


def _state(tracer, args, result):
    tracer.states.append(result)


def _seed(tracer, args, result):
    tracer.counts["seeding.seeds"] += 1


def _greedy(tracer, args, result):
    tracer.counts["greedy.iterations"] += result.iterations
    tracer.counts["greedy.found"] += result.found


def _verdict(tracer, args, result):
    tracer.counts["verifier.boxes"] += result.boxes_explored
    tracer.counts["verifier.unknown"] += result.kind is VerdictKind.UNKNOWN
    tracer.max_depth = max(tracer.max_depth, result.max_depth)


def _attack(tracer, args, result):
    tracer.counts["attacks.steps"] += result.steps_used
    tracer.counts["attacks.successes"] += result.success


# (module, attribute, observer of the returned value)
WRAPPED = (
    (harness, "make_threshold_state", _state),
    (harness, "generate_seed", _seed),
    (harness, "random_sample", None),
    (harness, "greedy_search", _greedy),
    (harness, "verify_local_robustness", _verdict),
    (seeding, "random_sample", None),
    (seeding, "margin", None),
    (nn, "forward_batch", _rows),
    (greedy, "forward_batch", _rows),
    (attacks, "make_threshold_state", _state),
    (attacks, "generate_seed", _seed),
    (attacks, "attack", _attack),
)


class Tracer:
    """Span recorder; ``install`` patches the layer boundaries in place."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._run_id = -1
        self._saved = []
        self.counts: Counter = Counter()
        self.states = []
        self.max_depth = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        stack, names, parents, runs = self._stack, self.name_col, self.parent, self.run
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self._run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        for module, attr, observe in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, f"{module.__name__.split('.')[-1]}.{attr}", observe))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_span(self, fn, name: str, run_id: int):
        """Call ``fn()`` as the root span of campaign run ``run_id``."""
        self._run_id = run_id
        try:
            return self.wrap(fn, name)()
        finally:
            self._run_id = -1

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer work counts, inclusive and self times, and wall shares."""
        name = np.frombuffer(self.name_col, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_time = dur - child
        layer_of = np.array([LAYERS.index(LAYER_OF[n]) for n in self.names] or [0])[name]
        wall = dur[parent < 0].sum()

        def spans(*names):
            ids = [self.names.index(n) for n in names if n in self.names]
            return dur[np.isin(name, ids)]

        def ratio(num, den):
            return float(num / den) if den else 0.0

        c = self.counts
        samples = sum(s.samples_drawn for s in self.states)
        seed_ms = spans("harness.generate_seed", "attacks.generate_seed").sum() * 1e3
        forward = spans("nn.forward_batch", "greedy.forward_batch")
        greedy_s = spans("harness.greedy_search")
        verify_s = spans("harness.verify_local_robustness")
        attack_s = spans("attacks.attack")
        draws = spans("seeding.random_sample")
        margins = spans("seeding.margin")
        out = {
            "seeding.threshold_ms": spans("harness.make_threshold_state", "attacks.make_threshold_state").sum() * 1e3,
            "seeding.seed_ms": seed_ms,
            "seeding.samples": samples,
            "seeding.us_per_sample": ratio(seed_ms * 1e3, samples),
            "seeding.draw_us": ratio(draws.sum() * 1e6, draws.size),
            "seeding.escalations": sum(s.escalations for s in self.states),
            "seeding.yield": ratio(c["seeding.seeds"], samples),
            "nn.forward_calls": forward.size,
            "nn.forward_rows": c["nn.forward_rows"],
            "nn.rows_per_call": ratio(c["nn.forward_rows"], forward.size),
            "nn.forward_ms": forward.sum() * 1e3,
            "nn.margin_us": ratio(margins.sum() * 1e6, margins.size),
            "greedy.ms": greedy_s.sum() * 1e3,
            "greedy.calls": greedy_s.size,
            "greedy.iterations": c["greedy.iterations"],
            "greedy.us_per_iteration": ratio(greedy_s.sum() * 1e6, c["greedy.iterations"]),
            "greedy.hit_rate": ratio(c["greedy.found"], greedy_s.size),
            "verifier.ms": verify_s.sum() * 1e3,
            "verifier.calls": verify_s.size,
            "verifier.boxes": c["verifier.boxes"],
            "verifier.us_per_box": ratio(verify_s.sum() * 1e6, c["verifier.boxes"]),
            "verifier.max_depth": self.max_depth,
            "verifier.call_p90_ms": float(np.percentile(verify_s, 90)) * 1e3 if verify_s.size else 0.0,
            "verifier.unknown": c["verifier.unknown"],
            "harness.runs": c["harness.runs"],
            "attacks.ms": attack_s.sum() * 1e3,
            "attacks.steps": c["attacks.steps"],
            "attacks.success_rate": ratio(c["attacks.successes"], attack_s.size),
        }
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_ms"] = self_time[layer_of == i].sum() * 1e3
            out[f"{layer}.wall_frac"] = ratio(self_time[layer_of == i].sum(), wall)
        out["trace.wall_ms"] = wall * 1e3
        return {k: float(v) for k, v in out.items()}
