import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from achilles import (
    VerdictKind,
    VerificationQuery,
    check_witness,
    classify,
    gen_neighbors,
    greedy_search,
    margin,
    random_network,
    verify_local_robustness,
)
from achilles.verifier import _query_region
from helpers import (
    assert_valid_trace,
    constant_margin_net,
    dominate_class,
    flip_net,
    reference_greedy_search,
    zero_net,
)


class TestGenNeighbors:
    def test_interior_point_has_2n_neighbors(self):
        x = [0.5, 0.5]
        got = gen_neighbors(x, 0.125, [0.25, 0.25], [0.75, 0.75])
        assert len(got) == 4
        expected = [[0.625, 0.5], [0.375, 0.5], [0.5, 0.625], [0.5, 0.375]]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        for cand in got:
            assert np.abs(np.asarray(cand) - x).max() == 0.125

    def test_box_boundary_drops_collapsed_move(self):
        # x sits on the upper box boundary in dimension 0: the +step move
        # clips back onto x and is dropped.
        x = [1.0, 0.5]
        got = gen_neighbors(x, 0.125, [0.5, 0.0], [1.0, 1.0])
        assert len(got) == 3
        assert np.array_equal(got[0], [0.875, 0.5])

    def test_ball_clips_outward_move(self):
        # The query box of x0 = (0.5, 0.5) with delta 0.25: x is on its
        # surface in dimension 1, so the outward move clips back and drops.
        net = zero_net()
        lo, hi = _query_region(net, VerificationQuery.for_point(net, [0.5, 0.5], 0.25))
        got = gen_neighbors([0.5, 0.75], 0.125, lo, hi)
        assert not any(np.array_equal(c, [0.5, 0.875]) for c in got)
        assert len(got) == 3

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            gen_neighbors([0.5], 0.0, [0.4], [0.6])


class TestGreedySearch:
    def test_flat_margin_gives_up_after_exact_halvings(self):
        # Margin is constant, so no neighbor ever improves: the step
        # halves from delta / 2 down to delta / 1024, 10 rounds, never moving.
        net = constant_margin_net(gap=1.0, n_inputs=2)
        out = greedy_search(net, VerificationQuery.for_point(net, [0.5, 0.5], 0.1), record_trace=True)
        assert not out.found
        assert out.iterations == 10
        steps = [row[0] for row in out.trace]
        margins = [row[1] for row in out.trace]
        assert steps == [0.1 / 2**k for k in range(1, 11)]
        assert len(set(margins)) == 1

    def test_dominant_label_never_flips(self):
        # Class 0 wins the whole box by more than 2*L*delta, so a flip
        # inside the ball is impossible; the search may still descend.
        base = random_network([2, 6, 2], 10)
        net = dominate_class(base, target_margin=1.0)
        out = greedy_search(net, VerificationQuery.for_point(net, [0.5, 0.5], 0.1), record_trace=True)
        assert not out.found
        assert_valid_trace(out.trace)

    def test_flip_net_finds_counter_example(self):
        net = flip_net()
        out = greedy_search(net, VerificationQuery.for_point(net, [0.4], 0.2))
        assert out.found
        ce = out.counter_example
        assert ce[0] >= 0.5  # the label flips exactly at 0.5
        assert abs(ce[0] - 0.4) <= 0.2
        assert classify(net, ce) != classify(net, [0.4])

    def test_margin_descent_and_step_halving(self):
        net = random_network([2, 8, 8, 2], 91)
        rng = np.random.default_rng(91)
        moves = 0
        for _ in range(40):
            x0 = rng.uniform(0, 1, size=2)
            out = greedy_search(net, VerificationQuery.for_point(net, x0, 0.05), record_trace=True)
            moves += assert_valid_trace(out.trace)
        assert moves > 0

    def test_counter_examples_validate_and_not_found_is_rechecked(self):
        hits = 0
        queries = 0
        for seed in range(5):
            net = random_network([2, 8, 8, 2], 300 + seed, weight_scale=2.0)
            rng = np.random.default_rng(seed)
            for _ in range(20):
                x0 = rng.uniform(0, 1, size=2)
                delta = float(rng.uniform(0.02, 0.2))
                queries += 1
                query = VerificationQuery.for_point(net, x0, delta, time_budget=10.0)
                out = greedy_search(net, query)
                if out.found:
                    hits += 1
                    assert classify(net, out.counter_example) != classify(net, x0)
                    assert np.abs(out.counter_example - x0).max() <= delta
                    assert net.contains(out.counter_example)
                else:
                    verdict = verify_local_robustness(net, query)
                    assert verdict.kind in (
                        VerdictKind.SAT,
                        VerdictKind.UNSAT,
                        VerdictKind.UNKNOWN,
                    )
                    if verdict.kind is VerdictKind.SAT:
                        assert check_witness(net, query, verdict.witness)
        assert queries == 100
        assert hits > 0

    def test_pure_function(self):
        net = random_network([3, 6, 3], 17)
        query = VerificationQuery.for_point(net, [0.2, 0.8, 0.5], 0.1)
        a = greedy_search(net, query, record_trace=True)
        b = greedy_search(net, query, record_trace=True)
        assert a.iterations == b.iterations
        assert a.trace == b.trace
        if a.found:
            assert np.array_equal(a.counter_example, b.counter_example)

    def test_zero_net_never_finds(self):
        # Ties break toward label 0 everywhere: no flip exists.
        net = zero_net()
        out = greedy_search(net, VerificationQuery.for_point(net, [0.5, 0.5], 0.25))
        assert not out.found

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
    def test_bad_delta_is_refused(self, delta):
        # The query refuses it before any stage can see it.
        net = flip_net()
        with pytest.raises(ValueError, match="delta"):
            greedy_search(net, VerificationQuery.for_point(net, [0.4], delta))

    def test_final_margin_reported(self):
        net = flip_net()
        out = greedy_search(net, VerificationQuery.for_point(net, [0.4], 0.2))
        assert out.final_margin == margin(net, out.counter_example)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        inputs=st.integers(1, 10),
        hidden=st.integers(1, 12),
        outputs=st.integers(1, 4),
        net_seed=st.integers(0, 2**32 - 1),
        point_seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 4.0),
        delta=st.floats(0.005, 0.5),
    )
    def test_same_outcome_as_per_candidate_loop(
        self, inputs, hidden, outputs, net_seed, point_seed, scale, delta
    ):
        net = random_network([inputs, hidden, outputs], net_seed, weight_scale=scale)
        x0 = np.random.default_rng(point_seed).uniform(0, 1, size=inputs)
        query = VerificationQuery.for_point(net, x0, delta)
        got = greedy_search(net, query, record_trace=True)
        want = reference_greedy_search(net, query, record_trace=True)
        assert got.found == want.found
        if want.found:
            assert np.array_equal(got.counter_example, want.counter_example)
        assert got.iterations == want.iterations
        assert got.final_margin == want.final_margin
        assert got.trace == want.trace

