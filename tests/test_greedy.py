import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from achilles import (
    GreedyConfig,
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
        got = gen_neighbors(x, 0.125, x, 0.25, [0.0, 0.0], [1.0, 1.0])
        assert len(got) == 4
        expected = [[0.625, 0.5], [0.375, 0.5], [0.5, 0.625], [0.5, 0.375]]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        for cand in got:
            assert np.abs(np.asarray(cand) - x).max() == 0.125

    def test_box_boundary_drops_collapsed_move(self):
        # x sits on the upper box boundary in dimension 0: the +step move
        # clips back onto x and is dropped.
        x = [1.0, 0.5]
        got = gen_neighbors(x, 0.125, x, 0.5, [0.0, 0.0], [1.0, 1.0])
        assert len(got) == 3
        assert np.array_equal(got[0], [0.875, 0.5])

    def test_ball_clips_outward_move(self):
        # x is at distance delta from the center in dimension 1, so the
        # outward move clips to the ball surface.
        x0 = [0.5, 0.5]
        x = [0.5, 0.75]
        got = gen_neighbors(x, 0.125, x0, 0.25, [0.0, 0.0], [1.0, 1.0])
        assert not any(np.array_equal(c, [0.5, 0.875]) for c in got)
        assert len(got) == 3

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            gen_neighbors([0.5], 0.0, [0.5], 0.1, [0.0], [1.0])


class TestGreedySearch:
    def test_flat_margin_gives_up_after_exact_halvings(self):
        # Margin is constant, so no neighbor ever improves:
        # ceil(log2(l_max / l_min)) = 10 rounds, never moving.
        net = constant_margin_net(gap=1.0, n_inputs=2)
        cfg = GreedyConfig.for_radius(0.1, record_trace=True)
        out = greedy_search(net, [0.5, 0.5], 0.1, cfg)
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
        out = greedy_search(net, [0.5, 0.5], 0.1, GreedyConfig.for_radius(0.1, record_trace=True))
        assert not out.found
        assert_valid_trace(out.trace)

    def test_flip_net_finds_counter_example(self):
        net = flip_net()
        out = greedy_search(net, [0.4], 0.2)
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
            out = greedy_search(
                net, x0, 0.05, GreedyConfig.for_radius(0.05, record_trace=True)
            )
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
                out = greedy_search(net, x0, delta)
                if out.found:
                    hits += 1
                    assert classify(net, out.counter_example) != classify(net, x0)
                    assert np.abs(out.counter_example - x0).max() <= delta
                    assert net.contains(out.counter_example)
                else:
                    query = VerificationQuery.for_point(
                        net, x0, delta, time_budget=10.0
                    )
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
        a = greedy_search(net, [0.2, 0.8, 0.5], 0.1, GreedyConfig.for_radius(0.1, record_trace=True))
        b = greedy_search(net, [0.2, 0.8, 0.5], 0.1, GreedyConfig.for_radius(0.1, record_trace=True))
        assert a.iterations == b.iterations
        assert a.trace == b.trace
        if a.found:
            assert np.array_equal(a.counter_example, b.counter_example)

    def test_zero_net_never_finds(self):
        # Ties break toward label 0 everywhere: no flip exists.
        out = greedy_search(zero_net(), [0.5, 0.5], 0.25)
        assert not out.found

    def test_final_margin_reported(self):
        net = flip_net()
        out = greedy_search(net, [0.4], 0.2)
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
        cfg = GreedyConfig.for_radius(delta, record_trace=True)
        got = greedy_search(net, x0, delta, cfg)
        want = reference_greedy_search(net, x0, delta, cfg)
        assert got.found == want.found
        if want.found:
            assert np.array_equal(got.counter_example, want.counter_example)
        assert got.iterations == want.iterations
        assert got.final_margin == want.final_margin
        assert got.trace == want.trace


class TestGreedyConfig:
    def test_invalid_ordering(self):
        with pytest.raises(ValueError, match="l_min"):
            GreedyConfig(l_max=0.1, l_min=0.2)

    def test_for_radius_defaults(self):
        cfg = GreedyConfig.for_radius(0.5)
        assert cfg.l_max == 0.5
        assert cfg.l_min == 0.5 / 1024
        assert cfg.max_iterations == 10_000

    def test_positivity(self):
        with pytest.raises(ValueError):
            GreedyConfig(l_max=-1.0, l_min=0.1)
        with pytest.raises(ValueError):
            GreedyConfig(l_max=1.0, l_min=0.0)
