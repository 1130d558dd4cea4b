from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import achilles.seeding as seeding
from achilles import (
    SeedSearchExhausted,
    SeedingConfig,
    ThresholdState,
    compute_threshold,
    draw_sample_set,
    generate_seed,
    make_threshold_state,
    margin,
    margin_batch,
    random_network,
    random_sample,
    select_lowest_margin,
)
from helpers import constant_margin_net, net_from_lists, ramp_net, zero_net


class TestRandomSample:
    def test_degenerate_box_returns_exact_point(self):
        net = zero_net(lower=0.75, upper=0.75)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert np.array_equal(random_sample(net, rng), [0.75, 0.75])

    def test_deterministic_and_in_box(self):
        net = zero_net()
        a = random_sample(net, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        b1, b2 = random_sample(net, rng), random_sample(net, rng)
        assert np.array_equal(a, b1)
        assert not np.array_equal(b1, b2)
        for p in (b1, b2):
            assert net.contains(p)

    @settings(max_examples=100, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6),
                st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
            ),
            min_size=1,
            max_size=10,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_generator_uniform(self, bounds, seed):
        # Whichever path the import-time probe picked, the sampler must
        # give Generator.uniform's bits and leave the stream in its state.
        lower = [lo for lo, _ in bounds]
        upper = [lo + width for lo, width in bounds]
        net = net_from_lists(
            [np.zeros((2, len(bounds))), np.zeros((2, 2))], [[0, 0], [0, 0]], lower, upper
        )
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got = random_sample(net, ours)
            want = reference.uniform(net.input_lower, net.input_upper)
            assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_probe_picks_path_by_uniform_rounding(self):
        # Generator.uniform rounds low + width * r once where numpy's build
        # fuses the multiply and add, and twice where it does not.  The
        # probe box tells the two apart, and the spelled-out path must be
        # picked exactly where uniform rounds twice.
        lower = seeding._PROBE_LOWER.tolist()
        upper = seeding._PROBE_UPPER.tolist()
        r = np.random.default_rng(0).random(len(lower)).tolist()
        once, twice = [], []
        for lo, hi, u in zip(lower, upper, r):
            w = hi - lo
            once.append(float(Fraction(lo) + Fraction(w) * Fraction(u)))
            twice.append(lo + w * u)
        assert once != twice
        uniform = np.random.default_rng(0).uniform(lower, upper).tolist()
        assert seeding._SPELLED_OUT_UNIFORM_IS_EXACT == (uniform == twice)

    def test_fallback_is_generator_uniform(self, monkeypatch):
        monkeypatch.setattr(seeding, "_SPELLED_OUT_UNIFORM_IS_EXACT", False)
        net = zero_net(lower=-2.0, upper=3.0)
        ours, reference = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            want = reference.uniform(net.input_lower, net.input_upper)
            assert random_sample(net, ours).tobytes() == want.tobytes()
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_law_of_large_numbers(self):
        net = zero_net(sizes=(1, 2, 2))
        rng = np.random.default_rng(123)
        samples = draw_sample_set(net, rng, 100_000)
        assert abs(samples.mean() - 0.5) < 0.01


class TestComputeThreshold:
    def test_singleton(self):
        net = ramp_net()
        assert compute_threshold(net, [[0.7]]) == margin(net, [0.7])

    def test_known_minimum(self):
        # ramp_net's margin at x is exactly x, so these points have
        # margins {0.5, 0.2, 0.9}.
        net = ramp_net()
        assert compute_threshold(net, [[0.5], [0.2], [0.9]]) == 0.2

    def test_empty_sample_set(self):
        with pytest.raises(ValueError, match="empty"):
            compute_threshold(ramp_net(), np.empty((0, 1)))

    def test_matches_brute_force_scan(self):
        # The scan evaluates point by point while compute_threshold uses a
        # batch; BLAS rounding differs between the two by a few ulps.
        net = random_network([2, 4, 2], 55)
        samples = draw_sample_set(net, np.random.default_rng(55), 1000)
        got = compute_threshold(net, samples)
        brute = min(margin(net, x) for x in samples)
        assert abs(got - brute) < 1e-12

    def test_average_strategy_formula(self):
        net = random_network([2, 4, 2], 56)
        samples = draw_sample_set(net, np.random.default_rng(56), 200)
        margins = margin_batch(net, samples)
        expected = float(margins.mean() - margins.std())
        assert compute_threshold(net, samples, "average") == expected

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            compute_threshold(ramp_net(), [[0.5]], "median")


class TestGenerateSeed:
    def test_always_accept_threshold(self):
        net = ramp_net(lower=0.0, upper=1.0)  # margins within [0, 1]
        state = ThresholdState(threshold=5.0, col_num=10)
        rng = np.random.default_rng(1)
        x, state = generate_seed(net, state, rng)
        assert state.samples_drawn == 1
        assert state.escalations == 0
        assert margin(net, x) < state.threshold

    def test_escalation_count_on_constant_margin(self):
        # Margin is 1.0 everywhere; starting at 0.5 with col_num=3 the
        # bar rises 0.55, 0.605, ... and the first draw after the 8th
        # escalation (0.5 * 1.1^8 > 1) is accepted.
        net = constant_margin_net(gap=1.0)
        state = ThresholdState(threshold=0.5, col_num=3)
        x, state = generate_seed(net, state, np.random.default_rng(0))
        assert state.escalations == 8
        assert state.samples_drawn == 8 * 4 + 1
        expected = 0.5
        for _ in range(8):
            expected *= seeding.ESCALATION_FACTOR
        assert state.threshold == expected
        assert margin(net, x) < state.threshold

    def test_collisions_reset_between_calls(self):
        net = constant_margin_net(gap=1.0)
        state = ThresholdState(threshold=0.9, col_num=5)
        _, state = generate_seed(net, state, np.random.default_rng(0))
        assert state.collisions == 0

    def test_escalated_threshold_persists(self):
        net = constant_margin_net(gap=1.0)
        state = ThresholdState(threshold=0.5, col_num=3)
        rng = np.random.default_rng(0)
        _, state = generate_seed(net, state, rng)
        after_first = state.threshold
        _, state = generate_seed(net, state, rng)
        # The bar is already above the constant margin: no new escalation.
        assert state.threshold == after_first
        assert state.escalations == 8

    def test_acceptance_soundness(self):
        net = random_network([2, 6, 3], 77)
        rng = np.random.default_rng(77)
        state = make_threshold_state(net, rng)
        for _ in range(25):
            x, state = generate_seed(net, state, rng)
            assert margin(net, x) < state.threshold

    def test_determinism(self):
        net = random_network([2, 6, 3], 78)

        def one_run():
            rng = np.random.default_rng(5)
            state = ThresholdState(threshold=0.05, col_num=50)
            return [generate_seed(net, state, rng)[0] for _ in range(5)]

        first, second = one_run(), one_run()
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            generate_seed(zero_net(), ThresholdState(threshold=0.0), np.random.default_rng(0))

    def test_gives_up_at_sampling_cap(self, monkeypatch):
        monkeypatch.setattr(seeding, "MAX_SEED_SAMPLES", 64)
        # Single-output net: margin is infinite, no finite bar ever accepts.
        net = net_from_lists([[[1.0]], [[1.0]]], [[0.0], [0.0]], [0.0], [1.0])
        state = ThresholdState(threshold=0.5, col_num=1000)
        with pytest.raises(SeedSearchExhausted):
            generate_seed(net, state, np.random.default_rng(0))


class TestDefaults:
    def test_campaign_defaults(self):
        cfg = SeedingConfig()
        assert cfg.col_num == 1000
        assert cfg.sample_set_size == 1000
        assert seeding.ESCALATION_FACTOR == 1.1

    def test_make_threshold_state_uses_minimum(self):
        net = random_network([2, 5, 2], 31)
        rng = np.random.default_rng(4)
        state = make_threshold_state(net, rng)
        rng2 = np.random.default_rng(4)
        samples = draw_sample_set(net, rng2, 1000)
        assert state.threshold == compute_threshold(net, samples)

    def test_average_fallback_when_nonpositive(self):
        # Heavy-tailed margins: mostly ~0.001*x, occasionally ~100*(x-0.9).
        net = net_from_lists(
            weights=[[[1.0], [1.0]], [[100.0, 0.001], [0.0, 0.0]]],
            biases=[[-0.9, 0.0], [0.0, 0.0]],
            lower=[0.0],
            upper=[1.0],
        )
        rng = np.random.default_rng(2)
        samples = draw_sample_set(net, np.random.default_rng(2), 1000)
        raw = compute_threshold(net, samples, "average")
        assert raw <= 0  # the scenario this fallback exists for
        state = make_threshold_state(
            net, rng, SeedingConfig(threshold_strategy="average")
        )
        assert state.threshold == float(margin_batch(net, samples).min())
        assert state.threshold > 0


class TestDistributionEffect:
    def test_weak_seeds_have_lower_margins(self):
        net = random_network([4, 10, 10, 3], 2001)
        rng = np.random.default_rng(2001)
        random_margins = margin_batch(net, draw_sample_set(net, rng, 200))
        state = make_threshold_state(net, rng, SeedingConfig(col_num=200))
        weak = [generate_seed(net, state, rng)[0] for _ in range(200)]
        weak_margins = margin_batch(net, np.stack(weak))
        assert weak_margins.mean() < random_margins.mean()
        result = stats.mannwhitneyu(weak_margins, random_margins, alternative="less")
        assert result.pvalue < 0.01


class TestCorpusFilter:
    def test_head_of_margin_ranking(self):
        net = ramp_net()
        corpus = [[0.9], [0.1], [0.5], [0.3]]
        picked = select_lowest_margin(net, corpus, 2)
        assert np.array_equal(picked, [[0.1], [0.3]])

    def test_stable_on_ties(self):
        net = zero_net(sizes=(1, 2, 2))
        corpus = [[0.4], [0.2], [0.6]]
        assert np.array_equal(select_lowest_margin(net, corpus, 3), corpus)
