from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import achilles.seeding as seeding
from achilles import (
    SeedSearchExhausted,
    SeedingConfig,
    ThresholdState,
    generate_seed,
    make_threshold_state,
    margin,
    margin_batch,
    random_network,
    random_sample,
    select_lowest_margin,
)
import helpers
from helpers import constant_margin_net, net_from_lists, ramp_net, reference_generate_seed, zero_net


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
        # Generator.uniform's formula, low + (high - low) * random(), with
        # each operation rounded on its own as Python floats round it: both
        # samplers must give these bits and leave the stream in its state.
        lower = [lo for lo, _ in bounds]
        upper = [lo + width for lo, width in bounds]
        net = net_from_lists(
            [np.zeros((2, len(bounds))), np.zeros((2, 2))], [[0, 0], [0, 0]], lower, upper
        )
        ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)

        def reference_point():
            return [lo + (hi - lo) * twin.random() for lo, hi in zip(lower, upper)]

        for _ in range(5):
            assert random_sample(net, ours).tobytes() == np.array(reference_point()).tobytes()
        got = random_sample(net, ours, 7)
        assert got.tobytes() == np.array([reference_point() for _ in range(7)]).tobytes()
        assert ours.bit_generator.state == twin.bit_generator.state

    def test_stream_is_pinned(self):
        # The bits of lower + width * u from a fixed generator, on every
        # IEEE-754 build.  A multiply and add fused into one rounding
        # gives other bits for half of these coordinates.
        net = zero_net(sizes=(3, 2, 2), lower=-2.0, upper=3.0)
        rng = np.random.default_rng(8)
        point = random_sample(net, rng)
        block = random_sample(net, rng, 3)
        pinned = [
            "-0x1.75e6e5c99be88p-2", "0x1.77db702196156p+1", "-0x1.a033546c7ab68p-2",
            "0x1.f157b71d36902p+0", "0x1.2cbbd82f996d4p+1", "-0x1.6d2a9438449c0p-5",
            "0x1.83e90eb6f2190p-3", "-0x1.170d1d9074470p-3", "-0x1.7719720ccc9cbp+0",
            "0x1.944d999eda668p-2", "-0x1.9623754c6b1dep-1", "-0x1.6db54a3782d50p-1",
        ]
        assert [float(v).hex() for v in (*point, *block.ravel())] == pinned
        u = np.random.default_rng(8).random(12).tolist()
        fused = [float(Fraction(-2.0) + Fraction(5.0) * Fraction(v)).hex() for v in u]
        assert sum(a != b for a, b in zip(fused, pinned)) == 6

    def test_law_of_large_numbers(self):
        net = zero_net(sizes=(1, 2, 2))
        rng = np.random.default_rng(123)
        samples = random_sample(net, rng, 100_000)
        assert abs(samples.mean() - 0.5) < 0.01


def _sample_set_and_state(net, seed, **config):
    """The sample set ``make_threshold_state`` draws from ``seed``, and the state."""
    cfg = SeedingConfig(**config)
    samples = random_sample(net, np.random.default_rng(seed), cfg.sample_set_size)
    return samples, make_threshold_state(net, np.random.default_rng(seed), cfg)


class TestComputeThreshold:
    """The bar ``make_threshold_state`` computes from its sample set.

    A bar that is not finite and positive is refused: ``test_zero_bar_refused``
    and ``TestGenerateSeed``'s ``test_nan_threshold_is_rejected_before_sampling``
    and ``test_single_output_net_has_no_threshold`` cover it.
    """

    def test_singleton(self):
        net = ramp_net()
        samples, state = _sample_set_and_state(net, 3, sample_set_size=1)
        assert state.threshold == margin(net, samples[0])

    def test_known_minimum(self):
        # ramp_net's margin at x is exactly x on its box [0, 2].
        samples, state = _sample_set_and_state(ramp_net(), 4, sample_set_size=3)
        assert state.threshold == samples.min()

    def test_empty_sample_set(self):
        with pytest.raises(ValueError, match="positive"):
            SeedingConfig(sample_set_size=0)
        # A built config is frozen, so the checked size cannot be undone.
        cfg = SeedingConfig()
        for size in (0, -1):
            with pytest.raises(FrozenInstanceError):
                cfg.sample_set_size = size
        assert cfg.sample_set_size == seeding.DEFAULT_SAMPLE_SET_SIZE

    def test_matches_brute_force_scan(self):
        # Every row of the batch has the bits of its own single-point pass.
        net = random_network([2, 4, 2], 55)
        samples, state = _sample_set_and_state(net, 55)
        assert state.threshold == min(margin(net, x) for x in samples)

    def test_average_strategy_formula(self):
        net = random_network([2, 4, 2], 56)
        samples, state = _sample_set_and_state(net, 56, sample_set_size=200, threshold_strategy="average")
        margins = margin_batch(net, samples)
        expected = float(margins.mean() - margins.std())
        assert expected > 0
        assert state.threshold == expected

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            SeedingConfig(threshold_strategy="median")
        # A built config is frozen, so the checked strategy cannot be undone.
        config = SeedingConfig()
        with pytest.raises(FrozenInstanceError):
            config.threshold_strategy = "median"
        assert config.threshold_strategy == "minimum"

    @pytest.mark.parametrize("strategy", ["minimum", "average"])
    def test_zero_bar_refused(self, strategy):
        # Every margin of the zero net is 0: no draw's margin is below
        # that bar, and escalation leaves it at 0.
        with pytest.raises(ValueError, match="seed threshold must be finite and positive, got 0.0"):
            make_threshold_state(zero_net(), np.random.default_rng(0), SeedingConfig(threshold_strategy=strategy))


class TestGenerateSeed:
    def test_always_accept_threshold(self):
        net = ramp_net(lower=0.0, upper=1.0)  # margins within [0, 1]
        state = ThresholdState(threshold=5.0, col_num=10)
        rng = np.random.default_rng(1)
        x = generate_seed(net, state, rng)
        assert state.samples_drawn == 1
        assert state.escalations == 0
        assert margin(net, x) < state.threshold

    def test_escalation_count_on_constant_margin(self):
        # Margin is 1.0 everywhere; starting at 0.5 with col_num=3 the
        # bar rises 0.55, 0.605, ... and the first draw after the 8th
        # escalation (0.5 * 1.1^8 > 1) is accepted.
        net = constant_margin_net(gap=1.0)
        state = ThresholdState(threshold=0.5, col_num=3)
        x = generate_seed(net, state, np.random.default_rng(0))
        assert state.escalations == 8
        assert state.samples_drawn == 8 * 4 + 1
        expected = 0.5
        for _ in range(8):
            expected *= seeding.ESCALATION_FACTOR
        assert state.threshold == expected
        assert margin(net, x) < state.threshold

    def test_collisions_reset_between_calls(self, monkeypatch):
        # The first call gives up after 4 misses, one more than col_num
        # allows; a streak carried into the second call would escalate
        # before its first draw.
        monkeypatch.setattr(seeding, "MAX_SEED_SAMPLES", 4)
        net = constant_margin_net(gap=1.0)
        state = ThresholdState(threshold=0.5, col_num=3)
        rng = np.random.default_rng(0)
        for _ in range(2):
            with pytest.raises(SeedSearchExhausted):
                generate_seed(net, state, rng)
        assert state.escalations == 0
        assert state.samples_drawn == 8

    def test_escalated_threshold_persists(self):
        net = constant_margin_net(gap=1.0)
        state = ThresholdState(threshold=0.5, col_num=3)
        rng = np.random.default_rng(0)
        generate_seed(net, state, rng)
        after_first = state.threshold
        generate_seed(net, state, rng)
        # The bar is already above the constant margin: no new escalation.
        assert state.threshold == after_first
        assert state.escalations == 8

    def test_acceptance_soundness(self):
        net = random_network([2, 6, 3], 77)
        rng = np.random.default_rng(77)
        state = make_threshold_state(net, rng)
        for _ in range(25):
            x = generate_seed(net, state, rng)
            assert margin(net, x) < state.threshold

    def test_determinism(self):
        net = random_network([2, 6, 3], 78)

        def one_run():
            rng = np.random.default_rng(5)
            state = ThresholdState(threshold=0.05, col_num=50)
            return [generate_seed(net, state, rng) for _ in range(5)]

        first, second = one_run(), one_run()
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            generate_seed(zero_net(), ThresholdState(threshold=0.0), np.random.default_rng(0))

    def test_zero_col_num_is_rejected_before_sampling(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        state = ThresholdState(threshold=1.0, col_num=0)
        with pytest.raises(ValueError, match="col_num must be positive"):
            generate_seed(zero_net(), state, rng)
        assert state.samples_drawn == 0
        assert rng.bit_generator.state == before

    def test_nan_threshold_is_rejected_before_sampling(self):
        # Finite weights whose outputs overflow to inf - inf give NaN
        # margins, so no finite bar exists; no draw can beat a NaN or
        # infinite one and the search must not spend its sampling cap
        # finding that out.
        net = net_from_lists([[[1e200]], [[1e200], [1e200]]], [[0.0], [0.0, 0.0]], [0.0], [1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                make_threshold_state(net, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for bar in (np.nan, np.inf):
            state = ThresholdState(threshold=bar)
            with pytest.raises(ValueError, match="threshold"):
                generate_seed(net, state, rng)
            assert state.samples_drawn == 0
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("strategy", ["minimum", "average"])
    def test_single_output_net_has_no_threshold(self, strategy):
        # Every margin of a single-output net is infinite: the minimum is
        # inf and the average inf - inf = NaN.
        net = random_network([2, 4, 1], 9)
        with pytest.raises(ValueError, match="finite"):
            make_threshold_state(net, np.random.default_rng(0), SeedingConfig(threshold_strategy=strategy))

    def test_gives_up_at_sampling_cap(self, monkeypatch):
        # A cap that ends inside a block: exactly cap draws, and the
        # stream where cap single draws would have left it.
        cap = 2 * seeding._BLOCK + 5
        monkeypatch.setattr(seeding, "MAX_SEED_SAMPLES", cap)
        # Single-output net: margin is infinite, no finite bar ever accepts.
        net = net_from_lists([[[1.0, 1.0]], [[1.0]]], [[0.0], [0.0]], [0.0, 0.0], [1.0, 1.0])
        state = ThresholdState(threshold=0.5, col_num=1000)
        rng = np.random.default_rng(0)
        with pytest.raises(SeedSearchExhausted):
            generate_seed(net, state, rng)
        assert state.samples_drawn == cap
        reference = np.random.default_rng(0)
        reference.random(cap * net.input_size)
        assert rng.random(16).tobytes() == reference.random(16).tobytes()


def _seed_search_trace(search, net, state, rng, calls):
    """Seeds (or give-ups), the state after each call and the stream after all."""
    trace = []
    for _ in range(calls):
        try:
            trace.append(search(net, state, rng).tobytes())
        except SeedSearchExhausted:
            trace.append("exhausted")
        trace.append((state.threshold, state.escalations, state.samples_drawn))
    trace.append(rng.random(16).tobytes())
    return trace


class TestBlockedSeedSearch:
    """``generate_seed`` draws candidates in blocks; the reference draws one
    at a time.  Seeds, state and the stream afterwards must agree bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=3, max_size=4),
        block=st.sampled_from([1, 2, 3, 7, seeding._BLOCK]),
        col_num=st.integers(1, 2 * seeding._BLOCK + 3),
        bar=st.floats(0.02, 2.0),
        calls=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_draw_reference(self, sizes, block, col_num, bar, calls, seed):
        # Small blocks put hits, escalations and block ends at every row
        # offset; col_num runs below and above the block size.  A
        # single-output net has no finite bar to start from; every margin
        # misses a fixed one, which runs the search to its cap.
        net = random_network(sizes, seed, weight_scale=3.0)
        if net.output_size == 1:
            start = ThresholdState(threshold=bar, col_num=col_num)
        else:
            start = make_threshold_state(net, np.random.default_rng(seed), SeedingConfig(50, col_num))
            start.threshold *= bar
        assume(start.threshold > 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seeding, "_BLOCK", block)
            mp.setattr(seeding, "MAX_SEED_SAMPLES", 1500)
            got = _seed_search_trace(generate_seed, net, replace(start), np.random.default_rng(seed), calls)
            want = _seed_search_trace(reference_generate_seed, net, replace(start), np.random.default_rng(seed), calls)
        assert got == want

    @pytest.mark.parametrize("again", [True, False])
    @pytest.mark.parametrize("row", [seeding._BLOCK - 1, seeding._BLOCK])
    def test_hit_at_the_end_and_start_of_a_block(self, monkeypatch, row, again):
        # ramp_net's margin at x is x, so a bar just above draw `row`
        # accepts exactly that draw when it is the lowest so far.  With
        # `again`, a second call resumes just past the accepted draw and
        # runs on to its own hit or to a cap two blocks and more away.
        monkeypatch.setattr(seeding, "MAX_SEED_SAMPLES", 2 * seeding._BLOCK + 5)
        net = ramp_net()
        seed = next(
            s for s in range(10_000)
            if np.argmin(np.random.default_rng(s).uniform(0.0, 2.0, row + 1)) == row
        )
        draws = np.random.default_rng(seed).uniform(0.0, 2.0, row + 1)
        start = ThresholdState(threshold=float(np.nextafter(draws[row], np.inf)), col_num=10**6)
        calls = 2 if again else 1
        got = _seed_search_trace(generate_seed, net, replace(start), np.random.default_rng(seed), calls)
        want = _seed_search_trace(reference_generate_seed, net, replace(start), np.random.default_rng(seed), calls)
        assert got == want
        assert got[1][2] == row + 1

    @pytest.mark.parametrize("fail_at", [1, 11, 12, 70])
    def test_error_mid_search_leaves_state_as_reference(self, fail_at):
        # Margins are all 1.0 and the bar stays below it for 70 draws,
        # so the search escalates every 11 misses and never accepts.
        # Draw 12 escalates just before it fails; draw 70 is in block 2.
        class Boom(Exception):
            pass

        net = constant_margin_net(gap=1.0)
        states = []
        for module, judge, search in ((seeding, "_row_gap", generate_seed), (helpers, "margin", reference_generate_seed)):
            count = iter(range(1, fail_at + 1))
            original = getattr(module, judge)

            def failing(*args, original=original, count=count):
                if next(count) == fail_at:
                    raise Boom
                return original(*args)

            state = ThresholdState(threshold=0.5, col_num=10, escalations=2, samples_drawn=7)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, judge, failing)
                with pytest.raises(Boom):
                    search(net, state, np.random.default_rng(0))
            states.append(state)
        assert states[0] == states[1]
        assert states[0].samples_drawn == 7 + fail_at


class TestDefaults:
    def test_campaign_defaults(self):
        cfg = SeedingConfig()
        assert cfg.col_num == 1000
        assert cfg.sample_set_size == 1000
        assert seeding.ESCALATION_FACTOR == 1.1

    def test_make_threshold_state_uses_minimum(self):
        net = random_network([2, 5, 2], 31)
        samples, state = _sample_set_and_state(net, 4)
        assert len(samples) == 1000
        assert state.threshold == float(margin_batch(net, samples).min())

    def test_average_fallback_when_nonpositive(self):
        # Heavy-tailed margins: mostly ~0.001*x, occasionally ~100*(x-0.9).
        net = net_from_lists(
            weights=[[[1.0], [1.0]], [[100.0, 0.001], [0.0, 0.0]]],
            biases=[[-0.9, 0.0], [0.0, 0.0]],
            lower=[0.0],
            upper=[1.0],
        )
        samples, state = _sample_set_and_state(net, 2, threshold_strategy="average")
        margins = margin_batch(net, samples)
        assert margins.mean() - margins.std() <= 0  # the scenario this fallback exists for
        assert state.threshold == float(margins.min())
        assert state.threshold > 0


class TestDistributionEffect:
    def test_weak_seeds_have_lower_margins(self):
        net = random_network([4, 10, 10, 3], 2001)
        rng = np.random.default_rng(2001)
        random_margins = margin_batch(net, random_sample(net, rng, 200))
        state = make_threshold_state(net, rng, SeedingConfig(col_num=200))
        weak = [generate_seed(net, state, rng) for _ in range(200)]
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
