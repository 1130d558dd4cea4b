import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from achilles import (
    NetworkFormatError,
    VerificationQuery,
    classify,
    format_float,
    format_network,
    forward_batch,
    gradient,
    harness,
    lipschitz_bound,
    load_network,
    margin,
    margin_batch,
    nn,
    parse_network,
    random_network,
    save_network,
    top_gap,
)
from achilles.verifier import _query_region
from helpers import (
    fd_gradient,
    net_from_lists,
    rational_argmax,
    rational_forward,
    rational_margin,
    zero_net,
)

MINIMAL_FILE = """\
relunet v1
2 2 2
0 0
1 1
0 0 0
0 0 0
0 0 0
0 0 0
"""


class TestNetworkInvariants:
    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError, match="hidden"):
            net_from_lists([[[1.0, 0.0]]], [[0.0]], [0, 0], [1, 1])

    def test_weight_shape_chain(self):
        with pytest.raises(ValueError, match="layer 1"):
            net_from_lists(
                [[[1.0, 0.0]], [[1.0, 1.0]]], [[0.0], [0.0]], [0, 0], [1, 1]
            )

    def test_bias_length(self):
        with pytest.raises(ValueError, match="bias"):
            net_from_lists([[[1.0]], [[1.0]]], [[0.0, 0.0], [0.0]], [0], [1])

    def test_bounds_ordering(self):
        with pytest.raises(ValueError, match="lower exceeds upper"):
            net_from_lists([[[1.0]], [[1.0]]], [[0.0], [0.0]], [2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            net_from_lists([[[math.nan]], [[1.0]]], [[0.0], [0.0]], [0.0], [1.0])

    @pytest.mark.parametrize(
        "weights, biases, lower, upper, message",
        [
            ([[[1.0]], [[1.0]]], [[0.0]], [0.0], [1.0], "pair up"),
            ([[1.0], [[1.0]]], [[0.0], [0.0]], [0.0], [1.0], "layer 0: weight matrix must be 2-D"),
            ([[[1.0]], [[1.0]]], [[0.0], [0.0]], [0.0, 0.0], [1.0, 1.0], "must each have 1 entries"),
            ([[[1.0]], [[1.0]]], [[0.0], [0.0]], [math.nan], [1.0], "input bounds must be finite"),
            ([[[1.0]], [[1.0]]], [[0.0], [0.0]], [0.0], [math.inf], "input bounds must be finite"),
        ],
        ids=["unpaired", "1-D-weight", "bounds-length", "nan-lower", "inf-upper"],
    )
    def test_malformed_parts_rejected(self, weights, biases, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            net_from_lists(weights, biases, lower, upper)

    def test_overflowing_box_width_rejected(self):
        with pytest.raises(ValueError, match="widths must be finite"):
            net_from_lists([[[1.0]], [[1.0]]], [[0.0], [0.0]], [-1e308], [1e308])

    def test_immutability(self):
        net = zero_net()
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0


class TestLoader:
    def test_minimal_net(self):
        net = parse_network(MINIMAL_FILE)
        assert net.layer_sizes == (2, 2, 2)
        assert np.array_equal(net.input_lower, [0.0, 0.0])

    def test_wrong_row_length_names_layer(self):
        bad = MINIMAL_FILE.replace("0 0 0\n0 0 0\n0 0 0\n0 0 0\n", "0 0 0\n0 0\n0 0 0\n0 0 0\n")
        with pytest.raises(NetworkFormatError, match=r"line 6: layer 0 neuron 1"):
            parse_network(bad)

    def test_bad_header(self):
        with pytest.raises(NetworkFormatError, match="line 1"):
            parse_network("relunet v2\n2 2 2\n")

    def test_non_finite_value(self):
        bad = MINIMAL_FILE.replace("0 0 0\n0 0 0\n0 0 0\n0 0 0\n", "0 nan 0\n0 0 0\n0 0 0\n0 0 0\n")
        with pytest.raises(NetworkFormatError, match="line 5"):
            parse_network(bad)

    def test_missing_bounds(self):
        with pytest.raises(NetworkFormatError, match="lower bounds"):
            parse_network("relunet v1\n2 2 2\n")

    def test_truncated_file(self):
        lines = MINIMAL_FILE.splitlines()[:-1]
        with pytest.raises(NetworkFormatError, match="unexpected end of file"):
            parse_network("\n".join(lines) + "\n")

    def test_trailing_content(self):
        with pytest.raises(NetworkFormatError, match="trailing"):
            parse_network(MINIMAL_FILE + "1 2 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty network file"),
            ("# a comment\n\n", "empty network file"),
            (MINIMAL_FILE.replace("2 2 2", "2 two 2"), "line 2: layer sizes must be integers"),
            (MINIMAL_FILE.replace("2 2 2", "2 2.5 2"), "line 2: layer sizes must be integers"),
            (MINIMAL_FILE.replace("2 2 2", "2 0 2"), "line 2: all layer sizes must be >= 1"),
            (MINIMAL_FILE.replace("0 0\n1 1", "0 2\n1 1"), "line 4: input lower bound exceeds upper"),
            (MINIMAL_FILE.replace("0 0\n1 1", "0 0\n1 one"), "line 4: input upper bounds: could not convert"),
        ],
        ids=["empty", "only-comments", "word-size", "fractional-size", "zero-size", "lower-above-upper",
             "unparseable-float"],
    )
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(NetworkFormatError, match=message):
            parse_network(text)

    def test_comments_and_blanks_ignored(self):
        commented = "# generated\n" + MINIMAL_FILE.replace(
            "2 2 2", "2 2 2  # sizes"
        ).replace("0 0\n1 1", "0 0\n\n1 1")
        assert parse_network(commented).layer_sizes == (2, 2, 2)

    def test_round_trip_byte_exact(self):
        net = random_network([3, 7, 5, 4], 11, input_bounds=(-2.5, 1.75))
        text = format_network(net)
        assert format_network(parse_network(text)) == text
        assert parse_network(text) == net

    def test_save_load_path(self, tmp_path):
        net = random_network([2, 4, 2], 3)
        path = tmp_path / "net.relunet"
        save_network(net, path)
        assert load_network(path) == net
        assert path.read_text(encoding="utf-8") == format_network(net)

    def test_seventeen_digit_literals_still_load(self):
        # Files once held 17 significant digits, such as 0.10000000000000001
        # for 0.1; they load to the net that the shortest form gives.
        net = random_network([3, 5, 2], 4, input_bounds=(-0.1, 0.3))
        text = format_network(net)
        old = "\n".join(
            line if i < 2 else " ".join(format(float(v), ".17g") for v in line.split())
            for i, line in enumerate(text.splitlines())
        ) + "\n"
        assert "-0.10000000000000001" in old and "-0.1 " in text
        assert parse_network(old) == net
        assert format_network(parse_network(old)) == text

    def test_load_takes_any_file_name(self, tmp_path):
        # A name holding a newline is still a path, not network text.
        net = random_network([2, 4, 2], 3)
        path = tmp_path / "two\nlines.relunet"
        save_network(net, path)
        assert load_network(path) == net
        assert load_network(str(path)) == net

    def test_deep_generated_net_matches_oracle_at_zero(self):
        # 5-50-...-50-5 with six hidden layers; forward at the zero point
        # is re-derived with exact rational arithmetic.
        net = random_network([5] + [50] * 6 + [5], 2024, input_bounds=(-1.0, 1.0))
        text = format_network(net)
        loaded = parse_network(text)
        assert loaded == net
        x = [0.0] * 5
        expected = rational_forward(
            [w.tolist() for w in loaded.weights],
            [b.tolist() for b in loaded.biases],
            x,
        )
        got = nn._point_values(loaded, x)
        assert np.allclose(got, [float(v) for v in expected], rtol=0, atol=1e-9)


class TestFloatText:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.225073858507201e-308)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    @example(0.1)
    def test_shortest_text_round_trips(self, x):
        assert format_float(x) == repr(x)
        assert format_float(np.float64(x)) == repr(x)
        # Through a network file: a weight and a bias of a 1-1-1 net.
        net = net_from_lists([[[x]], [[x]]], [[x], [x]], [0.0], [1.0])
        loaded = parse_network(format_network(net))
        for got, want in zip((*loaded.weights, *loaded.biases), (*net.weights, *net.biases)):
            assert got.tobytes() == want.tobytes()
        # Through runs.csv cells: a float column and a point column.
        record = harness.RunRecord(0, "r", (x, x), x, "sat", False, (x,), None, x)
        spec = harness.CampaignSpec(net_path="n", mode="r", delta=0.1, time_budget=1.0)
        report = harness.CampaignReport(spec, [record])
        with tempfile.TemporaryDirectory() as out:
            harness.report_write(report, out)
            back = harness.report_read(out).records[0]
        values = (back.seed_margin, *back.seed, *back.witness, back.time_ms)
        assert [v.hex() for v in values] == [x.hex()] * 5


class TestForward:
    def test_zero_net_all_outputs_zero(self):
        net = zero_net()
        x = [0.3, 0.9]
        assert np.array_equal(nn._point_values(net, x), [0.0, 0.0])
        assert margin(net, x) == 0.0
        assert classify(net, x) == 0

    def test_relu_definition(self):
        net = net_from_lists(
            [[[1.0]], [[1.0]]], [[0.0], [0.0]], [-5.0], [5.0]
        )
        assert nn._point_values(net, [-3.0])[0] == 0.0
        assert nn._point_values(net, [2.0])[0] == 2.0

    def test_dimension_mismatch(self):
        for evaluate in (nn._point_values, margin, classify):
            with pytest.raises(ValueError, match="shape"):
                evaluate(zero_net(), [0.1, 0.2, 0.3])
        for batch in ([[0.1, 0.2, 0.3]], [[0.1]], [0.1, 0.2]):
            with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
                forward_batch(zero_net(), batch)

    def test_seeded_net_matches_frozen_oracle_values(self):
        # Expected values computed once with the exact rational evaluator.
        net = random_network([2, 3, 3, 2], 42, input_bounds=(-1.0, 1.0))
        x = [0.5, -0.5]
        expected = (0.029475129883272205, 0.017409806080998888)
        assert np.allclose(nn._point_values(net, x), expected, rtol=0, atol=1e-12)
        assert classify(net, x) == 0
        assert abs(margin(net, x) - 0.012065323802273315) < 1e-12

    def test_batch_matches_single(self):
        # Every batch row is the row's own gemv per layer: the same bits.
        net = random_network([3, 6, 4], 7)
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, 1, size=(20, 3))
        batch = forward_batch(net, xs)
        for i, x in enumerate(xs):
            assert batch[i].tobytes() == nn._point_values(net, x).tobytes()


class TestMargin:
    def test_zero_net(self):
        assert margin(zero_net(), [0.5, 0.5]) == 0.0

    def test_opposed_outputs(self):
        net = net_from_lists(
            weights=[[[1.0]], [[1.0], [-1.0]]],
            biases=[[0.0], [0.0, 0.0]],
            lower=[0.0],
            upper=[2.0],
        )
        assert margin(net, [1.0]) == 2.0

    def test_single_output_margin_is_infinite(self):
        net = net_from_lists([[[1.0]], [[1.0]]], [[0.0], [0.0]], [0.0], [1.0])
        assert margin(net, [0.5]) == math.inf

    @settings(max_examples=50, deadline=None)
    @given(
        inputs=st.integers(1, 10),
        outputs=st.integers(1, 4),
        rows=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_of_a_batch_equals_each_row_margin(self, inputs, outputs, rows, seed):
        net = random_network([inputs, 6, outputs], seed)
        xs = np.random.default_rng(seed).uniform(0, 1, size=(rows, inputs))
        values = np.stack([nn._point_values(net, x) for x in xs])
        expected = [margin(net, x) for x in xs]
        assert top_gap(values).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        inputs=st.integers(1, 10),
        outputs=st.integers(1, 4),
        hidden=st.integers(1, 3),
        integral=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_point_margin_and_label_equal_forward(self, inputs, outputs, hidden, integral, seed):
        # The single-point path is a gemv per layer and margin takes its
        # gap in Python floats; every row of a batch, in C or Fortran
        # order, must give the same bits, label and gap, and so must a
        # one-row batch of any layout.  Integral weights make ties common.
        net = random_network([inputs] + [5] * hidden + [outputs], seed, weight_scale=3.0)
        if integral:
            net = net_from_lists(
                [np.round(w) for w in net.weights],
                [np.round(b * 20) for b in net.biases],
                net.input_lower,
                net.input_upper,
            )
        xs = np.random.default_rng(seed).uniform(-1, 2, size=(10, inputs))
        for batch in (xs, np.asfortranarray(xs)):
            values = forward_batch(net, batch)
            for x, row, gap, label in zip(xs, values, top_gap(values), np.argmax(values, axis=1)):
                assert row.tobytes() == nn._point_values(net, x).tobytes()
                assert repr(float(gap)) == repr(margin(net, x))
                assert label == classify(net, x)
        for x in xs:
            row = forward_batch(net, x[np.newaxis])[0]
            values = nn._point_values(net, x)
            assert values.tobytes() == row.tobytes()
            assert repr(margin(net, x)) == repr(float(top_gap(values))) == repr(float(top_gap(row)))
            assert classify(net, x) == int(np.argmax(values)) == int(np.argmax(row))
            views = {
                "block row": np.stack([x, x, x])[1],
                "F-order row": np.asfortranarray(np.stack([x, x, x]))[1],
                "stride 2": np.repeat(x, 2)[::2],
                "negative stride": x[::-1].copy()[::-1],
            }
            for name, view in views.items():
                assert np.array_equal(view, x), name
                assert nn._point_values(net, view).tobytes() == row.tobytes(), name
                assert forward_batch(net, view[np.newaxis])[0].tobytes() == row.tobytes(), name

    def test_batch_rows_equal_point_path_on_decision_boundaries(self):
        # Bisect segments between differently labelled points down to
        # adjacent floats, so both ends sit on a decision boundary where
        # one rounding in the last bit can flip the label, so a batch that
        # rounds unlike the point path disagrees with it here.
        checked = 0
        for i in range(20):
            net = random_network([2, 24, 24, 2], 7000 + i, weight_scale=3.0)
            points = []
            for a, b in np.random.default_rng(i).uniform(0, 1, size=(40, 2, 2)):
                label_a = classify(net, a)
                if classify(net, b) == label_a:
                    continue
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    if np.array_equal(mid, a) or np.array_equal(mid, b):
                        break
                    if classify(net, mid) == label_a:
                        a = mid
                    else:
                        b = mid
                points += [a, b]
            if points:
                xs = np.stack(points)
                assert np.argmax(forward_batch(net, xs), axis=1).tolist() == [classify(net, x) for x in xs]
                assert [repr(float(m)) for m in margin_batch(net, xs)] == [repr(margin(net, x)) for x in xs]
            checked += len(points)
        assert checked >= 100

    def test_sampled_margins_match_rational_oracle(self):
        net = random_network([2, 4, 3], 13)
        rng = np.random.default_rng(5)
        for x in rng.uniform(0, 1, size=(10, 2)):
            expected = rational_margin(
                rational_forward(
                    [w.tolist() for w in net.weights],
                    [b.tolist() for b in net.biases],
                    x,
                )
            )
            assert abs(margin(net, x) - float(expected)) < 1e-9


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


class TestRowGap:
    """``margin`` takes the gap of its row in Python floats; it must give
    ``top_gap``'s bits on every row, the awkward ones included."""

    @pytest.mark.parametrize(
        "row",
        [
            [0.5],
            [1.0, 1.0],
            [0.0, -0.0],
            [-0.0, 0.0],
            [3.0, -0.0, 0.0],
            [2.0, 1.0, 2.0, -5.0],
            [math.inf, 1.0],
            [math.inf, math.inf],
            [-math.inf, -math.inf],
            [1.0, -math.inf],
            [math.inf, -math.inf, 0.0],
            [math.nan, 1.0],
            [1.0, math.nan],
            [5.0, 4.0, math.nan],
            [math.nan, 4.0, 5.0, 1.0],
            [1e308, -1e308],
            [math.inf, -math.inf],
            [-math.inf, 1.0],
            [0.25, 1.5],
            [1.5, 0.25],
        ],
    )
    def test_hand_built_rows(self, row):
        values = np.array(row)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = nn._row_gap(values), float(top_gap(values))
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "out_weights",
        [
            # Both top outputs overflow to inf: the gap is inf - inf.
            [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],
            # 0 * inf puts a NaN after an inf and a -inf.
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
        ],
    )
    def test_overflowing_net(self, out_weights):
        net = net_from_lists(
            [[[1e308], [-1e308]], out_weights],
            [[0.0, 0.0], [0.0] * len(out_weights)],
            [1.0],
            [2.0],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            row = forward_batch(net, [[2.0]])[0]
            got = margin(net, [2.0])
            want = float(top_gap(row))
        assert math.isnan(got)
        assert _bits(got) == _bits(want)


class TestClassify:
    def test_argmax(self):
        net = net_from_lists(
            [[[0.0]], [[0.0], [0.0]]], [[0.0], [3.0, 1.0]], [0.0], [1.0]
        )
        assert classify(net, [0.5]) == 0

    def test_tie_breaks_low(self):
        net = net_from_lists(
            [[[0.0]], [[0.0], [0.0]]], [[0.0], [1.0, 1.0]], [0.0], [1.0]
        )
        assert classify(net, [0.5]) == 0
        assert margin(net, [0.5]) == 0.0

    def test_agrees_with_oracle_away_from_ties(self):
        net = random_network([3, 5, 4], 99)
        rng = np.random.default_rng(17)
        points = rng.uniform(0, 1, size=(100, 3))
        labels = np.argmax(forward_batch(net, points), axis=1)
        margins = margin_batch(net, points)
        for x, got, m in zip(points, labels, margins):
            if m <= 1e-9:
                continue
            values = rational_forward(
                [w.tolist() for w in net.weights],
                [b.tolist() for b in net.biases],
                x,
            )
            assert got == rational_argmax(values)


class TestGradient:
    def test_zero_net(self):
        assert np.array_equal(gradient(zero_net(), [0.5, 0.5], 0), [0.0, 0.0])

    def test_relu_active_inactive(self):
        net = net_from_lists([[[1.0]], [[1.0]]], [[0.0], [0.0]], [-5.0], [5.0])
        assert np.array_equal(gradient(net, [2.0], 0), [1.0])
        assert np.array_equal(gradient(net, [-2.0], 0), [0.0])

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            gradient(zero_net(), [0.5, 0.5], 2)

    def test_matches_finite_differences(self):
        net = random_network([2, 3, 2], 21)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 5:
            x = rng.uniform(0, 1, size=2)
            if _min_preactivation(net, x) <= 1e-6:
                continue
            for target in range(net.output_size):
                got = gradient(net, x, target)
                want = fd_gradient(net, x, target)
                assert np.abs(got - want).max() < 1e-4
            checked += 1


def _min_preactivation(net, x):
    a = np.asarray(x, dtype=np.float64)
    worst = math.inf
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        if k == len(net.weights) - 1:
            break
        worst = min(worst, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return worst


class TestLipschitzBound:
    def test_zero_net(self):
        assert lipschitz_bound(zero_net()) == 0.0

    def test_scalar_chain(self):
        net = net_from_lists([[[2.0]], [[3.0]]], [[0.0], [0.0]], [0.0], [1.0])
        assert lipschitz_bound(net) == 6.0

    def test_sampled_ratio_never_exceeds_bound(self):
        net = random_network([3, 6, 6, 3], 8)
        bound = lipschitz_bound(net)
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 1, size=(1000, 3))
        ys = rng.uniform(0, 1, size=(1000, 3))
        diffs = np.abs(forward_batch(net, xs) - forward_batch(net, ys)).max(axis=1)
        dists = np.abs(xs - ys).max(axis=1)
        keep = dists > 0
        assert (diffs[keep] <= bound * dists[keep]).all()


class TestContractionProperties:
    @pytest.mark.parametrize(
        "a,b",
        [(-1.0, -2.0), (1.0, 2.0), (-1.0, 2.0), (1.0, -2.0), (0.0, 0.0), (0.0, -1.0), (0.0, 1.0)],
    )
    def test_relu_contraction_sign_cases(self, a, b):
        assert abs(max(0.0, a) - max(0.0, b)) <= abs(a - b)

    @given(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
    def test_relu_contraction_random(self, a, b):
        assert abs(max(0.0, a) - max(0.0, b)) <= abs(a - b)

    def test_margin_continuity(self):
        net = random_network([2, 5, 3], 31)
        bound = lipschitz_bound(net)
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 1, size=(500, 2))
        ys = rng.uniform(0, 1, size=(500, 2))
        m_x = margin_batch(net, xs)
        m_y = margin_batch(net, ys)
        dists = np.abs(xs - ys).max(axis=1)
        assert (np.abs(m_x - m_y) <= 2 * bound * dists + 1e-12).all()


class TestPerturbationRegion:
    # The perturbation region of a point is the verifier's query box, so
    # a bad radius or centre is refused when the query is built.
    @pytest.mark.parametrize("radius", [-0.5, math.nan])
    def test_negative_or_nan_radius_rejected(self, radius):
        net = zero_net()
        with pytest.raises(ValueError, match="delta must be positive"):
            _query_region(net, VerificationQuery.for_point(net, [0.5, 0.5], radius))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_center_rejected(self, bad):
        # NaN fails every comparison, so the bounds would come back NaN.
        with pytest.raises(ValueError, match="x0 must be finite"):
            _query_region(
                zero_net(), VerificationQuery(x0=np.array([bad, 0.5]), delta=0.1, label0=0)
            )
