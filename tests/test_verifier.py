import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from achilles import (
    GridOutcome,
    VerdictKind,
    VerificationQuery,
    check_witness,
    classify,
    forward_batch,
    greedy_search,
    grid_oracle,
    interval_bounds,
    lipschitz_bound,
    margin,
    nn,
    random_network,
    random_sample,
    verify_local_robustness,
)
from achilles.verifier import _certification_gap, _propagate, _query_region
from helpers import flip_net, net_from_lists, rational_forward, zero_net


class TestIntervalBounds:
    def test_point_box_collapses_to_forward(self):
        net = random_network([2, 5, 3], 44)
        x = np.array([0.3, 0.8])
        lo, hi = interval_bounds(net, x, x)
        values = nn._point_values(net, x)
        assert np.allclose(lo, values, rtol=1e-9, atol=1e-12)
        assert np.allclose(hi, values, rtol=1e-9, atol=1e-12)
        assert (lo <= hi).all()

    def test_zero_net_bounds_are_biases(self):
        # Outward rounding widens a constant output by a few ulps, and
        # never inward.
        biased = net_from_lists(
            [[[0.0]], [[0.0], [0.0]]], [[0.0], [2.0, -1.0]], [0.0], [1.0]
        )
        for net, box, biases in (
            (zero_net(), ([0.0, 0.0], [1.0, 1.0]), np.array([0.0, 0.0])),
            (biased, ([0.0], [1.0]), np.array([2.0, -1.0])),
        ):
            lo, hi = interval_bounds(net, *box)
            assert (lo <= biases).all() and (hi >= biases).all()
            assert np.allclose(lo, biases, rtol=1e-14, atol=1e-300)
            assert np.allclose(hi, biases, rtol=1e-14, atol=1e-300)

    def test_sampled_points_stay_inside_enclosure(self):
        net = random_network([2, 4, 2], 45)
        lo, hi = interval_bounds(net, [0.0, 0.0], [1.0, 1.0])
        rng = np.random.default_rng(45)
        values = forward_batch(net, rng.uniform(0, 1, size=(10_000, 2)))
        assert (values >= lo - 1e-12).all()
        assert (values <= hi + 1e-12).all()

    def test_exact_outputs_stay_inside_enclosure(self):
        # Exact rational outputs, not float ones: the bound must hold in
        # real arithmetic.  Each net gets a random box, a point box
        # (lower == upper) at one random point, and points drawn inside
        # the box and at its corners.  A point box encloses a point that
        # float evaluation rounds to either side, which an enclosure that
        # is not rounded outward misses.
        rng = np.random.default_rng(60)
        for i in range(24):
            d = int(rng.integers(2, 6))
            shape = [d, int(rng.integers(8, 24)), int(rng.integers(8, 24)), 3]
            net = random_network(shape, 6000 + i, weight_scale=3.0)
            x = rng.uniform(0.0, 1.0, d)
            radius = rng.uniform(0.0, 0.2, d)
            lower, upper = np.maximum(x - radius, 0.0), np.minimum(x + radius, 1.0)
            corners = np.where(rng.integers(0, 2, size=(4, d)).astype(bool), upper, lower)
            inside = np.clip(lower + (upper - lower) * rng.random((4, d)), lower, upper)
            for box, points in (((x, x), [x]), ((lower, upper), [*corners, *inside])):
                lo, hi = interval_bounds(net, *box)
                for point in points:
                    exact = rational_forward(net.weights, net.biases, point)
                    assert all(Fraction(a) <= v <= Fraction(b) for a, v, b in zip(lo, exact, hi)), (i, point)

    def test_stacked_rows_have_single_box_bits(self):
        # A stack of boxes is bounded by per-row gemvs, so each row must
        # have the bits of its box bounded alone; a gemm over the stack
        # rounds differently.  Point boxes (lo == hi) are included, and a
        # third of the nets have integral weights, so signed zeros and
        # exact ties appear.
        rng = np.random.default_rng(61)
        for i in range(36):
            d = int(rng.integers(1, 12))
            hidden = [int(rng.integers(1, 13)) for _ in range(rng.integers(1, 4))]
            net = random_network([d, *hidden, int(rng.integers(1, 5))], 6100 + i, weight_scale=3.0)
            if i % 3 == 0:
                net = net_from_lists(
                    [np.round(w) for w in net.weights],
                    [np.round(b * 20) for b in net.biases],
                    net.input_lower,
                    net.input_upper,
                )
            n = int(rng.integers(1, 65))
            lo = rng.uniform(-1.0, 2.0, size=(n, d))
            hi = lo + rng.uniform(0.0, 0.5, size=(n, d))
            hi[::4] = lo[::4]
            stacked_lo, stacked_hi = _propagate(net._interval_layers, lo, hi)
            for row in range(n):
                single_lo, single_hi = interval_bounds(net, lo[row], hi[row])
                assert stacked_lo[row].tobytes() == single_lo.tobytes(), (i, row)
                assert stacked_hi[row].tobytes() == single_hi.tobytes(), (i, row)

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimensions"):
            interval_bounds(zero_net(), [0.0], [1.0])
        with pytest.raises(ValueError, match="matching"):
            interval_bounds(zero_net(), [0.0, 0.0], [1.0])

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            interval_bounds(flip_net(), [1.0], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, bad):
        # NaN fails the ordering check and would give all-NaN bounds.
        with pytest.raises(ValueError, match="finite"):
            interval_bounds(zero_net(), [bad, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            interval_bounds(zero_net(), [0.0, 0.0], [0.5, bad])


class TestQueryRegion:
    def test_clipped_to_box(self):
        # Dyadic coordinates so the expected bounds are float-exact.
        net = zero_net()
        lo, hi = _query_region(net, VerificationQuery.for_point(net, [0.25, 0.875], 0.5))
        assert np.array_equal(lo, [0.0, 0.375])
        assert np.array_equal(hi, [0.75, 1.0])

    def test_bounds_stay_within_delta(self):
        net = zero_net(lower=-10.0, upper=10.0)
        x0 = np.array([0.1, 0.3])
        lo, hi = _query_region(net, VerificationQuery.for_point(net, x0, 0.2))
        assert (np.abs(lo - x0) <= 0.2).all()
        assert (np.abs(hi - x0) <= 0.2).all()

    @settings(deadline=None)
    @given(
        dims=st.integers(1, 3),
        lower=st.floats(-1e6, 1e6),
        width=st.floats(0.0, 1e6),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        delta=st.floats(0.0, 1e6, exclude_min=True),
    )
    @example(dims=2, lower=-10.0, width=20.0, fractions=[0.505, 0.515, 0.0], delta=0.2)
    def test_every_corner_within_delta_and_inside_input_box(
        self, dims, lower, width, fractions, delta
    ):
        net = zero_net(sizes=(dims, 2, 2), lower=lower, upper=lower + width)
        x0 = np.minimum(lower + width * np.array(fractions[:dims]), net.input_upper)
        lo, hi = _query_region(net, VerificationQuery.for_point(net, x0, delta))
        for corner in itertools.product(*zip(lo, hi)):
            corner = np.array(corner)
            assert np.abs(corner - x0).max() <= delta
            assert net.contains(corner)

    def test_disjoint_ball_rejected(self):
        net = zero_net()
        with pytest.raises(ValueError, match="does not intersect"):
            _query_region(net, VerificationQuery.for_point(net, [5.0, 5.0], 0.5))


class TestCertificationGap:
    def test_rows_match_single_boxes(self):
        rng = np.random.default_rng(3)
        lo = rng.standard_normal((5, 4))
        hi = lo + rng.uniform(0, 1, size=(5, 4))
        gaps = _certification_gap(lo, hi, 2)
        assert gaps.shape == (5,)
        for row, gap in enumerate(gaps):
            assert _certification_gap(lo[row], hi[row], 2) == gap
            assert gap == lo[row, 2] - np.delete(hi[row], 2).max()

    def test_single_output_net_is_unsat(self):
        net = net_from_lists([[[1.0]], [[1.0]]], [[0.0], [0.0]], [0.0], [1.0])
        query = VerificationQuery.for_point(net, [0.5], 0.25)
        assert verify_local_robustness(net, query).kind is VerdictKind.UNSAT
        assert grid_oracle(net, query, spacing=0.01).outcome is GridOutcome.UNSAT


class TestVerify:
    def test_lipschitz_safe_radius_is_unsat_at_root(self):
        net = flip_net()
        # margin(0.1) = 0.8 > 2 * L * delta = 0.1: certification inevitable.
        assert margin(net, [0.1]) > 2 * lipschitz_bound(net) * 0.05
        verdict = verify_local_robustness(
            net, VerificationQuery.for_point(net, [0.1], 0.05)
        )
        assert verdict.kind is VerdictKind.UNSAT
        assert verdict.boxes_explored <= 3

    def test_flip_net_sat_with_witness_past_boundary(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.4], 0.2)
        verdict = verify_local_robustness(net, query)
        assert verdict.kind is VerdictKind.SAT
        assert verdict.witness[0] >= 0.5
        assert check_witness(net, query, verdict.witness)

    def test_unsat_survives_random_falsification(self):
        net = random_network([2, 6, 6, 2], 321)
        rng = np.random.default_rng(321)
        query = None
        verdict = None
        for _ in range(50):
            x0 = rng.uniform(0, 1, size=2)
            candidate = VerificationQuery.for_point(net, x0, 0.02, time_budget=10.0)
            result = verify_local_robustness(net, candidate)
            if result.kind is VerdictKind.UNSAT:
                query, verdict = candidate, result
                break
        assert verdict is not None, "no UNSAT query found to falsify"
        lo, hi = _query_region(net, query)
        points = rng.uniform(lo, hi, size=(100_000, 2))
        assert (np.argmax(forward_batch(net, points), axis=1) == query.label0).all()

    def test_budget_exhaustion(self):
        # The zero net never certifies (all outputs tie) and never
        # misclassifies; a tiny budget must stop the search.
        net = zero_net()
        query = VerificationQuery.for_point(net, [0.5, 0.5], 0.25, time_budget=0.05)
        verdict = verify_local_robustness(net, query)
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "budget"

    def test_precision_exhaustion(self):
        # Outputs (|x - 0.5|, 0): the tie at x = 0.5 breaks to label 0, so
        # no counter-example exists, yet every box holding 0.5 has a
        # certification gap of exactly 0 and is never certified.
        net = net_from_lists(
            [[[1.0], [-1.0]], [[1.0, 1.0], [0.0, 0.0]]],
            [[-0.5, 0.5], [0.0, 0.0]],
            lower=[0.0],
            upper=[1.0],
        )
        query = VerificationQuery.for_point(net, [0.5], 0.25, time_budget=30.0)
        verdict = verify_local_robustness(net, query)
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "precision"
        # The region is 0.5 wide; the floor is delta * 1e-4 = 2.5e-5, which
        # 15 halvings (0.5 / 2**15 ~ 1.5e-5) get under and 14 do not.  Only
        # the boxes that touch 0.5 split, two per level.
        assert verdict.max_depth == 15
        assert verdict.boxes_explored <= 4 * 15 + 1

    def test_nan_root_bound_is_not_a_certificate(self):
        # Output 0 is 4t*relu(x) - 4t*relu(x) + relu(x) - 0.95: finite at
        # every point, but its interval bound is inf - inf = NaN, and the
        # label flips at x = 0.95.  A NaN gap must keep the box, not
        # certify it.
        t = 5.85e307
        net = net_from_lists(
            [[[1.0]] * 9, [[t] * 4 + [-t] * 4 + [1.0], [0.0] * 9]],
            [[0.0] * 9, [-0.95, 0.0]],
            lower=[0.0],
            upper=[1.0],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            query = VerificationQuery.for_point(net, [0.94], 0.05)
            assert check_witness(net, query, [0.96])
            verdict = verify_local_robustness(net, query)
        assert verdict.kind is VerdictKind.SAT
        assert check_witness(net, query, verdict.witness)

    def test_label_consistency_checked(self):
        # flip_net labels 0.4 as class 1; every stage refuses label 0.
        net = flip_net()
        query = VerificationQuery(x0=np.array([0.4]), delta=0.1, label0=0)
        for stage in (_query_region, greedy_search, verify_local_robustness):
            with pytest.raises(ValueError, match="not the network's label"):
                stage(net, query)

    def test_nan_time_budget_rejected(self):
        # NaN compares False against every bound, so the budget check
        # inside the search would never fire.
        with pytest.raises(ValueError, match="time_budget"):
            VerificationQuery(x0=np.array([0.4]), delta=0.1, label0=0, time_budget=float("nan"))

    def test_infinite_time_budget_rejected(self):
        # With no time limit, a 10-input query that neither certifies nor
        # falsifies ends only at the precision floor: in effect, never.
        with pytest.raises(ValueError, match="time_budget"):
            VerificationQuery(x0=np.array([0.4]), delta=0.1, label0=0, time_budget=float("inf"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0_rejected(self, bad):
        # NaN fails every bound check, so the search would certify a NaN
        # centre UNSAT (it did on random_network([2, 8, 2], 3)).
        with pytest.raises(ValueError, match="x0 must be finite"):
            VerificationQuery(x0=np.array([bad, 0.5]), delta=0.1, label0=0)

    def test_ball_outside_box_rejected(self):
        net = flip_net()
        with pytest.raises(ValueError, match="intersect"):
            verify_local_robustness(
                net, VerificationQuery(x0=np.array([3.0]), delta=0.5, label0=0)
            )

    def test_gradient_corner_found_at_root(self):
        # On [0, 1]^10, out1 = s @ x - 4.99 with s = (1, -1, 1, -1, ...) and
        # out0 = 0: the label flips only at the corner c = (1, 0, 1, 0, ...),
        # where out1 is 0.01; every other corner has out1 <= -0.99.  The
        # gradient of out0 - out1 is -s, so the probed corner is c.
        signs = np.tile([1.0, -1.0], 5)
        net = net_from_lists(
            [np.eye(10), [np.zeros(10), signs]], [np.zeros(10), [0.0, -4.99]],
            lower=np.zeros(10), upper=np.ones(10),
        )
        query = VerificationQuery.for_point(net, np.full(10, 0.5), 0.5)
        assert query.label0 == 0
        verdict = verify_local_robustness(net, query)
        assert verdict.kind is VerdictKind.SAT
        assert verdict.boxes_explored == 1
        np.testing.assert_array_equal(verdict.witness, signs > 0)
        assert check_witness(net, query, verdict.witness)

    def test_gradient_corner_probe_is_reproducible(self):
        # The probe draws no random numbers, so a query repeats its kind,
        # boxes and witness bits.  These queries settle in under 1,000
        # boxes, far inside the budget.
        net = random_network([10, 16, 16, 3], 700)
        rng = np.random.default_rng(0)
        points = [random_sample(net, rng) for _ in range(8)][2:]
        sat_depths = []
        for x0 in points:
            query = VerificationQuery.for_point(net, x0, 0.02, time_budget=60.0)
            first, second = (verify_local_robustness(net, query) for _ in range(2))
            assert first.kind is not VerdictKind.UNKNOWN
            assert second.kind is first.kind
            assert second.boxes_explored == first.boxes_explored
            if first.kind is VerdictKind.SAT:
                assert check_witness(net, query, first.witness)
                assert second.witness.tobytes() == first.witness.tobytes()
                sat_depths.append(first.max_depth)
        # At least one witness lies below the root, after many probed boxes.
        assert sat_depths and max(sat_depths) > 0

    def test_stats_populated(self):
        net = flip_net()
        verdict = verify_local_robustness(
            net, VerificationQuery.for_point(net, [0.4], 0.2)
        )
        assert verdict.boxes_explored >= 1
        assert verdict.wall_time >= 0.0

    def test_agreement_with_grid_oracle(self):
        conflicts = []
        for seed in range(5):
            net = random_network([2, 6, 6, 2], 600 + seed, weight_scale=2.0)
            rng = np.random.default_rng(seed)
            for _ in range(10):
                x0 = rng.uniform(0, 1, size=2)
                delta = float(rng.uniform(0.02, 0.15))
                query = VerificationQuery.for_point(net, x0, delta, time_budget=10.0)
                verdict = verify_local_robustness(net, query)
                oracle = grid_oracle(net, query, spacing=delta / 15.0)
                if oracle.outcome is GridOutcome.SAT and verdict.kind is VerdictKind.UNSAT:
                    conflicts.append((seed, x0, delta))
                if oracle.outcome is GridOutcome.UNSAT and verdict.kind is VerdictKind.SAT:
                    conflicts.append((seed, x0, delta))
                if verdict.kind is VerdictKind.SAT:
                    assert check_witness(net, query, verdict.witness)
        assert conflicts == []


class TestGridOracle:
    def test_degenerate_region_with_positive_margin_is_unsat(self):
        # The input box is a single point, so the region degenerates to
        # one grid point and the realized spacing is zero.
        net = net_from_lists(
            [[[1.0]], [[1.0], [-1.0]]],
            [[0.0], [0.0, 1.0]],
            lower=[0.25],
            upper=[0.25],
        )
        query = VerificationQuery.for_point(net, [0.25], 0.5)
        assert margin(net, [0.25]) > 0
        result = grid_oracle(net, query, spacing=0.01)
        assert result.outcome is GridOutcome.UNSAT

    def test_flip_net_sat(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.4], 0.2)
        result = grid_oracle(net, query, spacing=0.01)
        assert result.outcome is GridOutcome.SAT
        assert check_witness(net, query, result.witness)

    def test_high_margin_unsat(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.1], 0.05)
        result = grid_oracle(net, query, spacing=0.001)
        assert result.outcome is GridOutcome.UNSAT

    def test_inconclusive_band(self):
        # No grid point flips, but the worst margin (0.1 at x=0.45) is
        # clearly below the certificate (realized spacing 0.2).
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.35], 0.1)
        result = grid_oracle(net, query, spacing=0.2)
        assert result.outcome is GridOutcome.INCONCLUSIVE

    def test_dimension_guard(self):
        net = zero_net(sizes=(4, 2, 2))
        query = VerificationQuery.for_point(net, [0.5] * 4, 0.1)
        with pytest.raises(ValueError, match="dimensions"):
            grid_oracle(net, query, spacing=0.05)

    @pytest.mark.parametrize(
        "sizes, spacing",
        [
            ((3, 2, 2), 1e-6),  # 500001**3 points
            ((3, 2, 2), 5e-324),  # the ratio overflows to infinity
            ((2, 2, 2), 0.5 / 2048),  # 2049**2 points, just past 2**22
        ],
    )
    def test_grid_size_is_capped(self, sizes, spacing):
        net = zero_net(sizes=sizes)
        query = VerificationQuery.for_point(net, [0.5] * sizes[0], 0.25)
        with pytest.raises(ValueError, match="grid points"):
            grid_oracle(net, query, spacing=spacing)

    def test_cap_admits_the_cli_default_grid(self):
        # The CLI default spacing delta / 50 gives 101**3 points.
        net = zero_net(sizes=(3, 2, 2))
        query = VerificationQuery.for_point(net, [0.5] * 3, 0.25)
        assert grid_oracle(net, query, spacing=0.25 / 50).outcome is GridOutcome.INCONCLUSIVE

    def test_spacing_must_be_positive(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.4], 0.1)
        with pytest.raises(ValueError, match="spacing"):
            grid_oracle(net, query, spacing=0.0)


class TestCheckWitness:
    def test_accepts_a_flip_inside_the_ball(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.4], 0.2)
        assert check_witness(net, query, [0.55])
        assert classify(net, [0.55]) == 0

    def test_rejects_non_flip(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.4], 0.2)
        assert not check_witness(net, query, [0.45])  # still label 1

    def test_rejects_distant_point(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.2], 0.1)
        assert classify(net, [0.8]) != query.label0
        assert not check_witness(net, query, [0.8])  # flips, but outside the ball

    def test_rejects_wrong_shape(self):
        net = flip_net()
        query = VerificationQuery.for_point(net, [0.4], 0.2)
        for point in ([0.55, 0.55], [[0.55]], 0.55):
            assert not check_witness(net, query, point)

    def test_rejects_a_flip_one_coordinate_beyond_delta(self):
        # Outputs (x + 1, 1 - x) on [-1, 1]^2: the label flips at x = 0.
        net = net_from_lists([[[1.0, 0.0]], [[1.0], [-1.0]]], [[1.0], [0.0, 2.0]], [-1.0, -1.0], [1.0, 1.0])
        query = VerificationQuery.for_point(net, [0.1, 0.0], 0.2)
        assert classify(net, [-0.05, 0.0]) != query.label0
        assert check_witness(net, query, [-0.05, 0.2])
        assert not check_witness(net, query, [-0.05, np.nextafter(0.2, 1.0)])

    def test_rejects_a_flip_outside_the_input_box(self):
        # Outputs (relu(x), 0.5 - relu(x)) on [0, 1]: every x < 0.25 has label 1.
        net = net_from_lists([[[1.0]], [[1.0], [-1.0]]], [[0.0], [0.0, 0.5]], [0.0], [1.0])
        query = VerificationQuery.for_point(net, [0.3], 0.4)
        assert classify(net, [-0.05]) != query.label0
        assert not check_witness(net, query, [-0.05])  # within delta, below the box
