import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from achilles import (
    AttackConfig,
    attack,
    attacks,
    classify,
    export_seed_list,
    fgsm_step,
    gradient,
    lipschitz_bound,
    random_network,
    run_attack_campaign,
)
from achilles.seeding import SeedingConfig
from helpers import (
    dominate_class,
    flip_net,
    reference_attack,
    reference_gradient,
    zero_net,
)


class TestFgsmStep:
    def test_zero_gradient_leaves_point_alone(self):
        net = zero_net()
        x = np.array([0.3, 0.7])
        assert np.array_equal(fgsm_step(net, x, 0, 0.1), x)

    def test_moves_against_winning_output(self):
        # At 0.45 the winner is output 1 (value 1 - x); its gradient is
        # -1, so the step increases x.
        net = flip_net()
        stepped = fgsm_step(net, [0.45], 1, 0.1)
        assert stepped[0] == 0.55

    def test_clips_to_box(self):
        # Dyadic coordinates keep the expected positions float-exact.
        net = flip_net()
        stepped = fgsm_step(net, [0.75], 0, 0.125)  # output 0 grows with x
        assert stepped[0] == 0.625
        stepped = fgsm_step(net, [0.25], 1, 0.125)
        assert stepped[0] == 0.375
        at_edge = fgsm_step(net, [1.0], 1, 0.125)
        assert at_edge[0] == 1.0  # wants to exceed 1.0, clipped back
        at_floor = fgsm_step(net, [0.0625], 0, 0.125)
        assert at_floor[0] == 0.0  # wants to go below 0.0, clipped back

    def test_each_coordinate_moves_by_eps_or_zero(self):
        net = random_network([3, 8, 3], 5, input_bounds=(-10.0, 10.0))
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=3)
            label = classify(net, x)
            moved = np.abs(fgsm_step(net, x, label, 0.05) - x)
            # one float rounding per coordinate
            assert all(d == 0.0 or abs(d - 0.05) < 1e-15 for d in moved)


class TestAttack:
    def test_zero_net_fails(self):
        result = attack(zero_net(), [0.5, 0.5], AttackConfig(eps=0.1, epo=1))
        assert not result.success
        assert result.adversarial is None
        assert result.steps_used == 1

    def test_flip_net_single_step(self):
        net = flip_net()
        result = attack(net, [0.45], AttackConfig(eps=0.1, epo=1))
        assert result.success
        assert result.steps_used == 1
        assert classify(net, result.adversarial) == 0

    def test_high_margin_guaranteed_failure(self):
        base = random_network([2, 6, 2], 61)
        cfg = AttackConfig(eps=0.01, epo=3)
        net = dominate_class(
            base, target_margin=2 * lipschitz_bound(base) * cfg.eps * cfg.epo + 1.0
        )
        result = attack(net, [0.5, 0.5], cfg)
        assert not result.success

    def test_perturbation_accounting(self):
        net = random_network([4, 12, 3], 63)
        rng = np.random.default_rng(63)
        eps = 0.03
        for _ in range(10):
            x0 = rng.uniform(0, 1, size=4)
            label0 = classify(net, x0)
            x = x0
            for k in range(1, 6):
                x = fgsm_step(net, x, label0, eps)
                assert np.abs(x - x0).max() <= k * eps * (1 + 1e-9)

    def test_adversarial_revalidates(self):
        net = random_network([3, 10, 3], 64)
        rng = np.random.default_rng(64)
        successes = 0
        for _ in range(50):
            x = rng.uniform(0, 1, size=3)
            result = attack(net, x, AttackConfig(eps=0.1, epo=5))
            if result.success:
                successes += 1
                assert classify(net, result.adversarial) != classify(net, x)
                assert net.contains(result.adversarial)
        assert successes > 0


class TestOnePassPerStep:
    """``attack`` reuses each stepped point's forward pass for the next
    gradient; the reference runs ``gradient`` and ``classify`` apart.
    Both must agree bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=3),
        outputs=st.integers(1, 4),
        scale=st.floats(0.5, 3.0),
        eps=st.floats(1e-3, 0.5),
        epo=st.integers(1, 6),
        on_edge=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_two_pass_reference(self, sizes, outputs, scale, eps, epo, on_edge, seed):
        net = random_network(sizes + [outputs], seed, weight_scale=scale, input_bounds=(-1.0, 1.0))
        rng = np.random.default_rng(seed)
        x = rng.uniform(net.input_lower, net.input_upper)
        if on_edge:
            # Each coordinate stays inside, or sits on its lower or upper bound.
            side = rng.integers(0, 3, size=x.shape)
            x = np.where(side == 1, net.input_lower, np.where(side == 2, net.input_upper, x))
        config = AttackConfig(eps=eps, epo=epo)
        got, want = attack(net, x, config), reference_attack(net, x, config)
        assert (got.success, got.steps_used) == (want.success, want.steps_used)
        if want.success:
            assert got.adversarial.tobytes() == want.adversarial.tobytes()
        else:
            assert got.adversarial is None
        for label in range(outputs):
            assert gradient(net, x, label).tobytes() == reference_gradient(net, x, label).tobytes()


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(eps=0.0, epo=1)
        with pytest.raises(ValueError):
            AttackConfig(eps=0.1, epo=0)


class TestCampaign:
    def test_zero_net_rate_zero_for_both_selections(self):
        net = zero_net()
        config, seeding = AttackConfig(eps=0.1, epo=2), SeedingConfig(sample_set_size=50, col_num=20)
        assert run_attack_campaign(net, 20, config, "r", 0, seeding).rate == 0.0
        # Every margin is 0, a bar no draw can beat, so "b" has no seeds.
        with pytest.raises(ValueError, match="seed threshold must be finite and positive, got 0.0"):
            run_attack_campaign(net, 20, config, "b", 0, seeding)

    def test_flip_net_rate_one_when_budget_covers_box(self):
        # eps * epo = 0.6 > 0.5, the farthest distance to the flip point.
        net = flip_net()
        cfg = AttackConfig(eps=0.15, epo=4)
        seeding = SeedingConfig(sample_set_size=100, col_num=50)
        for selection in ("r", "b"):
            rate = run_attack_campaign(net, 50, cfg, selection, 1, seeding).rate
            assert rate == 1.0

    def test_weak_seeds_lift_success_rate(self):
        net = random_network([10, 16, 16, 3], 7000)
        cfg = AttackConfig(eps=0.02, epo=4)
        seeding = SeedingConfig(sample_set_size=500, col_num=300)
        rate_r = run_attack_campaign(net, 200, cfg, "r", 0, seeding).rate
        rate_b = run_attack_campaign(net, 200, cfg, "b", 0, seeding).rate
        assert rate_b > rate_r

    def test_reproducible(self):
        net = random_network([4, 8, 3], 71)
        cfg = AttackConfig(eps=0.05, epo=3)
        a = run_attack_campaign(net, 30, cfg, "b", 9)
        b = run_attack_campaign(net, 30, cfg, "b", 9)
        assert a.rate == b.rate
        assert all(np.array_equal(x, y) for x, y in zip(a.seeds, b.seeds))

    def test_refuses_when_no_weak_seed_exists(self, monkeypatch):
        # Single-output head: margins are infinite, so no finite seed
        # threshold exists; selection "b" refuses before any seed search
        # or attack instead of attacking random points.
        def never(*args):
            raise AssertionError("called")

        monkeypatch.setattr(attacks, "generate_seed", never)
        monkeypatch.setattr(attacks, "attack", never)
        net = random_network([2, 4, 1], 3)
        seeding = SeedingConfig(sample_set_size=20, col_num=10)
        with pytest.raises(ValueError, match="seed threshold must be finite and positive, got inf"):
            run_attack_campaign(net, 5, AttackConfig(eps=0.1, epo=1), "b", 0, seeding)

    def test_input_validation(self):
        net = zero_net()
        with pytest.raises(ValueError, match="n_inputs"):
            run_attack_campaign(net, 0, AttackConfig(eps=0.1, epo=1), "r", 0)
        with pytest.raises(ValueError, match="selection"):
            run_attack_campaign(net, 5, AttackConfig(eps=0.1, epo=1), "x", 0)


class TestSeedListExport:
    def test_round_trip_by_parsing(self):
        points = [np.array([0.5, 0.25]), np.array([0.125, 1.0])]
        text = export_seed_list(points)
        lines = text.strip().splitlines()
        parsed = [np.array([float(v) for v in line.split()]) for line in lines]
        assert all(np.array_equal(a, b) for a, b in zip(parsed, points))

    def test_empty(self):
        assert export_seed_list([]) == ""
