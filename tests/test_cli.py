import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import achilles
from achilles import cli, load_network, save_network, seeding
from achilles.cli import main
from helpers import constant_margin_net, flip_net, zero_net


@pytest.fixture
def flip_net_path(tmp_path):
    path = tmp_path / "flip.relunet"
    save_network(flip_net(), path)
    return str(path)


def run_cli(*argv):
    """Run ``achilles`` in a child process: what a user's shell would see."""
    env = dict(os.environ, PYTHONPATH=str(Path(achilles.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "achilles.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


def assert_refused_without_traceback(done):
    assert done.returncode == 1
    assert done.stderr.startswith("achilles: ")
    assert "Traceback" not in done.stderr


class TestGenNet:
    def test_writes_parsable_file(self, tmp_path, capsys):
        out = tmp_path / "net.relunet"
        code = main(["gen-net", "--shape", "2,8,8,2", "--seed", "5", "--out", str(out)])
        assert code == 0
        net = load_network(out)
        assert net.layer_sizes == (2, 8, 8, 2)

    def test_stdout_output(self, capsys):
        assert main(["gen-net", "--shape", "2,4,2", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("relunet v1")

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.net", tmp_path / "b.net"
        main(["gen-net", "--shape", "3,5,3", "--seed", "9", "--out", str(a)])
        main(["gen-net", "--shape", "3,5,3", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_bad_shape_is_usage_error(self, capsys):
        assert main(["gen-net", "--shape", "2,x,2"]) == 1

    def test_too_few_layers_is_usage_error(self, capsys):
        assert main(["gen-net", "--shape", "2,3"]) == 1
        assert "need at least input, one hidden and output sizes" in capsys.readouterr().err

    def test_unallocatable_shape_is_usage_error(self):
        # A 10**8 x 10**8 weight matrix needs 71 PiB, past the 128 TiB
        # x86-64 user address space, so numpy refuses it at once.
        done = run_cli("gen-net", "--shape", "100000000,100000000,2")
        assert_refused_without_traceback(done)
        assert "Unable to allocate" in done.stderr


class TestVerify:
    def test_find_campaign_writes_reports(self, flip_net_path, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", "bg", "--delta", "0.2",
                "--find", "3", "--seed", "1", "--out", str(out),
                "--sample-set-size", "100", "--col-num", "50",
            ]
        )
        assert code == 0
        assert (out / "runs.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sat_total"] == 3
        assert "rate=" in capsys.readouterr().out

    def test_repeats_write_mean_summary(self, flip_net_path, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", "b", "--delta", "0.2",
                "--find", "2", "--repeats", "2", "--seed", "3", "--out", str(out),
                "--sample-set-size", "50", "--col-num", "20",
            ]
        )
        assert code == 0
        assert (out / "repeat_0" / "runs.csv").exists()
        assert (out / "repeat_1" / "runs.csv").exists()
        top = json.loads((out / "summary.json").read_text())
        assert len(top["repeats"]) == 2
        assert "rate" in top["mean"]

    def test_zero_repeats_is_usage_error(self, flip_net_path, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", "r", "--delta", "0.1",
                "--find", "1", "--repeats", "0", "--out", str(out),
            ]
        )
        assert code == 1
        assert "--repeats must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, flip_net_path, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", "r", "--delta", "0.1",
                "--find", "1", "--seed", "-1", "--out", str(out),
            ]
        )
        assert code == 1
        assert "rng_seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_and_find_are_exclusive(self, flip_net_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "verify", "--net", flip_net_path, "--mode", "r", "--delta", "0.1",
                    "--budget", "1", "--find", "2", "--out", str(tmp_path / "x"),
                ]
            )
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag", ["--budget", "--timeout"])
    def test_nan_time_limit_is_usage_error(self, flag, flip_net_path, tmp_path):
        # Runs in a child process with a deadline: a NaN budget that slips
        # through validation makes the campaign loop forever.
        stop = [] if flag == "--budget" else ["--find", "1"]
        done = run_cli(
            "verify", "--net", flip_net_path, "--mode", "r", "--delta", "0.1",
            flag, "nan", *stop, "--out", str(tmp_path / "r"),
        )
        assert done.returncode == 1
        assert "must be" in done.stderr

    @pytest.mark.parametrize("mode", ["r", "b", "bg"])
    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_usage_error(self, mode, delta, flip_net_path, tmp_path, capsys):
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", mode, "--delta", delta,
                "--find", "1", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        assert "delta must be positive and finite" in capsys.readouterr().err

    def test_zero_col_num_is_usage_error(self, flip_net_path, tmp_path, capsys):
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", "b", "--delta", "0.1",
                "--find", "1", "--col-num", "0", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        assert "col_num must be positive" in capsys.readouterr().err

    def test_single_output_net_is_usage_error(self, tmp_path, capsys):
        # Every margin of a single-output net is infinite, so weak seeding
        # has no finite threshold and must refuse at once instead of
        # drawing its sampling cap for each run, under either strategy.
        net = tmp_path / "one.relunet"
        assert main(["gen-net", "--shape", "2,4,1", "--out", str(net)]) == 0
        capsys.readouterr()
        for strategy in ("minimum", "average"):
            code = main(
                [
                    "verify", "--net", str(net), "--mode", "bg", "--delta", "0.1",
                    "--find", "1", "--strategy", strategy, "--out", str(tmp_path / strategy),
                ]
            )
            assert code == 1, strategy
            assert "seed threshold must be finite" in capsys.readouterr().err, strategy

    def test_zero_net_weak_mode_is_usage_error(self, tmp_path, capsys):
        # Every margin of the zero net is 0, a bar no draw can beat: the
        # campaign is refused before its first run, not run as errors.
        net = tmp_path / "zero.relunet"
        save_network(zero_net(), net)
        out = tmp_path / "r"
        code = main(
            [
                "verify", "--net", str(net), "--mode", "b", "--delta", "0.1",
                "--find", "2", "--out", str(out),
            ]
        )
        assert code == 1
        assert "seed threshold must be finite and positive, got 0.0" in capsys.readouterr().err
        assert not (out / "runs.csv").exists()

    def test_missing_net_file_is_data_error(self, tmp_path, capsys):
        code = main(
            [
                "verify", "--net", str(tmp_path / "missing.net"), "--mode", "r",
                "--delta", "0.1", "--find", "1", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 2

    def test_corrupt_net_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("relunet v1\n2 2\n")
        code = main(
            [
                "verify", "--net", str(bad), "--mode", "r", "--delta", "0.1",
                "--find", "1", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 2

    def test_unwritable_out_fails_before_the_campaign(
        self, flip_net_path, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run_campaign", lambda *args, **kwargs: calls.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(
            [
                "verify", "--net", flip_net_path, "--mode", "r", "--delta", "0.1",
                "--budget", "3", "--out", str(taken),
            ]
        )
        assert code == 2
        assert calls == []
        assert "File exists" in capsys.readouterr().err

    def test_oversized_layer_is_data_error(self, tmp_path, capsys):
        # Four lines that declare 10**11 hidden neurons: parsing must run out
        # of rows instead of allocating the layer.
        bad = tmp_path / "huge.net"
        bad.write_text("relunet v1\n2 100000000000 2\n0 0\n1 1\n")
        code = main(["oracle", "--net", str(bad), "--delta", "0.1", "--x0", "0.5", "0.5"])
        assert code == 2
        assert "line 5: unexpected end of file, expected layer 0 neuron 0" in capsys.readouterr().err


class TestAttack:
    def test_prints_rate(self, flip_net_path, capsys):
        code = main(
            [
                "attack", "--net", flip_net_path, "--selection", "r",
                "--eps", "0.2", "--epo", "4", "--inputs", "20", "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rate=1.0000" in out

    def test_unallocatable_inputs_is_usage_error(self, flip_net_path):
        # 10**15 seed rows need 7.1 PiB, past the 128 TiB x86-64 user
        # address space, so numpy refuses them at once.
        done = run_cli(
            "attack", "--net", flip_net_path, "--selection", "r",
            "--eps", "0.1", "--epo", "2", "--inputs", "1000000000000000",
        )
        assert_refused_without_traceback(done)
        assert "Unable to allocate" in done.stderr

    def test_seed_export(self, flip_net_path, tmp_path, capsys):
        seeds_file = tmp_path / "seeds.txt"
        code = main(
            [
                "attack", "--net", flip_net_path, "--selection", "b",
                "--eps", "0.1", "--epo", "2", "--inputs", "5",
                "--seeds-out", str(seeds_file),
            ]
        )
        assert code == 0
        lines = seeds_file.read_text().strip().splitlines()
        assert len(lines) == 5

    def test_single_output_net_weak_selection_is_usage_error(self, tmp_path, capsys):
        # As in verify: no finite bar exists, so no weak seed does, and the
        # campaign must not attack random points in their place.
        net = tmp_path / "one.relunet"
        assert main(["gen-net", "--shape", "2,4,1", "--out", str(net)]) == 0
        capsys.readouterr()
        code = main(
            [
                "attack", "--net", str(net), "--selection", "b",
                "--eps", "0.1", "--epo", "2", "--inputs", "5",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "seed threshold must be finite and positive, got inf" in captured.err
        assert captured.out == ""

    def test_exhausted_seed_search_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # The margin is 1 everywhere, so the bar is 1 and a draw must
        # beat it by escalating, which a 10-draw cap never reaches.
        monkeypatch.setattr(seeding, "MAX_SEED_SAMPLES", 10)
        net = tmp_path / "flat.relunet"
        save_network(constant_margin_net(), net)
        code = main(
            [
                "attack", "--net", str(net), "--selection", "b",
                "--eps", "0.1", "--epo", "2", "--inputs", "5",
            ]
        )
        assert code == 1
        assert "no sample with margin below 1.0 in 10 draws" in capsys.readouterr().err

    def test_unwritable_seeds_out_fails_before_the_campaign(
        self, flip_net_path, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(
            cli, "run_attack_campaign", lambda *args, **kwargs: calls.append(args)
        )
        code = main(
            [
                "attack", "--net", flip_net_path, "--selection", "r",
                "--eps", "0.1", "--epo", "2", "--inputs", "3000",
                "--seeds-out", str(tmp_path / "missing" / "s.txt"),
            ]
        )
        assert code == 2
        assert calls == []
        assert "No such file or directory" in capsys.readouterr().err


class TestOracle:
    def test_sat_on_flip_net(self, flip_net_path, capsys):
        code = main(
            ["oracle", "--net", flip_net_path, "--delta", "0.2", "--x0", "0.4"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("sat ")

    def test_unsat_far_from_boundary(self, flip_net_path, capsys):
        code = main(
            [
                "oracle", "--net", flip_net_path, "--delta", "0.05",
                "--x0", "0.1", "--spacing", "0.001",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "unsat"

    @pytest.mark.parametrize("spacing", ["inf", "nan", "0"])
    def test_bad_spacing_is_usage_error(self, spacing, flip_net_path, capsys):
        code = main(
            [
                "oracle", "--net", flip_net_path, "--delta", "0.05",
                "--x0", "0.1", "--spacing", spacing,
            ]
        )
        assert code == 1
        assert "spacing must be positive and finite" in capsys.readouterr().err

    def test_oversized_grid_is_usage_error(self, tmp_path, capsys):
        # Spacing 1e-6 over a 0.5-wide 3-D region is 500001**3 points.
        net_path = tmp_path / "net.relunet"
        save_network(achilles.random_network([3, 4, 2], 1), net_path)
        code = main(
            [
                "oracle", "--net", str(net_path), "--delta", "0.25",
                "--x0", "0.5", "0.5", "0.5", "--spacing", "1e-6",
            ]
        )
        assert code == 1
        assert "grid points" in capsys.readouterr().err

    def test_nan_x0_is_usage_error(self, tmp_path, capsys):
        net_path = tmp_path / "net.relunet"
        save_network(achilles.random_network([2, 8, 2], 3), net_path)
        code = main(
            ["oracle", "--net", str(net_path), "--delta", "0.1", "--x0", "nan", "0.5"]
        )
        assert code == 1
        assert "x0 must be finite" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "r"])
        assert exc.value.code == 1

    def test_verify_defaults_are_the_library_defaults(self):
        args = cli._build_parser().parse_args(
            ["verify", "--net", "n", "--mode", "b", "--delta", "0.1", "--find", "1", "--out", "o"]
        )
        assert (args.timeout, args.sample_set_size, args.col_num, args.strategy) == (
            60.0, 1000, 1000, "minimum"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--net", "n", "--mode", "b", "--delta", "0.1", "--find", "1", "--out", "o",
             "--strategy", "median"],
            ["attack", "--net", "n", "--selection", "g", "--eps", "0.1", "--epo", "1", "--inputs", "1"],
        ],
        ids=["strategy", "selection"],
    )
    def test_unknown_choice_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err
