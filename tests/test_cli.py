"""Command-line interface tests, run in-process through main(argv)."""

import json
import warnings

import numpy as np
import pytest

from gausscap.active import active_sample
from gausscap.capacity import het_hom_general, holevo_general, hom_general_aligned
from gausscap.channels import (
    GaussianChannel,
    NoiseParams,
    block_form_channel,
    channel_from_json,
    channel_to_json,
)
from gausscap.decomposition import diagonal_channel_params
from gausscap.ensembles import EnsembleSpec, philox_stream
from gausscap.errors import NotBlockForm
from gausscap.cli import (
    EXIT_ENSEMBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNPHYSICAL,
    EXIT_USAGE,
    _rule_values,
    eval_rule,
    main,
)

G4 = 3.6096404744368116   # 5 log2 5 - 4 log2 4


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as err:   # argparse usage failures
        code = err.code
    out = capsys.readouterr().out
    return code, out


def write_channel(path, ch):
    path.write_text(channel_to_json(ch))
    return str(path)


class TestCapacity:
    def test_identity_mode_uniform(self, capsys):
        code, out = run(capsys, "capacity", "--lambdas", "1.0", "--power",
                        "1", "--method", "holevo", "--alloc", "uniform")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["bits"] == pytest.approx(2.0, abs=1e-12)
        assert report["allocation"] == [1.0]

    def test_default_waterfill_single_mode(self, capsys):
        code, out = run(capsys, "capacity", "--lambdas", "0.5", "--power",
                        "1")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["bits"] == pytest.approx(1.3774437510817343, abs=1e-9)
        assert report["mu"] is not None

    def test_lambda_rule_waterfills_every_mode(self, capsys):
        code, out = run(capsys, "capacity", "--lambdas-rule", "0.2+0.7*k/N",
                        "--N", "15", "--power", "15", "--method", "holevo",
                        "--alloc", "waterfill")
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["allocation"]) == 15
        assert all(p > 0 for p in report["allocation"])

    def test_channel_file(self, capsys, tmp_path):
        path = write_channel(tmp_path / "loss.json",
                             block_form_channel(np.array([[np.sqrt(0.49)]])))
        code, out = run(capsys, "capacity", "--channel", path, "--power",
                        "10", "--method", "holevo", "--alloc", "uniform")
        assert code == EXIT_OK
        assert json.loads(out)["bits"] == pytest.approx(3.873587660182979,
                                                        abs=1e-12)

    def test_unphysical_channel_file(self, capsys, tmp_path):
        bad = GaussianChannel(2.0 * np.eye(2), np.zeros((2, 2)),
                              NoiseParams())
        path = write_channel(tmp_path / "bad.json", bad)
        code, _ = run(capsys, "capacity", "--channel", path, "--power", "1",
                      "--alloc", "uniform")
        assert code == EXIT_UNPHYSICAL

    def test_general_channel_file(self, capsys, tmp_path):
        # an active sample is not block-form, so the CLI takes the general
        # formulas under uniform modulation and refuses what needs modes
        spec = EnsembleSpec(2, 2, 2, noise=NoiseParams(0.2, 0.05), sigma2=0.05)
        ch = active_sample(spec, philox_stream(9, 0))
        with pytest.raises(NotBlockForm):
            diagonal_channel_params(ch)
        path = write_channel(tmp_path / "active.json", ch)
        ch = channel_from_json((tmp_path / "active.json").read_text())
        P = 6.5
        V_mod = (P / 2) * np.eye(4)
        expected = {"holevo": holevo_general(ch, V_mod),
                    "het": het_hom_general(ch, V_mod, "het"),
                    "hom": hom_general_aligned(ch, P)}
        for method, bits in expected.items():
            code, out = run(capsys, "capacity", "--channel", path, "--power",
                            repr(P), "--method", method, "--alloc", "uniform")
            assert code == EXIT_OK
            report = json.loads(out)
            assert report["bits"] == bits
            assert report["allocation"] == [] and report["mu"] is None
        code, _ = run(capsys, "capacity", "--channel", path, "--power",
                      repr(P), "--method", "holevo", "--alloc", "waterfill")
        assert code == EXIT_INPUT
        code, _ = run(capsys, "capacity", "--channel", path, "--power",
                      repr(P), "--method", "classical", "--alloc", "uniform")
        assert code == EXIT_INPUT

    def test_default_alloc_follows_the_channel(self, capsys, tmp_path):
        # an unset --alloc water-fills a diagonalizable channel and splits a
        # general one uniformly; an explicit waterfill is still refused there
        spec = EnsembleSpec(2, 2, 2, noise=NoiseParams(0.3, 0.1), sigma2=0.05)
        general = write_channel(tmp_path / "active.json",
                                active_sample(spec, philox_stream(4, 0)))
        code, out = run(capsys, "capacity", "--channel", general, "--power", "5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alloc"] == "uniform" and report["allocation"] == []
        code, uniform = run(capsys, "capacity", "--channel", general, "--power",
                            "5", "--alloc", "uniform")
        assert json.loads(uniform)["bits"] == report["bits"]
        code, _ = run(capsys, "capacity", "--channel", general, "--power", "5",
                      "--alloc", "waterfill")
        assert code == EXIT_INPUT
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alloc": "waterfill"}))
        code, _ = run(capsys, "capacity", "--channel", general, "--power", "5",
                      "--config", str(cfg))
        assert code == EXIT_INPUT

        diagonal = write_channel(tmp_path / "loss.json",
                                 block_form_channel(np.diag([0.9, 0.5])))
        code, out = run(capsys, "capacity", "--channel", diagonal, "--power", "5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alloc"] == "waterfill" and report["mu"] is not None

    def test_infinite_water_level_is_null(self, capsys):
        # the holevo threshold of a noise-free mode at zero power is infinite
        code, out = run(capsys, "capacity", "--lambdas", "0.5", "--power", "0")
        assert code == EXIT_OK
        report = json.loads(out, parse_constant=pytest.fail)
        assert report["bits"] == 0.0 and report["mu"] is None

    @pytest.mark.parametrize("argv", [
        ["capacity", "--lambdas", "0.5", "--power", "nan"],
        ["capacity", "--lambdas", "0.5", "--power", "5", "--n", "inf"],
        ["capacity", "--lambdas", "0.5", "--power", "5", "--xi=-inf"],
        ["capacity", "--lambdas", "0.5,nan", "--power", "5"],
        ["capacity", "--lambdas-rule", "1e308*10*k", "--N", "2", "--power", "5"],
        ["sweep-modes", "--N-range", "1..2", "--power", "inf"],
        ["random", "--N", "1", "--mode", "mc", "--seed", "1", "--samples",
         "4", "--power", "nan"],
        ["random", "--N", "1", "--mode", "mc", "--seed", "1", "--samples",
         "4", "--power", "5", "--sigma2", "nan"],
    ], ids=["power", "n", "xi", "lambdas", "lambdas-rule", "sweep-power",
            "random-power", "sigma2"])
    def test_non_finite_numbers_are_input_errors(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == EXIT_INPUT and out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_is_unphysical(self, capsys):
        # the water level overflows double precision at lambda = 1e308
        code, out = run(capsys, "capacity", "--lambdas", "1e308", "--power",
                        "5")
        assert code == EXIT_UNPHYSICAL and out == ""

    def test_missing_channel_file(self, capsys, tmp_path):
        code, _ = run(capsys, "capacity", "--channel",
                      str(tmp_path / "nope.json"), "--power", "1")
        assert code == EXIT_INPUT

    def test_classical_needs_noise(self, capsys):
        code, _ = run(capsys, "capacity", "--lambdas", "1.0", "--power", "3",
                      "--method", "classical")
        assert code == EXIT_UNPHYSICAL

    def test_classical_with_noise(self, capsys):
        code, out = run(capsys, "capacity", "--lambdas", "1.0", "--xi", "1.0",
                        "--power", "3", "--method", "classical")
        assert code == EXIT_OK
        assert json.loads(out)["bits"] == pytest.approx(2.0, abs=1e-12)


class TestSweepModes:
    def test_golden_rows(self, capsys):
        code, out = run(capsys, "sweep-modes", "--N-range", "1..3", "--power",
                        "4", "--methods", "holevo,het", "--allocs",
                        "waterfill")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "N,method,alloc,bits"
        assert lines[1] == "1,holevo,waterfill,3.60964047444"
        assert lines[2] == "1,het,waterfill,2.32192809489"
        assert len(lines) == 7

    def test_identity_het_converges_upward(self, capsys):
        code, out = run(capsys, "sweep-modes", "--N-range", "1..64",
                        "--power", "15", "--methods", "het", "--allocs",
                        "uniform")
        assert code == EXIT_OK
        bits = [float(line.split(",")[-1])
                for line in out.strip().split("\n")[1:]]
        assert all(b < a for a, b in zip(bits[1:], bits))  # increasing
        assert bits[-1] < 15.0 / np.log(2.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_is_unphysical(self, capsys):
        # lambda_k P_k = 1e300 * 5e299 overflows to an infinite rate
        code, out = run(capsys, "sweep-modes", "--N-range", "1..2",
                        "--lambdas-rule", "1e300", "--power", "1e300",
                        "--methods", "het", "--allocs", "uniform")
        assert code == EXIT_UNPHYSICAL and out == ""

    def test_unknown_method_rejected(self, capsys):
        code, _ = run(capsys, "sweep-modes", "--N-range", "1..2", "--power",
                      "1", "--methods", "holevo,telepathy")
        assert code == EXIT_INPUT


class TestRandom:
    def test_analytic_golden_row(self, capsys):
        code, out = run(capsys, "random", "--N", "1", "--mode", "analytic",
                        "--power", "15", "--method", "het")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "N,K,M,sigma2,method,mode,bits,stderr"
        assert lines[1] == "1,1,1,0,het,analytic,2.82397162578,"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_is_unphysical(self, capsys):
        # g(x) computes inf - inf at P = 1e308
        code, out = run(capsys, "random", "--N", "2", "--mode", "analytic",
                        "--power", "1e308")
        assert code == EXIT_UNPHYSICAL and out == ""

    def test_mc_needs_seed(self, capsys):
        code, _ = run(capsys, "random", "--N", "1", "--mode", "mc",
                      "--samples", "50", "--power", "5")
        assert code == EXIT_USAGE

    def test_mc_row_carries_stderr(self, capsys):
        code, out = run(capsys, "random", "--N", "1", "--mode", "mc",
                        "--samples", "100", "--seed", "3", "--power", "5")
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        assert float(row[7]) > 0

    def test_mc_deterministic(self, capsys):
        args = ("random", "--N", "1..3", "--K", "N", "--M", "N", "--sigma2",
                "0.05", "--mode", "mc", "--samples", "60", "--seed", "12",
                "--power", "5", "--method", "hom")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_rule_expressions(self, capsys):
        code, out = run(capsys, "random", "--N", "2..3", "--K", "1", "--M",
                        "2*N", "--mode", "analytic", "--power", "5")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[:3] for r in rows] == [["2", "1", "4"], ["3", "1", "6"]]

    def test_rule_rejects_arbitrary_code(self, capsys):
        code, _ = run(capsys, "random", "--N", "2", "--K",
                      "__import__('os').getpid()", "--mode", "analytic",
                      "--power", "1")
        assert code == EXIT_INPUT

    def test_insufficient_environment(self, capsys):
        code, _ = run(capsys, "random", "--N", "1", "--K", "3", "--M", "1",
                      "--mode", "analytic", "--power", "1")
        assert code == EXIT_ENSEMBLE

    def test_dump_needs_mc(self, capsys, tmp_path):
        code, _ = run(capsys, "random", "--N", "1", "--mode", "analytic",
                      "--power", "1", "--dump-samples",
                      str(tmp_path / "s.csv"))
        assert code == EXIT_USAGE

    def test_dump_needs_single_configuration(self, capsys, tmp_path):
        code, _ = run(capsys, "random", "--N", "1..2", "--mode", "mc",
                      "--seed", "1", "--samples", "10", "--power", "1",
                      "--dump-samples", str(tmp_path / "s.csv"))
        assert code == EXIT_USAGE


class TestDensity:
    def test_uniform_density(self, capsys):
        code, out = run(capsys, "density", "--N", "1", "--K", "1", "--M", "1",
                        "--grid", "5")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,p_lambda"
        assert len(lines) == 6
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_grid_integral_close_to_one(self, capsys):
        code, out = run(capsys, "density", "--N", "2", "--K", "1", "--M", "2",
                        "--grid", "1001")
        assert code == EXIT_OK
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().split("\n")[1:]])
        integral = np.trapezoid(rows[:, 1], rows[:, 0])
        assert integral == pytest.approx(1.0, abs=1e-3)
        # a = b = 1 here, so the law is symmetric about 1/2
        assert np.allclose(rows[:, 1], rows[::-1, 1], atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_is_unphysical(self, capsys):
        # the Jacobi series overflows at lambda = 0 and 1 for these sizes
        code, out = run(capsys, "density", "--N", "200", "--K", "200", "--M",
                        "600", "--grid", "21")
        assert code == EXIT_UNPHYSICAL and out == ""

    def test_environment_too_small(self, capsys):
        code, _ = run(capsys, "density", "--N", "1", "--K", "2", "--M", "1")
        assert code == EXIT_ENSEMBLE

    @pytest.mark.parametrize("argv", [
        ["density", "--N", "600", "--K", "10", "--M", "600"],
        ["random", "--mode", "analytic", "--N", "600", "--K", "10", "--M",
         "600", "--power", "5"],
    ])
    def test_underflowing_jacobi_norm_is_unphysical(self, capsys, argv):
        # h_0 = exp(log h_0) underflows to 0.0 at a = b = 590
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_UNPHYSICAL and captured.out == ""
        assert "N=600 K=10 M=600" in captured.err


class TestPlumbing:
    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"power": 5.0, "method": "het"}))
        code, out = run(capsys, "capacity", "--lambdas", "1.0", "--config",
                        str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["method"] == "het"
        # explicit flag beats the config value
        code, out = run(capsys, "capacity", "--lambdas", "1.0", "--config",
                        str(cfg), "--method", "holevo", "--alloc", "uniform")
        assert json.loads(out)["bits"] == pytest.approx(
            6.0 * np.log2(6.0) - 5.0 * np.log2(5.0), abs=1e-9)

    def test_unknown_config_key_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"lambdas": "0.5", "power": 5, "powr": 7}))
        code = main(["capacity", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert "'powr'" in captured.err
        # a key of another subcommand is unknown here too
        cfg.write_text(json.dumps({"N_range": "1..2", "power": 5,
                                   "samples": 10}))
        code = main(["sweep-modes", "--config", str(cfg)])
        assert code == EXIT_INPUT and "'samples'" in capsys.readouterr().err

    def test_numeric_config_rule_sweeps_like_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "rule.json"
        cfg.write_text(json.dumps({"lambdas_rule": 0.9, "N_range": "1..2",
                                   "power": 3}))
        code, out = run(capsys, "sweep-modes", "--config", str(cfg))
        assert code == EXIT_OK
        assert (code, out) == run(capsys, "sweep-modes", "--lambdas-rule",
                                  "0.9", "--N-range", "1..2", "--power", "3")

    def test_numeric_config_rule_capacity_like_the_flag(self, capsys,
                                                        tmp_path):
        cfg = tmp_path / "rule.json"
        cfg.write_text(json.dumps({"lambdas_rule": 0.9, "N": 2, "power": 3}))
        code, out = run(capsys, "capacity", "--config", str(cfg))
        assert code == EXIT_OK
        assert (code, out) == run(capsys, "capacity", "--lambdas-rule", "0.9",
                                  "--N", "2", "--power", "3")

    @pytest.mark.parametrize("rule", [[0.5, 0.9], True, {"k": 1}])
    def test_non_numeric_config_rule_is_input_error(self, capsys, tmp_path,
                                                    rule):
        cfg = tmp_path / "rule.json"
        for command, key, extra in (
                ("sweep-modes", "lambdas_rule", {"N_range": "1..2"}),
                ("capacity", "lambdas_rule", {"N": 2}),
                ("random", "K", {"N": 2})):
            cfg.write_text(json.dumps(dict(extra, power=3, **{key: rule})))
            code = main([command, "--config", str(cfg)])
            captured = capsys.readouterr()
            assert code == EXIT_INPUT and captured.out == ""
            assert "unsupported token in rule" in captured.err

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out = run(capsys, "density", "--N", "1", "--K", "1", "--M", "1",
                        "--grid", "3", "--output", str(dest))
        assert code == EXIT_OK
        assert out == ""
        assert dest.read_text().startswith("lambda,p_lambda\n")

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _ = run(capsys, "capacity", "--lambdas", "1.0", "--power", "1",
                      "--frobnicate")
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_missing_power_is_usage_error(self, capsys):
        code, _ = run(capsys, "capacity", "--lambdas", "1.0")
        assert code == EXIT_USAGE


class TestEvalRule:
    def test_arithmetic(self):
        assert eval_rule("0.2+0.7*k/N", k=1, N=2) == pytest.approx(0.55)
        assert eval_rule("2*N", N=3) == 6

    def test_rejects_names_and_calls(self):
        with pytest.raises(ValueError):
            eval_rule("open('x')")
        with pytest.raises(ValueError):
            eval_rule("k**N", k=2, N=3)
        with pytest.raises(ValueError):
            eval_rule("q+1", k=1, N=2)

    def test_rejects_booleans(self):
        # Python parses True and False as constants, and bool is an int
        for expr in ("True", "k+False"):
            with pytest.raises(ValueError, match="unsupported token"):
                eval_rule(expr, k=1, N=2)

    def test_rejects_division_by_zero_and_non_finite_results(self):
        with pytest.raises(ValueError):
            eval_rule("1/(N-2)", N=2)
        with pytest.raises(ValueError):
            eval_rule("1e308*10-1e308*10")


RULES = ["0.2+0.7*k/N", "1-k/(2*N)", "0.9", "-0.1+k/N", "-(k-N)/N*0.3+0.1",
         "3*k*k/(N*N)/4", "(k+1)/(N+2)", "k/N/3+0.1*k-0.1*k", "2", "N/(N+1)",
         "+k/7-N/11+1", "1/k"]


class TestRuleValues:
    """_rule_values evaluates a rule over k = 1..N as one array."""

    @pytest.mark.parametrize("expr", RULES)
    def test_bit_identical_to_the_scalar_rule(self, expr):
        for N in range(1, 41):
            got = _rule_values(expr, N)
            want = [eval_rule(expr, k=k, N=N) for k in range(1, N + 1)]
            assert [type(v) for v in got] == [float] * N
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_empty_range(self):
        assert _rule_values("0.2+0.7*k/N", 0) == []
        assert _rule_values("q", 0) == []

    @pytest.mark.parametrize("expr", ["1/(k-2)", "q+1", "1e307*k",
                                      "1/(1/(k-3))", "1e308*k*10-1e308*k*10",
                                      "k**2", "(k"])
    def test_errors_match_the_scalar_rule(self, expr, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as scalar:
                [eval_rule(expr, k=k, N=30) for k in range(1, 31)]
            with pytest.raises(ValueError) as array:
                _rule_values(expr, 30)
        assert str(array.value) == str(scalar.value)
        assert caught == []
        assert capsys.readouterr().err == ""
