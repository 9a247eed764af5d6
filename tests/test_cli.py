"""Command-line interface tests, run in-process through main(argv)."""

import argparse
import json
import warnings

import numpy as np
import pytest

from gausscap import cli
from gausscap.active import active_sample
from gausscap.capacity import (
    diagonal_capacity,
    het_hom_general,
    holevo_general,
    hom_general_aligned,
)
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
    _rule_array,
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


def run_err(capsys, *argv):
    """(exit code, stdout, stderr) of an in-process run."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_channel(path, ch):
    path.write_text(channel_to_json(ch))
    return str(path)


class TestCapacity:
    def test_uniform_split_of_a_large_budget(self, capsys):
        # 14 copies of 4e6/14 sum to a few ulps above 4e6
        code, out = run(capsys, "capacity", "--lambdas-rule", "0.5", "--N",
                        "14", "--power", "4e6", "--method", "het", "--alloc",
                        "uniform")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["allocation"] == [4e6 / 14] * 14

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

    @pytest.mark.parametrize("alloc", [[], ["--alloc", "uniform"]],
                             ids=["waterfill", "uniform"])
    def test_negative_power_is_input_error(self, capsys, alloc):
        code, out, err = run_err(capsys, "capacity", "--lambdas", "0.5",
                                 "--power", "-1", *alloc)
        assert code == EXIT_INPUT and out == "" and "--power" in err

    def test_zero_rule_modes_name_the_flag(self, capsys):
        code, out, err = run_err(capsys, "capacity", "--lambdas-rule", "k",
                                 "--N", "0", "--power", "1")
        assert code == EXIT_INPUT and out == "" and "--N " in err

    @pytest.mark.parametrize("terms", [1500, 3000])
    def test_deeply_nested_rule_is_input_error(self, capsys, terms):
        # 1500 terms parse but overflow the evaluator, 3000 overflow ast.parse
        code, out, err = run_err(capsys, "capacity", "--lambdas-rule",
                                 "+".join(["k"] * terms), "--N", "2",
                                 "--power", "1")
        assert code == EXIT_INPUT and out == "" and "recursion" in err

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

    def test_waterfill_of_a_large_budget(self, capsys):
        code, out = run(capsys, "sweep-modes", "--N-range", "1..40",
                        "--lambdas-rule", "0.1+0.8*k/N", "--methods",
                        "holevo", "--allocs", "waterfill", "--power", "1e9",
                        "--n", "0.3", "--xi", "0.1")
        assert code == EXIT_OK and out.count("\n") == 41

    @pytest.mark.parametrize("rule,n,xi,P", [
        ("0.2+0.7*k/N", "0.3", "0.1", "4.5"),
        ("1-k/(2*N)", "0", "0", "15"),
        ("0.9", "1", "0.5", "1e-6"),
        ("3*k*k/(N*N)/4", "0.05", "0.02", "2e4"),
        ("(k+1)/(N+2)", "0", "0.3", "0"),
        ("k/N+0.5", "0.2", "0.05", "1e9"),
    ])
    def test_rows_bit_identical_to_diagonal_capacity(self, capsys,
                                                     monkeypatch, rule, n,
                                                     xi, P):
        # every row, printed in full, is diagonal_capacity of its own N
        # evaluated alone on (lambda_k, n, xi) triples
        monkeypatch.setattr(cli, "_fmt", float.hex)
        # the classical capacity needs additive noise
        methods = ["holevo", "het", "hom"]
        if float(xi) > 0:
            methods.append("classical")
        allocs = ["uniform", "waterfill"]
        code, out = run(capsys, "sweep-modes", "--N-range", "1..24",
                        "--lambdas-rule", rule, "--methods",
                        ",".join(methods), "--allocs", ",".join(allocs),
                        "--power", P, "--n", n, "--xi", xi)
        assert code == EXIT_OK
        want = ["N,method,alloc,bits"]
        for N in range(1, 25):
            params = [(lam, float(n), float(xi))
                      for lam in _rule_array(rule, N).tolist()]
            for method in methods:
                for alloc in allocs:
                    bits = diagonal_capacity(params, float(P), method, alloc,
                                             N).bits
                    want.append("%d,%s,%s,%s"
                                % (N, method, alloc, float.hex(bits)))
        assert out.split("\n")[:-1] == want

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

    @pytest.mark.parametrize("flag", ["--methods", "--allocs"])
    def test_empty_list_is_input_error(self, capsys, flag):
        # not a CSV of the header alone
        code, out, err = run_err(capsys, "sweep-modes", "--N-range", "1..2",
                                 "--power", "1", flag, " ,")
        assert code == EXIT_INPUT and out == "" and flag in err

    def test_negative_power_is_input_error(self, capsys):
        code, out, err = run_err(capsys, "sweep-modes", "--N-range", "1..2",
                                 "--power", "-1")
        assert code == EXIT_INPUT and out == "" and "--power" in err

    def test_zero_modes_name_the_flag(self, capsys):
        code, out, err = run_err(capsys, "sweep-modes", "--N-range", "0..2",
                                 "--power", "1")
        assert code == EXIT_INPUT and out == "" and "--N-range" in err


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

    @pytest.mark.parametrize("mode", [["--mode", "analytic"],
                                      ["--mode", "mc", "--seed", "1"]],
                             ids=["analytic", "mc"])
    def test_negative_power_is_input_error(self, capsys, mode):
        code, out, err = run_err(capsys, "random", "--N", "2", "--power",
                                 "-1", *mode)
        assert code == EXIT_INPUT and out == "" and "--power" in err

    @pytest.mark.parametrize("sigma2", ["0", "0.05"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_philox_key_range_is_input_error(self, capsys, seed,
                                                          sigma2):
        code, out, err = run_err(capsys, "random", "--N", "2", "--power", "1",
                                 "--mode", "mc", "--seed", seed, "--samples",
                                 "4", "--sigma2", sigma2)
        assert code == EXIT_INPUT and out == "" and "seed" in err

    def test_analytic_mode_ignores_the_seed(self, capsys):
        code, out = run(capsys, "random", "--N", "1", "--mode", "analytic",
                        "--power", "15", "--method", "het", "--seed", "-1")
        assert code == EXIT_OK
        assert out.split("\n")[1] == "1,1,1,0,het,analytic,2.82397162578,"

    def test_passive_mc_takes_more_receivers_than_signals(self, capsys):
        # the rectangular opt-in concerns squeezed draws only
        args = ("random", "--N", "2", "--K", "3", "--M", "3", "--mode", "mc",
                "--samples", "100", "--seed", "1", "--power", "5")
        code, plain = run(capsys, *args)
        assert code == EXIT_OK
        code, flagged = run(capsys, *args, "--allow-rect-active")
        assert code == EXIT_OK and plain == flagged
        assert plain.split("\n")[1] == (
            "2,3,3,0,holevo,mc,4.49017858324,0.060521376937")
        code, _ = run(capsys, *args, "--sigma2", "0.05")
        assert code == EXIT_ENSEMBLE

    def test_active_rectangular_refusal_names_the_flag(self, capsys):
        code, out, err = run_err(capsys, "random", "--N", "2", "--K", "3",
                                 "--M", "3", "--mode", "mc", "--samples", "10",
                                 "--seed", "1", "--power", "5", "--sigma2",
                                 "0.05")
        assert code == EXIT_ENSEMBLE and out == ""
        assert "--allow-rect-active" in err and "allow_rect " not in err

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("samples", 20.9)])
    def test_fractional_config_count_is_input_error(self, capsys, tmp_path,
                                                    field, value):
        # a fraction is refused, not truncated to the integer below it
        cfg = tmp_path / "cfg.json"
        values = {"seed": 1, "samples": 20}
        cfg.write_text(json.dumps(values))
        argv = ("random", "--N", "2", "--mode", "mc", "--power", "3",
                "--config", str(cfg))
        code, whole = run(capsys, *argv)
        assert code == EXIT_OK and whole.count("\n") == 2
        cfg.write_text(json.dumps(dict(values, **{field: value})))
        code, out, err = run_err(capsys, *argv)
        assert code == EXIT_INPUT and out == "" and "--" + field in err

    @pytest.mark.parametrize("flag,K,M", [("--K", "N/2", "3"),
                                          ("--M", "2", "2.5")],
                             ids=["K-N/2-at-N3", "M-2.5"])
    def test_fractional_mode_count_is_input_error(self, capsys, flag, K, M):
        # a fraction is refused, not truncated to the integer below it
        code, out, err = run_err(capsys, "random", "--N", "3", "--K", K,
                                 "--M", M, "--mode", "mc", "--samples", "10",
                                 "--seed", "1", "--power", "5")
        assert code == EXIT_INPUT and out == ""
        assert flag + " must be an integer" in err

    def test_integer_rule_value_runs(self, capsys):
        # N/2 at N = 4 is the integer 2
        code, out = run(capsys, "random", "--N", "4", "--K", "N/2", "--M",
                        "3", "--mode", "mc", "--samples", "10", "--seed", "1",
                        "--power", "5")
        assert code == EXIT_OK
        assert out.split("\n")[1].split(",")[:3] == ["4", "2", "3"]

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

    def test_large_series_agrees_with_mpmath(self, capsys, jacobi_oracle):
        # an unnormalized Jacobi series overflows at lambda = 0 and 1 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "density", "--N", "200", "--K", "200",
                            "--M", "600", "--grid", "21")
        assert code == EXIT_OK
        printed = [float(line.split(",")[1]) for line in out.split("\n")[1:-1]]
        assert printed[0] == 600 and printed[-1] == 0
        for lam, p in zip(np.linspace(0.0, 1.0, 21), printed):
            exact = jacobi_oracle.density(0, 400, 200, lam)
            jacobi_oracle.assert_agrees(p, exact, lam)

    def test_environment_too_small(self, capsys):
        code, _ = run(capsys, "density", "--N", "1", "--K", "2", "--M", "1")
        assert code == EXIT_ENSEMBLE

    def test_tiny_jacobi_norms_agree_with_mpmath(self, capsys, jacobi_oracle):
        # h_0 of an unnormalized series underflows to 0.0 at a = b = 590
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "density", "--N", "600", "--K", "10",
                            "--M", "600")
        assert code == EXIT_OK
        printed = [float(line.split(",")[1]) for line in out.split("\n")[1:-1]]
        for lam, p in zip(np.linspace(0.0, 1.0, 1001), printed, strict=True):
            exact = jacobi_oracle.density(590, 590, 10, lam)
            jacobi_oracle.assert_agrees(p, exact, lam)

    def test_tiny_jacobi_norms_analytic_mean(self, capsys, jacobi_oracle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "random", "--mode", "analytic", "--N",
                            "600", "--K", "10", "--M", "600", "--power", "5")
        assert code == EXIT_OK
        bits = out.split("\n")[1].split(",")[6]
        mp = jacobi_oracle.mp

        def integrand(lam):
            # g(x) in bits at x = lambda P / N, times the density
            x = lam * mp.mpf(5) / 600
            g = (x + 1) * mp.log(x + 1) - (x * mp.log(x) if x else 0)
            return g / mp.log(2) * jacobi_oracle.density(590, 590, 10, lam)

        with mp.workdps(30):
            exact = 10 * mp.quad(integrand, [0, 0.4, 0.5, 0.6, 1])
        jacobi_oracle.assert_agrees(float(bits), exact)


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

    @pytest.mark.parametrize("argv,flag,value", [
        (["capacity", "--N", "4", "--power", "5"],
         "--lambdas-rule", "-0.1+k/N"),
        (["sweep-modes", "--N-range", "1..5", "--power", "3.5"],
         "--lambdas-rule", "-0.1+k/N"),
        (["random", "--N", "2..3", "--power", "5"], "--K", "-1+N"),
        (["random", "--N", "2..3", "--power", "5"], "--K", "-(1-N)"),
    ])
    def test_value_with_a_leading_minus_follows_its_flag(self, capsys, argv,
                                                          flag, value):
        code, spaced = run(capsys, *argv, flag, value)
        assert code == EXIT_OK
        assert (code, spaced) == run(capsys, *argv, flag + "=" + value)

    def test_negative_scientific_power_is_input_error(self, capsys):
        code, out, err = run_err(capsys, "capacity", "--lambdas", "0.5",
                                 "--power", "-1e-3")
        assert code == EXIT_INPUT and out == "" and "--power" in err

    @pytest.mark.parametrize("argv,flag", [
        (["density", "--N", "1", "--K", "1", "--M", "1", "--grid", "0"],
         "--grid"),
        (["density", "--N", "1", "--K", "1", "--M", "1", "--grid", "-1"],
         "--grid"),
        (["random", "--N", "2", "--mode", "mc", "--seed", "1", "--samples",
          "4", "--power", "3", "--sigma2", "0.05", "--threads", "0"],
         "--threads"),
        (["random", "--N", "2", "--mode", "mc", "--seed", "1", "--samples",
          "4", "--power", "3", "--sigma2", "0.05", "--threads", "-3"],
         "--threads"),
    ], ids=["grid=0", "grid=-1", "threads=0", "threads=-3"])
    def test_count_below_one_is_input_error(self, capsys, argv, flag):
        code, out, err = run_err(capsys, *argv)
        assert code == EXIT_INPUT and out == ""
        assert "%s must be an integer >= 1" % flag in err

    @pytest.mark.parametrize("value", ["x", "-3", "2"])
    def test_threads_environment_variable_is_not_read(self, capsys,
                                                      monkeypatch, value):
        # an active run's worker count comes from --threads alone
        argv = ["random", "--N", "2", "--mode", "mc", "--seed", "1",
                "--samples", "16", "--power", "3", "--sigma2", "0.05",
                "--method", "hom"]
        monkeypatch.delenv("GAUSSCAP_THREADS", raising=False)
        want = run_err(capsys, *argv)
        monkeypatch.setenv("GAUSSCAP_THREADS", value)
        assert run_err(capsys, *argv) == want
        assert want[0] == EXIT_OK


def run_config(capsys, tmp_path, argv, cfg):
    """(exit code, stdout, stderr) of argv with `cfg` as its --config file."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        code = main(list(argv) + ["--config", str(path)])
    except SystemExit as err:   # argparse usage failures
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MC = ["random", "--N", "2", "--mode", "mc", "--seed", "1", "--samples", "10",
      "--power", "3"]


class TestConfigValues:
    """A --config value goes through the same types and choices as its flag."""

    @pytest.mark.parametrize("argv,cfg,named", [
        (["random", "--N", "2", "--power", "3", "--samples", "10"],
         {"mode": "bogus"}, "--mode"),
        (["capacity", "--lambdas", "0.5,0.7", "--power", "3"],
         {"alloc": "bogus"}, "--alloc"),
        (["capacity", "--lambdas", "0.5,0.7", "--power", "3"],
         {"method": "bogus"}, "--method"),
        (["density", "--N", "2", "--K", "1", "--M", "2"], {"grid": 3.7},
         "--grid"),
        (["density", "--K", "1", "--M", "2"], {"N": 2.5}, "--N"),
        (["capacity", "--lambdas-rule", "k/4", "--power", "3"], {"N": 2.5},
         "--N"),
        (MC, {"threads": 1.9}, "--threads"),
        (["capacity", "--lambdas", "0.5"], {"power": True}, "--power"),
        (["random", "--N", "2", "--power", "3"], {"sigma2": True},
         "--sigma2"),
        (MC, {"dump_samples": True}, "'dump_samples'"),
        (["sweep-modes", "--N-range", "1..2", "--power", "3"],
         {"methods": 5}, "--methods"),
        (["sweep-modes", "--N-range", "1..2", "--power", "3"],
         {"allocs": ["uniform"]}, "--allocs"),
        (["capacity", "--lambdas", "0.5", "--power", "3"], {"n": [0.1]},
         "--n"),
        (MC, {"allow_rect_active": "yes"}, "'allow_rect_active'"),
    ], ids=["mode", "alloc", "method", "grid", "density-N", "capacity-N",
            "threads", "power", "sigma2", "dump_samples", "methods", "allocs",
            "n", "switch"])
    def test_malformed_value_is_input_error(self, capsys, tmp_path, argv, cfg,
                                            named):
        code, out, err = run_config(capsys, tmp_path, argv, cfg)
        assert code == EXIT_INPUT and out == "" and named in err

    def test_switch_runs_like_the_flag(self, capsys, tmp_path):
        argv = ["random", "--N", "2", "--K", "3", "--M", "3", "--mode", "mc",
                "--samples", "10", "--seed", "1", "--power", "5", "--sigma2",
                "0.05"]
        code, flagged = run(capsys, *argv, "--allow-rect-active")
        assert code == EXIT_OK
        assert run_config(capsys, tmp_path, argv, {
            "allow_rect_active": True}) == (EXIT_OK, flagged, "")
        # false and null leave the switch unset, and the flag still wins
        for value in (False, None):
            assert run_config(capsys, tmp_path, argv,
                              {"allow_rect_active": value})[0] == EXIT_ENSEMBLE
            assert run_config(capsys, tmp_path, argv + ["--allow-rect-active"],
                              {"allow_rect_active": value})[:2] == (
                                  EXIT_OK, flagged)

    def test_numeric_output_is_a_file_name(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["density", "--N", "1", "--K", "1", "--M", "1", "--grid", "3"]
        _, want = run(capsys, *argv)
        code, out, _ = run_config(capsys, tmp_path, argv, {"output": 5})
        assert (code, out) == (EXIT_OK, "")
        assert (tmp_path / "5").read_text() == want


# A base command per subcommand, and for every option (good value, malformed
# value or None), True standing for a switch that is set.  A new option must
# be added here, so that its --config form is checked too.
BASES = {
    "capacity": {"lambdas_rule": "k/(N+1)", "N": "2", "power": "3"},
    "sweep-modes": {"N_range": "1..2", "power": "3"},
    "random": {"N": "2", "mode": "mc", "seed": "1", "samples": "8",
               "power": "3"},
    "density": {"N": "2", "K": "1", "M": "2", "grid": "5"},
}
OPTION_VALUES = {
    "capacity": {
        "channel": ("CHANNEL", None), "lambdas": ("0.36,0.81", "0.5,x"),
        "lambdas_rule": ("0.2+0.7*k/N", "(k"), "N": ("3", "0"),
        "n": ("0.3", "inf"), "xi": ("0.1", "x"), "power": ("5", "-1"),
        "method": ("het", "bogus"), "alloc": ("uniform", "bogus"),
        "output": ("OUT", None)},
    "sweep-modes": {
        "N_range": ("1..3", "3..1"), "lambdas_rule": ("0.9", "(k"),
        "power": ("5", "nan"), "methods": ("holevo,het", "holevo,bogus"),
        "allocs": ("uniform,waterfill", "bogus"), "n": ("0.3", "x"),
        "xi": ("0.1", "x"), "output": ("OUT", None)},
    "random": {
        "N": ("1..2", "0..2"), "K": ("1", "(k"), "M": ("2*N", "(k"),
        "sigma2": ("0.05", "nan"), "mode": ("analytic", "bogus"),
        "samples": ("16", "2.5"), "seed": ("7", "1.5"), "power": ("5", "x"),
        "method": ("het", "classical"), "n": ("0.3", "x"), "xi": ("0.1", "x"),
        "threads": ("2", "1.5"), "allow_rect_active": (True, None),
        "dump_samples": ("DUMP", None), "output": ("OUT", None)},
    "density": {
        "N": ("3", "2.5"), "K": ("2", "0"), "M": ("3", "x"),
        "grid": ("7", "3.7"), "output": ("OUT", None)},
}


def _subparsers():
    """{name: subparser} of the command-line parser."""
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def _options(command):
    """{dest: flag} of a subcommand's options, --config and -h aside."""
    return {action.dest: action.option_strings[0]
            for action in _subparsers()[command]._actions
            if action.option_strings and action.dest not in ("help", "config")}


def test_every_option_has_a_checked_value():
    assert set(_subparsers()) == set(BASES)
    for command in BASES:
        assert set(_options(command)) == set(OPTION_VALUES[command])


def _command(command, options, tmp_path, where):
    """(argv, config) with `options` as flags except those in `where`."""
    argv, cfg = [command], {}
    for dest, value in options.items():
        if value in ("OUT", "DUMP", "CHANNEL"):
            value = str(tmp_path / value)
        if dest in where:
            cfg[dest] = value
        elif value is True:
            argv.append(_options(command)[dest])
        else:
            argv += [_options(command)[dest], value]
    return argv, cfg


@pytest.mark.parametrize("command,dest", [
    (command, dest) for command in sorted(BASES)
    for dest in sorted(OPTION_VALUES[command])])
def test_config_value_acts_like_the_flag(capsys, tmp_path, command, dest):
    good, bad = OPTION_VALUES[command][dest]
    write_channel(tmp_path / "CHANNEL",
                  block_form_channel(np.diag([0.9, 0.6])))
    results = []
    for where in ((), (dest,)):
        options = dict(BASES[command], **{dest: good})
        if command == "random" and dest == "threads":
            options.update(sigma2="0.05")   # threads serve active MC only
        if command == "random" and dest == "allow_rect_active":
            options.update(sigma2="0.05", K="3", M="3")
        argv, cfg = _command(command, options, tmp_path, where)
        code, out, _ = run_config(capsys, tmp_path, argv, cfg)
        files = {}
        for name in ("OUT", "DUMP"):
            if (tmp_path / name).exists():
                files[name] = (tmp_path / name).read_text()
                (tmp_path / name).unlink()
        results.append((code, out, files))
    assert results[0] == results[1] and results[0][0] == EXIT_OK
    if bad is not None:
        flag = _options(command)[dest]
        for where in ((), (dest,)):
            options = dict(BASES[command], **{dest: bad})
            code, out, err = run_config(
                capsys, tmp_path, *_command(command, options, tmp_path, where))
            assert (code, out) == (EXIT_INPUT, "") and flag in err


JSON_VALUES = [0, 1, 2.5, -1, 1e300, "", "x", "1..2", True, False, [1],
               {"a": 1}, None]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(BASES))
def test_no_json_value_ends_in_a_traceback(capsys, tmp_path, monkeypatch,
                                           command):
    monkeypatch.chdir(tmp_path)
    argv = _command(command, BASES[command], tmp_path, ())[0]
    for dest in sorted(_options(command)) + ["config"]:
        for value in JSON_VALUES:
            code, _, _ = run_config(capsys, tmp_path, argv, {dest: value})
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_UNPHYSICAL,
                            EXIT_ENSEMBLE, EXIT_USAGE), (dest, value)


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
    """_rule_array evaluates a rule over k = 1..N as one array."""

    @pytest.mark.parametrize("expr", RULES)
    def test_bit_identical_to_the_scalar_rule(self, expr):
        for N in range(1, 41):
            got = _rule_array(expr, N).tolist()
            want = [eval_rule(expr, k=k, N=N) for k in range(1, N + 1)]
            assert [type(v) for v in got] == [float] * N
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_empty_range(self):
        assert _rule_array("0.2+0.7*k/N", 0).tolist() == []
        assert _rule_array("q", 0).tolist() == []

    @pytest.mark.parametrize("expr", ["1/(k-2)", "q+1", "1e307*k",
                                      "1/(1/(k-3))", "1e308*k*10-1e308*k*10",
                                      "k**2", "(k", "1e308*k*10+1/(k-5)",
                                      "1/(k-2)+q", "1/(k-1)+q", "1/(N-N)+k"])
    def test_errors_match_the_scalar_rule(self, expr, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as scalar:
                [eval_rule(expr, k=k, N=30) for k in range(1, 31)]
            with pytest.raises(ValueError) as array:
                _rule_array(expr, 30).tolist()
        assert str(array.value) == str(scalar.value)
        assert caught == []
        assert capsys.readouterr().err == ""
