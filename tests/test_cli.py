"""End-to-end command-line runs through the real entry point."""

import argparse
import contextlib
import csv
import dataclasses
import errno
import filecmp
import io
import json
import math
import os
import shutil
import sys
import time
import warnings

import numpy as np
import pytest

import uncertlab.cli as cli
import uncertlab.propagation as propagation
import uncertlab.vi as vi
from uncertlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def assert_cannot_write(code, out, err, mode, path):
    """A write into a missing directory is a structured error, exit 1."""
    assert code == 1 and out == "" and "Traceback" not in err
    e = json.loads(err)["error"]
    assert e["mode"] == mode and e["type"] == "ConfigError"
    assert f"cannot write {path!r}" in e["message"]


@pytest.fixture()
def propagate_config(tmp_path):
    return write_json(tmp_path / "prop.json", {
        "model": {"expression": "X1 * X2"},
        "inputs": {"quantities": [
            {"name": "X1", "dist": {"kind": "gaussian", "mean": 2.0,
                                    "sd": 0.1}},
            {"name": "X2", "dist": {"kind": "gaussian", "mean": 3.0,
                                    "sd": 0.1}},
        ]},
        "method": "taylor2",
    })


@pytest.fixture()
def training_csv(tmp_path):
    rng = np.random.default_rng(7)
    n = 150
    x = rng.uniform(-1, 1, size=n)
    y = 1.0 + 2.0 * x + 0.1 * rng.standard_normal(n)
    path = tmp_path / "train.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x1", "y"])
        for xi, yi in zip(x, y):
            w.writerow([f"{xi:.12g}", f"{yi:.12g}"])
    return str(path)


class TestPropagate:
    def test_stdout_report(self, capsys, propagate_config):
        code, out, _ = run_cli(capsys, "propagate", "--config",
                               propagate_config)
        assert code == 0
        r = json.loads(out)
        assert r["mode"] == "propagate"
        m = r["results"]["measurement"]
        assert m["u"] ** 2 == pytest.approx(0.1301, rel=1e-12, abs=0.0)
        assert r["results"]["budget"][0]["name"] == "X1"

    def test_out_file(self, capsys, propagate_config, tmp_path):
        dest = str(tmp_path / "report.json")
        code, out, _ = run_cli(capsys, "propagate", "--config",
                               propagate_config, "--out", dest)
        assert code == 0 and out == ""
        assert json.load(open(dest))["mode"] == "propagate"

    def test_config_echo_materializes_defaults(self, capsys,
                                               propagate_config):
        _, out, _ = run_cli(capsys, "propagate", "--config",
                            propagate_config)
        cfg = json.loads(out)["config"]
        assert cfg["k"] == 2.0
        assert cfg["M"] == 200000
        assert cfg["coverage"] == pytest.approx(0.9544997361036416, abs=0.0)

    def test_analytic_matches_hand_value(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "lin.json", {
            "model": {"expression": "2 * X1 - X2 + 1"},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 1.0,
                                        "sd": 1.0}},
                {"name": "X2", "dist": {"kind": "gaussian", "mean": 2.0,
                                        "sd": 0.5}},
            ]},
            "method": "analytic",
        })
        _, out, _ = run_cli(capsys, "propagate", "--config", cfg)
        m = json.loads(out)["results"]["measurement"]
        assert m["y"] == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert m["u"] == pytest.approx(np.sqrt(4.25), rel=1e-12, abs=0.0)

    def test_monte_carlo_with_sample_dump(self, capsys, tmp_path,
                                          propagate_config):
        doc = json.load(open(propagate_config))
        doc.update(method="monte_carlo", M=5000,
                   dump_samples="samples.csv")
        cfg = write_json(tmp_path / "mc.json", doc)
        code, out, _ = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0
        m = json.loads(out)["results"]["measurement"]
        assert m["mc_diagnostics"]["M"] == 5000
        lines = open(tmp_path / "samples.csv").read().splitlines()
        assert lines[0] == "y" and len(lines) == 5001
        vals = [float(v) for v in lines[1:]]
        assert vals == sorted(vals)

    def test_out_into_missing_directory(self, capsys, propagate_config,
                                        tmp_path):
        dest = str(tmp_path / "missing" / "report.json")
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 propagate_config, "--out", dest)
        assert_cannot_write(code, out, err, "propagate", dest)

    def test_sample_dump_into_missing_directory(self, capsys, tmp_path,
                                                propagate_config):
        doc = json.load(open(propagate_config))
        doc.update(method="monte_carlo", M=5000,
                   dump_samples="missing/samples.csv")
        cfg = write_json(tmp_path / "mc.json", doc)
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert_cannot_write(code, out, err, "propagate",
                            str(tmp_path / "missing" / "samples.csv"))

    def test_bad_config_is_structured_error(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"method": "analytic"})
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["mode"] == "propagate"
        assert e["type"] == "ConfigError"

    def test_infinity_literal_is_structured_error(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"model": {"expression": "X1"}, "method": "taylor1", '
            '"inputs": {"quantities": [{"name": "X1", "dist": '
            '{"kind": "rectangular", "lower": 0, "upper": Infinity}}]}}')
        code, out, err = run_cli(capsys, "propagate", "--config", str(path))
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError" and "Infinity" in e["message"]

    @pytest.mark.parametrize("method,calls", [
        ("taylor1", 1), ("taylor2", 1), ("analytic", 1)])
    def test_one_derivative_bundle_per_run(self, capsys, tmp_path,
                                           monkeypatch, method, calls):
        # analytic reads affinity from the tree, so its one bundle is the
        # one at the means; the budget reuses the gradient it computed
        seen = []
        original = propagation.derivatives

        def counting(*args, **kwargs):
            seen.append(kwargs.get("order"))
            return original(*args, **kwargs)

        monkeypatch.setattr(propagation, "derivatives", counting)
        cfg = write_json(tmp_path / "lin.json", {
            "model": {"expression": "2 * X1 - X2 + 1"},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 1.0,
                                        "sd": 1.0}},
                {"name": "X2", "dist": {"kind": "gaussian", "mean": 2.0,
                                        "sd": 0.5}},
            ]},
            "method": method,
        })
        code, out, _ = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0
        assert len(seen) == calls
        budget = json.loads(out)["results"]["budget"]
        assert [b["sensitivity"] for b in budget] == [2.0, -1.0]

    def test_non_finite_result_is_structured_error(self, capsys, tmp_path):
        # exp(800) overflows: the report would carry Infinity and NaN
        cfg = write_json(tmp_path / "exp.json", {
            "model": {"expression": "exp(X1)"},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 800.0,
                                        "sd": 1.0}}]},
            "method": "taylor1",
        })
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["mode"] == "propagate"
        assert e["type"] == "DomainError" and "non-finite" in e["message"]
        assert e["message"].endswith(
            "the model overflows or leaves its domain at these inputs")

    @pytest.mark.parametrize("method", ["taylor1", "taylor2"])
    def test_nan_model_value_is_refused(self, capsys, tmp_path, method):
        # 1e-100 ^ 3.5 underflows to 0 and X1 * X1 overflows: the model's
        # value 0 * inf is NaN, as evaluate gives it, not 0 + X2 = 1
        cfg = write_json(tmp_path / "nan.json", {
            "model": {"expression": "1e-100 ^ 3.5 * (X1 * X1) + X2"},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 1e200,
                                        "sd": 0.0}},
                {"name": "X2", "dist": {"kind": "gaussian", "mean": 1.0,
                                        "sd": 0.1}}]},
            "method": method,
        })
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "DomainError" and "non-finite" in e["message"]

    @pytest.mark.parametrize("expression,quantities,row", [
        # u = 2e200 is a double, its square (the contribution) is not
        ("X1 * 2", [(0.0, 1e200)], "budget row X1: its contribution is inf"),
        # X2 is exactly known, so d/dX2 = -1e340 adds 0 to u = 1e150
        ("X1 / X2", [(1.0, 1e-20), (1e-170, 0.0)],
         "budget row X2: its sensitivity is -inf"),
    ], ids=["contribution", "sensitivity"])
    def test_budget_row_beyond_the_double_range_is_named(
            self, capsys, tmp_path, expression, quantities, row):
        cfg = write_json(tmp_path / "row.json", {
            "model": {"expression": expression},
            "inputs": {"quantities": [
                {"name": f"X{i + 1}", "dist": {"kind": "gaussian",
                                               "mean": mean, "sd": sd}}
                for i, (mean, sd) in enumerate(quantities)]},
            "method": "taylor1",
        })
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "DomainError"
        assert e["message"].startswith(row + ", outside the double range")
        # the measurement itself is a finite double
        run = cli.resolve_propagate(json.load(open(cfg)), str(tmp_path))
        r = cli.propagate_taylor1(run.expr, run.joint)
        assert math.isfinite(r.y) and math.isfinite(r.u)

    def test_overflowing_third_derivative_leaves_taylor1_finite(
            self, capsys, tmp_path):
        # d3 sqrt / dx3 = 0.375 x^-2.5 overflows at 1e-130; the gradient
        # 0.5 / sqrt(x) = 5e64 does not, so u = 5e64 * 1e-131
        cfg = write_json(tmp_path / "sqrt.json", {
            "model": {"expression": "sqrt(X1)"},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 1e-130,
                                        "sd": 1e-131}}]},
            "method": "taylor1",
        })
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0 and err == ""
        m = json.loads(out)["results"]["measurement"]
        assert m["u"] == pytest.approx(5e-67, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("expression,means", [
        ("sin(X1 * X2)", [1e200, 1e200]),
        ("sin(exp(X1))", [800.0, 1.0]),
        ("cos(X1 / X2)", [1.0, 1e-320]),
    ])
    @pytest.mark.parametrize("method", ["taylor1", "taylor2"])
    def test_trig_of_infinite_value_is_domain_error(
            self, capsys, tmp_path, expression, means, method):
        cfg = write_json(tmp_path / "trig.json", {
            "model": {"expression": expression},
            "inputs": {"quantities": [
                {"name": f"X{i + 1}", "dist": {"kind": "gaussian",
                                               "mean": mean, "sd": 1.0}}
                for i, mean in enumerate(means)]},
            "method": method,
        })
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == "" and "Traceback" not in err
        e = json.loads(err)["error"]
        assert e["type"] == "DomainError"
        assert "of infinite value inf" in e["message"]

    @pytest.mark.parametrize("expression,message", [
        (" + ".join(["X1"] * 1200),
         "model.expression: expression more than 500 levels high (offset "),
        ("(" * 250 + "X1" + ")" * 250, "nested more than"),
        (" ^ ".join(["X1"] + ["1"] * 600), "nested more than"),
    ], ids=["sum-1200", "parentheses-250", "powers-600"])
    def test_deep_expression_is_parse_error(self, capsys, tmp_path,
                                            expression, message):
        cfg = write_json(tmp_path / "deep.json", {
            "model": {"expression": expression},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 1.0,
                                        "sd": 0.1}}]},
            "method": "taylor1",
        })
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == "" and "Traceback" not in err
        # a malformed expression is a ConfigError naming its key
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError"
        assert e["message"].startswith("model.expression: ")
        assert message in e["message"] and "(offset " in e["message"]

    def test_input_with_finite_bounds_is_accepted(self, capsys, tmp_path):
        # a triangular width of 2e308 is beyond the double range, but the
        # mean 0 and u = 1e308 / sqrt(6) are doubles, and so is each draw
        def tri(lower, mode, upper, expression, method="taylor1"):
            return write_json(tmp_path / "tri.json", {
                "model": {"expression": expression},
                "inputs": {"quantities": [
                    {"name": "X1", "dist": {"kind": "triangular",
                                            "lower": lower, "mode": mode,
                                            "upper": upper}}]},
                "method": method, "M": 20_000, "seed": 1,
            })

        cfg = tri(-1e308, 0.0, 1e308, "X1 * 1e-200")
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0 and err == ""
        m = json.loads(out)["results"]["measurement"]
        assert m["y"] == 0.0
        assert m["u"] == pytest.approx(1e108 / math.sqrt(6.0),
                                       rel=1e-15, abs=0.0)
        # its variance 4.2e398 overflows, u = 1e200 sqrt(1.5) / 6 does not
        cfg = tri(1e200, 1.5e200, 2e200, "X1 * 1e-200")
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0 and err == ""
        m = json.loads(out)["results"]["measurement"]
        assert m["u"] == pytest.approx(math.sqrt(1.5) / 6.0,
                                       rel=1e-15, abs=0.0)
        # each draw once put (b - a)(m - a) = 5e399 under a square root:
        # every draw was inf and Monte Carlo blamed the model
        cfg = tri(1e200, 1.5e200, 2e200, "X1 * 1e-200", "monte_carlo")
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0 and err == ""
        m = json.loads(out)["results"]["measurement"]
        se = m["mc_diagnostics"]["mc_standard_error"]
        assert abs(m["y"] - 1.5) < 5 * se
        # the standard error of a sample sd is about sd / sqrt(2 (M - 1))
        assert abs(m["u"] - math.sqrt(1.5) / 6.0) < 5 * m["u"] / math.sqrt(
            2 * 19_999)

    def test_draws_beyond_the_double_range_are_named(self, capsys, tmp_path):
        # X1 * 2 has no domain limit: a third of the N(0, 1e308) draws
        # overflow, and the refusal says so instead of blaming the model
        def mc(expression, mean, sd):
            return write_json(tmp_path / "mc.json", {
                "model": {"expression": expression},
                "inputs": {"quantities": [
                    {"name": "Z0", "dist": {"kind": "gaussian", "mean": 1.0,
                                            "sd": 1.0}},
                    {"name": "X1", "dist": {"kind": "gaussian",
                                            "mean": mean, "sd": sd}}]},
                "method": "monte_carlo", "M": 20_000, "seed": 1,
            })

        code, out, err = run_cli(capsys, "propagate", "--config",
                                 mc("X1 * 2 + Z0", 0.0, 1e308))
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "MonteCarloError"
        assert e["message"].endswith(" failed: draws of X1 leave the double "
                                     "range before the model is evaluated")
        assert "domain" not in e["message"]
        # a model-domain failure keeps its message
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 mc("ln(X1) + Z0", 0.0, 1.0))
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "MonteCarloError"
        assert e["message"].endswith(
            "hit domain errors; the input distributions extend outside the "
            "model's domain")

    def test_large_k_takes_the_whole_sample(self, capsys, tmp_path,
                                            propagate_config):
        # 2 Phi(9) - 1 rounds to 1; the JCGM 101 ranks clamp to the
        # smallest and largest draw instead of refusing a coverage of 1
        doc = json.load(open(propagate_config))
        doc.update(method="monte_carlo", M=5000, k=9,
                   dump_samples="samples.csv")
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 write_json(tmp_path / "k9.json", doc))
        assert code == 0 and err == ""
        report = json.loads(out)
        m = report["results"]["measurement"]
        assert report["config"]["coverage"] == 1.0 and m["k"] == 9.0
        lines = open(tmp_path / "samples.csv").read().splitlines()
        assert m["interval"] == [float(lines[1]), float(lines[-1])]
        assert m["U"] == 9.0 * m["u"]

    def test_coverage_next_to_one_gives_its_factor(self, capsys, tmp_path,
                                                   propagate_config):
        # the largest double below 1 is a valid coverage: k is
        # sqrt(2) erfinv(coverage), with no 1 + coverage rounded to 2
        doc = json.load(open(propagate_config))
        doc.update(method="taylor1", coverage=0.9999999999999999)
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 write_json(tmp_path / "c1.json", doc))
        assert code == 0 and err == ""
        m = json.loads(out)["results"]["measurement"]
        assert m["k"] == 8.292361075813595 and m["U"] == m["k"] * m["u"]

    def test_negative_power_overflow_is_refused_as_non_finite(
            self, capsys, tmp_path, propagate_config):
        # X1^-2 overflows at X1 = -1e-170, so y = -inf: the report refuses
        # a non-finite number; the model has no division by zero
        doc = json.load(open(propagate_config))
        doc.update(method="taylor1",
                   model={"expression": "X1 ^ -2 * (X1 - X3)"},
                   inputs={"quantities": [
                       {"name": "X1", "dist": {"kind": "gaussian",
                                               "mean": -1e-170, "sd": 1e-171}},
                       {"name": "X3", "dist": {"kind": "gaussian",
                                               "mean": 0.0, "sd": 0.1}}]})
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 write_json(tmp_path / "pow.json", doc))
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "DomainError"
        assert e["message"].startswith("result holds a non-finite number")

    def test_taylor2_negative_variance_is_domain_error(
            self, capsys, tmp_path, propagate_config):
        # u^2 = 1 - 6 at N(0, 1): the config is valid, the expansion fails
        doc = json.load(open(propagate_config))
        doc.update(model={"expression": "X1 - X1 ^ 3"},
                   inputs={"quantities": [
                       {"name": "X1", "dist": {"kind": "gaussian",
                                               "mean": 0.0, "sd": 1.0}}]})
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 write_json(tmp_path / "neg.json", doc))
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "DomainError"
        assert e["message"].startswith(
            "second-order Taylor variance is negative (-5)")

    def test_unknown_key_rejected(self, capsys, tmp_path,
                                  propagate_config):
        doc = json.load(open(propagate_config))
        doc["methd"] = "typo"
        cfg = write_json(tmp_path / "typo.json", doc)
        code, _, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1
        assert "methd" in json.loads(err)["error"]["message"]

    def test_correlated_taylor1(self, capsys, tmp_path, propagate_config):
        doc = json.load(open(propagate_config))
        doc["method"] = "taylor1"
        doc["inputs"]["correlation"] = [1.0, 0.5, 0.5, 1.0]
        cfg = write_json(tmp_path / "corr.json", doc)
        code, out, _ = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 0
        m = json.loads(out)["results"]["measurement"]
        # 9 * 0.01 + 4 * 0.01 + 2 * 0.5 * 6 * 0.01
        assert m["u"] ** 2 == pytest.approx(0.19, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("key, literal", [
        ("k", "1e400"),
        ("sd", "1" + "0" * 400),   # no float holds it
    ], ids=["k", "sd"])
    def test_number_outside_double_range(self, capsys, tmp_path,
                                         propagate_config, key, literal):
        doc = json.load(open(propagate_config))
        if key == "k":
            doc["k"] = "@"
        else:
            doc["inputs"]["quantities"][0]["dist"]["sd"] = "@"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        code, out, err = run_cli(capsys, "propagate", "--config", str(path))
        assert code == 1 and out == "" and "Traceback" not in err
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError" and str(path) in e["message"]
        assert "outside the double range" in e["message"]

    @pytest.mark.parametrize("method", ["taylor1", "monte_carlo"])
    def test_expression_number_outside_double_range(self, capsys, tmp_path,
                                                    propagate_config, method):
        # before, 1e999 parsed as inf: taylor1 blamed an overflowing
        # model, monte_carlo the input distributions
        doc = json.load(open(propagate_config))
        doc["model"]["expression"] = "X1 + 1e999"
        doc["method"] = method
        cfg = write_json(tmp_path / "big-literal.json", doc)
        code, out, err = run_cli(capsys, "propagate", "--config", cfg)
        assert code == 1 and out == "" and "Traceback" not in err
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError"
        assert e["message"] == ("model.expression: number 1e999 is outside "
                                "the double range (offset 5)")

    def test_allocation_failure_is_structured_error(self, capsys,
                                                    monkeypatch,
                                                    propagate_config):
        class ArrayMemoryError(MemoryError):
            """Stands in for numpy's private subclass."""

        def runner(args):
            raise ArrayMemoryError("Unable to allocate 728. TiB")

        monkeypatch.setitem(cli._RUNNERS, "propagate", runner)
        code, out, err = run_cli(capsys, "propagate", "--config",
                                 propagate_config)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e == {"mode": "propagate", "type": "MemoryError",
                     "message": "Unable to allocate 728. TiB"}


class TestTrainPredict:
    def test_model_file_number_outside_double_range(self, capsys, tmp_path):
        # before, x_sd = [inf, ...] loaded and every part was predicted at
        # the training mean of that feature
        legacy = os.path.join(os.path.dirname(__file__), "data",
                              "legacy_model.json")
        doc = json.load(open(legacy))
        doc["model"]["x_sd"][0] = "@"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc).replace('"@"', "1e400"))
        cfg = write_json(tmp_path / "pred.json", {
            "model_path": str(model), "parts": {"inline": [[0.5, 0.1]]}})
        code, out, err = run_cli(capsys, "predict", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError" and str(model) in e["message"]

    def make_train_config(self, tmp_path, training_csv, **vi):
        vi_doc = {"seed": 3, "max_steps": 2000, "schedule": "cosine",
                  "learning_rate": 0.02, "tolerance": 0.0}
        vi_doc.update(vi)
        return write_json(tmp_path / "train.json", {
            "dataset": {"path": training_csv, "target": "y"},
            "model": {"mean_degree": 1, "noise_degree": 0},
            "vi": vi_doc,
            "model_out": str(tmp_path / "model.json"),
        })

    def test_underflowed_scale_is_a_divergence(self, capsys, tmp_path,
                                               training_csv):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": {"path": training_csv, "target": "y"},
            "model": {"mean_degree": 2, "prior_tau": 1e3},
            "vi": {"learning_rate": 160.0, "max_steps": 300, "seed": 4},
            "model_out": str(tmp_path / "model.json"),
        })
        code, out, err = run_cli(capsys, "train", "--config", cfg)
        assert code == 1 and out == "" and "Traceback" not in err
        e = json.loads(err)["error"]
        assert e["type"] == "DivergenceError"
        assert "underflowed to 0 after 300 steps" in e["message"]
        assert not (tmp_path / "model.json").exists()

    def test_round_trip(self, capsys, tmp_path, training_csv):
        cfg = self.make_train_config(tmp_path, training_csv)
        code, out, _ = run_cli(capsys, "train", "--config", cfg)
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["training"]["final_free_energy"] \
            < rep["results"]["training"]["initial_free_energy"]
        assert rep["dataset_summary"]["n_records"] == 150

        pred_cfg = write_json(tmp_path / "pred.json", {
            "model_path": str(tmp_path / "model.json"),
            "parts": {"inline": [[0.0], [0.5]]},
            "n_samples": 3000,
            "seed": 1,
            "spec": {"lsl": 0.0, "usl": 2.4},
        })
        code, out, _ = run_cli(capsys, "predict", "--config", pred_cfg)
        assert code == 0
        parts = json.loads(out)["results"]["parts"]
        assert parts[0]["y_hat"] == pytest.approx(1.0, abs=0.1)
        assert parts[1]["y_hat"] == pytest.approx(2.0, abs=0.1)
        assert parts[0]["conformity"]["zone"] == "conformity"
        total = parts[0]["aleatoric_var"] + parts[0]["epistemic_var"]
        assert parts[0]["sigma_hat"] ** 2 == pytest.approx(total,
                                                           rel=1e-9, abs=0.0)

    def test_stop_reason_in_report_and_model_file(self, capsys, tmp_path,
                                                  training_csv):
        cfg = self.make_train_config(tmp_path, training_csv, max_steps=4000,
                                     window=100, tolerance=1e-3)
        code, out, _ = run_cli(capsys, "train", "--config", cfg)
        assert code == 0
        training = json.loads(out)["results"]["training"]
        assert training["stop_reason"] in ("plateau", "worsened")
        assert training["converged"] == (training["stop_reason"] == "plateau")
        assert training["n_steps"] < 4000
        saved = json.loads((tmp_path / "model.json").read_text())["training"]
        assert saved["stop_reason"] == training["stop_reason"]

    def test_predict_reruns_byte_identical(self, capsys, tmp_path,
                                           training_csv):
        cfg = self.make_train_config(tmp_path, training_csv)
        assert run_cli(capsys, "train", "--config", cfg)[0] == 0
        pred_cfg = write_json(tmp_path / "pred.json", {
            "model_path": str(tmp_path / "model.json"),
            "parts": {"inline": [[0.25]]},
        })
        _, out1, _ = run_cli(capsys, "predict", "--config", pred_cfg)
        _, out2, _ = run_cli(capsys, "predict", "--config", pred_cfg)
        r1 = json.dumps(json.loads(out1)["results"], sort_keys=True)
        r2 = json.dumps(json.loads(out2)["results"], sort_keys=True)
        assert r1 == r2

    def test_seed_flag_overrides_vi_seed(self, capsys, tmp_path,
                                         training_csv):
        cfg = self.make_train_config(tmp_path, training_csv,
                                     max_steps=300, window=300)
        _, out1, _ = run_cli(capsys, "train", "--config", cfg)
        _, out2, _ = run_cli(capsys, "train", "--config", cfg,
                             "--seed", "99")
        f1 = json.loads(out1)["results"]["training"]["final_free_energy"]
        f2 = json.loads(out2)["results"]["training"]["final_free_energy"]
        assert f1 != f2
        assert json.loads(out2)["config"]["vi"]["seed"] == 99

    def test_parts_csv_with_extra_columns(self, capsys, tmp_path,
                                          training_csv):
        cfg = self.make_train_config(tmp_path, training_csv)
        assert run_cli(capsys, "train", "--config", cfg)[0] == 0
        parts = tmp_path / "parts.csv"
        parts.write_text("batch,x1\n7,0.1\n8,-0.4\n")
        pred_cfg = write_json(tmp_path / "pred.json", {
            "model_path": str(tmp_path / "model.json"),
            "parts": {"path": str(parts)},
        })
        code, out, _ = run_cli(capsys, "predict", "--config", pred_cfg)
        assert code == 0
        rows = json.loads(out)["results"]["parts"]
        assert [r["x"] for r in rows] == [[0.1], [-0.4]]

    @pytest.mark.parametrize("fixed_noise_sd", [None, 0.1])
    def test_predict_draws_nothing(self, capsys, tmp_path, training_csv,
                                   monkeypatch, fixed_noise_sd):
        # no weight draws and no normals: n_samples and seed are
        # accepted, but change no byte of the results
        cfg = self.make_train_config(tmp_path, training_csv, max_steps=300)
        doc = json.loads((tmp_path / "train.json").read_text())
        doc["model"].update(noise_degree=1, fixed_noise_sd=fixed_noise_sd)
        write_json(tmp_path / "train.json", doc)
        assert run_cli(capsys, "train", "--config", cfg)[0] == 0
        monkeypatch.setattr(vi, "substream", None)
        results = []
        for extra in ({}, {"n_samples": 2000, "seed": 1},
                      {"n_samples": 2, "seed": 2}):
            pred_cfg = write_json(tmp_path / "pred.json", {
                "model_path": str(tmp_path / "model.json"),
                "parts": {"inline": [[v] for v in np.linspace(-1, 1, 40)]},
                "spec": {"lsl": 0.0, "usl": 2.4}, **extra,
            })
            code, out, _ = run_cli(capsys, "predict", "--config", pred_cfg)
            assert code == 0
            results.append(json.dumps(json.loads(out)["results"],
                                      sort_keys=True))
        parts = json.loads(results[0])["parts"]
        assert len(parts) == 40
        assert not {"seed", "n_posterior_samples"} & set(parts[0])
        assert results[1:] == results[:1] * 2

    def test_noise_sd_above_the_cap_is_refused(self, capsys, tmp_path,
                                                training_csv):
        cfg = self.make_train_config(tmp_path, training_csv, max_steps=50)
        doc = json.loads((tmp_path / "train.json").read_text())
        doc["model"]["noise_degree"] = 1
        write_json(tmp_path / "train.json", doc)
        assert run_cli(capsys, "train", "--config", cfg)[0] == 0
        # the noise head's slope weight gets sd 10: s > 100 only far out
        model_path = tmp_path / "model.json"
        model_doc = json.loads(model_path.read_text())
        model_doc["posterior"]["scale"][-1] = 10.0
        model_path.write_text(json.dumps(model_doc))
        pred_cfg = write_json(tmp_path / "pred.json", {
            "model_path": str(model_path),
            "parts": {"inline": [[0.0], [0.5], [100.0], [200.0]]}})
        code, out, err = run_cli(capsys, "predict", "--config", pred_cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["mode"] == "predict" and e["type"] == "DomainError"
        assert e["message"].startswith("part 2: ")
        assert f"[0, {vi.MAX_NOISE_SD:g}]" in e["message"]

    def test_bad_standardization_in_model_file(self, capsys, tmp_path,
                                               training_csv):
        cfg = self.make_train_config(tmp_path, training_csv, max_steps=300)
        assert run_cli(capsys, "train", "--config", cfg)[0] == 0
        model_path = tmp_path / "model.json"
        doc = json.loads(model_path.read_text())
        doc["model"]["x_sd"] = [0.0]
        model_path.write_text(json.dumps(doc))
        pred_cfg = write_json(tmp_path / "pred.json", {
            "model_path": str(model_path), "parts": {"inline": [[0.5]]}})
        code, out, err = run_cli(capsys, "predict", "--config", pred_cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError" and "x_sd" in e["message"]

    def test_model_out_into_missing_directory(self, capsys, tmp_path,
                                              training_csv):
        dest = str(tmp_path / "missing" / "model.json")
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": training_csv, "target": "y"},
            "vi": {"max_steps": 5},
            "model_out": dest,
        })
        code, out, err = run_cli(capsys, "train", "--config", cfg)
        assert_cannot_write(code, out, err, "train", dest)

    @pytest.mark.parametrize("features,column", [(["y"], "y"),
                                                 (["x1", "x1"], "x1")])
    def test_feature_list_naming_target_or_repeating(
            self, capsys, tmp_path, training_csv, features, column):
        model_out = tmp_path / "m.json"
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": training_csv, "target": "y",
                        "features": features},
            "vi": {"max_steps": 5},
            "model_out": str(model_out),
        })
        code, out, err = run_cli(capsys, "train", "--config", cfg)
        assert code == 1 and out == "" and not model_out.exists()
        e = json.loads(err)["error"]
        assert e["type"] == "DatasetError"
        assert f"feature {column!r}" in e["message"]

    def test_missing_dataset_file(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": "nope.csv", "target": "y"},
            "model_out": str(tmp_path / "m.json"),
        })
        code, _, err = run_cli(capsys, "train", "--config", cfg)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_too_many_weights_refused_at_once(self, capsys, tmp_path):
        # comb(2003, 3) = 1.3e9 mean-head monomials for 3 features at
        # degree 2000: refused from that count, before any is listed
        data = tmp_path / "three.csv"
        data.write_text("x1,x2,x3,y\n0,1,2,3\n1,0,2,4\n2,1,0,5\n")
        model_out = tmp_path / "m.json"
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": str(data), "target": "y"},
            "model": {"mean_degree": 2000},
            "model_out": str(model_out),
        })
        start = time.monotonic()
        code, out, err = run_cli(capsys, "train", "--config", cfg)
        assert time.monotonic() - start < 1.0
        assert code == 1 and out == "" and not model_out.exists()
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError"
        assert "1337337005 weights" in e["message"]

    @pytest.mark.parametrize("tau", [1e300, 1e-200])
    @pytest.mark.parametrize("fixed_noise_sd", [None, 0.1])
    def test_prior_tau_outside_the_double_square_range(
            self, capsys, tmp_path, training_csv, tau, fixed_noise_sd):
        # tau^2 overflowed (OverflowError) or 1 / tau^2 divided by zero
        # (ZeroDivisionError), both as bare tracebacks
        model_out = tmp_path / "m.json"
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": training_csv, "target": "y"},
            "model": {"prior_tau": tau, "fixed_noise_sd": fixed_noise_sd},
            "vi": {"max_steps": 5},
            "model_out": str(model_out),
        })
        code, out, err = run_cli(capsys, "train", "--config", cfg)
        assert code == 1 and out == "" and not model_out.exists()
        e = json.loads(err)["error"]
        assert (e["mode"], e["type"]) == ("train", "ConfigError")
        assert e["message"].startswith("prior tau must have a square")
        assert e["message"].endswith(f"got {tau!r}")

    def test_collinear_fixed_noise_trains_at_a_wide_prior(self, capsys,
                                                          tmp_path):
        # x2 = 2 x1 leaves only the prior to pin three weight directions;
        # at tau = 1e6 the precision matrix's Cholesky factor failed.
        # Either family's config stores the exact full-rank posterior
        rng = np.random.default_rng(1)
        x1 = np.round(rng.uniform(0.0, 1.0, 50), 6)
        y = np.round(1.0 + 2.0 * x1 + 0.1 * rng.standard_normal(50), 6)
        data = tmp_path / "collinear.csv"
        data.write_text("x1,x2,y\n" + "".join(
            f"{a!r},{2.0 * a!r},{b!r}\n"
            for a, b in zip(x1.tolist(), y.tolist())))
        model_out = tmp_path / "m.json"
        for family in vi.FAMILIES:
            cfg = write_json(tmp_path / "t.json", {
                "dataset": {"path": str(data), "target": "y"},
                "model": {"fixed_noise_sd": 0.1, "prior_tau": 1e6},
                "vi": {"family": family},
                "model_out": str(model_out),
            })
            code, out, err = run_cli(capsys, "train", "--config", cfg)
            assert (code, err) == (0, "")
            training = json.loads(out)["results"]["training"]
            assert (training["family"], training["stop_reason"]) == \
                ("full_rank", "exact")
            saved = json.loads(model_out.read_text())
            assert saved["posterior"]["family"] == "full_rank"

    def test_tiny_prior_tau_overflow_is_a_divergence(self, capsys, tmp_path):
        # 1 / tau^2 = 1e300 makes Adam's g g overflow: v turned infinite,
        # theta froze and the run exited 0 with F near 1e298
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 30)
        y = 1.0 + 2.0 * x + 0.1 * rng.standard_normal(30)
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        model_out = tmp_path / "m.json"
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": str(data), "target": "y"},
            "model": {"prior_tau": 1e-150},
            "vi": {"max_steps": 200},
            "model_out": str(model_out),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "train", "--config", cfg)
        assert code == 1 and out == "" and not model_out.exists()
        e = json.loads(err)["error"]
        assert (e["mode"], e["type"]) == ("train", "DivergenceError")
        assert e["message"] == \
            "arithmetic overflow in a training step (step 0)"


def outlier_csv(tmp_path, a4, y7=None):
    """60 records a, b, y with y = 1 + a - b / 2 + N(0, 0.1), a of
    record 4 set to ``a4`` and y of record 7 to ``y7``."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(60), rng.standard_normal(60)
    y = 1.0 + a - 0.5 * b + rng.normal(0.0, 0.1, 60)
    if a4 is not None:
        a[4] = a4
    if y7 is not None:
        y[7] = y7
    path = tmp_path / f"outlier-{a4}-{y7}.csv"
    path.write_text("a,b,y\n" + "".join(
        f"{p!r},{q!r},{r!r}\n"
        for p, q, r in zip(a.tolist(), b.tolist(), y.tolist())))
    return str(path)


class TestOverflowingData:
    """Finite data whose statistics or features leave the double range:
    each run trains, or refuses with one structured error and no numpy
    warning on stderr."""

    def train(self, capsys, tmp_path, data, **model):
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": data, "target": "y"}, "model": model,
            "vi": {"max_steps": 300},
            "model_out": str(tmp_path / "model.json"),
        })
        return run_cli(capsys, "train", "--config", cfg)

    def test_summary_of_a_finite_outlier_is_finite(self, capsys, tmp_path):
        # np.std overflowed in its squares: x_sd = inf was a ConfigError
        code, out, err = self.train(capsys, tmp_path,
                                    outlier_csv(tmp_path, 1e200),
                                    mean_degree=2)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["results"]["training"]["n_steps"] == 300
        sd = report["dataset_summary"]["features"][0]["sd"]
        assert sd == pytest.approx(1e200 / math.sqrt(60), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fixed_noise_sd", [None, 0.1])
    def test_overflowing_feature_is_refused_by_record(
            self, capsys, tmp_path, fixed_noise_sd):
        # a DivergenceError at step 0, or a ConfigError on a non-finite
        # posterior, after numpy's overflow warnings
        code, out, err = self.train(capsys, tmp_path,
                                    outlier_csv(tmp_path, 1e200),
                                    standardize=False,
                                    fixed_noise_sd=fixed_noise_sd)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert (e["mode"], e["type"]) == ("train", "DatasetError")
        assert e["message"] == \
            "record 4: feature a^2 leaves the double range (inf)"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("mean_degree, message", [
        (2, "part 0: feature a^2 leaves the double range (inf)"),
        # the sd's square overflowed: it was reported as inf
        (1, "part 0: the noise activation's sd under the posterior is "
            "1.38725e+159, outside the noise-head quadrature's range "
            "[0, 100]")])
    def test_overflowing_part_is_refused_by_part(self, capsys, tmp_path,
                                                 mean_degree, message):
        code, _, err = self.train(capsys, tmp_path,
                                  outlier_csv(tmp_path, None),
                                  mean_degree=mean_degree)
        assert (code, err) == (0, "")
        cfg = write_json(tmp_path / "p.json", {
            "model_path": str(tmp_path / "model.json"),
            "parts": {"inline": [[1e160, 0.0]]}})
        code, out, err = run_cli(capsys, "predict", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert (e["mode"], e["type"]) == ("predict", "DomainError")
        assert e["message"] == message

    @pytest.mark.parametrize("fixed_noise_sd, kind, message", [
        # np.std's squares overflowed, with numpy's warning, before this
        (None, "DivergenceError", "free energy became non-finite (step 0)"),
        # two matmul overflow warnings, then the report refused an inf
        (1.0, "DomainError",
         "the free energy is inf: its sums of squares leave the double "
         "range")])
    def test_overflowing_target_is_refused_without_warning(
            self, capsys, tmp_path, fixed_noise_sd, kind, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = self.train(capsys, tmp_path,
                                        outlier_csv(tmp_path, None, 1e200),
                                        mean_degree=2,
                                        fixed_noise_sd=fixed_noise_sd)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert (e["mode"], e["type"], e["message"]) == ("train", kind, message)

    def test_overflowing_variance_is_refused_by_part(self, capsys, tmp_path):
        # |L_mu'phi|^2 overflowed: the report refused an inf and named no
        # part; u itself is a double
        code, _, err = self.train(capsys, tmp_path,
                                  outlier_csv(tmp_path, None),
                                  mean_degree=1, fixed_noise_sd=1.0)
        assert (code, err) == (0, "")
        cfg = write_json(tmp_path / "p.json", {
            "model_path": str(tmp_path / "model.json"),
            "parts": {"inline": [[1e160, 0.0]]}})
        code, out, err = run_cli(capsys, "predict", "--config", cfg)
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert (e["mode"], e["type"]) == ("predict", "DomainError")
        assert e["message"] == ("part 0: u is 1.43586e+159 under the "
                                "posterior, and u^2 leaves the double range")


class TestConformity:
    def test_decisions_and_overrides(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "spec": {"lsl": 10.0, "usl": 10.2},
            "measurements": [{"y": 10.1, "U": 0.02},
                             {"y": 10.25, "U": 0.02}],
        })
        _, out, _ = run_cli(capsys, "conformity", "--config", cfg)
        zones = [d["zone"] for d in json.loads(out)["results"]["decisions"]]
        assert zones == ["conformity", "non_conformity_upper"]

        _, out, _ = run_cli(capsys, "conformity", "--config", cfg,
                            "--usl", "10.5")
        zones = [d["zone"] for d in json.loads(out)["results"]["decisions"]]
        assert zones == ["conformity", "conformity"]

    @pytest.mark.parametrize("spec, measurement, decision", [
        # 2U = 1.8e308 and the width 2e308 both overflowed to inf: the
        # conformity zone was flagged empty
        ({"lsl": -1e308, "usl": 1e308}, {"y": 0.0, "U": 9e307},
         {"zone": "conformity", "no_reliable_zone": False,
          "resulting_tolerance": [-1e308 + 9e307, 1e308 - 9e307]}),
        # lsl + usl overflowed: y above the midpoint 1.6e308 was lower
        ({"lsl": 1.5e308, "usl": 1.7e308}, {"y": 1.69e308, "U": 1e307},
         {"zone": "uncertainty_upper", "no_reliable_zone": True,
          "resulting_tolerance": None}),
        # usl + U overflows, and 2U with it; neither warns
        ({"lsl": 0.0, "usl": 1.7e308}, {"y": 1.75e308, "U": 1e308},
         {"zone": "uncertainty_upper", "no_reliable_zone": True,
          "resulting_tolerance": None})])
    def test_limits_at_the_edge_of_the_double_range(
            self, capsys, tmp_path, spec, measurement, decision):
        cfg = write_json(tmp_path / "c.json", {
            "spec": spec, "measurements": [measurement]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "conformity", "--config", cfg)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["decisions"] == [
            {**decision, **measurement}]

    def test_nan_literal_is_structured_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"spec": {"lsl": 10.0, "usl": 10.2}, '
                        '"measurements": [{"y": NaN, "U": 0.02}]}')
        code, out, err = run_cli(capsys, "conformity", "--config", str(path))
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["mode"] == "conformity"
        assert e["type"] == "ConfigError" and "NaN" in e["message"]

    def test_infinite_limit_is_config_error(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "spec": {"lsl": 10.0, "usl": 10.2},
            "measurements": [{"y": 10.1, "U": 0.02}],
        })
        code, out, err = run_cli(capsys, "conformity", "--config", cfg,
                                 "--usl", "inf")
        assert code == 1 and out == ""
        e = json.loads(err)["error"]
        assert e["type"] == "ConfigError"
        assert "limits must be finite, got [10.0, inf]" in e["message"]

    def test_seed_flag_is_a_usage_error(self, capsys, tmp_path):
        # conformity draws nothing at random, so it offers no --seed
        cfg = write_json(tmp_path / "c.json", {
            "spec": {"lsl": 10.0, "usl": 10.2},
            "measurements": [{"y": 10.1, "U": 0.02}],
        })
        with pytest.raises(SystemExit) as exc:
            main(["conformity", "--config", cfg, "--seed", "1"])
        assert exc.value.code == 2
        assert "\nuncertlab: error: unrecognized arguments: --seed 1\n" \
            in capsys.readouterr().err


class TestOverrides:
    """Command-line values are written into the document before
    validation, so the schema checks them like any other key."""

    @pytest.mark.parametrize("mode,doc,flags,path", [
        *[("train", {"dataset": {"path": "d.csv", "target": "y"},
                     "model_out": "m.json", "vi": vi}, ["--seed", "3"], "$.vi")
          for vi in (None, [], 5)],
        ("conformity", {"spec": None, "measurements": [{"y": 1, "U": 0}]},
         ["--lsl", "1"], "$.spec"),
    ], ids=["vi-null", "vi-list", "vi-number", "spec-null"])
    def test_block_that_is_no_object_is_refused(self, capsys, tmp_path,
                                                 mode, doc, flags, path):
        cfg = write_json(tmp_path / "c.json", doc)
        code, out, err = run_cli(capsys, mode, "--config", cfg, *flags)
        assert code == 1 and out == "" and "Traceback" not in err
        e = json.loads(err)["error"]
        assert e["mode"] == mode and e["type"] == "ConfigError"
        assert e["message"].startswith(f"config invalid at {path}: ")

    def test_limits_are_checked_as_config_keys(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "measurements": [{"y": 10.1, "U": 0.02}]})
        code, _, err = run_cli(capsys, "conformity", "--config", cfg,
                               "--lsl", "10")
        assert code == 1
        assert json.loads(err)["error"]["message"] == (
            "config invalid at $.spec: 'usl' is a required property")
        assert json.loads(echoed_config(
            capsys, "conformity", "--config", cfg, "--lsl", "10",
            "--usl", "10.2"))["spec"] == {"lsl": 10.0, "usl": 10.2}

    def test_predict_has_no_seed_flag(self, capsys, tmp_path):
        # predict draws nothing; its config still accepts a seed key
        cfg = write_json(tmp_path / "p.json", {
            "model_path": "m.json", "parts": {"inline": [[0.0]]}})
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--config", cfg, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def verify_cases(out):
    """The case rows of verify's report text ``out``, by name."""
    checks = json.loads(out)["results"]["conjugate_check"]
    return {case.pop("name"): case for case in checks["cases"]}


def scaled_u(result, factor=1.01):
    return dataclasses.replace(result, u=result.u * factor)


def widened(result, factor=1.01):
    y, (lo, hi) = result.y, result.interval
    return dataclasses.replace(result, interval=(y - factor * (y - lo),
                                                 y + factor * (hi - y)))


def usl_plus_U_raised(decision, factor=1.01):
    """The zone limit usl + U one percent higher."""
    y, limit = decision.y, decision.spec.usl + decision.U
    zone = decision.zone.copy()
    zone[(y > limit) & (y <= factor * limit)] = "uncertainty_upper"
    return dataclasses.replace(decision, zone=zone)


def monte_carlo(change):
    return lambda out: (change(out[0]), out[1])


# per case: the library call it makes and what throws it off by 1%
PERTURBATIONS = {
    "taylor1_affine": ("propagate_taylor1", scaled_u),
    "taylor2_product": ("propagate_taylor2", scaled_u),
    "analytic_correlated_sum": ("propagate_analytic", scaled_u),
    "monte_carlo_mean": ("propagate_monte_carlo", monte_carlo(
        lambda r: dataclasses.replace(r, y=r.y * 1.01))),
    "monte_carlo_u": ("propagate_monte_carlo", monte_carlo(scaled_u)),
    "monte_carlo_interval": ("propagate_monte_carlo", monte_carlo(widened)),
    # u^2 off by 1%
    "predict": ("predict_parts", lambda vm: scaled_u(vm, math.sqrt(1.01))),
    "conformity_zones": ("classify", usl_plus_U_raised),
}
# verify's cases in the order it reports them
VERIFY_CASES = tuple(PERTURBATIONS)


class TestVerify:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert json.loads(out)["results"]["conjugate_check"]["passed"]
        cases = verify_cases(out)
        assert tuple(cases) == VERIFY_CASES
        for case in cases.values():
            assert set(case) == {"error", "tolerance", "passed"}
            assert case["passed"] and 0 <= case["error"] <= case["tolerance"]

    @pytest.mark.parametrize("name", VERIFY_CASES)
    def test_a_method_off_by_one_percent_fails_its_case_alone(
            self, capsys, caplog, monkeypatch, name):
        attr, change = PERTURBATIONS[name]
        method = getattr(cli, attr)
        monkeypatch.setattr(cli, attr, lambda *args, **kwargs: change(
            method(*args, **kwargs)))
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 1
        assert not json.loads(out)["results"]["conjugate_check"]["passed"]
        cases = verify_cases(out)
        assert [n for n, case in cases.items() if not case["passed"]] == [name]
        assert cases[name]["error"] > cases[name]["tolerance"]
        assert f"verify case {name} failed" in caplog.text

    @pytest.mark.parametrize("name, attr, change", [
        ("taylor1_affine", "propagate_taylor1",
         lambda r: dataclasses.replace(r, u=math.nan)),
        ("monte_carlo_interval", "propagate_monte_carlo", monte_carlo(
            lambda r: dataclasses.replace(r, interval=(r.interval[0],
                                                       math.nan)))),
    ])
    def test_a_nan_fails_its_case_with_a_null_error(
            self, capsys, monkeypatch, name, attr, change):
        method = getattr(cli, attr)
        monkeypatch.setattr(cli, attr, lambda *args, **kwargs: change(
            method(*args, **kwargs)))
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 1
        cases = verify_cases(out)
        assert [n for n, case in cases.items() if not case["passed"]] == [name]
        assert cases[name]["error"] is None

    def test_data_and_monte_carlo_draw_from_different_streams(
            self, capsys, monkeypatch):
        streams = {"data": [], "monte_carlo": []}

        def spy(who, draw):
            def substream(seed, stream=0):
                streams[who].append((seed, stream))
                return draw(seed, stream)
            return substream

        monkeypatch.setattr(cli, "substream", spy("data", cli.substream))
        monkeypatch.setattr(propagation, "substream",
                            spy("monte_carlo", propagation.substream))
        assert run_cli(capsys, "verify", "--seed", "5")[0] == 0
        # M = 2^16 is one chunk, which draws its scramble from stream 0
        assert streams == {"data": [(5, 1)], "monte_carlo": [(5, 0)]}

    def test_each_case_makes_one_library_call_and_no_optimizer_runs(
            self, capsys, monkeypatch):
        methods = ("propagate_taylor1", "propagate_taylor2",
                   "propagate_analytic", "propagate_monte_carlo",
                   "conjugate_posterior", "predict_parts", "classify")
        calls = []

        def counted(name, method):
            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

        for name in methods:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        monkeypatch.setattr(vi, "optimize", counted("optimize", vi.optimize))
        assert run_cli(capsys, "verify", "--seed", "0")[0] == 0
        assert sorted(calls) == sorted(methods)

    def test_same_seed_writes_the_same_results(self, capsys, tmp_path):
        runs = []
        for run in (1, 2):
            out = tmp_path / f"verify-seed3-run{run}.json"
            assert run_cli(capsys, "verify", "--seed", "3", "--out",
                           str(out))[0] == 0
            runs.append(json.dumps(json.loads(out.read_text())["results"]))
        assert runs[0] == runs[1]
        assert tuple(verify_cases(out.read_text())) == VERIFY_CASES

    def test_one_worker_and_two_write_the_same_results(self, capsys,
                                                        monkeypatch):
        # two inputs at M = 2^16 are one block of draws, which one
        # worker takes at any core count
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(propagation, "_available_cores",
                                lambda: workers)
            code, out, _ = run_cli(capsys, "verify", "--seed", "3")
            assert code == 0
            runs.append(json.dumps(json.loads(out)["results"]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_passes_at_more_seeds(self, capsys, seed):
        code, out, _ = run_cli(capsys, "verify", "--seed", str(seed))
        cases = verify_cases(out)
        assert code == 0 and all(c["passed"] for c in cases.values()), cases
        assert {name: c["tolerance"] for name, c in cases.items()} == {
            "taylor1_affine": 2e-15, "taylor2_product": 2e-15,
            "analytic_correlated_sum": 2e-15, "monte_carlo_mean": 1.6e-5,
            "monte_carlo_u": 4e-5, "monte_carlo_interval": 6e-3,
            "predict": 2e-14, "conformity_zones": 0}


def echoed_config(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # serialized, so 2 and 2.0 compare different
    return json.dumps(json.loads(out)["config"], sort_keys=True)


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


class TestRefusedConfigs:
    """Configs the schemas admit but the run refuses, each with its
    whole message."""

    LEGACY = os.path.join(os.path.dirname(__file__), "data",
                          "legacy_model.json")

    @staticmethod
    def propagate(expression, quantities, **inputs):
        return {"model": {"expression": expression},
                "inputs": {"quantities": [
                    {"name": n, "dist": {"kind": "gaussian", "mean": 1.0,
                                         "sd": 0.1}} for n in quantities],
                           **inputs},
                "method": "taylor1"}

    @pytest.mark.parametrize("mode, doc, message", [
        ("propagate", propagate("X1 @ 2", ["X1"]),
         "model.expression: unexpected character '@' (offset 3)"),
        ("propagate", propagate("X1 + X3", ["X1"]),
         "model references input(s) without a distribution: X3"),
        ("propagate", propagate("X1", ["X1"], correlation=[1.0, 0.0]),
         "inputs.correlation must hold 1 row-major entries for 1 inputs, "
         "got 2"),
        ("propagate", propagate("X1 * X2", ["X1", "X1"]),
         "duplicate input name(s): X1"),
        ("predict", {"parts": {"path": "parts.csv", "inline": [[1.0, 2.0]]}},
         "parts must carry exactly one of 'path' (CSV) or 'inline' (rows)"),
        ("predict", {"parts": {"inline": [[1.0, 2.0], [1.0]]}},
         "inline parts rows differ in length"),
        ("predict", {"parts": {"inline": [[1.0], [2.0]]}},
         "inline parts have 1 feature(s), model expects 2"),
    ], ids=["character", "undeclared-input", "correlation-length",
            "repeated-input", "path-and-inline", "ragged-inline",
            "inline-width"])
    def test_refused_with_its_message(self, capsys, tmp_path, mode, doc,
                                      message):
        if mode == "predict":
            (tmp_path / "parts.csv").write_text("temp,speed\n1,2\n")
            doc = {"model_path": self.LEGACY, **doc}
        cfg = write_json(tmp_path / "c.json", doc)
        code, out, err = run_cli(capsys, mode, "--config", cfg)
        assert code == 1 and out == "" and "Traceback" not in err
        assert json.loads(err)["error"] == {
            "mode": mode, "type": "ConfigError", "message": message}

    def test_repeated_key_in_a_config(self, capsys, tmp_path):
        # json keeps the last value: u would be 5.004, not 0.1
        cfg = tmp_path / "c.json"
        cfg.write_text(
            '{"model": {"expression": "X1"}, "inputs": {"quantities": '
            '[{"name": "X1", "dist": {"kind": "gaussian", "mean": 1.0, '
            '"sd": 0.1, "sd": 5}}]}, "method": "taylor1"}')
        code, out, err = run_cli(capsys, "propagate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "mode": "propagate", "type": "ConfigError",
            "message": f"{cfg}: key 'sd' is repeated in one object"}

    def test_repeated_key_in_a_model_file(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        with open(self.LEGACY) as fh:
            model.write_text(fh.read().replace(
                '"dataset_sha256": null',
                '"dataset_sha256": "0", "dataset_sha256": null'))
        cfg = write_json(tmp_path / "c.json", {
            "model_path": str(model), "parts": {"inline": [[0.5, 0.1]]}})
        code, out, err = run_cli(capsys, "predict", "--config", cfg)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "mode": "predict", "type": "ConfigError",
            "message": f"{model}: key 'dataset_sha256' is repeated in one "
                       "object"}

    def test_config_naming_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "predict", "--config", str(tmp_path))
        assert code == 1 and out == ""
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
        assert json.loads(err)["error"] == {
            "mode": "predict", "type": "ConfigError",
            "message": f"cannot read {str(tmp_path)!r}: {reason}: "
                       f"{str(tmp_path)!r}"}


class TestOwnFiles:
    """No run writes onto a file it reads or has written: the run is
    refused before its first byte, naming both keys."""

    @staticmethod
    def refused(capsys, mode, cfg, message, *argv):
        code, out, err = run_cli(capsys, mode, "--config", cfg, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "mode": mode, "type": "ConfigError", "message": message}

    def train_config(self, tmp_path, training_csv, model_out):
        return write_json(tmp_path / "train.json", {
            "dataset": {"path": training_csv, "target": "y"},
            "vi": {"max_steps": 10}, "model_out": model_out})

    def test_train_onto_its_dataset(self, capsys, tmp_path, training_csv):
        with open(training_csv, "rb") as fh:
            data = fh.read()
        cfg = self.train_config(tmp_path, training_csv, training_csv)
        self.refused(capsys, "train", cfg, "model_out names the same file "
                     f"as dataset.path: {training_csv}")
        with open(training_csv, "rb") as fh:
            assert fh.read() == data

    def test_train_report_onto_its_model(self, capsys, tmp_path,
                                         training_csv):
        model = str(tmp_path / "model.json")
        cfg = self.train_config(tmp_path, training_csv, model)
        self.refused(capsys, "train", cfg,
                     f"model_out names the same file as --out: {model}",
                     "--out", model)
        assert not os.path.exists(model)

    def test_predict_report_onto_its_model(self, capsys, tmp_path):
        model = str(tmp_path / "model.json")
        shutil.copy(TestRefusedConfigs.LEGACY, model)
        cfg = write_json(tmp_path / "c.json", {
            "model_path": "model.json", "parts": {"inline": [[0.5, 0.1]]}})
        self.refused(capsys, "predict", cfg,
                     f"--out names the same file as model_path: {model}",
                     "--out", model)
        assert filecmp.cmp(model, TestRefusedConfigs.LEGACY, shallow=False)

    def test_conformity_report_onto_its_config(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "spec": {"lsl": 0.0, "usl": 1.0},
            "measurements": [{"y": 0.5, "U": 0.1}]})
        text = open(cfg).read()
        # the same file by another name
        other = os.path.join(str(tmp_path), ".", "c.json")
        self.refused(capsys, "conformity", cfg,
                     f"--out names the same file as --config: {other}",
                     "--out", other)
        assert open(cfg).read() == text


class TestConfigEcho:
    """Every subcommand echoes the fully resolved config of a minimal
    config: absent settings take their defaults, numbers echo as the
    run uses them."""

    def test_propagate(self, capsys, tmp_path):
        inputs = {"quantities": [
            {"name": "X1", "dist": {"kind": "gaussian", "mean": 2, "sd": 0.1}},
            {"name": "X2", "dist": {"kind": "rectangular", "lower": 1,
                                    "upper": 3}},
        ]}
        cfg = write_json(tmp_path / "p.json", {
            "model": {"expression": "X1 * X2"}, "inputs": inputs,
            "method": "taylor1"})
        assert echoed_config(capsys, "propagate", "--config", cfg) == \
            canonical({"model": {"expression": "X1 * X2"}, "inputs": inputs,
                       "method": "taylor1", "M": 200000, "seed": 0,
                       "k": 2.0, "coverage": 0.9544997361036416,
                       "dump_samples": None})

    def test_train_and_predict(self, capsys, tmp_path, training_csv):
        model_out = str(tmp_path / "model.json")
        cfg = write_json(tmp_path / "t.json", {
            "dataset": {"path": training_csv, "target": "y"},
            "model_out": model_out})
        assert echoed_config(capsys, "train", "--config", cfg) == canonical({
            "dataset": {"path": training_csv, "target": "y",
                        "features": None},
            "model": {"mean_degree": 2, "noise_degree": 1,
                      "prior_tau": 1.0, "standardize": True,
                      "fixed_noise_sd": None},
            "vi": {"family": "mean_field", "learning_rate": 0.01,
                   "schedule": "constant", "n_mc": 8, "max_steps": 20000,
                   "tolerance": 1e-05, "window": 500, "seed": 0},
            "model_out": model_out, "store_trajectory": False})

        cfg = write_json(tmp_path / "pr.json", {
            "model_path": model_out, "parts": {"inline": [[0], [0.5]]}})
        assert echoed_config(capsys, "predict", "--config", cfg) == \
            canonical({"model_path": model_out,
                       "parts": {"inline": [[0.0], [0.5]]},
                       "k": 2.0, "spec": None})
        # n_samples and seed have no default; given, they are echoed
        cfg = write_json(tmp_path / "pr.json", {
            "model_path": model_out, "parts": {"inline": [[0]]},
            "n_samples": 2000.0, "seed": 5})
        assert echoed_config(capsys, "predict", "--config", cfg) == \
            canonical({"model_path": model_out, "parts": {"inline": [[0.0]]},
                       "n_samples": 2000, "k": 2.0, "seed": 5,
                       "spec": None})

    def test_conformity(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "spec": {"lsl": 10, "usl": 11},
            "measurements": [{"y": 10.5, "U": 0}]})
        assert echoed_config(capsys, "conformity", "--config", cfg) == \
            canonical({"spec": {"lsl": 10.0, "usl": 11.0},
                       "measurements": [{"y": 10.5, "U": 0.0}]})

    def test_verify(self, capsys):
        assert echoed_config(capsys, "verify") == canonical({"seed": 0})


MODES = ("propagate", "train", "predict", "conformity", "verify")


def parsed(parse, argv):
    """``parse(argv)``'s namespace or exit code, with its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.fixture()
def count_parsers(monkeypatch):
    """Count ``argparse.ArgumentParser`` constructions."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


class TestParser:
    """A call that starts with a mode builds only that mode's parser;
    help, version and usage errors read as the top-level parser's."""

    @pytest.mark.parametrize("mode", MODES)
    def test_mode_help_is_the_subparser_help(self, mode):
        for flag in ("--help", "-h"):
            code, out, err = parsed(cli._parse_args, [mode, flag])
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: uncertlab {mode} [-h]")
            assert (code, out, err) == parsed(full_parse, [mode, flag])

    @pytest.mark.parametrize("mode", MODES)
    def test_a_mode_call_builds_one_parser(self, count_parsers, mode):
        argv = [mode, "--config", "c.json", "--out", "o.json"]
        for flag in cli._OVERRIDES[mode]:
            argv += [f"--{flag}", "1"]
        args = cli._parse_args(argv)
        assert count_parsers == [f"uncertlab {mode}"]
        assert vars(args) == vars(full_parse(argv))

    def test_help_and_version_exit_zero(self, capsys, count_parsers):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: uncertlab [-h] [--version]")
        assert "run the built-in conjugate-posterior self-check" in out
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"uncertlab {cli.__version__}\n"
        # the top-level parser and its five subparsers, both times
        assert len(count_parsers) == 12

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: mode"),
        (["bogus"], "argument mode: invalid choice: 'bogus'"),
        (["--config", "c.json", "propagate"],
         "argument mode: invalid choice: 'c.json'"),
        (["propagate", "--config", "c.json", "extra"],
         "unrecognized arguments: extra"),
        (["verify", "--version"], "unrecognized arguments: --version"),
    ], ids=["no-mode", "unknown-mode", "option-first", "extra", "version"])
    def test_usage_errors_exit_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: uncertlab [-h] [--version]")
        assert f"\nuncertlab: error: {message}" in captured.err

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--version"], ["bogus"], ["--seed", "1"], ["-x"],
        ["--", "propagate"], ["--help", "propagate"], ["Propagate"],
        *[[mode, *rest] for mode in MODES for rest in (
            [], ["--config"], ["--config", "c.json"],
            ["--config=c.json", "--out", "o.json"],
            ["--config", "c.json", "--seed", "x"],
            ["--config", "c.json", "--lsl", "1", "--usl", "2"],
            ["--config", "c.json", "--usl", "a"],
            ["--conf", "c.json", "--bogus"],
            ["--config", "c.json", "--"],
            ["--config", "c.json", "--", "x"],
            ["--", "--config", "c.json"],
            ["--v"], ["-hx"], ["propagate"],
            ["--se", "2", "--c", "q"], ["--seed", "-1", "--config", "c"])],
    ])
    def test_same_result_as_the_top_level_parser(self, argv):
        assert parsed(cli._parse_args, argv) == parsed(full_parse, argv)

    def test_main_reads_sys_argv(self, capsys, tmp_path, monkeypatch,
                                 count_parsers):
        cfg = write_json(tmp_path / "c.json", {
            "spec": {"lsl": 10.0, "usl": 10.2},
            "measurements": [{"y": 10.1, "U": 0.02}]})
        monkeypatch.setattr(sys, "argv",
                            ["uncertlab", "conformity", "--config", cfg,
                             "--usl", "10.15"])
        assert main() == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "conformity"
        assert report["config"]["spec"] == {"lsl": 10.0, "usl": 10.15}
        assert count_parsers == ["uncertlab conformity"]
