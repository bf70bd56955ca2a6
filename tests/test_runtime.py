"""End-to-end runs that need only the runtime dependencies.

Neither this module nor ``test_startup.py`` imports mpmath or
jsonschema, so both also pass where only the ``[project]``
dependencies and pytest are installed. Runs that read what a fresh
interpreter loads go through ``test_startup.run_fresh``, where
jsonschema cannot be imported; every other run calls ``cli.main`` in
process. Monte Carlo runs compare one worker with two, whatever the
host's cores, as ``test_propagation.force_workers`` does.
"""

import json
import math
import threading

import numpy as np
import pytest

import uncertlab.propagation as propagation
from uncertlab.cli import main
from uncertlab.propagation import MC_CHUNK_SIZE
from uncertlab.rng import MAX_NET_INPUTS
from test_startup import run_fresh, write_json


def report(capsys, tmp_path, doc, mode="propagate"):
    """The report of ``mode`` on ``doc``, which must exit 0."""
    cfg = write_json(tmp_path / "config.json", doc)
    assert main([mode, "--config", cfg]) == 0
    return json.loads(capsys.readouterr().out)


def gaussians(*moments):
    return {"quantities": [
        {"name": f"X{i + 1}", "dist": {"kind": "gaussian", "mean": mean,
                                       "sd": sd}}
        for i, (mean, sd) in enumerate(moments)]}


def four_records(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x1,y\n0.0,1.0\n0.5,2.1\n1.0,2.9\n1.5,4.05\n")
    return str(path)


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_json_is_read_as_utf8_in_any_locale(tmp_path):
    # RFC 8259 section 8.1: JSON text is UTF-8. Under the C locale
    # Python's default text encoding is ASCII, which refused this file
    doc = {"model": {"expression": "X1"}, "method": "taylor1",
           "inputs": gaussians((2.0, 0.1))}
    doc["inputs"]["quantities"].append(
        {"name": "L\u00e4nge", "dist": {"kind": "gaussian", "mean": 1.0,
                                      "sd": 0.1}})
    cfg = tmp_path / "config.json"
    cfg.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    out = run_fresh("""
        import sys
        from uncertlab.cli import main
        sys.exit(main(sys.argv[1:]))
    """, "propagate", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert out == ""
    with open(tmp_path / "r.json", encoding="ascii") as fh:
        echoed = json.load(fh)["config"]["inputs"]["quantities"][1]["name"]
    assert echoed == "L\u00e4nge"


def test_csv_is_read_as_utf8_in_any_locale(tmp_path):
    # under the C locale the text encoding is ASCII, which refused any
    # byte above 0x7f, the byte-order mark's first among them
    path = tmp_path / "data.csv"
    path.write_bytes("\ufeffL\u00e4nge,y\n1.5,2\n2.5,3\n".encode("utf-8"))
    out = run_fresh("""
        import sys
        from uncertlab.dataset import ingest_dataset
        d = ingest_dataset(sys.argv[1], "y")
        print(ascii(d.feature_names), d.x.tolist(), d.y.tolist())
    """, str(path), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert out == "('L\\xe4nge',) [[1.5], [2.5]] [2.0, 3.0]\n"


def test_help_lists_the_modes_and_propagate_needs_a_config(capsys):
    lines = help_text(capsys, "--help").splitlines()
    assert any(line.startswith("usage: uncertlab [-h] [--version]")
               for line in lines)
    assert any("{propagate,train,predict,conformity,verify} ..." in line
               for line in lines)
    assert help_text(capsys, "propagate", "--help").splitlines()[0] \
        .startswith("usage: uncertlab propagate [-h] --config CONFIG")


def test_runs_without_jsonschema_and_these_load_no_scipy(tmp_path):
    # x2 = 2 x1 at mean degree 2 and prior_tau 1e6: only the prior pins
    # three weight directions. Full-rank learned noise trains the
    # mean-field path on M = [mu | L] with the strict lower triangle free
    rng = np.random.default_rng(1)
    x1 = np.round(rng.uniform(0.0, 1.0, 50), 6)
    y = np.round(1.0 + 2.0 * x1 + 0.1 * rng.standard_normal(50), 6)
    collinear = tmp_path / "collinear.csv"
    collinear.write_text("x1,x2,y\n" + "".join(
        f"{a!r},{2.0 * a!r},{b!r}\n" for a, b in zip(x1.tolist(), y.tolist())))
    model = str(tmp_path / "model-full.json")
    configs = [
        ("train", write_json(tmp_path / "collinear.json", {
            "dataset": {"path": str(collinear), "target": "y"},
            "model": {"fixed_noise_sd": 0.1, "prior_tau": 1e6},
            "model_out": str(tmp_path / "model-collinear.json")})),
        ("train", write_json(tmp_path / "train-full.json", {
            "dataset": {"path": four_records(tmp_path), "target": "y"},
            "model": {"mean_degree": 1},
            "vi": {"max_steps": 200, "family": "full_rank"},
            "model_out": model})),
        ("predict", write_json(tmp_path / "predict-full.json", {
            "model_path": model,
            "parts": {"inline": [[0.0], [0.75], [1.5]]}})),
    ]
    runs = [[mode, "--config", cfg, "--out", f"{cfg}.out"]
            for mode, cfg in configs]
    out = run_fresh("""
        import json, sys
        try:
            import jsonschema
        except ModuleNotFoundError:
            pass
        else:
            sys.exit("jsonschema was importable")
        from uncertlab.cli import main
        print(json.dumps([(main(argv), "scipy" in sys.modules)
                          for argv in json.loads(sys.argv[1])]))
    """, json.dumps(runs))
    assert json.loads(out) == [[0, False]] * 3


def test_full_rank_learned_noise_repeats_its_file_and_splits_sigma_hat(
        capsys, tmp_path):
    # the same model file twice, and sigma_hat^2 = aleatoric + epistemic
    model = tmp_path / "model-full.json"
    train = {"dataset": {"path": four_records(tmp_path), "target": "y"},
             "model": {"mean_degree": 1},
             "vi": {"max_steps": 200, "family": "full_rank"},
             "model_out": str(model)}
    files = []
    for _ in range(2):
        report(capsys, tmp_path, train, "train")
        files.append(model.read_bytes())
    assert files[0] == files[1]
    assert json.loads(files[0])["posterior"]["family"] == "full_rank"
    parts = report(capsys, tmp_path, {
        "model_path": str(model), "parts": {"inline": [[0.0], [0.75], [1.5]]},
    }, "predict")["results"]["parts"]
    assert len(parts) == 3
    assert all(math.isclose(p["sigma_hat"] ** 2,
                            p["aleatoric_var"] + p["epistemic_var"],
                            rel_tol=1e-12) for p in parts)


@pytest.mark.parametrize("expression, mean, sd, want, tol", [
    ("ln(X1)", 1e-200, 1e-201, 0.1, 1e-12),
    ("X1 * 1e-170", 1.0, 0.1, 1e-171, 0.0)])
def test_series_methods_square_no_u_before_its_sensitivity(
        capsys, tmp_path, expression, mean, sd, want, tol):
    # variances of 1e-402 and 1e-342 underflowed to 0
    m = report(capsys, tmp_path, {
        "model": {"expression": expression},
        "inputs": gaussians((mean, sd)),
        "method": "taylor1"})["results"]["measurement"]
    assert abs(m["u"] - want) <= tol


def test_taylor2_of_an_inverse_square(capsys, tmp_path):
    # at N(2, 0.1): y = 1/4 and, with f' = -1/4, f'' = 3/8 and
    # f''' = -3/4 at 2, u^2 = 0.00065078125
    m = report(capsys, tmp_path, {
        "model": {"expression": "X1 ^ -2"}, "inputs": gaussians((2.0, 0.1)),
        "method": "taylor2"})["results"]["measurement"]
    want = math.sqrt(0.00065078125)
    assert m["y"] == 0.25 and abs(m["u"] - want) <= 1e-15 * want


def test_dense_pair_seeding_keeps_the_taylor2_results(capsys, tmp_path):
    # the cyclic sine series over 24 inputs couples 24 pairs; appending
    # 0 * sin(X1 + ... + X24) couples all 276
    n = 24
    series = " + ".join(f"X{i + 1} * sin(X{(i + 1) % n + 1})"
                        for i in range(n))
    dense = series + " + 0 * sin(" + " + ".join(
        f"X{i + 1}" for i in range(n)) + ")"
    inputs = gaussians(*((0.5 + i / n, 0.02 + 0.003 * i) for i in range(n)))
    blocks = []
    for expression in (series, dense):
        blocks.append(json.dumps(report(capsys, tmp_path, {
            "model": {"expression": expression}, "inputs": inputs,
            "method": "taylor2"})["results"]))
    assert blocks[0] == blocks[1]


def test_monte_carlo_dump_holds_the_finite_draws(capsys, tmp_path):
    # ln(X1) fails for the 0.13% of draws with X1 <= 0: the dump holds
    # the M - domain_error_count finite draws in ascending order, both
    # interval endpoints among them
    m = report(capsys, tmp_path, {
        "model": {"expression": "ln(X1)"}, "inputs": gaussians((3.0, 1.0)),
        "method": "monte_carlo", "M": 200_000,
        "dump_samples": "mc-samples.csv"})["results"]["measurement"]
    header, *lines = (tmp_path / "mc-samples.csv").read_text().splitlines()
    draws = [float(line) for line in lines]
    diag = m["mc_diagnostics"]
    lo, hi = m["interval"]
    assert header == "y" and diag["domain_error_count"] > 0
    assert len(draws) == diag["M"] - diag["domain_error_count"]
    assert all(map(math.isfinite, draws))
    assert all(a <= b for a, b in zip(draws, draws[1:]))
    assert lo in draws and hi in draws


def at_workers(monkeypatch, capsys, tmp_path, doc, workers):
    """The results block of a Monte Carlo run on ``workers`` cores."""
    monkeypatch.setattr(propagation, "_available_cores", lambda: workers)
    return json.dumps(report(capsys, tmp_path, doc)["results"])


def test_mixed_marginals_give_one_result_at_any_worker_count(
        monkeypatch, capsys, tmp_path):
    # three inputs at the default M: 16,384-row blocks, so the worker
    # that starts inside a chunk builds its first block from the middle
    # of the chunk's net
    doc = {"model": {"expression": "X1 * X2 / (1 + X3) + sin(X3)"},
           "inputs": {"quantities": [
               {"name": "X1", "dist": {"kind": "gaussian", "mean": 2.0,
                                       "sd": 0.1}},
               {"name": "X2", "dist": {"kind": "rectangular", "lower": 0.7,
                                       "upper": 1.5}},
               {"name": "X3", "dist": {"kind": "triangular", "lower": 0.3,
                                       "mode": 0.5, "upper": 1.0}}]},
           "method": "monte_carlo", "seed": 13}
    rows, real_sample = {}, propagation.sample

    def counting_sample(joint, uniforms):
        tid = threading.get_ident()
        rows[tid] = rows.get(tid, 0) + uniforms.shape[1]
        return real_sample(joint, uniforms)

    monkeypatch.setattr(propagation, "sample", counting_sample)
    one = at_workers(monkeypatch, capsys, tmp_path, doc, 1)
    two = at_workers(monkeypatch, capsys, tmp_path, doc, 2)
    assert one == two
    assert json.loads(one)["measurement"]["mc_diagnostics"][
        "sampling"] == "sobol"
    assert propagation.block_rows(3) == 16_384
    helper, = (n for tid, n in rows.items() if tid != threading.get_ident())
    assert (200_000 - helper) % MC_CHUNK_SIZE


def test_signed_zeros_give_one_result_and_dump_at_any_worker_count(
        monkeypatch, capsys, tmp_path):
    # zeros of both signs and 0.13% domain failures over four chunks
    # plus 17 draws: every -0.0 is stored as 0.0, so the sort split
    # among the workers writes the same results and the same dump, and
    # no draw reads -0
    doc = {"model": {"expression": "0 * X1 + 0 * ln(X2)"},
           "inputs": gaussians((0.0, 1.0), (3.0, 1.0)),
           "method": "monte_carlo", "M": 4 * MC_CHUNK_SIZE + 17}
    signs, real_evaluate = set(), propagation.evaluate_batch

    def signed_evaluate(expr, cols, n):
        values = real_evaluate(expr, cols, n)
        signs.update(np.signbit(values[values == 0.0]).tolist())
        return values

    monkeypatch.setattr(propagation, "evaluate_batch", signed_evaluate)
    results, dumps = [], []
    for workers in (1, 2):
        doc["dump_samples"] = f"mc-zero-{workers}.csv"
        results.append(at_workers(monkeypatch, capsys, tmp_path, doc,
                                  workers))
        dumps.append((tmp_path / doc["dump_samples"]).read_bytes())
    assert results[0] == results[1] and dumps[0] == dumps[1]
    assert "-0" not in dumps[0].decode().splitlines()
    assert signs == {False, True}
    assert json.loads(results[0])["measurement"]["mc_diagnostics"][
        "domain_error_count"] > 0


def test_monte_carlo_refuses_more_inputs_than_its_nets_cover(capsys,
                                                             tmp_path):
    doc = {"model": {"expression": "X1"},
           "inputs": gaussians(*[(0.0, 1.0)] * (MAX_NET_INPUTS + 1)),
           "method": "monte_carlo", "M": 1000}
    cfg = write_json(tmp_path / "config.json", doc)
    assert main(["propagate", "--config", cfg]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    assert f"at most {MAX_NET_INPUTS} inputs" in error["message"]
