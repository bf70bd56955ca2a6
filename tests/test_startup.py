"""Start-up guards: what a fresh interpreter loads for each subcommand.

scipy is imported only inside the functions that call it, and configs
are checked without jsonschema, so importing the CLI loads neither; nor
does it load numpy.random or concurrent.futures, which the first draw
and the first Monte Carlo run import. Runs that never need a normal
quantile (train, predict, conformity, verify, and propagate by a series
method without a ``coverage``) never load scipy. Each check runs in a
fresh interpreter, since this test process has imported all of them
already; there jsonschema, a test dependency only, cannot be imported.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import uncertlab.propagation as propagation
from uncertlab.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# a meta-path finder that refuses jsonschema before any other looks
_REFUSE_JSONSCHEMA = """
import sys

class _Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "jsonschema":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, _Refuse())
"""


def run_fresh(code: str, *args: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter importing this checkout, in
    which jsonschema cannot be imported, with ``env`` added to the
    environment."""
    path = [SRC] + ([os.environ["PYTHONPATH"]]
                    if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSE_JSONSCHEMA + textwrap.dedent(code),
         *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_importing_the_cli_loads_neither_scipy_nor_jsonschema():
    out = run_fresh("""
        import sys
        import uncertlab.cli
        print([m for m in ("scipy", "jsonschema") if m in sys.modules])
    """)
    assert json.loads(out) == []


def test_importing_the_cli_loads_no_random_streams_and_no_thread_pool():
    """``numpy.random`` loads with the first draw and
    ``concurrent.futures`` with the first Monte Carlo run; no config
    schema is compiled before its first document."""
    out = run_fresh("""
        import sys
        import uncertlab.cli
        import uncertlab.config
        print([m for m in ("numpy.random", "concurrent.futures")
               if m in sys.modules] + list(uncertlab.config._COMPILED))
    """)
    assert json.loads(out) == []


@pytest.fixture()
def learned_noise_model(tmp_path, capsys):
    data = tmp_path / "train.csv"
    data.write_text("x1,y\n" + "".join(
        f"{x / 10},{1 + 0.3 * x / 10 + 0.01 * (-1) ** x}\n"
        for x in range(-20, 21)))
    cfg = write_json(tmp_path / "train.json", {
        "dataset": {"path": str(data), "target": "y"},
        "vi": {"max_steps": 50},
        "model_out": str(tmp_path / "model.json"),
    })
    assert main(["train", "--config", cfg, "--out",
                 str(tmp_path / "train.report.json")]) == 0
    capsys.readouterr()
    return str(data), str(tmp_path / "model.json")


def test_runs_that_need_no_normal_functions_load_no_scipy(
        tmp_path, learned_noise_model):
    data, model = learned_noise_model
    configs = {
        "train_learned_noise": write_json(tmp_path / "learned.json", {
            "dataset": {"path": data, "target": "y"},
            "vi": {"max_steps": 50},
            "model_out": str(tmp_path / "learned_model.json"),
        }),
        "train_fixed_noise": write_json(tmp_path / "fixed.json", {
            "dataset": {"path": data, "target": "y"},
            "model": {"fixed_noise_sd": 0.1},
            "vi": {"max_steps": 50},
            "model_out": str(tmp_path / "fixed_model.json"),
        }),
        "predict": write_json(tmp_path / "predict.json", {
            "model_path": model,
            "parts": {"inline": [[0.5], [-1.0]]},
            "spec": {"lsl": 0.0, "usl": 2.0},
        }),
        "conformity": write_json(tmp_path / "conformity.json", {
            "spec": {"lsl": 10.0, "usl": 10.2},
            "measurements": [{"y": 10.1, "U": 0.02}],
        }),
        **{f"propagate_{method}": write_json(tmp_path / f"{method}.json", {
            "model": {"expression": "2 * X1 - X2 + 1"},
            "inputs": {"quantities": [
                {"name": "X1", "dist": {"kind": "gaussian", "mean": 1.0,
                                        "sd": 0.1}},
                {"name": "X2", "dist": {"kind": "rectangular",
                                        "lower": 1.0, "upper": 3.0}}]},
            "method": method,
            "k": 2.5,
        }) for method in ("analytic", "taylor1", "taylor2")},
    }
    runs = [[name.split("_")[0], "--config", cfg, "--out",
             str(tmp_path / f"{name}.report.json")]
            for name, cfg in configs.items()]
    runs.append(["verify", "--out", str(tmp_path / "verify.report.json")])
    out = run_fresh("""
        import json, sys
        from uncertlab.cli import main
        print(json.dumps([(argv[0], main(argv), "scipy" in sys.modules)
                          for argv in json.loads(sys.argv[1])]))
    """, json.dumps(runs))
    assert json.loads(out) == [[argv[0], 0, False] for argv in runs]


@pytest.mark.parametrize("correlated", [False, True])
def test_first_monte_carlo_run_imports_scipy_in_its_chunks(
        tmp_path, monkeypatch, capsys, correlated):
    """scipy's and numpy.random's first imports happen inside
    concurrently running chunks (2 workers, 4 chunks); the samples must
    not notice."""
    quantities = [
        {"name": "X1", "dist": {"kind": "gaussian", "mean": 2.0, "sd": 0.1}},
        {"name": "X2", "dist": {"kind": "gaussian", "mean": 3.0, "sd": 0.2}},
    ]
    if not correlated:
        quantities[1]["dist"] = {"kind": "rectangular", "lower": 2.5,
                                 "upper": 3.5}
    doc = {"model": {"expression": "X1 * X2"},
           "inputs": {"quantities": quantities},
           "method": "monte_carlo", "M": 4 * propagation.MC_CHUNK_SIZE,
           "seed": 5}
    if correlated:
        doc["inputs"]["correlation"] = [1.0, 0.4, 0.4, 1.0]
    cfg = write_json(tmp_path / "mc.json", doc)
    cold = run_fresh("""
        import json, sys
        import uncertlab.propagation as propagation
        from uncertlab.cli import main
        propagation._available_cores = lambda: 2
        assert "scipy" not in sys.modules
        assert "numpy.random" not in sys.modules
        assert main(["propagate", "--config", sys.argv[1], "--out",
                     sys.argv[2]]) == 0
        with open(sys.argv[2]) as fh:
            print(json.dumps(json.load(fh)["results"], sort_keys=True))
    """, cfg, str(tmp_path / "cold.json"))

    monkeypatch.setattr(propagation, "_available_cores", lambda: 2)
    warm_out = str(tmp_path / "warm.json")
    assert main(["propagate", "--config", cfg, "--out", warm_out]) == 0
    with open(warm_out) as fh:
        warm = json.dumps(json.load(fh)["results"], sort_keys=True)
    assert cold.strip() == warm
