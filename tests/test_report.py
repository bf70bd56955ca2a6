"""Reports with rows: written from columns, block by block, with the
bytes ``json.dumps(..., sort_keys=True)`` gives the same rows as dicts,
the config's echo of inline rows included."""

import gc
import hashlib
import json
import math
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from uncertlab import __version__, report
from uncertlab.cli import main
from uncertlab.conformity import Specification, classify
from uncertlab.config import load_model
from uncertlab.dataset import ingest_parts
from uncertlab.errors import DomainError
from uncertlab.propagation import MeasurementResult
from uncertlab.report import (ROWS_PER_BLOCK, build_report, part_rows,
                              write_report)
from uncertlab.vi import predict_parts

# floats whose repr changes form: the signed zero, the switch to and from
# exponent notation, the least subnormal and the greatest double
EDGE_FLOATS = (-0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308)


# ---------------------------------------------------------------------------
# The reference: report rows as dicts, as predict and conformity built
# them before the row writer
# ---------------------------------------------------------------------------

def reference_decisions(d):
    zone, y, U, no_zone = np.atleast_1d(d.zone, d.y, d.U, d.no_reliable_zone)
    return [{"zone": z, "resulting_tolerance": None if nz else [lo, hi],
             "y": y_i, "U": U_i, "no_reliable_zone": nz}
            for z, y_i, U_i, nz, lo, hi in zip(
                zone.tolist(), y.tolist(), U.tolist(), no_zone.tolist(),
                (d.spec.lsl + U).tolist(), (d.spec.usl - U).tolist())]


def reference_parts(rows, vm, decisions=None):
    lower, upper = vm.interval
    out = [{"x": x, "y_hat": y, "sigma_hat": u,
            "aleatoric_var": aleatoric, "epistemic_var": epistemic,
            "k": vm.k, "interval": [lo, hi]}
           for x, y, u, aleatoric, epistemic, lo, hi in zip(
               rows.tolist(), vm.y.tolist(), vm.u.tolist(),
               vm.aleatoric_var.tolist(), vm.epistemic_var.tolist(),
               lower.tolist(), upper.tolist())]
    if decisions is not None:
        for entry, decision in zip(out, reference_decisions(decisions)):
            entry["conformity"] = decision
    return out


def reference_text(report_text, key, rows):
    """The report's own text with its ``key`` rows replaced by
    ``rows``, through json.dumps."""
    doc = json.loads(report_text)
    doc["results"][key] = rows
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def rendered(block):
    return "[" + "".join(block.blocks()) + "]"


def virtual(y, u, aleatoric, k=2.0):
    """A virtual measurement with these columns, as predict_parts
    returns one."""
    y, u, aleatoric = (np.array(v, dtype=np.float64)
                       for v in (y, u, aleatoric))
    return MeasurementResult(y, u, k, (y - k * u, y + k * u), "virtual",
                             aleatoric_var=aleatoric,
                             epistemic_var=u * u - aleatoric)


def without_timestamp(text):
    return re.sub(r'"created_utc": "[^"]*"', '"created_utc": ""', text)


def whole_report(mode, config, results, **extra):
    """A report as a dict, timestamp aside, through json.dumps."""
    doc = {"schema_version": report.REPORT_SCHEMA_VERSION,
           "tool": {"name": "uncertlab", "version": __version__},
           "mode": mode, "created_utc": "", "config": config,
           "results": results, **extra}
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Models to predict with
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(repr(v) for v in row) + "\n" for row in rows))
    return str(path)


def train(tmp_path, name, features, fixed_noise_sd):
    rng = np.random.default_rng(17)
    x = np.round(rng.uniform(-1.0, 1.0, (120, len(features))), 6)
    y = 1.0 + x @ np.linspace(0.5, 1.5, len(features)) \
        + (0.05 + 0.1 * (x[:, 0] + 1.0)) * rng.standard_normal(len(x))
    data = write_csv(tmp_path / f"{name}.csv", [*features, "y"],
                     np.column_stack([x, np.round(y, 9)]).tolist())
    model_path = tmp_path / f"{name}.model.json"
    cfg = tmp_path / f"{name}.train.json"
    cfg.write_text(json.dumps({
        "dataset": {"path": data, "target": "y"},
        "model": {"mean_degree": 1, "noise_degree": 1,
                  "fixed_noise_sd": fixed_noise_sd},
        "vi": {"max_steps": 60, "seed": 2},
        "model_out": str(model_path)}))
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / f"{name}.report.json")]) == 0
    return str(model_path)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    return {"learned": train(tmp, "learned", ("x1", "x2"), None),
            "fixed": train(tmp, "fixed", ("x1", "x2"), 0.1)}


def parts(n, seed=3):
    return np.round(np.random.default_rng(seed).uniform(-1.5, 1.5, (n, 2)),
                    6)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def predict(capsys, tmp_path, model_path, rows, spec, from_csv):
    """The predict report's text, written to --out and to stdout."""
    doc = {"model_path": model_path}
    if from_csv:
        # the columns in another order than the model's
        path = write_csv(tmp_path / "parts.csv", ["x2", "x1"],
                         rows[:, ::-1].tolist())
        doc["parts"] = {"path": path}
    else:
        doc["parts"] = {"inline": rows.tolist()}
    if spec is not None:
        doc["spec"] = spec
    cfg = tmp_path / "predict.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "predict.report.json"
    assert run(capsys, "predict", "--config", str(cfg),
               "--out", str(out)) == (0, "", "")
    code, stdout, err = run(capsys, "predict", "--config", str(cfg))
    assert (code, err) == (0, "")
    text = out.read_text()
    assert without_timestamp(stdout) == without_timestamp(text)
    return text


def predict_reference(model_path, rows, spec, parts_doc):
    """The predict report of ``rows`` as dicts, through json.dumps."""
    model, posterior, model_doc = load_model(model_path)
    vm = predict_parts(model, posterior, rows)
    decisions = None if spec is None else classify(
        vm.y, vm.U, Specification(**spec))
    with open(model_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    config = {"model_path": model_path, "parts": parts_doc, "k": 2.0,
              "spec": spec}
    results = {"parts": reference_parts(rows, vm, decisions),
               "model_sha256": sha}
    return whole_report("predict", config, results,
                        dataset_summary=model_doc["dataset_summary"])


def half_of_the_parts_without_zone(model_path, rows):
    """A spec around the median prediction, as wide as its median 2U,
    so that about half the parts have no reliable zone."""
    model, posterior, _ = load_model(model_path)
    vm = predict_parts(model, posterior, rows)
    mid, U = float(np.median(vm.y)), float(np.median(vm.U))
    return {"lsl": mid - U, "usl": mid + U}


class TestPredictRows:
    @pytest.mark.parametrize("n", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK,
                                   ROWS_PER_BLOCK + 1])
    @pytest.mark.parametrize("noise", ["learned", "fixed"])
    def test_bytes_are_the_dicts_through_json_dumps(self, capsys, tmp_path,
                                                    models, noise, n):
        rows = parts(n)
        spec = half_of_the_parts_without_zone(models[noise], rows)
        model, posterior, _ = load_model(models[noise])
        vm = predict_parts(model, posterior, rows)
        decisions = classify(vm.y, vm.U, Specification(**spec))
        if n > 1:
            assert 0 < decisions.no_reliable_zone.sum() < n
        for with_spec in (False, True):
            for from_csv in (False, True):
                text = predict(capsys, tmp_path, models[noise], rows,
                               spec if with_spec else None, from_csv)
                parts_doc = ({"path": str(tmp_path / "parts.csv")}
                             if from_csv else {"inline": rows.tolist()})
                assert without_timestamp(text) == predict_reference(
                    models[noise], rows, spec if with_spec else None,
                    parts_doc)
                assert text.isascii()

    def test_rows_with_edge_floats(self):
        v = np.array(EDGE_FLOATS)
        x = np.column_stack([v, -v])
        u = np.array([0.0, 1e-05, 5e-324, 1e16, 1e-05])
        vm = MeasurementResult(
            v, u, 2.0, (v - 2.0 * u, v + 2.0 * u), "virtual",
            aleatoric_var=np.array([0.0, 5e-324, 1e-05, 1e16, v[-1]]),
            epistemic_var=np.array([-0.0, 1e16, 0.0, 5e-324, 1e-05]))
        decisions = classify(vm.y, vm.U, Specification(-1e-05, 1e16))
        assert set(decisions.no_reliable_zone.tolist()) == {False, True}
        for d in (None, decisions):
            want = json.dumps(reference_parts(x, vm, d), sort_keys=True)
            assert rendered(part_rows(x, vm, d)) == want

    def test_k_prints_as_json_dumps_prints_it(self):
        # the resolved config gives a float, a library caller may not
        x = np.array([[0.5], [1.0]])
        for k in (3, 2.5, 1e-05):
            vm = virtual(y=[1.0, 2.0], u=[0.1, 0.2], aleatoric=[0.005, 0.01],
                         k=k)
            assert rendered(part_rows(x, vm)) == json.dumps(
                reference_parts(x, vm), sort_keys=True)

    def test_split_marker_in_a_path_and_a_feature_name(self, capsys,
                                                       tmp_path):
        # the writer splits the report where a placeholder string stands
        # in for the rows; a parts path and a feature name that encode
        # to that placeholder's JSON text are passed over
        marker = f"{report._PLACEHOLDER}0"
        model_path = train(tmp_path, "marked", (marker, "x2"), 0.1)
        rows = parts(5)
        path = write_csv(tmp_path / f'p"{marker}', [marker, "x2"],
                         rows.tolist())
        assert json.dumps(marker) in json.dumps(path)
        cfg = tmp_path / "predict.json"
        cfg.write_text(json.dumps({"model_path": model_path,
                                   "parts": {"path": path},
                                   "spec": {"lsl": 0.0, "usl": 2.0}}))
        code, out, _ = run(capsys, "predict", "--config", str(cfg))
        assert code == 0
        # in the parts path and in the model's dataset summary
        assert out.count(json.dumps(marker)) >= 2
        model, posterior, _ = load_model(model_path)
        vm = predict_parts(model, posterior, rows)
        decisions = classify(vm.y, vm.U, Specification(0.0, 2.0))
        assert out == reference_text(out, "parts",
                                     reference_parts(rows, vm, decisions))

    def test_model_path_holding_the_placeholder(self, capsys, tmp_path,
                                                models):
        # with inline parts the report has two row blocks, and the
        # first placeholder's JSON text is in the model path's, so the
        # next is taken
        marker = f"{report._PLACEHOLDER}0"
        model_path = str(tmp_path / f'm"{marker}')
        shutil.copy(models["fixed"], model_path)
        assert json.dumps(marker) in json.dumps(model_path)
        rows = parts(5)
        text = predict(capsys, tmp_path, model_path, rows, None,
                       from_csv=False)
        assert without_timestamp(text) == predict_reference(
            model_path, rows, None, {"inline": rows.tolist()})


def conformity_reference(spec, measurements):
    """The conformity report of ``measurements`` as dicts, through
    json.dumps; the resolved config holds every number as a float."""
    d = classify([m["y"] for m in measurements],
                 [m["U"] for m in measurements], Specification(**spec))
    config = {"spec": {key: float(v) for key, v in spec.items()},
              "measurements": [{"y": float(m["y"]), "U": float(m["U"])}
                               for m in measurements]}
    return d, whole_report("conformity", config,
                           {"decisions": reference_decisions(d)})


class TestConformityRows:
    def test_edge_floats_through_the_cli(self, capsys, tmp_path):
        measurements = [{"y": y, "U": U} for y in EDGE_FLOATS
                        for U in (0.0, 5e-324, 1e-05, 1e16)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"spec": {"lsl": -1e-05, "usl": 1e16},
                                   "measurements": measurements}))
        code, out, err = run(capsys, "conformity", "--config", str(cfg))
        assert (code, err) == (0, "")
        d, want = conformity_reference({"lsl": -1e-05, "usl": 1e16},
                                       measurements)
        assert set(d.no_reliable_zone.tolist()) == {False, True}
        assert without_timestamp(out) == want

    def test_integers_echo_as_floats(self, capsys, tmp_path):
        spec = {"lsl": 9, "usl": 11}
        measurements = [{"y": 10, "U": 0}, {"y": 11, "U": 1},
                        {"y": -3, "U": 2}, {"y": 10**20, "U": 7}]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"spec": spec,
                                   "measurements": measurements}))
        code, out, err = run(capsys, "conformity", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert '{"U": 0.0, "y": 10.0}' in out
        assert without_timestamp(out) == conformity_reference(
            spec, measurements)[1]

    # 2,500 rows: three blocks, the last one partial
    @pytest.mark.parametrize("n", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK,
                                   ROWS_PER_BLOCK + 1, 2500])
    def test_blocks_join_as_one_list(self, capsys, tmp_path, n):
        rng = np.random.default_rng(n)
        measurements = [{"y": y, "U": U} for y, U in zip(
            rng.uniform(9.8, 10.4, n).tolist(),
            rng.uniform(0.0, 0.15, n).tolist())]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"spec": {"lsl": 10.0, "usl": 10.2},
                                   "measurements": measurements}))
        out = tmp_path / "c.report.json"
        assert run(capsys, "conformity", "--config", str(cfg),
                   "--out", str(out)) == (0, "", "")
        _, stdout, _ = run(capsys, "conformity", "--config", str(cfg))
        text = out.read_text()
        assert without_timestamp(stdout) == without_timestamp(text)
        assert without_timestamp(text) == conformity_reference(
            {"lsl": 10.0, "usl": 10.2}, measurements)[1]


class TestRefusal:
    def rows_with(self, bad):
        x = np.array([[0.5], [1.0]])
        return part_rows(x, virtual(y=[1.0, bad], u=[0.1, 0.1],
                                    aleatoric=[0.005, 0.005]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_writes_nothing(self, capsys, tmp_path, bad):
        doc = build_report("predict", {}, {"parts": self.rows_with(bad)})
        with pytest.raises(DomainError) as refused:
            report.dump_json({"value": bad})
        out = tmp_path / "report.json"
        for path in (str(out), None):
            with pytest.raises(DomainError) as err:
                write_report(doc, path)
            assert str(err.value) == str(refused.value)
        assert not out.exists()
        assert capsys.readouterr() == ("", "")

    def test_report_without_rows_is_one_dump(self, capsys):
        doc = build_report("verify", {"seed": 1}, {"check": [1.5, None]})
        write_report(doc, None)
        assert capsys.readouterr().out == report.dump_json(doc) + "\n"


class TestPredictMemory:
    PARTS = 50_000

    def test_peak_is_the_table_and_its_result_columns(self, capsys, tmp_path,
                                                       models):
        rows = parts(self.PARTS, seed=9)
        cfg = tmp_path / "predict.json"
        cfg.write_text(json.dumps({
            "model_path": models["learned"],
            "parts": {"path": write_csv(tmp_path / "parts.csv", ["x1", "x2"],
                                        rows.tolist())},
            "spec": {"lsl": 0.0, "usl": 2.0}}))
        argv = ["predict", "--config", str(cfg),
                "--out", str(tmp_path / "report.json")]
        # with the collector off, a reference cycle keeps what it holds
        gc.disable()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert code == 0
        model, _, _ = load_model(models["learned"])
        assert ingest_parts(str(tmp_path / "parts.csv"),
                            model.feature_names).tobytes() == rows.tobytes()
        # the table and the ten numbers a part's row prints besides its
        # x are 0.8 + 4.0 MB; 12.1 MB measured. Building every row as a
        # dict and then the whole report text peaked at 85 MB
        printed = 8 * self.PARTS * (rows.shape[1] + 10)
        assert peak < 4 * printed


class TestConformityMemory:
    MEASUREMENTS = 100_000

    def test_peak_is_the_config_and_the_decision_columns(self, capsys,
                                                          tmp_path):
        rng = np.random.default_rng(9)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "spec": {"lsl": 10.0, "usl": 10.2},
            "measurements": [{"y": y, "U": U} for y, U in zip(
                rng.uniform(9.8, 10.4, self.MEASUREMENTS).tolist(),
                rng.uniform(0.0, 0.15, self.MEASUREMENTS).tolist())]}))
        out = tmp_path / "report.json"
        argv = ["conformity", "--config", str(cfg), "--out", str(out)]
        # with the collector off, a reference cycle keeps what it holds
        gc.disable()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert code == 0
        with open(out) as fh:
            assert fh.read(200).startswith('{"config": {"measurements": '
                                           '[{"U": ')
        # loading and deciding peak at 579 bytes a measurement, 430 of
        # them the loaded config and its resolved copy; writing holds
        # the texts the echo hands to the rows, about 160 bytes, over
        # the 370 that stay. Echoing the measurements through
        # json.dumps peaked at 764
        assert peak < 680 * self.MEASUREMENTS
