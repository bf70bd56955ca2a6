"""Model file save/load round trip and the checks made on load."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from uncertlab import regression
from uncertlab.dataset import make_dataset
from uncertlab.errors import ConfigError, DomainError
from uncertlab.config import load_model, save_model
from uncertlab.regression import build_model
from uncertlab.vi import (VIConfig, VariationalPosterior, predict_parts,
                          train_vi)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(60, 1))
    y = 1.0 + 2.0 * x[:, 0] + 0.1 * rng.standard_normal(60)
    data = make_dataset(x, y, ("x1",))
    model = build_model(data, mean_degree=1, noise_degree=0)
    cfg = VIConfig(seed=0, max_steps=400, window=400, tolerance=0.0)
    return model, train_vi(model, data, cfg), cfg, data


class TestRoundTrip:
    def test_posterior_and_model_survive(self, trained, tmp_path):
        model, train, cfg, data = trained
        path = str(tmp_path / "m.json")
        save_model(path, model, train, cfg, data.summary,
                   dataset_sha256="ab" * 32)
        model2, q2, doc = load_model(path)
        assert model2 == model
        np.testing.assert_allclose(q2.mu, train.posterior.mu, rtol=1e-15)
        np.testing.assert_allclose(q2.scale, train.posterior.scale,
                                   rtol=1e-15)
        assert doc["dataset_sha256"] == "ab" * 32
        assert doc["training"]["n_steps"] == train.n_steps

    def test_full_rank_scale_round_trips(self, trained, tmp_path):
        model, _, cfg_mf, data = trained
        cfg = VIConfig(family="full_rank", seed=1, max_steps=300,
                       window=300, tolerance=0.0)
        train = train_vi(model, data, cfg)
        path = str(tmp_path / "fr.json")
        save_model(path, model, train, cfg, data.summary)
        _, q2, _ = load_model(path)
        np.testing.assert_allclose(q2.scale, train.posterior.scale,
                                   rtol=1e-15)

    def test_trajectory_stored_only_on_request(self, trained, tmp_path):
        model, train, cfg, data = trained
        bare = str(tmp_path / "bare.json")
        full = str(tmp_path / "full.json")
        save_model(bare, model, train, cfg, data.summary)
        save_model(full, model, train, cfg, data.summary,
                   store_trajectory=True)
        assert "trajectory" not in json.load(open(bare))["training"]
        # one exact F per window end
        assert json.load(open(full))["training"]["trajectory"] \
            == train.trajectory.tolist()
        assert len(train.trajectory) == train.n_steps // cfg.window == 1

    def test_stop_reason_recorded_and_optional_on_load(self, trained,
                                                        tmp_path):
        model, train, cfg, data = trained
        path = str(tmp_path / "r.json")
        save_model(path, model, train, cfg, data.summary)
        doc = json.load(open(path))
        assert doc["training"]["stop_reason"] == "max_steps"
        assert doc["training"]["converged"] is False
        # files written before the key existed still load
        del doc["training"]["stop_reason"]
        json.dump(doc, open(path, "w"))
        _, q2, _ = load_model(path)
        np.testing.assert_array_equal(q2.mu, train.posterior.mu)

    def test_version_guard(self, trained, tmp_path):
        model, train, cfg, data = trained
        path = str(tmp_path / "v.json")
        save_model(path, model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["schema_version"] = 999
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError, match="version"):
            load_model(path)

    def test_tamper_guard_on_weight_counts(self, trained, tmp_path):
        model, train, cfg, data = trained
        path = str(tmp_path / "t.json")
        save_model(path, model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["posterior"]["mu"] = doc["posterior"]["mu"][:-1]
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError):
            load_model(path)

    def test_huge_degree_refused_without_listing_monomials(
            self, trained, tmp_path, monkeypatch):
        # comb(1 + 100000, 100000) weights against the file's 2: the
        # count alone refuses the file; listing 5e9 monomials would hang
        model, train, cfg, data = trained
        path = str(tmp_path / "h.json")
        save_model(path, model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"]["mean_degree"] = 100000
        json.dump(doc, open(path, "w"))

        def refuse(*args):
            raise AssertionError("monomials listed")

        monkeypatch.setattr(regression, "polynomial_exponents", refuse)
        with pytest.raises(ConfigError, match="the model defines 100002"):
            load_model(path)

    @pytest.mark.parametrize("x_mean,x_sd,match", [
        ([0.0, 0.0], [1.0], "per feature"),  # lengths differ from features
        ([0.0], [0.0], "x_sd"),               # zero scale: y NaN
        ([0.0], [-1.0], "x_sd"),
    ])
    def test_standardization_constants_checked(self, trained, tmp_path,
                                               x_mean, x_sd, match):
        model, train, cfg, data = trained
        path = str(tmp_path / "s.json")
        save_model(path, model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"].update(x_mean=x_mean, x_sd=x_sd)
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError, match=match):
            load_model(path)

    @pytest.mark.parametrize("tau", [1e300, 1e-200])
    def test_prior_tau_outside_the_double_square_range(self, trained,
                                                       tmp_path, tau):
        model, train, cfg, data = trained
        path = tmp_path / "tau.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"]["prior_tau"] = tau
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError) as info:
            load_model(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}: malformed model document: ")
        assert message.endswith(f"prior tau must have a square that is a "
                                f"finite normal double (about 1.5e-154 to "
                                f"1.3e154), got {tau!r}")

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="list.json"):
            load_model(str(path))

    @pytest.mark.parametrize("degree", [2.5, "2"])
    def test_mean_degree_must_be_an_integer(self, trained, tmp_path, degree):
        model, train, cfg, data = trained
        path = tmp_path / "d.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"]["mean_degree"] = degree
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError, match="d.json"):
            load_model(str(path))

    @pytest.mark.parametrize("field,value,where,expected", [
        ("feature_names", "abc", "", "array"),  # not ('a', 'b', 'c')
        ("feature_names", ["x1", 1], "[1]", "string"),
        ("mean_degree", True, "", "integer"),   # not degree 1
        ("noise_degree", False, "", "integer"),
        ("standardize", 0, "", "boolean"),      # not "off"
        ("prior_tau", True, "", "number"),
        ("fixed_noise_sd", True, "", ["number", "null"]),
    ])
    def test_field_types_checked(self, trained, tmp_path, field, value,
                                 where, expected):
        model, train, cfg, data = trained
        path = tmp_path / "f.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"][field] = value
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError) as info:
            load_model(str(path))
        bad = value[1] if where else value
        assert str(info.value) == (
            f"{path}: model file invalid at $.model.{field}{where}: "
            f"{bad!r} is not of type {expected!r}")

    @pytest.mark.parametrize("edit, where, message", [
        (lambda s: s.update(n_records=0), ".n_records",
         "0 is less than the minimum of 1"),
        (lambda s: s.update(n_records=2.5), ".n_records",
         "2.5 is not of type 'integer'"),
        (lambda s: s.pop("target"), "",
         "'target' is a required property"),
        (lambda s: s["features"][0].update(sd="0.5"), ".features[0].sd",
         "'0.5' is not of type 'number'"),
        (lambda s: s["target"].pop("max"), ".target",
         "'max' is a required property"),
        (lambda s: s["target"].update(name=3), ".target.name",
         "3 is not of type 'string'"),
        (lambda s: s.update(rows=80), "",
         "additional properties are not allowed: 'rows'"),
    ])
    def test_dataset_summary_checked(self, trained, tmp_path, edit, where,
                                     message):
        # predict echoes the summary into every report
        model, train, cfg, data = trained
        path = tmp_path / "s.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        edit(doc["dataset_summary"])
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError) as info:
            load_model(str(path))
        assert str(info.value) == (f"{path}: model file invalid at "
                                   f"$.dataset_summary{where}: {message}")

    def test_integral_float_degree_loads_as_an_integer(self, trained,
                                                      tmp_path):
        model, train, cfg, data = trained
        path = tmp_path / "i.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"]["mean_degree"] = float(model.mean_degree)
        json.dump(doc, open(path, "w"))
        model2, _, _ = load_model(str(path))
        assert model2 == model and type(model2.mean_degree) is int

    @pytest.mark.parametrize("field,value", [("mean_include_bias", False),
                                             ("noise_floor", 1e-3)])
    def test_retired_settings_only_at_their_constant(self, trained,
                                                      tmp_path, field, value):
        model, train, cfg, data = trained
        path = tmp_path / "r.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        doc["model"][field] = value
        json.dump(doc, open(path, "w"))
        with pytest.raises(ConfigError, match=f"r.json.*{field}"):
            load_model(str(path))

    def test_training_block_is_the_train_record(self, trained, tmp_path):
        model, train, cfg, data = trained
        path = tmp_path / "t.json"
        save_model(str(path), model, train, cfg, data.summary)
        doc = json.load(open(path))
        assert doc["training"] == {
            "config": {"family": "mean_field", "learning_rate": 0.01,
                       "schedule": "constant", "n_mc": 8, "max_steps": 400,
                       "tolerance": 0.0, "window": 400, "seed": 0},
            "family": "mean_field", "n_weights": 3, "n_steps": 400,
            "converged": False, "stop_reason": "max_steps",
            "initial_free_energy": train.initial_free_energy,
            "final_free_energy": train.final_free_energy}
        assert "n_weights" not in doc["model"]

    def test_non_finite_model_not_written(self, trained, tmp_path):
        model, train, cfg, data = trained
        # the posterior refuses a non-finite mu, so corrupt it afterwards:
        # the writer is the last guard
        bad = replace(train, posterior=VariationalPosterior(
            "mean_field", train.posterior.mu.copy(), train.posterior.scale))
        bad.posterior.mu[0] = np.inf
        path = tmp_path / "inf.json"
        with pytest.raises(DomainError, match="non-finite"):
            save_model(str(path), model, bad, cfg, data.summary)
        assert not path.exists()

    def test_non_finite_literal_rejected(self, trained, tmp_path):
        model, train, cfg, data = trained
        path = tmp_path / "n.json"
        save_model(str(path), model, train, cfg, data.summary)
        text = path.read_text()
        first = json.loads(text)["posterior"]["mu"][0]
        path.write_text(text.replace(repr(first), "NaN", 1))
        with pytest.raises(ConfigError, match="NaN"):
            load_model(str(path))

    def test_file_is_deterministic(self, trained, tmp_path):
        model, train, cfg, data = trained
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        save_model(a, model, train, cfg, data.summary)
        save_model(b, model, train, cfg, data.summary)
        assert open(a).read() == open(b).read()


class TestOldFiles:
    """A model file written before the bias term, the noise floor and the
    initial posterior scale became constants.

    It carries ``model.mean_include_bias``, ``model.noise_floor``,
    ``model.n_weights`` and ``training.config.init_scale``. The mean
    head's predictive moments are checked against phi'mu and
    |L_mu'phi|^2, built here from the file's own numbers.
    """

    def test_loads_and_predicts_the_same_numbers(self):
        path = os.path.join(DATA, "legacy_model.json")
        model, q, doc = load_model(path)
        assert doc["training"]["config"]["init_scale"] == 0.1
        assert model.feature_names == ("temp", "speed")
        assert model.fixed_noise_sd is None and model.n_weights == 9
        with open(os.path.join(DATA, "legacy_model_predict.json")) as fh:
            ref = json.load(fh)
        vms = predict_parts(model, q, np.array(ref["parts"]), ref["k"])
        with open(path) as fh:
            raw = json.load(fh)
        mu = np.array(raw["posterior"]["mu"][:6])
        sd = np.array(raw["posterior"]["scale"][:6])    # mean-field L
        assert raw["posterior"]["family"] == "mean_field"
        assert len(vms.y) == len(ref["parts"]) == 3
        lower, upper = vms.interval
        for i, x in enumerate(ref["parts"]):
            alone = predict_parts(model, q, np.array([x]), ref["k"])
            for name in ("y", "u", "aleatoric_var", "epistemic_var"):
                assert getattr(alone, name)[0] == getattr(vms, name)[i]
            z1, z2 = ((np.array(x) - raw["model"]["x_mean"])
                      / raw["model"]["x_sd"])
            # degree 2 in two features: 1, z1, z2, z1^2, z1 z2, z2^2
            phi = np.array([1.0, z1, z2, z1 * z1, z1 * z2, z2 * z2])
            assert vms.y[i] == pytest.approx(phi @ mu, rel=1e-12, abs=0.0)
            assert vms.epistemic_var[i] == pytest.approx(
                np.sum((phi * sd) ** 2), rel=1e-12, abs=0.0)
            assert vms.u[i] ** 2 == pytest.approx(
                vms.aleatoric_var[i] + vms.epistemic_var[i], rel=1e-12,
                abs=0.0)
            half = ref["k"] * vms.u[i]
            assert (lower[i], upper[i]) == (vms.y[i] - half,
                                            vms.y[i] + half)
