"""Acceptance gate: the quantitative claims the package must honor.

Eleven checks, each printing one PASS/FAIL line with the measured
value, the tolerance, and the elapsed time. Run with ``pytest -s``
to see every line; without ``-s`` pytest shows the lines of failing
checks only.
"""

import csv
import json
import time

import numpy as np
import pytest

from uncertlab.cli import main as cli_main
from uncertlab.conformity import ZONES, Specification, classify
from uncertlab.dataset import make_dataset
from uncertlab.distributions import Gaussian, InputQuantity, JointInputModel
from uncertlab.expr import parse_model
from uncertlab.propagation import (implied_coverage, propagate_analytic,
                                   propagate_monte_carlo, propagate_taylor1,
                                   propagate_taylor2)
from uncertlab.regression import build_model
from uncertlab.rng import substream
from uncertlab.vi import (VIConfig, VariationalPosterior, conjugate_posterior,
                          kl_gaussian, objective, optimize, predict_parts,
                          train_vi)


def check(index, ok, detail, elapsed, budget):
    """One line per criterion; assert correctness and the runtime bound."""
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = (f"[{index:2d}] {verdict} {detail} "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def gaussian_joint(means, sds):
    qs = [InputQuantity(f"X{i + 1}", Gaussian(m, s))
          for i, (m, s) in enumerate(zip(means, sds))]
    return JointInputModel(qs)


def conjugate_problem(seed=0, n=200, sd=0.2):
    rng = substream(seed, 1)    # optimize draws from stream 0
    x = rng.standard_normal((n, 2))
    w = np.array([1.0, 2.0, -1.0])
    y = w[0] + x @ w[1:] + sd * rng.standard_normal(n)
    data = make_dataset(x, y, ("x1", "x2"))
    model = build_model(data, mean_degree=1, standardize=False,
                        fixed_noise_sd=sd)
    return model, data


def full_anneal(seed, family="full_rank", max_steps=4000, lr=0.02, n_mc=16):
    # window == max_steps: no early stop, the cosine schedule runs out
    return VIConfig(family=family, schedule="cosine", learning_rate=lr,
                    n_mc=n_mc, max_steps=max_steps, tolerance=0.0,
                    window=max_steps, seed=seed)


def test_01_coverage_factor_two_implies_9545():
    t0 = time.monotonic()
    cov = implied_coverage(2.0)
    err = abs(cov - 0.9545)
    check(1, err <= 1e-4,
          f"k=2 implies coverage {cov:.6f} (|diff to 0.9545| = {err:.2e} "
          f"<= 1e-4)", time.monotonic() - t0, 1.0)


def test_02_monte_carlo_error_scales_as_inverse_sqrt_m():
    t0 = time.monotonic()
    m = parse_model("X1 * X2")
    joint = gaussian_joint([2.0, 3.0], [0.1, 0.1])
    sizes = [1_000, 10_000, 100_000, 1_000_000]
    spreads = []
    for size in sizes:
        estimates = [propagate_monte_carlo(m, joint, M=size, seed=s)[0].y
                     for s in range(20)]
        spreads.append(np.std(estimates, ddof=1))
    slope = np.polyfit(np.log(sizes), np.log(spreads), 1)[0]
    check(2, abs(slope + 0.5) <= 0.1,
          f"seed-to-seed spread slope vs M is {slope:.3f} (in -0.5 +/- 0.1)",
          time.monotonic() - t0, 60.0)


def test_03_methods_agree_on_random_affine_models():
    t0 = time.monotonic()
    rng = np.random.default_rng(2718)
    worst_rel, worst_z = 0.0, 0.0
    for _ in range(25):
        n = int(rng.integers(1, 5))
        coeffs = rng.uniform(-3, 3, size=n)
        const = rng.uniform(-2, 2)
        text = " + ".join(f"{c:.8f} * X{i + 1}"
                          for i, c in enumerate(coeffs))
        model = parse_model(f"{text} + {const:.8f}")
        joint = gaussian_joint(rng.uniform(-2, 2, size=n),
                               rng.uniform(0.05, 0.5, size=n))
        ra = propagate_analytic(model, joint)
        for r in (propagate_taylor1(model, joint),
                  propagate_taylor2(model, joint)):
            worst_rel = max(worst_rel,
                            abs(r.u - ra.u) / ra.u,
                            abs(r.y - ra.y) / max(abs(ra.y), 1e-12))
        mc, _ = propagate_monte_carlo(model, joint, M=1_000_000,
                                      seed=int(rng.integers(1 << 30)))
        se_mean = mc.mc_diagnostics.mc_standard_error
        se_sd = ra.u / np.sqrt(2.0 * 1_000_000)
        worst_z = max(worst_z, abs(mc.y - ra.y) / se_mean,
                      abs(mc.u - ra.u) / se_sd)
    ok = worst_rel <= 1e-12 and worst_z <= 5.0
    check(3, ok,
          f"25 affine models: series methods within {worst_rel:.2e} rel "
          f"(<= 1e-12), MC worst deviation {worst_z:.2f} se (<= 5)",
          time.monotonic() - t0, 120.0)


def test_04_second_order_square_model_exact():
    t0 = time.monotonic()
    m = parse_model("X1 ^ 2")
    worst = 0.0
    for u0 in (0.1, 1.0, 3.0):
        r = propagate_taylor2(m, gaussian_joint([0.0], [u0]))
        want = 2.0 * u0 ** 4
        worst = max(worst, abs(r.u ** 2 - want) / want)
    check(4, worst <= 1e-12,
          f"squared-input variance = 2*u0^4 within {worst:.2e} rel "
          f"(<= 1e-12) for u0 in {{0.1, 1, 3}}", time.monotonic() - t0, 1.0)


def test_05_full_rank_vi_recovers_conjugate_posterior():
    t0 = time.monotonic()
    model, data = conjugate_problem(seed=0)
    design = model.design(data)
    exact = conjugate_posterior(design)
    out = optimize(design, full_anneal(seed=0))
    q = out.posterior
    exact_cov = exact.covariance()
    mu_rel = np.linalg.norm(q.mu - exact.mu) / np.linalg.norm(exact.mu)
    cov_rel = (np.linalg.norm(q.covariance() - exact_cov)
               / np.linalg.norm(exact_cov))
    xq = np.array([[0.3, -0.2]])
    want = predict_parts(model, exact, xq, 2.0)
    want_mean, want_var = want.y[0], want.u[0] ** 2
    vm = predict_parts(model, q, xq, 2.0)
    mean_rel = abs(vm.y[0] - want_mean) / abs(want_mean)
    var_rel = abs(vm.u[0] ** 2 - want_var) / want_var
    ok = (mu_rel <= 0.02 and cov_rel <= 0.10
          and mean_rel <= 0.02 and var_rel <= 0.02)
    check(5, ok,
          f"mean {mu_rel:.4f} (<= 0.02), cov {cov_rel:.4f} (<= 0.10), "
          f"predictive mean {mean_rel:.4f} / var {var_rel:.4f} (<= 0.02)",
          time.monotonic() - t0, 300.0)


def test_06_predictive_variance_decomposition_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        n_features = int(rng.integers(1, 4))
        x = rng.standard_normal((30, n_features))
        y = rng.standard_normal(30)
        data = make_dataset(x, y,
                            tuple(f"x{i + 1}" for i in range(n_features)))
        fixed = 0.2 if rng.random() < 0.5 else None
        model = build_model(data,
                            mean_degree=int(rng.integers(0, 3)),
                            noise_degree=int(rng.integers(0, 2)),
                            fixed_noise_sd=fixed)
        p = model.n_weights
        if rng.random() < 0.5:
            q = VariationalPosterior("mean_field", rng.standard_normal(p),
                                     rng.uniform(0.1, 1.0, size=p))
        else:
            scale = np.tril(rng.standard_normal((p, p)) * 0.2)
            np.fill_diagonal(scale, rng.uniform(0.1, 1.0, size=p))
            q = VariationalPosterior("full_rank", rng.standard_normal(p),
                                     scale)
        xq = rng.standard_normal(n_features) * 2.0
        vm = predict_parts(model, q, xq[None], 2.0)
        worst = max(worst, abs(vm.u[0] ** 2
                               - (vm.aleatoric_var[0] + vm.epistemic_var[0]))
                    / vm.u[0] ** 2)
    check(6, worst <= 1e-9,
          f"100 random triples: |sigma^2 - (aleatoric + epistemic)| "
          f"<= {worst:.2e} rel (<= 1e-9)", time.monotonic() - t0, 30.0)


def test_07_kl_nonnegative_and_zero_only_at_prior():
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    min_kl = np.inf
    min_offset_kl = np.inf
    for _ in range(1000):
        p = int(rng.integers(1, 6))
        tau = float(rng.uniform(0.3, 3.0))
        if rng.random() < 0.5:
            scale = rng.uniform(0.2, 2.0, size=p)
            q = VariationalPosterior("mean_field",
                                     rng.standard_normal(p) * 0.8, scale)
        else:
            scale = np.tril(rng.standard_normal((p, p)) * 0.3)
            np.fill_diagonal(scale, rng.uniform(0.2, 2.0, size=p))
            q = VariationalPosterior("full_rank",
                                     rng.standard_normal(p) * 0.8, scale)
        kl = kl_gaussian(q, tau)
        min_kl = min(min_kl, kl)
        if abs(np.linalg.norm(q.mu)) > 0.3:  # visibly off the prior
            min_offset_kl = min(min_offset_kl, kl)
    at_prior = kl_gaussian(
        VariationalPosterior("mean_field", np.zeros(4), np.full(4, 1.3)),
        1.3)
    ok = (min_kl >= -1e-12 and abs(at_prior) <= 1e-12
          and min_offset_kl > 1e-12)
    check(7, ok,
          f"1000 posteriors: min KL {min_kl:.2e} (>= 0), at prior "
          f"{at_prior:.2e} (= 0), off prior min {min_offset_kl:.2e} (> 0)",
          time.monotonic() - t0, 5.0)


def _correlated_design_data(seed=42, n=300):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, size=n)
    x2 = x1 + 0.1 * rng.standard_normal(n)  # nearly collinear columns
    y = 1.0 + x1 + 2.0 * x2 + 0.2 * rng.standard_normal(n)
    return make_dataset(np.column_stack([x1, x2]), y, ("x1", "x2"))


def test_08_free_energy_descends_and_full_rank_wins_when_correlated():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)

    def dataset(kind):
        n = 200
        x = rng.uniform(-1, 1, size=(n, 1))
        if kind == "linear":
            y = 1 + 2 * x[:, 0] + 0.1 * rng.standard_normal(n)
        elif kind == "quadratic_hetero":
            sd = 0.05 + 0.1 * np.abs(x[:, 0])
            y = x[:, 0] ** 2 - x[:, 0] + sd * rng.standard_normal(n)
        elif kind == "cubic":
            y = x[:, 0] ** 3 + 0.15 * rng.standard_normal(n)
        else:
            x = rng.standard_normal((n, 2))
            y = 0.5 + x @ [1.0, -1.0] + 0.2 * rng.standard_normal(n)
            return make_dataset(x, y, ("x1", "x2"))
        return make_dataset(x, y, ("x1",))

    descended = []
    for i, kind in enumerate(("linear", "quadratic_hetero", "cubic",
                              "two_feature")):
        data = dataset(kind)
        model = build_model(data, mean_degree=3 if kind == "cubic" else 2)
        out = train_vi(model, data,
                       VIConfig(seed=i, max_steps=3000, schedule="cosine",
                                learning_rate=0.02, tolerance=0.0,
                                window=3000))
        descended.append(out.final_free_energy < out.initial_free_energy)

    corr = _correlated_design_data()
    model = build_model(corr, mean_degree=1, fixed_noise_sd=0.2,
                        standardize=False)
    runs = {}
    for family in ("mean_field", "full_rank"):
        runs[family] = optimize(model.design(corr),
                                full_anneal(seed=5, family=family,
                                            max_steps=8000, n_mc=8))
        descended.append(runs[family].final_free_energy
                         < runs[family].initial_free_energy)

    # both free energies are exact: no sampling allowance
    f_mf = runs["mean_field"].final_free_energy
    f_fr = runs["full_rank"].final_free_energy
    gap_ok = f_mf >= f_fr
    check(8, all(descended) and gap_ok,
          f"descent on {sum(descended)}/6 runs; correlated design "
          f"F_mf - F_fr = {f_mf - f_fr:+.3f} (>= 0, exact F)",
          time.monotonic() - t0, 600.0)


def test_09_conformity_zones_partition_and_degenerate_cleanly():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    partition_ok = True
    for _ in range(10_000):
        lsl = float(rng.uniform(-5, 5))
        usl = lsl + float(rng.uniform(0.5, 4.0))
        spec = Specification(lsl, usl)
        u = float(rng.uniform(0.0, 0.499)) * (usl - lsl)
        y = float(rng.uniform(lsl - 2.0, usl + 2.0))
        d = classify(y, u, spec)
        in_conf = lsl + u <= y <= usl - u
        in_nc = y < lsl - u or y > usl + u
        want = ("conformity" if in_conf
                else "non_conformity" if in_nc else "uncertainty")
        partition_ok &= d.zone in ZONES and d.zone.startswith(want)
        partition_ok &= not d.no_reliable_zone

    spec = Specification(0.0, 1.0)
    degenerate_ok = all(
        classify(y, 0.0, spec).zone
        == ("conformity" if 0.0 <= y <= 1.0
            else "non_conformity_lower" if y < 0
            else "non_conformity_upper")
        for y in np.linspace(-0.5, 1.5, 201))

    monotone_ok = True
    for _ in range(300):
        y = float(rng.uniform(0.0, 1.0))
        was_uncertain = False
        for u in np.linspace(0.0, 0.499, 25):
            zone = classify(y, float(u), spec).zone
            if zone != "conformity":
                was_uncertain = True
            elif was_uncertain:  # left conformity, came back: not monotone
                monotone_ok = False

    ok = partition_ok and degenerate_ok and monotone_ok
    check(9, ok,
          f"10^4 cases partition cleanly: {partition_ok}; U=0 degenerates "
          f"to plain comparison: {degenerate_ok}; monotone in U: "
          f"{monotone_ok}", time.monotonic() - t0, 5.0)


def test_10_free_energy_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(1010)
    x = rng.uniform(-1, 1, size=(30, 1))
    y = 1 + 2 * x[:, 0] + 0.1 * rng.standard_normal(30)
    data = make_dataset(x, y, ("x1",))
    designs = {
        "hetero": build_model(data, mean_degree=1, noise_degree=1),
        "fixed": build_model(data, mean_degree=2, fixed_noise_sd=0.15),
    }
    worst = 0.0
    h = 1e-6
    for point in range(50):
        key = "hetero" if point % 2 == 0 else "fixed"
        model = designs[key]
        design = model.design(data)
        family = "mean_field" if point % 4 < 2 else "full_rank"
        p = model.n_weights
        n_theta = 2 * p if family == "mean_field" else p + p * (p + 1) // 2
        theta = rng.standard_normal(n_theta) * 0.3
        z = rng.standard_normal((4, p))
        _, grad = objective(design, family, theta, z, model.prior_tau)
        for i in range(n_theta):
            e = np.zeros(n_theta)
            e[i] = h
            fp, _ = objective(design, family, theta + e, z, model.prior_tau)
            fm, _ = objective(design, family, theta - e, z, model.prior_tau)
            fd = (fp - fm) / (2 * h)
            scale = max(abs(grad[i]), abs(fd), 1e-4)
            worst = max(worst, abs(grad[i] - fd) / scale)
    check(10, worst <= 1e-4,
          f"50 random points: worst gradient/finite-difference mismatch "
          f"{worst:.2e} rel (<= 1e-4)", time.monotonic() - t0, 30.0)


def test_11_identical_config_and_seed_reproduce_reports(tmp_path, capsys):
    t0 = time.monotonic()

    rng = np.random.default_rng(1111)
    csv_path = tmp_path / "d.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x1", "y"])
        for _ in range(120):
            xi = rng.uniform(-1, 1)
            w.writerow([f"{xi:.12g}",
                        f"{1 + 2 * xi + 0.1 * rng.standard_normal():.12g}"])

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    configs = [
        ("propagate", write("p.json", {
            "model": {"expression": "X1 * X2"},
            "inputs": {"quantities": [
                {"name": "X1",
                 "dist": {"kind": "gaussian", "mean": 2.0, "sd": 0.1}},
                {"name": "X2",
                 "dist": {"kind": "gaussian", "mean": 3.0, "sd": 0.1}},
            ]},
            "method": "monte_carlo", "M": 20_000, "seed": 5})),
        ("train", write("t.json", {
            "dataset": {"path": str(csv_path), "target": "y"},
            "model": {"mean_degree": 1, "noise_degree": 0},
            "vi": {"seed": 2, "max_steps": 1500, "tolerance": 0.0,
                   "window": 1500},
            "model_out": str(tmp_path / "model.json")})),
        ("predict", write("q.json", {
            "model_path": str(tmp_path / "model.json"),
            "parts": {"inline": [[0.2], [-0.4]]},
            "n_samples": 4000, "seed": 9})),
    ]

    all_same = True
    for mode, cfg in configs:
        blocks = []
        for _ in range(2):
            code = cli_main([mode, "--config", cfg])
            out = capsys.readouterr().out
            assert code == 0
            blocks.append(json.dumps(json.loads(out)["results"],
                                     sort_keys=True))
        all_same &= blocks[0] == blocks[1]
    check(11, all_same,
          "propagate/train/predict rerun with same config+seed: results "
          "blocks byte-identical", time.monotonic() - t0, 60.0)
