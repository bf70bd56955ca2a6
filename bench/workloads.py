"""Generated inputs and the nine timed operations of each workload.

Every workload runs the same nine CLI operations, one per end-to-end
timing metric. A workload fixes one config shape per operation: the
operations it stresses get its large shape, the rest keep the
README-scale shape of ``small_runs``, so they act as controls that an
optimisation of another layer should leave unchanged. All inputs come
from ``numpy.random.default_rng([seed, tag])`` with one tag per input
family, so the same seed gives the same files whatever else is built.
"""

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import oracles

OPS = (
    "propagate_taylor1",
    "propagate_taylor2",
    "propagate_analytic",
    "propagate_mc",
    "train_mean_field",
    "train_full_rank",
    "predict",
    "conformity",
    "verify",
)

# The benchmark's workloads. small_runs (every op at README scale) is
# also runnable on its own, but each of these three already runs all
# README-scale shapes for the ops it does not stress.
WORKLOADS = ("series_wide", "mc_large", "virtual_measurement")


@dataclass(frozen=True)
class Sizes:
    """Config shape of each operation; defaults are the README scale."""

    series_inputs: int = 0          # 0: two-input X1 * X2 for taylor1/2
    affine_inputs: int = 2
    mc_mixed_M: int = 0             # 0: X1 * X2 at the default M
    train_records: int = 200
    train_steps: int = 300
    parts: int = 20
    parts_from_csv: bool = False
    conformity_measurements: int = 1000


def sizes(workload: str, tiny: bool = False) -> Sizes:
    base = Sizes()
    full = {
        "series_wide": replace(base, series_inputs=24, affine_inputs=24),
        "mc_large": replace(base, mc_mixed_M=2_000_000),
        "virtual_measurement": replace(base, train_records=5000,
                                       train_steps=100, parts=500,
                                       parts_from_csv=True),
        "small_runs": base,
    }[workload]
    if not tiny:
        return full
    # self-test scale: same code paths, a fraction of the work
    return replace(
        full,
        series_inputs=min(full.series_inputs, 6),
        affine_inputs=min(full.affine_inputs, 6),
        mc_mixed_M=min(full.mc_mixed_M, 300_000),
        train_records=min(full.train_records, 500),
        train_steps=min(full.train_steps, 100),
        parts=min(full.parts, 50),
        conformity_measurements=100)


@dataclass
class Op:
    """One timed CLI operation with the check its report must pass."""

    name: str
    argv: list[str]
    out: str
    check: Callable[[dict], list[str]]
    seed_per_call: bool = False


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> str:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _gaussian(name: str, mean: float, sd: float) -> dict:
    return {"name": name, "dist": {"kind": "gaussian", "mean": mean, "sd": sd}}


def _round(values) -> list[float]:
    return [round(float(v), 6) for v in values]


# ---------------------------------------------------------------------------
# Propagation inputs
# ---------------------------------------------------------------------------

def _taylor_inputs(rng, n: int):
    """Cyclic sine series over n inputs, or X1 * X2 when n == 0."""
    if n == 0:
        means = np.array(_round(rng.uniform(1.0, 4.0, 2)))
        sds = np.array(_round(rng.uniform(0.05, 0.2, 2)))
        return "X1 * X2", means, sds, oracles.product_derivatives(means)
    means = np.array(_round(rng.uniform(0.5, 1.5, n)))
    sds = np.array(_round(rng.uniform(0.02, 0.1, n)))
    text = " + ".join(f"X{i + 1} * sin(X{(i + 1) % n + 1})" for i in range(n))
    return text, means, sds, oracles.series_derivatives(means)


def _propagate_doc(text, names, means, sds, method) -> dict:
    return {
        "model": {"expression": text},
        "inputs": {"quantities": [_gaussian(n, float(m), float(s))
                                  for n, m, s in zip(names, means, sds)]},
        "method": method,
    }


def _taylor_ops(rng, n: int, workdir: str) -> list[Op]:
    text, means, sds, derivs = _taylor_inputs(rng, n)
    names = [f"X{i + 1}" for i in range(len(means))]
    ops = []
    for order in (1, 2):
        method = f"taylor{order}"
        cfg = _write_json(os.path.join(workdir, f"{method}.json"),
                          _propagate_doc(text, names, means, sds, method))
        ref = {"names": names, "sds": sds, "k": 2.0, "order": order,
               "derivatives": derivs}
        ops.append(Op(f"propagate_{method}",
                      ["propagate", "--config", cfg],
                      os.path.join(workdir, f"{method}.report.json"),
                      lambda r, ref=ref: oracles.check_taylor(r, ref)))
    return ops


def _analytic_op(rng, n: int, workdir: str) -> Op:
    """Affine c0 + sum c_i X_i with equicorrelation 0.3."""
    means = np.array(_round(rng.uniform(-2.0, 2.0, n)))
    sds = np.array(_round(rng.uniform(0.05, 0.5, n)))
    coef = np.array(_round(rng.uniform(-2.0, 2.0, n)))
    offset = round(float(rng.uniform(-1.0, 1.0)), 6)
    corr = np.full((n, n), 0.3)
    np.fill_diagonal(corr, 1.0)
    names = [f"X{i + 1}" for i in range(n)]
    text = f"{offset!r} + " + " + ".join(
        f"{float(c)!r} * {name}" for c, name in zip(coef, names))
    doc = _propagate_doc(text, names, means, sds, "analytic")
    doc["inputs"]["correlation"] = corr.ravel().tolist()
    cfg = _write_json(os.path.join(workdir, "analytic.json"), doc)
    ref = {"names": names, "means": means, "sds": sds, "coefficients": coef,
           "offset": offset, "correlation": corr, "k": 2.0}
    return Op("propagate_analytic", ["propagate", "--config", cfg],
              os.path.join(workdir, "analytic.report.json"),
              lambda r: oracles.check_analytic(r, ref))


def _mc_op(rng, m_mixed: int, workdir: str) -> Op:
    if m_mixed == 0:
        means = _round(rng.uniform(1.0, 4.0, 2))
        sds = _round(rng.uniform(0.05, 0.2, 2))
        doc = _propagate_doc("X1 * X2", ["X1", "X2"], means, sds,
                             "monte_carlo")
        ref = oracles.product_moments(means, sds)
        ref["M"] = 200_000
    else:
        x1 = (round(float(rng.uniform(1.5, 2.5)), 6),
              round(float(rng.uniform(0.05, 0.2)), 6))
        lo2 = round(float(rng.uniform(0.5, 1.0)), 6)
        x2 = (lo2, round(lo2 + float(rng.uniform(0.5, 1.0)), 6))
        lo3 = round(float(rng.uniform(0.1, 0.5)), 6)
        x3 = (lo3, round(lo3 + float(rng.uniform(0.1, 0.4)), 6),
              round(lo3 + 0.5 + float(rng.uniform(0.0, 0.5)), 6))
        x4 = (1.0, 0.3)
        doc = {
            "model": {"expression":
                      "X1 * X2 / (1 + X3) + sqrt(X4) + ln(X1 ^ 2 + X4 ^ 2)"},
            "inputs": {"quantities": [
                _gaussian("X1", *x1),
                {"name": "X2", "dist": {"kind": "rectangular",
                                        "lower": x2[0], "upper": x2[1]}},
                {"name": "X3", "dist": {"kind": "triangular", "lower": x3[0],
                                        "mode": x3[1], "upper": x3[2]}},
                _gaussian("X4", *x4),
            ]},
            "method": "monte_carlo",
            "M": m_mixed,
        }
        ref = oracles.mixed_moments(x1, x2, x3, x4)
        ref["M"] = m_mixed
    ref["k"] = 2.0
    cfg = _write_json(os.path.join(workdir, "mc.json"), doc)
    return Op("propagate_mc", ["propagate", "--config", cfg],
              os.path.join(workdir, "mc.report.json"),
              lambda r: oracles.check_monte_carlo(r, ref),
              seed_per_call=True)


# ---------------------------------------------------------------------------
# Virtual-measurement inputs
# ---------------------------------------------------------------------------

FEATURE_LOC = np.array([10.0, 2.5, -3.0])
FEATURE_SCALE = np.array([2.0, 1.4, 0.5])
# Adam step for the fixed-budget training runs: large enough that a few
# hundred steps reach a usable posterior from the zero initialisation.
LEARNING_RATE = 0.05
N_WEIGHTS = 14      # mean degree 2 (10 monomials) + noise degree 1 (4)


class Generator:
    """Heteroscedastic truth the model family can represent exactly.

    mean(x)  = b0 + a'z + q1 z1^2 + q2 z1 z2
    sd(x)    = softplus(c0 + c1 z1),   z = (x - loc) / scale
    """

    def __init__(self, rng):
        self.b0 = float(rng.uniform(0.5, 1.5))
        self.a = rng.uniform(-0.6, 0.6, 3)
        self.q = rng.uniform(-0.3, 0.3, 2)
        self.c = np.array([rng.uniform(-2.5, -1.5), rng.uniform(-0.5, 0.5)])

    def features(self, rng, n: int) -> np.ndarray:
        return np.round(FEATURE_LOC + FEATURE_SCALE * rng.standard_normal((n, 3)),
                        6)

    def mean(self, x: np.ndarray) -> np.ndarray:
        z = (x - FEATURE_LOC) / FEATURE_SCALE
        return (self.b0 + z @ self.a + self.q[0] * z[:, 0] ** 2
                + self.q[1] * z[:, 0] * z[:, 1])

    def sd(self, x: np.ndarray) -> np.ndarray:
        z1 = (x[:, 0] - FEATURE_LOC[0]) / FEATURE_SCALE[0]
        return np.logaddexp(0.0, self.c[0] + self.c[1] * z1)


def _vm_ops(rng, s: Sizes, workdir: str) -> list[Op]:
    gen = Generator(rng)
    x = gen.features(rng, s.train_records)
    y = gen.mean(x) + gen.sd(x) * rng.standard_normal(len(x))
    data = _write_csv(os.path.join(workdir, "train.csv"),
                      ["x1", "x2", "x3", "y"],
                      np.column_stack([x, np.round(y, 9)]))
    ops = []
    for family in ("mean_field", "full_rank"):
        model_out = os.path.join(workdir, f"model_{family}.json")
        cfg = _write_json(os.path.join(workdir, f"train_{family}.json"), {
            "dataset": {"path": data, "target": "y"},
            "model": {"mean_degree": 2, "noise_degree": 1},
            # tolerance 0 and window == max_steps: the run always takes
            # exactly max_steps steps, so every call does the same work
            "vi": {"family": family, "learning_rate": LEARNING_RATE,
                   "max_steps": s.train_steps, "tolerance": 0.0,
                   "window": s.train_steps, "seed": 1},
            "model_out": model_out,
        })
        ref = {"family": family, "steps": s.train_steps,
               "n_weights": N_WEIGHTS}
        ops.append(Op(f"train_{family}", ["train", "--config", cfg],
                      os.path.join(workdir, f"train_{family}.report.json"),
                      lambda r, ref=ref: oracles.check_train(r, ref)))

    parts = gen.features(rng, s.parts)
    truth = gen.mean(parts)
    lsl, usl = (round(float(v), 6) for v in np.quantile(truth, [0.1, 0.9]))
    doc = {"model_path": os.path.join(workdir, "model_mean_field.json"),
           "n_samples": 2000, "k": 2.0, "seed": 5,
           "spec": {"lsl": lsl, "usl": usl}}
    if s.parts_from_csv:
        doc["parts"] = {"path": _write_csv(os.path.join(workdir, "parts.csv"),
                                           ["x1", "x2", "x3"], parts)}
    else:
        doc["parts"] = {"inline": parts.tolist()}
    cfg = _write_json(os.path.join(workdir, "predict.json"), doc)
    ref = {"rows": parts.tolist(), "true_mean": truth, "k": 2.0,
           "spec": (lsl, usl), "min_coverage": 0.9}
    ops.append(Op("predict", ["predict", "--config", cfg],
                  os.path.join(workdir, "predict.report.json"),
                  lambda r: oracles.check_predict(r, ref)))
    return ops


# ---------------------------------------------------------------------------
# Conformity and verify
# ---------------------------------------------------------------------------

def _conformity_op(rng, n: int, workdir: str) -> Op:
    lsl = round(float(rng.uniform(5.0, 15.0)), 6)
    width = round(float(rng.uniform(0.2, 1.0)), 6)
    usl = lsl + width
    measurements = []
    for i in range(n):
        # one in twenty consumes the whole spec (no reliable zone)
        big = i % 20 == 0
        U = float(rng.uniform(0.5 * width, width) if big
                  else rng.uniform(0.0, 0.3 * width))
        # one in ten sits exactly on a zone boundary, cycling over the four
        y = (lsl + U, usl - U, lsl - U, usl + U)[(i // 10) % 4] \
            if i % 10 == 5 \
            else float(rng.uniform(lsl - 0.5 * width, usl + 0.5 * width))
        measurements.append((y, U))
    cfg = _write_json(os.path.join(workdir, "conformity.json"), {
        "spec": {"lsl": lsl, "usl": usl},
        "measurements": [{"y": y, "U": U} for y, U in measurements],
    })
    ref = {"lsl": lsl, "usl": usl, "measurements": measurements}
    return Op("conformity", ["conformity", "--config", cfg],
              os.path.join(workdir, "conformity.report.json"),
              lambda r: oracles.check_conformity(r, ref))


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """Write the workload's inputs under ``workdir``; return its ops in
    the order of :data:`OPS`."""
    s = sizes(workload, tiny)

    def rng(tag: int):
        return np.random.default_rng([seed, tag])

    ops = _taylor_ops(rng(1), s.series_inputs, workdir)
    ops.append(_analytic_op(rng(2), s.affine_inputs, workdir))
    ops.append(_mc_op(rng(3), s.mc_mixed_M, workdir))
    ops += _vm_ops(rng(4), s, workdir)
    ops.append(_conformity_op(rng(5), s.conformity_measurements, workdir))
    ops.append(Op("verify", ["verify"], os.path.join(workdir, "verify.report.json"),
                  lambda r: oracles.check_verify(r, {})))
    for op in ops:
        op.argv += ["--out", op.out]
    return ops


def mc_seed(seed: int, call: int) -> int:
    """Per-call Monte Carlo seed: each MC run draws a fresh sample set."""
    return seed * 100_003 + call

