"""Command-line front end: propagate, train, predict, conformity, verify.

Each subcommand reads a JSON config (``--config``), runs its pipeline,
and emits a JSON report, either to ``--out`` or to stdout. ``--seed``
overrides the config's seed so the same config can be swept across
seeds without editing files; ``conformity`` and ``predict`` draw
nothing at random and have no ``--seed``. All randomness in a run
descends from that one seed; identical config plus seed reproduces the
report's ``results`` block byte for byte. Each command-line value is
written into the config document at the key :data:`_OVERRIDES` names,
before validation, so the schema checks it like any other key. A run
whose output (``--out``, ``model_out``, ``dump_samples``) names the
same file as one of its inputs or as another output is refused once
its config is resolved, before anything is written.

``train`` with a fixed noise sd stores the exact full-rank posterior
and runs no optimizer; a learned noise level runs Adam.
``verify`` needs no config: it runs a fixed table of reference cases,
each one library call compared with an answer known in closed form
within a stated tolerance: taylor1, taylor2, analytic and Monte Carlo
propagation, predict from the exact fixed-noise posterior, and the
conformity zones at their limits. It reports each case's error and
exits nonzero naming each case that fails: the installed self-check of
the numbers the tool ships.

Failures from any pipeline stage, and a run too large to allocate,
surface as a structured JSON error on stderr with the run mode and
error type, and a nonzero exit code.
Log verbosity comes from the UNCERTLAB_LOG environment variable
(debug, info, warning, error).
"""

import argparse
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import __version__
from .config import (load_model, resolve_predict, resolve_propagate,
                     resolve_train, save_model, validate_config)
from .conformity import Specification, classify
from .dataset import ingest_dataset, ingest_parts, make_dataset
from .distributions import (Gaussian, InputQuantity, JointInputModel,
                            Rectangular)
from .errors import ConfigError, UncertLabError
from .expr import parse_model
from .propagation import (propagate_analytic, propagate_monte_carlo,
                          propagate_taylor1, propagate_taylor2)
from .regression import build_model
from .report import (RowBlock, build_report, decision_rows, file_sha256,
                     load_json, part_rows, propagate_results,
                     train_result_to_dict, write_report, write_text)
from .rng import substream
from .vi import VIConfig, conjugate_posterior, predict_parts, train_vi

log = logging.getLogger("uncertlab")

# verify's predict case
_VERIFY_NOISE_SD = 0.2
_VERIFY_WEIGHTS = (1.0, 2.0, -1.0)
_VERIFY_QUERY = (0.3, -0.2)
# the problem size the tolerances are set for
_VERIFY_RECORDS = 200
# verify's Monte Carlo draws: one Sobol' net
_VERIFY_M = 1 << 16
# Each verify case's largest error, from the errors at seeds 0-99,999
# (README "verify"): ten times the worst for the series and predict
# cases, about twice it for Monte Carlo's u and interval, and just
# above 2^-16 for its y, the most that the digits below a net's 16
# stratified ones can move y at any seed. Zones are decided exactly.
_VERIFY_TOLERANCES = {
    "taylor1_affine": 2e-15,
    "taylor2_product": 2e-15,
    "analytic_correlated_sum": 2e-15,
    "monte_carlo_mean": 1.6e-5,
    "monte_carlo_u": 4e-5,
    "monte_carlo_interval": 6e-3,
    "predict": 2e-14,
    "conformity_zones": 0,
}


def _configure_logging() -> None:
    level_name = os.environ.get("UNCERTLAB_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _file_id(path: str) -> tuple:
    """The device and inode of file ``path``; for one not written yet,
    those of its directory, and its name."""
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:
        head, name = os.path.split(path)
        try:
            st = os.stat(head or ".")
        except OSError:     # no such directory: the write is refused
            return (path,)
        return st.st_dev, st.st_ino, name


def _document(args) -> dict:
    """The ``--config`` document, ``{}`` for verify without one, with
    each command-line value written in. A runner hands it straight to
    validation, so no frame holds it once the resolved config exists."""
    doc = {} if args.config is None else load_json(args.config)
    _override(doc, args)
    return doc


def _base_dir(args) -> str:
    """The directory that the config's relative paths resolve against."""
    return os.path.dirname(os.path.abspath(args.config))


def _refuse_overwrites(cfg: dict, args) -> None:
    """Refuse a run whose output names the same file as one of its
    inputs or as another output, before any byte is written."""
    inputs = {"--config": args.config,
              "dataset.path": cfg.get("dataset", {}).get("path"),
              "parts.path": cfg.get("parts", {}).get("path"),
              "model_path": cfg.get("model_path")}
    outputs = {"--out": args.out, "model_out": cfg.get("model_out"),
               "dump_samples": cfg.get("dump_samples")}
    files = [(key, _file_id(path)) for key, path in inputs.items()
             if path is not None]
    for key, path in outputs.items():
        if path is None:
            continue
        file = _file_id(path)
        for other, other_file in files:
            if file == other_file:
                raise ConfigError(
                    f"{key} names the same file as {other}: {path}")
        files.append((key, file))


def _run_propagate(args) -> tuple[dict, int]:
    run = resolve_propagate(_document(args), _base_dir(args))
    cfg = run.resolved
    _refuse_overwrites(cfg, args)

    series = {"analytic": propagate_analytic, "taylor1": propagate_taylor1,
              "taylor2": propagate_taylor2}.get(cfg["method"])
    if series is not None:
        result = series(run.expr, run.joint, k=cfg["k"])
    else:
        result, ecdf = propagate_monte_carlo(
            run.expr, run.joint, M=cfg["M"], seed=cfg["seed"],
            coverage=cfg["coverage"], k=cfg["k"])
        if cfg["dump_samples"] is not None:
            write_text(cfg["dump_samples"], itertools.chain(
                ["y\n"], ("%.17g\n" % v for v in ecdf.sorted_values)))
            log.info("wrote %d sorted samples to %s",
                     len(ecdf.sorted_values), cfg["dump_samples"])

    return build_report("propagate", cfg, propagate_results(result)), 0


def _run_train(args) -> tuple[dict, int]:
    cfg = resolve_train(_document(args), _base_dir(args))
    _refuse_overwrites(cfg, args)
    ds = cfg["dataset"]

    data = ingest_dataset(ds["path"], ds["target"], ds["features"])
    log.info("dataset: %d records, %d features, %d rejected rows",
             data.n_records, data.n_features, data.n_rejected_rows)
    model = build_model(data, **cfg["model"])
    vi_config = VIConfig(**cfg["vi"])
    train = train_vi(model, data, vi_config)
    log.info("training: %d steps, stopped by %s, F %.4g -> %.4g",
             train.n_steps, train.stop_reason,
             train.initial_free_energy, train.final_free_energy)

    sha = file_sha256(ds["path"])
    save_model(cfg["model_out"], model, train, vi_config, data.summary,
               dataset_sha256=sha, store_trajectory=cfg["store_trajectory"])

    results = {
        "training": train_result_to_dict(train),
        "model_out": cfg["model_out"],
        "n_rejected_rows": data.n_rejected_rows,
    }
    report = build_report("train", cfg, results,
                          dataset_summary=asdict(data.summary),
                          dataset_sha256=sha)
    return report, 0


def _predict_rows(cfg: dict, model, posterior) -> RowBlock:
    parts = cfg["parts"]
    if "path" in parts:
        rows = ingest_parts(parts["path"], model.feature_names)
    else:
        rows = np.asarray(parts["inline"], dtype=np.float64)
        if rows.shape[1] != model.n_features:
            raise ConfigError(
                f"inline parts have {rows.shape[1]} feature(s), model "
                f"expects {model.n_features}")
    vm = predict_parts(model, posterior, rows, cfg["k"])
    decisions = None
    if cfg["spec"] is not None:
        decisions = classify(vm.y, vm.U, Specification(**cfg["spec"]))
    block = part_rows(rows, vm, decisions)
    if "inline" in parts:
        parts["inline"] = block.echo("x")
    return block


def _run_predict(args) -> tuple[dict, int]:
    cfg = resolve_predict(_document(args), _base_dir(args))
    _refuse_overwrites(cfg, args)
    model, posterior, model_doc = load_model(cfg["model_path"])
    results = {
        "parts": _predict_rows(cfg, model, posterior),
        "model_sha256": file_sha256(cfg["model_path"]),
    }
    report = build_report("predict", cfg, results,
                          dataset_summary=model_doc.get("dataset_summary"))
    return report, 0


def _run_conformity(args) -> tuple[dict, int]:
    cfg = validate_config(_document(args), "conformity")
    _refuse_overwrites(cfg, args)
    measurements = cfg["measurements"]
    decisions = classify([m["y"] for m in measurements],
                         [m["U"] for m in measurements],
                         Specification(**cfg["spec"]))
    rows = decision_rows(decisions)
    cfg["measurements"] = rows.echo("U", "y")
    return build_report("conformity", cfg, {"decisions": rows}), 0


def _error(got, want, scale=None) -> float:
    """The largest |got - want| / scale, where ``scale`` defaults to
    |want|: a relative error. NaN wherever ``got`` holds a NaN."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want)
                        / (np.abs(want) if scale is None else scale)))


def _verify_errors(seed: int) -> dict[str, float]:
    """Each reference case's error against its closed-form answer."""
    def inputs(*marginals, correlation=None) -> JointInputModel:
        return JointInputModel([InputQuantity(f"X{i}", m) for i, m
                                in enumerate(marginals, 1)], correlation)

    errors = {}
    # y = f(mu) and u^2 = sum_ij c_i c_j u_i u_j r_ij, plus, for taylor2
    # on X1 * X2, the second-order term u1^2 u2^2
    for name, method, expression, joint, y, u2 in (
            ("taylor1_affine", propagate_taylor1, "2 * X1 - 3 * X2 + 0.5",
             inputs(Gaussian(1.0, 0.1), Gaussian(2.0, 0.2)),
             -3.5, 4.0 * 0.01 + 9.0 * 0.04),
            ("taylor2_product", propagate_taylor2, "X1 * X2",
             inputs(Gaussian(2.0, 0.1), Gaussian(3.0, 0.2)),
             6.0, 4.0 * 0.04 + 9.0 * 0.01 + 0.01 * 0.04),
            ("analytic_correlated_sum", propagate_analytic, "X1 + X2",
             inputs(Gaussian(1.0, 0.1), Gaussian(2.0, 0.2),
                    correlation=[[1.0, 0.5], [0.5, 1.0]]),
             3.0, 0.01 + 0.04 + 2.0 * 0.5 * 0.1 * 0.2)):
        result = method(parse_model(expression), joint)
        errors[name] = _error((result.y, result.u), (y, math.sqrt(u2)))

    # X1 + X2 of two Rectangular(0, 1) is triangular on [0, 2]: y = 1,
    # u = 1 / sqrt(6), and the k = 2 interval leaves erfc(sqrt(2)) / 2
    # in each tail, so it ends sqrt(erfc(sqrt(2))) in from each bound
    unit = Rectangular(0.0, 1.0)
    result, _ = propagate_monte_carlo(parse_model("X1 + X2"),
                                      inputs(unit, unit), M=_VERIFY_M,
                                      seed=seed)
    end = math.sqrt(math.erfc(math.sqrt(2.0)))
    errors["monte_carlo_mean"] = _error(result.y, 1.0)
    errors["monte_carlo_u"] = _error(result.u, 1.0 / math.sqrt(6.0))
    # each end's error relative to the exact half-width, 1 - end
    errors["monte_carlo_interval"] = _error(result.interval,
                                            (end, 2.0 - end), 1.0 - end)

    # the exact fixed-noise posterior's prediction against the normal
    # equations: precision A = Phi'Phi / sd^2 + I / tau^2, mean
    # A^-1 Phi'y / sd^2, predictive variance sd^2 + phi'A^-1 phi
    rng = substream(seed, 1)    # Monte Carlo's chunk 0 draws from stream 0
    x = rng.standard_normal((_VERIFY_RECORDS, 2))
    w = np.array(_VERIFY_WEIGHTS)
    sd = _VERIFY_NOISE_SD
    y = w[0] + x @ w[1:] + rng.standard_normal(_VERIFY_RECORDS) * sd
    data = make_dataset(x, y, ("x1", "x2"))
    model = build_model(data, mean_degree=1, standardize=False,
                        fixed_noise_sd=sd)
    vm = predict_parts(model, conjugate_posterior(model.design(data)),
                       np.array([_VERIFY_QUERY]))
    phi = np.column_stack([np.ones(_VERIFY_RECORDS), x])
    precision = phi.T @ phi / sd**2 + np.eye(3) / model.prior_tau**2
    query = np.array([1.0, *_VERIFY_QUERY])
    mean = query @ np.linalg.solve(precision, phi.T @ y / sd**2)
    var = sd**2 + query @ np.linalg.solve(precision, query)
    errors["predict"] = _error((vm.y.item(), vm.u.item()**2), (mean, var))

    # each zone limit lsl -+ U, usl -+ U, exact here, and the next
    # double beyond it: a y on a limit lies in the uncertainty band
    points = []
    for limit, zone, outward, beyond in (
            (9.9375, "uncertainty_lower", -math.inf, "non_conformity_lower"),
            (10.0625, "conformity", -math.inf, "uncertainty_lower"),
            (10.1875, "conformity", math.inf, "uncertainty_upper"),
            (10.3125, "uncertainty_upper", math.inf, "non_conformity_upper")):
        points += [(limit, zone), (math.nextafter(limit, outward), beyond)]
    ys, want = zip(*points)
    zones = classify(ys, 0.0625, Specification(10.0, 10.25)).zone.tolist()
    errors["conformity_zones"] = sum(z != w for z, w in zip(zones, want))
    return errors


def _run_verify(args) -> tuple[dict, int]:
    cfg = validate_config(_document(args), "verify")
    _refuse_overwrites(cfg, args)
    errors = _verify_errors(cfg["seed"])
    cases = []
    for name, tolerance in _VERIFY_TOLERANCES.items():
        error = errors[name]
        passed = error <= tolerance     # False for a NaN error
        if not passed:
            log.warning("verify case %s failed: error %.3g above its "
                        "tolerance %.3g", name, error, tolerance)
        # JSON holds no NaN or inf: such an error is written as null
        cases.append({"name": name, "tolerance": tolerance, "passed": passed,
                      "error": error if math.isfinite(error) else None})
    checks = {"cases": cases, "passed": all(c["passed"] for c in cases)}
    report = build_report("verify", cfg, {"conjugate_check": checks})
    return report, 0 if checks["passed"] else 1


# per subcommand, each command-line flag and the config key it sets
_OVERRIDES = {
    "propagate": {"seed": ("seed",)},
    "train": {"seed": ("vi", "seed")},
    "predict": {},
    "conformity": {"lsl": ("spec", "lsl"), "usl": ("spec", "usl")},
    "verify": {"seed": ("seed",)},
}

_FLAG_TYPES = {"seed": int, "lsl": float, "usl": float}


def _override(doc: dict, args) -> None:
    """Write each command-line value given into ``doc`` at its key."""
    for flag, path in _OVERRIDES[args.mode].items():
        value = getattr(args, flag)
        if value is None:
            continue
        block = doc
        for key in path[:-1]:
            block = block.setdefault(key, {})
            if not isinstance(block, dict):
                break       # the schema refuses it with its path
        else:
            block[path[-1]] = value


def _add_mode_arguments(parser: argparse.ArgumentParser, mode: str) -> None:
    """Declare one subcommand's flags: the one place each flag is named."""
    parser.add_argument("--config", required=mode != "verify",
                        help="JSON run configuration")
    parser.add_argument("--out", help="write the JSON report here "
                                      "(default: stdout)")
    for flag, path in _OVERRIDES[mode].items():
        parser.add_argument(f"--{flag}", type=_FLAG_TYPES[flag],
                            help=f"override the config's {'.'.join(path)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncertlab",
        description="Measurement and virtual-measurement uncertainty "
                    "workbench")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in (
            ("propagate", "propagate input uncertainty through a model"),
            ("train", "train the virtual-measurement posterior on a dataset"),
            ("predict", "virtually measure new parts with a trained model"),
            ("conformity", "classify measurements against specification "
                           "limits"),
            ("verify", "run the built-in conjugate-posterior self-check")):
        _add_mode_arguments(sub.add_parser(mode, help=help_text), mode)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as :func:`build_parser`'s parser would.

    A call that starts with a subcommand builds only that subcommand's
    parser, the same one the top-level parser hands the rest of
    ``argv`` to, so its help and errors are the same bytes. The full
    parser is built for everything else: help, version, a missing or
    unknown mode, an option before the mode, and arguments left over
    after the mode, which the top-level parser reports under its own
    usage line.
    """
    if argv and argv[0] in _RUNNERS:
        mode = argv[0]
        parser = argparse.ArgumentParser(prog=f"uncertlab {mode}")
        parser.set_defaults(mode=mode)
        _add_mode_arguments(parser, mode)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


_RUNNERS = {
    "propagate": _run_propagate,
    "train": _run_train,
    "predict": _run_predict,
    "conformity": _run_conformity,
    "verify": _run_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, code = _RUNNERS[args.mode](args)
        write_report(report, args.out)
    except (UncertLabError, MemoryError) as err:
        # numpy raises a private MemoryError subclass
        kind = ("MemoryError" if isinstance(err, MemoryError)
                else type(err).__name__)
        error = {"error": {"mode": args.mode, "type": kind,
                           "message": str(err)}}
        print(json.dumps(error, indent=2), file=sys.stderr)
        return 1
    if args.out is not None:
        log.info("wrote report to %s", args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
