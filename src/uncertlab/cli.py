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
``verify`` needs no config: it builds a known-noise linear problem
internally, runs Adam for full-rank variational inference on it, and
checks the result against the exact posterior taken from the same
design's R factor, exiting nonzero when the tolerances are missed. It
is the installed self-check that the optimizer still lands on the
exact answer where one exists.

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
from .errors import ConfigError, UncertLabError
from .propagation import (propagate_analytic, propagate_monte_carlo,
                          propagate_taylor1, propagate_taylor2)
from .regression import build_model
from .report import (RowBlock, build_report, decision_rows, file_sha256,
                     load_json, part_rows, propagate_results,
                     train_result_to_dict, write_report, write_text)
from .rng import substream
from .vi import (VIConfig, conjugate_posterior, optimize, predict_parts,
                 train_vi)

log = logging.getLogger("uncertlab")

_VERIFY_NOISE_SD = 0.2
_VERIFY_WEIGHTS = (1.0, 2.0, -1.0)
_VERIFY_QUERY = (0.3, -0.2)
# the problem size the tolerances are set for
_VERIFY_RECORDS = 200
# relative-error bound of each verify check
_VERIFY_TOLERANCES = {"posterior_mean": 0.02, "posterior_cov": 0.10,
                      "predictive_mean": 0.02, "predictive_var": 0.02}


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


def _refuse_overwrites(cfg: dict, given: dict) -> None:
    """Refuse a run whose output names the same file as one of its
    inputs or as another output, before any byte is written. ``given``
    holds the ``--config`` and ``--out`` paths."""
    inputs = {"--config": given["--config"],
              "dataset.path": cfg.get("dataset", {}).get("path"),
              "parts.path": cfg.get("parts", {}).get("path"),
              "model_path": cfg.get("model_path")}
    outputs = {"--out": given["--out"], "model_out": cfg.get("model_out"),
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


def _run_propagate(doc: dict, base_dir: str, given: dict) -> tuple[dict, int]:
    run = resolve_propagate(doc, base_dir)
    cfg = run.resolved
    _refuse_overwrites(cfg, given)

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


def _run_train(doc: dict, base_dir: str, given: dict) -> tuple[dict, int]:
    cfg = resolve_train(doc, base_dir)
    _refuse_overwrites(cfg, given)
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


def _run_predict(doc: dict, base_dir: str, given: dict) -> tuple[dict, int]:
    cfg = resolve_predict(doc, base_dir)
    _refuse_overwrites(cfg, given)
    model, posterior, model_doc = load_model(cfg["model_path"])
    results = {
        "parts": _predict_rows(cfg, model, posterior),
        "model_sha256": file_sha256(cfg["model_path"]),
    }
    report = build_report("predict", cfg, results,
                          dataset_summary=model_doc.get("dataset_summary"))
    return report, 0


def _run_conformity(doc: dict, base_dir: str,
                    given: dict) -> tuple[dict, int]:
    cfg = validate_config(doc, "conformity")
    _refuse_overwrites(cfg, given)
    measurements = cfg["measurements"]
    decisions = classify([m["y"] for m in measurements],
                         [m["U"] for m in measurements],
                         Specification(**cfg["spec"]))
    rows = decision_rows(decisions)
    cfg["measurements"] = rows.echo("U", "y")
    return build_report("conformity", cfg, {"decisions": rows}), 0


def _verify_checks(cfg: dict) -> dict:
    """Run Adam on a conjugate problem; compare to the exact posterior."""
    seed = cfg["seed"]
    rng = substream(seed, 1)    # Adam draws from stream 0
    x = rng.standard_normal((_VERIFY_RECORDS, 2))
    w = np.array(_VERIFY_WEIGHTS)
    y = (w[0] + x @ w[1:]
         + rng.standard_normal(_VERIFY_RECORDS) * _VERIFY_NOISE_SD)
    data = make_dataset(x, y, ("x1", "x2"))
    model = build_model(data, mean_degree=1, standardize=False,
                        fixed_noise_sd=_VERIFY_NOISE_SD)

    design = model.design(data)
    exact = conjugate_posterior(design)
    # no early stop: F is taken at the start and after the last step only
    config = VIConfig(family="full_rank", schedule="cosine",
                      learning_rate=0.02, n_mc=16, max_steps=4000,
                      tolerance=0.0, window=4000, seed=seed)
    train = optimize(design, config)
    q = train.posterior

    mu_rel = float(np.linalg.norm(q.mu - exact.mu)
                   / np.linalg.norm(exact.mu))
    want_cov = exact.covariance()
    cov_rel = float(np.linalg.norm(q.covariance() - want_cov)
                    / np.linalg.norm(want_cov))
    query = np.array([_VERIFY_QUERY])
    want, vm = (predict_parts(model, post, query) for post in (exact, q))
    pred_mean, pred_var = want.y.item(), want.u.item()**2
    mean_rel = abs(vm.y.item() - pred_mean) / max(abs(pred_mean), 1e-12)
    var_rel = abs(vm.u.item()**2 - pred_var) / pred_var

    errors = {"posterior_mean": mu_rel, "posterior_cov": cov_rel,
              "predictive_mean": mean_rel, "predictive_var": var_rel}
    return {
        "posterior_mean_rel_error": mu_rel,
        "posterior_cov_frobenius_rel_error": cov_rel,
        "predictive_mean_rel_error": mean_rel,
        "predictive_var_rel_error": var_rel,
        "tolerances": dict(_VERIFY_TOLERANCES),
        "n_steps": train.n_steps,
        "passed": all(errors[name] <= tol
                      for name, tol in _VERIFY_TOLERANCES.items()),
    }


def _run_verify(doc: dict, base_dir: str, given: dict) -> tuple[dict, int]:
    cfg = validate_config(doc, "verify")
    _refuse_overwrites(cfg, given)
    checks = _verify_checks(cfg)
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
        if args.config is None:         # verify runs without a config
            doc, base_dir = {}, "."
        else:
            doc = load_json(args.config)
            base_dir = os.path.dirname(os.path.abspath(args.config))
        _override(doc, args)
        report, code = _RUNNERS[args.mode](
            doc, base_dir, {"--config": args.config, "--out": args.out})
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
