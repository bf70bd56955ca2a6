#!/usr/bin/env python3
"""Self-test of the benchmark itself; asserts no timings.

    python3 bench/selftest.py

1. Runs every workload at self-test scale (``--tiny``), untraced and
   traced, and checks the result line: its keys, that the run was
   correct, and that the metric names and units are exactly those of
   BENCHMARK.json.
2. Runs each operation once at self-test scale, checks that its report
   passes its oracle, then perturbs the report (u * 1.01 and the like)
   and checks that the oracle rejects it.
3. Runs the benchmark command in a directory holding only
   BENCHMARK.json and the benchmark's files, where it must fail without
   printing a result.

Exits 1 if any check fails.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import oracles
import run
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def benchmark_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_result_lines(spec: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in workloads.WORKLOADS + ("small_runs",):
        for trace in (0, 1):
            cmd = spec["command"][1:] + [
                "--workload", workload, "--seed", "11", "--seconds", "0",
                "--trace", str(trace), "--tiny"]
            proc = subprocess.run([sys.executable] + cmd, cwd=run.ROOT,
                                  capture_output=True, text=True, timeout=600)
            what = f"{workload} trace={trace}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{what}: exit {proc.returncode} "
                              f"{proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{what}: correct, failed == 0")
            expect(isinstance(result["attempted"], int)
                   and result["attempted"] >= 1, f"{what}: attempted >= 1")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{what}: metric names and units "
                   f"match BENCHMARK.json (missing "
                   f"{sorted(set(wanted[trace]) - set(got))}, extra "
                   f"{sorted(set(got) - set(wanted[trace]))})")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{what}: numeric values")


def _edit(path: list, change):
    """Perturbation that replaces the value at ``path`` by change(value)."""
    def perturb(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
    return perturb


MEASUREMENT = ["results", "measurement"]

# op -> perturbations its oracle must reject
PERTURBATIONS = {
    "propagate_taylor1": [
        ("u * 1.01", _edit(MEASUREMENT + ["u"], lambda u: u * 1.01)),
        ("sensitivity * 1.01", _edit(["results", "budget", 0, "sensitivity"],
                                     lambda c: c * 1.01))],
    "propagate_taylor2": [
        ("u * 1.01", _edit(MEASUREMENT + ["u"], lambda u: u * 1.01))],
    "propagate_analytic": [
        ("u * 1.01", _edit(MEASUREMENT + ["u"], lambda u: u * 1.01)),
        ("y + 0.01", _edit(MEASUREMENT + ["y"], lambda y: y + 0.01))],
    "propagate_mc": [
        ("u * 1.01", _edit(MEASUREMENT + ["u"], lambda u: u * 1.01)),
        ("y * 1.01", _edit(MEASUREMENT + ["y"], lambda y: y * 1.01))],
    "train_mean_field": [
        ("n_steps - 1", _edit(["results", "training", "n_steps"],
                              lambda n: n - 1))],
    "train_full_rank": [
        ("converged", _edit(["results", "training", "converged"],
                            lambda c: True))],
    "predict": [
        ("sigma_hat * 1.01", _edit(["results", "parts", 0, "sigma_hat"],
                                   lambda s: s * 1.01))],
    "conformity": [
        ("zone changed", _edit(["results", "decisions", 0, "zone"],
                               lambda z: "no_such_zone"))],
    "verify": [
        ("passed false", _edit(["results", "conjugate_check", "passed"],
                               lambda p: False))],
}


def check_oracles() -> None:
    from uncertlab import cli
    value, grad, hess, third = oracles.product_derivatives([2.0, 3.0])
    u2 = oracles.taylor_variance(grad, hess, third, [0.01, 0.01], order=2)
    expect(abs(u2 - 0.1301) < 1e-12, f"README X1 * X2 taylor2 u^2 = {u2!r}")

    os.makedirs(run.OUT_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
        try:
            for op in workloads.build(workload, 11, workdir, tiny=True):
                argv = op.argv + (["--seed", "3"] if op.seed_per_call else [])
                code = cli.main(argv)
                what = f"{workload} {op.name}"
                if code != 0:
                    expect(False, f"{what}: exit {code}")
                    continue
                with open(op.out) as fh:
                    report = json.load(fh)
                errors = op.check(report)
                expect(not errors, f"{what}: oracle accepts the report "
                                   f"{errors[:2]}")
                for label, perturb in PERTURBATIONS[op.name]:
                    bad = copy.deepcopy(report)
                    perturb(bad)
                    expect(bool(op.check(bad)),
                           f"{what}: oracle rejects {label}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the command must fail cleanly."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               f"bare directory: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = benchmark_spec()
    run._import_program()
    check_oracles()
    check_bare_directory(spec)
    check_result_lines(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
