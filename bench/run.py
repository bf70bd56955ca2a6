#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the uncertlab CLI.

    python3 bench/run.py --workload series_wide --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; the program is imported from
its ``src/`` directory. Each run builds one workload's inputs from the
seed in a temporary directory under ``.bench_out/``, calls
``uncertlab.cli.main`` in a closed loop (the next call starts when the
previous one returns), checks every report against the oracles in
``oracles.py``, and prints a table followed by one JSON line:

- ``--trace 0``: end-to-end metrics, untraced. Each ``*_ms`` is the
  median time of one ``cli.main`` call for that operation, normalised
  to a fixed machine speed (see REF_SECONDS); ``setup_s`` is the median
  cold start of ``python -m uncertlab.cli --version``; ``peak_rss_mb``
  is this process's peak resident set.
- ``--trace 1``: per-layer metrics. Whole cycles of the nine operations
  alternate between untraced and traced; spans from the traced cycles
  give the layer metrics, and the difference of the median cycle times
  is the tracing overhead.

The run's record (machine, load average before and after, every
timing with its quartiles, failures, and for traced runs the spans)
goes to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 5        # cold starts per run behind setup_s
IMPORT_RUNS = 3       # -X importtime runs per traced run
MIN_SAMPLES = 10      # timed calls per operation, even past --seconds
MIN_CYCLES = 2        # traced and untraced cycles each, per traced run

# Times are normalised to a fixed machine speed. The host this benchmark
# was tuned on changes speed by up to 1.7x over seconds to minutes
# (other tenants), which moved medians of raw call times 15-30% from
# run to run. Each call is therefore bracketed by a fixed reference
# kernel, and its time is scaled by REF_SECONDS / (kernel time): reported
# times read as if the kernel took REF_SECONDS.
REF_SECONDS = 0.65e-3
_REF_MATRIX = np.random.default_rng(0).random((32, 32))


def reference_kernel():
    """Fixed mix of interpreter loops, small matmuls, object allocation
    and a fresh 4 MB array: the kinds of work the CLI does. The array's
    page faults make the kernel feel memory contention, which the
    Monte Carlo and training operations are sensitive to."""
    total = 0
    for i in range(6000):
        total += i * i
    b = _REF_MATRIX
    for _ in range(10):
        b = np.tanh(b @ _REF_MATRIX * 0.01)
    table = {str(i): [i] for i in range(600)}
    fresh = np.ones(500_000)
    return total, b, table, float(fresh[::512].sum())


def reference_seconds() -> float:
    """Fastest of three kernel runs with the garbage collector paused, so
    that a collection or another one-off stall does not count as a slow
    machine."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def describe(samples: list[float], wall: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest of p90/p99/p99.9
    that has at least ten samples beyond it, of normalised times; the
    median of the wall times beside them."""
    n = len(samples)
    q1, med, q3 = (statistics.quantiles(samples, n=4) if n > 1
                   else (samples[0],) * 3)
    out = {"n": n, "median": statistics.median(samples), "q1": q1, "q3": q3,
           "wall_median": statistics.median(wall), "samples": samples}
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(samples, p))
            break
    return out


# ---------------------------------------------------------------------------
# Process-level measurements
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cold_starts(runs: int):
    """Normalised and wall times of fresh ``python -m uncertlab.cli
    --version`` runs, and their errors."""
    times, wall, errors = [], [], []
    for _ in range(runs):
        ref = reference_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "uncertlab.cli", "--version"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=60)
        wall.append(time.perf_counter() - t0)
        ref += reference_seconds()
        times.append(wall[-1] * 2.0 * REF_SECONDS / ref)
        if proc.returncode != 0 or not proc.stdout.startswith("uncertlab "):
            errors.append(f"--version exit {proc.returncode}: "
                          f"{proc.stdout.strip()} {proc.stderr.strip()}")
    return times, wall, errors


def _outermost_cumulative(lines: list[tuple[int, str, int]], prefix: str) -> int:
    """Sum of cumulative microseconds of the outermost imports of package
    ``prefix`` (the import itself or any of its submodules)."""
    total = 0
    stack: list[tuple[int, bool]] = []
    # -X importtime prints children before their parent; reversed, each
    # module comes before the modules it imported
    for depth, name, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        hit = name == prefix or name.startswith(prefix + ".")
        if hit and not inside:
            total += cumulative
        stack.append((depth, inside or hit))
    return total


IMPORT_METRICS = (("cli.import_ms", "uncertlab"),
                  ("cli.import_numpy_ms", "numpy"),
                  ("cli.import_scipy_ms", "scipy"),
                  ("cli.import_jsonschema_ms", "jsonschema"))


def import_times(runs: int) -> dict[str, float]:
    """Median ``-X importtime`` cumulative ms per package of
    ``import uncertlab.cli`` in a fresh interpreter."""
    values: dict[str, list[float]] = {m: [] for m, _ in IMPORT_METRICS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import uncertlab.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=60, check=True)
        lines = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = len(name) - len(name.lstrip(" "))
            lines.append((depth, name.strip(), int(cumulative)))
        for metric, package in IMPORT_METRICS:
            values[metric].append(_outermost_cumulative(lines, package) / 1e3)
    return {m: statistics.median(v) for m, v in values.items()}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Runner:
    """Calls ``cli.main`` for one op, checks the report, counts failures.

    Determinism: any two calls with the same arguments must produce a
    byte-identical ``results`` block.
    """

    def __init__(self, cli, seed: int):
        self.cli = cli
        self.seed = seed
        self.attempted = 0
        self.failures: list[dict] = []
        self.mc_calls = 0
        self.first_results: dict[tuple, str] = {}
        self.mc_diagnostics: list[dict] = []

    def argv(self, op: workloads.Op) -> list[str]:
        if not op.seed_per_call:
            return op.argv
        self.mc_calls += 1
        return op.argv + ["--seed", str(workloads.mc_seed(self.seed,
                                                          self.mc_calls))]

    def call(self, op: workloads.Op, argv=None, tracer=None,
             op_id: int = -1) -> tuple[float, float]:
        """Run one op; returns (wall seconds, speed scale), where wall
        seconds times the scale is the normalised time."""
        argv = argv or self.argv(op)
        self.attempted += 1
        if os.path.exists(op.out):
            os.remove(op.out)
        ref = reference_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.call(op_id, self.cli.main, argv)
        except Exception:
            code = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        ref += reference_seconds()
        self._check(op, argv, code)
        return elapsed, 2.0 * REF_SECONDS / ref

    def _check(self, op, argv, code) -> None:
        if code != 0:
            errors = [f"exit status {code}"]
        else:
            try:
                with open(op.out) as fh:
                    report = json.load(fh)
                errors = op.check(report)
                if op.seed_per_call:
                    self.mc_diagnostics.append(
                        report["results"]["measurement"]["mc_diagnostics"])
                results = json.dumps(report["results"], sort_keys=True)
            except (OSError, ValueError, KeyError, IndexError,
                    TypeError) as err:
                errors, results = [f"unreadable report: {err!r}"], None
            first = self.first_results.setdefault(tuple(argv), results)
            if results != first:
                errors.append("results differ from an earlier call with the "
                              "same config and seed")
        if errors:
            self.failures.append({"op": op.name, "argv": argv,
                                  "errors": errors[:5]})
            print(f"FAIL {op.name}: {errors[:3]}", file=sys.stderr)

    def rerun_first_mc(self, ops) -> None:
        """Replay the first seeded Monte Carlo call: the one op whose
        arguments never repeat inside the timing loop."""
        for op in ops:
            if op.seed_per_call:
                self.call(op, op.argv + ["--seed", str(
                    workloads.mc_seed(self.seed, 1))])

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed_loop(runner: Runner, ops, seconds: float, min_samples: int):
    """Closed loop, interleaved: the op with the least time spent so far
    runs next. Each op runs until it has had its share of ``seconds``
    (an equal split, counting the reference kernel and the check) and at
    least ``min_samples`` calls, so cheap ops collect many samples and
    expensive ones at least the minimum. Returns the calls in order as
    (op name, wall seconds, speed scale)."""
    log = []
    calls = {op.name: 0 for op in ops}
    spent = {op.name: 0.0 for op in ops}
    share = seconds / len(ops)
    while True:
        needy = [op for op in ops if spent[op.name] < share
                 or calls[op.name] < min_samples]
        if not needy:
            return log
        op = min(needy, key=lambda o: spent[o.name])
        t0 = time.perf_counter()
        dt, scale = runner.call(op)
        log.append((op.name, dt, scale))
        calls[op.name] += 1
        spent[op.name] += time.perf_counter() - t0


def traced_loop(runner: Runner, ops, seconds: float):
    """Alternate untraced and traced cycles of all ops."""
    tracer = tracing.Tracer()
    cycles = {False: [], True: []}
    op_names: list[str] = []
    scales: list[float] = []
    end = time.perf_counter() + seconds
    traced = False
    while (time.perf_counter() < end or len(cycles[True]) < MIN_CYCLES
           or len(cycles[False]) < MIN_CYCLES):
        total = 0.0
        if traced:
            tracer.install()
        try:
            for op in ops:
                op_names.append(op.name)
                dt, scale = runner.call(op, tracer=tracer if traced else None,
                                        op_id=len(op_names) - 1)
                scales.append(scale)
                total += dt * scale
        finally:
            tracer.remove()
        cycles[traced].append(total)
        traced = not traced
    return tracer.spans, op_names, scales, cycles


def layer_metrics(runner: Runner, spans, op_names, scales, cycles,
                  imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    stats = tracing.per_call_stats(spans, scales)
    metrics = {m: (v, "ms") for m, v in imports.items()}
    metrics.update(tracing.span_metrics(stats, op_names))

    def ids(*names):
        return [i for i, n in enumerate(op_names) if n in names]

    def median_us(name, op_ids, stat=tracing.TOTAL):
        d = tracing.span_durations(spans, scales, name, op_ids, stat)
        return (statistics.median(d) * 1e6 if d else 0.0, "us")

    metrics["vi.objective.self_us"] = median_us(
        "vi.objective", ids(*tracing.TRAIN), tracing.SELF)
    metrics["conformity.classify_us"] = median_us(
        "conformity.classify", ids("conformity", "predict"))

    mc = ids("propagate_mc")
    diagnostics = runner.mc_diagnostics or [{"M": 0, "domain_error_count": 0}]
    m_draws = diagnostics[0]["M"]
    for metric, span in (("distributions.draws_per_s", "distributions.sample"),
                         ("expr.evaluate_batch.values_per_s",
                          "expr.evaluate_batch")):
        per_call = [stats[i][span][0] for i in mc if span in stats.get(i, {})]
        med = statistics.median(per_call) if per_call else 0.0
        metrics[metric] = (m_draws / med if med else 0.0, "1/s")
    valid = [1.0 - d["domain_error_count"] / max(d["M"], 1)
             for d in diagnostics]
    metrics["propagation.mc_valid_ratio"] = (statistics.median(valid), "ratio")

    untraced = statistics.median(cycles[False])
    traced = statistics.median(cycles[True])
    metrics["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced,
                                     "%")
    metrics["trace.spans_per_cycle"] = (len(spans) / len(cycles[True]),
                                        "count")
    cost = tracing.span_cost_seconds() * REF_SECONDS / reference_seconds()
    metrics["trace.span_cost_us"] = (cost * 1e6, "us")
    return metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _import_program():
    """Import uncertlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "uncertlab", "cli.py")):
        raise SystemExit(f"error: no uncertlab sources under {SRC}; run "
                         "from the root of an uncertlab checkout")
    sys.path.insert(0, SRC)
    from uncertlab import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {cli.__file__}, not {SRC}")
    return cli


def run_workload(args) -> dict:
    cli = _import_program()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": machine_record(),
              "loadavg_before": loadavg()}
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, args.tiny)
        runner = Runner(cli, args.seed)
        if args.trace:
            imports = import_times(IMPORT_RUNS)
        else:
            setup, setup_wall, setup_errors = cold_starts(SETUP_RUNS)
        for op in ops:            # warm-up; also writes the models predict reads
            runner.call(op)
        if args.trace:
            spans, op_names, scales, cycles = traced_loop(runner, ops,
                                                          args.seconds)
            metrics = layer_metrics(runner, spans, op_names, scales, cycles,
                                    imports)
            record["cycles_s"] = {"untraced": cycles[False],
                                  "traced": cycles[True]}
            record["spans"] = {"fields": ["name", "start", "end", "parent",
                                          "op"],
                               "ops": op_names, "scales": scales,
                               "spans": spans}
            record["per_op"] = _per_op_table(
                tracing.per_call_stats(spans, scales), op_names)
        else:
            log = timed_loop(runner, ops, args.seconds,
                             2 if args.tiny else MIN_SAMPLES)
            runner.rerun_first_mc(ops)
            record["log"] = log
            record["timings"] = {"setup_s": describe(setup, setup_wall)}
            for op in ops:
                calls = [(dt, scale) for name, dt, scale in log
                         if name == op.name]
                record["timings"][f"{op.name}_ms"] = describe(
                    [dt * scale * 1e3 for dt, scale in calls],
                    [dt * 1e3 for dt, _ in calls])
            metrics = {m: (d["median"], "s" if m == "setup_s" else "ms")
                       for m, d in record["timings"].items()}
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
            runner.attempted += len(setup)
            runner.failures += [{"op": "setup", "errors": [e]}
                                for e in setup_errors]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = loadavg()
    record["failures"] = runner.failures
    record["result"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in sorted(metrics.items())},
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return record


def _per_op_table(stats, op_names) -> dict:
    """op -> span -> median total ms, self ms and calls over its calls."""
    grouped: dict[str, dict[str, list]] = {}
    for op_id, rows in stats.items():
        if op_id < 0:
            continue
        for span, (total, self_, calls) in rows.items():
            grouped.setdefault(op_names[op_id], {}).setdefault(
                span, []).append((total, self_, calls))
    return {op: {span: [statistics.median(c[i] for c in v) * s
                        for i, s in ((0, 1e3), (1, 1e3), (2, 1))]
                 for span, v in spans.items()}
            for op, spans in grouped.items()}


def print_record(record: dict) -> None:
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas={m['blas'].get('name')} threads={m['thread_env'] or '-'} "
          f"load {record['loadavg_before']} -> {record['loadavg_after']}")
    res = record["result"]
    if record["trace"]:
        for op, spans in sorted(record["per_op"].items()):
            print(f"## {op}: span  total_ms  self_ms  calls (median per call)")
            for span, (total, self_, calls) in sorted(
                    spans.items(), key=lambda kv: -kv[1][0]):
                print(f"   {span:40s} {total:10.3f} {self_:10.3f} "
                      f"{calls:8g}")
        print(f"{'metric':44s} {'unit':>6s} {'value':>14s}")
        for name, v in res["metrics"].items():
            print(f"{name:44s} {v['unit']:>6s} {v['value']:14.6g}")
    else:
        print(f"{'metric':24s} {'unit':>5s} {'n':>5s} {'median':>11s} "
              f"{'q1':>11s} {'q3':>11s} {'wall med':>11s}  tail")
        for name, d in record["timings"].items():
            unit = "s" if name == "setup_s" else "ms"
            tail = " ".join(f"{k}={d[k]:.4g}" for k in ("p90", "p99", "p99.9")
                            if k in d)
            print(f"{name:24s} {unit:>5s} {d['n']:5d} {d['median']:11.4f} "
                  f"{d['q1']:11.4f} {d['q3']:11.4f} {d['wall_median']:11.4f}"
                  f"  {tail}")
        rss = res["metrics"]["peak_rss_mb"]["value"]
        print(f"{'peak_rss_mb':24s} {'MB':>5s} {1:5d} {rss:11.2f}")
        print(f"{'fail_ratio':24s} {'ratio':>5s} {res['attempted']:5d} "
              f"{res['failed'] / res['attempted']:11.4f}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("small_runs", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="measuring time, split evenly among the nine ops; "
                        f"each op also gets at least {MIN_SAMPLES} calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test scale: small inputs, 2 calls per op "
                        "(bench/selftest.py)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
