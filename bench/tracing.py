"""Per-layer spans recorded from outside the program.

The tracer replaces each traced public function of uncertlab with a
wrapper at the name its caller looks up (``uncertlab.propagation``
calls ``derivatives`` through its own module global, so the wrapper
goes there), and puts the originals back afterwards. A span holds
name, start, end, parent span and operation id; spans stay in a list
until the run writes them out. Self time is a span's duration minus
the time its direct children cover; calls are single-threaded, so the
children never overlap.
"""

import functools
import importlib
import statistics
import sys
import time

# (module:attribute path at the call site, span name). The span name is
# the layer metric's stem: <module>.<function> of the code called.
PATCH_POINTS = (
    ("uncertlab.cli:load_json", "config.load_json"),
    ("uncertlab.cli:resolve_propagate", "config.resolve"),
    ("uncertlab.cli:resolve_train", "config.resolve"),
    ("uncertlab.cli:resolve_predict", "config.resolve"),
    ("uncertlab.cli:resolve_conformity", "config.resolve"),
    ("uncertlab.cli:resolve_verify", "config.resolve"),
    ("uncertlab.config:validate_config", "config.validate_config"),
    ("uncertlab.config:parse_model", "expr.parse_model"),
    ("uncertlab.cli:propagate_analytic", "propagation.propagate_analytic"),
    ("uncertlab.cli:propagate_taylor1", "propagation.propagate_taylor1"),
    ("uncertlab.cli:propagate_taylor2", "propagation.propagate_taylor2"),
    ("uncertlab.cli:propagate_monte_carlo",
     "propagation.propagate_monte_carlo"),
    ("uncertlab.cli:sensitivity_budget", "propagation.sensitivity_budget"),
    ("uncertlab.propagation:derivatives", "autodiff.derivatives"),
    ("uncertlab.propagation:sample", "distributions.sample"),
    ("uncertlab.propagation:evaluate_batch", "expr.evaluate_batch"),
    ("uncertlab.cli:ingest_dataset", "dataset.ingest_dataset"),
    ("uncertlab.cli:ingest_parts", "dataset.ingest_parts"),
    ("uncertlab.cli:build_model", "regression.build_model"),
    ("uncertlab.regression:BayesianVMModel.design", "regression.design"),
    ("uncertlab.regression:DesignMatrices.log_likelihood_and_grad",
     "regression.log_likelihood_and_grad"),
    ("uncertlab.cli:train_vi", "vi.train_vi"),
    ("uncertlab.vi:objective", "vi.objective"),
    ("uncertlab.cli:predict", "vi.predict"),
    ("uncertlab.cli:save_model", "model_io.save_model"),
    ("uncertlab.cli:load_model", "model_io.load_model"),
    ("uncertlab.cli:file_sha256", "report.file_sha256"),
    ("uncertlab.cli:build_report", "report.build_report"),
    ("uncertlab.cli:write_report", "report.write_report"),
    ("uncertlab.cli:classify", "conformity.classify"),
    ("uncertlab.conformity:classify", "conformity.classify"),
    ("uncertlab.cli:classify_virtual", "conformity.classify_virtual"),
    ("uncertlab.cli:conjugate_posterior", "conjugate.conjugate_posterior"),
    ("uncertlab.cli:substream", "rng.substream"),
    ("uncertlab.propagation:substream", "rng.substream"),
    ("uncertlab.distributions:substream", "rng.substream"),
    ("uncertlab.vi:substream", "rng.substream"),
)

ROOT_SPAN = "cli.main"


def _resolve(target: str):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans while installed; the root span is opened by
    :meth:`call` around one operation."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self._stack = []
        self._saved = []
        self._op = -1
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every patch point; one the program no longer has is
        skipped with a warning, and its metrics read 0."""
        for target, name in PATCH_POINTS:
            try:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                if target not in self.missing:
                    self.missing.append(target)
                    print(f"warning: no {target} to trace", file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under the root span."""
        self._op = op_id
        try:
            return self._wrap(ROOT_SPAN, fn)(*args)
        finally:
            self._op = -1


def span_cost_seconds(calls: int = 20000) -> float:
    """Time one span adds: a traced no-op call minus a plain one."""
    tracer = Tracer()

    def noop():
        return None
    traced = tracer._wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return ((t2 - t1) - (t1 - t0)) / calls


def _child_time(spans) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def per_call_stats(spans, scales) -> dict[int, dict[str, list[float]]]:
    """op id -> span name -> [total s, self s, calls]; times are scaled
    by ``scales[op id]``, the op's speed normalisation."""
    child = _child_time(spans)
    out: dict[int, dict[str, list[float]]] = {}
    for i, (name, start, end, _, op) in enumerate(spans):
        row = out.setdefault(op, {}).setdefault(name, [0.0, 0.0, 0])
        row[0] += (end - start) * scales[op]
        row[1] += (end - start - child[i]) * scales[op]
        row[2] += 1
    return out


TOTAL, SELF, CALLS = 0, 1, 2

PROPAGATE = ("propagate_taylor1", "propagate_taylor2", "propagate_analytic",
             "propagate_mc")
DERIVATIVE_OPS = PROPAGATE[:3]
TRAIN = ("train_mean_field", "train_full_rank")
ALL = PROPAGATE + TRAIN + ("predict", "conformity", "verify")

# name, unit, span names, statistic, operations. The value is the sum
# over the listed operations of the median, over that operation's
# traced calls, of the statistic summed over the span names: the
# per-run cost for one operation, the cost of one pass over all nine
# for ALL.
SPAN_METRICS = (
    ("cli.main.self_ms", "ms", (ROOT_SPAN,), SELF, ALL),
    ("config.resolve_ms", "ms", ("config.load_json", "config.resolve"),
     TOTAL, ALL),
    ("config.validate_config_ms", "ms", ("config.validate_config",), TOTAL,
     ALL),
    ("expr.parse_model_ms", "ms", ("expr.parse_model",), TOTAL, PROPAGATE),
    ("autodiff.derivatives_ms", "ms", ("autodiff.derivatives",), TOTAL,
     DERIVATIVE_OPS),
    ("autodiff.derivatives.calls.taylor1", "count", ("autodiff.derivatives",),
     CALLS, ("propagate_taylor1",)),
    ("autodiff.derivatives.calls.taylor2", "count", ("autodiff.derivatives",),
     CALLS, ("propagate_taylor2",)),
    ("autodiff.derivatives.calls.analytic", "count",
     ("autodiff.derivatives",), CALLS, ("propagate_analytic",)),
    ("propagation.sensitivity_budget_ms", "ms",
     ("propagation.sensitivity_budget",), TOTAL, DERIVATIVE_OPS),
    ("propagation.propagate_taylor1.self_ms", "ms",
     ("propagation.propagate_taylor1",), SELF, ("propagate_taylor1",)),
    ("propagation.propagate_taylor2.self_ms", "ms",
     ("propagation.propagate_taylor2",), SELF, ("propagate_taylor2",)),
    ("propagation.propagate_analytic.self_ms", "ms",
     ("propagation.propagate_analytic",), SELF, ("propagate_analytic",)),
    ("propagation.propagate_monte_carlo.self_ms", "ms",
     ("propagation.propagate_monte_carlo",), SELF, ("propagate_mc",)),
    ("distributions.sample_ms", "ms", ("distributions.sample",), TOTAL,
     ("propagate_mc",)),
    ("distributions.sample.calls", "count", ("distributions.sample",), CALLS,
     ("propagate_mc",)),
    ("expr.evaluate_batch_ms", "ms", ("expr.evaluate_batch",), TOTAL,
     ("propagate_mc",)),
    ("regression.design_ms", "ms", ("regression.design",), TOTAL, TRAIN),
    ("regression.log_likelihood_and_grad_ms", "ms",
     ("regression.log_likelihood_and_grad",), TOTAL, TRAIN),
    ("regression.log_likelihood_and_grad.calls", "count",
     ("regression.log_likelihood_and_grad",), CALLS, TRAIN),
    ("vi.train_vi.self_ms", "ms", ("vi.train_vi",), SELF, TRAIN),
    ("vi.steps", "count", ("vi.objective",), CALLS, ("train_mean_field",)),
    ("vi.predict_ms", "ms", ("vi.predict",), TOTAL, ("predict",)),
    ("vi.predict.calls", "count", ("vi.predict",), CALLS, ("predict",)),
    ("rng.substream.calls", "count", ("rng.substream",), CALLS, ("predict",)),
    ("dataset.ingest_dataset_ms", "ms", ("dataset.ingest_dataset",), TOTAL,
     TRAIN),
    ("dataset.ingest_parts_ms", "ms", ("dataset.ingest_parts",), TOTAL,
     ("predict",)),
    ("model_io.save_model_ms", "ms", ("model_io.save_model",), TOTAL, TRAIN),
    ("model_io.load_model_ms", "ms", ("model_io.load_model",), TOTAL,
     ("predict",)),
    ("report.file_sha256_ms", "ms", ("report.file_sha256",), TOTAL,
     TRAIN + ("predict",)),
    ("report.write_report_ms", "ms", ("report.write_report",), TOTAL, ALL),
    ("conformity.classify.calls", "count", ("conformity.classify",), CALLS,
     ("conformity", "predict")),
    ("conjugate.conjugate_posterior_ms", "ms",
     ("conjugate.conjugate_posterior",), TOTAL, ("verify",)),
)


def span_metrics(stats, op_names) -> dict[str, tuple[float, str]]:
    """Evaluate :data:`SPAN_METRICS` on :func:`per_call_stats` output;
    ``op_names`` maps op id to operation name."""
    by_op: dict[str, list[dict]] = {}
    for op_id, rows in stats.items():
        if op_id >= 0:
            by_op.setdefault(op_names[op_id], []).append(rows)
    out = {}
    for name, unit, spans, stat, ops in SPAN_METRICS:
        scale = 1e3 if unit == "ms" else 1
        value = 0.0
        for op in ops:
            per_call = [sum(rows[s][stat] for s in spans if s in rows)
                        for rows in by_op.get(op, [])]
            value += statistics.median(per_call) if per_call else 0.0
        out[name] = (value * scale, unit)
    return out


def span_durations(spans, scales, name: str, op_ids,
                   stat: int = TOTAL) -> list[float]:
    """Scaled durations (total or self, seconds) of every ``name`` span
    in the given operations."""
    wanted = set(op_ids)
    child = _child_time(spans) if stat == SELF else [0.0] * len(spans)
    return [(end - start - child[i]) * scales[op]
            for i, (n, start, end, _, op) in enumerate(spans)
            if n == name and op in wanted]
