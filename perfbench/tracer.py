"""Spans around volmix's layer functions, installed from outside the package.

`traced(tracer)` wraps each function in TARGETS and binds the wrapper
wherever a loaded volmix module holds the original.  Rebinding only the
defining module would miss most calls: modules import functions by name
(`noise_matrix` lives in `simulate`, `mse` and `verify`), and
`kernels.validate_covariance_matrix` reaches `psd_defect` through its
module global.  Leaving the block restores every binding.

Spans (id, parent id, name, start, end) stay in memory; the caller writes
them out when the traced run ends.  Counts are taken at the same
boundaries.  Operation counts and bytes derived from array shapes are
labelled `-computed` in their unit: they are what the shapes imply, not
what the hardware moved.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("config", "cli", "runner", "simulate", "kernels", "predict", "mse", "verify")
CLI_KINDS = ("verify", "mse-study", "covariance", "predict")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counters of one traced set of ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.hook_errors: list[str] = []
        self._open: list[Span] = []
        # Per op: path indices drawn per (seed, channel, cells), and the
        # distinct (kernel, params, grid) given to cell_average_matrix.
        self.noise_paths: dict[tuple, set] = defaultdict(set)
        self.kernel_grids: set = set()

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def op(self, kind: str):
        """Top-level span of one CLI op; distinct-value counts are per op."""
        span = self.open("cli." + kind.replace("-", "_"))
        try:
            yield
        finally:
            self.close(span)
            self.counts["noise_distinct_values"] += sum(
                len(paths) * cells for (_, _, cells), paths in self.noise_paths.items())
            self.counts["cell_average_distinct"] += len(self.kernel_grids)
            self.noise_paths.clear()
            self.kernel_grids.clear()


# Hooks run after the traced call, outside its span: (tracer, bound args, result).

def _noise_matrix(tracer, args, result):
    tracer.counts["noise_rows"] += result.shape[0]
    tracer.counts["noise_values"] += result.size
    key = (args["seed"], args["channel"], result.shape[1])
    tracer.noise_paths[key].update(args["path_indices"])


def _draw_noise(tracer, args, result):
    cells = result.driving.size
    tracer.counts["noise_rows"] += 2
    tracer.counts["noise_values"] += 2 * cells
    for channel in (0, 1):
        tracer.noise_paths[(result.seed, channel, cells)].add(result.path_index)


def _cell_average(tracer, args, result):
    kernel, grid = args["kernel"], args["grid"]
    params = repr(sorted(vars(kernel).items()))
    tracer.kernel_grids.add((type(kernel).__name__, params, grid.horizon, grid.cells))


def _matmul(tracer, m: int, k: int) -> None:
    """(m, k) @ (k, m): 2*m*m*k flops; both operands and the product in bytes."""
    tracer.counts["quadrature_flop"] += 2 * m * m * k
    tracer.counts["quadrature_bytes"] += 8 * (2 * m * k + m * m)


def _covariance_matrix(tracer, args, result):
    m = result.shape[0]
    _matmul(tracer, m, m - 1)


def _conditional_covariance_matrix(tracer, args, result):
    m = result.shape[0]
    _matmul(tracer, m, m - 1)
    observed = args["grid"].index_of(args["u"])
    if observed:
        _matmul(tracer, m, observed)


def _psd(tracer, args, result):
    order = args["matrix"].shape[0]
    tracer.counts["psd_max_order"] = max(tracer.counts["psd_max_order"], order)


def _run_checks(tracer, args, result):
    tracer.counts["verify_rows"] += len(result)
    tracer.counts["verify_rows_failed"] += sum(not check.passed for check in result)


def _write_csv(tracer, args, result):
    data = args["path"].read_bytes()
    tracer.counts["csv_rows"] += data.count(b"\n") - 1
    tracer.counts["csv_bytes"] += len(data)


# (module, function, span name, hook); several functions may share a span name.
TARGETS = (
    ("config", "parse_config", "config.parse", None),
    ("runner", "run_experiment", "runner.run", None),
    ("runner", "write_csv", "runner.write_csv", _write_csv),
    ("simulate", "noise_matrix", "simulate.noise", _noise_matrix),
    ("simulate", "draw_noise", "simulate.noise", _draw_noise),
    ("kernels", "cell_average_matrix", "kernels.cell_average", _cell_average),
    ("kernels", "covariance_matrix", "kernels.covariance_matrix", _covariance_matrix),
    ("kernels", "psd_defect", "kernels.psd", _psd),
    ("kernels", "covariance", "kernels.scalar", None),
    ("kernels", "cross_integral", "kernels.scalar", None),
    ("predict", "prediction_law", "predict.law", None),
    ("predict", "conditional_covariance_matrix", "predict.cond_cov",
     _conditional_covariance_matrix),
    ("predict", "conditional_mean_path", "predict.mean_path", None),
    ("predict", "conditional_covariance", "predict.scalar", None),
    ("predict", "conditional_covariance_closed", "predict.scalar", None),
    ("predict", "conditional_mean", "predict.scalar", None),
    ("predict", "present_variance", "predict.scalar", None),
    ("mse", "variance_reduction_report", "mse.report", None),
    ("mse", "_squared_error_stats", "mse.accumulate", None),
    ("verify", "run_checks", "verify.run_checks", _run_checks),
)


def _wrap(tracer: Tracer, original, name: str, hook):
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            try:
                hook(tracer, signature.bind(*args, **kwargs).arguments, result)
            except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
                # A later signature change must not break the traced run;
                # the count it fed reads low and the error is reported.
                tracer.hook_errors.append(f"{name}: {exc!r}")
        return result

    wrapper.__wrapped__ = original
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every loaded volmix module's layer functions through `tracer`.

    Yields the TARGETS entries that no longer exist, so their metrics can
    be reported as untraced rather than silently read as zero.
    """
    modules = [module for name, module in list(sys.modules.items())
               if name == "volmix" or name.startswith("volmix.")]
    rebound, missing = [], []
    for module_name, function, span_name, hook in TARGETS:
        original = getattr(sys.modules.get(f"volmix.{module_name}"), function, None)
        if original is None:
            missing.append(f"{module_name}.{function}")
            continue
        wrapper = _wrap(tracer, original, span_name, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, original))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(rebound):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 1.0


def layer_metrics(tracer: Tracer, wall_s: float, cpu_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set as {name: (value, unit)}.

    A span's self time is its duration minus its children's; a layer's
    self time sums its spans'.  Time outside every span is `other`.
    """
    child = defaultdict(float)
    for span in tracer.spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    calls, total = Counter(), defaultdict(float)
    self_s = dict.fromkeys(LAYERS, 0.0)
    outside = wall_s
    for span in tracer.spans:
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        self_s[span.name.split(".")[0]] += duration - child[span.id]
        if span.parent is None:
            outside -= duration
    c = tracer.counts
    csv_s = total["runner.write_csv"]
    metrics = {
        "simulate.noise_calls": (calls["simulate.noise"], "count"),
        "simulate.noise_rows": (c["noise_rows"], "count"),
        "simulate.noise_values": (c["noise_values"], "count-computed"),
        "simulate.noise_s": (total["simulate.noise"], "s"),
        "simulate.noise_unique_ratio": (
            _ratio(c["noise_distinct_values"], c["noise_values"]), "ratio"),
        "kernels.cell_average_calls": (calls["kernels.cell_average"], "count"),
        "kernels.cell_average_s": (total["kernels.cell_average"], "s"),
        "kernels.cell_average_unique_ratio": (
            _ratio(c["cell_average_distinct"], calls["kernels.cell_average"]), "ratio"),
        "kernels.psd_calls": (calls["kernels.psd"], "count"),
        "kernels.psd_s": (total["kernels.psd"], "s"),
        "kernels.psd_max_order": (c["psd_max_order"], "count"),
        "kernels.scalar_calls": (calls["kernels.scalar"], "count"),
        "kernels.scalar_s": (total["kernels.scalar"], "s"),
        "kernels.quadrature_gflop": (c["quadrature_flop"] / 1e9, "GFLOP-computed"),
        "kernels.quadrature_mb": (c["quadrature_bytes"] / 2**20, "MB-computed"),
        "predict.cond_cov_calls": (calls["predict.cond_cov"], "count"),
        "predict.cond_cov_s": (total["predict.cond_cov"], "s"),
        "predict.law_s": (total["predict.law"], "s"),
        "predict.scalar_calls": (calls["predict.scalar"], "count"),
        "predict.scalar_s": (total["predict.scalar"], "s"),
        "mse.report_s": (total["mse.report"], "s"),
        "verify.run_checks_s": (total["verify.run_checks"], "s"),
        "verify.rows": (c["verify_rows"], "count"),
        "verify.rows_failed": (c["verify_rows_failed"], "count"),
        "runner.write_csv_s": (csv_s, "s"),
        "runner.csv_rows": (c["csv_rows"], "count"),
        "runner.csv_bytes": (c["csv_bytes"], "bytes"),
        "runner.csv_mb_per_s": (c["csv_bytes"] / 2**20 / csv_s if csv_s else 0.0, "MB/s"),
        "config.parse_s": (total["config.parse"], "s"),
    }
    for kind in CLI_KINDS:
        name = "cli." + kind.replace("-", "_")
        metrics[name + "_s"] = (total[name], "s")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (self_s[layer], "s")
    metrics["other.self_s"] = (outside, "s")
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["process.cpu_per_wall"] = (cpu_s / wall_s, "cpu/wall")
    return metrics
