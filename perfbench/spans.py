"""Span recording for the traced benchmark run.

The traced run swaps twdpsim's public functions (module attributes) for
recorders.  Each call becomes one span: name, start, end, the index of the
enclosing span, and work counts computed from the call's arguments and result.
Spans stay in memory; :meth:`SpanRecorder.dump` writes them out once the run
ends.  Untraced runs never construct a recorder, so they use the program
unmodified.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Trace files start with a 98-byte header (the layout documented in
# twdpsim.fileio) followed by one complex128 per sample.
TRACE_HEADER_BYTES = 98
COMPLEX_BYTES = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped to record a span per call.

        ``count(bound_arguments, result)`` returns the span's work counts; it
        runs after the span has closed.
        """
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return recorded

    def between(self, start: float, end: float) -> list[int]:
        """Indices of spans that started inside [start, end)."""
        return [i for i, s in enumerate(self.spans) if start <= s.start < end]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(vars(s)) + "\n")


class Patch:
    """Context manager that swaps target functions for span recorders.

    ``targets`` maps ``"module.function"`` to a count callback (or None).
    Every module attribute that *is* the original function is swapped, so
    names imported with ``from .params import validate_scenario`` are traced
    too.  Leaving the context restores every attribute.
    """

    def __init__(self, recorder: SpanRecorder, package, modules, targets):
        self.recorder = recorder
        self.package = package
        self.modules = modules
        self.targets = targets
        self._saved = []

    def __enter__(self):
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        scan = [self.package, *self.modules]
        for target, count in self.targets.items():
            mod_name, fn_name = target.split(".")
            original = getattr(by_name[mod_name], fn_name)
            wrapper = self.recorder.wrap(target, original, count)
            for module in scan:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False


# --- work counts, computed from array sizes at the layer boundary ----------


def _ensemble_bytes(ens) -> int:
    return ens.n_trials * ens.scenario.n_samples * COMPLEX_BYTES


def _count_ensemble(a, result):
    scn = a["scenario"]
    return {"samples": scn.n_trials * scn.n_samples}


def _count_trace(a, result):
    return {"samples": a["scenario"].n_samples}


def _count_correlation(a, result, estimators):
    ens, grid = a["ens"], a["grid"]
    anchors = a.get("anchors")
    if anchors is None:
        lags = estimators.lag_samples(
            grid, ens.scenario.sample_period_s, ens.scenario.n_samples
        )
        anchors = estimators.default_anchors(ens.scenario.n_samples, int(lags[-1]))
    return {
        "lag_products": ens.n_trials * len(anchors) * len(grid),
        "bytes_in": _ensemble_bytes(ens),
    }


def _count_ensemble_read(a, result):
    return {"bytes_in": _ensemble_bytes(a["ens"])}


def _count_report(a, result):
    return {
        "records": len(result.records),
        "records_failed": sum(not rec.passed for rec in result.records),
    }


def _count_points(arg):
    return lambda a, result: {"points": int(np.size(a[arg]))}


def _count_kernel(a, result):
    return {"points": len(a["grid"])}


def _count_written(a, result):
    return {"bytes": TRACE_HEADER_BYTES + COMPLEX_BYTES * a["trace"].samples.size}


def _count_read(a, result):
    return {"bytes": TRACE_HEADER_BYTES + COMPLEX_BYTES * result.samples.size}


def trace_targets(estimators) -> dict:
    """The public functions the traced run records, with their count callbacks."""
    corr = functools.partial(_count_correlation, estimators=estimators)
    return {
        "harness.run_validation": _count_report,
        "sos.generate_ensemble": _count_ensemble,
        "sos.generate_trace": _count_trace,
        "sos.draw_trial_randoms": None,
        "estimators.ensemble_correlation": corr,
        "estimators.per_trial_correlation": corr,
        "estimators.envelope_pdf": _count_ensemble_read,
        "estimators.level_crossing_rate": _count_ensemble_read,
        "estimators.per_trial_crossing_rates": _count_ensemble_read,
        "theory.sim_acf_squared": _count_kernel,
        "theory.ref_acf_quadrature": None,
        "theory.ref_ccf_quadrature": None,
        "theory.ref_acf_complex": None,
        "theory.ref_acf_squared": None,
        "theory.rayleigh_lcr_oracle": None,
        "theory.envelope_pdf_reference": _count_points("z"),
        "theory.envelope_cdf_reference": _count_points("edges"),
        "fileio.write_trace": _count_written,
        "fileio.read_trace": _count_read,
        "cli.cli_dispatch": None,
        "params.validate_scenario": None,
    }


# --- per-layer metrics ------------------------------------------------------

# (metric, unit, better); the order is the order of the printed table.  Every
# traced run reports all of them; a layer the workload never calls reads 0.
# The comment on each group names the end-to-end metrics it should move.
LAYER_METRICS = (
    # wall_s on validate and trace-files, partly analysis; peak_rss_mb on
    # validate; nothing on theory.
    ("sos.generate_s", "s", "lower"),
    ("sos.generate_calls", "count", "lower"),
    ("sos.draw_s", "s", "lower"),
    ("sos.samples", "count", "lower"),
    ("sos.bytes_out", "bytes", "lower"),
    # wall_s mainly on analysis, then validate.
    ("estimators.corr_s", "s", "lower"),
    ("estimators.corr_calls", "count", "lower"),
    ("estimators.lag_products", "count", "lower"),
    ("estimators.bytes_in", "bytes", "lower"),
    ("estimators.pdf_s", "s", "lower"),
    ("estimators.lcr_s", "s", "lower"),
    # wall_s mainly on theory, a little on validate.
    ("theory.sim_acf_squared_s", "s", "lower"),
    ("theory.kernel_points", "count", "lower"),
    ("theory.envelope_ref_s", "s", "lower"),
    ("theory.envelope_ref_points", "count", "lower"),
    ("theory.closed_form_s", "s", "lower"),
    # wall_s on validate.
    ("harness.run_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.records", "count", "higher"),
    ("harness.records_failed", "count", "lower"),
    # wall_s on trace-files.
    ("fileio.write_s", "s", "lower"),
    ("fileio.read_s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("cli.dispatch_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    # setup_s: scenario validation during set-up.
    ("params.validate_s", "s", "lower"),
    # Traced minus untraced repetition wall time, and the traced wall time.
    ("trace.overhead_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)

_CORR = {"estimators.ensemble_correlation", "estimators.per_trial_correlation"}
_LCR = {"estimators.level_crossing_rate", "estimators.per_trial_crossing_rates"}
_ENVELOPE_REF = {"theory.envelope_pdf_reference", "theory.envelope_cdf_reference"}


def rep_layer_metrics(spans: list[Span], indices: list[int]) -> dict:
    """Per-layer metrics of one repetition from the spans it recorded.

    A span counts towards its layer only when no enclosing span belongs to
    the same module (nested calls such as generate_ensemble -> generate_trace
    are already inside the outer span), except ``sos.draw_s``, which sums
    every draw_trial_randoms span.  Self time is a span minus its direct
    children.
    """
    child_time = {i: 0.0 for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in child_time:
            child_time[parent] += spans[i].duration

    def outermost(i: int) -> bool:
        module = spans[i].module
        parent = spans[i].parent
        while parent >= 0:
            if spans[parent].module == module:
                return False
            parent = spans[parent].parent
        return True

    m = {
        name: 0.0 if unit == "s" else 0
        for name, unit, _ in LAYER_METRICS
        if not name.startswith("trace.")
    }
    for i in indices:
        s = spans[i]
        if s.name == "sos.draw_trial_randoms":
            m["sos.draw_s"] += s.duration
        if not outermost(i):
            continue
        c = s.counts
        if s.module == "sos":
            m["sos.generate_s"] += s.duration
            m["sos.generate_calls"] += 1
            m["sos.samples"] += c.get("samples", 0)
        elif s.name in _CORR:
            m["estimators.corr_s"] += s.duration
            m["estimators.corr_calls"] += 1
            m["estimators.lag_products"] += c["lag_products"]
        elif s.name == "estimators.envelope_pdf":
            m["estimators.pdf_s"] += s.duration
        elif s.name in _LCR:
            m["estimators.lcr_s"] += s.duration
        elif s.name == "theory.sim_acf_squared":
            m["theory.sim_acf_squared_s"] += s.duration
            m["theory.kernel_points"] += c["points"]
        elif s.name in _ENVELOPE_REF:
            m["theory.envelope_ref_s"] += s.duration
            m["theory.envelope_ref_points"] += c["points"]
        elif s.module == "theory":
            m["theory.closed_form_s"] += s.duration
        elif s.name == "harness.run_validation":
            m["harness.run_s"] += s.duration
            m["harness.self_s"] += s.duration - child_time[i]
            m["harness.records"] += c["records"]
            m["harness.records_failed"] += c["records_failed"]
        elif s.name == "fileio.write_trace":
            m["fileio.write_s"] += s.duration
            m["fileio.bytes_written"] += c["bytes"]
        elif s.name == "fileio.read_trace":
            m["fileio.read_s"] += s.duration
            m["fileio.bytes_read"] += c["bytes"]
        elif s.name == "cli.cli_dispatch":
            m["cli.dispatch_s"] += s.duration
            m["cli.self_s"] += s.duration - child_time[i]
        elif s.name == "params.validate_scenario":
            m["params.validate_s"] += s.duration
        if s.module == "estimators":
            m["estimators.bytes_in"] += c.get("bytes_in", 0)
    m["sos.bytes_out"] = m["sos.samples"] * COMPLEX_BYTES
    return m
