"""In-memory span tracing of the mssvs layers, installed from outside the package.

Each traced function is replaced at the attribute where its callers look
it up: ``observables`` imports ``derived_coefficients``,
``QuadraticExponent`` and the genfunc box functions by name, so those are
wrapped in the ``observables`` namespace; calls that stay inside a module
(``variances`` -> ``success_probability``, ``run_pipeline`` ->
``squeezed_vacuum``) go through that module's globals, which are the same
attributes. ``Tracer.install`` restores every original on exit, and
nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, request, row, error, attrs]``.
``parent`` is the index of the enclosing span (-1 for a request's root
``cli.main`` span). ``request``/``row`` identify the point: a new row
starts whenever ``observables.success_probability`` or
``validation.compare_point`` is entered directly under ``cli.main``,
which is where a sweep row, a ``point`` request and a validated grid
point begin. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("circuit", "genfunc", "observables", "fock_oracle", "validation", "cli")

OBSERVABLE_FUNCTIONS = (
    "success_probability",
    "variances",
    "moment",
    "pnd_vector",
    "wigner",
    "wigner_grid",
    "squeezing_threshold_scan",
)
ORACLE_REPORTED = (
    "run_pipeline",
    "displacement_matrix",
    "oracle_wigner_grid",
    "oracle_variances",
    "apply_loss_kraus",
)
ORACLE_TRACED = ORACLE_REPORTED + ("squeezed_vacuum",)  # counts cutoff steps
BOX_SPANS = (
    "genfunc.extract_derivative",
    "genfunc.taylor_coefficient_box",
    "genfunc.derivative_in_parameters",
)
POINT_ENTRIES = ("observables.success_probability", "validation.compare_point")
SCAN = "observables.squeezing_threshold_scan"

NAME, START, END, PARENT, REQUEST, ROW, ERROR, ATTRS = range(8)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _cells(args, kwargs, result):
    caps = args[1] if len(args) > 1 else kwargs.get("orders", kwargs.get("caps"))
    return math.prod(int(k) + 1 for k in caps)


def _elements(args, kwargs, result):
    cutoff = int(_arg(args, kwargs, 1, "cutoff"))
    return cutoff * cutoff


def _final_cutoff(args, kwargs, result):
    return result.cutoff


def _scan_key(args, kwargs, result):
    return tuple(float(_arg(args, kwargs, i, n)) for i, n in enumerate(("m", "T", "eta1", "eta2")))


def _pnd_capped(args, kwargs, result):
    """None for a fixed-length vector, else whether adaptation gave up short."""
    if _arg(args, kwargs, 1, "n_max") is not None:
        return None
    tail_tol = kwargs.get("tail_tol", 1e-10)
    return bool(float(sum(result)) < 1.0 - tail_tol)


def traced_targets():
    """(module name, attribute, span name, attrs function) for every wrapper."""
    targets = [
        ("observables", "derived_coefficients", "circuit.derived_coefficients", None),
        ("observables", "QuadraticExponent", "genfunc.exponent", None),
        ("genfunc", "QuadraticExponent", "genfunc.exponent", None),
        ("observables", "extract_derivative", "genfunc.extract_derivative", _cells),
        ("genfunc", "extract_derivative", "genfunc.extract_derivative", _cells),
        ("observables", "taylor_coefficient_box", "genfunc.taylor_coefficient_box", _cells),
        ("observables", "derivative_in_parameters", "genfunc.derivative_in_parameters", None),
        ("validation", "compare_point", "validation.compare_point", None),
    ]
    attrs = {
        "pnd_vector": _pnd_capped,
        "squeezing_threshold_scan": _scan_key,
    }
    for fn in OBSERVABLE_FUNCTIONS:
        targets.append(("observables", fn, f"observables.{fn}", attrs.get(fn)))
    attrs = {"displacement_matrix": _elements, "run_pipeline": _final_cutoff}
    for fn in ORACLE_TRACED:
        targets.append(("fock_oracle", fn, f"fock_oracle.{fn}", attrs.get(fn)))
    return targets


class Tracer:
    """Collects spans for calls made through the functions it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.row = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        starts_point = name in POINT_ENTRIES

        def traced(*args, **kwargs):
            if starts_point and len(stack) == 1:
                self.row += 1
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self.request, self.row, None, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def start_request(self, request: int) -> None:
        self.request = request
        self.row = -1

    @contextmanager
    def install(self, modules: dict):
        """Wrap every target found in ``modules``; restore originals on exit.

        A target missing from its module (renamed by a later refactor) is
        skipped, so its metrics read 0 instead of the benchmark failing.
        """
        saved = []
        try:
            for module_name, attr, name, attrs in traced_targets():
                module = modules[module_name]
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], *, points: int, output_bytes: int,
                  traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by the BENCHMARK.json names."""
    own_time = _self_times(spans)
    in_scan = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            in_scan[i] = in_scan[parent] or spans[parent][NAME] == SCAN

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    layer_self = defaultdict(float)
    errors = defaultdict(int)
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        own = own_time[i]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += duration
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        if span[ERROR] is not None:
            errors[layer] += 1

    def outside_scan(name):
        return sum(1 for i, s in enumerate(spans) if s[NAME] == name and not in_scan[i])

    m: dict[str, float] = {}
    m["circuit.derived_coefficients.calls"] = calls["circuit.derived_coefficients"]
    m["circuit.derived_coefficients.self_s"] = self_s["circuit.derived_coefficients"]
    m["circuit.derived_per_point"] = _ratio(outside_scan("circuit.derived_coefficients"), points)
    m["genfunc.exponent.calls"] = calls["genfunc.exponent"]
    m["genfunc.exponent.self_s"] = self_s["genfunc.exponent"]
    box_calls = sum(calls[n] for n in BOX_SPANS)
    box_self = sum(self_s[n] for n in BOX_SPANS)
    cells = sum(s[ATTRS] for s in spans if s[NAME] in BOX_SPANS and s[ATTRS] is not None)
    m["genfunc.box.calls"] = box_calls
    m["genfunc.box.self_s"] = box_self
    m["genfunc.box.cells"] = cells
    m["genfunc.box.ns_per_cell"] = _ratio(box_self * 1e9, cells)
    for fn in OBSERVABLE_FUNCTIONS:
        name = f"observables.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.total_s"] = total_s[name]
    m["observables.pd_per_point"] = _ratio(outside_scan("observables.success_probability"), points)

    scans = [i for i, s in enumerate(spans) if s[NAME] == SCAN]
    scan_evals = sum(
        1 for s in spans if s[NAME] == "observables.variances" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == SCAN
    )
    m["observables.threshold.evals_per_scan"] = _ratio(scan_evals, len(scans))
    seen, repeats = set(), 0
    for i in scans:
        key = spans[i][ATTRS]
        repeats += key in seen
        seen.add(key)
    m["observables.threshold.repeat_key_share"] = _ratio(repeats, len(scans))
    adaptive = [s[ATTRS] for s in spans
                if s[NAME] == "observables.pnd_vector" and s[ATTRS] is not None]
    m["observables.pnd.capped_share"] = _ratio(sum(adaptive), len(adaptive))

    for fn in ORACLE_REPORTED:
        name = f"fock_oracle.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    elements = sum(s[ATTRS] for s in spans if s[NAME] == "fock_oracle.displacement_matrix")
    m["fock_oracle.displacement.elements"] = elements
    m["fock_oracle.displacement.ns_per_element"] = _ratio(
        self_s["fock_oracle.displacement_matrix"] * 1e9, elements)
    pipelines = [i for i, s in enumerate(spans) if s[NAME] == "fock_oracle.run_pipeline"]
    steps = sum(1 for s in spans if s[NAME] == "fock_oracle.squeezed_vacuum"
                and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "fock_oracle.run_pipeline")
    m["fock_oracle.cutoff_steps_per_pipeline"] = _ratio(steps, len(pipelines))
    finals = [spans[i][ATTRS] for i in pipelines if spans[i][ATTRS] is not None]
    m["fock_oracle.final_cutoff.mean"] = _ratio(sum(finals), len(finals))
    m["fock_oracle.final_cutoff.max"] = max(finals, default=0)

    m["validation.compare_point.calls"] = calls["validation.compare_point"]
    m["validation.compare_point.self_s"] = self_s["validation.compare_point"]
    compare_total = total_s["validation.compare_point"]
    by_layer_under_compare = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "validation.compare_point":
            by_layer_under_compare[s[NAME].split(".", 1)[0]] += s[END] - s[START]
    m["validation.oracle_share"] = _ratio(by_layer_under_compare["fock_oracle"], compare_total)
    m["validation.closed_share"] = _ratio(by_layer_under_compare["observables"], compare_total)
    m["cli.output_bytes"] = output_bytes

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]

    root_time = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["harness.self_s"] = traced_wall - root_time
    m["harness.traced_wall_s"] = traced_wall
    m["harness.untraced_wall_s"] = untraced_wall
    m["harness.trace_overhead_s"] = traced_wall - untraced_wall
    m["harness.spans"] = len(spans)
    m["harness.points"] = points
    return m


def error_types(spans: list[list]) -> dict[str, int]:
    """Exception counts by span name and type, for the run record."""
    counts = defaultdict(int)
    for s in spans:
        if s[ERROR] is not None:
            counts[f"{s[NAME]}:{s[ERROR]}"] += 1
    return dict(counts)


def top_self_times(spans: list[list], limit: int = 10) -> list[tuple[str, float, int]]:
    """(span name, self seconds, calls), largest self time first."""
    own = defaultdict(float)
    calls = defaultdict(int)
    for s, seconds in zip(spans, _self_times(spans)):
        own[s[NAME]] += seconds
        calls[s[NAME]] += 1
    ranked = sorted(own.items(), key=lambda kv: kv[1], reverse=True)[:limit]
    return [(name, t, calls[name]) for name, t in ranked]


def write_spans(spans: list[list], path) -> None:
    """Gzipped CSV, one span per line, times relative to the first span."""
    origin = spans[0][START] if spans else 0.0
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "name", "start_s", "end_s", "parent", "request", "row",
                      "error", "attrs"])
        for i, s in enumerate(spans):
            attrs = "" if s[ATTRS] is None else json.dumps(s[ATTRS])
            out.writerow([i, s[NAME], f"{s[START] - origin:.9f}", f"{s[END] - origin:.9f}",
                          s[PARENT], s[REQUEST], s[ROW], s[ERROR] or "", attrs])
