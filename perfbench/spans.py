"""In-memory spans for the traced benchmark run.

The benchmark wraps the public names each rotoshift module calls across a
layer boundary, from its own files; the library itself is not changed.
A span records its layer, name, start, end and parent.  Parents come from
a per-thread stack; a span opened on a thread whose stack is empty (a
sweep pool worker) takes the op span as its parent.  A span's self time is
its duration minus the union of the intervals its children cover, so
children running side by side on pool threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        # next() on a count and list.append are single bytecode-level calls
        # into C, atomic under the interpreter lock, so pool threads can
        # open spans without a lock of their own
        self._ids = itertools.count()
        self._root: Span | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        span = Span(span_id, parent.id if parent else None,
                    parent.op if parent else span_id, layer, name,
                    time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self):
        """Span of one CLI call; the parent of spans opened on pool threads."""
        span = self.open("cli", "cli.main")
        self._root = span
        try:
            yield span
        finally:
            self._root = None
            self.close(span)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time covered by its child spans."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted((max(c.start, span.start), min(c.end, span.end))
                                 for c in children.get(span.id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end - span.start) - covered
    return result


# ---------------------------------------------------------------------------
# instrumentation of rotoshift
# ---------------------------------------------------------------------------

def _dim(args, kwargs, result):
    operator = args[0] if args else kwargs["operator"]
    matrix = getattr(operator, "matrix", operator)
    return {"dim": len(matrix)}


def _matrix(args, kwargs, result):
    return {"dim": result.basis.dimension, "nbytes": result.matrix.nbytes}


# (module, attribute, span name, info from (args, kwargs, result)); the
# span name starts with the layer, the module the callee lives in
WRAPPED = [
    ("cli", "validate_config", "cli.validate", None),
    ("cli", "RotorConfig", "rotor.config", None),
    ("cli", "drive_field_vector", "rotor.field", None),
    ("cli", "fictitious_fields", "rotor.field", None),
    ("cli", "build_ho_basis", "operators.ho_assemble", None),
    ("cli", "ho_rotating_hamiltonian", "operators.ho_assemble", _matrix),
    ("cli", "manifold_perturbation", "operators.hydrogen", None),
    ("operators", "radial_dipole_integral", "operators.radial", None),
    ("cli", "eigen_spectrum", "quasienergy.eigen", _dim),
    ("quasienergy", "eigen_spectrum", "quasienergy.eigen", _dim),
    ("cli", "first_order_degenerate_levels", "quasienergy.first_order", None),
    ("cli", "ho_rotating_levels", "quasienergy.closed_form", None),
    ("cli", "ho_rotating_spectrum", "quasienergy.closed_form", None),
    ("cli", "rotating_coulomb_levels", "quasienergy.closed_form", None),
    ("cli", "rotating_coulomb_spectrum", "quasienergy.closed_form", None),
    ("cli", "driven_rotating_levels", "quasienergy.closed_form", None),
    ("cli", "splitting_expansion_parameter", "quasienergy.closed_form", None),
    ("cli", "driven_splitting_parameter", "quasienergy.closed_form", None),
    ("shifts", "splitting_expansion_parameter", "quasienergy.closed_form", None),
    ("shifts", "driven_splitting_parameter", "quasienergy.closed_form", None),
    ("cli", "drfs_exact", "shifts.report", None),
    ("cli", "driven_shift_report", "shifts.report", None),
    ("cli", "harmonic_shift_report", "shifts.report", None),
    ("cli", "drfs_series", "shifts.series", None),
    ("cli", "force_ratio", "shifts.other", None),
    ("cli", "force_ratio_engineering", "shifts.other", None),
    ("cli", "doppler_frequency", "shifts.other", None),
    ("cli", "self_consistent_doppler", "shifts.other", None),
]


def _wrap(tracer: Tracer, fn, name: str, info):
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.info["raised"] = True
            raise
        finally:
            tracer.close(span)
        if info is not None:
            span.info.update(info(args, kwargs, result))
        return result
    return traced


@contextmanager
def instrumented(tracer: Tracer, modules: dict):
    """Replace the WRAPPED names in modules (short name -> module) while open.

    A name a module no longer has raises AttributeError: a program change
    that renames a cross-layer name updates WRAPPED along with it.
    """
    saved = []
    wrappers = {}
    try:
        for module_name, attr, name, info in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = _wrap(tracer, original, name, info)
            saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_OP = "count/op"
SECONDS_PER_OP = "s/op"

LAYER_METRICS = [
    ("cli.validate_s", SECONDS_PER_OP), ("cli.self_s", SECONDS_PER_OP),
    ("cli.emit_s", SECONDS_PER_OP), ("cli.rows_out", PER_OP),
    ("cli.bytes_out", "B/op"), ("cli.rejected", PER_OP),
    ("rotor.config_calls", PER_OP), ("rotor.self_s", SECONDS_PER_OP),
    ("operators.ho_assemble_s", SECONDS_PER_OP), ("operators.ho_dim_sum", PER_OP),
    ("operators.ho_matrix_bytes_computed", "B/op"),
    ("operators.hydrogen_calls", PER_OP), ("operators.hydrogen_s", SECONDS_PER_OP),
    ("operators.radial_calls", PER_OP), ("operators.radial_s", SECONDS_PER_OP),
    ("quasienergy.eigen_calls", PER_OP), ("quasienergy.eigen_s", SECONDS_PER_OP),
    ("quasienergy.eigen_dim3_sum", PER_OP),
    ("quasienergy.closed_form_calls", PER_OP), ("quasienergy.closed_form_s", SECONDS_PER_OP),
    ("shifts.report_calls", PER_OP), ("shifts.report_s", SECONDS_PER_OP),
    ("shifts.series_attempts", PER_OP), ("shifts.series_ok_ratio", "ratio"),
]


def op_totals(spans: list, op: dict) -> dict:
    """Layer totals of one traced op, from its spans and its op record.

    op holds the op span ("span", the id), the exit code and the rows and
    bytes written.  Times are summed span durations, except self_s (self
    time of every span of the layer) and emit_s (from the end of the op's
    last library span to the end of the op).
    """
    total = dict.fromkeys([name for name, _ in LAYER_METRICS] + ["series_ok"], 0.0)
    own = self_times(spans)
    library_end = None
    op_end = None
    for span in spans:
        duration = span.end - span.start
        if span.layer in ("cli", "rotor"):
            total[f"{span.layer}.self_s"] += own[span.id]
        else:
            library_end = span.end if library_end is None else max(library_end, span.end)
        if span.id == op["span"]:
            op_end = span.end
        name = span.name
        if name == "cli.validate":
            total["cli.validate_s"] += duration
        elif name == "rotor.config":
            total["rotor.config_calls"] += 1
        elif name == "operators.ho_assemble":
            total["operators.ho_assemble_s"] += duration
            total["operators.ho_dim_sum"] += span.info.get("dim", 0)
            total["operators.ho_matrix_bytes_computed"] += span.info.get("nbytes", 0)
        elif name == "operators.hydrogen":
            total["operators.hydrogen_calls"] += 1
            total["operators.hydrogen_s"] += duration
        elif name == "operators.radial":
            total["operators.radial_calls"] += 1
            total["operators.radial_s"] += duration
        elif name == "quasienergy.eigen":
            total["quasienergy.eigen_calls"] += 1
            total["quasienergy.eigen_s"] += duration
            total["quasienergy.eigen_dim3_sum"] += span.info.get("dim", 0) ** 3
        elif name == "quasienergy.closed_form":
            total["quasienergy.closed_form_calls"] += 1
            total["quasienergy.closed_form_s"] += duration
        elif name == "shifts.report":
            total["shifts.report_calls"] += 1
            total["shifts.report_s"] += duration
        elif name == "shifts.series":
            total["shifts.series_attempts"] += 1
            total["series_ok"] += not span.info.get("raised", False)
    total["cli.rows_out"] = op["rows"]
    total["cli.bytes_out"] = op["bytes"]
    if op["code"] != 0:
        total["cli.rejected"] = 1
    elif library_end is not None:
        total["cli.emit_s"] = op_end - library_end
    return total


def layer_metrics(totals: dict, ops: int) -> dict:
    """Per-op averages of summed op_totals, and the series success ratio."""
    metrics = {name: totals[name] / ops for name, _ in LAYER_METRICS}
    attempts = totals["shifts.series_attempts"]
    metrics["shifts.series_ok_ratio"] = totals["series_ok"] / attempts if attempts else 0.0
    return metrics
