"""Spans around maflow's public functions, installed from the benchmark.

``Tracer.install()`` replaces every function listed in ``LAYERS`` with a
timing wrapper: module functions at every module that binds them (``cli``
and ``catalog`` each import their own ``parse_field``), methods and
properties on their class. ``uninstall()`` puts the originals back. Nothing
under ``src/`` changes.

Each wrapped call is a span (layer, start, end, parent, op id). A layer's
self time is its span time minus the time of the spans it encloses, so the
self times of one op sum to the op's root span. Spans stay in memory and
are written once, by ``write_spans``. The two innermost layers,
``fieldexpr.eval`` and ``fieldexpr.jet``, run hundreds of thousands of times
per op; they are counted and timed like the others but not kept as
individual span records.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from functools import cached_property

_FIELD = "maflow.fieldexpr.field"
_EXT = "maflow.exterior"

LAYERS: dict[str, list[str]] = {
    "fieldexpr.parse": [f"maflow.fieldexpr.parse:{n}" for n in ("parse_field", "parse_expression")],
    "fieldexpr.eval": [f"{_FIELD}:ScalarField.eval"],
    "fieldexpr.jet": [f"{_FIELD}:ScalarField.jet"],
    "exterior.build": [f"{_EXT}:{n}" for n in (
        "wedge", "wedge_many", "differential", "ext_derivative", "interior_product",
        "lie_derivative", "pullback", "pullback_symmetric", "operator_from_pair",
        "matmul_fields", "det_field", "invert_field_matrix", "form_to_matrix", "matrix_to_form",
    )],
    "exterior.eval": [f"{_EXT}:{n}" for n in (
        "DifferentialForm.coeffs_at", "DifferentialForm.apply", "VectorField.eval",
        "GraphMap.eval", "SymmetricTensorField.eval", "SymmetricTensorField.signature",
        "OperatorField.eval", "sup_norm", "operator_sup_diff",
    )],
    "ma4.build": [f"maflow.ma4:{n}" for n in (
        "flow_structure", "stream_graph_map", "hessian_det", "lr_metric", "build_triple",
        "structure_tensor", "MAStructure4.triple", "MAStructure4.pfaffian",
        "MAStructure4.operator", "MAStructure4.dual_form", "MAStructure4.integrability_form",
    )],
    "ma4.check": [f"maflow.ma4:{n}" for n in (
        "triple_relations", "integrability", "verify_generalized_solution", "MAStructure4.classify",
    )],
    "ma6.build": [f"maflow.ma6:{n}" for n in (
        "euler_pair", "burgers_structure", "hessian_one_structure", "special_lagrangian_structure",
        "pair_tensors", "pair_metrics", "hitchin_tensor", "hitchin_pfaffian", "lr_metric6",
        "hitchin_dual", "MAStructure6.tensor", "MAStructure6.pfaffian", "MAStructure6.metric",
        "MAStructure6.dual",
    )],
    "ma6.check": [f"maflow.ma6:{n}" for n in (
        "euler_pair_relations", "verify_bilagrangian", "lr_compatibility", "integrability6",
        "MAStructure6.compatibility",
    )],
    "reduction.build": [f"maflow.reduction:{n}" for n in (
        "laplace_reduction", "shear_pair_reduction", "reduce_form",
    )],
    "reduction.check": [f"maflow.reduction:{n}" for n in (
        "change_variables_64", "burgers_decomposition", "check_invariance",
    )],
    "fluids.build": ["maflow.fluids:burgers_build"],
    "fluids.check": ["maflow.fluids:stretched_solution_check"],
    "fluids.grid": ["maflow.fluids:grid_load", "maflow.fluids:grid_analyze"],
    "curvature.build": [f"maflow.curvature:{n}" for n in (
        "burgers_metric", "MetricField.from_tensor",
    )],
    "curvature.check": [f"maflow.curvature:{n}" for n in (
        "curvature_report", "flatness_verdict", "ricci_flat_verdict",
    )],
    "catalog": ["maflow.catalog:run_selftest"],
    "sampling": ["maflow.sampling:sample_points"],
    "report.render": ["maflow.report:Report.to_json"],
    "cli": ["maflow.cli:main"],
}
UNRECORDED = ("fieldexpr.eval", "fieldexpr.jet")
ROOT = "bench.op"  # the benchmark's own span around one op
NAMES = list(LAYERS) + [ROOT]


def _resolve(target: str):
    """(owner, attribute, raw object) for 'module:Name' or 'module:Class.attr'."""
    module_name, _, qual = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    """Span recorder with per-op, per-layer call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stats: dict[str, tuple[list[int], list[float]]] = {}
        self.op_time: dict[str, float] = {}
        self.unresolved: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._child: list[float] = []
        self._open: list[int] = []
        self.op_id = None
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._plan()

    # -- patch plan -------------------------------------------------------------

    def _plan(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "maflow" or name.startswith("maflow."))]
        for index, (layer, targets) in enumerate(LAYERS.items()):
            record = layer not in UNRECORDED
            for target in targets:
                try:
                    owner, attr, raw = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.unresolved.append(target)
                    continue
                if isinstance(owner, type):
                    wrapped = self._wrap_member(raw, attr, owner, index, record)
                    self._patches.append((owner, attr, raw, wrapped))
                    continue
                wrapper = self._wrap(raw, index, record)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._patches.append((module, name, raw, wrapper))

    def _wrap_member(self, raw, attr: str, owner: type, index: int, record: bool):
        if isinstance(raw, cached_property):
            wrapped = cached_property(self._wrap(raw.func, index, record))
            wrapped.__set_name__(owner, attr)
            return wrapped
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, index, record), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, index, record))
        return self._wrap(raw, index, record)

    def _wrap(self, fn, index: int, record: bool):
        clock = self.clock
        tracer = self
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            if record:
                slot = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._open[-1]
                tracer._open.append(slot)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = t1 - t0
                inner = child.pop()
                child[-1] += duration
                tracer.self_s[index] += duration - inner
                tracer.calls[index] += 1
                if record:
                    tracer._open.pop()
                    tracer.spans[slot] = (index, t0, t1, parent, tracer.op_id)

        return wrapper

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    # -- ops --------------------------------------------------------------------

    def run_op(self, op_id: str, fn):
        """Call fn() with tracing on, under a root span for op_id."""
        self.op_id = op_id
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.stats[op_id] = (self.calls, self.self_s)
        slot = len(self.spans)
        self.spans.append(None)
        self._open.append(slot)
        self._child.append(0.0)
        self.install()
        t0 = self.clock()
        try:
            return fn()
        finally:
            t1 = self.clock()
            self.uninstall()
            inner = self._child.pop()
            self._open.pop()
            root = NAMES.index(ROOT)
            self.self_s[root] += (t1 - t0) - inner
            self.calls[root] += 1
            self.spans[slot] = (root, t0, t1, -1, op_id)
            self.op_time[op_id] = t1 - t0

    def totals(self, op_ids) -> dict[str, tuple[int, float]]:
        """Per-layer (calls, self seconds) summed over the given ops."""
        out = {name: [0, 0.0] for name in NAMES}
        for op_id in op_ids:
            calls, self_s = self.stats[op_id]
            for i, name in enumerate(NAMES):
                out[name][0] += calls[i]
                out[name][1] += self_s[i]
        return {name: (c, s) for name, (c, s) in out.items()}

    def write_spans(self, path) -> None:
        """One CSV row per recorded span: layer,start,end,parent,op."""
        with open(path, "w") as handle:
            handle.write("layer,start,end,parent,op\n")
            for index, t0, t1, parent, op_id in self.spans:
                handle.write(f"{NAMES[index]},{t0!r},{t1!r},{parent},{op_id}\n")
