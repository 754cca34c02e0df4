"""Span tracing from outside the library.

The tracer wraps public library functions at the module attributes where
their callers look them up, and ``Spline.__post_init__`` on the class, so no
library source changes and an untraced run wraps nothing. Spans are kept in
memory (name, start, end, parent, op) and written once, when the run ends.
Spans are recorded only while an op is open, so oracle checks made between
ops stay out of the trace.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

OP_SPAN = "bench.op"

# (module, attribute, span name); spline.Spline is Spline.__post_init__, which
# includes the C^(m-1) smoothness check
LAYERS = (
    ("splinezeros.harness", "random_spline", "harness.random_spline"),
    ("splinezeros.spline", "spline_from_truncated_powers",
     "spline.spline_from_truncated_powers"),
    ("splinezeros.spline", "Spline.__post_init__", "spline.Spline"),
    ("splinezeros.spline", "normalize", "spline.normalize"),
    ("splinezeros.spline", "separated_zero_count", "spline.separated_zero_count"),
    ("splinezeros.spline", "spline_derivative", "spline.spline_derivative"),
    ("splinezeros.polynomial", "count_distinct_roots",
     "polynomial.count_distinct_roots"),
    ("splinezeros.bspline", "extend_compact", "bspline.extend_compact"),
    ("splinezeros.bspline", "cardinal_bspline", "bspline.cardinal_bspline"),
    ("splinezeros.linalg", "mat_solve", "linalg.mat_solve"),
    ("splinezeros.linalg", "mat_determinant", "linalg.mat_determinant"),
    ("splinezeros.boxspline", "box_spline_eval", "boxspline.box_spline_eval"),
    ("splinezeros.boxspline", "semi_integral_interior_points",
     "boxspline.semi_integral_interior_points"),
    ("splinezeros.boxspline", "conjecture_matrix", "boxspline.conjecture_matrix"),
)
SPAN_NAMES = (OP_SPAN,) + tuple(name for _, _, name in LAYERS)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name_col = array("b")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.op_col = array("q")
        self.stack = [-1]
        self.op: int | None = None
        # per-layer work counters, updated after each call returns
        self.solve_matrices: set = set()
        self.eval_args: set = set()
        self.eval_nonzero = 0
        self.det_max_order = 0

    # -- recording ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start_col)
        self.name_col.append(name_id)
        self.parent_col.append(self.stack[-1])
        self.op_col.append(self.op)
        self.start_col.append(0)
        self.end_col.append(0)
        self.stack.append(index)
        return index

    def begin_op(self, op_index: int) -> None:
        self.op = op_index
        index = self._open(0)
        self.start_col[index] = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.end_col[self.stack.pop()] = end
        self.op = None

    def _wrap(self, name_id: int, fn, observe):
        clock = time.perf_counter_ns
        starts, ends, stack = self.start_col, self.end_col, self.stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every reference to each layer function inside the
        splinezeros package by its traced wrapper."""
        package = {name: module for name, module in sys.modules.items()
                   if name == "splinezeros" or name.startswith("splinezeros.")}
        observers = {
            "linalg.mat_solve": self._observe_solve,
            "linalg.mat_determinant": self._observe_determinant,
            "boxspline.box_spline_eval": self._observe_eval,
        }
        for name_id, (module_name, attribute, span) in enumerate(LAYERS, 1):
            owner = package[module_name]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                setattr(owner, attribute,
                        self._wrap(name_id, getattr(owner, attribute), None))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name_id, original, observers.get(span))
            for module in package.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _observe_solve(self, args, result) -> None:
        matrix = args[0]
        self.solve_matrices.add((matrix.rows, matrix.cols, matrix.entries))

    def _observe_determinant(self, args, result) -> None:
        self.det_max_order = max(self.det_max_order, args[0].rows)

    def _observe_eval(self, args, result) -> None:
        config, point = args[0], args[1]
        self.eval_args.add((config, tuple(Fraction(c) for c in point)))
        if result != 0:
            self.eval_nonzero += 1

    # -- summaries --------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name. Self time is a span's duration
        minus the time its child spans cover."""
        count = len(self.start_col)
        covered = [0] * count
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        # a child always has a larger index than its parent, so walking
        # backwards finishes every span's children before the span itself
        for index in range(count - 1, -1, -1):
            duration = self.end_col[index] - self.start_col[index]
            parent = self.parent_col[index]
            if parent >= 0:
                covered[parent] += duration
            name_id = self.name_col[index]
            calls[name_id] += 1
            self_ns[name_id] += duration - covered[index]
        metrics: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            metrics[f"{name}.calls"] = calls[name_id]
            metrics[f"{name}.self_s"] = self_ns[name_id] / 1e9
        solves = calls[self.names.index("linalg.mat_solve")]
        evals = calls[self.names.index("boxspline.box_spline_eval")]
        metrics["linalg.mat_solve.distinct_share"] = \
            len(self.solve_matrices) / solves if solves else 0.0
        metrics["boxspline.box_spline_eval.distinct_share"] = \
            len(self.eval_args) / evals if evals else 0.0
        metrics["boxspline.box_spline_eval.nonzero_share"] = \
            self.eval_nonzero / evals if evals else 0.0
        metrics["linalg.mat_determinant.max_order"] = self.det_max_order
        metrics["trace.spans"] = count
        return metrics

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": self.name_col.tolist(),
                "start_ns": self.start_col.tolist(),
                "end_ns": self.end_col.tolist(),
                "parent": self.parent_col.tolist(),
                "op": self.op_col.tolist(),
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
