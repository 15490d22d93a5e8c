"""Outside-in tracing of the asg1kit layers.

`Tracer.install` replaces public functions of the package, in every module
namespace that binds them, by wrappers that record one span per call:
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 for none).  The fields returned by ``pullback`` are replaced by
fields whose evaluations are spans too, and methods such as the
``derivative`` of each geometry map class are wrapped on their class.
Spans stay in memory until `write_spans`.  Nothing in the package changes;
`uninstall` restores every original.

A span's self time is its duration minus the durations of its direct
children.  Layer metrics either sum self times or sum the durations of the
outermost spans of a group of names (so that nested calls of the same
group count once).
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

import numpy as np

import asg1kit
from asg1kit import (asg1, fields, geometry, gluing, harness, norms, ritz1d,
                     splines, tensor)

MODULES = (asg1kit, asg1, fields, geometry, gluing, harness, norms, ritz1d,
           splines, tensor)

# (module that defines the function, attribute, span name)
FUNCTIONS = (
    (asg1, "global_project", "asg1.global_project"),
    (asg1, "patch_project", "asg1.patch_project"),
    (asg1, "edge_projector_P0", "asg1.edge_P0"),
    (asg1, "edge_projector_P1", "asg1.edge_P1"),
    (asg1, "extend", "asg1.extend"),
    (asg1, "check_conformity", "asg1.check_conformity"),
    (tensor, "tensor_project_Q", "tensor.tensor_project_Q"),
    (tensor, "data_matrix", "tensor.data_matrix"),
    (tensor, "eval_tensor_grid", "tensor.eval_grid"),
    (splines, "multiply_by_linear", "splines.multiply_by_linear"),
    (splines, "eval_operator", "splines.eval_operator"),
    (ritz1d, "ritz_functionals", "ritz1d.ritz_functionals"),
    (ritz1d, "pi_star_functionals", "ritz1d.pi_star_functionals"),
    (ritz1d, "pi_cross_functionals", "ritz1d.pi_cross_functionals"),
    (norms, "physical_error_norms", "norms.physical_error_norms"),
    (norms, "combine_tables", "norms.combine_tables"),
    (gluing, "recover_all", "gluing.recover_all"),
    (harness, "resolve_geometry", "harness.resolve_geometry"),
)
# (class, method, span name)
METHODS = (
    (geometry.BilinearMap, "derivative", "geometry.derivative"),
    (geometry.SplineMap, "derivative", "geometry.derivative"),
    (geometry.NurbsMap, "derivative", "geometry.derivative"),
    (harness.StudyConfig, "validate", "harness.validate"),
)
FUNCTIONALS = ("ritz1d.ritz_functionals", "ritz1d.pi_star_functionals",
               "ritz1d.pi_cross_functionals")

# metric -> span names whose self times it sums
SELF_TIME = {
    "geometry.derivative_s": ("geometry.derivative",),
    "fields.pullback_eval_s": ("fields.pullback_eval",),
    "tensor.data_matrix_s": ("tensor.data_matrix",),
    "tensor.contract_s": ("tensor.tensor_project_Q",),
    "asg1.patch_project_self_s": ("asg1.patch_project",),
    "asg1.check_conformity_self_s": ("asg1.check_conformity",),
    "norms.self_s": ("norms.physical_error_norms", "norms.combine_tables"),
    "harness.self_s": ("harness.validate", "harness.resolve_geometry"),
}
# metric -> span names whose outermost spans' durations it sums
TOTAL_TIME = {
    "splines.multiply_by_linear_s": ("splines.multiply_by_linear",),
    "splines.eval_operator_s": ("splines.eval_operator",),
    "ritz1d.functionals_s": FUNCTIONALS,
    "tensor.eval_grid_s": ("tensor.eval_grid",),
    "asg1.edge_P0_s": ("asg1.edge_P0",),
    "asg1.edge_P1_s": ("asg1.edge_P1",),
    "asg1.extend_s": ("asg1.extend",),
    "gluing.recover_all_s": ("gluing.recover_all",),
}
# metric -> span name whose calls it counts
CALLS = {
    "geometry.derivative_calls": "geometry.derivative",
    "fields.pullback_eval_calls": "fields.pullback_eval",
    "splines.multiply_by_linear_calls": "splines.multiply_by_linear",
    "splines.eval_operator_calls": "splines.eval_operator",
    "gluing.recover_all_calls": "gluing.recover_all",
}
# counters accumulated by the wrappers themselves
COUNTERS = ("geometry.derivative_points", "fields.pullback_points",
            "tensor.contract_flops", "norms.quad_points",
            "ritz1d.functional_bytes")


def ritz1d_caches():
    """The lru_cache functions of the ritz1d module."""
    return [obj for obj in vars(ritz1d).values()
            if hasattr(obj, "cache_info") and obj.__module__ == ritz1d.__name__]


def cache_stats(caches) -> tuple[int, int]:
    """Total (hits, misses) of the given lru_cache functions."""
    infos = [c.cache_info() for c in caches]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _points(x, y) -> int:
    return math.prod(np.broadcast_shapes(np.shape(x), np.shape(y)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._caches = ritz1d_caches()
        self._counted_matrices: set[int] = set()

    # -- spans ------------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        once the span has ended, to update counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, counter, measure):
        def after(args, result):
            self.counters[counter] += measure(args)
        return after

    def _pullback(self, fn):
        count = self._count("fields.pullback_points", lambda a: _points(a[0], a[1]))

        @functools.wraps(fn)
        def pullback(u, gmap):
            field = fn(u, gmap)
            ev = self.wrap("fields.pullback_eval",
                           lambda x, y, a, b: field(x, y, a, b), count)
            return fields.ScalarField2D(ev, max_order=field.max_order)

        return pullback

    def _functionals(self, name, fn):
        """Functional builders: count the bytes of every matrix built by a
        call during which a ritz1d cache missed."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def build(*args, **kwargs):
            misses = cache_stats(self._caches)[1]
            result = traced(*args, **kwargs)
            key = id(result.matrix)
            if (cache_stats(self._caches)[1] > misses
                    and key not in self._counted_matrices):
                self._counted_matrices.add(key)
                self.counters["ritz1d.functional_bytes"] += result.matrix.nbytes
            return result

        return build

    @staticmethod
    def _contract_flops(args):
        # tensor_project forms C = M1 @ (D @ M2.T) right after data_matrix
        f1, f2 = args[1], args[2]
        n1, m1 = f1.matrix.shape
        n2, m2 = f2.matrix.shape
        return 2 * m1 * m2 * n2 + 2 * n1 * m1 * n2

    def install(self):
        hooks = {
            "geometry.derivative": self._count(
                "geometry.derivative_points", lambda a: _points(a[1], a[2])),
            "tensor.data_matrix": self._count("tensor.contract_flops",
                                              self._contract_flops),
            # the value grid of each norms call spans its quadrature points
            "tensor.eval_grid": self._count(
                "norms.quad_points",
                lambda a: (np.size(a[1]) * np.size(a[2])
                           if a[3:] in ((), (0,), (0, 0)) else 0)),
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            if name in FUNCTIONALS:
                wrapper = self._functionals(name, original)
            else:
                wrapper = self.wrap(name, original, hooks.get(name))
            self._replace(original, wrapper)
        self._replace(fields.pullback, self._pullback(fields.pullback))
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))

    def _replace(self, original, wrapper):
        """Bind ``wrapper`` wherever a package module binds ``original``."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- metrics ------------------------------------------------------------------

    def layer_metrics(self, cache_delta: tuple[int, int]) -> dict:
        """Per-layer metrics of the spans under the first span recorded,
        the measured pass; ``cache_delta`` holds the ritz1d cache hits and
        misses of the pass."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent in spans[1:]:
            child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, start, end, _) in enumerate(spans[1:], start=1):
            self_time[name] += end - start - child_time[idx]
            calls[name] += 1
        out = {m: sum(self_time[n] for n in names) for m, names in SELF_TIME.items()}
        for metric, names in TOTAL_TIME.items():
            out[metric] = sum(
                end - start for name, start, end, parent in spans[1:]
                if name in names and not self._has_ancestor(parent, names))
        out.update({m: calls[n] for m, n in CALLS.items()})
        out.update({c: self.counters[c] for c in COUNTERS})
        hits, misses = cache_delta
        out["ritz1d.cache_hits"] = hits
        out["ritz1d.cache_misses"] = misses
        out["ritz1d.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        study = spans[0][2] - spans[0][1]
        out["trace.unattributed_s"] = study - sum(self_time.values())
        return out

    def _has_ancestor(self, idx: int, names) -> bool:
        while idx >= 0:
            if self.spans[idx][0] in names:
                return True
            idx = self.spans[idx][3]
        return False

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
