"""The benchmark's outside-in tracer still finds what it wraps.

`perfbench/tracing.py` replaces package functions by name: deleting one
breaks `install`, and a code path that stops calling one leaves its
per-layer metric at zero.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import numpy as np  # noqa: E402
import tracing  # noqa: E402

from asg1kit import asg1, norms, splines  # noqa: E402
from asg1kit.fields import manufactured  # noqa: E402
from asg1kit.geometry import builtin_geometry  # noqa: E402
from asg1kit.gluing import recover_all  # noqa: E402


def test_tracer_records_projection_spans_and_restores():
    originals = (asg1.global_project, asg1.multiply_by_linear,
                 splines.multiply_by_linear)
    mp = builtin_geometry("unit_square", 4)
    glue = recover_all(mp)
    u = manufactured("sinsin")
    want = asg1.global_project(mp, glue, u, 3, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = asg1.global_project(mp, glue, u, 3, 1)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert "asg1.global_project" in names
    assert "splines.multiply_by_linear" in names
    # the per-side edge projector calls stay live under the tracer
    assert {"asg1.edge_P0", "asg1.edge_P1"} <= names
    assert (asg1.global_project, asg1.multiply_by_linear,
            splines.multiply_by_linear) == originals
    # the tracer's pullbacks are given by an evaluator alone, so the edge
    # jets take one call per order; the coefficients are the same
    for a, b in zip(got.patches, want.patches):
        assert np.array_equal(a.spline.coefficients, b.spline.coefficients)


def test_traced_norms_and_conformity_match_untraced():
    # the tracer rebuilds pullbacks as fields given by an evaluator alone,
    # and wraps the evaluators the norms and conformity checks reach
    mp = builtin_geometry("two_patch_skew", 8)
    glue = recover_all(mp)
    u = manufactured("sinsin")
    gp = asg1.global_project(mp, glue, u, 4, 2)

    def measure():
        table = norms.physical_error_norms(mp.patches[1], u, gp.patches[1].spline)
        return table.norms, asg1.check_conformity(gp).to_json()

    want = measure()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = measure()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"norms.physical_error_norms", "asg1.check_conformity",
            "fields.pullback_eval"} <= names
    # grid bindings contract the x2 bands: no dense basis rows
    assert "splines.eval_operator" not in names
    assert got == want
