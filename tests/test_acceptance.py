"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 6 is known to fail as stated: on the prescribed refinement levels
the measured convergence orders exceed the 4/3/2 targets from above, because
the edge-correction terms decay half an order faster than the leading error
term and still dominate it at those levels.  The guaranteed h^(s-t) error
bound itself holds with a stable constant (errors scaled by h^(t-s) decrease
monotonically); the assertion is nevertheless kept at the stated symmetric
tolerance.
"""

import time

import numpy as np
import pytest

from asg1kit.asg1 import check_conformity, extend, global_project, patch_project
from asg1kit.fields import ScalarField1D, ScalarField2D, manufactured, pullback
from asg1kit.geometry import (
    BUILTIN_GEOMETRIES,
    NORMALS,
    builtin_geometry,
    edge_coords,
)
from asg1kit.gluing import g1_compatibility_residual, recover_all
from asg1kit.harness import StudyConfig, run_convergence, run_p_sweep
from asg1kit.norms import combine_tables, physical_error_norms
from asg1kit.ritz1d import bubble, pi_cross_functionals, ritz_functionals
from asg1kit.splines import (
    Partition,
    UniSpline,
    UniSplineSpace,
    eval_operator,
    gauss_rule,
    uniform_partition,
)
from asg1kit.tensor import (
    TensorSpline,
    TensorSplineSpace,
    as_field,
    normal_derivative_trace,
    tensor_project,
    tensor_project_Q,
    trace,
)

from test_asg1 import boundary_gluing_sides, generic_field, reproduction_sample
from test_ritz1d import ritz_project


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}  {detail}")
    assert ok, f"criterion {num} ({label}) {detail}"


def _analytic_1d():
    return ScalarField1D(
        lambda x, d: 1.7 ** d * np.sin(1.7 * x + d * np.pi / 2) + (x if d == 0
        else 1.0 if d == 1 else 0.0), max_order=4
    )


def test_criterion_1_univariate_projector_contract():
    start = time.time()
    ok = True
    details = []
    partitions = [uniform_partition(6),
                  Partition((0.0, 0.15, 0.4, 0.55, 0.8, 1.0))]
    u = _analytic_1d()
    for p in (3, 4, 5):
        for k in sorted({1, p - 2}):
            for r in sorted({1, 2, min(3, k + 1)}):
                for Z in partitions:
                    S = UniSplineSpace(p, k, Z)
                    rng = np.random.default_rng(p * 100 + k * 10 + r)
                    f = UniSpline(S, rng.standard_normal(S.dim))
                    proj = ritz_project(
                        S, r, ScalarField1D(lambda x, d: f(x, d), max_order=3)
                    )
                    rep = np.max(np.abs(proj.coefficients - f.coefficients))
                    if rep > 1e-12:
                        ok = False
                        details.append(f"repro p={p} k={k} r={r}: {rep:.1e}")
                    g = ritz_project(S, r, u)
                    for s in range(r):
                        if abs(g(0.0, s) - float(u(np.asarray(0.0), s))) > 1e-10:
                            ok = False
                            details.append(f"left Hermite p={p} k={k} r={r} s={s}")
                        if p >= 2 * r - 1 and \
                                abs(g(1.0, s) - float(u(np.asarray(1.0), s))) > 1e-10:
                            ok = False
                            details.append(f"right Hermite p={p} k={k} r={r} s={s}")
                    if r == 2:
                        x, w = gauss_rule(Z, p + 5)
                        resid = u(x, 2) - g(x, 2)
                        B2 = eval_operator(S, x, 2)
                        scale = np.sqrt(np.sum(w * u(x, 2) ** 2))
                        worst = np.max(np.abs(B2.T @ (w * resid)))
                        if worst > 1e-10 * scale:
                            ok = False
                            details.append(f"orthogonality p={p} k={k}: {worst:.1e}")
    elapsed = time.time() - start
    _report(1, "univariate Ritz projector contract", ok and elapsed < 10,
            f"({elapsed:.1f}s)" + ("; ".join(details[:3])))


def test_criterion_2_bubble_contract():
    start = time.time()
    ok = True
    details = []
    for p in (3, 4, 5):
        norms = {}
        for n in (8, 16, 32):
            Z = uniform_partition(n)
            x, w = gauss_rule(Z, 8)
            for s in (0, 1, 2):
                b = bubble(p, Z, s)
                for t in (0, 1, 2):
                    want = 1.0 if s == t else 0.0
                    if abs(b(0.0, t) - want) > 1e-12 \
                            or abs(b(1.0, t)) > 1e-12:
                        ok = False
                        details.append(f"endpoint p={p} n={n} s={s} t={t}")
                    norms[p, n, s, t] = float(
                        np.sqrt(np.sum(w * b(x, t) ** 2))
                    )
        for s in (0, 1, 2):
            for t in (0, 1, 2):
                want = (1.0 + 2.0 * (s - t)) / 2.0
                for n in (8, 16):
                    expo = np.log2(norms[p, n, s, t] / norms[p, 2 * n, s, t])
                    if abs(expo - want) > 0.3:
                        ok = False
                        details.append(
                            f"scaling p={p} s={s} t={t} n={n}: {expo:.2f} vs {want:.2f}"
                        )
    elapsed = time.time() - start
    _report(2, "boundary bubble contract", ok and elapsed < 10,
            f"({elapsed:.1f}s)" + "; ".join(details[:3]))


def test_criterion_3_tensor_projector_identities():
    start = time.time()
    ok = True
    details = []
    t50 = np.linspace(0.0, 1.0, 50)
    for p, k in ((3, 1), (4, 2)):
        Z = uniform_partition(5)
        V = TensorSplineSpace(UniSplineSpace(p, k, Z), UniSplineSpace(p, k, Z))
        u = generic_field()
        a = tensor_project(V, u, order="21")
        b = tensor_project(V, u, order="12")
        scale = np.max(np.abs(a.coefficients))
        if np.max(np.abs(a.coefficients - b.coefficients)) > 1e-11 * scale:
            ok = False
            details.append(f"commuting p={p}")
        Q = a
        for cx, cy in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            for s in (0, 1):
                for t in (0, 1):
                    got = Q(np.asarray(cx), np.asarray(cy), s, t)
                    want = float(u(np.asarray(cx), np.asarray(cy), s, t))
                    if abs(got - want) > 1e-10:
                        ok = False
                        details.append(f"corner p={p} ({cx},{cy},{s},{t})")
        from oracles import restrict_to_edge

        for j in (1, 2, 3, 4):
            side = V.side_space(j)
            tr = ritz_project(side, 2, restrict_to_edge(u, j))
            if np.max(np.abs(trace(Q, j)(t50) - tr(t50))) > 1e-10:
                ok = False
                details.append(f"edge trace p={p} j={j}")
            n = NORMALS[j]

            def ndu(x, d, jj=j):
                ex, ey = edge_coords(jj, x)
                if jj in (1, 3):
                    return n[1] * u(ex, ey, d, 1)
                return n[0] * u(ex, ey, 1, d)

            nd = ritz_project(side, 2, ScalarField1D(ndu, max_order=3))
            if np.max(np.abs(normal_derivative_trace(Q, j)(t50) - nd(t50))) > 1e-10:
                ok = False
                details.append(f"edge normal p={p} j={j}")
    elapsed = time.time() - start
    _report(3, "tensor projector identities", ok and elapsed < 30,
            f"({elapsed:.1f}s)" + "; ".join(details[:3]))


def test_criterion_4_patch_projector_interpolation():
    start = time.time()
    ok = True
    details = []
    p, k, n = 4, 1, 8
    t50 = np.linspace(0.0, 1.0, 50)
    mp = builtin_geometry("two_patch_skew", n)
    glue = recover_all(mp)
    u = manufactured("sinsin")
    from oracles import crossing_direction, edge_projector_P0, edge_projector_P1

    for i, patch in enumerate(mp.patches):
        uhat = pullback(u, patch.gmap)
        proj = patch_project(patch, uhat, glue.for_patch(i), p, k)
        f = proj.spline
        for j in (1, 2, 3, 4):
            Zj = patch.side_partition(j)
            P0 = edge_projector_P0(uhat, j, p, k, Zj)
            P1 = edge_projector_P1(uhat, j, glue[i, j], p, k, Zj, P0)
            x, y = edge_coords(j, t50)
            nj = NORMALS[j]
            if np.max(np.abs(f(x, y) - P0(t50))) > 1e-10:
                ok = False
                details.append(f"edge interpolation patch {i} side {j}")
            ndv = nj[0] * f(x, y, 1, 0) + nj[1] * f(x, y, 0, 1)
            if np.max(np.abs(ndv - P1(t50))) > 1e-10:
                ok = False
                details.append(f"normal interpolation patch {i} side {j}")
            from oracles import directional_edge_field

            g1 = directional_edge_field(uhat, j, glue[i, j].alpha,
                                        glue[i, j].beta)
            w = pi_cross_functionals(p, k, Zj).apply(g1)
            dvec = crossing_direction(glue[i, j], j)(t50)
            dval = dvec[:, 0] * f(x, y, 1, 0) + dvec[:, 1] * f(x, y, 0, 1)
            if np.max(np.abs(dval - w(t50))) > 1e-9:
                ok = False
                details.append(f"d-derivative patch {i} side {j}")
        for cx, cy in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            for s in range(3):
                for t in range(3 - s):
                    got = f(np.asarray(cx), np.asarray(cy), s, t)
                    want = float(uhat(np.asarray(cx), np.asarray(cy), s, t))
                    if abs(got - want) > 1e-9:
                        ok = False
                        details.append(f"corner patch {i} ({cx},{cy})")
        for corr in proj.corrections:
            for jp in (1, 2, 3, 4):
                if jp == corr.side:
                    continue
                x, y = edge_coords(jp, t50)
                nj = NORMALS[jp]
                E = extend(corr.side, corr.sigma, corr.edge_spline,
                           patch.partitions, p, k)
                ndv = nj[0] * E(x, y, 1, 0) + nj[1] * E(x, y, 0, 1)
                if np.max(np.abs(E(x, y))) > 1e-10 or np.max(np.abs(ndv)) > 1e-10:
                    ok = False
                    details.append(
                        f"interference patch {i} side {corr.side} on {jp}"
                    )
    elapsed = time.time() - start
    _report(4, "patch projector interpolation (two_patch_skew, p=4, k=1)",
            ok and elapsed < 60, f"({elapsed:.1f}s)" + "; ".join(details[:3]))


def test_criterion_5_global_conformity():
    start = time.time()
    ok = True
    details = []
    p, k, n = 4, 1, 8
    import sympy as sym
    import oracles

    x, y = sym.symbols("x y")
    for name in ("two_patch_skew", "three_patch_L"):
        mp = builtin_geometry(name, n)
        glue = recover_all(mp)
        gp = global_project(mp, glue, manufactured("sinsin"), p, k)
        rep = check_conformity(gp)
        for r in rep.interfaces:
            if r.relative_value_jump > 1e-10:
                ok = False
                details.append(f"{name} value jump {r.relative_value_jump:.1e}")
            if r.relative_d_jump > 1e-9:
                ok = False
                details.append(f"{name} d jump {r.relative_d_jump:.1e}")
        for v in rep.vertices:
            if v.relative_defect > 1e-8:
                ok = False
                details.append(f"{name} vertex defect {v.relative_defect:.1e}")
        # boundary-vanishing input: zero on the leftmost boundary edge
        shift = 0.0 if name == "two_patch_skew" else 1.0
        uv = oracles.sympy_field2d((x + shift) * sym.sin(sym.pi * y), x, y)
        gpv = global_project(mp, glue, uv, p, k)
        repv = check_conformity(gpv)
        seen = False
        for b in repv.boundaries:
            if b.input_trace_sup <= 1e-12:
                seen = True
                if b.projected_trace_sup > 1e-10:
                    ok = False
                    details.append(f"{name} boundary trace {b.projected_trace_sup:.1e}")
        if not seen:
            ok = False
            details.append(f"{name}: no vanishing boundary edge found")
        # gradient-vanishing input on the same edge
        ug = oracles.sympy_field2d((x + shift) ** 2 * sym.sin(sym.pi * y), x, y)
        gpg = global_project(mp, glue, ug, p, k)
        repg = check_conformity(gpg)
        for b in repg.boundaries:
            if b.input_trace_sup <= 1e-12 and b.input_d_sup <= 1e-12:
                if b.projected_d_sup > 1e-9:
                    ok = False
                    details.append(f"{name} boundary d-trace {b.projected_d_sup:.1e}")
    elapsed = time.time() - start
    _report(5, "global conformity and boundary preservation (p=4)",
            ok and elapsed < 60, f"({elapsed:.1f}s)" + "; ".join(details[:3]))


def test_criterion_6_convergence_rates():
    start = time.time()
    targets = (4.0, 3.0, 2.0)
    ok = True
    details = []
    for name in ("two_patch_square", "two_patch_skew"):
        cfg = StudyConfig(name, "sinsin", 3, 1, levels=3, base_n=8)
        res = run_convergence(cfg)
        rates = res.rows[-1]["rates"]
        details.append(
            f"{name}: " + "/".join(f"{r:.2f}" for r in rates)
        )
        for t in range(3):
            if abs(rates[t] - targets[t]) > 0.25:
                ok = False
    elapsed = time.time() - start
    _report(6, "convergence orders 4/3/2 +-0.25 at p=3 (levels 1/8..1/32)",
            ok and elapsed < 300, f"({elapsed:.1f}s) " + "; ".join(details))


def test_criterion_7_p_robustness():
    start = time.time()
    cfg = StudyConfig("unit_square", "sinsin", degrees=(3, 4, 5, 6), base_n=8)
    res = run_p_sweep(cfg)
    ok = True
    details = []
    errs = [row["errors"] for row in res.rows]
    for t in range(3):
        seq = [e[t] for e in errs]
        for a, b in zip(seq, seq[1:]):
            if b > 1.1 * a:
                ok = False
                details.append(f"t={t}: {a:.2e} -> {b:.2e}")
    elapsed = time.time() - start
    h2 = "/".join(f"{e[2]:.1e}" for e in errs)
    _report(7, "p-robustness at h=1/8 (H2 errors non-increasing)",
            ok and elapsed < 300, f"({elapsed:.1f}s) H2: {h2} " + ";".join(details))


def test_criterion_8_gluing_certification():
    start = time.time()
    ok = True
    details = []
    for name in BUILTIN_GEOMETRIES:
        mp = builtin_geometry(name)
        data = recover_all(mp, tol=1e-10)
        if not data.certified:
            ok = False
            details.append(f"{name} not certified")
        for report in data.reports:
            if report.residual_alpha > 1e-10 or report.residual_beta > 1e-10:
                ok = False
                details.append(f"{name} residuals")
            if not report.alpha_positive:
                ok = False
                details.append(f"{name} alpha sign")
            if abs(report.normalization_min - 1.0) > 1e-12:
                ok = False
                details.append(f"{name} normalization {report.normalization_min}")
        for iface in mp.interfaces:
            res = g1_compatibility_residual(
                mp, iface, data[iface.left], data[iface.right]
            )
            if res > 1e-9:
                ok = False
                details.append(f"{name} g1 identity {res:.1e}")
    elapsed = time.time() - start
    _report(8, "gluing certification of built-in geometries",
            ok and elapsed < 5, f"({elapsed:.1f}s)" + "; ".join(details[:3]))


def test_criterion_9_reproduction():
    start = time.time()
    ok = True
    details = []
    # patch-level: random C1-compatible splines under boundary gluing
    for p, k in ((3, 1), (4, 1), (4, 2)):
        for seed in (0, 1):
            f = reproduction_sample(p, k, 8, seed)
            mp = builtin_geometry("unit_square", 8)
            proj = patch_project(mp.patches[0], as_field(f),
                                 boundary_gluing_sides(), p, k)
            err = np.max(np.abs(proj.spline.coefficients - f.coefficients))
            if err > 1e-10:
                ok = False
                details.append(f"patch repro p={p} k={k} seed={seed}: {err:.1e}")
    # global: constants and globally linear functions on all built-ins
    const = ScalarField2D(
        lambda x, y, a, b: np.full(np.broadcast_shapes(x.shape, y.shape),
                                   5.0 if a == b == 0 else 0.0), max_order=8
    )

    def linear(x, y, a, b):
        if (a, b) == (0, 0):
            return 2.0 * x - 0.5 * y + 1.0
        if (a, b) == (1, 0):
            return np.full(np.broadcast_shapes(x.shape, y.shape), 2.0)
        if (a, b) == (0, 1):
            return np.full(np.broadcast_shapes(x.shape, y.shape), -0.5)
        return np.zeros(np.broadcast_shapes(x.shape, y.shape))

    lin = ScalarField2D(linear, max_order=8)
    grid = np.linspace(0.0, 1.0, 9)
    GX, GY = np.meshgrid(grid, grid, indexing="ij")
    for name in BUILTIN_GEOMETRIES:
        mp = builtin_geometry(name, 8)
        glue = recover_all(mp)
        for label, u in (("constant", const), ("linear", lin)):
            gp = global_project(mp, glue, u, 4, 1)
            for i, pp in enumerate(gp.patches):
                pts = mp.patches[i].gmap.point(GX, GY)
                want = u(pts[..., 0], pts[..., 1])
                err = np.max(np.abs(pp.spline(GX, GY) - want))
                if err > 1e-10:
                    ok = False
                    details.append(f"{name} {label} patch {i}: {err:.1e}")
    elapsed = time.time() - start
    _report(9, "reproduction of compatible splines, constants, linears",
            ok and elapsed < 30, f"({elapsed:.1f}s)" + "; ".join(details[:3]))
