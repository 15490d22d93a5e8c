"""End-to-end coverage beyond the bilinear built-ins: rational and curved
spline geometries, reversed interfaces with nontrivial gluing, projector
idempotence, and the error-bound constant."""

import numpy as np
import pytest
import sympy as sym
from hypothesis import given, settings
from hypothesis import strategies as st

from asg1kit.asg1 import check_conformity, global_project, patch_project
from asg1kit.fields import manufactured, pullback
from asg1kit.geometry import (
    BilinearMap,
    Interface,
    MultiPatch,
    NurbsMap,
    Patch,
    SplineMap,
    builtin_geometry,
    check_2regular,
)
from asg1kit.gluing import g1_compatibility_residual, recover_all
from asg1kit.norms import combine_tables, physical_error_norms
from asg1kit.splines import (
    UniSplineSpace,
    greville_points,
    uniform_partition,
)
from asg1kit.tensor import as_field

import oracles


def identity_control_grid(space):
    g = greville_points(space)
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)


def curved_interior_two_patch(n=8):
    """Two spline patches with curved interiors but straight, affinely
    parameterized edges.  The control columns adjacent to every edge stay on
    the identity grid, so the interface determinants coincide with the
    axis-aligned bilinear case and the geometry stays AS-G1."""
    Z = uniform_partition(2)
    S = UniSplineSpace(3, 2, Z)
    rng = np.random.default_rng(7)

    def make(shift):
        ctrl = identity_control_grid(S)
        bump = 0.06 * rng.standard_normal(ctrl.shape)
        bump[:2, :, :] = bump[-2:, :, :] = 0.0
        bump[:, :2, :] = bump[:, -2:, :] = 0.0
        ctrl = ctrl + bump
        ctrl[..., 0] += shift
        return SplineMap(S, S, ctrl)

    ZP = uniform_partition(n)
    left = Patch(make(0.0), (ZP, ZP))
    right = Patch(make(1.0), (ZP, ZP))
    return MultiPatch([left, right], [Interface((0, 2), (1, 4))])


def reversed_skew_two_patch(n=8):
    """Skewed right patch glued with reversed edge orientation: the shared
    edge x=1 runs upward in the left patch and downward in the right one."""
    left = Patch(
        BilinearMap(np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], float)),
        (uniform_partition(n),) * 2,
    )
    corners = np.array([[[2, 1.2], [2, -0.3]], [[1, 1], [1, 0]]], float)
    right = Patch(BilinearMap(corners), (uniform_partition(n),) * 2)
    return MultiPatch([left, right], [Interface((0, 2), (1, 2), reversed=True)])


def single_patch_nurbs(n=8, amplitude=0.15):
    """Unit-square image with a genuinely rational interior parameterization:
    boundary control points and weights stay at the identity values, so the
    edges remain straight and affinely parameterized."""
    Z = uniform_partition(2)
    S = UniSplineSpace(2, 1, Z)
    ctrl = identity_control_grid(S)
    rng = np.random.default_rng(11)
    ctrl[1:-1, 1:-1, :] += 0.05 * rng.standard_normal(ctrl[1:-1, 1:-1, :].shape)
    w = np.ones((S.dim, S.dim))
    w[1:-1, 1:-1] += amplitude * rng.random(ctrl[1:-1, 1:-1, 0].shape)
    ZP = uniform_partition(n)
    return MultiPatch([Patch(NurbsMap(S, S, ctrl, w), (ZP, ZP))], [])


# -- curved spline interiors --------------------------------------------------------


def test_curved_interior_geometry_is_asg1():
    mp = curved_interior_two_patch()
    for patch in mp.patches:
        det, _ = check_2regular(patch.gmap)
        assert det > 0
    data = recover_all(mp)
    assert data.certified
    left = data[0, 2]
    assert left.alpha.endpoints() == pytest.approx((1.0, 1.0), abs=1e-9)
    res = g1_compatibility_residual(mp, mp.interfaces[0], data[0, 2], data[1, 4])
    assert res <= 1e-10


def test_curved_interior_global_conformity():
    mp = curved_interior_two_patch()
    gp = global_project(mp, recover_all(mp), manufactured("sinsin"), 4, 1)
    rep = check_conformity(gp)
    for r in rep.interfaces:
        assert r.relative_value_jump <= 1e-10
        assert r.relative_d_jump <= 1e-9
    for v in rep.vertices:
        assert v.relative_defect <= 1e-8


# -- an interior vertex of valence 4: linear alphas ---------------------------------


def valence4_square(c=(0.55, 0.45), n=8):
    """The unit square split at the interior point ``c`` into four bilinear
    patches around one interior vertex.  Off c = (0.5, 0.5) the ratio D1/D2
    varies along every interface (1 -> 1.25, 1.2 -> 1, 1 -> 0.833 and
    0.8 -> 1 at the default c), so the recovered alphas are linear."""
    Z = uniform_partition(n)

    def patch(c00, c10, c01, c11):
        return Patch(BilinearMap(np.array([[c00, c01], [c10, c11]], float)), (Z, Z))

    return MultiPatch(
        [patch((0, 0), (.5, 0), (0, .5), c), patch((.5, 0), (1, 0), c, (1, .5)),
         patch((0, .5), c, (0, 1), (.5, 1)), patch(c, (1, .5), (.5, 1), (1, 1))],
        [Interface((0, 2), (1, 4)), Interface((2, 2), (3, 4)),
         Interface((0, 3), (2, 1)), Interface((1, 3), (3, 1))],
    )


def valence3_triangle(n=8):
    """The triangle A = (0, 0), B = (2, 0), C = (1, 1.6) split at its
    centroid M through the edge midpoints into three bilinear patches around
    one interior vertex of valence 3."""
    Z = uniform_partition(n)
    A, B, C = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.6)])
    M, ab, bc, ca = (A + B + C) / 3.0, (A + B) / 2.0, (B + C) / 2.0, (C + A) / 2.0

    def patch(c00, c10, c01, c11):
        return Patch(BilinearMap(np.array([[c00, c01], [c10, c11]], float)), (Z, Z))

    return MultiPatch(
        [patch(A, ab, ca, M), patch(ab, B, M, bc), patch(ca, M, C, bc)],
        [Interface((0, 2), (1, 4)), Interface((0, 3), (2, 1)),
         Interface((1, 3), (2, 2))],
    )


def check_valence4(mp, p, k, field):
    """Certified positive alphas and the conformity tolerances of the
    project and check-c1 CLI; the gluing data and the report."""
    glue = recover_all(mp)
    assert glue.certified
    for iface in mp.interfaces:
        for side in (iface.left, iface.right):
            assert min(glue[side].alpha.endpoints()) > 0.0
    rep = check_conformity(global_project(mp, glue, manufactured(field), p, k))
    for r in rep.interfaces:
        assert r.relative_value_jump <= 1e-10
        assert r.relative_d_jump <= 1e-9
    for v in rep.vertices:
        assert v.relative_defect <= 1e-8
    if field == "sinsin":
        # sinsin vanishes on the boundary of the unit square
        for b in rep.boundaries:
            assert b.projected_trace_sup <= 1e-11
    return glue, rep


@pytest.mark.parametrize("field", ["sinsin", "expxy"])
@pytest.mark.parametrize("p,n", [(4, 8), (5, 16), (6, 32)])
def test_valence4_linear_gluing_conformity(p, n, field):
    mp = valence4_square(n=n)
    glue, rep = check_valence4(mp, p, p - 2, field)
    for iface in mp.interfaces:
        for side in (iface.left, iface.right):
            a0, a1 = glue[side].alpha.endpoints()
            assert abs(a1 - a0) >= 0.05, side
    # the interior vertex is one cluster of four corners
    assert sorted(len(v.members) for v in rep.vertices)[-2:] == [2, 4]


@pytest.mark.parametrize("field", ["expxy", "poly4"])
@pytest.mark.parametrize("p,k", [(4, 1), (4, 2), (6, 4)])
def test_valence3_conformity(p, k, field):
    _, rep = check_valence4(valence3_triangle(8), p, k, field)
    # the interior vertex is one cluster of three corners
    assert sorted(len(v.members) for v in rep.vertices)[-2:] == [2, 3]


# near-degenerate centres (c ~ (0.75, 0.74), min det 0.0055) reach vertex
# defects of 3e-9: the round-off there is an open question of its own
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(st.floats(0.4, 0.6), st.floats(0.4, 0.6))
def test_valence4_conformity_over_centres(cx, cy):
    check_valence4(valence4_square((cx, cy)), 4, 1, "sinsin")


# -- reversed interface with nontrivial beta ------------------------------------------


def test_reversed_skew_certifies_with_nontrivial_beta():
    mp = reversed_skew_two_patch()
    data = recover_all(mp)
    assert data.certified
    beta = data[0, 2].beta
    assert max(abs(b) for b in beta.endpoints()) > 0.05
    res = g1_compatibility_residual(mp, mp.interfaces[0], data[0, 2], data[1, 2])
    assert res <= 1e-10


@pytest.mark.parametrize("p", [3, 4])
def test_reversed_skew_global_conformity(p):
    mp = reversed_skew_two_patch()
    gp = global_project(mp, recover_all(mp), manufactured("expxy"), p, 1)
    rep = check_conformity(gp)
    for r in rep.interfaces:
        assert r.relative_value_jump <= 1e-10, p
        assert r.relative_d_jump <= 1e-9, p


# -- rational parameterizations ---------------------------------------------------


def test_nurbs_pullback_high_order_against_sympy():
    # one-element quadratic rational map so the B-spline basis is Bernstein
    Z1 = uniform_partition(1)
    S1 = UniSplineSpace(2, 1, Z1)
    ctrl = identity_control_grid(S1)
    rng = np.random.default_rng(5)
    ctrl[1, 1, :] += np.array([0.07, -0.04])
    w = np.ones((3, 3))
    w[1, 1] = 1.4
    w[1, 0] = 0.8
    gmap = NurbsMap(S1, S1, ctrl, w)
    x1, x2 = sym.symbols("x1 x2")
    bern = [(1 - x1) ** 2, 2 * x1 * (1 - x1), x1 ** 2]
    bern2 = [(1 - x2) ** 2, 2 * x2 * (1 - x2), x2 ** 2]
    num_x = num_y = den = 0
    for i in range(3):
        for j in range(3):
            B = bern[i] * bern2[j]
            wij = gmap.weights[i, j]
            num_x += wij * gmap.control[i, j, 0] * B
            num_y += wij * gmap.control[i, j, 1] * B
            den += wij * B
    # the composite is exp(g) with g the rational x + 2y of the map, and
    # d1^a d2^b exp(g) = exp(g) h_ab with h_00 = 1 and, by the product rule,
    # h_(a+1)b = d1 h_ab + h_ab d1 g, h_a(b+1) = d2 h_ab + h_ab d2 g
    g = (num_x + 2 * num_y) / den
    d1g, d2g = sym.diff(g, x1), sym.diff(g, x2)
    u = manufactured("expxy")
    v = pullback(u, gmap)
    pts = np.linspace(0.15, 0.85, 4)
    X, Y = np.meshgrid(pts, pts)
    for a, b in ((1, 1), (2, 2), (3, 1)):
        h = sym.Integer(1)
        for _ in range(a):
            h = sym.diff(h, x1) + h * d1g
        for _ in range(b):
            h = sym.diff(h, x2) + h * d2g
        ref = sym.lambdify((x1, x2), sym.exp(g) * h, "numpy")
        want = ref(X, Y)
        got = v(X, Y, a, b)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-8 * scale, (a, b)


def test_nurbs_patch_projection_and_boundary_preservation():
    import oracles as orc

    mp = single_patch_nurbs()
    det, _ = check_2regular(mp.patches[0].gmap)
    assert det > 0
    x, y = sym.symbols("x y")
    u = orc.sympy_field2d(x * sym.sin(sym.pi * y), x, y)
    gp = global_project(mp, recover_all(mp), u, 4, 1)
    rep = check_conformity(gp)
    seen = False
    for b in rep.boundaries:
        if b.input_trace_sup <= 1e-12:
            seen = True
            assert b.projected_trace_sup <= 1e-10
    assert seen


def test_nurbs_error_decay():
    u = manufactured("sinsin")
    errs = []
    for n in (8, 16):
        mp = single_patch_nurbs(n)
        gp = global_project(mp, recover_all(mp), u, 3, 1)
        table = physical_error_norms(mp.patches[0], u, gp.patches[0].spline)
        errs.append(table.norms[0])
    order = np.log2(errs[0] / errs[1])
    assert 3.3 <= order <= 5.2, order


# -- projector structure ----------------------------------------------------------


def test_patch_projector_idempotent():
    from test_asg1 import boundary_gluing_sides

    mp = builtin_geometry("unit_square", 8)
    u = manufactured("expxy")
    first = patch_project(mp.patches[0], pullback(u, mp.patches[0].gmap),
                          boundary_gluing_sides(), 4, 1)
    second = patch_project(mp.patches[0], as_field(first.spline),
                           boundary_gluing_sides(), 4, 1)
    err = np.max(np.abs(second.spline.coefficients - first.spline.coefficients))
    assert err <= 1e-10


def test_error_bound_constant_is_stable():
    # e_h * h^(t-s) must not grow under refinement (s = p+1)
    u = manufactured("sinsin")
    scaled = {0: [], 1: [], 2: []}
    for n in (8, 16, 32):
        mp = builtin_geometry("two_patch_square", n)
        gp = global_project(mp, recover_all(mp), u, 3, 1)
        total = combine_tables([
            physical_error_norms(mp.patches[i], u, gp.patches[i].spline)
            for i in range(2)
        ])
        for t in (0, 1, 2):
            scaled[t].append(total.norms[t] * n ** (4 - t))
    for t in (0, 1, 2):
        seq = scaled[t]
        assert seq[1] <= seq[0] * 1.05 and seq[2] <= seq[1] * 1.05, (t, seq)


@pytest.mark.parametrize("p", range(4, 17))
def test_poly4_is_reproduced_at_k1_up_to_p16(p):
    # poly4 (degree 4) lies in every space here, so its errors are round-off
    # alone.  Every base space of a k = 1 projector is discontinuous and is
    # solved element by element from QR factors, whose error grows like
    # sqrt(cond G) of the element Gram matrix G, not like cond G (about 2^p).
    # The bound, fixed before measuring: the H^t error is at most 100 eps
    # sqrt(cond G) max|d^t u| n^t, with G that of the tensor projector's
    # base S_(p-2,-1) at its default nodes and max|d^t u| over the patch
    # corners (where it lies for this u on the L)
    from asg1kit.ritz1d import default_quadrature_nodes
    from asg1kit.splines import eval_operator, gauss_rule

    n, u = 22, manufactured("poly4")  # h <= 3 / (4p) up to p = 16
    mp = builtin_geometry("three_patch_L", n)
    gp = global_project(mp, recover_all(mp), u, p, 1)
    errors = combine_tables([physical_error_norms(patch, u, q.spline)
                             for patch, q in zip(mp.patches, gp.patches)]).seminorms
    base = UniSplineSpace(p - 2, -1, uniform_partition(1))
    x, w = gauss_rule(base.partition, default_quadrature_nodes(p))
    B = eval_operator(base, x, 0)
    cond = np.linalg.cond(B.T @ (w[:, None] * B))
    corners = [np.concatenate(c) for c in zip(*(patch.gmap.corner_points()
                                                for patch in mp.patches))]
    for t in range(3):
        top = max(np.max(np.abs(u(*corners, a, t - a))) for a in range(t + 1))
        bound = 100 * np.finfo(float).eps * np.sqrt(cond) * top * n ** t
        assert errors[t] <= bound, (t, errors[t], bound)


@pytest.mark.parametrize("p,k", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 4)])
def test_patch_identities_across_degrees(p, k):
    # condensed interpolation checks on the skewed patch with nontrivial beta
    from oracles import edge_projector_P0
    from asg1kit.geometry import NORMALS, edge_coords

    mp = builtin_geometry("two_patch_skew", 8)
    glue = recover_all(mp)
    i = 1
    patch = mp.patches[i]
    u = manufactured("expxy")
    uhat = pullback(u, patch.gmap)
    proj = patch_project(patch, uhat, glue.for_patch(i), p, k)
    f = proj.spline
    t = np.linspace(0.0, 1.0, 20)
    for j in (1, 2, 3, 4):
        P0 = edge_projector_P0(uhat, j, p, k, patch.side_partition(j))
        x, y = edge_coords(j, t)
        assert np.max(np.abs(f(x, y) - P0(t))) <= 1e-9, (p, k, j)
    for cx, cy in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
        for s in range(3):
            for tt in range(3 - s):
                got = f(np.asarray(cx), np.asarray(cy), s, tt)
                want = float(uhat(np.asarray(cx), np.asarray(cy), s, tt))
                scale = max(1.0, abs(want))
                assert abs(got - want) <= 1e-8 * scale, (p, k, cx, cy, s, tt)
