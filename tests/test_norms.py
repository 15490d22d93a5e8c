import re

import numpy as np
import pytest
import sympy as sym

from asg1kit.fields import ScalarField2D, manufactured, pullback
from asg1kit.geometry import (BUILTIN_GEOMETRIES, BilinearMap, GeometryError, Patch,
                              SplineMap, _affine_jet, block_points, builtin_geometry,
                              jacobian_det)
from asg1kit.norms import (
    ErrorTable,
    combine_tables,
    observed_order,
    physical_error_norms,
)
from asg1kit import norms
from asg1kit.splines import (UniSplineSpace, eval_operator, gauss_rule,
                             greville_points, tensor_bind_x2, uniform_partition)
from asg1kit.tensor import TensorSpline, TensorSplineSpace, tensor_project_Q

import oracles


def unit_patch(n=4):
    return builtin_geometry("unit_square", n).patches[0]


def spline_exact_pair(n=4, p=3, k=1, seed=0):
    """A physical field that coincides with a random parametric spline on the
    identity patch."""
    Z = uniform_partition(n)
    S = UniSplineSpace(p, k, Z)
    rng = np.random.default_rng(seed)
    f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
    u = ScalarField2D(lambda x, y, a, b: f(x, y, a, b), max_order=3)
    return u, f


def det_on(gmap, x1, x2):
    """det G at the points, from one jet and the map's exact zeros."""
    return jacobian_det(gmap.jet(x1, x2, orders=[(1, 0), (0, 1)]), gmap.zeros)


def test_exact_spline_gives_zero_norms():
    u, f = spline_exact_pair()
    table = physical_error_norms(unit_patch(), u, f)
    assert all(v <= 1e-12 for v in table.norms.values())


@pytest.mark.parametrize("corners", [
    # twisted: the determinant changes sign inside and depends on both axes
    [[[0, 0], [1.2, 0.1]], [[1, 0], [0.2, 1.0]]],
    # mirrored: an affine map, so the determinant is one constant, -1
    [[[1, 0], [1, 1]], [[0, 0], [0, 1]]],
])
def test_folded_norms_name_a_quadrature_point_of_non_positive_determinant(corners):
    patch = Patch(BilinearMap(np.array(corners, float)), (uniform_partition(2),) * 2)
    S = UniSplineSpace(3, 1, uniform_partition(2))
    zero = TensorSpline(TensorSplineSpace(S, S), np.zeros((S.dim, S.dim)))
    nq = 4
    with pytest.raises(GeometryError, match="non-positive Jacobian") as info:
        physical_error_norms(patch, manufactured("sinsin"), zero, nq=nq)
    number = r"(-?\d+\.\d+(?:e[-+]\d+)?)"
    found = re.search(rf"determinant {number} at quadrature point \({number}, {number}\)",
                      str(info.value))
    det, x, y = (float(v) for v in found.groups())
    # the named point is a node of the rule and the minimum of det over them
    x1, _ = gauss_rule(patch.partitions[0], nq)
    x2, _ = gauss_rule(patch.partitions[1], nq)
    i, j = np.argmin(np.abs(x1 - x)), np.argmin(np.abs(x2 - y))
    assert abs(x1[i] - x) <= 1e-6 and abs(x2[j] - y) <= 1e-6
    grid = det_on(patch.gmap, *np.meshgrid(x1, x2, indexing="ij"))
    assert grid[i, j] <= 0.0
    assert grid[i, j] == pytest.approx(grid.min(), rel=1e-3)
    assert det == pytest.approx(grid.min(), rel=1e-3)


def test_norms_evaluate_each_basis_order_once_per_patch(monkeypatch):
    # one band per order and axis for the patch: basis rows of orders 0..2
    # on each axis
    from asg1kit import splines

    _, f = spline_exact_pair()
    calls = []
    original = splines._band_at

    def counting(space, x, d):
        calls.append((space, d, np.array(x)))
        return original(space, x, d)

    monkeypatch.setattr(splines, "_band_at", counting)
    physical_error_norms(unit_patch(), manufactured("sinsin"), f)
    assert sorted(d for space, d, _ in calls if space == f.space.space1) == \
        [0, 0, 1, 1, 2, 2]

    # a patch of several blocks: the x2 rows once per order per call, the x1
    # rows once per order per patch, on the whole axis, sliced into blocks of
    # whole elements
    Z1, Z2 = uniform_partition(32), uniform_partition(64)
    patch = Patch(BilinearMap([[[0, 0], [0, 1]], [[1, 0], [1, 1]]]), (Z1, Z2))
    S1, S2 = UniSplineSpace(3, 1, Z1), UniSplineSpace(3, 1, Z2)
    f = TensorSpline(TensorSplineSpace(S1, S2), np.ones((S1.dim, S2.dim)))
    nq = 7
    x1, _ = gauss_rule(Z1, nq)
    x2, _ = gauss_rule(Z2, nq)
    calls.clear()
    physical_error_norms(patch, manufactured("sinsin"), f, nq=nq)
    assert sorted(d for space, d, _ in calls if space == S2) == [0, 1, 2]
    assert all(np.array_equal(x, x2) for space, _, x in calls if space == S2)
    assert sorted(d for space, d, _ in calls if space == S1) == [0, 1, 2]
    assert all(np.array_equal(x, x1) for space, _, x in calls if space == S1)
    cols, rows = norms._block_layout(patch, S1.dim, nq)
    assert cols == len(x2) and rows < len(x1)  # one chunk, several blocks
    assert rows % nq == 0 and rows * len(x2) <= norms._BLOCK_POINTS


def test_identity_geometry_matches_parametric_norms():
    patch = unit_patch(4)
    u = manufactured("sinsin")
    Z = uniform_partition(4)
    S = UniSplineSpace(3, 1, Z)
    f = tensor_project_Q(TensorSplineSpace(S, S), u)
    table = physical_error_norms(patch, u, f, nq=10)
    # independent parametric quadrature of the L2 error on a dense grid
    xg, wg = np.polynomial.legendre.leggauss(8)
    z = np.linspace(0, 1, 33)
    a, b = z[:-1], z[1:]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b)[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    ref = float(np.sqrt(np.sum(W * (u(X, Y) - f(X, Y)) ** 2)))
    assert table.seminorms[0] == pytest.approx(ref, rel=1e-9)


def test_affine_area_oracle():
    # constant c over an affine 2x-stretched patch: L2 norm = |c| sqrt(det J)
    corners = np.array([[[0, 0], [0, 1]], [[2, 0], [2, 1]]], float)
    patch = Patch(BilinearMap(corners), (uniform_partition(4),) * 2)
    c = 0.7
    u = ScalarField2D(
        lambda x, y, a, b: np.full(np.broadcast_shapes(x.shape, y.shape),
                                   c if a == b == 0 else 0.0),
        max_order=3,
    )
    Z = uniform_partition(4)
    S = UniSplineSpace(3, 1, Z)
    zero = TensorSpline(TensorSplineSpace(S, S), np.zeros((S.dim, S.dim)))
    table = physical_error_norms(patch, u, zero)
    assert table.seminorms[0] == pytest.approx(c * np.sqrt(2.0), rel=1e-12)
    assert table.seminorms[1] <= 1e-12
    assert table.seminorms[2] <= 1e-12


def test_h1_h2_seminorms_on_affine_patch_against_sympy():
    # error field = u (f_h = 0) on an affine skewed patch: compare physical
    # seminorms against closed-form integrals over the parallelogram
    x, y = sym.symbols("x y")
    expr = x ** 2 * y + 0.5 * y ** 2
    corners = np.array([[[0, 0], [0.3, 1.0]], [[1.0, 0.1], [1.3, 1.1]]])
    patch = Patch(BilinearMap(corners), (uniform_partition(4),) * 2)
    u = oracles.sympy_field2d(expr, x, y)
    Z = uniform_partition(4)
    S = UniSplineSpace(3, 1, Z)
    zero = TensorSpline(TensorSplineSpace(S, S), np.zeros((S.dim, S.dim)))
    table = physical_error_norms(patch, u, zero)

    # map (s, t) in unit square to the parallelogram and integrate physically
    x1, x2 = sym.symbols("x1 x2")
    Gx = (1 - x1) * (1 - x2) * 0 + x1 * (1 - x2) * 1.0 + (1 - x1) * x2 * 0.3 \
        + x1 * x2 * 1.3
    Gy = (1 - x1) * (1 - x2) * 0 + x1 * (1 - x2) * 0.1 + (1 - x1) * x2 * 1.0 \
        + x1 * x2 * 1.1
    J = sym.Matrix([[sym.diff(Gx, x1), sym.diff(Gx, x2)],
                    [sym.diff(Gy, x1), sym.diff(Gy, x2)]])
    det = sym.simplify(J.det())
    for t, weight in ((0, expr ** 2),
                      (1, sym.diff(expr, x) ** 2 + sym.diff(expr, y) ** 2),
                      (2, sym.diff(expr, x, 2) ** 2
                       + 2 * sym.diff(expr, x, y) ** 2
                       + sym.diff(expr, y, 2) ** 2)):
        integrand = weight.subs({x: Gx, y: Gy}) * det
        ref = float(sym.sqrt(sym.integrate(sym.integrate(integrand, (x1, 0, 1)),
                                           (x2, 0, 1))))
        assert table.seminorms[t] == pytest.approx(ref, rel=1e-10), t


def test_quadrature_convergence():
    patch = unit_patch(4)
    u = manufactured("sinsin")
    Z = uniform_partition(4)
    S = UniSplineSpace(3, 1, Z)
    f = tensor_project_Q(TensorSplineSpace(S, S), u)
    t1 = physical_error_norms(patch, u, f)      # default p+4 rule
    t2 = physical_error_norms(patch, u, f, nq=14)
    for t in (0, 1, 2):
        assert abs(t1.seminorms[t] - t2.seminorms[t]) <= 1e-9 * t2.seminorms[t]


def test_bent_norm_additivity():
    a = ErrorTable({0: 3.0, 1: 4.0})
    b = ErrorTable({0: 4.0, 1: 3.0})
    c = combine_tables([a, b])
    assert c.seminorms[0] == pytest.approx(5.0)
    assert c.seminorms[1] == pytest.approx(5.0)
    assert c.norms[1] == pytest.approx(np.sqrt(50.0))


def test_norms_reject_folded_geometry():
    # strongly twisted quadrilateral: negative Jacobian in the interior
    corners = np.array([[[0, 0], [1.2, 0.1]], [[1, 0], [0.2, 1.0]]], float)
    patch = Patch(BilinearMap(corners), (uniform_partition(2),) * 2)
    u = manufactured("sinsin")
    Z = uniform_partition(2)
    S = UniSplineSpace(3, 1, Z)
    zero = TensorSpline(TensorSplineSpace(S, S), np.zeros((S.dim, S.dim)))
    with pytest.raises(ValueError):
        physical_error_norms(patch, u, zero)


def test_row_blocks_match_full_grid_quadrature():
    from test_integration import curved_interior_two_patch

    # nq = 9 puts 576 x 576 points on each patch, more than one block
    p, k, nq = 4, 2, 9
    rng = np.random.default_rng(2)
    for patch in curved_interior_two_patch(64).patches:
        x1, _ = gauss_rule(patch.partitions[0], nq)
        S = UniSplineSpace(p, k, patch.partitions[0])
        assert norms._block_layout(patch, S.dim, nq)[1] < len(x1)
        f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
        u = manufactured("sinsin")
        table = physical_error_norms(patch, u, f, nq=nq)
        want = oracles.full_grid_norms(patch, u, f, nq)
        for t in (0, 1, 2):
            assert table.seminorms[t] == pytest.approx(want[t], rel=1e-12), t


def _stretched_map(axis):
    """The spline map that takes x_axis to phi(x_axis), phi monotone and
    not affine, and keeps the other coordinate: det G depends on x_axis
    alone."""
    S = UniSplineSpace(2, 1, uniform_partition(2))
    g = greville_points(S)
    ctrl = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    phi = g + 0.4 * g * (1.0 - g)
    ctrl[..., axis] = phi[:, None] if axis == 0 else phi[None, :]
    return SplineMap(S, S, ctrl)


def _det_shape_maps():
    from test_integration import curved_interior_two_patch, single_patch_nurbs

    return {
        # kind: (map, the shape of det G on a grid of N1 x N2 points)
        "axis_aligned": (BilinearMap([[[0, 0], [0, 1.5]], [[2, 0], [2, 1.5]]]), "11"),
        "affine": (BilinearMap([[[0, 0], [0, 1]], [[2, 0.5], [2, 1.5]]]), "11"),
        "stretch_x1": (_stretched_map(0), "N1"),
        "stretch_x2": (_stretched_map(1), "1N"),
        # a bilinear d1 G depends on x2 and d2 G on x1, but d2 G_x is an
        # exact zero of this trapezoid, so det = d1 G_x d2 G_y varies along x1
        "trapezoid": (BilinearMap([[[0, 0], [0, 1]], [[1, -0.25], [1, 1.25]]]), "N1"),
        "skew": (builtin_geometry("two_patch_skew").patches[1].gmap, "N1"),
        "spline": (curved_interior_two_patch().patches[0].gmap, "NN"),
        "nurbs": (single_patch_nurbs().patches[0].gmap, "NN"),
    }


@pytest.mark.parametrize("kind", ["axis_aligned", "affine", "stretch_x1", "stretch_x2",
                                  "trapezoid", "skew", "spline", "nurbs"])
def test_blocked_norms_fold_det_for_each_of_its_shapes(kind):
    # det G enters the weights along the axes it depends on; blocked norms
    # over three blocks equal the quadrature with outer(w1, w2) * det on the
    # whole grid
    gmap, shape = _det_shape_maps()[kind]
    p, k, nq = 4, 2, 9
    Z = uniform_partition(32)
    patch = Patch(gmap, (Z, Z))
    x1, _ = gauss_rule(Z, nq)
    x2, _ = gauss_rule(Z, nq)
    det = det_on(gmap, x1[:, None], x2[None, :])
    N1, N2 = len(x1), len(x2)
    assert det.shape == {"11": (1, 1), "N1": (N1, 1), "1N": (1, N2),
                         "NN": (N1, N2)}[shape]
    assert np.max(np.abs(det - 1.0)) > 1e-3  # a norm without det differs
    S = UniSplineSpace(p, k, Z)
    assert len(x1) > 2 * norms._block_layout(patch, S.dim, nq)[1]
    rng = np.random.default_rng(12)
    f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
    u = manufactured("sinsin")
    table = physical_error_norms(patch, u, f, nq=nq)
    want = oracles.full_grid_norms(patch, u, f, nq)
    for t in (0, 1, 2):
        assert table.seminorms[t] == pytest.approx(want[t], rel=1e-12), t


@pytest.mark.parametrize("kind", ["three_patch_L", "skew", "trapezoid", "stretch_x1",
                                  "spline", "nurbs"])
def test_curved_maps_alone_take_smaller_blocks(kind):
    # bilinear maps, affine or not (every patch of three_patch_L, the right
    # patch of two_patch_skew, a trapezoid), and a spline map whose orders
    # each depend on one axis keep blocks of _BLOCK_POINTS points in the
    # norms and the data calls of their pullbacks; spline and NURBS maps
    # whose first orders depend on both axes take fewer
    from asg1kit.fields import _CURVED_CALL_POINTS
    from asg1kit.splines import _BLOCK_POINTS

    if kind == "three_patch_L":
        gmaps = [patch.gmap for patch in builtin_geometry(kind).patches]
    else:
        gmaps = [_det_shape_maps()[kind][0]]
    curved = kind in ("spline", "nurbs")
    nq, Z = 7, uniform_partition(32)
    S = UniSplineSpace(4, 2, Z)
    for gmap in gmaps:
        norm_points = norms._CURVED_BLOCK_POINTS if curved else _BLOCK_POINTS
        assert pullback(manufactured("sinsin"), gmap).block_points == \
            (_CURVED_CALL_POINTS if curved else _BLOCK_POINTS)
        cols, rows = norms._block_layout(Patch(gmap, (Z, Z)), S.dim, nq)
        assert cols == nq * 32 and rows == nq * (norm_points // (nq * cols))
    # a map without a dependence table keeps the full blocks
    assert block_points(object(), 1) == _BLOCK_POINTS


# affine maps with exactly representable corners, c11 = c10 + c01 - c00
_AFFINE = {
    "axis_aligned": [[[0, 0], [0, 1.5]], [[2, 0], [2, 1.5]]],
    "sheared": [[[0, 0], [0.25, 1]], [[2, 0.5], [2.25, 1.5]]],
    "rotated": [[[0, 0], [-0.5, 0.75]], [[0.75, 0.5], [0.25, 1.25]]],
}


@pytest.mark.parametrize("kind", sorted(_AFFINE))
def test_affine_norms_over_several_chunks_match_full_grid_quadrature(kind):
    # on an affine map the chain rule's coefficients and det G are numbers
    # of the patch; each block's x1 rows serve both x2 chunks
    gmap = BilinearMap(_AFFINE[kind])
    assert _affine_jet(gmap) is not None
    nq = 8
    Z1, Z2 = uniform_partition(64), uniform_partition(48)
    patch = Patch(gmap, (Z1, Z2))
    S1, S2 = UniSplineSpace(6, 0, Z1), UniSplineSpace(6, 0, Z2)
    x2, _ = gauss_rule(Z2, nq)
    assert S1.dim * len(x2) > norms._CHUNK_BLOCKS * norms._BLOCK_POINTS
    rng = np.random.default_rng(14)
    f = TensorSpline(TensorSplineSpace(S1, S2), rng.standard_normal((S1.dim, S2.dim)))
    u = manufactured("sinsin")
    table = physical_error_norms(patch, u, f, nq=nq)
    want = oracles.full_grid_norms(patch, u, f, nq)
    for t in (0, 1, 2):
        assert table.seminorms[t] == pytest.approx(want[t], rel=1e-12), t


@pytest.mark.parametrize("kind,affine", [
    ("axis_aligned", True), ("sheared", True), ("rotated", True),
    ("three_patch_L", True), ("two_patch_skew", True),  # their patch 0
    ("skew", False), ("trapezoid", False), ("spline", False), ("nurbs", False)])
def test_affine_blocks_take_no_map_jet_of_order_one_or_chain_rule(kind, affine,
                                                                  monkeypatch):
    # an affine block evaluates the map at its points alone: J^-1 and det G
    # are constants of the patch; every other block takes a jet of the six
    # orders and runs the per-point chain rule
    if kind in _AFFINE:
        gmap = BilinearMap(_AFFINE[kind])
    elif kind in BUILTIN_GEOMETRIES:
        gmap = builtin_geometry(kind).patches[0].gmap
    else:
        gmap = _det_shape_maps()[kind][0]
    assert (_affine_jet(gmap) is not None) == affine
    Z = uniform_partition(64)
    patch = Patch(gmap, (Z, Z))
    S = UniSplineSpace(4, 2, Z)
    rng = np.random.default_rng(15)
    f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
    jets, rules = [], []
    bind, rule = gmap.bind_x2, norms._chain_rule

    def counting_bind(x2, orders):
        block = bind(x2, orders)

        def jet(x1):
            jets.append(tuple(orders))
            return block(x1)

        return jet

    def counting_rule(*args):
        rules.append(args)
        return rule(*args)

    monkeypatch.setattr(gmap, "bind_x2", counting_bind)
    monkeypatch.setattr(norms, "_chain_rule", counting_rule)
    physical_error_norms(patch, manufactured("sinsin"), f)
    assert len(jets) > 1  # several blocks
    if affine:
        assert all(orders == ((0, 0),) for orders in jets)
        assert not rules
    else:
        assert all(set(orders) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
                   for orders in jets)
        assert len(rules) == len(jets)


@pytest.mark.parametrize("kind", ["axis_aligned", "sheared", "rotated", "three_patch_L",
                                  "skew", "trapezoid", "spline", "nurbs"])
def test_norms_equal_the_per_point_loop_bit_for_bit(kind):
    # f_h of p = 6, k = 4 on 128 x 128 elements, three x2 chunks: the affine
    # path folds the same constant det into the x2 weights and forms the
    # same chain-rule coefficients as the per-point path, and reused x1 rows
    # give the GEMMs of rows made per block
    if kind in _AFFINE:
        gmap = BilinearMap(_AFFINE[kind])
    elif kind == "three_patch_L":
        gmap = builtin_geometry(kind).patches[0].gmap
    else:
        gmap = _det_shape_maps()[kind][0]
    assert (_affine_jet(gmap) is None) == (kind in ("skew", "trapezoid", "spline", "nurbs"))
    Z = uniform_partition(128)
    patch = Patch(gmap, (Z, Z))
    S = UniSplineSpace(6, 4, Z)
    rng = np.random.default_rng(21)
    f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
    for field in ("sinsin", "expxy"):
        u = manufactured(field)
        got = physical_error_norms(patch, u, f, nq=10).seminorms
        assert [v.hex() for v in got.values()] == \
            [v.hex() for v in oracles.per_point_norms(patch, u, f, 10)], field


@pytest.mark.parametrize("kind", ["three_patch_L", "spline", "nurbs"])
def test_norms_write_into_no_target_or_geometry_jet(kind, monkeypatch):
    # caches share the arrays of target and geometry jets (a map's bound
    # rows, the sines of sinsin): made read-only, any write into them raises
    def frozen(v):
        v.flags.writeable = False
        return v

    if kind == "three_patch_L":
        patch = builtin_geometry(kind, 16).patches[0]
    else:
        Z = uniform_partition(16)
        patch = Patch(_det_shape_maps()[kind][0], (Z, Z))
    gmap = patch.gmap
    bind = gmap.bind_x2

    def frozen_bind(x2, orders):
        block = bind(x2, orders)

        def jet(x1):
            out = block(x1)
            for comps in out.values():
                for v in comps:
                    frozen(v)
            return out

        return jet

    S = UniSplineSpace(4, 2, patch.partitions[0])
    T = UniSplineSpace(4, 2, patch.partitions[1])
    rng = np.random.default_rng(13)
    f = TensorSpline(TensorSplineSpace(S, T), rng.standard_normal((S.dim, T.dim)))
    sinsin = manufactured("sinsin")
    want = physical_error_norms(patch, sinsin, f)
    monkeypatch.setattr(gmap, "bind_x2", frozen_bind)
    u = ScalarField2D(lambda x, y, a, b: frozen(sinsin(x, y, a, b)), max_order=8)
    got = physical_error_norms(patch, u, f)
    assert got.seminorms == want.seminorms


def test_element_row_above_block_size_matches_full_grid_quadrature():
    from test_integration import curved_interior_two_patch

    # one x1 element row of 12 x 3072 points exceeds the block size, so each
    # block is a single element row
    nq = 12
    Z1, Z2 = uniform_partition(2), uniform_partition(256)
    patch = Patch(curved_interior_two_patch().patches[0].gmap, (Z1, Z2))
    x2, _ = gauss_rule(Z2, nq)
    S1, S2 = UniSplineSpace(4, 2, Z1), UniSplineSpace(4, 2, Z2)
    assert norms._block_layout(patch, S1.dim, nq) == (len(x2), nq)
    assert nq * len(x2) > block_points(patch.gmap, norms._CURVED_BLOCK_POINTS)
    rng = np.random.default_rng(4)
    f = TensorSpline(TensorSplineSpace(S1, S2), rng.standard_normal((S1.dim, S2.dim)))
    u = manufactured("sinsin")
    table = physical_error_norms(patch, u, f, nq=nq)
    want = oracles.full_grid_norms(patch, u, f, nq)
    for t in (0, 1, 2):
        assert table.seminorms[t] == pytest.approx(want[t], rel=1e-12), t


def test_observed_order():
    assert observed_order(0.16, 0.01) == pytest.approx(4.0)
    assert observed_order(1e-3, 1.25e-4) == pytest.approx(3.0)
    assert observed_order(0.5, 0.5) == pytest.approx(0.0)
    assert observed_order(0.0, 0.1) is None
    assert observed_order(0.1, 0.0) is None


@pytest.mark.parametrize("name", ["three_patch_L", "two_patch_skew"])
def test_inverse_chain_rule_drops_exact_zero_jacobian_entries(name):
    # on an axis-aligned patch d2 G_x and d1 G_y are exact zeros, so the
    # J^-1 entries b12 and b21 and every term they multiply are dropped;
    # the gradient and Hessian are those of the full rule, bit for bit
    from test_tensor import random_tensor_spline

    patch = builtin_geometry(name).patches[-1]
    zeros = patch.gmap.zeros
    if name == "three_patch_L":
        assert {((1, 0), 1), ((0, 1), 0)} <= zeros
    else:  # the skew patch: d2 G_x and d12 G_x
        assert zeros == {((0, 1), 0), ((1, 1), 0)}
    s = np.linspace(0.05, 0.95, 6)
    x1, x2 = s[:, None], s[None, :]
    orders = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    jet = patch.gmap.jet(x1, x2, 2, 2)
    V = TensorSplineSpace(*(UniSplineSpace(4, 2, z) for z in patch.partitions))
    f = random_tensor_spline(V).jet(x1, x2, orders)
    grad, hess = (f[1, 0], f[0, 1]), [f[ab] for ab in orders[2:]]
    det = jacobian_det(jet, zeros)
    got = norms.inverse_chain_rule(jet, zeros, det, grad, hess)
    want = norms.inverse_chain_rule(jet, frozenset(), det, grad, hess)
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert np.array_equal(np.broadcast_to(g, (6, 6)), np.broadcast_to(w, (6, 6)))
    if name == "three_patch_L":
        # a NaN in d2 f and d12 f reaches gx and hxx, hyy only through a
        # product with b21 or b12 (0 * nan is nan), so only when not dropped
        nan = np.full((6, 6), np.nan)
        for z, finite in ((zeros, True), (frozenset(), False)):
            (gx, _), (hxx, _, hyy) = norms.inverse_chain_rule(
                jet, z, det, (grad[0], nan), [hess[0], nan, hess[2]])
            assert all(np.isfinite(v).all() == finite for v in (gx, hxx, hyy))


@pytest.mark.parametrize("kind", ["axis_aligned", "skew", "spline", "nurbs"])
def test_chain_rule_writes_no_jet_or_caller_array(kind):
    # the norms' chain rule writes its derivatives into the block's own
    # orders of f_h; the public rule runs it on copies, so it leaves every
    # argument as it was (a cached geometry jet included) and gives the same
    # bits.  On an axis-aligned patch each order feeds one derivative, so
    # every derivative is written into the order it comes from
    from test_tensor import random_tensor_spline

    gmap = _det_shape_maps()[kind][0]
    Z = uniform_partition(4)
    s = np.linspace(0.05, 0.95, 6)
    x1, x2 = s[:, None], s[None, :]
    jet = gmap.jet(x1, x2, 2, 2)
    det = jacobian_det(jet, gmap.zeros)
    orders = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    S = UniSplineSpace(4, 2, Z)
    f = random_tensor_spline(TensorSplineSpace(S, S)).jet(x1, x2, orders)
    grad, hess = (f[1, 0], f[0, 1]), [f[ab] for ab in orders[2:]]

    def arrays():
        return [v for comps in jet.values() for v in comps] + list(grad) + hess

    before = [v.copy() for v in arrays()]
    got = norms.inverse_chain_rule(jet, gmap.zeros, det, grad, hess)
    assert all(np.array_equal(a, b) for a, b in zip(arrays(), before))
    owned = [v.copy() for v in grad], [v.copy() for v in hess]
    inplace = norms._chain_rule(jet, gmap.zeros, det, *owned)
    assert all(np.array_equal(a, b) for a, b in zip(arrays(), before))
    for g, w in zip(got[0] + got[1], inplace[0] + inplace[1]):
        assert np.array_equal(g, w)
    if kind == "axis_aligned":
        assert all(any(v is o for o in owned[0] + owned[1])
                   for v in inplace[0] + inplace[1])


def test_chunk_binding_allocates_no_dense_x2_rows():
    # one chunk of the norms of p = 6, k = 4 on 128 elements with nq = 10:
    # m = 43 x2 elements, N2 = 430 points.  Binding it keeps three x2 orders
    # of f_h, dim x N2 doubles each, and makes per order the bands of the
    # points (p + 1 values, the band start and the memo's key per point) and
    # their transposed copy (p + 1 values per point), and once the p + 1
    # coefficient columns of each element (dim x m x (p + 1)); with 64 KB for
    # Python objects that bounds the peak below what one dense (N2 x dim)
    # array of basis rows, with the bands, would add to the kept orders
    import tracemalloc

    patch = builtin_geometry("three_patch_L", 128).patches[0]
    S = UniSplineSpace(6, 4, patch.partitions[0])
    rng = np.random.default_rng(8)
    f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
    x2 = gauss_rule(patch.partitions[1], 10)[0][:430]
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    tracemalloc.start()
    try:
        tensor_bind_x2((S, S), f.coefficients, x2, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    p, N2, m = S.degree, len(x2), 43
    kept = 3 * S.dim * N2 * 8
    bands = 3 * N2 * (p + 3) * 8
    made = bands + 3 * N2 * (p + 1) * 8 + S.dim * m * (p + 1) * 8 + 65536
    assert peak <= kept + made, (peak, kept)
    assert made < bands + N2 * S.dim * 8


def test_chunked_norms_peak_below_whole_row_bindings():
    # p = 6, k = 4 on 128 elements and nq = 10 nodes: f_h bound on the whole
    # x2 axis takes three orders of dim x 1280 doubles (8.0 MB); in chunks of
    # whole x2 elements the bindings and a block's arrays stay below that
    import tracemalloc

    patch = builtin_geometry("three_patch_L", 128).patches[0]
    S = UniSplineSpace(6, 4, patch.partitions[0])
    rng = np.random.default_rng(8)
    f = TensorSpline(TensorSplineSpace(S, S), rng.standard_normal((S.dim, S.dim)))
    u = manufactured("sinsin")
    nq = 10
    x1, w1 = gauss_rule(patch.partitions[0], nq)
    x2, w2 = gauss_rule(patch.partitions[1], nq)
    tracemalloc.start()
    try:
        got = physical_error_norms(patch, u, f, nq=nq).seminorms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * S.dim * len(x2) * 8, peak

    # the unstreamed sums: the whole x2 axis bound once, blocks of whole x1
    # elements of at most _BLOCK_POINTS points
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    fjet = tensor_bind_x2((S, S), f.coefficients, x2, orders)
    gjet = patch.gmap.bind_x2(x2, orders)
    rows = nq * max(1, norms._BLOCK_POINTS // (nq * len(x2)))
    sums = sum(np.array(norms._squared_errors(
        gjet, patch.gmap.zeros, u, fjet(x1[i:i + rows]), x1[i:i + rows], x2,
        w1[i:i + rows], w2))
        for i in range(0, len(x1), rows))
    want = np.sqrt(sums)
    # On the identity patch (area 1) every chain-rule factor is an exact 1,
    # so the two sides differ by (a) the evaluation of f's orders, each side
    # within gamma_(2p+2) max|c| S_a S_b of the exact value, S_d the largest
    # sum of |B^(d)| over the basis at a node (p + 1 nonzero terms per axis),
    # (b) the target at mapped points, each coordinate within gamma_4 of the
    # node on each side, times |d u^(a, b)| <= pi^(t+1) per coordinate, and
    # (c) the order of the weighted sums, within gamma_K of each square, K
    # below 3 (len(x1) + len(x2)); the norm's triangle inequality adds them
    u_r = np.finfo(float).eps / 2

    def gamma(n):
        return n * u_r / (1 - n * u_r)

    p = S.degree
    sums_abs = [np.abs(eval_operator(S, x1, d)).sum(axis=1).max() for d in range(3)]
    cmax = np.abs(f.coefficients).max()
    for t, ab in enumerate(([(0, 0)], [(1, 0), (0, 1)], [(2, 0), (1, 1), (1, 1), (0, 2)])):
        approx = 2 * gamma(2 * p + 2) * cmax * np.sqrt(
            sum((sums_abs[a] * sums_abs[b]) ** 2 for a, b in ab))
        target = 2 * np.pi ** (t + 1) * 2 * gamma(4) * np.sqrt(len(ab))
        bound = approx + target + gamma(3 * (len(x1) + len(x2))) * want[t]
        assert abs(got[t] - want[t]) <= bound, (t, got[t], want[t], bound)
