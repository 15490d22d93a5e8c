import numpy as np
import pytest

from asg1kit.fields import ScalarField2D, manufactured
from asg1kit.splines import UniSpline, UniSplineSpace, uniform_partition
from asg1kit.tensor import (
    TensorSpline,
    TensorSplineSpace,
    as_field,
    data_matrix,
    normal_derivative_trace,
    tensor_project,
    tensor_project_Q,
    trace,
)

import oracles
from test_ritz1d import ritz_project


def tensor_space(p, k, n):
    S = UniSplineSpace(p, k, uniform_partition(n))
    return TensorSplineSpace(S, S)


def random_tensor_spline(space, seed=0):
    rng = np.random.default_rng(seed)
    return TensorSpline(space, rng.standard_normal(space.shape))


# -- evaluation -------------------------------------------------------------------

def test_eval_constant():
    V = tensor_space(3, 1, 3)
    one = TensorSpline(V, np.ones(V.shape))
    X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
    assert np.max(np.abs(one(X, Y) - 1.0)) <= 1e-13


def test_eval_mixed_derivative_of_bilinear():
    V = tensor_space(2, 1, 2)
    # coefficients of xi1 * xi2: outer product of the 1D coefficient vectors
    S = V.space1
    from asg1kit.splines import greville_points

    lin = greville_points(S)  # the coefficients of xi, by Marsden's identity
    f = TensorSpline(V, np.outer(lin, lin))
    X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    assert np.max(np.abs(f(X, Y, 1, 1) - 1.0)) <= 1e-12
    assert np.max(np.abs(f(X, Y) - X * Y)) <= 1e-13


def kronecker_rows(space, z, d):
    """Basis rows of ``space`` at ``z``, one scipy spline per basis function."""
    from scipy.interpolate import BSpline
    from asg1kit.splines import knot_vector

    t = knot_vector(space)
    return np.stack([BSpline(t, np.eye(space.dim)[i], space.degree,
                             extrapolate=False)(z, nu=d)
                     for i in range(space.dim)], axis=-1)


def test_eval_matches_kronecker_oracle():
    # independent evaluation through scipy, one basis function at a time, of
    # every order up to degree + 1 at scattered points, at broadcast pairs
    # and on a column/row grid; a multi-order jet equals one-order calls
    from asg1kit.tensor import eval_tensor_grid

    V = tensor_space(3, 1, 3)
    f = random_tensor_spline(V, seed=5)

    def rows(z, d):
        return kronecker_rows(V.space1, z, d)

    rng = np.random.default_rng(6)
    s1 = np.linspace(0.0, 1.0, 7)
    s2 = np.array([0.0, 0.2, 0.5, 1.0])
    cases = [(rng.random(100), rng.random(100)),
             (s1[:, None], s2), (np.asarray(0.3), s2),
             (s1[:, None], s2[None, :])]
    orders = [(a, b) for a in range(5) for b in range(5)]
    for x1, x2 in cases:
        X1, X2 = np.broadcast_arrays(x1, x2)
        jet = f.jet(x1, x2, orders)
        for a, b in orders:
            want = np.sum((rows(X1.ravel(), a) @ f.coefficients)
                          * rows(X2.ravel(), b), axis=1).reshape(X1.shape)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert jet[a, b].shape == X1.shape
            assert np.max(np.abs(jet[a, b] - want)) <= 1e-12 * scale, (a, b)
            assert np.array_equal(jet[a, b], f(x1, x2, a, b)), (a, b)
            if max(a, b) > 3:
                assert np.all(jet[a, b] == 0.0)
    grid = f.jet(s1[:, None], s2[None, :], orders)
    for a, b in orders:
        assert np.array_equal(grid[a, b], eval_tensor_grid(f, s1, s2, a, b))


def test_blocked_band_contraction_matches_kronecker_oracle():
    # x2 bound once, then x1 in blocks that start and end inside elements;
    # x1 holds every breakpoint (right limits) and x = 1, the partition is
    # non-uniform and the coefficient grid has two components, as for a map;
    # the same points paired up are the scattered input of `tensor_jet`
    from asg1kit.splines import Partition, tensor_bind_x2, tensor_jet

    Z = Partition((0.0, 0.1, 0.25, 0.6, 0.7, 1.0))
    S1 = UniSplineSpace(4, 2, Z)
    S2 = UniSplineSpace(3, 1, Partition((0.0, 0.3, 0.45, 1.0)))
    rng = np.random.default_rng(9)
    coef = rng.standard_normal((S1.dim, S2.dim, 2))
    x1 = np.sort(np.concatenate((Z.breakpoints, rng.random(25))))
    x2 = np.sort(np.concatenate(((0.0, 0.3, 0.45, 1.0), rng.random(7))))
    orders = [(a, b) for a in range(6) for b in range(5)]
    bound = tensor_bind_x2((S1, S2), coef, x2, orders)
    cuts = [0, 1, 4, 5, 13, 14, 22, len(x1) - 1, len(x1)]
    for lo, hi in zip(cuts, cuts[1:]):
        block = x1[lo:hi]
        jet = bound(block)
        assert set(jet) == {(a, b) for a, b in orders if a <= 4 and b <= 3}
        for (a, b), got in jet.items():
            assert got.shape == (len(block), len(x2), 2)
            assert got[..., 1].strides[-1] == got.itemsize
            for c in range(2):
                want = (kronecker_rows(S1, block, a) @ coef[..., c]
                        @ kronecker_rows(S2, x2, b).T)
                scale = float(np.max(np.abs(want)))
                assert np.max(np.abs(got[..., c] - want)) <= 1e-14 * scale, \
                    (lo, a, b, c)
    y2 = rng.permutation(np.resize(x2, len(x1)))
    jet = tensor_jet((S1, S2), coef, x1, y2, orders)
    assert set(jet) == {(a, b) for a, b in orders if a <= 4 and b <= 3}
    for (a, b), got in jet.items():
        assert got.shape == (len(x1), 2)
        for c in range(2):
            want = np.einsum("ni,ij,nj->n", kronecker_rows(S1, x1, a), coef[..., c],
                             kronecker_rows(S2, y2, b))
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got[:, c] - want)) <= 1e-14 * scale, (a, b, c)


def test_band_contraction_keeps_empty_and_zero_dimensional_shapes():
    # an empty grid block, an empty scattered set and 0-d points have the
    # shapes of the points followed by the components
    from asg1kit.splines import tensor_bind_x2, tensor_jet

    S = UniSplineSpace(3, 1, uniform_partition(4))
    coef = np.random.default_rng(2).standard_normal((S.dim, S.dim, 2))
    orders = [(0, 0), (1, 2), (3, 0)]
    x2 = np.linspace(0.0, 1.0, 5)
    for ab, v in tensor_bind_x2((S, S), coef, x2, orders)(np.empty(0)).items():
        assert v.shape == (0, 5, 2), ab
    for ab, v in tensor_jet((S, S), coef, np.empty(0), np.empty(0), orders).items():
        assert v.shape == (0, 2), ab
    point = tensor_jet((S, S), coef, 0.25, 0.6, orders)
    grid = tensor_bind_x2((S, S), coef, [0.6], orders)([0.25])
    for ab in orders:
        assert point[ab].shape == (2,)
        assert np.allclose(point[ab], grid[ab][0, 0], rtol=1e-14, atol=0.0), ab
    f = TensorSpline(TensorSplineSpace(S, S), coef[..., 0])
    assert isinstance(f(0.25, 0.6, 1, 2), float)


# -- traces -----------------------------------------------------------------------

def test_trace_extracts_boundary_rows():
    V = tensor_space(3, 1, 3)
    S = V.space1
    from asg1kit.splines import greville_points

    lin = greville_points(S)  # the coefficients of xi, by Marsden's identity
    # f = xi2: zero trace on side 1, one on side 3
    f = TensorSpline(V, np.outer(np.ones(S.dim), lin))
    assert np.max(np.abs(trace(f, 1).coefficients)) <= 1e-13
    x = np.linspace(0, 1, 21)
    assert np.max(np.abs(trace(f, 3)(x) - 1.0)) <= 1e-13
    # f = xi1: side 2 trace is the constant 1
    g = TensorSpline(V, np.outer(lin, np.ones(S.dim)))
    assert np.max(np.abs(trace(g, 2)(x) - 1.0)) <= 1e-13


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_trace_matches_eval(j):
    V = tensor_space(4, 2, 3)
    f = random_tensor_spline(V, seed=j)
    t = np.linspace(0, 1, 50)
    from asg1kit.geometry import edge_coords

    x, y = edge_coords(j, t)
    assert np.max(np.abs(trace(f, j)(t) - f(x, y))) <= 1e-13


def test_normal_derivative_trace_examples():
    V = tensor_space(3, 1, 3)
    S = V.space1
    from asg1kit.splines import greville_points

    lin = greville_points(S)  # the coefficients of xi, by Marsden's identity
    f = TensorSpline(V, np.outer(np.ones(S.dim), lin))  # xi2
    x = np.linspace(0, 1, 21)
    assert np.max(np.abs(normal_derivative_trace(f, 1)(x) + 1.0)) <= 1e-13
    quad = oracles.greville_interpolant(S, lambda x: x ** 2)
    g = TensorSpline(V, np.outer(np.ones(S.dim), quad.coefficients))  # xi2^2
    assert np.max(np.abs(normal_derivative_trace(g, 3)(x) - 2.0)) <= 1e-12


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_normal_derivative_trace_matches_eval(j):
    from asg1kit.geometry import NORMALS, edge_coords

    V = tensor_space(4, 2, 3)
    f = random_tensor_spline(V, seed=10 + j)
    t = np.linspace(0, 1, 50)
    x, y = edge_coords(j, t)
    n = NORMALS[j]
    want = n[0] * f(x, y, 1, 0) + n[1] * f(x, y, 0, 1)
    assert np.max(np.abs(normal_derivative_trace(f, j)(t) - want)) <= 1e-12


# -- tensor projector -------------------------------------------------------------------

def test_tensor_project_reproduces_random_spline():
    V = tensor_space(3, 1, 4)
    f = random_tensor_spline(V, seed=2)
    Q = tensor_project_Q(V, as_field(f))
    assert np.max(np.abs(Q.coefficients - f.coefficients)) <= 1e-11


def test_tensor_project_reproduces_high_degree_polynomial():
    from math import factorial

    p = 3
    V = tensor_space(p, 1, 3)
    u = ScalarField2D(
        lambda x, y, a, b: (
            (factorial(p) / factorial(p - a) * x ** (p - a)
             if a <= p else 0.0 * x)
            * (factorial(p) / factorial(p - b) * y ** (p - b)
               if b <= p else 0.0 * y)
        ),
        max_order=4,
    )
    Q = tensor_project_Q(V, u)
    X, Y = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    assert np.max(np.abs(Q(X, Y) - X ** p * Y ** p)) <= 1e-12


def test_commuting_identity():
    # on 40 elements the Gauss rows of the data come in two slabs
    for p, k, n in ((3, 1, 5), (4, 2, 40)):
        V = tensor_space(p, k, n)
        u = manufactured("expxy")
        a = tensor_project(V, u, order="21")
        b = tensor_project(V, u, order="12")
        scale = np.max(np.abs(a.coefficients))
        assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-11 * scale, n


def test_corner_interpolation():
    V = tensor_space(3, 1, 5)
    u = manufactured("sinsin")
    Q = tensor_project_Q(V, u)
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    for cx, cy in corners:
        for s in (0, 1):
            for t in (0, 1):
                got = Q(np.asarray(cx), np.asarray(cy), s, t)
                want = float(u(np.asarray(cx), np.asarray(cy), s, t))
                assert abs(got - want) <= 1e-10, (cx, cy, s, t)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_edge_commuting(j):
    from asg1kit.fields import ScalarField1D
    from oracles import restrict_to_edge
    from asg1kit.geometry import NORMALS, edge_coords

    V = tensor_space(3, 1, 4)
    u = manufactured("sinsin")
    Q = tensor_project_Q(V, u)
    t = np.linspace(0, 1, 50)
    side_space = V.side_space(j)

    # trace of Q u equals the univariate projection of the trace
    tr = ritz_project(side_space, 2, restrict_to_edge(u, j))
    assert np.max(np.abs(trace(Q, j)(t) - tr(t))) <= 1e-10

    # normal derivative trace equals the directional projection of n . grad u
    n = NORMALS[j]

    def ndu(x, d):
        ex, ey = edge_coords(j, x)
        if j in (1, 3):
            return n[1] * u(ex, ey, d, 1)
        return n[0] * u(ex, ey, 1, d)

    ndproj = ritz_project(side_space, 2, ScalarField1D(ndu, max_order=3))
    assert np.max(np.abs(normal_derivative_trace(Q, j)(t) - ndproj(t))) <= 1e-10


def test_anisotropic_rate_l2():
    u = manufactured("sinsin")
    errs = []
    for n in (4, 8, 16):
        V = tensor_space(3, 1, n)
        Q = tensor_project_Q(V, u)
        xg, wg = np.polynomial.legendre.leggauss(6)
        z = np.linspace(0, 1, n + 1)
        a, b = z[:-1], z[1:]
        half = 0.5 * (b - a)
        x = (0.5 * (a + b)[:, None] + half[:, None] * xg[None, :]).ravel()
        w = (half[:, None] * wg[None, :]).ravel()
        X, Y = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        diff = u(X, Y) - Q(X, Y)
        errs.append(float(np.sqrt(np.sum(W * diff ** 2))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.7 <= o <= 4.3 for o in orders), orders


@pytest.mark.parametrize("order", ["21", "12"])
@pytest.mark.parametrize("p", range(3, 9))
def test_tensor_project_matches_dense_matrices(p, order):
    # C against M1 D M2^T of the dense order-2 Ritz matrices (`oracles`) on
    # 48 uniform by 16 graded elements; from p = 5 the xi1 Gauss rows come
    # in slabs that end inside elements.  The round-off bound of
    # `test_ritz1d.test_factored_projectors_match_dense_matrices`, one term
    # per direction: 2 (gamma_N1 kappa(G1) + gamma_N2 kappa(G2))
    # max(|M1| |D| |M2|^T), with G the base Gram matrices
    from asg1kit.ritz1d import ritz_functionals
    from asg1kit.splines import Partition
    from test_ritz1d import _gram

    Z2 = Partition(tuple(float(t) for t in (np.arange(17) / 16) ** 2))
    S1 = UniSplineSpace(p, p - 2, uniform_partition(48))
    S2 = UniSplineSpace(p, 1, Z2)
    f1, f2 = ritz_functionals(S1, 2), ritz_functionals(S2, 2)
    M1, M2 = oracles.ritz_matrix(S1, 2, p + 2), oracles.ritz_matrix(S2, 2, p + 2)
    u = manufactured("expxy")
    D = np.concatenate(list(data_matrix(u, f1, f2)))
    C = tensor_project(TensorSplineSpace(S1, S2), u, order=order).coefficients
    eps = np.finfo(float).eps / 2
    bound = 2 * sum(len(f.points) * eps / (1 - len(f.points) * eps)
                    * np.linalg.cond(_gram(f.base, p + 2), np.inf) for f in (f1, f2))
    bound *= np.max(np.abs(M1) @ np.abs(D) @ np.abs(M2).T)
    assert np.max(np.abs(C - M1 @ D @ M2.T)) <= bound


def test_data_matrix_orders_and_points():
    V = tensor_space(3, 1, 2)
    from asg1kit.ritz1d import ritz_functionals

    f1 = ritz_functionals(V.space1, 2)
    f2 = ritz_functionals(V.space2, 2)
    u = manufactured("expxy")
    slabs = list(data_matrix(u, f1, f2))
    # the two endpoint rows, then the Gauss rows in one slab of whole rows
    assert [D.shape for D in slabs] == [(1, len(f2.points))] * 2 + [
        (len(f1.points) - 2, len(f2.points))]
    D = np.concatenate(slabs)
    # entry (0, 0): value at (0, 0); entry (1, 1): d1 d2 u at (0, 0)
    assert D[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert D[1, 1] == pytest.approx(2.0, abs=1e-14)


def _full_grid_data(u, f1, f2):
    """The data matrix with every order block evaluated in one call."""
    o1, o2 = np.asarray(f1.orders), np.asarray(f2.orders)
    x, y = np.asarray(f1.points), np.asarray(f2.points)
    D = np.empty((len(x), len(y)))
    for da in set(f1.orders):
        for db in set(f2.orders):
            ia, ib = np.flatnonzero(o1 == da), np.flatnonzero(o2 == db)
            D[np.ix_(ia, ib)] = u(x[ia][:, None], y[ib][None, :], da, db)
    return D


@pytest.mark.parametrize("kind", ["bilinear", "spline", "nurbs", "tensor_spline"])
def test_data_matrix_row_blocks_match_full_grid_data(kind):
    from asg1kit.fields import _CURVED_CALL_POINTS, pullback
    from asg1kit.ritz1d import ritz_functionals
    from asg1kit.splines import _BLOCK_POINTS, Partition
    from asg1kit.tensor import _SLAB_ROWS
    from test_geometry import _jet_maps

    # 40 graded elements, 8 Gauss nodes each: the (2, 2) block is 320 x 320
    # points, more than three blocks of the field's calls and a remainder:
    # blocks of 102 rows and one of 14 at 2^15 points (the bilinear map and
    # the tensor spline), of 25 rows and one of 20 at 2^13 (the pullbacks by
    # the curved spline and NURBS maps)
    Z = Partition(tuple(float(t) for t in (np.arange(41) / 40) ** 1.5))
    S = UniSplineSpace(4, 2, Z)
    f = ritz_functionals(S, 2, 8)
    gauss = f.orders.count(2)
    if kind == "tensor_spline":
        space = TensorSplineSpace(S, S)
        u = as_field(TensorSpline(space, random_tensor_spline(space).coefficients))
    else:
        u = pullback(manufactured("sinsin"), _jet_maps()[kind])
    points = u.block_points
    assert points == (_CURVED_CALL_POINTS if kind in ("spline", "nurbs") else _BLOCK_POINTS)
    per_call = points // gauss
    assert gauss ** 2 > 3 * points and gauss % per_call
    calls = []

    def recorded(x, y, a, b):
        calls.append(((a, b), x.size, np.broadcast_shapes(x.shape, y.shape)))
        return u(x, y, a, b)

    field = ScalarField2D(recorded, max_order=u.max_order)
    field.block_points = points
    slabs = list(data_matrix(field, f, f))
    assert np.array_equal(np.concatenate(slabs), _full_grid_data(u, f, f))
    for ab, rows, shape in calls:
        assert rows == 1 or np.prod(shape) <= points, (ab, shape)
    # each order block is covered once, the (2, 2) block in row blocks of
    # the field's calls
    assert [rows for ab, rows, _ in calls if ab == (2, 2)] == \
        [per_call] * (gauss // per_call) + [gauss % per_call]
    # the endpoint rows, then the Gauss rows in slabs of whole row blocks of
    # at least _SLAB_ROWS rows: D is never whole
    step = per_call * -(-_SLAB_ROWS // per_call)
    assert [len(D) for D in slabs] == \
        [1, 1] + [min(step, gauss - lo) for lo in range(0, gauss, step)]
    assert len({ab for ab, _, _ in calls}) == 9


def test_data_matrix_binds_each_geometry_row_once():
    # the row blocks of one order pair share a binding of the map's x2 row;
    # the memo of bindings keeps the eight most recent ones
    from asg1kit.fields import pullback
    from asg1kit.geometry import _TensorProductMap, builtin_geometry
    from asg1kit.ritz1d import ritz_functionals
    from asg1kit.splines import Partition

    gmap = builtin_geometry("three_patch_L").patches[1].gmap
    bind = gmap.bind_x2
    binds = []

    def counted(x2, orders):
        binds.append((np.asarray(x2).tobytes(), orders))
        return bind(x2, orders)

    gmap.bind_x2 = counted
    Z = Partition(tuple(float(t) for t in (np.arange(41) / 40) ** 1.5))
    f = ritz_functionals(UniSplineSpace(4, 2, Z), 2, 8)
    u = pullback(manufactured("sinsin"), gmap)
    calls = []

    def recorded(x, y, a, b):
        calls.append((a, b))
        return u(x, y, a, b)

    for _ in data_matrix(ScalarField2D(recorded, max_order=u.max_order), f, f):
        pass
    assert len(calls) > 9  # the (2, *) pairs take several row blocks
    # one binding per (row, orders): the order pairs (a, b) and (max(a, 1),
    # max(b, 1)) read the same jet orders
    assert len(binds) == len(set(binds)) <= 9
    binds.clear()
    rows = np.linspace(0.0, 1.0, 20)[:, None] * np.linspace(0.1, 1.0, 5)[None, :]
    for row in rows:
        gmap.jet(np.zeros((3, 1)), row[None, :], 1, 1)
    assert len(binds) == 20
    info = _TensorProductMap._bound_x2.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8
    gmap.jet(np.zeros((3, 1)), rows[0][None, :], 1, 1)  # evicted: bound again
    gmap.jet(np.zeros((3, 1)), rows[-1][None, :], 1, 1)  # kept
    assert len(binds) == 21


def test_streamed_projection_peaks_below_one_data_matrix():
    # p = 6, k = 4 on 128 elements: N = 2 + 128 * 8 data points per axis, so
    # one whole data matrix takes N^2 doubles (8.4 MB); the slabs, E = D M^T
    # (N x dim) and C (dim x dim) stay far below that
    import tracemalloc

    from asg1kit.fields import pullback
    from asg1kit.geometry import builtin_geometry
    from asg1kit.ritz1d import ritz_functionals

    patch = builtin_geometry("three_patch_L", 128).patches[0]
    S = UniSplineSpace(6, 4, patch.partitions[0])
    assert patch.partitions[1] == S.partition
    f = ritz_functionals(S, 2, None)  # built and cached before the measurement
    N, M = len(f.points), f.matrix
    u = pullback(manufactured("sinsin"), patch.gmap)
    tracemalloc.start()
    try:
        C = tensor_project_Q(TensorSplineSpace(S, S), u).coefficients
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * N * 8, peak
    # the unstreamed C = M (D M^T) of the whole data matrix: each side's two
    # products of N summands per entry are within 2 gamma_N |M| |D| |M|^T of
    # the exact ones, gamma_N = N u / (1 - N u) with u = eps / 2
    D = np.concatenate(list(data_matrix(u, f, f)))
    u_r = np.finfo(float).eps / 2
    gamma = N * u_r / (1 - N * u_r)
    bound = 4 * gamma * (np.abs(M) @ (np.abs(D) @ np.abs(M).T))
    assert np.all(np.abs(C - M @ (D @ M.T)) <= bound)
