"""Independent reference routines used as test oracles.

Everything here is implemented from first principles (repeated knot
insertion, de Casteljau evaluation, dense quadrature) so the checks do not
share code paths with the library under test.  The exception is
`check_conformity_per_side`, the conformity report evaluated side by side
and corner by corner from the library's jets: it pins the points and the
arithmetic of the report, not its evaluation.  `full_grid_norms` likewise
evaluates the approximation and the map through the library, on the whole
quadrature grid, but forms the physical derivatives, the weights and the
sums on its own.  `per_point_norms` is the blocked loop of the error norms
with every map on the per-point path: it pins the bits of the affine path
and of the reuse of x1 rows, not the chain rule.
"""

import numpy as np


def open_knots(p, k, breakpoints):
    interior = np.repeat(np.asarray(breakpoints)[1:-1], p - k)
    return np.concatenate((np.zeros(p + 1), interior, np.ones(p + 1)))


def insert_knot(t, c, p, x):
    """One Boehm insertion step."""
    t = np.asarray(t, float)
    c = np.asarray(c, float)
    span = int(np.searchsorted(t, x, side="right") - 1)
    out = np.empty(c.size + 1)
    out[:span - p + 1] = c[:span - p + 1]
    for i in range(span - p + 1, span + 1):
        a = (x - t[i]) / (t[i + p] - t[i])
        out[i] = (1 - a) * c[i - 1] + a * c[i]
    out[span + 1:] = c[span:]
    return np.insert(t, span + 1, x), out


def bezier_extract(p, k, breakpoints, coeffs):
    """Bernstein coefficients per element through repeated knot insertion."""
    t = open_knots(p, k, breakpoints)
    c = np.asarray(coeffs, float)
    for z in breakpoints[1:-1]:
        mult = int(np.sum(np.isclose(t, z)))
        for _ in range(p - mult):
            t, c = insert_knot(t, c, p, z)
    n = len(breakpoints) - 1
    if p == 0:
        return c.reshape(n, 1)
    return np.stack([c[e * p:e * p + p + 1] for e in range(n)])


def de_casteljau(b, s):
    work = np.array(b, float)
    for r in range(1, work.size):
        work = (1 - s) * work[:-1] + s * work[1:]
    return work[0]


def eval_piecewise(p, k, breakpoints, coeffs, x):
    """Element-wise polynomial evaluation of the spline (values only)."""
    seg = bezier_extract(p, k, breakpoints, coeffs)
    z = np.asarray(breakpoints)
    x = np.atleast_1d(np.asarray(x, float))
    idx = np.clip(np.searchsorted(z, x, side="right") - 1, 0, len(z) - 2)
    s = (x - z[idx]) / (z[idx + 1] - z[idx])
    return np.array([de_casteljau(seg[e], si) for e, si in zip(idx, s)])


def count_basis_functions(p, k, breakpoints):
    """Dimension oracle: number of B-splines of the open knot vector."""
    t = open_knots(p, k, breakpoints)
    return len(t) - p - 1


def sympy_field2d(expr, x, y, max_order=6):
    """ScalarField2D built by symbolic differentiation of a sympy expression."""
    import sympy as sym

    from asg1kit.fields import ScalarField2D

    table = {}
    for a in range(max_order + 1):
        for b in range(max_order + 1 - a):
            table[a, b] = sym.lambdify((x, y), sym.diff(expr, x, a, y, b), "numpy")

    def ev(xx, yy, dx, dy):
        if (dx, dy) not in table:
            return np.zeros(np.broadcast_shapes(np.shape(xx), np.shape(yy)))
        return np.asarray(table[dx, dy](xx, yy), dtype=float) * np.ones(
            np.broadcast_shapes(np.shape(xx), np.shape(yy))
        )

    return ScalarField2D(ev, max_order=max_order)


def dense_l2_error(fn_a, fn_b, n_cells=400, nq=6):
    """High-resolution quadrature of the L2 distance of two callables on [0,1]."""
    xg, wg = np.polynomial.legendre.leggauss(nq)
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b)[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    d = fn_a(x) - fn_b(x)
    return float(np.sqrt(np.sum(w * d * d)))


def dense_tensor_grid(E1, coef, E2):
    """sum_ij E1[n, i] coef[i, j, ...] E2[m, j] from dense basis rows E1
    (N1, dim1) and E2 (N2, dim2): ``coef`` times the whole x2 rows first,
    then the x1 rows, shape (N1, N2) + the trailing axes of ``coef``."""
    bound = np.einsum("ij...,mj->im...", coef, E2)
    return np.einsum("ni,im...->nm...", E1, bound)


# -- Greville collocation ----------------------------------------------------------
# Maps between spline spaces by collocation at the Greville abscissae of a
# continuous target space with one dense solve: exact up to the round-off of
# the collocation matrix, where the library maps coefficients by blossoming.


def greville_interpolant(space, fn):
    """The spline of ``space`` (k >= 0) that matches the callable ``fn`` at
    the Greville abscissae of ``space``."""
    from asg1kit.splines import UniSpline, eval_operator, greville_points

    g = greville_points(space)
    return UniSpline(space, np.linalg.solve(eval_operator(space, g), fn(g)))


def collocation_embed(f, target):
    """``f`` in the superspace ``target`` by Greville collocation."""
    return greville_interpolant(target, f)


def collocation_multiply(f, a, b):
    """(a + b x) f in S_{p+1,k,Z} by Greville collocation."""
    from asg1kit.splines import UniSplineSpace

    s = f.space
    target = UniSplineSpace(s.degree + 1, s.smoothness, s.partition)
    return greville_interpolant(target, lambda x: (a + b * x) * f(x))


# -- dense projector matrices ----------------------------------------------------
# The univariate projectors as whole (dim x data) matrices, built from the
# library's dense basis rows, integration, embedding and bubbles (checked by
# their own tests) by dense solves: the forms the library keeps factored.


def l2_projection_matrix(space, nq):
    """Samples at the Gauss nodes -> L2-projection coefficients: G^-1 B^T W
    with the dense Gauss-node basis B and G = B^T W B."""
    from asg1kit.splines import eval_operator, gauss_rule

    x, w = gauss_rule(space.partition, nq)
    B = eval_operator(space, x)
    return np.linalg.solve(B.T @ (w[:, None] * B), B.T * w[None, :])


def ritz_matrix(space, r, nq):
    """The order-r Ritz projector: the L2 projection matrix of S_{p-r,k-r}
    integrated r times, each time after a first column for the next endpoint
    datum (the constant, all-ones coefficients)."""
    from asg1kit.splines import UniSplineSpace, integrate

    p, k = space.degree, space.smoothness
    M = l2_projection_matrix(UniSplineSpace(p - r, k - r, space.partition), nq)
    for m in range(r):
        sp = UniSplineSpace(p - r + m, k - r + m, space.partition)
        M = np.hstack([np.ones((sp.dim + 1, 1)), integrate(sp, M)])
    return M


def pi_star_bubble_matrix(p, k, partition, nq):
    """Pi* at p in {3, 4}: the order-2 Ritz matrix of S_{p,k+1} plus the
    outer products of the second-derivative bubbles at both ends with their
    data minus the projection's second derivatives there."""
    from asg1kit.ritz1d import bubble, reflected_bubble_spline
    from asg1kit.splines import UniSplineSpace, embed, eval_operator

    target = UniSplineSpace(p, k + 1, partition)
    base = ritz_matrix(target, 2, nq)
    m = base.shape[1]
    M = np.hstack([base, np.zeros((target.dim, 2))])
    sigma = eval_operator(target, np.array([0.0, 1.0]), 2) @ M
    delta = np.eye(m + 2)[m:]
    for end, b in enumerate((bubble(p, partition, 2),
                             reflected_bubble_spline(p, partition, 2))):
        M = M + np.outer(embed(b, target).coefficients, delta[end] - sigma[end])
    return M


def constrained_l2_kkt(space, nq):
    """The KKT matrix of the L2 projection onto ``space`` constrained to the
    values and first derivatives at both ends, and its right-hand side map
    (Gauss samples, then the four endpoint data)."""
    from asg1kit.splines import eval_operator, gauss_rule

    x, w = gauss_rule(space.partition, nq)
    B = eval_operator(space, x)
    ends = np.array([0.0, 1.0])
    E = np.vstack([eval_operator(space, ends, 0), eval_operator(space, ends, 1)])
    m = space.dim
    K = np.zeros((m + 4, m + 4))
    K[:m, :m] = 2.0 * B.T @ (w[:, None] * B)
    K[:m, m:] = E.T
    K[m:, :m] = E
    R = np.zeros((m + 4, x.size + 4))
    R[:m, :x.size] = 2.0 * B.T * w[None, :]
    R[m:, x.size:] = np.eye(4)
    return K, R


def constrained_l2_matrix(space, nq):
    """The Hermite-constrained L2 projector by one dense KKT solve."""
    K, R = constrained_l2_kkt(space, nq)
    return np.linalg.solve(K, R)[:space.dim]


# -- per-side edge data ------------------------------------------------------------
# The edge fields and edge projectors one side at a time, each call of an edge
# field taking its own jet of the 2D field at its own points: the form that
# `asg1kit.asg1` replaces by one `edge_jet` per edge axis, read by index arrays.


def restrict_to_edge(u, j):
    """The trace of ``u`` on side ``j`` in the side's intrinsic parameter, at
    any points; order d is one call of ``u`` along the side."""
    from asg1kit.fields import ScalarField1D, _along
    from asg1kit.geometry import EDGE_AXIS, edge_coords, side_end

    side_end(j)
    axis = EDGE_AXIS[j]
    return ScalarField1D(lambda t, d: u(*edge_coords(j, t), *_along(axis, d, 0)),
                         u.max_order)


def crossing_direction(gluing, j):
    """The parameter-domain direction d_j(xi) = (n_j + beta t_j) / alpha of
    the `EdgeGluing` ``gluing`` of side ``j``, as an (..., 2) array."""
    from asg1kit.geometry import NORMALS, TANGENTS

    n = np.array(NORMALS[j])
    t = np.array(TANGENTS[j])

    def d(xi):
        xi = np.asarray(xi, dtype=float)
        a = gluing.alpha(xi)
        if np.any(a <= 0):
            raise ValueError("alpha must be positive on [0, 1]")
        return (n[..., :] + gluing.beta(xi)[..., None] * t[..., :]) / a[..., None]

    return d


def directional_edge_field(u, j, alpha, beta):
    """The crossing-direction derivative of ``u`` along side ``j``, at any
    points; order d is `_crossing_orders` of one jet of ``u`` up to d + 1
    along the side and 1 across."""
    from asg1kit.fields import ScalarField1D, _along, _crossing_orders
    from asg1kit.geometry import EDGE_AXIS, edge_coords

    if alpha(0.0) <= 0.0 or alpha(1.0) <= 0.0:
        raise ValueError("alpha must be strictly positive on [0, 1]")
    axis = EDGE_AXIS[j]

    def ev(t, d):
        jet = u.jet(*edge_coords(j, t), *_along(axis, d + 1, 1))
        return _crossing_orders(jet, j, t, alpha, beta)(d)

    return ScalarField1D(ev, 2)


def edge_projector_P0(u, j, p, k, partition, nq=None):
    """P0 of side ``j`` from the data of the per-side trace field."""
    from asg1kit.ritz1d import pi_star_functionals

    return pi_star_functionals(p, k, partition, nq).apply(restrict_to_edge(u, j))


def edge_projector_P1(u, j, gluing, p, k, partition, P0, nq=None):
    """P1 of side ``j`` from the data of the per-side crossing field."""
    from asg1kit import asg1
    from asg1kit.ritz1d import pi_cross_functionals

    f = pi_cross_functionals(p, k, partition, nq)
    data = f.data_vector(directional_edge_field(u, j, gluing.alpha, gluing.beta))
    return asg1.edge_projector_P1(f, f.coefficients(data), j, gluing, P0)


# -- the conformity report, side by side --------------------------------------------

_C2_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _edge_sample(proj, glue, j, t):
    """The trace and the crossing derivative of ``proj`` at the points ``t``
    of side ``j``, from one jet of the side."""
    from asg1kit.fields import _crossing_orders
    from asg1kit.geometry import edge_coords

    f = proj.jet(*edge_coords(j, t), _C2_ORDERS[:3])
    d = _crossing_orders(lambda m, n: f[m, n], j, t, glue.alpha, glue.beta)(0)
    return f[0, 0], d


def _physical_c2_data(patch, spline, corner):
    """Value, physical gradient and physical Hessian (hxx, hxy, hyy) of
    ``spline`` o G^{-1} at one parametric corner, from jets at that corner."""
    from asg1kit.geometry import jacobian_det
    from asg1kit.norms import inverse_chain_rule

    x1, x2 = np.asarray(corner[0]), np.asarray(corner[1])
    jet = patch.gmap.jet(x1, x2, orders=_C2_ORDERS)
    f = spline.jet(x1, x2, _C2_ORDERS)
    grad, hess = inverse_chain_rule(jet, patch.gmap.zeros,
                                    jacobian_det(jet, patch.gmap.zeros),
                                    (f[1, 0], f[0, 1]),
                                    [f[ab] for ab in _C2_ORDERS[3:]])
    return np.array([f[0, 0], *grad, *hess], dtype=float)


def check_conformity_per_side(gp):
    """The conformity report of ``gp`` side by side and corner by corner: a
    projection jet per side sample, a map point and C2 data per corner, and
    a pullback jet per boundary side.  `asg1.check_conformity` reads the
    same points in one pass per patch and must give the same report."""
    from asg1kit.asg1 import (BoundaryConformity, ConformityReport,
                              InterfaceConformity, VertexConformity)
    from asg1kit.fields import _crossing_orders, pullback
    from asg1kit.geometry import CORNERS, edge_coords, edge_parameter_map

    mp = gp.multipatch
    report = ConformityReport()
    t = np.linspace(0.0, 1.0, 50)
    grid = np.linspace(0.0, 1.0, 9)

    def patch_scales(f):
        jet = f.jet(grid[:, None], grid[None, :], _C2_ORDERS[:3])
        value, d1, d2 = (np.max(np.abs(v)) for v in jet.values())
        return float(value), float(max(d1, d2))

    involved = {side[0] for iface in mp.interfaces
                for side in (iface.left, iface.right)}
    scales = {i: patch_scales(gp.patches[i].spline) for i in involved}
    for iface in mp.interfaces:
        (i, j), (ii, jj) = iface.left, iface.right
        s = edge_parameter_map(iface, t)
        vl, dl = _edge_sample(gp.patches[i].spline, gp.gluing[i, j], j, t)
        vr, dr = _edge_sample(gp.patches[ii].spline, gp.gluing[ii, jj], jj, s)
        report.interfaces.append(InterfaceConformity(
            (i, j), (ii, jj), float(np.max(np.abs(vl - vr))),
            max(scales[i][0], scales[ii][0]), float(np.max(np.abs(dl + dr))),
            max(scales[i][1], scales[ii][1])))

    tol = 1e-7 * max(mp.domain_diameter(), 1e-300)
    clusters = []
    for i, patch in enumerate(mp.patches):
        for ell, corner in CORNERS.items():
            pt = patch.gmap.point(np.asarray(corner[0]), np.asarray(corner[1]))
            entry = (i, ell, tuple(float(v) for v in np.asarray(pt)))
            for cluster in clusters:
                ref = cluster[0][2]
                if np.hypot(entry[2][0] - ref[0], entry[2][1] - ref[1]) <= tol:
                    cluster.append(entry)
                    break
            else:
                clusters.append([entry])
    for members in clusters:
        if len(members) < 2:
            continue
        datas = np.array([
            _physical_c2_data(mp.patches[i], gp.patches[i].spline, CORNERS[ell])
            for i, ell, _ in members
        ])
        report.vertices.append(VertexConformity(
            members[0][2], [(m[0], m[1]) for m in members],
            float(np.max(np.abs(datas - datas[0]))),
            max(1.0, float(np.max(np.abs(datas))))))

    for (i, j) in mp.boundary_edges:
        glue = gp.gluing[i, j]
        ujet = pullback(gp.field, mp.patches[i].gmap).jet(*edge_coords(j, t), 1, 1)
        value, d = _edge_sample(gp.patches[i].spline, glue, j, t)
        sups = (ujet(0, 0), value,
                _crossing_orders(ujet, j, t, glue.alpha, glue.beta)(0), d)
        report.boundaries.append(
            BoundaryConformity((i, j), *(float(np.max(np.abs(v))) for v in sups)))
    return report


def full_grid_norms(patch, u, f, nq):
    """The H^0..H^2 error seminorms from integrands on the whole quadrature
    grid, with the inverse chain rule through explicit 2 x 2 inverses."""
    from asg1kit.splines import gauss_rule
    from asg1kit.tensor import eval_tensor_grid

    x1, w1 = gauss_rule(patch.partitions[0], nq)
    x2, w2 = gauss_rule(patch.partitions[1], nq)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")

    def fh(a=0, b=0):
        return eval_tensor_grid(f, x1, x2, a, b)

    g = patch.gmap
    P = g.derivative(X1, X2)
    J = np.stack([g.derivative(X1, X2, 1, 0), g.derivative(X1, X2, 0, 1)], axis=-1)
    Jinv = np.linalg.inv(J)
    W = np.outer(w1, w2) * np.linalg.det(J)
    # physical gradient J^{-T} grad_param
    grad = np.einsum("...ji,...j->...i", Jinv,
                     np.stack([fh(1, 0), fh(0, 1)], axis=-1))
    # physical Hessian J^{-T} (H_param - sum_c grad_c hess(G_c)) J^{-1}
    G = {ab: g.derivative(X1, X2, *ab) for ab in ((2, 0), (1, 1), (0, 2))}
    A = np.empty(X1.shape + (2, 2))
    for (i, j), ab in (((0, 0), (2, 0)), ((0, 1), (1, 1)), ((1, 1), (0, 2))):
        A[..., i, j] = fh(*ab) - np.einsum("...c,...c->...", grad, G[ab])
    A[..., 1, 0] = A[..., 0, 1]
    hess = np.einsum("...ki,...kl,...lj->...ij", Jinv, A, Jinv)
    X, Y = P[..., 0], P[..., 1]
    e0 = u(X, Y) - fh()
    e1 = np.stack([u(X, Y, 1, 0), u(X, Y, 0, 1)], axis=-1) - grad
    H = np.stack([u(X, Y, 2, 0), u(X, Y, 1, 1), u(X, Y, 1, 1), u(X, Y, 0, 2)],
                 axis=-1).reshape(X.shape + (2, 2))
    e2 = H - hess
    return [float(np.sqrt(np.sum(W * np.sum(e.reshape(X.shape + (-1,)) ** 2, axis=-1))))
            for e in (e0[..., None], e1, e2)]


def per_point_norms(patch, u, f, nq):
    """The error seminorms of `norms.physical_error_norms` by its chunks and
    blocks (`norms._block_layout`), each block taking f_h's six orders from
    `TensorSpline.bind_x2` and the map's six orders, det G and the chain
    rule per point (`norms._squared_errors`), whatever the map."""
    from asg1kit import norms
    from asg1kit.splines import gauss_rule

    x1, w1 = gauss_rule(patch.partitions[0], nq)
    x2, w2 = gauss_rule(patch.partitions[1], nq)
    orders = norms._JET
    cols, rows = norms._block_layout(patch, f.space.space1.dim, nq)
    sums = np.zeros(3)
    for lo in range(0, len(x2), cols):
        chunk = slice(lo, lo + cols)
        fjet = f.bind_x2(x2[chunk], orders)
        gjet = patch.gmap.bind_x2(x2[chunk], orders)
        for start in range(0, len(x1), rows):
            block = slice(start, start + rows)
            sums += norms._squared_errors(gjet, patch.gmap.zeros, u, fjet(x1[block]),
                                          x1[block], x2[chunk], w1[block], w2[chunk])
    return [float(v) for v in np.sqrt(sums)]
