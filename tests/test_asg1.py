import numpy as np
import pytest

from asg1kit.asg1 import (
    _edge_projections,
    check_conformity,
    extend,
    global_project,
    patch_project,
)
from asg1kit.fields import (
    MANUFACTURED,
    ScalarField2D,
    manufactured,
    pullback,
)
from asg1kit.geometry import BUILTIN_GEOMETRIES, NORMALS, builtin_geometry, edge_coords
from asg1kit.gluing import EdgeGluing, GluingData, LinearFunction, recover_all
from asg1kit.ritz1d import pi_star_functionals, ritz_functionals
from asg1kit.splines import (
    UniSpline,
    UniSplineSpace,
    embed,
    uniform_partition,
)
from asg1kit.tensor import TensorSpline, TensorSplineSpace, as_field, tensor_project_Q
from oracles import crossing_direction, directional_edge_field, restrict_to_edge


P, K, N = 4, 1, 8
T50 = np.linspace(0.0, 1.0, 50)


def boundary_gluing_sides():
    return {j: EdgeGluing() for j in (1, 2, 3, 4)}


def edge_projections(u, j, glue, Z):
    """P0 and P1 of side ``j`` from the edge pass of a patch with partitions
    (Z, Z) whose four sides are glued by ``glue``."""
    P0, P1 = _edge_projections(u, (Z, Z), {s: glue for s in (1, 2, 3, 4)}, P, K, None)
    return P0[j], P1[j]


def generic_field():
    return ScalarField2D(
        lambda x, y, a, b: 1.3 ** a * 0.7 ** b * np.exp(1.3 * x + 0.7 * y),
        max_order=8,
    )


def reproduction_sample(p, k, n, seed):
    """A random element of the patch-local C1-compatible class.

    Traces must lie in S_{p,k+1} and normal-derivative traces in S_{p-1,k}.
    The sample combines an interior block of S_{p,k+1} x S_{p,k+1} (two zero
    coefficient layers on every side) with per-side boundary layers: a random
    trace function times the order-0 boundary bubble plus a random
    normal-derivative function times the order-1 bubble.  Flattening the
    tangential factors' endpoint derivatives keeps the adjacent sides'
    normal-derivative traces inside S_{p-1,k}.
    """
    from asg1kit.geometry import EDGE_AXIS
    from asg1kit.ritz1d import bubble, reflected_bubble_spline

    rng = np.random.default_rng(seed)
    Z = uniform_partition(n)
    target = UniSplineSpace(p, k, Z)
    V = TensorSplineSpace(target, target)
    grid = np.zeros(V.shape)

    high = UniSplineSpace(p, k + 1, Z)
    c_high = rng.standard_normal((high.dim, high.dim))
    c_high[:2, :] = c_high[-2:, :] = 0.0
    c_high[:, :2] = c_high[:, -2:] = 0.0
    E_high = np.array(
        [embed(UniSpline(high, row), target).coefficients
         for row in np.eye(high.dim)]
    ).T
    grid += E_high @ c_high @ E_high.T

    def flat_random(space):
        c = rng.standard_normal(space.dim)
        c[1] = c[0]
        c[-2] = c[-1]
        return embed(UniSpline(space, c), target).coefficients

    bub = {
        1: (bubble(p, Z, 0), bubble(p, Z, 1)),
        4: (bubble(p, Z, 0), bubble(p, Z, 1)),
        3: (reflected_bubble_spline(p, Z, 0), reflected_bubble_spline(p, Z, 1)),
        2: (reflected_bubble_spline(p, Z, 0), reflected_bubble_spline(p, Z, 1)),
    }
    for j in (1, 2, 3, 4):
        a = flat_random(UniSplineSpace(p, k + 1, Z))
        b = flat_random(UniSplineSpace(p - 1, k, Z))
        b0 = embed(bub[j][0], target).coefficients
        b1 = embed(bub[j][1], target).coefficients
        layer = np.outer(a, b0) + np.outer(b, b1)
        grid += layer if EDGE_AXIS[j] == 0 else layer.T
    return TensorSpline(V, grid)


# -- extensions ----------------------------------------------------------------

def test_extend_zero_gives_zero():
    Z = uniform_partition(N)
    S = UniSplineSpace(P, K, Z)
    zero = UniSpline(S, np.zeros(S.dim))
    E = extend(1, 0, zero, (Z, Z), P, K)
    assert np.max(np.abs(E.coefficients)) == 0.0


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma", [0, 1])
def test_extend_interpolates_own_side(j, sigma):
    Z = uniform_partition(N)
    S = UniSplineSpace(P, K, Z)
    one = UniSpline(S, np.ones(S.dim))
    E = extend(j, sigma, one, (Z, Z), P, K)
    x, y = edge_coords(j, T50)
    n = NORMALS[j]
    val = E(x, y)
    ndv = n[0] * E(x, y, 1, 0) + n[1] * E(x, y, 0, 1)
    assert np.max(np.abs(val - (1 - sigma))) <= 1e-12
    assert np.max(np.abs(ndv - sigma)) <= 1e-12


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_extend_vanishes_on_opposite_side(j):
    Z = uniform_partition(N)
    S = UniSplineSpace(P, K, Z)
    one = UniSpline(S, np.ones(S.dim))
    opposite = {1: 3, 3: 1, 2: 4, 4: 2}[j]
    for sigma in (0, 1):
        E = extend(j, sigma, one, (Z, Z), P, K)
        x, y = edge_coords(opposite, T50)
        n = NORMALS[opposite]
        assert np.max(np.abs(E(x, y))) <= 1e-13
        assert np.max(np.abs(n[0] * E(x, y, 1, 0) + n[1] * E(x, y, 0, 1))) <= 1e-12


def test_bubbles_and_extensions_are_exact_zeros_off_the_bubble_support():
    # the embedded bubble's coefficients of every basis function outside its
    # support are exact zeros (each is a blossom of the zero piece), so an
    # extension's coefficient rows beyond the bubble support are exact
    # zeros, and so are its trace and normal derivative on the opposite side
    from asg1kit.geometry import EDGE_AXIS, side_end
    from asg1kit.ritz1d import bubble, bubble_breakpoints, reflected_bubble_spline
    from asg1kit.splines import knot_vector
    from asg1kit.tensor import normal_derivative_trace, trace

    Z = uniform_partition(16)
    opposite = {1: 3, 3: 1, 2: 4, 4: 2}
    rng = np.random.default_rng(4)
    for p in range(4, 9):
        for k in sorted({1, p - 2}):
            S = UniSplineSpace(p, k, Z)
            tau, eta = knot_vector(S), bubble_breakpoints(p, Z)[2]
            outside = [tau[:S.dim] >= eta, tau[p + 1:] <= 1.0 - eta]
            for end, make in enumerate((bubble, reflected_bubble_spline)):
                for sigma in (0, 1, 2):
                    c = embed(make(p, Z, sigma), S).coefficients
                    assert outside[end].any() and np.any(c != 0.0)
                    assert np.all(c[outside[end]] == 0.0), (p, k, end, sigma)
            for j in (1, 2, 3, 4):
                g = UniSpline(S, rng.standard_normal(S.dim))
                for sigma in (0, 1):
                    E = extend(j, sigma, g, (Z, Z), p, k).coefficients
                    rows = np.take(E, np.flatnonzero(outside[side_end(j)]),
                                   axis=1 - EDGE_AXIS[j])
                    assert np.all(rows == 0.0), (p, k, j, sigma)
                    E = TensorSpline(TensorSplineSpace(S, S), E)
                    for of in (trace, normal_derivative_trace):
                        assert np.all(of(E, opposite[j]).coefficients == 0.0)


def test_extend_rejects_a_bad_side():
    Z = uniform_partition(N)
    S = UniSplineSpace(P, K, Z)
    one = UniSpline(S, np.ones(S.dim))
    with pytest.raises(ValueError, match="side index"):
        extend(5, 0, one, (Z, Z), P, K)


def test_extend_propagates_bubble_failure():
    Z = uniform_partition(5)  # too coarse for p=4 bubbles
    S = UniSplineSpace(4, 1, Z)
    one = UniSpline(S, np.ones(S.dim))
    with pytest.raises(ValueError):
        extend(1, 0, one, (Z, Z), 4, 1)


# -- edge projectors ---------------------------------------------------------------

def test_p0_reproduces_compatible_trace():
    Z = uniform_partition(N)
    S = UniSplineSpace(P, K + 1, Z)
    rng = np.random.default_rng(1)
    g = UniSpline(S, rng.standard_normal(S.dim))
    u = ScalarField2D(lambda x, y, a, b: g(x, a) * (1.0 if b == 0 else 0.0),
                      max_order=3)
    P0, _ = edge_projections(u, 1, EdgeGluing(), Z)
    assert np.max(np.abs(P0.coefficients - g.coefficients)) <= 1e-11


def test_p0_interpolates_trace_endpoints():
    u = generic_field()
    Z = uniform_partition(N)
    P0, _ = edge_projections(u, 1, EdgeGluing(), Z)
    tr = restrict_to_edge(u, 1)
    for s in (0, 1, 2):
        assert abs(P0(0.0, s) - float(tr(np.asarray(0.0), s))) <= 1e-10
        assert abs(P0(1.0, s) - float(tr(np.asarray(1.0), s))) <= 1e-10


def test_p1_boundary_case_is_normal_ritz_projection():
    # alpha = 1, beta = 0: P1 equals the order-2 projection of n . grad u
    from asg1kit.fields import ScalarField1D

    u = generic_field()
    Z = uniform_partition(N)
    _, P1 = edge_projections(u, 1, EdgeGluing(), Z)
    n = NORMALS[1]
    ndu = ScalarField1D(
        lambda x, d: n[1] * u(x, np.zeros_like(x), d, 1), max_order=3
    )
    direct = ritz_functionals(UniSplineSpace(P - 1, K, Z), 2).apply(ndu)
    x = T50
    assert np.max(np.abs(P1(x) - direct(x))) <= 1e-12


def test_p1_constant_field_is_zero():
    Z = uniform_partition(N)
    u = ScalarField2D(
        lambda x, y, a, b: np.full(np.broadcast_shapes(x.shape, y.shape),
                                   5.0 if a == b == 0 else 0.0),
        max_order=8,
    )
    glue = EdgeGluing(LinearFunction(1.0, 0.5), LinearFunction(0.2, -0.1))
    _, P1 = edge_projections(u, 2, glue, Z)
    assert np.max(np.abs(P1(T50))) <= 1e-12


def test_p1_recovers_normal_derivative_for_compatible_fields():
    # if d.grad(u) on the edge lies in S_{p-1,k} and the trace in S_{p,k+1},
    # then P1 = alpha (d . grad u) - beta t . grad u = n . grad u on the edge
    def xy(x, y, a, b):
        if (a, b) == (0, 0):
            return x * y
        if (a, b) == (1, 0):
            return y * np.ones_like(x)
        if (a, b) == (0, 1):
            return x * np.ones_like(y)
        if (a, b) == (1, 1):
            return np.ones(np.broadcast_shapes(x.shape, y.shape))
        return np.zeros(np.broadcast_shapes(x.shape, y.shape))

    mp = builtin_geometry("two_patch_skew", N)
    glue = recover_all(mp)
    u = ScalarField2D(xy, max_order=8)
    i, j = 0, 2
    patch = mp.patches[i]
    uhat = pullback(u, patch.gmap)
    P1 = _edge_projections(uhat, patch.partitions, glue.for_patch(i), P, K, None)[1][j]
    x, y = edge_coords(j, T50)
    n = NORMALS[j]
    want = n[0] * uhat(x, y, 1, 0) + n[1] * uhat(x, y, 0, 1)
    assert np.max(np.abs(P1(T50) - want)) <= 1e-11


# -- the edge pass: one jet per edge axis ----------------------------------------------


def reversed_near_degenerate(n):
    """A convex two-patch layout whose right patch runs its interface side
    the other way (Interface((0, 2), (1, 2), True)); det G is 0.021 at the
    shared corner (0.41, 0.85)."""
    from asg1kit.geometry import multipatch_from_json

    Z = list(uniform_partition(n).breakpoints)
    corners = ([[0.03, -0.07], [0.12, 1.15], [1.22, -0.06], [0.41, 0.85]],
               [[2.21, 1.16], [1.98, -0.22], [0.41, 0.85], [1.22, -0.06]])
    return multipatch_from_json({
        "patches": [{"kind": "bilinear", "control_points": c, "partitions": [Z, Z]}
                    for c in corners],
        "interfaces": [{"left": [0, 2], "right": [1, 2], "reversed": True}],
    })


def _edge_pass_layouts():
    from test_integration import curved_interior_two_patch, single_patch_nurbs

    from asg1kit.geometry import BUILTIN_GEOMETRIES

    layouts = {name: (lambda n, name=name: builtin_geometry(name, n))
               for name in BUILTIN_GEOMETRIES}
    layouts.update(curved=curved_interior_two_patch, nurbs=single_patch_nurbs,
                   reversed=reversed_near_degenerate)
    return layouts


EDGE_PASS_LAYOUTS = _edge_pass_layouts()


def _record_edge_projections(monkeypatch):
    """The functionals and coefficients with which patch_project calls the
    per-side edge projectors: {"P0": [(f, c), ...], "P1": [(j, f, c), ...]}."""
    from asg1kit import asg1

    seen = {}
    P0, P1 = asg1.edge_projector_P0, asg1.edge_projector_P1

    def p0(f, c):
        seen.setdefault("P0", []).append((f, np.array(c)))
        return P0(f, c)

    def p1(f, c, j, gluing, P0_j):
        seen.setdefault("P1", []).append((j, f, np.array(c)))
        return P1(f, c, j, gluing, P0_j)

    monkeypatch.setattr(asg1, "edge_projector_P0", p0)
    monkeypatch.setattr(asg1, "edge_projector_P1", p1)
    return seen


def _within_roundoff(funcs, got, data):
    """|got - M d| <= 1e3 eps |M| d_max, with d_max[m] the largest |d| of the
    data of the order of datum m: the per-side coefficients differ from the
    shared-jet ones only by the round-off of evaluating the same chain-rule
    terms at other array shapes and of a 2D product for 1D ones."""
    dmax = np.empty(len(data))
    for _, run in funcs.runs:
        dmax[run] = np.max(np.abs(data[run]))
    bound = 1e3 * np.finfo(float).eps * (np.abs(funcs.matrix) @ dmax)
    return bool(np.all(np.abs(got - funcs.coefficients(data)) <= bound))


@pytest.mark.parametrize("p,k", [(3, 1), (4, 2), (6, 2)])
@pytest.mark.parametrize("name", sorted(EDGE_PASS_LAYOUTS))
def test_shared_edge_jets_match_the_per_side_oracle(monkeypatch, name, p, k):
    # p = 3: the constrained-L2 crossing projector; p = 4: Pi* with bubble
    # corrections; p = 6: order-3 Pi* and order-2 crossing Ritz projections
    from asg1kit.ritz1d import pi_cross_functionals

    mp = EDGE_PASS_LAYOUTS[name](8)
    glue = recover_all(mp)
    u = generic_field()
    seen = _record_edge_projections(monkeypatch)
    for i, patch in enumerate(mp.patches):
        seen.clear()
        uhat = pullback(u, patch.gmap)
        patch_project(patch, uhat, glue.for_patch(i), p, k)
        assert [j for j, _, _ in seen["P1"]] == [1, 2, 3, 4]
        for (f0, c0), (j, f1, c1) in zip(seen["P0"], seen["P1"]):
            Z = patch.side_partition(j)
            assert f0 is pi_star_functionals(p, k, Z, None)
            assert f1 is pi_cross_functionals(p, k, Z, None)
            d0 = f0.data_vector(restrict_to_edge(uhat, j))
            d1 = f1.data_vector(directional_edge_field(uhat, j, glue[i, j].alpha,
                                                       glue[i, j].beta))
            assert _within_roundoff(f0, c0, d0), (i, j, "P0")
            assert _within_roundoff(f1, c1, d1), (i, j, "P1")


class _CountingField(ScalarField2D):
    """A field that counts the jets bound of the field it wraps."""

    def __init__(self, u):
        super().__init__(None, u.max_order)
        self.u, self.binds = u, 0

    def jet(self, *args):
        self.binds += 1
        return self.u.jet(*args)


@pytest.mark.parametrize("name", ["three_patch_L", "two_patch_skew", "curved"])
def test_patch_project_binds_one_edge_jet_per_axis(monkeypatch, name):
    # the eight edge data vectors of a patch come from two jets of u, one per
    # edge axis; every other jet a patch projection binds is the tensor
    # projection's
    from asg1kit import asg1

    mp = EDGE_PASS_LAYOUTS[name](8)
    glue = recover_all(mp)
    fields = []

    def counted(u, gmap):
        fields.append(_CountingField(pullback(u, gmap)))
        return fields[-1]

    monkeypatch.setattr(asg1, "pullback", counted)
    gp = global_project(mp, glue, generic_field(), P, K)
    assert len(fields) == len(mp.patches)
    for f, proj in zip(fields, gp.patches):
        tensor_only = _CountingField(f.u)
        tensor_project_Q(proj.spline.space, tensor_only)
        assert f.binds - tensor_only.binds == 2


# -- patch projector ------------------------------------------------------------------

def test_patch_reproduces_compatible_splines():
    Z = uniform_partition(N)
    mp = builtin_geometry("unit_square", N)
    for seed in (0, 1, 2):
        f = reproduction_sample(P, K, N, seed)
        proj = patch_project(mp.patches[0], as_field(f), boundary_gluing_sides(),
                             P, K)
        err = np.max(np.abs(proj.spline.coefficients - f.coefficients))
        assert err <= 1e-10, (seed, err)


def test_patch_rejects_bad_parameters():
    mp = builtin_geometry("unit_square", N)
    u = manufactured("sinsin")
    with pytest.raises(ValueError):
        patch_project(mp.patches[0], u, boundary_gluing_sides(), 2, 1)
    coarse = builtin_geometry("unit_square", 3)
    with pytest.raises(ValueError):
        patch_project(coarse.patches[0], u, boundary_gluing_sides(), P, K)


@pytest.fixture(scope="module")
def skew_projection():
    mp = builtin_geometry("two_patch_skew", N)
    glue = recover_all(mp)
    u = generic_field()
    projections = []
    for i, patch in enumerate(mp.patches):
        uhat = pullback(u, patch.gmap)
        projections.append(
            (patch, uhat, patch_project(patch, uhat, glue.for_patch(i), P, K))
        )
    return mp, glue, projections


def test_patch_edge_interpolation(skew_projection):
    mp, glue, projections = skew_projection
    for i, (patch, uhat, proj) in enumerate(projections):
        P0s, P1s = _edge_projections(uhat, patch.partitions, glue.for_patch(i), P, K,
                                     None)
        for j in (1, 2, 3, 4):
            P0, P1 = P0s[j], P1s[j]
            x, y = edge_coords(j, T50)
            n = NORMALS[j]
            f = proj.spline
            assert np.max(np.abs(f(x, y) - P0(T50))) <= 1e-10
            ndv = n[0] * f(x, y, 1, 0) + n[1] * f(x, y, 0, 1)
            assert np.max(np.abs(ndv - P1(T50))) <= 1e-10


def test_patch_crossing_derivative_interpolation(skew_projection):
    mp, glue, projections = skew_projection
    for i, (patch, uhat, proj) in enumerate(projections):
        for j in (1, 2, 3, 4):
            g1 = directional_edge_field(uhat, j, glue[i, j].alpha, glue[i, j].beta)
            want = ritz_functionals(
                UniSplineSpace(P - 1, K, patch.side_partition(j)), 2
            ).apply(g1)
            x, y = edge_coords(j, T50)
            dvec = crossing_direction(glue[i, j], j)(T50)
            f = proj.spline
            got = dvec[:, 0] * f(x, y, 1, 0) + dvec[:, 1] * f(x, y, 0, 1)
            assert np.max(np.abs(got - want(T50))) <= 1e-9


def test_patch_corner_interpolation(skew_projection):
    mp, glue, projections = skew_projection
    for i, (patch, uhat, proj) in enumerate(projections):
        f = proj.spline
        for cx, cy in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]:
            for s in range(3):
                for t in range(3 - s):
                    got = f(np.asarray(cx), np.asarray(cy), s, t)
                    want = float(uhat(np.asarray(cx), np.asarray(cy), s, t))
                    assert abs(got - want) <= 1e-9, (i, cx, cy, s, t)


@pytest.mark.parametrize("name", ["two_patch_skew", "three_patch_L"])
def test_patch_projection_is_q_plus_the_extensions_of_its_corrections(name):
    # a correction is stored as its edge data alone: Q plus the extension of
    # each stored correction, added in order, is the projection bit for bit
    mp = builtin_geometry(name, N)
    glue = recover_all(mp)
    for i, patch in enumerate(mp.patches):
        uhat = pullback(generic_field(), patch.gmap)
        proj = patch_project(patch, uhat, glue.for_patch(i), P, K)
        assert [(c.sigma, c.side) for c in proj.corrections] == [
            (sigma, j) for sigma in (0, 1) for j in (1, 2, 3, 4)]
        want = tensor_project_Q(proj.spline.space, uhat).coefficients
        for c in proj.corrections:
            want = want + extend(c.side, c.sigma, c.edge_spline, patch.partitions,
                                 P, K).coefficients
        assert np.array_equal(proj.spline.coefficients, want), i


def test_patch_no_interference_of_corrections(skew_projection):
    mp, glue, projections = skew_projection
    for i, (patch, uhat, proj) in enumerate(projections):
        for corr in proj.corrections:
            for jp in (1, 2, 3, 4):
                if jp == corr.side:
                    continue
                x, y = edge_coords(jp, T50)
                n = NORMALS[jp]
                E = extend(corr.side, corr.sigma, corr.edge_spline,
                           patch.partitions, P, K)
                assert np.max(np.abs(E(x, y))) <= 1e-10, (i, corr.side, corr.sigma, jp)
                ndv = n[0] * E(x, y, 1, 0) + n[1] * E(x, y, 0, 1)
                assert np.max(np.abs(ndv)) <= 1e-10


def test_patch_trace_spaces(skew_projection):
    # traces lie in S_{p,k+1} and crossing-derivative traces in S_{p-1,k}:
    # the L2 projection onto those spaces leaves them unchanged
    from asg1kit.fields import ScalarField1D

    mp, glue, projections = skew_projection
    for i, (patch, uhat, proj) in enumerate(projections):
        f = proj.spline
        for j in (1, 2, 3, 4):
            Zj = patch.side_partition(j)
            tr_field = ScalarField1D(
                lambda xx, d=0, jj=j: f(*edge_coords(jj, xx)), max_order=0
            )
            fit = ritz_functionals(UniSplineSpace(P, K + 1, Zj), 0).apply(tr_field)
            assert np.max(np.abs(fit(T50) - tr_field(T50))) <= 1e-9

            dvec = crossing_direction(glue[i, j], j)
            d_field = ScalarField1D(
                lambda xx, d=0, jj=j: (
                    dvec(xx)[..., 0] * f(*edge_coords(jj, xx), 1, 0)
                    + dvec(xx)[..., 1] * f(*edge_coords(jj, xx), 0, 1)
                ),
                max_order=0,
            )
            dfit = ritz_functionals(UniSplineSpace(P - 1, K, Zj), 0).apply(d_field)
            assert np.max(np.abs(dfit(T50) - d_field(T50))) <= 1e-9


# -- global projector -----------------------------------------------------------------

def test_global_single_patch_equals_patch_project():
    mp = builtin_geometry("unit_square", N)
    glue = recover_all(mp)
    u = manufactured("sinsin")
    gp = global_project(mp, glue, u, P, K)
    direct = patch_project(
        mp.patches[0], pullback(u, mp.patches[0].gmap), glue.for_patch(0), P, K
    )
    assert np.max(np.abs(gp.patches[0].spline.coefficients
                         - direct.spline.coefficients)) <= 1e-14


def test_global_constant_reproduced():
    u = ScalarField2D(
        lambda x, y, a, b: np.full(np.broadcast_shapes(x.shape, y.shape),
                                   5.0 if a == b == 0 else 0.0),
        max_order=8,
    )
    for name in ("two_patch_square", "two_patch_skew", "three_patch_L"):
        mp = builtin_geometry(name, N)
        gp = global_project(mp, recover_all(mp), u, P, K)
        for pp in gp.patches:
            assert np.max(np.abs(pp.spline.coefficients - 5.0)) <= 1e-10, name


def test_global_linear_reproduced():
    u = ScalarField2D(
        lambda x, y, a, b: (2.0 * x - 0.5 * y + 1.0 if (a, b) == (0, 0)
                            else 2.0 * np.ones_like(x) if (a, b) == (1, 0)
                            else -0.5 * np.ones_like(x) if (a, b) == (0, 1)
                            else 0.0 * x),
        max_order=8,
    )
    for name in ("two_patch_square", "two_patch_skew", "three_patch_L"):
        mp = builtin_geometry(name, N)
        gp = global_project(mp, recover_all(mp), u, P, K)
        grid = np.linspace(0, 1, 9)
        GX, GY = np.meshgrid(grid, grid, indexing="ij")
        for i, pp in enumerate(gp.patches):
            pts = mp.patches[i].gmap.point(GX, GY)
            want = 2.0 * pts[..., 0] - 0.5 * pts[..., 1] + 1.0
            assert np.max(np.abs(pp.spline(GX, GY) - want)) <= 1e-10, name


@pytest.mark.parametrize("name", ["two_patch_skew", "three_patch_L"])
def test_global_conformity_sinsin(name):
    mp = builtin_geometry(name, N)
    gp = global_project(mp, recover_all(mp), manufactured("sinsin"), P, K)
    rep = check_conformity(gp)
    for r in rep.interfaces:
        assert r.relative_value_jump <= 1e-10
        assert r.relative_d_jump <= 1e-9
    for v in rep.vertices:
        assert v.relative_defect <= 1e-8


def test_global_conformity_generic_field():
    mp = builtin_geometry("two_patch_skew", N)
    gp = global_project(mp, recover_all(mp), generic_field(), P, K)
    rep = check_conformity(gp)
    for r in rep.interfaces:
        assert r.relative_value_jump <= 1e-10
        assert r.relative_d_jump <= 1e-9


def test_boundary_vanishing_trace_preserved():
    # u = x sin(pi y) vanishes on the boundary edge x = 0 of three_patch_L
    import sympy as sym

    x, y = sym.symbols("x y")
    import oracles

    u = oracles.sympy_field2d(x * sym.sin(sym.pi * y), x, y)
    mp = builtin_geometry("three_patch_L", N)
    gp = global_project(mp, recover_all(mp), u, P, K)
    rep = check_conformity(gp)
    seen = False
    for b in rep.boundaries:
        if b.input_trace_sup <= 1e-12:
            seen = True
            assert b.projected_trace_sup <= 1e-10, b.edge
    assert seen


def test_boundary_vanishing_gradient_preserved():
    # u = x^2 sin(pi y) has vanishing gradient on the edge x = 0
    import sympy as sym
    import oracles

    x, y = sym.symbols("x y")
    u = oracles.sympy_field2d(x ** 2 * sym.sin(sym.pi * y), x, y)
    mp = builtin_geometry("two_patch_skew", N)
    gp = global_project(mp, recover_all(mp), u, P, K)
    rep = check_conformity(gp)
    seen = False
    for b in rep.boundaries:
        if b.edge == (0, 4):
            seen = True
            assert b.input_trace_sup <= 1e-12
            assert b.input_d_sup <= 1e-12
            assert b.projected_trace_sup <= 1e-10
            assert b.projected_d_sup <= 1e-9
    assert seen


@pytest.mark.parametrize("name", ["two_patch_skew", "curved", "nurbs"])
def test_boundary_conformity_reads_one_pullback_jet(name):
    # the input trace and crossing derivative of each boundary edge come from
    # one pullback jet; they equal the trace field and the crossing field of
    # two jets, bit for bit
    from test_integration import curved_interior_two_patch, single_patch_nurbs

    mp = {"two_patch_skew": lambda: builtin_geometry(name, N),
          "curved": curved_interior_two_patch, "nurbs": single_patch_nurbs}[name]()
    u = generic_field()
    gp = global_project(mp, recover_all(mp), u, P, K)
    rep = check_conformity(gp)
    assert {b.edge for b in rep.boundaries} == set(mp.boundary_edges)
    for b in rep.boundaries:
        i, j = b.edge
        uhat, glue = pullback(u, mp.patches[i].gmap), gp.gluing[i, j]
        trace = restrict_to_edge(uhat, j)(T50)
        crossing = directional_edge_field(uhat, j, glue.alpha, glue.beta)(T50)
        assert b.input_trace_sup == float(np.max(np.abs(trace))), b.edge
        assert b.input_d_sup == float(np.max(np.abs(crossing))), b.edge
        assert b.input_d_sup > 0.0


def test_global_refuses_uncertified_geometry():
    mp = builtin_geometry("two_patch_skew", N)
    glue = recover_all(mp)
    glue.reports[0].residual_beta = 1.0  # simulate failed certification
    with pytest.raises(ValueError):
        global_project(mp, glue, manufactured("sinsin"), P, K)
    gp = global_project(mp, glue, manufactured("sinsin"), P, K, force=True)
    assert len(gp.patches) == 2


def test_check_conformity_rejects_nonpositive_alpha():
    # hand-built gluing with alpha(1) = 0 on an interface side: the crossing
    # derivative there is undefined, and checking it raises
    mp = builtin_geometry("two_patch_skew", N)
    gp = global_project(mp, recover_all(mp), manufactured("sinsin"), P, K)
    side = mp.interfaces[0].right
    edges = dict(gp.gluing.edges)
    edges[side] = EdgeGluing(LinearFunction(1.0, -1.0), edges[side].beta)
    gp.gluing = GluingData(edges, gp.gluing.reports)
    with pytest.raises(ValueError, match="alpha must be strictly positive"):
        check_conformity(gp)


def test_conformity_report_json_roundtrip():
    import json

    mp = builtin_geometry("two_patch_square", N)
    gp = global_project(mp, recover_all(mp), manufactured("sinsin"), P, K)
    rep = check_conformity(gp)
    blob = json.dumps(rep.to_json())
    data = json.loads(blob)
    assert len(data["interfaces"]) == 1
    assert len(data["boundary_edges"]) == 6
    assert "c2_defect" in data["vertices"][0] if data["vertices"] else True


def test_conformity_single_patch_has_no_interfaces():
    mp = builtin_geometry("unit_square", N)
    gp = global_project(mp, recover_all(mp), manufactured("sinsin"), P, K)
    rep = check_conformity(gp)
    assert rep.interfaces == []
    assert len(rep.boundaries) == 4


def _conformity_layouts():
    from perfbench.workloads import curved_two_patch, nurbs_square
    from test_integration import valence4_square

    from asg1kit.geometry import BUILTIN_GEOMETRIES

    layouts = {name: (lambda name=name: builtin_geometry(name, 8))
               for name in BUILTIN_GEOMETRIES}
    for seed in (0, 1):
        layouts[f"nurbs_square{seed}"] = lambda seed=seed: nurbs_square(8, seed)
        layouts[f"curved_two_patch{seed}"] = lambda seed=seed: curved_two_patch(8, seed)
    layouts.update(valence4=valence4_square,
                   reversed=lambda: reversed_near_degenerate(8))
    return layouts


CONFORMITY_LAYOUTS = _conformity_layouts()


@pytest.mark.parametrize("field", ["sinsin", "expxy"])
@pytest.mark.parametrize("name", sorted(CONFORMITY_LAYOUTS))
def test_conformity_pass_equals_per_side_oracle(name, field):
    # the per-patch pass reads the same points as the side-by-side report
    # and gives the same report, float for float (json.dumps writes each
    # float's shortest round trip, so -0.0, nan and every last bit count)
    import json

    import oracles

    mp = CONFORMITY_LAYOUTS[name]()
    gp = global_project(mp, recover_all(mp), manufactured(field), 4, 2)
    assert (json.dumps(check_conformity(gp).to_json())
            == json.dumps(oracles.check_conformity_per_side(gp).to_json()))


def test_check_conformity_evaluates_each_patch_once(monkeypatch):
    # per patch one scattered projection jet (every side sample and corner)
    # and one grid jet (the scales), no map jet for the corner locations
    # (the corner coefficients give them) and, with a boundary side, one
    # pullback bind; one map jet of the C2 orders and one chain rule per
    # patch with a corner that another patch shares (all three of
    # three_patch_L, none on the single NURBS patch); the domain diameter is
    # measured once per multi-patch, when it is built
    from collections import Counter

    from asg1kit import asg1, fields
    from asg1kit.geometry import MultiPatch, _TensorProductMap

    calls, measured, binding = Counter(), Counter(), []

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def map_jet(gmap, x1, x2, *args, orders=None):
        if binding:
            return "pullback map jet"
        return "corner map jet" if orders == [(0, 0)] else "C2 map jet"

    measure = MultiPatch._measure_diameter
    monkeypatch.setattr(MultiPatch, "_measure_diameter",
                        lambda mp: measured.update([id(mp)]) or measure(mp))
    sharing = {"three_patch_L": 3, "nurbs_square0": 0}
    layouts = {name: CONFORMITY_LAYOUTS[name]() for name in sharing}
    projections = {name: global_project(mp, recover_all(mp), manufactured("sinsin"), 4, 2)
                   for name, mp in layouts.items()}

    def counted_pullback(u, gmap):
        out = fields.pullback(u, gmap)
        bind = out._bind

        def counted_bind(*args):
            calls["pullback bind"] += 1
            binding.append(True)
            try:
                return bind(*args)
            finally:
                binding.pop()

        out._bind = counted_bind
        return out

    counted(TensorSpline, "jet", lambda f, x1, x2, orders: (
        "grid jet" if np.ndim(x1) == 2 and np.shape(x1)[1] == 1 else "scattered jet"))
    counted(_TensorProductMap, "jet", map_jet)
    counted(asg1, "inverse_chain_rule", lambda *args: "chain rule")
    monkeypatch.setattr(asg1, "pullback", counted_pullback)
    for name, mp in layouts.items():
        calls.clear()
        check_conformity(projections[name])
        with_boundary = {i for i, _ in mp.boundary_edges}
        patches = len(mp.patches)
        assert calls["scattered jet"] <= patches
        assert calls["grid jet"] <= patches
        assert calls["corner map jet"] == 0
        assert calls["C2 map jet"] == calls["chain rule"] == sharing[name]
        assert calls["pullback bind"] <= len(with_boundary)
        assert calls["pullback map jet"] <= calls["pullback bind"]
        assert set(calls) <= {"scattered jet", "grid jet", "corner map jet", "C2 map jet",
                              "chain rule", "pullback bind", "pullback map jet"}
        assert measured[id(mp)] == 1
    assert max(measured.values()) == 1


@pytest.mark.parametrize("name", ["nurbs_square", "curved_two_patch"])
def test_curved_patches_project_and_measure_in_small_blocks(name):
    # the curved maps of the benchmark at p = 4, k = 2 on 32 elements: their
    # pullback's data calls and the per-point norm blocks hold many arrays
    # of the block's points (map jets, target orders, chain-rule terms), so
    # they take fewer points than affine blocks, whose norm block at p = 6
    # on 128 elements peaks at 4.8 MB; with 2^15-point blocks the traced
    # peaks on nurbs_square were 12.7 MB (projection) and 9.2 MB (norms)
    import tracemalloc

    from perfbench.workloads import curved_two_patch, nurbs_square

    from asg1kit.norms import physical_error_norms

    mp = {"nurbs_square": nurbs_square, "curved_two_patch": curved_two_patch}[name](32, 0)
    glue, u = recover_all(mp), manufactured("sinsin")

    def norms(gp):
        return [physical_error_norms(patch, u, proj.spline)
                for patch, proj in zip(mp.patches, gp.patches)]

    norms(global_project(mp, glue, u, 4, 2))  # fills the caches of spaces and rules
    tracemalloc.start()
    try:
        gp = global_project(mp, glue, u, 4, 2)
        project_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        norms(gp)
        norms_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert project_peak <= 5e6, project_peak
    assert norms_peak <= 6e6, norms_peak


def test_affine_patch_projects_without_a_map_jet(monkeypatch):
    # the pullback by an affine patch maps its points as G(0, 0) + J xi
    # and combines orders of u with constants: neither the tensor
    # projection's data calls nor the edge jets evaluate the map
    from asg1kit.geometry import BilinearMap

    mp = builtin_geometry("three_patch_L", 8)
    patch, glue = mp.patches[1], recover_all(mp).for_patch(1)
    calls = []
    jet = BilinearMap.jet
    monkeypatch.setattr(BilinearMap, "jet", lambda *a, **k: calls.append(1) or jet(*a, **k))
    u = pullback(manufactured("sinsin"), patch.gmap)
    p, k = 4, 2
    V = TensorSplineSpace(UniSplineSpace(p, k, patch.partitions[0]),
                          UniSplineSpace(p, k, patch.partitions[1]))
    tensor_project_Q(V, u)
    _edge_projections(u, patch.partitions, glue, p, k, None)
    assert calls == []


@pytest.mark.parametrize("name, affine", [("three_patch_L", True), ("two_patch_skew", False)])
def test_affine_pullback_forms_det_once(monkeypatch, name, affine):
    # det G of an affine patch is one number, formed once per pullback and
    # compared at every evaluation; the skew patch forms it from each map jet
    from asg1kit import fields
    from asg1kit.geometry import _affine_jet

    mp = builtin_geometry(name, 8)
    patch, glue = mp.patches[1], recover_all(mp).for_patch(1)
    assert (_affine_jet(patch.gmap) is not None) == affine
    dets, evaluations = [], []
    det = fields.jacobian_det
    monkeypatch.setattr(fields, "jacobian_det", lambda *a: dets.append(1) or det(*a))
    u = pullback(manufactured("sinsin"), patch.gmap)
    bind = u._bind
    u._bind = lambda *a: evaluations.append(1) or bind(*a)
    p, k = 4, 2
    V = TensorSplineSpace(UniSplineSpace(p, k, patch.partitions[0]),
                          UniSplineSpace(p, k, patch.partitions[1]))
    tensor_project_Q(V, u)
    _edge_projections(u, patch.partitions, glue, p, k, None)
    assert len(evaluations) > 1
    assert len(dets) == (1 if affine else len(evaluations))


@pytest.mark.parametrize("name", sorted(BUILTIN_GEOMETRIES))
def test_affine_pullbacks_keep_every_bit_of_the_generic_path(monkeypatch, name):
    # global_project's coefficients and check_conformity's report with every
    # field, then again with every pullback on the generic path (a map jet
    # and the chain rule term by term), by sha1
    import hashlib
    import json

    from asg1kit import fields

    mp = builtin_geometry(name, 8)
    glue = recover_all(mp)

    def digests():
        out = []
        for f in sorted(MANUFACTURED):
            gp = global_project(mp, glue, manufactured(f), 4, 2)
            coefficients = b"".join(q.spline.coefficients.tobytes() for q in gp.patches)
            report = json.dumps(check_conformity(gp).to_json()).encode()
            out.append((hashlib.sha1(coefficients).hexdigest(),
                        hashlib.sha1(report).hexdigest()))
        return out

    affine = digests()
    monkeypatch.setattr(fields, "_affine_jet", lambda gmap: None)
    assert digests() == affine
