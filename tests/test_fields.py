import numpy as np
import pytest
import sympy as sym
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from asg1kit.fields import (
    MANUFACTURED,
    ScalarField2D,
    _along,
    _crossing_orders,
    edge_jet,
    manufactured,
    pullback,
)
from asg1kit.geometry import (
    EDGE_AXIS,
    BilinearMap,
    NurbsMap,
    SplineMap,
    builtin_geometry,
    side_end,
)
from asg1kit.gluing import EdgeGluing, LinearFunction
from asg1kit.ritz1d import pi_cross_functionals, pi_star_functionals
from asg1kit.splines import UniSplineSpace, uniform_partition


def sympy_field(expr, x, y, max_order=6):
    """Build a ScalarField2D from a sympy expression (oracle route)."""
    table = {}
    for a in range(max_order + 1):
        for b in range(max_order + 1 - a):
            table[a, b] = sym.lambdify((x, y), sym.diff(expr, x, a, y, b), "numpy")

    def ev(xx, yy, dx, dy):
        return np.asarray(table[dx, dy](xx, yy), dtype=float) * np.ones(
            np.broadcast_shapes(np.shape(xx), np.shape(yy))
        )

    return ScalarField2D(ev, max_order=max_order)


# -- manufactured registry -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MANUFACTURED))
def test_manufactured_against_sympy(name):
    x, y = sym.symbols("x y")
    exprs = {
        "sinsin": sym.sin(sym.pi * x) * sym.sin(sym.pi * y),
        "poly4": (x ** 2 + y ** 2) ** 2,
        "expxy": sym.exp(x + 2 * y),
    }
    ref = sympy_field(exprs[name], x, y)
    u = manufactured(name)
    pts = np.linspace(0.05, 0.95, 7)
    X, Y = np.meshgrid(pts, pts)
    for a in range(4):
        for b in range(4):
            got = u(X, Y, a, b)
            want = ref(X, Y, a, b)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-11 * scale, (name, a, b)
            # a row x and a column y broadcast to the same grid
            assert np.array_equal(u(pts[None, :], pts[:, None], a, b), got)


def test_unknown_manufactured_name():
    with pytest.raises(KeyError):
        manufactured("nope")


def test_symmetric_mixed_partials():
    u = manufactured("sinsin")
    X, Y = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3)]:
        direct = u(X, Y, a, b)
        swapped = u.__call__(X, Y, a, b)  # same evaluator; symmetry is structural
        assert np.max(np.abs(direct - swapped)) <= 1e-10


# -- edge jets and crossing derivatives ------------------------------------------

def edge_side(u, j, t, top=3):
    """``(m, n) -> d1^m d2^n u`` at the points ``t`` of side ``j``: its row of
    the `edge_jet` of ``u`` along the side's axis."""
    jet = edge_jet(u, EDGE_AXIS[j], t, top)
    return lambda m, n: jet(m, n)[side_end(j)]


def edge_trace(u, j, t, d=0):
    """The d-th tangential derivative of the trace of ``u`` on side ``j``."""
    return edge_side(u, j, t)(*_along(EDGE_AXIS[j], d, 0))


def crossing(u, j, t, alpha, beta):
    """``d ->`` the crossing derivative of ``u`` on side ``j`` at ``t``."""
    t = np.asarray(t, dtype=float)
    return _crossing_orders(edge_side(u, j, t), j, t, alpha, beta)


def test_restrict_to_edge_zero_on_side1():
    x, y = sym.symbols("x y")
    u = sympy_field(y, x, y)
    t = np.linspace(0, 1, 11)
    assert np.max(np.abs(edge_trace(u, 1, t))) == 0.0


def test_restrict_to_edge_derivative():
    x, y = sym.symbols("x y")
    u = sympy_field(x ** 2, x, y)
    assert edge_trace(u, 1, [0.5], 1)[0] == pytest.approx(1.0, abs=1e-13)


def test_restrict_side3_second_derivative():
    x, y = sym.symbols("x y")
    u = sympy_field(sym.sin(x) * sym.cos(y), x, y)
    t = np.linspace(0, 1, 17)
    want = -np.sin(t) * np.cos(1.0)
    assert np.max(np.abs(edge_trace(u, 3, t, 2) - want)) <= 1e-12
    # the per-side oracle gives the same trace
    assert np.max(np.abs(oracles.restrict_to_edge(u, 3)(t, 2) - want)) <= 1e-12


def test_restrict_invalid_side():
    u = manufactured("sinsin")
    with pytest.raises(ValueError):
        oracles.restrict_to_edge(u, 5)
    # orders outside the edge jet's: normal order 2, tangential above top
    jet = edge_jet(u, 0, [0.5], 2)
    with pytest.raises(ValueError):
        jet(0, 2)
    with pytest.raises(ValueError):
        jet(3, 0)


def test_edge_restriction_commutes_with_tangential_derivative():
    u = manufactured("expxy")
    h = 1e-5
    t = np.linspace(0.1, 0.9, 21)
    for j in (1, 2, 3, 4):
        tr = edge_side(u, j, np.concatenate([t, t + h, t - h]))
        values, d1 = (tr(*_along(EDGE_AXIS[j], d, 0)) for d in (0, 1))
        fd = (values[21:42] - values[42:]) / (2 * h)
        assert np.max(np.abs(d1[:21] - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_directional_edge_field_boundary_case():
    # alpha = 1, beta = 0 on side 1: the field is n_1 . grad(u) = -d2 u.
    u = manufactured("sinsin")
    t = np.linspace(0, 1, 13)
    g = crossing(u, 1, t, LinearFunction(1.0, 0.0), LinearFunction(0.0, 0.0))
    assert np.max(np.abs(g(0) - (-u(t, np.zeros_like(t), 0, 1)))) <= 1e-13


def test_directional_edge_field_constant_alpha():
    x, y = sym.symbols("x y")
    u = sympy_field(3 * y, x, y)  # d2 u = 3
    t = np.linspace(0, 1, 9)
    g = crossing(u, 1, t, LinearFunction(2.0, 0.0), LinearFunction(0.0, 0.0))
    assert np.max(np.abs(g(0) - (-1.5))) <= 1e-13
    # on the linear fields x and y the field is the two components of the
    # crossing direction d_j = (n_j + beta t_j) / alpha
    cases = [  # side, alpha, beta, edge parameter, d_j there
        (1, LinearFunction(1, 0), LinearFunction(0, 0), 0.5, [0.0, -1.0]),
        (2, LinearFunction(2, 0), LinearFunction(0, 0), 0.5, [0.5, 0.0]),
        (1, LinearFunction(1, 1), LinearFunction(0, 1), 1.0, [-0.5, -0.5]),
    ]
    for j, alpha, beta, s, d in cases:
        got = [crossing(sympy_field(v, x, y), j, [s], alpha, beta)(0)[0] for v in (x, y)]
        np.testing.assert_allclose(got, d, atol=1e-15)


def test_directional_edge_field_against_sympy():
    x, y, s = sym.symbols("x y s")
    expr = x * y
    alpha = 1 + s
    beta = s
    # side 1: n=(0,-1), t=(-1,0): field = (-u_y - beta u_x)/alpha at (s, 0)
    u_y = sym.diff(expr, y).subs({x: s, y: 0})
    u_x = sym.diff(expr, x).subs({x: s, y: 0})
    gexpr = (-u_y - beta * u_x) / alpha
    refs = [sym.lambdify(s, sym.diff(gexpr, s, d), "numpy") for d in range(3)]

    u = sympy_field(expr, x, y)
    t = np.linspace(0, 1, 33)
    alpha, beta = LinearFunction(1.0, 1.0), LinearFunction(0.0, 1.0)
    g = crossing(u, 1, t, alpha, beta)
    oracle = oracles.directional_edge_field(u, 1, alpha, beta)
    for d in range(3):
        want = np.asarray(refs[d](t), dtype=float) * np.ones_like(t)
        assert np.max(np.abs(g(d) - want)) <= 1e-12, d
        assert np.max(np.abs(oracle(t, d) - want)) <= 1e-12, d


def test_directional_edge_field_rejects_zero_alpha():
    u = manufactured("sinsin")
    alpha, beta = LinearFunction(1.0, -1.0), LinearFunction(0.0, 0.0)
    with pytest.raises(ValueError):
        crossing(u, 1, [0.5], alpha, beta)
    with pytest.raises(ValueError):
        oracles.directional_edge_field(u, 1, alpha, beta)


# -- pullback ---------------------------------------------------------------------

def _identity_map():
    return BilinearMap(np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], float))


def test_pullback_identity():
    u = manufactured("sinsin")
    v = pullback(u, _identity_map())
    X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
    for a, b in [(0, 0), (1, 0), (0, 1), (2, 2)]:
        assert np.max(np.abs(v(X, Y, a, b) - u(X, Y, a, b))) <= 1e-12


def test_pullback_affine_gradient():
    # G affine with Jacobian J, u linear with gradient g: parametric gradient J^T g
    corners = np.array([[[0.2, -0.1], [0.7, 0.9]], [[1.2, 0.1], [1.7, 1.1]]])
    gmap = BilinearMap(corners)
    x, y = sym.symbols("x y")
    u = sympy_field(3 * x - 2 * y, x, y)
    v = pullback(u, gmap)
    J = np.stack([gmap.derivative(0.3, 0.4, 1, 0), gmap.derivative(0.3, 0.4, 0, 1)], axis=-1)
    g = np.array([3.0, -2.0])
    want = J.T @ g
    got = np.array([float(v(np.array(0.3), np.array(0.4), 1, 0)),
                    float(v(np.array(0.3), np.array(0.4), 0, 1))])
    assert np.max(np.abs(got - want)) <= 1e-13


def test_pullback_mixed_partial_matches_finite_differences():
    corners = np.array([[[0, 0], [0.2, 1.1]], [[1, -0.1], [1.3, 1.0]]])
    gmap = BilinearMap(corners)
    x, y = sym.symbols("x y")
    u = sympy_field(x ** 2 * y, x, y)
    v = pullback(u, gmap)
    h = 1e-4
    pt = (0.3, 0.7)

    def val(a, b):
        return float(v(np.array(a), np.array(b)))

    fd = (val(pt[0] + h, pt[1] + h) - val(pt[0] - h, pt[1] + h)
          - val(pt[0] + h, pt[1] - h) + val(pt[0] - h, pt[1] - h)) / (4 * h * h)
    got = float(v(np.array(pt[0]), np.array(pt[1]), 1, 1))
    assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("orders", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_pullback_chain_rule_consistency(orders):
    corners = np.array([[[0, 0], [0.1, 1.0]], [[1.2, 0.05], [1.1, 1.2]]])
    gmap = BilinearMap(corners)
    u = manufactured("sinsin")
    v = pullback(u, gmap)
    a, b = orders
    h = 1e-4
    pts = np.linspace(0.2, 0.8, 4)
    X, Y = np.meshgrid(pts, pts)
    got = v(X, Y, a, b)
    if (a, b) == (1, 0):
        fd = (v(X + h, Y) - v(X - h, Y)) / (2 * h)
    elif (a, b) == (0, 1):
        fd = (v(X, Y + h) - v(X, Y - h)) / (2 * h)
    elif (a, b) == (2, 0):
        fd = (v(X + h, Y) - 2 * v(X, Y) + v(X - h, Y)) / h ** 2
    elif (a, b) == (0, 2):
        fd = (v(X, Y + h) - 2 * v(X, Y) + v(X, Y - h)) / h ** 2
    else:
        fd = (v(X + h, Y + h) - v(X - h, Y + h) - v(X + h, Y - h)
              + v(X - h, Y - h)) / (4 * h * h)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(got - fd)) <= 1e-6 * scale


def test_pullback_deep_mixed_partials_spline_map():
    # quadratic spline geometry; compare (2,2) pullback against sympy composite
    Z = uniform_partition(1)
    S = UniSplineSpace(2, 1, Z)
    # control grid perturbed from identity-ish
    gx = np.array([[0.0, 0.0, 0.0], [0.55, 0.6, 0.5], [1.0, 1.0, 1.0]])
    gy = np.array([[0.0, 0.5, 1.0], [0.05, 0.45, 1.05], [0.0, 0.5, 1.0]])
    gmap = SplineMap(S, S, np.stack([gx, gy], axis=-1))

    x1, x2, x, y = sym.symbols("x1 x2 x y")
    bern = [(1 - x1) ** 2, 2 * x1 * (1 - x1), x1 ** 2]
    bern2 = [(1 - x2) ** 2, 2 * x2 * (1 - x2), x2 ** 2]
    Gx = sum(gx[i, j] * bern[i] * bern2[j] for i in range(3) for j in range(3))
    Gy = sum(gy[i, j] * bern[i] * bern2[j] for i in range(3) for j in range(3))
    expr = sym.sin(x) * sym.exp(y)
    comp = expr.subs({x: Gx, y: Gy})
    ref = sym.lambdify((x1, x2), sym.diff(comp, x1, 2, x2, 2), "numpy")

    u = sympy_field(expr, x, y)
    v = pullback(u, gmap)
    pts = np.linspace(0.1, 0.9, 5)
    X, Y = np.meshgrid(pts, pts)
    want = ref(X, Y)
    got = v(X, Y, 2, 2)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_pullback_detects_folded_map():
    # coincident corners fold the patch
    corners = np.array([[[0, 0], [0, 1]], [[0, 0], [1, 1]]], float)
    gmap = BilinearMap(corners)
    u = manufactured("sinsin")
    v = pullback(u, gmap)
    X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    with pytest.raises(ValueError):
        v(X, Y)


def test_pullback_takes_one_jet_per_evaluation(monkeypatch):
    S = UniSplineSpace(3, 2, uniform_partition(2))
    g = np.linspace(0.0, 1.0, S.dim)
    ctrl = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    ctrl[2, 2] += (0.03, -0.02)
    calls = {"jet": 0, "derivative": 0, "point": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(SplineMap, name), **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(SplineMap, name, counted)
    v = pullback(manufactured("expxy"), SplineMap(S, S, ctrl))
    x = np.linspace(0.1, 0.9, 4)
    v(x[:, None], x[None, :], 2, 2)
    assert calls == {"jet": 1, "derivative": 0, "point": 0}


def test_axis_aligned_patch_passes_the_target_broadcast_points():
    # on a three_patch_L patch x depends on x1 alone and y on x2 alone, so
    # the target of a pullback and of the norms sees the N1 + N2 points of
    # a column and a row, never the N1 x N2 grid
    from asg1kit.norms import physical_error_norms
    from asg1kit.splines import gauss_rule
    from asg1kit.tensor import TensorSpline, TensorSplineSpace

    patch = builtin_geometry("three_patch_L", 4).patches[1]
    u = manufactured("sinsin")
    shapes = []

    def recording(x, y, a, b):
        shapes.append((np.shape(x), np.shape(y)))
        return u(x, y, a, b)

    rec = ScalarField2D(recording, max_order=u.max_order)
    s1, s2 = np.linspace(0.1, 0.9, 7), np.linspace(0.1, 0.9, 5)
    got = pullback(rec, patch.gmap)(s1[:, None], s2[None, :], 2, 2)
    assert set(shapes) == {((7, 1), (1, 5))}
    X1, X2 = np.meshgrid(s1, s2, indexing="ij")
    want = pullback(u, patch.gmap)(X1, X2, 2, 2)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))

    shapes.clear()
    S = UniSplineSpace(3, 1, patch.partitions[0])
    zero = TensorSpline(TensorSplineSpace(S, S), np.zeros((S.dim, S.dim)))
    nq = 5
    physical_error_norms(patch, rec, zero, nq=nq)
    n1 = len(gauss_rule(patch.partitions[0], nq)[0])
    n2 = len(gauss_rule(patch.partitions[1], nq)[0])
    assert set(shapes) == {((n1, 1), (1, n2))}


def test_nurbs_pullback_consistency():
    Z = uniform_partition(1)
    S = UniSplineSpace(2, 1, Z)
    rng = np.random.default_rng(1)
    ctrl = np.stack(
        [np.outer(np.array([0, 0.5, 1.0]), np.ones(3)),
         np.outer(np.ones(3), np.array([0, 0.5, 1.0]))], axis=-1
    ) + 0.03 * rng.standard_normal((3, 3, 2))
    w = 1.0 + 0.2 * rng.random((3, 3))
    gmap = NurbsMap(S, S, ctrl, w)
    u = manufactured("expxy")
    v = pullback(u, gmap)
    h = 1e-4
    pts = np.linspace(0.2, 0.8, 3)
    X, Y = np.meshgrid(pts, pts)
    fd = (v(X + h, Y) - v(X - h, Y)) / (2 * h)
    got = v(X, Y, 1, 0)
    assert np.max(np.abs(got - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


# -- bound jets --------------------------------------------------------------------

def _jet_points():
    rng = np.random.default_rng(3)
    scattered = (rng.random(30), rng.random(30))
    grid = (np.linspace(0.0, 1.0, 7)[:, None], np.array([[0.0, 0.13, 0.5, 1.0]]))
    return scattered, grid


@pytest.mark.parametrize("name", sorted(MANUFACTURED))
def test_manufactured_jet_matches_one_order(name):
    u = manufactured(name)
    for x, y in _jet_points():
        jet = u.jet(x, y, 8, 8)
        for m in range(9):
            for n in range(9):
                got, want = jet(m, n), u(x, y, m, n)
                assert got.shape == want.shape == np.broadcast_shapes(x.shape, y.shape)
                scale = float(np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (m, n)
                if name == "sinsin":
                    # the closed form with the phase m pi / 2 in the argument
                    phased = (np.pi ** (m + n) * np.sin(np.pi * x + m * np.pi / 2)
                              * np.sin(np.pi * y + n * np.pi / 2))
                    assert np.max(np.abs(got - phased)) <= 1e-14 * np.pi ** (m + n)


def test_sinsin_jet_takes_one_sine_and_cosine_per_axis(monkeypatch):
    calls = {"sin": 0, "cos": 0}
    for name in calls:
        def counted(z, _name=name, _fn=getattr(np, name)):
            calls[_name] += 1
            return _fn(z)
        monkeypatch.setattr(np, name, counted)
    x, y = _jet_points()[1]
    jet = manufactured("sinsin").jet(x, y, 2, 2)
    for m in range(3):
        for n in range(3):
            jet(m, n)
    assert calls == {"sin": 2, "cos": 2}


def test_jet_rejects_orders_outside_its_bounds():
    u = manufactured("expxy")
    jet = u.jet(np.zeros(3), np.zeros(3), 2, 1)
    with pytest.raises(ValueError):
        jet(0, 2)
    with pytest.raises(ValueError):
        u.jet(np.zeros(3), np.zeros(3), 9, 0)


def test_evaluator_only_1d_field_is_called_once_per_order_asked_for():
    # the data of the 1D functionals read a function (x, d) -> values once
    # per order, at the points of that order only
    calls = []

    def ev(x, d):
        calls.append((d, x.size))
        return np.exp(x)

    funcs = pi_star_functionals(4, 1, uniform_partition(6))
    oracles.data_vector(funcs, ev)
    orders = np.asarray(funcs.orders)
    assert calls == [(d, int(np.sum(orders == d))) for d in (0, 1, 2)]


def _geometry_maps():
    from test_geometry import _jet_maps

    return _jet_maps()


@pytest.mark.parametrize("kind", ["bilinear", "spline", "nurbs"])
def test_pullback_jet_matches_one_order(kind):
    v = pullback(manufactured("sinsin"), _geometry_maps()[kind])
    for x, y in _jet_points():
        x = 0.05 + 0.9 * x  # strictly inside, where every map is regular
        jet = v.jet(x, y, 3, 3)
        for a in range(4):
            for b in range(4):
                got, want = jet(a, b), v(x, y, a, b)
                assert got.shape == want.shape
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (a, b)


def _read_only(arr):
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


class _ReadOnlyJets:
    """A geometry map whose jet arrays raise on any write."""

    def __init__(self, gmap):
        self.gmap = gmap

    def jet(self, *args, **kwargs):
        return {od: tuple(map(_read_only, v))
                for od, v in self.gmap.jet(*args, **kwargs).items()}


@pytest.mark.parametrize("kind", ["bilinear", "spline", "nurbs"])
def test_in_place_pullback_leaves_the_jets_intact(kind):
    # the chain-rule sums run in place; the geometry jet and the target's
    # orders are read-only here, so a write into either raises
    u = manufactured("sinsin")
    ro_u = ScalarField2D(lambda x, y, a, b: _read_only(u(x, y, a, b)),
                         max_order=u.max_order)
    gmap = _geometry_maps()[kind]
    v = pullback(ro_u, _ReadOnlyJets(gmap))
    x, y = _jet_points()[1]
    x = 0.05 + 0.9 * x
    orders = [(a, b) for a in range(4) for b in range(4)]
    jet = v.jet(x, y, 3, 3)
    first = {ab: jet(*ab) for ab in orders}
    for ab in orders[::-1]:
        again = jet(*ab)
        assert again is not first[ab]
        assert np.array_equal(again, first[ab]), ab
        assert np.array_equal(again, v(x, y, *ab)), ab
    G = gmap.point(x, y)
    assert np.array_equal(first[0, 0], u(G[..., 0], G[..., 1]))


@pytest.mark.parametrize("name", sorted(MANUFACTURED))
def test_evaluator_only_field_gives_the_same_jet(name):
    # the form in which an outside wrapper rebuilds a field
    u = manufactured(name)
    w = ScalarField2D(lambda x, y, a, b: u(x, y, a, b), max_order=u.max_order)
    gmap = _geometry_maps()["spline"]
    x, y = _jet_points()[1]
    for f, g in ((u, w), (pullback(u, gmap), pullback(w, gmap))):
        jf, jg = f.jet(x, y, 3, 3), g.jet(x, y, 3, 3)
        for m in range(4):
            for n in range(4):
                assert np.array_equal(jf(m, n), jg(m, n)), (m, n)


def _count_spline_map_calls(monkeypatch):
    calls = {"jet": 0, "derivative": 0, "point": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(SplineMap, name), **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(SplineMap, name, counted)
    return calls


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_directional_edge_field_takes_one_jet(monkeypatch, j):
    # the crossing data of side j of every order come from one edge jet,
    # which takes one map jet on a spline patch
    gmap = _geometry_maps()["spline"]
    calls = _count_spline_map_calls(monkeypatch)
    t = np.linspace(0.0, 1.0, 9)
    g = crossing(pullback(manufactured("expxy"), gmap), j, t,
                 LinearFunction(1.0, 0.5), LinearFunction(0.2, -0.3))
    for d in (2, 1, 0):
        g(d)
    assert calls == {"jet": 1, "derivative": 0, "point": 0}


# (p, k) of the edge pass and the order sigma of the edge data checked
_EDGE_APPLICATIONS = {
    # p = 4: the order-2 projection with bubble corrections; p = 6: order 3
    "pi_star_p4": (4, 1, 0),
    "pi_star_p6": (6, 2, 0),
    # p = 3: the Hermite-constrained L2 projection; p = 6: order-2 Ritz
    "pi_cross_p3": (3, 1, 1),
    "pi_cross_p6": (6, 2, 1),
}


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(_EDGE_APPLICATIONS))
def test_edge_functionals_take_one_map_jet_per_application(monkeypatch, case, j):
    # one edge pass on a spline patch takes one map jet per edge axis; a
    # field given by an evaluator alone (as an outside wrapper rebuilds a
    # pullback) is called once per (x1, x2) order the pass reads along each
    # axis; and the data of side j under the case's functionals are the
    # per-side field's, each order at its own points
    from asg1kit import asg1
    from test_asg1 import _record_edge_projections, _within_roundoff

    p, k, sigma = _EDGE_APPLICATIONS[case]
    Z = uniform_partition(8)
    v = pullback(manufactured("sinsin"), _geometry_maps()["spline"])
    glue = {i: EdgeGluing(LinearFunction(1.0, 0.5), LinearFunction(0.2, -0.3))
            for i in (1, 2, 3, 4)}
    calls = _count_spline_map_calls(monkeypatch)
    seen = _record_edge_projections(monkeypatch)
    asg1._edge_projections(v, (Z, Z), glue, p, k, None)
    assert calls == {"jet": 2, "derivative": 0, "point": 0}
    if sigma == 0:
        f, c = seen["P0"][j - 1]
        data = oracles.data_vector(f, oracles.restrict_to_edge(v, j))
    else:
        (f, c), = [(f, c) for i, f, c in seen["P1"] if i == j]
        data = oracles.data_vector(f, oracles.directional_edge_field(
            v, j, glue[j].alpha, glue[j].beta))
    assert _within_roundoff(f, c, data)

    reads = []

    def ev(x, y, a, b):
        reads.append((0 if np.shape(y) == (1, 2) else 1, (a, b)))  # by its points
        return v(x, y, a, b)

    asg1._edge_projections(ScalarField2D(ev, v.max_order), (Z, Z), glue, p, k, None)
    axis = EDGE_AXIS[j]
    f0, f1 = pi_star_functionals(p, k, Z), pi_cross_functionals(p, k, Z)
    want = {_along(axis, d, 0) for d in f0.orders} | {
        od for m in range(max(f1.orders) + 1)
        for od in (_along(axis, m, 1), _along(axis, m + 1, 0))}
    orders = [ab for a, ab in reads if a == axis]
    assert len(orders) == len(set(orders))
    assert set(orders) == want


@pytest.mark.parametrize("points", ["grid", "scattered"])
def test_axis_aligned_pullback_reads_one_order_of_u(points):
    # on G = (x0 + h1 x1, y0 + h2 x2) every chain-rule term with a factor
    # d2 G_x, d1 G_y or an order above 1 is an exact zero and is dropped,
    # so order (a, b) of u o G is h1^a h2^b (d^(a,b) u) o G, one u-order
    h1, h2 = 2.0, 0.5  # powers of two: the scaling is exact
    gmap = BilinearMap([[(-1.0, 0.25), (-1.0, 0.75)], [(1.0, 0.25), (1.0, 0.75)]])
    assert gmap.zeros == {((1, 0), 1), ((0, 1), 0), ((1, 1), 0), ((1, 1), 1)}
    u = manufactured("sinsin")
    seen = []

    def ev(x, y, m, n):
        seen.append(((m, n), x, y))
        return u(x, y, m, n)

    v = pullback(ScalarField2D(ev, max_order=u.max_order), gmap)
    s = np.linspace(0.0, 1.0, 7)
    x1, x2 = (s[:, None], s[None, :5]) if points == "grid" else (s, s[::-1])
    for a in range(4):
        for b in range(4):
            seen.clear()
            got = v(x1, x2, a, b)
            assert [uo for uo, _, _ in seen] == [(a, b)]
            _, X, Y = seen[0]
            want = h1 ** a * h2 ** b * u(X, Y, a, b)
            assert got.shape == np.broadcast_shapes(x1.shape, x2.shape)
            assert np.array_equal(got, np.broadcast_to(want, got.shape)), (a, b)


# c00, e1 = d1 G and e2 = d2 G of a skewed parallelogram: every chain-rule
# factor of its pullback is a nonzero number, so each order reads every
# order of u of its total degree
_PARALLELOGRAM = ((0.1, -0.375), (1.125, 0.25), (-0.25, 0.875))


def _parallelogram(c00, e1, e2):
    c00, e1, e2 = (np.asarray(v, dtype=float) for v in (c00, e1, e2))
    return BilinearMap([[c00, c00 + e2], [c00 + e1, c00 + e1 + e2]])


def _assert_affine_path_matches_generic(gmap, name, points, terms_scale=False):
    # the wrapper has no dependence table, so its pullback takes a map jet
    # and the chain rule term by term.  The bound is 1e-13 of the order's
    # largest value, or with ``terms_scale`` of the largest sum of the sizes
    # of its terms, |e1|_1^a |e2|_1^b max |d^uo u| over the uo of degree
    # a + b, which bounds it: where the terms cancel, the round-off of the
    # mapped points (G(0, 0) + J xi against the map's contraction) is
    # amplified by as much as the terms exceed the value
    from asg1kit.geometry import _affine_jet

    jacobian = _affine_jet(gmap)
    assert jacobian is not None
    u = manufactured(name)
    affine = pullback(u, gmap).jet(*points, 3, 3)
    generic = pullback(u, _ReadOnlyJets(gmap)).jet(*points, 3, 3)
    G = gmap.point(*points)
    norm1, norm2 = (sum(map(abs, jacobian[ab])) for ab in ((1, 0), (0, 1)))
    for a in range(4):
        for b in range(4):
            got, want = affine(a, b), generic(a, b)
            assert got.shape == want.shape == np.broadcast_shapes(*map(np.shape, points))
            scale = np.max(np.abs(want))
            if terms_scale:
                scale = norm1 ** a * norm2 ** b * max(
                    np.max(np.abs(u(G[..., 0], G[..., 1], m, a + b - m)))
                    for m in range(a + b + 1))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (a, b)


@pytest.mark.parametrize("points", ["grid", "scattered"])
@pytest.mark.parametrize("name", sorted(MANUFACTURED))
def test_affine_pullback_matches_the_generic_path(name, points):
    scattered, grid = _jet_points()
    _assert_affine_path_matches_generic(_parallelogram(*_PARALLELOGRAM), name,
                                        grid if points == "grid" else scattered)


_dyadic = st.integers(-16, 16).map(lambda k: k / 8.0)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.tuples(*[_dyadic] * 6), st.sampled_from(sorted(MANUFACTURED)),
       st.sampled_from(["grid", "scattered"]))
def test_affine_pullback_matches_the_generic_path_on_dyadic_parallelograms(
        entries, name, points):
    # bounded by the size of the terms: expxy is constant along (2, -1), so
    # on a side near that direction its orders cancel to round-off
    e1, e2 = entries[2:4], entries[4:]
    assume(e1[0] * e2[1] - e1[1] * e2[0] > 0.0)
    scattered, grid = _jet_points()
    _assert_affine_path_matches_generic(_parallelogram(entries[:2], e1, e2), name,
                                        grid if points == "grid" else scattered,
                                        terms_scale=True)


def test_affine_pullback_maps_points_at_the_shapes_of_their_axes():
    # G(0, 0) + J xi: on an axis-aligned patch x depends on x1 alone and y
    # on x2 alone, a column and a row of the grid; a skewed one spans it
    seen = []

    def ev(x, y, m, n):
        seen.append((np.shape(x), np.shape(y)))
        return manufactured("sinsin")(x, y, m, n)

    u = ScalarField2D(ev, max_order=8)
    x1, x2 = np.linspace(0.0, 1.0, 7)[:, None], np.linspace(0.0, 1.0, 5)[None, :]
    aligned = BilinearMap([[(-1.0, 0.25), (-1.0, 0.75)], [(1.0, 0.25), (1.0, 0.75)]])
    for gmap, shapes in ((aligned, ((7, 1), (1, 5))),
                         (_parallelogram(*_PARALLELOGRAM), ((7, 5), (7, 5)))):
        seen.clear()
        pullback(u, gmap)(x1, x2, 1, 1)
        assert set(seen) == {shapes}


def test_mirrored_affine_pullback_raises():
    # det G = -1 everywhere: one comparison per evaluation finds it
    from asg1kit.geometry import GeometryError

    mirrored = BilinearMap([[(1.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (0.0, 1.0)]])
    v = pullback(manufactured("sinsin"), mirrored)
    for x1, x2 in _jet_points():
        with pytest.raises(GeometryError, match="non-positive Jacobian determinant"):
            v(x1, x2)
