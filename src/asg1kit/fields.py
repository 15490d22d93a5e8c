"""Scalar fields of one and two variables, manufactured targets, pullbacks.

Fields of both kinds share one jet protocol: ``ScalarField2D.jet(x, y, c, d)``
returns ``(m, n) -> d1^m d2^n u`` at the points for m <= c, n <= d, and
``ScalarField1D.jet(x, top)`` returns ``d -> f^(d)(x)`` for d <= top.  Work
the orders share (the sines and cosines of ``sinsin``) is done once per jet;
each order is built on request and not kept.  Where a separable order's
factors are a column (N1, 1) and a row (1, N2), as at the mapped points of an
axis-aligned patch, it is one contiguous column-by-row kernel (`_product`).
A call is a one-order jet; a field given by an evaluator alone calls it once
per order asked for.

An `edge_jet` is one jet of u on the two sides along an edge axis at fixed
edge parameters, each order evaluated once for both sides and kept while it
lives, as an array with a row per side; the edge pass (`asg1`) reads its
data from it by index arrays, the crossing derivative through
`_crossing_orders`, the one form of it in the package.

``pullback`` composes a physical field with a geometry map by the chain
rule (term lists cached per derivative order) in one order loop; what is
decided once per map is where a call's map jet comes from.  On an affine map
(`geometry._affine_jet`: a bilinear parallelogram, such as every built-in
patch but the right one of ``two_patch_skew``) it is G(0, 0) + J xi, each
coordinate at the broadcast shape of the axes it depends on (a column and a
row on an axis-aligned patch), with the numbers of J as its orders (1, 0)
and (0, 1), and det G is formed once per map, so a pullback call takes no
geometry jet and det G <= 0 is one comparison.  On any other map it is one
geometry jet (see `geometry`), which supplies the mapped points, the
Jacobian determinant and every chain-rule factor, each at the broadcast
shape of the axes it depends on.  Either way a call takes one jet of the
physical field at the mapped points.  Terms with a factor that is
identically zero for the map (absent from its jet, or in ``gmap.zeros``)
are dropped once per order, jet orders and zeros, with the orders of u only
they read; terms are summed by their order of u, so one order array of u is
alive at a time, and a pullback value has the broadcast shape of its points.
"""

from __future__ import annotations

import functools
import operator
from collections import defaultdict

import numpy as np

from .geometry import (EDGE_AXIS, NORMALS, TANGENTS, GeometryError, _affine_jet,
                       _fold, block_points, jacobian_det)
from .splines import _BLOCK_POINTS

__all__ = [
    "ScalarField1D",
    "ScalarField2D",
    "MANUFACTURED",
    "manufactured",
    "edge_jet",
    "pullback",
]


class _JetField:
    """The jet protocol of fields of ``arity`` variables: ``jet(*points,
    *tops)`` returns ``(*orders) -> derivative`` at the points for orders up
    to the tops, and a call ``f(*points, *orders)`` is a one-order jet (tops
    and orders left out are 0).  A field given by an evaluator ``(*points,
    *orders) -> value`` alone calls it once per order it is asked for."""

    def __init__(self, evaluator, max_order: int = 3):
        self._eval = evaluator
        self.max_order = max_order

    def _bind(self, *args):
        """The order function at the points for orders up to the tops."""
        return functools.partial(self._eval, *args[:self.arity])

    def jet(self, *args):
        args += (0,) * (2 * self.arity - len(args))
        tops = args[self.arity:]
        if min(tops) < 0 or max(tops) > self.max_order:
            raise ValueError(f"derivative orders {tops} outside 0..{self.max_order}")
        order = self._bind(*(np.asarray(z, dtype=float) for z in args[:self.arity]),
                           *tops)

        def partial(*orders):
            if not all(0 <= m <= top for m, top in zip(orders, tops)):
                raise ValueError(f"order {orders} outside the jet up to {tops}")
            return order(*orders)

        return partial

    def __call__(self, *args):
        orders = args[self.arity:] + (0,) * (2 * self.arity - len(args))
        return self.jet(*args)(*orders)


class ScalarField1D(_JetField):
    """Scalar function on [0, 1] with derivatives up to ``max_order``:
    ``jet(x, top)``, ``f(x, d)``, evaluator ``(x, d) -> value``."""

    arity = 1


class ScalarField2D(_JetField):
    """Scalar function of two variables with mixed partials up to
    ``max_order`` in each variable: ``jet(x, y, c, d)``, ``f(x, y, dx, dy)``,
    evaluator ``(x, y, dx, dy) -> value``.  ``block_points`` is the most
    points a blocked caller (`tensor.data_matrix`) evaluates in one call; a
    pullback sets its own (`pullback`)."""

    arity = 2
    block_points = _BLOCK_POINTS


def _jet_field(bind, max_order: int):
    """The 2D field whose order functions come from ``bind``."""
    field = ScalarField2D(None, max_order)
    field._bind = bind
    return field


def _product(a, b):
    """a * b for the factors of a separable field's order.  Where a column
    (N1, 1) meets a row (1, N2) this is one contiguous column-by-row kernel,
    faster than the ufunc's broadcast and equal to it but for the sign of an
    exact zero."""
    if np.ndim(a) == np.ndim(b) == 2 and a.shape[1] == 1 and b.shape[0] == 1:
        return np.einsum("i,j->ij", a[:, 0], b[0])
    return a * b


def _sin_product():
    # d^m sin(pi z) = pi^m (-1)^(m // 2) (sin, cos)[m % 2](pi z)
    def bind(x, y, c, d):
        @functools.cache
        def trig(axis, odd):
            z = np.pi * (x, y)[axis]
            return np.cos(z) if odd else np.sin(z)

        def order(m, n):
            scale = (-1.0) ** (m // 2 + n // 2) * np.pi ** (m + n)
            return _product(scale * trig(0, m % 2), trig(1, n % 2))

        return order

    return _jet_field(bind, max_order=8)


def _poly2d(coeffs):
    from numpy.polynomial import polynomial as P

    @functools.cache
    def derivative(dx, dy):
        return P.polyder(P.polyder(coeffs, dx, axis=0), dy, axis=1)

    def bind(x, y, c, d):
        shape = np.broadcast_shapes(x.shape, y.shape)

        @functools.cache
        def power(axis, k):
            return (x, y)[axis] ** k

        def order(m, n):
            D = derivative(m, n)
            out = np.zeros(shape)
            for i, j in zip(*np.nonzero(D)):
                out += _product(D[i, j] * power(0, i), power(1, j))
            return out

        return order

    return _jet_field(bind, max_order=8)


def _exp_xy():
    def bind(x, y, c, d):
        value = np.exp(x + 2.0 * y)
        return lambda m, n: 2.0 ** n * value

    return _jet_field(bind, max_order=8)


# (x^2 + y^2)^2 = x^4 + 2 x^2 y^2 + y^4
_POLY4 = np.zeros((5, 5))
_POLY4[4, 0] = 1.0
_POLY4[2, 2] = 2.0
_POLY4[0, 4] = 1.0

MANUFACTURED: dict[str, ScalarField2D] = {
    "sinsin": _sin_product(),
    "poly4": _poly2d(_POLY4),
    "expxy": _exp_xy(),
}


def manufactured(name: str) -> ScalarField2D:
    try:
        return MANUFACTURED[name]
    except KeyError:
        raise KeyError(
            f"unknown manufactured function '{name}'; "
            f"available: {sorted(MANUFACTURED)}"
        ) from None


# -- edge jets -----------------------------------------------------------------


def _along(axis: int, tangential: int, normal: int) -> tuple[int, int]:
    """The (x1, x2) orders of derivatives along and across an edge of ``axis``."""
    return (tangential, normal) if axis == 0 else (normal, tangential)


def edge_jet(u: ScalarField2D, axis: int, t, top: int):
    """One jet of ``u`` on both sides along ``axis`` (sides 1 and 3 along
    xi1, sides 4 and 2 along xi2) at the edge parameters ``t``: tangential
    orders up to ``top`` and normal orders up to 1.  Returns ``(m, n) ->
    d1^m d2^n u`` as a (2, len(t)) array whose row e is the side at end e
    (`side_end`); each order is evaluated once, at every point of both
    sides, when it is first read, and kept while the jet lives."""
    t, ends = np.asarray(t, dtype=float), np.array([0.0, 1.0])
    if axis == 0:
        jet = u.jet(t[:, None], ends[None, :], top, 1)
        # a field's value may broadcast
        return functools.cache(lambda m, n: np.broadcast_to(jet(m, n), (t.size, 2)).T)
    jet = u.jet(ends[:, None], t[None, :], 1, top)
    return functools.cache(lambda m, n: np.broadcast_to(jet(m, n), (2, t.size)))


def _crossing_orders(jet, j: int, t, alpha, beta):
    """``d -> d``-th tangential derivative of (n_j + beta t_j) . grad(u) /
    alpha at the points ``t`` of side ``j``, from ``jet``, ``(m, n) -> d1^m
    d2^n u`` there up to order d + 1 along the side and 1 across; the one
    form of the crossing derivative in the package.  n_j and t_j are signed
    unit vectors across and along the side (`NORMALS`, `TANGENTS`), so each
    of their products with grad(u) reads one order of the jet.  ``alpha``
    and ``beta`` are linear functions a0 + a1 x of the edge parameter
    (`gluing.LinearFunction`); alpha must be positive on [0, 1]."""
    if alpha(0.0) <= 0.0 or alpha(1.0) <= 0.0:
        raise ValueError("alpha must be strictly positive on [0, 1]")
    axis = EDGE_AXIS[j]
    s_n, s_t = NORMALS[j][1 - axis], TANGENTS[j][axis]
    a, da = alpha(t), alpha.a1
    b, db = beta(t), beta.a1

    @functools.cache
    def grad(m):
        """m-th tangential derivatives of n_j . grad(u) and t_j . grad(u)."""
        return s_n * jet(*_along(axis, m, 1)), s_t * jet(*_along(axis, m + 1, 0))

    def order(d):
        n0, t0 = grad(0)
        N0 = n0 + b * t0
        if d == 0:
            return N0 / a
        n1, t1 = grad(1)
        N1 = n1 + db * t0 + b * t1
        if d == 1:
            return N1 / a - N0 * da / a ** 2
        n2, t2 = grad(2)
        N2 = n2 + 2.0 * db * t1 + b * t2
        return N2 / a - 2.0 * N1 * da / a ** 2 + 2.0 * N0 * da ** 2 / a ** 3

    return order


# -- pullback under a geometry map ------------------------------------------------
#
# A parametric derivative of u o G is a sum of terms
#     coef * (d^(m,n) u)(G) * prod_f (d^(c_f,d_f) G_{comp_f})
# generated by repeatedly applying the chain and product rules.  The term
# list depends only on the requested order (a, b) and is cached, grouped by
# the order (m, n) of u; every factor order is at most (a, b), so one
# geometry jet up to (a, b) holds all of them.  Terms with a factor that is
# zero for the map (absent from the jet, or in ``gmap.zeros``) are dropped
# once per order, jet orders and zeros (`_kept_terms`).  Each factor is a
# jet component at the broadcast shape of the axes it depends on (a number
# on an affine map, whose jet holds J's numbers and no higher order), so a
# u-order's products and their sum stay at those small shapes and meet the
# u-order, which spans the grid, in one multiply; only a term's first
# multiply, (coef * f_0), allocates, and later ones where broadcasting
# grows the product: the rest run in place, never in a jet's array.


@functools.lru_cache(maxsize=None)
def _composition_terms(a: int, b: int):
    if a == 0 and b == 0:
        return {((0, 0), ()): 1.0}
    if a > 0:
        prev = _composition_terms(a - 1, b)
        bump = (1, 0)
    else:
        prev = _composition_terms(a, b - 1)
        bump = (0, 1)
    out: dict = defaultdict(float)
    for ((m, n), factors), coef in prev.items():
        # chain rule on the outer function
        for comp, uo in ((0, (m + 1, n)), (1, (m, n + 1))):
            nf = tuple(sorted(factors + ((comp, bump),)))
            out[(uo, nf)] += coef
        # product rule on each geometry factor
        for idx, (comp, (c, d)) in enumerate(factors):
            nd = (c + bump[0], d + bump[1])
            nf = tuple(sorted(factors[:idx] + ((comp, nd),) + factors[idx + 1:]))
            out[((m, n), nf)] += coef
    return dict(out)


@functools.lru_cache(maxsize=None)
def _terms_by_u_order(a: int, b: int):
    """The terms of order (a, b) as ((m, n), ((coef, factors), ...)) pairs."""
    groups = defaultdict(list)
    for (uo, factors), coef in _composition_terms(a, b).items():
        groups[uo].append((coef, factors))
    return tuple((uo, tuple(terms)) for uo, terms in groups.items())


@functools.lru_cache(maxsize=1024)
def _kept_terms(a: int, b: int, present: frozenset, zeros: frozenset):
    """`_terms_by_u_order` of (a, b) without the terms with a factor that is
    zero for the map: an order not in ``present`` (the orders of its jet)
    or a pair in ``zeros``; u-orders left without terms are dropped."""
    out = []
    for uo, terms in _terms_by_u_order(a, b):
        kept = tuple((coef, factors) for coef, factors in terms
                     if all(od in present and (od, comp) not in zeros
                            for comp, od in factors))
        if kept:
            out.append((uo, kept))
    return tuple(out)


# The most points of one blocked call of a pullback on a curved map
# (`geometry.block_points`).  A call of order (2, 2) on a NURBS patch keeps
# about 48 arrays of its points alive (the homogeneous and rational map jets,
# 14 orders of the target and 46 chain-rule terms).  Traced peaks of one warm
# projection at p = 4 on 32 elements with calls of 2^15, 2^14 and 2^13
# points: 12.7, 6.5 and 3.4 MB on a NURBS patch, 7.8, 4.2 and 2.5 MB on two
# spline patches, in times within 5 % of each other.
_CURVED_CALL_POINTS = 1 << 13


def _folded(det) -> GeometryError:
    return GeometryError(
        "geometry map has non-positive Jacobian determinant "
        f"(min {np.min(det):.3e}) at an evaluation point"
    )


def pullback(u: ScalarField2D, gmap) -> ScalarField2D:
    """The parametric field u o G with exact mixed partials.

    ``u`` is given in physical coordinates; the result is defined on the
    parameter square.  Requires the Jacobian determinant of ``G`` to be
    positive wherever evaluated (2-regularity); a `GeometryError` is raised
    otherwise.  Its ``block_points`` are `geometry.block_points` of the map.
    Every map runs one order loop (`_bind`); only the source of its map
    jets (`_map_jets`) depends on whether the map is affine.
    """
    zeros = frozenset(getattr(gmap, "zeros", ()))
    field = _jet_field(_bind(u, _map_jets(gmap, zeros), zeros), max_order=3)
    field.block_points = block_points(gmap, _CURVED_CALL_POINTS)
    return field


def _map_jets(gmap, zeros):
    """The map jets of a pullback: ``(x1, x2, c, d) ->`` a jet of G up to
    (max(c, 1), max(d, 1)) at the points, or a `GeometryError` where det G
    <= 0 there.  On an affine G (`_affine_jet`) the jet is G(0, 0) + J xi,
    each coordinate at the broadcast shape of the axes it depends on, with
    J's numbers, and det G is formed once; on any other map it is one
    geometry jet, whose det G is formed per call."""
    affine = _affine_jet(gmap)
    if affine is None:
        def map_jet(x1, x2, c, d):
            jet = gmap.jet(x1, x2, max(c, 1), max(d, 1))
            det = jacobian_det(jet, zeros)
            if np.any(det <= 0.0):
                raise _folded(det)
            return jet

        return map_jet
    det = jacobian_det(affine, zeros)
    corner = [v[0] for v in gmap.corner_points()]  # G(0, 0)
    jacobian = (affine[1, 0], affine[0, 1])
    # coordinate i: its corner value plus a term per axis it depends on
    axes = [[(k, v[i]) for k, v in enumerate(jacobian) if v[i] != 0.0] for i in (0, 1)]

    def affine_jet(x1, x2, c, d):
        if det <= 0.0:
            raise _folded(det)
        points = [functools.reduce(operator.add, [(x1, x2)[k] * v for k, v in terms],
                                   corner[i]) for i, terms in enumerate(axes)]
        return {(0, 0): points, **affine}

    return affine_jet


def _bind(u: ScalarField2D, map_jets, zeros):
    """The order functions of u o G from one map jet per call (``map_jets``)
    and the chain-rule terms that are not zero for the map (`_kept_terms`)."""

    def bind(x1, x2, c, d):
        jet = map_jets(x1, x2, c, d)
        # an order (a, b) <= (c, d) reads orders m + n <= c + d of u
        top = min(c + d, u.max_order)
        ujet = u.jet(*jet[0, 0], top, top)
        shape = np.broadcast(x1, x2).shape
        present = frozenset(jet)

        def order(a, b):
            out = None
            for uo, terms in _kept_terms(a, b, present, zeros):
                group = None
                for coef, factors in terms:
                    acc = coef  # a float: the first multiply allocates
                    for comp, od in factors:
                        acc = _fold(operator.imul, acc, jet[od][comp])
                    group = acc if group is None else _fold(operator.iadd, group, acc)
                group = _fold(operator.imul, group, ujet(*uo))
                out = group if out is None else _fold(operator.iadd, out, group)
            return out if np.shape(out) == shape else np.broadcast_to(out, shape).copy()

        return order

    return bind
