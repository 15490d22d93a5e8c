"""Evaluable scalar fields with mixed partial derivatives.

``ScalarField2D`` wraps a vectorized evaluator ``(x, y, dx, dy) -> value`` of
the partial derivative d1^dx d2^dy u.  The registry of manufactured functions
provides closed-form fields for convergence studies; ``pullback`` composes a
physical field with a geometry map, producing exact parametric derivatives by
a term-wise chain rule (the term lists are generated once per derivative
order and cached).  Each evaluation of a pullback takes one derivative jet of
the geometry map (see `geometry`), which supplies the mapped points, the
Jacobian determinant and every chain-rule factor; terms with a factor that
is identically zero for the map (absent from its jet) are skipped.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .geometry import EDGE_AXIS, NORMALS, TANGENTS, GeometryError, edge_coords

__all__ = [
    "ScalarField1D",
    "ScalarField2D",
    "ManufacturedFunction",
    "MANUFACTURED",
    "manufactured",
    "restrict_to_edge",
    "directional_edge_field",
    "pullback",
]


class ScalarField1D:
    """Scalar function on [0, 1] with derivatives up to ``max_order``."""

    def __init__(self, evaluator, max_order: int = 3):
        self._eval = evaluator
        self.max_order = max_order

    def __call__(self, x, d: int = 0):
        if d < 0 or d > self.max_order:
            raise ValueError(f"derivative order {d} outside 0..{self.max_order}")
        return self._eval(np.asarray(x, dtype=float), d)


class ScalarField2D:
    """Scalar function of two variables with mixed partials up to (3, 3)."""

    def __init__(self, evaluator, max_order: int = 3):
        self._eval = evaluator
        self.max_order = max_order

    def __call__(self, x, y, dx: int = 0, dy: int = 0):
        if min(dx, dy) < 0 or max(dx, dy) > self.max_order:
            raise ValueError(
                f"derivative orders ({dx},{dy}) outside 0..{self.max_order}"
            )
        return self._eval(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float), dx, dy
        )


@dataclass(frozen=True)
class ManufacturedFunction:
    name: str
    field: ScalarField2D


def _sin_product():
    def ev(x, y, dx, dy):
        return (
            np.pi ** (dx + dy)
            * np.sin(np.pi * x + dx * np.pi / 2)
            * np.sin(np.pi * y + dy * np.pi / 2)
        )

    return ScalarField2D(ev, max_order=8)


def _poly2d(coeffs):
    from numpy.polynomial import polynomial as P

    def ev(x, y, dx, dy):
        c = coeffs
        for _ in range(dx):
            c = P.polyder(c, axis=0)
        for _ in range(dy):
            c = P.polyder(c, axis=1)
        return P.polyval2d(*np.broadcast_arrays(x, y), c)

    return ScalarField2D(ev, max_order=8)


def _exp_xy():
    def ev(x, y, dx, dy):
        return 2.0 ** dy * np.exp(x + 2.0 * y)

    return ScalarField2D(ev, max_order=8)


# (x^2 + y^2)^2 = x^4 + 2 x^2 y^2 + y^4
_POLY4 = np.zeros((5, 5))
_POLY4[4, 0] = 1.0
_POLY4[2, 2] = 2.0
_POLY4[0, 4] = 1.0

MANUFACTURED: dict[str, ManufacturedFunction] = {
    "sinsin": ManufacturedFunction("sinsin", _sin_product()),
    "poly4": ManufacturedFunction("poly4", _poly2d(_POLY4)),
    "expxy": ManufacturedFunction("expxy", _exp_xy()),
}


def manufactured(name: str) -> ScalarField2D:
    try:
        return MANUFACTURED[name].field
    except KeyError:
        raise KeyError(
            f"unknown manufactured function '{name}'; "
            f"available: {sorted(MANUFACTURED)}"
        ) from None


# -- edge restrictions ---------------------------------------------------------


def restrict_to_edge(u: ScalarField2D, j: int) -> ScalarField1D:
    """Trace of ``u`` on side ``j`` in the side's intrinsic parameter."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"side index must be 1..4, got {j}")
    axis = EDGE_AXIS[j]

    def ev(t, d):
        x, y = edge_coords(j, t)
        return u(x, y, d, 0) if axis == 0 else u(x, y, 0, d)

    return ScalarField1D(ev, max_order=u.max_order)


def directional_edge_field(u: ScalarField2D, j: int, alpha, beta) -> ScalarField1D:
    """The crossing-direction derivative (n_j + beta t_j) . grad(u) / alpha
    along side ``j``, with tangential derivatives up to order 2.

    ``alpha`` and ``beta`` are linear functions of the edge parameter exposing
    ``__call__`` and a constant ``slope``; alpha must be positive on [0, 1].
    """
    if alpha(0.0) <= 0.0 or alpha(1.0) <= 0.0:
        raise ValueError("alpha must be strictly positive on [0, 1]")
    axis = EDGE_AXIS[j]
    n = NORMALS[j]
    tj = TANGENTS[j]

    def partial(t, m, direction):
        """m-th tangential derivative of direction . grad(u) on the edge."""
        x, y = edge_coords(j, t)
        if axis == 0:
            return direction[0] * u(x, y, m + 1, 0) + direction[1] * u(x, y, m, 1)
        return direction[0] * u(x, y, 1, m) + direction[1] * u(x, y, 0, m + 1)

    def ev(t, d):
        a = alpha(t)
        da = alpha.slope
        N0 = partial(t, 0, n) + beta(t) * partial(t, 0, tj)
        if d == 0:
            return N0 / a
        N1 = partial(t, 1, n) + beta.slope * partial(t, 0, tj) \
            + beta(t) * partial(t, 1, tj)
        if d == 1:
            return N1 / a - N0 * da / a ** 2
        N2 = partial(t, 2, n) + 2.0 * beta.slope * partial(t, 1, tj) \
            + beta(t) * partial(t, 2, tj)
        if d == 2:
            return N2 / a - 2.0 * N1 * da / a ** 2 + 2.0 * N0 * da ** 2 / a ** 3
        raise ValueError("directional edge fields support orders 0..2")

    return ScalarField1D(ev, max_order=2)


# -- pullback under a geometry map ------------------------------------------------
#
# A parametric derivative of u o G is a sum of terms
#     coef * (d^(m,n) u)(G) * prod_f (d^(c_f,d_f) G_{comp_f})
# generated by repeatedly applying the chain and product rules.  The term
# list depends only on the requested order (a, b) and is cached.  Every
# factor order of the list for (a, b) is at most (a, b) componentwise, so one
# geometry jet up to (a, b) holds all of them; a term whose factor order is
# absent from the jet (identically zero for the map, e.g. any order above 1
# of a bilinear map) is skipped.


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


def pullback(u: ScalarField2D, gmap) -> ScalarField2D:
    """The parametric field u o G with exact mixed partials.

    ``u`` is given in physical coordinates; the result is defined on the
    parameter square.  Requires the Jacobian determinant of ``G`` to be
    positive wherever evaluated (2-regularity); a `GeometryError` is raised
    otherwise.
    """

    def ev(x1, x2, a, b):
        jet = gmap.jet(x1, x2, max(a, 1), max(b, 1))
        d1, d2 = jet[1, 0], jet[0, 1]
        det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        if np.any(det <= 0.0):
            raise GeometryError(
                "geometry map has non-positive Jacobian determinant "
                f"(min {np.min(det):.3e}) at an evaluation point"
            )
        X, Y = jet[0, 0][..., 0], jet[0, 0][..., 1]
        uvals = {}
        out = 0.0
        for ((m, n), factors), coef in _composition_terms(a, b).items():
            if any(od not in jet for _, od in factors):
                continue
            if (m, n) not in uvals:
                uvals[m, n] = u(X, Y, m, n)
            acc = coef * uvals[m, n]
            for comp, od in factors:
                acc = acc * jet[od][..., comp]
            out = out + acc
        return out

    return ScalarField2D(ev, max_order=3)
