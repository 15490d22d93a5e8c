"""Univariate Ritz-type projectors with endpoint interpolation.

The order-r projector onto S_{p,k,Z} (r <= k+1) is realized recursively:
the base case r=0 is the L2 projection, and

    P^(r) u = u(0) + integral of P^(r-1)(u')  from 0.

This makes the defining properties structural: the r-th derivative of the
projection is the L2 projection of the r-th derivative (H^r-orthogonality),
derivatives up to r-1 are interpolated at 0, and for p >= 2r-1 also at 1.

Every projector is stored as a matrix acting on a fixed data vector of point
evaluations ``(order_m, point_m)`` of the input: the r endpoint derivatives
at 0 followed by the r-th derivative at the Gauss nodes, read from one jet of
the input at all the points.  This makes the later tensor-product nesting a
pair of matrix products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .splines import (
    Partition,
    UniSpline,
    UniSplineSpace,
    embed,
    eval_operator,
    gauss_rule,
    integrate,
    knot_vector,
    l2_projection_matrix,
    reverse,
)

__all__ = [
    "PointFunctionals",
    "ritz_functionals",
    "constrained_l2_functionals",
    "pi_cross_functionals",
    "bubble_breakpoints",
    "bubble",
    "pi_star_functionals",
]

DEFAULT_EXTRA_NODES = 2


def default_quadrature_nodes(degree: int) -> int:
    return degree + DEFAULT_EXTRA_NODES


@dataclass(frozen=True)
class PointFunctionals:
    """A linear map from point-evaluation data of a function to coefficients.

    ``apply(field)`` evaluates ``field(points[m], orders[m])`` and returns the
    spline with coefficients ``matrix @ data``.
    """

    space: UniSplineSpace
    orders: tuple[int, ...]
    points: tuple[float, ...]
    matrix: np.ndarray

    def data_vector(self, field) -> np.ndarray:
        """The data ``field(points[m], orders[m])`` from one jet of ``field``
        at all the points, each order read at its own points; a field given
        by its evaluator alone is called with all the points once per order."""
        orders = np.asarray(self.orders)
        jet = field.jet(np.asarray(self.points), max(self.orders))
        data = np.empty(len(orders))
        for d in sorted(set(self.orders)):
            data[orders == d] = jet(d)[orders == d]
        return data

    def apply(self, field) -> UniSpline:
        return UniSpline(self.space, self.matrix @ self.data_vector(field))

    def endpoint_row(self, x: float, d: int) -> np.ndarray:
        """The functional row of (d-th derivative of the projection)(x)."""
        E = eval_operator(self.space, np.array([x]), d)
        return (E @ self.matrix)[0]


@functools.lru_cache(maxsize=None)
def ritz_functionals(space: UniSplineSpace, r: int, nq: int | None = None
                     ) -> PointFunctionals:
    """The order-r Ritz projector onto ``space`` in functional-matrix form."""
    p, k = space.degree, space.smoothness
    if not 0 <= r <= k + 1:
        raise ValueError(f"need 0 <= r <= k+1, got r={r}, k={k}")
    if r > p:
        raise ValueError(f"need r <= p, got r={r}, p={p}")
    if nq is None:
        nq = default_quadrature_nodes(p)
    x, _ = gauss_rule(space.partition, nq)
    matrix = l2_projection_matrix(UniSplineSpace(p - r, k - r, space.partition), nq)
    for m in range(r):
        sp = UniSplineSpace(p - r + m, k - r + m, space.partition)
        matrix = np.hstack([np.ones((sp.dim + 1, 1)), integrate(sp, matrix)])
    orders = tuple(range(r)) + (r,) * x.size
    points = (0.0,) * r + tuple(x)
    return PointFunctionals(space, orders, points, matrix)


# -- endpoint-constrained L2 projector -----------------------------------------


@functools.lru_cache(maxsize=None)
def constrained_l2_functionals(space: UniSplineSpace, nq: int | None = None
                               ) -> PointFunctionals:
    """L2 projection subject to Hermite data (value and first derivative) at
    both endpoints, in functional-matrix form.

    Unlike the order-2 Ritz projector this stays L2-optimal and interpolates
    at both ends for any degree >= 2, and it commutes with reversal of the
    parameter; it serves as the crossing-derivative projector when the spline
    degree is too low for the Ritz construction's right-endpoint property.
    """
    p = space.degree
    if p < 2 or space.smoothness < 1:
        raise ValueError("constrained projection needs p >= 2 and k >= 1")
    if nq is None:
        nq = default_quadrature_nodes(p)
    x, w = gauss_rule(space.partition, nq)
    B = eval_operator(space, x)
    G = B.T @ (w[:, None] * B)
    ends = np.array([0.0, 1.0])
    E = np.vstack([eval_operator(space, ends, 0), eval_operator(space, ends, 1)])
    m = space.dim
    K = np.zeros((m + 4, m + 4))
    K[:m, :m] = 2.0 * G
    K[:m, m:] = E.T
    K[m:, :m] = E
    # right-hand side: 2 B^T diag(w) for the samples, identity for the data
    R = np.zeros((m + 4, x.size + 4))
    R[:m, :x.size] = 2.0 * B.T * w[None, :]
    R[m:, x.size:] = np.eye(4)
    matrix = np.linalg.solve(K, R)[:m]
    orders = (0,) * x.size + (0, 0, 1, 1)
    points = tuple(x) + (0.0, 1.0, 0.0, 1.0)
    return PointFunctionals(space, orders, points, matrix)


def pi_cross_functionals(p: int, k: int, partition: Partition,
                         nq: int | None = None) -> PointFunctionals:
    """The crossing-derivative edge projector onto S_{p-1,k,Z}.

    For p >= 4 this is the order-2 Ritz projector of degree p-1.  At p = 3
    that projector (degree 2) neither interpolates at the right endpoint nor
    attains the optimal L2 order, so the Hermite-constrained L2 projection is
    used instead; it has both properties and the same endpoint contract.
    """
    space = UniSplineSpace(p - 1, k, partition)
    if p >= 4:
        return ritz_functionals(space, 2, nq)
    return constrained_l2_functionals(space, nq)


# -- boundary bubbles ---------------------------------------------------------


def bubble_breakpoints(p: int, partition: Partition) -> tuple[float, float, float]:
    """The breakpoints eta_1 < eta_2 < eta_3 of the degree-p bubbles at 0:
    eta_l is the first breakpoint >= 4*l*p*h/9, so eta_3 needs a breakpoint
    >= 4*p*h/3 (h <= 3/(4p) on uniform partitions).  Raises ValueError when
    the partition is too coarse or two of them coincide."""
    h = partition.grid_size
    eta = []
    for ell in (1, 2, 3):
        threshold = 4.0 * ell * p * h / 9.0
        z = next((z for z in partition.breakpoints if z >= threshold - 1e-14), None)
        if z is None:
            raise ValueError(
                f"no breakpoint >= {threshold:.6g}; the partition is too coarse "
                f"for the degree-{p} boundary bubble construction"
            )
        eta.append(z)
    if len(set(eta)) != 3:
        raise ValueError(f"bubble breakpoints coincide: {tuple(eta)}")
    return tuple(eta)


def _truncated_power_coefficients(space: UniSplineSpace, eta) -> np.ndarray:
    """Coefficients of max(0, 1 - x/eta)^p in S_{p,p-1,Z} for eta in Z.

    By Marsden's identity the coefficient of B_j is the product of
    (1 - t_{j+m}/eta) over the interior knot window; windows starting at or
    beyond eta belong to the zero piece.  Products are accumulated in
    extended precision so the huge endpoint-derivative cancellations survive
    the final rounding.
    """
    p = space.degree
    t = np.asarray(knot_vector(space), dtype=np.longdouble)
    eta = np.longdouble(eta)
    c = np.zeros(space.dim, dtype=np.longdouble)
    for j in range(space.dim):
        window = t[j + 1:j + p + 1]
        if window[0] < eta - np.longdouble(1e-14):
            c[j] = np.prod(1.0 - window / eta)
    return c


@functools.lru_cache(maxsize=None)
def bubble(p: int, partition: Partition, s: int) -> UniSpline:
    """The localized boundary spline in S_{p,p-1,Z} whose derivatives of
    orders 0..2 are delta(s, t) at 0 and zero at 1.

    Built as an explicit combination of the truncated powers
    psi_eta(x) = max(0, 1 - x/eta)^p at the three `bubble_breakpoints`.
    """
    if p < 3:
        raise ValueError("bubbles need degree p >= 3")
    if s not in (0, 1, 2):
        raise ValueError("bubble order s must be 0, 1, or 2")
    eta = bubble_breakpoints(p, partition)
    e1, e2, e3 = (np.longdouble(e) for e in eta)
    d12, d13, d23 = e1 - e2, e1 - e3, e2 - e3
    if s == 0:
        w = (e1 ** 2 / (d12 * d13), -e2 ** 2 / (d12 * d23), e3 ** 2 / (d13 * d23))
    elif s == 1:
        w = (
            e1 ** 2 * (e2 + e3) / (p * d12 * d13),
            -e2 ** 2 * (e1 + e3) / (p * d12 * d23),
            e3 ** 2 * (e1 + e2) / (p * d13 * d23),
        )
    else:
        c = e1 * e2 * e3 / (p * (p - 1))
        w = (c * e1 / (d12 * d13), -c * e2 / (d12 * d23), c * e3 / (d13 * d23))

    space = UniSplineSpace(p, p - 1, partition)
    coeffs = np.zeros(space.dim, dtype=np.longdouble)
    for wi, ei in zip(w, eta):
        coeffs += wi * _truncated_power_coefficients(space, ei)
    return UniSpline(space, np.asarray(coeffs, dtype=float))


@functools.lru_cache(maxsize=None)
def reflected_bubble_spline(p: int, partition: Partition, s: int) -> UniSpline:
    """phi_{p, reverse(Z)}(1 - x) as a spline on the original partition."""
    b = bubble(p, reverse(partition), s)
    space = UniSplineSpace(p, p - 1, partition)
    return UniSpline(space, b.coefficients[::-1].copy())


# -- the endpoint projector Pi* -------------------------------------------------


@functools.lru_cache(maxsize=None)
def pi_star_functionals(p: int, k: int, partition: Partition,
                        nq: int | None = None) -> PointFunctionals:
    """Projector onto S_{p,k+1,Z} interpolating derivatives 0..2 at both ends.

    For p >= 5 this is the order-3 Ritz projector.  For p in {3, 4} the
    order-3 right-endpoint interpolation is out of reach, so the order-2
    projection is corrected with second-derivative boundary bubbles at both
    ends, which restores the full endpoint contract.
    """
    if not 3 <= k + 2 <= p:
        raise ValueError(f"need 3 <= k+2 <= p, got k={k}, p={p}")
    target = UniSplineSpace(p, k + 1, partition)
    if p >= 5:
        return ritz_functionals(target, 3, nq)
    base = ritz_functionals(target, 2, nq)
    orders = base.orders + (2, 2)
    points = base.points + (0.0, 1.0)
    m = len(base.orders)
    M = np.hstack([base.matrix, np.zeros((target.dim, 2))])
    bub0 = embed(bubble(p, partition, 2), target).coefficients
    bub1 = embed(reflected_bubble_spline(p, partition, 2), target).coefficients
    delta0, delta1 = np.eye(m + 2)[m:]
    sigma0 = np.concatenate([base.endpoint_row(0.0, 2), [0.0, 0.0]])
    sigma1 = np.concatenate([base.endpoint_row(1.0, 2), [0.0, 0.0]])
    M = M + np.outer(bub0, delta0 - sigma0) + np.outer(bub1, delta1 - sigma1)
    return PointFunctionals(target, orders, points, M)
