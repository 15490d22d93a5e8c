"""Univariate Ritz-type projectors with endpoint interpolation.

The order-r projector onto S_{p,k,Z} (r <= k+1) is realized recursively:
the base case r=0 is the L2 projection, and

    P^(r) u = u(0) + integral of P^(r-1)(u')  from 0.

This makes the defining properties structural: the r-th derivative of the
projection is the L2 projection of the r-th derivative (H^r-orthogonality),
derivatives up to r-1 are interpolated at 0, and for p >= 2r-1 also at 1.

Every projector acts on a fixed data vector of point evaluations
``(order_m, point_m)`` of the input: the r endpoint derivatives at 0, the
r-th derivative at the Gauss nodes, and the data of an optional endpoint
correction, read by one call of the input per order at that order's points
only.  It is stored
in the factored form the recursion gives, never as a matrix: the
element-local moment blocks W B of the base space S_{p-r,k-r,Z} (element e
touches the p-r+1 base functions from e (p-k)), the inverse of the base
Gram matrix from its Cholesky factor, and r integrations
(`splines.integrate`), each followed by adding an endpoint datum times the
constant, whose coefficients are all ones.  A projector that interpolates
more endpoint data adds a low-rank correction c + U (d - E c).  The tensor
projector applies the same factors along each axis of its data (see
:mod:`asg1kit.tensor`); `PointFunctionals.coefficients` maps a stack of data
vectors, e.g. those of the sides of a patch, in one call.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .splines import (
    Partition,
    QuadratureError,
    UniSpline,
    UniSplineSpace,
    _band_at,
    embed,
    eval_operator,
    gauss_rule,
    integrate,
    knot_vector,
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
    spline whose coefficients the factored map takes from those data: the
    moments of the Gauss data against the base space ``base``, stored per
    element as ``weighted[e, q, j]`` (the weight times base function
    e (p-k) + j at node q of element e), the Gram solve by ``gram_inv``
    (L^-T L^-1 from the Cholesky factor G = L L^T), the integrations from
    ``base`` up to ``space`` that add the endpoint data, and ``correction``
    = (U, E), which adds U (d - E c) for the data d after the Gauss data.
    """

    space: UniSplineSpace
    orders: tuple[int, ...]
    points: tuple[float, ...]
    base: UniSplineSpace
    weighted: np.ndarray
    gram_inv: np.ndarray
    correction: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def r(self) -> int:
        """The number of endpoint data, one integration each."""
        return self.space.degree - self.base.degree

    @property
    def n_moments(self) -> int:
        """The length of a moment vector: r endpoint data and dim(base)."""
        return self.r + self.base.dim

    @functools.cached_property
    def by_order(self) -> tuple:
        """``(d, mask, points)`` for each order d in ascending order: the
        data entries of order d and their points."""
        orders, points = np.asarray(self.orders), np.asarray(self.points)
        return tuple((d, orders == d, points[orders == d])
                     for d in sorted(set(self.orders)))

    def data_vector(self, field) -> np.ndarray:
        """The data ``field(points[m], orders[m])``: one call of ``field``
        per order, at the points of that order only."""
        data = np.empty(len(self.orders))
        for d, mask, points in self.by_order:
            data[mask] = field(points, d)
        return data

    def add_moments(self, out: np.ndarray, data: np.ndarray, start: int = 0):
        """Add to ``out`` (last axis ``n_moments``) the moments of the data
        entries start, start+1, ... given along the last axis of ``data``
        (1D or 2D, like ``out``): endpoint data as they are, Gauss data as
        their products with the weighted base functions of their elements.
        A run of Gauss data that starts or ends inside an element is padded
        with zeros to whole elements."""
        if data.ndim == 1:
            out, data = out[None], data[None]
        r, (ne, nq, width) = self.r, self.weighted.shape
        head = min(max(r - start, 0), data.shape[1])
        out[:, start:start + head] += data[:, :head]
        g, lo = data[:, head:], max(start - r, 0)
        if not g.shape[1]:
            return
        e0, e1 = lo // nq, -(-(lo + g.shape[1]) // nq)
        if g.shape[1] != (e1 - e0) * nq:
            padded = np.zeros((len(g), (e1 - e0) * nq))
            padded[:, lo - e0 * nq:lo - e0 * nq + g.shape[1]] = g
            g = padded
        # local[m, e, j] = sum_q g[m, e nq + q] weighted[e, q, j]
        local = np.empty((len(g), e1 - e0, width))
        np.matmul(g.reshape(len(g), e1 - e0, nq).transpose(1, 0, 2),
                  self.weighted[e0:e1], out=local.transpose(1, 0, 2))
        step = self.base.degree - self.base.smoothness
        first = r + e0 * step
        for j in range(width):
            out[:, first + j:first + j + (e1 - e0) * step:step] += local[:, :, j]

    def moments(self, data: np.ndarray) -> np.ndarray:
        """The moment vectors of whole data vectors along the last axis."""
        out = np.zeros(np.shape(data)[:-1] + (self.n_moments,))
        self.add_moments(out, data)
        return out

    def solve(self, y: np.ndarray) -> np.ndarray:
        """The coefficients in ``space`` of moment vectors along the last axis
        of ``y``: the Gram solve in the base space, then r integrations, the
        m-th adding endpoint datum r-1-m."""
        r, sp = self.r, self.base
        c = y[..., r:] @ self.gram_inv.T
        for m in range(r):
            c = integrate(sp, c, axis=-1)
            c += y[..., r - 1 - m, None]
            sp = sp.antiderivative_space()
        return c

    def coefficients(self, data: np.ndarray) -> np.ndarray:
        """The coefficients of whole data vectors along the last axis."""
        n = self.r + self.weighted.shape[0] * self.weighted.shape[1]
        c = self.solve(self.moments(data[..., :n]))
        if self.correction is not None:
            U, E = self.correction
            c += (data[..., n:] - c @ E.T) @ U.T
        return c

    def apply(self, field) -> UniSpline:
        return UniSpline(self.space, self.coefficients(self.data_vector(field)))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense (dim x data) matrix of the map, built on demand from the
        factored form (the coefficients of each unit data vector); nothing
        in the package reads it."""
        return self.coefficients(np.eye(len(self.points))).T


def _l2_factors(space: UniSplineSpace, nq: int):
    """The moment blocks W B of ``space`` at ``nq`` Gauss nodes per element,
    (elements, nq, p+1), and the inverse of its Gram matrix G, L^-T L^-1
    from the Cholesky factor G = L L^T assembled from those blocks without a
    dense basis matrix.

    Every element's nodes share a band start, e (p-k), because the interior
    multiplicity of the knots is uniform."""
    x, w = gauss_rule(space.partition, nq)
    ne, width = space.partition.n_elements, space.degree + 1
    step = space.degree - space.smoothness
    _, (_, rows) = _band_at(space, x, 0)
    rows = rows.reshape(ne, nq, width)
    weighted = w.reshape(ne, nq, 1) * rows
    local = np.matmul(weighted.transpose(0, 2, 1), rows)
    G = np.zeros((space.dim, space.dim))
    for e in range(ne):
        G[e * step:e * step + width, e * step:e * step + width] += local[e]
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        L = np.zeros_like(G)
    # a singular G can factor with round-off pivots; the bound 1e2 n eps
    # max|G| on the squared pivots is 30 times the largest of those seen and
    # 1e6 times below the least of a Gram matrix of enough nodes (on meshes
    # graded down to 1e-4)
    if np.diag(L).min() ** 2 <= 100 * len(G) * np.finfo(float).eps * G.max():
        raise QuadratureError(
            f"nq={nq} Gauss nodes per element are too few: the Gram matrix of "
            f"S_({space.degree},{space.smoothness}) is not positive definite"
        )
    del G  # freed before the inverse: the build stays below one dense B
    # L^-1 row by row: row i of L has its p+1 band entries only, so it takes
    # the p rows of L^-1 above it (an LU inverse of L took 5 times longer)
    inv_chol = np.zeros_like(L)
    for i in range(len(L)):
        lo = max(0, i + 1 - width)
        inv_chol[i, :i] = -(L[i, lo:i] @ inv_chol[lo:i, :i])
        inv_chol[i, i] = 1.0
        inv_chol[i, :i + 1] /= L[i, i]
    return weighted, inv_chol.T @ inv_chol


@functools.lru_cache(maxsize=None)
def ritz_functionals(space: UniSplineSpace, r: int, nq: int | None = None
                     ) -> PointFunctionals:
    """The order-r Ritz projector onto ``space`` in factored form."""
    p, k = space.degree, space.smoothness
    if not 0 <= r <= k + 1:
        raise ValueError(f"need 0 <= r <= k+1, got r={r}, k={k}")
    if r > p:
        raise ValueError(f"need r <= p, got r={r}, p={p}")
    if nq is None:
        nq = default_quadrature_nodes(p)
    x, _ = gauss_rule(space.partition, nq)
    base = UniSplineSpace(p - r, k - r, space.partition)
    orders = tuple(range(r)) + (r,) * x.size
    points = (0.0,) * r + tuple(x)
    return PointFunctionals(space, orders, points, base, *_l2_factors(base, nq))


# -- endpoint-constrained L2 projector -----------------------------------------


@functools.lru_cache(maxsize=None)
def constrained_l2_functionals(space: UniSplineSpace, nq: int | None = None
                               ) -> PointFunctionals:
    """L2 projection subject to Hermite data (value and first derivative) at
    both endpoints, in factored form.

    Unlike the order-2 Ritz projector this stays L2-optimal and interpolates
    at both ends for any degree >= 2, and it commutes with reversal of the
    parameter; it serves as the crossing-derivative projector when the spline
    degree is too low for the Ritz construction's right-endpoint property.
    The L2 projection c is corrected by the rank-4 term
    G^-1 E^T S^-1 (h - E c), with E the endpoint rows, h their data and
    S = E G^-1 E^T the Schur complement of the KKT system.
    """
    p = space.degree
    if p < 2 or space.smoothness < 1:
        raise ValueError("constrained projection needs p >= 2 and k >= 1")
    if nq is None:
        nq = default_quadrature_nodes(p)
    x, _ = gauss_rule(space.partition, nq)
    weighted, gram_inv = _l2_factors(space, nq)
    ends = np.array([0.0, 1.0])
    E = np.vstack([eval_operator(space, ends, 0), eval_operator(space, ends, 1)])
    GiEt = gram_inv @ E.T
    U = np.linalg.solve(E @ GiEt, GiEt.T).T
    orders = (0,) * x.size + (0, 0, 1, 1)
    points = tuple(x) + (0.0, 1.0, 0.0, 1.0)
    return PointFunctionals(space, orders, points, space, weighted, gram_inv, (U, E))


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
    t = np.asarray(knot_vector(space), dtype=np.longdouble)
    eta = np.longdouble(eta)
    windows = np.lib.stride_tricks.sliding_window_view(t[1:], space.degree)
    c = np.prod(1.0 - windows[:space.dim] / eta, axis=1)
    c[windows[:space.dim, 0] >= eta - np.longdouble(1e-14)] = 0.0
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
    U = np.stack([embed(bubble(p, partition, 2), target).coefficients,
                  embed(reflected_bubble_spline(p, partition, 2), target).coefficients],
                 axis=1)
    E = eval_operator(target, np.array([0.0, 1.0]), 2)
    return dataclasses.replace(base, orders=base.orders + (2, 2),
                               points=base.points + (0.0, 1.0), correction=(U, E))
