"""Univariate B-spline spaces S_{p,k,Z} over breakpoint partitions of [0,1].

A space is described by a degree ``p``, an interior smoothness ``k`` with
``-1 <= k < p`` and a strictly increasing breakpoint partition
``Z = (0 = z_0 < ... < z_n = 1)``.  Internally every space is realized by the
open knot vector with boundary multiplicity ``p+1`` and interior multiplicity
``p-k``.  Basis values and derivatives of every order come from one
evaluator, de Boor's recursion over each point's knot span in numpy alone,
as bands (each point's first nonzero index and p+1 values) memoised by point
set; dense rows (`eval_operator`) are made from them only where a whole
matrix is needed (endpoint rows).  Every tensor-product object
(the geometry maps and tensor splines) is evaluated by one contraction of two
bases, `tensor_jet`, which contracts the x2 bands first and the x1 bands
second; on grids (`tensor_bind_x2`) one small product per run of x2 points
that share a band start, then one GEMM per order of a block's x1 bands over
only the columns they span (`band_rows`); `tensor_bind_x2_products` takes a
caller's own x1 rows, so that a caller can keep them for several x2 rows,
and `band_blocks` makes the rows of every block of an axis from one band.
Differentiation and antidifferentiation are exact coefficient maps along any
axis of a coefficient array, `differentiate` (scaled differences) and
`integrate` (its cumulative-sum inverse), and have no other form.  Every
other map between spline spaces (multiplication by a linear polynomial,
embedding into a superspace) is exact and banded, one cached band of
blossoms per pair of spaces (`_refinement`), and builds no dense matrix.

Conventions: evaluation at an interior breakpoint returns the limit from the
right whenever the requested derivative order exceeds the smoothness; at
``x = 1`` the limit from the left is returned.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

__all__ = [
    "Partition",
    "UniSplineSpace",
    "UniSpline",
    "uniform_partition",
    "reverse",
    "dimension",
    "eval_spline",
    "derivative",
    "differentiate",
    "integrate",
    "multiply_by_linear",
    "embed",
    "greville_points",
    "gauss_rule",
    "eval_operator",
    "QuadratureError",
    "band_rows",
    "band_blocks",
    "tensor_bind_x2",
    "tensor_bind_x2_products",
    "tensor_jet",
]

_BREAKPOINT_TOL = 1e-12

# The most grid points whose arrays are alive at once in the blocked loops of
# the norm quadrature and of the tensor projector's data (unless one element
# row, or one data row, is more), on maps whose derivatives each depend on
# one axis at most: bilinear maps, affine or not.  There a block holds few
# arrays of its points (an affine norm block at p = 6 on 128 elements peaks
# at 4.8 MB), and 2^15 points keep them near the L2 cache, where the
# elementwise passes run fastest; at 2^14 the affine norms took 18-23 %
# longer.  Curved maps take fewer points per block (`geometry.block_points`).
_BLOCK_POINTS = 32768

# glibc maps a request above its mmap threshold (128 KB at start) and raises
# it, and the heap's trim threshold to twice it, to the size of a freed mapped
# chunk.  Near a block array's 256 KB, a block's arrays are mapped or the heap
# is trimmed after it, and the next block faults the pages in again; one
# untouched 8 MB array freed here lifts both above a block's working set.
np.empty(_BLOCK_POINTS << 5)

# The most bytes (points and band values) of the basis bands that
# `eval_operator` keeps for recent (space, order, points) triples.  Most of
# its calls repeat one (81-95 % in the benchmark workloads, whose 140-390
# distinct triples take under 2 MB).
_MEMO_BYTES = 1 << 23


class QuadratureError(ValueError):
    """Too few quadrature nodes per element for a positive definite Gram
    matrix."""


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints ``0 = z_0 < ... < z_n = 1``."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        z = self.breakpoints
        if len(z) < 2:
            raise ValueError("partition needs at least two breakpoints")
        if z[0] != 0.0 or z[-1] != 1.0:
            raise ValueError("partition must start at 0 and end at 1")
        if any(b <= a for a, b in zip(z, z[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        # spaces over a partition key the memoised basis rows and the caches
        # of every module, so its breakpoints are hashed once
        object.__setattr__(self, "_hash", hash(z))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def grid_size(self) -> float:
        """Largest element length h_Z."""
        z = self.breakpoints
        return max(b - a for a, b in zip(z, z[1:]))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.breakpoints)


def uniform_partition(n: int) -> Partition:
    """Uniform partition with ``n`` elements, breakpoints j/n."""
    if n < 1:
        raise ValueError("element count must be >= 1")
    return Partition(tuple(float(v) for v in np.linspace(0.0, 1.0, n + 1)))


def reverse(partition: Partition) -> Partition:
    """The reversed partition (1 - z_n, ..., 1 - z_0)."""
    z = partition.as_array()
    inner = tuple(float(1.0 - v) for v in z[-2:0:-1])
    return Partition((0.0,) + inner + (1.0,))


@dataclass(frozen=True)
class UniSplineSpace:
    """The spline space S_{p,k,Z} of degree ``p`` and smoothness C^k."""

    degree: int
    smoothness: int
    partition: Partition

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if not -1 <= self.smoothness < self.degree:
            raise ValueError(
                f"need -1 <= k < p, got k={self.smoothness}, p={self.degree}"
            )

    @property
    def dim(self) -> int:
        return dimension(self)

    def derivative_space(self) -> UniSplineSpace:
        if self.degree < 1:
            raise ValueError("cannot differentiate a degree-0 space")
        return UniSplineSpace(self.degree - 1, self.smoothness - 1, self.partition)

    def antiderivative_space(self) -> UniSplineSpace:
        return UniSplineSpace(self.degree + 1, self.smoothness + 1, self.partition)


@dataclass
class UniSpline:
    """A spline ``sum_i c_i B_i`` in a fixed :class:`UniSplineSpace`."""

    space: UniSplineSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dim,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match "
                f"space dimension {self.space.dim}"
            )

    def __call__(self, x, d: int = 0):
        return eval_spline(self, x, d)

    def __add__(self, other: "UniSpline") -> "UniSpline":
        if other.space != self.space:
            raise ValueError("spline addition requires identical spaces")
        return UniSpline(self.space, self.coefficients + other.coefficients)

    def __sub__(self, other: "UniSpline") -> "UniSpline":
        if other.space != self.space:
            raise ValueError("spline subtraction requires identical spaces")
        return UniSpline(self.space, self.coefficients - other.coefficients)

    def __mul__(self, scalar: float) -> "UniSpline":
        return UniSpline(self.space, self.coefficients * float(scalar))

    __rmul__ = __mul__


# -- knot vectors and dimensions ---------------------------------------------


@functools.lru_cache(maxsize=None)
def knot_vector(space: UniSplineSpace) -> np.ndarray:
    p, k = space.degree, space.smoothness
    z = space.partition.as_array()
    interior = np.repeat(z[1:-1], p - k)
    return np.concatenate((np.zeros(p + 1), interior, np.ones(p + 1)))


def dimension(space: UniSplineSpace) -> int:
    """dim S_{p,k,Z} = (p+1) + (n-1)(p-k)."""
    p, k = space.degree, space.smoothness
    n = space.partition.n_elements
    return (p + 1) + (n - 1) * (p - k)


@functools.lru_cache(maxsize=None)
def greville_points(space: UniSplineSpace) -> np.ndarray:
    """Greville abscissae; for p = 0 the element midpoints."""
    p = space.degree
    t = knot_vector(space)
    if p == 0:
        return 0.5 * (t[:-1] + t[1:])
    windows = np.lib.stride_tricks.sliding_window_view(t[1:-1], p)
    return windows.mean(axis=1)


# -- evaluation ---------------------------------------------------------------


def _clip_domain(x) -> np.ndarray:
    """``x`` with round-off overshoot of [0, 1] clipped; one pass for the
    minimum and one for the maximum, a copy only when there is overshoot."""
    arr = np.asarray(x, dtype=float)
    lo, hi = arr.min(initial=0.0), arr.max(initial=1.0)
    if lo < -_BREAKPOINT_TOL or hi > 1.0 + _BREAKPOINT_TOL:
        raise ValueError("evaluation point outside [0, 1]")
    return arr if lo == 0.0 and hi == 1.0 else np.clip(arr, 0.0, 1.0)


def _band(space: UniSplineSpace, x: np.ndarray, d: int):
    """The nonzero basis values of order ``d`` at the points ``x``:
    ``(first, rows)`` with ``rows[n, r]`` the value of basis function
    ``first[n] + r`` at the n-th point, r = 0..p (`_de_boor`); breakpoints
    take right limits and x = 1 the left limit; an order above p gives
    zeros.
    """
    x = _clip_domain(x).ravel()
    u = np.broadcast_to(x[:, None], (x.size, space.degree))
    first, h = _de_boor(knot_vector(space), x, u, d)
    first.flags.writeable = h.flags.writeable = False
    return first, h


def _de_boor(t: np.ndarray, x: np.ndarray, u: np.ndarray, d: int = 0):
    """`_band` by de Boor's recursion of degree p on the knots ``t`` at the
    span that holds each point ``x`` (half-open to the right but the last):
    level j = 1..p takes the argument ``u[..., :, j-1]`` (u is (..., n, p),
    its leading axes broadcast), p-d levels raise the degree and the last d
    differentiate.  Given arguments other than x, the rows are the weights
    of the blossom (Ramshaw)."""
    p = u.shape[-1]
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, p, len(t) - p - 2)
    h = np.zeros(u.shape[:-2] + (len(ell), p + 1))
    if d <= p:
        h[..., 0] = 1.0
        knots = t[ell[:, None] + np.arange(1 - p, p + 1)]  # t[ell+1-p .. ell+p]
        for j in range(1, p + 1):
            xa, xb, xc = knots[:, p - j:p], knots[:, p:p + j], u[..., j - 1:j]
            if j <= p - d:
                w = h[..., :j] / (xb - xa)
                h[..., :j] = w * (xb - xc)
                h[..., j] = 0.0
                h[..., 1:j + 1] += w * (xc - xa)
            else:
                w = j * h[..., :j] / (xb - xa)
                h[..., :j] = -w
                h[..., j] = 0.0
                h[..., 1:j + 1] += w
    return ell - p, h


# Bands by (space, order, shape, bytes of the points), least recently used
# first, and their size in bytes.
_memo: OrderedDict = OrderedDict()
_memo_bytes = 0


def _band_at(space: UniSplineSpace, x, d: int):
    """The shape of the points ``x`` and their memoised `_band`."""
    global _memo_bytes
    x = np.atleast_1d(np.ascontiguousarray(x, dtype=float))
    key = (space, d, x.shape, x.tobytes())
    band = _memo.get(key)
    if band is not None:
        _memo.move_to_end(key)
        return x.shape, band
    band = _memo[key] = _band(space, x, d)
    _memo_bytes += len(key[3]) + band[0].nbytes + band[1].nbytes
    while _memo_bytes > _MEMO_BYTES:
        (_, _, _, raw), (first, rows) = _memo.popitem(last=False)
        _memo_bytes -= len(raw) + first.nbytes + rows.nbytes
    return x.shape, band


def eval_spline(f: UniSpline, x, d: int = 0):
    """Value of the d-th derivative of ``f``; right limits at breakpoints."""
    if d < 0:
        raise ValueError("derivative order must be >= 0")
    shape, (first, rows) = _band_at(f.space, x, d)
    c = f.coefficients[first[:, None] + np.arange(f.space.degree + 1)]
    out = (rows * c).sum(axis=1).reshape(shape)
    return float(out[0]) if np.ndim(x) == 0 else out


@functools.lru_cache(maxsize=None)
def _difference_scale(space: UniSplineSpace, trailing: int) -> np.ndarray:
    """p / (t_{i+p+1} - t_{i+1}), i = 0..dim-2, with ``trailing`` unit axes:
    differentiation maps coefficients c to these times c_{i+1} - c_i."""
    p = space.degree
    t = knot_vector(space)
    m = space.dim - 1
    return (p / (t[p + 1:p + 1 + m] - t[1:1 + m])).reshape((-1,) + (1,) * trailing)


def differentiate(space: UniSplineSpace, c: np.ndarray, axis: int = 0) -> np.ndarray:
    """Coefficients along ``axis`` of ``c`` (in ``space``) of the derivative,
    in S_{p-1,k-1,Z}: scaled differences, so equal neighbours give an exact
    zero."""
    if space.smoothness < 0:
        raise ValueError("cannot differentiate a discontinuous spline space")
    return np.diff(c, axis=axis) * _difference_scale(space, len(np.shape(c)[axis:]) - 1)


def integrate(space: UniSplineSpace, c: np.ndarray, axis: int = 0) -> np.ndarray:
    """Coefficients along ``axis`` of ``c`` (in ``space``) of the integral
    from 0, in S_{p+1,k+1,Z}: the inverse of `differentiate` there, a
    cumulative sum of the scaled coefficients after a leading zero."""
    c = np.asarray(c)
    scale = _difference_scale(space.antiderivative_space(), len(c.shape[axis:]) - 1)
    axis %= c.ndim
    out = np.zeros(c.shape[:axis] + (c.shape[axis] + 1,) + c.shape[axis + 1:])
    np.cumsum(c / scale, axis=axis, out=out[(slice(None),) * axis + (slice(1, None),)])
    return out


def derivative(f: UniSpline) -> UniSpline:
    """Derivative as an element of S_{p-1,k-1,Z}."""
    dc = differentiate(f.space, f.coefficients)
    return UniSpline(f.space.derivative_space(), dc)


def _dense(first: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """Rows of ``width`` zeros but for the band ``rows`` from column ``first``."""
    E = np.zeros((len(first), width))
    E.ravel()[(first + width * np.arange(len(first)))[:, None]
              + np.arange(rows.shape[1])] = rows
    return E


def eval_operator(space: UniSplineSpace, x: np.ndarray, d: int = 0) -> np.ndarray:
    """Dense matrix E with (E c)_i = (d-th derivative of the spline)(x_i),
    a fresh array each call; the bands of recent point sets are memoised.
    Only whole matrices (endpoint rows) use it: evaluations contract the
    bands themselves (`eval_spline`, `tensor_jet`), and maps between spaces
    are bands of blossoms (`_refinement`)."""
    shape, (first, rows) = _band_at(space, x, d)
    return _dense(first, rows, space.dim).reshape(shape + (space.dim,))


def band_rows(space: UniSplineSpace, x, d: int):
    """``(lo, B)``: the basis rows of order ``d`` at the points ``x`` over
    only the columns that their bands span, B[n, j] the value of basis
    function lo + j at the n-th point (zeros above the degree)."""
    return _span_rows(*_band_at(space, np.ravel(x), d)[1])


def band_blocks(space: UniSplineSpace, x, d: int, size: int) -> list:
    """`band_rows` of each run of ``size`` points of ``x`` in turn, sliced
    from one band of all of ``x``: one memoised de Boor pass for the axis,
    and the same rows as `band_rows` of each run."""
    _, (first, rows) = _band_at(space, np.ravel(x), d)
    return [_span_rows(first[i:i + size], rows[i:i + size])
            for i in range(0, len(first), size)]


def _span_rows(first: np.ndarray, rows: np.ndarray):
    """`band_rows` of the band ``(first, rows)`` (`_band`)."""
    lo, hi = (first.min(), first.max() + rows.shape[1]) if first.size else (0, 0)
    return lo, _dense(first - lo, rows, hi - lo)


def tensor_bind_x2(spaces, coef: np.ndarray, x2, orders):
    """Both steps of `tensor_jet` on grids: `tensor_bind_x2_products` of
    ``x2`` for the orders within the degrees, then step 2, ``x1 -> {(a, b):
    d1^a d2^b}`` on the grid x1 (x) x2: one GEMM per order of the x1 bands,
    as `band_rows`, with the contiguous slab of bound rows they span."""
    space1, space2 = spaces
    orders = [(a, b) for a, b in orders
              if a <= space1.degree and b <= space2.degree]
    products = tensor_bind_x2_products(spaces, coef, x2, {b for _, b in orders})

    def block(x1) -> dict:
        rows = {a: band_rows(space1, x1, a) for a in sorted({a for a, _ in orders})}
        return {(a, b): products(b, rows[a]) for a, b in orders}

    return block


def tensor_bind_x2_products(spaces, coef: np.ndarray, x2, x2_orders):
    """Step 1 of `tensor_jet`: ``coef`` times the x2 bands of each order in
    ``x2_orders``, each bound order a (dim1, k N2) array for k components, a
    coefficient row i holding its k x2 rows side by side.  Each run of
    points that share a band start (the Gauss points of one element) is one
    product of the p2+1 coefficient columns of that band with the run's band
    values; consecutive runs of one length are one batched matmul over their
    gathered columns, for every x2 order and component, so each component
    takes the same BLAS call as when bound alone.  No dense (N2, dim2) basis
    rows are built.
    Returns ``(b, (lo, B)) -> B @ bound[b][lo:lo + width]`` for x1 rows
    ``(lo, B)`` of `band_rows`: one GEMM, whose output, shape (len(B),
    len(x2)) + components, is a transposed view with each component slice
    contiguous along x2.
    """
    space1, space2 = spaces
    x2, comps, k = np.ravel(x2), coef.shape[2:], coef[0, 0].size
    # bound[b][i, c N2 + n] = sum_r coef[i, f[n] + r, c] B2^(b)[n, f[n] + r]
    ck = np.ascontiguousarray(coef.reshape(coef.shape[:2] + (k,)).transpose(2, 0, 1))
    dim1, xb, w = space1.dim, sorted(x2_orders), space2.degree + 1
    bands = [_band_at(space2, x2, b)[1] for b in xb]
    # rows[o, r, n]: value r of the band of order xb[o] at point n
    rows = np.stack([r.T for _, r in bands]) if bands else np.zeros((0, w, 0))
    bound = np.empty((len(xb), dim1, k, len(x2)))
    # runs of points that share a band start, as (start, length), and
    # stretches of consecutive runs of one length (the elements of a Gauss
    # rule), each stretch one batched product with the gathered columns of
    # its runs
    first = bands[0][0] if bands else np.zeros(0, int)
    cuts = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), len(first)]
    runs = [(first[lo], hi - lo) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    lo = 0
    for L, stretch in groupby(runs, key=itemgetter(1)):
        columns = np.array([f for f, _ in stretch])[:, None] + np.arange(w)
        m, hi = len(columns), lo + len(columns) * L
        # one (dim1, p2+1) @ (p2+1, L) product per order, component and run
        np.matmul(ck[:, :, columns].transpose(0, 2, 1, 3),
                  rows[:, None, :, lo:hi].reshape(len(xb), 1, w, m, L)
                  .transpose(0, 1, 3, 2, 4),
                  out=bound[..., lo:hi].reshape(len(xb), dim1, k, m, L)
                  .transpose(0, 2, 3, 1, 4))
        lo = hi
    bound = {b: v.reshape(dim1, k * len(x2)) for b, v in zip(xb, bound)}

    def products(b, x1_rows) -> np.ndarray:
        lo, B = x1_rows
        v = B @ bound[b][lo:lo + B.shape[1]]
        return v.reshape(len(B), k, len(x2)).transpose(0, 2, 1).reshape(
            (len(B), len(x2)) + comps)

    return products


def tensor_jet(spaces, coef: np.ndarray, x1, x2, orders) -> dict:
    """{(a, b): sum_ij B1^(a)[., i] coef[i, j, ...] B2^(b)[., j]} for each
    requested order, with B1, B2 the basis rows of ``spaces`` at x1, x2;
    trailing axes of ``coef`` (components) stay trailing axes of the result,
    and an order above the degree of its space is identically zero and absent.
    A column ``x1`` (N1, 1) with a row ``x2`` (1, N2) is an (N1, N2) grid,
    `tensor_bind_x2` of x2 and then of x1.  At other broadcast pairs each
    point gathers its (p1+1) x (p2+1) coefficients once and contracts them
    with its x2 band, then its x1 band, as on grids."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if x1.ndim == x2.ndim == 2 and x1.shape[1] == 1 and x2.shape[0] == 1:
        return tensor_bind_x2(spaces, coef, x2, orders)(x1)
    (space1, space2), shape = spaces, np.broadcast_shapes(x1.shape, x2.shape)
    orders = [(a, b) for a, b in orders
              if a <= space1.degree and b <= space2.degree]
    if not orders:
        return {}
    x1, x2 = np.broadcast_to(x1, shape), np.broadcast_to(x2, shape)
    band1 = {a: _band_at(space1, x1, a)[1] for a in {a for a, _ in orders}}
    band2 = {b: _band_at(space2, x2, b)[1] for b in {b for _, b in orders}}
    f1, f2 = band1[orders[0][0]][0], band2[orders[0][1]][0]
    comps, width, k = coef.shape[2:], space1.degree + 1, coef[0, 0].size
    # C[n, j, i k + c] = coef[f1[n] + i, f2[n] + j, c], x2's band outermost
    C = np.lib.stride_tricks.sliding_window_view(np.swapaxes(coef, 0, 1).reshape(
        space2.dim, -1), (space2.degree + 1, width * k))[f2, f1 * k]
    bound = {b: np.einsum("nj,njm->nm", r, C) for b, (_, r) in band2.items()}
    return {(a, b): np.einsum("ni,nic->nc", band1[a][1], bound[b].reshape(
        len(f1), width, k)).reshape(shape + comps) for a, b in orders}


# -- quadrature ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gauss_rule(partition: Partition, nodes_per_element: int):
    """Gauss-Legendre nodes and weights on every element of the partition."""
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_element)
    z = partition.as_array()
    a, b = z[:-1], z[1:]
    half = 0.5 * (b - a)
    x = (0.5 * (a + b)[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


# -- exact maps between spline spaces -------------------------------------------


@functools.lru_cache(maxsize=None)
def _refinement(source: UniSplineSpace, target: UniSplineSpace):
    """The exact map of coefficients c of f in ``source`` (degree p) into a
    superspace ``target`` of degree q = p or p+1: ``(index, W1, Wx)``, the
    row sums of W1 * c[index] are the coefficients of f and those of
    Wx * c[index] of x f (Wx is None for q = p).  Coefficient j is the
    blossom of f at tau_{j+1..j+q} on the source span that holds tau_j (up
    to the breakpoint tolerance), by `_de_boor` with the arguments in
    increasing order, so each step is convex (the Oslo algorithm); for
    q = p+1, (1/q) sum_i l(u_i) F(u without u_i), l = 1 and l = x (Morken)."""
    p, q, m = source.degree, target.degree, target.dim
    t, tau = knot_vector(source), knot_vector(target)
    x, u = tau[:m] + _BREAKPOINT_TOL, tau[np.arange(m)[:, None] + np.arange(1, q + 1)]
    if q == p:
        first, W = _de_boor(t, x, u)
        return first[:, None] + np.arange(p + 1), W, None
    # the q argument lists with one left out, as one (q, m, p) stack
    keep = np.array([np.delete(np.arange(q), i) for i in range(q)])
    first, W = _de_boor(t, x, np.moveaxis(u[:, keep], 1, 0))
    return (first[:, None] + np.arange(p + 1), W.sum(axis=0) / q,
            (u.T[..., None] * W).sum(axis=0) / q)


def multiply_by_linear(f: UniSpline, a: float, b: float) -> UniSpline:
    """Exact product (a + b*xi) * f(xi) as an element of S_{p+1,k,Z}: one
    band of p+1 weights per coefficient (`_refinement`)."""
    target = UniSplineSpace(f.space.degree + 1, f.space.smoothness,
                            f.space.partition)
    index, W1, Wx = _refinement(f.space, target)
    return UniSpline(target, np.einsum("ij,ij->i", a * W1 + b * Wx, f.coefficients[index]))


# -- embedding into superspaces -------------------------------------------------


def is_subspace(source: UniSplineSpace, target: UniSplineSpace) -> bool:
    if target.degree < source.degree or target.smoothness > source.smoothness:
        return False
    if source.partition == target.partition:
        return True
    zs, zt = source.partition.as_array(), target.partition.as_array()
    pos = np.clip(np.searchsorted(zt, zs), 0, len(zt) - 1)
    return bool(np.all(np.abs(zt[pos] - zs) <= _BREAKPOINT_TOL))


def embed(f: UniSpline, target: UniSplineSpace) -> UniSpline:
    """Re-express ``f`` in a superspace (pointwise identical function): its
    degree raised one at a time by the exact product with 1, then the
    same-degree map onto the knots of ``target`` (`_refinement`)."""
    if f.space == target:
        return UniSpline(target, f.coefficients.copy())
    if not is_subspace(f.space, target):
        raise ValueError(
            f"S_({f.space.degree},{f.space.smoothness}) does not embed into "
            f"S_({target.degree},{target.smoothness}) on the given partitions"
        )
    while f.space.degree < target.degree:
        f = multiply_by_linear(f, 1.0, 0.0)
    if f.space == target:
        return f
    index, W, _ = _refinement(f.space, target)
    return UniSpline(target, np.einsum("ij,ij->i", W, f.coefficients[index]))
