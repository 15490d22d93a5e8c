"""Tensor-product spline spaces and the tensor projector.

A tensor spline is evaluated like a geometry map, by one `tensor_jet`
contraction of its coefficient grid with the basis rows of both directions;
``jet(x1, x2, orders)`` returns every requested order from one contraction.

The tensor projector applies the univariate order-2 Ritz projector in each
parameter direction.  A univariate projection is a fixed linear map of
point-evaluation data in factored form (see :mod:`asg1kit.ritz1d`): moments
against a base space, a Gram solve and integrations.  The tensor projection
applies the factors of both directions to ``D``, the mixed derivative data
of the input on the cartesian product of the two descriptor sets -- the
nested application of the coefficient functionals of both directions.  The
projection the construction uses never forms ``D`` whole: `data_matrix`
yields it in slabs of rows, each a few field calls of at most the field's
``block_points`` points (2^15 unless the field is a pullback by a curved
map, whose calls take 2^13: see `fields.pullback`), per run of rows and
of columns of one order (`PointFunctionals.runs`).  Each slab is
contracted with the element-local xi2 moment blocks as it comes, O(p)
products per data point; the xi1 moments act on the resulting N1 x dim2
moments, and the Gram solves and integrations of both directions on the
dim1 x dim2 moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField2D
from .geometry import EDGE_AXIS, NORMALS, side_end
from .ritz1d import PointFunctionals, ritz_functionals
from .splines import UniSpline, UniSplineSpace, _difference_scale, tensor_jet

__all__ = [
    "TensorSplineSpace",
    "TensorSpline",
    "eval_tensor_grid",
    "as_field",
    "trace",
    "normal_derivative_trace",
    "tensor_project",
    "tensor_project_Q",
]


@dataclass(frozen=True)
class TensorSplineSpace:
    space1: UniSplineSpace
    space2: UniSplineSpace

    @property
    def shape(self) -> tuple[int, int]:
        return self.space1.dim, self.space2.dim

    def side_space(self, j: int) -> UniSplineSpace:
        return self.space1 if EDGE_AXIS[j] == 0 else self.space2


@dataclass
class TensorSpline:
    space: TensorSplineSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != self.space.shape:
            raise ValueError(
                f"coefficient grid {self.coefficients.shape} does not match "
                f"space shape {self.space.shape}"
            )

    def jet(self, x1, x2, orders) -> dict:
        """{(a, b): d1^a d2^b f} at broadcastable points for every order in
        the sequence ``orders``, from one contraction."""
        out = tensor_jet((self.space.space1, self.space.space2),
                         self.coefficients, x1, x2, orders)
        return _with_zeros(out, orders, np.broadcast_shapes(np.shape(x1), np.shape(x2)))

    def __call__(self, x1, x2, a: int = 0, b: int = 0):
        out = self.jet(x1, x2, [(a, b)])[a, b]
        return float(out) if out.ndim == 0 else out


def _with_zeros(out: dict, orders, shape) -> dict:
    """``out`` with the absent orders above the degree filled in as zeros."""
    return {ab: out[ab] if ab in out else np.zeros(shape) for ab in orders}


def eval_tensor_grid(f: TensorSpline, x1, x2, a: int = 0, b: int = 0) -> np.ndarray:
    """d1^a d2^b f on the tensor grid x1 (x) x2, shape (len(x1), len(x2))."""
    return f.jet(np.reshape(x1, (-1, 1)), np.reshape(x2, (1, -1)), [(a, b)])[a, b]


def as_field(f: TensorSpline) -> ScalarField2D:
    return ScalarField2D(f, max_order=max(f.space.space1.degree,
                                          f.space.space2.degree))


# -- traces ------------------------------------------------------------------------


def _side_row(c: np.ndarray, j: int) -> np.ndarray:
    """The coefficients of side ``j``'s row of the grid ``c`` (a copy): the
    first or last index of the axis normal to the side."""
    return np.take(c, -side_end(j), axis=1 - EDGE_AXIS[j])


def trace(f: TensorSpline, j: int) -> UniSpline:
    """Restriction to side ``j`` as a univariate spline in the side space."""
    c = _side_row(f.coefficients, j)  # first: a ValueError for a bad side
    return UniSpline(f.space.side_space(j), c)


def normal_derivative_trace(f: TensorSpline, j: int) -> UniSpline:
    """(n_j . grad f) restricted to side ``j``, in the side's tangential space:
    the trace of the difference along the normal axis, times the sign of n_j
    (`NORMALS`); only the two coefficient rows next to the side are
    differenced."""
    end = side_end(j)
    axis = 1 - EDGE_AXIS[j]
    rows = np.take(f.coefficients, [-2, -1] if end else [0, 1], axis=axis)
    space = (f.space.space1, f.space.space2)[axis]
    dc = np.diff(rows, axis=axis) * _difference_scale(space, 0)[-end]
    return UniSpline(f.space.side_space(j), NORMALS[j][axis] * dc.reshape(-1))


# -- tensor projector -----------------------------------------------------------------

# The fewest rows of a slab of the Ritz data, where its row run has them.
# The slab moment products take the same time within 6 % from 16 to 512
# rows (p = 6 on 128 elements, N = 1026 data points per axis, one BLAS
# thread); a slab of 128 rows is 1 MB there.
_SLAB_ROWS = 128


def data_matrix(u: ScalarField2D, f1: PointFunctionals, f2: PointFunctionals):
    """The rows of the mixed derivative data D[a, b] = d1^{o1_a} d2^{o2_b}
    u(x_a, y_b), top to bottom, in slabs (arrays of whole rows).

    Per run of rows (``f1.runs``), each run of columns (``f2.runs``) is
    evaluated in calls of ``u`` of at most ``u.block_points`` points (one
    row at least): a column run whose calls cover the row run is evaluated
    whole before the first slab, the others slab by slab.  A slab is a whole
    number of the calls of the widest of those, at least ``_SLAB_ROWS`` rows
    where the row run has them."""
    x = np.asarray(f1.points)
    y = np.asarray(f2.points)
    cols = [(db, ib, max(1, u.block_points // (ib.stop - ib.start)))
            for db, ib in f2.runs]
    for da, ia in f1.runs:
        xa, n = x[ia, None], ia.stop - ia.start
        whole = [u(xa, y[None, ib], da, db) if rows >= n else None
                 for db, ib, rows in cols]
        step = min([rows for (_, _, rows), w in zip(cols, whole) if w is None],
                   default=n)
        step *= -(-_SLAB_ROWS // step)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            D = np.empty((hi - lo, len(y)))
            for (db, ib, rows), w in zip(cols, whole):
                if w is not None:
                    D[:, ib] = w[lo:hi]
                    continue
                for i in range(lo, hi, rows):
                    j = min(i + rows, hi)
                    D[i - lo:j - lo, ib] = u(xa[i:j], y[None, ib], da, db)
            yield D


def tensor_project(space: TensorSplineSpace, u: ScalarField2D,
                   nq: int | None = None, order: str = "21") -> TensorSpline:
    """The tensor-product order-(2, 2) Ritz projection of ``u``.

    ``order`` selects which direction's moments are taken first.  "21",
    the one the construction uses, adds the xi2 moments of each slab of
    the data in place into its rows of an (N1 x dim2) array as the slab
    comes, then takes the xi1 moments; "12" forms the whole data and takes
    its xi1 moments, then the xi2 moments, an independent computation of
    the same map.  Both agree up to round-off, which is the commuting
    property of the directional projectors.  The Gram solves and the
    integrations then act on the dim1 x dim2 moments (per axis, r endpoint
    data and the moments against the base space).
    """
    if order not in ("21", "12"):
        raise ValueError("order must be '21' or '12'")
    f1 = ritz_functionals(space.space1, 2, nq)
    f2 = ritz_functionals(space.space2, 2, nq)
    # Y^T, the (xi2, xi1) moments of the data
    if order == "12":
        D = np.concatenate(list(data_matrix(u, f1, f2)))
        Yt = f2.moments(f1.moments(D.T).T).T
    else:
        acc = np.zeros((len(f1.points), f2.n_moments))
        start = 0
        for D in data_matrix(u, f1, f2):
            f2.add_moments(acc[start:start + len(D)], D)
            start += len(D)
        Yt = f1.moments(acc.T)
    return TensorSpline(space, f2.solve(f1.solve(Yt).T))


def tensor_project_Q(space: TensorSplineSpace, u: ScalarField2D,
                     nq: int | None = None) -> TensorSpline:
    """The order-(2,2) tensor projector used by the AS-G1 construction."""
    return tensor_project(space, u, nq)
