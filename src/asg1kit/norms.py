"""Physical Sobolev error norms by element-wise Gauss quadrature.

Physical derivatives of the spline approximation come from its parametric
derivatives by inverting the chain rule: the gradient through the inverse
Jacobian transpose, the Hessian with the second-order geometry correction

    H_phys = J^{-T} (H_param - sum_c grad_phys[c] * hess(G_c)) J^{-1}.

The quadrature sums run over chunks of whole x2 elements and, in each, over
blocks of whole x1 elements (`_block_layout`), each block at most
`geometry.block_points` of the map unless one element row is more:
``_BLOCK_POINTS`` (2^15) points of the tensor grid on maps whose first and
second orders depend on one axis at most (every bilinear map, affine or
not), ``_CURVED_BLOCK_POINTS`` (2^14) on curved spline and NURBS maps, whose
per-point blocks keep more arrays of their points.  The x2 axis of the
approximation (`splines.tensor_bind_x2_products`) is contracted once per
chunk; a chunk is as wide as keeps each bound order of the approximation
within ``_CHUNK_BLOCKS`` blocks of 2^15 points, so coarse meshes bind the
whole axis at once and the bindings of fine ones do not grow with the mesh,
and one chunk's bindings are released before the next binds.  The x1 rows
of each block (orders 0..2) are sliced from one band of the whole x1 axis
per order (`splines.band_blocks`), made once per patch, and serve every
chunk; dense over the columns a block spans, they take about 6 (p - k)^2
n^2 bytes on a chunked n x n mesh, three quarters of the approximation's
coefficient array.  Each block forms one GEMM per order of the
approximation.  The weights stay separable: no weight grid is built.  Every
block takes G, its orders and a checked det G > 0 from `geometry.map_jets`,
as the pullbacks and the conformity check's corner data do.

An affine map (a bilinear parallelogram: every built-in patch but the right
one of ``two_patch_skew``; the test is `geometry._affine_jet`) has constant
first orders and zero second ones, so det G and J^{-1} are numbers of the
patch and hess G drops out.  A block takes its points as G(0, 0) + J xi,
with no map binding, det joins its x2 weights, and the chain rule's
coefficients (`_chain_forms`) are formed once, so a block evaluates the
target at its points and forms the physical derivatives of each order t
from the parametric ones, in place where no other derivative reads them (on
an axis-aligned patch each is its parametric order, scaled unless the scale
is 1), before it forms those of order t + 1.  The results are those of the
per-point path bit for bit: it folds a constant det into the x2 weights and
forms the same coefficients.

Other maps (bilinear non-parallelograms, spline and NURBS patches) take the
per-point path (`_squared_errors`): per block one geometry jet of the six
orders (the x2 binding of a chunk is the map's memo, `geometry`) and one
target jet.  Jet components keep the broadcast shapes of the
axes they depend on (see `geometry`), and so do the mapped points, det G,
1/det and the entries of J^{-1} and of their products; only the integrands
that meet the approximation span the block's grid.  det G is folded into
the weights of the axes it depends on, so where it depends on one axis or
none each sum is one GEMV over the squared error.  The chain rule
(`_chain_rule`) writes each physical derivative in place into the block's
array of the first parametric order it reads, unless a later derivative
reads that order too, where it forms a fresh one.  On both paths each error
is formed in place, one subtraction and one square per derivative, in the
block's own array, never in an array of a target or geometry jet, which
caches share.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField2D
from .geometry import (Patch, _add, _affine_jet, _fold, _mul, block_points,
                       jet_component, map_jets)
from .ritz1d import default_quadrature_nodes
from .splines import _BLOCK_POINTS, band_blocks, gauss_rule, tensor_bind_x2_products
from .tensor import TensorSpline

__all__ = ["ErrorTable", "physical_error_norms", "combine_tables", "observed_order",
           "inverse_chain_rule"]

_ORDERS = {0: ((0, 0),), 1: ((1, 0), (0, 1)), 2: ((2, 0), (1, 1), (0, 2))}
# the six orders of a jet up to total degree 2, by t
_JET = tuple(ab for t in range(3) for ab in _ORDERS[t])

# The most blocks of points that one x2-bound order of the approximation
# spans.  With the default nodes, C^(p-2) spaces of degree up to 10 on meshes
# of up to 64 elements per side bind their whole x2 axis at once; finer ones
# bind it in chunks of whole elements.  Each chunk makes the x1 blocks taller
# (more coefficient rows per block), so chunks are as few as this allows.
_CHUNK_BLOCKS = 4

# The most points of a block on a curved map (`geometry.block_points`), whose
# per-point blocks keep the map's six orders, det G, the chain rule's terms
# and the approximation's orders, each spanning the block.  Traced peaks of
# the warm norms at p = 4 on 32 elements with blocks of 2^15, 2^14 and 2^13
# points: 9.2, 4.9 and 2.7 MB on a NURBS patch, 9.1, 4.8 and 2.7 MB on two
# spline patches; 2^14 took 5-10 % less time than 2^15, and 2^13 5-18 % more
# than 2^14.
_CURVED_BLOCK_POINTS = 1 << 14


def inverse_chain_rule(jet, zeros, det, grad, hess):
    """Physical gradient and Hessian of f o G^{-1} from parametric derivatives.

    ``jet`` holds the first and second orders of G and ``det`` its Jacobian
    determinant, ``grad`` d1 f and d2 f, ``hess`` d11 f, d12 f and d22 f.
    Components in ``zeros`` (``gmap.zeros``) or of absent orders are zero: the
    J^{-1} entries and terms they form are dropped.  Geometry-only terms keep
    the broadcast shapes of the jet.  Returns ``(gx, gy)`` and ``(hxx, hxy,
    hyy)``, None for a zero; writes none of its arguments (`_chain_rule` of
    copies of ``grad`` and ``hess``).
    """
    return _chain_rule(jet, zeros, det, *([np.array(v, dtype=float) for v in vs]
                                          for vs in (grad, hess)))


def _chain_rule(jet, zeros, det, grad, hess):
    """`inverse_chain_rule` written into the arrays of ``grad`` and ``hess``,
    which the caller owns: each physical derivative goes into the array of
    the first parametric order it reads unless a later one reads that order
    too (`_forms`), so on an axis-aligned patch every derivative is written
    in place."""
    comp = functools.partial(jet_component, jet, zeros)
    grad_forms, hess_forms = _chain_forms(comp, det)
    gx, gy = _forms(grad_forms, grad)
    a = [h if s is None else _fold(operator.isub, h, s) for h, s in zip(hess, (
        _add(_mul(gx, comp(ab, 0)), _mul(gy, comp(ab, 1))) for ab in _ORDERS[2]))]
    return (gx, gy), _forms(hess_forms, a)


def _chain_forms(comp, det):
    """The coefficients of the physical gradient, B^T times the parametric
    one, as forms in (d1 f, d2 f), and of the physical Hessian B^T A B as
    forms in (a11, a12, a22) (`_forms`), with B = J^{-1} = adj(J) / det and
    J = [d1 G | d2 G]; ``comp(ab, c)`` is a component of the map jet, None
    for a zero."""
    inv_det = 1.0 / det
    b11, b12 = _mul(inv_det, comp((0, 1), 1)), _mul(-inv_det, comp((0, 1), 0))
    b21, b22 = _mul(-inv_det, comp((1, 0), 1)), _mul(inv_det, comp((1, 0), 0))
    return ([[[(b11,)], [(b21,)]], [[(b12,)], [(b22,)]]],
            [[[(b11, b11)], [(2.0, b11, b21)], [(b21, b21)]],
             [[(b11, b12)], [(b11, b22), (b21, b12)], [(b21, b22)]],
             [[(b12, b12)], [(2.0, b12, b22)], [(b22, b22)]]])


def _forms(coefs, xs):
    """``sum_j coefs[k][j] xs[j]`` for each row k of ``coefs``, left to
    right, each coefficient a list of products (tuples of factors) summed.
    Products with a None (zero) factor are dropped, and the terms of
    coefficients left with none; a form without terms is None.  Each
    coefficient is formed when its term is, and a form is written in place
    into its first term's input where no later form reads that input, into a
    fresh array otherwise (`_formed` of the `_terms`)."""
    return _formed(_terms(coefs), xs)


def _terms(coefs):
    """The terms of the forms ``coefs`` (`_forms`), row by row, as ``(j,
    products, shared)``: the products of coefficient j without a None factor
    (a term has one at least), and whether a later row reads input j."""
    kept = [[[p for p in c if all(f is not None for f in p)] for c in row]
            for row in coefs]
    return [[(j, c, any(later[j] for later in kept[k + 1:]))
             for j, c in enumerate(row) if c] for k, row in enumerate(kept)]


def _formed(terms, xs):
    """The forms of ``terms`` (`_terms`) in the inputs ``xs``, as `_forms`
    writes them; a first term whose coefficient is the number 1.0 (on an
    affine map, `geometry._affine_jet`) leaves its input as it is."""
    out = []
    for row in terms:
        acc = None
        for j, products, shared in row:
            c = functools.reduce(operator.add, [functools.reduce(operator.mul, p)
                                                for p in products])
            if acc is not None:
                acc = _fold(operator.iadd, acc, xs[j] * c)
            elif shared:
                acc = xs[j] * c
            elif isinstance(c, float) and c == 1.0:
                acc = xs[j]
            else:
                acc = _fold(operator.imul, xs[j], c)
        out.append(acc)
    return tuple(out)


@dataclass
class ErrorTable:
    """Seminorms of an error, orders 0..2, and their cumulative norms."""

    seminorms: dict

    @property
    def norms(self) -> dict:
        """{t: the root sum of squares of the seminorms of orders <= t}."""
        out, acc = {}, 0.0
        for t in sorted(self.seminorms):
            acc += self.seminorms[t] ** 2
            out[t] = float(np.sqrt(acc))
        return out


def physical_error_norms(patch: Patch, u: ScalarField2D, f_h: TensorSpline,
                         nq: int | None = None) -> ErrorTable:
    """Error seminorms and norms of orders 0, 1, 2 of u - f_h o G^{-1} over
    one patch.

    ``u`` is a physical field; ``f_h`` the parametric spline approximation.
    Quadrature respects the breakpoints of both partitions so every integrand
    is element-wise smooth.
    """
    if nq is None:
        # error integrands mix the analytic target with the spline and suffer
        # near-cancellation; two extra nodes over the projector rule keep the
        # reported norms stable to ~1e-12 under node doubling
        nq = default_quadrature_nodes(
            max(f_h.space.space1.degree, f_h.space.space2.degree)
        ) + 2
    x1, w1 = gauss_rule(patch.partitions[0], nq)
    x2, w2 = gauss_rule(patch.partitions[1], nq)
    spaces = (f_h.space.space1, f_h.space.space2)
    gmap = patch.gmap
    cols, rows = _block_layout(patch, spaces[0].dim, nq)
    jets, affine, terms = map_jets(gmap), _affine_jet(gmap) is not None, None
    # each block with the x1 rows of f_h's orders 0..2, sliced from one band
    # of the whole axis per order and made once for every chunk
    blocks = list(zip((slice(i, i + rows) for i in range(0, len(x1), rows)),
                      zip(*(band_blocks(spaces[0], x1, a, rows) for a in range(3)))))
    sums = np.zeros(3)
    for lo in range(0, len(x2), cols):
        chunk = slice(lo, lo + cols)
        # f_h's x2 orders 0..2, contracted once each
        product = tensor_bind_x2_products(spaces, f_h.coefficients, x2[chunk], range(3))
        for block, x1_rows in blocks:
            def fjet(ab, x1_rows=x1_rows):  # f_h's order ab, an array the block owns
                return product(ab[1], x1_rows[ab[0]])

            jet, det = jets(x1[block, None], x2[None, chunk], _JET)
            if affine:
                if terms is None:  # J^-1 and det G are numbers of the patch
                    terms = [_terms(forms) for forms in _chain_forms(
                        functools.partial(jet_component, jet, gmap.zeros), det)]
                # det joins the x2 weights, where the per-point path folds a constant
                sums += _affine_squared_errors(terms, u, fjet, jet[0, 0], w1[block],
                                               w2[chunk] * det)
            else:
                sums += _squared_errors(jet, det, gmap.zeros, u, {ab: fjet(ab) for ab in _JET},
                                        w1[block], w2[chunk])
        del product  # so that two chunks' bindings of f_h are never alive at once
    return ErrorTable({t: float(v) for t, v in enumerate(np.sqrt(sums))})


def _block_layout(patch: Patch, dim1: int, nq: int) -> tuple[int, int]:
    """``(cols, rows)``: the x2 points of a chunk and the x1 points of a
    block of `physical_error_norms` on ``patch`` with ``nq`` nodes per
    element, for an approximation of ``dim1`` functions along x1.  Chunks
    are whole x2 elements, as few as keep each bound order of f_h (dim1
    rows) within ``_CHUNK_BLOCKS`` blocks of ``_BLOCK_POINTS`` points;
    blocks are whole x1 elements, one at least, of at most the map's
    `block_points` of the grid."""
    elements = patch.partitions[1].n_elements
    chunks = -(-dim1 * nq * elements // (_CHUNK_BLOCKS * _BLOCK_POINTS))
    cols = nq * -(-elements // chunks)
    points = block_points(patch.gmap, _CURVED_BLOCK_POINTS)
    return cols, nq * max(1, points // (nq * cols))


def _weighted_sum(w1, w2, det):
    """``E -> sum_ij w1[i] w2[j] det[i, j] E[i, j]`` for E on the grid.
    ``det`` has the broadcast shape of the axes it depends on and is folded
    into the weights of those axes once: where it depends on one axis or
    none, each sum is one GEMV over E."""
    det = np.atleast_2d(det)  # a number on an affine map
    if det.shape[0] == 1:
        w2 = w2 * det[0]
    elif det.shape[1] == 1:
        w1 = w1 * det[:, 0]
    else:
        W = w1[:, None] * (w2 * det)
        return lambda E: np.vdot(W, E)
    return lambda E: w1 @ (E @ w2)


def _squared(approx, target):
    """(approx - target)^2, written into ``approx``: a full-grid array the
    block owns (never one of a target or geometry jet, which caches share)."""
    approx -= target
    approx *= approx
    return approx


def _affine_squared_errors(terms, u: ScalarField2D, fjet, points, w1, w2) -> tuple:
    """The sums of w1 w2 |d^t error|^2 for t = 0, 1, 2 on a block of an
    affine patch, det G folded into ``w2``: f_h's orders ``fjet(ab)`` are
    formed, and the physical ones from them by the chain rule's constant
    ``terms`` (`_terms` of `_chain_forms`), one order t at a time; the target
    is evaluated at the mapped ``points``."""
    ujet = u.jet(*points, 2, 2)

    def weighted_sum(E):
        return w1 @ (E @ w2)

    l2 = weighted_sum(_squared(fjet((0, 0)), ujet(0, 0)))
    grad = _formed(terms[0], [fjet(ab) for ab in _ORDERS[1]])
    h1 = _gradient_sum(grad, ujet, weighted_sum)
    hess = _formed(terms[1], [fjet(ab) for ab in _ORDERS[2]])
    return l2, h1, _hessian_sum(hess, ujet, weighted_sum)


def _squared_errors(jet, det, zeros, u: ScalarField2D, fjet, w1, w2) -> tuple:
    """The sums of w1 w2 det |d^t error|^2 for t = 0, 1, 2 on a tensor grid
    with weights w1 (x) w2; ``jet`` is the map's jet of the six orders there
    and ``det`` its det G (`geometry.map_jets`), ``zeros`` its exact-zero
    components and ``fjet`` the six orders of f_h on the grid, arrays the
    block owns."""
    weighted_sum = _weighted_sum(w1, w2, det)
    ujet = u.jet(*jet[0, 0], 2, 2)

    l2 = weighted_sum(_squared(fjet.pop((0, 0)), ujet(0, 0)))
    # the block owns f_h's orders: the chain rule writes into them
    grad, hess = _chain_rule(
        jet, zeros, det, (fjet[1, 0], fjet[0, 1]), [fjet[ab] for ab in _ORDERS[2]])
    return (l2, _gradient_sum(grad, ujet, weighted_sum),
            _hessian_sum(hess, ujet, weighted_sum))


def _gradient_sum(grad, ujet, weighted_sum):
    """The weighted sum of |d^1 error|^2 from the physical gradient of f_h,
    arrays the block owns, which it overwrites."""
    gx, gy = grad
    e1 = _squared(gx, ujet(1, 0))
    e1 += _squared(gy, ujet(0, 1))
    return weighted_sum(e1)


def _hessian_sum(hess, ujet, weighted_sum):
    """The weighted sum of |d^2 error|^2 from the physical Hessian of f_h,
    arrays the block owns, which it overwrites; the mixed entry counts
    twice."""
    hxx, hxy, hyy = hess
    e2 = _squared(hxx, ujet(2, 0))
    exy = _squared(hxy, ujet(1, 1))
    exy *= 2.0
    e2 += exy
    e2 += _squared(hyy, ujet(0, 2))
    return weighted_sum(e2)


def combine_tables(tables) -> ErrorTable:
    """Root-sum-square combination of per-patch tables (the bent norm)."""
    keys = sorted(tables[0].seminorms)
    semi = {
        t: float(np.sqrt(sum(tab.seminorms[t] ** 2 for tab in tables)))
        for t in keys
    }
    return ErrorTable(semi)


def observed_order(e_coarse: float, e_fine: float):
    """log2(e_h / e_{h/2}); None when either error is not positive."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        return None
    return float(np.log2(e_coarse / e_fine))
