"""Physical Sobolev error norms by element-wise Gauss quadrature.

Physical derivatives of the spline approximation come from its parametric
derivatives by inverting the chain rule: the gradient through the inverse
Jacobian transpose, the Hessian with the second-order geometry correction

    H_phys = J^{-T} (H_param - sum_c grad_phys[c] * hess(G_c)) J^{-1}.

The quadrature sums run over chunks of whole x2 elements and, in each, over
blocks of whole x1 elements, each block at most ``_BLOCK_POINTS`` points of
the tensor grid unless one element row is more.  The x2 axis of the
approximation and of the geometry is contracted once per chunk
(`TensorSpline.bind_x2`, ``gmap.bind_x2``); a chunk is as wide as keeps each
bound order of the approximation within ``_CHUNK_BLOCKS`` blocks, so coarse
meshes bind the whole axis at once and the bindings of fine ones do not grow
with the mesh, and one chunk's bindings are released before the next binds.
Each block takes one geometry jet, one bound jet of the target and the six
orders of the approximation from the coefficient rows its x1 elements touch.
Geometry jet components keep the broadcast shapes of the axes they depend on
(see `geometry`), and so do the mapped points at which the target is
evaluated, det G, 1/det and the entries of J^{-1} and of their products;
only the integrands that meet the approximation span the block's grid.

The weights stay separable: no weight grid is built.  det G is folded into
the x2 weights where it depends on x2 at most (every axis-aligned or affine
patch) and into the x1 weights where it depends on x1 alone, so each sum is
w1 @ (E @ w2), one GEMV over the squared error E; only where det depends on
both axes (curved spline and NURBS patches) is w1 w2 det formed, once per
block.

The block owns the six orders of the approximation (fresh GEMM outputs or
zero arrays), and the chain rule writes each physical derivative in place
into the array of the first order it reads, unless a later derivative reads
that order too (`_chain_rule`): on an axis-aligned patch each order feeds
one derivative and the chain rule forms no full-grid array; only where one
feeds two (a patch whose Jacobian has no exact zero) is a fresh one formed.
Each error is then formed in place, one subtraction and one square per
order, in that array, never in an array of a target or geometry jet, which
caches share.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField2D
from .geometry import (GeometryError, Patch, _add, _fold, _mul, jacobian_det,
                       jet_component)
from .ritz1d import default_quadrature_nodes
from .splines import _BLOCK_POINTS, gauss_rule
from .tensor import TensorSpline

__all__ = ["ErrorTable", "physical_error_norms", "combine_tables", "observed_order",
           "inverse_chain_rule"]

_ORDERS = {0: ((0, 0),), 1: ((1, 0), (0, 1)), 2: ((2, 0), (1, 1), (0, 2))}

# The most blocks of points that one x2-bound order of the approximation
# spans.  With the default nodes, C^(p-2) spaces of degree up to 10 on meshes
# of up to 64 elements per side bind their whole x2 axis at once; finer ones
# bind it in chunks of whole elements.  Each chunk makes the x1 blocks taller
# (more coefficient rows per block), so chunks are as few as this allows.
_CHUNK_BLOCKS = 4


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
    inv_det = 1.0 / det
    # B = J^{-1} = adj(J) / det with J = [d1 | d2] columns
    b11, b12 = _mul(inv_det, comp((0, 1), 1)), _mul(-inv_det, comp((0, 1), 0))
    b21, b22 = _mul(-inv_det, comp((1, 0), 1)), _mul(inv_det, comp((1, 0), 0))
    # the physical gradient is B^T times the parametric one
    gx, gy = _forms([[[(b11,)], [(b21,)]], [[(b12,)], [(b22,)]]], grad)
    a = [h if s is None else _fold(operator.isub, h, s) for h, s in zip(hess, (
        _add(_mul(gx, comp(ab, 0)), _mul(gy, comp(ab, 1))) for ab in _ORDERS[2]))]
    # H_phys = B^T A B, each entry a form in (a11, a12, a22) whose
    # coefficients are sums of products of B entries
    return (gx, gy), _forms([
        [[(b11, b11)], [(2.0, b11, b21)], [(b21, b21)]],
        [[(b11, b12)], [(b11, b22), (b21, b12)], [(b21, b22)]],
        [[(b12, b12)], [(2.0, b12, b22)], [(b22, b22)]]], a)


def _forms(coefs, xs):
    """``sum_j coefs[k][j] xs[j]`` for each row k of ``coefs``, left to
    right, each coefficient a list of products (tuples of factors) summed.
    Products with a None (zero) factor are dropped, and the terms of
    coefficients left with none; a form without terms is None.  Each
    coefficient is formed when its term is, and a form is written in place
    into its first term's input where no later form reads that input, into a
    fresh array otherwise."""
    coefs = [[[p for p in c if all(f is not None for f in p)] for c in row]
             for row in coefs]
    out = []
    for k, row in enumerate(coefs):
        acc = None
        for j, c in enumerate(row):
            if not c:
                continue
            c = functools.reduce(operator.add, [functools.reduce(operator.mul, p)
                                                for p in c])
            if acc is None:
                shared = any(later[j] for later in coefs[k + 1:])
                acc = xs[j] * c if shared else _fold(operator.imul, xs[j], c)
            else:
                acc = _fold(operator.iadd, acc, xs[j] * c)
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
    orders = [ab for t in range(3) for ab in _ORDERS[t]]
    # chunks of whole x2 elements, as few as keep each bound order of f_h
    # (dim1 rows) within _CHUNK_BLOCKS blocks
    chunks = -(-f_h.space.space1.dim * len(x2) // (_CHUNK_BLOCKS * _BLOCK_POINTS))
    cols = nq * -(-patch.partitions[1].n_elements // chunks)
    # blocks of whole x1 elements (nq nodes each), at least one per block
    rows = nq * max(1, _BLOCK_POINTS // (nq * cols))
    sums = np.zeros(3)
    for lo in range(0, len(x2), cols):
        chunk = slice(lo, lo + cols)
        # the six orders of f_h and of the geometry, x2 contracted once each
        fjet = f_h.bind_x2(x2[chunk], orders)
        gjet = patch.gmap.bind_x2(x2[chunk], orders)
        for start in range(0, len(x1), rows):
            block = slice(start, start + rows)
            sums += _squared_errors(gjet, patch.gmap.zeros, u, fjet, x1[block],
                                    x2[chunk], w1[block], w2[chunk])
        del fjet, gjet  # so that two chunks' bindings are never alive at once
    return ErrorTable({t: float(v) for t, v in enumerate(np.sqrt(sums))})


def _weighted_sum(w1, w2, det):
    """``E -> sum_ij w1[i] w2[j] det[i, j] E[i, j]`` for E on the grid.
    ``det`` has the broadcast shape of the axes it depends on and is folded
    into the weights of those axes once: where it depends on one axis or
    none, each sum is one GEMV over E."""
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


def _squared_errors(g_bound, zeros, u: ScalarField2D, f_bound, x1, x2, w1, w2) -> tuple:
    """The sums of w1 w2 det |d^t error|^2 for t = 0, 1, 2 on the tensor grid
    x1 (x) x2 with weights w1 (x) w2; ``g_bound`` and ``f_bound`` are the
    geometry and the approximation with x2 bound, ``zeros`` the geometry's
    exact-zero components."""
    # one geometry jet of the six orders on the grid; absent orders are zero
    jet = g_bound(x1)
    det = jacobian_det(jet, zeros)
    if np.any(det <= 0.0):
        # det has the shape of the axes it depends on; locate on the grid
        det = np.broadcast_to(det, (len(x1), len(x2)))
        i, j = np.unravel_index(np.argmin(det), det.shape)
        raise GeometryError(
            f"non-positive Jacobian determinant {det[i, j]:.3e} at quadrature "
            f"point ({x1[i]:.6f}, {x2[j]:.6f})"
        )
    weighted_sum = _weighted_sum(w1, w2, det)
    ujet = u.jet(*jet[0, 0], 2, 2)
    fjet = f_bound(x1)

    l2 = weighted_sum(_squared(fjet.pop((0, 0)), ujet(0, 0)))
    # the block owns f_h's orders: the chain rule writes into them
    (gx, gy), (hxx, hxy, hyy) = _chain_rule(
        jet, zeros, det, (fjet[1, 0], fjet[0, 1]), [fjet[ab] for ab in _ORDERS[2]])
    e1 = _squared(gx, ujet(1, 0))
    e1 += _squared(gy, ujet(0, 1))
    e2 = _squared(hxx, ujet(2, 0))
    exy = _squared(hxy, ujet(1, 1))
    exy *= 2.0
    e2 += exy
    e2 += _squared(hyy, ujet(0, 2))
    return l2, weighted_sum(e1), weighted_sum(e2)


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
