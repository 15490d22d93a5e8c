import numpy as np
import pytest

from asg1kit.ritz1d import (
    bubble,
    bubble_breakpoints,
    constrained_l2_functionals,
    pi_cross_functionals,
    pi_star_functionals,
    reflected_bubble_spline,
    ritz_functionals,
)
from asg1kit.splines import (
    Partition,
    UniSpline,
    UniSplineSpace,
    embed,
    eval_operator,
    gauss_rule,
    uniform_partition,
)

import oracles


def ritz_project(space, r, fn, nq=None):
    """The order-r Ritz projection of a function ``fn(x, d)``."""
    return oracles.project(ritz_functionals(space, r, nq), fn)


def l2_project(space, fn):
    return ritz_project(space, 0, fn)


def pi_star(p, k, partition, fn):
    """The endpoint projection of a function ``fn(x, d)`` onto S_{p,k+1}."""
    return oracles.project(pi_star_functionals(p, k, partition), fn)


def sin_field(freq=1.0):
    def ev(x, d=0):
        return freq ** d * np.sin(freq * x + d * np.pi / 2)

    return ev


def exp_field():
    return lambda x, d=0: np.exp(x)


# -- L2 projection -----------------------------------------------------------------

def test_l2_project_reproduces_spline():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    rng = np.random.default_rng(0)
    f = UniSpline(S, rng.standard_normal(S.dim))
    g = l2_project(S, f)
    assert np.max(np.abs(g.coefficients - f.coefficients)) <= 1e-12


def test_l2_project_zero():
    S = UniSplineSpace(2, 0, uniform_partition(3))
    g = l2_project(S, lambda x, d: np.zeros_like(x))
    assert np.max(np.abs(g.coefficients)) == 0.0


def test_l2_project_line_fit_oracle():
    # L2 fit of x^2 onto {1, x}: solving the 2x2 normal equations by hand
    # gives -1/6 + x.
    S = UniSplineSpace(1, 0, uniform_partition(1))
    g = l2_project(S, lambda x, d: x ** 2)
    x = np.linspace(0, 1, 11)
    assert np.max(np.abs(g(x) - (-1.0 / 6.0 + x))) <= 1e-12


def test_l2_orthogonality_of_residual():
    S = UniSplineSpace(1, 0, uniform_partition(1))
    g = l2_project(S, lambda x, d: x ** 2)
    xq, wq = np.polynomial.legendre.leggauss(10)
    x = 0.5 * (xq + 1)
    w = 0.5 * wq
    resid = x ** 2 - g(x)
    assert abs(np.sum(w * resid)) <= 1e-12
    assert abs(np.sum(w * resid * x)) <= 1e-12


# -- Ritz projectors ----------------------------------------------------------------

@pytest.mark.parametrize("p,k,r", [(3, 1, 1), (3, 1, 2), (4, 2, 2), (5, 3, 3),
                                   (4, 1, 2), (5, 2, 3)])
def test_ritz_reproduces_splines(p, k, r):
    S = UniSplineSpace(p, k, uniform_partition(5))
    rng = np.random.default_rng(p * 10 + r)
    f = UniSpline(S, rng.standard_normal(S.dim))
    g = ritz_project(S, r, f)
    assert np.max(np.abs(g.coefficients - f.coefficients)) <= 1e-12


def test_ritz_rejects_inadmissible_order():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    with pytest.raises(ValueError):
        ritz_project(S, 3, sin_field())


def test_ritz_endpoint_interpolation_both_sides():
    # p=3, k=1, r=2, u=sin: both-sided Hermite data since p >= 2r-1.
    S = UniSplineSpace(3, 1, uniform_partition(6))
    g = ritz_project(S, 2, sin_field())
    assert abs(g(0.0) - 0.0) <= 1e-10
    assert abs(g(0.0, 1) - 1.0) <= 1e-10
    assert abs(g(1.0) - np.sin(1.0)) <= 1e-10
    assert abs(g(1.0, 1) - np.cos(1.0)) <= 1e-10


def test_ritz_left_only_interpolation_when_p_small():
    # p=2, r=2 violates p >= 2r-1: left side still interpolates.
    S = UniSplineSpace(2, 1, uniform_partition(8))
    g = ritz_project(S, 2, sin_field())
    assert abs(g(0.0) - 0.0) <= 1e-12
    assert abs(g(0.0, 1) - 1.0) <= 1e-12
    # the right endpoint is not interpolated
    assert abs(g(1.0) - np.sin(1.0)) > 1e-6


def test_ritz_h2_orthogonality():
    S = UniSplineSpace(3, 1, uniform_partition(5))
    u = sin_field(3.0)
    g = ritz_project(S, 2, u)
    # independent, finer quadrature for the residual pairing
    x, w = gauss_rule(S.partition, 8)
    resid = u(x, 2) - g(x, 2)
    B2 = eval_operator(S, x, 2)
    norm_u2 = np.sqrt(np.sum(w * u(x, 2) ** 2))
    residuals = B2.T @ (w * resid)
    assert np.max(np.abs(residuals)) <= 1e-10 * norm_u2


def test_ritz_idempotent():
    S = UniSplineSpace(4, 2, uniform_partition(4))
    g = ritz_project(S, 2, exp_field())
    h = ritz_project(S, 2, g)
    assert np.max(np.abs(h.coefficients - g.coefficients)) <= 1e-12


def test_ritz_rate_matches_order_four():
    errs = []
    u = sin_field(3.0)
    for n in (4, 8, 16):
        S = UniSplineSpace(3, 1, uniform_partition(n))
        g = ritz_project(S, 2, u)
        errs.append(oracles.dense_l2_error(lambda x: u(x), lambda x: g(x)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.7 <= o <= 4.3 for o in orders), orders


def test_ritz_kink_insensitivity():
    # a spline of smoothness exactly k is reproduced despite broken higher
    # derivatives at the breakpoints
    Z = Partition((0.0, 0.21, 0.5, 0.77, 1.0))
    S = UniSplineSpace(4, 1, Z)
    rng = np.random.default_rng(3)
    f = UniSpline(S, rng.standard_normal(S.dim))
    g = ritz_project(S, 2, f)
    assert np.max(np.abs(g.coefficients - f.coefficients)) <= 1e-12


# -- boundary bubbles ----------------------------------------------------------------

def test_bubble_eta_snapping_example():
    # p=3, uniform n=8: thresholds l/6 snap to 0.25, 0.375, 0.5
    assert bubble_breakpoints(3, uniform_partition(8)) == (0.25, 0.375, 0.5)


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_bubble_endpoint_conditions(p, s, n):
    b = bubble(p, uniform_partition(n), s)
    for t in (0, 1, 2):
        want = 1.0 if t == s else 0.0
        assert abs(b(0.0, t) - want) <= 1e-12, (p, s, n, t)
        assert abs(b(1.0, t)) <= 1e-12


def test_bubble_membership_and_embedding():
    b = bubble(4, uniform_partition(8), 1)
    assert b.space == UniSplineSpace(4, 3, uniform_partition(8))
    emb = embed(b, UniSplineSpace(4, 1, uniform_partition(8)))
    x = np.linspace(0, 1, 101)
    assert np.max(np.abs(emb(x) - b(x))) <= 1e-12


def test_bubble_rejects_coarse_partition():
    with pytest.raises(ValueError):
        bubble(4, uniform_partition(5), 0)  # eta_3 threshold 16/15 > 1


def test_bubble_breakpoints_need_room_for_eta_3():
    # eta_l is the first breakpoint >= 4*l*p*h/9; p = 6 needs n >= 8
    assert bubble_breakpoints(6, uniform_partition(8)) == (0.375, 0.75, 1.0)
    bubble(6, uniform_partition(8), 0)  # eta_3 = 1 is room enough
    for p, n in ((4, 5), (6, 7)):
        with pytest.raises(ValueError, match="no breakpoint"):
            bubble_breakpoints(p, uniform_partition(n))


def test_bubble_seminorm_scaling():
    # |phi^(2)|_{L2}^2 / h^5 stays within a factor-4 band over n in {8,16,32}
    ratios = []
    for n in (8, 16, 32):
        Z = uniform_partition(n)
        b = bubble(3, Z, 2)
        x, w = gauss_rule(Z, 6)
        val = np.sum(w * b(x) ** 2)
        ratios.append(val / (1.0 / n) ** 5)
    assert max(ratios) / min(ratios) <= 4.0, ratios


def test_reflected_bubble_mirrors_conditions():
    Z = uniform_partition(8)
    g = reflected_bubble_spline(3, Z, 2)
    assert abs(g(1.0, 2) - 1.0) <= 1e-11
    assert abs(g(1.0)) <= 1e-12
    assert abs(g(1.0, 1)) <= 1e-11
    for t in (0, 1, 2):
        assert abs(g(0.0, t)) <= 1e-12


# -- Pi* -----------------------------------------------------------------------------

@pytest.mark.parametrize("p,k", [(3, 1), (4, 1), (4, 2), (6, 2), (5, 3)])
def test_pi_star_reproduces_target_space(p, k):
    # g = M d reproduces f up to the round-off bound of the product M d with
    # n data points: |g - f| <= n eps (|M| |d|) entrywise
    Z = uniform_partition(8)
    S = UniSplineSpace(p, k + 1, Z)
    funcs = pi_star_functionals(p, k, Z)
    for seed in sorted({p + k, *range(10)}):
        f = UniSpline(S, np.random.default_rng(seed).standard_normal(S.dim))
        d = oracles.data_vector(funcs, f)
        g = pi_star(p, k, Z, f)
        bound = d.size * np.finfo(float).eps * (np.abs(funcs.matrix) @ np.abs(d))
        assert np.all(np.abs(g.coefficients - f.coefficients) <= bound), seed


def test_pi_star_endpoint_contract_low_p():
    Z = uniform_partition(8)
    g = pi_star(3, 1, Z, exp_field())
    for s in (0, 1, 2):
        assert abs(g(0.0, s) - 1.0) <= 1e-10, s
        assert abs(g(1.0, s) - np.e) <= 1e-10, s


def test_pi_star_endpoint_contract_high_p():
    Z = uniform_partition(8)
    def u(x, d):
        return 2.0 ** d * np.cos(2 * x + d * np.pi / 2)

    g = pi_star(6, 2, Z, u)
    for s in (0, 1, 2):
        assert abs(g(0.0, s) - u(np.array(0.0), s)) <= 1e-10
        assert abs(g(1.0, s) - u(np.array(1.0), s)) <= 1e-10


def test_pi_star_rejects_bad_parameters():
    Z = uniform_partition(8)
    with pytest.raises(ValueError):
        pi_star(3, 2, Z, exp_field())  # k+2 > p
    with pytest.raises(ValueError):
        pi_star(4, 0, Z, exp_field())  # k+2 < 3


def test_pi_star_edge_error_decay():
    # the bubble corrections decay faster than the h^4 principal term, so the
    # observed order approaches 4 from above
    u = sin_field(3.0)
    errs = []
    for n in (8, 16, 32, 64):
        Z = uniform_partition(n)
        g = pi_star(3, 1, Z, u)
        errs.append(oracles.dense_l2_error(lambda x: u(x), lambda x: g(x)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(o >= 3.6 for o in orders), orders
    assert orders[-1] <= 4.6, orders


# -- the factored form against the dense matrices -----------------------------------
#
# The library applies each projector to its N data d as moments, a Gram
# solve and integrations; `oracles` builds the same map as one dense matrix
# M.  To first order each side is the exact map with every product and sum
# perturbed by a relative gamma_N = N u / (1 - N u), u = eps / 2 (no inner
# product of either side has more than N terms), which moves c = M d by at
# most gamma_N |M| |d|, and with the Gram matrix G of the base space
# perturbed as much, which its solve amplifies by kappa(G), here in the max
# norm in which the difference is measured.  A correction c + U (d' - E c)
# carries the error of c through E, a factor 1 + || |U| |E| ||; the
# constrained projection also solves with its Schur complement
# S = E G^-1 E^T, kappa(G) kappa(S).  Its correction is unchanged when the
# rows of E and their data are rescaled (the derivative rows are p/h times
# the value rows), so kappa(S) is taken of S scaled to a unit diagonal,
# within a small factor of its best scaling (van der Sluis).  So the two
# results differ by at most
#     2 gamma_N kappa (1 + || |U| |E| ||) max(|M| |d|).

GRADED = Partition(tuple(float(t) for t in (np.arange(17) / 16) ** 2))


def _gram(space, nq):
    x, w = gauss_rule(space.partition, nq)
    B = eval_operator(space, x)
    return B.T @ (w[:, None] * B)


def _assert_matches_dense(funcs, M, kappa, fn):
    data = oracles.data_vector(funcs, fn)
    rand = np.random.default_rng(len(data)).standard_normal(len(data))
    spread = 1.0
    if funcs.correction is not None:
        U, E = funcs.correction
        spread += np.max(np.abs(U) @ np.abs(E).sum(axis=1))
    N, u = len(data), np.finfo(float).eps / 2
    for d, got in ((data, oracles.project(funcs, fn).coefficients),
                   (rand, funcs.coefficients(rand))):
        bound = 2 * N * u / (1 - N * u) * kappa * spread * np.max(np.abs(M) @ np.abs(d))
        assert np.max(np.abs(got - M @ d)) <= bound


@pytest.mark.parametrize("mesh", ["uniform", "graded"])
@pytest.mark.parametrize("p", range(3, 9))
def test_factored_projectors_match_dense_matrices(p, mesh):
    Z = uniform_partition(16) if mesh == "uniform" else GRADED
    def u(x, d):
        return 3.0 ** d * np.sin(3.0 * x + 1.0 + d * np.pi / 2)

    for k in sorted({1, p - 2}):
        S = UniSplineSpace(p, k, Z)
        for r in range(k + 2):
            f = ritz_functionals(S, r)
            kappa = np.linalg.cond(_gram(f.base, p + 2), np.inf)
            _assert_matches_dense(f, oracles.ritz_matrix(S, r, p + 2), kappa, u)
        # the crossing projector's constrained form on S_{p-1,k}
        S = UniSplineSpace(p - 1, k, Z)
        f = constrained_l2_functionals(S)
        G = _gram(S, p + 1)
        E = f.correction[1]
        Schur = E @ np.linalg.solve(G, E.T)
        scale = 1.0 / np.sqrt(np.diag(Schur))
        kappa = np.linalg.cond(G, np.inf) * np.linalg.cond(
            scale[:, None] * Schur * scale[None, :], np.inf)
        _assert_matches_dense(f, oracles.constrained_l2_matrix(S, p + 1), kappa, u)
        if p <= 4 and k + 2 <= p:  # Pi* in its bubble form
            f = pi_star_functionals(p, k, Z)
            kappa = np.linalg.cond(_gram(f.base, p + 2), np.inf)
            _assert_matches_dense(f, oracles.pi_star_bubble_matrix(p, k, Z, p + 2),
                                  kappa, u)


# one functionals object of each constructor and form, on 16 elements
Z16 = uniform_partition(16)
EVERY_KIND = {
    **{f"ritz_r{r}": lambda r=r: ritz_functionals(UniSplineSpace(5, 3, Z16), r)
       for r in range(4)},
    "constrained_p3": lambda: constrained_l2_functionals(UniSplineSpace(3, 1, Z16)),
    "pi_star_bubble_p3": lambda: pi_star_functionals(3, 1, Z16),
    "pi_star_bubble_p4": lambda: pi_star_functionals(4, 2, Z16),
    "pi_star_order3_p6": lambda: pi_star_functionals(6, 2, Z16),
    "pi_cross_p3": lambda: pi_cross_functionals(3, 1, Z16),
    "pi_cross_p4": lambda: pi_cross_functionals(4, 2, Z16),
}


@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_runs_tile_the_data_in_ascending_orders(kind):
    f = EVERY_KIND[kind]()
    runs = [run for _, run in f.runs]
    assert [run.start for run in runs] == [0] + [run.stop for run in runs[:-1]]
    assert runs[-1].stop == len(f.orders)
    for d, run in f.runs:
        assert run.start < run.stop and run.step is None
        assert all(o == d for o in f.orders[run]), (d, run)
    ds = [d for d, _ in f.runs]
    assert all(a < b for a, b in zip(ds, ds[1:])), ds


@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_data_vector_calls_the_field_once_per_run(kind):
    f = EVERY_KIND[kind]()
    calls = []

    def record(x, d):
        calls.append((d, np.array(x)))
        return 10.0 * x + d

    data = oracles.data_vector(f, record)
    assert [d for d, _ in calls] == [d for d, _ in f.runs]
    for (d, x), (_, run) in zip(calls, f.runs):
        assert np.array_equal(x, np.asarray(f.points)[run])
        assert np.array_equal(data[run], 10.0 * x + d)


def test_cold_ritz_build_peaks_below_one_dense_functional_matrix():
    # the order-2 functionals of S_(6,4) on 128 elements take N = 2 + 128 * 8
    # data onto the base space S_(4,2) of dimension 259: the build must
    # stay below one dense (259 x N) matrix of doubles, 2.1 MB
    import tracemalloc

    S = UniSplineSpace(6, 4, uniform_partition(128))
    bound = 259 * (2 + 128 * 8) * 8
    tracemalloc.start()
    try:
        f = ritz_functionals.__wrapped__(S, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak
    assert (f.base.dim, len(f.points)) == (259, 2 + 128 * 8)
