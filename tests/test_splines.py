import math

import numpy as np
import pytest

from asg1kit.splines import (
    Partition,
    UniSpline,
    UniSplineSpace,
    derivative,
    differentiate,
    dimension,
    embed,
    eval_operator,
    eval_spline,
    gauss_rule,
    greville_points,
    integrate,
    multiply_by_linear,
    reverse,
    tensor_bind_x2,
    tensor_jet,
    uniform_partition,
)

import oracles


def random_spline(space, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return UniSpline(space, scale * rng.standard_normal(space.dim))


interpolate = oracles.greville_interpolant
EPS = np.finfo(float).eps


def blossom_bound(degrees, scale):
    """Round-off bound of a chain of blossom maps into spaces of the given
    degrees q, for coefficients weighted at most ``scale``.  A map from
    degree p runs p levels of de Boor's recursion, each step a convex
    combination (five roundings), sums the p+1 products of a band (p+1
    more) and, raising the degree, averages q = p+1 rows and forms
    a W1 + b Wx (q+4 more): at most 7q + 1 roundings of u = eps/2 relative
    to the weighted coefficients.  Its weights are convex (a W1 + b Wx sums
    at most |a| + |b| per row), so no map of the chain grows them, and each
    adds its own round-off."""
    return sum(7 * q + 1 for q in degrees) * EPS / 2 * scale


def assert_exact_map(g, fn, degrees, scale, oracle):
    """``g``, of degree q and made by blossom maps into spaces of ``degrees``
    from coefficients weighted at most ``scale``, agrees with the callable
    ``fn`` and, in a continuous space, with the collocation ``oracle()``.
    Evaluating g or fn costs (6q + 1) u scale each (de Boor's convex
    recursion and a band sum) plus two roundings for a linear factor.  The
    collocation G c = v is off by kappa(G) (|dv| + 3 dim rho u |G| |c|)
    with |G| = 1 (partition of unity), rho <= 2 the growth factor and
    |dv| <= (6q + 3) u scale."""
    q, space = g.space.degree, g.space
    bound = blossom_bound(degrees, scale)
    x = np.concatenate((np.linspace(0.0, 1.0, 101), space.partition.as_array()))
    assert np.max(np.abs(g(x) - fn(x))) <= bound + (12 * q + 4) * EPS / 2 * scale
    if space.smoothness >= 0:
        kappa = np.linalg.cond(eval_operator(space, greville_points(space)), np.inf)
        tol = bound + kappa * (6 * q + 3 + 6 * space.dim) * EPS / 2 * scale
        assert np.max(np.abs(g.coefficients - oracle().coefficients)) <= tol


# -- partitions ----------------------------------------------------------------

def test_uniform_partition_values():
    assert uniform_partition(1).breakpoints == (0.0, 1.0)
    assert uniform_partition(1).grid_size == 1.0
    assert uniform_partition(4).breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert uniform_partition(4).grid_size == 0.25
    assert uniform_partition(8).grid_size == 0.125


def test_uniform_partition_rejects_zero():
    with pytest.raises(ValueError):
        uniform_partition(0)


@pytest.mark.parametrize("bad", [(0.0,), (0.1, 1.0), (0.0, 0.9), (0.0, 0.5, 0.5, 1.0)])
def test_partition_validation(bad):
    with pytest.raises(ValueError):
        Partition(bad)


def test_reverse():
    assert reverse(Partition((0.0, 1.0))).breakpoints == (0.0, 1.0)
    assert reverse(Partition((0.0, 0.3, 1.0))).breakpoints == (0.0, 0.7, 1.0)
    z = Partition((0.0, 0.2, 0.5, 1.0))
    np.testing.assert_allclose(
        reverse(reverse(z)).as_array(), z.as_array(), atol=1e-15
    )


# -- dimension -----------------------------------------------------------------

def test_dimension_examples():
    assert dimension(UniSplineSpace(3, 1, uniform_partition(1))) == 4
    assert dimension(UniSplineSpace(3, 1, uniform_partition(4))) == 10
    assert dimension(UniSplineSpace(5, 2, uniform_partition(2))) == 9


def test_dimension_against_knot_count_oracle():
    for p in range(1, 7):
        for k in range(-1, p):
            for n in range(1, 9):
                Z = uniform_partition(n)
                S = UniSplineSpace(p, k, Z)
                assert dimension(S) == oracles.count_basis_functions(
                    p, k, Z.breakpoints
                )


# -- evaluation ----------------------------------------------------------------

def test_partition_of_unity():
    S = UniSplineSpace(4, 2, uniform_partition(5))
    one = UniSpline(S, np.ones(S.dim))
    x = np.linspace(0.0, 1.0, 1000)
    assert np.max(np.abs(one(x) - 1.0)) <= 1e-13


def test_linear_reproduction_derivative():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    f = interpolate(S, lambda x: x)
    assert abs(eval_spline(f, 0.37, 1) - 1.0) <= 1e-12


@pytest.mark.parametrize("p,k,n", [(3, 1, 4), (4, 2, 5), (5, 3, 3), (2, 0, 6)])
def test_eval_matches_bezier_extraction_oracle(p, k, n):
    Z = uniform_partition(n)
    S = UniSplineSpace(p, k, Z)
    f = random_spline(S, seed=p * 100 + n)
    x = np.linspace(0.0, 1.0, 57)
    ref = oracles.eval_piecewise(p, k, Z.breakpoints, f.coefficients, x)
    assert np.max(np.abs(f(x) - ref)) <= 1e-13


def test_eval_outside_domain_rejected():
    S = UniSplineSpace(2, 0, uniform_partition(2))
    f = random_spline(S)
    with pytest.raises(ValueError):
        f(1.5)
    with pytest.raises(ValueError):
        f(-0.2)


def test_eval_clips_round_off_overshoot_and_rejects_more():
    from asg1kit.splines import _BREAKPOINT_TOL as tol

    S = UniSplineSpace(3, 1, uniform_partition(4))
    f = random_spline(S)
    inside = np.array([0.0, 0.3, 1.0])
    for d in range(3):
        # overshoot within the tolerance is evaluated at the end point itself
        # (unclipped, scipy would return nan beyond the knot span)
        over = np.array([-0.5 * tol, 0.3, 1.0 + 0.5 * tol])
        assert np.array_equal(eval_operator(S, over, d), eval_operator(S, inside, d))
    assert f(1.0 + 0.5 * tol) == f(1.0) and f(-0.5 * tol) == f(0.0)
    for x in ([-3 * tol], [1.0 + 3 * tol], [0.5, 1.0 + 3 * tol], [-3 * tol, 0.5]):
        with pytest.raises(ValueError, match="evaluation point outside"):
            eval_operator(S, np.array(x))


def test_polynomial_reproduction():
    for p in (2, 3, 5):
        S = UniSplineSpace(p, p - 2, uniform_partition(3))
        f = interpolate(S, lambda x: (1 + x) ** p / 2 ** p)
        x = np.linspace(0, 1, 101)
        assert np.max(np.abs(f(x) - (1 + x) ** p / 2 ** p)) <= 1e-12


def test_eval_one_sided_limits():
    # x^2 on [0, 0.5], (1-x)^2 on [0.5, 1]: C^0 with a kink at 0.5.  The
    # derivative at 0.5 must be the right limit -1 (the left limit is +1),
    # and at x=1 the limit from the left.
    Z = Partition((0.0, 0.5, 1.0))
    S = UniSplineSpace(2, 0, Z)
    f = interpolate(S, lambda x: np.minimum(x, 1.0 - x) ** 2)
    assert f(0.5, 1) == pytest.approx(-1.0, abs=1e-12)
    assert f(1.0, 1) == pytest.approx(0.0, abs=1e-12)
    assert f(0.5) == pytest.approx(0.25, abs=1e-13)


# -- derivative / integrate ------------------------------------------------------

def test_derivative_of_constant_is_zero():
    S = UniSplineSpace(3, 2, uniform_partition(4))
    one = UniSpline(S, np.ones(S.dim))
    d = derivative(one)
    assert np.max(np.abs(d.coefficients)) == 0.0


def test_derivative_of_x_squared():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    f = interpolate(S, lambda x: x * x)
    d = derivative(f)
    x = np.linspace(0, 1, 51)
    assert np.max(np.abs(d(x) - 2 * x)) <= 1e-12
    assert d.space == UniSplineSpace(2, 0, S.partition)


@pytest.mark.parametrize("p,k", [(3, 1), (4, 2), (5, 4)])
def test_derivative_matches_eval(p, k):
    S = UniSplineSpace(p, k, uniform_partition(5))
    f = random_spline(S, seed=7)
    d = derivative(f)
    x = np.linspace(0, 1, 200)
    assert np.max(np.abs(d(x) - f(x, 1))) <= 1e-12


def test_antiderivative_examples():
    # the integral from 0 plus a constant c0 is the antiderivative with value c0 at 0
    S0 = UniSplineSpace(2, 0, uniform_partition(3))
    S1 = S0.antiderivative_space()
    const3 = UniSpline(S1, 3.0 + integrate(S0, np.zeros(S0.dim)))
    x = np.linspace(0, 1, 20)
    assert np.max(np.abs(const3(x) - 3.0)) <= 1e-14

    lin = UniSpline(S1, integrate(S0, np.ones(S0.dim)))
    assert np.max(np.abs(lin(x) - x)) <= 1e-14


def test_derivative_antiderivative_roundtrip():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    g = random_spline(UniSplineSpace(2, 0, S.partition), seed=3)
    back = derivative(UniSpline(S, 1.25 + integrate(g.space, g.coefficients)))
    assert np.max(np.abs(back.coefficients - g.coefficients)) <= 1e-13

    f = random_spline(S, seed=4)
    df = derivative(f)
    again = float(f(0.0)) + integrate(df.space, df.coefficients)
    assert np.max(np.abs(again - f.coefficients)) <= 1e-12


@pytest.mark.parametrize("axis", [0, 1])
def test_axis_maps_act_on_every_fiber(axis):
    Z = Partition((0.0, 0.1, 0.35, 0.4, 0.8, 1.0))
    S = UniSplineSpace(3, 1, Z)
    shape = [4, 4, 2]
    shape[axis] = S.dim
    c = np.random.default_rng(5).standard_normal(shape)
    dc, ic = differentiate(S, c, axis), integrate(S, c, axis)
    assert dc.shape[axis] == S.dim - 1 and ic.shape[axis] == S.dim + 1
    fibers, dfib, ifib = (np.moveaxis(v, axis, -1) for v in (c, dc, ic))
    for idx in np.ndindex(fibers.shape[:-1]):
        f = UniSpline(S, fibers[idx])
        assert np.max(np.abs(dfib[idx] - derivative(f).coefficients)) <= 1e-13
        assert np.max(np.abs(ifib[idx] - integrate(S, fibers[idx]))) <= 1e-14
    back = differentiate(S.antiderivative_space(), ic, axis)
    assert np.max(np.abs(back - c)) <= 1e-13
    constant = np.repeat(np.take(c, [0], axis), S.dim, axis)
    assert np.all(differentiate(S, constant, axis) == 0.0)


# -- multiply by linear -----------------------------------------------------------

def test_multiply_constant():
    S = UniSplineSpace(3, 1, uniform_partition(3))
    one = UniSpline(S, np.ones(S.dim))
    g = multiply_by_linear(one, 2.0, 0.0)
    assert g.space == UniSplineSpace(4, 1, S.partition)
    x = np.linspace(0, 1, 40)
    assert np.max(np.abs(g(x) - 2.0)) <= 1e-13


def test_multiply_x_by_x():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    f = UniSpline(S, greville_points(S))  # x, by Marsden's identity
    g = multiply_by_linear(f, 0.0, 1.0)
    x = np.linspace(0, 1, 40)
    assert np.max(np.abs(g(x) - x * x)) <= 1e-13


# non-uniform, grid size 0.11 <= 1/(p+1) for every p <= 8
NONUNIFORM = Partition((0.0, 0.05, 0.12, 0.2, 0.31, 0.4, 0.47, 0.55, 0.66,
                        0.74, 0.83, 0.9, 1.0))


PARTITIONS = [("", uniform_partition(5)), ("-nonuniform", NONUNIFORM),
              ("-reversed", reverse(NONUNIFORM))]


def smoothness_range(p):
    return sorted({k for k in (-1, 0, p - 2, p - 1) if k >= -1})


def refined(Z):
    """``Z`` with the midpoint of every element inserted."""
    z = Z.as_array()
    return Partition(tuple(np.sort(np.concatenate((z, 0.5 * (z[1:] + z[:-1]))))))


@pytest.mark.parametrize("p,k,Z", [
    pytest.param(p, k, Z, id=f"{p}-{k}{label}")
    for p in range(1, 13) for k in smoothness_range(p)
    for label, Z in PARTITIONS
])
def test_multiply_random_pointwise(p, k, Z):
    S = UniSplineSpace(p, k, Z)
    f = random_spline(S, seed=11)
    g = multiply_by_linear(f, -0.7, 1.9)
    assert g.space == UniSplineSpace(p + 1, k, Z)
    assert_exact_map(g, lambda x: (-0.7 + 1.9 * x) * f(x), [p + 1],
                     2.6 * np.max(np.abs(f.coefficients)),
                     lambda: oracles.collocation_multiply(f, -0.7, 1.9))


def test_product_weights_equal_the_blossoms_taken_one_at_a_time():
    # the q blossoms with one argument left out, taken by one broadcast
    # _de_boor call and summed over that axis, are those taken one at a time
    # and summed in order, bit for bit
    from asg1kit.splines import _BREAKPOINT_TOL, _de_boor, _refinement, knot_vector

    for Z in (uniform_partition(7), uniform_partition(128), NONUNIFORM):
        for p in range(1, 13):
            for k in range(-1, p):
                source, target = UniSplineSpace(p, k, Z), UniSplineSpace(p + 1, k, Z)
                t, tau, m, q = knot_vector(source), knot_vector(target), target.dim, p + 1
                x = tau[:m] + _BREAKPOINT_TOL
                u = tau[np.arange(m)[:, None] + np.arange(1, q + 1)]
                drops = [_de_boor(t, x, np.delete(u, i, axis=1)) for i in range(q)]
                index, W1, Wx = _refinement(source, target)
                assert np.array_equal(index, drops[0][0][:, None] + np.arange(p + 1))
                assert np.array_equal(W1, sum(w for _, w in drops) / q), (p, k)
                assert np.array_equal(
                    Wx, sum(u[:, i, None] * w for i, (_, w) in enumerate(drops)) / q)


@pytest.mark.parametrize("p,k", [(3, 1), (4, 2), (6, 4)])
def test_eval_operator_matches_eval_spline(p, k):
    # every derivative order up to p+1, including the orders beyond k+1 whose
    # values at interior breakpoints are right limits
    Z = Partition((0.0, 0.1, 0.25, 0.4, 0.6, 0.7, 0.85, 1.0))
    S = UniSplineSpace(p, k, Z)
    f = random_spline(S, seed=p)
    rng = np.random.default_rng(p + k)
    x = np.concatenate((Z.as_array(), [0.0, 1.0], rng.uniform(0, 1, 40)))
    for d in range(p + 2):
        ref = eval_spline(f, x, d)
        ours = eval_operator(S, x, d) @ f.coefficients
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(ours - ref)) <= 1e-12 * scale, d
    assert np.all(eval_operator(S, x, p + 1) == 0.0)
    # independent oracle at the breakpoints: the d-th derivative of the
    # Bernstein form of the element to the right (to the left at x = 1)
    seg = oracles.bezier_extract(p, k, Z.breakpoints, f.coefficients)
    h = np.diff(Z.as_array())
    for d in range(p + 1):
        factor = math.factorial(p) / math.factorial(p - d)
        right = factor * np.diff(seg, d, axis=1)[:, 0] / h ** d
        at_one = factor * np.diff(seg[-1], d)[-1] / h[-1] ** d
        expected = np.append(right, at_one)
        ours = eval_operator(S, Z.as_array(), d) @ f.coefficients
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(ours - expected)) <= 1e-10 * scale, d


@pytest.mark.parametrize("p,Z", [
    pytest.param(p, Z, id=f"{p}-{label}")
    for p in range(9)
    for label, Z in [("uniform128", uniform_partition(128)),
                     ("nonuniform", NONUNIFORM)]
] + [pytest.param(12, uniform_partition(3), id="12-uniform3")])
def test_basis_matches_scipy_bspline(p, Z):
    # scipy's de Boor evaluation as the oracle, for every smoothness and
    # every derivative order up to p+1: each row within 1e-14 of its maximum
    from scipy.interpolate import BSpline

    from asg1kit.splines import knot_vector

    rng = np.random.default_rng(p)
    x = np.concatenate((rng.uniform(0, 1, 100), Z.as_array(), [0.0, 1.0]))
    for k in range(-1, p):
        S = UniSplineSpace(p, k, Z)
        basis = BSpline(knot_vector(S), np.eye(S.dim), p, extrapolate=False)
        f = random_spline(S, seed=k + 1)
        spline = BSpline(knot_vector(S), f.coefficients, p, extrapolate=False)
        for d in range(p + 2):
            ref = basis(x, nu=d)
            ours = eval_operator(S, x, d)
            bound = 1e-14 * np.max(np.abs(ref), axis=1)
            assert np.all(np.abs(ours - ref).max(axis=1) <= bound), (k, d)
            scale = np.abs(ref) @ np.abs(f.coefficients)
            assert np.all(np.abs(eval_spline(f, x, d) - spline(x, nu=d))
                          <= 1e-14 * scale), (k, d)


def test_eval_operator_results_are_fresh_arrays():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    x = np.array([0.1, 0.5, 1.0])
    expected = eval_operator(S, x, 1).copy()
    eval_operator(S, x, 1)[:] = 7.0
    assert np.array_equal(eval_operator(S, x, 1), expected)


def test_eval_operator_rejects_outside_points_every_call():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    for _ in range(3):
        with pytest.raises(ValueError, match="evaluation point outside"):
            eval_operator(S, np.array([0.5, 1.5]))


def test_eval_operator_memo_stays_within_its_bound():
    from asg1kit import splines

    S = UniSplineSpace(3, 1, uniform_partition(16))
    rng = np.random.default_rng(0)
    sets = [rng.uniform(0, 1, 1000) for _ in range(300)]
    first = eval_operator(S, sets[0])
    for x in sets:
        eval_operator(S, x)
        assert splines._memo_bytes <= splines._MEMO_BYTES
    # 300 sets of 48 kB each: the oldest are gone, and the count is exact
    assert len(splines._memo) < len(sets)
    assert splines._memo_bytes == sum(len(raw) + f.nbytes + r.nbytes for
                                      (_, _, _, raw), (f, r) in splines._memo.items())
    assert np.array_equal(eval_operator(S, sets[0]), first)


# -- embedding ---------------------------------------------------------------------

def assert_embeds(f, target):
    """`embed` of ``f`` into ``target``: the degree raised by one map per
    degree, then one same-degree map unless the raise reached ``target``."""
    g = embed(f, target)
    assert g.space == target
    p, q = f.space.degree, target.degree
    raised = UniSplineSpace(q, f.space.smoothness, f.space.partition)
    degrees = list(range(p + 1, q + 1)) + ([q] if raised != target else [])
    assert_exact_map(g, f, degrees, np.max(np.abs(f.coefficients)),
                     lambda: oracles.collocation_embed(f, target))


def test_embed_smoothness_drop():
    Z = uniform_partition(4)
    f = random_spline(UniSplineSpace(3, 2, Z), seed=5)
    g = embed(f, UniSplineSpace(3, 1, Z))
    x = np.linspace(0, 1, 100)
    assert np.max(np.abs(g(x) - f(x))) <= 1e-12
    for p in range(1, 13):
        for k in smoothness_range(p):
            for label, Z in PARTITIONS:
                f = random_spline(UniSplineSpace(p, k, Z), seed=p + k)
                for drop in sorted({-1, k - 1} - {-2}):
                    assert_embeds(f, UniSplineSpace(p, drop, Z))


def test_embed_degree_raise():
    Z = uniform_partition(4)
    f = random_spline(UniSplineSpace(3, 1, Z), seed=6)
    g = embed(f, UniSplineSpace(4, 1, Z))
    x = np.linspace(0, 1, 100)
    assert np.max(np.abs(g(x) - f(x))) <= 1e-12
    for p in range(1, 13):
        for k in smoothness_range(p):
            for label, Z in PARTITIONS:
                f = random_spline(UniSplineSpace(p, k, Z), seed=p + k)
                for r in (1, 2, 3):
                    assert_embeds(f, UniSplineSpace(p + r, k, Z))


def test_embed_transitivity():
    Z = uniform_partition(3)
    f = random_spline(UniSplineSpace(3, 2, Z), seed=8)
    a = embed(embed(f, UniSplineSpace(4, 2, Z)), UniSplineSpace(5, 1, Z))
    b = embed(f, UniSplineSpace(5, 1, Z))
    x = np.linspace(0, 1, 100)
    assert np.max(np.abs(a(x) - b(x))) <= 1e-11


def test_embed_rejects_non_nesting():
    Z = uniform_partition(4)
    f = random_spline(UniSplineSpace(3, 1, Z), seed=9)
    with pytest.raises(ValueError):
        embed(f, UniSplineSpace(3, 2, Z))  # more smoothness than the source
    with pytest.raises(ValueError):
        embed(f, UniSplineSpace(2, 1, Z))  # lower degree


def test_embed_into_refined_partition():
    Z = uniform_partition(2)
    f = random_spline(UniSplineSpace(3, 1, Z), seed=10)
    g = embed(f, UniSplineSpace(3, 1, Partition((0.0, 0.25, 0.5, 0.75, 1.0))))
    x = np.linspace(0, 1, 100)
    assert np.max(np.abs(g(x) - f(x))) <= 1e-12
    for p in range(1, 13):
        for k in smoothness_range(p):
            for label, Z in PARTITIONS:
                f = random_spline(UniSplineSpace(p, k, Z), seed=p + k)
                for r in (0, 1, 2, 3):
                    for kk in sorted({k, -1}):
                        assert_embeds(f, UniSplineSpace(p + r, kk, refined(Z)))


def test_cold_maps_allocate_no_dense_matrix():
    # a cold embedding of the degree-6 bubble and a cold product into
    # S_(6,4) on 128 elements (dim 261) stay banded.  The product, the larger
    # of the two, runs its six recursions (one per blossom argument left out)
    # as one: a (6, 261, 5) stack of arguments, (6, 261, 6) weights and a few
    # recursion temporaries of at most (6, 261, 5) doubles, then W1, Wx,
    # their combination and the gathered coefficients (261 x 6 each): about
    # 0.4 MB, below one dense 261 x 261 array of doubles (545 KB)
    import tracemalloc

    from asg1kit import splines
    from asg1kit.ritz1d import bubble

    Z = uniform_partition(128)
    target = UniSplineSpace(6, 4, Z)
    b = bubble(6, Z, 0)
    f = random_spline(UniSplineSpace(5, 4, Z), seed=3)
    splines._refinement.cache_clear()
    tracemalloc.start()
    try:
        embed(b, target)
        multiply_by_linear(f, 0.3, -1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < target.dim ** 2 * 8, peak


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bind_x2_layout_matches_scattered_contraction(k):
    # every order within the degrees, k components bound as (dim1, k N2)
    # rows: each result agrees with the band contraction of the same points
    # paired up (which sums in another order), each component slice is
    # contiguous along x2 and equals the binding of that component alone
    Z = Partition((0.0, 0.1, 0.25, 0.6, 0.7, 1.0))
    S1, S2 = UniSplineSpace(4, 2, Z), UniSplineSpace(3, 1, uniform_partition(3))
    rng = np.random.default_rng(20 + k)
    coef = rng.standard_normal((S1.dim, S2.dim, k))
    x1 = np.sort(np.concatenate((Z.breakpoints, rng.random(25))))
    x2 = np.sort(np.concatenate(((0.0, 1.0), rng.random(9))))
    orders = [(a, b) for a in range(S1.degree + 1) for b in range(S2.degree + 1)]
    step2 = tensor_bind_x2((S1, S2), coef, x2, orders)
    alone = [tensor_bind_x2((S1, S2), coef[..., c], x2, orders) for c in range(k)]
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    want = tensor_jet((S1, S2), coef, X1, X2, orders)
    for lo, hi in ((0, 7), (7, len(x1))):
        got = step2(x1[lo:hi])
        assert set(got) == set(orders)
        for ab in orders:
            assert got[ab].shape == (hi - lo, len(x2), k)
            scale = float(np.max(np.abs(want[ab])))
            assert np.max(np.abs(got[ab] - want[ab][lo:hi])) <= 1e-14 * scale, ab
            for c in range(k):
                assert got[ab][..., c].strides[1] == got[ab].itemsize, (ab, c)
                assert np.array_equal(got[ab][..., c], alone[c](x1[lo:hi])[ab]), (ab, c)


@pytest.mark.parametrize("p,k,comps", [
    (p, k, comps) for p in range(3, 9) for k in sorted({1, p - 2})
    for comps in ((), (3,))])
def test_band_exact_bind_x2_matches_dense_product(p, k, comps):
    # the x2 step contracts each run of points sharing a band start with its
    # p+1 coefficient columns; the dense oracle multiplies the whole rows.
    # Both sum the same nonzero products (zeros add exactly), p2+1 of them
    # over x2 and p1+1 over x1, so each value is within 2 gamma_(p1+p2+2)
    # of |E1| |coef| |E2|^T of the exact one
    Z = Partition((0.0, 0.1, 0.25, 0.6, 0.7, 1.0))
    S1, S2 = UniSplineSpace(p, k, uniform_partition(3)), UniSplineSpace(p, k, Z)
    rng = np.random.default_rng(100 * p + k)
    coef = rng.standard_normal((S1.dim, S2.dim) + comps)
    x1 = np.sort(np.concatenate(((0.0, 0.5, 1.0), rng.random(9))))
    z = Z.as_array()
    point_sets = {
        "gauss": gauss_rule(Z, 4)[0],
        "unsorted": rng.permutation(np.concatenate((rng.random(12), z))),
        "repeated": np.repeat(rng.random(4), 3),
        "breakpoints": z,
        "start row": np.array([0.0]),
        "end row": np.array([1.0]),
    }
    u = np.finfo(float).eps / 2
    n = 2 * p + 2
    gamma = n * u / (1 - n * u)
    orders = [(a, b) for a in range(3) for b in range(p + 1)]
    for label, x2 in point_sets.items():
        got = tensor_bind_x2((S1, S2), coef, x2, orders)(x1)
        for a, b in orders:
            E1, E2 = eval_operator(S1, x1, a), eval_operator(S2, x2, b)
            want = oracles.dense_tensor_grid(E1, coef, E2)
            bound = 2 * gamma * oracles.dense_tensor_grid(np.abs(E1), np.abs(coef),
                                                          np.abs(E2))
            assert got[a, b].shape == want.shape, (label, a, b)
            assert np.all(np.abs(got[a, b] - want) <= bound), (label, a, b)


def test_greville_points_cover_endpoints():
    S = UniSplineSpace(3, 1, uniform_partition(4))
    g = greville_points(S)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert len(g) == S.dim
