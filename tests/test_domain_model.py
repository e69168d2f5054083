"""Defining functions: constructors, validation, and boundary surgery."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from tubekernels import (
    BlowupChart,
    BoundaryRelativePoint,
    DefiningFunction,
    DomainError,
    blended_linear_domain,
    damp_tails,
    model_domain,
    mollify,
    rational_domain,
    table_domain,
)
from tubekernels.asymptotics import log_phi
from tubekernels.domain_model import (
    _bump,
    _hermite,
    _int_pow,
    _not_a_knot,
    _not_a_knot_area,
    _smooth_step,
)
from tubekernels.quadrature import _cone_interval


def test_model_domain_is_the_monomial():
    f = model_domain(2, g0=3.0)
    xs = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
    np.testing.assert_allclose(f.f(xs), 3.0 * xs**4, rtol=1e-14)
    np.testing.assert_allclose(f.fprime(xs), 12.0 * xs**3, rtol=1e-14)
    np.testing.assert_allclose(f.fsecond(xs), 36.0 * xs**2, rtol=1e-14)
    assert f.m == 2
    assert f.g0 == 3.0


def test_model_domain_validation():
    with pytest.raises(DomainError):
        model_domain(0)
    with pytest.raises(DomainError):
        model_domain(2, g0=0.0)
    with pytest.raises(DomainError):
        model_domain(2, g0=-1.0)


def test_rational_domain_shape():
    f = rational_domain(2)
    assert f.g0 > 0
    xs = np.linspace(0.1, 4.0, 40)
    g = f.g(xs)
    assert np.all(np.diff(g) <= 1e-14), "g should not increase on x > 0"
    assert np.all(xs * f.gprime(xs) <= 1e-14)
    grid = np.linspace(-4.0, 4.0, 161)
    assert np.all(f.fsecond(grid) >= -1e-12)


def test_blended_linear_tail_slopes():
    f = blended_linear_domain(2, slope=0.8)
    neg, pos = f.tail_slopes
    assert math.isclose(neg, 0.8, rel_tol=1e-9)
    assert math.isclose(pos, 0.8, rel_tol=1e-9)
    far = f.fprime(50.0)
    assert math.isclose(float(far), 0.8, rel_tol=1e-9)


def test_dual_cone_model_is_everything():
    assert _cone_interval(model_domain(2)) == (-math.inf, math.inf)


def _table(g, gp):
    xs = np.linspace(-3.0, 3.0, 121)
    return table_domain(xs, g(xs), gp(xs), 1)


def test_table_domain_rejects_growing_g():
    with pytest.raises(DomainError, match=r"x g'\(x\) <= 0 violated"):
        _table(lambda x: 1.0 + x**2, lambda x: 2.0 * x)


def test_table_domain_names_the_row_that_breaks_x_g_prime():
    xs = np.linspace(-3.0, 3.0, 121)
    gp = np.zeros(121)
    gp[80] = 0.5  # x = 1: the only row with x g' > 0
    with pytest.raises(DomainError, match=r"x g'\(x\) <= 0 violated at table row x=1\.0: x g' = 0\.5$"):
        table_domain(xs, np.ones(121), gp, 1)


def test_table_domain_blames_its_interpolant_between_rows():
    # g = 1/(1 + x^4) has x g' <= 0 on every row, but the cubic Hermite
    # interpolant overshoots on the first interval past x = 0, whose end
    # slopes are 0 and 4 times the secant
    xs = np.linspace(-3.0, 3.0, 241)
    q = 1.0 + xs**4
    with pytest.raises(DomainError) as info:
        table_domain(xs, 1.0 / q, -4.0 * xs**3 / q**2, 3)
    msg = str(info.value)
    assert "cubic Hermite interpolant" in msg and "np.float64" not in msg
    lo, hi = (float(x) for x in xs[120:122])  # the rows 0 and 0.025
    assert f"[{lo!r}, {hi!r}]" in msg, msg


def test_validation_messages_print_plain_floats():
    # f = x^2 (1 - x^2 / 2) is concave past |x| = 1/sqrt(6)
    with pytest.raises(DomainError, match=r"f is not convex: f''\(-?\d[\d.e-]*\) = -[\d.e-]+$"):
        DefiningFunction(
            1,
            lambda x: x**2 - 0.5 * x**4,
            lambda x: 2.0 * x - 2.0 * x**3,
            lambda x: 2.0 - 6.0 * x**2,
            lambda x: 1.0 - 0.5 * x**2,
            lambda x: -x,
            label="quartic cap",
            tail_slopes=(math.inf, math.inf),
        )


def test_table_domain_rejects_nonconvex_f():
    # f = x^2 exp(-4x^2) dips below zero curvature near |x| ~ 0.5
    with pytest.raises(DomainError, match="f is not convex"):
        _table(lambda x: np.exp(-4.0 * x**2), lambda x: -8.0 * x * np.exp(-4.0 * x**2))


@pytest.mark.parametrize("slopes", [(0.0, 1.0), (1.0, -0.5), (math.nan, math.inf)])
def test_defining_function_rejects_non_positive_tail_slopes(slopes):
    # a valid parabola; only the declared dual cone is wrong
    with pytest.raises(DomainError, match="tail slopes must be positive"):
        DefiningFunction(
            1,
            lambda x: x**2,
            lambda x: 2.0 * x,
            lambda x: np.full_like(x, 2.0),
            np.ones_like,
            np.zeros_like,
            label="parabola",
            tail_slopes=slopes,
        )


def test_defining_function_rejects_tail_slopes_below_f_prime():
    # a parabola's slopes grow without bound; declaring (1, 1) would cut its
    # dual cone to (-1, 1), so construction fails and names both values
    with pytest.raises(DomainError, match=r"tail slope 1\.0 declared at x -> -inf .* 24\.0"):
        DefiningFunction(
            1,
            lambda x: x**2,
            lambda x: 2.0 * x,
            lambda x: np.full_like(x, 2.0),
            np.ones_like,
            np.zeros_like,
            label="parabola",
            tail_slopes=(1.0, 1.0),
        )
    # every constructor declares slopes at or above f'(12)
    base = model_domain(2)
    for f in (
        blended_linear_domain(2, slope=0.8),
        blended_linear_domain(2, slope=1.0),
        damp_tails(base, 0.5),
        mollify(base, 0.1),
        table_domain(np.linspace(-3, 3, 13), np.ones(13), np.zeros(13), 1),
        rational_domain(2),
    ):
        neg, pos = f.tail_slopes
        assert neg >= -f.fprime(-12.0) * (1 - 1e-9) and pos >= f.fprime(12.0) * (1 - 1e-9)


def test_table_domain_reproduces_sampled_profile():
    src = rational_domain(2)
    xs = np.linspace(-3.0, 3.0, 121)
    f = table_domain(xs, src.g(xs), src.gprime(xs), 2, label="resampled")
    probe = np.linspace(-2.5, 2.5, 77)
    np.testing.assert_allclose(f.f(probe), src.f(probe), rtol=2e-5, atol=1e-8)
    assert f.m == 2
    assert f.label == "resampled"


def test_table_domain_f_second_jumps_at_its_rows():
    # g is a C1 cubic Hermite interpolant, so g'' and f'' are only piecewise
    # continuous: for g = 1/(1 + x^2) on 241 rows in [-3, 3] at m = 3, f''
    # jumps by 2.0e-5 (1.6e-6 relative) across the row x = 1.1 (in floats
    # 1.1000000000000005), and a read at the row takes the right-hand piece
    xs = np.linspace(-3.0, 3.0, 241)
    f = table_domain(xs, 1.0 / (1.0 + xs**2), -2.0 * xs / (1.0 + xs**2) ** 2, 3)
    row = xs[164]
    assert row == pytest.approx(1.1, abs=1e-15)
    at, left, right = f.fsecond(np.array([row, np.nextafter(row, 0.0), np.nextafter(row, 3.0)]))
    assert abs(at - right) <= 1e-13 * at
    jump = (left - at) / at
    assert 1.5e-6 < jump < 1.8e-6, jump
    # at the mirrored row a read takes the piece on its right, the mirror
    # of the piece on the left of x = 1.1
    assert xs[76] == pytest.approx(-1.1, abs=1e-15)
    assert f.fsecond(xs[76]) == pytest.approx(left, rel=1e-12)


def test_table_domain_validation():
    with pytest.raises(DomainError):
        table_domain([1.0, 2.0], [1.0, 0.9], [0.0, -0.1], 2)  # no x=0 bracket
    with pytest.raises(DomainError):
        table_domain([-1.0, 0.0, 1.0], [1.0, 1.0], [0.0, 0.0, 0.0], 2)
    with pytest.raises(DomainError):
        table_domain([1.0, 0.0, -1.0], [0.9, 1.0, 0.9], [0.1, 0.0, -0.1], 2)


def test_mollify_agreement_and_plateau():
    f = model_domain(2)
    fm = mollify(f, 0.1)
    assert fm.is_mollified and not f.is_mollified
    inner = np.linspace(-0.1, 0.1, 41)
    np.testing.assert_array_equal(fm.f(inner), f.f(inner))
    outer = np.array([1.0, 1.7, 5.0, 30.0])
    np.testing.assert_allclose(fm.g(outer), 0.9 * f.g0, rtol=1e-10)
    grid = np.linspace(-3.0, 3.0, 301)
    assert np.all(fm.fsecond(grid) >= -1e-10)


def test_mollify_core_curvature_is_the_parent_s():
    core = np.linspace(-0.1, 0.1, 41)
    for f in (model_domain(2), rational_domain(2)):
        np.testing.assert_array_equal(mollify(f, 0.1).fsecond(core), f.fsecond(core))


def test_mollify_lands_flat_at_one():
    # the bump integrals come from the splines g~ is built from, so g~'
    # reaches zero at |x| = 1 to rounding
    for f in (model_domain(2), rational_domain(2)):
        fm = mollify(f, 0.1)
        assert abs(fm.gprime(1.0 - 1e-9)) <= 1e-14
        assert abs(fm.gprime(-1.0 + 1e-9)) <= 1e-14


_TABLE_XS = np.linspace(-3.0, 3.0, 241)


def _table_rows(a, b, c, x1):
    """Rows (g, g') on ``_TABLE_XS`` of g = 1/q, with its exact g':
    q = 1 + a x^2 + b x^4, plus c (x + x1)^4 where x < -x1."""
    xs = _TABLE_XS
    s = np.minimum(xs + x1, 0.0)
    q = 1.0 + a * xs**2 + b * xs**4 + c * s**4
    dq = 2.0 * a * xs + 4.0 * b * xs**3 + 4.0 * c * s**3
    return 1.0 / q, -dq / q**2


def _is_c1_across(f, points):
    across = np.concatenate((points - 1e-9, points + 1e-9))
    left, right = np.split(f.fprime(across), 2)
    curv = np.maximum(*np.split(np.abs(f.fsecond(across)), 2))
    return np.all(np.abs(right - left) <= 4e-9 * curv + 1e-12 * np.abs(left))


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.0, 3.0),
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
    st.floats(0.0, 1.5),
    st.floats(0.02, 0.2),
    st.floats(0.1, 1.2),
)
# f is even to 6.7e-10 on damp_tails' core but f'(-r1) + f'(r1) = 2.8e-8,
# which would put a jump of 5.0e-8 in f' at x = -1.065625
@example(1.0, 0.0, 0.125, 1.0625, 0.125, 0.96875)
def test_mollify_and_damp_tails_keep_convexity_and_core(a, b, c, x1, delta, radius):
    # g = 1/(1 + a x^2 + b x^4), made asymmetric from x = -x1 outward when
    # c > 0.  table_domain, mollify and damp_tails each raise DomainError or
    # return an f that is convex, C1 and equal to its parent on the core (the
    # table's parent is its rows).  A rejection of an asymmetric g names the
    # asymmetry, or the symmetric g (c = 0) is rejected too.
    grid = np.linspace(-4.0, 4.0, 801)
    g, gp = _table_rows(a, b, c, x1)
    try:
        f = table_domain(_TABLE_XS, g, gp, 3)
    except DomainError:
        return
    assert np.all(f.fsecond(grid) >= -1e-10)
    assert _is_c1_across(f, _TABLE_XS[1:-1])
    np.testing.assert_allclose(f.g(_TABLE_XS), g, rtol=1e-14)
    np.testing.assert_allclose(f.gprime(_TABLE_XS), gp, rtol=1e-12, atol=1e-15)
    for build, core, ends in (
        (lambda h: mollify(h, delta), delta, (delta, 1.0)),
        (lambda h: damp_tails(h, radius), 1.1 * radius, (1.1 * radius, 2.4 * radius)),
    ):
        try:
            fc = build(f)
        except DomainError as exc:
            if c > 0.0 and "asymmetric g" not in str(exc):
                with pytest.raises(DomainError):
                    build(table_domain(_TABLE_XS, *_table_rows(a, b, 0.0, 0.0), 3))
            continue
        assert np.all(fc.fsecond(grid) >= -1e-10)
        assert _is_c1_across(fc, np.array([-e for e in ends] + list(ends)))
        xs = np.linspace(-core, core, 41)
        for name in ("f", "fprime", "fsecond"):
            np.testing.assert_allclose(
                getattr(fc, name)(xs), getattr(f, name)(xs), rtol=1e-12, atol=1e-300
            )


def test_table_domain_is_c1_across_its_ends():
    g, gp = _table_rows(1.0, 0.1, 0.0, 0.0)
    f = table_domain(_TABLE_XS, g, gp, 3)
    assert _is_c1_across(f, np.array([-3.0, 3.0]))


def test_mollify_rejects_impossible_deltas():
    f = model_domain(2)
    for delta in (0.3, 0.5, 0.99):
        with pytest.raises(DomainError):
            mollify(f, delta)
    with pytest.raises(DomainError):
        mollify(f, 0.0)


def test_damp_tails_exact_core_and_linear_tail():
    f = model_domain(2)
    fd = damp_tails(f, 0.5)
    core = np.linspace(-0.55, 0.55, 45)
    np.testing.assert_array_equal(fd.f(core), f.f(core))
    tail = np.array([1.3, 2.0, 7.0])
    np.testing.assert_allclose(fd.fsecond(tail), 0.0, atol=1e-12)
    slope = float(fd.fprime(2.0))
    assert math.isclose(float(fd.fprime(9.0)), slope, rel_tol=1e-12)
    _, r_plus = _cone_interval(fd)
    assert math.isclose(r_plus, slope, rel_tol=1e-9)
    grid = np.linspace(-3.0, 3.0, 301)
    assert np.all(fd.fsecond(grid) >= -1e-10)
    assert fd.m == f.m


def _blended_breaks(m, slope):
    """blended_linear_domain's series edge and saturation point."""
    n = 2 * m
    c_series = n**3 / (3.0 * slope * slope * (3 * n - 2))
    return (1e-8 / c_series) ** (1.0 / (2 * n - 2)), (21.5 * slope / n) ** (1.0 / (n - 1))


@pytest.mark.parametrize(
    "make, breaks",
    [
        (lambda: mollify(model_domain(2), 0.1), [0.1, 2.0 * 0.1 / 1.1, 1.0]),
        (lambda: damp_tails(blended_linear_domain(2), 0.5), [0.55, 1.2, *_blended_breaks(2, 1.0)]),
        (lambda: mollify(damp_tails(model_domain(2), 0.5), 0.1), [0.1, 2.0 * 0.1 / 1.1, 0.55, 1.0, 1.2]),
        (lambda: blended_linear_domain(2), list(_blended_breaks(2, 1.0))),
    ],
    ids=["mollify", "damp_tails", "damp|mollify", "blended-linear"],
)
def test_constructed_domains_are_exactly_even_and_nan_stays_nan(make, breaks):
    # every piece is read at |x| and signed where odd, and integer powers
    # are products of squares, so each accessor has its parity exactly on
    # both sides of every breakpoint
    f = make()
    assert f.is_even
    b = np.array(breaks)
    x = np.concatenate(
        [b, np.nextafter(b, 0.0), np.nextafter(b, np.inf), [0.0],
         np.geomspace(1e-9, 30.0, 2000 - 3 * b.size - 1)]
    )
    for name, sign in (("f", 1.0), ("fprime", -1.0), ("fsecond", 1.0), ("g", 1.0), ("gprime", -1.0)):
        acc = getattr(f, name)
        left, right = acc(-x), sign * acc(x)
        assert np.all(left == right), name
        assert math.isnan(acc(math.nan)), name


@pytest.mark.parametrize(
    "make", [lambda: damp_tails(model_domain(2), 0.5), lambda: blended_linear_domain(2)],
    ids=["damp_tails", "blended_linear"],
)
def test_g_built_from_f_reads_zero_at_infinity(make):
    # g = f / x^(2m) and g' of an f with linear tails fall to 0; at +-inf
    # their quotients read inf / inf, so the accessors write the limit, with
    # no warning (any warning fails the suite)
    f = make()
    x = np.array([-math.inf, math.inf])
    for name in ("g", "gprime"):
        got = getattr(f, name)(x)
        assert got.tolist() == [0.0, 0.0], name
        assert abs(getattr(f, name)(1e30)) < 1e-50, name


@pytest.mark.parametrize(
    "make, fpp_limit",
    [
        (lambda: rational_domain(2), 2.0),
        (lambda: rational_domain(3), math.inf),
        (lambda: mollify(model_domain(1), 0.1), None),
        (lambda: mollify(model_domain(2), 0.1), math.inf),
        (lambda: mollify(rational_domain(2), 0.1), math.inf),
    ],
    ids=["rational-m2", "rational-m3", "mollified-m1", "mollified-m2", "mollified-rational-m2"],
)
def test_superlinear_accessors_read_their_limits_at_infinity(make, fpp_limit):
    # f = x^(2m) g with g tending to 0 (rational) or to a constant g_end
    # (mollified): at +-inf the closed forms read inf * 0 or inf / inf, so
    # the accessors write the limits, with no warning: f = inf, f' = +-inf,
    # g' = 0 and f'' its limit, 2 where f tends to x^2 (x^4 / (1 + x^2)
    # at m = 2, and 2 g_end on the mollified x^2), inf otherwise.  Finite
    # points read as they do without the infinite ones beside them
    f = make()
    ends = np.array([-math.inf, math.inf])
    g_end = float(f.g(2.0))
    if fpp_limit is None:
        fpp_limit = 2.0 * g_end
    want = {
        "f": [math.inf, math.inf],
        "fprime": [-math.inf, math.inf],
        "fsecond": [fpp_limit, fpp_limit],
        "g": [g_end, g_end] if f.is_mollified else [0.0, 0.0],
        "gprime": [0.0, 0.0],
    }
    xs = np.concatenate([-np.geomspace(1e-6, 1e6, 50), [0.0], np.geomspace(1e-6, 1e6, 50)])
    for name, limit in want.items():
        acc = getattr(f, name)
        assert acc(ends).tolist() == limit, name
        assert [acc(-math.inf), acc(math.inf)] == limit, name
        mixed = acc(np.concatenate([ends, xs]))
        assert np.array_equal(mixed[2:], acc(xs)), name
    # the limits continue the finite values
    assert f.fsecond(1e6) == pytest.approx(fpp_limit, rel=1e-6) if math.isfinite(fpp_limit) else (
        f.fsecond(1e6) > 1e10
    )


@pytest.mark.parametrize("n", range(35))
def test_int_pow_is_numpy_power_to_a_product_s_rounding(n):
    # signed values, +-0, tiny and subnormal values, values near overflow
    # (1e77^4 is finite, 1e77^5 is not), +-inf and NaN: the same inf, zero,
    # NaN and sign pattern as np.power, and elsewhere within gamma_(n-1) of
    # a product of n factors plus np.power's own last bit
    rng = np.random.default_rng(39)
    tiny = [1e-300, 5e-324, 1e-20, 1e-160, 0.9, 1.0, 1.1]
    big = [1e77, 1e300, math.inf]
    x = np.concatenate(
        [rng.standard_normal(400) * 4.0, [0.0, -0.0, math.nan], tiny, big, np.negative(tiny + big)]
    )
    with np.errstate(over="ignore", under="ignore"):
        got, want = _int_pow(x, n), np.power(x, n)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    special = ~np.isfinite(want) | (want == 0.0) | ~np.isfinite(got) | (got == 0.0)
    assert np.array_equal(got[special], want[special], equal_nan=True)
    normal = ~special & (np.abs(want) >= np.finfo(float).tiny)
    u = 2.0**-53
    bound = (n - 1) * u / (1.0 - (n - 1) * u) + 2.0 * u if n > 1 else 0.0
    rel = np.abs(got[normal] - want[normal]) / np.abs(want[normal])
    assert rel.max(initial=0.0) <= bound, (rel.max(), bound)
    # below the smallest normal both are rounded products of subnormals
    sub = ~special & ~normal
    assert np.all(np.abs(got[sub] - want[sub]) <= 2.0 * 5e-324)


@pytest.mark.parametrize(
    "make",
    [lambda m=m: model_domain(m, 1.7) for m in range(1, 9)]
    + [lambda: rational_domain(2), lambda: rational_domain(3), lambda: blended_linear_domain(1),
       lambda: mollify(model_domain(2), 0.1)],
    ids=[f"model-m{m}" for m in range(1, 9)] + ["rational-m2", "rational-m3", "blended-m1", "mollified-m2"],
)
def test_accessors_keep_their_parity_bit_for_bit(make):
    # _int_pow squares first, so x^(2m) g, x^(2m-1) (...) and x^(2m-2) (...)
    # read at -x are the reads at x, negated where odd, in every bit
    f = make()
    rng = np.random.default_rng(7)
    x = np.concatenate([np.geomspace(1e-9, 30.0, 600), rng.uniform(0.0, 3.0, 400)])
    for name, sign in (("f", 1.0), ("fprime", -1.0), ("fsecond", 1.0)):
        acc = getattr(f, name)
        left, right = acc(-x), sign * acc(x)
        assert np.array_equal(left.view(np.int64), right.view(np.int64)), name


def test_rational_domain_keeps_its_closed_forms_at_finite_points():
    # the limits at +-inf leave every finite value of the closed forms
    # (x^4 / (1 + x^2) and its derivatives at m = 2) bit for bit; their
    # powers are the products of squares ``_int_pow`` forms
    f = rational_domain(2)
    x = np.concatenate([-np.geomspace(1e-8, 1e8, 200), [0.0], np.geomspace(1e-8, 1e8, 200)])
    x2, q = x * x, 1.0 + x * x
    g = 1.0 / q
    gp = -2.0 * x / q**2
    gpp = (6.0 * x * x - 2.0) / ((q * q) * q)
    assert np.array_equal(f.g(x), g) and np.array_equal(f.gprime(x), gp)
    assert np.array_equal(f.f(x), (x2 * x2) * g)
    assert np.array_equal(f.fprime(x), (x2 * x) * (4 * g + x * gp))
    assert np.array_equal(f.fsecond(x), x2 * (12 * g + 8.0 * x * gp + x * x * gpp))


def _asymmetric_table():
    """The table domain of g = 1/(1 + x^2 (1 + tanh(x)/2)), which is not
    even, at m = 2."""
    xs = np.linspace(-3.0, 3.0, 601)
    q = 1.0 + xs**2 * (1.0 + 0.5 * np.tanh(xs))
    dq = 2.0 * xs * (1.0 + 0.5 * np.tanh(xs)) + 0.5 * xs**2 / np.cosh(xs) ** 2
    return table_domain(xs, 1.0 / q, -dq / q**2, 2)


def test_mollify_and_damp_tails_reject_asymmetric_g():
    # both constructions mirror the x > 0 side onto x < 0
    f = _asymmetric_table()
    with pytest.raises(DomainError, match="asymmetric"):
        mollify(f, 0.1)
    with pytest.raises(DomainError, match="asymmetric"):
        damp_tails(f, 0.5)


@pytest.mark.parametrize(
    "make, even",
    [
        (lambda: model_domain(3), True),
        (lambda: rational_domain(2), True),
        (lambda: blended_linear_domain(1), True),
        (lambda: mollify(model_domain(2), 0.1), True),
        (lambda: damp_tails(rational_domain(2), 0.5), True),
        (lambda: table_domain(_TABLE_XS, *_table_rows(1.0, 0.1, 0.0, 0.0), 3), False),
        (lambda: mollify(table_domain(_TABLE_XS, *_table_rows(1.0, 0.1, 0.0, 0.0), 3), 0.1), False),
    ],
    ids=["model", "rational", "blended-linear", "mollify", "damp_tails", "table", "mollify|table"],
)
def test_constructors_declare_is_even(make, even):
    # a table is not declared even, even where its rows are; mollify and
    # damp_tails keep their parent's declaration
    assert make().is_even is even


def _flat_end_table():
    """The table domain at m = 2 of the mollified m = 2 model's g on 241 rows
    in [-3, 3], flat past |x| = 1, so its end rows have g' = 0."""
    xs = np.linspace(-3.0, 3.0, 241)
    g = mollify(model_domain(2), 0.1)
    return table_domain(xs, g.g(xs), g.gprime(xs), 2)


@pytest.mark.parametrize(
    "make, g_end, fpp_end",
    [
        # g = 1/(1 + x^2): each tail falls from g(3) = 0.1 to half of it
        (lambda: table_domain(_TABLE_XS, *_table_rows(1.0, 0.0, 0.0, 0.0), 3), 0.05, math.inf),
        (_flat_end_table, None, math.inf),
        # g = 1 - x^2 / 100 at m = 1: f tends to g_end x^2, f'' to 2 g_end
        (
            lambda: table_domain(_TABLE_XS, 1.0 - 0.01 * _TABLE_XS**2, -0.02 * _TABLE_XS, 1),
            0.455,
            0.91,
        ),
    ],
    ids=["decaying-m3", "flat-ends-m2", "decaying-m1"],
)
def test_table_domain_reads_its_limits_at_infinity(make, g_end, fpp_end):
    # at +-inf f' = x^(2m-1) (2m g + x g') reads inf * 0, and past a flat
    # end row (g' = 0, tail rate 0) the tail reads -0 * inf: every accessor
    # writes its limit, with no warning, and finite points read as they do
    # without the infinite ones beside them
    f = make()
    if g_end is None:  # the flat end rows keep g at its row value
        g_end = float(f.g(3.0))
    ends = np.array([-math.inf, math.inf])
    want = {
        "f": [math.inf, math.inf],
        "fprime": [-math.inf, math.inf],
        "fsecond": [fpp_end, fpp_end],
        "g": [g_end, g_end],
        "gprime": [0.0, 0.0],
    }
    xs = np.concatenate([-np.geomspace(1e-6, 1e6, 50), [0.0], np.geomspace(1e-6, 1e6, 50)])
    for name, limit in want.items():
        acc = getattr(f, name)
        assert acc(ends).tolist() == pytest.approx(limit, rel=1e-15), name
        assert np.array_equal(acc(np.concatenate([ends, xs]))[2:], acc(xs)), name
        # the limits continue the finite values
        assert acc(1e12) == pytest.approx(limit[1], rel=1e-6) if math.isfinite(limit[1]) else (
            acc(1e12) > 1e11
        ), name


def _rebuilt(f, **changes):
    """f's accessors under a new DefiningFunction, with ``changes`` to its
    keyword arguments."""
    kwargs = dict(label=f.label, tail_slopes=f.tail_slopes, is_even=f.is_even)
    kwargs.update(changes)
    return DefiningFunction(f.m, f._f, f._fp, f._fpp, f._g, f._gp, **kwargs)


def test_declared_even_f_must_equal_its_mirror():
    # the asymmetric table's f, declared even, differs from its mirror at
    # some x of the sample grid, and the error names x and -x
    f = _asymmetric_table()
    assert not f.is_even
    with pytest.raises(DomainError) as info:
        _rebuilt(f, is_even=True)
    found = re.fullmatch(
        r"f is declared even, but f\((-[\d.e-]+)\) = \S+ differs from f\(([\d.e-]+)\) = \S+",
        str(info.value),
    )
    assert found, str(info.value)
    assert -float(found[1]) == float(found[2]) > 0.0
    # an even f with two tail slopes is refused too
    parabola = model_domain(1)
    with pytest.raises(DomainError, match="declared even, but its tail slopes"):
        _rebuilt(parabola, tail_slopes=(math.inf, 100.0))
    assert not _rebuilt(parabola, tail_slopes=(math.inf, 100.0), is_even=False).is_even


def test_table_domain_rejects_an_interpolant_concave_between_rows():
    # a draw of test_mollify_and_damp_tails_keep_convexity_and_core: the
    # rows of g = 1/q pass, but at m = 3 the cubic Hermite interpolant's
    # f'' is -0.186 at the table's first row x = -3 and stays negative on
    # the intervals after it
    g, gp = _table_rows(1.9375, 0.0, 0.9375, 1.0)
    with pytest.raises(DomainError) as info:
        table_domain(_TABLE_XS, g, gp, 3)
    msg = str(info.value)
    lo, hi = (float(x) for x in _TABLE_XS[:2])
    assert f"makes f concave on [{lo!r}, {hi!r}]" in msg and msg.endswith("add rows there"), msg
    assert "f'' = -0.18577" in msg and "x=-3.0;" in msg, msg


def test_contains_and_require_interior():
    f = model_domain(2)
    assert f.contains(BoundaryRelativePoint(0.0, 1.0))
    assert not f.contains(BoundaryRelativePoint(0.0, -0.2))
    assert not f.contains(BoundaryRelativePoint(1.0, 1.0))  # exactly on boundary
    with pytest.raises(DomainError):
        f.require_interior(BoundaryRelativePoint(2.0, 1.0))


def test_rational_domain_needs_m_at_least_two():
    with pytest.raises(DomainError):
        rational_domain(1)


@settings(max_examples=120, deadline=None)
@given(st.floats(-2.5, 2.5), st.sampled_from([1, 2, 3]))
def test_constructed_domains_stay_convex(x, m):
    domains = [blended_linear_domain(m)]
    if m >= 2:
        domains.append(rational_domain(m))
    for f in domains:
        assert float(f.fsecond(x)) >= -1e-12
        assert float(f.f(x)) >= 0.0


def _spline_cases():
    """(x, y, dy) on the node sets the package builds its splines on; dy is
    None for a not-a-knot spline, the slopes for a Hermite one."""
    x = 400.0 * np.linspace(0.0, 1.0, 1600) ** 2  # PhiSpline(2, 400)
    yield x, log_phi(x, 2), None
    t = np.linspace(0.0, 1.0, 2001)  # a BlowupChart glue layer
    yield t, 0.5 * (1.0 - _smooth_step(t)), None
    d, split = 0.1, 0.2 / 1.1  # mollify(f, 0.1): two columns
    nodes = np.unique(
        np.concatenate(
            [np.linspace(d, 1.0, 6001), np.linspace(d, split, 1500), np.linspace(split, 1.0, 1500)]
        )
    )
    bumps = np.column_stack([_bump(nodes, d, split), _bump(nodes, split, 1.0)])
    yield nodes, bumps / nodes[:, None] ** 2, None
    f = rational_domain(2)
    s = np.linspace(0.55, 1.2, 4001)  # damp_tails(f, 0.5)
    yield s, f.fsecond(s) * _smooth_step((1.2 - s) / 0.65), None
    xs = np.linspace(-3.0, 3.0, 121)  # a table_domain table
    yield xs, f.g(xs), f.gprime(xs)


@pytest.mark.parametrize(
    "case", list(_spline_cases()), ids=["phi-spline", "chart", "mollify", "damp-tails", "table"]
)
def test_piecewise_cubics_match_scipy(case):
    x, y, dy = case
    got = _not_a_knot(x, y) if dy is None else _hermite(x, y, dy)
    ref = CubicSpline(x, y) if dy is None else CubicHermiteSpline(x, y, dy)
    # the nodes, points between them, and reads half an end piece past both ends
    v = np.concatenate(
        [
            [x[0] - 0.5 * (x[1] - x[0])],
            x,
            np.random.default_rng(7).uniform(x[0], x[-1], 2000),
            [x[-1] + 0.5 * (x[-1] - x[-2])],
        ]
    )
    eps = np.finfo(float).eps
    for n, (a, b) in enumerate(
        [
            (got, ref),
            (got.derivative(), ref.derivative()),
            (got.antiderivative(), ref.antiderivative()),
            (got.antiderivative().antiderivative(), ref.antiderivative(2)),
        ]
    ):
        want = b(v)
        # an antiderivative's constant terms are running sums over the
        # pieces, whose rounding grows like the root of their number
        ulps = 4.0 if n < 2 else 4.0 * math.sqrt(x.size)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(a(v) - want) <= ulps * eps * scale), n
        assert np.shape(a(x[3] + 0.3 * (x[4] - x[3]))) == y.shape[1:]


def _area_cases():
    """(x, y) on a glue layer's 2,001 nodes, and on uneven nodes."""
    t = np.linspace(0.0, 1.0, 2001)
    yield t, np.sin(3.0 * t)
    chart = BlowupChart(2)  # its up layer's data, chi' - 1/2 in e = 1 - u
    yield t, (chart._outer_slope(chart.e0 + chart.w * (1.0 - t)) - 0.5) * _smooth_step(t)
    yield t, np.random.default_rng(11).standard_normal(t.size)
    x = np.sort(np.random.default_rng(12).uniform(-1.0, 2.0, 60))
    yield x, np.sin(3.0 * x)


@pytest.mark.parametrize("case", list(_area_cases()), ids=["sin", "up-layer", "random", "uneven"])
def test_not_a_knot_area_is_the_spline_integral(case):
    x, y = case
    a = _not_a_knot_area(x)
    want = _not_a_knot(x, y).antiderivative()(x[-1])
    assert abs(a @ y - want) <= 4.0 * np.finfo(float).eps * np.sum(np.abs(a * y))
