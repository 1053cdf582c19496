"""Exact polynomial / rational-function / x-polynomial arithmetic."""

from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.exactarith import (
    RF_ONE,
    RF_Q,
    RF_ZERO,
    PoleError,
    RatFuncQ,
    XPolyQ,
    _add_into,
    sum_products,
)
from qeuler.identities import _unit_interval, _x_derivative, images, monomials
from qeuler.qspecial import euler_number, euler_poly
from qeuler.zpoly import euler_numerator, strip_bracket

from oracles import (
    ONE_PLUS_Q,
    Q,
    _trim,
    add,
    canonical_by_division,
    divide_linear,
    folded_apply,
    fraction_horner,
    mul,
    power,
    rf,
    shifted,
    sub,
    unit,
    x_derivative,
    x_evaluate,
    x_integral01,
)

def plus(*values):
    """The sum of values of R (or of polynomials in x) as one term list."""
    return sum_products([(1, v) for v in values])


def times(a, b):
    """The product a * b as a one-term sum."""
    return sum_products([(a, b)])


def d_dx(f: XPolyQ) -> XPolyQ:
    """d/dx as the package takes it, one sum over the images of x^i."""
    return sum_products(images(monomials(f), _x_derivative)) if f else f


def unit_integral_of(f: XPolyQ) -> RatFuncQ:
    """int_0^1 as the package takes it, one sum over the images of x^i."""
    return sum_products(images(monomials(f), _unit_interval))


class TestCoefficientTuples:
    # a polynomial in q is the tuple of its coefficients; these check the
    # oracle's polynomial arithmetic, by hand
    def test_arithmetic(self):
        a = (1, 1)
        assert mul(a, a) == (1, 2, 1)
        assert sub(a, a) == ()
        assert add(a, (0, 0, 3)) == (1, 1, 3)
        assert power(a, 3) == (1, 3, 3, 1)

    def test_evaluate(self):
        # the oracle's Fraction Horner, by hand
        assert fraction_horner((1, 2, 3), Fraction(1, 2)) == Fraction(11, 4)

    def test_divide_linear(self):
        p = power(ONE_PLUS_Q, 2)
        quot, val = divide_linear(p, -1)
        assert val == 0
        assert quot == ONE_PLUS_Q


class TestRatFuncQ:
    def test_invariants(self):
        # (q + q^2)/(1+q)^2 -> q/(1+q); by hand, 2q / (2 + 2q) -> q/(1+q)
        for f in (RatFuncQ((0, 1, 1), 0, 2), rf((0, 2), (2, 2))):
            assert (f.num, f.a, f.b) == (Q, 0, 1)

    def test_trailing_zeros_stripped(self):
        f = RatFuncQ((1, 2, 0, 0))
        assert f.num == (Fraction(1), Fraction(2))
        assert all(type(c) is Fraction for c in f.num)
        assert RatFuncQ.over_bracket((1, 2, 0, 0), 0).num == (1, 2)

    def test_zero_value(self):
        assert RatFuncQ((0, 0)).is_zero
        assert RatFuncQ(()).num == ()

    def test_zero_is_0_over_1(self):
        f = RatFuncQ((0,), 2, 3)
        assert f.is_zero and f == RF_ZERO
        assert (f.a, f.b) == (0, 0)

    def test_negative_exponent_raises(self):
        for a, b in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                RatFuncQ((1,), a, b)

    def test_a_minus_a(self):
        a = rf((0, -1), ONE_PLUS_Q)
        assert sum_products([(1, a), (-1, a)]).is_zero

    def test_bracket_product(self):
        # (1+q) * (1+q)/q = (1+q)^2 / q
        a = rf(ONE_PLUS_Q)
        b = rf(ONE_PLUS_Q, Q)
        assert times(a, b) == rf(power(ONE_PLUS_Q, 2), Q)

    def test_sum_with_common_denominator_power(self):
        # q(q-1)/(1+q)^2 + q/(1+q) = 2q^2/(1+q)^2, by hand
        a = rf(mul(Q, (-1, 1)), power(ONE_PLUS_Q, 2))
        b = rf(Q, ONE_PLUS_Q)
        assert plus(a, b) == rf((0, 0, 2), power(ONE_PLUS_Q, 2))

    def test_sum_with_mixed_q_and_bracket_exponents(self):
        # 1/q + 1/(1+q) = (1+2q)/(q(1+q)), by hand
        a = rf((1,), Q)
        b = rf((1,), ONE_PLUS_Q)
        assert plus(a, b) == rf((1, 2), mul(Q, ONE_PLUS_Q))
        # 1/(q(1+q)) - 1/q = -q/(q(1+q)) = -1/(1+q): the sum sheds q
        c = rf((1,), mul(Q, ONE_PLUS_Q))
        d = sum_products([(1, c), (-1, a)])
        assert (d.num, d.a, d.b) == ((-1,), 0, 1)
        # q/(1+q)^2 + 3/q^2 = (q^3 + 3(1+q)^2)/(q^2(1+q)^2)
        e = plus(rf(Q, power(ONE_PLUS_Q, 2)), rf((3,), power(Q, 2)))
        assert (e.num, e.a, e.b) == ((3, 6, 3, 1), 2, 2)

    def test_eval(self):
        e1 = RatFuncQ((0, -1), 0, 1)
        assert e1.evaluate(1) == Fraction(-1, 2)
        assert RatFuncQ(ONE_PLUS_Q).evaluate(1) == 2

    def test_eval_pole(self):
        f = RatFuncQ(ONE_PLUS_Q, 1)
        with pytest.raises(PoleError):
            f.evaluate(0)

    def test_canonical_strings(self):
        assert str(RatFuncQ((0, -1), 0, 1)) == "(-q)/(1 + q)"
        assert str(RatFuncQ((1,))) == "1"
        assert str(RatFuncQ((0, -1, 1), 0, 2)) == "(-q + q^2)/(1 + 2q + q^2)"
        assert str(RF_ZERO) == "0"

    def test_mixed_scalar_ops(self):
        assert sum_products([(2, RF_Q)]) == rf((0, 2))
        assert (sum_products([(1, RF_ONE), (Fraction(1, 2), RF_ONE)])
                == rf((Fraction(3, 2),)))

    def test_values_have_no_arithmetic_operators(self):
        # every sum and product is a term list (sum_products); a value of
        # R has only unary minus
        for value in (RF_Q, XPolyQ.x_power(1)):
            for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__pow__", "__truediv__"):
                assert not hasattr(value, op), (type(value).__name__, op)
            assert -(-value) == value
        with pytest.raises(TypeError):
            RF_Q * 2

    def test_integer_denominator_is_inverted_exactly(self):
        # the constant of an int denominator is inverted as a Fraction;
        # the constructor turns int coefficients into Fractions
        two = RatFuncQ.over_bracket((2,), 0).num
        assert type(two[0]) is int
        half = rf((1,), two)
        assert half == RatFuncQ((Fraction(1, 2),))
        assert half.num == (Fraction(1, 2),)
        assert type(half.num[0]) is Fraction
        assert type(RatFuncQ(two).num[0]) is Fraction

    def test_float_point_rejected(self):
        with pytest.raises(TypeError, match="cannot use float"):
            RatFuncQ(ONE_PLUS_Q, 1).evaluate(0.1)
        with pytest.raises(TypeError, match="cannot use float"):
            RatFuncQ((0.5,))


class TestXPolyQ:
    def e2_poly(self):
        # x^2 - 2q/(1+q) x + q(q-1)/(1+q)^2, constructed from literals
        return XPolyQ([
            rf(mul(Q, (-1, 1)), power(ONE_PLUS_Q, 2)),
            rf((0, -2), ONE_PLUS_Q),
            RF_ONE,
        ])

    def test_derivative_power_rule(self):
        expected = XPolyQ([rf((0, -2), ONE_PLUS_Q), rf((2,))])
        assert d_dx(self.e2_poly()) == expected
        assert x_derivative(self.e2_poly()) == expected

    def test_integral01_of_one(self):
        assert unit_integral_of(XPolyQ((1,))) == RF_ONE
        assert x_integral01(XPolyQ((1,))) == RF_ONE

    def test_eval_at_zero_extracts_constant(self):
        f = XPolyQ([rf((0, -1), ONE_PLUS_Q), RF_ONE])
        assert x_evaluate(f, Fraction(0)) == rf((0, -1), ONE_PLUS_Q)

    def test_shifted(self):
        f = XPolyQ.x_power(2)
        g = shifted(f, Fraction(-1))  # (x - 1)^2
        assert g == XPolyQ([rf((1,)), rf((-2,)), rf((1,))])

    def test_mixed_polynomial_string(self):
        # the term loop of zpoly.fmt_poly: a negative rational coefficient
        # of x^i, i >= 1, is subtracted, as in a polynomial in q
        f = XPolyQ([Fraction(-1, 2), Fraction(-1, 2), rf((0, -1), ONE_PLUS_Q),
                    -3, 1, -1, Fraction(1, 3)])
        assert str(f) == ("-1/2 - (1/2)x + ((-q)/(1 + q))x^2 - 3x^3 + x^4"
                          " - x^5 + (1/3)x^6")
        assert str(XPolyQ([0, Fraction(-2, 3)])) == "-(2/3)x"
        assert str(XPolyQ([rf((1,), Q), 0, 2])) == "((1)/(q)) + 2x^2"
        assert str(XPolyQ.zero()) == "0"

    def test_mul_degree(self):
        f = mul(XPolyQ.x_power(2), XPolyQ([rf((-1,)), RF_ONE]))
        assert f.degree == 3


# ---------------------------------------------------------------------------
# randomized properties

fractions_st = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4)


def polys(max_degree=3):
    return st.lists(fractions_st, min_size=0, max_size=max_degree + 1).map(tuple)


# num / (q^a (1+q)^b), put in canonical form by the constructor
ratfuncs = st.builds(RatFuncQ, polys(3), st.integers(0, 2), st.integers(0, 2))


def poly_gcd(a, b):
    """Monic gcd by Euclid's algorithm; the coprimality oracle."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):  # a <- a mod b
            c = Fraction(a[-1], b[-1])
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] -= c * bi
            a = list(_trim(a))
        a, b = b, a
    return tuple(Fraction(c, a[-1]) for c in a)


def test_poly_gcd_oracle():
    # gcd((1+q)^3, q(1+q)) = 1+q and gcd(q^2 - 1, q - 1) = q - 1, by hand
    assert poly_gcd(power(ONE_PLUS_Q, 3), mul(Q, ONE_PLUS_Q)) == ONE_PLUS_Q
    assert poly_gcd((-1, 0, 1), (-2, 2)) == (-1, 1)


@settings(max_examples=60, deadline=None)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(a, b, c):
    # each law: the package's term-list sum against the independent R
    assert plus(a, b, c) == add(add(a, b), c) == add(a, add(b, c))
    assert times(times(a, b), c) == mul(mul(a, b), c) == mul(a, mul(b, c))
    assert sum_products([(a, b), (a, c)]) == mul(a, add(b, c))
    assert plus(a, b) == plus(b, a) == add(b, a)
    assert times(a, b) == times(b, a) == mul(b, a)


@settings(max_examples=60, deadline=None)
@given(ratfuncs)
def test_normalization_idempotent(a):
    again = RatFuncQ(a.num, a.a, a.b)
    assert (again.num, again.a, again.b) == (a.num, a.a, a.b)
    assert_canonical(a)


@settings(max_examples=80, deadline=None)
@given(polys(3).filter(bool), st.integers(0, 4), st.integers(0, 2), st.data())
def test_integer_strip_matches_synthetic_division(p, j, a, data):
    num = mul(p, power(ONE_PLUS_Q, j))
    b = data.draw(st.integers(0, j + 2), label="b")
    f = RatFuncQ(num, a, b)
    assert (f.num, f.a, f.b) == canonical_by_division(num, a, b)
    assert all(type(c) is Fraction for c in f.num)
    d = lcm(*(c.denominator for c in num))
    ints, left = strip_bracket([int(c * d) for c in num], b)
    assert all(type(c) is int for c in ints)
    assert (mul(tuple(ints), Fraction(1, d)), 0, left) == canonical_by_division(num, 0, b)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=4), st.integers(0, 3),
       st.integers(0, 2), st.integers(0, 5))
def test_over_bracket_matches_the_constructor(c, j, zeros, b):
    # integer numerators times (1+q)^j, padded with trailing zeros; the
    # empty and all-zero lists are the zero polynomial
    coeffs = [int(x) for x in mul(tuple(c), power(ONE_PLUS_Q, j))] + [0] * zeros
    f = RatFuncQ.over_bracket(coeffs, b)
    assert f == RatFuncQ(coeffs, 0, b)
    assert all(type(x) is int for x in f.num)


# an operand with exponent 0 whose numerator is divisible by q or (1+q):
# the one case in which a product may strip a factor
bare_ratfuncs = st.builds(
    lambda p, i, j: RatFuncQ(mul(mul(p, power(Q, i)), power(ONE_PLUS_Q, j))),
    polys(2), st.integers(0, 2), st.integers(0, 2))

# rational points that are not poles of any value of R
regular_points = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                              max_denominator=5).filter(lambda x: x not in (0, -1))


def assert_canonical(f):
    assert len(poly_gcd(f.num, unit(f.a, f.b))) <= 1
    assert f.num or (f.a, f.b) == (0, 0)


@settings(max_examples=80, deadline=None)
@given(ratfuncs, bare_ratfuncs, regular_points)
def test_exponent_form_product_and_sum(a, b, q0):
    for x, y in ((a, b), (b, a)):
        product, total = times(x, y), plus(x, y)
        assert_canonical(product)
        assert_canonical(total)
        # the same values by cross-multiplying the expanded denominators
        xd, yd, pd, td = (unit(f.a, f.b) for f in (x, y, product, total))
        assert mul(mul(product.num, xd), yd) == mul(mul(x.num, y.num), pd)
        assert (mul(mul(total.num, xd), yd)
                == mul(add(mul(x.num, yd), mul(y.num, xd)), td))
        assert product.evaluate(q0) == x.evaluate(q0) * y.evaluate(q0)
        assert total.evaluate(q0) == x.evaluate(q0) + y.evaluate(q0)




@settings(max_examples=40, deadline=None)
@given(st.lists(ratfuncs, min_size=0, max_size=4).map(XPolyQ))
def test_fundamental_theorem_of_calculus(f):
    lhs = unit_integral_of(d_dx(f))
    rhs = sub(x_evaluate(f, Fraction(1)), x_evaluate(f, Fraction(0)))
    assert lhs == rhs == x_integral01(x_derivative(f))


@settings(max_examples=60, deadline=None)
@given(ratfuncs, ratfuncs,
       st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                    max_denominator=3))
def test_eval_is_ring_homomorphism(a, b, q0):
    try:
        va, vb = a.evaluate(q0), b.evaluate(q0)
        vab = times(a, b).evaluate(q0)
        vs = plus(a, b).evaluate(q0)
    except PoleError:
        return
    assert vab == va * vb
    assert vs == va + vb


xpolys = st.lists(ratfuncs, min_size=0, max_size=3).map(XPolyQ)


@settings(max_examples=30, deadline=None)
@given(xpolys, xpolys, xpolys)
def test_xpoly_ring_axioms(f, g, h):
    # sums are the package's term lists; products of polynomials in x are
    # the independent R's alone
    assert plus(f, g, h) == add(add(f, g), h) == add(f, add(g, h))
    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert mul(f, plus(g, h)) == plus(mul(f, g), mul(f, h))
    assert plus(f, g) == plus(g, f) == add(g, f)
    assert mul(f, g) == mul(g, f)
    assert sum_products([(1, f), (-1, f)]) == XPolyQ.zero()
    assert mul(f, XPolyQ((1,))) == f
    fg = mul(f, g)
    assert fg.is_zero or fg.degree == f.degree + g.degree


@settings(max_examples=40, deadline=None)
@given(xpolys, xpolys, ratfuncs, ratfuncs)
def test_xpoly_evaluation_is_homomorphism(f, g, c, x0):
    # x -> x0 in R respects +, * and the product with an R-scalar c
    at = lambda p: x_evaluate(p, x0)
    assert at(plus(f, g)) == add(at(f), at(g))
    assert at(mul(f, g)) == mul(at(f), at(g))
    assert at(sum_products([(c, f)])) == mul(at(f), c)
    assert sum_products([(c, f)]) == mul(f, XPolyQ([c]))


@settings(max_examples=60, deadline=None)
@given(polys(3), fractions_st)
def test_poly_scalar_product_is_constant_product(p, c):
    # a rational coefficient gives the product of the polynomial with the
    # constant, and so does that constant as a tuple in the oracle
    assert sum_products([(c, RatFuncQ(p))]) == rf(mul(p, c))
    assert mul(c, p) == mul((c,), p)


# ---------------------------------------------------------------------------
# sums of products, reduced once

# values over every small pair of exponents q^a (1+q)^b, built by the
# constructor (Fraction coefficients) or as integer data c(q)/(1+q)^b (int
# coefficients), so that a sum's rows are all int, mixed or all Fraction
spread_ratfuncs = st.one_of(
    st.builds(lambda p, a, b: RatFuncQ(p, a, b),
              polys(3), st.integers(0, 3), st.integers(0, 4)),
    st.builds(RatFuncQ.over_bracket, st.lists(st.integers(-9, 9), max_size=4),
              st.integers(0, 4)))
sum_coefficients = st.one_of(spread_ratfuncs, fractions_st, st.integers(-3, 3))


def term_lists(values):
    """Non-empty lists of (coefficient, value) pairs; when asked, the
    negation of a prefix is appended, so that part of the sum cancels."""
    return st.builds(
        lambda terms, cut: terms + [(-c, v) for c, v in terms[:cut]],
        st.lists(st.tuples(sum_coefficients, values), min_size=1, max_size=5),
        st.integers(0, 5))


def as_terms(pairs):
    """(coefficient, value) pairs as a term list with its image."""
    values = [v for _, v in pairs]
    return [(c, n) for n, (c, _) in enumerate(pairs)], values.__getitem__


def assert_fraction_coefficients(f: RatFuncQ):
    assert all(type(c) is Fraction for c in f.num)


def pointwise_sum(pairs, q0) -> Fraction:
    """sum c(q0) v(q0), with no addition in R at all."""
    return sum((c.evaluate(q0) if isinstance(c, RatFuncQ) else c) * v.evaluate(q0)
               for c, v in pairs)


@settings(max_examples=80, deadline=None)
@given(term_lists(spread_ratfuncs), regular_points)
def test_sum_products_matches_pairwise_fold(pairs, q0):
    # int, Fraction and RatFuncQ coefficients, a negated prefix among them,
    # against the independent R, which never calls sum_products
    total = sum_products(pairs)
    reference = folded_apply(*as_terms(pairs))
    assert total == reference and str(total) == str(reference)
    assert_canonical(total)
    assert_fraction_coefficients(total)
    assert total.evaluate(q0) == pointwise_sum(pairs, q0)


@settings(max_examples=40, deadline=None)
@given(term_lists(st.lists(spread_ratfuncs, max_size=4).map(XPolyQ)),
       regular_points)
def test_xpoly_sum_products_matches_pairwise_fold(pairs, q0):
    total = sum_products(pairs)
    reference = folded_apply(*as_terms(pairs))
    assert isinstance(total, XPolyQ)
    assert total == reference and str(total) == str(reference)
    columns = zip_longest(total.coeffs, *(v.coeffs for _, v in pairs),
                          fillvalue=RF_ZERO)
    for column, *parts in columns:
        assert_canonical(column)
        assert_fraction_coefficients(column)
        assert column.evaluate(q0) == pointwise_sum(
            [(c, part) for (c, _), part in zip(pairs, parts)], q0)


int_factors = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(int_factors, st.none() | int_factors,
                          st.integers(0, 3)), max_size=5))
def test_add_into_keeps_integer_rows_in_z(parts):
    # acc += q^shift f g over int parts leaves only ints, equal to the
    # products added coefficient by coefficient
    acc, want = [], [0] * 12
    for f, g, shift in parts:
        _add_into(acc, f, g, shift)
        for i, c in enumerate(f, shift):
            for j, d in enumerate(g or (1,), i):
                want[j] += c * d
    assert all(type(c) is int for c in acc)
    assert acc == want[:len(acc)] and not any(want[len(acc):])


def test_sum_products_cancellation_by_hand():
    # 1/(q(1+q)) - 1/q = -1/(1+q), and (1+q)/q^2 - 1/q^2 - 1/q = 0
    a = rf((1,), mul(Q, ONE_PLUS_Q))
    b = rf((1,), Q)
    assert sum_products([(1, a), (-1, b)]) == rf((-1,), ONE_PLUS_Q)
    c = rf(ONE_PLUS_Q, power(Q, 2))
    assert sum_products([(RF_ONE, c), (-RF_ONE, mul(b, b)), (-1, b)]).is_zero
    assert sum_products([]) is RF_ZERO


def test_sum_products_rejects_float_coefficient():
    with pytest.raises(TypeError, match="cannot use float"):
        sum_products([(0.5, RF_Q)])


# ---------------------------------------------------------------------------
# integer data in R: over_bracket and the tables keep int coefficients


def assert_exact_coefficients(f: RatFuncQ):
    assert all(type(c) in (int, Fraction) for c in f.num)


def fraction_twin(f: RatFuncQ) -> RatFuncQ:
    """The same value built by the constructor, with Fraction coefficients."""
    twin = RatFuncQ(f.num, f.a, f.b)
    assert_fraction_coefficients(twin)
    return twin


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=4), st.integers(0, 4),
       st.integers(0, 8), ratfuncs, sum_coefficients, regular_points)
def test_integer_data_mixes_with_constructed_values(c, b, n, r, k, q0):
    x, e, p = RatFuncQ.over_bracket(c, b), euler_number(n), euler_poly(n)
    x_f, e_f = fraction_twin(x), fraction_twin(e)
    p_f = XPolyQ([fraction_twin(v) for v in p.coeffs])
    for mixed, twin in ((x, x_f), (e, e_f)):
        assert mixed == twin and hash(mixed) == hash(twin)
        assert str(mixed) == str(twin)
        assert mixed.evaluate(q0) == twin.evaluate(q0)
        for got, want in ((plus(mixed, r), plus(twin, r)),
                          (plus(r, mixed), plus(r, twin)),
                          (times(mixed, r), times(twin, r)),
                          (times(mixed, x), times(twin, x_f)),
                          (plus(mixed, e), plus(twin, e_f)),
                          (sum_products([(1, mixed), (-1, e)]),
                           sum_products([(1, twin), (-1, e_f)])),
                          (sum_products([(mixed, r), (k, mixed), (x, e)]),
                           sum_products([(twin, r), (k, twin), (x_f, e_f)]))):
            assert got == want
            assert_exact_coefficients(got)
            assert got.evaluate(q0) == want.evaluate(q0)
    got = sum_products([(x, p), (k, p), (r, p_f)])
    assert got == sum_products([(x_f, p_f), (k, p_f), (r, p_f)])
    for column in got.coeffs:
        assert_exact_coefficients(column)
    at_x = x_evaluate(p, x)
    assert at_x == x_evaluate(p_f, x_f)
    assert_exact_coefficients(at_x)
    assert at_x.evaluate(q0) == x_evaluate(p_f, x_f).evaluate(q0)


def fraction_evaluate(f, q0):
    """f at q0 by Horner's rule on Fractions, or None at a pole: the
    reference of the integer evaluation."""
    den = q0 ** f.a * (1 + q0) ** f.b
    return None if den == 0 else fraction_horner(f.num, q0) / den


# points that include both poles, q = 0 and q = -1, and plain ints
points = st.one_of(
    st.sampled_from([0, -1, 1, Fraction(-1, 2)]),
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=40))

# values with int coefficients, as the tables and over_bracket build them
bracket_values = st.one_of(
    st.integers(0, 24).map(euler_number),
    st.builds(RatFuncQ.over_bracket,
              st.lists(st.integers(-60, 60), max_size=5), st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(ratfuncs, bracket_values), points)
def test_integer_evaluation_matches_fractions(f, q0):
    want = fraction_evaluate(f, Fraction(q0))
    if want is None:
        with pytest.raises(PoleError):
            f.evaluate(q0)
    else:
        got = f.evaluate(q0)
        assert type(got) is Fraction and got == want
