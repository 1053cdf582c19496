"""The weight-0 q-Euler tables, beta values, the classical-limit
cross-check, and the q-bracket oracle."""

from fractions import Fraction
from math import comb, factorial

import pytest

from qeuler.exactarith import RF_ONE, XPolyQ, sum_products
from qeuler.qspecial import (
    DomainError,
    binom,
    euler_number,
    euler_poly,
)

from qeuler.zpoly import euler_numerator

from oracles import (
    ONE_PLUS_Q,
    Q,
    accumulated_euler_numbers,
    add,
    beta_exact,
    classical_euler_number,
    euler_poly_integral01,
    fraction_horner,
    mul,
    power,
    q_bracket,
    rf,
    x_derivative,
    x_evaluate,
)


class TestBinom:
    def test_zero_convention(self):
        assert binom(3, -1) == 0
        assert binom(3, 4) == 0
        assert binom(-1, 0) == 0

    def test_matches_comb(self):
        for n in range(8):
            for r in range(n + 1):
                assert binom(n, r) == comb(n, r)


class TestQBracket:
    def test_small_values(self):
        assert q_bracket(3) == rf((1, 1, 1))
        assert q_bracket(0).is_zero
        assert q_bracket(1) == rf((1,))

    def test_reciprocal_base(self):
        assert q_bracket(2, reciprocal=True) == rf(ONE_PLUS_Q, Q)
        assert q_bracket(0, reciprocal=True).is_zero

    def test_negative_index(self):
        # (1 - q^-1)/(1 - q) = -1/q
        assert q_bracket(-1) == rf((-1,), Q)

    def test_q_to_one_limit(self):
        for n in range(-4, 8):
            assert q_bracket(n).evaluate(1) == n
            assert q_bracket(n, reciprocal=True).evaluate(1) == n


class TestEulerNumbers:
    def test_first_values(self):
        assert euler_number(0) == rf((1,))
        assert euler_number(1) == rf((0, -1), ONE_PLUS_Q)
        assert euler_number(2) == rf(mul(Q, (-1, 1)), power(ONE_PLUS_Q, 2))

    def test_third_value(self):
        # -q(q^2 - 4q + 1)/(1+q)^3
        expected = rf(mul(Q, (-1, 4, -1)), power(ONE_PLUS_Q, 3))
        assert euler_number(3) == expected

    def test_recurrence_invariant(self):
        # (1+q) E[n] + q sum_{l<n} C(n, l) E[l] = 0, as one term list
        for n in range(1, 15):
            lhs = sum_products([(rf(ONE_PLUS_Q), euler_number(n))]
                               + [(rf((0, comb(n, l))), euler_number(l))
                                  for l in range(n)])
            assert lhs.is_zero

    def test_matches_accumulated_fill(self):
        for n, expected in enumerate(accumulated_euler_numbers(40)):
            assert euler_number(n) == expected

    def test_denominator_is_exact_bracket_power(self):
        # the numerator is n! at q = -1, so no factor (1+q) cancels
        for n in range(101):
            e = euler_number(n)
            assert (e.a, e.b) == (0, n)
            assert fraction_horner(e.num, -1) == factorial(n)

    def test_tables_hold_the_integer_numerators(self):
        # E[n] stores N_n itself, and E_n(x) the ints C(n, l) N_(n-l)
        for n in range(31):
            e = euler_number(n)
            assert (e.num, e.a, e.b) == (euler_numerator(n), 0, n)
            assert all(type(c) is int for c in e.num)
            assert all(type(c) is int
                       for v in euler_poly(n).coeffs for c in v.num)

    def test_classical_limit(self):
        for n in range(101):
            assert euler_number(n).evaluate(1) == classical_euler_number(n)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            euler_number(-1)


class TestEulerPolys:
    def test_first_values(self):
        assert euler_poly(0) == XPolyQ((1,))
        e1 = XPolyQ([rf((0, -1), ONE_PLUS_Q), RF_ONE])
        assert euler_poly(1) == e1

    def test_second_value(self):
        expected = XPolyQ([
            rf(mul(Q, (-1, 1)), power(ONE_PLUS_Q, 2)),
            rf((0, -2), ONE_PLUS_Q),
            RF_ONE,
        ])
        assert euler_poly(2) == expected

    def test_monic_of_degree_n(self):
        for n in range(13):
            p = euler_poly(n)
            assert p.degree == n
            assert p.coeffs[-1] == RF_ONE

    def test_matches_convolution_of_accumulated_fill(self):
        numbers = accumulated_euler_numbers(20)
        for n in range(21):
            expected = XPolyQ([mul(numbers[n - l], comb(n, l))
                               for l in range(n + 1)])
            assert euler_poly(n) == expected

    def test_constant_term_is_number(self):
        for n in range(13):
            assert euler_poly(n).coeffs[0] == euler_number(n)

    def test_derivative_rule(self):
        for n in range(1, 13):
            assert x_derivative(euler_poly(n)) == mul(euler_poly(n - 1), n)

    def test_reflection_through_recurrence(self):
        # q * E_n(1) + E_n = 0 for n >= 1, and (1 + q) at n = 0
        q_rf = rf(Q)
        for n in range(1, 13):
            v = add(mul(q_rf, x_evaluate(euler_poly(n), Fraction(1))),
                    euler_number(n))
            assert v.is_zero
        n0 = add(mul(q_rf, x_evaluate(euler_poly(0), Fraction(1))),
                 euler_number(0))
        assert n0 == rf(ONE_PLUS_Q)


class TestIntegral01:
    def test_constant(self):
        assert euler_poly_integral01(0) == RF_ONE

    def test_linear(self):
        # (1 - q)/(2 (1 + q)), by substituting the second euler number
        expected = rf((Fraction(1, 2), Fraction(-1, 2)), ONE_PLUS_Q)
        assert euler_poly_integral01(1) == expected

    def test_routes_agree_up_to_12(self):
        for n in range(13):
            euler_poly_integral01(n)  # raises InternalInconsistency on mismatch


class TestBetaExact:
    def test_trivial(self):
        assert beta_exact(1, 1) == 1

    def test_factorial_identity(self):
        assert beta_exact(2, 3) == Fraction(1, 12)

    def test_symmetry(self):
        for a in range(1, 8):
            for b in range(1, 8):
                assert beta_exact(a, b) == beta_exact(b, a)

    def test_central_form(self):
        # B(k+1, k+1) = 1 / ((2k+1) C(2k, k)) for k <= 10
        for k in range(11):
            assert beta_exact(k + 1, k + 1) == Fraction(1, (2 * k + 1) * comb(2 * k, k))
        assert beta_exact(3, 3) == Fraction(1, 30)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_exact(0, 1)
        with pytest.raises(DomainError):
            beta_exact(1, 0)


class TestClassicalOracle:
    def test_first_values(self):
        # recurrence by hand: 1 + 2 E_1 = 0; 1 - 1 + 2 E_2 = 0; ...
        assert classical_euler_number(0) == 1
        assert classical_euler_number(1) == Fraction(-1, 2)
        assert classical_euler_number(2) == 0
        assert classical_euler_number(3) == Fraction(1, 4)

    def test_odd_tail_and_even_zeros(self):
        # E_n(0) vanishes at even n >= 2
        for n in range(2, 16, 2):
            assert classical_euler_number(n) == 0
