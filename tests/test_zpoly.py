"""The integer table of q-Euler numerators, against the Horner fill of
the umbral recurrence, and the rows that the `numbers euler` command
builds from it, against the RatFuncQ route."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.errors import PoleError
from qeuler.qspecial import euler_number
from qeuler.zpoly import (
    euler_number_at,
    euler_number_str,
    euler_numerator,
    fmt_poly,
    fmt_ratio,
    strip_bracket,
)

from oracles import (
    accumulated_euler_numbers,
    fraction_horner,
    horner_euler_numerators,
    stirling_euler_numerators,
)

N_MAX = 60


def fraction_euler_number(n, q0):
    """N_n(q0)/(1 + q0)^n by Horner's rule on Fractions: the reference
    for the integer evaluation (the rows are checked above)."""
    q0 = Fraction(q0)
    return fraction_horner(euler_numerator(n), q0) / (1 + q0) ** n


def test_numerators_match_accumulated_fill():
    for n, expected in enumerate(accumulated_euler_numbers(12)):
        assert euler_numerator(n) == expected.num
        assert (expected.a, expected.b) == (0, n)


def test_eulerian_rows_match_horner_fill():
    for n, expected in enumerate(horner_euler_numerators(150)):
        assert euler_numerator(n) == expected


def test_explicit_stirling_formula_matches_the_rows():
    for n, expected in enumerate(stirling_euler_numerators(79)):
        assert euler_numerator(n) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200))
def test_eulerian_symmetry(n):
    # N_n = -q A_n(-q): the coefficient of q^(k+1) is (-1)^(k+1) A(n, k)
    row = euler_numerator(n)
    eulerian = [(-1) ** (k + 1) * row[k + 1] for k in range(n)]
    assert row[0] == 0 and len(row) == n + 1
    assert all(a > 0 for a in eulerian)
    assert eulerian == eulerian[::-1]
    assert sum(eulerian) == factorial(n)


@pytest.mark.parametrize("q0", [0, 1, Fraction(3, 7), Fraction(-5, 2)])
def test_integer_rows_match_ratfunc_route(q0):
    for n in range(N_MAX + 1):
        value = euler_number(n)
        assert euler_number_str(n) == str(value)
        assert (euler_number_at(n, Fraction(q0)) == value.evaluate(q0)
                == fraction_euler_number(n, q0))


def test_minus_one_is_a_pole():
    assert euler_number_at(0, Fraction(-1)) == euler_number(0).evaluate(-1) == 1
    for n in range(1, N_MAX + 1):
        with pytest.raises(PoleError):
            euler_number_at(n, Fraction(-1))
        with pytest.raises(PoleError):
            euler_number(n).evaluate(-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, N_MAX),
       st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                    max_denominator=12).filter(lambda x: x != -1))
def test_horner_over_the_integers(n, q0):
    assert (euler_number_at(n, q0) == euler_number(n).evaluate(q0)
            == fraction_euler_number(n, q0))


def times_bracket(coeffs, j):
    """coeffs * (1+q)^j over the integers."""
    coeffs = list(coeffs)
    for _ in range(j):
        coeffs = [x + y for x, y in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_strip_bracket_leaves_numerators_whole():
    # N_n(-1) = n! is nonzero, so no factor (1+q) comes off
    for n in range(N_MAX + 1):
        assert strip_bracket(euler_numerator(n), n) == (euler_numerator(n), n)


@pytest.mark.parametrize("j", range(5))
def test_strip_bracket_takes_exactly_the_factors_put_on(j):
    for n in range(0, N_MAX + 1, 6):
        row = list(euler_numerator(n))
        for b in range(j, j + 3):
            assert strip_bracket(times_bracket(row, j), b) == (row, b - j)
        for b in range(j):
            # it stops at b, with the remaining factors still on
            assert strip_bracket(times_bracket(row, j), b) == (
                times_bracket(row, j - b), 0)


def test_negative_index_rejected():
    for row in (euler_numerator, euler_number_str):
        with pytest.raises(ValueError):
            row(-1)


def test_renderer_takes_ints_and_fractions():
    assert fmt_poly((0, -1, 1)) == "-q + q^2"
    assert fmt_poly((Fraction(1, 2), 0, Fraction(-3, 2)), "x") == "1/2 - (3/2)x^2"
    assert fmt_poly(()) == "0"
    # the one printer of N/(q^a (1+q)^b), by hand
    assert euler_number_str(0) == "1"
    assert euler_number_str(2) == "(-q + q^2)/(1 + 2q + q^2)"
    assert fmt_ratio((Fraction(1, 2),), 2, 1) == "(1/2)/(q^2 + q^3)"
