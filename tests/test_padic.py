"""Fixed-precision p-adic arithmetic: embedding, propagation, distance."""

import copy
import pickle
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.exactarith import DivisionByZero
from qeuler.padic import (
    PRIME_BOUND,
    PadicApprox,
    PrecisionExhausted,
    is_odd_prime,
    padic_distance,
    rational_valuation,
)
from qeuler.qintegral import KIND_BOSONIC, KIND_FERMIONIC, IntegralRequest


class TestConstruction:
    def test_embed_one_half(self):
        x = PadicApprox.from_rational(Fraction(1, 2), 3, 4)
        assert (x.valuation, x.unit, x.precision) == (0, 41, 4)
        assert 2 * 41 % 81 == 1  # the inverse relation behind the unit

    def test_embed_eighteen(self):
        x = PadicApprox.from_rational(Fraction(18), 3, 4)
        assert (x.valuation, x.unit) == (2, 2)

    def test_embed_zero(self):
        x = PadicApprox.from_rational(Fraction(0), 5, 6)
        assert x.is_zero
        assert x.abs_precision == 6

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            PadicApprox.from_rational(Fraction(1), 2, 4)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PadicApprox.from_rational(Fraction(1), 9, 4)

    def test_unit_range_checked(self):
        with pytest.raises(ValueError):
            PadicApprox(3, 0, 81, 4)
        with pytest.raises(ValueError):
            PadicApprox(3, 0, 6, 4)  # unit divisible by p

    def test_negative_valuation(self):
        x = PadicApprox.from_rational(Fraction(5, 9), 3, 4)
        assert x.valuation == -2
        assert x.abs_precision == 2

    def test_immutable_value(self):
        x = PadicApprox(3, 1, 2, 4)
        assert x == PadicApprox(3, 1, 2, 4) != PadicApprox(3, 1, 2, 5)
        assert hash(x) == hash(PadicApprox(3, 1, 2, 4))
        assert PadicApprox(3, 7, None, 2) == PadicApprox.zero(3, 2)
        for mutate in (lambda: setattr(x, "unit", 5),
                       lambda: delattr(x, "unit")):
            with pytest.raises(AttributeError):
                mutate()
        assert copy.copy(x) == pickle.loads(pickle.dumps(x)) == x
        assert repr(x) == "PadicApprox('2*3^1 + O(3^5)')"


class TestArithmetic:
    def test_cancellation_gives_flagged_zero(self):
        x = PadicApprox.from_rational(Fraction(7, 2), 3, 6)
        d = x - x
        assert d.is_zero
        assert d.abs_precision == 6

    def test_precision_propagation_mul(self):
        a = PadicApprox(3, 0, 5, 6)
        b = PadicApprox(3, 2, 7, 4)
        c = a * b
        assert c.valuation == 2
        assert c.precision == 4

    def test_half_plus_half(self):
        h = PadicApprox.from_rational(Fraction(1, 2), 3, 4)
        s = h + h
        assert (s.valuation, s.unit) == (0, 1)  # 41 + 41 = 82 = 1 mod 81

    def test_division(self):
        a = PadicApprox.from_rational(Fraction(6), 3, 5)
        b = PadicApprox.from_rational(Fraction(2), 3, 5)
        c = a / b
        assert (c.valuation, c.unit) == (1, 1)

    def test_division_by_zero(self):
        z = PadicApprox.zero(3, 5)
        x = PadicApprox.from_rational(Fraction(1), 3, 5)
        with pytest.raises(DivisionByZero):
            x / z

    def test_mixed_primes_rejected(self):
        a = PadicApprox.from_rational(Fraction(1), 3, 4)
        b = PadicApprox.from_rational(Fraction(1), 5, 4)
        with pytest.raises(ValueError):
            a + b

    def test_add_with_negative_valuation(self):
        a = PadicApprox.from_rational(Fraction(1, 3), 3, 4)
        b = PadicApprox.from_rational(Fraction(2, 3), 3, 4)
        assert (a + b) == PadicApprox.from_rational(Fraction(1), 3, 3).truncate_abs(3)

    def test_precision_exhausted(self):
        z = PadicApprox.zero(3, 2)
        y = PadicApprox.from_rational(Fraction(1), 3, 4)
        with pytest.raises(PrecisionExhausted):
            z / PadicApprox(3, 3, 1, 2)
        assert (z + y).abs_precision == 2


class TestPow:
    def test_modular_exponentiation(self):
        # 4^9 = 262144 = 28 mod 81 (262144 - 3236*81 = 28)
        q = PadicApprox.from_rational(Fraction(4), 3, 4)
        x = q.pow_int(9)
        assert pow(4, 9, 81) == 28
        assert (x.valuation, x.unit) == (0, 28)

    def test_zeroth_power(self):
        x = PadicApprox.from_rational(Fraction(7, 5), 3, 6)
        one = x.pow_int(0)
        assert (one.valuation, one.unit) == (0, 1)

    def test_power_of_zero(self):
        z = PadicApprox.zero(3, 4)
        assert z.pow_int(5).is_zero


class TestDistance:
    def test_self_distance_capped(self):
        x = PadicApprox.from_rational(Fraction(5, 7), 3, 6)
        assert padic_distance(x, x) == inf

    def test_distinguishable(self):
        a = PadicApprox.from_rational(Fraction(1), 3, 6)
        b = PadicApprox.from_rational(Fraction(1 + 81), 3, 6)
        assert padic_distance(a, b) == 4

    def test_mod_81_units(self):
        a = PadicApprox(3, 0, 41, 4)
        b = PadicApprox(3, 0, 14, 4)
        assert padic_distance(a, b) == 3  # difference 27


class TestBudget:
    def test_guard_floor(self):
        with pytest.raises(ValueError):
            IntegralRequest(KIND_BOSONIC, 0, target=4, guard=1)

    def test_surcharge(self):
        bosonic = IntegralRequest(KIND_BOSONIC, 0, target=4, guard=4)
        fermionic = IntegralRequest(KIND_FERMIONIC, 0, target=4, guard=4)
        assert bosonic.working_exponent(6) == 14
        assert fermionic.working_exponent(6) == 8
        flat = IntegralRequest(KIND_BOSONIC, 0, target=4, guard=4,
                               level_surcharge=False)
        assert flat.working_exponent(6) == 8


def trial_division_is_odd_prime(p: int) -> bool:
    """Independent oracle: trial division by odd d up to sqrt(p)."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        for p in range(-2, 10 ** 5):
            assert is_odd_prime(p) == trial_division_is_odd_prime(p), p

    def test_strong_pseudoprimes_and_large_primes(self):
        # strong pseudoprimes to the bases 2..7 and 2..23
        assert not is_odd_prime(3215031751)
        assert not is_odd_prime(149491 * 747451 * 34233211)
        assert is_odd_prime(2 ** 61 - 1)
        assert not is_odd_prime(1000003 * 1000033)

    def test_beyond_bound_is_rejected(self):
        with pytest.raises(ValueError):
            is_odd_prime((2 ** 31 - 1) * (2 ** 61 - 1))
        assert (2 ** 31 - 1) * (2 ** 61 - 1) > PRIME_BOUND


# ---------------------------------------------------------------------------
# randomized properties

rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=20)
nonzero_rationals = rationals.filter(lambda r: r != 0)


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_ultrametric_inequality(r, s):
    p = 3
    a = PadicApprox.from_rational(r, p, 8)
    b = PadicApprox.from_rational(s, p, 8)
    c = a + b
    floor = min(a.valuation, b.valuation)
    if c.is_zero:
        assert c.abs_precision >= floor
    else:
        assert c.valuation >= floor
        if a.valuation != b.valuation:
            assert c.valuation == floor


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_valuation_multiplicative(r, s):
    p = 5
    a = PadicApprox.from_rational(r, p, 8)
    b = PadicApprox.from_rational(s, p, 8)
    assert (a * b).valuation == a.valuation + b.valuation
    assert a.valuation == rational_valuation(r, p)


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_embedding_homomorphism(r, s):
    p = 3
    k = 8
    a = PadicApprox.from_rational(r, p, k)
    b = PadicApprox.from_rational(s, p, k)
    prod = PadicApprox.from_rational(r * s, p, k)
    assert padic_distance(a * b, prod) >= (a * b).abs_precision \
        or padic_distance(a * b, prod) == inf
    total = PadicApprox.from_rational(r + s, p, k)
    d = padic_distance(a + b, total)
    assert d == inf or d >= (a + b).abs_precision


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-3 ** 6 + 1, max_value=3 ** 6 - 1))
def test_integer_round_trip(n):
    p, k = 3, 6
    x = PadicApprox.from_rational(Fraction(n), p, k)
    if n == 0:
        assert x.is_zero
    else:
        assert x.residue() % p ** k == n % p ** k
