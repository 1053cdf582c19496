"""Fixed-precision p-adic arithmetic: embedding, propagation, distance,
and the immutable value records of the numeric layers."""

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
    log_p,
    padic_distance,
    rational_valuation,
)
from qeuler.qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    IntegralRequest,
    integrate,
)

from oracles import valuation


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
        assert PadicApprox(3, 7, None, 2) == PadicApprox.zero(3, 2)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            PadicApprox.from_rational(Fraction(1), 2, 4)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PadicApprox.from_rational(Fraction(1), 9, 4)

    @pytest.mark.parametrize("p", [2, 9, 1, 0, -3, 3 * 7])
    def test_constructors_reject_bad_p(self, p):
        # every public constructor tests p before it uses it: with p = 1,
        # from_rational's valuations would otherwise never end
        for build in (lambda: PadicApprox(p, 0, 1, 2),
                      lambda: PadicApprox(p, 0, None, 2),
                      lambda: PadicApprox.zero(p, 2),
                      lambda: PadicApprox.from_residue(3, p, 2),
                      lambda: PadicApprox.from_rational(Fraction(3), p, 4),
                      lambda: PadicApprox.from_rational(0, p, 4)):
            with pytest.raises(ValueError, match="odd prime"):
                build()

    def test_unit_range_checked(self):
        with pytest.raises(ValueError):
            PadicApprox(3, 0, 81, 4)
        with pytest.raises(ValueError):
            PadicApprox(3, 0, 6, 4)  # unit divisible by p

    def test_negative_valuation(self):
        x = PadicApprox.from_rational(Fraction(5, 9), 3, 4)
        assert x.valuation == -2
        assert x.abs_precision == 2



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


# Each value record: a builder, a builder of a record that differs from it
# in one field, and its pinned repr.
RECORDS = {
    "PadicApprox": (
        lambda: PadicApprox(3, 1, 2, 4),
        lambda: PadicApprox(3, 1, 2, 5),
        "PadicApprox('2*3^1 + O(3^5)')"),
    "IntegralRequest": (
        lambda: IntegralRequest(KIND_BOSONIC, 1, Fraction(1, 2), 3, 4, 2),
        lambda: IntegralRequest(KIND_BOSONIC, 1, Fraction(1, 2), 3, 4, 3),
        "IntegralRequest(kind='bosonic', exponent=1, shift=Fraction(1, 2), "
        "p=3, q=Fraction(4, 1), target=2, guard=4, max_level=12)"),
    "IntegralResult": (
        lambda: integrate(IntegralRequest(KIND_FERMIONIC, 1, 0, 3, 4, 2)),
        lambda: integrate(IntegralRequest(KIND_FERMIONIC, 1, 0, 3, 4, 3)),
        "IntegralResult(value=PadicApprox('1 + O(3^2)'), "
        "achieved_precision=2, levels_used=4, converged=True, "
        "trace=((1, PadicApprox('619 + O(3^6)'), None), "
        "(2, PadicApprox('28 + O(3^6)'), 1), "
        "(3, PadicApprox('523 + O(3^6)'), 2), "
        "(4, PadicApprox('550 + O(3^6)'), 3)))"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_immutable_values(name):
    build, build_other, pinned = RECORDS[name]
    x = build()
    assert x == build() != build_other()
    assert hash(x) == hash(build())
    for field in type(x).__slots__:
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    again = pickle.loads(pickle.dumps(x))
    assert copy.copy(x) == again == x and hash(again) == hash(x)
    assert repr(x) == pinned


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


def exp_series(x: Fraction, p: int, precision: int) -> Fraction:
    """A rational within p^-precision of exp_p(x), for v_p(x) >= 1: the
    terms x^k/k! with k v - (k - 1)/(p - 1) < precision, since term k has
    valuation at least k v - v_p(k!) >= k v - (k - 1)/(p - 1), which grows
    with k."""
    if x == 0:
        return Fraction(1)
    v = rational_valuation(x, p)
    total, term, k = Fraction(0), Fraction(1), 0
    while (k * v * (p - 1) - (k - 1)) < precision * (p - 1):
        total += term
        k += 1
        term = term * x / k
    return total


class TestLogP:
    """padic.log_p(q, p, D) is within p^-D of log_p q: exp_p, summed on its
    own, takes it back to q to D digits."""

    @settings(max_examples=80, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 11]), v=st.integers(1, 3),
           a=st.integers(-40, 40).filter(bool), b=st.integers(1, 40),
           digits=st.integers(1, 16))
    def test_exp_takes_it_back_to_q(self, p, v, a, b, digits):
        if a % p == 0 or b % p == 0:
            return
        q = 1 + Fraction(p ** v * a, b)
        log = log_p(q, p, digits)
        if digits > v:
            assert rational_valuation(log, p) == v
        # q exp(log - log_p q) - q has the valuation of log - log_p q
        assert valuation(exp_series(log, p, digits + 1) - q, p) >= digits

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(5, 3)])
    def test_needs_q_near_one(self, q):
        with pytest.raises(ValueError):
            log_p(q, 3, 4)


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
