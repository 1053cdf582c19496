"""Riemann-sum q-integrals: normalization, exact-value agreement, the
brute summation loop as an oracle for the closed-form level sums, adaptive
convergence, the bosonic precision law, and frozen stabilization fixtures."""

import time
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.padic import PadicApprox, PrecisionExhausted, padic_distance
from qeuler.qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    STOP_MAX_LEVEL,
    STOP_PRECISION,
    ConvergenceNotReached,
    IntegralRequest,
    integrate,
    riemann_level,
)
from qeuler.qspecial import euler_number, euler_poly
from qeuler.report import ResultCache

from oracles import (
    bernoulli_number_padic,
    brute_level,
    euler_number_padic,
    integral_result_from_dict,
)


def exact_level_value(kind: str, n: int, x0: Fraction, p: int, q: Fraction,
                      level: int) -> Fraction:
    """Independent oracle: the level-N sum in exact rational arithmetic."""
    t = q if kind == KIND_BOSONIC else -q
    total = sum((x0 + xi) ** n * t ** xi for xi in range(p ** level))
    normalizer = (t ** (p ** level) - 1) / (t - 1)
    return total / normalizer


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


@st.composite
def level_cases(draw):
    """Both kinds, p in {3, 5, 7}, v_p(q - 1) in {1, 2, 3} (q possibly
    negative or non-integral) or q = 1, a p-integral shift, n <= 15,
    levels 1..4, and both the budgeted and the starved surcharge mode."""
    p = draw(st.sampled_from((3, 5, 7)))
    v = draw(st.sampled_from((0, 1, 2, 3)))
    coprime = st.integers(-12, 12).filter(lambda a: a % p != 0)
    if v == 0:
        q = Fraction(1)
    else:
        q = 1 + Fraction(p ** v * draw(coprime), abs(draw(coprime)))
    shift = Fraction(draw(st.integers(-30, 30)), abs(draw(coprime)))
    starved = draw(st.booleans())
    req = IntegralRequest(
        draw(st.sampled_from((KIND_BOSONIC, KIND_FERMIONIC))),
        draw(st.integers(0, 15)), shift, p, q, draw(st.integers(1, 6)),
        guard=2 if starved else 4, level_surcharge=not starved)
    return req, draw(st.integers(1, 4))


class TestRiemannLevel:
    def test_fermionic_normalization_every_level(self):
        req = IntegralRequest(KIND_FERMIONIC, 0, Fraction(0), 3, Fraction(4), 6)
        for level in (1, 2, 3):
            v = riemann_level(req, level)
            assert (v.valuation, v.unit) == (0, 1)

    def test_bosonic_normalization_every_level(self):
        req = IntegralRequest(KIND_BOSONIC, 0, Fraction(0), 3, Fraction(4), 4)
        for level in (1, 2, 3):
            v = riemann_level(req, level)
            assert (v.valuation, v.unit) == (0, 1)

    def test_level_matches_exact_rational_oracle(self):
        # 9-term fermionic sum at p=3, q=4, n=1, level 2
        req = IntegralRequest(KIND_FERMIONIC, 1, Fraction(0), 3, Fraction(4), 6)
        got = riemann_level(req, 2)
        exact = exact_level_value(KIND_FERMIONIC, 1, Fraction(0), 3, Fraction(4), 2)
        embedded = PadicApprox.from_rational(exact, 3, 12)
        assert padic_distance(got, embedded) == inf

    def test_bosonic_level_matches_exact_rational_oracle(self):
        req = IntegralRequest(KIND_BOSONIC, 2, Fraction(0), 3, Fraction(4), 4)
        got = riemann_level(req, 3)
        exact = exact_level_value(KIND_BOSONIC, 2, Fraction(0), 3, Fraction(4), 3)
        embedded = PadicApprox.from_rational(exact, 3, 14)
        assert padic_distance(got, embedded) == inf

    def test_linearity_at_fixed_level(self):
        # level sum of 2 x^1 + 3 x^2 equals the combination of monomial sums
        p, q, level = 3, Fraction(4), 3
        combo = Fraction(0)
        for coeff, n in ((Fraction(2), 1), (Fraction(3), 2)):
            combo += coeff * exact_level_value(KIND_FERMIONIC, n, Fraction(0),
                                               p, q, level)
        parts = []
        for coeff, n in ((2, 1), (3, 2)):
            req = IntegralRequest(KIND_FERMIONIC, n, Fraction(0), p, q, 6)
            parts.append(PadicApprox.from_rational(Fraction(coeff), p, 10)
                         * riemann_level(req, level))
        total = parts[0] + parts[1]
        assert padic_distance(total, PadicApprox.from_rational(combo, p, 10)) == inf

    @settings(max_examples=300, deadline=None)
    @given(level_cases())
    def test_closed_form_matches_brute_loop(self, case):
        req, level = case
        assert _outcome(riemann_level, req, level) == _outcome(brute_level, req, level)

    def test_brute_loop_parity_includes_exhaustion(self):
        # starved bosonic run whose level-3 sum vanishes at the working
        # modulus: both routes must give up on the same input
        req = IntegralRequest(KIND_BOSONIC, 0, Fraction(0), 3, Fraction(4), 1,
                              guard=2, level_surcharge=False)
        with pytest.raises(PrecisionExhausted):
            brute_level(req, 3)
        with pytest.raises(PrecisionExhausted):
            riemann_level(req, 3)

    def test_level_40_at_p7_is_immediate(self):
        # 7^40 terms: out of reach term by term, O(n^2) operations here
        req = IntegralRequest(KIND_FERMIONIC, 10, Fraction(0), 7, Fraction(8), 6)
        start = time.perf_counter()
        value = riemann_level(req, 40)
        assert time.perf_counter() - start < 1.0
        exact = PadicApprox.from_rational(euler_number(10).evaluate(8), 7, 12)
        assert padic_distance(value, exact) >= 6


class TestValidation:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            IntegralRequest(KIND_FERMIONIC, 1, Fraction(0), 3, Fraction(2), 4)

    def test_rejects_p_in_shift_denominator(self):
        with pytest.raises(ValueError):
            IntegralRequest(KIND_FERMIONIC, 1, Fraction(1, 3), 3, Fraction(4), 4)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            IntegralRequest("spectral", 1, Fraction(0), 3, Fraction(4), 4)

    def test_allows_q_equal_one(self):
        req = IntegralRequest(KIND_BOSONIC, 0, Fraction(0), 3, Fraction(1), 4)
        v = riemann_level(req, 2)
        assert (v.valuation, v.unit) == (0, 1)


class TestAdaptiveIntegrate:
    def test_fermionic_agrees_with_exact_table(self):
        for n in range(6):
            req = IntegralRequest(KIND_FERMIONIC, n, Fraction(0), 3, Fraction(4), 6)
            res = integrate(req)
            exact = PadicApprox.from_rational(euler_number(n).evaluate(4), 3, 12)
            assert res.achieved_precision >= 6
            assert padic_distance(res.value, exact) >= 6

    def test_fermionic_shifted_agrees_with_polynomial(self):
        req = IntegralRequest(KIND_FERMIONIC, 2, Fraction(1), 3, Fraction(4), 6)
        res = integrate(req)
        exact_value = euler_poly(2).evaluate(Fraction(1)).evaluate(4)
        exact = PadicApprox.from_rational(exact_value, 3, 12)
        assert padic_distance(res.value, exact) >= 6

    def test_trace_shape(self):
        req = IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3, Fraction(4), 4)
        res = integrate(req)
        assert res.converged
        assert res.trace[0][2] is None
        tail = [d for _, _, d in res.trace[-2:]]
        assert all(d == inf or d >= 4 for d in tail)
        assert res.levels_used == res.trace[-1][0]

    def test_convergence_not_reached_carries_result(self):
        req = IntegralRequest(KIND_FERMIONIC, 5, Fraction(0), 3, Fraction(4), 8,
                              max_level=4)
        with pytest.raises(ConvergenceNotReached) as err:
            integrate(req)
        res = err.value.result
        assert res.achieved_precision < 8
        assert not res.converged
        assert res.levels_used == 4
        assert err.value.stopped_by == STOP_MAX_LEVEL
        assert STOP_MAX_LEVEL in str(err.value)

    def test_fermionic_p5_shifted_converges_past_former_term_cap(self):
        # stopped at 6 of 8 digits when levels were capped at 10^6 terms
        req = IntegralRequest(KIND_FERMIONIC, 6, Fraction(2, 7), 5, Fraction(6), 8)
        res = integrate(req)
        assert res.achieved_precision == 8
        assert res.levels_used == 10
        exact_value = euler_poly(6).evaluate(Fraction(2, 7)).evaluate(6)
        exact = PadicApprox.from_rational(exact_value, 5, 14)
        assert padic_distance(res.value, exact) >= 8

    def test_result_round_trip(self):
        req = IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3, Fraction(4), 4)
        res = integrate(req)
        cache = ResultCache()
        cache.put_integral(KIND_BOSONIC, 1, 3, Fraction(4), 4, 4, 12, res)
        (entry,) = cache.entries.values()
        assert integral_result_from_dict(entry) == res


class TestNumberWrappers:
    def test_euler_number_padic_n1(self):
        # embeds -q/(1+q) = -4/5 at q = 4
        got = euler_number_padic(1, 3, Fraction(4), 6)
        exact = PadicApprox.from_rational(Fraction(-4, 5), 3, 12)
        assert padic_distance(got, exact) >= 6

    def test_euler_number_padic_n3(self):
        # embeds -q(q^2 - 4q + 1)/(1+q)^3 = -4/125 at q = 4
        got = euler_number_padic(3, 3, Fraction(4), 6)
        exact = PadicApprox.from_rational(Fraction(-4, 125), 3, 12)
        assert padic_distance(got, exact) >= 6

    def test_bernoulli_zero(self):
        got = bernoulli_number_padic(0, 3, Fraction(4), 4)
        assert (got.valuation, got.unit) == (0, 1)

    def test_bernoulli_regression_p3(self):
        # frozen from the exact-rational oracle: stabilized value of the
        # first bosonic moment at p=3, q=4 is 17 * 3 mod 3^4
        got = bernoulli_number_padic(1, 3, Fraction(4), 4)
        assert (got.valuation, got.unit) == (1, 17)

    def test_bernoulli_regression_p5(self):
        # frozen from the exact-rational oracle at the second prime
        got = bernoulli_number_padic(2, 5, Fraction(6), 4)
        assert (got.valuation, got.unit) == (0, 546)

    def test_bernoulli_can_leave_the_integers(self):
        # the second bosonic moment at p=3, q=4 has valuation -1; the exact
        # level values confirm it, so the tracking must too
        got = bernoulli_number_padic(2, 3, Fraction(4), 4)
        assert got.valuation == -1
        exact = exact_level_value(KIND_BOSONIC, 2, Fraction(0), 3, Fraction(4), 7)
        emb = PadicApprox.from_rational(exact, 3, 12)
        assert padic_distance(got, emb) >= got.abs_precision


class TestBosonicPrecisionLaw:
    def test_working_modulus_needs_level_surcharge(self):
        # trusted digits from a fully budgeted run
        full = integrate(IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3,
                                         Fraction(4), 6, guard=6))
        # starved run: no level surcharge, thin guard
        req = IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3, Fraction(4), 4,
                              guard=2, level_surcharge=False)
        try:
            res = integrate(req)
        except ConvergenceNotReached as err:
            res = err.result
        assert res.achieved_precision < 4
        # the digits it does claim agree with the trusted value
        if res.achieved_precision > 0:
            d = padic_distance(res.value, full.value)
            assert d == inf or d >= res.achieved_precision

    def test_exhausted_precision_names_its_stop(self):
        # the starved level-3 sum vanishes at the working modulus, so the
        # run stops there rather than at max_level
        req = IntegralRequest(KIND_BOSONIC, 0, Fraction(0), 3, Fraction(4), 1,
                              guard=2, level_surcharge=False)
        with pytest.raises(ConvergenceNotReached) as err:
            integrate(req)
        assert err.value.stopped_by == STOP_PRECISION
        assert STOP_PRECISION in str(err.value)
        assert err.value.result.levels_used == 2

    def test_surcharged_run_reaches_target(self):
        res = integrate(IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3,
                                        Fraction(4), 4))
        assert res.achieved_precision == 4
