"""Riemann-sum q-integrals: normalization, exact-value agreement, the
brute summation loop as an oracle for the closed-form level sums, adaptive
convergence, the bosonic precision law, the measured level bound, and
frozen stabilization fixtures."""

import random
import time
from contextlib import nullcontext
from fractions import Fraction
from math import factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.padic import PadicApprox, PrecisionExhausted, padic_distance
from qeuler import qintegral
from qeuler.qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    STOP_MAX_LEVEL,
    STOP_PRECISION,
    ConvergenceNotReached,
    IntegralRequest,
    MonomialIntegrals,
    _level_sum,
    check_config,
    integrate,
    riemann_level,
)
from qeuler.identities import NumericContext
from qeuler.qspecial import euler_number, euler_poly

from oracles import (
    bernoulli_number_padic,
    bosonic_closed_form,
    brute_level,
    euler_number_padic,
    padic_log,
    padic_rational,
    q_bernoulli,
    starved_modulus,
    valuation,
    x_evaluate,
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
    levels 1..4, and both the budgeted and the starved modulus."""
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
        guard=2 if starved else 4)
    return req, draw(st.integers(1, 4)), starved


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
        req, level, starved = case
        with starved_modulus() if starved else nullcontext():
            assert (_outcome(riemann_level, req, level)
                    == _outcome(brute_level, req, level))

    def test_brute_loop_parity_includes_exhaustion(self):
        # starved bosonic run whose level-3 sum vanishes at the working
        # modulus: both routes must give up on the same input
        req = IntegralRequest(KIND_BOSONIC, 0, Fraction(0), 3, Fraction(4), 1,
                              guard=2)
        with starved_modulus():
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


class TestNormalizer:
    def test_fermionic_at_q_one_is_the_unit_one(self):
        # t = -q = -1: the bracket S_0 of p^level in base -1 is 1, which
        # the general recurrence gives without a special case
        for p in (3, 5, 7, 11, 13):
            req = IntegralRequest(KIND_FERMIONIC, 0, Fraction(0), p, Fraction(1), 4)
            for level in range(1, 7):
                for work in range(1, 12):
                    assert _level_sum(req, level, work, work)[1] == 1


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

    def test_rejects_max_level_below_one(self):
        # a bad argument, not a working precision exhausted at level 1
        with pytest.raises(ValueError, match="max_level"):
            integrate(IntegralRequest(KIND_BOSONIC, 1, max_level=0))
        with pytest.raises(ValueError, match="max_level"):
            MonomialIntegrals(3, 4, 4, max_level=0)

    @pytest.mark.parametrize("setting, value", [
        ("p", 4), ("p", 2), ("p", -3), ("q", Fraction(2)),
        ("q", Fraction(1, 3)), ("target", 0), ("guard", 1), ("max_level", 0),
    ])
    @pytest.mark.parametrize("build", [MonomialIntegrals, NumericContext,
                                       IntegralRequest])
    def test_a_bad_configuration_fails_where_it_is_built(self, build,
                                                         setting, value):
        config = {"p": 3, "q": Fraction(4), "target": 4, "guard": 4,
                  "max_level": 12, setting: value}
        args = (KIND_BOSONIC, 1) if build is IntegralRequest else ()
        if build is NumericContext:
            # verify runs no Riemann level and embeds no exact coefficient,
            # so its context takes no level cap and no guard digits
            with pytest.raises(TypeError, match="guard"):
                build(**config)
            if setting in ("guard", "max_level"):
                return
            del config["guard"], config["max_level"]
        with pytest.raises(ValueError, match=f"^{setting} must"):
            build(*args, **config)

    def test_unset_settings_take_their_defaults(self):
        # p = 3, q = 1 + p, K = 4, guard = 4, level cap 12
        assert check_config() == (3, Fraction(4), 4, 4, 12)
        assert check_config(p=5) == (5, Fraction(6), 4, 4, 12)
        req = IntegralRequest(KIND_BOSONIC, 1)
        config = (req.p, req.q, req.target, req.guard, req.max_level)
        assert config == check_config()

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
        exact_value = x_evaluate(euler_poly(2), Fraction(1)).evaluate(4)
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

    def test_memo_runs_a_short_integral_once(self, monkeypatch):
        # an integral that stops short is integrated once; every call
        # raises a fresh ConvergenceNotReached from the memoized partial
        # result and stop
        calls = []

        def spy(req):
            calls.append(req)
            return integrate(req)

        monkeypatch.setattr(qintegral, "integrate", spy)
        integrals = MonomialIntegrals(3, Fraction(4), 8, max_level=4)
        raised = []
        for _ in range(2):
            with pytest.raises(ConvergenceNotReached) as err:
                integrals(KIND_FERMIONIC, 5)
            raised.append(err.value)
        assert len(calls) == 1
        assert raised[0] is not raised[1]
        assert raised[0].result is raised[1].result
        assert [e.stopped_by for e in raised] == [STOP_MAX_LEVEL] * 2
        assert raised[0].result.achieved_precision < 8

    @pytest.mark.parametrize("kind", [KIND_BOSONIC, KIND_FERMIONIC])
    def test_one_level_certifies_no_digit(self, kind):
        # a single level is compared with nothing, so its partial result
        # claims no precision; level 1 of this bosonic integral agrees
        # with the limit to 3^1 only
        req = IntegralRequest(kind, 4, Fraction(-2), 3, Fraction(118), 5,
                              max_level=1)
        with pytest.raises(ConvergenceNotReached) as err:
            integrate(req)
        result = err.value.result
        assert result.achieved_precision == 0
        assert result.levels_used == 1
        # and its value states no digit beyond p^0
        assert result.value.abs_precision <= 0

    def test_fermionic_p5_shifted_converges_past_former_term_cap(self):
        # stopped at 6 of 8 digits when levels were capped at 10^6 terms
        req = IntegralRequest(KIND_FERMIONIC, 6, Fraction(2, 7), 5, Fraction(6), 8)
        res = integrate(req)
        assert res.achieved_precision == 8
        assert res.levels_used == 10
        exact_value = x_evaluate(euler_poly(6), Fraction(2, 7)).evaluate(6)
        exact = PadicApprox.from_rational(exact_value, 5, 14)
        assert padic_distance(res.value, exact) >= 8


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


def agrees_with_closed_form(value: PadicApprox, n: int, x0: Fraction,
                            p: int, q: Fraction) -> bool:
    """value is the closed form to the absolute precision value states."""
    digits = value.abs_precision
    diff = bosonic_closed_form(n, x0, p, q, digits) - padic_rational(value)
    return valuation(diff, p) >= digits


class TestBosonicClosedForm:
    """The bosonic integral of (x0 + xi)^n against the q-Euler polynomials
    at -q and the p-adic logarithm of q, a route that shares nothing with
    the level sums."""

    def test_padic_log_is_additive(self):
        # log 4 + log 7 = log 28 and log 4 + log 1/4 = 0, to 3^12
        log = lambda q: padic_log(Fraction(q), 3, 12)
        assert valuation(log(4) + log(7) - log(28), 3) >= 12
        assert valuation(log(4) + log(Fraction(1, 4)), 3) >= 12

    @pytest.mark.parametrize("p, q, K", [
        (3, 4, 6), (5, 6, 5), (7, 8, 6), (3, Fraction(4, 7), 6),
        (3, -2, 6), (5, 11, 5)])
    def test_integrals_and_bernoulli_numbers(self, p, q, K):
        q = Fraction(q)
        for x0 in (Fraction(0), Fraction(1, 2), Fraction(-2, 5)):
            if x0.denominator % p == 0:
                continue
            for n in range(8):
                result = integrate(IntegralRequest(KIND_BOSONIC, n, x0, p, q, K))
                assert result.achieved_precision == K
                assert agrees_with_closed_form(result.value, n, x0, p, q), (n, x0)
                if x0 == 0:
                    assert agrees_with_closed_form(q_bernoulli(n, p, q, K),
                                                   n, x0, p, q)

    def test_seeded_stopping_rule_cases(self):
        # 300 seeded requests: p in {3, 5, 7}, v_p(q - 1) >= 1, p-integral
        # x0, K 3..8 and a level cap 1..12, so that some stop short; every
        # value, converged or partial, is the closed form to the precision
        # it achieved
        rng = random.Random(2901)
        stopped_short = 0
        for _ in range(300):
            p = rng.choice((3, 5, 7))
            units = [u for u in range(1, 10) if u % p]
            q = 1 + Fraction(p ** rng.randint(1, 2) * rng.choice((-1, 1))
                             * rng.randint(1, 30), rng.choice(units))
            x0 = Fraction(rng.randint(-9, 9), rng.choice(units))
            n, K = rng.randint(0, 8), rng.randint(3, 8)
            req = IntegralRequest(KIND_BOSONIC, n, x0, p, q, K,
                                  max_level=rng.randint(1, 12))
            try:
                result = integrate(req)
            except ConvergenceNotReached as exc:
                result = exc.result
                stopped_short += 1
            case = (n, x0, p, q, K, req.max_level)
            digits = result.achieved_precision
            diff = (bosonic_closed_form(n, x0, p, q, digits)
                    - padic_rational(result.value))
            assert valuation(diff, p) >= digits, case
        assert 0 < stopped_short < 300


class TestLevelBound:
    """The level-N sum I_N of (x0 + xi)^n is its limit to N - v_p(n!)
    digits: v_p(I_N - limit) >= N - v_p(n!).  Measured, not yet proven."""

    def test_seeded_levels_meet_the_bound(self):
        # 300 seeded cases over both measures, three shifts and five
        # (p, q), n <= 10 and N <= 13; the limit is the closed form
        # (bosonic) or E_n(x0) (fermionic), compared to the absolute
        # precision the level value states
        rng = random.Random(6)
        configs = ((3, Fraction(4)), (3, Fraction(4, 7)), (5, Fraction(6)),
                   (3, Fraction(-2)), (5, Fraction(26)))
        reached = 0
        for _ in range(300):
            kind = rng.choice((KIND_BOSONIC, KIND_FERMIONIC))
            x0 = rng.choice((Fraction(0), Fraction(1, 2), Fraction(-2, 7)))
            p, q = rng.choice(configs)
            n, level = rng.randint(0, 10), rng.randint(1, 13)
            value = riemann_level(IntegralRequest(kind, n, x0, p, q, 14), level)
            digits = value.abs_precision
            if kind == KIND_BOSONIC:
                limit = bosonic_closed_form(n, x0, p, q, digits)
            else:
                limit = x_evaluate(euler_poly(n), x0).evaluate(q)
            bound = level - valuation(factorial(n), p)
            got = valuation(limit - padic_rational(value), p)
            case = (kind, x0, p, q, n, level)
            assert got >= min(bound, digits), case
            reached += got == bound < digits
        # the bound is attained, so it cannot be raised
        assert reached > 0


class TestBosonicPrecisionLaw:
    def test_working_modulus_needs_level_surcharge(self):
        # trusted digits from a fully budgeted run
        full = integrate(IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3,
                                         Fraction(4), 6, guard=6))
        # starved run: no level surcharge, thin guard
        req = IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3, Fraction(4), 4,
                              guard=2)
        with starved_modulus():
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
                              guard=2)
        with starved_modulus(), pytest.raises(ConvergenceNotReached) as err:
            integrate(req)
        assert err.value.stopped_by == STOP_PRECISION
        assert STOP_PRECISION in str(err.value)
        assert err.value.result.levels_used == 2

    def test_surcharged_run_reaches_target(self):
        res = integrate(IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3,
                                        Fraction(4), 4))
        assert res.achieved_precision == 4
