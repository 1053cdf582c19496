"""The identity registry: frozen hand-computed anchors, cross-route
consistency, printed-variant discrepancies, and the verify driver."""

import json
from fractions import Fraction
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import identities, padic, qspecial, zpoly
from qeuler.cli import main as cli_main
from qeuler.exactarith import RF_ONE, RF_ZERO, RatFuncQ, XPolyQ, sum_products
from qeuler.identities import (
    ERROR,
    FAILS,
    HOLDS,
    HOLDS_TO_PRECISION,
    TABLES,
    X_CERTIFICATE,
    IdentityId,
    NumericContext,
    _at_precision,
    _columns,
    _degree,
    _functional_equation_row,
    _beta,
    degree_2k1_rhs,
    degree_2k1_statement,
    degree_2k1_terms,
    eq6_statement,
    eq6_terms,
    fermionic_moment,
    grid_params,
    images,
    monomials,
    shift_terms,
    table_certificate,
    table_licensed,
    unit_integral,
    verify,
    verify_grid,
    x_certificate,
    x_polynomial,
)
from qeuler.padic import PadicApprox, padic_distance
from qeuler.qintegral import KIND_BOSONIC, KIND_FERMIONIC
from qeuler.qspecial import euler_number, euler_poly

from test_acceptance import COMMAND_SHA256

from oracles import (
    MonomialIntegrals,
    ONE_PLUS_Q,
    Q,
    RF_ONE_PLUS_Q,
    ReferenceContext,
    add,
    beta_exact,
    bosonic_closed_form,
    classical_bernoulli_number,
    convolved_moment_pair,
    counted_moment_pairs,
    direct_moment,
    eq103_terms,
    euler_poly_integral01,
    evaluate_point,
    fermionic_image,
    folded_apply,
    level_integrals,
    mul,
    padic_log,
    padic_rational,
    power,
    q_bernoulli,
    rf,
    ring_terms,
    sides,
    sub,
    taylor_shifted,
    thm1_independent_route,
    thm3_construction_residual,
    three_pass_x_certificate,
    total,
    valuation,
    view_pairs,
    x_derivative,
    x_integral01,
)


@pytest.fixture(scope="module")
def ctx():
    return ReferenceContext(3, Fraction(4), 4, 4)


class DeltaSliceContext(ReferenceContext):
    """Every numeric B value replaced by the 0-index slice [n == 0]."""

    def bernoulli(self, n: int) -> PadicApprox:
        return self.embed(Fraction(1 if n == 0 else 0))


@pytest.fixture(scope="module")
def delta_ctx():
    return DeltaSliceContext(3, Fraction(4), 4, 4)


class TestTermListSums:
    """sum_products reduces each term list once; the pairwise fold of the
    independent R is the reference."""

    def test_catalogued_term_lists_match_pairwise_fold(self):
        lists = [eq6_terms(k, m)[first:] for k in range(4) for m in range(4)
                 for first in (0, 1)]
        lists += [eq103_terms(k) for k in range(1, 4)]
        lists += [degree_2k1_terms(k, variant) for k in range(1, 4)
                  for variant in ("printed", "corrected")]
        for terms in map(ring_terms, filter(None, lists)):
            for image in (euler_poly, unit_integral, fermionic_moment):
                assert (sum_products(images(terms, image))
                        == folded_apply(terms, image))

    def test_monomial_map_matches_pairwise_fold(self):
        for k in range(4):
            terms = ring_terms(degree_2k1_rhs(k))
            assert (sum_products(images(terms, XPolyQ.x_power))
                    == folded_apply(terms, XPolyQ.x_power))


class TestEq6:
    def test_degenerate_cell(self):
        left, right = sides(IdentityId.EQ6, {"k": 0, "m": 0})
        assert left == right == XPolyQ([rf(ONE_PLUS_Q)])

    def test_k1_m0(self):
        left, right = sides(IdentityId.EQ6, {"k": 1, "m": 0})
        expected = XPolyQ([RF_ZERO, rf(ONE_PLUS_Q)])
        assert left == right == expected

    def test_k1_m2_with_bruteforce_right_side(self):
        left, right = sides(IdentityId.EQ6, {"k": 1, "m": 2})
        assert left == right
        # expand (1+q) x (x-1)^2 by repeated multiplication instead of the
        # binomial route used internally
        brute = XPolyQ([RF_ZERO, RF_ONE])
        factor = XPolyQ([RatFuncQ.from_fraction(-1), RF_ONE])
        brute = mul(mul(mul(brute, factor), factor), rf(ONE_PLUS_Q))
        assert right == brute

    def test_point_evaluation_samples(self):
        left, right = sides(IdentityId.EQ6, {"k": 2, "m": 3})
        for x0, q0 in ((Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(2))):
            assert evaluate_point(left, x0, q0) == evaluate_point(right, x0, q0)


def thm1(k, m):
    return sides(IdentityId.THM1, {"k": k, "m": m})


def thm2(k):
    return sides(IdentityId.THM2, {"k": k})


class TestThm1:
    def test_anchor_1_1(self):
        left, right = thm1(1, 1)
        # q (q-1)^2 / (2 (1+q)^2), worked by hand from the number table
        expected = rf(mul(mul(Q, power((-1, 1), 2)), Fraction(1, 2)),
                      power(ONE_PLUS_Q, 2))
        assert left == right == expected

    def test_independent_route_matches_sides(self):
        for k, m in ((1, 1), (2, 1), (3, 2)):
            il, ir = thm1_independent_route(k, m)
            dl, dr = thm1(k, m)
            assert il == dl and ir == dr

    def test_specialization_reproduces_display(self):
        for k in range(1, 7):
            assert sides(IdentityId.THM1_COR, {"k": k}) == thm1(k, k + 1)

    def test_displayed_specialization_holds(self):
        for k in range(1, 7):
            left, right = sides(IdentityId.THM1_COR, {"k": k})
            assert left == right


class TestEq103:
    def test_k1_anchor(self):
        left, right = sides(IdentityId.EQ103, {"k": 1})
        expected = XPolyQ([RF_ZERO, rf((-1, -1)), rf(ONE_PLUS_Q)])
        assert left == right == expected

    def test_k2(self):
        left, right = sides(IdentityId.EQ103, {"k": 2})
        assert left == right

    def test_printed_regrouping_is_the_master_terms_at_k_k(self):
        # the paper's parity-grouped list is EQ6's bracket sum at m = k, term
        # for term and in the same order
        for k in range(31):
            assert eq103_terms(k) == eq6_terms(k, k)


class TestBeta:
    """One beta integral, -int_0^1 x^k (x-1)^m dx, gives the printed beta
    term of THM1, THM1_COR and THM2."""

    def test_printed_closed_forms(self):
        for k in range(1, 40):
            assert _beta(k, k + 1) == Fraction(
                (-1) ** k, (2 * k + 2) * comb(2 * k + 1, k))      # THM1_COR
            assert _beta(k, k) == Fraction(
                (-1) ** (k + 1), (2 * k + 1) * comb(2 * k, k))    # THM2

    def test_is_the_signed_beta_function(self):
        for k in range(20):
            for m in range(20):
                assert _beta(k, m) == (-1) ** (m + 1) * beta_exact(k + 1, m + 1)


class TestThm2:
    def test_k1_value(self):
        left, right = thm2(1)
        assert left == right == rf((0, Fraction(1, 6)))

    def test_holds_to_10(self):
        for k in range(1, 11):
            left, right = thm2(k)
            assert left == right

    def test_consistency_with_integrated_regrouping(self):
        # integrating the regrouped identity and multiplying by -q/(1+q),
        # the inverse of -(1+q)/q, reproduces the statement
        q_over_two_q = rf(Q, ONE_PLUS_Q)
        for k in range(1, 6):
            left103, right103 = sides(IdentityId.EQ103, {"k": k})
            li = -mul(x_integral01(left103), q_over_two_q)
            ri = -mul(x_integral01(right103), q_over_two_q)
            l2, r2 = thm2(k)
            assert li == l2 and ri == r2


class TestThm3:
    def test_corrected_k1_full_expansion(self):
        left, right = sides(IdentityId.THM3_CORRECTED, {"k": 1})
        expected = XPolyQ([
            RF_ZERO,
            rf(Q),
            rf((-1, -2)),
            rf(ONE_PLUS_Q),
        ])
        assert left == right == expected

    def test_corrected_holds_to_6(self):
        for k in range(1, 7):
            left, right = sides(IdentityId.THM3_CORRECTED, {"k": k})
            assert left == right

    def test_construction_identity(self):
        for k in range(1, 7):
            assert thm3_construction_residual(k).is_zero

    def test_printed_differs_at_k1(self):
        left, right = sides(IdentityId.THM3_PRINTED, {"k": 1})
        assert not sub(left, right).is_zero

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            degree_2k1_statement(1, "fixed")


class TestThm4:
    def test_anchor_1_1(self):
        left, right = sides(IdentityId.THM4, {"k": 1, "m": 1})
        expected = rf((0, 0, 2), ONE_PLUS_Q)
        assert left == right == expected

    def test_anchor_formula_shape(self):
        # left = (1+q)(2 E_2 + 2 E_1^2) + 2 (q-1) E_1, per the hand expansion
        e1, e2 = euler_number(1), euler_number(2)
        by_hand = add(
            mul(rf(ONE_PLUS_Q), add(mul(e2, 2), mul(mul(e1, e1), 2))),
            mul(mul(rf((-1, 1)), e1), 2))
        assert sides(IdentityId.THM4, {"k": 1, "m": 1})[1] == by_hand

    def test_symbolic_grid(self):
        for k in range(1, 4):
            for m in range(1, 4):
                left, right = sides(IdentityId.THM4, {"k": k, "m": m})
                assert left == right

    def test_padic_witness_at_k5(self):
        ctx5 = ReferenceContext(3, Fraction(4), 5, 4)
        integrals = level_integrals(ctx5)
        for k in range(1, 4):
            for m in range(1, 4):
                exact = ctx5.embed(sides(IdentityId.THM4, {"k": k, "m": m})[0])
                shift = sides(IdentityId.EQ6, {"k": k, "m": m})[1]
                numeric = direct_moment(KIND_FERMIONIC, shift, ctx5, integrals)
                d = padic_distance(exact, numeric)
                assert d == inf or d >= 5


class TestThm5:
    def test_corrected_is_exact_identity(self):
        for k in range(1, 5):
            left, right = sides(IdentityId.THM5_CORRECTED, {"k": k})
            assert left == right

    def test_printed_differs_at_k1(self):
        left, right = sides(IdentityId.THM5_PRINTED, {"k": 1})
        assert not sub(left, right).is_zero

    def test_left_side_is_binomial_expansion_oracle(self):
        # the left side must equal (1+q) S1 - q S0 with
        # S_j = sum_l C(k,l) (-1)^(k-l) E_{k+l+j}
        from qeuler.qspecial import binom
        for k in (1, 2, 3):
            s0 = total(mul(euler_number(k + l), binom(k, l) * (-1) ** (k - l))
                       for l in range(k + 1))
            s1 = total(mul(euler_number(k + l + 1), binom(k, l) * (-1) ** (k - l))
                       for l in range(k + 1))
            oracle = sub(mul(RF_ONE_PLUS_Q, s1), mul(rf(Q), s0))
            assert sides(IdentityId.THM5_CORRECTED, {"k": k})[0] == oracle

    def test_padic_witness(self):
        ctx5 = ReferenceContext(3, Fraction(4), 5, 4)
        exact = ctx5.embed(sides(IdentityId.THM5_CORRECTED, {"k": 2})[0])
        rhs = sides(IdentityId.THM3_CORRECTED, {"k": 2})[1]
        numeric = direct_moment(KIND_FERMIONIC, rhs, ctx5,
                                level_integrals(ctx5))
        d = padic_distance(exact, numeric)
        assert d == inf or d >= 5

    def test_moment_table(self):
        # moment of E_1(x): 2 E_1 E_0
        assert fermionic_moment(1) == mul(euler_number(1), 2)

    def test_moment_is_the_convolution_of_the_number_table(self):
        # integer data over (1+q)^n against the independent R's sum of
        # C(n, l) E[n-l] E[l]
        for n in range(16):
            moment = fermionic_moment(n)
            assert all(type(c) is int for c in moment.num)
            assert moment == total(
                mul(mul(euler_number(n - l), euler_number(l)), comb(n, l))
                for l in range(n + 1))


class TestThm6:
    def test_holds_to_precision_and_two_routes(self, ctx):
        left, right = sides(IdentityId.THM6, {"k": 1, "m": 1}, ctx)
        assert padic_distance(left, right) >= ctx.target
        shift = sides(IdentityId.EQ6, {"k": 1, "m": 1})[1]
        direct = direct_moment(KIND_BOSONIC, shift, ctx, level_integrals(ctx))
        assert padic_distance(left, direct) >= ctx.target
        assert padic_distance(right, direct) >= ctx.target

    def test_folded_scale_keeps_digits_and_precision(self, ctx):
        # (1+q) is a p-adic unit, so summing embed((1+q) c) B_i gives the
        # digits and precision of embed(1+q) times the sum of embed(c) B_i
        for q in (Fraction(4), Fraction(1), Fraction(10), Fraction(-2)):
            numeric = ReferenceContext(3, q, 4, 4)
            for k in range(1, 4):
                for m in range(1, 4):
                    x_side = sides(IdentityId.THM6, {"k": k, "m": m},
                                   numeric)[0]
                    unfolded = numeric.apply(ring_terms(shift_terms(k, m)),
                                             numeric.bernoulli)
                    assert x_side == numeric.embed(1 + q) * unfolded

    def test_second_prime(self):
        ctx5 = ReferenceContext(5, Fraction(6), 4, 4)
        left, right = sides(IdentityId.THM6, {"k": 1, "m": 2}, ctx5)
        assert padic_distance(left, right) >= 4

    def test_degenerate_bernoulli_slice_is_exact_zero(self, delta_ctx):
        # replacing every numeric value by the 0-index slice collapses both
        # sides to the master identity evaluated at x = 0, which vanishes
        # for k >= 1
        for k, m in ((1, 1), (2, 1)):
            left, right = sides(IdentityId.THM6, {"k": k, "m": m}, delta_ctx)
            assert left.is_zero or left.valuation >= delta_ctx.target
            assert right.is_zero or right.valuation >= delta_ctx.target


class TestCor7:
    def test_corrected_holds_and_two_routes(self, ctx):
        integrals = level_integrals(ctx)
        for k in (1, 2):
            left, right = sides(IdentityId.COR7_CORRECTED, {"k": k}, ctx)
            assert padic_distance(left, right) >= ctx.target
            rhs = sides(IdentityId.THM3_CORRECTED, {"k": k})[1]
            direct = direct_moment(KIND_BOSONIC, rhs, ctx, integrals)
            assert padic_distance(left, direct) >= ctx.target

    def test_printed_differs(self, ctx):
        left, right = sides(IdentityId.COR7_PRINTED, {"k": 1}, ctx)
        assert padic_distance(left, right) < ctx.target

    def test_degenerate_bernoulli_slice(self, delta_ctx):
        left, right = sides(IdentityId.COR7_CORRECTED, {"k": 1}, delta_ctx)
        # with the delta slice, left = -q * sum_l C(k,l)(-1)^(k-l) [k+l == 0]
        # which vanishes for k >= 1; the right side reduces to exact E sums
        assert left.is_zero or left.valuation >= delta_ctx.target
        exact_right = sides(IdentityId.COR7_CORRECTED, {"k": 1}, delta_ctx)[1]
        assert exact_right == right


def view_sums(view, statement):
    """Both sides of a statement through an exact view, each summed."""
    return tuple(map(sum_products, view_pairs(view, statement)))


class TestViewComposition:
    """The fermionic view is x^i -> E[i] applied to each side of the poly
    view: the slower route, kept as the oracle for fermionic_moment."""

    def test_fermionic_view_is_moment_of_poly_view(self):
        statements = [eq6_statement(k, m) for k in range(5) for m in range(5)]
        statements += [eq6_statement(k, k) for k in range(1, 5)]
        statements += [degree_2k1_statement(k, variant) for k in range(1, 5)
                       for variant in ("printed", "corrected")]
        for statement in statements:
            e_side, x_side = view_sums("poly", statement)
            x_moment, e_moment = view_sums("fermionic", statement)
            assert x_moment == fermionic_image(x_side)
            assert e_moment == fermionic_image(e_side)


class TestCalculusIdentities:
    def test_eq7(self):
        for n in range(1, 13):
            left, right = sides(IdentityId.EQ7, {"n": n})
            assert left == right == x_derivative(euler_poly(n))

    def test_eq8(self):
        for n in range(13):
            left, right = sides(IdentityId.EQ8, {"n": n})
            assert left == right == euler_poly_integral01(n)


class TestVerifyDriver:
    def test_exact_verdict(self):
        r = verify(IdentityId.EQ6, {"k": 3, "m": 2})
        assert r.verdict == HOLDS
        assert r.certificate_str == "0"
        assert r.mode == "exact"

    def test_printed_verdict_is_fails_with_certificate(self):
        r = verify(IdentityId.THM3_PRINTED, {"k": 1})
        assert r.verdict == FAILS
        assert r.certificate_str != "0"

    def test_padic_verdict(self, ctx):
        r = verify(IdentityId.THM6, {"k": 1, "m": 1}, ctx)
        assert r.verdict == HOLDS_TO_PRECISION
        assert "padic(p=3" in r.mode

    def test_padic_requires_context(self):
        with pytest.raises(ValueError):
            verify(IdentityId.THM6, {"k": 1, "m": 1})

    def test_param_signature_enforced(self):
        with pytest.raises(ValueError):
            verify(IdentityId.EQ6, {"k": 1})
        with pytest.raises(ValueError):
            verify(IdentityId.THM1, {"k": 0, "m": 1})

    def test_grid_counts_and_order(self):
        results = verify_grid(IdentityId.EQ6, {"k": (0, 2), "m": (0, 2)})
        assert len(results) == 9
        assert all(r.verdict == HOLDS for r in results)
        keys = [r.sort_key() for r in results]
        assert keys == sorted(keys)

    def test_grid_deterministic(self, ctx):
        a = verify_grid(IdentityId.THM6, {"k": (1, 2), "m": (1, 2)}, ctx)
        b = verify_grid(IdentityId.THM6, {"k": (1, 2), "m": (1, 2)}, ctx)
        assert [r.as_report_item() for r in a] == [r.as_report_item() for r in b]

    def test_grid_range_validation(self):
        with pytest.raises(ValueError):
            verify_grid(IdentityId.THM1, {"k": (0, 2)})
        with pytest.raises(ValueError):
            verify_grid(IdentityId.EQ6, {"k": (3, 1)})

    def test_grid_rejects_a_parameter_the_identity_does_not_take(self):
        # refused, not dropped in favour of the 81-cell default grid
        with pytest.raises(ValueError, match="'n'"):
            grid_params(IdentityId.EQ6, {"n": (1, 2)})
        with pytest.raises(ValueError, match="'m'"):
            grid_params(IdentityId.EQ7, {"n": (1, 2), "m": (0, 1)})
        assert len(grid_params(IdentityId.EQ6)) == 81


class TestXPowerShift:
    def test_expansion(self):
        assert sum_products(images(ring_terms(shift_terms(1, 1)),
                                   XPolyQ.x_power)) == XPolyQ(
            [RF_ZERO, RatFuncQ.from_fraction(-1), RF_ONE])

    def test_matches_repeated_multiplication(self):
        factor = XPolyQ([RatFuncQ.from_fraction(-1), RF_ONE])
        brute = mul(mul(mul(XPolyQ.x_power(2), factor), factor), factor)
        assert sum_products(images(ring_terms(shift_terms(2, 3)),
                                   XPolyQ.x_power)) == brute


def table_route(identity, params):
    """The certificate of a cell computed from the tables alone: its two
    sides subtracted in the independent R."""
    left, right = sides(identity, params)
    return sub(left, right)


# the statements, every one decided by its x-certificate, on grids that
# contain the default battery's
DERIVED_GRIDS = {
    IdentityId.EQ6: {"k": (0, 12), "m": (0, 12)},
    IdentityId.EQ103: {"k": (1, 12)},
    IdentityId.THM3_PRINTED: {"k": (1, 8)},
    IdentityId.THM3_CORRECTED: {"k": (1, 8)},
    IdentityId.THM4: {"k": (1, 8), "m": (1, 8)},
    IdentityId.THM5_PRINTED: {"k": (1, 6)},
    IdentityId.THM5_CORRECTED: {"k": (1, 6)},
    IdentityId.THM1: {"k": (1, 10), "m": (1, 10)},
    IdentityId.THM1_COR: {"k": (1, 10)},
    IdentityId.THM2: {"k": (1, 12)},
}


def assert_table_route_agrees(r):
    """A statement cell, decided by its x-certificate, has the verdict and
    the certificate (value, string and type) of the table route."""
    cert = table_route(r.id, r.params)
    assert r.route == X_CERTIFICATE
    assert r.verdict == (HOLDS if cert.is_zero else FAILS)
    assert r.certificate == cert
    assert r.certificate_str == str(cert)
    assert type(r.certificate) is type(cert)


class TestXCertificateRoute:
    """The view of E(c) is the certificate the tables give."""

    @pytest.mark.parametrize("identity", list(DERIVED_GRIDS))
    def test_routes_agree(self, identity):
        for r in verify_grid(identity, DERIVED_GRIDS[identity]):
            assert_table_route_agrees(r)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 9), m=st.integers(0, 9))
    def test_zero_x_certificate_iff_table_route_holds(self, k, m):
        statements = [eq6_statement(k, m), eq6_statement(k, k)]
        statements += [degree_2k1_statement(k, variant)
                       for variant in ("printed", "corrected")]
        for statement in statements:
            c = x_polynomial(*x_certificate(statement))
            e_side, x_side = view_sums("poly", statement)
            assert c.is_zero == (e_side == x_side)
            # the poly view's certificate is E(c), the fermionic one minus
            # the fermionic moment of E(c)
            assert (sub(e_side, x_side)
                    == sum_products(images(monomials(c), euler_poly)))
            x_moment, e_moment = view_sums("fermionic", statement)
            assert (sub(x_moment, e_moment)
                    == -sum_products(images(monomials(c), fermionic_moment)))
        cells = [(IdentityId.EQ6, {"k": k, "m": m}),
                 (IdentityId.THM1_COR, {"k": k}), (IdentityId.THM2, {"k": k}),
                 (IdentityId.THM5_PRINTED, {"k": k})]
        if m:
            cells += [(IdentityId.THM1, {"k": k, "m": m}),
                      (IdentityId.THM4, {"k": k, "m": m})]
        for identity, params in cells:
            r = verify(identity, params)
            assert_table_route_agrees(r)
            assert (r.x_certificate is None) == (r.verdict == HOLDS)

    def test_wrong_printed_beta_fails_by_its_residual(self, monkeypatch):
        # a zero x-certificate with a nonzero beta residual fails, by q
        # times the beta error, as it does on the tables
        delta = Fraction(1, 7)
        printed = identities._beta
        monkeypatch.setattr(identities, "_beta",
                            lambda k, m: printed(k, m) + delta)
        r = verify(IdentityId.THM2, {"k": 2})
        assert (r.verdict, r.x_certificate) == (FAILS, None)
        assert_table_route_agrees(r)
        assert r.certificate == mul(rf(Q), -delta)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), view=st.sampled_from(["poly", "fermionic",
                                                 "integral"]))
    def test_random_statements_agree_with_the_tables(self, data, view):
        # an arbitrary statement, mostly false, stands in for a catalogue
        # entry; its view of E(c) is the certificate the tables give.  The
        # integral view's monomials have the form (1+q) c x^i it assumes.
        coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
        terms = data.draw(st.lists(st.tuples(
            coeffs.map(tuple), st.integers(0, 2), st.integers(0, 6)),
            min_size=1, max_size=4))
        if view == "integral":
            mono = [((c, c), 0, i) for c, i in data.draw(st.lists(st.tuples(
                st.integers(-3, 3), st.integers(0, 6)), min_size=1,
                max_size=3))]
        else:
            mono = data.draw(st.lists(st.tuples(
                coeffs.map(tuple), st.integers(0, 2), st.integers(0, 6)),
                min_size=1, max_size=3))
        beta = data.draw(st.builds(Fraction, st.integers(-9, 9),
                                   st.integers(1, 9)))
        moved = data.draw(st.integers(0, len(terms)))
        statement = terms, mono, taylor_shifted(mono)
        info = identities.IdentityInfo(lambda: statement, view, (), 0, {},
                                       lambda: beta, moved)
        saved = identities.REGISTRY[IdentityId.EQ103]
        identities.REGISTRY[IdentityId.EQ103] = info
        try:
            assert_table_route_agrees(verify(IdentityId.EQ103, {}))
        finally:
            identities.REGISTRY[IdentityId.EQ103] = saved

    def test_cells_that_hold_read_no_table_value(self, monkeypatch):
        # E(c) is summed over c's nonzero coefficients only, so a cell
        # whose x-certificate is zero asks for no table polynomial, moment
        # or unit integral; the printed THM3 cells show the spy sees calls
        calls = []

        def spy(name):
            table = getattr(identities, name)

            def counted(n):
                calls.append((name, n))
                return table(n)
            return counted

        for name in ("euler_poly", "fermionic_moment", "unit_integral"):
            monkeypatch.setattr(identities, name, spy(name))
        cells = [(IdentityId.EQ6, {"k": (0, 12), "m": (0, 12)}),
                 (IdentityId.THM1, None), (IdentityId.THM4, None),
                 (IdentityId.THM3_PRINTED, None)]
        held = 0
        for identity, ranges in cells:
            for params in grid_params(identity, ranges):
                calls.clear()
                r = verify(identity, params)
                if r.x_certificate is None:
                    assert calls == []
                    held += 1
                else:
                    assert identity is IdentityId.THM3_PRINTED and calls
        assert held == 169 + 64 + 36


# (p, q, K) of the bosonic reference grids: two primes besides 3, q a
# unit, a fraction, negative and 1, and K from 4 to 20
BOSONIC_CONFIGS = [(3, Fraction(4), 4), (7, Fraction(8), 10),
                   (5, Fraction(6), 5), (3, Fraction(4, 7), 6),
                   (3, Fraction(-2), 7), (5, Fraction(6), 12),
                   (3, Fraction(4), 20), (3, Fraction(1), 5),
                   (7, Fraction(1), 6)]
BOSONIC_GRIDS = [(IdentityId.COR7_PRINTED, {"k": (1, 16)}),
                 (IdentityId.COR7_CORRECTED, {"k": (1, 10)}),
                 (IdentityId.THM6, {"k": (1, 10), "m": (1, 10)})]


def padic_verdict(cert, target):
    """The verdict of a p-adic certificate, as verify states it."""
    if not cert.is_zero and cert.valuation < target:
        return FAILS
    return HOLDS_TO_PRECISION if cert.abs_precision >= target else ERROR


class TestBosonicXCertificate:
    """A bosonic cell is decided by its x-certificate c: minus the bosonic
    moments of E(c), one exact pair (A, B) with the certificate
    A + B/log_p q, known modulo p^K; (0, 0), the zero known modulo p^K,
    when c is zero.  Both sides summed p-adically on their own, from the
    tables, by the ReferenceContext, and subtracted are the reference."""

    @pytest.mark.parametrize("identity, ranges", BOSONIC_GRIDS,
                             ids=[str(i) for i, _ in BOSONIC_GRIDS])
    @pytest.mark.parametrize("p, q, K", BOSONIC_CONFIGS)
    def test_verdicts_and_strings_match_the_sides(self, p, q, K, identity,
                                                  ranges):
        reference = ReferenceContext(p, q, K)
        printed = identity is IdentityId.COR7_PRINTED
        for r in verify_grid(identity, ranges, NumericContext(p, q, K)):
            left, right = sides(identity, r.params, reference)
            cert = left - right
            assert r.route == X_CERTIFICATE
            assert (r.verdict, r.certificate_str) == (
                padic_verdict(cert, K), str(cert))
            assert (r.x_certificate is not None) == printed

    def test_zero_certificates_read_no_bernoulli_number(self, monkeypatch,
                                                        tmp_path):
        # THM6 and COR7_CORRECTED have c = 0 on every cell, so they ask for
        # no moment pair; the battery asks only for the pairs of the powers
        # of x in its COR7_PRINTED x-certificates, each once
        computed = counted_moment_pairs(monkeypatch)
        ctx = NumericContext(7, Fraction(8), 10)
        for identity in (IdentityId.THM6, IdentityId.COR7_CORRECTED):
            ranges = {name: (1, 8) for name in identities.REGISTRY[
                identity].params}
            results = verify_grid(identity, ranges, ctx)
            assert {r.verdict for r in results} == {HOLDS_TO_PRECISION}
            assert {r.bosonic_pair for r in results} == {None}
        assert computed == []
        assert cli_main(["report", "--out", str(tmp_path / "r.json")]) == 0
        needed = set()
        for k in range(1, 4):
            statement = degree_2k1_statement(k, "printed")
            c = x_polynomial(*x_certificate(statement))
            needed |= {i for _, i in monomials(c)}
        assert sorted(computed) == sorted(needed) == [1, 3, 5, 7]

    @pytest.mark.parametrize("q", [Fraction(4), Fraction(8), Fraction(4, 7),
                                   Fraction(-2), Fraction(1)])
    def test_moment_pairs_are_the_convolution(self, q):
        # the bosonic moment of E_n(x) is 2^n times B_n at q^2
        for n in range(31):
            assert identities._moment_pair(n, q) == convolved_moment_pair(n, q)

    @pytest.mark.parametrize("p, q, K", BOSONIC_CONFIGS)
    def test_printed_pairs_vanish_only_at_q_one(self, p, q, K):
        # off q = 1 no COR7_PRINTED pair to k = 16 is (0, 0); at q = 1 every
        # B is 0, and A is 0 from k = 2 on (k = 1 is the one cell that
        # fails there)
        results = verify_grid(IdentityId.COR7_PRINTED, {"k": (1, 16)},
                              NumericContext(p, q, K))
        pairs = {r.params["k"]: r.bosonic_pair for r in results}
        if q != 1:
            assert (0, 0) not in pairs.values()
        else:
            assert pairs.pop(1)[0] != 0
            assert all(b == 0 for _, b in pairs.values())
            assert set(pairs.values()) == {(0, 0)}
        for r in results:
            assert str(_at_precision(*r.bosonic_pair, p, q, K)) == (
                r.certificate_str)


class TestOneSumCertificate:
    """The table route, which decides the calculus rules alone, sums a
    cell's left images and its negated right images at once; the two sides
    summed on their own and subtracted in the independent R are the
    reference."""

    @staticmethod
    def assert_one_sum(identity, params):
        left, right = sides(identity, params)
        cert = table_certificate(identity, params)
        reference = sub(left, right)
        assert cert == reference
        assert str(cert) == str(reference)
        return cert

    def test_calculus_rules_to_30(self):
        for identity, low in ((IdentityId.EQ7, 1), (IdentityId.EQ8, 0)):
            for r in verify_grid(identity, {"n": (low, 30)}):
                assert (r.route, r.verdict) == (TABLES, HOLDS)
                assert r.certificate_str == str(self.assert_one_sum(
                    identity, r.params)) == "0"

    def test_calculus_rules_on_a_corrupt_table(self, corrupt_table):
        # the derivative rule holds for any number table; the integral rule
        # rests on the table's recurrence, so it fails once E[2] is wrong
        verdicts = {}
        for identity, low in ((IdentityId.EQ7, 1), (IdentityId.EQ8, 0)):
            for r in verify_grid(identity, {"n": (low, 8)}):
                cert = self.assert_one_sum(identity, r.params)
                assert r.certificate_str == str(cert)
                assert r.verdict == (HOLDS if cert.is_zero else FAILS)
                verdicts[identity, r.params["n"]] = r.verdict
        assert all(verdicts[IdentityId.EQ7, n] == HOLDS for n in range(1, 9))
        assert verdicts[IdentityId.EQ8, 0] == HOLDS
        assert all(verdicts[IdentityId.EQ8, n] == FAILS for n in range(1, 9))


# the deep COR7_PRINTED grid, every cell of which has a nonzero
# x-certificate and so reads q-Bernoulli numbers, and its canonical_sha256
DEEP_COR7 = "verify COR7_PRINTED --k 1..6 --p 7 --K 10"
DEEP_COR7_SHA256 = ("51f4369e39be4080659db6428051e40f"
                    "6bd1e81815c0221061121d0f5ddf3a6e")


def run_deep_cor7(tmp_path) -> str:
    out = tmp_path / "cor7.json"
    assert cli_main([*DEEP_COR7.split(), "--format", "json",
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())["canonical_sha256"]


class TestBosonicMomentMemo:
    def test_each_moment_is_computed_once(self, monkeypatch, tmp_path):
        # the deep grid asks for 17 moments of 7 distinct E_n(x), n odd, as
        # the printed x-certificates have odd powers of x only; each pair is
        # computed once
        computed = counted_moment_pairs(monkeypatch)
        assert run_deep_cor7(tmp_path) == DEEP_COR7_SHA256
        assert computed == list(range(1, 14, 2))


class TestPrimeChecks:
    def test_arithmetic_results_reuse_a_checked_p(self, monkeypatch,
                                                  tmp_path):
        # p is tested where it comes in: once by the CLI, once where the
        # NumericContext is built, and once per cell (6), whose one exact
        # pair is embedded through PadicApprox.from_rational or zero; the
        # results of p-adic arithmetic take their operand's p unchecked
        checked = []
        is_odd_prime = padic.is_odd_prime

        def counting(p):
            checked.append(p)
            return is_odd_prime(p)

        monkeypatch.setattr(padic, "is_odd_prime", counting)
        assert run_deep_cor7(tmp_path) == DEEP_COR7_SHA256
        assert checked == [7] * (1 + 1 + 6)


@pytest.fixture
def corrupt_table(request, monkeypatch):
    """The number table with one coefficient of N_i changed, i = 2 unless a
    test passes another index (indirect parametrization), and the caches
    built from the rows cleared so that they refill from it; all restored
    afterwards."""
    i = getattr(request, "param", 2)
    numerators = [zpoly.euler_numerator(n) for n in range(30)]
    numerators[i] = (numerators[i][0] + 1, *numerators[i][1:])
    monkeypatch.setattr(zpoly, "_numerators", numerators)
    memos = (qspecial.euler_number, qspecial.euler_poly, fermionic_moment,
             _functional_equation_row, identities._moment_pair)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class TestLicense:
    """A statement is decided by its x-certificate only on tables that
    satisfy the functional equation q E_n(x+1) + E_n(x) = (1+q) x^n; a
    degree the license refuses is an error row."""

    def test_integer_recurrence_holds_to_60(self):
        assert table_licensed(60)

    def test_corrupt_table_refuses_the_route(self, corrupt_table, tmp_path):
        assert table_licensed(1)
        assert not table_licensed(2)
        out = tmp_path / "thm4.json"
        code = cli_main(["verify", "THM4", "--k", "1..3", "--m", "1..3",
                         "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert code == 1
        assert doc["timing"]["routes"] == {}
        assert len(doc["items"]) == 9
        for item in doc["items"]:
            degree = item["params"]["k"] + item["params"]["m"]
            assert item["verdict"] == ERROR
            assert item["certificate"] == (
                "TableError: the tables fail the functional equation up to "
                f"degree {degree}")

    def test_eq6_holds_only_within_the_license(self, corrupt_table, tmp_path):
        out = tmp_path / "eq6.json"
        code = cli_main(["verify", "EQ6", "--k", "0..3", "--m", "0..3",
                         "--format", "json", "--out", str(out)])
        items = json.loads(out.read_text())["items"]
        assert code == 1
        assert len(items) == 16
        for item in items:
            licensed = item["params"]["k"] + item["params"]["m"] <= 1
            assert item["verdict"] == (HOLDS if licensed else ERROR)

    @pytest.mark.parametrize("corrupt_table", [3], indirect=True)
    def test_integral_view_needs_one_degree_more(self, corrupt_table):
        # the integral of E_2(x) is E[3]/3, so THM1 (1, 1) and THM2 (k=1),
        # of degree 2, rest on the table at degree 3; EQ103 (k=1) does not
        assert table_licensed(2)
        assert not table_licensed(3)
        for identity, params in ((IdentityId.THM1, {"k": 1, "m": 1}),
                                 (IdentityId.THM2, {"k": 1})):
            [r] = verify_grid(identity, {p: (1, 1) for p in params})
            assert r.verdict == ERROR
            assert r.certificate_str.endswith("up to degree 3")
        r = verify(IdentityId.EQ103, {"k": 1})
        assert (r.verdict, r.route) == (HOLDS, X_CERTIFICATE)


    @pytest.mark.parametrize("corrupt_table", [4], indirect=True)
    def test_bosonic_cells_past_the_license_are_errors(self, corrupt_table,
                                                       tmp_path):
        # with N_4 wrong the tables are licensed to degree 3: THM6 cells of
        # k + m <= 3 and the degree-3 COR7 cells keep their verdicts, and
        # every other cell is a padic-mode TableError row, whatever the
        # p-adic sums of the corrupt tables would give
        assert table_licensed(3) and not table_licensed(4)
        licensed = {("THM6", 1, 1): HOLDS_TO_PRECISION,
                    ("THM6", 1, 2): HOLDS_TO_PRECISION,
                    ("THM6", 2, 1): HOLDS_TO_PRECISION,
                    ("COR7_PRINTED", 1): FAILS,
                    ("COR7_CORRECTED", 1): HOLDS_TO_PRECISION}
        for argv in (["THM6", "--k", "1..3", "--m", "1..3"],
                     ["COR7_PRINTED", "--k", "1..3"],
                     ["COR7_CORRECTED", "--k", "1..3"]):
            out = tmp_path / f"{argv[0]}.json"
            code = cli_main(["verify", *argv, "--format", "json",
                             "--out", str(out)])
            assert code == (0 if argv[0] == "COR7_PRINTED" else 1)
            for item in json.loads(out.read_text())["items"]:
                params = item["params"]
                cell = (item["id"], *params.values())
                degree = (params["k"] + params["m"] if "m" in params
                          else 2 * params["k"] + 1)
                assert item["mode"] == "padic(p=3,q=4,K=4)"
                if degree <= 3:
                    assert item["verdict"] == licensed.pop(cell)
                else:
                    assert item["verdict"] == ERROR
                    assert item["certificate"] == (
                        "TableError: the tables fail the functional "
                        f"equation up to degree {degree}")
        assert licensed == {}


# (p, q, K) of the closed-form checks, q = 1 aside
CLOSED_FORM_CONFIGS = [(3, Fraction(4), 4), (3, Fraction(4, 7), 6),
                       (5, Fraction(6), 5), (3, Fraction(-2), 7),
                       (7, Fraction(8), 10)]


class TestClosedFormBernoulli:
    """q_bernoulli takes B_n from its closed form in the q-Euler numbers at
    -q, and the classical B_n at q = 1; the ReferenceContext memoizes it.
    The Riemann-sum limits of qintegral, the tests' closed form (its own
    log_p) and the classical recurrence are the references."""

    @pytest.mark.parametrize("p, q, K", CLOSED_FORM_CONFIGS + [
        (3, Fraction(1), 5), (5, Fraction(1), 6), (7, Fraction(1), 10)])
    def test_agrees_with_the_level_route_and_the_oracle(self, p, q, K):
        ctx = ReferenceContext(p, q, K)
        integrals = MonomialIntegrals(p, q, K, max_level=40)
        for n in range(11):
            b = ctx.bernoulli(n)
            assert b.abs_precision == K
            # the level value is truncated to the K digits it achieved
            assert b == integrals(KIND_BOSONIC, n).value
            if q == 1:
                exact = classical_bernoulli_number(n)
            else:
                exact = bosonic_closed_form(n, 0, p, q, K)
            assert valuation(padic_rational(b) - exact, p) >= K
            assert ctx.bernoulli(n) is b        # memoized by n

    def test_classical_values_at_q_one(self):
        ctx = ReferenceContext(5, Fraction(1), 3)
        assert classical_bernoulli_number(1) == Fraction(-1, 2)
        assert ctx.bernoulli(1) == PadicApprox.from_rational(
            Fraction(-1, 2), 5, 3)
        # B_3 = 0 and v_5(B_4) = v_5(-1/30) = -1
        assert ctx.bernoulli(3) == PadicApprox.zero(5, 3)
        assert ctx.bernoulli(4) == PadicApprox.from_rational(
            Fraction(-1, 30), 5, 4)

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), v=st.integers(1, 2),
           a=st.integers(-30, 30).filter(bool), b=st.integers(1, 30),
           K=st.integers(1, 12), n=st.integers(0, 9))
    def test_every_digit_it_claims_is_right(self, p, v, a, b, K, n):
        # the oracle taken to five digits more than K is the reference for
        # the K digits that the truncation bound of log_p promises
        if a % p == 0 or b % p == 0:
            return
        q = 1 + Fraction(p ** v * a, b)
        got = q_bernoulli(n, p, q, K)
        assert got.abs_precision == K
        exact = bosonic_closed_form(n, 0, p, q, K + 5)
        assert valuation(padic_rational(got) - exact, p) >= K

    @settings(max_examples=80, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), v=st.integers(1, 2),
           s=st.integers(-30, 30).filter(bool), t=st.integers(1, 30),
           a=st.fractions(max_denominator=50), b=st.fractions(
               max_denominator=50).filter(bool), e=st.integers(-4, 4),
           K=st.integers(1, 12))
    def test_a_pair_keeps_every_digit_whatever_b(self, p, v, s, t, a, b, e,
                                                 K):
        # a + b/log_p q with b of any valuation, negative too, against the
        # oracle's log taken five digits past what the division needs
        if s % p == 0 or t % p == 0:
            return
        q, b = 1 + Fraction(p ** v * s, t), b * Fraction(p) ** e
        got = _at_precision(a, b, p, q, K)
        assert got.abs_precision == K
        digits = max(K + 2 * v - valuation(b, p), v + 1) + 5
        exact = a + b / padic_log(q, p, digits)
        assert valuation(padic_rational(got) - exact, p) >= K


def trimmed(cols: list) -> list:
    """The columns of an x-certificate without its trailing zero ones."""
    cols = list(cols)
    while cols and not any(cols[-1]):
        cols.pop()
    return cols


def assert_one_pass(statement):
    cols, b = x_certificate(statement)
    reference, b_ref = three_pass_x_certificate(statement)
    assert (trimmed(cols), b) == (trimmed(reference), b_ref)
    return cols, b


class TestShiftedSide:
    """Each statement builder gives its monomial side at x + 1 in closed
    form; the Taylor shift of the side's integer columns
    (``oracles.taylor_shifted``) is the reference."""

    @staticmethod
    def assert_shifted(statement):
        _, mono, shifted = statement
        width = 1 + _degree(statement)
        top = max(b for _, b, _ in mono + shifted)
        assert (trimmed(_columns(shifted, top, width))
                == trimmed(_columns(taylor_shifted(mono), top, width)))

    def test_eq6_to_40(self):
        for k in range(41):
            for m in range(41):
                self.assert_shifted(eq6_statement(k, m))

    def test_degree_2k1_readings_to_20(self):
        for k in range(1, 21):
            for variant in ("printed", "corrected"):
                self.assert_shifted(degree_2k1_statement(k, variant))


class TestOnePassXCertificate:
    """x_certificate forms (1+q) T(x) - q M(x+1) - M(x) in one pass over
    the integer columns, with M(x+1) as the statement gives it; the
    three-pass route of the oracles, which shifts M itself, is the
    reference."""

    def test_eq6_to_40(self):
        for k in range(41):
            for m in range(41):
                cols, _ = assert_one_pass(eq6_statement(k, m))
                assert not any(map(any, cols))

    def test_degree_2k1_readings_to_20(self):
        nonzero = set()
        for k in range(1, 21):
            for variant in ("printed", "corrected"):
                cols, _ = assert_one_pass(degree_2k1_statement(k, variant))
                if any(map(any, cols)):
                    nonzero.add(variant)
        assert nonzero == {"printed"}

    def test_corrupted_statement(self):
        terms, mono, shifted = eq6_statement(3, 4)
        (c, b, n), *rest = terms
        cols, b = assert_one_pass(([((c[0] + 1, *c[1:]), b, n), *rest], mono,
                                   shifted))
        assert any(map(any, cols))
        assert not x_polynomial(cols, b).is_zero

    def test_corrupted_shifted_side(self):
        # the certificate reads M(x+1) from the statement: a wrong shifted
        # side gives a nonzero certificate where the three-pass route,
        # which shifts M itself, gives zero
        terms, mono, shifted = eq6_statement(3, 4)
        (c, b, n), *rest = shifted
        statement = terms, mono, [((c[0] + 1, *c[1:]), b, n), *rest]
        cols, b = x_certificate(statement)
        assert not x_polynomial(cols, b).is_zero
        assert not any(map(any, three_pass_x_certificate(statement)[0]))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_statements(self, data):
        term = st.tuples(st.lists(st.integers(-3, 3), min_size=1,
                                  max_size=3).map(tuple),
                         st.integers(0, 2), st.integers(0, 7))
        mono = data.draw(st.lists(term, min_size=1, max_size=4))
        assert_one_pass((data.draw(st.lists(term, min_size=1, max_size=5)),
                         mono, taylor_shifted(mono)))

    def test_a_zero_certificate_builds_no_value_of_r(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a value of R was built")

        monkeypatch.setattr(RatFuncQ, "over_bracket", refused)
        c = x_polynomial(*x_certificate(eq6_statement(6, 7)))
        assert c.is_zero and c == XPolyQ()
