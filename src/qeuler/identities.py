"""Registry of the checkable identities relating the weight-0 q-Euler and
q-Bernoulli families, each decided to a verdict with a difference
certificate left - right.

Every catalogued statement comes from the master identity and is data: a
*statement* (terms, monomials) means

    sum c * E_n(x) over terms  =  sum c' * x^i over monomials.

Its coefficients are integer data, c(q)/(1+q)^b for an integer polynomial
c.  There are two: the master identity EQ6 at (k, m), whose factor (1+q)
sits in its monomial coefficients, and the degree-(2k+1) statement in its
printed or corrected reading.  EQ103 and THM2 read EQ6 at (k, k), whose
terms are the paper's even/odd regrouping, and THM1_COR reads it at
(k, k+1).  A theorem is a statement seen through one of four *views*,
linear maps applied to both sides:

- ``"poly"``: E_n(x) -> E_n(x) and x^i -> x^i (E-side first);
- ``"fermionic"``: E_n(x) -> its fermionic moment and x^i -> E[i]
  (monomial side first);
- ``"bosonic"``: E_n(x) -> its bosonic moment and x^i -> B_i, p-adically
  (monomial side first);
- ``"integral"``: U = -(q/(1+q)) int_0^1, E_n(x) -> E[n+1]/(n+1)
  (E-side first), with the printed closed form on the right: q times the
  beta integral beta(k, m) = -int_0^1 x^k (x-1)^m dx at the statement's
  (k, m), less U of the leading terms the theorem moves there.

Only the calculus rules (EQ7, EQ8) have no view: their registry entries
build the (coefficient, image) pairs of both sides themselves, with the
derivative and the unit-interval integral of x^i as images, and their
certificate is one term-list sum of such pairs.

Exact identities are decided in the ring R = Q[q, 1/q, 1/(1+q)]
(certificate identically zero or not); identities involving q-Bernoulli
numbers are decided here to finite p-adic precision, because B_n involves
log_p q: its closed form in the q-Euler numbers at -q is a + b/log_p q,
a and b exact at q, and so is every bosonic certificate, known modulo
p^K to a precision proven in ``_at_precision``; no Riemann sum is run.

Every statement is decided by its *x-certificate*.  With E the linear
map x^n -> E_n(x), a statement E(t) = h has x-certificate
c = t - E^-1(h), where E^-1(h) = (q h(x+1) + h(x))/(1+q), computed over
the integers with no table value.  While the tables satisfy the
functional equation q E_n(x+1) + E_n(x) = (1+q) x^n up to the
statement's degree (one more in the integral view), each view's
certificate left - right is one sum over c's nonzero coefficients: E(c)
in the poly view, minus the fermionic moments of E(c) in the fermionic
view, minus the bosonic moments of E(c) (to K digits) in the bosonic
view, and U(E(c)) + q * (U(h)/q - beta) in the integral view.
So an exact cell that holds reads no table value, and a bosonic cell
with c = 0 reads no q-Bernoulli number either: it is the zero known
modulo p^K.  That *license* is checked on the integer numerators once
per degree and process; a degree it refuses raises ``TableError``, an
error row of the grid.  Only the calculus rules are decided on the
tables (``table_certificate``).

Several catalogued statements exist in two encodings: a ``_PRINTED``
variant transcribing the typeset source, including its suspect summation
bounds and subscripts, and a ``_CORRECTED`` variant re-derived from the
earlier identities in the chain.  Both are evaluated; the difference
certificates document which reading is an identity, without guessing
intent.  Printed-variant failures are informational and never fail a run.
"""

from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, product
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

from .exactarith import RF_Q, RatFuncQ, XPolyQ, sum_products
from .padic import PadicApprox, Record, check_config, log_p, rational_valuation
from .qspecial import TWO_Q_RECIP, binom, euler_number, euler_poly
from .report import ERROR, FAILS, HOLDS, HOLDS_TO_PRECISION
from .zpoly import euler_number_at, euler_numerator

Terms = List[Tuple[object, int]]
# (coeffs, b, n): coeffs(q) / (1+q)^b times E_n(x), or times x^n, with
# coeffs ascending integers
ZTerms = List[Tuple[Tuple[int, ...], int, int]]
# (terms, monomials): sum c E_n(x) = sum c' x^i
Statement = Tuple[ZTerms, ZTerms]

# the two ways verify decides a cell, as the report's timing counts them
X_CERTIFICATE = "x-certificate"
TABLES = "tables"


class IdentityId(str, Enum):
    EQ6 = "EQ6"
    THM1 = "THM1"
    THM1_COR = "THM1_COR"
    EQ103 = "EQ103"
    THM2 = "THM2"
    THM3_PRINTED = "THM3_PRINTED"
    THM3_CORRECTED = "THM3_CORRECTED"
    THM4 = "THM4"
    THM5_PRINTED = "THM5_PRINTED"
    THM5_CORRECTED = "THM5_CORRECTED"
    THM6 = "THM6"
    COR7_PRINTED = "COR7_PRINTED"
    COR7_CORRECTED = "COR7_CORRECTED"
    EQ7 = "EQ7"
    EQ8 = "EQ8"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# term lists


def eq6_terms(k: int, m: int) -> ZTerms:
    """The master identity's bracket sum:
    sum_j (q C(k, j) + (-1)^j C(m, j)) E_{k+m-j}(x)."""
    terms = []
    for j in range(max(k, m) + 1):
        c = ((-1) ** j * binom(m, j), binom(k, j))
        if any(c):
            terms.append((c, 0, k + m - j))
    return terms


# Readings of the degree-(2k+1) statement: the last index of its second sum
# and the subscript offset in its bracket E_{2k-2j} + E_{2k-2j+offset}/(1+q).
# The printed reading keeps the typeset floor(k/2) and 2k - 2j + 1; the
# corrected reading runs the second sum over every nonzero binomial and uses
# 2k - 2j - 1, which is what the master identity at (k, k+1) plus the
# master identity at (k, k) divided by (1+q) actually produces.
_READINGS = {
    "printed": (lambda k: k // 2, 1),
    "corrected": (lambda k: (k + 1) // 2, -1),
}


def degree_2k1_terms(k: int, variant: str) -> ZTerms:
    """Left side of the degree-(2k+1) identity, printed or corrected."""
    if variant not in _READINGS:
        raise ValueError(f"variant must be 'printed' or 'corrected', got {variant!r}")
    last, offset = _READINGS[variant]
    terms = [((binom(k, 2 * j),) * 2, 0, 2 * k + 1 - 2 * j)
             for j in range(k // 2 + 1)]
    terms += [((binom(k, 2 * j - 1),), 0, 2 * k + 1 - 2 * j)
              for j in range(1, last(k) + 1)]
    for j in range((k - 1) // 2 + 1):
        c = binom(k, 2 * j + 1)
        terms += [((-c, c), 0, 2 * k - 2 * j), ((-c, c), 1, 2 * k - 2 * j + offset)]
    return terms


def shift_terms(k: int, m: int) -> ZTerms:
    """x^k (x - 1)^m as monomial terms."""
    return [((binom(m, l) * (-1) ** (m - l),), 0, k + l) for l in range(m + 1)]


def degree_2k1_rhs(k: int) -> ZTerms:
    """x^k (x-1)^k ((1+q) x - q) as monomial terms, one pair per term of
    x^k (x-1)^k, as the bosonic statement is printed."""
    terms = []
    for (c,), _, i in shift_terms(k, k):
        terms += [((c, c), 0, i + 1), ((0, -c), 0, i)]
    return terms


def monomials(poly: XPolyQ) -> Terms:
    """The nonzero monomial terms of a polynomial in x."""
    return [(c, i) for i, c in enumerate(poly.coeffs) if not c.is_zero]


# ---------------------------------------------------------------------------
# statements


def eq6_statement(k: int, m: int) -> Statement:
    """The master identity at (k, m): the bracket sum equals
    (1+q) x^k (x-1)^m."""
    return eq6_terms(k, m), [((c, c), 0, i) for (c,), _, i in shift_terms(k, m)]


def degree_2k1_statement(k: int, variant: str) -> Statement:
    """The degree-(2k+1) identity, printed or corrected reading."""
    return degree_2k1_terms(k, variant), degree_2k1_rhs(k)


# ---------------------------------------------------------------------------
# linear maps (exact)


def images(terms: Terms, image: Callable) -> list:
    """The (coefficient, image(n)) pairs of a term list."""
    return [(c, image(n)) for c, n in terms]


def unit_integral(n: int) -> RatFuncQ:
    """E[n+1]/(n+1), the unit-interval integral of E_n(x) divided by
    -(1+q)/q."""
    return sum_products([(Fraction(1, n + 1), euler_number(n + 1))])


@cache
def fermionic_moment(n: int) -> RatFuncQ:
    """Exact fermionic moment of E_n(x), sum_l C(n,l) E_{n-l} E_l: the
    integer convolution sum_l C(n,l) N_{n-l} N_l over (1+q)^n."""
    acc = [0] * (n + 1)
    for l in range(n + 1):
        c = binom(n, l)
        for i, a in enumerate(euler_numerator(n - l)):
            for j, b in enumerate(euler_numerator(l), i):
                acc[j] += c * a * b
    return RatFuncQ.over_bracket(acc, n)


# ---------------------------------------------------------------------------
# p-adic context


def _bernoulli_pair(n: int, q: Fraction) -> Tuple[Fraction, Fraction]:
    """(a, b), exact rationals, with the weight-0 q-Bernoulli number B_n,
    the bosonic integral of xi^n, equal to a + b/log_p q.

    For q != 1, B_n = E[n](-q) + n E[n-1](-q) / log_p q.  The level-N sums
    of the bosonic integral have the generating function
    (1 - q^M e^(M t)) (1 - q)/((1 - q e^t)(1 - q^M)) at M = p^N, which
    tends to (1 - q)/(1 - q e^t) (1 + t/log_p q), and (1 + q)/(1 + q e^t)
    generates E[n], so (1 - q)/(1 - q e^t) generates E[n](-q) (T. Kim,
    "q-Volkenborn integration", Russ. J. Math. Phys. 9 (2002) 288-299).

    At q = 1 the measure is Volkenborn's and B_n is the classical
    Bernoulli number (B_1 = -1/2), so b = 0: 2/(e^t + 1) generates E[n] at
    q = 1, and t/(e^t + 1) = t/(e^t - 1) - 2t/(e^(2t) - 1), so
    B_n = -n E[n-1](1) / (2 (2^n - 1)) for n >= 1.
    """
    if n == 0:
        return Fraction(1), Fraction(0)
    if q == 1:
        return -n * euler_number_at(n - 1, q) / (2 * (2 ** n - 1)), Fraction(0)
    return euler_number_at(n, -q), n * euler_number_at(n - 1, -q)


def _at_precision(a: Fraction, b: Fraction, p: int, q: Fraction,
                  precision: int) -> PadicApprox:
    """a + b/log_p q, for rationals a and b (b = 0 when q = 1), known
    modulo p^precision: the zero known to precision digits when its
    valuation is at least precision.

    Proof of the bound, for any rational b != 0.  With v = v_p(q - 1) >= 1,
    L = log_p q and l = ``padic.log_p(q, p, D)``, v_p(L - l) >= D, and
    v_p(L) = v.  For D > v, l and L then agree below p^(v+1), so
    v_p(l) = v and l != 0.  The rational r = a + b/l is off by
    b/l - b/L = b (L - l)/(l L), of valuation at least v_p(b) + D - 2 v.
    So D = max(precision + 2 v - v_p(b), v + 1) gives
    v_p(a + b/L - r) >= precision, whatever the sign of v_p(b), and r,
    embedded with every digit below p^precision, is a + b/L modulo
    p^precision.  With b = 0 no log is taken and r = a is exact.
    """
    value = Fraction(a)
    if b:
        v = rational_valuation(q - 1, p)
        digits = max(precision + 2 * v - rational_valuation(b, p), v + 1)
        value += b / log_p(q, p, digits)
    v = rational_valuation(value, p) if value else precision
    if v >= precision:
        return PadicApprox.zero(p, precision)
    return PadicApprox.from_rational(value, p, precision - v)


def q_bernoulli(n: int, p: int, q: Fraction, precision: int) -> PadicApprox:
    """The weight-0 q-Bernoulli number B_n known modulo p^precision, from
    its closed form in the q-Euler numbers (``_bernoulli_pair``)."""
    return _at_precision(*_bernoulli_pair(n, q), p, q, precision)


@cache
def _moment_pair(n: int, q: Fraction) -> Tuple[Fraction, Fraction]:
    """(A, B) with the bosonic moment of E_n(x) at q, sum_l C(n,l) E[n-l] B_l,
    equal to A + B/log_p q; memoized by (n, q).

    The moment is 2^n times B_n at q^2.  Its generating function is that
    of E[n], (1 + q)/(1 + q e^t), times that of B_n (``_bernoulli_pair``),
    and (1 + q)(1 - q)/((1 + q e^t)(1 - q e^t)) = (1 - q^2)/(1 - q^2 e^(2t))
    with t/log_p q = 2t/log_p q^2; at q = 1, 2/(e^t + 1) t/(e^t - 1) =
    2t/(e^(2t) - 1).  So (A, B) = (2^n a, 2^(n-1) b), with (a, b) the pair
    of B_n at q^2.
    """
    a, b = _bernoulli_pair(n, q * q)
    return 2 ** n * a, 2 ** n * b / 2


class NumericContext:
    """The p-adic configuration (p, q, K) of the bosonic view, checked by
    ``padic.check_config`` when the context is built."""

    __slots__ = ("p", "q", "target")

    def __init__(self, p, q, target):
        self.p, self.q, self.target = check_config(p, q, target)[:3]


# ---------------------------------------------------------------------------
# printed beta terms and calculus rules


def _beta(k: int, m: int) -> Fraction:
    """The printed beta term of the integrated statements, over q:
    -int_0^1 x^k (x-1)^m dx = (-1)^(m+1) k! m! / (k+m+1)!."""
    return Fraction((-1) ** (m + 1), (k + m + 1) * binom(k + m, k))


def _x_derivative(i: int) -> XPolyQ:
    """d/dx x^i = i x^(i-1), zero at i = 0."""
    return XPolyQ([0] * (i - 1) + [i])


def _unit_interval(i: int) -> RatFuncQ:
    """int_0^1 x^i dx."""
    return RatFuncQ.from_fraction(Fraction(1, i + 1))


def eq7_pairs(n: int) -> Tuple[list, list]:
    """Derivative rule: d/dx E_n(x) = n E_{n-1}(x), as the (coefficient,
    image) pairs of both sides."""
    return (images(monomials(euler_poly(n)), _x_derivative),
            [(n, euler_poly(n - 1))])


def eq8_pairs(n: int) -> Tuple[list, list]:
    """Unit-interval integral of E_n(x), as (coefficient, image) pairs:
    the termwise integral on the left, the closed form -((1+q)/q) U(E_n)
    on the right."""
    return (images(monomials(euler_poly(n)), _unit_interval),
            [(-TWO_Q_RECIP, unit_integral(n))])


# ---------------------------------------------------------------------------
# registry and verification driver


def _no_beta(**params) -> int:
    return 0


class IdentityInfo(Record):
    """A catalogue entry.  ``build(**params)`` gives a statement, seen
    through ``view`` ("poly", "fermionic", "bosonic" or "integral"), or,
    with view None, the (coefficient, image) pairs of both sides.  Every
    parameter is at least ``minimum``.  The integral view's printed right
    side is q * ``beta(**params)`` less U of the ``moved`` leading
    terms."""

    __slots__ = ("build", "view", "params", "minimum", "default_range",
                 "beta", "moved")

    def __init__(self, build: Callable, view: Optional[str],
                 params: Tuple[str, ...], minimum: int,
                 default_range: Dict[str, Tuple[int, int]],
                 beta: Callable = _no_beta, moved: int = 0):
        self._set(build, view, params, minimum, default_range, beta, moved)

    @property
    def mode(self) -> str:
        return "padic" if self.view == "bosonic" else "exact"


_PRINTED = partial(degree_2k1_statement, variant="printed")
_CORRECTED = partial(degree_2k1_statement, variant="corrected")

REGISTRY: Dict[IdentityId, IdentityInfo] = {
    IdentityId.EQ6: IdentityInfo(
        eq6_statement, "poly", ("k", "m"), 0, {"k": (0, 8), "m": (0, 8)}),
    # _beta is looked up by name when a cell is built
    IdentityId.THM1: IdentityInfo(
        eq6_statement, "integral", ("k", "m"), 1, {"k": (1, 8), "m": (1, 8)},
        lambda k, m: _beta(k, m), moved=1),
    IdentityId.THM1_COR: IdentityInfo(
        lambda k: eq6_statement(k, k + 1), "integral", ("k",), 1,
        {"k": (1, 8)}, lambda k: _beta(k, k + 1), moved=1),
    IdentityId.EQ103: IdentityInfo(
        lambda k: eq6_statement(k, k), "poly", ("k",), 1, {"k": (1, 8)}),
    IdentityId.THM2: IdentityInfo(
        lambda k: eq6_statement(k, k), "integral", ("k",), 1, {"k": (1, 10)},
        lambda k: _beta(k, k)),
    IdentityId.THM3_PRINTED: IdentityInfo(
        _PRINTED, "poly", ("k",), 1, {"k": (1, 4)}),
    IdentityId.THM3_CORRECTED: IdentityInfo(
        _CORRECTED, "poly", ("k",), 1, {"k": (1, 6)}),
    IdentityId.THM4: IdentityInfo(
        eq6_statement, "fermionic", ("k", "m"), 1, {"k": (1, 6), "m": (1, 6)}),
    IdentityId.THM5_PRINTED: IdentityInfo(
        _PRINTED, "fermionic", ("k",), 1, {"k": (1, 4)}),
    IdentityId.THM5_CORRECTED: IdentityInfo(
        _CORRECTED, "fermionic", ("k",), 1, {"k": (1, 4)}),
    IdentityId.THM6: IdentityInfo(
        eq6_statement, "bosonic", ("k", "m"), 1, {"k": (1, 3), "m": (1, 3)}),
    IdentityId.COR7_PRINTED: IdentityInfo(
        _PRINTED, "bosonic", ("k",), 1, {"k": (1, 3)}),
    IdentityId.COR7_CORRECTED: IdentityInfo(
        _CORRECTED, "bosonic", ("k",), 1, {"k": (1, 3)}),
    IdentityId.EQ7: IdentityInfo(eq7_pairs, None, ("n",), 1, {"n": (1, 12)}),
    IdentityId.EQ8: IdentityInfo(eq8_pairs, None, ("n",), 0, {"n": (0, 12)}),
}


def table_certificate(identity: IdentityId, params: Dict[str, int]):
    """left - right of a calculus rule, from the tables: its left pairs and
    its right pairs, coefficients negated, as one exact sum, reduced once
    per power of x."""
    left, right = REGISTRY[identity].build(**params)
    return sum_products(left + [(-c, v) for c, v in right])


# ---------------------------------------------------------------------------
# x-certificates
#
# With E the linear map x^n -> E_n(x), a statement E(t) = h holds iff its
# x-certificate c = t - E^-1(h) is zero, E^-1(h) = (q h(x+1) + h(x))/(1+q).
# E^-1 inverts the tables as far as they satisfy the functional equation
# q E_n(x+1) + E_n(x) = (1+q) x^n, because E_n(x) is Appell: E commutes
# with x -> x+1.  Then E(t) - h = E(c), and E(c) = 0 iff c = 0, E_n being
# monic.  A view maps both sides by one linear map V, so its certificate
# is V(E(c)), and c needs no value of the tables.


def _columns(terms: ZTerms, top: int, width: int) -> list:
    """An integer term list times (1+q)^top, as columns by power of q, each
    the coefficients of x^0 .. x^(width-1)."""
    cols = []
    for coeffs, b, n in terms:
        for _ in range(top - b):                # times (1+q)
            coeffs = (coeffs[0], *map(add, coeffs[1:], coeffs), coeffs[-1])
        while len(cols) < len(coeffs):
            cols.append([0] * width)
        for col, c in zip(cols, coeffs):
            col[n] += c
    return cols


def _shifted(col: list) -> list:
    """The coefficients of p(x+1) from those of p(x): the Taylor shift,
    one suffix-sum pass per degree."""
    col = col[:]
    for i in range(len(col) - 1):
        col[i:] = list(accumulate(reversed(col[i:])))[::-1]
    return col


def _degree(statement: Statement) -> int:
    return max(n for _, _, n in chain(*statement))


def x_certificate(statement: Statement) -> Tuple[list, int]:
    """The x-certificate c of a statement over the integers, as (cols, b)
    with c = sum_j cols[j](x) q^j / (1+q)^b.

    Over one (1+q)^B for every coefficient, (1+q)^(B+1) c is
    (1+q) T(x) - q M(x+1) - M(x), with T the term list and M the
    monomials.  Its column j, by power of q, is
    t_j + t_(j-1) - S(m_(j-1)) - m_j, with S the Taylor shift, formed in
    one pass over the integer columns; each distinct monomial column is
    shifted once (EQ6's monomial coefficients are (c, c), so its two
    columns are one), and no value of R is built.
    """
    terms, mono = statement
    top = max(b for _, b, _ in chain(terms, mono))
    width = 1 + _degree(statement)
    t, m = _columns(terms, top, width), _columns(mono, top, width)
    zero = [0] * width
    size = 1 + max(len(t), len(m))
    t += [zero] * (size - len(t))
    m += [zero] * (size - len(m))
    shifts = {tuple(zero): zero}
    cols, t_prev, s_prev = [], zero, zero
    for t_j, m_j in zip(t, m):
        cols.append([a + b - s - d
                     for a, b, s, d in zip(t_j, t_prev, s_prev, m_j)])
        key = tuple(m_j)
        if key not in shifts:
            shifts[key] = _shifted(m_j)
        t_prev, s_prev = t_j, shifts[key]
    return cols, top + 1


def x_polynomial(cols: list, b: int) -> XPolyQ:
    """An x-certificate (cols, b) as a polynomial in x over R; the zero
    polynomial, with no value of R built, when every column is zero."""
    if not any(map(any, cols)):
        return XPolyQ()
    return XPolyQ([RatFuncQ.over_bracket([col[i] for col in cols], b)
                   for i in range(len(cols[0]))])


@cache
def _functional_equation_row(n: int) -> bool:
    """Whether q E_n(x+1) + E_n(x) = (1+q) x^n holds on the tables (n >= 1).

    E_n(x) is the binomial convolution of E[i] = N_i/(1+q)^i, so over
    (1+q)^n this reads q sum_{i<=n} C(n, i) N_i (1+q)^(n-i) + N_n = 0, a
    Horner pass in (1+q) over the integer numerators.
    """
    acc = [0]
    for i in range(n + 1):
        acc = [*map(add, acc + [0], [0] + acc)]     # times (1+q)
        for d, c in enumerate(euler_numerator(i)):
            acc[d] += binom(n, i) * c
    acc = [0, *acc]                                 # times q
    for d, c in enumerate(euler_numerator(n)):
        acc[d] += c
    return not any(acc)


def table_licensed(n: int) -> bool:
    """Whether the tables satisfy the functional equation for every degree
    up to n, the condition under which the x-certificate of a statement of
    degree n gives its certificate.  Each degree is checked once per process."""
    return all(map(_functional_equation_row, range(1, n + 1)))


class TableError(ArithmeticError):
    """The tables fail the functional equation up to a degree that a
    statement needs, so its x-certificate does not give its certificate."""


def statement_certificate(identity: IdentityId, params: Dict[str, int],
                          ctx: Optional[NumericContext] = None
                          ) -> Tuple[object, XPolyQ, Optional[tuple]]:
    """(certificate, x-certificate c, bosonic pair) of a statement cell,
    its certificate left - right the view of E(c), one sum over c's
    nonzero coefficients.

    In the integral view the certificate is U(E(c)) + q * residual, the
    residual U(h)/q less the printed beta, h the statement's right side.
    With h = (1+q) sum c_i x^i, whose monomial coefficients are (c_i, c_i),
    U(h)/q is -sum c_i/(i+1).  The integral view also needs one degree
    more: the unit integral E[n+1]/(n+1) of E_n(x) rests on the functional
    equation at n + 1.

    The bosonic view, monomial side first, has the certificate minus the
    bosonic moments of E(c).  Each moment is A_i + B_i/log_p q with A_i
    and B_i exact at q (``_moment_pair``), so the certificate is
    A + B/log_p q with A = -sum c_i(q) A_i and B = -sum c_i(q) B_i, one
    exact pair known modulo p^K in ``ctx`` (``_at_precision``).  A zero c
    gives (0, 0), the zero known modulo p^K, and reads no q-Bernoulli
    number.  The pair is returned third, None in the other views.

    Raises TableError when the tables are not licensed to the degree the
    cell needs.
    """
    info = REGISTRY[identity]
    statement = info.build(**params)
    degree = _degree(statement) + (info.view == "integral")
    if not table_licensed(degree):
        raise TableError(f"the tables fail the functional equation up to "
                         f"degree {degree}")
    c = x_polynomial(*x_certificate(statement))
    terms, pair = monomials(c), None
    if info.view == "poly":
        # E(c) is a polynomial in x, the zero one when c is zero
        cert = sum_products(images(terms, euler_poly)) if terms else c
    elif info.view == "fermionic":
        cert = sum_products([(-ci, fermionic_moment(i)) for ci, i in terms])
    elif info.view == "bosonic":
        a = b = Fraction(0)
        for ci, i in terms:
            (a_i, b_i), at_q = _moment_pair(i, ctx.q), ci.evaluate(ctx.q)
            a, b = a - at_q * a_i, b - at_q * b_i
        pair = a, b
        cert = _at_precision(*pair, ctx.p, ctx.q, ctx.target)
    else:
        u_h = -sum(Fraction(ci, i + 1) for (ci, _), _, i in statement[1])
        cert = sum_products(images(terms, unit_integral)
                            + [(u_h - info.beta(**params), RF_Q)])
    return cert, c, pair


class VerificationResult(Record):
    """One decided cell.  ``route`` is X_CERTIFICATE or TABLES (None for a
    cell that raised); ``x_certificate`` is the x-certificate, and
    ``bosonic_pair`` the exact (A, B) of a bosonic certificate
    A + B/log_p q, when the x-certificate is nonzero."""

    __slots__ = ("id", "params", "mode", "verdict", "certificate",
                 "certificate_str", "elapsed", "route", "x_certificate",
                 "bosonic_pair")

    def __init__(self, id: IdentityId, params: Dict[str, int], mode: str,
                 verdict: str, certificate: object, certificate_str: str,
                 elapsed: float, route: Optional[str] = None,
                 x_certificate: Optional[str] = None,
                 bosonic_pair: Optional[Tuple[Fraction, Fraction]] = None):
        self._set(id, params, mode, verdict, certificate, certificate_str,
                  elapsed, route, x_certificate, bosonic_pair)

    def sort_key(self):
        return (self.id.value,
                tuple(self.params[p] for p in sorted(self.params)))

    def as_report_item(self) -> dict:
        return {
            "id": self.id.value,
            "params": dict(sorted(self.params.items())),
            "mode": self.mode,
            "verdict": self.verdict,
            "certificate": self.certificate_str,
        }


def _mode(identity: IdentityId, ctx: Optional[NumericContext]) -> str:
    """The report's mode: "exact", or the p-adic configuration used."""
    if REGISTRY[identity].mode == "exact":
        return "exact"
    return f"padic(p={ctx.p},q={ctx.q},K={ctx.target})"


def verify(identity: IdentityId, params: Dict[str, int],
           ctx: Optional[NumericContext] = None) -> VerificationResult:
    """Decide one cell: a statement by its x-certificate
    (``statement_certificate``), a calculus rule by its table certificate
    left - right (``table_certificate``), and classify the verdict.

    Exact identities hold iff the difference is identically zero.  A p-adic
    identity fails when the difference has a nonzero digit below p^K, and
    holds to precision K when the difference is known to be divisible by
    p^K; a zero difference known to fewer than K digits decides nothing
    and is an error.
    """
    info = REGISTRY[identity]
    expected = set(info.params)
    if set(params) != expected:
        raise ValueError(
            f"{identity.value} takes parameters {sorted(expected)}, "
            f"got {sorted(params)}")
    for name, value in params.items():
        if value < info.minimum:
            raise ValueError(
                f"{identity.value} requires {name} >= {info.minimum}")

    if info.mode == "padic" and ctx is None:
        raise ValueError(f"{identity.value} needs a numeric context")

    start = time.monotonic()
    if info.view is None:
        cert, c, pair, route = (table_certificate(identity, params), None,
                                None, TABLES)
    else:
        (cert, c, pair), route = (statement_certificate(identity, params, ctx),
                                  X_CERTIFICATE)
    if info.mode == "exact":
        verdict = HOLDS if cert.is_zero else FAILS
    elif not cert.is_zero and cert.valuation < ctx.target:
        verdict = FAILS
    elif cert.abs_precision >= ctx.target:
        verdict = HOLDS_TO_PRECISION
    else:
        verdict = ERROR
    elapsed = time.monotonic() - start
    return VerificationResult(identity, dict(params), _mode(identity, ctx),
                              verdict, cert, str(cert), elapsed, route,
                              str(c) if c else None, pair if c else None)


def grid_params(identity: IdentityId,
                ranges: Optional[Dict[str, Tuple[int, int]]] = None):
    """The parameter assignments of a rectangular grid, in
    ``VerificationResult.sort_key`` order; ``verify`` rejects a value below
    the identity's minimum at the grid's first cell, and this function a
    range for a parameter the identity does not take."""
    info = REGISTRY[identity]
    bounds = dict(info.default_range)
    for name, pair in (ranges or {}).items():
        if name not in bounds:
            raise ValueError(f"{identity.value} takes no parameter {name!r}")
        bounds[name] = pair
    names = sorted(info.params)
    spans = []
    for name in names:
        lo, hi = bounds[name]
        if lo > hi:
            raise ValueError(f"empty range for {name}: {lo}..{hi}")
        spans.append(range(lo, hi + 1))
    return [dict(zip(names, values)) for values in product(*spans)]


def verify_grid(identity: IdentityId,
                ranges: Optional[Dict[str, Tuple[int, int]]] = None,
                ctx: Optional[NumericContext] = None):
    """Verify every cell of a parameter rectangle; deterministic order.

    Exceptions inside a cell become items with verdict "error" so a grid
    run always accounts for every cell.
    """
    results = []
    for params in grid_params(identity, ranges):
        try:
            results.append(verify(identity, params, ctx))
        except ValueError:
            raise
        except Exception as exc:  # honest per-cell failure records
            results.append(VerificationResult(
                identity, dict(params), _mode(identity, ctx), ERROR, None,
                f"{type(exc).__name__}: {exc}", 0.0))
    return results
