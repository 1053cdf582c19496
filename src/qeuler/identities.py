"""Registry of the checkable identities relating the weight-0 q-Euler and
q-Bernoulli families, each producing explicit left/right sides and a
verdict with a difference certificate.

Exact identities are decided in the rational-function field (certificate
identically zero or not); identities involving q-Bernoulli numbers can
only ever be decided to finite p-adic precision, since those numbers are
defined purely as Riemann-sum limits.

Several catalogued statements exist in two encodings: a ``_PRINTED``
variant transcribing the typeset source, including its suspect summation
bounds and subscripts, and a ``_CORRECTED`` variant re-derived from the
earlier identities in the chain.  Both are evaluated; the difference
certificates document which reading is an identity, without guessing
intent.  Printed-variant failures are informational and never fail a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import inf
from typing import Callable, Dict, Optional, Tuple

from .exactarith import RF_ONE, RF_Q, RF_ZERO, RatFuncQ, XPolyQ
from .padic import PadicApprox
from .qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    IntegralRequest,
    IntegralResult,
    integrate,
)
from .qspecial import TWO_Q, TWO_Q_RECIP, binom, euler_number, euler_poly

HOLDS = "holds"
FAILS = "fails"
HOLDS_TO_PRECISION = "holds-to-precision"
ERROR = "error"


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

    @property
    def printed_variant(self) -> bool:
        return self.value.endswith("_PRINTED")


@dataclass(frozen=True)
class IdentityInfo:
    params: Tuple[str, ...]
    mode: str                      # "exact" or "padic"
    minimum: int                   # lower bound for every parameter
    default_range: Dict[str, Tuple[int, int]]
    description: str


REGISTRY: Dict[IdentityId, IdentityInfo] = {
    IdentityId.EQ6: IdentityInfo(
        ("k", "m"), "exact", 0, {"k": (0, 8), "m": (0, 8)},
        "master polynomial identity: weighted sum of E_{k+m-j}(x) equals "
        "(1+q) x^k (x-1)^m"),
    IdentityId.THM1: IdentityInfo(
        ("k", "m"), "exact", 1, {"k": (1, 8), "m": (1, 8)},
        "unit-interval integral of the master identity, via exact beta values"),
    IdentityId.THM1_COR: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 8)},
        "the m = k+1 specialization of the integrated identity"),
    IdentityId.EQ103: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 8)},
        "even/odd regrouping of the master identity at m = k"),
    IdentityId.THM2: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 10)},
        "unit-interval integral of the regrouped identity"),
    IdentityId.THM3_PRINTED: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 4)},
        "degree-(2k+1) identity as typeset (suspect bounds and subscripts)"),
    IdentityId.THM3_CORRECTED: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 6)},
        "degree-(2k+1) identity re-derived from EQ6 at (k, k+1) plus "
        "EQ103/(1+q)"),
    IdentityId.THM4: IdentityInfo(
        ("k", "m"), "exact", 1, {"k": (1, 6), "m": (1, 6)},
        "fermionic moments of the master identity: double E-sum equals "
        "(1+q) alternating E-sum"),
    IdentityId.THM5_PRINTED: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 4)},
        "fermionic moments of the degree-(2k+1) identity, printed reading"),
    IdentityId.THM5_CORRECTED: IdentityInfo(
        ("k",), "exact", 1, {"k": (1, 4)},
        "fermionic moments of the corrected degree-(2k+1) identity"),
    IdentityId.THM6: IdentityInfo(
        ("k", "m"), "padic", 1, {"k": (1, 3), "m": (1, 3)},
        "bosonic moments of the master identity, mixing exact E with "
        "numeric B values"),
    IdentityId.COR7_PRINTED: IdentityInfo(
        ("k",), "padic", 1, {"k": (1, 3)},
        "bosonic moments of the degree-(2k+1) identity, printed reading"),
    IdentityId.COR7_CORRECTED: IdentityInfo(
        ("k",), "padic", 1, {"k": (1, 3)},
        "bosonic moments of the corrected degree-(2k+1) identity"),
    IdentityId.EQ7: IdentityInfo(
        ("n",), "exact", 1, {"n": (1, 12)},
        "derivative rule: d/dx E_n(x) = n E_{n-1}(x)"),
    IdentityId.EQ8: IdentityInfo(
        ("n",), "exact", 0, {"n": (0, 12)},
        "unit-interval integral closed form: -(1+q)/q * E_{n+1}/(n+1)"),
}


# ---------------------------------------------------------------------------
# exact building blocks


def _bracket_coeff(k: int, m: int, j: int) -> RatFuncQ:
    """q*C(k, j) + (-1)^j * C(m, j) as an exact coefficient."""
    return RF_Q * binom(k, j) + RatFuncQ.from_fraction(
        Fraction(binom(m, j) * (-1) ** j))


def x_power_shift(k: int, m: int) -> XPolyQ:
    """x^k (x - 1)^m expanded exactly."""
    coeffs = [RF_ZERO] * (k + m + 1)
    for l in range(m + 1):
        coeffs[k + l] = RatFuncQ.from_fraction(
            Fraction(binom(m, l) * (-1) ** (m - l)))
    return XPolyQ(coeffs)


_moments: Dict[int, RatFuncQ] = {}


def fermionic_moment(n: int) -> RatFuncQ:
    """Exact fermionic moment of E_n(x): sum_l C(n,l) E_{n-l} E_l."""
    if n not in _moments:
        total = RF_ZERO
        for l in range(n + 1):
            total = total + euler_number(n - l) * euler_number(l) * Fraction(binom(n, l))
        _moments[n] = total
    return _moments[n]


# ---------------------------------------------------------------------------
# identity sides (exact)


def sides_eq6(k: int, m: int) -> Tuple[XPolyQ, XPolyQ]:
    """Both sides of the master identity at (k, m)."""
    left = XPolyQ.zero()
    for j in range(max(k, m) + 1):
        c = _bracket_coeff(k, m, j)
        if not c.is_zero:
            left = left + euler_poly(k + m - j) * c
    right = x_power_shift(k, m) * TWO_Q
    return left, right


def sides_thm1(k: int, m: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Both sides of the integrated master identity (k, m >= 1)."""
    left = RF_ZERO
    for j in range(1, max(k, m) + 1):
        c = _bracket_coeff(k, m, j)
        if not c.is_zero:
            left = left + c * euler_number(k + m - j + 1) * Fraction(1, k + m - j + 1)
    n = k + m + 1
    right = RF_Q * Fraction((-1) ** (m + 1), n * binom(k + m, k)) \
        - TWO_Q * euler_number(n) * Fraction(1, n)
    return left, right


def sides_thm1_cor(k: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """The displayed m = k+1 specialization, transcribed directly."""
    left = RF_ZERO
    for j in range(1, k + 2):
        c = RF_Q * binom(k, j) + RatFuncQ.from_fraction(
            Fraction(binom(k + 1, j) * (-1) ** j))
        if not c.is_zero:
            left = left + c * euler_number(2 * k + 2 - j) * Fraction(1, 2 * k + 2 - j)
    right = RF_Q * Fraction((-1) ** k, (2 * k + 2) * binom(2 * k + 1, k)) \
        - TWO_Q * euler_number(2 * k + 2) * Fraction(1, 2 * k + 2)
    return left, right


def sides_eq103(k: int) -> Tuple[XPolyQ, XPolyQ]:
    """Even/odd regrouping of the master identity at m = k."""
    q_minus_1 = RF_Q - RF_ONE
    left = XPolyQ.zero()
    for j in range(k // 2 + 1):
        c_even = binom(k, 2 * j)
        if c_even:
            left = left + euler_poly(2 * k - 2 * j) * (TWO_Q * c_even)
        c_odd = binom(k, 2 * j + 1)
        if c_odd:
            left = left + euler_poly(2 * k - 2 * j - 1) * (q_minus_1 * c_odd)
    right = x_power_shift(k, k) * TWO_Q
    return left, right


def sides_thm2(k: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Unit-interval integral of the regrouped identity."""
    q_minus_1 = RF_Q - RF_ONE
    left = RF_ZERO
    for j in range(k // 2 + 1):
        c_even = binom(k, 2 * j)
        if c_even:
            n = 2 * k - 2 * j + 1
            left = left + TWO_Q * euler_number(n) * Fraction(c_even, n)
        c_odd = binom(k, 2 * j + 1)
        if c_odd:
            n = 2 * k - 2 * j
            left = left + q_minus_1 * euler_number(n) * Fraction(c_odd, n)
    right = RF_Q * Fraction((-1) ** (k + 1), (2 * k + 1) * binom(2 * k, k))
    return left, right


def _thm3_right(k: int) -> XPolyQ:
    """x^k (x-1)^k ((1+q) x - q)."""
    linear = XPolyQ([-RF_Q, TWO_Q])
    return x_power_shift(k, k) * linear


def sides_thm3(k: int, variant: str) -> Tuple[XPolyQ, XPolyQ]:
    """Degree-(2k+1) identity, printed or corrected reading.

    The printed reading keeps the typeset bounds (second sum from j = 1 to
    floor(k/2)) and the bracket subscript 2k - 2j + 1; the corrected
    reading runs every sum over all indices with a nonzero binomial
    coefficient and uses the bracket subscript 2k - 2j - 1, which is what
    the combination of the master identity at (k, k+1) with the regrouped
    identity divided by (1+q) actually produces.
    """
    _check_variant(variant)
    q_minus_1 = RF_Q - RF_ONE
    inv_two_q = RF_ONE / TWO_Q
    left = XPolyQ.zero()
    if variant == "printed":
        for j in range(k // 2 + 1):
            c = binom(k, 2 * j)
            if c:
                left = left + euler_poly(2 * k + 1 - 2 * j) * (TWO_Q * c)
        for j in range(1, k // 2 + 1):
            c = binom(k, 2 * j - 1)
            if c:
                left = left + euler_poly(2 * k + 1 - 2 * j) * Fraction(c)
        for j in range(k // 2 + 1):
            c = binom(k, 2 * j + 1)
            if c:
                bracket = euler_poly(2 * k - 2 * j) \
                    + euler_poly(2 * k - 2 * j + 1) * inv_two_q
                left = left + bracket * (q_minus_1 * c)
    else:
        j = 0
        while binom(k, 2 * j):
            left = left + euler_poly(2 * k + 1 - 2 * j) * (TWO_Q * binom(k, 2 * j))
            j += 1
        j = 1
        while binom(k, 2 * j - 1):
            left = left + euler_poly(2 * k + 1 - 2 * j) * Fraction(binom(k, 2 * j - 1))
            j += 1
        j = 0
        while binom(k, 2 * j + 1):
            bracket = euler_poly(2 * k - 2 * j) \
                + euler_poly(2 * k - 2 * j - 1) * inv_two_q
            left = left + bracket * (q_minus_1 * binom(k, 2 * j + 1))
            j += 1
    return left, _thm3_right(k)


def thm3_construction_residual(k: int) -> XPolyQ:
    """left(corrected) - [left(EQ6 at (k, k+1)) + left(EQ103 at k)/(1+q)];
    identically zero by construction."""
    corrected_left = sides_thm3(k, "corrected")[0]
    eq6_left = sides_eq6(k, k + 1)[0]
    eq103_left = sides_eq103(k)[0]
    return corrected_left - (eq6_left + eq103_left * (RF_ONE / TWO_Q))


def sides_thm4(k: int, m: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Fermionic moments of the master identity."""
    left = RF_ZERO
    for j in range(max(k, m) + 1):
        c = _bracket_coeff(k, m, j)
        if not c.is_zero:
            left = left + c * fermionic_moment(k + m - j)
    right = RF_ZERO
    for l in range(m + 1):
        right = right + euler_number(l + k) * Fraction(binom(m, l) * (-1) ** (m - l))
    right = right * TWO_Q
    return left, right


def _degree_2k1_moment_combination(k: int, variant: str,
                                   moment: Callable) -> object:
    """The right side shared by the fermionic and bosonic moment identities
    of the degree-(2k+1) statement; ``moment(n)`` supplies the moment of
    E_n(x) under the chosen measure."""
    q_minus_1 = RF_Q - RF_ONE
    inv_two_q = RF_ONE / TWO_Q
    terms = []
    if variant == "printed":
        for j in range(k // 2 + 1):
            c = binom(k, 2 * j)
            if c:
                terms.append((TWO_Q * c, moment(2 * k + 1 - 2 * j)))
        for j in range(1, k // 2 + 1):
            c = binom(k, 2 * j - 1)
            if c:
                terms.append((RatFuncQ.from_fraction(c), moment(2 * k + 1 - 2 * j)))
        for j in range(k // 2 + 1):
            c = binom(k, 2 * j + 1)
            if c:
                terms.append((q_minus_1 * c, moment(2 * k - 2 * j)))
                terms.append((q_minus_1 * inv_two_q * c, moment(2 * k - 2 * j + 1)))
    else:
        j = 0
        while binom(k, 2 * j):
            terms.append((TWO_Q * binom(k, 2 * j), moment(2 * k + 1 - 2 * j)))
            j += 1
        j = 1
        while binom(k, 2 * j - 1):
            terms.append((RatFuncQ.from_fraction(binom(k, 2 * j - 1)),
                          moment(2 * k + 1 - 2 * j)))
            j += 1
        j = 0
        while binom(k, 2 * j + 1):
            c = binom(k, 2 * j + 1)
            terms.append((q_minus_1 * c, moment(2 * k - 2 * j)))
            terms.append((q_minus_1 * inv_two_q * c, moment(2 * k - 2 * j - 1)))
            j += 1
    return terms


def _check_variant(variant: str):
    if variant not in ("printed", "corrected"):
        raise ValueError(f"variant must be 'printed' or 'corrected', got {variant!r}")


def sides_thm5(k: int, variant: str) -> Tuple[RatFuncQ, RatFuncQ]:
    """Fermionic moments of the degree-(2k+1) identity; exact throughout."""
    _check_variant(variant)
    left = RF_ZERO
    for l in range(k + 1):
        sign = Fraction(binom(k, l) * (-1) ** (k - l))
        left = left + (TWO_Q * euler_number(k + l + 1)
                       - RF_Q * euler_number(k + l)) * sign
    right = RF_ZERO
    for coeff, mom in _degree_2k1_moment_combination(k, variant, fermionic_moment):
        right = right + coeff * mom
    return left, right


# ---------------------------------------------------------------------------
# p-adic context and sides


@dataclass
class NumericContext:
    """Prime, embedded q, precision budget, and memoized numeric values
    shared by the p-adic identity checks."""

    p: int = 3
    q: Fraction = Fraction(4)
    target: int = 4
    guard: int = 4
    max_level: int = 12
    cache: Optional[object] = None      # report.ResultCache or compatible
    _monomials: Dict[Tuple[str, int], IntegralResult] = field(
        default_factory=dict, repr=False)
    _embeds: Dict[Fraction, PadicApprox] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.q = Fraction(self.q)

    @property
    def embed_precision(self) -> int:
        return self.target + self.guard + 2

    def embed(self, value) -> PadicApprox:
        """Embed an exact rational (or rational function of q) p-adically."""
        if isinstance(value, RatFuncQ):
            value = value.evaluate(self.q)
        value = Fraction(value)
        if value not in self._embeds:
            self._embeds[value] = PadicApprox.from_rational(
                value, self.p, self.embed_precision)
        return self._embeds[value]

    def monomial_integral(self, kind: str, n: int) -> IntegralResult:
        """Adaptive integral of xi^n under the chosen measure, memoized and
        (when a cache is attached) persisted."""
        key = (kind, n)
        if key not in self._monomials:
            cached = None
            if self.cache is not None:
                cached = self.cache.get_integral(kind, n, self.p, self.q,
                                                 self.target, self.guard,
                                                 self.max_level)
            if cached is None:
                req = IntegralRequest(kind, n, Fraction(0), self.p, self.q,
                                      self.target, guard=self.guard,
                                      max_level=self.max_level)
                cached = integrate(req)
                if self.cache is not None:
                    self.cache.put_integral(kind, n, self.p, self.q,
                                            self.target, self.guard,
                                            self.max_level, cached)
            self._monomials[key] = cached
        return self._monomials[key]

    def bernoulli(self, n: int) -> PadicApprox:
        """Numeric weight-0 q-Bernoulli number at this context's precision."""
        return self.monomial_integral(KIND_BOSONIC, n).value

    def numeric_poly_integral(self, kind: str, coeffs) -> PadicApprox:
        """Integral of an exact-coefficient polynomial in xi, by linearity
        over numeric monomial integrals."""
        total = None
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c == 0:
                continue
            term = self.embed(c) * self.monomial_integral(kind, i).value
            total = term if total is None else total + term
        if total is None:
            return PadicApprox.zero(self.p, self.embed_precision)
        return total


BernoulliProvider = Callable[[int], PadicApprox]


def sides_thm6(k: int, m: int, ctx: NumericContext,
               bernoulli: Optional[BernoulliProvider] = None
               ) -> Tuple[PadicApprox, PadicApprox]:
    """Bosonic moments of the master identity: exact E values embedded,
    numeric B values from the adaptive integral (or an injected provider,
    used by the degenerate-slice sanity check)."""
    bget = bernoulli if bernoulli is not None else ctx.bernoulli
    two_q = ctx.embed(TWO_Q)
    left = None
    for l in range(m + 1):
        c = Fraction(binom(m, l) * (-1) ** (m - l))
        term = ctx.embed(c) * bget(l + k)
        left = term if left is None else left + term
    left = two_q * left
    right = None
    for j in range(max(k, m) + 1):
        c = _bracket_coeff(k, m, j)
        if c.is_zero:
            continue
        inner = None
        n = k + m - j
        for l in range(n + 1):
            t = ctx.embed(euler_number(n - l) * Fraction(binom(n, l))) * bget(l)
            inner = t if inner is None else inner + t
        term = ctx.embed(c) * inner
        right = term if right is None else right + term
    return left, right


def sides_cor7(k: int, variant: str, ctx: NumericContext,
               bernoulli: Optional[BernoulliProvider] = None
               ) -> Tuple[PadicApprox, PadicApprox]:
    """Bosonic moments of the degree-(2k+1) identity.

    Mirrors the fermionic-moment statement with numeric B values replacing
    the inner E factor.  The left side follows the final displayed line,
    which carries no leading (1+q) factor.
    """
    _check_variant(variant)
    bget = bernoulli if bernoulli is not None else ctx.bernoulli
    two_q = ctx.embed(TWO_Q)
    q_emb = ctx.embed(RF_Q)
    left = None
    for l in range(k + 1):
        sign = ctx.embed(Fraction(binom(k, l) * (-1) ** (k - l)))
        term = sign * (two_q * bget(k + l + 1) - q_emb * bget(k + l))
        left = term if left is None else left + term

    def bosonic_moment(n: int) -> PadicApprox:
        total = None
        for l in range(n + 1):
            t = ctx.embed(euler_number(n - l) * Fraction(binom(n, l))) * bget(l)
            total = t if total is None else total + t
        return total

    right = None
    for coeff, mom in _degree_2k1_moment_combination(k, variant, bosonic_moment):
        term = ctx.embed(coeff) * mom
        right = term if right is None else right + term
    return left, right


def sides_eq7(n: int) -> Tuple[XPolyQ, XPolyQ]:
    """Derivative rule: d/dx E_n(x) = n E_{n-1}(x)."""
    return euler_poly(n).derivative(), euler_poly(n - 1) * Fraction(n)


def sides_eq8(n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Unit-interval integral of E_n(x): termwise antiderivative on the
    left, the closed form on the right."""
    left = euler_poly(n).integral01()
    right = -TWO_Q_RECIP * euler_number(n + 1) * Fraction(1, n + 1)
    return left, right


def thm1_independent_route(k: int, m: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Reconstruct both sides of the integrated master identity by actually
    integrating the master identity's sides over [0, 1].

    Termwise integration turns each E_n(x) into -(1+q)/q * E_{n+1}/(n+1);
    peeling off the j = 0 term and dividing by -(1+q)/q reproduces the
    left side, and the same transform applied to the right side's exact
    integral reproduces the right side.
    """
    eq6_left, eq6_right = sides_eq6(k, m)
    head = TWO_Q * euler_number(k + m + 1) * Fraction(1, k + m + 1)
    left = -(eq6_left.integral01() / TWO_Q_RECIP) - head
    right = -(eq6_right.integral01() / TWO_Q_RECIP) - head
    return left, right


# ---------------------------------------------------------------------------
# independent numeric witnesses (two-route oracles)


def thm4_padic_witness(k: int, m: int, ctx: NumericContext
                       ) -> Tuple[PadicApprox, PadicApprox]:
    """Exact right side of the fermionic-moment identity, embedded, against
    the direct numeric fermionic integral of (1+q) x^k (x-1)^m."""
    exact = ctx.embed(sides_thm4(k, m)[1])
    coeffs = [c.evaluate(ctx.q) for c in x_power_shift(k, m).coeffs]
    numeric = ctx.embed(TWO_Q) * ctx.numeric_poly_integral(KIND_FERMIONIC, coeffs)
    return exact, numeric


def thm5_padic_witness(k: int, variant: str, ctx: NumericContext
                       ) -> Tuple[PadicApprox, PadicApprox]:
    """Exact left side of the fermionic-moment identity, embedded, against
    the direct numeric fermionic integral of x^k (x-1)^k ((1+q) x - q)."""
    exact = ctx.embed(sides_thm5(k, variant)[0])
    poly = _thm3_right(k)
    coeffs = [c.evaluate(ctx.q) for c in poly.coeffs]
    numeric = ctx.numeric_poly_integral(KIND_FERMIONIC, coeffs)
    return exact, numeric


def thm6_direct_integral(k: int, m: int, ctx: NumericContext) -> PadicApprox:
    """(1+q) times the numeric bosonic integral of x^k (x-1)^m: the value
    both sides of the bosonic-moment identity estimate."""
    coeffs = [c.evaluate(ctx.q) for c in x_power_shift(k, m).coeffs]
    return ctx.embed(TWO_Q) * ctx.numeric_poly_integral(KIND_BOSONIC, coeffs)


def cor7_direct_integral(k: int, ctx: NumericContext) -> PadicApprox:
    """Numeric bosonic integral of x^k (x-1)^k ((1+q) x - q)."""
    coeffs = [c.evaluate(ctx.q) for c in _thm3_right(k).coeffs]
    return ctx.numeric_poly_integral(KIND_BOSONIC, coeffs)


# ---------------------------------------------------------------------------
# verification driver


@dataclass
class VerificationResult:
    id: IdentityId
    params: Dict[str, int]
    mode: str
    verdict: str
    certificate: object
    certificate_str: str
    elapsed: float

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


_EXACT_SIDES = {
    IdentityId.EQ6: lambda p: sides_eq6(p["k"], p["m"]),
    IdentityId.THM1: lambda p: sides_thm1(p["k"], p["m"]),
    IdentityId.THM1_COR: lambda p: sides_thm1_cor(p["k"]),
    IdentityId.EQ103: lambda p: sides_eq103(p["k"]),
    IdentityId.THM2: lambda p: sides_thm2(p["k"]),
    IdentityId.THM3_PRINTED: lambda p: sides_thm3(p["k"], "printed"),
    IdentityId.THM3_CORRECTED: lambda p: sides_thm3(p["k"], "corrected"),
    IdentityId.THM4: lambda p: sides_thm4(p["k"], p["m"]),
    IdentityId.THM5_PRINTED: lambda p: sides_thm5(p["k"], "printed"),
    IdentityId.THM5_CORRECTED: lambda p: sides_thm5(p["k"], "corrected"),
    IdentityId.EQ7: lambda p: sides_eq7(p["n"]),
    IdentityId.EQ8: lambda p: sides_eq8(p["n"]),
}

_PADIC_SIDES = {
    IdentityId.THM6: lambda p, ctx: sides_thm6(p["k"], p["m"], ctx),
    IdentityId.COR7_PRINTED: lambda p, ctx: sides_cor7(p["k"], "printed", ctx),
    IdentityId.COR7_CORRECTED: lambda p, ctx: sides_cor7(p["k"], "corrected", ctx),
}


def verify(identity: IdentityId, params: Dict[str, int],
           ctx: Optional[NumericContext] = None) -> VerificationResult:
    """Compute both sides, subtract, and classify the verdict.

    Exact identities hold iff the difference is identically zero; p-adic
    identities hold to precision K iff |difference|_p <= p^-K.
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

    start = time.monotonic()
    if info.mode == "exact":
        left, right = _EXACT_SIDES[identity](params)
        cert = left - right
        verdict = HOLDS if cert.is_zero else FAILS
        mode = "exact"
    else:
        if ctx is None:
            raise ValueError(f"{identity.value} needs a numeric context")
        left, right = _PADIC_SIDES[identity](params, ctx)
        cert = left - right
        dist = inf if cert.is_zero else cert.valuation
        verdict = HOLDS_TO_PRECISION if dist >= ctx.target else FAILS
        mode = f"padic(p={ctx.p},q={ctx.q},K={ctx.target})"
    elapsed = time.monotonic() - start
    return VerificationResult(identity, dict(params), mode, verdict,
                              cert, str(cert), elapsed)


def grid_params(identity: IdentityId,
                ranges: Optional[Dict[str, Tuple[int, int]]] = None):
    """Sorted parameter assignments for a rectangular grid."""
    info = REGISTRY[identity]
    bounds = dict(info.default_range)
    if ranges:
        for name, pair in ranges.items():
            if name in bounds:
                bounds[name] = pair
    names = sorted(info.params)
    spans = []
    for name in names:
        lo, hi = bounds[name]
        if lo > hi:
            raise ValueError(f"empty range for {name}: {lo}..{hi}")
        if lo < info.minimum:
            raise ValueError(
                f"{identity.value} requires {name} >= {info.minimum}")
        spans.append(range(lo, hi + 1))

    def rec(i):
        if i == len(names):
            yield {}
            return
        for v in spans[i]:
            for rest in rec(i + 1):
                yield {names[i]: v, **rest}

    return list(rec(0))


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
                identity, dict(params),
                REGISTRY[identity].mode, ERROR, None,
                f"{type(exc).__name__}: {exc}", 0.0))
    results.sort(key=VerificationResult.sort_key)
    return results
