"""Registry of the checkable identities relating the weight-0 q-Euler and
q-Bernoulli families, each producing explicit left/right sides and a
verdict with a difference certificate.

Every statement is data.  Its E-side is a *term list* [(coefficient, n)],
meaning sum coefficient * E_n(x), seen through one of four linear maps,
which send E_n(x) to

- the polynomial itself (``euler_poly``);
- E[n+1]/(n+1), its unit-interval integral divided by -(1+q)/q, the
  normalization the integrated statements are printed in
  (``unit_integral``);
- its fermionic moment (``fermionic_moment``);
- its bosonic moment (``NumericContext.bosonic_moment``).

A side that is a polynomial in x is a monomial term list [(c, i)], meaning
sum c * x^i, seen through x^i -> x^i, E[i] or B_i.  The fermionic and
bosonic moments of E_n(x) are its own monomial terms seen through E[i]
and B_i.

Exact identities are decided in the ring R = Q[q, 1/q, 1/(1+q)]
(certificate identically zero or not); identities involving q-Bernoulli
numbers are decided here to finite p-adic precision, because B is
computed as a Riemann-sum limit.

Several catalogued statements exist in two encodings: a ``_PRINTED``
variant transcribing the typeset source, including its suspect summation
bounds and subscripts, and a ``_CORRECTED`` variant re-derived from the
earlier identities in the chain.  Both are evaluated; the difference
certificates document which reading is an identity, without guessing
intent.  Printed-variant failures are informational and never fail a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import product
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

from .exactarith import RF_ONE, RF_Q, RatFuncQ, XPolyQ, sum_products
from .padic import PadicApprox
from .qintegral import KIND_BOSONIC, MonomialIntegrals
from .qspecial import TWO_Q, TWO_Q_RECIP, binom, euler_number, euler_poly
from .report import ERROR, FAILS, HOLDS, HOLDS_TO_PRECISION

_Q_MINUS_1 = RF_Q - RF_ONE
_INV_TWO_Q = RF_ONE / TWO_Q

Terms = List[Tuple[object, int]]


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


def eq6_terms(k: int, m: int, first: int = 0) -> Terms:
    """The master identity's bracket sum from j = first:
    sum_j (q C(k, j) + (-1)^j C(m, j)) E_{k+m-j}(x)."""
    terms = []
    for j in range(first, max(k, m) + 1):
        c = RF_Q * binom(k, j) + RatFuncQ.from_fraction(
            Fraction(binom(m, j) * (-1) ** j))
        if not c.is_zero:
            terms.append((c, k + m - j))
    return terms


def eq103_terms(k: int) -> Terms:
    """Even/odd regrouping of the master bracket sum at m = k:
    (1+q) C(k, 2j) E_{2k-2j}(x) and (q-1) C(k, 2j+1) E_{2k-2j-1}(x)."""
    terms = []
    for j in range(k // 2 + 1):
        terms.append((TWO_Q * binom(k, 2 * j), 2 * k - 2 * j))
        if binom(k, 2 * j + 1):
            terms.append((_Q_MINUS_1 * binom(k, 2 * j + 1), 2 * k - 2 * j - 1))
    return terms


# Readings of the degree-(2k+1) statement: the last index of its second sum
# and the subscript offset in its bracket E_{2k-2j} + E_{2k-2j+offset}/(1+q).
# The printed reading keeps the typeset floor(k/2) and 2k - 2j + 1; the
# corrected reading runs the second sum over every nonzero binomial and uses
# 2k - 2j - 1, which is what the master identity at (k, k+1) plus the
# regrouped identity divided by (1+q) actually produces.
_READINGS = {
    "printed": (lambda k: k // 2, 1),
    "corrected": (lambda k: (k + 1) // 2, -1),
}


def degree_2k1_terms(k: int, variant: str) -> Terms:
    """Left side of the degree-(2k+1) identity, printed or corrected."""
    if variant not in _READINGS:
        raise ValueError(f"variant must be 'printed' or 'corrected', got {variant!r}")
    last, offset = _READINGS[variant]
    terms = [(TWO_Q * binom(k, 2 * j), 2 * k + 1 - 2 * j)
             for j in range(k // 2 + 1)]
    terms += [(RatFuncQ.from_fraction(binom(k, 2 * j - 1)), 2 * k + 1 - 2 * j)
              for j in range(1, last(k) + 1)]
    for j in range((k - 1) // 2 + 1):
        c = _Q_MINUS_1 * binom(k, 2 * j + 1)
        terms += [(c, 2 * k - 2 * j), (c * _INV_TWO_Q, 2 * k - 2 * j + offset)]
    return terms


def shift_terms(k: int, m: int) -> Terms:
    """x^k (x - 1)^m as monomial terms."""
    return [(RatFuncQ.from_fraction(Fraction(binom(m, l) * (-1) ** (m - l))), k + l)
            for l in range(m + 1)]


def degree_2k1_rhs(k: int) -> Terms:
    """x^k (x-1)^k ((1+q) x - q) as monomial terms, one pair per term of
    x^k (x-1)^k, as the bosonic statement is printed."""
    terms = []
    for c, i in shift_terms(k, k):
        terms += [(TWO_Q * c, i + 1), (-RF_Q * c, i)]
    return terms


def monomials(poly: XPolyQ) -> Terms:
    """The nonzero monomial terms of a polynomial in x."""
    return [(c, i) for i, c in enumerate(poly.coeffs) if not c.is_zero]


# ---------------------------------------------------------------------------
# linear maps (exact)


def apply(terms: Terms, image: Callable):
    """sum coefficient * image(n) over a term list, as one exact sum: the
    products are brought to a common denominator and reduced once (per
    power of x when the images are polynomials in x)."""
    return sum_products((c, image(n)) for c, n in terms)


def x_poly(terms: Terms) -> XPolyQ:
    """The monomial map x^i -> x^i: a monomial term list as a polynomial."""
    return apply(terms, XPolyQ.x_power)


def x_power_shift(k: int, m: int) -> XPolyQ:
    """x^k (x - 1)^m expanded exactly."""
    return x_poly(shift_terms(k, m))


def unit_integral(n: int) -> RatFuncQ:
    """E[n+1]/(n+1), the unit-interval integral of E_n(x) divided by
    -(1+q)/q."""
    return euler_number(n + 1) * Fraction(1, n + 1)


@cache
def fermionic_moment(n: int) -> RatFuncQ:
    """Exact fermionic moment of E_n(x): sum_l C(n,l) E_{n-l} E_l."""
    return apply(monomials(euler_poly(n)), euler_number)


# ---------------------------------------------------------------------------
# identity sides (exact)


def sides_eq6(k: int, m: int) -> Tuple[XPolyQ, XPolyQ]:
    """Both sides of the master identity at (k, m)."""
    return apply(eq6_terms(k, m), euler_poly), x_power_shift(k, m) * TWO_Q


def sides_thm1(k: int, m: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Both sides of the integrated master identity (k, m >= 1)."""
    n = k + m + 1
    right = RF_Q * Fraction((-1) ** (m + 1), n * binom(k + m, k)) \
        - TWO_Q * unit_integral(k + m)
    return apply(eq6_terms(k, m, first=1), unit_integral), right


def sides_thm1_cor(k: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """The displayed m = k+1 specialization, with its printed right side."""
    right = RF_Q * Fraction((-1) ** k, (2 * k + 2) * binom(2 * k + 1, k)) \
        - TWO_Q * unit_integral(2 * k + 1)
    return apply(eq6_terms(k, k + 1, first=1), unit_integral), right


def sides_eq103(k: int) -> Tuple[XPolyQ, XPolyQ]:
    """Even/odd regrouping of the master identity at m = k."""
    return apply(eq103_terms(k), euler_poly), x_power_shift(k, k) * TWO_Q


def sides_thm2(k: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Unit-interval integral of the regrouped identity."""
    right = RF_Q * Fraction((-1) ** (k + 1), (2 * k + 1) * binom(2 * k, k))
    return apply(eq103_terms(k), unit_integral), right


def sides_thm3(k: int, variant: str) -> Tuple[XPolyQ, XPolyQ]:
    """Degree-(2k+1) identity, printed or corrected reading."""
    return apply(degree_2k1_terms(k, variant), euler_poly), x_poly(degree_2k1_rhs(k))


def sides_thm4(k: int, m: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Fermionic moments of the master identity."""
    return (apply(eq6_terms(k, m), fermionic_moment),
            apply(shift_terms(k, m), euler_number) * TWO_Q)


def sides_thm5(k: int, variant: str) -> Tuple[RatFuncQ, RatFuncQ]:
    """Fermionic moments of the degree-(2k+1) identity; exact throughout."""
    return (apply(degree_2k1_rhs(k), euler_number),
            apply(degree_2k1_terms(k, variant), fermionic_moment))


def sides_eq7(n: int) -> Tuple[XPolyQ, XPolyQ]:
    """Derivative rule: d/dx E_n(x) = n E_{n-1}(x)."""
    return euler_poly(n).derivative(), euler_poly(n - 1) * Fraction(n)


def sides_eq8(n: int) -> Tuple[RatFuncQ, RatFuncQ]:
    """Unit-interval integral of E_n(x): termwise antiderivative on the
    left, the closed form on the right."""
    return euler_poly(n).integral01(), -TWO_Q_RECIP * unit_integral(n)


# ---------------------------------------------------------------------------
# p-adic context and sides


BernoulliProvider = Callable[[int], PadicApprox]


class NumericContext(MonomialIntegrals):
    """The p-adic configuration of the numeric identity checks: the
    memoized monomial integrals of ``MonomialIntegrals`` (``ctx(kind, n)``,
    or ``ctx.monomial_integral(kind, n)``), plus a memo of the exact
    values embedded at that configuration."""

    __slots__ = ("_embeds",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._embeds = {}     # exact value -> its PadicApprox

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

    # the memo under its own name, by which perfbench/tracer.py times it
    monomial_integral = MonomialIntegrals.__call__

    def bernoulli(self, n: int) -> PadicApprox:
        """Numeric weight-0 q-Bernoulli number at this context's precision."""
        return self.monomial_integral(KIND_BOSONIC, n).value

    def apply(self, terms: Terms, image: Callable[[int], PadicApprox]
              ) -> PadicApprox:
        """sum embed(coefficient) * image(n) over a term list: each
        coefficient is embedded, multiplied, and added left to right, the
        order the certificate's precision is stated for."""
        return reduce(add, (self.embed(c) * image(n) for c, n in terms))

    def bosonic_moment(self, n: int, bernoulli: BernoulliProvider
                       ) -> PadicApprox:
        """Bosonic moment of E_n(x): sum_l C(n,l) E_{n-l} B_l."""
        return self.apply(monomials(euler_poly(n)), bernoulli)


def sides_thm6(k: int, m: int, ctx: NumericContext,
               bernoulli: Optional[BernoulliProvider] = None
               ) -> Tuple[PadicApprox, PadicApprox]:
    """Bosonic moments of the master identity: exact E values embedded,
    numeric B values from the adaptive integral (or an injected provider,
    used by the degenerate-slice sanity check)."""
    b = bernoulli or ctx.bernoulli
    return (ctx.embed(TWO_Q) * ctx.apply(shift_terms(k, m), b),
            ctx.apply(eq6_terms(k, m), lambda n: ctx.bosonic_moment(n, b)))


def sides_cor7(k: int, variant: str, ctx: NumericContext,
               bernoulli: Optional[BernoulliProvider] = None
               ) -> Tuple[PadicApprox, PadicApprox]:
    """Bosonic moments of the degree-(2k+1) identity.

    Mirrors the fermionic-moment statement with numeric B values replacing
    the inner E factor.  The left side follows the final displayed line,
    which carries no leading (1+q) factor.
    """
    terms = degree_2k1_terms(k, variant)
    b = bernoulli or ctx.bernoulli
    return (ctx.apply(degree_2k1_rhs(k), b),
            ctx.apply(terms, lambda n: ctx.bosonic_moment(n, b)))


def direct_moment(kind: str, poly: XPolyQ, ctx: NumericContext) -> PadicApprox:
    """Numeric moment of an exact polynomial in x under the fermionic or
    bosonic measure, by linearity over the monomial integrals: the
    independent route that integrates a side directly."""
    return ctx.apply(monomials(poly),
                     lambda i: ctx.monomial_integral(kind, i).value)


# ---------------------------------------------------------------------------
# registry and verification driver


@dataclass(frozen=True)
class IdentityInfo:
    sides: Callable                # sides(**params) or sides(**params, ctx=)
    params: Tuple[str, ...]
    mode: str                      # "exact" or "padic"
    minimum: int                   # lower bound for every parameter
    default_range: Dict[str, Tuple[int, int]]
    description: str


REGISTRY: Dict[IdentityId, IdentityInfo] = {
    IdentityId.EQ6: IdentityInfo(
        sides_eq6, ("k", "m"), "exact", 0, {"k": (0, 8), "m": (0, 8)},
        "master polynomial identity: weighted sum of E_{k+m-j}(x) equals "
        "(1+q) x^k (x-1)^m"),
    IdentityId.THM1: IdentityInfo(
        sides_thm1, ("k", "m"), "exact", 1, {"k": (1, 8), "m": (1, 8)},
        "unit-interval integral of the master identity, via exact beta values"),
    IdentityId.THM1_COR: IdentityInfo(
        sides_thm1_cor, ("k",), "exact", 1, {"k": (1, 8)},
        "the m = k+1 specialization of the integrated identity"),
    IdentityId.EQ103: IdentityInfo(
        sides_eq103, ("k",), "exact", 1, {"k": (1, 8)},
        "even/odd regrouping of the master identity at m = k"),
    IdentityId.THM2: IdentityInfo(
        sides_thm2, ("k",), "exact", 1, {"k": (1, 10)},
        "unit-interval integral of the regrouped identity"),
    IdentityId.THM3_PRINTED: IdentityInfo(
        partial(sides_thm3, variant="printed"), ("k",), "exact", 1,
        {"k": (1, 4)},
        "degree-(2k+1) identity as typeset (suspect bounds and subscripts)"),
    IdentityId.THM3_CORRECTED: IdentityInfo(
        partial(sides_thm3, variant="corrected"), ("k",), "exact", 1,
        {"k": (1, 6)},
        "degree-(2k+1) identity re-derived from EQ6 at (k, k+1) plus "
        "EQ103/(1+q)"),
    IdentityId.THM4: IdentityInfo(
        sides_thm4, ("k", "m"), "exact", 1, {"k": (1, 6), "m": (1, 6)},
        "fermionic moments of the master identity: double E-sum equals "
        "(1+q) alternating E-sum"),
    IdentityId.THM5_PRINTED: IdentityInfo(
        partial(sides_thm5, variant="printed"), ("k",), "exact", 1,
        {"k": (1, 4)},
        "fermionic moments of the degree-(2k+1) identity, printed reading"),
    IdentityId.THM5_CORRECTED: IdentityInfo(
        partial(sides_thm5, variant="corrected"), ("k",), "exact", 1,
        {"k": (1, 4)},
        "fermionic moments of the corrected degree-(2k+1) identity"),
    IdentityId.THM6: IdentityInfo(
        sides_thm6, ("k", "m"), "padic", 1, {"k": (1, 3), "m": (1, 3)},
        "bosonic moments of the master identity, mixing exact E with "
        "numeric B values"),
    IdentityId.COR7_PRINTED: IdentityInfo(
        partial(sides_cor7, variant="printed"), ("k",), "padic", 1,
        {"k": (1, 3)},
        "bosonic moments of the degree-(2k+1) identity, printed reading"),
    IdentityId.COR7_CORRECTED: IdentityInfo(
        partial(sides_cor7, variant="corrected"), ("k",), "padic", 1,
        {"k": (1, 3)},
        "bosonic moments of the corrected degree-(2k+1) identity"),
    IdentityId.EQ7: IdentityInfo(
        sides_eq7, ("n",), "exact", 1, {"n": (1, 12)},
        "derivative rule: d/dx E_n(x) = n E_{n-1}(x)"),
    IdentityId.EQ8: IdentityInfo(
        sides_eq8, ("n",), "exact", 0, {"n": (0, 12)},
        "unit-interval integral closed form: -(1+q)/q * E_{n+1}/(n+1)"),
}


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


def _mode(identity: IdentityId, ctx: Optional[NumericContext]) -> str:
    """The report's mode: "exact", or the p-adic configuration used."""
    if REGISTRY[identity].mode == "exact":
        return "exact"
    return f"padic(p={ctx.p},q={ctx.q},K={ctx.target})"


def verify(identity: IdentityId, params: Dict[str, int],
           ctx: Optional[NumericContext] = None) -> VerificationResult:
    """Compute both sides, subtract, and classify the verdict.

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

    start = time.monotonic()
    if info.mode == "exact":
        left, right = info.sides(**params)
        cert = left - right
        verdict = HOLDS if cert.is_zero else FAILS
    else:
        if ctx is None:
            raise ValueError(f"{identity.value} needs a numeric context")
        left, right = info.sides(**params, ctx=ctx)
        cert = left - right
        if not cert.is_zero and cert.valuation < ctx.target:
            verdict = FAILS
        elif cert.abs_precision >= ctx.target:
            verdict = HOLDS_TO_PRECISION
        else:
            verdict = ERROR
    elapsed = time.monotonic() - start
    return VerificationResult(identity, dict(params), _mode(identity, ctx),
                              verdict, cert, str(cert), elapsed)


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
    results.sort(key=VerificationResult.sort_key)
    return results
