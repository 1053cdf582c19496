"""The weight-0 q-Euler numbers and polynomials.

The number table is E[n] = N_n / (1 + q)^n, with the integer numerators
N_n of :mod:`qeuler.zpoly`, built by ``RatFuncQ.over_bracket``; since
(1 + q) never divides N_n, each entry is the triple (N_n, 0, n), with the
int coefficients of N_n.

The polynomial table is the binomial convolution

    E_n(x) = sum_{l<=n} C(n, l) * x^l * E[n - l],

whose coefficients C(n, l) * N_{n-l} / (1 + q)^(n-l) are built the same
way, with int numerator coefficients as well.

Both are ``functools.cache`` functions over the one integer table,
:func:`qeuler.zpoly.euler_numerator`: an entry is built from its own
numerator rows on first use, and no table is kept here.  The one other
value, ``TWO_Q_RECIP`` = (1 + q)/q, is built from its triple
((1, 1), 1, 0).
"""

from __future__ import annotations

from functools import cache
from math import comb

from .exactarith import RatFuncQ, XPolyQ
from .zpoly import euler_numerator


class DomainError(ValueError):
    """Argument outside the integer domain an operation is defined on."""


def binom(n: int, r: int) -> int:
    """Binomial coefficient with C(n, r) = 0 for r < 0 or r > n.

    The zero convention is load-bearing: identity summations rely on it to
    make printed bounds and full-range bounds interchangeable.
    """
    if r < 0 or r > n or n < 0:
        return 0
    return comb(n, r)


TWO_Q_RECIP = RatFuncQ((1, 1), 1)   # (1 + q)/q

@cache
def euler_number(n: int) -> RatFuncQ:
    """The nth weight-0 q-Euler number as a reduced rational function.

    E[0] = 1, E[1] = -q/(1+q), E[2] = q(q-1)/(1+q)^2, ...; the denominator
    of E[n] is exactly (1+q)^n, because its numerator takes the value n!
    at q = -1.
    """
    if n < 0:
        raise DomainError("index must be >= 0")
    return RatFuncQ.over_bracket(euler_numerator(n), n)


@cache
def euler_poly(n: int) -> XPolyQ:
    """The nth weight-0 q-Euler polynomial: binomial convolution of the
    number table against powers of x.  Monic of degree n in x; its constant
    term is euler_number(n)."""
    if n < 0:
        raise DomainError("index must be >= 0")
    return XPolyQ(RatFuncQ.over_bracket(
        [comb(n, l) * c for c in euler_numerator(n - l)], n - l)
        for l in range(n + 1))
