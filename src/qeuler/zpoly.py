"""Integer polynomials at the bottom of the exact stack: the numerators of
the weight-0 q-Euler numbers over Z[q], the exact division by (1 + q)
that reduces every value of the exact layers, and the one printer and
the one evaluator of a value N/(q^a (1+q)^b) with N a polynomial over Q.

The number table E[n] is driven by the umbral recurrence

    (1 + q) * E[n] + q * sum_{l<n} C(n, l) * E[l] = 0,      E[0] = 1,

whose generating function (1 + q)/(q e^t + 1) is the Frobenius-Euler
function (1 - u)/(e^t - u) at u = -1/q.  Carlitz's H_n(u) = A_n(u)/(u - 1)^n
and the Eulerian symmetry make the numerators N_n = (1 + q)^n * E[n]
Eulerian polynomials (L. Carlitz, "Eulerian numbers and polynomials",
Math. Mag. 32 (1959) 247-260):

    N_n = -q * A_n(-q),     A_n(t) = sum_{k<n} A(n, k) t^k     (n >= 1),

with A(n, k) = (k + 1) A(n-1, k) + (n - k) A(n-1, k-1).  With the signs
folded in, the coefficient of q^i is, starting from N_0 = 1,

    N_n[i] = i * N_{n-1}[i] - (n + 1 - i) * N_{n-1}[i-1],     1 <= i <= n,

so a row costs O(n) integer operations.  N_n(-1) = A_n(1) = n! is nonzero:
(1 + q) never divides N_n, and the denominator of E[n] in lowest terms is
exactly (1 + q)^n.  So E[n] is rendered and evaluated here from integers
alone; this module imports no exact layer.

The table is memoized; fills are pure and idempotent, so concurrent
readers under the GIL are safe.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .errors import PoleError

_lock = threading.Lock()
_numerators: list = [(1,)]      # N_n, ascending integer coefficients


def euler_numerator(n: int) -> tuple[int, ...]:
    """N_n = (1 + q)^n * E[n] as ascending integer coefficients."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n < len(_numerators):
        return _numerators[n]
    with _lock:
        while len(_numerators) <= n:
            m, prev = len(_numerators), _numerators[-1] + (0,)
            _numerators.append((0, *[i * prev[i] - (m + 1 - i) * prev[i - 1]
                                     for i in range(1, m + 1)]))
    return _numerators[n]


def bracket_power(n: int) -> tuple[int, ...]:
    """(1 + q)^n as ascending integer coefficients."""
    return tuple(comb(n, i) for i in range(n + 1))


def strip_bracket(coeffs, b: int):
    """Divide the nonzero integer polynomial ``coeffs`` (ascending) by
    (1 + q) while b > 0 and it vanishes at q = -1, lowering b by one for
    each factor; returns (coeffs, b).

    The division is exact over Z because 1 + q is monic: the quotient's
    coefficients are the alternating running sums c_i - c_(i-1) + ....
    """
    # num(-1) = 0 exactly when the even and odd coefficients have equal sums
    while b and sum(coeffs[::2]) == sum(coeffs[1::2]):
        coeffs = list(accumulate(coeffs[:-1], lambda acc, c: c - acc))
        b -= 1
    return coeffs, b


def fmt_poly(coeffs, var: str = "q") -> str:
    """Ascending-power rendering with explicit signs, e.g. ``-q + q^2``.
    A coefficient is an int or a Fraction, or a str: the rendering of a
    coefficient that is not rational, printed in parentheses after a
    plus sign."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if type(c) is str:
            negative, mag = False, f"({c})"
        elif c:
            negative, mag = c < 0, abs(c)
        else:
            continue
        if i == 0:
            body = str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            if mag == 1:
                body = power
            elif type(mag) is str or mag.denominator == 1:
                body = f"{mag}{power}"
            else:
                body = f"({mag}){power}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def fmt_ratio(coeffs, a: int, b: int) -> str:
    """N/(q^a (1+q)^b) rendered with the denominator expanded, e.g.
    ``(-q)/(1 + q)``; N alone when a = b = 0."""
    if not (a or b):
        return fmt_poly(coeffs)
    den = (0,) * a + bracket_power(b)
    return f"({fmt_poly(coeffs)})/({fmt_poly(den)})"


def euler_number_str(n: int) -> str:
    """E[n] rendered as its canonical rational function N_n/(1+q)^n."""
    return fmt_ratio(euler_numerator(n), 0, n)


def ratio_at(coeffs, a: int, b: int, q0) -> Fraction:
    """N/(q^a (1+q)^b) at the rational q0 = u/w, for N = sum_i c_i q^i
    of degree d with int or Fraction coefficients, by Horner's rule over
    the integers:

        N(u/w) / ((u/w)^a (1 + u/w)^b)
            = sum_i D c_i u^i w^(d-i) * w^(a+b) / (D w^d u^a (u + w)^b)

    with D the lcm of the denominators of the c_i; one Fraction is built
    at the end.  Raises PoleError at q0 = 0 when a > 0 and at q0 = -1
    when b > 0."""
    u, w = q0.numerator, q0.denominator
    den = u ** a * (u + w) ** b
    if den == 0:
        raise PoleError(f"denominator vanishes at q = {q0}")
    lcd = lcm(*(c.denominator for c in coeffs))
    acc, w_power = 0, 1         # w_power = w^(d-i) at coefficient c_i
    for c in reversed(coeffs):
        acc = acc * u + c.numerator * (lcd // c.denominator) * w_power
        w_power *= w
    return Fraction(acc * w ** (a + b),
                    lcd * den * w ** max(len(coeffs) - 1, 0))


def euler_number_at(n: int, q0: Fraction) -> Fraction:
    """E[n] = N_n/(1+q)^n at the rational q0; raises PoleError at
    q0 = -1 for n >= 1."""
    return ratio_at(euler_numerator(n), 0, n, q0)
