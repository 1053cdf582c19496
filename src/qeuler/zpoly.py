"""Integer polynomials at the bottom of the exact stack: the numerators of
the weight-0 q-Euler numbers over Z[q], the exact division by (1 + q)
that reduces every value of the exact layers, and the one polynomial
renderer.

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
from math import comb
from typing import Tuple

from .errors import PoleError

_lock = threading.Lock()
_numerators: list = [(1,)]      # N_n, ascending integer coefficients


def euler_numerator(n: int) -> Tuple[int, ...]:
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


def bracket_power(n: int) -> Tuple[int, ...]:
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
    """Ascending-power rendering with explicit signs, e.g. ``-q + q^2``;
    the coefficients are ints or Fractions."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            if mag == 1:
                body = power
            elif mag.denominator == 1:
                body = f"{mag}{power}"
            else:
                body = f"({mag}){power}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


def euler_number_str(n: int) -> str:
    """E[n] rendered as its canonical rational function N_n/(1+q)^n."""
    if n == 0:
        return "1"
    return f"({fmt_poly(euler_numerator(n))})/({fmt_poly(bracket_power(n))})"


def horner_int(coeffs, a: int, b: int) -> int:
    """sum_i c_i a^i b^(d-i) for the integers c_0, ..., c_d: the value of
    sum_i c_i q^i at q = a/b times b^d, by Horner's rule over the
    integers."""
    acc, b_power = 0, 1         # b_power = b^(d-i) at coefficient c_i
    for c in reversed(coeffs):
        acc = acc * a + c * b_power
        b_power *= b
    return acc


def euler_number_at(n: int, q0: Fraction) -> Fraction:
    """E[n] at the rational q0 = a/b, by Horner over the integers:

        E[n](a/b) = sum_i c_i a^i b^(d-i) * b^n / (b^d * (a + b)^n)

    with N_n = sum_i c_i q^i of degree d.  Raises PoleError at q0 = -1
    for n >= 1."""
    a, b = q0.numerator, q0.denominator
    den = (a + b) ** n
    if den == 0:
        raise PoleError(f"denominator vanishes at q = {q0}")
    coeffs = euler_numerator(n)
    return Fraction(horner_int(coeffs, a, b) * b ** n,
                    b ** (len(coeffs) - 1) * den)
