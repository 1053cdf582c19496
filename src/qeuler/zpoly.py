"""Integer polynomials at the bottom of the exact stack: the numerators of
the weight-0 q-Euler numbers over Z[q], and the one polynomial renderer.

The number table E[n] is driven by the umbral recurrence

    (1 + q) * E[n] + q * sum_{l<n} C(n, l) * E[l] = 0,      E[0] = 1.

Multiplied by (1 + q)^(n-1) it becomes a recurrence over Z[q] for the
numerators N_n = (1 + q)^n * E[n]:

    N_n = -q * sum_{l<n} C(n, l) * (1 + q)^(n-1-l) * N_l,      N_0 = 1.

At q = -1 only the l = n - 1 term survives, so N_n(-1) = n * N_{n-1}(-1)
= n!, which is nonzero: (1 + q) never divides N_n, and the denominator of
E[n] in lowest terms is exactly (1 + q)^n.  So E[n] is rendered and
evaluated here from integers alone; this module imports no exact layer.

The table is memoized; fills are pure and idempotent, so concurrent
readers under the GIL are safe.
"""

from __future__ import annotations

import threading
from fractions import Fraction
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
            m = len(_numerators)
            # Horner in (1 + q): acc = sum_{l<m} C(m, l) (1+q)^(m-1-l) N_l
            acc: list = []
            for l in range(m):
                acc = [a + b for a, b in zip(acc + [0], [0] + acc)]
                c = comb(m, l)
                for i, x in enumerate(_numerators[l]):
                    acc[i] += c * x
            _numerators.append((0, *[-a for a in acc]))
    return _numerators[n]


def bracket_power(n: int) -> Tuple[int, ...]:
    """(1 + q)^n as ascending integer coefficients."""
    return tuple(comb(n, i) for i in range(n + 1))


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
    acc, b_power = 0, 1         # b_power = b^(d-i) at coefficient c_i
    for c in reversed(coeffs):
        acc = acc * a + c * b_power
        b_power *= b
    return Fraction(acc * b ** n, b ** (len(coeffs) - 1) * den)
