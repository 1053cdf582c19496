"""Independent oracles for the qeuler benchmark.

Nothing here imports qeuler.  The exact side uses the umbral recurrence

    (1 + r) * E[n] + r * sum_{l<n} C(n, l) * E[l] = 0,    E[0] = 1,

evaluated directly in Fractions at a rational r, and the shifted value
E_n(x0) = sum_l C(n, l) * x0^(n-l) * E[l].  The numeric side recomputes a
bosonic Riemann level sum term by term:

    S_N = sum_{xi < p^N} (x0 + xi)^n q^xi  /  sum_{xi < p^N} q^xi.

p-adic values printed by the CLI ("u*p^v + O(p^A)") are compared with an
oracle value modulo p^A.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

# Brute level sums above this many terms are too slow to run per op.
AFFORDABLE_TERMS = 80_000


def euler_numbers_at(r: Fraction, n_max: int) -> list:
    """E[0..n_max] evaluated at q = r, from the recurrence in Fractions."""
    r = Fraction(r)
    if r == -1:
        raise ZeroDivisionError("E[n] has a pole at q = -1")
    table = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(comb(n, l) * table[l] for l in range(n))
        table.append(-r * s / (1 + r))
    return table


def euler_poly_at(n: int, x0: Fraction, r: Fraction) -> Fraction:
    """E_n(x0) at q = r: the value of the fermionic integral of (x0+xi)^n."""
    e = euler_numbers_at(r, n)
    x0 = Fraction(x0)
    return sum(comb(n, l) * x0 ** (n - l) * e[l] for l in range(n + 1))


def valuation(x: Fraction, p: int) -> float:
    if x == 0:
        return float("inf")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


_PADIC = re.compile(
    r"^(?:(?P<u>\d+)(?:\*(?P<p1>\d+)\^(?P<v>-?\d+))? \+ )?"
    r"O\((?P<p2>\d+)\^(?P<a>-?\d+)\)$")


def parse_padic(text: str, p: int):
    """Parse the CLI's p-adic form into (value as Fraction, absolute exponent)."""
    m = _PADIC.match(text.strip())
    if m is None or int(m["p2"]) != p or (m["p1"] and int(m["p1"]) != p):
        raise ValueError(f"not a {p}-adic value: {text!r}")
    value = Fraction(0)
    if m["u"] is not None:
        value = Fraction(int(m["u"])) * Fraction(p) ** int(m["v"] or 0)
    return value, int(m["a"])


def agrees(text: str, exact: Fraction, p: int, abs_exp: int = None) -> bool:
    """True when the printed p-adic value equals `exact` modulo p^abs_exp
    (default: the value's own stated absolute precision)."""
    value, a = parse_padic(text, p)
    if abs_exp is None:
        abs_exp = a
    return valuation(Fraction(exact) - value, p) >= abs_exp


def _residue(r: Fraction, modulus: int) -> int:
    return r.numerator * pow(r.denominator, -1, modulus) % modulus


def bosonic_level_agrees(text: str, n: int, x0: Fraction, p: int,
                         q: Fraction, level: int, abs_exp: int = None) -> bool:
    """Compare a printed value with the level-`level` bosonic sum, brute force.

    Numerator and bracket are summed modulo p^W with W large enough that
    dividing out the bracket's valuation leaves abs_exp digits to compare.
    """
    value, a = parse_padic(text, p)
    if abs_exp is None:
        abs_exp = a
    if abs_exp <= 0:
        return True
    vv = 0 if value == 0 else valuation(value, p)
    w = abs_exp + 2 * level + 4 + max(0, -int(vv))
    mod = p ** w
    t, x = _residue(Fraction(q), mod), _residue(Fraction(x0), mod)
    num = bracket = 0
    tp = 1
    for xi in range(p ** level):
        num = (num + pow(x + xi, n, mod) * tp) % mod
        bracket = (bracket + tp) % mod
        tp = tp * t % mod
    e = valuation(Fraction(bracket), p)
    if e >= w:
        raise ArithmeticError("bracket vanishes at the working modulus")
    # value == num / bracket  <=>  num - value * bracket == 0, compared
    # modulo p^(abs_exp + e), where both sides are still known exactly.
    diff = Fraction(num) - value * bracket
    return valuation(diff, p) >= abs_exp + e


def self_check() -> None:
    """Hand values the oracles must reproduce; raises AssertionError."""
    for r in (Fraction(2), Fraction(-3, 7), Fraction(5, 2)):
        e = euler_numbers_at(r, 2)
        if e[1] != -r / (1 + r) or e[2] != r * (r - 1) / (1 + r) ** 2:
            raise AssertionError(f"E[1], E[2] wrong at q={r}")
    # q -> 1: the classical Euler-polynomial values E_n(0)
    classical = [1, Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-1, 2), 0,
                 Fraction(17, 8)]
    if euler_numbers_at(Fraction(1), 7) != classical:
        raise AssertionError("q -> 1 limit is not the classical Euler numbers")
    if euler_poly_at(1, Fraction(1), Fraction(1)) != Fraction(1, 2):
        raise AssertionError("E_1(1) at q = 1 is not 1/2")
    # level 1, p = 3, q = 4: (0 + 1*4 + 2*16) / (1 + 4 + 16) = 12/7
    if not bosonic_level_agrees("313*3^1 + O(3^8)", 1, Fraction(0), 3,
                                Fraction(4), 1):
        raise AssertionError("brute bosonic level sum disagrees with 12/7")
    if bosonic_level_agrees("314*3^1 + O(3^8)", 1, Fraction(0), 3,
                            Fraction(4), 1):
        raise AssertionError("brute bosonic level sum accepts a wrong value")
    if not agrees("1*3^-1 + O(3^2)", Fraction(28, 3), 3):
        raise AssertionError("p-adic comparison rejects 28/3 = 1/3 + 3^2")
    if agrees("1*3^-1 + O(3^2)", Fraction(10, 3), 3):
        raise AssertionError("p-adic comparison accepts 10/3 = 1/3 + 3")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
