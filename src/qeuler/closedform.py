"""The closed form of the weight-0 q-Bernoulli numbers: B_n = a + b/log_p q
with a and b exact rationals in the q-Euler numbers at -q (T. Kim,
"q-Volkenborn integration", Russ. J. Math. Phys. 9 (2002) 288-299), and
its embedding to a proven number of p-adic digits.

``log_p`` gives the p-adic logarithm of q to a proven number of digits.

This layer sits between ``padic`` and ``identities``.  ``verify`` and
``report`` load it; ``integrate`` and ``numbers bernoulli``, which answer
from Riemann levels, do not.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import PadicApprox, rational_valuation
from .zpoly import euler_number_at


def log_p(q: Fraction, p: int, precision: int) -> Fraction:
    """A rational l with v_p(log_p q - l) >= precision, for an odd prime p
    and a rational q with v = v_p(q - 1) >= 1.

    log_p q = sum_{k>=1} (-1)^(k+1) (q - 1)^k / k, and l is the sum of the
    terms before the first k with k v - log_p k >= precision.  Term k has
    valuation k v - v_p(k) >= k v - log_p k =: f(k), and f grows with k
    (f'(k) = v - 1/(k ln p) > 0, as v >= 1 and ln p > 1), so every term
    left out has valuation at least precision, and so has their sum.  The
    test k v - log_p k >= precision is made in integers, as
    p^(k v - precision) >= k with k v >= precision.  The first term has
    valuation v and every other term more ((k - 1) v > log_p k for
    k >= 2), so v_p(log_p q) = v.
    """
    x = q - 1
    v = rational_valuation(x, p)
    if v < 1:
        raise ValueError("log_p needs v_p(q - 1) >= 1")
    total, power, k = Fraction(0), Fraction(1), 1
    while k * v < precision or p ** (k * v - precision) < k:
        power *= x
        total += power / k if k % 2 else -power / k
        k += 1
    return total


def bernoulli_pair(n: int, q: Fraction) -> tuple[Fraction, Fraction]:
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


def at_precision(a: Fraction, b: Fraction, p: int, q: Fraction,
                 precision: int) -> PadicApprox:
    """a + b/log_p q, for rationals a and b (b = 0 when q = 1), known
    modulo p^precision: the zero known to precision digits when its
    valuation is at least precision.

    Proof of the bound, for any rational b != 0.  With v = v_p(q - 1) >= 1,
    L = log_p q and l = ``log_p(q, p, D)``, v_p(L - l) >= D, and
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
