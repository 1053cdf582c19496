"""Independent routes the tests check the library against.  None of them
is needed to compute anything, so they live here rather than in the
package."""

from fractions import Fraction
from functools import reduce
from math import comb, inf
from operator import add

from qeuler.exactarith import RF_ONE, PolyQ, RatFuncQ, XPolyQ
from qeuler.identities import sides_eq103, sides_eq6, sides_thm3
from qeuler.padic import PadicApprox
from qeuler.qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    IntegralRequest,
    IntegralResult,
    _normalizer,
    _residue_of_rational,
    integrate,
)
from qeuler.qspecial import (
    TWO_Q,
    TWO_Q_RECIP,
    DomainError,
    euler_number,
    euler_poly,
)


class InternalInconsistency(RuntimeError):
    """Two routes that must agree produced different values (a code bug)."""


# -- exact sums ------------------------------------------------------------------

def folded_apply(terms, image):
    """sum coefficient * image(n) over a non-empty term list, each product
    reduced on its own and added pairwise left to right: the reference
    for the one-reduction sum of identities.apply."""
    return reduce(add, (image(n) * c for c, n in terms))


# -- polynomials in x ---------------------------------------------------------

def shifted(poly: XPolyQ, c) -> XPolyQ:
    """Compose with the shift x -> x + c."""
    shift = XPolyQ([c, RF_ONE])
    acc = XPolyQ.zero()
    for coef in reversed(poly.coeffs):
        acc = acc * shift + coef
    return acc


def evaluate_point(poly: XPolyQ, x0, q0) -> Fraction:
    return poly.evaluate(Fraction(x0)).evaluate(q0)


# -- the exact tables ---------------------------------------------------------

def euler_poly_integral01(n: int):
    """Integral of the nth q-Euler polynomial over [0, 1].

    Computed two independent ways, the termwise antiderivative and the
    closed form -(1+q)/q * E[n+1] / (n+1); raises InternalInconsistency if
    they disagree (they cannot, unless the implementation is broken).
    """
    termwise = euler_poly(n).integral01()
    closed = -TWO_Q_RECIP * euler_number(n + 1) * Fraction(1, n + 1)
    if termwise != closed:
        raise InternalInconsistency(
            f"unit-interval integral routes disagree at n={n}: "
            f"{termwise} vs {closed}"
        )
    return termwise


def accumulated_euler_numbers(n_max):
    """E[0..n_max] by the umbral recurrence in RatFuncQ arithmetic, every
    partial sum renormalised: the oracle for the integer table fill."""
    numbers = [RatFuncQ.one()]
    factor = RatFuncQ(PolyQ((0, -1)), PolyQ((1, 1)))   # -q/(1+q)
    for m in range(1, n_max + 1):
        s = RatFuncQ.zero()
        for l in range(m):
            s = s + numbers[l] * Fraction(comb(m, l))
        numbers.append(s * factor)
    return numbers


def horner_euler_numerators(n_max):
    """N_0..N_n_max, N_n = (1 + q)^n E[n], by the umbral recurrence over
    Z[q], N_n = -q sum_{l<n} C(n, l) (1 + q)^(n-1-l) N_l, with a Horner
    pass in (1 + q): the reference for the Eulerian row recurrence."""
    rows = [(1,)]
    for m in range(1, n_max + 1):
        acc = []
        for l in range(m):
            acc = [a + b for a, b in zip(acc + [0], [0] + acc)]
            c = comb(m, l)
            for i, x in enumerate(rows[l]):
                acc[i] += c * x
        rows.append((0, *[-a for a in acc]))
    return rows


_classical = [Fraction(1)]


def classical_euler_number(n: int) -> Fraction:
    """Euler-polynomial-at-zero numbers from the classical recurrence
    sum_{l<=n} C(n, l) E_l + E_n = 0 (n >= 1), E_0 = 1.

    Deliberately independent of euler_number: this is the q -> 1 oracle.
    """
    if n < 0:
        raise DomainError("index must be >= 0")
    while len(_classical) <= n:
        m = len(_classical)
        s = sum(comb(m, l) * _classical[l] for l in range(m))
        _classical.append(-s / 2)
    return _classical[n]


# -- identity sides by other routes -------------------------------------------

def thm3_construction_residual(k: int) -> XPolyQ:
    """left(corrected) - [left(EQ6 at (k, k+1)) + left(EQ103 at k)/(1+q)];
    identically zero by construction."""
    corrected_left = sides_thm3(k, "corrected")[0]
    eq6_left = sides_eq6(k, k + 1)[0]
    eq103_left = sides_eq103(k)[0]
    return corrected_left - (eq6_left + eq103_left * (RF_ONE / TWO_Q))


def thm1_independent_route(k: int, m: int):
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


# -- numeric numbers ----------------------------------------------------------

def brute_level(req: IntegralRequest, level: int) -> PadicApprox:
    """Independent oracle: the level-N sum term by term over all p^N terms,
    at the same working modulus and normalizer as riemann_level."""
    p = req.p
    work = req.working_exponent(level)
    modulus = p ** work
    t = req.q if req.bosonic else -req.q
    t_res = _residue_of_rational(t, p, modulus)
    x0_res = _residue_of_rational(req.shift, p, modulus)
    acc, tp = 0, 1
    for xi in range(p ** level):
        acc = (acc + pow((x0_res + xi) % modulus, req.exponent, modulus) * tp) % modulus
        tp = tp * t_res % modulus
    summed = PadicApprox.from_residue(acc, p, work)
    return summed / _normalizer(req, level, work)


def bernoulli_number_padic(n: int, p: int = 3, q=None, target: int = 4,
                           **kwargs) -> PadicApprox:
    """The nth weight-0 q-Bernoulli number: bosonic integral of xi^n.

    Defined only as a Riemann-sum limit; propagates ConvergenceNotReached.
    """
    if q is None:
        q = Fraction(1 + p)
    req = IntegralRequest(KIND_BOSONIC, n, Fraction(0), p, q, target, **kwargs)
    return integrate(req).value


def euler_number_padic(n: int, p: int = 3, q=None, target: int = 4,
                       **kwargs) -> PadicApprox:
    """The nth weight-0 q-Euler number, numerically: fermionic integral of
    xi^n.  Cross-checks the exact table when q is embedded."""
    if q is None:
        q = Fraction(1 + p)
    req = IntegralRequest(KIND_FERMIONIC, n, Fraction(0), p, q, target, **kwargs)
    return integrate(req).value


# -- the cache encoding ---------------------------------------------------------

def ratfunc_to_obj(f: RatFuncQ) -> dict:
    """The cache encoding of E[n], taken from a RatFuncQ: the ascending
    coefficients of its numerator and of its expanded denominator."""
    return {"num": [str(c) for c in f.num.coeffs],
            "den": [str(c) for c in f.den.coeffs]}


def padic_from_dict(d: dict) -> PadicApprox:
    if d.get("zero"):
        return PadicApprox.zero(d["p"], d["abs_precision"])
    return PadicApprox(d["p"], d["valuation"], d["unit"], d["precision"])


def integral_result_from_dict(d: dict) -> IntegralResult:
    """The IntegralResult that ResultCache.put_integral encoded."""
    trace = tuple(
        (row["level"], padic_from_dict(row["value"]),
         inf if row["distance"] == "inf" else row["distance"])
        for row in d["trace"]
    )
    return IntegralResult(
        value=padic_from_dict(d["value"]),
        achieved_precision=d["achieved_precision"],
        levels_used=d["levels_used"],
        converged=d["converged"],
        trace=trace,
    )
