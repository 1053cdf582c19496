"""Independent routes the tests check the library against.  None of them
is needed to compute anything, so they live here rather than in the
package."""

from contextlib import contextmanager
from fractions import Fraction
from functools import cache, reduce
from itertools import zip_longest
from math import comb, factorial, inf, lcm

from qeuler.exactarith import (
    RF_ONE,
    RF_Q,
    RF_ZERO,
    RatFuncQ,
    XPolyQ,
    sum_products,
)
from qeuler import identities
from qeuler.identities import (
    REGISTRY,
    IdentityId,
    NumericContext,
    _columns,
    _degree,
    fermionic_moment,
    images,
    monomials,
    unit_integral,
)
from qeuler.closedform import at_precision, bernoulli_pair
from qeuler.padic import PadicApprox, check_config
from qeuler.qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    ConvergenceNotReached,
    IntegralRequest,
    IntegralResult,
    _residue_of_rational,
    integrate,
)
from qeuler.qspecial import TWO_Q_RECIP, DomainError, euler_number, euler_poly
from qeuler.zpoly import bracket_power

class InternalInconsistency(RuntimeError):
    """Two routes that must agree produced different values (a code bug)."""


# -- an independent R -----------------------------------------------------------
#
# The package computes in R only by term-list sums (exactarith.sum_products).
# The ring operations here take another road: a value is an integer
# numerator and denominator list, two values are combined by multiplying
# across (n1 d2 + n2 d1 over d1 d2, n1 n2 over d1 d2), and the result is made
# canonical by synthetic division (canonical_by_division), so no reduction
# code is shared with the package.  A polynomial in q is the tuple of its
# rational coefficients, ascending.  Polynomials in q combine as
# polynomials, and polynomials in x coefficient by coefficient.

def _trim(cs) -> tuple:
    """The coefficients cs without their trailing zeros."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def rf(num, den=(1,)) -> RatFuncQ:
    """The value num/den of R, written by hand: num and den are coefficient
    tuples, and den is a unit c q^a (1+q)^b.  It is made canonical by
    canonical_by_division and stored as it comes out, so no reduction of
    the package touches it."""
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    a = 0
    while den[a] == 0:
        a += 1
    c, b = den[a], len(den) - 1 - a
    if den[a:] != tuple(c * x for x in bracket_power(b)):
        raise ValueError(f"{den} is not a unit c q^a (1+q)^b")
    num, a, b = canonical_by_division([Fraction(x) / c for x in num], a, b)
    return RatFuncQ._raw(num, a, b)


Q = (0, 1)
ONE_PLUS_Q = (1, 1)


def _lists(v) -> tuple:
    """(numerator, denominator) integer coefficient lists of a value of R:
    num / (q^a (1+q)^b), its rationals over their lcm d, is
    (d num) / (d q^a (1+q)^b), the denominator expanded."""
    if isinstance(v, RatFuncQ):
        num, a, b = v.num, v.a, v.b
    else:
        num, a, b = (v if isinstance(v, tuple) else (v,)), 0, 0
    d = lcm(*(c.denominator for c in num))
    return ([c.numerator * (d // c.denominator) for c in num],
            [0] * a + [d * c for c in bracket_power(b)])


def _times(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _plus(a: list, b: list) -> list:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _kind(*values) -> type:
    """XPolyQ if any operand is one, else RatFuncQ if any is one, else a
    polynomial in q (a tuple) if any is one; two scalars give a RatFuncQ."""
    for kind in (XPolyQ, RatFuncQ, tuple):
        if any(isinstance(v, kind) for v in values):
            return kind
    return RatFuncQ


def _made(kind: type, num: list, den: list):
    if kind is tuple:
        return _trim(Fraction(c, den[0]) for c in num)   # den is constant
    return rf(num, den)


def add(x, y):
    """x + y."""
    if _kind(x, y) is XPolyQ:
        f, g = (v.coeffs if isinstance(v, XPolyQ) else (v,) for v in (x, y))
        return XPolyQ([add(a, b) for a, b in zip_longest(f, g, fillvalue=RF_ZERO)])
    (n1, d1), (n2, d2) = _lists(x), _lists(y)
    return _made(_kind(x, y), _plus(_times(n1, d2), _times(n2, d1)), _times(d1, d2))


def sub(x, y):
    """x - y."""
    return add(x, mul(y, -1))


def mul(x, y):
    """x * y; a scalar of R times a polynomial in x scales each coefficient."""
    if _kind(x, y) is XPolyQ:
        if not isinstance(x, XPolyQ):
            x, y = y, x
        if not isinstance(y, XPolyQ):
            return XPolyQ([mul(c, y) for c in x.coeffs])
        out = [RF_ZERO] * (len(x.coeffs) + len(y.coeffs))
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                out[i + j] = add(out[i + j], mul(a, b))
        return XPolyQ(out)
    (n1, d1), (n2, d2) = _lists(x), _lists(y)
    return _made(_kind(x, y), _times(n1, n2), _times(d1, d2))


def power(x, e: int):
    """x^e for e >= 0, by repeated multiplication."""
    acc = ((1,) if isinstance(x, tuple)
           else RF_ONE if isinstance(x, RatFuncQ) else XPolyQ((1,)))
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def unit(a: int, b: int) -> tuple:
    """q^a (1+q)^b expanded, by repeated multiplication: the denominator
    of the value (num, a, b) of R."""
    return mul(power(Q, a), power(ONE_PLUS_Q, b))


def total(values):
    """The sum of a non-empty iterable, added pairwise left to right."""
    return reduce(add, values)


def folded_apply(terms, image):
    """sum coefficient * image(n) over a non-empty term list, each product
    made on its own and added pairwise left to right: the reference for the
    term-list sum exactarith.sum_products."""
    return total(mul(image(n), c) for c, n in terms)


def x_derivative(poly: XPolyQ) -> XPolyQ:
    """Coefficient-wise d/dx."""
    return XPolyQ([mul(c, i) for i, c in enumerate(poly.coeffs)][1:])


def x_integral01(poly: XPolyQ) -> RatFuncQ:
    """Integral over the unit interval: the sum of c_i / (i + 1)."""
    return total([RF_ZERO] + [mul(c, Fraction(1, i + 1))
                              for i, c in enumerate(poly.coeffs)])


def x_evaluate(poly: XPolyQ, at) -> RatFuncQ:
    """Horner evaluation at a value of R."""
    acc = RF_ZERO
    for c in reversed(poly.coeffs):
        acc = add(mul(acc, at), c)
    return acc


# -- reduction by division -------------------------------------------------------

def divide_linear(p: tuple, r):
    """Synthetic division of p by (q - r) over Q: (quotient, value at r)."""
    acc = Fraction(0)
    quot = []
    for c in reversed(p):
        acc = acc * r + c
        quot.append(acc)
    rem = quot.pop()
    quot.reverse()
    return _trim(quot), rem


def fraction_horner(coeffs, q0) -> Fraction:
    """sum_i c_i q0^i by Horner's rule on Fractions: the reference for the
    integer evaluation of zpoly.ratio_at."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q0 + c
    return acc


def canonical_by_division(num, a: int, b: int) -> tuple:
    """(num, a, b) of num / (q^a (1+q)^b) with every shared factor q and
    (1+q) removed over Q, (1+q) by repeated synthetic division at -1: the
    Fraction route for the integer reduction of exactarith.  The zero
    value is ((), 0, 0)."""
    num = _trim(num)
    if not num:
        return (), 0, 0
    while a and num[0] == 0:
        num, a = num[1:], a - 1
    while b:
        quot, rem = divide_linear(num, -1)
        if rem:
            break
        num, b = quot, b - 1
    return num, a, b


RF_ONE_PLUS_Q = rf(ONE_PLUS_Q)
# q/(1+q), the exact inverse of TWO_Q_RECIP
Q_OVER_TWO_Q = rf(Q, ONE_PLUS_Q)


def q_bracket(n: int, reciprocal: bool = False) -> RatFuncQ:
    """The q-deformation (1 - q^n) / (1 - q) of the integer n.

    For n >= 0 this is the polynomial 1 + q + ... + q^(n-1); negative n
    gives -[(-n)]_q / q^(-n).  With ``reciprocal=True`` the base is 1/q,
    kept inside the same ring: e.g. the reciprocal bracket of 2 is
    (1 + q)/q.
    """
    if n == 0:
        return RF_ZERO
    if reciprocal:
        if n > 0:
            return mul(q_bracket(n), rf((1,), power(Q, n - 1)))
        return -mul(q_bracket(-n, reciprocal=True), power(RF_Q, -n))
    if n > 0:
        return rf([1] * n)
    return -mul(q_bracket(-n), rf((1,), power(Q, -n)))


def beta_exact(a: int, b: int) -> Fraction:
    """Exact beta value at positive integers: (a-1)! (b-1)! / (a+b-1)!."""
    if a < 1 or b < 1:
        raise DomainError("beta arguments must be integers >= 1")
    return Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))


# -- polynomials in x ---------------------------------------------------------

def shifted(poly: XPolyQ, c) -> XPolyQ:
    """Compose with the shift x -> x + c."""
    shift = XPolyQ([c, RF_ONE])
    acc = XPolyQ()
    for coef in reversed(poly.coeffs):
        acc = add(mul(acc, shift), coef)
    return acc


def evaluate_point(poly: XPolyQ, x0, q0) -> Fraction:
    return x_evaluate(poly, Fraction(x0)).evaluate(q0)


# -- the exact tables ---------------------------------------------------------

def euler_poly_integral01(n: int):
    """Integral of the nth q-Euler polynomial over [0, 1].

    Computed two independent ways, the termwise antiderivative and the
    closed form -(1+q)/q * E[n+1] / (n+1); raises InternalInconsistency if
    they disagree (they cannot, unless the implementation is broken).
    """
    termwise = x_integral01(euler_poly(n))
    closed = mul(mul(-TWO_Q_RECIP, euler_number(n + 1)), Fraction(1, n + 1))
    if termwise != closed:
        raise InternalInconsistency(
            f"unit-interval integral routes disagree at n={n}: "
            f"{termwise} vs {closed}"
        )
    return termwise


def accumulated_euler_numbers(n_max):
    """E[0..n_max] by the umbral recurrence in RatFuncQ arithmetic, every
    partial sum renormalised: the oracle for the integer table fill."""
    numbers = [RF_ONE]
    factor = rf((0, -1), ONE_PLUS_Q)   # -q/(1+q)
    for m in range(1, n_max + 1):
        s = RF_ZERO
        for l in range(m):
            s = add(s, mul(numbers[l], Fraction(comb(m, l))))
        numbers.append(mul(s, factor))
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


def stirling_euler_numerators(n_max):
    """N_0..N_n_max by the explicit formula
        N_n = sum_k (-1)^k k! S(n, k) q^k (1 + q)^(n-k),
    with S the Stirling numbers of the second kind: the generating function
    (1 + q)/(q e^t + 1) = 1/(1 + q (e^t - 1)/(1 + q)) expanded in powers of
    e^t - 1.  It shares no recurrence with the Eulerian rows."""
    rows, stirling = [], [1]            # S(n, 0..n)
    for n in range(n_max + 1):
        if n:
            stirling = [0] + [k * s + t for k, s, t in zip(
                range(1, n + 1), stirling[1:] + [0], stirling)]
        row = [0] * (n + 1)
        for k, s in enumerate(stirling):
            c = (-1) ** k * factorial(k) * s
            for i in range(n - k + 1):          # q^k (1 + q)^(n-k)
                row[k + i] += c * comb(n - k, i)
        rows.append(tuple(row))
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


# -- identity sides: the reference route --------------------------------------
#
# The package decides a statement by its x-certificate alone.  Here both
# sides of a cell are summed on their own, from the tables, as the theorem
# is printed: the route every x-certificate is checked against.

def ring_terms(terms) -> list:
    """An integer term list (coeffs, b, n) as terms over R."""
    return [(RatFuncQ.over_bracket(coeffs, b), n) for coeffs, b, n in terms]


def view_pairs(view: str, statement, beta: Fraction = 0,
               moved: int = 0) -> tuple:
    """The (coefficient, image) pairs of both sides of a statement through
    an exact view, ordered as the theorem is printed: the E-side first for
    "poly" and "integral", the monomial side first for "fermionic".  The
    "integral" view's right side is q * beta less the image of the first
    ``moved`` terms."""
    terms = ring_terms(statement[0])
    if view == "integral":
        return (images(terms[moved:], unit_integral),
                [(beta, RF_Q)] + [(-c, v) for c, v in
                                  images(terms[:moved], unit_integral)])
    mono = ring_terms(statement[1])
    if view == "poly":
        return images(terms, euler_poly), images(mono, XPolyQ.x_power)
    return images(mono, euler_number), images(terms, fermionic_moment)


def q_bernoulli(n: int, p: int, q: Fraction, precision: int) -> PadicApprox:
    """The weight-0 q-Bernoulli number B_n known modulo p^precision, from
    its closed form in the q-Euler numbers (``closedform.bernoulli_pair``)
    at the precision ``closedform.at_precision`` proves."""
    return at_precision(*bernoulli_pair(n, q), p, q, precision)


class ReferenceContext(NumericContext):
    """The p-adic route the bosonic view is checked against, at one
    configuration (p, q, K, guard): each exact coefficient is embedded to
    K + guard + 2 digits, multiplied by a p-adic image and added, with
    three memos: B_n, each exact value embedded once, and each bosonic
    moment.  It shares only the closed form of B_n (``q_bernoulli``) with
    ``verify``, which decides a bosonic cell as one exact pair."""

    def __init__(self, p, q, target, guard=None):
        self.p, self.q, self.target, self.guard, _ = check_config(
            p, q, target, guard)
        self._bernoulli = {}  # n -> B_n
        self._embeds = {}     # exact value, as given -> its PadicApprox
        self._bosonic = {}    # n -> bosonic moment of E_n(x)

    @property
    def embed_precision(self) -> int:
        return self.target + self.guard + 2

    def embed(self, value) -> PadicApprox:
        """Embed an exact rational (or rational function of q) p-adically;
        memoized by the value given, so each one is evaluated at q once."""
        approx = self._embeds.get(value)
        if approx is None:
            at_q = value.evaluate(self.q) if isinstance(value, RatFuncQ) else value
            approx = self._embeds[value] = PadicApprox.from_rational(
                at_q, self.p, self.embed_precision)
        return approx

    def bernoulli(self, n: int) -> PadicApprox:
        """The weight-0 q-Bernoulli number B_n known modulo p^K
        (``q_bernoulli``), memoized by n."""
        value = self._bernoulli.get(n)
        if value is None:
            value = self._bernoulli[n] = q_bernoulli(n, self.p, self.q,
                                                     self.target)
        return value

    def apply(self, terms, image) -> PadicApprox:
        """sum embed(coefficient) * image(n) over a term list: each
        coefficient is embedded, multiplied, and added left to right."""
        return reduce(PadicApprox.__add__,
                      (self.embed(c) * image(n) for c, n in terms))

    def bosonic_moment(self, n: int) -> PadicApprox:
        """Bosonic moment of E_n(x): sum_l C(n,l) E_{n-l} B_l, memoized by
        n."""
        moment = self._bosonic.get(n)
        if moment is None:
            moment = self._bosonic[n] = self.apply(monomials(euler_poly(n)),
                                                   self.bernoulli)
        return moment


def sides(identity: IdentityId, params: dict, ctx: ReferenceContext = None
          ) -> tuple:
    """Both sides of an identity at one parameter cell, each one exact sum
    of its (coefficient, image) pairs (``view_pairs``, or the calculus
    rule's own), or, in the bosonic view, p-adically in ``ctx``, monomial
    side first: x^i -> B_i and E_n(x) -> its bosonic moment."""
    info = REGISTRY[identity]
    built = info.build(**params)
    if info.view == "bosonic":
        terms, mono = map(ring_terms, built[:2])
        return (ctx.apply(mono, ctx.bernoulli),
                ctx.apply(terms, ctx.bosonic_moment))
    if info.view is not None:
        built = view_pairs(info.view, built, info.beta(**params), info.moved)
    return tuple(map(sum_products, built))


# -- identity sides by other routes -------------------------------------------

def eq103_terms(k: int) -> list:
    """The master bracket sum at m = k grouped by parity, as the paper
    prints it: (1+q) C(k, 2j) E_{2k-2j}(x) and (q-1) C(k, 2j+1)
    E_{2k-2j-1}(x), as integer term lists (coeffs, b, n)."""
    terms = []
    for j in range(k // 2 + 1):
        c = comb(k, 2 * j)
        terms.append(((c, c), 0, 2 * k - 2 * j))
        c = comb(k, 2 * j + 1)
        if c:
            terms.append(((-c, c), 0, 2 * k - 2 * j - 1))
    return terms


def thm3_construction_residual(k: int) -> XPolyQ:
    """left(corrected) - [left(EQ6 at (k, k+1)) + left(EQ103 at k)/(1+q)];
    identically zero by construction."""
    corrected_left = sides(IdentityId.THM3_CORRECTED, {"k": k})[0]
    eq6_left = sides(IdentityId.EQ6, {"k": k, "m": k + 1})[0]
    eq103_left = sides(IdentityId.EQ103, {"k": k})[0]
    return sub(corrected_left,
               add(eq6_left, mul(eq103_left, rf((1,), ONE_PLUS_Q))))


def thm1_independent_route(k: int, m: int):
    """Reconstruct both sides of the integrated master identity by actually
    integrating the master identity's sides over [0, 1].

    Termwise integration turns each E_n(x) into -(1+q)/q * E_{n+1}/(n+1);
    peeling off the j = 0 term and multiplying by -q/(1+q) reproduces the
    left side, and the same transform applied to the right side's exact
    integral reproduces the right side.
    """
    eq6_left, eq6_right = sides(IdentityId.EQ6, {"k": k, "m": m})
    head = mul(mul(RF_ONE_PLUS_Q, euler_number(k + m + 1)),
               Fraction(1, k + m + 1))
    left = sub(-mul(x_integral01(eq6_left), Q_OVER_TWO_Q), head)
    right = sub(-mul(x_integral01(eq6_right), Q_OVER_TWO_Q), head)
    return left, right


def _taylor_shift(col: list) -> list:
    """The coefficients of p(x+1) from those of p(x), by the binomial
    expansion: coefficient i is sum_{k>=i} C(k, i) p_k."""
    return [sum(comb(k, i) * col[k] for k in range(i, len(col)))
            for i in range(len(col))]


def taylor_shifted(mono) -> list:
    """The monomial terms of M(x+1) from those of M(x), an integer term
    list: every integer column of M over (1+q)^b, b the largest exponent
    in M, Taylor-shifted, and read back as one term per power of x."""
    top = max(b for _, b, _ in mono)
    width = 1 + max(n for _, _, n in mono)
    cols = [_taylor_shift(col) for col in _columns(mono, top, width)]
    return [(tuple(col[i] for col in cols), top, i) for i in range(width)]


def _add_product(out: list, poly, cols: list, shift: int = 0) -> None:
    """out += q^shift poly(q) cols, over columns by power of q."""
    for i, a in enumerate(poly, shift):
        for j, col in enumerate(cols, i):
            out[j] = [o + a * c for o, c in zip(out[j], col)]


def three_pass_x_certificate(statement) -> tuple:
    """The x-certificate (cols, b) of a statement in three passes over the
    integer columns: (1+q) T(x), then -q M(x+1) with every monomial column
    shifted, then -M(x), each added to the columns on its own.  The
    reference for the one-pass identities.x_certificate, which takes
    M(x+1) from the statement instead: this route ignores it."""
    terms, mono, _ = statement
    top = max(b for _, b, _ in terms + mono)
    width = 1 + _degree(statement)
    t, m = _columns(terms, top, width), _columns(mono, top, width)
    cols = [[0] * width for _ in range(1 + max(len(t), len(m)))]
    _add_product(cols, ONE_PLUS_Q, t)
    _add_product(cols, (-1,), [_taylor_shift(col) for col in m], shift=1)
    _add_product(cols, (-1,), m)
    return cols, top + 1


def fermionic_image(poly: XPolyQ) -> RatFuncQ:
    """Exact fermionic moment of a polynomial in x, x^i -> E[i] applied to
    its monomials: the route the fermionic view is checked against."""
    return folded_apply(monomials(poly), euler_number)


class MonomialIntegrals:
    """Memoized integrals of xi^n under either measure at one p-adic
    configuration: the prime, q, the target precision, the guard digits
    and the level cap, checked by ``padic.check_config`` when the memo is
    built.  The level route: the closed form of B_n (``q_bernoulli``) and
    the bosonic and fermionic views are checked against it.

    Every integral is computed once.  An integral that does not converge
    is memoized too, as its partial result and ``stopped_by``, and each
    later call raises a fresh ConvergenceNotReached from them.
    """

    __slots__ = ("p", "q", "target", "guard", "max_level", "_results")

    def __init__(self, p, q, target, guard=None, max_level=None):
        (self.p, self.q, self.target, self.guard,
         self.max_level) = check_config(p, q, target, guard, max_level)
        self._results = {}

    def __call__(self, kind: str, n: int) -> IntegralResult:
        """The adaptive integral of xi^n; propagates ConvergenceNotReached."""
        key = (kind, n)
        result = self._results.get(key)
        if result is None:
            req = IntegralRequest(kind, n, Fraction(0), self.p, self.q,
                                  self.target, self.guard, self.max_level)
            try:
                result = integrate(req)
            except ConvergenceNotReached as exc:
                result = (exc.result, exc.stopped_by)
            self._results[key] = result
        if type(result) is tuple:
            raise ConvergenceNotReached(*result)
        return result


def level_integrals(ctx: ReferenceContext, max_level=None
                    ) -> MonomialIntegrals:
    """The level route's memo of monomial integrals at the configuration
    of a ReferenceContext, with at most ``max_level`` levels (the default
    cap when None)."""
    return MonomialIntegrals(ctx.p, ctx.q, ctx.target, ctx.guard, max_level)


def direct_moment(kind: str, poly: XPolyQ, ctx: ReferenceContext,
                  integrals: MonomialIntegrals) -> PadicApprox:
    """Numeric moment of an exact polynomial in x under the fermionic or
    bosonic measure, by linearity over the Riemann-sum limits of the
    monomial integrals (``integrals``, at ctx's configuration), each
    coefficient embedded by ctx: the independent route that integrates a
    side directly, with no closed form."""
    return ctx.apply(monomials(poly), lambda i: integrals(kind, i).value)


# -- numeric numbers ----------------------------------------------------------

@contextmanager
def starved_modulus():
    """Fault injection for the bosonic precision law: inside the block
    every IntegralRequest works at K + guard digits at every level, short
    of the N digits a bosonic bracket of valuation N takes."""
    budgeted = IntegralRequest.working_exponent
    IntegralRequest.working_exponent = lambda req, level: req.target + req.guard
    try:
        yield
    finally:
        IntegralRequest.working_exponent = budgeted


def brute_level(req: IntegralRequest, level: int) -> PadicApprox:
    """Independent oracle: the level-N sum and the bracket sum of t^xi,
    both term by term over all p^N terms, at the moduli riemann_level
    divides at: p^work for the sum, p^top for the bracket."""
    p = req.p
    work = req.working_exponent(level)
    top = work + level if req.bosonic else work
    modulus, big = p ** work, p ** top
    t = req.q if req.bosonic else -req.q
    t_res = _residue_of_rational(t, big)
    x0_res = _residue_of_rational(req.shift, modulus)
    acc, bracket, tp = 0, 0, 1
    for xi in range(p ** level):
        acc = (acc + pow((x0_res + xi) % modulus, req.exponent, modulus) * tp) % modulus
        bracket = (bracket + tp) % big
        tp = tp * t_res % big
    return (PadicApprox.from_residue(acc, p, work)
            / PadicApprox.from_residue(bracket, p, top))


def valuation(r, p: int):
    """v_p of a rational, by repeated division; inf at 0."""
    r = Fraction(r)
    if r == 0:
        return inf
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def padic_rational(x: PadicApprox) -> Fraction:
    """The rational p^valuation * unit that a PadicApprox stands for."""
    return Fraction(0) if x.is_zero else Fraction(x.p) ** x.valuation * x.unit


def padic_log(q: Fraction, p: int, precision: int) -> Fraction:
    """A rational l with v_p(log_p q - l) >= precision, for v = v_p(q - 1)
    >= 1: the partial sum of log_p q = sum_{k>=1} (-1)^(k+1) (q - 1)^k / k.
    Term k has valuation k v - v_p(k) >= k v - log_p k, which grows with k,
    so the sum stops before the first k with p^(k v - precision) >= k."""
    v = valuation(q - 1, p)
    total, k = Fraction(0), 1
    while k * v < precision or p ** (k * v - precision) < k:
        total += Fraction((-1) ** (k + 1), k) * (q - 1) ** k
        k += 1
    return total


def _euler_poly_at(n: int, x0: Fraction, q0: Fraction) -> Fraction:
    return sum(c.evaluate(q0) * x0 ** i
               for i, c in enumerate(euler_poly(n).coeffs))


def bosonic_closed_form(n: int, x0, p: int, q, precision: int) -> Fraction:
    """The bosonic integral of (x0 + xi)^n d(mu_q), to absolute precision
    ``precision``, in closed form from the exact q-Euler polynomials:

        E_n(x0)|_{q -> -q} + n lambda E_{n-1}(x0)|_{q -> -q} / (q - 1),

    with lambda = (q - 1)/log_p q.  The level-N generating function of the
    bosonic sums, e^(x0 t) (1 - q^M e^(M t)) (1 - q)/((1 - q e^t)(1 - q^M))
    at M = p^N, tends to e^(x0 t) (1 - q)/(1 - q e^t) (1 + t/log_p q),
    and e^(x0 t) (1 + q)/(1 + q e^t) generates E_n(x0).  The terms have
    large negative valuation and cancel, so log_p q is taken to the digits
    that the division by it and its cancellation need."""
    q, x0 = Fraction(q), Fraction(x0)
    head = _euler_poly_at(n, x0, -q)
    lead = n * _euler_poly_at(n - 1, x0, -q) if n else 0
    if lead == 0:
        return head
    # lead/l - lead/log = lead (log - l)/(l log), and v_p(log_p q) = v
    v = valuation(q - 1, p)
    digits = max(precision + 2 * v - valuation(lead, p), v + 1)
    lam = (q - 1) / padic_log(q, p, digits)
    return head + lead * lam / (q - 1)


def convolved_moment_pair(n: int, q: Fraction) -> tuple:
    """(A, B) of the bosonic moment of E_n(x), sum_l C(n,l) E[n-l] B_l,
    as the convolution of the exact E[n-l](q) with the pairs of the B_l:
    the route the closed form of ``identities._moment_pair`` is checked
    against."""
    a = b = Fraction(0)
    for l in range(n + 1):
        e = comb(n, l) * euler_number(n - l).evaluate(q)
        a_l, b_l = bernoulli_pair(l, q)
        a += e * a_l
        b += e * b_l
    return a, b


def counted_moment_pairs(monkeypatch) -> list:
    """Put ``identities._moment_pair`` behind a fresh memo for the rest of
    a test, so that the cells the test runs compute every moment pair they
    need, whatever earlier tests memoized; the list of the n computed,
    in order."""
    computed, compute = [], identities._moment_pair.__wrapped__

    def counted(n, q):
        computed.append(n)
        return compute(n, q)

    monkeypatch.setattr(identities, "_moment_pair", cache(counted))
    return computed


_classical_bernoulli = [Fraction(1)]


def classical_bernoulli_number(n: int) -> Fraction:
    """The classical Bernoulli number B_n, with B_1 = -1/2, from the
    recurrence sum_{j<=n} C(n+1, j) B_j = 0 (n >= 1): the q = 1 oracle,
    sharing nothing with the q-Euler table."""
    while len(_classical_bernoulli) <= n:
        m = len(_classical_bernoulli)
        s = sum(comb(m + 1, j) * b for j, b in enumerate(_classical_bernoulli))
        _classical_bernoulli.append(-s / (m + 1))
    return _classical_bernoulli[n]


def bernoulli_number_padic(n: int, p=None, q=None, target=None,
                           **kwargs) -> PadicApprox:
    """The nth weight-0 q-Bernoulli number: bosonic integral of xi^n.

    Defined only as a Riemann-sum limit; propagates ConvergenceNotReached.
    """
    req = IntegralRequest(KIND_BOSONIC, n, Fraction(0), p, q, target, **kwargs)
    return integrate(req).value


def euler_number_padic(n: int, p=None, q=None, target=None,
                       **kwargs) -> PadicApprox:
    """The nth weight-0 q-Euler number, numerically: fermionic integral of
    xi^n.  Cross-checks the exact table when q is embedded."""
    req = IntegralRequest(KIND_FERMIONIC, n, Fraction(0), p, q, target, **kwargs)
    return integrate(req).value

