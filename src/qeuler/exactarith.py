"""Exact arithmetic in the ring R = Q[q, 1/q, 1/(1+q)].

Every exact value of the weight-0 q-Euler theory lies in R: the number
E[n] has denominator exactly (1+q)^n, and the identities combine such
values with powers of q, (1+q) and (1+q)/q.  The units of R are the
elements c * q^a * (1+q)^b, so a value of R has the canonical form
num / (q^a (1+q)^b), with q not dividing num when a > 0 and (1+q) not
dividing num when b > 0.  A value is stored as the triple (num, a, b):
the denominator is two exponents, never an expanded polynomial.  Reducing
a fraction therefore only strips factors of q and (1+q); no Euclidean
algorithm is needed.

Every exact value enters R in one of two ways: as integer or rational
data (:meth:`RatFuncQ.over_bracket`, :meth:`RatFuncQ.from_fraction`, the
constructor ``RatFuncQ(num, a, b)``, which takes the triple itself), or
as one term-list sum c_1 v_1 + ... + c_k v_k (:func:`sum_products`).  The
values have no arithmetic operators but negation; a sum, a difference
and a product are each a term list.  A sum is reduced once: the
numerators are multiplied without reducing, each product is brought to
the largest exponents q^A (1+q)^B, and only the total is put in
canonical form.  A sum of ``XPolyQ`` values is reduced once per power of
x.  The reduction runs over Z: the products leave Q over the lcm D of
their denominators, the lift to (1+q)^B and the stripping of q and (1+q)
act on one integer numerator, and its coefficients become Fractions c/D
only at the end.  The constructor reduces its one part the same way, so
``_reduced_sum`` is the only normalizer of R.  Integer data
c(q)/(1+q)^b, the form of every integer term list, enters R through
:meth:`RatFuncQ.over_bracket`, which strips (1+q) from c by exact
integer division (:func:`qeuler.zpoly.strip_bracket`).

Two immutable types, both with exact rational coefficients:

* :class:`RatFuncQ` -- elements of R in canonical form, the numerator a
  tuple of coefficients ascending in ``q``;
* :class:`XPolyQ` -- dense polynomials in ``x`` whose coefficients are
  ``RatFuncQ``.

A rational coefficient is an ``int`` or a ``fractions.Fraction``, never a
float; the two compare, hash and print the same.  Integer data keeps its
ints where it enters R (:meth:`RatFuncQ.over_bracket` and the tables of
:mod:`qeuler.qspecial`), and the accumulator rows of a sum start at the
int 0, so rows over integer data stay in Z: the reduction multiplies and
adds ints where it meets them, and a Fraction promotes only the cells it
lands in.  What ``_reduced_sum`` returns, and so every sum and
constructed value, has Fraction coefficients c/D.

A value of R is printed and evaluated at a rational point from its
triple (num, a, b) by the one printer and the one evaluator of
N/(q^a (1+q)^b), :func:`qeuler.zpoly.fmt_ratio` and
:func:`qeuler.zpoly.ratio_at`, which the integer table of q-Euler
numerators uses as well; a polynomial in x is printed by the same term
loop, :func:`qeuler.zpoly.fmt_poly`.  The polynomial renderer, the
integer division by (1+q) and that table live in :mod:`qeuler.zpoly`,
below every exact layer.

No floating point appears anywhere in this module; every operation either
returns an exact value or raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Union

from .errors import DivisionByZero, PoleError   # exported from here
from . import zpoly

CoercibleScalar = Union[int, Fraction]


def _rational(c) -> Fraction:
    """c as a Fraction; a rational coefficient or point is an int or a
    Fraction, never a float."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _trimmed(cs: list) -> tuple:
    """The coefficients cs without their trailing zeros."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _rf_coerce(x):
    if isinstance(x, RatFuncQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFuncQ.from_fraction(x)
    return None


def _coefficient(c) -> "RatFuncQ":
    """c as a value of R; raises TypeError unless it is one or a rational."""
    f = _rf_coerce(c)
    if f is None:
        raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
    return f


def _scaled(coeffs, d: int) -> list:
    """The integers d * c for the rationals c of coeffs; d is a common
    multiple of their denominators."""
    return [c.numerator * (d // c.denominator) for c in coeffs]


def _shared_q(coeffs, a: int) -> int:
    """How many factors q the numerator coeffs shares with q^a."""
    t = 0
    while t < a and coeffs[t] == 0:
        t += 1
    return t


def _reduced_sum(parts) -> "RatFuncQ":
    """The sum of f g / (q^a (1+q)^b) over (f, g, a, b) parts, f and g
    numerator coefficient tuples (g None for 1), reduced once over Z.

    With A and B the largest exponents, each product f g is accumulated,
    shifted by its q deficit A - a, into the row of its (1+q) deficit
    B - b; a row over integer data stays in Z.  The rows then leave Q
    once, over the lcm of their denominators: Horner's rule in (1+q), one
    shift-add per step, brings every integer row to (1+q)^B, the factors
    q and (1+q) are stripped from the integer total, and only its
    coefficients become Fractions.
    """
    parts = [p for p in parts if p[0] and p[1] != ()]   # drop zero terms
    if not parts:
        return RF_ZERO
    top_a = max(p[2] for p in parts)
    top_b = max(p[3] for p in parts)
    rows = {}
    for f, g, a, b in parts:
        _add_into(rows.setdefault(top_b - b, []), f, g, top_a - a)
    d = lcm(*(c.denominator for row in rows.values() for c in row))
    top = max(rows)
    # padded so that acc, one longer after each step, covers every row
    width = max(len(row) + deficit for deficit, row in rows.items())
    acc = _scaled(rows[top], d)
    acc += [0] * (width - top - len(acc))
    for deficit in range(top - 1, -1, -1):
        acc = [acc[0], *map(add, acc[1:], acc), acc[-1]]  # acc * (1+q)
        if deficit in rows:
            row = _scaled(rows[deficit], d)
            acc[:len(row)] = map(add, acc, row)
    while acc and not acc[-1]:
        acc.pop()
    if not acc:
        return RF_ZERO
    t = _shared_q(acc, top_a)
    ints, b = zpoly.strip_bracket(acc[t:], top_b)
    return RatFuncQ._raw(tuple([Fraction(c, d) for c in ints]), top_a - t, b)


def _add_into(acc: list, f, g, shift: int) -> None:
    """acc += q^shift f g (g None for 1), growing acc as needed.

    New cells start at the int 0, so a row of integer data stays in Z:
    an int * int product is an int addition, and a Fraction promotes only
    the cell it lands in."""
    grow = shift + len(f) + (len(g) - 1 if g else 0) - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    if g is None:
        for i, c in enumerate(f, shift):
            acc[i] += c
        return
    if len(f) > len(g):
        f, g = g, f
    for i, c in enumerate(f, shift):
        if c:
            for j, d in enumerate(g, i):
                acc[j] += c * d


class RatFuncQ:
    """An element of the ring R = Q[q, 1/q, 1/(1+q)] in canonical form.

    ``RatFuncQ(num, a, b)`` is num / (q^a (1+q)^b), from the ascending
    rational coefficients of num and two exponents a, b >= 0.  It is
    stored in canonical form as the triple (num, a, b), with ``num`` the
    coefficient tuple, q not dividing num when a > 0 and (1+q) not
    dividing num when b > 0.  The zero element is () with a = b = 0.
    Equality is structural, which the canonical form makes sound.
    """

    __slots__ = ("num", "a", "b")

    def __init__(self, num: Iterable = (), a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("the exponents a and b must be >= 0")
        f = _reduced_sum(((tuple(map(_rational, num)), None, a, b),))
        self.num, self.a, self.b = f.num, f.a, f.b

    @classmethod
    def _raw(cls, num: tuple, a: int, b: int) -> "RatFuncQ":
        f = object.__new__(cls)
        f.num = num
        f.a = a
        f.b = b
        return f

    @classmethod
    def from_fraction(cls, c: CoercibleScalar) -> "RatFuncQ":
        if c == 0:
            return RF_ZERO
        return cls._raw((_rational(c),), 0, 0)

    @classmethod
    def over_bracket(cls, coeffs, b: int) -> "RatFuncQ":
        """c(q)/(1+q)^b in canonical form, from the ascending integer
        coefficients of c, kept as ints.  There is no power of q to strip."""
        if not any(coeffs):
            return RF_ZERO
        ints, b = zpoly.strip_bracket(coeffs, b)
        return cls._raw(_trimmed(list(ints)), 0, b)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.num == other.num)

    def __hash__(self):
        return hash((self.num, self.a, self.b))

    def __neg__(self) -> "RatFuncQ":
        return RatFuncQ._raw(tuple([-c for c in self.num]), self.a, self.b)

    def evaluate(self, q0: CoercibleScalar) -> Fraction:
        """Exact value at a rational point, by ``zpoly.ratio_at``.  Raises
        PoleError at q0 = 0 when a > 0 and at q0 = -1 when b > 0."""
        return zpoly.ratio_at(self.num, self.a, self.b, _rational(q0))

    def to_str(self) -> str:
        return zpoly.fmt_ratio(self.num, self.a, self.b)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFuncQ('{self}')"


RF_ZERO = RatFuncQ._raw((), 0, 0)
RF_ONE = RatFuncQ._raw((Fraction(1),), 0, 0)
RF_Q = RatFuncQ._raw((Fraction(0), Fraction(1)), 0, 0)


def _term(c: RatFuncQ):
    """c as ``fmt_poly`` takes a coefficient: its rational value, or its
    rendering when it is not rational."""
    if c.a or c.b or len(c.num) > 1:
        return c.to_str()
    return c.num[0] if c.num else 0


class XPolyQ:
    """Polynomial in x over R: RatFuncQ coefficients, ascending by power.

    Invariant: the highest stored coefficient is nonzero; the zero
    polynomial stores nothing and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _trimmed([_coefficient(c) for c in coeffs])

    @classmethod
    def _raw(cls, cs: list) -> "XPolyQ":
        p = object.__new__(cls)
        p.coeffs = _trimmed(cs)
        return p

    @classmethod
    def x_power(cls, e: int) -> "XPolyQ":
        return cls._raw([RF_ZERO] * e + [RF_ONE])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not XPolyQ:
            other = _rf_coerce(other)
            if other is None:
                return NotImplemented
            other = XPolyQ._raw([other])
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "XPolyQ":
        return XPolyQ._raw([-c for c in self.coeffs])

    def to_str(self, var: str = "x") -> str:
        return zpoly.fmt_poly([_term(c) for c in self.coeffs], var)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"XPolyQ('{self}')"


def _product(c, v: RatFuncQ) -> tuple:
    """c * v as an unreduced part (f, g, a, b) of _reduced_sum."""
    f = _coefficient(c)
    return f.num, v.num, f.a + v.a, f.b + v.b


def sum_products(pairs: Iterable) -> Union[RatFuncQ, XPolyQ]:
    """c_1 v_1 + ... + c_k v_k over (c, v) pairs, reduced once.

    The values v are all RatFuncQ or all XPolyQ, and each coefficient c is
    a RatFuncQ or a rational.  Over XPolyQ values each power of x is its
    own sum.  The empty sum is RF_ZERO.
    """
    pairs = list(pairs)
    if not pairs or not isinstance(pairs[0][1], XPolyQ):
        return _reduced_sum([_product(c, v) for c, v in pairs])
    columns = [[] for _ in range(max(len(v.coeffs) for _, v in pairs))]
    for c, v in pairs:
        for column, vi in zip(columns, v.coeffs):
            column.append(_product(c, vi))
    return XPolyQ._raw([_reduced_sum(column) for column in columns])
