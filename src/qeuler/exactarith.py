"""Exact arithmetic in the ring R = Q[q, 1/q, 1/(1+q)].

Every exact value of the weight-0 q-Euler theory lies in R: the number
E[n] has denominator exactly (1+q)^n, and the identities combine such
values with powers of q, (1+q) and (1+q)/q.  The units of R are the
elements c * q^a * (1+q)^b, so a value of R has the canonical form
num / (q^a (1+q)^b), with q not dividing num when a > 0 and (1+q) not
dividing num when b > 0.  Reducing a fraction therefore only strips
factors of q and (1+q); no Euclidean algorithm is needed.

Three immutable layers, all over exact rationals (``fractions.Fraction``):

* :class:`PolyQ` -- dense univariate polynomials in ``q``;
* :class:`RatFuncQ` -- elements of R in canonical form;
* :class:`XPolyQ` -- polynomials in ``x`` whose coefficients are
  ``RatFuncQ``.

``PolyQ`` and ``XPolyQ`` are one dense-polynomial class, ``_DensePoly``,
over two coefficient rings (Q and R); each supplies only its ring and its
rendering.

No floating point appears anywhere in this module; every operation either
returns an exact value or raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Union

from .errors import DivisionByZero

CoercibleScalar = Union[int, Fraction]


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


class NonUnitError(ArithmeticError):
    """Division by a polynomial that is not a unit c * q^a * (1+q)^b of R."""


def _fmt_poly(coeffs, var: str) -> str:
    """Ascending-power rendering with explicit signs, e.g. ``-q + q^2``."""
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


class _Ring:
    """Subtraction, powers and rendering shared by the three ring types.

    A subclass supplies ``_coerce`` (its own type from an operand, or
    None), ``__add__``, ``__neg__``, ``__mul__``, ``one``, ``_inverse``
    (for negative powers) and ``to_str``.
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, e: int):
        if e < 0:
            return self._inverse() ** (-e)
        result = self.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class _DensePoly(_Ring):
    """Dense polynomial over a coefficient ring, coefficients ascending by
    power.

    A subclass names its coefficient ring by ``_scalar``, which returns an
    operand as an element of that ring, or None when it is not one.

    Invariant: the highest stored coefficient is nonzero; the zero
    polynomial stores nothing and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = self._raw([self._element(c) for c in coeffs]).coeffs

    @classmethod
    def _raw(cls, cs: list):
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls):
        return cls._raw([])

    @classmethod
    def one(cls):
        return cls._raw([cls._scalar(1)])

    def _element(self, c):
        s = self._scalar(c)
        if s is None:
            raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
        return s

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        s = self._scalar(other)
        return None if s is None else self._raw([s])

    def _inverse(self):
        raise ValueError("negative power of a polynomial")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else self._scalar(0)

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._scalar(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return self._raw([-c for c in self.coeffs])

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._raw(out)

    __radd__ = __add__

    def __mul__(self, other):
        """A ring scalar scales each coefficient; a polynomial of the same
        class gives the convolution, skipping zero coefficients."""
        if type(other) is not type(self):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return self._raw([c * s for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._raw([])
        out = [self._scalar(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return self._raw(out)

    __rmul__ = __mul__

    def evaluate(self, at):
        """Horner evaluation at an element of the coefficient ring."""
        at = self._element(at)
        acc = self._scalar(0)
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc


class PolyQ(_DensePoly):
    """Dense polynomial in q over the rationals."""

    __slots__ = ()

    @staticmethod
    def _scalar(c):
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        return None

    @classmethod
    def constant(cls, c: CoercibleScalar) -> "PolyQ":
        return cls((c,))

    def divide_linear(self, r: CoercibleScalar):
        """Synthetic division by (q - r): returns (quotient, value at r)."""
        r = Fraction(r)
        acc = Fraction(0)
        quot = []
        for c in reversed(self.coeffs):
            acc = acc * r + c
            quot.append(acc)
        rem = quot.pop()
        quot.reverse()
        return PolyQ._raw(quot), rem

    def to_str(self, var: str = "q") -> str:
        return _fmt_poly(self.coeffs, var)


_P_ZERO = PolyQ()
_P_ONE = PolyQ((1,))
_P_ONE_PLUS_Q = PolyQ((1, 1))


@lru_cache(maxsize=8192)
def _unit_shape(coeffs) -> tuple:
    """(a, b, c) with the polynomial equal to c * q^a * (1+q)^b.

    Raises NonUnitError for any other nonzero polynomial.
    """
    a = 0
    while coeffs[a] == 0:
        a += 1
    c = coeffs[a]
    b = len(coeffs) - 1 - a
    if any(coeffs[a + i] != c * comb(b, i) for i in range(1, b + 1)):
        raise NonUnitError(f"{_fmt_poly(coeffs, 'q')} is not a unit "
                           "c * q^a * (1+q)^b of Q[q, 1/q, 1/(1+q)]")
    return a, b, c


@lru_cache(maxsize=4096)
def _unit_poly(a: int, b: int) -> PolyQ:
    """The expanded polynomial q^a * (1+q)^b."""
    return PolyQ._raw([Fraction(0)] * a + [Fraction(comb(b, i)) for i in range(b + 1)])


def _rf_coerce(x):
    if isinstance(x, RatFuncQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFuncQ.from_fraction(x)
    if isinstance(x, PolyQ):
        return RatFuncQ._raw(x, _P_ONE) if not x.is_zero else RF_ZERO
    return None


class RatFuncQ(_Ring):
    """An element of the ring R = Q[q, 1/q, 1/(1+q)] in canonical form.

    The canonical form is num / (q^a (1+q)^b) with ``den`` the expanded
    q^a (1+q)^b, q not dividing num when a > 0 and (1+q) not dividing num
    when b > 0.  The zero element is 0/1.  Equality is structural, which
    the canonical form makes sound.  Constructing, inverting or dividing
    by anything that is not a unit c * q^a * (1+q)^b raises NonUnitError.
    """

    __slots__ = ("num", "den")

    _coerce = staticmethod(_rf_coerce)

    def __init__(self, num, den=_P_ONE):
        if not isinstance(num, PolyQ):
            num = PolyQ.constant(num) if isinstance(num, (int, Fraction)) else PolyQ(num)
        if not isinstance(den, PolyQ):
            den = PolyQ.constant(den) if isinstance(den, (int, Fraction)) else PolyQ(den)
        num, den = _normalize(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: PolyQ, den: PolyQ) -> "RatFuncQ":
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def zero(cls) -> "RatFuncQ":
        return RF_ZERO

    @classmethod
    def one(cls) -> "RatFuncQ":
        return RF_ONE

    @classmethod
    def from_fraction(cls, c: CoercibleScalar) -> "RatFuncQ":
        c = Fraction(c)
        if c == 0:
            return RF_ZERO
        return cls._raw(PolyQ.constant(c), _P_ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFuncQ":
        return RatFuncQ._raw(-self.num, self.den)

    def __add__(self, other) -> "RatFuncQ":
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RatFuncQ(self.num + other.num, self.den)
        a1, b1, _ = _unit_shape(self.den.coeffs)
        a2, b2, _ = _unit_shape(other.den.coeffs)
        a, b = max(a1, a2), max(b1, b2)
        return RatFuncQ(self.num * _unit_poly(a - a1, b - b1)
                        + other.num * _unit_poly(a - a2, b - b2),
                        _unit_poly(a, b))

    __radd__ = __add__

    def __mul__(self, other) -> "RatFuncQ":
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        return RatFuncQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFuncQ":
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by the zero rational function")
        return RatFuncQ(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFuncQ":
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inv(self) -> "RatFuncQ":
        if self.is_zero:
            raise DivisionByZero("inverse of the zero rational function")
        return RatFuncQ(self.den, self.num)

    _inverse = inv

    def evaluate(self, q0: CoercibleScalar) -> Fraction:
        """Exact evaluation at a rational point; raises PoleError at poles."""
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError(f"denominator vanishes at q = {q0}")
        return self.num.evaluate(q0) / d

    def to_str(self) -> str:
        if self.den == _P_ONE:
            return self.num.to_str()
        return f"({self.num.to_str()})/({self.den.to_str()})"


def _normalize(num: PolyQ, den: PolyQ):
    """Reduce num/den to canonical form; den must be a unit of R.

    A zero numerator gives 0/1 for any nonzero denominator.
    """
    if den.is_zero:
        raise DivisionByZero("zero denominator")
    if num.is_zero:
        return _P_ZERO, _P_ONE
    a, b, c = _unit_shape(den.coeffs)
    if c != 1:
        num = num * (1 / c)
    t = 0
    while t < a and num.coeffs[t] == 0:
        t += 1
    if t:
        num = PolyQ._raw(list(num.coeffs[t:]))
        a -= t
    # num(-1) = 0 exactly when the even and odd coefficients have equal sums
    while b and sum(num.coeffs[::2]) == sum(num.coeffs[1::2]):
        num = num.divide_linear(-1)[0]
        b -= 1
    return num, _unit_poly(a, b)


RF_ZERO = RatFuncQ._raw(_P_ZERO, _P_ONE)
RF_ONE = RatFuncQ._raw(_P_ONE, _P_ONE)
RF_Q = RatFuncQ._raw(PolyQ((0, 1)), _P_ONE)
RF_ONE_PLUS_Q = RatFuncQ._raw(_P_ONE_PLUS_Q, _P_ONE)


class XPolyQ(_DensePoly):
    """Polynomial in x over R: RatFuncQ coefficients, ascending by power."""

    __slots__ = ()

    _scalar = staticmethod(_rf_coerce)

    @classmethod
    def x_power(cls, e: int) -> "XPolyQ":
        return cls._raw([RF_ZERO] * e + [RF_ONE])

    def derivative(self) -> "XPolyQ":
        """Coefficient-wise d/dx."""
        return XPolyQ._raw([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def integral01(self) -> RatFuncQ:
        """Integral over the unit interval: sum of c_i / (i + 1)."""
        total = RF_ZERO
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                total = total + c * Fraction(1, i + 1)
        return total

    def to_str(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            power = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            if i == 0:
                body = c.to_str() if c.den == _P_ONE and c.num.degree <= 0 else f"({c.to_str()})"
            elif c == RF_ONE:
                body = power
            elif c == -RF_ONE:
                body = f"-{power}"
            elif c.den == _P_ONE and c.num.degree <= 0:
                val = c.num.coeffs[0]
                body = (f"{val}{power}" if val.denominator == 1
                        else f"({val}){power}")
            else:
                body = f"({c.to_str()}){power}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out
