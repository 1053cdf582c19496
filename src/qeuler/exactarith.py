"""Exact arithmetic for the rational-function field in q.

Three immutable layers, all over exact rationals (``fractions.Fraction``):

* :class:`PolyQ` -- dense univariate polynomials in ``q``;
* :class:`RatFuncQ` -- reduced quotients of two ``PolyQ`` (monic
  denominator, numerator and denominator coprime);
* :class:`XPolyQ` -- polynomials in ``x`` whose coefficients are
  ``RatFuncQ``.

No floating point appears anywhere in this module; every operation either
returns an exact value or raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Union

Rational = Fraction

CoercibleScalar = Union[int, Fraction]


class DivisionByZero(ZeroDivisionError):
    """Division by an exact zero polynomial or rational function."""


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


def _fmt_fraction(c: Fraction) -> str:
    return str(c)


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
            body = _fmt_fraction(mag)
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


class PolyQ:
    """Dense polynomial in q, coefficients ascending by power.

    Invariant: the highest stored coefficient is nonzero; the zero
    polynomial stores nothing and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[CoercibleScalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, cs: list) -> "PolyQ":
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls) -> "PolyQ":
        return _P_ZERO

    @classmethod
    def one(cls) -> "PolyQ":
        return _P_ONE

    @classmethod
    def q(cls) -> "PolyQ":
        return _P_Q

    @classmethod
    def constant(cls, c: CoercibleScalar) -> "PolyQ":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyQ.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "PolyQ":
        return PolyQ._raw([-c for c in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, PolyQ):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyQ.constant(other)
        return None

    def __add__(self, other) -> "PolyQ":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolyQ._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "PolyQ":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PolyQ":
        return (-self) + other

    def __mul__(self, other) -> "PolyQ":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return PolyQ._raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PolyQ":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = _P_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "PolyQ"):
        """Exact rational-coefficient division with remainder."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        if self.degree < d:
            return _P_ZERO, self
        inv = 1 / other.leading
        quot = [Fraction(0)] * (self.degree - d + 1)
        bc = other.coeffs
        for top in range(len(rem) - 1, d - 1, -1):
            c = rem[top]
            if c:
                c *= inv
                quot[top - d] = c
                for i in range(d):
                    rem[top - d + i] -= c * bc[i]
            rem.pop()
        return PolyQ._raw(quot), PolyQ._raw(rem)

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def monic(self) -> "PolyQ":
        if self.is_zero or self.leading == 1:
            return self
        inv = 1 / self.leading
        return PolyQ._raw([c * inv for c in self.coeffs])

    def scale(self, c: CoercibleScalar) -> "PolyQ":
        c = Fraction(c)
        if c == 0:
            return _P_ZERO
        return PolyQ._raw([ci * c for ci in self.coeffs])

    def shift_up(self, e: int) -> "PolyQ":
        """Multiply by q**e."""
        if self.is_zero or e == 0:
            return self
        return PolyQ._raw([Fraction(0)] * e + list(self.coeffs))

    def evaluate(self, q0: CoercibleScalar) -> Fraction:
        q0 = Fraction(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

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

    @staticmethod
    def gcd(a: "PolyQ", b: "PolyQ") -> "PolyQ":
        """Monic greatest common divisor; gcd(0, 0) = 0."""
        if a.is_zero:
            return b.monic()
        if b.is_zero:
            return a.monic()
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def to_str(self, var: str = "q") -> str:
        return _fmt_poly(self.coeffs, var)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"PolyQ('{self}')"


_P_ZERO = PolyQ()
_P_ONE = PolyQ((1,))
_P_Q = PolyQ((0, 1))
_P_ONE_PLUS_Q = PolyQ((1, 1))


@lru_cache(maxsize=8192)
def _q_one_plus_q_shape(coeffs) -> bool:
    """True when the polynomial is c * q^b * (1+q)^a for some constant c."""
    b = 0
    while b < len(coeffs) and coeffs[b] == 0:
        b += 1
    rest = coeffs[b:]
    if not rest:
        return False
    c = rest[0]
    d = len(rest) - 1
    return all(rest[i] == c * comb(d, i) for i in range(1, len(rest)))


class RatFuncQ:
    """Reduced rational function in q: monic denominator, gcd(num, den) = 1.

    The zero element is 0/1.  Equality is structural, which the canonical
    form makes sound.
    """

    __slots__ = ("num", "den")

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
        g = PolyQ.gcd(self.den, other.den)
        if g.degree <= 0:
            return RatFuncQ(self.num * other.den + other.num * self.den,
                            self.den * other.den)
        da = self.den // g
        db = other.den // g
        return RatFuncQ(self.num * db + other.num * da, self.den * db)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFuncQ":
        other = _rf_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFuncQ":
        return (-self) + other

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

    def __pow__(self, e: int) -> "RatFuncQ":
        if e < 0:
            return self.inv() ** (-e)
        result = RF_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "RatFuncQ":
        if self.is_zero:
            raise DivisionByZero("inverse of the zero rational function")
        return RatFuncQ(self.den, self.num)

    def evaluate(self, q0: CoercibleScalar) -> Fraction:
        """Exact evaluation at a rational point; raises PoleError at poles."""
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError(f"denominator vanishes at q = {q0}")
        return self.num.evaluate(q0) / d

    def as_fraction(self) -> Fraction:
        """The constant value, when the function is a rational constant."""
        if self.num.degree > 0 or self.den.degree > 0:
            raise ValueError("not a constant rational function")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def to_str(self) -> str:
        if self.den == _P_ONE:
            return self.num.to_str()
        return f"({self.num.to_str()})/({self.den.to_str()})"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFuncQ('{self}')"


def _rf_coerce(x):
    if isinstance(x, RatFuncQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFuncQ.from_fraction(x)
    if isinstance(x, PolyQ):
        return RatFuncQ._raw(x, _P_ONE) if not x.is_zero else RF_ZERO
    return None


def _normalize(num: PolyQ, den: PolyQ):
    """Reduce num/den to canonical form: coprime, monic denominator.

    The denominators that arise in this library are almost always of the
    shape c * q^b * (1+q)^a, so common factors of q and (1+q) are stripped
    directly before any generic gcd is attempted; when the remaining
    denominator is recognised as that shape, the gcd is 1 by construction
    and the Euclidean step is skipped.
    """
    if den.is_zero:
        raise DivisionByZero("zero denominator")
    if num.is_zero:
        return _P_ZERO, _P_ONE
    # common powers of q
    tn = 0
    nc = num.coeffs
    while nc[tn] == 0:
        tn += 1
    td = 0
    dc = den.coeffs
    while dc[td] == 0:
        td += 1
    e = min(tn, td)
    if e:
        num = PolyQ._raw(list(nc[e:]))
        den = PolyQ._raw(list(dc[e:]))
    # common factors of (q + 1)
    while den.degree > 0 and num.evaluate(-1) == 0 and den.evaluate(-1) == 0:
        num = num.divide_linear(-1)[0]
        den = den.divide_linear(-1)[0]
    if den.degree == 0:
        c = den.coeffs[0]
        if c != 1:
            num = num.scale(1 / c)
        return num, _P_ONE
    if num.degree > 0 and not _q_one_plus_q_shape(den.coeffs):
        g = PolyQ.gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
            if den.degree == 0:
                c = den.coeffs[0]
                if c != 1:
                    num = num.scale(1 / c)
                return num, _P_ONE
    lc = den.leading
    if lc != 1:
        inv = 1 / lc
        num = num.scale(inv)
        den = den.monic()
    return num, den


RF_ZERO = RatFuncQ._raw(_P_ZERO, _P_ONE)
RF_ONE = RatFuncQ._raw(_P_ONE, _P_ONE)
RF_Q = RatFuncQ._raw(_P_Q, _P_ONE)
RF_ONE_PLUS_Q = RatFuncQ._raw(_P_ONE_PLUS_Q, _P_ONE)


class XPolyQ:
    """Polynomial in x with RatFuncQ coefficients, ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            rf = _rf_coerce(c)
            if rf is None:
                raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
            cs.append(rf)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, cs: list) -> "XPolyQ":
        while cs and cs[-1].is_zero:
            cs.pop()
        f = object.__new__(cls)
        f.coeffs = tuple(cs)
        return f

    @classmethod
    def zero(cls) -> "XPolyQ":
        return _X_ZERO

    @classmethod
    def one(cls) -> "XPolyQ":
        return _X_ONE

    @classmethod
    def x(cls) -> "XPolyQ":
        return _X_X

    @classmethod
    def x_power(cls, e: int) -> "XPolyQ":
        return cls._raw([RF_ZERO] * e + [RF_ONE])

    @classmethod
    def from_ratfunc(cls, c) -> "XPolyQ":
        rf = _rf_coerce(c)
        if rf.is_zero:
            return _X_ZERO
        return cls._raw([rf])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> RatFuncQ:
        return self.coeffs[-1] if self.coeffs else RF_ZERO

    def coefficient(self, i: int) -> RatFuncQ:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RF_ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _xp_coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "XPolyQ":
        return XPolyQ._raw([-c for c in self.coeffs])

    def __add__(self, other) -> "XPolyQ":
        other = _xp_coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPolyQ._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "XPolyQ":
        other = _xp_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "XPolyQ":
        return (-self) + other

    def __mul__(self, other) -> "XPolyQ":
        if isinstance(other, (int, Fraction, PolyQ, RatFuncQ)):
            rf = _rf_coerce(other)
            if rf.is_zero:
                return _X_ZERO
            return XPolyQ._raw([c * rf for c in self.coeffs])
        other = _xp_coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _X_ZERO
        out = [RF_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai.is_zero:
                for j, bj in enumerate(b):
                    if not bj.is_zero:
                        out[i + j] = out[i + j] + ai * bj
        return XPolyQ._raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "XPolyQ":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = _X_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "XPolyQ":
        """Coefficient-wise d/dx."""
        return XPolyQ._raw([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def integral01(self) -> RatFuncQ:
        """Integral over the unit interval: sum of c_i / (i + 1)."""
        total = RF_ZERO
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                total = total + c * RatFuncQ.from_fraction(Fraction(1, i + 1))
        return total

    def eval_at(self, x0) -> RatFuncQ:
        """Substitute a rational (or rational-function) value for x."""
        x0 = _rf_coerce(x0)
        acc = RF_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def shifted(self, c) -> "XPolyQ":
        """Compose with the shift x -> x + c."""
        shift = XPolyQ([_rf_coerce(c), RF_ONE])
        acc = _X_ZERO
        for coef in reversed(self.coeffs):
            acc = acc * shift + XPolyQ.from_ratfunc(coef)
        return acc

    def evaluate_point(self, x0: CoercibleScalar, q0: CoercibleScalar) -> Fraction:
        return self.eval_at(Fraction(x0)).evaluate(q0)

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

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"XPolyQ('{self}')"


def _xp_coerce(x):
    if isinstance(x, XPolyQ):
        return x
    rf = _rf_coerce(x)
    if rf is None:
        return None
    return XPolyQ.from_ratfunc(rf)


_X_ZERO = XPolyQ()
_X_ONE = XPolyQ((RF_ONE,))
_X_X = XPolyQ((RF_ZERO, RF_ONE))
