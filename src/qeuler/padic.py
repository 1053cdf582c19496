"""Fixed-precision p-adic numbers with explicit valuation tracking.

A nonzero value is stored as p^v * u with the unit u known modulo p^K
(K relative digits); the dedicated zero state records only an absolute
precision A, meaning "congruent to 0 modulo p^A".  All reported precisions
are conservative lower bounds: cancellation and division can shrink them
but never silently fabricate digits.

``Record`` is the immutable-value base of PadicApprox, of the integral
requests and results of ``qintegral`` and of the catalogue entries and
verification results of ``identities``.

The p-adic configuration (the prime, q, the target precision K, the
guard digits and the level cap) has its defaults and its one check,
``check_config``, here, where both numeric routes find them: the level
sums of ``qintegral`` and the closed forms of ``identities``.  ``log_p``
gives the p-adic logarithm of q to a proven number of digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .errors import DivisionByZero


class PadicError(ArithmeticError):
    pass


class PrecisionExhausted(PadicError):
    """An operation left no known digits in the result."""


# Miller-Rabin to the first 13 prime bases is deterministic below this
# bound (J. Sorenson and J. Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Deterministic primality test.  Raises ValueError for p at or above
    PRIME_BOUND with no prime factor up to 41, which it cannot decide."""
    if p < 3 or p % 2 == 0:
        return False
    for b in _MR_BASES[1:]:
        if p % b == 0:
            return p == b
    if p < 43 * 43:     # no prime factor up to 41
        return True
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is not below {PRIME_BOUND}, the bound of "
                         "the deterministic primality test")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# the default p-adic configuration: the prime, the target precision K, the
# guard digits and the level cap; q defaults to 1 + p
DEFAULT_P = 3
DEFAULT_TARGET = 4
DEFAULT_GUARD = 4
DEFAULT_MAX_LEVEL = 12


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def int_valuation(n: int, p: int):
    """(v, u) with n = p^v * u, p not dividing u; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def rational_valuation(r: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("valuation of zero")
    return int_valuation(r.numerator, p)[0] - int_valuation(r.denominator, p)[0]


def check_config(p=None, q=None, target=None, guard=None, max_level=None,
                 names=("p", "q", "target", "guard", "max_level")) -> tuple:
    """The p-adic configuration (p, q, target, guard, max_level), a setting
    given as None at its default.  Raises ValueError, naming the setting
    as ``names`` does, unless p is an odd prime, q = 1 or v_p(q - 1) >= 1,
    target >= 1, guard >= 2 and max_level >= 1."""
    p = DEFAULT_P if p is None else p
    target = DEFAULT_TARGET if target is None else target
    guard = DEFAULT_GUARD if guard is None else guard
    max_level = DEFAULT_MAX_LEVEL if max_level is None else max_level
    if not is_odd_prime(p):
        raise ValueError(f"{names[0]} must be an odd prime, got {p}")
    q = Fraction(1 + p if q is None else q)
    if q != 1 and rational_valuation(q - 1, p) < 1:
        raise ValueError(f"{names[1]} must satisfy v_p(q - 1) >= 1")
    for name, value, least in zip(names[2:], (target, guard, max_level),
                                  (1, 2, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
    return p, q, target, guard, max_level


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


class Record:
    """Base of the immutable value records of the numeric layers.

    A record's fields are its class's ``__slots__``, set once through
    ``_set`` in the constructor.  Equality and hashing go by the fields,
    a copy or a pickle rebuilds the record from them, and the repr is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def _set(self, *values, _init=object.__setattr__) -> None:
        for name, value in zip(self.__slots__, values):
            _init(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{self.__class__.__name__}({args})"


class PadicApprox(Record):
    """A p-adic number known to finite precision; an immutable Record.

    Nonzero: value = p^valuation * unit, with unit in [1, p^precision)
    coprime to p; the value is known modulo p^(valuation + precision).
    Zero: unit is None and ``precision`` is the absolute exponent A with
    |value|_p <= p^(-A).

    The constructor, ``zero``, ``from_residue`` and ``from_rational``
    check that p is an odd prime, before any other use of p; the results
    of arithmetic take their operand's p through ``_raw`` unchecked.
    """

    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p: int, valuation: int, unit, precision: int):
        _require_odd_prime(p)
        if unit is None:
            if precision < 0:
                raise ValueError("zero element needs absolute precision >= 0")
            valuation = 0
        else:
            if precision < 1:
                raise ValueError("nonzero element needs >= 1 known digit")
            if not (1 <= unit < p ** precision):
                raise ValueError("unit out of range for stated precision")
            if unit % p == 0:
                raise ValueError("unit must be coprime to p")
        self._set(p, valuation, unit, precision)

    @classmethod
    def _raw(cls, p: int, valuation: int, unit, precision: int
             ) -> "PadicApprox":
        """A value built without the constructor's checks, for results
        of arithmetic on checked values: p is their operand's, and the
        arithmetic keeps the unit and precision in range."""
        x = object.__new__(cls)
        x._set(p, valuation, unit, precision)
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, abs_precision: int) -> "PadicApprox":
        _require_odd_prime(p)
        return cls._raw(p, 0, None, max(abs_precision, 0))

    @classmethod
    def from_residue(cls, value: int, p: int, abs_exponent: int) -> "PadicApprox":
        """Classify an integer known modulo p^abs_exponent."""
        _require_odd_prime(p)
        return cls._from_residue(value, p, abs_exponent)

    @classmethod
    def _from_residue(cls, value: int, p: int, abs_exponent: int
                      ) -> "PadicApprox":
        """``from_residue`` for a p already checked."""
        value %= p ** abs_exponent
        if value == 0:
            return cls._raw(p, 0, None, max(abs_exponent, 0))
        v, u = int_valuation(value, p)
        k = abs_exponent - v
        return cls._raw(p, v, u % p ** k, k)

    @classmethod
    def from_rational(cls, r, p: int, precision: int) -> "PadicApprox":
        """Embed an exact rational with `precision` relative digits."""
        _require_odd_prime(p)
        r = Fraction(r)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if r == 0:
            return cls._raw(p, 0, None, precision)
        vn, un = int_valuation(r.numerator, p)
        vd, ud = int_valuation(r.denominator, p)
        m = p ** precision
        unit = un * pow(ud, -1, m) % m
        return cls._raw(p, vn - vd, unit, precision)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    @property
    def abs_precision(self) -> int:
        """Exponent A such that the value is known modulo p^A."""
        if self.unit is None:
            return self.precision
        return self.valuation + self.precision

    def residue(self) -> int:
        """The known value modulo p^abs_precision, for valuation >= 0."""
        if self.unit is None:
            return 0
        if self.valuation < 0:
            raise ValueError("no integer residue at negative valuation")
        return self.p ** self.valuation * self.unit

    def shift_by_power(self, e: int) -> "PadicApprox":
        """Exact multiplication by p^e."""
        if self.unit is None:
            if self.precision + e < 0:
                raise PrecisionExhausted("shift leaves no known digits")
            return PadicApprox._raw(self.p, 0, None, self.precision + e)
        return PadicApprox._raw(self.p, self.valuation + e, self.unit,
                                self.precision)

    def truncate_abs(self, abs_exponent: int) -> "PadicApprox":
        """Forget digits beyond p^abs_exponent (never adds digits)."""
        if abs_exponent >= self.abs_precision:
            return self
        if self.unit is None or self.valuation >= abs_exponent:
            if abs_exponent < 0:
                raise PrecisionExhausted("truncation leaves no known digits")
            return PadicApprox._raw(self.p, 0, None, abs_exponent)
        k = abs_exponent - self.valuation
        return PadicApprox._raw(self.p, self.valuation,
                                self.unit % self.p ** k, k)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PadicApprox"):
        if not isinstance(other, PadicApprox):
            raise TypeError("expected a PadicApprox")
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __neg__(self) -> "PadicApprox":
        if self.unit is None:
            return self
        m = self.p ** self.precision
        return PadicApprox._raw(self.p, self.valuation, (-self.unit) % m,
                                self.precision)

    def __add__(self, other: "PadicApprox") -> "PadicApprox":
        self._check(other)
        m = min(self.abs_precision, other.abs_precision)
        # align negative valuations by working with the values times p^-shift
        shift = min([0] + [x.valuation for x in (self, other)
                           if x.unit is not None])
        if m - shift <= 0:
            raise PrecisionExhausted("no shared digits in addition")
        mod = self.p ** (m - shift)
        total = 0
        for x in (self, other):
            if x.unit is not None:
                total += x.unit * self.p ** (x.valuation - shift)
        total %= mod
        return PadicApprox._from_residue(total, self.p, m - shift
                                         ).shift_by_power(shift)

    def __sub__(self, other: "PadicApprox") -> "PadicApprox":
        return self + (-other)

    def __mul__(self, other: "PadicApprox") -> "PadicApprox":
        self._check(other)
        if self.unit is None or other.unit is None:
            if self.unit is None and other.unit is None:
                a = self.precision + other.precision
            elif self.unit is None:
                a = self.precision + other.valuation
            else:
                a = other.precision + self.valuation
            return PadicApprox._raw(self.p, 0, None, max(a, 0))
        k = min(self.precision, other.precision)
        u = self.unit * other.unit % self.p ** k
        return PadicApprox._raw(self.p, self.valuation + other.valuation, u, k)

    def __truediv__(self, other: "PadicApprox") -> "PadicApprox":
        self._check(other)
        if other.unit is None:
            raise DivisionByZero("division by a value indistinguishable from zero")
        if self.unit is None:
            a = self.precision - other.valuation
            if a <= 0:
                raise PrecisionExhausted("division leaves no known digits")
            return PadicApprox._raw(self.p, 0, None, a)
        k = min(self.precision, other.precision)
        u = self.unit * pow(other.unit, -1, self.p ** k) % self.p ** k
        return PadicApprox._raw(self.p, self.valuation - other.valuation, u, k)

    def __str__(self) -> str:
        if self.unit is None:
            return f"O({self.p}^{self.precision})"
        tail = f"O({self.p}^{self.valuation + self.precision})"
        if self.valuation == 0:
            return f"{self.unit} + {tail}"
        return f"{self.unit}*{self.p}^{self.valuation} + {tail}"

    def __repr__(self) -> str:
        return f"PadicApprox('{self}')"


def padic_distance(a: PadicApprox, b: PadicApprox):
    """v_p(a - b), or +inf when the two are indistinguishable at the
    available precision."""
    d = a - b
    return inf if d.is_zero else d.valuation
