"""Riemann-sum evaluation of the bosonic and fermionic p-adic q-integrals
for shifted-monomial integrands (x0 + xi)^n, with adaptive level control.

A level-N sum runs over xi < p^N with weight t^xi, where t is q (bosonic)
or -q (fermionic), and divides by the bracket of p^N in base t.  The sum
is not evaluated term by term: the monomial sums obey a telescoped
recurrence, so a level costs O(n^2) modular operations for any p and N,
carried at modulus p^(work + (n + 1) v) with v = v_p(t - 1) (v = 0 for
the fermionic measure) and reduced to p^work at the end.  The bosonic
normalizer has valuation N whenever v_p(q - 1) >= 1, so the bosonic
working exponent is K + guard + N; the fermionic normalizer is a unit and
its working exponent is K + guard.  Precision never comes from
assumptions: the final division is done in tracked PadicApprox
arithmetic, so an under-budgeted modulus shows up as reduced achieved
precision, not as a wrong value.  An adaptive run stops only at its level
cap or when a level exhausts the working precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf
from typing import Optional, Tuple, Union

from .padic import (
    DEFAULT_GUARD,
    PadicApprox,
    PrecisionExhausted,
    Record,
    is_odd_prime,
    padic_distance,
    rational_valuation,
)

KIND_BOSONIC = "bosonic"
KIND_FERMIONIC = "fermionic"

DEFAULT_MAX_LEVEL = 12

# why an adaptive run stopped short of convergence
STOP_MAX_LEVEL = "max_level"
STOP_PRECISION = "precision exhausted"


class QIntegralError(ArithmeticError):
    pass


class ConvergenceNotReached(QIntegralError):
    """The run stopped before two consecutive stable levels, either at the
    level cap (``STOP_MAX_LEVEL``) or because the next level exhausted the
    working precision (``STOP_PRECISION``); ``stopped_by`` says which.

    The partial result, with its honest achieved precision, is attached
    as ``result``.
    """

    def __init__(self, result: "IntegralResult", stopped_by: str):
        super().__init__(
            f"no stabilization within {result.levels_used} levels, "
            f"stopped by {stopped_by} "
            f"(achieved precision {result.achieved_precision})"
        )
        self.result = result
        self.stopped_by = stopped_by


def check_p_q(p: int, q: Fraction) -> None:
    """Raise ValueError unless p is an odd prime and q = 1 or v_p(q - 1) >= 1."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if q != 1 and rational_valuation(q - 1, p) < 1:
        raise ValueError("q must satisfy v_p(q - 1) >= 1")


class IntegralRequest(Record):
    """One shifted-monomial integrand (x0 + xi)^n against d(mu_q) or
    d(mu_-q), with q supplied as an exact rational so the symbolic and
    numeric paths share it bit for bit.  An immutable Record."""

    __slots__ = ("kind", "exponent", "shift", "p", "q", "target", "guard",
                 "level_surcharge", "max_level")

    def __init__(self, kind: str, exponent: int, shift=Fraction(0),
                 p: int = 3, q=Fraction(4), target: int = 4,
                 guard: int = DEFAULT_GUARD, level_surcharge: bool = True,
                 max_level: int = DEFAULT_MAX_LEVEL):
        if kind not in (KIND_BOSONIC, KIND_FERMIONIC):
            raise ValueError(f"unknown integral kind {kind!r}")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        shift, q = Fraction(shift), Fraction(q)
        check_p_q(p, q)
        if shift.denominator % p == 0:
            raise ValueError("shift must be a p-integral rational")
        if target < 1:
            raise ValueError("target precision must be >= 1")
        if guard < 2:
            raise ValueError("guard must be >= 2")
        self._set(kind, exponent, shift, p, q, target, guard,
                  level_surcharge, max_level)

    @property
    def bosonic(self) -> bool:
        return self.kind == KIND_BOSONIC

    def working_exponent(self, level: int) -> int:
        """Target plus guard digits, plus the level surcharge a bosonic
        normalizer of valuation ``level`` needs."""
        extra = level if (self.bosonic and self.level_surcharge) else 0
        return self.target + self.guard + extra


LevelTrace = Tuple[int, PadicApprox, Union[int, float, None]]


class IntegralResult(Record):
    """The reported value of an adaptive run, its achieved precision and
    level trace.  An immutable Record."""

    __slots__ = ("value", "achieved_precision", "levels_used", "converged",
                 "trace")

    def __init__(self, value: PadicApprox, achieved_precision: int,
                 levels_used: int, converged: bool,
                 trace: Tuple[LevelTrace, ...]):
        self._set(value, achieved_precision, levels_used, converged, trace)


def _residue_of_rational(r: Fraction, p: int, modulus: int) -> int:
    num = r.numerator % modulus
    den = r.denominator
    if den == 1:
        return num
    return num * pow(den, -1, modulus) % modulus


def _normalizer(req: IntegralRequest, level: int, work: int) -> PadicApprox:
    """The bracket of p^level in base t = +/- q, as a tracked PadicApprox.

    Computed from (t^m - 1)/(t - 1) at a modulus padded by the numerator's
    expected valuation, so the quotient keeps `work` relative digits.
    """
    p = req.p
    t = req.q if req.bosonic else -req.q
    m = p ** level
    if t == 1:
        return PadicApprox(p, level, 1, work)
    if t == -1:
        return PadicApprox(p, 0, 1, work)
    v1 = rational_valuation(t - 1, p)
    pad = v1 + level if req.bosonic else 0
    w2 = work + pad
    big = p ** w2
    t_res = _residue_of_rational(t, p, big)
    u = (pow(t_res, m, big) - 1) % big
    numerator = PadicApprox.from_residue(u, p, w2)
    denominator = PadicApprox.from_rational(t - 1, p, w2)
    return numerator / denominator


def _level_sum(req: IntegralRequest, level: int, work: int) -> int:
    """Sum of (x0 + xi)^n t^xi over xi < M = p^level, modulo p^work.

    With S_j = sum of xi^j t^xi over xi < M, shifting xi by one telescopes to
        (t - 1) S_j = M^j t^M - [j = 0] - t sum_{i<j} C(j, i) S_i,
    and the integrand expands as sum_j C(n, j) x0^(n-j) S_j.  Writing
    t - 1 = p^v u, each step divides exactly by p^v and loses v digits, so
    the recurrence runs at p^(work + (n + 1) v).  At t = 1 the S_j are
    integer power sums, (j + 1) S_j = M^(j+1) - sum_{i<j} C(j + 1, i) S_i,
    computed exactly.
    """
    p, n = req.p, req.exponent
    m = p ** level
    t = req.q if req.bosonic else -req.q
    sums = []
    if t == 1:
        modulus = p ** work
        for j in range(n + 1):
            rest = sum(comb(j + 1, i) * s for i, s in enumerate(sums))
            sums.append((m ** (j + 1) - rest) // (j + 1))
    else:
        v = rational_valuation(t - 1, p)
        modulus = p ** (work + (n + 1) * v)
        t_res = _residue_of_rational(t, p, modulus)
        u_inv = _residue_of_rational(p ** v / (t - 1), p, modulus)
        t_m = pow(t_res, m, modulus)
        m_j = 1
        for j in range(n + 1):
            rest = sum(comb(j, i) * s for i, s in enumerate(sums))
            rhs = (m_j * t_m - (j == 0) - t_res * rest) % modulus
            sums.append(rhs // p ** v * u_inv % modulus)
            m_j = m_j * m % modulus
    x0 = _residue_of_rational(req.shift, p, modulus)
    total = sum(comb(n, j) * pow(x0, n - j, modulus) * s
                for j, s in enumerate(sums))
    return total % p ** work


def riemann_level(req: IntegralRequest, level: int) -> PadicApprox:
    """The exact level-N Riemann sum, as a PadicApprox.

    The sum is known modulo the request's working modulus for this level
    and divided by the normalizer in tracked arithmetic.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    work = req.working_exponent(level)
    summed = PadicApprox.from_residue(_level_sum(req, level, work), req.p, work)
    return summed / _normalizer(req, level, work)


def integrate(req: IntegralRequest) -> IntegralResult:
    """Adaptive evaluation: levels 1, 2, ... until the distance between
    consecutive levels stays at or above the target for two successive
    steps.  Raises ConvergenceNotReached (carrying the partial result) if
    max_level is reached first or a level exhausts the working precision."""
    trace = []
    prev: Optional[PadicApprox] = None
    value: Optional[PadicApprox] = None
    stable = 0
    level = 0
    stopped_by = STOP_MAX_LEVEL
    for level in range(1, req.max_level + 1):
        try:
            value = riemann_level(req, level)
        except PrecisionExhausted:
            # an under-budgeted modulus ran out of digits at this depth
            level -= 1
            value = prev
            stopped_by = STOP_PRECISION
            break
        dist = padic_distance(value, prev) if prev is not None else None
        trace.append((level, value, dist))
        if dist is not None and dist >= req.target:
            stable += 1
        elif dist is not None:
            stable = 0
        prev = value
        if stable >= 2:
            break
    if value is None:
        raise QIntegralError("level 1 exhausted the working precision")

    tail = [d for _, _, d in trace[-2:] if d is not None]
    achieved = min(
        [req.target, value.abs_precision] + [d for d in tail if d != inf]
    )
    achieved = max(int(achieved), 0)
    reported = value.truncate_abs(achieved) if achieved > 0 else value
    result = IntegralResult(
        value=reported,
        achieved_precision=achieved,
        levels_used=level,
        converged=stable >= 2,
        trace=tuple(trace),
    )
    if not result.converged:
        raise ConvergenceNotReached(result, stopped_by)
    return result


class MonomialIntegrals:
    """Memoized integrals of xi^n under either measure at one p-adic
    configuration: the prime, q, the target precision, the guard digits
    and the level cap.  ``identities.NumericContext`` is this memo with
    the embedding of exact values added, so a configuration is held once.

    Every integral is computed.  With a result cache attached (anything
    with ``put_integral``, such as ``report.ResultCache``), each result is
    stored, or checked against the entry already stored, so a persisted
    file can end a run but never change an answer.
    """

    __slots__ = ("p", "q", "target", "guard", "max_level", "cache", "_results")

    def __init__(self, p: int, q, target: int, guard: int = DEFAULT_GUARD,
                 max_level: int = DEFAULT_MAX_LEVEL, cache=None):
        self.p, self.q, self.target = p, Fraction(q), target
        self.guard, self.max_level, self.cache = guard, max_level, cache
        self._results = {}

    def __call__(self, kind: str, n: int) -> IntegralResult:
        """The adaptive integral of xi^n; propagates ConvergenceNotReached."""
        key = (kind, n)
        result = self._results.get(key)
        if result is None:
            req = IntegralRequest(kind, n, Fraction(0), self.p, self.q,
                                  self.target, guard=self.guard,
                                  max_level=self.max_level)
            result = integrate(req)
            if self.cache is not None:
                self.cache.put_integral(kind, n, self.p, self.q, self.target,
                                        self.guard, self.max_level, result)
            self._results[key] = result
        return result
