"""Riemann-sum evaluation of the bosonic and fermionic p-adic q-integrals
for shifted-monomial integrands (x0 + xi)^n, with adaptive level control.

A level-N sum runs over xi < M = p^N with weight t^xi, where t is q
(bosonic) or -q (fermionic), and divides by the bracket [M]_t.  The sum
is not evaluated term by term: the monomial sums S_j = sum xi^j t^xi obey
a telescoped recurrence, so a level costs O(n^2) modular operations for
any p and N, and the bracket is its first term, S_0 = sum t^xi.  The sum
is wanted modulo p^work and S_0 modulo p^top, and each step of the
recurrence loses v = v_p(t - 1) digits (v = 0 for the fermionic measure),
so it runs at p^max(work + (n + 1) v, top + v).  The bosonic bracket has
valuation N whenever v_p(q - 1) >= 1 (p is odd), so top = work + N keeps
work relative digits, and the bosonic working exponent is K + guard + N;
the fermionic bracket is a unit, so top = work = K + guard.  Precision
never comes from assumptions: the final division is done in tracked
PadicApprox arithmetic, so an under-budgeted modulus shows up as reduced
achieved precision, not as a wrong value.  An adaptive run stops only at
its level cap or when a level exhausts the working precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf

from .padic import (
    PadicApprox,
    PrecisionExhausted,
    Record,
    check_config,
    padic_distance,
    rational_valuation,
)

KIND_BOSONIC = "bosonic"
KIND_FERMIONIC = "fermionic"

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


class IntegralRequest(Record):
    """One shifted-monomial integrand (x0 + xi)^n against d(mu_q) or
    d(mu_-q), with q supplied as an exact rational so the symbolic and
    numeric paths share it bit for bit, at a configuration that
    ``padic.check_config`` checks and completes.  An immutable Record."""

    __slots__ = ("kind", "exponent", "shift", "p", "q", "target", "guard",
                 "max_level")

    def __init__(self, kind: str, exponent: int, shift=Fraction(0), p=None,
                 q=None, target=None, guard=None, max_level=None):
        if kind not in (KIND_BOSONIC, KIND_FERMIONIC):
            raise ValueError(f"unknown integral kind {kind!r}")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        config = check_config(p, q, target, guard, max_level)
        shift = Fraction(shift)
        if shift.denominator % config[0] == 0:
            raise ValueError("shift must be a p-integral rational")
        self._set(kind, exponent, shift, *config)

    @property
    def bosonic(self) -> bool:
        return self.kind == KIND_BOSONIC

    def working_exponent(self, level: int) -> int:
        """Target plus guard digits, plus the ``level`` digits a bosonic
        bracket of valuation ``level`` takes."""
        return self.target + self.guard + (level if self.bosonic else 0)


LevelTrace = tuple[int, PadicApprox, int | float | None]


class IntegralResult(Record):
    """The reported value of an adaptive run, its achieved precision and
    level trace.  An immutable Record."""

    __slots__ = ("value", "achieved_precision", "levels_used", "converged",
                 "trace")

    def __init__(self, value: PadicApprox, achieved_precision: int,
                 levels_used: int, converged: bool,
                 trace: tuple[LevelTrace, ...]):
        self._set(value, achieved_precision, levels_used, converged, trace)


def _residue_of_rational(r: Fraction, modulus: int) -> int:
    num = r.numerator % modulus
    den = r.denominator
    if den == 1:
        return num
    return num * pow(den, -1, modulus) % modulus


def _level_sum(req: IntegralRequest, level: int, work: int,
               top: int) -> tuple[int, int]:
    """Sum of (x0 + xi)^n t^xi over xi < M = p^level, modulo p^work, and
    the bracket [M]_t = S_0 modulo p^top.

    With S_j = sum of xi^j t^xi over xi < M, shifting xi by one telescopes to
        (t - 1) S_j = M^j t^M - [j = 0] - t sum_{i<j} C(j, i) S_i,
    and the integrand expands as sum_j C(n, j) x0^(n-j) S_j.  Writing
    t - 1 = p^v u, each step divides exactly by p^v and loses v digits, so
    the recurrence runs at p^max(work + (n + 1) v, top + v).  At t = 1 the
    S_j are integer power sums, (j + 1) S_j = M^(j+1) - sum_{i<j}
    C(j + 1, i) S_i, computed exactly at p^top.
    """
    p, n = req.p, req.exponent
    m = p ** level
    t = req.q if req.bosonic else -req.q
    sums = []
    if t == 1:
        modulus = p ** top
        for j in range(n + 1):
            rest = sum(comb(j + 1, i) * s for i, s in enumerate(sums))
            sums.append((m ** (j + 1) - rest) // (j + 1))
    else:
        v = rational_valuation(t - 1, p)
        modulus = p ** max(work + (n + 1) * v, top + v)
        t_res = _residue_of_rational(t, modulus)
        u_inv = _residue_of_rational(p ** v / (t - 1), modulus)
        t_m = pow(t_res, m, modulus)
        m_j = 1
        for j in range(n + 1):
            rest = sum(comb(j, i) * s for i, s in enumerate(sums))
            rhs = (m_j * t_m - (j == 0) - t_res * rest) % modulus
            sums.append(rhs // p ** v * u_inv % modulus)
            m_j = m_j * m % modulus
    x0 = _residue_of_rational(req.shift, modulus)
    total = sum(comb(n, j) * pow(x0, n - j, modulus) * s
                for j, s in enumerate(sums))
    return total % p ** work, sums[0] % p ** top


def riemann_level(req: IntegralRequest, level: int) -> PadicApprox:
    """The exact level-N Riemann sum, as a PadicApprox.

    The sum is known modulo the request's working modulus p^work for this
    level and divided, in tracked arithmetic, by the bracket S_0 known
    modulo p^top: top = work + level for the bosonic measure, whose
    bracket has valuation level, and top = work for the fermionic one,
    whose bracket is a unit.  Either way the bracket keeps work relative
    digits.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    p, work = req.p, req.working_exponent(level)
    top = work + level if req.bosonic else work
    summed, bracket = _level_sum(req, level, work, top)
    # the request checked p
    return (PadicApprox._from_residue(summed, p, work)
            / PadicApprox._from_residue(bracket, p, top))


def integrate(req: IntegralRequest) -> IntegralResult:
    """Adaptive evaluation: levels 1, 2, ... until the distance between
    consecutive levels stays at or above the target for two successive
    steps.  Raises ConvergenceNotReached (carrying the partial result) if
    max_level is reached first or a level exhausts the working precision."""
    trace = []
    prev: PadicApprox | None = None
    value: PadicApprox | None = None
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

    # only a distance between two levels certifies digits: a run that
    # compared none achieves 0
    tail = [d for _, _, d in trace[-2:] if d is not None]
    achieved = min(
        [req.target, value.abs_precision] + [d for d in tail if d != inf]
    ) if tail else 0
    achieved = max(int(achieved), 0)
    result = IntegralResult(
        value=value.truncate_abs(achieved),
        achieved_precision=achieved,
        levels_used=level,
        converged=stable >= 2,
        trace=tuple(trace),
    )
    if not result.converged:
        raise ConvergenceNotReached(result, stopped_by)
    return result

