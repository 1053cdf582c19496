"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.
"""

import functools
import time
from fractions import Fraction
from math import inf

from qeuler.identities import (
    FAILS,
    HOLDS,
    HOLDS_TO_PRECISION,
    IdentityId,
    NumericContext,
    sides,
    verify,
    verify_grid,
)
from qeuler.padic import PadicApprox, padic_distance
from qeuler.qintegral import (
    KIND_BOSONIC,
    KIND_FERMIONIC,
    ConvergenceNotReached,
    IntegralRequest,
    integrate,
)
from qeuler.qspecial import euler_number, euler_poly
from qeuler.report import Report
from qeuler.cli import main as cli_main

from oracles import (
    ONE_PLUS_Q,
    RF_ONE_PLUS_Q,
    beta_exact,
    classical_euler_number,
    direct_moment,
    euler_poly_integral01,
    mul,
    rf,
    starved_modulus,
    thm1_independent_route,
    thm3_construction_residual,
    x_derivative,
    x_evaluate,
)

# canonical_sha256 of the default `qeuler report` battery: the behaviour
# gate that any refactor or speed change must leave unchanged
BATTERY_SHA256 = ("baedeef0ed5e5eb90ce3a2bffd6704ab"
                  "a646e151e64618d2eecf97a5092a994d")

# canonical_sha256 of deeper grids and tables, gated the same way
COMMAND_SHA256 = {
    "verify EQ6 --k 0..10 --m 0..10":
        "6e04cc419d9341e55eb807688394a2879723866ed962149968b5b6adc12848a1",
    "verify EQ6 --k 0..30 --m 0..30":
        "84fcb76d8f06e1fc44a34de8bbb19186cca65110b482d0659d666cbf9553e782",
    "verify all --p 5 --K 5":
        "b6e890b2a012d99cb94d364d4dfedb8dc6cae346500e5586c3680d99ac188eb6",
    "poly --n 0..20":
        "2928e7285c559c98e0bafb01545b5fe7b38b632d9594224a7497d2bfe0d58aa6",
    "verify THM3_PRINTED --k 1..6":
        "ce515b96f9a9f8319b99d1344e8e2ff6be65ae4e7d73ffd36589fdff9c4b4bce",
    "verify THM5_PRINTED --k 1..5":
        "b28861c4fda11177a22a258fc573ef46aa4b910adcdd78866f2f7869a092bda2",
    "verify THM4 --k 1..8 --m 1..8":
        "cedf034bb9b66f4c44e3bd4f5a9ed1274dde98ae08d738a090434d8fc60fcd42",
    "verify EQ103 --k 1..12":
        "fa1f51a115fecc7f0d673e54de8167c86f89cfc9c0be8e601fbe63aa471a174a",
    "verify THM1 --k 1..10 --m 1..10":
        "49fd3d6d07c6ac2ffcb425e4ae668df11105c6e8e88080f96453e6939be281e3",
    "verify THM1_COR --k 1..10":
        "9e728c694c28a498be7ce32c3816e6f093f116869ccdd53584da929a09af41e5",
    "verify THM2 --k 1..12":
        "a30a5e711e4db5f8edac2e0c5b7c8779ebd5a940da37beea22f63afe2f4a2159",
    "verify THM3_CORRECTED --k 1..8":
        "264d45f2b5dc52b66fa28942194c7da1272ee77178bdae2a45c49f372243c842",
    "verify THM5_CORRECTED --k 1..6":
        "44d95dd0aaae6b9a01767f149f710efa1d2f92c8a99f72878595c5a73576a7a8",
    "verify THM6 --k 1..4 --m 1..4 --p 7 --K 6":
        "d12510761b741204d4cbf847e288c86203e19eb2ebc82e0043028528f52ffc7a",
    "verify THM6 --k 1..5 --m 1..5 --p 3 --q 10 --K 6":
        "6816df63741d1e7591786cee5d05f460f73dc1972df72f7ca39077a3b5cce838",
    "verify THM6 --k 1..3 --m 1..3 --p 3 --q 1 --K 5":
        "6e0183bd25416b2608920c9d1a743b41b06319439848342a46f4c9f617260825",
    "verify EQ7 --n 1..30":
        "94c4d63ac18baa7f0845b9ac48ef9fa190dbbcbec66436fc66c88fb612670f5a",
    "verify EQ8 --n 0..30":
        "18c0ca7be152661361fc6216871095a55288e336b3fb5826c05f48913387c16a",
    "numbers euler --n 0..20 --at-q 3/7":
        "b35bfd5e941a3968588b2f91174bd5d492b4a5bdc730255125dab96d723aa079",
    "numbers bernoulli --n 0..6 --p 3 --K 5":
        "d8bad7e377dde0db5834f4748d8812657f366062fe25ba4afc7e5748db1b1b87",
    # every row carries the "convergence not reached" warning
    "numbers bernoulli --n 0..4 --p 5 --K 6 --n-max 2":
        "c93c7bd6cb796723084c92cb89d5e60d56c2cdec34d6c0083299a33220bc5448",
    "integrate fermionic --n 4 --x0 1/2 --p 5 --K 6":
        "4f5e3af8dcb111e9db071ade575b1f2a9e4dd20416d3829e760d21a338dad63f",
    # a warning on the result row, then the trace rows
    "integrate bosonic --n 3 --p 5 --K 6 --n-max 2":
        "1e11f7997b03a26b7a80bdbee23ddba3c5ddda8a1fb3923801c8db22a1c5a6c8",
}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:02d} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {num:02d} ({label}): PASS")
        return wrapper
    return deco


@criterion(1, "classical-limit oracle, n <= 20, < 1 s")
def test_criterion_01_classical_limit():
    start = time.monotonic()
    for n in range(21):
        assert euler_number(n).evaluate(1) == classical_euler_number(n)
    assert time.monotonic() - start < 1.0


@criterion(2, "master identity exact suite, 81 cells, < 10 s")
def test_criterion_02_eq6_grid():
    start = time.monotonic()
    results = verify_grid(IdentityId.EQ6, {"k": (0, 8), "m": (0, 8)})
    assert len(results) == 81
    assert all(r.verdict == HOLDS for r in results)
    assert all(r.certificate.is_zero for r in results)
    assert time.monotonic() - start < 10.0


@criterion(3, "integrated identity suite plus independent route")
def test_criterion_03_thm1():
    results = verify_grid(IdentityId.THM1, {"k": (1, 8), "m": (1, 8)})
    assert len(results) == 64
    assert all(r.verdict == HOLDS for r in results)
    for k in range(1, 6):
        for m in range(1, 6):
            indep_left, indep_right = thm1_independent_route(k, m)
            left, right = sides(IdentityId.THM1, {"k": k, "m": m})
            assert indep_left == left
            assert indep_right == right


@criterion(4, "odd/even integrated identity and its beta form")
def test_criterion_04_thm2():
    for k in range(1, 11):
        left, right = sides(IdentityId.THM2, {"k": k})
        assert left == right
        # times -q/(1+q), the inverse of -(1+q)/q
        beta_form = mul(
            mul(RF_ONE_PLUS_Q, Fraction((-1) ** k) * beta_exact(k + 1, k + 1)),
            rf((0, -1), ONE_PLUS_Q))
        assert right == beta_form


@criterion(5, "corrected degree-(2k+1) identity and printed discrepancy")
def test_criterion_05_thm3():
    results = verify_grid(IdentityId.THM3_CORRECTED, {"k": (1, 6)})
    assert all(r.verdict == HOLDS for r in results)
    for k in range(1, 7):
        assert thm3_construction_residual(k).is_zero
    printed = verify_grid(IdentityId.THM3_PRINTED, {"k": (1, 4)})
    assert len(printed) == 4                      # verdicts are emitted
    k1 = next(r for r in printed if r.params == {"k": 1})
    assert k1.verdict == FAILS                    # nonzero certificate
    assert not k1.certificate.is_zero


@criterion(6, "double-moment identity suite with hand anchor")
def test_criterion_06_thm4():
    results = verify_grid(IdentityId.THM4, {"k": (1, 6), "m": (1, 6)})
    assert len(results) == 36
    assert all(r.verdict == HOLDS for r in results)
    left, right = sides(IdentityId.THM4, {"k": 1, "m": 1})
    anchor = rf((0, 0, 2), ONE_PLUS_Q)            # 2q^2/(1+q)
    assert left == anchor and right == anchor


@criterion(7, "derivative and unit-interval integral calculus")
def test_criterion_07_calculus():
    for n in range(1, 13):
        assert x_derivative(euler_poly(n)) == mul(euler_poly(n - 1), n)
        assert verify(IdentityId.EQ7, {"n": n}).verdict == HOLDS
    for n in range(13):
        euler_poly_integral01(n)  # asserts both routes agree internally
        r = verify(IdentityId.EQ8, {"n": n})
        assert r.verdict == HOLDS


@criterion(8, "fermionic integral vs exact table, two primes, < 60 s")
def test_criterion_08_fermionic_convergence():
    start = time.monotonic()
    for p in (3, 5):
        q = Fraction(1 + p)
        for n in range(9):
            for x0 in (Fraction(0), Fraction(1)):
                req = IntegralRequest(KIND_FERMIONIC, n, x0, p, q, 6)
                res = integrate(req)
                assert res.levels_used <= 10
                assert res.achieved_precision >= 6
                exact = x_evaluate(euler_poly(n), x0).evaluate(q)
                emb = PadicApprox.from_rational(exact, p, 12)
                assert padic_distance(res.value, emb) >= 6
    assert time.monotonic() - start < 60.0


@criterion(9, "bosonic precision law under an under-budgeted modulus")
def test_criterion_09_bosonic_precision_law():
    target = 4
    trusted = integrate(IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3,
                                        Fraction(4), 6, guard=6))
    starved = IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3, Fraction(4),
                              target, guard=2)
    with starved_modulus():
        try:
            res = integrate(starved)
        except ConvergenceNotReached as err:
            res = err.result
    assert res.achieved_precision < target        # reduced, honestly reported
    if res.achieved_precision > 0:                # and never wrong
        d = padic_distance(res.value, trusted.value)
        assert d == inf or d >= res.achieved_precision
    surcharged = integrate(IntegralRequest(KIND_BOSONIC, 1, Fraction(0), 3,
                                           Fraction(4), target))
    assert surcharged.achieved_precision == target


@criterion(10, "mixed-family p-adic suite against two-route oracle, < 120 s")
def test_criterion_10_thm6_cor7():
    start = time.monotonic()
    ctx = NumericContext(3, Fraction(4), 4, 4, 12)
    for k in range(1, 4):
        for m in range(1, 4):
            r = verify(IdentityId.THM6, {"k": k, "m": m}, ctx)
            assert r.verdict == HOLDS_TO_PRECISION
            shift = sides(IdentityId.EQ6, {"k": k, "m": m})[1]
            direct = direct_moment(KIND_BOSONIC, shift, ctx)
            left, right = sides(IdentityId.THM6, {"k": k, "m": m}, ctx)
            assert padic_distance(left, direct) >= ctx.target
            assert padic_distance(right, direct) >= ctx.target
    for k in range(1, 4):
        r = verify(IdentityId.COR7_CORRECTED, {"k": k}, ctx)
        assert r.verdict == HOLDS_TO_PRECISION
        left, right = sides(IdentityId.COR7_CORRECTED, {"k": k}, ctx)
        rhs = sides(IdentityId.THM3_CORRECTED, {"k": k})[1]
        direct = direct_moment(KIND_BOSONIC, rhs, ctx)
        assert padic_distance(left, direct) >= ctx.target
        assert padic_distance(right, direct) >= ctx.target
    assert time.monotonic() - start < 120.0


@criterion(11, "byte-identical canonical reports, with and without cache, "
                "and the default battery's pinned hash")
def test_criterion_11_determinism(tmp_path, capsys):
    def battery(*extra):
        out_file = tmp_path / f"report-{len(list(tmp_path.iterdir()))}.json"
        code = cli_main(["report", "--out", str(out_file), *extra])
        assert code == 0
        return Report.parse(out_file.read_text())

    cache = tmp_path / "cache.json"
    first = battery()
    assert first.sha256() == BATTERY_SHA256
    assert first.summary == {"holds": 242, "holds_to_precision": 12,
                             "fails": 11, "errors": 0, "total": 265}
    plain_1 = first.canonical()
    plain_2 = battery().canonical()
    cached_cold = battery("--cache", str(cache)).canonical()
    cached_warm = battery("--cache", str(cache)).canonical()
    no_cache = battery("--no-cache").canonical()
    assert plain_1 == plain_2 == cached_cold == cached_warm == no_cache


@criterion(12, "pinned canonical bodies of deeper grids and tables")
def test_criterion_12_pinned_commands(tmp_path, capsys):
    for command, expected in COMMAND_SHA256.items():
        out_file = tmp_path / "out.json"
        code = cli_main([*command.split(), "--format", "json",
                         "--out", str(out_file)])
        assert code == 0, command
        assert Report.parse(out_file.read_text()).sha256() == expected, command
