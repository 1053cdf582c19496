"""CLI surface: table output, report formats, exit codes, determinism,
and the cache of report hashes."""

import gc
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qeuler
from qeuler.cli import COMMANDS, main, parse_q, parse_range
from qeuler import commands, identities, padic
from qeuler.cache import ResultCache
from qeuler.errors import CacheError, ConfigError
from qeuler.padic import PadicApprox, padic_distance
from qeuler import report as report_module
from qeuler.report import TOOL_VERSION, Report, canonical_json
from qeuler.qspecial import euler_number
from qeuler.zpoly import euler_number_at, euler_number_str

from oracles import (
    bosonic_closed_form,
    counted_moment_pairs,
    padic_log,
    valuation,
)
from test_acceptance import BATTERY_SHA256


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def euler_table(n):
    """The report of E[0..n], as a test builds it."""
    return Report({"n": [0, n]}, [{"n": i, "value": euler_number_str(i)}
                                  for i in range(n + 1)])


def poison_stored_hash(path):
    """Edit the one hash of a cache file."""
    doc = json.loads(path.read_text())
    (key,) = doc["entries"]
    doc["entries"][key] = doc["entries"][key][::-1]
    path.write_text(json.dumps(doc))


EULER_0_2_CONFIG = canonical_json({"command": "numbers", "kind": "euler",
                                   "n": [0, 2]})
EULER_0_2_KEY = f"{TOOL_VERSION}:{EULER_0_2_CONFIG}"


class TestParsing:
    def test_range_forms(self):
        assert parse_range("0..8") == (0, 8)
        assert parse_range("5") == (5, 5)

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            parse_range("8..0")
        with pytest.raises(ConfigError):
            parse_range("a..b")

    def test_q_forms(self):
        from fractions import Fraction
        assert parse_q("1+p") is None     # check_config's default, 1 + p
        assert parse_q("10") == 10
        assert parse_q("4/1") == 4
        assert parse_q("7/2") == Fraction(7, 2)
        with pytest.raises(ConfigError):
            parse_q("one")


def parse_with(parser, capsys, argv):
    """Exit code, stdout and stderr of a parse that exits (help or error)."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParserParity:
    """A well-formed line is read from the command table without argparse;
    any other line goes to a parser that builds the arguments of only the
    command it runs, and its help and errors are those of the parser of
    every command."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"],
        *([name, "--help"] for name in COMMANDS)])
    def test_help_is_the_full_parsers(self, capsys, argv):
        full = parse_with(commands.build_parser(COMMANDS), capsys, argv)
        assert full[0] == 0 and full[1].startswith("usage: qeuler")
        assert run(capsys, *argv) == full

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["frob"], "invalid choice: 'frob'"),
        (["integrate"], "the following arguments are required: kind, --n"),
        (["integrate", "fermionic", "--n", "3", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["poly", "--k", "1"], "unrecognized arguments: --k 1"),
        (["integrate", "fermionic", "--n", "x"],
         "argument --n: invalid int value: 'x'"),
        (["numbers", "frob"], "argument kind: invalid choice: 'frob'"),
    ])
    def test_errors_are_the_full_parsers(self, capsys, argv, message):
        full = parse_with(commands.build_parser(COMMANDS), capsys, argv)
        assert full[0] == 2 and message in full[2]
        assert run(capsys, *argv) == full

    def test_bad_range_is_a_config_error(self, capsys):
        assert run(capsys, "numbers", "euler", "--n=x") == (
            2, "", "error: bad range 'x'; expected 'a..b'\n")

    def test_only_the_invoked_command_has_arguments(self, capsys):
        parser = commands.build_parser(COMMANDS, ["integrate"])
        assert parser.parse_args(["integrate", "bosonic", "--n", "2"]).n == 2
        code, _, err = parse_with(parser, capsys, ["numbers", "euler"])
        assert code == 2 and "unrecognized arguments: euler" in err


class TestCommandTable:
    """``COMMANDS`` is the one list of commands: ``main`` runs an entry,
    writes its report and returns the report's exit code."""

    CHEAP = {
        "numbers": ["numbers", "euler", "--n", "0"],
        "poly": ["poly", "--n", "0"],
        "verify": ["verify", "EQ103", "--k", "1"],
        "integrate": ["integrate", "fermionic", "--n", "0"],
        "report": ["report"],
    }

    def test_every_subparser_has_a_handler(self):
        sub = next(a for a in commands.build_parser(COMMANDS)._actions
                   if a.dest == "command")
        assert list(sub.choices) == list(COMMANDS) == list(self.CHEAP)
        for name, (_, arguments, run_command, fmt) in COMMANDS.items():
            assert callable(run_command) and fmt in ("json", "pretty")
            # the subparser's arguments are the entry's, in its order
            actions = [a for a in _subparser(name)._actions
                       if a.dest != "help"]
            assert [(a.option_strings or [a.dest])[0]
                    for a in actions] == [flag for flag, _ in arguments]

    @pytest.mark.parametrize("name", list(CHEAP))
    def test_default_format(self, capsys, name):
        code, out, err = run(capsys, *self.CHEAP[name])
        assert (code, err) == (0, "")
        if name == "report":
            assert json.loads(out)["config"]["command"] == "report"
        else:
            assert out.split()[0] in ("n", "id", "row")
            assert "\nholds=" in out

    def test_failed_out_write_is_a_config_error(self, capsys, tmp_path,
                                                 monkeypatch):
        # the write fails after the command has run: still exit 2, one
        # error line and no traceback
        def refuse(self, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", refuse)
        out = tmp_path / "t.txt"
        code, stdout, err = run(capsys, "poly", "--n", "0..2", "--out",
                                str(out))
        assert (code, stdout) == (2, "")
        assert err == (f"error: cannot use --out {out}: "
                       "No space left on device\n")
        assert not out.exists()


def _subparser(name):
    return next(a for a in commands.build_parser(COMMANDS, [name])._actions
                if a.dest == "command").choices[name]


# every option that takes a value, of every command
VALUE_OPTIONS = [(name, action.option_strings[0])
                 for name in COMMANDS for action in _subparser(name)._actions
                 if action.option_strings and action.nargs != 0]


class TestPadicConfiguration:
    """``padic.check_config`` checks the p-adic settings and holds their
    defaults; the CLI turns its ValueError into one ``error:`` line that
    names the setting as the user gave it."""

    @pytest.mark.parametrize("option, value, message", [
        ("--p", "4", "p must be an odd prime, got 4"),
        ("--q", "2", "q must satisfy v_p(q - 1) >= 1"),
        ("--K", "0", "--K must be >= 1"),
        ("--guard", "1", "--guard must be >= 2"),
        ("--n-max", "0", "--n-max must be >= 1"),
    ])
    @pytest.mark.parametrize("command", [
        ("numbers", "bernoulli", "--p", "3", "--K", "4"),
        ("verify", "THM6"),
        ("integrate", "bosonic", "--n", "1"),
        ("report",),
    ], ids=lambda c: " ".join(c[:2]))
    def test_a_bad_setting_is_named_as_given(self, capsys, command, option,
                                             value, message):
        assert run(capsys, *command, option, value) == (
            2, "", f"error: {message}\n")

    def test_help_states_the_defaults_of_check_config(self):
        # help is built without loading padic, so it repeats them
        helps = {a.dest: a.help for a in _subparser("integrate")._actions}
        assert "default 1+p" in helps["q"]
        assert f"default {padic.DEFAULT_GUARD})" in helps["guard"]
        assert f"default {padic.DEFAULT_MAX_LEVEL})" in helps["n_max"]

    def test_config_block_holds_the_defaults(self, capsys):
        code, out, _ = run(capsys, "integrate", "bosonic", "--n", "1",
                           "--format", "json")
        config = json.loads(out)["config"]
        assert code == 0
        assert [config[k] for k in ("p", "q", "K", "guard", "n_max")] == [
            3, "4", 4, 4, 12]


@pytest.mark.parametrize("name, option", VALUE_OPTIONS,
                         ids=[f"{n} {o}" for n, o in VALUE_OPTIONS])
def test_option_given_dashes_is_a_usage_error(capsys, name, option):
    # argparse stores '--opt=--' as an empty list, without the option's type
    code, out, err = run(capsys, *TestCommandTable.CHEAP[name], f"{option}=--")
    assert (code, out) == (2, "")
    assert err == f"error: argument {option}: expected one argument\n"


class TestNumbersCommand:
    def test_euler_rows(self, capsys):
        code, out, _ = run(capsys, "numbers", "euler", "--n", "0..3")
        assert code == 0
        assert "(-q)/(1 + q)" in out
        assert "(-q + q^2)/(1 + 2q + q^2)" in out
        assert "(-q + 4q^2 - q^3)/(1 + 3q + 3q^2 + q^3)" in out

    def test_euler_at_q_one(self, capsys):
        code, out, _ = run(capsys, "numbers", "euler", "--n", "0..3",
                           "--at-q", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "n"  # header row
        values = [line.split(",")[-1] for line in lines[1:]]
        assert values == ["1", "-1/2", "0", "1/4"]

    def test_bernoulli_requires_padic_config(self, capsys):
        code, _, err = run(capsys, "numbers", "bernoulli", "--n", "0..1")
        assert code == 2
        assert "needs explicit" in err

    def test_bernoulli_rows(self, capsys):
        code, out, _ = run(capsys, "numbers", "bernoulli", "--n", "0..1",
                           "--p", "3", "--K", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rows = doc["items"]
        assert rows[0]["valuation"] == 0 and rows[0]["unit"] == 1
        assert rows[1]["valuation"] == 1 and rows[1]["unit"] == 17

    @pytest.mark.parametrize("p, q, K", [
        (3, "1+p", 5), (5, "6", 6), (7, "8", 4), (3, "4/7", 5)])
    def test_bernoulli_rows_are_the_closed_form(self, capsys, p, q, K):
        # each row is the closed form B_n = E[n](-q) + n lambda
        # E[n-1](-q)/(q - 1) to the precision it achieved
        code, out, _ = run(capsys, "numbers", "bernoulli", "--n", "0..8",
                           "--p", str(p), "--q", q, "--K", str(K),
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["items"]
        assert [row["n"] for row in rows] == list(range(9))
        q = Fraction(1 + p) if q == "1+p" else Fraction(q)
        for row in rows:
            digits = row["achieved_precision"]
            value = Fraction(p) ** row["valuation"] * row["unit"]
            closed = bosonic_closed_form(row["n"], 0, p, q, digits)
            assert valuation(value - closed, p) >= digits, row

    def test_bernoulli_large_prime_exits_zero(self, capsys):
        code, out, err = run(capsys, "numbers", "bernoulli", "--n", "0..3",
                             "--p", "1000003", "--K", "4", "--format", "json")
        assert code == 0
        assert "Traceback" not in err
        assert [row["n"] for row in json.loads(out)["items"]] == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", [("--p", "9"), ("--p", "3", "--q", "2")])
    def test_bernoulli_bad_p_or_q_is_config_error(self, capsys, bad):
        code, _, err = run(capsys, "numbers", "bernoulli", "--n", "0..3",
                           *bad, "--K", "4")
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_at_q_pole_is_config_error(self, capsys):
        code, _, err = run(capsys, "numbers", "euler", "--n", "0..2",
                           "--at-q", "-1")
        assert code == 2
        assert "pole" in err

    @pytest.mark.parametrize("argv, ignored", [
        (("euler", "--n", "0..2", "--p", "2", "--K", "0", "--q", "zz"),
         "--p, --q, --K"),
        (("euler", "--n", "0..2", "--guard", "3", "--n-max", "5"),
         "--guard, --n-max"),
        (("bernoulli", "--n", "0..2", "--p", "3", "--K", "4", "--at-q", "2"),
         "--at-q"),
    ], ids=["euler-p-q-K", "euler-guard-n-max", "bernoulli-at-q"])
    def test_ignored_options_are_config_errors(self, capsys, argv, ignored):
        code, out, err = run(capsys, "numbers", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: numbers {argv[0]} does not take {ignored}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int-to-str conversion before 3.11")
class TestDigitLimit:
    """Computed values print at any size: ``main`` lifts Python's limit on
    int-to-str conversion while a command runs, and restores it."""

    @pytest.fixture(autouse=True)
    def saved_limit(self):
        saved = sys.get_int_max_str_digits()
        yield
        sys.set_int_max_str_digits(saved)

    def test_a_lowered_limit_is_restored(self, capsys):
        sys.set_int_max_str_digits(640)
        code, out, err = run(capsys, "numbers", "euler", "--n", "330..330")
        assert (code, err) == (0, "")
        assert re.search(r"\d{641}", out)      # N_330 has about 689 digits
        assert sys.get_int_max_str_digits() == 640

    def test_at_q_rows_are_the_exact_values(self, capsys):
        code, out, _ = run(capsys, "numbers", "euler", "--n", "0..3",
                           "--at-q=1e-2000", "--format", "json")
        assert code == 0
        sys.set_int_max_str_digits(0)           # to read the rows back
        q0 = Fraction(1, 10 ** 2000)
        assert ([Fraction(row["value_at_q"])
                 for row in json.loads(out)["items"]]
                == [euler_number_at(n, q0) for n in range(4)])

    @pytest.mark.parametrize("argv", [
        ("integrate", "bosonic", "--n", "2", "--x0=1e-99999", "--p", "3",
         "--K", "4"),
        ("integrate", "bosonic", "--n", "2", "--q=1e5000", "--p", "3",
         "--K", "4"),
        ("verify", "THM6", "--k", "1", "--m", "1", "--q=1e5000"),
    ], ids=["integrate-x0", "integrate-q", "verify-q"])
    def test_large_values_print(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert re.search(r"\d{%d}" % (limit + 1), out)
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("option", ["--q", "--x0", "--at-q", "--n"])
    def test_long_input_numbers_are_usage_errors(self, capsys, option):
        # the user's digits are read under the limit, which main lifts only
        # for the values it computes
        limit = sys.get_int_max_str_digits()
        number = "9" * (limit + 1)
        argv = {"--q": ("integrate", "bosonic", "--n", "2", "--p", "3",
                        "--K", "4", f"--q=1/{number}"),
                "--x0": ("integrate", "bosonic", "--n", "2", "--p", "3",
                         "--K", "4", f"--x0={number}"),
                "--at-q": ("numbers", "euler", f"--at-q={number}"),
                "--n": ("numbers", "euler", f"--n=0..{number}")}[option]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: argument {option}: a number of more than "
                       f"{limit} digits\n")
        assert sys.get_int_max_str_digits() == limit


class TestPolyCommand:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "0..2")
        assert code == 0
        assert "x^2" in out


    def test_out_in_missing_directory_is_config_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "poly", "--n", "0..1",
                             "--out", str(tmp_path / "missing" / "x"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestIntegrateCommand:
    def test_result_and_trace(self, capsys):
        code, out, _ = run(capsys, "integrate", "fermionic", "--n", "1",
                           "--p", "3", "--q", "1+p", "--K", "6",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        result = doc["items"][0]
        assert result["value"] == "145 + O(3^6)"  # -4/5 embedded mod 3^6
        assert result["achieved_precision"] == 6
        levels = [row for row in doc["items"] if row["row"] == "level"]
        assert len(levels) == result["levels"]

    def test_starved_budget_warns_but_exits_zero(self, capsys):
        code, out, _ = run(capsys, "integrate", "fermionic", "--n", "5",
                           "--p", "3", "--K", "8", "--n-max", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        result = doc["items"][0]
        assert result["warning"] == "convergence not reached"
        assert result["achieved_precision"] < 8

    def test_fermionic_p7_converges_past_former_term_cap(self, capsys):
        # stopped at level 7 with 5 digits when levels were capped at
        # 10^6 terms
        code, out, _ = run(capsys, "integrate", "fermionic", "--n", "8",
                           "--p", "7", "--K", "6", "--format", "json")
        assert code == 0
        result = json.loads(out)["items"][0]
        assert "warning" not in result
        assert result["achieved_precision"] == 6
        assert result["levels"] == 8
        assert result["value"] == "9907*7^1 + O(7^6)"
        exact = PadicApprox.from_rational(euler_number(8).evaluate(8), 7, 12)
        assert padic_distance(PadicApprox(7, 1, 9907, 5), exact) >= 6

    def test_large_prime_exits_zero(self, capsys):
        code, out, err = run(capsys, "integrate", "fermionic", "--n", "3",
                             "--p", "1000003", "--K", "4", "--format", "json")
        assert code == 0
        assert "Traceback" not in err
        assert json.loads(out)["items"][0]["achieved_precision"] == 4

    def test_mersenne_61_prime_exits_zero(self, capsys):
        p = 2 ** 61 - 1
        code, out, err = run(capsys, "integrate", "fermionic", "--n", "1",
                             "--p", str(p), "--K", "4", "--format", "json")
        assert code == 0
        result = json.loads(out)["items"][0]
        assert result["achieved_precision"] == 4
        exact = PadicApprox.from_rational(euler_number(1).evaluate(1 + p), p, 4)
        assert result["value"] == str(exact)

    def test_prime_beyond_test_bound_is_config_error(self, capsys):
        start = time.monotonic()
        code, _, err = run(capsys, "integrate", "fermionic", "--n", "1",
                           "--p", str((2 ** 31 - 1) * (2 ** 61 - 1)),
                           "--K", "4")
        assert code == 2
        assert err.startswith("error:")
        assert time.monotonic() - start < 5

    def test_bosonic_trivial(self, capsys):
        code, out, _ = run(capsys, "integrate", "bosonic", "--n", "0",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["items"][0]["value"].startswith("1 + O(")


class TestVerifyCommand:
    def test_small_grid_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "EQ6", "--k", "0..2",
                           "--m", "0..2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["holds"] == 9
        assert doc["summary"]["total"] == 9

    def test_printed_failures_informational(self, capsys):
        code, out, _ = run(capsys, "verify", "THM3_PRINTED", "--k", "1..4",
                           "--format", "json")
        assert code == 0  # printed-variant failures never affect the exit code
        doc = json.loads(out)
        assert doc["summary"]["fails"] >= 1
        assert doc["summary"]["total"] == 4

    def test_padic_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "THM6", "--k", "1..2",
                           "--m", "1..2", "--p", "3", "--q", "1+p",
                           "--K", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["holds_to_precision"] == 4

    def test_stray_range_rejected(self, capsys):
        for argv in (("verify", "THM2", "--m", "1..2"),
                     ("verify", "all", "--k", "1")):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "stray" in err

    def test_all_takes_no_ranges(self, capsys):
        code, _, err = run(capsys, "verify", "all", "--n", "1..3")
        assert code == 2
        assert "error: all takes no ranges; stray range for ['n']" in err

    def test_unknown_identity_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "THM9")
        assert code == 2

    def test_bad_q_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "THM6", "--q", "2")
        assert code == 2

    def test_error_rows_keep_padic_mode(self, capsys, monkeypatch):
        # no q-Bernoulli number can be had, so both cells, whose
        # x-certificates are not zero, are error rows; printed-variant
        # rows never affect the exit code
        def unavailable(n, q):
            raise ArithmeticError(f"no B_{n}")

        counted_moment_pairs(monkeypatch)       # no pair memoized before
        monkeypatch.setattr(identities, "bernoulli_pair", unavailable)
        code, out, _ = run(capsys, "verify", "COR7_PRINTED", "--k", "1..2",
                           "--format", "json")
        assert code == 0
        items = json.loads(out)["items"]
        assert [item["verdict"] for item in items] == ["error", "error"]
        assert {item["mode"] for item in items} == {"padic(p=3,q=4,K=4)"}
        assert all(item["certificate"].startswith("ArithmeticError: no B_")
                   for item in items)

    def test_failed_integrals_run_once(self, capsys, monkeypatch):
        # three error cells, each a zero known to fewer than K digits, need
        # the moment pairs of E_1, E_3, E_5 and E_7; each is computed once
        # and is then served its memo, and each cell is embedded once
        # (test_qintegral's test_memo_runs_a_short_integral_once covers the
        # level route's memo of integrals that stop short)
        embedded = []

        def short(a, b, p, q, precision):
            embedded.append((a, b))
            return PadicApprox.zero(p, 1)

        computed = counted_moment_pairs(monkeypatch)
        monkeypatch.setattr(identities, "at_precision", short)
        code, out, _ = run(capsys, "verify", "COR7_PRINTED", "--k", "1..3",
                           "--format", "json")
        assert code == 0
        items = json.loads(out)["items"]
        assert [item["verdict"] for item in items] == ["error"] * 3
        assert computed == [1, 3, 5, 7]
        assert len(embedded) == 3 and (0, 0) not in embedded


class TestTimingSideChannel:
    def test_battery_routes_and_x_certificates(self, tmp_path):
        out = tmp_path / "battery.json"
        assert main(["report", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["canonical_sha256"] == BATTERY_SHA256
        timing = doc["timing"]
        assert timing["routes"] == {"x-certificate": 240, "tables": 25}
        # only the cells whose x-certificate is not zero
        assert sorted(timing["x_certificates"]) == [
            f"{ident}:{{'k': {k}}}" for ident, top in (
                ("COR7_PRINTED", 3), ("THM3_PRINTED", 4), ("THM5_PRINTED", 4))
            for k in range(1, top + 1)]
        assert timing["x_certificates"]["THM3_PRINTED:{'k': 2}"] == (
            "((2 - 2q)/(1 + q))x^3 + ((-2 + 2q)/(1 + q))x^5")
        # and, of those, the bosonic cells' exact (A, B), with certificate
        # A + B/log_3 4
        pairs = timing["bosonic_pairs"]
        assert pairs == {
            "COR7_PRINTED:{'k': 1}": ["2432/625", "-888/125"],
            "COR7_PRINTED:{'k': 2}": ["11693312/84375", "-1111936/5625"],
            "COR7_PRINTED:{'k': 3}": ["3380856832/703125",
                                      "-312682496/46875"]}
        for item in doc["items"]:
            cell = f"{item['id']}:{item['params']}"
            if cell in pairs:
                a, b = map(Fraction, pairs[cell])
                exact = a + b / padic_log(Fraction(4), 3, 12)
                assert item["certificate"] == str(
                    PadicApprox.from_rational(exact, 3, 12).truncate_abs(4))


class TestReportDocument:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "verify", "EQ7", "--n", "1..4",
                           "--format", "json")
        assert code == 0
        report = Report.parse(out)
        assert report.body() == Report.parse(out).body()
        doc = json.loads(out)
        assert doc["schema"] == "qeuler-report/1"
        assert doc["canonical_sha256"] == report.sha256()
        # one line, in the canonical layout
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                 ensure_ascii=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ["report"],
        ["integrate", "bosonic", "--n", "3", "--p", "5", "--K", "4",
         "--format", "json"],
    ])
    def test_digest_is_hashlib_sha256(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        body = {key: value for key, value in doc.items()
                if key not in ("canonical_sha256", "timing")}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                               ensure_ascii=True)
        assert doc["canonical_sha256"] == hashlib.sha256(
            canonical.encode("ascii")).hexdigest()

    def test_params_cells_are_canonical_json(self):
        # pretty and CSV rows write a row's parameters without json
        from qeuler.identities import IdentityId, grid_params
        from qeuler.formats import _cell
        from qeuler.report import canonical_json

        cells = [params for identity in IdentityId
                 for params in grid_params(identity)]
        for params in cells + [{"m": 12, "k": -3}]:
            assert _cell(params) == canonical_json(params)

    def test_summary_counts_items(self, capsys):
        _, out, _ = run(capsys, "verify", "THM2", "--k", "1..5",
                        "--format", "json")
        doc = json.loads(out)
        s = doc["summary"]
        total = s["holds"] + s["fails"] + s["holds_to_precision"] + s["errors"]
        assert total == len(doc["items"]) == s["total"]

    def test_csv_header(self, capsys):
        _, out, _ = run(capsys, "verify", "EQ7", "--n", "1..3",
                        "--format", "csv")
        assert out.splitlines()[0] == "id,params,mode,verdict,certificate"

    def test_one_version_literal(self):
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert version.group(1) == TOOL_VERSION
        assert qeuler.__version__ == TOOL_VERSION

    def test_report_record(self):
        report = Report({"a": 1}, [{"n": 0}])
        assert report == Report({"a": 1}, [{"n": 0}], {})
        assert report != Report({"a": 1}, [{"n": 0}], {"total_seconds": 1})
        assert repr(report) == "Report(config={'a': 1}, items=[{'n': 0}], timing={})"
        with pytest.raises(TypeError):
            hash(report)

    def test_exit_code_logic(self):
        fail_printed = Report({}, [{"id": "THM3_PRINTED", "verdict": "fails"}])
        assert fail_printed.exit_code() == 0
        fail_real = Report({}, [{"id": "THM3_CORRECTED", "verdict": "fails"}])
        assert fail_real.exit_code() == 1
        err_real = Report({}, [{"id": "THM6", "verdict": "error"}])
        assert err_real.exit_code() == 1
        ok = Report({}, [{"id": "EQ6", "verdict": "holds"}])
        assert ok.exit_code() == 0


class TestDeterminismAndCache:
    def test_same_config_same_canonical_body(self, capsys, tmp_path):
        args = ("verify", "THM6", "--k", "1..2", "--m", "1..2",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert Report.parse(out1).canonical() == Report.parse(out2).canonical()

    def test_cache_hits_bit_identical(self, capsys, tmp_path):
        cache_file = tmp_path / "cache.json"
        args = ("verify", "COR7_CORRECTED", "--k", "1..2", "--format", "json")
        _, cold, _ = run(capsys, *args, "--cache", str(cache_file))
        assert cache_file.exists()
        _, warm, _ = run(capsys, *args, "--cache", str(cache_file))
        _, none, _ = run(capsys, *args, "--no-cache")
        assert Report.parse(cold).canonical() == Report.parse(warm).canonical()
        assert Report.parse(cold).canonical() == Report.parse(none).canonical()
        # what the cache did is in the side channel only
        assert json.loads(cold)["timing"]["cache"] == "stored"
        assert json.loads(warm)["timing"]["cache"] == "checked"
        assert "cache" not in json.loads(none)["timing"]

    @pytest.mark.parametrize("argv", [
        ("poly", "--n", "0..1"),
        ("integrate", "fermionic", "--n", "1", "--p", "3", "--K", "4"),
    ])
    def test_cache_flags_only_where_read(self, capsys, tmp_path, argv):
        cache = tmp_path / "cache.json"
        for flag in (f"--cache={cache}", "--no-cache"):
            code, _, _ = run(capsys, *argv, flag)
            assert code == 2
        assert not cache.exists()

    def test_cache_round_trips_report_hashes(self, tmp_path):
        path = tmp_path / "cache.json"
        reports = [euler_table(n) for n in range(6)]
        cache = ResultCache(path)
        assert [cache.check(r.config, r.sha256())
                for r in reports] == ["stored"] * 6
        cache.save()
        again = ResultCache(path)
        assert again.entries == {
            f"{TOOL_VERSION}:{canonical_json(r.config)}": r.sha256()
            for r in reports}
        # raises on a mismatch
        assert [again.check(r.config, r.sha256())
                for r in reports] == ["checked"] * 6
        assert not again.dirty
        with pytest.raises(CacheError):
            again.check(reports[5].config, reports[4].sha256())

    def test_truncated_cache_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"schema": "qeuler-cache/2", "entr')
        code, _, err = run(capsys, "numbers", "euler", "--n", "0..2",
                           "--cache", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("doc", [
        # no entry table, and an entry table that is not a table
        {"schema": "qeuler-cache/2"},
        {"schema": "qeuler-cache/2", "entries": []},
        # a file that is not a JSON object
        ["qeuler-cache/2", {}],
        # an entry under this run's key that is not a hash
        {"schema": "qeuler-cache/2", "entries": {EULER_0_2_KEY: {"num": ["1"]}}},
        # a file of the per-value encoding, with a correct E[1] entry
        {"schema": "qeuler-cache/1",
         "entries": {"euler:n=1": {"num": ["0", "-1"], "den": ["1", "1"]}}},
    ])
    def test_malformed_cache_is_config_error(self, capsys, tmp_path, doc):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "numbers", "euler", "--n", "0..2",
                             "--cache", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_entry_of_another_version_is_not_a_mismatch(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        # the version is in the body, so its hash differs, and in the key,
        # so the two entries stand side by side
        path = tmp_path / "cache.json"
        args = ("numbers", "euler", "--n", "0..2", "--format", "json",
                "--cache", str(path))
        monkeypatch.setattr(report_module, "TOOL_VERSION", "0.0.9")
        code, older, _ = run(capsys, *args)
        assert code == 0
        monkeypatch.undo()
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["timing"]["cache"] == "stored"
        assert json.loads(out)["canonical_sha256"] != (
            json.loads(older)["canonical_sha256"])
        entries = json.loads(path.read_text())["entries"]
        assert sorted(entries) == [f"0.0.9:{EULER_0_2_CONFIG}",
                                   f"{TOOL_VERSION}:{EULER_0_2_CONFIG}"]

    def test_overlapping_ranges_are_separate_entries(self, capsys, tmp_path):
        # an entry is checked only by a rerun of its own configuration: a
        # wider range stores a second hash beside the first
        path = tmp_path / "cache.json"
        docs = []
        for n in ("0..2", "0..3", "0..2"):
            code, out, _ = run(capsys, "numbers", "euler", "--n", n,
                               "--format", "json", "--cache", str(path))
            assert code == 0
            docs.append(json.loads(out))
        assert [d["timing"]["cache"] for d in docs] == [
            "stored", "stored", "checked"]
        entries = json.loads(path.read_text())["entries"]
        assert len(entries) == 2
        assert entries[EULER_0_2_KEY] == docs[0]["canonical_sha256"]

    @pytest.mark.parametrize("fmt", ["pretty", "csv"])
    def test_text_formats_store_the_report_hash(self, capsys, tmp_path, fmt):
        # pretty and CSV print no hash, but a --cache run stores the one
        # JSON output prints, and prints what a --no-cache run prints
        path = tmp_path / "cache.json"
        args = ("numbers", "euler", "--n", "0..2")
        _, plain, _ = run(capsys, *args, "--format", fmt, "--no-cache")
        code, cold, _ = run(capsys, *args, "--format", fmt,
                            "--cache", str(path))
        assert (code, cold) == (0, plain)
        code, warm, _ = run(capsys, *args, "--format", fmt,
                            "--cache", str(path))
        assert (code, warm) == (0, plain)
        _, as_json, _ = run(capsys, *args, "--format", "json", "--no-cache")
        assert json.loads(path.read_text())["entries"] == {
            EULER_0_2_KEY: json.loads(as_json)["canonical_sha256"]}

    def test_poisoned_euler_entry_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        args = ("numbers", "euler", "--n", "0..3", "--format", "csv",
                "--cache", str(path))
        code, cold, _ = run(capsys, *args)
        assert code == 0
        code, warm, _ = run(capsys, *args)
        assert (code, warm) == (0, cold)
        poison_stored_hash(path)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_cache_in_missing_directory_is_config_error(self, capsys,
                                                         tmp_path):
        code, out, err = run(capsys, "numbers", "euler", "--n", "0..2",
                             "--cache", str(tmp_path / "missing" / "c.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_cache_path_is_directory_is_config_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "numbers", "euler", "--n", "0..2",
                             "--cache", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_json_cache_run_hashes_the_body_once(self, capsys, tmp_path,
                                                 monkeypatch):
        # the hash that the cache stores or checks is the one JSON prints
        texts = []
        digest = report_module._sha256

        def counted(text):
            texts.append(text)
            return digest(text)

        monkeypatch.setattr(report_module, "_sha256", counted)
        args = ("numbers", "euler", "--n", "0..4", "--format", "json")
        cache = ("--cache", str(tmp_path / "cache.json"))
        for extra, status in (((), None), (cache, "stored"),
                              (cache, "checked")):
            texts.clear()
            code, out, _ = run(capsys, *args, *extra)
            doc = json.loads(out)
            assert (code, doc["timing"].get("cache")) == (0, status)
            assert texts == [Report.parse(out).canonical()]
            assert doc["canonical_sha256"] == digest(texts[0])

    def test_store_keeps_the_mode_of_the_cache_file(self, capsys, tmp_path):
        # each run stores a new entry, so each saves the file again
        path = tmp_path / "cache.json"
        for n in range(3):
            code, _, _ = run(capsys, "numbers", "euler", "--n", f"0..{n}",
                             "--cache", str(path))
            assert code == 0
            if n:
                assert stat.S_IMODE(os.stat(path).st_mode) == 0o664
            os.chmod(path, 0o664)
        assert len(json.loads(path.read_text())["entries"]) == 3

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002],
                             ids=lambda umask: f"umask-{umask:03o}")
    def test_new_cache_file_takes_the_mode_open_gives(self, tmp_path, umask):
        path, plain = tmp_path / "cache.json", tmp_path / "plain"
        table = euler_table(1)
        previous = os.umask(umask)
        try:
            cache = ResultCache(path)
            cache.check(table.config, table.sha256())
            cache.save()
            plain.write_text("")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(os.stat(plain).st_mode) == 0o666 & ~umask

    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        stored = euler_table(1)
        cache.check(stored.config, stored.sha256())
        cache.save()
        before = path.read_text()

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(os, "replace", interrupted)
        changed = euler_table(2)
        cache.check(changed.config, changed.sha256())
        with pytest.raises(OSError):
            cache.save()
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["cache.json"]

    def test_zero_certificate_short_of_K_is_undecided(self, capsys,
                                                      monkeypatch):
        # a certificate embedded as the zero known mod 3^1 makes the
        # COR7_PRINTED difference at k = 1, whose x-certificate is not
        # zero, a zero known to 1 < K digits: no verdict (a printed
        # variant's row, so exit 0)
        args = ("verify", "COR7_PRINTED", "--k", "1", "--format", "json")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["items"][0]["verdict"] == "fails"
        monkeypatch.setattr(identities, "at_precision",
                            lambda a, b, p, q, precision: PadicApprox.zero(p, 1))
        code, out, _ = run(capsys, *args)
        item = json.loads(out)["items"][0]
        assert item["verdict"] == "error"
        assert item["certificate"] == "O(3^1)"
        assert code == 0
        # a THM6 cell's x-certificate is zero, so it reads no moment pair
        monkeypatch.undo()

        def unavailable(n, q):
            raise ArithmeticError(f"no moment of E_{n}")

        monkeypatch.setattr(identities, "_moment_pair", unavailable)
        code, out, _ = run(capsys, "verify", "THM6", "--k", "1", "--m", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["items"][0]["certificate"] == "O(3^4)"

    def test_poisoned_integral_entry_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        args = ("numbers", "bernoulli", "--n", "1", "--p", "3", "--K", "4",
                "--cache", str(path))
        code, cold, _ = run(capsys, *args)
        assert code == 0
        assert "17*3^1 + O(3^4)" in cold
        poison_stored_hash(path)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("report", "--out", "{missing}"),
        ("report", "--out", "{tmp}"),
        ("verify", "EQ6", "--k", "0", "--m", "0", "--cache", "{missing}"),
        ("verify", "EQ6", "--k", "0", "--m", "0", "--out", "{missing}"),
    ])
    def test_bad_output_path_fails_before_any_work(self, capsys, tmp_path,
                                                   monkeypatch, argv):
        from qeuler import identities

        cells = []
        checked = identities.verify

        def counted(*args, **kwargs):
            cells.append(args)
            return checked(*args, **kwargs)

        monkeypatch.setattr(identities, "verify", counted)
        paths = {"missing": tmp_path / "missing" / "r.json", "tmp": tmp_path}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot use --")
        assert cells == []
        assert os.listdir(tmp_path) == []


# -- the program as it is run -------------------------------------------------

SRC = Path(qeuler.__file__).resolve().parent.parent

# Runs qeuler.cli as __main__, as ``python -m qeuler.cli`` does, with the
# arguments after the first, and writes the interpreter's freeze count at
# exit to the file named by the first.
_FREEZE_PROBE = """\
import atexit, gc, pathlib, runpy, sys
path = pathlib.Path(sys.argv.pop(1))
atexit.register(lambda: path.write_text(str(gc.get_freeze_count())))
runpy.run_module("qeuler.cli", run_name="__main__")
"""


def run_child(*argv, cwd=None):
    """``python -m qeuler.cli argv`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


class TestProcessEntry:
    """``python -m qeuler.cli`` reaches ``cli.entry``, which freezes the heap
    around ``main``; the output is the in-process ``main``'s."""

    def test_entry_freezes_the_heap(self, tmp_path):
        count = tmp_path / "count"
        proc = run_child("-c", _FREEZE_PROBE, str(count), "numbers", "euler",
                         "--n", "0..3")
        assert proc.returncode == 0, proc.stderr
        assert int(count.read_text()) > 0

    def test_main_leaves_the_collector_alone(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        code, _, _ = run(capsys, "verify", "EQ6", "--k", "0..1", "--m", "0..1")
        assert code == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    @pytest.mark.parametrize("argv", [
        ("numbers", "euler", "--n", "0..5"),
        ("integrate", "fermionic", "--n", "3", "--p", "3", "--K", "4"),
        ("verify", "EQ6", "--k", "0..2", "--m", "0..2"),
    ])
    def test_child_body_is_main_body(self, capsys, argv):
        argv = (*argv, "--format", "json")
        proc = run_child("-m", "qeuler.cli", *argv)
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (code, "")
        assert Report.parse(proc.stdout).canonical() == (
            Report.parse(out).canonical())

    def test_child_usage_error_is_one_line(self):
        proc = run_child("-m", "qeuler.cli", "verify", "THM9")
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error:")

    def test_child_files_are_complete(self, tmp_path):
        out, cache = tmp_path / "r.json", tmp_path / "cache.json"
        proc = run_child("-m", "qeuler.cli", "verify", "EQ6", "--k", "0..2",
                         "--m", "0..2", "--format", "json", "--out", str(out),
                         "--cache", str(cache), cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        report = Report.parse(out.read_text())
        assert len(report.items) == 9
        entries = json.loads(cache.read_text())["entries"]
        key = f"{TOOL_VERSION}:{canonical_json(report.config)}"
        assert entries == {key: report.sha256()}
        assert sorted(os.listdir(tmp_path)) == ["cache.json", "r.json"]

    @pytest.mark.parametrize("argv, code", [
        (("integrate", "bosonic", "--n=3", "--p=7", "--K=5"), 0),
        (("numbers", "euler", "--n=0..4", "--cache=cache.json"), 0),
        (("numbers", "bernoulli", "--n=0..4", "--p=3", "--K=4"), 0),
        (("verify", "EQ6", "--k=0..2", "--m=0..2"), 0),
        (("report",), 0),
        (("poly", "--format=csv"), 0),
        (("integrate", "--help"), 0),
        (("verify", "THM9"), 2),
    ], ids=["integrate", "euler-cache", "bernoulli", "verify", "report",
            "poly-csv", "help", "usage-error"])
    def test_cli_is_compiled_once(self, tmp_path, argv, code):
        # under -m the running module is __main__; a module that imported
        # qeuler.cli by name would compile and run cli.py a second time,
        # which -X importtime shows as an import of qeuler.cli
        proc = run_child("-X", "importtime", "-m", "qeuler.cli", *argv,
                         cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "qeuler.report" in imported
        assert "qeuler.cli" not in imported
