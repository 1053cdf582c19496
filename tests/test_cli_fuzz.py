"""The CLI over a grammar of argument vectors, in process: every argv ends
in exit 0, 1 or 2 and never in a traceback, and the command table's
reader (``read_argv``) either declines an argv or reads what argparse
reads from it.

The grammar draws a command, its positional arguments and up to four of
its options (an option may repeat, and the options may come before the
positional arguments), each in the '--opt value' or the '--opt=value'
form, at valid values, and then at most one fault: an out-of-range or
malformed value ('--' among them), a bad positional argument, missing
positional words (integrate's '--n 3' among them), or a stray token
(help, an abbreviation, '--', a flag given a value).  Valid values
include some that start with '-', which argparse reads only in the '='
form.  Sizes stay small (indices and levels up to 8, K up to 6), so one
example runs in milliseconds.  Paths name a directory or a missing one,
so no example writes a file.  Hypothesis derandomizes the examples, so every
run draws the same ones.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeuler import cli
from qeuler.cli import main, read_argv
from qeuler.commands import build_parser

# each option's values: valid ones, then out-of-range or malformed ones
RANGES = (("0", "1", "0..3", "1..2", "2..4"),
          ("3..1", "-1", "1..", "x", "--", ""))
VALUES = {
    "--n": RANGES,
    "--k": RANGES,
    "--m": RANGES,
    "--p": (("3", "5", "7"), ("2", "9", "-3", "0", "x", "--")),
    "--q": (("1+p", "1", "4", "-2", "1/2"), ("6", "0", "x", "2/0", "--")),
    "--K": (("1", "3", "6"), ("0", "-1", "x", "--")),
    "--guard": (("2", "4"), ("1", "x", "--")),
    "--n-max": (("1", "3", "8"), ("0", "x", "--")),
    "--x0": (("0", "1/2", "-5/2"), ("1/3", "2/0", "x", "--")),
    "--at-q": (("1", "-1", "3/7", "0"), ("x", "--")),
    "--format": (("json", "csv", "pretty"), ("xml", "--")),
    "--out": ((), (".", "missing-dir/out.txt", "--")),
    "--cache": ((), (".", "missing-dir/cache.json", "--")),
}
PADIC = ("--p", "--q", "--K", "--guard", "--n-max")

# each command: its valid positional arguments, a bad one, and its options
COMMANDS = {
    "numbers": ((("euler",), ("bernoulli",)), "frob",
                ("--n", "--at-q", *PADIC, "--format", "--out", "--cache")),
    "poly": (((),), "frob", ("--n", "--format", "--out")),
    "verify": ((("EQ6",), ("EQ103",), ("THM1",), ("THM4",), ("THM6",),
                ("COR7_PRINTED",), ("EQ7",), ("EQ8",)), "NOPE",
               ("--k", "--m", "--n", *PADIC, "--format", "--out", "--cache")),
    "integrate": ((("bosonic", "--n", "0"), ("fermionic", "--n", "3"),
                   ("bosonic", "--n", "8")), "spectral",
                  ("--n", "--x0", *PADIC, "--format", "--out")),
}
TOKENS = ("--bogus", "--no-cache", "--no-cache=x", "--form=json", "--",
          "-h")


@st.composite
def argvs(draw):
    """A command with valid positional arguments and up to four options at
    valid values, before or after the positional arguments, then at most
    one fault: a bad value for one option (last given, so it wins), a bad
    positional argument, a random subset of the positional words, or a
    stray token."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, bad_positional, names = COMMANDS[command]
    words = list(draw(st.sampled_from(positionals)))
    options = [(name, draw(st.sampled_from(VALUES[name][0])))
               for name in draw(st.lists(st.sampled_from(names), max_size=4))
               if VALUES[name][0]]
    fault = draw(st.sampled_from((None, "value", "positional", "token")))
    if fault == "value":
        name = draw(st.sampled_from(names))
        options.append((name, draw(st.sampled_from(VALUES[name][1]))))
    elif fault == "positional" and draw(st.booleans()):
        words[:1] = [bad_positional]
    elif fault == "positional":
        words = [word for word in words if draw(st.booleans())]
    given = [word for name, value in options
             for word in ([f"{name}={value}"] if draw(st.booleans())
                          else [name, value])]
    words = [command, *(given + words if draw(st.booleans())
                        else words + given)]
    if fault == "token":
        words.insert(draw(st.integers(1, len(words))),
                     draw(st.sampled_from(TOKENS)))
    return words


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_the_reader_declines_or_agrees_with_argparse(argv):
    args = read_argv(argv)
    if args is not None:
        parsed = build_parser(cli.COMMANDS, argv).parse_args(argv)
        assert vars(args) == vars(parsed), argv


@pytest.mark.parametrize("argv", [
    ["integrate", "fermionic", "--n=8", "--x0=-5/2", "--p=7", "--K=8"],
    ["integrate", "--n", "3", "bosonic", "--q", "1/2"],
    ["numbers", "--format", "csv", "bernoulli", "--n=0..9", "--p=3", "--K=7",
     "--no-cache", "--cache=c.json"],
    ["numbers", "euler", "--n", "0..40", "--at-q=3/7", "--format=json"],
    ["verify", "EQ6", "--k=0..3", "--m", "1..2", "--n-max=3"],
    ["poly"], ["report", "--guard", "4", "--out=r.json"],
])
def test_the_reader_reads_well_formed_lines(argv):
    args = read_argv(argv)
    assert args is not None
    assert vars(args) == vars(build_parser(cli.COMMANDS, argv).parse_args(argv))
