"""Import layering: each CLI command loads only the layers it uses, and the
package namespace resolves its names on first use."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import typing
from pathlib import Path
from types import FunctionType

import pytest

import qeuler
from qeuler import cli
from qeuler.qintegral import KIND_BOSONIC, KIND_FERMIONIC
from qeuler.report import TOOL_VERSION

SRC = Path(qeuler.__file__).resolve().parent.parent

# Runs its arguments through the CLI in a fresh interpreter (or, with the
# single argument "package", imports qeuler; with none, imports nothing),
# then writes the names of the loaded modules to stderr, one a line, and
# exits with the CLI's exit code.  The interpreter runs without the site
# module (-S), whose .pth files may preload standard modules (pathlib,
# typing, contextlib and others) that the probe could then never report.
_PROBE = """\
import sys
code = 0
if sys.argv[1:] == ["package"]:
    import qeuler
elif sys.argv[1:]:
    from qeuler.cli import main
    code = main(sys.argv[1:])
sys.stderr.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


def _probe(*argv, code: int = 0) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return set(proc.stderr.split("\n"))


def loaded_modules(*argv, code: int = 0) -> set:
    """Modules the probe loads beyond those of interpreter start-up; the
    command must exit with ``code``."""
    return _probe(*argv, code=code) - _probe()


NUMERIC_FREE = {"qeuler.identities", "qeuler.qspecial", "qeuler.exactarith",
                "dataclasses"}
# what a well-formed integrate or numbers bernoulli line in JSON never runs:
# the catalog commands and the argparse fallback, the text formats, the
# cache, the closed form, and the standard modules that qeuler only used
# for paths, annotations and a context manager
NUMERIC_JSON_FREE = {"qeuler.commands", "qeuler.formats", "qeuler.cache",
                     "qeuler.closedform", "pathlib", "typing", "contextlib",
                     "argparse", "csv"}


@pytest.mark.parametrize("argv", [
    ("integrate", "fermionic", "--n", "3", "--x0", "1/2", "--p", "3",
     "--K", "4", "--format", "json"),
    ("numbers", "bernoulli", "--n", "0..3", "--p", "3", "--K", "4",
     "--format", "json"),
])
def test_numeric_commands_load_no_exact_layer(argv):
    modules = loaded_modules(*argv)
    assert "qeuler.qintegral" in modules
    assert not modules & NUMERIC_FREE


@pytest.mark.parametrize("argv", [
    ("integrate", "bosonic", "--n=3", "--p=7", "--K=5", "--format=json"),
    ("integrate", "fermionic", "--n", "4", "--x0", "1/2", "--p", "3",
     "--K", "4", "--format", "json"),
    ("numbers", "bernoulli", "--n=0..8", "--p=3", "--K=5", "--format=json"),
])
def test_numeric_json_lines_load_only_what_they_run(argv):
    modules = loaded_modules(*argv)
    assert {"qeuler.qintegral", "json"} <= modules
    assert not modules & (NUMERIC_JSON_FREE | NUMERIC_FREE)


@pytest.mark.parametrize("fmt", ["pretty", "csv"])
def test_text_formats_load_the_format_module(fmt):
    modules = loaded_modules("integrate", "bosonic", "--n=3", "--p=7",
                             "--K=5", f"--format={fmt}")
    assert "qeuler.formats" in modules
    assert not modules & {"qeuler.cache", "qeuler.commands", "json"}


def test_cache_line_loads_the_cache_module(tmp_path):
    modules = loaded_modules("numbers", "bernoulli", "--n=0..3", "--p=3",
                             "--K=4", "--format=json",
                             f"--cache={tmp_path / 'cache.json'}")
    assert "qeuler.cache" in modules
    assert not modules & {"qeuler.formats", "qeuler.commands",
                          "qeuler.closedform"}


def test_report_loads_the_closed_form():
    modules = loaded_modules("report")
    assert {"qeuler.commands", "qeuler.closedform"} <= modules
    assert not modules & {"qeuler.formats", "qeuler.cache", "argparse"}


@pytest.mark.parametrize("argv", [
    ("verify", "EQ103", "--k", "1"),
    ("verify", "EQ6", "--k", "0..3", "--m", "0..3", "--format", "json"),
])
def test_verify_loads_no_dataclasses(argv):
    # the catalogue's records are padic.Record values; only JSON output
    # encodes and hashes, so pretty output loads neither json nor hashlib
    modules = loaded_modules(*argv)
    assert "qeuler.identities" in modules
    assert not modules & {"dataclasses", "inspect"}
    if "json" not in argv:
        assert not modules & {"hashlib", "json"}


@pytest.mark.parametrize("argv", [
    ("verify", "EQ6", "--k", "0..3", "--m", "0..3", "--format", "json"),
    ("verify", "THM6", "--k", "1..2", "--m", "1..2", "--format", "json"),
    ("report",),
])
def test_verify_and_report_run_no_riemann_sums(argv):
    # q-Bernoulli numbers come from their closed form in padic and zpoly;
    # integrate and numbers bernoulli, which print levels, still load
    # qintegral (test_numeric_commands_load_no_exact_layer)
    modules = loaded_modules(*argv)
    assert "qeuler.identities" in modules
    assert "qeuler.qintegral" not in modules


ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ("integrate", "fermionic", "--n=8", "--x0=1/2", "--p=7", "--K=8",
     "--format=json"),
    ("numbers", "bernoulli", "--n=0..9", "--p=3", "--K=7", "--format=json"),
    ("numbers", "euler", "--n=0..40", "--at-q=3/7", "--format=json"),
])
def test_well_formed_lines_load_no_argparse(argv):
    # read from the command table, as every benchmark line is; the layer
    # the command runs on shows that it got past parsing
    modules = loaded_modules(*argv)
    assert modules & {"qeuler.qintegral", "qeuler.zpoly"}
    assert not modules & ARGPARSE


@pytest.mark.parametrize("argv, code", [
    (("integrate", "--help"), 0),
    (("integrate", "fermionic", "--n=8", "--x0", "-5/2"), 2),
])
def test_help_and_errors_load_argparse(argv, code):
    assert "argparse" in loaded_modules(*argv, code=code)


INTEGRATE = ("integrate", "bosonic", "--n", "3", "--p", "3", "--K", "4")


def test_pretty_output_loads_no_encoder_or_hash():
    modules = loaded_modules(*INTEGRATE)
    assert "qeuler.report" in modules
    assert not modules & {"json", "hashlib", "_hashlib", "_sha2", "_sha256"}


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None
    and importlib.util.find_spec("_sha256") is None,
    reason="the interpreter has no SHA-256 module of its own")
def test_json_output_hashes_without_openssl():
    modules = loaded_modules(*INTEGRATE, "--format", "json")
    assert "json" in modules
    assert modules & {"_sha2", "_sha256"}
    assert not modules & {"hashlib", "_hashlib"}


def test_euler_table_loads_no_catalog(tmp_path):
    # rows and values at q come from the integer table, and the cache
    # holds the report's hash
    modules = loaded_modules("numbers", "euler", "--n", "0..4", "--at-q",
                             "3/7", "--format", "json", "--cache",
                             str(tmp_path / "cache.json"))
    assert "qeuler.zpoly" in modules
    assert not modules & NUMERIC_FREE


def test_poly_loads_only_the_exact_tables():
    modules = loaded_modules("poly", "--n", "0..4", "--format", "json")
    assert {"qeuler.qspecial", "qeuler.zpoly"} <= modules
    assert not modules & {"qeuler.identities", "qeuler.padic",
                          "qeuler.qintegral"}


# the README's Layout table, lowest layer first
LAYERS = ("errors", "zpoly", "exactarith", "qspecial", "padic", "closedform",
          "qintegral", "report", "formats", "cache", "identities", "commands",
          "cli")


def _relative_imports(module: str) -> set:
    """The package modules that ``qeuler.<module>`` imports by a relative
    import, at any depth of its source."""
    tree = ast.parse((SRC / "qeuler" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:                       # from . import zpoly
                found.update(alias.name for alias in node.names)
    return found


def test_layout_table_is_the_module_list():
    modules = {path.stem for path in (SRC / "qeuler").glob("*.py")}
    assert modules - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_each_layer_imports_only_the_layers_below(module):
    below = set(LAYERS[:LAYERS.index(module)])
    assert _relative_imports(module) <= below


def _defined_functions():
    """Every function and method, static and class methods and property
    getters included, defined at the top of a module of the package or of
    one of its classes."""
    for path in sorted((SRC / "qeuler").glob("*.py")):
        name = "qeuler" if path.stem == "__init__" else f"qeuler.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            if isinstance(obj, FunctionType):
                yield obj
            elif isinstance(obj, type):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if isinstance(member, FunctionType):
                        yield member


def test_every_annotation_resolves():
    # postponed annotations are strings; each must name something the
    # module can see when the hints are asked for
    unresolved = []
    functions = list(_defined_functions())
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(
                f"{function.__module__}.{function.__qualname__}: {exc}")
    assert len(functions) > 150
    assert not unresolved


def test_package_import_loads_no_layer():
    modules = loaded_modules("package")
    assert "qeuler" in modules
    assert not {m for m in modules if m.startswith("qeuler.")}


def test_public_names_resolve():
    for name in qeuler.__all__:
        assert getattr(qeuler, name) is not None
    namespace = {}
    exec("from qeuler import *", namespace)
    assert set(qeuler.__all__) <= set(namespace)
    assert qeuler.__version__ == TOOL_VERSION
    with pytest.raises(AttributeError):
        qeuler.no_such_name


def test_division_by_zero_is_one_class():
    from qeuler.exactarith import DivisionByZero
    from qeuler.padic import PadicApprox

    assert qeuler.DivisionByZero is DivisionByZero
    with pytest.raises(DivisionByZero):
        PadicApprox.from_rational(1, 3, 4) / PadicApprox.zero(3, 4)


def test_cli_kinds_are_the_integral_kinds():
    assert set(cli.KINDS) == {KIND_FERMIONIC, KIND_BOSONIC}
