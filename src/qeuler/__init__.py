"""Exact and p-adic computation for the weight-0 q-Euler and q-Bernoulli
families, with a mechanically verified identity catalog.

The names below are resolved on first use (PEP 562), so importing the
package, or running ``python -m qeuler.cli``, loads no layer that is not
used.
"""

from importlib import import_module

_EXPORTS = {
    "cache": ("ResultCache",),
    "exactarith": ("DivisionByZero", "PoleError", "RatFuncQ", "XPolyQ"),
    "identities": ("IdentityId", "NumericContext", "VerificationResult",
                   "verify", "verify_grid"),
    "padic": ("PadicApprox", "PrecisionExhausted", "padic_distance"),
    "qintegral": ("ConvergenceNotReached", "IntegralRequest",
                  "IntegralResult", "integrate", "riemann_level"),
    "qspecial": ("DomainError", "binom", "euler_number", "euler_poly"),
    "report": ("Report",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name == "__version__":
        value = import_module(".report", __name__).TOOL_VERSION
    elif name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
