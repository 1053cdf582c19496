"""The exceptions shared by more than one layer, kept apart so that no
layer has to import another for them.  ``ConfigError`` and ``CacheError``
are the two that ``cli.main`` turns into exit code 2; they live here so
that ``main`` catches them without loading the code that raises them."""


class DivisionByZero(ZeroDivisionError):
    """Division by an exact zero, or by a p-adic value indistinguishable
    from zero."""


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


class ConfigError(Exception):
    """A usage or configuration error of the command line."""


class CacheError(ValueError):
    """A cache file or entry that cannot be read."""
