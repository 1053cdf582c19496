"""The exception shared by the exact and the p-adic layers, kept apart so
that neither layer has to import the other for it."""


class DivisionByZero(ZeroDivisionError):
    """Division by an exact zero, or by a p-adic value indistinguishable
    from zero."""
