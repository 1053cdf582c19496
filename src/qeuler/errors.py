"""The exceptions shared by more than one layer, kept apart so that no
layer has to import another for them."""


class DivisionByZero(ZeroDivisionError):
    """Division by an exact zero, or by a p-adic value indistinguishable
    from zero."""


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""
