"""Float arithmetic: the column operations on Python floats, powers and
quotients with the IEEE range of numpy's float64, and the one numerical
failure a CLI route raises besides FloatingPointError.

The closed forms and the CLI reach these without executing
``magfriction.numerics``; the failure types that only the oracle
engines raise are defined there.
"""

import math


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; .best holds the last estimate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def ieee_pow(x, n):
    """x ** n for a float x and a positive integer n, with the IEEE range
    of numpy's float64: a result past the float range is a signed inf,
    not OverflowError."""
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def ieee_div(a, b):
    """a / b for floats, with the IEEE range of numpy's float64: a zero
    divisor gives a signed inf, or nan for 0/0, not ZeroDivisionError."""
    if b != 0.0:
        return a / b
    if a == 0.0 or a != a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


class FloatOps:
    """The arithmetic of the column closed forms on Python floats, one
    point: a check that fails raises its exception at once, and a power
    or quotient past the float range raises OverflowError or
    ZeroDivisionError. The CLI's numpy grid has the same six operations.
    """

    @staticmethod
    def constant(value):
        return value

    @staticmethod
    def fail(where, error):
        if where:
            raise error

    @staticmethod
    def sqrt(x):
        return math.sqrt(x)

    @staticmethod
    def pow(x, n):
        return x**n

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def map(fn, *args):
        return fn(*args)
