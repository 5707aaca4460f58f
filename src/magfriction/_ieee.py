"""Float arithmetic: the column operations on Python floats and on numpy
grids, and the one numerical failure a CLI route raises besides
FloatingPointError.

The closed forms and the CLI reach these without executing
``magfriction.numerics``; the failure types that only the oracle
engines raise are defined there. numpy is executed only when a grid
computes, so a one-shot command on ``FloatOps`` loads none of it.
"""

import math
import sys

from magfriction import lazy_import

np = lazy_import("numpy")

# a nonzero float below the smallest normal one has lost precision
SUBNORMAL = ("a computed value is subnormal (0 < |x| < %r) and has lost precision"
             % sys.float_info.min)


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; .best holds the last estimate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class FloatOps:
    """The arithmetic of the column closed forms on Python floats, one
    point: a failing check raises at once, pow and div past the float
    range raise, and so does a power that comes out subnormal. ``ArrayOps``
    has the same six operations on arrays.
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
        y = x**n
        if 0.0 < abs(y) < sys.float_info.min:
            raise FloatingPointError(SUBNORMAL)
        return y

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def map(fn, *args):
        return fn(*args)


class ArrayOps:
    """The same six operations on the numpy columns of a grid of ``shape``:
    the CLI's sweeps and the battery's sign draws compute on it.

    A point fails at the first check it reaches, so the grid keeps the
    earliest failing point and, at that point, the check that was
    registered first; ``raise_first`` raises its exception.
    """

    def __init__(self, shape):
        self.shape = shape
        self._first = math.prod(shape)
        self._error = None

    def constant(self, value):
        """A column with ``value`` at every point."""
        return np.full((1,) * len(self.shape), value)

    def fail(self, where, error):
        """The points of mask ``where`` fail with the exception ``error``."""
        if where.any():
            i = int(np.broadcast_to(where, self.shape).argmax())
            if i < self._first:
                self._first, self._error = i, error

    def raise_first(self):
        if self._error is not None:
            raise self._error

    def sqrt(self, x):
        return np.sqrt(x)

    def pow(self, x, n):
        """Python's x ** n at each point (numpy's power differs in the last
        bit for some x); as for Python floats, a point where it overflows
        fails and holds a signed inf, and a point where it is subnormal
        fails."""
        values = x.ravel().tolist()
        try:
            out = np.array([t**n for t in values]).reshape(x.shape)
        except OverflowError:
            out = np.array([_pow_or_inf(t, n) for t in values]).reshape(x.shape)
            overflow = np.isinf(out) & np.isfinite(x)
            self.fail(overflow, OverflowError(34, "Numerical result out of range"))
        self.fail((out != 0.0) & (np.abs(out) < sys.float_info.min),
                  FloatingPointError(SUBNORMAL))
        return out

    def div(self, a, b):
        """a / b; a zero divisor fails the point, as for Python floats."""
        self.fail(b == 0.0, ZeroDivisionError("float division by zero"))
        return a / b

    def map(self, fn, *cols):
        """fn(*args) at each point of the shape the columns broadcast to, in
        C order. The first point whose call raises fails with its exception,
        and it and every later point are nan."""
        cols = np.broadcast_arrays(*cols)
        out = np.full(cols[0].size, math.nan)
        for k, args in enumerate(zip(*(c.ravel().tolist() for c in cols))):
            try:
                out[k] = fn(*args)
            except Exception as exc:
                self.fail(np.arange(out.size).reshape(cols[0].shape) == k, exc)
                break
        return out.reshape(cols[0].shape)


def _pow_or_inf(x, n):
    """x ** n, n a positive int; a signed inf past the float range."""
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf
