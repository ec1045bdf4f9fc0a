"""Forward-mode automatic differentiation with vector-valued dual numbers.

A :class:`Dual` carries a float value and a numpy vector of partial
derivatives; evaluating an observable once on seeded duals yields the full
gradient to machine precision. Observables written against the ``d*``
helpers below (or against numpy's object-array method dispatch, which calls
``.sqrt()`` etc. on elements) are differentiable with no extra work.

Comparisons act on the value part, so guard code (``if r < delta``) behaves
identically under differentiation.
"""

from __future__ import annotations

import math

import numpy as np


class Dual:
    """Value plus gradient vector; the workhorse of exact differentiation."""

    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = float(val)
        self.eps = np.asarray(eps, dtype=float)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + other.val * self.eps)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.eps - self.val * inv * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * inv * inv * self.eps)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported")
        v = self.val ** n
        return Dual(v, n * self.val ** (n - 1) * self.eps)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pos__(self):
        return self

    def conjugate(self):
        """Real-valued: itself (``np.vecdot`` conjugates its first operand)."""
        return self

    def __abs__(self):
        s = math.copysign(1.0, self.val)
        return Dual(abs(self.val), s * self.eps)

    # -- comparisons (on the value part) --------------------------------

    def __lt__(self, other):
        return self.val < _value(other)

    def __le__(self, other):
        return self.val <= _value(other)

    def __gt__(self, other):
        return self.val > _value(other)

    def __ge__(self, other):
        return self.val >= _value(other)

    def __eq__(self, other):
        return self.val == _value(other)

    def __ne__(self, other):
        return self.val != _value(other)

    def __hash__(self):
        return hash(self.val)

    def __float__(self):
        raise TypeError("implicit Dual -> float conversion would drop the "
                        "derivative; use .val explicitly")

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    # -- elementary functions (numpy dispatches these on object arrays) --

    def sqrt(self):
        v = math.sqrt(self.val)
        return Dual(v, self.eps / (2.0 * v))

    def exp(self):
        v = math.exp(self.val)
        return Dual(v, v * self.eps)

    def log(self):
        return Dual(math.log(self.val), self.eps / self.val)

    def sin(self):
        return Dual(math.sin(self.val), math.cos(self.val) * self.eps)

    def cos(self):
        return Dual(math.cos(self.val), -math.sin(self.val) * self.eps)

    def tan(self):
        v = math.tan(self.val)
        return Dual(v, (1.0 + v * v) * self.eps)

    def arcsin(self):
        return Dual(math.asin(self.val),
                    self.eps / math.sqrt(1.0 - self.val * self.val))

    def arccos(self):
        return Dual(math.acos(self.val),
                    -self.eps / math.sqrt(1.0 - self.val * self.val))

    def arctan(self):
        return Dual(math.atan(self.val),
                    self.eps / (1.0 + self.val * self.val))

    def arctan2(self, other):
        ov, oe = _split(other, self.eps.shape)
        denom = self.val * self.val + ov * ov
        return Dual(math.atan2(self.val, ov),
                    (ov * self.eps - self.val * oe) / denom)


def _value(x):
    return x.val if isinstance(x, Dual) else x


def _split(x, shape):
    if isinstance(x, Dual):
        return x.val, x.eps
    return x, np.zeros(shape)


# -- Dual/float polymorphic math helpers --------------------------------

def value(x):
    """Value part of a Dual, or the float itself."""
    return x.val if isinstance(x, Dual) else float(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Dual) else math.sqrt(x)


def exp(x):
    return x.exp() if isinstance(x, Dual) else math.exp(x)


def log(x):
    return x.log() if isinstance(x, Dual) else math.log(x)


def sin(x):
    return x.sin() if isinstance(x, Dual) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Dual) else math.cos(x)


def tan(x):
    return x.tan() if isinstance(x, Dual) else math.tan(x)


def arcsin(x):
    return x.arcsin() if isinstance(x, Dual) else math.asin(x)


def arccos(x):
    return x.arccos() if isinstance(x, Dual) else math.acos(x)


def arctan(x):
    return x.arctan() if isinstance(x, Dual) else math.atan(x)


def arctan2(y, x):
    if isinstance(y, Dual):
        return y.arctan2(x)
    if isinstance(x, Dual):
        # promote y to a constant dual against x's seed width
        return Dual(y, np.zeros_like(x.eps)).arctan2(x)
    return math.atan2(y, x)


def seed(values, n_dirs, offset):
    """Object array of duals seeded with unit directions.

    ``values[i]`` gets derivative direction ``offset + i`` of ``n_dirs``.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape[0], dtype=object)
    for i, v in enumerate(values):
        e = np.zeros(n_dirs)
        e[offset + i] = 1.0
        out[i] = Dual(v, e)
    return out


def gradient(fn, *arrays):
    """Gradient of ``fn(*arrays) -> scalar`` with respect to every entry.

    Returns ``(value, [grad_0, grad_1, ...])`` with one gradient block per
    input array. Raises TypeError from ``fn`` if it cannot handle duals.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    n = sum(a.shape[0] for a in arrays)
    seeded = []
    off = 0
    for a in arrays:
        seeded.append(seed(a, n, off))
        off += a.shape[0]
    out = fn(*seeded)
    if not isinstance(out, Dual):
        # fn ignored at least the seeded entries entirely (a constant)
        return float(out), [np.zeros(a.shape[0]) for a in arrays]
    blocks = []
    off = 0
    for a in arrays:
        blocks.append(out.eps[off:off + a.shape[0]].copy())
        off += a.shape[0]
    return out.val, blocks
