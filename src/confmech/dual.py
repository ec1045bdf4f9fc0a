"""Forward-mode automatic differentiation with vector-mode jets.

A :class:`Dual` is a jet: a value array ``val`` of shape ``(...)`` and a
derivative array ``eps`` of shape ``(..., n)``, the n partial derivatives
of each value entry (Griewank & Walther, *Evaluating Derivatives*, ch. 3).
The scalar case is ``shape == ()``, where ``val`` is a float. Evaluating an
observable once on jets seeded by :func:`seed` yields its full gradient,
at one point or at every row of ``(N, d)`` arrays at once
(:func:`gradient`). Arithmetic, indexing (index arrays included),
``.T``, ``np.swapaxes``, ``np.vecdot``, ``np.dot`` of vectors,
``np.sum``, numpy's elementwise functions and the ``d*`` helpers below
all take jets, so a body written once over ``(..., d)`` arrays
differentiates with no extra work; :func:`stack`, :func:`concat` and
:func:`col` build and broadcast arrays of jets.

Whole-array rule: a jet operation costs about the same numpy dispatch
whether it acts on one entry or on every row and component at once, so
code on jets works on whole arrays. A chain of products over many entries
is one product per factor position over all of them (gathered by index
arrays), a sum over the last axis is :func:`sum_last`, one column of
values and derivatives at a time, and a jet per component, or per partial
sum, is what the rule avoids.

Every value rounds as the float code of one point does, entry by entry:
products and sums follow the same order, dot products add their products
left to right, transcendental functions come from :mod:`math` one entry at
a time (numpy's own arccos or arctan2 loops can differ in the last bit),
and square roots, correctly rounded everywhere, from ``np.sqrt``.
Each map costs one Python call per entry, so :func:`sincos` gives the
sine and cosine jets of angles from one map of each, and the chart maps
of :mod:`confmech.reduction` take every factor of every angle from one
such call.
A jet's value therefore matches the float call bit for bit except where
the float call goes through a BLAS dot product, which may fuse
multiply-adds.

Comparisons act on the value part and return what numpy returns for it:
a bool in the scalar case, a bool array otherwise, so guard code tests
``np.any(r < delta)`` on arrays and behaves identically under
differentiation.
"""

from __future__ import annotations

import math
import operator

import numpy as np


def _on_values(op):
    """``op`` of the value parts: comparisons ignore the derivatives."""
    return lambda a, b: op(value(a), value(b))


class Dual:
    """A jet: values ``val`` of shape ``(...)`` and their partial
    derivatives ``eps`` of shape ``(..., n)``."""

    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        val = np.asarray(val, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if eps.shape[:-1] != val.shape:
            eps = np.broadcast_to(eps, val.shape + eps.shape[-1:])
        self.val = val[()]
        self.eps = eps

    # -- array protocol -------------------------------------------------

    @property
    def shape(self):
        return np.shape(self.val)

    @property
    def T(self):
        """The value axes reversed; the derivative axis stays last."""
        nd = np.ndim(self.val)
        return Dual(np.transpose(self.val),
                    self.eps.transpose(*range(nd - 1, -1, -1), nd))

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return _jet(self.val[key], self.eps[key + (slice(None),)])

    def __iter__(self):
        for i in range(self.shape[0]):
            yield self[i]

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        fn = _UFUNCS.get(ufunc) if method == "__call__" and not kwargs \
            else None
        return NotImplemented if fn is None else fn(*args)

    def __array_function__(self, func, types, args, kwargs):
        fn = _FUNCTIONS.get(func) if not kwargs else None
        return NotImplemented if fn is None else fn(*args)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return _jet(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return _jet(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if other is self:  # a square: its two product-rule terms agree
            term = col(self.val) * self.eps
            return _jet(self.val * self.val, term + term)
        if isinstance(other, Dual):
            return _jet(self.val * other.val, col(self.val) * other.eps
                        + col(other.val) * self.eps)
        return _jet(self.val * other, self.eps * col(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return _jet(self.val / other.val,
                        (self.eps - col(self.val * inv) * other.eps)
                        * col(inv))
        return _jet(self.val / other, self.eps / col(other))

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return _jet(other / self.val, col(-other * inv * inv) * self.eps)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported")
        # float_power rounds as Python's float ** does; numpy's ** squares
        return Dual(np.float_power(self.val, n),
                    col(n * np.float_power(self.val, n - 1)) * self.eps)

    def __neg__(self):
        return _jet(-self.val, -self.eps)

    def __pos__(self):
        return self

    def __abs__(self):
        return Dual(np.abs(self.val),
                    col(np.copysign(1.0, self.val)) * self.eps)

    # -- comparisons (on the value part) --------------------------------

    __lt__ = _on_values(operator.lt)
    __le__ = _on_values(operator.le)
    __gt__ = _on_values(operator.gt)
    __ge__ = _on_values(operator.ge)
    __eq__ = _on_values(operator.eq)
    __ne__ = _on_values(operator.ne)

    def __float__(self):
        raise TypeError("implicit Dual -> float conversion would drop the "
                        "derivative; use .val explicitly")

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"


def _jet(val, eps) -> Dual:
    """A jet from numpy arithmetic on jets, whose value (an array or a
    numpy scalar) and derivatives agree in shape already: no conversion,
    check or broadcast."""
    x = object.__new__(Dual)
    x.val = val
    x.eps = eps
    return x


def _map(fn, *args):
    """``fn`` (a :mod:`math` function) entry by entry over broadcast
    arguments, so each value rounds as the scalar call does. IEEE 754
    rounds a square root correctly, so ``np.sqrt`` serves math.sqrt."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return fn(*args)
    if fn is math.sqrt:
        return np.sqrt(*args)
    if len(args) > 1:
        args = np.broadcast_arrays(*args)
    shape, size = args[0].shape, args[0].size
    return np.fromiter(map(fn, *(a.ravel().tolist() for a in args)), float,
                       size).reshape(shape)


def col(x):
    """``x[..., None]`` for an array or a jet, so per-row values divide or
    scale ``(..., d)`` rows; a scalar broadcasts as it is."""
    return x[..., None] if isinstance(x, (np.ndarray, Dual)) else x


# -- Dual/float polymorphic math helpers --------------------------------

def value(x):
    """Value part of a jet; a float array as it is; else a float."""
    if isinstance(x, Dual):
        return x.val
    return x if getattr(x, "ndim", 0) else float(x)


# name: (the math function of the value, the derivative rule from (eps, x,
# value)); whether a rule multiplies or divides sets how it rounds, and
# the pinned decoupling reports (TestGoldenVerdicts) depend on that
_ELEMENTARY = {
    "sqrt": (math.sqrt, lambda e, x, v: e / col(2.0 * v)),
    "exp": (math.exp, lambda e, x, v: col(v) * e),
    "log": (math.log, lambda e, x, v: e / col(x)),
    "sin": (math.sin, lambda e, x, v: col(_map(math.cos, x)) * e),
    "cos": (math.cos, lambda e, x, v: col(-_map(math.sin, x)) * e),
    "tan": (math.tan, lambda e, x, v: col(1.0 + v * v) * e),
    "arcsin": (math.asin,
               lambda e, x, v: e / col(_map(math.sqrt, 1.0 - x * x))),
    "arccos": (math.acos,
               lambda e, x, v: -e / col(_map(math.sqrt, 1.0 - x * x))),
    "arctan": (math.atan, lambda e, x, v: e / col(1.0 + x * x)),
}


def _elementary(name):
    scalar, rule = _ELEMENTARY[name]

    def fn(x):
        if not isinstance(x, Dual):
            return _map(scalar, x)
        v = _map(scalar, x.val)
        return Dual(v, rule(x.eps, x.val, v))
    fn.__name__ = fn.__qualname__ = name
    fn.__doc__ = (f"{name} of a float (as math.{scalar.__name__} rounds it), "
                  "of a float array entry by entry, or of a jet.")
    return fn


sqrt, exp, log, sin, cos, tan, arcsin, arccos, arctan = map(_elementary,
                                                            _ELEMENTARY)


def sincos(x):
    """``(sin(x), cos(x))`` of a float, a float array or a jet, bit for
    bit :func:`sin` and :func:`cos`, with math.sin and math.cos mapped over
    the entries once each: the value of each is the other's derivative."""
    if not isinstance(x, Dual):
        return _map(math.sin, x), _map(math.cos, x)
    s = _map(math.sin, x.val)
    c = _map(math.cos, x.val)
    return Dual(s, col(c) * x.eps), Dual(c, col(-s) * x.eps)


def arctan2(y, x):
    jets = [a for a in (y, x) if isinstance(a, Dual)]
    if not jets:
        return _map(math.atan2, y, x)
    # a float operand is a constant jet of the other's seed width
    (yv, ye), (xv, xe) = [(a.val, a.eps) if isinstance(a, Dual) else
                          (a, np.zeros(jets[0].eps.shape[-1:]))
                          for a in (y, x)]
    return Dual(_map(math.atan2, yv, xv), (col(xv) * ye - col(yv) * xe)
                / col(yv * yv + xv * xv))


def vecdot(a, b):
    """``np.vecdot`` over the last axis for floats and jets: the products'
    :func:`sum_last`."""
    return sum_last(a * b if isinstance(a, Dual) else b.__rmul__(a))


def sum_last(x):
    """The sum over the last axis of a float array or a jet, added left to
    right as a Python loop over the entries would, one column of values
    (and of derivatives) at a time."""
    if not isinstance(x, Dual):
        out = x[..., 0]
        for i in range(1, x.shape[-1]):
            out = out + x[..., i]
        return out
    val, eps = x.val, x.eps
    v, e = val[..., 0], eps[..., 0, :]
    for i in range(1, val.shape[-1]):
        v = v + val[..., i]
        e = e + eps[..., i, :]
    return _jet(v, e)


def stack(items, axis: int = -1):
    """``np.stack`` of floats, float arrays and jets alike, after
    broadcasting them to one shape (a constant 0.0 beside a row of jets,
    say). ``axis`` counts from the end; no items give ``np.zeros(0)``."""
    if not items:
        return np.zeros(0)
    jets = [x for x in items if isinstance(x, Dual)]
    if len(jets) == len(items) and all(
            np.shape(x.val) == np.shape(items[0].val) for x in items):
        return _jet(np.stack([x.val for x in items], axis=axis),
                    np.stack([x.eps for x in items], axis=axis - 1))
    vals = np.broadcast_arrays(*(value(x) for x in items))
    if not jets:
        return np.stack(vals, axis=axis)
    shape = vals[0].shape + jets[0].eps.shape[-1:]
    eps = [np.broadcast_to(x.eps if isinstance(x, Dual) else 0.0, shape)
           for x in items]
    return Dual(np.stack(vals, axis=axis), np.stack(eps, axis=axis - 1))


def concat(items):
    """``np.concatenate`` along the last axis of float arrays and jets
    alike, each of the same leading shape; a float array beside a jet is a
    constant jet."""
    jets = [x for x in items if isinstance(x, Dual)]
    if not jets:
        return np.concatenate(items, axis=-1)
    n = jets[0].eps.shape[-1]
    return _jet(np.concatenate([value(x) for x in items], axis=-1),
                np.concatenate([x.eps if isinstance(x, Dual) else
                                np.zeros(np.shape(x) + (n,))
                                for x in items], axis=-2))


def _dot(a, b):
    if np.ndim(value(a)) == 1 == np.ndim(value(b)):
        return vecdot(a, b)
    return NotImplemented


def _sum(a):
    return Dual(np.sum(a.val), a.eps.reshape(-1, a.eps.shape[-1]).sum(0))


def _swapaxes(a, axis1, axis2):
    # a negative value axis counts past the derivative axis
    eps_axes = [ax - 1 if ax < 0 else ax for ax in (axis1, axis2)]
    return _jet(np.swapaxes(a.val, axis1, axis2),
                np.swapaxes(a.eps, *eps_axes))


def _binary(name):
    def fn(a, b):
        if isinstance(a, Dual):
            return getattr(a, f"__{name}__")(b)
        return getattr(b, f"__r{name}__")(a)
    return fn


# the numpy ufuncs and functions a jet takes part in
_UFUNCS = {
    np.add: _binary("add"), np.subtract: _binary("sub"),
    np.multiply: _binary("mul"), np.true_divide: _binary("truediv"),
    np.power: Dual.__pow__, np.negative: Dual.__neg__,
    np.positive: Dual.__pos__, np.absolute: Dual.__abs__,
    np.sqrt: sqrt, np.exp: exp, np.log: log, np.sin: sin, np.cos: cos,
    np.tan: tan, np.arcsin: arcsin, np.arccos: arccos, np.arctan: arctan,
    np.arctan2: arctan2, np.vecdot: vecdot,
    **{u: _on_values(u) for u in (np.less, np.less_equal, np.greater,
                                  np.greater_equal, np.equal, np.not_equal)},
}
_FUNCTIONS = {np.dot: _dot, np.sum: _sum, np.swapaxes: _swapaxes}


def seed(values, n_dirs, offset):
    """Jet of ``values`` (shape ``(..., k)``) in which entry ``i`` of the
    last axis carries unit direction ``offset + i`` of ``n_dirs``."""
    values = np.asarray(values, dtype=float)
    k = values.shape[-1]
    eps = np.zeros(values.shape + (n_dirs,))
    eps[..., np.arange(k), offset + np.arange(k)] = 1.0
    return Dual(values, eps)


def gradient(fn, *arrays):
    """Value and gradient of ``fn(*arrays)`` with respect to every entry of
    each array's last axis, at one point (vectors) or at every row of
    ``(N, k_i)`` arrays at once.

    Returns ``(value, [grad_0, grad_1, ...])``, one gradient block per
    input array, of the value's shape plus that array's last axis. Raises
    TypeError from ``fn`` if it cannot handle jets.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    sizes = [a.shape[-1] for a in arrays]
    offsets = np.cumsum([0] + sizes)
    out = fn(*(seed(a, offsets[-1], off) for a, off in zip(arrays, offsets)))
    if not isinstance(out, Dual):
        # a constant, zero gradients: broadcast over the rows unless fn
        # did, told apart by the value's shape at the first row
        val = np.asarray(out, dtype=float)
        lead = arrays[0].shape[:-1]
        if lead and val.shape == np.shape(
                fn(*(a[(0,) * len(lead)] for a in arrays))):
            val = np.broadcast_to(val, lead + val.shape)
        return val[()], [np.zeros(val.shape + (k,)) for k in sizes]
    return out.val, [out.eps[..., off:off + k].copy()
                     for off, k in zip(offsets, sizes)]
