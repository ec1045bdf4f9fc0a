"""Direct checks of the forward-mode dual-number engine."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confmech import dual
from confmech.dual import Dual


def _d(v, e):
    return Dual(v, np.array(e, dtype=float))


class TestArithmetic:
    def test_add_sub(self):
        x = _d(2.0, [1, 0])
        y = _d(3.0, [0, 1])
        z = x + y - 1.5
        assert z.val == 3.5
        npt.assert_allclose(z.eps, [1, 1])
        npt.assert_allclose((4.0 - x).eps, [-1, 0])

    def test_product_rule(self):
        x = _d(2.0, [1, 0])
        y = _d(3.0, [0, 1])
        z = x * y
        assert z.val == 6.0
        npt.assert_allclose(z.eps, [3.0, 2.0])

    def test_quotient_rule(self):
        x = _d(2.0, [1, 0])
        y = _d(4.0, [0, 1])
        z = x / y
        assert z.val == 0.5
        npt.assert_allclose(z.eps, [0.25, -0.125])
        npt.assert_allclose((1.0 / y).eps, [0.0, -1.0 / 16.0])

    @given(a=st.floats(-1e6, 1e6), b=st.floats(1e-6, 1e6),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_quotient_value_is_the_float_quotient(self, a, b, sign):
        b *= sign
        x, y = _d(a, [1, 0]), _d(b, [0, 1])
        assert (x / y).val.hex() == (a / b).hex()
        assert (a / y).val.hex() == (a / b).hex()
        assert (x / b).val.hex() == (a / b).hex()

    def test_power(self):
        x = _d(2.0, [1.0])
        npt.assert_allclose((x ** 3).eps, [12.0])
        npt.assert_allclose((x ** -0.5).eps, [-0.5 * 2.0 ** -1.5])
        with pytest.raises(TypeError):
            x ** x

    def test_abs_and_comparisons(self):
        x = _d(-2.0, [1.0])
        a = abs(x)
        assert a.val == 2.0
        npt.assert_allclose(a.eps, [-1.0])
        assert x < 0 and x <= -2.0 and not (x > 0)

    def test_float_conversion_blocked(self):
        with pytest.raises(TypeError):
            float(_d(1.0, [1.0]))


class TestFunctions:
    @pytest.mark.parametrize("fn,dfn,x0", [
        (dual.sqrt, lambda x: 0.5 / math.sqrt(x), 2.3),
        (dual.exp, math.exp, 0.4),
        (dual.log, lambda x: 1.0 / x, 1.7),
        (dual.sin, math.cos, 0.9),
        (dual.cos, lambda x: -math.sin(x), 0.9),
        (dual.tan, lambda x: 1.0 / math.cos(x) ** 2, 0.6),
        (dual.arcsin, lambda x: 1.0 / math.sqrt(1 - x * x), 0.4),
        (dual.arccos, lambda x: -1.0 / math.sqrt(1 - x * x), 0.4),
        (dual.arctan, lambda x: 1.0 / (1 + x * x), 1.3),
    ])
    def test_derivatives(self, fn, dfn, x0):
        out = fn(_d(x0, [1.0]))
        assert out.eps[0] == pytest.approx(dfn(x0), rel=1e-14)
        # float passthrough
        assert fn(x0) == pytest.approx(out.val)

    def test_arctan2_both_dual(self):
        y = _d(1.0, [1, 0])
        x = _d(2.0, [0, 1])
        out = dual.arctan2(y, x)
        assert out.val == pytest.approx(math.atan2(1.0, 2.0))
        npt.assert_allclose(out.eps, [2.0 / 5.0, -1.0 / 5.0])

    def test_arctan2_mixed(self):
        out = dual.arctan2(1.0, _d(2.0, [1.0]))
        npt.assert_allclose(out.eps, [-1.0 / 5.0])
        out = dual.arctan2(_d(1.0, [1.0]), 2.0)
        npt.assert_allclose(out.eps, [2.0 / 5.0])
        assert dual.arctan2(1.0, 2.0) == math.atan2(1.0, 2.0)


class TestGradientDriver:
    def test_gradient_blocks(self):
        def fn(q, p):
            return np.dot(q, q) * p[0] + dual.sin(q[1])

        val, (dq, dp) = dual.gradient(fn, np.array([1.0, 2.0]),
                                      np.array([3.0]))
        assert val == pytest.approx(5.0 * 3.0 + math.sin(2.0))
        npt.assert_allclose(dq, [2.0 * 3.0, 4.0 * 3.0 + math.cos(2.0)])
        npt.assert_allclose(dp, [5.0])

    def test_constant_function(self):
        val, (dq,) = dual.gradient(lambda q: 7.0, np.array([1.0, 2.0]))
        assert val == 7.0
        npt.assert_allclose(dq, [0.0, 0.0])

    def test_constant_takes_the_value_and_row_shapes(self):
        # a constant's zero gradient has the value's shape plus the input's
        # last axis, and a constant is broadcast over the rows
        def pair(q, p):
            return np.array([1.0, 2.0])

        val, (dq, dp) = dual.gradient(pair, np.ones(2), np.ones(2))
        assert val.shape == (2,) and dq.shape == dp.shape == (2, 2)
        val, (dq, dp) = dual.gradient(pair, np.ones((3, 2)), np.ones((3, 2)))
        assert np.array_equal(val, [[1.0, 2.0]] * 3)
        assert dq.shape == dp.shape == (3, 2, 2) and not dq.any()
        val, (dq,) = dual.gradient(lambda q: 7.0, np.ones((4, 2)))
        assert np.array_equal(val, [7.0] * 4) and dq.shape == (4, 2)

    def test_rows_match_each_point(self):
        # one evaluation over (N, d) rows gives each row's value and
        # gradient bit for bit, through indexing, .T, stack and vecdot
        def fn(q, p):
            r2 = np.vecdot(q, q)
            u = dual.stack([q.T[0] / dual.sqrt(r2),
                            dual.sin(q[..., 1]) * p[..., 0]])
            return dual.arctan2(u[..., 1], u[..., 0]) + np.vecdot(p, q) / r2

        rng = np.random.default_rng(4)
        Q, P = rng.uniform(-2, 2, (6, 3)), rng.uniform(-2, 2, (6, 3))
        vals, (dQ, dP) = dual.gradient(fn, Q, P)
        assert vals.shape == (6,) and dQ.shape == dP.shape == (6, 3)
        for i in range(6):
            val, (dq, dp) = dual.gradient(fn, Q[i], P[i])
            assert vals[i] == val
            assert np.array_equal(dQ[i], dq) and np.array_equal(dP[i], dp)

    def test_object_array_numpy_dispatch(self):
        # numpy's ufuncs and np.sum take a seeded jet as they take arrays
        q = dual.seed([0.3, 0.4], 2, 0)
        out = np.sum(np.sqrt(q * q))
        assert out.val == pytest.approx(0.7)
        npt.assert_allclose(out.eps, [1.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_vecdot_matches_dot(self, d):
        # np.vecdot and np.dot of vectors give the same jet, floats mixed in
        rng = np.random.default_rng(d)
        a = dual.seed(rng.uniform(-2, 2, d), 2 * d, 0)
        b = dual.seed(rng.uniform(-2, 2, d), 2 * d, d)
        w = rng.uniform(-2, 2, d)
        for x, y in ((a, b), (a, a), (a, w), (w, a)):
            got, want = np.vecdot(x, y), np.dot(x, y)
            assert got.val == want.val
            assert np.array_equal(got.eps, want.eps)


    @pytest.mark.parametrize("lead", [(), (6,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_vecdot_matches_the_component_loop(self, lead, d):
        # column by column, the jets of a Python loop adding one product
        # jet per component; rows, points and floats mixed in
        rng = np.random.default_rng(len(lead) + d)
        a = dual.seed(rng.uniform(-2, 2, lead + (d,)), 2 * d, 0)
        b = dual.seed(rng.uniform(-2, 2, lead + (d,)), 2 * d, d)
        w = rng.uniform(-2, 2, lead + (d,))
        w.flat[0] = -0.0
        for x, y in ((a, b), (a, a), (a, w), (w, a)):
            prod = x * y if isinstance(x, Dual) else y * x
            want = prod[..., 0]
            for i in range(1, d):
                want = want + prod[..., i]
            assert _bits(dual.vecdot(x, y)) == _bits(want)


def _map_broadcast(fn, *args):
    """The entry-by-entry map over broadcast arguments as a list, the
    reference for ``_map``."""
    args = np.broadcast_arrays(*args)
    flat = [fn(*v) for v in zip(*(a.ravel().tolist() for a in args))]
    return np.array(flat, dtype=float).reshape(args[0].shape)


def _bits(x):
    """Type, shape and bytes of a float, an array or a jet."""
    if isinstance(x, Dual):
        return "jet", _bits(x.val), _bits(x.eps)
    return type(x), np.shape(x), np.asarray(x, dtype=float).tobytes()


# angles with a signed zero, a subnormal, a huge argument and a NaN
_ANGLES = np.array([0.0, -0.0, 5e-324, 0.7, -2.9, 3.141592653589793,
                    1e300, np.nan])
_FLOAT_FORMS = [0.7, -0.0, np.float64(2.3), np.array(0.7), _ANGLES,
                _ANGLES.reshape(2, 4), np.zeros((0, 3))]


class TestSincos:
    @pytest.mark.parametrize("x", _FLOAT_FORMS)
    @pytest.mark.parametrize("fn", [math.sin, math.cos, math.tan,
                                    math.atan])
    def test_one_argument_map_matches_the_broadcast_map(self, fn, x):
        want = _map_broadcast(fn, x) if isinstance(x, np.ndarray) else fn(x)
        assert _bits(dual._map(fn, x)) == _bits(want)

    @pytest.mark.parametrize("y,x", [(_ANGLES, 0.5), (-1.5, _ANGLES),
                                     (_ANGLES.reshape(2, 4), _ANGLES[:4])])
    def test_broadcast_map_of_two_arguments(self, y, x):
        assert (_bits(dual._map(math.atan2, y, x))
                == _bits(_map_broadcast(math.atan2, y, x)))

    @pytest.mark.parametrize("x", _FLOAT_FORMS)
    def test_floats_match_sin_and_cos(self, x):
        s, c = dual.sincos(x)
        assert _bits(s) == _bits(dual.sin(x))
        assert _bits(c) == _bits(dual.cos(x))

    def test_jets_match_sin_and_cos(self):
        # a jet at a point, and the jets of (n,) and (n, m) rows
        rng = np.random.default_rng(2)
        jets = [dual.seed([0.7, -2.9], 3, 1)[0],
                dual.seed(rng.uniform(-4, 4, (5, 2)), 2, 0)[..., 1],
                dual.seed(rng.uniform(-4, 4, (4, 3, 2)), 4, 2)[..., 0]]
        for x in jets:
            s, c = dual.sincos(x)
            assert _bits(s) == _bits(dual.sin(x))
            assert _bits(c) == _bits(dual.cos(x))
            assert s.shape == c.shape == x.shape
