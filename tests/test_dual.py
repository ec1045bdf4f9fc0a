"""Direct checks of the forward-mode dual-number engine."""

import math

import numpy as np
import numpy.testing as npt
import pytest

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

    def test_object_array_numpy_dispatch(self):
        # numpy ufuncs reach Dual methods through object arrays
        q = dual.seed([0.3, 0.4], 2, 0)
        out = np.sum(np.sqrt(q * q))
        assert out.val == pytest.approx(0.7)
        npt.assert_allclose(out.eps, [1.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_vecdot_matches_dot(self, d):
        # np.vecdot calls .conjugate() on its first operand's elements
        rng = np.random.default_rng(d)
        a = dual.seed(rng.uniform(-2, 2, d), 2 * d, 0)
        b = dual.seed(rng.uniform(-2, 2, d), 2 * d, d)
        w = rng.uniform(-2, 2, d)
        for x, y in ((a, b), (a, a), (a, w), (w, a)):
            got, want = np.vecdot(x, y), np.dot(x, y)
            assert got.val == want.val
            assert np.array_equal(got.eps, want.eps)
