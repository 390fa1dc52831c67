import math

import mpmath
import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from pbwpcn import DomainError, lambert_w0, solve_z
from pbwpcn.batch import _solve_u

from oracles import mp_z_minus_1


class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_below_branch_point_raises(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate(
            [
                rng.uniform(-1.0 / math.e, 1.0, size=200),
                10.0 ** rng.uniform(0.0, 6.0, size=200),
            ]
        )
        for x in xs:
            w = lambert_w0(float(x))
            assert w >= -1.0
            assert w * math.exp(w) == pytest.approx(float(x), rel=1e-10, abs=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(4)
        xs = np.concatenate(
            [rng.uniform(-1.0 / math.e + 1e-12, 5.0, size=100),
             10.0 ** rng.uniform(0.0, 6.0, size=100)]
        )
        for x in xs:
            expected = float(scipy_lambertw(float(x)).real)
            assert lambert_w0(float(x)) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_near_branch_point_accuracy(self):
        # realistic low-gain channels put the argument within 1e-4 of -1/e
        for offset in (1e-12, 1e-9, 1e-6, 1e-5):
            x = -1.0 / math.e + offset
            expected = float(scipy_lambertw(x).real)
            assert lambert_w0(x) == pytest.approx(expected, rel=1e-7, abs=1e-7)


class TestSolveZ:
    def test_unit_target(self):
        # e*ln(e) - e + 1 = 1
        assert solve_z(1.0, 0.0) == pytest.approx(math.e, rel=1e-12)

    def test_degenerate_boundary(self):
        # as X approaches Y from above the root collapses to 1
        for y in (0.0, 0.5, 2.0):
            z = solve_z(y + 1e-9, y)
            assert 1.0 < z < 1.01
            resid = z * math.log(z) + (y - 1.0) * z + 1.0 - (y + 1e-9)
            assert abs(resid) <= 1e-10

    def test_paper_scale_target(self):
        # the largest X of the fixed instance; cross-checked against the
        # Lambert closed form for the Y = 0 family
        z = solve_z(41.51, 0.0)
        assert z == pytest.approx(20.2, abs=0.1)
        closed = math.exp(lambert_w0((41.51 - 1.0) / math.e) + 1.0)
        assert z == pytest.approx(closed, rel=1e-10)

    def test_matches_lambert_closed_form(self):
        rng = np.random.default_rng(5)
        for x in 10.0 ** rng.uniform(-3.0, 6.0, size=200):
            closed = math.exp(lambert_w0((x - 1.0) / math.e) + 1.0)
            assert solve_z(float(x), 0.0) == pytest.approx(closed, rel=1e-10)

    def test_monotone_in_x_and_y(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            y = float(rng.uniform(0.0, 5.0))
            x1 = y + float(rng.uniform(0.1, 10.0))
            x2 = x1 + float(rng.uniform(0.1, 10.0))
            assert solve_z(x2, y) > solve_z(x1, y)
            y2 = y + float(rng.uniform(0.1, min(2.0, x1 - y - 0.01)))
            if x1 > y2:
                assert solve_z(x1, y2) < solve_z(x1, y)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_z(1.0, 2.0)
        with pytest.raises(DomainError):
            solve_z(1.0, -0.1)

    def test_z_minus_one_against_mpmath(self):
        # log-uniform X, and X - Y down to 1e-8 * X, where z - 1 would cancel
        rng = np.random.default_rng(7)
        for i in range(400):
            x = float(10.0 ** rng.uniform(-6.0, 6.0))
            y = 0.0 if i % 4 == 0 else x * (1.0 - float(10.0 ** rng.uniform(-8.0, 0.0)))
            z = solve_z(x, y)
            expected = mp_z_minus_1(x, y)
            assert abs((z - 1.0) - expected) <= 1e-12 * expected + math.ulp(z), (x, y)

    def test_series_roots_to_one_ulp(self):
        # roots 1e-4 <= u < 1e-2, where h(u) is summed by its series: X is
        # h(u) + Y*(1 + u), at 40 digits, for drawn u and Y, a third with Y = 0
        rng = np.random.default_rng(8)
        xs, ys = [], []
        for i in range(300):
            u = mpmath.mpf(float(10.0 ** rng.uniform(-4.0, -2.0)))
            y = 0.0 if i % 3 == 0 else float(10.0 ** rng.uniform(-3.0, 1.0))
            with mpmath.workdps(40):
                xs.append(float((1 + u) * mpmath.log1p(u) - u + y * (1 + u)))
            ys.append(y)
        pooled = 1.0 + _solve_u(np.array(xs), np.array(ys), {"newton": 0})
        for x, y, z_pooled in zip(xs, ys, pooled.tolist()):
            expected = mp_z_minus_1(x, y)
            for z in (solve_z(x, y), z_pooled):
                assert abs((z - 1.0) - expected) <= math.ulp(z), (x, y)

    def test_residual_tolerance(self):
        z = solve_z(7.3, 1.2)
        resid = z * math.log(z) + (1.2 - 1.0) * z + 1.0 - 7.3
        assert abs(resid) <= 1e-13 * (1.0 + 7.3)
