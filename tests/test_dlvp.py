import numpy as np
import pytest
from numpy.testing import assert_allclose

import breakcoag as bc
from breakcoag.dlvp import _phi0_breaks
from breakcoag.errors import DomainError


def _exp_profile(n=4000):
    x = np.geomspace(1e-8, 50.0, n)
    return x, np.exp(-x)


class TestBuildJSequence:
    def test_starts_at_one(self):
        x, h = _exp_profile()
        j = bc.build_j_sequence(x, h, max_m=6)
        assert j[0] == 1

    def test_exponential_profile_hand_value(self):
        x, h = _exp_profile()
        j = bc.build_j_sequence(x, h, max_m=6)
        assert j[1] == 3          # max{2*1, ceil(e), tail constraint} = 3

    def test_growth_and_tail_constraints(self):
        x, h = _exp_profile()
        j = bc.build_j_sequence(x, h, max_m=10)
        for m in range(len(j) - 1):
            assert j[m + 1] >= 2 * j[m]
            assert j[m + 1] >= np.ceil(np.exp(m + 1))
            # tail constraint at the chosen level
            tail = np.trapezoid(np.where(x <= 1.0 / j[m + 1], h, 0.0), x)
            assert tail <= 1.0 / (m + 1) ** 2 + 1e-12

    def test_support_away_from_zero_growth_only(self):
        x = np.geomspace(1e-8, 50.0, 3000)
        h = np.where(x > 0.5, np.exp(-x), 0.0)
        j = bc.build_j_sequence(x, h, max_m=8)
        for m in range(len(j) - 1):
            assert j[m + 1] == max(2 * j[m], int(np.ceil(np.exp(m + 1))))


class TestEvalPhi0:
    def _pc(self):
        x, h = _exp_profile()
        return bc.build_phi(x, h, theta=0.5, max_m=8)

    def test_origin(self):
        v, d = bc.eval_phi0(self._pc(), 0.0)
        assert v == 0.0 and d == 0.0

    def test_hand_values_at_j1(self):
        pc = self._pc()
        assert pc.j_seq[1] == 3
        v, d = bc.eval_phi0(pc, 3.0)
        assert_allclose(d, 1.5)
        assert_allclose(v, 2.25)

    def test_derivative_continuous_at_breakpoints(self):
        pc = self._pc()
        for jm in pc.j_seq[1:-1]:
            _, dl = bc.eval_phi0(pc, jm - 1e-9)
            _, dr = bc.eval_phi0(pc, jm + 1e-9)
            assert abs(dl - dr) < 1e-6

    def test_convex_increasing(self):
        pc = self._pc()
        xi = np.linspace(0.0, float(pc.j_seq[-1]), 500)
        d = np.array([bc.eval_phi0(pc, v)[1] for v in xi])
        assert np.all(np.diff(d) >= -1e-12)

    def test_beyond_last_breakpoint(self):
        pc = self._pc()
        with pytest.raises(DomainError):
            bc.eval_phi0(pc, float(pc.j_seq[-1]) * 2.0)


class TestEvalPhi:
    def _pc(self):
        x, h = _exp_profile()
        return bc.build_phi(x, h, theta=0.5, max_m=8)

    def test_large_x_first_piece_formula(self):
        pc = self._pc()
        j1 = pc.j_seq[1]
        for xv in (2.0, 10.0, 100.0):
            assert_allclose(bc.eval_phi(pc, xv),
                            1.0 / (2.0 * xv * (j1 - 1.0)) + 4.0, rtol=1e-12)

    def test_blows_up_at_zero(self):
        pc = self._pc()
        xs = 1.0 / np.asarray(pc.j_seq[1:], dtype=float)
        vals = np.array([bc.eval_phi(pc, v) for v in xs])
        assert np.all(np.diff(vals) > 0)           # grows as x decreases
        assert vals[-1] > 2.0 * bc.eval_phi(pc, 1.0)

    def test_additive_constant_is_two_over_theta(self):
        x, h = _exp_profile()
        pc = bc.build_phi(x, h, theta=0.25, max_m=6)
        assert_allclose(bc.eval_phi(pc, 1e6), 2.0 / 0.25, rtol=1e-5)


class TestVerifyDlvp:
    def test_exponential_profile_all_checks(self):
        x, h = _exp_profile()
        pc = bc.build_phi(x, h, theta=0.5, max_m=8)
        out = bc.verify_dlvp(pc, x, h)
        assert out["ok"]
        assert out["integral"]["ok"]
        assert out["convex_decreasing"]
        assert out["weighted_monotone"]
        assert out["derivative_inequalities"]["ok"]

    def test_samples_stay_within_last_breakpoint(self):
        # 1 / (1 / j) rounds above j for some integers j; with the profile
        # reaching below 1 / j, the smallest sample must still map inside
        x, h = _exp_profile()
        j = bc.build_j_sequence(x, h, max_m=8)
        j[-1] = next(v for v in range(int(j[-1]), int(j[-1]) + 1000)
                     if 1.0 / (1.0 / v) > v)
        assert x[0] < 1.0 / j[-1]
        pc = bc.PhiConstruction(j, 0.5, _phi0_breaks(j))
        assert bc.verify_dlvp(pc, x, h)["ok"]

    def test_first_piece_hand_inequality(self):
        x, h = _exp_profile()
        theta = 0.5
        pc = bc.build_phi(x, h, theta=theta, max_m=8)
        out = bc.verify_dlvp(pc, x, h)
        j1 = pc.j_seq[1]
        ineq = out["derivative_inequalities"]
        assert_allclose(ineq["first_piece_value"],
                        (theta - 1.0) * j1 / (j1 - 1.0))
        assert_allclose(ineq["first_piece_bound"], 2.0 * (theta - 1.0))
        assert ineq["first_piece_value"] >= ineq["first_piece_bound"]
