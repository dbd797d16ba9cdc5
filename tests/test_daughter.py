import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import breakcoag as bc
from breakcoag.daughter import beta_minus, beta_prime, beta_zero, partial_beta
from breakcoag.errors import ConfigError, DomainError

positive = st.floats(1e-3, 1e3)


class TestEvalB:
    def test_uniform_point_value(self):
        spec = bc.DaughterSpec.uniform()
        assert_allclose(bc.eval_b(spec, 0.5, 1.0, 1.0), 1.0)

    def test_power_total_formula(self):
        spec = bc.DaughterSpec.power_total(1.0)
        z = np.array([0.5, 1.0, 3.9, 4.1])
        expect = np.where(z < 4.0, 3.0 * z / 16.0, 0.0)
        assert_allclose(bc.eval_b(spec, z, 2.0, 2.0), expect)

    def test_power_each_both_terms(self):
        spec = bc.DaughterSpec.power_each(0.0)
        assert_allclose(bc.eval_b(spec, 0.5, 1.0, 1.0), 4.0)

    def test_support_bounds(self):
        spec = bc.DaughterSpec.power_total(0.0)
        assert bc.eval_b(spec, 5.0, 2.0, 2.0) == 0.0
        assert bc.eval_b(spec, -1.0, 2.0, 2.0) == 0.0

    def test_nu_range_validation(self):
        with pytest.raises(ConfigError):
            bc.DaughterSpec.power_total(-2.0)


class TestMomentIntegral:
    @settings(max_examples=100, deadline=None)
    @given(x=positive, y=positive)
    def test_mass_identity(self, x, y):
        for spec in (bc.DaughterSpec.uniform(),
                     bc.DaughterSpec.power_total(-0.5),
                     bc.DaughterSpec.power_total(1.5),
                     bc.DaughterSpec.power_each(0.0),
                     bc.DaughterSpec.power_each(2.0)):
            assert_allclose(bc.moment_integral(spec, 1.0, x, y), x + y,
                            rtol=1e-12)

    def test_number_constants(self):
        nu = 0.7
        assert_allclose(bc.moment_integral(bc.DaughterSpec.power_total(nu),
                                           0.0, 3.0, 4.0),
                        (nu + 2.0) / (nu + 1.0))
        assert_allclose(bc.moment_integral(bc.DaughterSpec.power_each(nu),
                                           0.0, 3.0, 4.0),
                        2.0 * (nu + 2.0) / (nu + 1.0))

    def test_quadrature_spot_checks(self):
        for spec in (bc.DaughterSpec.power_total(-0.3),
                     bc.DaughterSpec.power_each(0.5)):
            for m in (-0.25, 0.0, 0.5, 1.0):
                x, y = 0.7, 2.1
                oracle = quad(lambda z: z ** m * bc.eval_b(spec, z, x, y),
                              0.0, x + y, points=[x, y], limit=200)[0]
                assert_allclose(bc.moment_integral(spec, m, x, y), oracle,
                                rtol=1e-8)

    def test_divergent_moment_rejected(self):
        spec = bc.DaughterSpec.power_total(-0.5)
        with pytest.raises(DomainError):
            bc.moment_integral(spec, -0.5, 1.0, 1.0)


class TestPartialMomentIntegral:
    def test_uniform_partial_oracle(self):
        spec = bc.DaughterSpec.uniform()
        assert_allclose(bc.partial_moment_integral(spec, 0.0, 1.0, 2.0, 2.0),
                        0.5)

    def test_full_upper_recovers_mass(self):
        for spec in (bc.DaughterSpec.uniform(), bc.DaughterSpec.power_each(1.0)):
            assert_allclose(
                bc.partial_moment_integral(spec, 1.0, 3.5, 1.5, 2.0), 3.5,
                rtol=1e-12)

    def test_power_total_closed_form(self):
        nu, alpha = 0.5, 0.25
        spec = bc.DaughterSpec.power_total(nu)
        x, y = 3.0, 4.0
        u = 1.0
        expect = ((nu + 2.0) / (nu + 1.0 - alpha)
                  * u ** (nu + 1.0 - alpha) / (x + y) ** (nu + 1.0))
        assert_allclose(bc.partial_moment_integral(spec, -alpha, u, x, y),
                        expect, rtol=1e-13)
        # bounded by B_{-alpha} * u^{-alpha}
        B = (nu + 2.0) / (nu + 1.0 - alpha)
        assert expect <= B * u ** -alpha + 1e-15


class TestConstants:
    def test_beta_values(self):
        b0 = bc.DaughterSpec.power_total(0.0)
        assert_allclose(beta_zero(b0), 2.0)
        assert_allclose(beta_minus(b0, 0.5), 4.0)
        assert_allclose(partial_beta(b0, 0.25), 2.0 / 0.75)
        assert_allclose(beta_prime(b0, 0.5), 8.0)
        each = bc.DaughterSpec.power_each(0.0)
        assert_allclose(beta_zero(each), 4.0)

    def test_per_parent_partial_requires_alpha_zero(self):
        with pytest.raises(DomainError):
            partial_beta(bc.DaughterSpec.power_each(0.0), 0.25)


class TestProbSpec:
    def test_constant_limits(self):
        one = bc.ProbSpec.constant(1.0)
        zero = bc.ProbSpec.constant(0.0)
        assert_allclose(bc.eval_E(one, 2.0, 3.0), 1.0)
        assert_allclose(bc.eval_E(zero, 2.0, 3.0), 0.0)

    def test_constant_range_validation(self):
        with pytest.raises(ConfigError):
            bc.ProbSpec.constant(1.5)

    def test_small_volume_floor(self):
        spec = bc.ProbSpec.small_volume_floor(0.7, 0.2)
        assert_allclose(bc.eval_E(spec, 0.5, 0.5), 0.7)
        assert_allclose(bc.eval_E(spec, 2.0, 3.0), 0.2)

    def test_asymmetric_table_rejected(self):
        x = np.geomspace(0.1, 10.0, 5)
        E = np.tile(np.linspace(0.1, 0.9, 5), (5, 1))
        with pytest.raises(ConfigError, match="symmetric"):
            bc.ProbSpec.table(x, x, E)
        bc.ProbSpec.table(x, 2.0 * x, E)  # distinct axes: no symmetry to ask

    def test_tables_share_one_log_bilinear_lookup(self):
        # both table families: the same formula, term for term, as a
        # hand-written lookup in log coordinates
        rng = np.random.default_rng(7)
        axis = np.geomspace(1e-2, 1e2, 6)
        K = rng.random((6, 6))
        K = K + K.T
        E = 0.5 * (K / K.max())
        x = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 500))
        y = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 500))
        x[:6], y[:6] = axis, axis[::-1]

        def lookup(table):
            la = np.log(axis)
            ix = np.clip(np.searchsorted(la, np.log(x)) - 1, 0, 4)
            iy = np.clip(np.searchsorted(la, np.log(y)) - 1, 0, 4)
            wx = (np.log(x) - la[ix]) / (la[ix + 1] - la[ix])
            wy = (np.log(y) - la[iy]) / (la[iy + 1] - la[iy])
            lo = (1 - wy) * table[ix, iy] + wy * table[ix, iy + 1]
            hi = (1 - wy) * table[ix + 1, iy] + wy * table[ix + 1, iy + 1]
            return (1 - wx) * lo + wx * hi

        kernel = bc.KernelSpec.table(axis, axis, K)
        prob = bc.ProbSpec.table(axis, axis, E)
        np.testing.assert_array_equal(bc.eval_kernel(kernel, x, y), lookup(K))
        np.testing.assert_array_equal(bc.eval_E(prob, x, y),
                                      np.clip(lookup(E), 0.0, 1.0))
        assert_allclose(bc.eval_E(prob, axis[1], axis[4]), E[1, 4],
                        rtol=1e-12)
        with pytest.raises(DomainError):
            bc.eval_E(prob, 1e-3, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(x=positive, y=positive)
    def test_symmetry_and_range(self, x, y):
        for spec in (bc.ProbSpec.constant(0.3),
                     bc.ProbSpec.small_volume_floor(0.9, 0.1, cut=2.0)):
            vx = bc.eval_E(spec, x, y)
            assert vx == bc.eval_E(spec, y, x)
            assert 0.0 <= vx <= 1.0
