import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import breakcoag as bc
from breakcoag.errors import ConfigError, DomainError

positive = st.floats(1e-4, 1e4)


class TestEvalKernel:
    def test_sum_product_constant_case(self):
        spec = bc.KernelSpec.sum_product(0.0, 0.0)
        assert_allclose(bc.eval_kernel(spec, 0.3, 17.0), 2.0)

    def test_smoluchowski_equal_sizes(self):
        spec = bc.KernelSpec.smoluchowski()
        assert_allclose(bc.eval_kernel(spec, 1.0, 1.0), 4.0)

    def test_bg_ratio_substitution(self):
        spec = bc.KernelSpec.bg_ratio(0.5, 1.0)
        assert_allclose(bc.eval_kernel(spec, 1.0, 1.0), 2.0 * np.sqrt(2.0),
                        rtol=1e-14)

    def test_product_additive_constant(self):
        assert_allclose(bc.eval_kernel(bc.KernelSpec.product(), 3.0, 4.0), 12.0)
        assert_allclose(bc.eval_kernel(bc.KernelSpec.additive(), 3.0, 4.0), 7.0)
        assert_allclose(bc.eval_kernel(bc.KernelSpec.constant(2.5), 3.0, 4.0),
                        2.5)

    @settings(max_examples=60, deadline=None)
    @given(x=positive, y=positive)
    def test_symmetry_exact(self, x, y):
        for spec in (bc.KernelSpec.smoluchowski(),
                     bc.KernelSpec.sum_product(-0.25, 0.5),
                     bc.KernelSpec.bg_ratio(0.5, 1.0),
                     bc.KernelSpec.additive(),
                     bc.KernelSpec.product()):
            assert bc.eval_kernel(spec, x, y) == bc.eval_kernel(spec, y, x)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            bc.KernelSpec.sum_product(0.5, 0.25)       # zeta > eta
        with pytest.raises(ConfigError):
            bc.KernelSpec.sum_product(-0.6, 0.5)       # zeta <= -1/2
        with pytest.raises(ConfigError):
            bc.KernelSpec.bg_ratio(1.0, 1.0)           # sigma not in [0,1)
        with pytest.raises(ConfigError):
            bc.KernelSpec.constant(0.0)


class TestTableKernel:
    def _table(self):
        x = np.geomspace(0.1, 10.0, 9)
        K = np.add.outer(x, x)
        return bc.KernelSpec.table(x, x, K)

    def test_reproduces_nodes_and_interpolates(self):
        spec = self._table()
        x = spec.params["x"]
        assert_allclose(bc.eval_kernel(spec, x[3], x[5]), x[3] + x[5],
                        rtol=1e-12)
        v = bc.eval_kernel(spec, 0.7, 2.3)
        assert 0.7 + 2.3 - 0.5 < v < 0.7 + 2.3 + 0.5

    def test_outside_box_rejected(self):
        with pytest.raises(DomainError):
            bc.eval_kernel(self._table(), 0.01, 1.0)

    def test_asymmetric_table_rejected(self):
        x = np.geomspace(0.1, 10.0, 5)
        K = np.add.outer(x, 2.0 * x)
        with pytest.raises(ConfigError):
            bc.KernelSpec.table(x, x, K)


def _truncated(kernel, level):
    """Centers (as a column and a row) and ``build_tables``' truncated
    kernel ``K_table`` on a small grid that spans the level."""
    g = bc.make_grid(0.1, 20.0, 40)
    t = bc.build_tables(g, kernel, level, bc.DaughterSpec.power_total(0.0),
                        bc.ProbSpec.constant(0.5))
    return g.centers[:, None], g.centers[None, :], t.K_table


class TestTruncateKernel:
    def test_indicator_kills_pair(self):
        x, y, K = _truncated(bc.KernelSpec.constant(2.0), 1.0)
        cut = x + y >= 1.0
        assert cut.any() and not cut.all()
        assert np.array_equal(K, np.where(cut, 0.0, 1.0))

    def test_clamp_inactive(self):
        x, y, K = _truncated(bc.KernelSpec.product(), 10.0)
        kept = (x + y < 10.0) & (x * y < 10.0)
        assert kept.any()
        assert np.array_equal(K[kept], (x * y)[kept])

    def test_clamp_active(self):
        x, y, K = _truncated(bc.KernelSpec.product(), 10.0)
        clamped = (x + y < 10.0) & (x * y > 10.0)
        assert clamped.any()
        assert np.all(K[clamped] == 10.0)

    def test_bad_n(self):
        for level in (0.0, -5.0, np.nan):
            with pytest.raises(ConfigError):
                _truncated(bc.KernelSpec.product(), level)


class TestClassifyGrowth:
    def test_sum_product_mass_conserving_class(self):
        gc = bc.classify_growth(bc.KernelSpec.sum_product(0.0, 1.0))
        assert gc.satisfies_p1 and gc.satisfies_p2
        assert gc.alpha == 0.0

    def test_bg_ratio_constants(self):
        gc = bc.classify_growth(bc.KernelSpec.bg_ratio(0.5, 1.0))
        assert gc.satisfies_p1
        assert_allclose(gc.alpha, 0.25)
        assert gc.satisfies_p3
        assert_allclose(gc.r_exponent, (2.0 * 1.0 - 0.5) / 2.0)

    def test_additive_lower_bound_class(self):
        gc = bc.classify_growth(bc.KernelSpec.additive())
        assert gc.satisfies_p400
        assert_allclose(gc.k0, 1.0)

    def test_product_kernel_not_sublinear(self):
        gc = bc.classify_growth(bc.KernelSpec.product())
        assert not gc.satisfies_p2

    def test_sample_floor(self):
        with pytest.raises(ConfigError):
            bc.classify_growth(bc.KernelSpec.additive(), samples=100)
