import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import breakcoag as bc
from breakcoag import kernels
from breakcoag.errors import ConfigError, DomainError
from test_solver import dense_panels

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

    def test_analytic_families_symmetric_bit_for_bit(self):
        # build_tables checks K(x, y) = K(y, x) only for a table kernel:
        # every analytic family must be symmetric in floating point, as
        # its + and * commute.  A new family fails here until it is listed
        rng = np.random.default_rng(7)
        x, y = 10.0 ** rng.uniform(-6.0, 6.0, (2, 10_000))
        specs = [bc.KernelSpec.smoluchowski(), bc.KernelSpec.product(),
                 bc.KernelSpec.additive(), bc.KernelSpec.constant(2.5),
                 bc.KernelSpec.sum_product(0.0, 1.0),
                 bc.KernelSpec.sum_product(-0.25, 0.5),
                 bc.KernelSpec.sum_product(-0.4, 0.9),
                 bc.KernelSpec.bg_ratio(0.0, 0.0),
                 bc.KernelSpec.bg_ratio(0.5, 1.0),
                 bc.KernelSpec.bg_ratio(0.9, 1.4)]
        assert {s.family for s in specs} == kernels._FAMILIES - {"table"}
        for spec in specs:
            K = bc.eval_kernel(spec, x, y)
            assert np.all(np.isfinite(K)), spec
            assert np.array_equal(K, bc.eval_kernel(spec, y, x)), spec

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            bc.KernelSpec.sum_product(0.5, 0.25)       # zeta > eta
        with pytest.raises(ConfigError):
            bc.KernelSpec.sum_product(-0.6, 0.5)       # zeta <= -1/2
        with pytest.raises(ConfigError):
            bc.KernelSpec.bg_ratio(1.0, 1.0)           # sigma not in [0,1)
        with pytest.raises(ConfigError):
            bc.KernelSpec.bg_ratio(0.5, 2.0)           # 2 eta - sigma > 2
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

    @pytest.mark.parametrize("where", ["value", "axis"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, where, bad):
        # distinct axes: no symmetry check that a NaN would trip anyway
        x = np.geomspace(0.1, 10.0, 5)
        y = 2.0 * x
        K = np.add.outer(x, y) / 100.0
        if where == "value":
            K[1, 2] = bad
        else:
            y[-1] = bad
        with pytest.raises(ConfigError, match="finite"):
            bc.KernelSpec.table(x, y, K)
        with pytest.raises(ConfigError, match="finite"):
            bc.ProbSpec.table(x, y, K)


def _truncated(kernel, level):
    """Centers (as a column and a row) and ``build_tables``' truncated
    kernel, its death kernel read back from the row panels, on a small
    grid that spans the level."""
    g = bc.make_grid(0.1, 20.0, 40)
    t = bc.build_tables(g, kernel, level, bc.DaughterSpec.power_total(0.0),
                        bc.ProbSpec.constant(0.5))
    return g.centers[:, None], g.centers[None, :], dense_panels(t)[0]


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


# p1/p2/p3/p400 statuses of every built-in family at its default constants
_TABLE_AXIS = np.geomspace(1e-3, 1e2, 6)
_REFERENCE_STATUSES = {
    "smoluchowski": (bc.KernelSpec.smoluchowski(), "pass pass pass n/a"),
    "sum_product(0,1)": (bc.KernelSpec.sum_product(0.0, 1.0),
                         "pass pass n/a pass"),
    "sum_product(-0.25,0.5)": (bc.KernelSpec.sum_product(-0.25, 0.5),
                              "pass pass pass n/a"),
    "sum_product(0,0)": (bc.KernelSpec.sum_product(0.0, 0.0),
                         "pass pass pass n/a"),
    "sum_product(0.5,1)": (bc.KernelSpec.sum_product(0.5, 1.0),
                           "pass n/a n/a n/a"),
    "sum_product(-0.4,1)": (bc.KernelSpec.sum_product(-0.4, 1.0),
                            "pass pass n/a n/a"),
    "bg_ratio(0.5,1)": (bc.KernelSpec.bg_ratio(0.5, 1.0), "pass n/a pass n/a"),
    "bg_ratio(0,0.5)": (bc.KernelSpec.bg_ratio(0.0, 0.5),
                        "pass pass pass n/a"),
    "product": (bc.KernelSpec.product(), "pass n/a n/a n/a"),
    "additive": (bc.KernelSpec.additive(), "pass pass n/a pass"),
    "constant": (bc.KernelSpec.constant(), "pass pass pass n/a"),
    "constant(2.5)": (bc.KernelSpec.constant(2.5), "pass pass pass n/a"),
    "table(x+y)": (bc.KernelSpec.table(_TABLE_AXIS, _TABLE_AXIS,
                                       np.add.outer(_TABLE_AXIS, _TABLE_AXIS)),
                   "pass n/a n/a n/a"),
}
_BOX = ((1e-4, 1e4), (1e-4, 1e4))


class TestClassifyGrowth:
    def test_sum_product_mass_conserving_class(self):
        spec = bc.KernelSpec.sum_product(0.0, 1.0)
        checks = bc.classify_growth(spec)
        assert checks["p1"].status == checks["p2"].status == "pass"
        assert spec.declared_alpha == 0.0

    def test_bg_ratio_constants(self):
        spec = bc.KernelSpec.bg_ratio(0.5, 1.0)
        checks = bc.classify_growth(spec)
        assert checks["p1"].status == checks["p3"].status == "pass"
        assert_allclose(spec.declared_alpha, 0.25)
        assert_allclose(spec.r_exponent, (2.0 * 1.0 - 0.5) / 2.0)

    def test_additive_lower_bound_class(self):
        spec = bc.KernelSpec.additive()
        assert bc.classify_growth(spec)["p400"].status == "pass"
        assert_allclose(spec.declared_k0, 1.0)

    def test_product_kernel_not_sublinear(self):
        p2 = bc.classify_growth(bc.KernelSpec.product())["p2"]
        assert p2.status == "n/a" and p2.residual == np.inf

    def test_sample_floor(self):
        with pytest.raises(ConfigError):
            bc.classify_growth(bc.KernelSpec.additive(), samples=100)

    @pytest.mark.parametrize("spec,statuses", _REFERENCE_STATUSES.values(),
                             ids=_REFERENCE_STATUSES)
    def test_reference_statuses(self, spec, statuses):
        checks = bc.classify_growth(spec)
        assert list(checks) == ["p1", "p2", "p3", "p400"]
        assert " ".join(c.status for c in checks.values()) == statuses
        for c in checks.values():
            assert (c.residual == 0.0) == (c.status == "pass")

    def test_under_declared_constants_fail_with_witness(self):
        # K = x + y against k1 = 1, k2 = k0 = 0.9
        spec = bc.KernelSpec("sum_product", {"zeta": 0.0, "eta": 1.0},
                             declared_k1=1.0, declared_k2=0.9,
                             declared_k0=0.9)
        checks = bc.classify_growth(spec)
        for name in ("p1", "p2", "p400"):
            c = checks[name]
            assert c.status == "fail" and c.residual > 1e-12
            x, y = c.witness
            assert _BOX[0][0] <= x <= _BOX[0][1]
            assert _BOX[1][0] <= y <= _BOX[1][1]
        assert_allclose(checks["p400"].residual, 1.0 / 0.9 - 1.0, rtol=1e-12)
        assert min(checks["p2"].witness) >= 1.0
        assert checks["p3"].status == "n/a"

    def test_box_below_one_has_no_large_volume_samples(self):
        # p2 and p3 bound K only where a volume is at least 1
        checks = bc.classify_growth(bc.KernelSpec.constant(),
                                    sample_box=((1e-4, 0.5), (1e-4, 0.5)))
        for name in ("p2", "p3"):
            assert checks[name] == bc.CheckResult("pass", 0.0, None)
        assert checks["p1"].status == "pass"

    def test_too_small_k1_fails_p1(self):
        spec = dataclasses.replace(bc.KernelSpec.bg_ratio(0.5, 1.0),
                                   declared_k1=0.1)
        p1 = bc.classify_growth(spec)["p1"]
        assert p1.status == "fail" and p1.residual > 0.0

    def test_table_kernel_witness_inside_its_box(self):
        spec = bc.KernelSpec.table(_TABLE_AXIS, 2.0 * _TABLE_AXIS,
                                   np.add.outer(_TABLE_AXIS, 2.0 * _TABLE_AXIS),
                                   declared_k1=0.5)
        p1 = bc.classify_growth(spec)["p1"]
        assert p1.status == "fail"
        assert _TABLE_AXIS[0] <= p1.witness[0] <= _TABLE_AXIS[-1]
        assert 2.0 * _TABLE_AXIS[0] <= p1.witness[1] <= 2.0 * _TABLE_AXIS[-1]
