import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import breakcoag as bc
from breakcoag.errors import ConfigError, DataError


class TestMakeGrid:
    def test_two_cell_example(self):
        g = bc.make_grid(1.0, 4.0, 2)
        assert_allclose(g.edges, [1.0, 2.0, 4.0])
        assert_allclose(g.centers, [np.sqrt(2.0), np.sqrt(8.0)])

    def test_edge_ratio_closed_form(self):
        g = bc.make_grid(1e-4, 1e3, 70)
        assert_allclose(g.ratio, 1e7 ** (1.0 / 70.0), rtol=1e-13)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigError):
            bc.make_grid(1.0, 1.0, 10)

    def test_bad_cell_count_rejected(self):
        with pytest.raises(ConfigError):
            bc.make_grid(1.0, 2.0, 0)


class TestSampleInitial:
    def test_exponential_gamma_moments(self):
        g = bc.make_grid(1e-6, 1e3, 600)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0), g)
        assert_allclose(bc.moment(state, 0.0), 1.0, rtol=1e-3)
        assert_allclose(bc.moment(state, 1.0), 1.0, rtol=1e-12)
        assert_allclose(bc.moment(state, 2.0), 2.0, rtol=1e-3)

    def test_zero_table_gives_zero_moments(self):
        g = bc.make_grid(1e-3, 1e2, 50)
        x = np.geomspace(1e-3, 1e2, 40)
        ic = bc.InitialCondition.tabulated(x, np.zeros_like(x), mass=None)
        state = bc.sample_initial(ic, g)
        for m in (-0.5, 0.0, 1.0, 2.0):
            assert bc.moment(state, m) == 0.0

    def test_power_cutoff_quadrature_oracle(self):
        # Discrete M_{-1/4} assembled from closed-form cell masses must agree
        # with the same sum assembled from per-cell adaptive quadrature.
        g = bc.make_grid(1e-4, 1e3, 300)
        ic = bc.InitialCondition.power_cutoff(0.5, 1.0, mass=1.0)
        state = bc.sample_initial(ic, g)
        discrete = bc.moment(state, -0.25)

        # density before cutoff: C * x^{-1/2} on (0, 1); recover C from the
        # sampled state itself (mass-normalized), then integrate per cell.
        lo, hi = g.edges[:-1], g.edges[1:]
        c = 1.0 / quad(lambda x: x * x ** -0.5, 0.0, 1.0)[0]
        cell = np.array([
            quad(lambda x: c * x ** -0.5, a, min(b, 1.0))[0] if a < 1.0 else 0.0
            for a, b in zip(lo, hi)
        ])
        # match the sampler's exact discrete-mass rescale
        cell *= 1.0 / np.sum(g.centers * cell)
        oracle = float(np.sum(g.centers ** -0.25 * cell))
        assert_allclose(discrete, oracle, rtol=1e-8)

    @pytest.mark.parametrize("column", ["x", "f"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, column, bad):
        table = {"x": np.geomspace(1e-3, 1e2, 10), "f": np.ones(10)}
        table[column][-1] = bad
        with pytest.raises(DataError, match="finite"):
            bc.InitialCondition.tabulated(table["x"], table["f"])

    def test_mass_rescale_is_exact(self):
        g = bc.make_grid(1e-3, 1e2, 80)
        for ic in (bc.InitialCondition.exponential(2.0, mass=3.5),
                   bc.InitialCondition.power_cutoff(0.5, 1.0, mass=0.25),
                   bc.InitialCondition.point_mass(1.0, 0.2, mass=2.0)):
            state = bc.sample_initial(ic, g)
            assert_allclose(bc.moment(state, 1.0), ic.mass, rtol=1e-13)


class TestMoment:
    def test_negative_half_moment_gamma_oracle(self):
        g = bc.make_grid(1e-7, 1e3, 800)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0), g)
        assert_allclose(bc.moment(state, -0.5), np.sqrt(np.pi), rtol=5e-3)

    def test_zero_state(self):
        g = bc.make_grid(1e-3, 1e2, 50)
        state = bc.State(grid=g, density=np.zeros(g.cell_count))
        assert bc.moment(state, 1.3) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, bad):
        g = bc.make_grid(1e-3, 1e2, 50)
        density = np.ones(g.cell_count)
        density[7] = bad
        with pytest.raises(ConfigError, match="finite"):
            bc.State(grid=g, density=density)

    @settings(max_examples=30, deadline=None)
    @given(m=st.floats(-0.5, 2.0), a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0))
    def test_linearity(self, m, a, b):
        g = bc.make_grid(1e-3, 1e2, 60)
        rng = np.random.default_rng(7)
        f1 = rng.random(g.cell_count)
        f2 = rng.random(g.cell_count)
        s1 = bc.State(grid=g, density=f1)
        s2 = bc.State(grid=g, density=f2)
        s3 = bc.State(grid=g, density=a * f1 + b * f2)
        assert_allclose(bc.moment(s3, m),
                        a * bc.moment(s1, m) + b * bc.moment(s2, m),
                        rtol=1e-12)

    def test_second_moment_error_shrinks_under_refinement(self):
        errs = []
        for cells in (100, 200, 400):
            g = bc.make_grid(1e-6, 1e3, cells)
            state = bc.sample_initial(bc.InitialCondition.exponential(1.0), g)
            errs.append(abs(bc.moment(state, 2.0) - 2.0))
        assert errs[1] < errs[0] / 2.0
        assert errs[2] < errs[1] / 2.0
