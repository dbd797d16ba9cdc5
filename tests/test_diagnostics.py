import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import breakcoag as bc
from breakcoag.errors import ConfigError


def _run(grid, kernel, prob, daughter=None, t_end=1.0, n_out=5, **kw):
    tables = bc.build_tables(grid, kernel, grid.x_max,
                             daughter or bc.DaughterSpec.uniform(), prob, **kw)
    state = bc.sample_initial(bc.InitialCondition.exponential(1.0), grid)
    ctrl = bc.StepControl(t_end=t_end,
                          output_times=tuple(np.linspace(0, t_end, n_out)))
    return tables, bc.integrate(tables, state, ctrl)


class TestMassConservation:
    def test_zero_state(self, small_grid):
        t = bc.build_tables(small_grid, bc.KernelSpec.constant(1.0),
                            small_grid.x_max, bc.DaughterSpec.uniform(),
                            bc.ProbSpec.constant(0.5))
        z = bc.State(grid=small_grid, density=np.zeros(small_grid.cell_count))
        traj = bc.integrate(t, z, bc.StepControl(
            t_end=1.0, output_times=(0.0, 0.5, 1.0)))
        out = bc.check_mass_conservation(traj, 1e-8)
        assert out["ok"] and out["max_drift"] == 0.0

    def test_conserving_run_passes(self, small_grid):
        _, traj = _run(small_grid, bc.KernelSpec.additive(),
                       bc.ProbSpec.constant(0.5))
        assert bc.check_mass_conservation(traj, 1e-10)["ok"]

    def test_gelation_run_fails(self):
        g = bc.make_grid(1e-3, 1e3, 120)
        _, traj = _run(g, bc.KernelSpec.product(), bc.ProbSpec.constant(1.0),
                       t_end=1.0, offgrid_loss=True)
        out = bc.check_mass_conservation(traj, 1e-8)
        assert not out["ok"]
        # loss grows in time
        assert out["drift"][-1] > out["drift"][len(out["drift"]) // 2]


class TestAprioriBounds:
    def test_decreasing_number_passes(self, small_grid):
        _, traj = _run(small_grid, bc.KernelSpec.constant(1.0),
                       bc.ProbSpec.constant(1.0))
        series = bc.moment_series(traj, (0.0, 1.0))
        report = bc.check_scenario(bc.KernelSpec.constant(1.0),
                                   bc.DaughterSpec.uniform(),
                                   bc.ProbSpec.constant(1.0),
                                   bc.InitialCondition.exponential(1.0))
        out = bc.check_apriori_bounds(series, report, rho=1.0, k1=1.0)
        assert out["M0"]["status"] == "pass"

    def test_below_floor_marked_na(self, small_grid):
        # singular kernel requires E above its floor; E = 0.1 is under it
        kernel = bc.KernelSpec.sum_product(-0.25, 0.5)
        report = bc.check_scenario(kernel, bc.DaughterSpec.power_total(0.0),
                                   bc.ProbSpec.constant(0.1),
                                   bc.InitialCondition.exponential(1.0))
        assert report.checks["p7"].status == "fail"
        _, traj = _run(small_grid, kernel, bc.ProbSpec.constant(0.1),
                       daughter=bc.DaughterSpec.power_total(0.0))
        series = bc.moment_series(traj, (0.0, 0.5))
        out = bc.check_apriori_bounds(series, report, rho=1.0, k1=2.0)
        assert out["M0"]["status"] == "n/a"

    def test_exact_beta_for_singular_daughter(self):
        assert_allclose(bc.daughter.beta_zero(bc.DaughterSpec.power_total(-0.5)),
                        3.0)


class TestDetectGelation:
    def _series(self, m1):
        t = np.linspace(0.0, 1.0, len(m1))
        vals = np.column_stack([m1])
        return bc.MomentSeries(times=t, orders=(1.0,), values=vals)

    def test_constant_mass_none(self):
        assert bc.detect_gelation(self._series(np.ones(11)), 0.01) is None

    def test_onset_at_first_sustained_loss(self):
        m1 = np.ones(11)
        m1[6:] = [0.995, 0.98, 0.95, 0.9, 0.85]
        s = self._series(m1)
        assert bc.detect_gelation(s, 0.01) == pytest.approx(0.7)

    def test_blip_not_reported(self):
        m1 = np.ones(11)
        m1[4] = 0.9     # single glitch, not sustained
        assert bc.detect_gelation(self._series(m1), 0.01) is None

    def test_additive_kernel_conserves(self, small_grid):
        _, traj = _run(small_grid, bc.KernelSpec.additive(),
                       bc.ProbSpec.constant(1.0), t_end=2.0)
        series = bc.moment_series(traj, (0.0, 1.0))
        assert bc.detect_gelation(series, 0.01) is None
        # number-moment oracle for the additive kernel: M0 = exp(-t)
        assert_allclose(series.order(0.0), np.exp(-series.times), rtol=5e-2)


class TestContraction:
    def _setup(self, grid):
        kernel = bc.KernelSpec.constant(1.0)
        tables = bc.build_tables(grid, kernel, grid.x_max,
                                 bc.DaughterSpec.uniform(),
                                 bc.ProbSpec.constant(0.5))
        report = bc.check_scenario(kernel, bc.DaughterSpec.uniform(),
                                   bc.ProbSpec.constant(0.5),
                                   bc.InitialCondition.exponential(1.0))
        ctrl = bc.StepControl(t_end=1.0,
                              output_times=tuple(np.linspace(0, 1, 6)))
        traj_f = bc.integrate(tables, bc.sample_initial(
            bc.InitialCondition.exponential(1.0), grid), ctrl)
        return tables, ctrl, traj_f, report

    def test_identical_inputs_zero_distance(self, small_grid):
        tables, ctrl, traj_f, report = self._setup(small_grid)
        ic = bc.InitialCondition.exponential(1.0)
        res = bc.contraction_experiment(tables, ctrl, traj_f, ic, report)
        assert res.ok
        assert_allclose(res.distance, 0.0, atol=1e-14)

    def test_perturbed_input_stays_under_envelope(self, small_grid):
        tables, ctrl, traj_f, report = self._setup(small_grid)
        res = bc.contraction_experiment(
            tables, ctrl, traj_f,
            bc.InitialCondition.exponential(1.0, mass=1.01), report)
        assert res.ok
        assert np.all(res.distance <= res.envelope() * 1.05 + 1e-14)

    def test_trajectory_of_another_run_rejected(self, small_grid):
        # the distance compares outputs pointwise: a trajectory at other
        # output times or on another grid is not the run of these tables
        tables, ctrl, traj_f, report = self._setup(small_grid)
        ic = bc.InitialCondition.exponential(1.0)
        other_times = dataclasses.replace(
            ctrl, output_times=tuple(np.linspace(0, 1, 5)))
        with pytest.raises(ConfigError, match="traj_f"):
            bc.contraction_experiment(tables, other_times, traj_f, ic, report)
        g = bc.make_grid(small_grid.x_min, small_grid.x_max,
                         small_grid.cell_count + 1)
        other_tables = bc.build_tables(g, tables.kernel, g.x_max,
                                       tables.daughter, tables.prob)
        with pytest.raises(ConfigError, match="traj_f"):
            bc.contraction_experiment(other_tables, ctrl, traj_f, ic, report)

    def test_gate_rejects_non_uniqueness_scenario(self, small_grid):
        kernel = bc.KernelSpec.product()
        tables = bc.build_tables(small_grid, kernel, small_grid.x_max,
                                 bc.DaughterSpec.uniform(),
                                 bc.ProbSpec.constant(0.5))
        report = bc.check_scenario(kernel, bc.DaughterSpec.uniform(),
                                   bc.ProbSpec.constant(0.5),
                                   bc.InitialCondition.exponential(1.0))
        ctrl = bc.StepControl(t_end=0.2,
                              output_times=(0.0, 0.1, 0.2))
        ic = bc.InitialCondition.exponential(1.0)
        traj_f = bc.integrate(tables, bc.sample_initial(ic, small_grid), ctrl)
        with pytest.raises(ConfigError):
            bc.contraction_experiment(tables, ctrl, traj_f, ic, report)


class TestEquicontinuity:
    def test_zero_state(self, small_grid):
        t = bc.build_tables(small_grid, bc.KernelSpec.constant(1.0),
                            small_grid.x_max, bc.DaughterSpec.uniform(),
                            bc.ProbSpec.constant(1.0))
        z = bc.State(grid=small_grid, density=np.zeros(small_grid.cell_count))
        traj = bc.integrate(t, z, bc.StepControl(
            t_end=1.0, output_times=(0.0, 0.5, 1.0)))
        out = bc.equicontinuity_modulus(traj, alpha=0.0, k1=1.0,
                                        beta_minus_2alpha=2.0, rho=1.0)
        assert out["estimate"] == 0.0 and out["ok"]

    def test_estimate_under_bound_and_stable(self, small_grid):
        t = bc.build_tables(small_grid, bc.KernelSpec.constant(1.0),
                            small_grid.x_max, bc.DaughterSpec.uniform(),
                            bc.ProbSpec.constant(1.0))
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                  small_grid)
        ests = []
        for n_out in (6, 11):
            traj = bc.integrate(t, state, bc.StepControl(
                t_end=1.0,
                output_times=tuple(np.linspace(0, 1, n_out))))
            out = bc.equicontinuity_modulus(traj, alpha=0.0, k1=1.0,
                                            beta_minus_2alpha=2.0, rho=1.0)
            assert out["ok"] and out["estimate"] <= out["bound"]
            ests.append(out["estimate"])
        assert abs(ests[1] - ests[0]) <= 0.1 * max(ests)


class TestESweep:
    def test_rows_and_pure_coagulation_limit(self, small_grid):
        ctrl = bc.StepControl(t_end=0.5,
                              output_times=(0.0, 0.25, 0.5))
        tables = bc.build_tables(small_grid, bc.KernelSpec.constant(1.0),
                                 small_grid.x_max, bc.DaughterSpec.uniform(),
                                 bc.ProbSpec.constant(1.0))
        rows = bc.e_sweep(tables, bc.InitialCondition.exponential(1.0), ctrl,
                          E_values=(0.0, 0.5, 1.0))
        assert [r["E"] for r in rows] == [0.0, 0.5, 1.0]
        for r in rows:
            assert r["mass_drift"] <= 1e-10
        # more coalescence, fewer particles
        assert rows[2]["M0_ratio"] < rows[0]["M0_ratio"]

    def test_mass_drift_is_check_mass_conservation(self):
        # one drift computation: the sweep's row reports exactly what the
        # run experiment reports for the same trajectory
        g = bc.make_grid(1e-4, 1e3, 40)
        kernel = bc.KernelSpec.sum_product(-0.25, 0.5)
        daughter = bc.DaughterSpec.power_total(0.0)
        ic = bc.InitialCondition.exponential(1.0)
        ctrl = bc.StepControl(t_end=0.12,
                              output_times=tuple(np.linspace(0, 0.12, 11)))
        tables = bc.build_tables(g, kernel, g.x_max, daughter,
                                 bc.ProbSpec.constant(0.5))
        row, = bc.e_sweep(tables, ic, ctrl, E_values=(0.5,))
        traj = bc.integrate(tables, bc.sample_initial(ic, g), ctrl)
        assert row["mass_drift"] == bc.check_mass_conservation(
            traj, 1e-8)["max_drift"]
