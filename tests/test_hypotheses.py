import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import breakcoag as bc
from breakcoag.errors import ConfigError, DomainError
from breakcoag.hypotheses import choose_p, omega_bound


class TestCoalescenceThreshold:
    def test_uniform_daughter_gives_zero(self):
        assert bc.coalescence_threshold(2.0, 0.0) == 0.0

    def test_power_total_alpha_zero(self):
        for nu in (-0.9, -0.5, 0.0, 1.0, 3.0):
            beta = (nu + 2.0) / (nu + 1.0)
            assert_allclose(bc.coalescence_threshold(beta, 0.0),
                            max(0.0, -nu), atol=1e-14)

    def test_power_each_alpha_zero(self):
        for nu in (-0.5, 0.0, 2.0):
            beta = 2.0 * (nu + 2.0) / (nu + 1.0)
            assert_allclose(bc.coalescence_threshold(beta, 0.0),
                            2.0 / (nu + 3.0), atol=1e-14)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            bc.coalescence_threshold(0.5, 0.0)     # beta < 1
        with pytest.raises(DomainError):
            bc.coalescence_threshold(2.0, 0.5)     # alpha out of range


class TestThresholdSingular:
    def test_hand_value(self):
        assert_allclose(bc.threshold_singular(0.0, -0.25),
                        (2.0 - 0.5 * 2.0 ** 1.5) / 1.5, rtol=1e-13)
        assert_allclose(bc.threshold_singular(0.0, -0.25), 0.39052,
                        atol=5e-6)

    def test_route_agreement_with_generic_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            zeta = rng.uniform(-0.499, -1e-3)
            alpha = -zeta
            nu = rng.uniform(2.0 * alpha - 1.0 + 1e-6, 3.0)
            beta = (nu + 2.0) / (nu + 1.0 - 2.0 * alpha)
            assert_allclose(bc.threshold_singular(nu, zeta),
                            bc.coalescence_threshold(beta, alpha),
                            rtol=1e-12, atol=1e-12)

    def test_positive_for_nonpositive_nu(self):
        for nu in (-0.2, 0.0):
            assert bc.threshold_singular(nu, -0.3) > 0.0

    def test_continuity_at_zeta_zero(self):
        assert bc.threshold_singular(0.0, -1e-9) < 1e-6

    def test_bg_route_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sigma = rng.uniform(1e-3, 0.999)
            nu = rng.uniform(sigma - 1.0 + 1e-6, 3.0)
            alpha = sigma / 2.0
            beta = (nu + 2.0) / (nu + 1.0 - 2.0 * alpha)
            assert_allclose(bc.threshold_bg(nu, sigma),
                            bc.coalescence_threshold(beta, alpha),
                            rtol=1e-12, atol=1e-12)


class TestUniformIntegrability:
    def test_default_trial_sets_pass(self):
        spec = bc.DaughterSpec.power_total(0.0)
        rows = bc.verify_uniform_integrability(spec, 0.0, 0.25)
        assert rows and all(r["ok"] for r in rows)

    def test_small_sets_have_small_ratio(self):
        spec = bc.DaughterSpec.power_total(0.0)
        rows = bc.verify_uniform_integrability(
            spec, 0.0, 0.25, trial_sets=[((0.0, 1e-6),), ((0.0, 1e-1),)])
        assert rows[0]["max_ratio"] < rows[1]["max_ratio"]

    def test_translated_sets_stay_under_bound(self):
        spec = bc.DaughterSpec.power_each(0.5)
        sets = [((a, a + 0.01),) for a in (0.0, 0.3, 1.0, 2.5)]
        rows = bc.verify_uniform_integrability(spec, 0.0, 0.25,
                                               trial_sets=sets)
        assert all(r["ok"] for r in rows)


class TestChooseP:
    def test_p_is_admissible_with_margin(self):
        for nu, alpha in ((0.0, 0.0), (-0.4, 0.25), (2.0, 1.0 / 3.0)):
            spec = bc.DaughterSpec.power_total(nu)
            p = choose_p(spec, alpha)
            lower = (max(1.0 / alpha, 1.0 / (nu + 1.0 - alpha))
                     if alpha > 0 else 1.0 / (nu + 1.0))
            assert p == max(math.floor(lower) + 1, 2) + 2
            assert p > lower

    def test_omega_vanishes_at_zero(self):
        spec = bc.DaughterSpec.power_total(0.0)
        assert omega_bound(spec, 0.0, 0.0) == 0.0
        assert omega_bound(spec, 0.0, 1e-12) < 1e-2


class TestCheckScenario:
    def test_mass_conserving_uniqueness_scenario(self):
        report = bc.check_scenario(bc.KernelSpec.sum_product(0.0, 1.0),
                                   bc.DaughterSpec.power_total(0.0),
                                   bc.ProbSpec.constant(0.5),
                                   bc.InitialCondition.exponential(1.0))
        assert report.checks["p2"].status == "pass"
        assert report.E_min == 0.0
        assert "Thm2.2" in report.applicable_results
        assert "Uniqueness" in report.applicable_results

    def test_per_parent_with_singular_kernel_fails(self):
        report = bc.check_scenario(bc.KernelSpec.sum_product(-0.25, 0.5),
                                   bc.DaughterSpec.power_each(0.0),
                                   bc.ProbSpec.constant(1.0),
                                   bc.InitialCondition.exponential(1.0))
        assert report.checks["p6"].status == "fail"
        assert report.applicable_results == ()

    def test_additive_lower_bound_scenario(self):
        report = bc.check_scenario(bc.KernelSpec.additive(),
                                   bc.DaughterSpec.power_total(0.0),
                                   bc.ProbSpec.constant(0.0),
                                   bc.InitialCondition.exponential(1.0))
        assert report.checks["p400"].status == "pass"
        assert "Thm2.6" in report.applicable_results

    def test_growth_checks_keep_their_witness(self):
        kernel = bc.KernelSpec("sum_product", {"zeta": 0.0, "eta": 1.0},
                               declared_k1=1.0, declared_k2=0.9,
                               declared_k0=0.9)
        report = bc.check_scenario(kernel, bc.DaughterSpec.power_total(0.0),
                                   bc.ProbSpec.constant(0.5),
                                   bc.InitialCondition.exponential(1.0))
        growth = bc.classify_growth(kernel)
        for name in ("p1", "p2", "p3", "p400"):
            assert report.checks[name] == growth[name]
        assert report.checks["p1"].witness is not None
        assert report.applicable_results == ()

    def test_run_path_loads_no_random_or_ode_module(self):
        # the checks sample a deterministic mesh and the integrator is
        # transcribed, so neither numpy.random nor scipy.integrate is needed
        script = """
import sys
import breakcoag as bc
g = bc.make_grid(1e-3, 1e2, 30)
kernel, daughter = bc.KernelSpec.additive(), bc.DaughterSpec.power_total(0.0)
prob, ic = bc.ProbSpec.constant(0.5), bc.InitialCondition.exponential(1.0)
bc.check_scenario(kernel, daughter, prob, ic)
tables = bc.build_tables(g, kernel, g.x_max, daughter, prob)
bc.integrate(tables, bc.sample_initial(ic, g), bc.StepControl(t_end=0.1))
print(sorted(m for m in ("numpy.random", "scipy.integrate")
             if m in sys.modules))
"""
        src = str(Path(bc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_report_serializes(self):
        report = bc.check_scenario(bc.KernelSpec.constant(1.0),
                                   bc.DaughterSpec.uniform(),
                                   bc.ProbSpec.constant(1.0),
                                   bc.InitialCondition.exponential(1.0))
        d = report.to_dict()
        assert set(d["checks"]) == set(report.checks)
        assert isinstance(d["applicable_results"], list)
