"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s`` to see them as they happen).
"""

import math
from array import array

import numpy as np
from scipy.integrate import quad

import breakcoag as bc


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_mass_conservation(linear_scenario):
    traj = linear_scenario["traj"]
    g = linear_scenario["grid"]
    m1 = traj.densities @ (g.centers * g.widths)
    drift = float(np.max(np.abs(m1 / m1[0] - 1.0)))
    _verdict(1, "mass conservation", drift <= 1e-8,
             f"relative drift {drift:.3e} <= 1e-8")


def test_criterion_02_constant_kernel_oracle():
    g = bc.make_grid(1e-4, 1e3, 200)
    tables = bc.build_tables(g, bc.KernelSpec.constant(1.0), g.x_max,
                             bc.DaughterSpec.uniform(), bc.ProbSpec.constant(1.0))
    traj = bc.integrate(tables,
                        bc.sample_initial(bc.InitialCondition.exponential(1.0), g),
                        bc.StepControl(t_end=4.0,
                                       output_times=(0.0, 1.0, 2.0, 4.0)))
    m0 = traj.densities @ g.widths
    err = float(np.max(np.abs(m0[1:] / (2.0 / (2.0 + traj.times[1:])) - 1.0)))
    _verdict(2, "constant-kernel number oracle", err <= 1e-2,
             f"max relative error {err:.3e} <= 1e-2 at t in {{1,2,4}}")


def test_criterion_03_gelation_signature():
    g = bc.make_grid(1e-3, 1e4, 300)
    tables = bc.build_tables(g, bc.KernelSpec.product(), g.x_max,
                             bc.DaughterSpec.uniform(), bc.ProbSpec.constant(1.0),
                             offgrid_loss=True)
    traj = bc.integrate(tables,
                        bc.sample_initial(bc.InitialCondition.exponential(1.0), g),
                        bc.StepControl(t_end=1.0,
                                       output_times=tuple(np.linspace(0, 1, 41))))
    series = bc.moment_series(traj, (0.0, 1.0, 2.0))
    t = series.times
    m2 = series.order(2.0)
    pre = t <= 0.4
    err = float(np.max(np.abs(m2[pre] / (2.0 / (1.0 - 2.0 * t[pre])) - 1.0)))
    onset = bc.detect_gelation(series, 0.01)
    ok = err <= 0.05 and onset is not None and 0.45 <= onset <= 0.7
    _verdict(3, "gelation signature", ok,
             f"M2 error {err:.3e} <= 0.05 for t<=0.4; onset {onset} in [0.45,0.7]")


def test_criterion_04_threshold_formulas():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        nu = rng.uniform(-0.99, 3.0)
        worst = max(worst, abs(
            bc.coalescence_threshold((nu + 2.0) / (nu + 1.0), 0.0)
            - max(0.0, -nu)))
        worst = max(worst, abs(
            bc.coalescence_threshold(2.0 * (nu + 2.0) / (nu + 1.0), 0.0)
            - 2.0 / (nu + 3.0)))

        zeta = rng.uniform(-0.499, -1e-3)
        nu_s = rng.uniform(-2.0 * zeta - 1.0 + 1e-6, 3.0)
        display = ((nu_s + 2.0 - (nu_s + 1.0 + 2.0 * zeta)
                    * 2.0 ** (1.0 - 2.0 * zeta)) / (1.0 - 2.0 * zeta))
        got = bc.threshold_singular(nu_s, zeta)
        worst = max(worst, abs(got - max(0.0, display)))
        beta = (nu_s + 2.0) / (nu_s + 1.0 + 2.0 * zeta)
        worst = max(worst, abs(got - bc.coalescence_threshold(beta, -zeta)))

        sigma = rng.uniform(1e-3, 0.999)
        nu_b = rng.uniform(sigma - 1.0 + 1e-6, 3.0)
        display = ((nu_b + 2.0 - (nu_b + 1.0 - sigma)
                    * 2.0 ** (1.0 + sigma)) / (1.0 + sigma))
        got = bc.threshold_bg(nu_b, sigma)
        worst = max(worst, abs(got - max(0.0, display)))
        beta = (nu_b + 2.0) / (nu_b + 1.0 - sigma)
        worst = max(worst, abs(got - bc.coalescence_threshold(beta, sigma / 2.0)))
    _verdict(4, "threshold formulas", worst <= 1e-12,
             f"worst deviation {worst:.3e} <= 1e-12 over 100 draws per route")


def _b_float(spec, z, x, y):
    """``bc.eval_b`` at one node in plain floats: a numpy call per
    quadrature node would take most of the test's time."""
    nu = spec.nu
    if spec.per_parent:
        return sum(((nu + 2.0) * z ** nu / q ** (nu + 1.0)
                    for q in (x, y) if 0.0 < z < q), 0.0)
    s = x + y
    return (nu + 2.0) * z ** nu / s ** (nu + 1.0) if 0.0 < z < s else 0.0


def test_criterion_05_daughter_constants():
    rng = np.random.default_rng(7)
    families = (bc.DaughterSpec.uniform(),
                bc.DaughterSpec.power_total(0.0),
                bc.DaughterSpec.power_total(-0.5),
                bc.DaughterSpec.power_each(0.0),
                bc.DaughterSpec.power_each(1.0))
    xs = 10.0 ** rng.uniform(-3.0, 3.0, 1000)
    ys = 10.0 ** rng.uniform(-3.0, 3.0, 1000)

    mass_worst = 0.0
    for spec in families:
        got = np.asarray(bc.moment_integral(spec, 1.0, xs, ys))
        mass_worst = max(mass_worst, float(
            np.max(np.abs(got - (xs + ys)) / (xs + ys))))

    quad_worst = 0.0
    nodes = [array("d") for _ in families]     # (z, x, y, b) per evaluation
    for k in range(xs.size):
        spec, seen = families[k % len(families)], nodes[k % len(families)]
        x, y = float(xs[k]), float(ys[k])
        for m in (-0.4, -0.25, 0.0, 0.5, 1.0):
            if m <= -(spec.nu + 1.0):
                continue
            # substitute z = s**p so the integrand is regular at the origin
            p = max(1.0, math.ceil(2.0 / (m + spec.nu + 1.0)))

            def integrand(s):
                z = s ** p
                b = _b_float(spec, z, x, y)
                seen.extend((z, x, y, b))
                return p * s ** (p - 1.0) * s ** (p * m) * b

            oracle = quad(
                integrand, 0.0, (x + y) ** (1.0 / p),
                points=[min(x, y) ** (1.0 / p), max(x, y) ** (1.0 / p)],
                limit=200, epsabs=0.0, epsrel=1e-11)[0]
            rel = abs(float(bc.moment_integral(spec, m, x, y)) - oracle) / oracle
            quad_worst = max(quad_worst, rel)
    # the quadratures integrate the float form; it is eval_b at their nodes
    form_worst = 0.0
    for spec, seen in zip(families, nodes):
        z, x, y, b = np.frombuffer(seen).reshape(-1, 4).T
        form_worst = max(form_worst, float(np.max(
            np.abs(bc.eval_b(spec, z, x, y) - b) / np.where(b > 0, b, 1.0))))
    ok = quad_worst <= 1e-8 and mass_worst <= 1e-12 and form_worst <= 1e-14
    _verdict(5, "daughter closed forms", ok,
             f"quadrature mismatch {quad_worst:.3e} <= 1e-8; "
             f"mass identity {mass_worst:.3e} <= 1e-12; "
             f"float form of b {form_worst:.3e} <= 1e-14")


def test_criterion_06_apriori_bounds(linear_scenario):
    # number-moment envelope along the linear-growth trajectory
    report = bc.check_scenario(linear_scenario["kernel"],
                               linear_scenario["daughter"],
                               linear_scenario["prob"],
                               linear_scenario["ic"])
    series = bc.moment_series(linear_scenario["traj"], (0.0, 1.0))
    out = bc.check_apriori_bounds(series, report, rho=1.0, k1=2.0)
    ok1 = out["M0"]["status"] == "pass"

    # singular-kernel variant: K_{-1/4,1/2}, E above its threshold
    kernel = bc.KernelSpec.sum_product(-0.25, 0.5)
    daughter = bc.DaughterSpec.power_total(0.0)
    prob = bc.ProbSpec.constant(0.5)
    ic = bc.InitialCondition.exponential(1.0)
    report_s = bc.check_scenario(kernel, daughter, prob, ic)
    assert report_s.E_min <= 0.5
    g = bc.make_grid(1e-4, 1e3, 300)
    tables = bc.build_tables(g, kernel, g.x_max, daughter, prob)
    traj = bc.integrate(tables, bc.sample_initial(ic, g),
                        bc.StepControl(t_end=2.0,
                                       output_times=tuple(np.linspace(0, 2, 9))))
    series_s = bc.moment_series(traj, (-0.5, 0.0, 1.0))
    out_s = bc.check_apriori_bounds(series_s, report_s, rho=1.0, k1=2.0)
    ok2 = out_s["M0"]["status"] == "pass" and out_s["Mneg"]["status"] == "pass"
    _verdict(6, "a priori moment bounds", ok1 and ok2,
             f"M0 envelope {out['M0']['status']}; singular variant "
             f"M0 {out_s['M0']['status']}, M_-1/2 {out_s['Mneg']['status']}")


def test_criterion_07_uniqueness_contraction():
    g = bc.make_grid(1e-4, 1e3, 200)
    kernel = bc.KernelSpec.constant(1.0)
    daughter = bc.DaughterSpec.uniform()
    prob = bc.ProbSpec.constant(0.5)
    ic = bc.InitialCondition.exponential(1.0)
    tables = bc.build_tables(g, kernel, g.x_max, daughter, prob)
    report = bc.check_scenario(kernel, daughter, prob, ic)
    ctrl = bc.StepControl(t_end=2.0,
                          output_times=tuple(np.linspace(0, 2, 11)))
    traj_f = bc.integrate(tables, bc.sample_initial(ic, g), ctrl)
    res = bc.contraction_experiment(
        tables, ctrl, traj_f, bc.InitialCondition.exponential(1.0, mass=1.01),
        report)
    margin = float(np.max(res.distance / (res.envelope() * 1.05)))
    _verdict(7, "contraction envelope", res.ok,
             f"max distance/envelope*1.05 = {margin:.3f} <= 1, "
             f"rate {res.rate:.3f}")


def test_criterion_08_weak_form_residual(linear_scenario):
    traj = linear_scenario["traj"]
    tables = linear_scenario["tables"]
    g = linear_scenario["grid"]
    rels = {}
    for kind in (("power", 0.0), ("power", 1.0), ("capped", 1.0)):
        rels[kind] = bc.weak_form_residual(traj, tables, kind)
    worst = max(float(np.max(r["relative"])) for r in rels.values())
    m1 = traj.densities @ (g.centers * g.widths)
    agree = float(np.max(np.abs(rels[("power", 1.0)]["absolute"]
                                - np.abs(np.diff(m1)))))
    ok = worst <= 1e-4 and agree <= 1e-14
    _verdict(8, "weak-form residual", ok,
             f"max relative {worst:.3e} <= 1e-4; phi=x vs drift "
             f"agreement {agree:.3e} <= 1e-14")


def test_criterion_09_dlvp_pipeline():
    x = np.geomspace(1e-8, 50.0, 4000)
    h = np.exp(-x)
    pc = bc.build_phi(x, h, theta=0.5, max_m=8)
    out = bc.verify_dlvp(pc, x, h)
    j1 = pc.j_seq[1]
    first_ok = (j1 == 3
                and out["derivative_inequalities"]["first_piece_value"]
                == (0.5 - 1.0) * 3.0 / 2.0
                and out["derivative_inequalities"]["first_piece_value"]
                >= 2.0 * (0.5 - 1.0))
    _verdict(9, "convex-weight construction", out["ok"] and first_ok,
             f"all four checks pass; j1={j1}, first-piece "
             f"{out['derivative_inequalities']['first_piece_value']:.3f} >= -1")


def test_criterion_10_truncation_stability(linear_scenario):
    base = linear_scenario["traj"]
    g = linear_scenario["grid"]
    keep = base.times <= 2.0 + 1e-12
    times = base.times[keep]
    g2 = bc.make_grid(1e-4, 2e3, 300)
    tables2 = bc.build_tables(g2, linear_scenario["kernel"], g2.x_max,
                              linear_scenario["daughter"],
                              linear_scenario["prob"])
    traj2 = bc.integrate(tables2,
                         bc.sample_initial(linear_scenario["ic"], g2),
                         bc.StepControl(t_end=2.0,
                                        output_times=tuple(times)))
    diffs = []
    for m in (0.0, 1.0):
        a = base.densities[keep] @ (g.centers ** m * g.widths)
        b = traj2.densities @ (g2.centers ** m * g2.widths)
        diffs.append(float(np.max(np.abs(b / a - 1.0))))
    worst = max(diffs)
    _verdict(10, "truncation stability", worst <= 1e-3,
             f"doubling x_max changes M0/M1 by {worst:.3e} <= 1e-3 on [0,2]")
