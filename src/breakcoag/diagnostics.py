"""Experiment layer: moment series, conservation and a priori bound checks,
gelation detection, the uniqueness-contraction experiment against a main
run, the time-equicontinuity estimate, and the E sweep of a main operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .daughter import ProbSpec
from .errors import ConfigError
from .grid import InitialCondition, sample_initial
from .hypotheses import HypothesisReport
from .solver import OperatorTables, StepControl, Trajectory, build_tables, \
    integrate

_SLACK = 0.05                # relative headroom of the contraction envelope

__all__ = [
    "MomentSeries",
    "ContractionResult",
    "moment_series",
    "check_mass_conservation",
    "check_apriori_bounds",
    "detect_gelation",
    "contraction_experiment",
    "equicontinuity_modulus",
    "e_sweep",
]


@dataclass(frozen=True)
class MomentSeries:
    """Moments M_m(t) of a trajectory for a list of orders m."""

    times: np.ndarray
    orders: tuple
    values: np.ndarray               # shape (len(times), len(orders))

    def order(self, m: float) -> np.ndarray:
        for k, o in enumerate(self.orders):
            if o == m:
                return self.values[:, k]
        raise KeyError(f"order {m} not recorded")


def moment_series(trajectory: Trajectory, orders) -> MomentSeries:
    g = trajectory.grid
    orders = tuple(float(m) for m in orders)
    weights = np.stack([g.centers ** m * g.widths for m in orders], axis=1)
    return MomentSeries(times=trajectory.times, orders=orders,
                        values=trajectory.densities @ weights)


def check_mass_conservation(trajectory: Trajectory, tol: float) -> dict:
    """Max relative drift ``|M_1(t) - M_1(0)| / M_1(0)`` of the first moment
    against ``tol``; zero drift when the initial mass is zero."""
    m1 = moment_series(trajectory, [1.0]).values[:, 0]
    drift = np.abs(m1 - m1[0]) / m1[0] if m1[0] else np.zeros_like(m1)
    return {"ok": bool(not m1[0] or np.max(drift) <= tol),
            "max_drift": float(np.max(drift)), "drift": drift}


def check_apriori_bounds(series: MomentSeries, report: HypothesisReport,
                         rho: float, k1: float) -> dict:
    """Exponential a priori envelopes on M_0 and M_{-2*alpha}.

    Marked not-applicable when the scenario's coalescence probability does
    not meet its small-volume floor (report check p7).
    """
    out = {}
    if report.checks["p7"].status != "pass":
        return {"M0": {"status": "n/a"}, "Mneg": {"status": "n/a"}}
    t = series.times - series.times[0]

    if report.beta_0 is not None:
        m0 = series.order(0.0)
        env = (rho + m0[0]) * np.exp(k1 * report.beta_0 * rho * t)
        ratio = float(np.max(m0 / env))
        out["M0"] = {"status": "pass" if ratio <= 1.0 + 1e-12 else "fail",
                     "max_ratio": ratio}
    else:
        out["M0"] = {"status": "n/a"}

    alpha = report.alpha
    beta = report.beta_minus_2alpha
    try:
        mneg = series.order(-2.0 * alpha)
    except KeyError:
        mneg = None
    if alpha > 0.0 and beta is not None and mneg is not None:
        env = (mneg[0] + rho) * np.exp(k1 * beta * rho * t)
        ratio = float(np.max(mneg / env))
        out["Mneg"] = {"status": "pass" if ratio <= 1.0 + 1e-12 else "fail",
                       "max_ratio": ratio}
    else:
        out["Mneg"] = {"status": "n/a"}
    return out


def detect_gelation(series: MomentSeries, threshold: float) -> float | None:
    """First time with persistent (3 consecutive outputs) relative mass
    loss above ``threshold``; None when mass is conserved.
    """
    m1 = series.order(1.0)
    if m1[0] == 0.0:
        return None
    loss = 1.0 - m1 / m1[0]
    exceeded = loss > threshold
    for k in range(exceeded.size - 2):
        if exceeded[k] and exceeded[k + 1] and exceeded[k + 2]:
            return float(series.times[k])
    return None


@dataclass(frozen=True)
class ContractionResult:
    """Weighted-L1 distance between two runs against its Gronwall envelope."""

    times: np.ndarray
    distance: np.ndarray
    rate: float                      # Gronwall exponent Lambda
    mass_bound: float                # measured moment constant in Lambda
    ok: bool

    def envelope(self) -> np.ndarray:
        t = self.times - self.times[0]
        return self.distance[0] * np.exp(np.minimum(self.rate * t, 700.0))


def contraction_experiment(tables: OperatorTables, control: StepControl,
                           traj_f: Trajectory, ic_g: InitialCondition,
                           report: HypothesisReport) -> ContractionResult:
    """Run the perturbed data ``ic_g`` through the tables of ``traj_f`` and
    compare the weighted distance ``sum max(x^-a, x) |f - g|`` to its
    exponential envelope with the declared k1 and measured moment constants.
    """
    needed = ("p1", "p2", "p40", "p500")
    unmet = [p for p in needed if report.checks[p].status != "pass"]
    if unmet or report.B_minus_alpha is None:
        raise ConfigError(
            f"contraction experiment outside uniqueness hypotheses: {unmet}")

    g = tables.grid
    traj_g = integrate(tables, sample_initial(ic_g, g), control)
    if not (np.array_equal(traj_f.grid.edges, g.edges)
            and np.array_equal(traj_f.times, traj_g.times)):
        raise ConfigError("traj_f needs the grid and output times of this run")

    alpha = report.alpha
    w = np.maximum(g.centers ** (-alpha), g.centers)
    dist = np.abs(traj_f.densities - traj_g.densities) @ (w * g.widths)

    orders = (-2.0 * alpha, 2.0)
    mf = moment_series(traj_f, orders)
    mg = moment_series(traj_g, orders)
    big_m = float(np.max(mf.values.sum(axis=1) + mg.values.sum(axis=1)))
    rate = tables.kernel.declared_k1 * (
        1.0 + 2.0 ** (2.0 + alpha) + 2.0 * report.B_minus_alpha) * big_m

    t = traj_f.times - traj_f.times[0]
    if dist[0] > 0:
        log_ok = np.log(dist[1:] / dist[0]) <= rate * t[1:] + np.log1p(_SLACK)
        ok = bool(np.all(log_ok))
    else:
        ok = bool(np.max(dist) <= 1e-12 * float(np.max(np.abs(traj_f.densities @ (w * g.widths)))))
    return ContractionResult(times=traj_f.times, distance=dist, rate=rate,
                             mass_bound=big_m, ok=ok)


def equicontinuity_modulus(trajectory: Trajectory, alpha: float,
                           k1: float, beta_minus_2alpha: float,
                           rho: float) -> dict:
    """Lipschitz estimate of ``t -> int x^-alpha f`` in time against the
    constant assembled from measured moment suprema.
    """
    if len(trajectory) < 3:
        raise ConfigError("need at least 3 output times")
    g = trajectory.grid
    w = g.centers ** (-alpha) * g.widths
    diffs = np.abs(np.diff(trajectory.densities, axis=0)) @ w
    dts = np.diff(trajectory.times)
    estimate = float(np.max(diffs / dts))

    series = moment_series(trajectory, (-2.0 * alpha, -alpha))
    big_c = float(np.max(np.maximum(series.values[:, 0], series.values[:, 1])))
    bound = k1 * (2.0 + beta_minus_2alpha) * (big_c + rho) ** 2
    return {"estimate": estimate, "bound": bound,
            "ok": bool(estimate <= bound)}


def e_sweep(tables: OperatorTables, ic: InitialCondition,
            control: StepControl, E_values) -> list[dict]:
    """Rerun the scenario of ``tables`` at each constant coalescence
    probability in ``E_values``; reports diagnostics, asserts nothing.
    """
    alpha = tables.kernel.declared_alpha
    state0 = sample_initial(ic, tables.grid)
    rows = []
    for e0 in E_values:
        traj = integrate(build_tables(
            tables.grid, tables.kernel, tables.n_trunc, tables.daughter,
            ProbSpec.constant(float(e0)), offgrid_loss=tables.offgrid_loss),
            state0, control)
        series = moment_series(traj, (0.0, -2.0 * alpha))
        mneg = series.order(-2.0 * alpha)
        rows.append({
            "E": float(e0),
            "mass_drift": check_mass_conservation(traj, np.inf)["max_drift"],
            "M0_ratio": float(series.order(0.0)[-1] / series.order(0.0)[0]),
            "Mneg_ratio": float(mneg[-1] / mneg[0]) if mneg[0] else 0.0,
        })
    return rows
