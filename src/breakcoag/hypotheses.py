"""Scenario certification: constants, thresholds, and which structural
results (existence / mass-conserving existence / uniqueness) apply.

Every inequality is verified on a log mesh of sample pairs (x, y): the
kernel growth bounds on 142 x 142 points of (1e-4, 1e4)^2 (a table
kernel only inside its tabulated box), the daughter and E conditions on
60 x 60 points of (1e-3, 1e3)^2, with the closed-form moment integrals of
the daughter families (``p5`` per trial set, reporting the set closest
to its bound).  A bound holds when its worst relative excess is at most
1e-12; statuses are ``pass`` / ``fail`` / ``n/a`` with that excess as
the residual and the sample point where it is reached as the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .daughter import (DaughterSpec, ProbSpec, beta_minus, beta_prime,
                       beta_zero, eval_E, moment_integral, partial_beta,
                       partial_moment_integral)
from .errors import ConfigError, DomainError
from .grid import InitialCondition
from .kernels import KernelSpec, eval_kernel

__all__ = [
    "CheckResult",
    "HypothesisReport",
    "coalescence_threshold",
    "threshold_singular",
    "threshold_bg",
    "classify_growth",
    "choose_p",
    "omega_bound",
    "verify_uniform_integrability",
    "check_scenario",
]

_RTOL = 1e-12
# the daughter and E checks' sample box and points per axis
_CHECK_BOX = ((1e-3, 1e3), (1e-3, 1e3))
_CHECK_N = 60

CHECK_IDS = ("p1", "p2", "p3", "p40", "p4", "p5", "p6", "p7", "p500",
             "paa4", "p400")

RESULT_IDS = ("Thm2.1a", "Thm2.1b", "Thm2.1c", "Thm2.2", "Thm2.3",
              "Thm2.6", "Uniqueness")


# ---------------------------------------------------------------------------
# coalescence-probability thresholds
# ---------------------------------------------------------------------------

def coalescence_threshold(beta: float, alpha: float) -> float:
    """Required lower bound on E over (0,1)^2:
    ``max(0, (beta - 2^(1+2*alpha)) / (beta - 1))``.
    """
    if beta < 1.0:
        raise DomainError(f"beta must be >= 1, got {beta}")
    if not 0.0 <= alpha < 0.5:
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha}")
    num = beta - 2.0 ** (1.0 + 2.0 * alpha)
    if num <= 0.0:
        return 0.0
    return num / (beta - 1.0)


def threshold_singular(nu: float, zeta: float) -> float:
    """Threshold for the singular sum-product kernel (alpha = -zeta) with
    the totals-based power daughter:
    ``max(0, (nu + 2 - (nu + 1 + 2 zeta) 2^(1 - 2 zeta)) / (1 - 2 zeta))``.

    Agrees exactly with ``coalescence_threshold((nu+2)/(nu+1-2a), a)``,
    a = -zeta.
    """
    if not -0.5 < zeta < 0.0:
        raise DomainError(f"zeta must lie in (-1/2, 0), got {zeta}")
    if not nu > -2.0 * zeta - 1.0:
        raise DomainError(
            f"nu must exceed 2*alpha - 1 = {-2.0 * zeta - 1.0}, got {nu}")
    return max(0.0, (nu + 2.0 - (nu + 1.0 + 2.0 * zeta) * 2.0 ** (1.0 - 2.0 * zeta))
               / (1.0 - 2.0 * zeta))


def threshold_bg(nu: float, sigma: float) -> float:
    """Threshold for the ratio kernel (alpha = sigma/2) with the
    totals-based power daughter:
    ``max(0, (nu + 2 - (nu + 1 - sigma) 2^(1 + sigma)) / (1 + sigma))``.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"sigma must lie in (0, 1), got {sigma}")
    if not nu > sigma - 1.0:
        raise DomainError(f"nu must exceed sigma - 1 = {sigma - 1.0}, got {nu}")
    return max(0.0, (nu + 2.0 - (nu + 1.0 - sigma) * 2.0 ** (1.0 + sigma))
               / (1.0 + sigma))


# ---------------------------------------------------------------------------
# uniform integrability
# ---------------------------------------------------------------------------

def choose_p(daughter: DaughterSpec, alpha: float) -> int:
    """Integrability exponent p (theta = 1/p): smallest admissible
    integer plus 2, so the choice is reproducible and safely interior.
    """
    nu = daughter.nu
    if alpha > 0.0:
        if not nu > 2.0 * alpha - 1.0:
            raise DomainError(
                f"daughter exponent must exceed 2*alpha - 1, got {nu}")
        lower = max(1.0 / alpha, 1.0 / (nu + 1.0 - alpha))
    else:
        if not nu > -1.0:
            raise DomainError(f"daughter exponent must exceed -1, got {nu}")
        lower = 1.0 / (nu + 1.0)
    smallest = math.floor(lower) + 1
    return max(smallest, 2) + 2


def omega_bound(daughter: DaughterSpec, alpha: float, xi) -> np.ndarray:
    """Modulus ``omega(xi) = C_p xi^(1/p)`` dominating the uniform
    integrability functional for the built-in families.
    """
    nu = daughter.nu
    p = choose_p(daughter, alpha)
    cp = (nu + 2.0) * ((p - 1.0) / (p * (nu + 1.0 - alpha) - 1.0)) ** ((p - 1.0) / p)
    return cp * np.asarray(xi, dtype=float) ** (1.0 / p)


def _sample_pairs(box, n: int):
    """The n x n log mesh on box = ((x_lo, x_hi), (y_lo, y_hi)), flattened."""
    (x_lo, x_hi), (y_lo, y_hi) = box
    if not (0 < x_lo < x_hi and 0 < y_lo < y_hi):
        raise ConfigError("sample box must be a rectangle inside (0, inf)^2")
    x, y = np.meshgrid(np.geomspace(x_lo, x_hi, n),
                       np.geomspace(y_lo, y_hi, n), indexing="ij")
    return x.ravel(), y.ravel()


def _set_integral(daughter: DaughterSpec, order: float, intervals, x, y):
    total = 0.0 * (x + y)
    for lo, hi in intervals:
        total = total + (partial_moment_integral(daughter, order, hi, x, y)
                         - partial_moment_integral(daughter, order, lo, x, y))
    return total


def verify_uniform_integrability(daughter: DaughterSpec, alpha: float,
                                 theta: float,
                                 trial_sets=None) -> list[dict]:
    """Empirical check of the uniform-integrability inequality.

    For each trial set A (list of disjoint (lo, hi) intervals) the
    functional ``int_A z^-alpha b / ((x+y)^-alpha (x^-theta + y^-theta))``
    is maximized over sampled (x, y); each row has |A|, the sampled max,
    its witness, the modulus bound and whether the bound held (rtol 1e-12).
    """
    if trial_sets is None:
        trial_sets = _default_trial_sets()
    x, y = _sample_pairs(_CHECK_BOX, _CHECK_N)
    rows = []
    for intervals in trial_sets:
        intervals = [(float(lo), float(hi)) for lo, hi in intervals]
        measure = sum(hi - lo for lo, hi in intervals)
        if measure == 0.0:
            rows.append({"measure": 0.0, "max_ratio": 0.0, "bound": 0.0,
                         "ok": True, "witness": None})
            continue
        lhs = _set_integral(daughter, -alpha, intervals, x, y)
        denom = (x + y) ** (-alpha) * (x ** (-theta) + y ** (-theta))
        ratio = lhs / denom
        i = int(np.argmax(ratio))
        bound = float(omega_bound(daughter, alpha, measure))
        rows.append({
            "measure": measure,
            "max_ratio": float(ratio[i]),
            "bound": bound,
            "ok": bool(ratio[i] <= bound * (1.0 + _RTOL)),
            "witness": (float(x[i]), float(y[i])),
        })
    return rows


def _default_trial_sets():
    sets = []
    for delta in np.geomspace(1e-6, 1.0, 7):
        sets.append([(0.0, delta)])
    for a in (0.01, 0.1, 1.0, 5.0):
        sets.append([(a, a + 0.05)])
    sets.append([(0.0, 0.02), (0.1, 0.12), (1.0, 1.03), (8.0, 8.05)])
    return sets


# ---------------------------------------------------------------------------
# scenario report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of one hypothesis check."""

    status: str                      # "pass" | "fail" | "n/a"
    residual: float = 0.0            # worst sampled excess over the bound
    witness: tuple | None = None     # sample point achieving the residual

    def to_dict(self) -> dict:
        return {"status": self.status, "residual": self.residual,
                "witness": self.witness}


_NA = CheckResult("n/a", math.inf)


def _bound_check(values, bounds, x, y) -> CheckResult:
    """values <= bounds at every sample (x, y), to the relative tolerance."""
    if values.size == 0:
        return CheckResult("pass")
    excess = (values - bounds) / np.where(bounds > 0, bounds, 1.0)
    i = int(np.argmax(excess))
    res = float(excess[i])
    status = "pass" if res <= _RTOL else "fail"
    return CheckResult(status, max(res, 0.0), (float(x[i]), float(y[i])))


def classify_growth(spec: KernelSpec,
                    sample_box=((1e-4, 1e4), (1e-4, 1e4)),
                    samples: int = 20000) -> dict[str, CheckResult]:
    """Certify the kernel's declared growth constants on the log mesh of
    ceil(sqrt(samples))^2 points over sample_box, for a table kernel over
    its part inside the tabulated box:

    - ``p1``: K <= k1 phi(x) phi(y), phi(v) = v^-alpha below 1, v above;
    - ``p2``: K <= k2 (x + y) where x, y >= 1;
    - ``p3``: K <= psi(x) psi(y) where not both x, y < 1, psi(v) =
      v^-alpha below 1, r(v) above, and r(v)/v -> 0;
    - ``p400``: K <= k0 (x + y).

    A constant the spec does not declare gives ``n/a``.
    """
    if samples < 10_000:
        raise ConfigError("growth classification needs at least 10^4 samples")
    if spec.family == "table":
        sample_box = tuple(
            (max(lo, axis[0]), min(hi, axis[-1])) for (lo, hi), axis
            in zip(sample_box, (spec.params["x"], spec.params["y"])))
    x, y = _sample_pairs(sample_box, math.ceil(math.sqrt(samples)))
    K = eval_kernel(spec, x, y)
    a = spec.declared_alpha

    def split(v, above):
        return np.where(v < 1.0, v ** -a, above)

    checks = {"p1": _bound_check(
        K, spec.declared_k1 * split(x, x) * split(y, y), x, y)}

    m = (x >= 1.0) & (y >= 1.0)
    checks["p2"] = (_NA if spec.declared_k2 is None else _bound_check(
        K[m], spec.declared_k2 * (x + y)[m], x[m], y[m]))

    if spec.r_exponent is None:
        checks["p3"] = _NA
    else:
        r = lambda v: spec.r_coeff * np.maximum(1.0, v ** spec.r_exponent)
        m = (x >= 1.0) | (y >= 1.0)
        p3 = _bound_check(K[m], (split(x, r(x)) * split(y, r(y)))[m],
                          x[m], y[m])
        # sub-quadratic growth additionally requires r(x)/x -> 0
        checks["p3"] = (p3 if spec.r_exponent < 1.0
                        else replace(p3, status="fail"))

    checks["p400"] = (_NA if spec.declared_k0 is None else _bound_check(
        K, spec.declared_k0 * (x + y), x, y))
    return checks


@dataclass(frozen=True)
class HypothesisReport:
    """Constants and certification for one scenario."""

    alpha: float
    theta: float
    beta_0: float | None
    beta_minus_theta: float | None
    beta_minus_2alpha: float | None
    B_minus_alpha: float | None
    E_min: float
    checks: dict = field(default_factory=dict)
    applicable_results: tuple = ()

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "theta": self.theta,
            "beta_0": self.beta_0,
            "beta_minus_theta": self.beta_minus_theta,
            "beta_minus_2alpha": self.beta_minus_2alpha,
            "B_minus_alpha": self.B_minus_alpha,
            "E_min": self.E_min,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "applicable_results": list(self.applicable_results),
        }


def _finite_negative_moment(ic: InitialCondition, order: float) -> bool:
    """Whether the continuous initial profile has finite M_{-order}."""
    if order <= 0.0:
        return True
    if ic.family == "exponential":
        return order < 1.0
    if ic.family == "power_cutoff":
        return order + ic.params["p"] < 1.0
    return True  # point-mass and tabulated profiles vanish near zero


def check_scenario(kernel: KernelSpec, daughter: DaughterSpec,
                   prob: ProbSpec, ic: InitialCondition) -> HypothesisReport:
    """Certify every structural hypothesis and list the applicable results."""
    alpha = kernel.declared_alpha
    x, y = _sample_pairs(_CHECK_BOX, _CHECK_N)
    checks = classify_growth(kernel)

    # daughter symmetry / support / exact fragment mass
    mass = moment_integral(daughter, 1.0, x, y)
    mass_res = float(np.max(np.abs(mass - (x + y)) / (x + y)))
    sym_res = float(np.max(np.abs(moment_integral(daughter, 0.5, x, y)
                                  - moment_integral(daughter, 0.5, y, x))))
    checks["p40"] = CheckResult(
        "pass" if mass_res <= _RTOL and sym_res == 0.0 else "fail", mass_res)

    # negative-moment structure; theta from the reproducible p choice
    try:
        p = choose_p(daughter, alpha)
        theta = 1.0 / p
    except DomainError:
        p, theta = None, math.nan

    beta0 = beta_minus_theta = beta_2a = None
    if daughter.nu > -1.0:
        beta0 = beta_zero(daughter)
    if p is not None:
        beta_minus_theta = beta_minus(daughter, theta)

    if alpha == 0.0 and p is not None:
        c0 = _bound_check(moment_integral(daughter, 0.0, x, y), beta0, x, y)
        mt = moment_integral(daughter, -theta, x, y)
        ct = _bound_check(mt, 0.5 * beta_minus_theta
                          * (x ** (-theta) + y ** (-theta)), x, y)
        ok = c0.status == "pass" and ct.status == "pass"
        checks["p4"] = CheckResult("pass" if ok else "fail",
                                   max(c0.residual, ct.residual), ct.witness)
        checks["p6"] = _NA
    elif alpha > 0.0 and p is not None and daughter.nu > 2.0 * alpha - 1.0:
        checks["p4"] = _NA
        # sampling exposes that the per-parent family violates this bound
        beta_2a = beta_minus(daughter, 2.0 * alpha)
        m2a = moment_integral(daughter, -2.0 * alpha, x, y)
        checks["p6"] = _bound_check(m2a, beta_2a * (x + y) ** (-2.0 * alpha), x, y)
    else:
        checks["p4"] = checks["p6"] = _NA
    if alpha == 0.0:
        beta_2a = beta0

    # uniform integrability
    if p is not None:
        rows = verify_uniform_integrability(daughter, alpha, theta,
                                            _default_trial_sets())
        worst = max((r for r in rows if r["bound"] > 0),
                    key=lambda r: r["max_ratio"] / r["bound"])
        ok = all(r["ok"] for r in rows)
        checks["p5"] = CheckResult("pass" if ok else "fail", max(
            worst["max_ratio"] / worst["bound"] - 1.0, 0.0), worst["witness"])
    else:
        checks["p5"] = _NA

    # strengthened negative-moment bound (exact for the built-in families)
    if p is not None:
        bp = beta_prime(daughter, theta)
        mt = moment_integral(daughter, -theta, x, y)
        if daughter.per_parent:
            bound = 0.5 * bp * (x ** (-theta) + y ** (-theta))
        else:
            bound = 0.5 * bp * (x + y) ** (-theta)
        paa4 = _bound_check(mt, bound, x, y)
        checks["paa4"] = paa4 if bp >= 2.0 else replace(paa4, status="fail")
    else:
        checks["paa4"] = _NA

    # partial-moment bound for uniqueness
    B_alpha = None
    try:
        B_alpha = partial_beta(daughter, alpha)
        upper = np.minimum(1.0, x + y)
        pm = partial_moment_integral(daughter, -alpha, upper, x, y)
        p500 = _bound_check(pm, B_alpha * upper ** (-alpha), x, y)
        checks["p500"] = p500 if B_alpha > 1.0 else replace(p500, status="fail")
    except DomainError:
        checks["p500"] = _NA

    # coalescence probability: range, symmetry, and threshold on (0,1)^2
    beta_ref = beta_2a if alpha > 0.0 else beta0
    E_min = coalescence_threshold(beta_ref, alpha) if beta_ref is not None else math.nan
    Ev = eval_E(prob, x, y)
    range_ok = bool(np.all((Ev >= 0.0) & (Ev <= 1.0)))
    sym_ok = bool(np.max(np.abs(Ev - eval_E(prob, y, x))) == 0.0)
    small = (x < 1.0) & (y < 1.0)
    if beta_ref is None or math.isnan(E_min):
        checks["p7"] = _NA
        floor_ok = False
    else:
        deficit = float(np.max(E_min - Ev[small])) if np.any(small) else 0.0
        floor_ok = deficit <= _RTOL
        checks["p7"] = CheckResult(
            "pass" if (range_ok and sym_ok and floor_ok) else "fail",
            max(deficit, 0.0))

    def ok(*ids):
        return all(checks[i].status == "pass" for i in ids)

    in_neg_2a = _finite_negative_moment(ic, 2.0 * alpha)
    in_neg_theta = _finite_negative_moment(ic, theta) if p is not None else False

    applicable = []
    if alpha > 0.0 and ok("p1", "p40", "p5", "p6", "p7") and in_neg_2a:
        if ok("p3"):
            applicable.append("Thm2.1a")
        if ok("p2"):
            applicable.append("Thm2.1b")
            applicable.append("Thm2.1c")
    if alpha == 0.0 and ok("p1", "p40", "p5", "p4", "p7") and (ok("p2") or ok("p3")):
        if in_neg_theta:
            applicable.append("Thm2.2")
        if ok("paa4"):
            applicable.append("Thm2.3")
    if ok("p400", "p40", "p5", "p4") and range_ok and sym_ok and in_neg_theta:
        applicable.append("Thm2.6")
    if (ok("p1", "p2", "p40", "p500") and range_ok and sym_ok
            and in_neg_2a):
        applicable.append("Uniqueness")

    return HypothesisReport(
        alpha=alpha, theta=theta, beta_0=beta0,
        beta_minus_theta=beta_minus_theta, beta_minus_2alpha=beta_2a,
        B_minus_alpha=B_alpha, E_min=E_min, checks=checks,
        applicable_results=tuple(applicable),
    )
