"""Collision kernel families and growth-class certification.

Each family comes with default certified constants (singularity exponent
alpha, small-volume constant k1, linear-growth constant k2, sub-quadratic
majorant exponent/coefficient, global linear constant k0).  The classifier
verifies the corresponding piecewise inequalities on a dense log-uniform
sample; it certifies declared constants rather than searching for minimal
ones.  The truncated kernel of the simulation is built in
``solver.build_tables``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "KernelSpec",
    "GrowthClass",
    "eval_kernel",
    "classify_growth",
]

_FAMILIES = {
    "smoluchowski", "sum_product", "bg_ratio", "product", "additive",
    "constant", "table",
}


@dataclass(frozen=True)
class KernelSpec:
    """Closed-form collision kernel with declared growth constants.

    declared_alpha / declared_k1 witness the small-volume bound
    K <= k1 * (xy)^-alpha (and its mixed-region variants); declared_k2 the
    linear large-volume bound; (r_exponent, r_coeff) the sub-quadratic
    majorant r(x) = r_coeff * max(1, x^r_exponent); declared_k0 the global
    bound K <= k0 (x + y).  A constant of None means the family does not
    claim that bound.
    """

    family: str
    params: dict = field(default_factory=dict)
    declared_alpha: float = 0.0
    declared_k1: float = 1.0
    declared_k2: float | None = None
    r_exponent: float | None = None
    r_coeff: float = 1.0
    declared_k0: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        if not (0.0 <= self.declared_alpha < 0.5):
            raise ConfigError(
                f"alpha must lie in [0, 1/2), got {self.declared_alpha}")
        if self.declared_k1 <= 0:
            raise ConfigError("k1 must be positive")

    # -- constructors -------------------------------------------------------

    @classmethod
    def smoluchowski(cls) -> "KernelSpec":
        return cls("smoluchowski", {}, declared_alpha=1.0 / 3.0, declared_k1=4.0,
                   declared_k2=2.0, r_exponent=1.0 / 3.0, r_coeff=4.0)

    @classmethod
    def sum_product(cls, zeta: float, eta: float) -> "KernelSpec":
        if not (zeta <= eta <= 1.0):
            raise ConfigError(f"sum_product requires zeta <= eta <= 1, got ({zeta}, {eta})")
        if zeta <= -0.5:
            raise ConfigError(f"sum_product requires zeta > -1/2, got {zeta}")
        alpha = max(-zeta, 0.0)
        k2 = 2.0 if zeta + eta <= 1.0 else None
        r_exp, r_c = (eta, 2.0) if eta < 1.0 else (None, 1.0)
        k0 = 2.0 if (zeta >= 0.0 and abs(zeta + eta - 1.0) < 1e-14) else None
        return cls("sum_product", {"zeta": float(zeta), "eta": float(eta)},
                   declared_alpha=alpha, declared_k1=2.0, declared_k2=k2,
                   r_exponent=r_exp, r_coeff=r_c, declared_k0=k0)

    @classmethod
    def bg_ratio(cls, sigma: float, eta: float) -> "KernelSpec":
        if not (0.0 <= sigma < 1.0):
            raise ConfigError(f"bg_ratio requires sigma in [0, 1), got {sigma}")
        if eta < 0.0:
            raise ConfigError(f"bg_ratio requires eta >= 0, got {eta}")
        e = max(0.0, eta - sigma / 2.0)
        coeff = 2.0 ** (2.0 * eta)
        k2 = coeff if 2.0 * eta - sigma <= 1.0 else None
        r_exp = e if e < 1.0 else None
        return cls("bg_ratio", {"sigma": float(sigma), "eta": float(eta)},
                   declared_alpha=sigma / 2.0, declared_k1=coeff,
                   declared_k2=k2, r_exponent=r_exp, r_coeff=coeff)

    @classmethod
    def product(cls) -> "KernelSpec":
        return cls("product", {}, declared_alpha=0.0, declared_k1=1.0)

    @classmethod
    def additive(cls) -> "KernelSpec":
        return cls("additive", {}, declared_alpha=0.0, declared_k1=2.0,
                   declared_k2=1.0, declared_k0=1.0)

    @classmethod
    def constant(cls, c: float = 1.0) -> "KernelSpec":
        if c <= 0:
            raise ConfigError("constant kernel needs c > 0")
        return cls("constant", {"c": float(c)}, declared_alpha=0.0,
                   declared_k1=c, declared_k2=c / 2.0,
                   r_exponent=0.0, r_coeff=max(1.0, c))

    @classmethod
    def table(cls, x: np.ndarray, y: np.ndarray, K: np.ndarray,
              declared_alpha: float = 0.0,
              declared_k1: float | None = None) -> "KernelSpec":
        """Tabulated kernel on a rectangular log grid, bilinear in log x/y."""
        x, y, K = check_table(x, y, K, "table kernel")
        if np.any(K < 0):
            raise ConfigError("table kernel values must be non-negative")
        if declared_k1 is None:
            declared_k1 = float(K.max()) if K.size else 1.0
        return cls("table", {"x": x, "y": y, "K": K},
                   declared_alpha=declared_alpha, declared_k1=declared_k1)


def eval_kernel(spec: KernelSpec, x, y):
    """Evaluate K(x, y).  Symmetric, non-negative, finite for x, y > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fam = spec.family
    if fam == "smoluchowski":
        cx, cy = np.cbrt(x), np.cbrt(y)
        return (cx + cy) * (1.0 / cx + 1.0 / cy)
    if fam == "sum_product":
        z, e = spec.params["zeta"], spec.params["eta"]
        return x ** z * y ** e + x ** e * y ** z
    if fam == "bg_ratio":
        s, e = spec.params["sigma"], spec.params["eta"]
        return (1.0 + x) ** e * (1.0 + y) ** e / (x + y) ** s
    if fam == "product":
        return x * y
    if fam == "additive":
        return x + y
    if fam == "constant":
        return np.full_like(x * y, spec.params["c"])
    if fam == "table":
        p = spec.params
        return table_lookup(p["x"], p["y"], p["K"], x, y)
    raise ConfigError(f"unknown kernel family {fam!r}")


# ---------------------------------------------------------------------------
# tables on a rectangular log grid (kernels and coalescence probabilities)
# ---------------------------------------------------------------------------

def check_table(x, y, values, what: str):
    """Validate a table over the axes x, y; return the three as float arrays.

    Axes must be positive and strictly increasing; on a shared axis the
    table must be symmetric to 1e-12 relative.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or values.shape != (x.size, y.size):
        raise ConfigError(f"{what} needs values of shape (len(x), len(y))")
    if np.any(x <= 0) or np.any(y <= 0) or np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise ConfigError("table axes must be positive and strictly increasing")
    if (x.size == y.size and np.allclose(x, y)
            and not np.allclose(values, values.T, rtol=1e-12, atol=0)):
        raise ConfigError(f"{what} must be symmetric on a shared axis")
    return x, y, values


def table_lookup(tx, ty, values, x, y):
    """Bilinear interpolation in (log x, log y) inside the tabulated box."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < tx[0]) or np.any(x > tx[-1]) or np.any(y < ty[0]) or np.any(y > ty[-1]):
        raise DomainError("table queried outside its tabulated box")
    lx, ly = np.log(tx), np.log(ty)
    ix = np.clip(np.searchsorted(lx, np.log(x)) - 1, 0, lx.size - 2)
    iy = np.clip(np.searchsorted(ly, np.log(y)) - 1, 0, ly.size - 2)
    wx = (np.log(x) - lx[ix]) / (lx[ix + 1] - lx[ix])
    wy = (np.log(y) - ly[iy]) / (ly[iy + 1] - ly[iy])
    return ((1 - wx) * (1 - wy) * values[ix, iy]
            + wx * (1 - wy) * values[ix + 1, iy]
            + (1 - wx) * wy * values[ix, iy + 1]
            + wx * wy * values[ix + 1, iy + 1])


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthClass:
    """Outcome of certifying the growth bounds on a sampled box.

    Each `satisfies_*` flag is True only when the corresponding inequality
    held at every sample within a 1e-12 relative tolerance; the residual is
    the worst sampled excess of K over its bound, relative to the bound.
    """

    satisfies_p1: bool
    alpha: float
    k1: float
    residual_p1: float
    satisfies_p2: bool
    k2: float | None
    residual_p2: float
    satisfies_p3: bool
    r_exponent: float | None
    r_coeff: float
    residual_p3: float
    satisfies_p400: bool
    k0: float | None
    residual_p400: float


_RTOL = 1e-12


def _log_uniform_samples(box, samples: int):
    (x_lo, x_hi), (y_lo, y_hi) = box
    if x_lo <= 0 or y_lo <= 0 or x_hi <= x_lo or y_hi <= y_lo:
        raise ConfigError("sample box must be a rectangle inside (0, inf)^2")
    rng = np.random.default_rng(1234)  # fixed seed: classification is deterministic
    x = np.exp(rng.uniform(math.log(x_lo), math.log(x_hi), samples))
    y = np.exp(rng.uniform(math.log(y_lo), math.log(y_hi), samples))
    # make sure both sides of the unit split are represented
    extra = np.array([0.5 * x_lo + 0.5, 0.99, 1.01, 0.5 * (1 + x_hi)])
    extra = extra[(extra > x_lo) & (extra < x_hi)]
    if extra.size:
        x = np.concatenate([x, extra, np.full(extra.size, min(x_hi * 0.9, 2.0))])
        y = np.concatenate([y, np.full(extra.size, min(y_hi * 0.9, 2.0)), extra])
    # exp(log) can round past the box, and the extra points can lie outside
    # a box that does not contain (1, 2): a table kernel ends at its box
    return np.clip(x, x_lo, x_hi), np.clip(y, y_lo, y_hi)


def _worst_excess(K, bound, mask):
    if not np.any(mask):
        return 0.0
    b = bound[mask]
    return float(np.max((K[mask] - b) / np.where(b > 0, b, 1.0)))


def classify_growth(spec: KernelSpec,
                    sample_box=((1e-4, 1e4), (1e-4, 1e4)),
                    samples: int = 20000) -> GrowthClass:
    """Certify the declared growth constants on a log-uniform sample; a
    table kernel is sampled only where the box meets its tabulated box."""
    if samples < 10_000:
        raise ConfigError("growth classification needs at least 10^4 samples")
    if spec.family == "table":
        sample_box = tuple(
            (max(lo, axis[0]), min(hi, axis[-1])) for (lo, hi), axis
            in zip(sample_box, (spec.params["x"], spec.params["y"])))
    x, y = _log_uniform_samples(sample_box, samples)
    K = eval_kernel(spec, x, y)

    a, k1 = spec.declared_alpha, spec.declared_k1
    small_x, small_y = x < 1, y < 1
    bound1 = np.empty_like(K)
    bound1[small_x & small_y] = k1 * (x * y)[small_x & small_y] ** (-a)
    m = small_x & ~small_y
    bound1[m] = k1 * x[m] ** (-a) * y[m]
    m = ~small_x & small_y
    bound1[m] = k1 * x[m] * y[m] ** (-a)
    m = ~small_x & ~small_y
    bound1[m] = k1 * (x * y)[m]
    res1 = _worst_excess(K, bound1, np.ones_like(K, dtype=bool))
    ok1 = res1 <= _RTOL

    if spec.declared_k2 is not None:
        m = ~small_x & ~small_y
        res2 = _worst_excess(K, spec.declared_k2 * (x + y), m)
        ok2 = res2 <= _RTOL
    else:
        res2, ok2 = math.inf, False

    if spec.r_exponent is not None:
        r_of = lambda v: spec.r_coeff * np.maximum(1.0, v ** spec.r_exponent)
        bound3 = np.empty_like(K)
        m = small_x & small_y
        bound3[m] = k1 * (x * y)[m] ** (-a)  # small-volume region covered by the k1 bound
        m = small_x & ~small_y
        bound3[m] = x[m] ** (-a) * r_of(y[m])
        m = ~small_x & small_y
        bound3[m] = r_of(x[m]) * y[m] ** (-a)
        m = ~small_x & ~small_y
        bound3[m] = r_of(x[m]) * r_of(y[m])
        res3 = _worst_excess(K, bound3, ~(small_x & small_y))
        # sub-quadratic growth additionally requires r(x)/x -> 0
        ok3 = res3 <= _RTOL and spec.r_exponent < 1.0
    else:
        res3, ok3 = math.inf, False

    if spec.declared_k0 is not None:
        res4 = _worst_excess(K, spec.declared_k0 * (x + y),
                             np.ones_like(K, dtype=bool))
        ok4 = res4 <= _RTOL
    else:
        res4, ok4 = math.inf, False

    return GrowthClass(
        satisfies_p1=ok1, alpha=a, k1=k1, residual_p1=res1,
        satisfies_p2=ok2, k2=spec.declared_k2, residual_p2=res2,
        satisfies_p3=ok3, r_exponent=spec.r_exponent, r_coeff=spec.r_coeff,
        residual_p3=res3,
        satisfies_p400=ok4, k0=spec.declared_k0, residual_p400=res4,
    )
