"""Collision kernel families and tables on a rectangular log grid.

Each family comes with declared growth constants (singularity exponent
alpha, small-volume constant k1, linear-growth constant k2, sub-quadratic
majorant exponent/coefficient, global linear constant k0).
``hypotheses.classify_growth`` certifies them on a log mesh; it checks the
declared constants rather than searching for minimal ones.  The truncated
kernel of the simulation is built in ``solver.build_tables``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "KernelSpec",
    "eval_kernel",
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
        if 2.0 * eta - sigma > 2.0:
            raise ConfigError(
                f"bg_ratio requires 2 eta - sigma <= 2, got ({sigma}, {eta})")
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

    Axes and values must be finite, axes positive and strictly increasing;
    on a shared axis the table must be symmetric to 1e-12 relative.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or values.shape != (x.size, y.size):
        raise ConfigError(f"{what} needs values of shape (len(x), len(y))")
    if not all(np.isfinite(a).all() for a in (x, y, values)):
        raise ConfigError(f"{what} needs finite axes and values")
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
