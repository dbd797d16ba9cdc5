"""Daughter fragment distributions, their moment integrals, and the
coalescence-probability specification.

Three built-in fragment families, all conserving fragment mass exactly:

* ``power_total``: ``b(z; x, y) = (nu + 2) z^nu / (x + y)^(nu + 1)`` on
  ``(0, x + y)``.
* ``power_each``: each parent fragments over its own size,
  ``(nu + 2) z^nu / x^(nu + 1)`` on ``(0, x)`` plus the same term in ``y``.
* ``uniform``: ``2 / (x + y)`` on ``(0, x + y)``; identical to
  ``power_total`` with ``nu = 0``.

Moments and partial moments have closed forms, so no quadrature is needed
anywhere downstream.  The coalescence probability E(x, y) in [0, 1] decides
whether a collision merges (rate E*K) or shatters (rate (1-E)*K).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import check_table, table_lookup

__all__ = [
    "DaughterSpec",
    "ProbSpec",
    "eval_b",
    "moment_integral",
    "partial_moment_integral",
    "eval_E",
    "beta_zero",
    "beta_minus",
    "partial_beta",
    "beta_prime",
]

_FAMILIES = {"power_total", "power_each", "uniform"}


@dataclass(frozen=True)
class DaughterSpec:
    """A daughter distribution family with its shape exponent.

    ``nu > -2`` keeps the fragment mass finite; number-like moments of
    order m additionally need ``m > -(nu + 1)`` and are gated where used.
    """

    family: str
    nu: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown daughter family {self.family!r}")
        if self.family == "uniform":
            object.__setattr__(self, "nu", 0.0)
        elif not self.nu > -2.0:
            raise ConfigError(f"daughter exponent must exceed -2, got {self.nu}")

    @classmethod
    def power_total(cls, nu: float) -> "DaughterSpec":
        return cls("power_total", float(nu))

    @classmethod
    def power_each(cls, nu: float) -> "DaughterSpec":
        return cls("power_each", float(nu))

    @classmethod
    def uniform(cls) -> "DaughterSpec":
        return cls("uniform", 0.0)

    @property
    def per_parent(self) -> bool:
        """True when fragments come from each parent separately."""
        return self.family == "power_each"


def eval_b(spec: DaughterSpec, z, x, y):
    """Pointwise fragment density b(z; x, y), zero outside its support."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("parent sizes must be positive")
    nu = spec.nu
    if spec.per_parent:
        out = np.where((z > 0) & (z < x),
                       (nu + 2.0) * z ** nu / x ** (nu + 1.0), 0.0)
        return out + np.where((z > 0) & (z < y),
                              (nu + 2.0) * z ** nu / y ** (nu + 1.0), 0.0)
    s = x + y
    return np.where((z > 0) & (z < s),
                    (nu + 2.0) * z ** nu / s ** (nu + 1.0), 0.0)


def moment_integral(spec: DaughterSpec, m: float, x, y):
    """Closed form of ``int z^m b(z; x, y) dz`` over the full support.

    Finite exactly when ``m > -(nu + 1)``; ``m = 1`` recovers ``x + y``.
    """
    nu = spec.nu
    if m <= -(nu + 1.0):
        raise DomainError(
            f"moment order {m} not integrable: needs m > {-(nu + 1.0)} "
            f"for daughter exponent {nu}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = (nu + 2.0) / (nu + 1.0 + m)
    if spec.per_parent:
        return c * (x ** m + y ** m)
    return c * (x + y) ** m


def partial_moment_integral(spec: DaughterSpec, m: float, upper, x, y):
    """Closed form of ``int_0^min(upper, support) z^m b(z; x, y) dz``."""
    nu = spec.nu
    if m <= -(nu + 1.0):
        raise DomainError(
            f"moment order {m} not integrable: needs m > {-(nu + 1.0)} "
            f"for daughter exponent {nu}")
    upper = np.maximum(np.asarray(upper, dtype=float), 0.0)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = nu + 1.0 + m
    c = (nu + 2.0) / p
    if spec.per_parent:
        return c * (np.minimum(upper, x) ** p / x ** (nu + 1.0)
                    + np.minimum(upper, y) ** p / y ** (nu + 1.0))
    s = x + y
    return c * np.minimum(upper, s) ** p / s ** (nu + 1.0)


# ---------------------------------------------------------------------------
# moment constants
# ---------------------------------------------------------------------------

def beta_zero(spec: DaughterSpec) -> float:
    """Total fragment count per breakage event (independent of x, y)."""
    if spec.nu <= -1.0:
        raise DomainError(
            f"fragment count diverges for daughter exponent {spec.nu}")
    c = (spec.nu + 2.0) / (spec.nu + 1.0)
    return 2.0 * c if spec.per_parent else c


def beta_minus(spec: DaughterSpec, theta: float) -> float:
    """Constant in ``int z^-theta b <= (beta/2)(x^-theta + y^-theta)``.

    For the totals-based families the bound follows from
    ``(x + y)^-theta <= (x^-theta + y^-theta) / 2``; for ``power_each`` it
    is an equality.  Requires ``0 <= theta < nu + 1``.
    """
    nu = spec.nu
    if not 0.0 <= theta < nu + 1.0:
        raise DomainError(
            f"theta must lie in [0, {nu + 1.0}), got {theta}")
    c = (nu + 2.0) / (nu + 1.0 - theta)
    return 2.0 * c if spec.per_parent else c


def partial_beta(spec: DaughterSpec, alpha: float) -> float:
    """Constant in ``int_0^min(1, x+y) z^-alpha b <= B min(1, x+y)^-alpha``.

    Only the totals-based families admit this bound for alpha > 0; the
    per-parent family is covered at alpha = 0 only.
    """
    nu = spec.nu
    if not 0.0 <= alpha < nu + 1.0:
        raise DomainError(
            f"alpha must lie in [0, {nu + 1.0}), got {alpha}")
    if spec.per_parent and alpha > 0.0:
        raise DomainError(
            "per-parent daughter admits the partial-moment bound only at alpha = 0")
    c = (nu + 2.0) / (nu + 1.0 - alpha)
    return 2.0 * c if spec.per_parent else c


def beta_prime(spec: DaughterSpec, theta: float) -> float:
    """Constant (>= 2) in the strengthened negative-moment bounds
    ``int z^-theta b <= (beta'/2) (x + y)^-theta`` (totals form) or its
    per-parent analogue ``int_0^x z^-theta b_parent <= (beta'/2) x^-theta``.
    """
    nu = spec.nu
    if not 0.0 <= theta < nu + 1.0:
        raise DomainError(
            f"theta must lie in [0, {nu + 1.0}), got {theta}")
    return 2.0 * (nu + 2.0) / (nu + 1.0 - theta)


# ---------------------------------------------------------------------------
# coalescence probability
# ---------------------------------------------------------------------------

_PROB_FORMS = {"constant", "small_volume_floor", "table"}


@dataclass(frozen=True)
class ProbSpec:
    """Coalescence probability E(x, y) in [0, 1], read at (smaller, larger)."""

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form not in _PROB_FORMS:
            raise ConfigError(f"unknown probability form {self.form!r}")

    @classmethod
    def constant(cls, value: float) -> "ProbSpec":
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"probability must lie in [0, 1], got {value}")
        return cls("constant", {"value": float(value)})

    @classmethod
    def small_volume_floor(cls, E_small: float, E_large: float,
                           cut: float = 1.0) -> "ProbSpec":
        for v in (E_small, E_large):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"probability must lie in [0, 1], got {v}")
        if cut <= 0:
            raise ConfigError("cut must be positive")
        return cls("small_volume_floor",
                   {"E_small": float(E_small), "E_large": float(E_large),
                    "cut": float(cut)})

    @classmethod
    def table(cls, x: np.ndarray, y: np.ndarray, E: np.ndarray) -> "ProbSpec":
        """Tabulated E on a rectangular log grid, bilinear in log x/y."""
        x, y, E = check_table(x, y, E, "probability table")
        if np.any(E < 0) or np.any(E > 1):
            raise ConfigError("probability table values must lie in [0, 1]")
        return cls("table", {"x": x, "y": y, "E": E})


def eval_E(spec: ProbSpec, x, y):
    """Evaluate E(x, y); symmetric, in [0, 1].  A constant E comes back as
    a read-only zero-stride broadcast, holding no array of its shape."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.form == "constant":
        return np.broadcast_to(spec.params["value"],
                               np.broadcast_shapes(x.shape, y.shape))
    if spec.form == "small_volume_floor":
        cut = spec.params["cut"]
        return np.where((x < cut) & (y < cut),
                        spec.params["E_small"], spec.params["E_large"])
    p = spec.params
    return np.clip(table_lookup(p["x"], p["y"], p["E"], x, y), 0.0, 1.0)
