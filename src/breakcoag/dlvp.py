"""Refined de la Vallee Poussin construction: from an integrable profile h
on (0, infinity), build a convex non-increasing weight Phi that blows up at
zero yet stays integrable against h, and verify its structural properties.

The construction picks integers 1 = j_0 < j_1 < ... with
``j_{m+1} >= max(2 j_m, e^{m+1})`` and ``int_0^{1/j_m} h <= 1/m^2``, defines
a piecewise-linear concave derivative ``Phi_0'`` with breakpoints j_m,
integrates it exactly (piecewise quadratic) to get the convex ``Phi_0``,
and sets ``Phi(x) = x Phi_0(1/x) + 2/theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DomainError

__all__ = [
    "PhiConstruction",
    "build_j_sequence",
    "build_phi",
    "eval_phi0",
    "eval_phi",
    "verify_dlvp",
]


def _tail_model(x: np.ndarray, h: np.ndarray):
    """Fit ``h ~ C x^q`` to the first table points for below-table tails."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.ndim != 1 or x.size < 4 or h.shape != x.shape:
        raise DataError("profile needs matching 1-d arrays with >= 4 points")
    if np.any(x <= 0) or np.any(np.diff(x) <= 0) or np.any(h < 0):
        raise DataError("profile needs increasing positive x and h >= 0")
    head = slice(0, min(5, x.size))
    hx, hh = x[head], h[head]
    pos = hh > 0
    if pos.sum() >= 2:
        q, logc = np.polyfit(np.log(hx[pos]), np.log(hh[pos]), 1)
        coeff = math.exp(logc)
    else:
        q, coeff = 0.0, 0.0
    if q <= -1.0:
        raise DataError(
            f"profile not integrable near zero: fitted exponent {q:.3f} <= -1")
    return float(coeff), float(q)


def _tail_integral(x: np.ndarray, h: np.ndarray, upper: float) -> float:
    """``int_0^upper h`` using the fitted power-law below the table."""
    coeff, q = _tail_model(x, h)
    below = min(upper, float(x[0]))
    total = coeff * below ** (q + 1.0) / (q + 1.0)
    if upper > x[0]:
        hi = min(upper, float(x[-1]))
        grid = np.linspace(float(x[0]), hi, 2049)
        total += float(np.trapezoid(np.interp(grid, x, h), grid))
    return total


def build_j_sequence(x: np.ndarray, h: np.ndarray, max_m: int = 25) -> np.ndarray:
    """Minimal integers meeting the growth and small-volume tail rules."""
    if max_m < 2:
        raise ConfigError("max_m must be at least 2")
    js = [1]
    for m in range(max_m):
        j = max(2 * js[-1], math.ceil(math.exp(m + 1)))
        target = 1.0 / (m + 1) ** 2
        while _tail_integral(x, h, 1.0 / j) > target:
            j *= 2
            if j > 10 ** 18:
                raise DataError("tail integral does not decay; profile "
                                "not integrable near zero at this resolution")
        # back off to the minimal admissible integer by bisection
        lo = max(2 * js[-1], math.ceil(math.exp(m + 1)))
        hi = j
        while lo < hi:
            mid = (lo + hi) // 2
            if _tail_integral(x, h, 1.0 / mid) <= target:
                hi = mid
            else:
                lo = mid + 1
        js.append(lo)
    return np.asarray(js, dtype=np.int64)


@dataclass(frozen=True)
class PhiConstruction:
    """The weight Phi and its building blocks."""

    j_seq: np.ndarray
    theta: float
    phi0_at_breaks: np.ndarray       # exact Phi_0(j_m)

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        j = self.j_seq
        if j[0] != 1 or np.any(np.diff(j) <= 0):
            raise ConfigError("breakpoints must start at 1 and increase")
        for m in range(1, j.size - 1):
            if j[m + 1] < max(2 * j[m], math.exp(m + 1)):
                raise ConfigError(f"breakpoint growth rule violated at m={m}")


def _phi0_breaks(j: np.ndarray) -> np.ndarray:
    """Exact Phi_0 at the breakpoints by accumulating the quadratic pieces."""
    vals = np.zeros(j.size)
    base = 1.0 / (j[1] - j[0])
    vals[1] = 0.5 * j[1] ** 2 * base
    for m in range(1, j.size - 1):
        gap = float(j[m + 1] - j[m])
        vals[m + 1] = vals[m] + 0.5 * gap + (m + base) * gap
    return vals


def build_phi(x: np.ndarray, h: np.ndarray, theta: float,
              max_m: int = 25) -> PhiConstruction:
    j = build_j_sequence(x, h, max_m)
    return PhiConstruction(j_seq=j, theta=theta,
                           phi0_at_breaks=_phi0_breaks(j))


def eval_phi0(pc: PhiConstruction, xi):
    """(Phi_0, Phi_0') by the exact piecewise formulas, up to j_seq[-1]."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise DomainError("Phi_0 is defined for xi >= 0")
    j = pc.j_seq.astype(float)
    if np.any(xi > j[-1]):
        raise DomainError("xi beyond the last breakpoint")
    base = 1.0 / (j[1] - j[0])
    m = np.clip(np.searchsorted(j, xi, side="right") - 1, 0, j.size - 2)
    first = m == 0
    gap = j[m + 1] - j[m]
    off = xi - j[m]
    dphi = np.where(first, xi * base, off / gap + m + base)
    phi0 = np.where(first, 0.5 * xi ** 2 * base,
                    pc.phi0_at_breaks[m] + 0.5 * off ** 2 / gap
                    + (m + base) * off)
    return phi0, dphi


def eval_phi(pc: PhiConstruction, x):
    """``Phi(x) = x Phi_0(1/x) + 2/theta`` for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("Phi is defined for x > 0")
    phi0, _ = eval_phi0(pc, 1.0 / x)
    return x * phi0 + 2.0 / pc.theta


def verify_dlvp(pc: PhiConstruction, x: np.ndarray, h: np.ndarray,
                samples: int = 1000) -> dict:
    """The four structural checks of the construction.

    (i) ``int Phi h`` is finite and stable under coarsening the tabulation;
    (ii) Phi is non-increasing and convex; (iii) ``x^theta Phi`` is
    non-decreasing, with limit 0 at x -> 0 (read at 1/j_last); (iv) the
    two inequalities on Phi_0 behind Phi's convexity and monotonicity.
    """
    theta = pc.theta
    j = pc.j_seq.astype(float)
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    x_lo = max(float(x[0]), 1.0 / j[-1])
    if 1.0 / x_lo > j[-1]:             # 1 / (1 / j) can round above j
        x_lo = float(np.nextafter(x_lo, np.inf))
    x_hi = float(x[-1])

    def integral(xs, hs):
        grid = np.geomspace(x_lo, x_hi, 4097)
        vals = eval_phi(pc, grid) * np.interp(grid, xs, hs)
        return float(np.trapezoid(vals, grid))

    full = integral(x, h)
    coarse = integral(x[::2], h[::2])
    check1 = {"value": full, "coarse": coarse,
              "rel_change": abs(full - coarse) / abs(full) if full else 0.0}
    check1["ok"] = bool(math.isfinite(full)
                        and check1["rel_change"] <= 0.01)

    xs = np.geomspace(x_lo, x_hi, samples)
    phi = eval_phi(pc, xs)
    slopes = np.diff(phi) / np.diff(xs)
    second = np.diff(slopes)
    check2 = {"ok": bool(np.all(slopes <= 1e-12)
                         and np.all(second >= -1e-12 * np.max(np.abs(slopes)))),
              "max_slope": float(np.max(slopes))}

    weighted = xs ** theta * phi
    wslopes = np.diff(weighted) / np.diff(xs)
    # at the lower end of Phi's range, Phi(1/j) = Phi_0(j) / j + 2/theta
    smallest = (pc.phi0_at_breaks[-1] / j[-1] + 2.0 / theta) / j[-1] ** theta
    shrink = smallest <= 0.05 * weighted[-1]
    check3 = {"ok": bool(np.all(wslopes >= -1e-12 * np.max(weighted)) and shrink),
              "smallest": smallest, "largest": float(weighted[-1])}

    # interior samples of every resolvable piece
    pts = []
    for m in range(j.size - 1):
        pts.append(np.linspace(j[m], j[m + 1], 9)[1:-1])
    pts = np.concatenate([np.linspace(0.0, j[1], 9)[1:-1]] + pts)
    phi0, dphi0 = eval_phi0(pc, pts)
    mseg = np.clip(np.searchsorted(j, pts, side="right") - 1, 0, j.size - 2)
    ddphi0 = 1.0 / (j[mseg + 1] - j[mseg])
    lhs_a = theta * dphi0 - pts * ddphi0
    lhs_b = (1.0 + theta) * phi0 - pts * dphi0
    bound = 2.0 * (theta - 1.0)
    check4 = {
        "ok": bool(np.all(lhs_a >= bound - 1e-12)
                   and np.all(lhs_b >= bound * pts - 1e-12)),
        "min_a": float(np.min(lhs_a)),
        "min_b": float(np.min(lhs_b - bound * pts)),
        "first_piece_value": (theta - 1.0) * j[1] / (j[1] - 1.0),
        "first_piece_bound": bound,
    }

    return {"integral": check1, "convex_decreasing": check2,
            "weighted_monotone": check3, "derivative_inequalities": check4,
            "ok": bool(check1["ok"] and check2["ok"] and check3["ok"]
                       and check4["ok"])}
