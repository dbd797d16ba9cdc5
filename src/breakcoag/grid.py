"""Geometric volume grid, discrete states, initial conditions, and moments.

The computational domain is a geometric mesh on (x_min, x_max).  A State
holds cell-averaged number densities on such a mesh; all moments are
evaluated with the geometric cell midpoint as the representative volume,
which is the natural choice for densities spanning many decades.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Grid",
    "State",
    "InitialCondition",
    "make_grid",
    "sample_initial",
    "moment",
    "read_tabulated_csv",
]


@dataclass(frozen=True)
class Grid:
    """Geometric volume mesh.

    Attributes
    ----------
    x_min, x_max : float
        Domain endpoints, 0 < x_min < x_max.  x_max doubles as the default
        truncation level for the collision kernel.
    cell_count : int
        Number of cells (>= 2).
    edges : ndarray, shape (cell_count + 1,)
        Strictly increasing cell edges with constant geometric ratio.
    centers : ndarray, shape (cell_count,)
        Geometric midpoints sqrt(e_i * e_{i+1}).
    widths : ndarray, shape (cell_count,)
        Cell widths e_{i+1} - e_i.
    """

    x_min: float
    x_max: float
    cell_count: int
    edges: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        self.edges.setflags(write=False)
        self.centers.setflags(write=False)
        self.widths.setflags(write=False)

    @property
    def ratio(self) -> float:
        """Constant edge ratio e_{i+1} / e_i."""
        return (self.x_max / self.x_min) ** (1.0 / self.cell_count)


@dataclass(frozen=True)
class State:
    """Cell-averaged number density on a grid at one instant."""

    grid: Grid
    density: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.density.setflags(write=False)
        if self.density.shape != (self.grid.cell_count,):
            raise ConfigError("density length does not match the grid")
        if not np.all(np.isfinite(self.density)):
            raise ConfigError("density must be finite")
        if np.any(self.density < 0):
            raise ConfigError("density must be non-negative")
        if self.time < 0:
            raise ConfigError("time must be non-negative")

    def with_density(self, density: np.ndarray, time: float | None = None) -> "State":
        return State(self.grid, np.asarray(density, dtype=float).copy(),
                     self.time if time is None else time)


def make_grid(x_min: float, x_max: float, cells: int) -> Grid:
    """Build a geometric mesh with `cells` cells on (x_min, x_max).

    Raises
    ------
    ConfigError
        If x_min <= 0, x_min >= x_max, or cells < 2.
    """
    if x_min <= 0:
        raise ConfigError(f"x_min must be positive, got {x_min}")
    if x_max <= x_min:
        raise ConfigError(f"need x_min < x_max, got ({x_min}, {x_max})")
    if cells < 2:
        raise ConfigError(f"need at least 2 cells, got {cells}")
    edges = np.geomspace(x_min, x_max, cells + 1)
    # geomspace endpoints carry rounding; pin them exactly
    edges[0] = x_min
    edges[-1] = x_max
    centers = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    return Grid(float(x_min), float(x_max), int(cells), edges, centers, widths)


def moment(state: State, m: float) -> float:
    """Discrete m-th moment: sum over cells of c_i^m * f_i * width_i."""
    g = state.grid
    return float(np.sum(g.centers ** m * state.density * g.widths))


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialCondition:
    """Parameterized initial density profile, scaled to a target mass.

    Use the classmethod constructors; `params` is family-specific.
    When `mass` is given, the sampled state is rescaled so that its
    *discrete* first moment equals `mass` exactly.
    """

    family: str
    params: dict = field(default_factory=dict)
    mass: float | None = 1.0

    @classmethod
    def exponential(cls, rate: float = 1.0, mass: float = 1.0) -> "InitialCondition":
        if rate <= 0:
            raise ConfigError("exponential rate must be positive")
        return cls("exponential", {"rate": float(rate)}, mass)

    @classmethod
    def power_cutoff(cls, p: float, x_c: float, mass: float = 1.0) -> "InitialCondition":
        if p >= 2:
            raise ConfigError(
                f"power_cutoff exponent must satisfy p < 2 for finite mass, got {p}")
        if x_c <= 0:
            raise ConfigError("power_cutoff needs x_c > 0")
        return cls("power_cutoff", {"p": float(p), "x_c": float(x_c)}, mass)

    @classmethod
    def point_mass(cls, x0: float, w: float, mass: float = 1.0) -> "InitialCondition":
        if x0 <= 0 or w <= 0:
            raise ConfigError("point_mass needs x0 > 0 and w > 0")
        return cls("point_mass", {"x0": float(x0), "w": float(w)}, mass)

    @classmethod
    def tabulated(cls, x: np.ndarray, f: np.ndarray,
                  mass: float | None = None) -> "InitialCondition":
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or x.size < 2:
            raise DataError("tabulated profile needs matching 1-d x and f arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise DataError("tabulated x and f values must be finite")
        if np.any(np.diff(x) <= 0):
            raise DataError("tabulated x values must be strictly increasing")
        if np.any(x <= 0):
            raise DataError("tabulated x values must be positive")
        if np.any(f < 0):
            raise DataError("tabulated f values must be non-negative")
        return cls("tabulated", {"x": x, "f": f}, mass)


def _cell_integrals_exponential(edges: np.ndarray, rate: float) -> np.ndarray:
    # integral over each cell of exp(-rate * x)
    return (np.exp(-rate * edges[:-1]) - np.exp(-rate * edges[1:])) / rate


def _cell_integrals_power_cutoff(edges: np.ndarray, p: float, x_c: float) -> np.ndarray:
    lo = np.minimum(edges[:-1], x_c)
    hi = np.minimum(edges[1:], x_c)
    if abs(p - 1.0) < 1e-14:
        return np.log(hi / lo)
    q = 1.0 - p
    return (hi ** q - lo ** q) / q


def _cell_integrals_gaussian(edges: np.ndarray, x0: float, w: float) -> np.ndarray:
    z = (edges - x0) / (math.sqrt(2.0) * w)
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in z]))
    return w * math.sqrt(2.0 * math.pi) * np.diff(cdf)


def sample_initial(ic: InitialCondition, grid: Grid) -> State:
    """Sample an initial condition as cell averages on `grid` at time 0.

    Cell integrals use the families' closed forms, so the discrete first
    moment tracks the analytic mass up to midpoint-representation error;
    a final rescale makes it exactly `ic.mass` when a mass is configured.
    """
    edges = grid.edges
    if ic.family == "exponential":
        cell_int = _cell_integrals_exponential(edges, ic.params["rate"])
    elif ic.family == "power_cutoff":
        cell_int = _cell_integrals_power_cutoff(edges, ic.params["p"], ic.params["x_c"])
    elif ic.family == "point_mass":
        cell_int = _cell_integrals_gaussian(edges, ic.params["x0"], ic.params["w"])
    elif ic.family == "tabulated":
        density = _interp_loglog(ic.params["x"], ic.params["f"], grid.centers)
        cell_int = density * grid.widths
    else:
        raise ConfigError(f"unknown initial-condition family {ic.family!r}")

    density = cell_int / grid.widths
    state = State(grid, density, 0.0)
    if ic.mass is not None:
        m1 = moment(state, 1.0)
        if m1 > 0:
            state = state.with_density(density * (ic.mass / m1))
        elif ic.mass != 0:
            raise DataError("cannot scale a zero profile to positive mass")
    return state


def _interp_loglog(x: np.ndarray, f: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Log-log interpolation, zero outside the table's support."""
    out = np.zeros_like(targets)
    pos = f > 0
    if not np.any(pos):
        return out
    xs, fs = x[pos], f[pos]
    inside = (targets >= xs[0]) & (targets <= xs[-1])
    if xs.size == 1:
        out[inside] = fs[0]
        return out
    out[inside] = np.exp(
        np.interp(np.log(targets[inside]), np.log(xs), np.log(fs)))
    return out


def read_tabulated_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column `x,f` CSV (header required, x strictly increasing)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:2] != ["x", "f"]:
        raise DataError(f"{path}: expected header 'x,f', got {rows[0]!r}")
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed row ({exc})") from exc
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    x, f = data[:, 0], data[:, 1]
    if np.any(np.diff(x) <= 0):
        raise DataError(f"{path}: x column must be strictly increasing")
    return x, f
