"""Discrete realization of the truncated coagulation/collision-breakage
system: precomputed pair tables, the right-hand side, time integration,
and the weak-form residual.

Design notes
------------
* Coagulation products ``c_i + c_j`` rarely hit cell centers; the created
  particles are split between the two bracketing centers with weights that
  conserve number and first moment simultaneously.  Products beyond the
  last center are deposited there with a mass-preserving number adjustment.
* Fragment deposition uses exact closed-form cell integrals of the daughter
  families (no quadrature).  Each cell lump carries its exact (number, mass)
  pair and is remapped onto bracketing centers exactly as above, so the
  discrete breakage operator conserves mass to rounding.  Fragment mass
  below the smallest edge is lumped mass-conservatively into the first cell.
* With ``offgrid_loss=False`` (default) the death term uses the same
  truncated kernel as the gains, so total mass is conserved identically.
  With ``offgrid_loss=True`` pairs whose product exceeds the grid still
  collide (capped kernel, no pair-sum cutoff) but produce nothing on the
  grid — the configuration used to observe gelation as genuine mass loss.
* Operator layout.  A pair (i <= j) deposits through streams: coalescence
  brackets, partial fragment cell brackets, fragment top cell.  Away from
  the diagonal they sit at fixed offsets from the larger partner's cell j
  (j and j + 1, j - 1 and j, top j), so four gain blocks (gain at j, j + 1
  and j - 1, top cell j) hold their weights and shifted adds apply the
  products ``number @ block``.  A gain block holds only the pairs
  j - i >= D, a triangle, kept as row panels in the flat ``gain_w``: panel
  p holds rows r_p = p ``_PANEL_ROWS`` up to the next panel's, columns
  r_p + D on, and takes one GEMV with those rows of the numbers.
  ``stack`` holds the full blocks, ``K_death^T`` last, applied by one
  GEMV.  On the first D diagonals d = j - i a bracket pair lands at a
  shift of j set by d alone (clamped at both grid ends): the band
  ``band_w`` holds it by destination, applied by one gather, ``einsum``
  and ``bincount``.  D and the shifts depend on the grid, daughter and
  ``n_trunc`` only.  Ties at a center sit on it, a size on an edge keeps
  the cell below as its top cell, and bracket pairs clamped onto cell 0
  take a padded column, so every pair is in the blocks or the band (else
  the build raises).  The top-cell stream
  deposits every complete cell below the top: a suffix sum over the
  cells, applied to the O(N) per-lump table ``lump_*``.  Under
  ``power_each`` parent j of
  each pair breaks at one rate ``n_j sum_i n_i K_ji (1 - E_ji)``, like a
  pair of total size c_j (top cell j, partial cell [e_j, c_j] bracketed
  at j - 1 and j), spread by the (3, N) ``parent_w`` from a breakage
  block ``(K (1 - E))^T`` of the gain kernel, first in ``stack``, or
  from the death block if the kernel is capped and E constant (1 - E
  then rides in ``parent_w``); its two coalescence blocks are the gain
  panels.  K and E enter only through these weights, and the
  weak-form residual reads its rates through the same ``_rates``.
* ``build_tables`` works in row blocks of the kernel and in blocks of
  ``_PAIR_BLOCK`` pairs along the diagonals, filling the tables in place:
  its peak memory is 1.10-1.14 times the table bytes at N = 800, and the
  block size changes no bit of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .daughter import DaughterSpec, ProbSpec, eval_E
from .errors import ConfigError, IntegrationError
from .grid import Grid, State
from .kernels import KernelSpec, eval_kernel

__all__ = [
    "OperatorTables",
    "StepControl",
    "Trajectory",
    "build_tables",
    "apply_rhs",
    "integrate",
    "weak_form_residual",
]


def _remap_points(centers, zbar, num):
    """Split lumps (number ``num`` at position ``zbar``) onto bracketing
    cell centers, conserving number and mass.  Outside the center range,
    or within ``_TIE_ULPS`` ulps of a center, the deposit is single-cell
    and mass-preserving (number adjusted), so rounding picks no bracket.

    Returns index arrays (l1, l2) and number weights (w1, w2).
    """
    zbar = np.asarray(zbar, dtype=float)
    num = np.asarray(num, dtype=float)
    n = centers.size
    tol = _TIE_ULPS * np.spacing(centers)
    j = np.searchsorted(centers - tol, zbar, side="right")
    jl = np.maximum(j - 1, 0)              # 0 <= j <= n
    jr = np.minimum(j, n - 1)
    above = zbar - centers[jl]
    interior = (j > 0) & (j < n) & (above > tol[jl])
    gap = np.where(interior, centers[jr] - centers[jl], 1.0)
    w2 = np.where(interior, num * above / gap, 0.0)
    w1 = np.where(interior, num - w2, num * zbar / centers[jl])
    return jl, jr, w1, w2


@dataclass(frozen=True)
class OperatorTables:
    """Immutable operator tables for one (grid, kernel, daughter, prob)
    scenario: the one representation of the discrete operator, read by
    both the time stepping and the weak-form residual."""

    grid: Grid
    kernel: KernelSpec
    daughter: DaughterSpec
    prob: ProbSpec
    n_trunc: float
    offgrid_loss: bool
    stack: np.ndarray                  # (N, N) K_death^T, per-parent (N, 2N)
                                       # after (K (1 - E))^T unless 1 - E folds
    K_death: np.ndarray                # last block (view); gains cut it at n_trunc
    gain_w: np.ndarray                 # panels of 4 gain blocks, per-parent 2
    panel_off: np.ndarray              # (2, P + 1) first row, flat start
    parent_w: np.ndarray | None        # per-parent (3, N): cells j, j - 1, top j
    band_w: np.ndarray                 # (G, 2, D, N + span) bracket pairs
    band_shift: np.ndarray             # (G, D) lower bracket + pad - j
    band_dest: np.ndarray              # (G, 2, N + span) clamped at both ends
    lump_src: np.ndarray               # (2N+1,) 0 sub-grid lump, k + 1 cell k
    lump_dest: np.ndarray              # (2N+1,) bracketing centers
    lump_w: np.ndarray                 # (2N+1,) numbers per unit scale


def _frag_lump(nu, centers, lo, hi):
    """Fragment number and mass of the size interval [lo, hi] per unit
    scale, ``(nu + 2) int z^nu dz`` and ``(nu + 2) int z^(nu+1) dz``,
    remapped onto the centers as by ``_remap_points``."""
    num = (nu + 2.0) * ((hi ** (nu + 1.0) - lo ** (nu + 1.0)) / (nu + 1.0))
    mass = hi ** (nu + 2.0) - lo ** (nu + 2.0)
    return _remap_points(centers, mass / num, num)


def _frag_lumps(daughter: DaughterSpec, grid: Grid):
    """Fragment deposits per unit scale of the sub-grid lump (source 0) and
    each complete cell k (source k + 1), remapped onto centers, as
    (source, destination, weight) arrays.  A pair with top cell t receives
    every entry whose source is at most t.
    """
    nu = daughter.nu
    e = grid.edges
    l1, l2, w1, w2 = _frag_lump(nu, grid.centers, e[:-1], e[1:])
    k = np.arange(1, grid.cell_count + 1)
    return (np.concatenate(([0], k, k)), np.concatenate(([0], l1, l2)),
            np.concatenate(([e[0] ** (nu + 2.0) / grid.centers[0]], w1, w2)))


def _frag_partial(daughter: DaughterSpec, grid: Grid, s: np.ndarray):
    """Top cell t and remapped partial-cell deposit [e_t, s] for pair
    sizes s (at least 2 c_0).  A size within ``_TIE_ULPS`` ulps above an
    edge keeps the cell below as its top cell, so rounding picks no top
    cell; its partial cell then spans that whole cell, and is never empty."""
    e = grid.edges
    t = np.searchsorted(e + _TIE_ULPS * np.spacing(e), s) - 1
    return (t, *_frag_lump(daughter.nu, grid.centers, e[t], s))


def build_tables(grid: Grid, kernel: KernelSpec, n_trunc: float,
                 daughter: DaughterSpec, prob: ProbSpec,
                 offgrid_loss: bool = False) -> OperatorTables:
    """Precompute the weight blocks and band of the truncated system, whose
    gain kernel is ``min(K, n_trunc)`` (uncapped with ``offgrid_loss``)
    where ``x + y < n_trunc`` and 0 elsewhere."""
    if not 0 < n_trunc <= grid.x_max:
        raise ConfigError("truncation level must be positive and at most "
                          "the grid top")
    if daughter.per_parent and kernel.declared_alpha > 0.0:
        raise ConfigError(
            "per-parent daughter distributions require a non-singular kernel "
            "(alpha = 0)")
    if not daughter.nu > -1.0:
        raise ConfigError(
            "simulation requires a finite fragment count (daughter exponent > -1)")
    c = grid.centers
    N = c.size
    fold = daughter.per_parent and prob.form == "constant" and not offgrid_loss
    own_break = daughter.per_parent and not fold
    stack = np.zeros((N, (2 if own_break else 1) * N))
    K_death = stack[:, -N:].T
    broken = stack[:, :N].T if own_break else None
    # offgrid_loss drops the rate cap and keeps the raw kernel in the loss
    # term: pairs whose product leaves the grid still collide but produce
    # nothing representable, so mass genuinely leaks to large sizes — the
    # configuration used to observe gelation.  The default caps and cuts
    # both terms identically, which conserves mass exactly.
    step = max(1, _PAIR_BLOCK // N)
    for r in range(0, N, step):
        x, K = c[r:r + step, None], K_death[r:r + step]
        K[...] = eval_kernel(kernel, x, c)
        live = x + c < n_trunc
        if not offgrid_loss:
            np.minimum(K, n_trunc, out=K)
            K[~live] = 0.0
        # the gains read K(c_i, c_j) for i <= j only, the loss whole rows
        if not np.allclose(K[:, :r + step], K_death[:r + step, r:r + step].T,
                           rtol=1e-12, atol=0):
            raise ConfigError("kernel must be symmetric, K(x, y) = K(y, x)")
        if broken is not None:
            np.subtract(1.0, eval_E(prob, x, c), out=broken[r:r + step])
            broken[r:r + step] *= np.where(live, K, 0.0)

    parent_w = None
    if daughter.per_parent:
        # parent j spreads its fragments like a pair of total size c_j
        _, _, pw1, pw2 = _frag_lump(daughter.nu, c, grid.edges[:-1], c)
        pw2[0], pw1[0] = pw1[0] + pw2[0], 0.0     # parent 0: cell 0 alone
        parent_w = np.array([pw2, pw1, np.ones(N)]) * c ** (-(daughter.nu + 1.0))
        if fold:
            parent_w *= 1.0 - prob.params["value"]

    def streams(iu, ju):
        """(destination, weight, live, block) per stream of pairs iu <= ju;
        ``live``: the weights that geometry and n_trunc leave non-zero."""
        s = c[iu] + c[ju]
        live = s < n_trunc
        l1, l2, w1, w2 = _remap_points(c, s, np.ones_like(s))
        # a diagonal pair is one collision type; an off-diagonal pair
        # stands for both orders, each at half the rate of the gain kernel
        rate = np.where(iu == ju, 0.5, 1.0) * np.where(live, K_death[iu, ju], 0.0)
        E = eval_E(prob, c[iu], c[ju])
        coag = rate * E
        out = [(l1, coag * w1, live & (w1 != 0), 0),
               (l2, coag * w2, live & (w2 != 0), 1)]
        if not daughter.per_parent:
            top, pl1, pl2, pw1, pw2 = _frag_partial(daughter, grid, s)
            frag = rate * (1.0 - E) * s ** (-(daughter.nu + 1.0))
            out += [(pl1, frag * pw1, live & (pw1 != 0), 2),
                    (pl2, frag * pw2, live & (pw2 != 0), 0),
                    (N + top, frag, live, 3)]
        return out

    # streams: coalescence and partial-cell brackets (lower, upper), top
    # cell; stream k deposits at base + j + offset[block] in the GEMV
    # blocks, at base + clip(j + shift + k % 2, 0, N - 1) in the band
    base, offset = np.array([0, 0, 0, N]), np.array([0, 1, -1, 0])
    # the shift of bracket pair k // 2 on diagonal d is read off the lower
    # bracket of the pair (0, d); the band holds the diagonals below the
    # last one where that pair breaks the GEMV rule
    dest, _, live, blocks = map(np.array, zip(*streams(
        np.zeros(N, dtype=int), np.arange(N))))
    shift = dest - base[blocks, None] - np.arange(N)
    off = np.any(live & (shift != offset[blocks, None]), axis=0)
    D = np.max(off.nonzero()[0] + 1, initial=0)
    # a bracket pair clamped onto cell 0 at both ends sits one cell below
    # its diagonal's shift, in a column the band pads at the bottom
    low = dest[::2, :D] == 0
    low[:len(dest) // 2] &= dest[1::2, :D] == 0
    pad = int(low.any())
    band_shift = shift[::2, :D] - low + pad
    L = N + max(0, band_shift.max(initial=0))
    band_w = np.zeros((len(band_shift), 2, D, L))
    k = np.arange(len(blocks))
    shift[:, :D] = band_shift[k // 2] - pad + k[:, None] % 2
    shift[:, D:] = offset[blocks, None]
    # panel p holds rows [r_p, r_{p+1}) of the gain blocks from column
    # r_p + D on, W_p = N - D - r_p wide: row i holds its blocks one
    # after another, block b of the pair (i, j) at b W_p + j - r_p - D
    n_gain = 2 if daughter.per_parent else 4
    rows = np.append(np.arange(0, N - D, _PANEL_ROWS), N - D)
    panel_off = np.array([rows, np.concatenate(([0], np.cumsum(
        np.diff(rows) * n_gain * (N - D - rows[:-1]))))])
    gain_w = np.zeros(panel_off[1, -1])
    # blocks of _PAIR_BLOCK pairs along the diagonals from first[d] on
    first = np.concatenate(([0], np.cumsum(np.arange(N, 0, -1))))
    for p0 in range(0, first[-1], _PAIR_BLOCK):
        p1 = min(p0 + _PAIR_BLOCK, first[-1])
        d = np.repeat(np.arange(N), np.diff(np.clip(first, p0, p1)))
        ju = np.arange(p0, p1) - first[d] + d
        iu = ju - d
        q = min(max(first[D] - p0, 0), p1 - p0)     # pairs [:q] in the band
        panel = iu[q:] // _PANEL_ROWS
        r = rows[panel]
        width = N - D - r
        cell = (panel_off[1, panel] + (iu[q:] - r) * n_gain * width
                + ju[q:] - r - D)
        for (dest_k, w, live_k, b), sh, g in zip(streams(iu, ju), shift, k):
            col = ju + sh[d]
            # every live stream must land where the band or a block puts it
            lands = np.concatenate((np.clip(col[:q], 0, N - 1), col[q:]))
            if np.any(live_k & (dest_k != base[b] + lands)):
                raise RuntimeError("a pair lands off the band and the blocks")
            band_w[g // 2, g % 2, d[:q], col[:q] + pad - g % 2] = w[:q]
            gain_w[cell + b * width] += w[q:]
    band_dest = (np.clip(np.arange(L) - pad + np.c_[0:2], 0, N - 1)
                 + base[blocks[::2], None, None])
    lump_src, lump_dest, lump_w = _frag_lumps(daughter, grid)
    return OperatorTables(
        grid=grid, kernel=kernel, daughter=daughter, prob=prob,
        n_trunc=float(n_trunc), offgrid_loss=offgrid_loss, stack=stack,
        K_death=K_death, gain_w=gain_w, panel_off=panel_off, parent_w=parent_w,
        band_w=band_w, band_shift=band_shift, band_dest=band_dest,
        lump_src=lump_src, lump_dest=lump_dest, lump_w=lump_w)


def _rates(tables: OperatorTables, density: np.ndarray):
    """Rate of change of the density and the death rate ``K_death @ n``."""
    g = tables.grid
    N = g.cell_count
    number = density * g.widths
    v = (number @ tables.stack).reshape(-1, N)
    _, _, D, L = tables.band_w.shape
    u = np.zeros((4 if tables.parent_w is None else 2, N))
    first, off = tables.panel_off.tolist()
    for r0, r1, o0, o1 in zip(first, first[1:], off, off[1:]):
        # adding into a view skips the copy back of ``u[:, a:] += ...``
        cols = u[:, r0 + D:]
        cols += (number[r0:r1] @ tables.gain_w[o0:o1].reshape(
            r1 - r0, -1)).reshape(len(u), -1)
    u *= number
    if tables.parent_w is not None:
        # n_j v[0]_j breaks parent j: v[0] is K (1 - E) n, or K n with the
        # constant 1 - E in parent_w
        w = tables.parent_w * (number * v[0])
        u = np.array([u[0] + w[0], u[1], w[1], w[2]])
    # column m of diagonal d in bracket pair g is the pair (m - shift - d,
    # m - shift): one gather reads both rows off the zero-padded numbers
    padded = np.concatenate((np.zeros(L + D), number, np.zeros(L + D)))
    rows = L + D - tables.band_shift - _PARTNER * np.arange(D)
    window = as_strided(padded, (padded.size - L + 1, L), padded.strides * 2)
    cols = np.einsum("gbdm,gdm,gdm->gbm", tables.band_w, *window[rows])
    out = np.bincount(tables.band_dest.ravel(), cols.ravel(), 2 * N + 1)
    gain = out[:N] + u[0]
    gain[1:] += u[1, :-1]
    gain[:-1] += u[2, 1:]
    top = out[N:]
    top[:-1] += u[3]
    # top cell t receives the lump and every complete cell below t
    above = np.cumsum(top[::-1])[::-1]
    gain += np.bincount(tables.lump_dest,
                        tables.lump_w * above[tables.lump_src], N)
    return gain / g.widths - density * v[-1], v[-1]


def _rhs(tables: OperatorTables, density: np.ndarray) -> np.ndarray:
    return _rates(tables, density)[0]


def apply_rhs(tables: OperatorTables, state: State) -> np.ndarray:
    """Rate of change of the cell-averaged density."""
    if state.grid is not tables.grid and not np.array_equal(
            state.grid.edges, tables.grid.edges):
        raise ConfigError("state and tables use different grids")
    return _rhs(tables, state.density)


@dataclass(frozen=True)
class StepControl:
    """Settings of the Dormand-Prince 5(4) integration."""

    rtol: float = 1e-6
    atol: float | None = None         # default: 1e-12 * initial mass scale
    t_end: float = 1.0
    output_times: tuple = ()

    def __post_init__(self):
        if not 0 < self.rtol < np.inf or (
                self.atol is not None and not 0 < self.atol < np.inf):
            raise ConfigError("tolerances must be positive and finite")
        if not 0 < self.t_end < np.inf:
            raise ConfigError("t_end must be positive and finite")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped densities at the requested output times."""

    grid: Grid
    times: np.ndarray
    densities: np.ndarray            # shape (len(times), cell_count)
    clipped_mass: float              # total mass removed by negativity clips
    n_steps: int
    n_rejected: int

    def state(self, k: int) -> State:
        """Output k as a State; the benchmark times ``apply_rhs`` on it."""
        return State(self.grid, self.densities[k], float(self.times[k]))

    def __len__(self) -> int:
        return self.times.size


# Dormand & Prince (1980), J. Comput. Appl. Math. 6: stage weights, the
# last row being the 5th-order solution whose slope starts the next step
# (FSAL); 5th- minus 4th-order weights; the 4th-order continuous extension
# (Shampine 1986), y(t + theta h) = y + h (K^T P) [theta, ..., theta^4].
_DP_A = tuple(np.array(row) for row in (
    (), (1 / 5,), (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)))
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])

# every stage slope is mass-free, so mass changes only through clipping:
# a looser limit on a step's clipped share lets it drift above rounding
_CLIP_LIMIT = 1e-15
_DT_MIN = 1e-12                      # step-size underflow guard, per horizon
_PAIR_BLOCK = 2 ** 13                # upper-triangle pairs per build block
_PANEL_ROWS = 128                    # gain block rows per panel
_TIE_ULPS = 1024                     # a lump this close to a center sits on it
_PARTNER = np.array([1, 0])[:, None, None]   # smaller partner j - d, larger j


def _clip(density: np.ndarray, grid: Grid):
    neg = np.minimum(density, 0.0)
    clipped = float(-(neg * grid.centers * grid.widths).sum())
    return np.maximum(density, 0.0), clipped


def integrate(tables: OperatorTables, state: State,
              control: StepControl) -> Trajectory:
    """Integrate to t_end with Dormand-Prince 5(4) steps under PI step-size
    control, recording the states at the output times, which must lie in
    [state.time, t_end] (both ends are always recorded).  A step is
    accepted when its embedded error is within tolerance and its clipped
    negative densities hold at most ``_CLIP_LIMIT`` of the mass.  The steps
    do not stop at output times: an output inside a step is read from the
    step's continuous extension, then clipped, its clipped mass counted.
    A step size below ``_DT_MIN`` of the horizon raises IntegrationError."""
    g = tables.grid
    f = state.density.astype(float).copy()
    t = float(state.time)
    t_end = float(control.t_end)
    dt_min = _DT_MIN * (t_end - t)
    requested = {float(s) for s in control.output_times}
    outside = sorted(s for s in requested if not t <= s <= t_end)
    if outside:
        raise ConfigError(f"output times {outside} lie outside the horizon "
                          f"[{t!r}, {t_end!r}]")
    out_times = np.asarray(sorted({t, t_end} | requested))
    mass0 = float((f * g.centers * g.widths).sum())
    atol = control.atol if control.atol is not None else 1e-12 * max(mass0, 1.0)

    records = [f.copy()]
    next_out = 1
    clipped_total = 0.0
    n_steps = n_rejected = 0
    err_prev = 1.0

    K = np.empty((7, f.size))          # stage slopes; K[0] is the slope at f
    K[0] = _rhs(tables, f)
    scale = float(np.max(np.abs(K[0]))) if f.any() else 0.0
    dt = 0.01 / scale if scale > 0 else (t_end - t) / 100 or 1.0

    while t < t_end:
        last = dt >= t_end - t
        h = t_end - t if last else dt
        for i in range(1, 6):
            K[i] = _rhs(tables, f + h * (_DP_A[i] @ K[:i]))
        f_new, clipped = _clip(f + h * (_DP_A[6] @ K[:6]), g)
        mass_now = float((f_new * g.centers * g.widths).sum())
        clip_ok = clipped <= _CLIP_LIMIT * max(mass_now, atol)
        err = np.inf
        if clip_ok:
            K[6] = _rhs(tables, f_new)
            err = float(np.max(np.abs(h * (_DP_E @ K))
                               / (atol + control.rtol * np.abs(f))))

        if err <= 1.0:
            t_new = t_end if last else t + h
            while next_out < out_times.size and out_times[next_out] < t_new:
                theta = (out_times[next_out] - t) / h
                y, lost = _clip(f + h * (theta ** np.arange(1, 5)
                                         @ (_DP_P.T @ K)), g)
                records.append(y)
                clipped_total += lost
                next_out += 1
            if next_out < out_times.size and out_times[next_out] == t_new:
                records.append(f_new)
                next_out += 1
            f, t = f_new, t_new
            K[0] = K[6]
            clipped_total += clipped
            n_steps += 1
            err = max(err, 1e-10)
            factor = min(10.0, max(0.2, 0.9 * err ** -0.14 * err_prev ** 0.08))
            err_prev = err
        else:
            n_rejected += 1
            factor = max(0.2, 0.9 * err ** -0.2) if clip_ok else 0.5
        dt = h * factor
        if dt < dt_min and t < t_end:
            raise IntegrationError(
                "step size underflow",
                diagnostics={"t": t, "dt": dt, "clipped_mass": clipped_total})

    return Trajectory(grid=g, times=out_times,
                      densities=np.asarray(records),
                      clipped_mass=clipped_total,
                      n_steps=n_steps, n_rejected=n_rejected)


# ---------------------------------------------------------------------------
# weak formulation
# ---------------------------------------------------------------------------

def _phi_values(phi_kind, x):
    kind, arg = phi_kind
    if kind == "power":
        return x ** arg
    if kind == "capped":
        return np.minimum(x, arg)
    if kind == "indicator":
        return np.where(x < arg, 1.0, 0.0)
    raise ConfigError(f"unsupported test function {kind!r}")


def weak_form_residual(trajectory: Trajectory, tables: OperatorTables,
                       phi_kind: tuple) -> dict:
    """Per-output-interval defect of the weak identity
    ``d/dt int phi f = 1/2 sum_ij zeta_phi K f f``.

    ``phi_kind`` is ("power", m), ("capped", a), or ("indicator", a).
    The rate at each output is ``sum phi dn/dt`` of the operator's own
    ``_rates``, so phi = x gives the mass identity zeta_x = 0; its loss
    uses the gain kernel, so with ``offgrid_loss`` the collisions that
    leave the grid show up as residual.  Intervals use the trapezoid rule.
    Returns absolute and relative interval residuals; an interval where
    both sides vanish at rounding level counts as zero relative residual.
    """
    if len(trajectory) < 3:
        raise ConfigError("need at least 3 output times")
    c, dx = trajectory.grid.centers, trajectory.grid.widths
    phi_c = _phi_values(phi_kind, c)
    mphi = trajectory.densities @ (phi_c * dx)
    # the collisions off the grid, the death kernel where c_i + c_j >=
    # n_trunc, in row blocks: zero unless offgrid_loss, as the build cuts it
    numbers = trajectory.densities * dx
    lost = np.empty_like(numbers)
    step = max(1, _PAIR_BLOCK // c.size)
    for r in range(0, c.size, step):
        cut = c[r:r + step, None] + c < tables.n_trunc
        lost[:, r:r + step] = numbers @ np.where(
            cut, 0.0, tables.K_death[r:r + step]).T
    rates = np.array([(phi_c * dx) @ _rates(tables, density)[0]
                      for density in trajectory.densities])
    rates += (numbers * lost) @ phi_c

    dts = np.diff(trajectory.times)
    lhs = np.diff(mphi)
    rhs = 0.5 * (rates[:-1] + rates[1:]) * dts
    absolute = np.abs(lhs - rhs)
    larger = np.maximum(np.abs(lhs), np.abs(rhs))
    floor = 1e-12 * max(np.max(np.abs(mphi)), 1e-300)
    relative = np.where(larger > floor, absolute / np.where(larger > 0, larger, 1.0), 0.0)
    return {"times": trajectory.times, "lhs": lhs, "rhs": rhs,
            "absolute": absolute, "relative": relative,
            "functional": mphi}
