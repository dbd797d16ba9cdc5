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
* Operator layout.  The symmetric kernel is held once: the death kernel
  as its upper triangle, diagonal halved, in row panels of the flat
  ``gain_w``.  Panel p holds rows r_p = p ``_PANEL_ROWS`` up to the next
  panel's; row i holds the triangle from column r_p on, then each gain
  block from column r_p + D on.  With the halved diagonal an entry is the
  collision rate of the pair (i <= j), and the death rate takes two GEMVs
  per panel, one from each side.  Off the band, j - i >= D, a pair's
  coalescence lands on its larger partner's cell j and on j + 1 with the
  bracket weights 1 - c_i / (c_{j+1} - c_j) and c_i / (c_{j+1} - c_j)
  (in the top cell on N - 1 alone, s / c_{N-1}), so one matrix
  Ê = E rate gives it from ``(n, c n) @ Ê``.  Under a constant E without
  ``offgrid_loss`` Ê is E times the death triangle; otherwise it is the
  first gain block.  The pair laws add three fragment blocks: the partial
  cell's brackets at j - 1 and j, and the top cell j.  In its first
  B - 1 columns from r_p + D a panel's lower rows reach onto the band's
  diagonals; each call masks them with ``np.triu``.  On the first D
  diagonals d = j - i a bracket pair lands at a shift of j set by d alone
  (clamped at both grid ends): the band ``band_w`` holds it by
  destination, applied by a gather and ``einsum`` per chunk of
  ``_BAND_DIAGONALS`` diagonals, then one ``bincount``.  D and the shifts
  depend on the grid, daughter and ``n_trunc`` only.  Ties at a center
  sit on it, a size on an edge keeps the cell below as its top cell, and
  bracket pairs clamped onto cell 0 take a padded column, so every pair
  is in the panels or the band (else the build raises).  The top-cell
  stream deposits every complete cell below the top: a suffix sum over
  the cells, applied to the O(N) per-lump table ``lump_*``.  Under ``power_each`` parent j of
  each pair breaks at one rate ``n_j sum_i n_i K_ji (1 - E_ji)``, like a
  pair of total size c_j (top cell j, partial cell [e_j, c_j] bracketed
  at j - 1 and j), spread by the (3, N) ``parent_w``: from the breakage
  block ``stack`` = ``(K (1 - E))^T`` of the gain kernel, or from the
  death rate if the kernel is capped and E constant (1 - E then rides in
  ``parent_w``).  K and E enter only through these weights, and the
  weak-form residual reads its rates through the same ``_rates``.
* ``build_tables`` works in row blocks of the kernel and in blocks of
  ``_PAIR_BLOCK`` pairs along the diagonals, filling the tables in place:
  its peak memory is 1.13-1.15 times the table bytes at N = 800 (1.32
  for the smallest, ``power_each`` at constant E), and the block size
  changes no bit of the tables.
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


def _remap_points(centers, zbar, num, extra=0.0):
    """Split lumps (number ``num`` at position ``zbar + extra``) onto
    bracketing cell centers, conserving number and mass.  Outside the
    center range, or within ``_TIE_ULPS`` ulps of a center, the deposit is
    single-cell and mass-preserving (number adjusted), so rounding picks no
    bracket.  A pair of sizes passes its larger size as ``zbar`` and its
    smaller as ``extra``: its height above the lower bracket is then
    ``(zbar - c_l) + extra``, exact when the lower bracket is the larger
    size's center.

    Returns index arrays (l1, l2) and number weights (w1, w2).
    """
    zbar = np.asarray(zbar, dtype=float)
    num = np.asarray(num, dtype=float)
    pos = zbar + extra
    n = centers.size
    tol = _TIE_ULPS * np.spacing(centers)
    j = np.searchsorted(centers - tol, pos, side="right")
    jl = np.maximum(j - 1, 0)              # 0 <= j <= n
    jr = np.minimum(j, n - 1)
    above = (zbar - centers[jl]) + extra
    interior = (j > 0) & (j < n) & (above > tol[jl])
    gap = np.where(interior, centers[jr] - centers[jl], 1.0)
    w2 = np.where(interior, num * above / gap, 0.0)
    w1 = np.where(interior, num - w2, num * pos / centers[jl])
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
    stack: np.ndarray | None           # per-parent (N, N) (K (1 - E))^T, None
                                       # where 1 - E folds into parent_w
    gain_w: np.ndarray                 # row panels: death triangle, then Ê
                                       # unless shared, 3 fragment blocks
                                       # unless per-parent
    panel_off: np.ndarray              # (2, P + 1) first row, flat start
    parent_w: np.ndarray | None        # per-parent (3, N): cells j - 1, j, top j
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
    """Precompute the row panels and band of the truncated system, whose
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
    shared = _shares_death(prob, offgrid_loss)

    parent_w = None
    if daughter.per_parent:
        # parent j spreads its fragments like a pair of total size c_j
        _, _, pw1, pw2 = _frag_lump(daughter.nu, c, grid.edges[:-1], c)
        pw2[0], pw1[0] = pw1[0] + pw2[0], 0.0     # parent 0: cell 0 alone
        parent_w = np.array([pw1, pw2, np.ones(N)]) * c ** (-(daughter.nu + 1.0))
        if shared:
            parent_w *= 1.0 - prob.params["value"]

    def streams(iu, ju, rate):
        """(destination, weight, live) per stream of pairs iu <= ju at the
        pair rate ``rate``, and their coalescence rate; ``live``: the
        weights that geometry and n_trunc leave non-zero."""
        s = c[iu] + c[ju]
        live = s < n_trunc
        l1, l2, w1, w2 = _remap_points(c, c[ju], 1.0, c[iu])
        rate[~live] = 0.0
        E = eval_E(prob, c[iu], c[ju])
        coag = rate * E
        out = [(l1, coag * w1, live & (w1 != 0)),
               (l2, coag * w2, live & (w2 != 0))]
        if not daughter.per_parent:
            top, pl1, pl2, pw1, pw2 = _frag_partial(daughter, grid, s)
            frag = rate * (1.0 - E) * s ** (-(daughter.nu + 1.0))
            out += [(pl1, frag * pw1, live & (pw1 != 0)),
                    (pl2, frag * pw2, live & (pw2 != 0)),
                    (N + top, frag, live)]
        return out, coag

    # streams: coalescence and partial-cell brackets (lower, upper), top
    # cell; off the band stream k deposits at base + j + offset, in the
    # band at base + clip(j + shift + k % 2, 0, N - 1)
    S = 2 if daughter.per_parent else 5
    base = np.array([0, 0, 0, 0, N])[:S]
    offset = np.array([0, 1, -1, 0, 0])[:S]
    # the shift of bracket pair k // 2 on diagonal d is read off the lower
    # bracket of the pair (0, d); the band holds the diagonals below the
    # last one where that pair breaks the rule
    dest, _, live = map(np.array, zip(*streams(
        np.zeros(N, dtype=int), np.arange(N), np.ones(N))[0]))
    shift = dest - base[:, None] - np.arange(N)
    off = np.any(live & (shift != offset[:, None]), axis=0)
    D = np.max(off.nonzero()[0] + 1, initial=0)
    # a bracket pair clamped onto cell 0 at both ends sits one cell below
    # its diagonal's shift, in a column the band pads at the bottom
    low = dest[::2, :D] == 0
    low[:S // 2] &= dest[1::2, :D] == 0
    pad = int(low.any())
    band_shift = shift[::2, :D] - low + pad
    L = N + max(0, band_shift.max(initial=0))
    band_w = np.zeros((len(band_shift), 2, D, L))
    k = np.arange(S)
    shift[:, :D] = band_shift[k // 2] - pad + k[:, None] % 2
    shift[:, D:] = offset[:, None]

    # panel p holds rows [r_p, r_{p+1}); row i holds the death triangle
    # from column r_p, then each gain block from column r_p + D: Ê unless
    # it is E times the triangle, then the fragment blocks
    hat = 0 if shared else 1
    n_gain = hat + (0 if daughter.per_parent else 3)
    rows = np.append(np.arange(0, N, _PANEL_ROWS), N)
    r = rows[:-1]
    wide = np.maximum(N - D - r, 0)
    panel_off = np.array([rows, np.concatenate(([0], np.cumsum(
        np.diff(rows) * (N - r + n_gain * wide))))])
    gain_w = np.zeros(panel_off[1, -1])
    i = np.arange(N)
    p = i // _PANEL_ROWS
    # the triangle's entry (i, j) is gain_w[tri[i] + j - i]
    tri = panel_off[1, p] + (i - r[p]) * (N - r[p] + n_gain * wide[p] + 1)

    # offgrid_loss drops the rate cap and keeps the raw kernel in the loss
    # term: pairs whose product leaves the grid still collide but produce
    # nothing representable, so mass genuinely leaks to large sizes — the
    # configuration used to observe gelation.  The default caps and cuts
    # both terms identically, which conserves mass exactly.
    stack = np.zeros((N, N)) if daughter.per_parent and not shared else None
    step = max(1, _PAIR_BLOCK // N)
    for r0 in range(0, N, step):
        r1 = min(r0 + step, N)
        x = c[r0:r1, None]
        K = eval_kernel(kernel, x, c)
        live = x + c < n_trunc
        if not offgrid_loss:
            np.minimum(K, n_trunc, out=K)
            K[~live] = 0.0
        # the rows above hold columns r0:r1 of the triangle
        above = gain_w[tri[:r0, None] + np.arange(r0, r1) - i[:r0, None]]
        if not np.allclose(K[:, :r1], np.concatenate((above, K[:, r0:r1])).T,
                           rtol=1e-12, atol=0):
            raise ConfigError("kernel must be symmetric, K(x, y) = K(y, x)")
        if stack is not None:
            broken = stack.T[r0:r1]
            np.subtract(1.0, eval_E(prob, x, c), out=broken)
            broken *= np.where(live, K, 0.0)
        # a diagonal pair is one collision type; an off-diagonal pair
        # stands for both orders, each at half the rate of the gain kernel
        K[i[:r1 - r0], i[r0:r1]] *= 0.5
        for row in range(r0, r1):
            gain_w[tri[row]:tri[row] + N - row] = K[row - r0, row:]

    # blocks of _PAIR_BLOCK pairs along the diagonals from first[d] on
    first = np.concatenate(([0], np.cumsum(np.arange(N, 0, -1))))
    for p0 in range(0, first[-1], _PAIR_BLOCK):
        p1 = min(p0 + _PAIR_BLOCK, first[-1])
        d = np.repeat(np.arange(N), np.diff(np.clip(first, p0, p1)))
        ju = np.arange(p0, p1) - first[d] + d
        iu = ju - d
        q = min(max(first[D] - p0, 0), p1 - p0)     # pairs [:q] in the band
        out, coag = streams(iu, ju, gain_w[tri[iu] + d])
        width = wide[p[iu[q:]]]
        # gain block 0 of the pair (i, j), from column r_p + D of row i
        cell = tri[iu[q:]] - iu[q:] + N + ju[q:] - r[p[iu[q:]]] - D
        if hat:
            gain_w[cell] = coag[q:]
        for (dest_k, w, live_k), sh, g in zip(out, shift, k):
            col = ju + sh[d]
            # every live stream must land where the band or the rule puts it
            lands = np.concatenate((np.clip(col[:q], 0, N - 1), col[q:]))
            if np.any(live_k & (dest_k != base[g] + lands)):
                raise RuntimeError("a pair lands off the band and the blocks")
            band_w[g // 2, g % 2, d[:q], col[:q] + pad - g % 2] = w[:q]
            if g >= 2:
                gain_w[cell + (hat + g - 2) * width] = w[q:]
        del out, coag                 # before the next block's streams
    band_dest = (np.clip(np.arange(L) - pad + np.c_[0:2], 0, N - 1)
                 + base[::2, None, None])
    lump_src, lump_dest, lump_w = _frag_lumps(daughter, grid)
    return OperatorTables(
        grid=grid, kernel=kernel, daughter=daughter, prob=prob,
        n_trunc=float(n_trunc), offgrid_loss=offgrid_loss, stack=stack,
        gain_w=gain_w, panel_off=panel_off, parent_w=parent_w,
        band_w=band_w, band_shift=band_shift, band_dest=band_dest,
        lump_src=lump_src, lump_dest=lump_dest, lump_w=lump_w)


def _shares_death(prob: ProbSpec, offgrid_loss: bool) -> bool:
    """Whether the coalescence rates are E times the death triangle, so
    that no table of their own is stored."""
    return prob.form == "constant" and not offgrid_loss


def _rates(tables: OperatorTables, density: np.ndarray):
    """Rate of change of the density and the death rate
    ``sum_j K_ij n_j`` of each cell i."""
    g = tables.grid
    c = g.centers
    N = c.size
    number = density * g.widths
    _, _, D, L = tables.band_w.shape
    shared = _shares_death(tables.prob, tables.offgrid_loss)
    pairs = np.array([number, c * number])
    # the death rate; sum_i n_i Ê_ij and sum_i c_i n_i Ê_ij; the fragment
    # gains at j - 1, j and top cell j
    sums = np.zeros((6, N))
    death, coag, frag = sums[0], sums[1:3], sums[3:]
    first, off = tables.panel_off.tolist()
    for r0, r1, o0, o1 in zip(first, first[1:], off, off[1:]):
        panel = tables.gain_w[o0:o1].reshape(r1 - r0, -1)
        # row 0 gives the death rate and the fragment gains, both rows
        # the sums of Ê off the panel's corner
        Y = pairs[:, r0:r1] @ panel
        death[r0:] += Y[0, :N - r0]
        death[r0:r1] += panel[:, :N - r0] @ number[r0:]
        W = N - D - r0
        if W <= 0:
            continue
        # Ê from column r0 + D: the death triangle's columns, or its own
        h0 = D if shared else N - r0
        # in its first B - 1 columns the panel's rows below the first
        # reach back onto the band's diagonals: the m by m corner holds
        # every pair of them off the band
        m = min(r1 - r0 - 1, W)
        cols = coag[:, r0 + D:]
        cols[:, :m] += pairs[:, r0:r0 + m] @ np.triu(panel[:m, h0:h0 + m])
        cols[:, m:] += Y[:, h0 + m:h0 + W]
        if tables.parent_w is None:
            # adding into a view skips the copy back of ``a[:, i:] += ...``
            gains = frag[:, r0 + D:]
            gains += Y[0, N - r0 + (0 if shared else W):].reshape(3, W)
    if shared:
        coag *= tables.prob.params["value"]
    sums[1:] *= number
    # the bracket rule off the band: c_i / (c_{j+1} - c_j) of the pair's
    # number moves up to j + 1; in the top cell s / c_{N-1} stays there
    up = coag[1, :-1] / (c[1:] - c[:-1])
    coag[0, -1] += coag[1, -1] / c[-1]
    if tables.parent_w is not None:
        # n_j times K (1 - E) n breaks parent j, or the death rate K n
        # with the constant 1 - E in parent_w
        broken = death if tables.stack is None else number @ tables.stack
        frag = tables.parent_w * (number * broken)
    # column m of diagonal d in bracket pair g is the pair (m - shift - d,
    # m - shift): one gather per chunk of diagonals reads both rows off
    # the zero-padded numbers
    padded = np.concatenate((np.zeros(L + D), number, np.zeros(L + D)))
    window = as_strided(padded, (padded.size - L + 1, L), padded.strides * 2)
    cols = np.zeros(tables.band_dest.shape)
    for d0 in range(0, D, _BAND_DIAGONALS):
        d1 = min(d0 + _BAND_DIAGONALS, D)
        rows = (L + D - tables.band_shift[:, d0:d1]
                - _PARTNER * np.arange(d0, d1))
        cols += np.einsum("gbdm,gdm,gdm->gbm", tables.band_w[:, :, d0:d1],
                          *window[rows])
    out = np.bincount(tables.band_dest.ravel(), cols.ravel(), 2 * N + 1)
    gain = out[:N] + coag[0] + frag[1]
    gain[:-1] -= up
    gain[1:] += up
    gain[:-1] += frag[0, 1:]
    top = out[N:]
    top[:-1] += frag[2]
    # top cell t receives the lump and every complete cell below t
    above = np.cumsum(top[::-1])[::-1]
    gain += np.bincount(tables.lump_dest,
                        tables.lump_w * above[tables.lump_src], N)
    return gain / g.widths - density * death, death


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
_MAX_RHS_CALLS = 40_000              # work bound of one integration
_PAIR_BLOCK = 2 ** 13                # upper-triangle pairs per build block
_PANEL_ROWS = 128                    # pair triangle rows per panel
_BAND_DIAGONALS = 32                 # band diagonals per gather
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
    A step size below ``_DT_MIN`` of the horizon, or more than
    ``_MAX_RHS_CALLS`` right-hand sides before t_end, raises
    IntegrationError; the second names the cell with the largest h times
    death rate, the one that binds an explicit step."""
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

    densities = np.empty((out_times.size, f.size))
    densities[0] = f
    next_out = 1
    clipped_total = 0.0
    n_steps = n_rejected = 0
    err_prev = 1.0

    K = np.empty((7, f.size))          # stage slopes; K[0] is the slope at f
    K[0] = _rhs(tables, f)
    calls = 1
    scale = float(np.max(np.abs(K[0]))) if f.any() else 0.0
    dt = 0.01 / scale if scale > 0 else (t_end - t) / 100 or 1.0

    while t < t_end:
        last = dt >= t_end - t
        h = t_end - t if last else dt
        # the stages of a step too long for the stiffest cells can
        # overflow; the step's clip test or error is then not finite and
        # rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 6):
                K[i] = _rhs(tables, f + h * (_DP_A[i] @ K[:i]))
            calls += 5
            f_new, clipped = _clip(f + h * (_DP_A[6] @ K[:6]), g)
            mass_now = float((f_new * g.centers * g.widths).sum())
            clip_ok = clipped <= _CLIP_LIMIT * max(mass_now, atol)
            err = np.inf
            if clip_ok:
                K[6] = _rhs(tables, f_new)
                calls += 1
                err = float(np.max(np.abs(h * (_DP_E @ K))
                                   / (atol + control.rtol * np.abs(f))))

        if err <= 1.0:
            t_new = t_end if last else t + h
            while next_out < out_times.size and out_times[next_out] < t_new:
                theta = (out_times[next_out] - t) / h
                y, lost = _clip(f + h * (theta ** np.arange(1, 5)
                                         @ (_DP_P.T @ K)), g)
                densities[next_out] = y
                clipped_total += lost
                next_out += 1
            if next_out < out_times.size and out_times[next_out] == t_new:
                densities[next_out] = f_new
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
        if calls >= _MAX_RHS_CALLS and t < t_end:
            rate = h * _rates(tables, f)[1]
            cell = int(np.argmax(rate))
            raise IntegrationError(
                f"work out of reach: {calls} right-hand sides to t = {t!r} "
                f"of {t_end!r}, steps bound by cell {cell}",
                diagnostics={"t": t, "h": h, "rhs_calls": calls,
                             "binding_cell": cell,
                             "h_death_rate": float(rate[cell]),
                             "clipped_mass": clipped_total})

    return Trajectory(grid=g, times=out_times, densities=densities,
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
    ``_rates``, so phi = x gives the mass identity zeta_x = 0.  The
    identity's loss uses the gain kernel: with ``offgrid_loss`` the
    collisions that leave the grid are added back, from ``eval_kernel`` in
    row blocks, so that they show up as residual; without it the build
    cuts them.  Intervals use the trapezoid rule.
    Returns absolute and relative interval residuals; an interval where
    both sides vanish at rounding level counts as zero relative residual.
    """
    if len(trajectory) < 3:
        raise ConfigError("need at least 3 output times")
    c, dx = trajectory.grid.centers, trajectory.grid.widths
    phi_c = _phi_values(phi_kind, c)
    mphi = trajectory.densities @ (phi_c * dx)
    rates = np.array([(phi_c * dx) @ _rates(tables, density)[0]
                      for density in trajectory.densities])
    if tables.offgrid_loss:
        # the collisions off the grid, the raw kernel where c_i + c_j >=
        # n_trunc, in row blocks (without offgrid_loss the build cuts them)
        numbers = trajectory.densities * dx
        lost = np.empty_like(numbers)
        step = max(1, _PAIR_BLOCK // c.size)
        for r in range(0, c.size, step):
            x = c[r:r + step, None]
            lost[:, r:r + step] = numbers @ np.where(
                x + c < tables.n_trunc, 0.0,
                eval_kernel(tables.kernel, x, c)).T
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
