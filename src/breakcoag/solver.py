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
* Operator layout.  The symmetric kernel is held once, as the rate of
  each pair i <= j (diagonal halved), split by diagonal d = j - i.  The
  pairs d >= D sit in row panels of the flat ``gain_w``: panel p holds
  rows r_p = p ``_PANEL_ROWS`` up to the next panel's, and row i holds
  each table, then each gain block, from column r_p + D, all of width
  N - D - r_p, so a panel's corner below the diagonal D is zero.  A
  triangle block's sums take two GEMVs per panel, one from each side.
  The pairs d < D sit in ``band_rate``, (tables, D, N + 1): entry
  [b, d, i] is the pair (i, i + d), zero past the grid; the smaller
  partner reads row d at i, the larger at j - d through a view of row
  stride N.  Off the band a pair's coalescence lands on its larger
  partner's cell j and on j + 1 with the bracket weights
  1 - c_i / (c_{j+1} - c_j) and c_i / (c_{j+1} - c_j) (in the top cell on
  N - 1 alone, s / c_{N-1}), so the rate Ê = E rate gives it from
  ``(n, c n) @ Ê``.  On the band every pair of a diagonal has its lower
  bracket at l = j + sigma_d: the diagonals fall into classes of one
  sigma, and class q sums A = sum_i n_i Ê_ij and B = sum_i c_i n_i Ê_ij,
  then deposits U = ((c_j - c_l) A + B) / (c_{l+1} - c_l) at l + 1 and
  A - U at l, or (B + c_j A) / c_l at l alone where it ties on a centre
  or l is the top cell.  Under a constant E without ``offgrid_loss`` Ê
  is E times the death rate; otherwise it is a table of its own.  The
  pair laws add three tables, the fragment weights of the partial cell's
  brackets and of the top cell, landing at j - 1, j and the top cell j
  off the band and at one shift of j per diagonal and stream on it
  (clipped at both grid ends), in fragment classes; ``band_class`` holds
  each class's cells per j and each diagonal's classes.  Per chunk of
  ``_BAND_DIAGONALS`` diagonals a product forms n_i Ê and n_i times the
  fragment weights, and GEMMs with the 0/1 class membership sum them.
  D, the shifts and the classes depend on the grid, daughter and
  ``n_trunc`` only.  Ties at a center sit on it, a size on an edge keeps
  the cell below as its top cell, and a partial cell whose brackets both
  clamp onto cell 0 puts its class's lower bracket a cell below, so
  every pair is in the panels or the band (else the build raises).  The
  top-cell stream deposits every complete cell below the top: a suffix
  sum over the cells, applied to the O(N) per-lump table ``lump_*``.
  Under ``power_each`` both partners of a pair break at the rate
  F = (1 - E) K, E read at (c_i, c_j), i <= j, as coalescence reads it,
  so mass is kept for any E.  Parent j breaks like a pair of total size
  c_j (top cell j, partial cell [e_j, c_j] at j - 1 and j), spread by the
  (3, N) ``parent_w`` from (F n)_j: F is a second table, or the death
  rate if it is capped and E constant (1 - E then rides in
  ``parent_w``).  K and E enter only through these weights, and the
  weak-form residual reads its rates through the same ``_rates``.
* ``build_tables`` walks the pairs i <= j once, in row blocks of at most
  ``_PAIR_BLOCK`` pairs, reading E and K once per pair (a table kernel
  K(y, x) too, for the symmetry check), and filling every table in place:
  its peak memory is 1.11-1.12 times the table bytes at N = 800 (1.32 for
  the smallest, ``power_each`` at constant E), and the block size changes
  no bit of the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    gain_w: np.ndarray                 # row panels of the tables of _rows
    panel_off: np.ndarray              # (2, P + 1) first row, flat start
    parent_w: np.ndarray | None        # per-parent (3, N): cells j - 1, j, top j
    band_rate: np.ndarray              # (B, D, N + 1) [b, d, i]: pair (i, i + d)
    band_class: np.ndarray             # cells per class and j; the class of
                                       # each diagonal (see build_tables)
    lump_dest: np.ndarray              # (2N+1,) the sub-grid lump, then each
                                       # cell's bracketing centers
    lump_w: np.ndarray                 # (2N+1,) numbers per unit scale


def _frag_lump(nu, centers, lo, hi):
    """Fragment number and mass of the size interval [lo, hi] per unit
    scale, ``(nu + 2) int z^nu dz`` and ``(nu + 2) int z^(nu+1) dz``,
    remapped onto the centers as by ``_remap_points``."""
    num = (nu + 2.0) * ((hi ** (nu + 1.0) - lo ** (nu + 1.0)) / (nu + 1.0))
    mass = hi ** (nu + 2.0) - lo ** (nu + 2.0)
    return _remap_points(centers, mass / num, num)


def _frag_lumps(daughter: DaughterSpec, grid: Grid):
    """Fragment deposits per unit scale of the sub-grid lump and of each
    complete cell k, remapped onto centers, as (destination, weight)
    arrays: the lump, then each cell's lower brackets, then its upper
    ones.  A pair with top cell t receives the lump and the cells below t.
    """
    nu = daughter.nu
    e = grid.edges
    l1, l2, w1, w2 = _frag_lump(nu, grid.centers, e[:-1], e[1:])
    return (np.concatenate(([0], l1, l2)),
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
    n_tri, hat, frag0, n_blk = _rows(prob, offgrid_loss, daughter.per_parent)

    parent_w = None
    if daughter.per_parent:
        # parent j spreads its fragments like a pair of total size c_j
        _, _, pw1, pw2 = _frag_lump(daughter.nu, c, grid.edges[:-1], c)
        pw2[0], pw1[0] = pw1[0] + pw2[0], 0.0     # parent 0: cell 0 alone
        parent_w = np.array([pw1, pw2, np.ones(N)]) * c ** (-(daughter.nu + 1.0))
        if not hat:                           # 1 - E rides in the weights
            parent_w *= 1.0 - prob.params["value"]

    def streams(x, y, rate, E):
        """(destination, weight, live) per stream of pairs of sizes x <= y:
        the coalescence brackets' number weights per collision, then,
        unless per parent, the fragment weights at the gain rate ``rate``
        and coalescence probability ``E``; ``live``: the weights that
        geometry and n_trunc leave non-zero."""
        s = x + y
        live = s < n_trunc
        l1, l2, w1, w2 = _remap_points(c, y, 1.0, x)
        out = [(l1, w1, live & (w1 != 0)), (l2, w2, live & (w2 != 0))]
        if not daughter.per_parent:
            top, pl1, pl2, pw1, pw2 = _frag_partial(daughter, grid, s)
            frag = rate * (1.0 - E) * s ** (-(daughter.nu + 1.0))
            out += [(pl1, frag * pw1, live & (pw1 != 0)),
                    (pl2, frag * pw2, live & (pw2 != 0)),
                    (N + top, frag, live)]
        return out

    # streams: coalescence and partial-cell brackets (lower, upper), top
    # cell; off the band stream k deposits at base + j + offset
    S = 2 if daughter.per_parent else 5
    base = np.array([0, 0, 0, 0, N])[:S]
    offset = np.array([0, 1, -1, 0, 0])[:S]
    # the shift of each stream on diagonal d is read off the pair (0, d);
    # the band holds the diagonals below the last one where that pair
    # breaks the rule (its weights go unread)
    dest, _, live = map(np.array, zip(*streams(c[0], c, 1.0, 1.0)))
    shift = dest - base[:, None] - np.arange(N)
    off = np.any(live & (shift != offset[:, None]), axis=0)
    D = np.max(off.nonzero()[0] + 1, initial=0)

    def classes(*keys):
        """Classes as runs of one key: each diagonal's (past D, the class
        count) and each class's first diagonal."""
        keys = np.array(keys)[:, :D]
        new = np.r_[True, np.any(keys[:, 1:] != keys[:, :-1], axis=0)][:D]
        first = np.flatnonzero(new)
        return np.r_[np.cumsum(new) - 1, np.full(N - D, first.size)], first

    # coalescence on the band: runs of diagonals with one lower bracket
    # shift, split between two brackets or, for a tie, on one cell.  Class
    # q, or Q off the band, deposits the pairs of larger partner j at
    # l = min(j + shift, N - 1), or at N + l where on l alone (a tie, or
    # the top cell)
    single = ~live[1]
    cls, first = classes(shift[0], single)
    Q = first.size
    lower = np.arange(N) + np.append(shift[0, first], 0)[:, None]
    one = (lower >= N - 1) | np.append(single[first], False)[:, None]
    band_class = [np.minimum(lower, N - 1) + N * one]
    if S == 5:
        # F fragment classes, runs of one shift of the partial cell's lower
        # bracket (a cell lower where both of (0, d)'s clamp onto cell 0)
        # and top cell; rows Q + 1 + k F + f: f's lower, upper, N + top
        shift[2:4] = shift[2] - ((dest[2] == 0) & (dest[3] == 0)) + np.c_[0:2]
        fcls, first = classes(shift[2], shift[4])
        F = first.size
        cells = np.arange(N) + shift[2:, first, None]
        band_class += [(np.clip(cells, 0, N - 1, out=cells)
                        + base[2:, None, None]).reshape(-1, N), fcls]
        del cells                     # before the pair blocks
    band_class = np.vstack(band_class + [cls])

    # band_rate[b, d, i] is the pair (i, i + d) in table b, in the row
    # order of _rows.  Panel p holds rows [r_p, r_{p+1}) of the pairs
    # j - i >= D: row i holds each table from column r_p + D
    band_rate = np.zeros((n_blk, D, N + 1))
    rows = np.append(np.arange(0, N, _PANEL_ROWS), N)
    r = rows[:-1]
    wide = np.maximum(N - D - r, 0)
    panel_off = np.array([rows, np.r_[0, np.cumsum(np.diff(rows) * n_blk
                                                   * wide)]])
    gain_w = np.zeros(panel_off[1, -1])
    i = np.arange(N)
    p = i // _PANEL_ROWS
    # block b's entry (i, j) is gain_w[at[i] + b W_p + j], W_p = wide[p]
    at = panel_off[1, p] + (i - r[p]) * n_blk * wide[p] - r[p] - D

    # offgrid_loss drops the rate cap and keeps the raw kernel in the loss
    # term: pairs whose product leaves the grid still collide but produce
    # nothing representable, so mass genuinely leaks to large sizes — the
    # configuration used to observe gelation.  The default caps and cuts
    # both terms identically, which conserves mass exactly.
    r0 = 0
    while r0 < N:                 # row blocks of at most _PAIR_BLOCK pairs
        r1 = min(r0 + max(1, _PAIR_BLOCK // (N - r0)), N)
        iu, ju = r0 + np.array(np.triu_indices(r1 - r0, 0, N - r0))
        r0 = r1
        x, y = c[iu], c[ju]
        K = eval_kernel(kernel, x, y)
        # the analytic families are symmetric bit for bit, as + and *
        # commute; a table need not be
        if kernel.family == "table" and not np.allclose(
                eval_kernel(kernel, y, x), K, rtol=1e-12, atol=0):
            raise ConfigError("kernel must be symmetric, K(x, y) = K(y, x)")
        live = x + y < n_trunc
        if not offgrid_loss:
            np.minimum(K, n_trunc, out=K)
            K[~live] = 0.0
        # a diagonal pair is one collision type; an off-diagonal pair
        # stands for both orders, each at half the rate of the gain kernel
        d = ju - iu
        K[d == 0] *= 0.5
        band = d < D
        off = ~band
        db, ib, jb = d[band], iu[band], ju[band]
        cell = (at[iu] + ju)[off]
        width = wide[p[iu[off]]]

        def put(b, v):
            band_rate[b, db, ib] = v[band]
            gain_w[cell + b * width] = v[off]

        put(0, K)                     # the death triangle
        K[~live] = 0.0                # the gain rate, under offgrid_loss too
        # F reads E(c_i, c_j), i <= j, as coalescence does
        E = eval_E(prob, x, y)
        if n_tri == 2:
            put(1, (1.0 - E) * K)
        if hat:
            put(hat, E * K)
        out = streams(x, y, K, E)
        # every live stream must land where the band's classes or the rule
        # off it put it: a band pair's coalescence at l and l + 1, or at l
        # alone where its class's cell is N + l
        lo = band_class[cls[db], jb]
        for g, (dest_k, w, live_k) in enumerate(out):
            lands = base[g] + ju + offset[g]
            lands[band] = (lo % N + g if g < 2 else
                           band_class[Q + 1 + F * (g - 2) + fcls[db], jb])
            if np.any(live_k & (dest_k != lands)):
                raise RuntimeError("a pair lands off the band and the blocks")
            if g >= 2:
                put(frag0 + g - 2, w)
        # a band pair's coalescence splits between its class's brackets,
        # unless the class is a tie or its lower bracket is the top cell
        if np.any(out[1][2][band] != (live[band] & (lo < N))):
            raise RuntimeError("a band pair's coalescence leaves its class's "
                               "brackets")
        del out, dest_k, w, live_k    # before the next block's streams
    lump_dest, lump_w = _frag_lumps(daughter, grid)
    return OperatorTables(
        grid=grid, kernel=kernel, daughter=daughter, prob=prob,
        n_trunc=float(n_trunc), offgrid_loss=offgrid_loss, gain_w=gain_w,
        panel_off=panel_off, parent_w=parent_w, band_rate=band_rate,
        band_class=band_class, lump_dest=lump_dest, lump_w=lump_w)


def _rows(prob: ProbSpec, offgrid_loss: bool, per_parent: bool):
    """The tables stored, as rows of ``band_rate`` and blocks of a panel:
    the death triangle, F unless 1 - E rides in ``parent_w``, Ê unless it
    is E times the death triangle (row 0), a pair law's three fragment
    streams.  Returns (triangles, Ê's row, first fragment row, rows)."""
    shared = prob.form == "constant" and not offgrid_loss
    n_tri = 1 + (per_parent and not shared)
    frag0 = n_tri + (not shared)
    return n_tri, 0 if shared else n_tri, frag0, frag0 + 3 * (not per_parent)


def _rates(tables: OperatorTables, density: np.ndarray):
    """Rate of change of the density and the death rate
    ``sum_j K_ij n_j`` of each cell i."""
    g = tables.grid
    c = g.centers
    N = c.size
    number = density * g.widths
    rate = tables.band_rate
    D = rate.shape[1]
    n_tri, hat, frag0, _ = _rows(tables.prob, tables.offgrid_loss,
                                 tables.parent_w is not None)
    pairs = np.array([number, c * number])
    # the death rate and F n; the fragment gains at j - 1, j and top cell j
    sums = np.zeros((5, N))
    frag = sums[2:]
    # sum_i n_i Ê_ij and sum_i c_i n_i Ê_ij off the band
    coag = np.zeros((2, N))
    rows, off = tables.panel_off.tolist()
    for r0, r1, o0, o1 in zip(rows, rows[1:], off, off[1:]):
        W = N - D - r0
        if W <= 0:
            break
        panel = tables.gain_w[o0:o1].reshape(r1 - r0, -1)
        # row 0 gives the triangles' upper sides and the fragment gains,
        # both rows the sums of Ê
        Y = pairs[:, r0:r1] @ panel
        for b in range(n_tri):
            sums[b, r0 + D:] += Y[0, b * W:(b + 1) * W]
            sums[b, r0:r1] += panel[:, b * W:(b + 1) * W] @ number[r0 + D:]
        # adding into a view skips the copy back of ``a[:, i:] += ...``
        cols = coag[:, r0 + D:]
        cols += Y[:, hat * W:(hat + 1) * W]
        if tables.parent_w is None:
            gains = frag[:, r0 + D:]
            gains += Y[0, frag0 * W:].reshape(3, W)
    # numbers lumped by cell l (N + l: on l alone), and their heights
    # (c_i + c_j - c_l) over the lower bracket
    lumps = np.zeros((2, 2 * N))
    # the band's fragments by cell, then by top cell at N + t
    landed = np.zeros(2 * N + 1)
    scale = number if hat else number * tables.prob.params["value"]

    def deposit(part, cells):
        """Lump the classes' sums A = sum_i n_i Ê_ij and B = sum_i c_i n_i
        Ê_ij of larger partner j (2, classes, N) on their cells (classes,
        N): n_j A, and the height n_j ((c_j - c_l) A + B)."""
        part *= scale
        A, B = part.reshape(2, -1)
        rise = c.take(cells, mode="wrap")
        np.subtract(c, rise, out=rise)
        rise = rise.ravel()
        rise *= A
        rise += B
        lumps[0] += np.bincount(cells.ravel(), A, 2 * N)
        lumps[1] += np.bincount(cells.ravel(), rise, 2 * N)

    if not D:                                # class Q = 0 alone
        deposit(coag[:, None], tables.band_class[:1])
    else:
        # the smaller partner i reads row d of band_rate at i against
        # n_{i + d}; the larger j reads it at j - d, through a view of
        # row stride N whose entries j < d are the zeros past the grid
        cls = tables.band_class[-1]
        Q = cls[D - 1] + 1
        apart = np.zeros((2, D + N + D))     # (n, c n), D zeros each side
        apart[:, D:D + N] = pairs
        ahead = np.ndarray((D, N), buffer=apart, offset=8 * D,
                           strides=(8, 8))
        behind = np.ndarray((2, D, N), buffer=apart, offset=8 * D,
                            strides=(apart.strides[0], -8, 8))
        larger = np.ndarray((len(rate), D, N), buffer=rate,
                            strides=(rate.strides[0], 8 * N, 8))
        # member[q, d]: diagonal d is in class q; no diagonal in class Q
        member = (cls[:D] == np.arange(Q + 1)[:, None]) * 1.0
        # n_i times Ê, then times the fragment weights of a pair law
        prod = np.empty((len(rate) - hat, min(D, _BAND_DIAGONALS), N))
        if len(prod) > 1:
            # the fragment classes' sums, three streams each
            fcls = tables.band_class[-2]
            fmember = (fcls[:D] == np.arange(fcls[D - 1] + 1)[:, None]) * 1.0
            fsum = np.empty((3, len(fmember), N))
        for d0 in range(0, D, _BAND_DIAGONALS):
            d1 = min(d0 + _BAND_DIAGONALS, D)
            n = d1 - d0
            for b in range(n_tri):
                sums[b] += np.vecdot(rate[b, d0:d1, :N], ahead[d0:d1],
                                     axis=0)
                if b or hat:
                    sums[b] += np.vecdot(larger[b, d0:d1], behind[0, d0:d1],
                                         axis=0)
            # the sums of the chunk's classes, a class's part of them; the
            # last chunk's take the pairs off the band, class Q, along
            q0, q1 = cls[d0], cls[d1 - 1] + 1 if d1 < D else Q + 1
            part = np.empty((2, q1 - q0, N))
            np.multiply(larger[hat:, d0:d1], behind[0, d0:d1],
                        out=prod[:, :n])
            np.matmul(member[q0:q1, d0:d1], prod[0, :n], out=part[0])
            if len(prod) > 1:
                # a class begun in the last chunk keeps its sum so far
                f0, f1 = fcls[d0], fcls[d1 - 1] + 1
                begun = fsum[:, f0].copy() if d0 and fcls[d0 - 1] == f0 else 0
                np.matmul(fmember[f0:f1, d0:d1], prod[1:, :n],
                          out=fsum[:, f0:f1])
                fsum[:, f0] += begun
            np.multiply(larger[hat, d0:d1], behind[1, d0:d1], out=prod[0, :n])
            np.matmul(member[q0:q1, d0:d1], prod[0, :n], out=part[1])
            if not hat:
                sums[0] += part[0].sum(axis=0)
            if d1 == D:
                part[:, -1] += coag
            deposit(part, tables.band_class[q0:q1])
        if len(prod) > 1:
            # times n_j, on the classes' cells
            fsum *= number
            landed = np.bincount(tables.band_class[Q + 1:-2].ravel(),
                                 fsum.ravel(), 2 * N + 1)
    sums[2:] *= number
    if tables.parent_w is not None:
        # n_j times (F n)_j breaks parent j, or the death rate K n with
        # the constant 1 - E in parent_w
        frag = tables.parent_w * (number * sums[n_tri - 1])
    # a lump at l of height h and number n: n - h / (c_{l+1} - c_l) there
    # and h / (c_{l+1} - c_l) at l + 1, or all of it on l alone, as
    # (n c_l + h) / c_l
    num, rise = lumps
    up = rise[:N - 1] / (c[1:] - c[:-1])
    gain = num[:N] + num[N:] + rise[N:] / c + frag[1]
    gain[:-1] += frag[0, 1:] - up
    gain[1:] += up
    gain += landed[:N]
    top = landed[N:]
    top[:-1] += frag[2]
    # top cell t receives the lump and every complete cell below t
    above = np.cumsum(top[::-1])[::-1]
    gain += np.bincount(tables.lump_dest,
                        tables.lump_w * np.concatenate((above, above[1:])), N)
    return gain / g.widths - density * sums[0], sums[0]


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
_PAIR_BLOCK = 2 ** 12                # upper-triangle pairs per build block
_PANEL_ROWS = 128                    # pair triangle rows per panel
_BAND_DIAGONALS = 32                 # band diagonals per chunk
_TIE_ULPS = 1024                     # a lump this close to a center sits on it


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
