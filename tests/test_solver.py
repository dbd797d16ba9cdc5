import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import RK45, quad, solve_ivp

import breakcoag as bc
from breakcoag import solver
from breakcoag.daughter import eval_E
from breakcoag.errors import ConfigError
from breakcoag.kernels import eval_kernel
from breakcoag.solver import (_DP_A, _DP_E, _DP_P, _frag_partial,
                              _remap_points, _rhs)


def dense_kernels(tables):
    """The dense kernel reference, evaluated from the scenario rather than
    read off the tables: the gain kernel, ``min(K, n_trunc)`` (the raw K
    with ``offgrid_loss``) where ``c_i + c_j < n_trunc`` and 0 elsewhere;
    the death kernel, the gain kernel or with ``offgrid_loss`` the raw K;
    and E, all (N, N)."""
    c = tables.grid.centers
    x, y = c[:, None], c[None, :]
    K = eval_kernel(tables.kernel, x, y)
    if not tables.offgrid_loss:
        K = np.minimum(K, tables.n_trunc)
    gain = np.where(x + y < tables.n_trunc, K, 0.0)
    return (gain, K if tables.offgrid_loss else gain,
            np.broadcast_to(eval_E(tables.prob, x, y), gain.shape))


def dense_deposits(tables):
    """The dense reference: (N, N) per-pair deposit tables for every ordered
    pair of cell centers: the coalescence brackets and number weights
    ``coag_*`` (weights zero where the kernel is) and, unless the daughter
    is per-parent, the fragment top cell, scale and partial-cell brackets
    and weights ``frag_*``."""
    c = tables.grid.centers
    s = np.add.outer(c, c)
    # the larger size with the smaller as the extra: the pair's height
    # above its lower bracket is exact when that is the larger's center
    l1, l2, w1, w2 = _remap_points(c, np.maximum.outer(c, c), np.ones_like(s),
                                   np.minimum.outer(c, c))
    active = dense_kernels(tables)[0] > 0
    deposits = {"coag_l1": l1, "coag_l2": l2,
                "coag_w1": np.where(active, w1, 0.0),
                "coag_w2": np.where(active, w2, 0.0)}
    if tables.daughter.per_parent:
        return deposits
    top, pl1, pl2, pw1, pw2 = _frag_partial(tables.daughter, tables.grid, s)
    return deposits | {"frag_top": top,
                       "frag_w": s ** (-(tables.daughter.nu + 1.0)),
                       "frag_pl1": pl1, "frag_pl2": pl2,
                       "frag_pw1": pw1, "frag_pw2": pw2}


def dense_fragments(tables):
    """The dense fragment reference: ``prefix`` (N+1, N), whose row t holds
    the fragment numbers deposited per unit scale from the sub-grid lump
    and every complete cell below t, and, for a per-parent daughter,
    ``parent`` (N, N), whose row i holds the deposits of one breakage of a
    parent in cell i (None otherwise)."""
    g = tables.grid
    N = g.cell_count
    nu = tables.daughter.nu
    e = g.edges

    def lump(lo, hi):
        # (nu + 2) int_lo^hi z^nu dz fragments of mass (nu + 2) int z^(nu+1)
        num = (nu + 2.0) * ((hi ** (nu + 1.0) - lo ** (nu + 1.0)) / (nu + 1.0))
        mass = hi ** (nu + 2.0) - lo ** (nu + 2.0)
        return _remap_points(g.centers, mass / num, num)

    l1, l2, w1, w2 = lump(e[:-1], e[1:])
    cells = np.zeros((N + 1, N))          # row k + 1: deposits of cell k
    cells[0, 0] = e[0] ** (nu + 2.0) / g.centers[0]
    np.add.at(cells, (np.arange(1, N + 1), l1), w1)
    np.add.at(cells, (np.arange(1, N + 1), l2), w2)
    prefix = np.cumsum(cells, axis=0)
    if not tables.daughter.per_parent:
        return prefix, None
    # parent i: every complete cell below i, and the partial cell [e_i, c_i]
    pl1, pl2, pw1, pw2 = lump(e[:-1], g.centers)
    w = g.centers ** (-(nu + 1.0))
    parent = prefix[:N] * w[:, None]
    np.add.at(parent, (np.arange(N), pl1), w * pw1)
    np.add.at(parent, (np.arange(N), pl2), w * pw2)
    return prefix, parent


def dense_panels(tables):
    """The row panels read back as dense (N, N) arrays: the death kernel,
    the stored upper triangle mirrored with its halved diagonal doubled
    back; Ê, the coalescence rate of each pair j - i >= D (E times the
    death triangle where no table of its own is stored); and the fragment
    gain blocks (n, N, N), entry [b, i, j] the weight of the pair (i, j)
    in block b, zero on the band's diagonals and wherever no panel
    reaches."""
    N = tables.grid.cell_count
    D = tables.band_w.shape[2]
    rows, off = tables.panel_off
    assert rows[0] == 0 and rows[-1] == N and off[-1] == tables.gain_w.size
    shared = solver._shares_death(tables.prob, tables.offgrid_loss)
    tri = np.zeros((N, N))
    blocks = np.zeros((int(not shared) + 3 * (tables.parent_w is None),
                       N, N))
    for r0, r1, o0, o1 in zip(rows, rows[1:], off, off[1:]):
        panel = tables.gain_w[o0:o1].reshape(r1 - r0, -1)
        tri[r0:r1, r0:] = panel[:, :N - r0]
        blocks[:, r0:r1, r0 + D:] = panel[:, N - r0:].reshape(
            r1 - r0, len(blocks), max(N - D - r0, 0)).transpose(1, 0, 2)
    i, j = np.indices((N, N))
    assert not tri[i > j].any()
    if not shared:
        return tri + tri.T, blocks[0], blocks[1:]
    hat = np.where(j - i >= D, tables.prob.params["value"] * tri, 0.0)
    return tri + tri.T, hat, blocks


def _reference_rhs(tables, density):
    """Slow evaluation straight from the dense kernels, per-pair and
    fragment tables; the production path uses the row panels, the
    breakage block, the band and the suffix sum and must agree."""
    g = tables.grid
    N = g.cell_count
    d = dense_deposits(tables)
    prefix, parent = dense_fragments(tables)
    number = density * g.widths
    K_gain, K_death, E = dense_kernels(tables)
    R = K_gain * np.outer(number, number)
    # a pair i <= j coalesces, and under a pair law breaks, with
    # E(c_i, c_j); each parent breaks with E(its size, its partner's)
    pair_E = np.triu(E) + np.triu(E, 1).T
    Rc = 0.5 * pair_E * R
    Rb = 0.5 * (1.0 - (pair_E if parent is None else E)) * R
    gain = np.zeros(N)
    np.add.at(gain, d["coag_l1"].ravel(), (Rc * d["coag_w1"]).ravel())
    np.add.at(gain, d["coag_l2"].ravel(), (Rc * d["coag_w2"]).ravel())
    if parent is not None:
        gain += (2.0 * Rb.sum(axis=1)) @ parent
    else:
        Q = Rb * d["frag_w"]
        T = np.zeros(N + 1)
        np.add.at(T, d["frag_top"].ravel(), Q.ravel())
        gain += T @ prefix
        np.add.at(gain, d["frag_pl1"].ravel(), (Q * d["frag_pw1"]).ravel())
        np.add.at(gain, d["frag_pl2"].ravel(), (Q * d["frag_pw2"]).ravel())
    death = density * (K_death @ number)
    return gain / g.widths - death


def _tables(grid, kernel=None, daughter=None, prob=None, **kw):
    return bc.build_tables(grid,
                           kernel or bc.KernelSpec.sum_product(0.0, 1.0),
                           grid.x_max,
                           daughter or bc.DaughterSpec.power_total(0.0),
                           prob or bc.ProbSpec.constant(0.5), **kw)


def _held_bytes(tables):
    """Bytes of the buffers the tables hold, each view counted once."""
    roots = {}
    for v in vars(tables).values():
        if isinstance(v, np.ndarray):
            while v.base is not None:
                v = v.base
            roots[id(v)] = v
    return sum(a.nbytes for a in roots.values())


def _bracket_split(centers, zbar, num):
    """The bracket split of one lump without the tie rule."""
    n = centers.size
    j = int(np.searchsorted(centers, zbar))
    if j == 0 or j == n:
        m = min(j, n - 1)
        return m, m, num * zbar / centers[m], 0.0
    w2 = num * (zbar - centers[j - 1]) / (centers[j] - centers[j - 1])
    return j - 1, j, num - w2, w2


class TestRemapPoints:
    @pytest.mark.parametrize("m", [0, 20, 47])
    def test_lump_near_a_centre_sits_on_it(self, m):
        c = bc.make_grid(1.0, 2.0 ** 12, 48).centers
        ulp = np.spacing(c[m])
        k = np.concatenate((np.arange(-8, 9),
                            [-solver._TIE_ULPS, solver._TIE_ULPS]))
        zbar = c[m] + k * ulp
        l1, l2, w1, w2 = _remap_points(c, zbar, 3.0)
        assert np.all(l1 == m) and np.all(l2 == min(m + 1, c.size - 1))
        assert np.all(w2 == 0.0)
        # mass kept, the number off by the lump's distance in ulps
        assert_allclose(w1 * c[m], 3.0 * zbar, rtol=4e-16, atol=0.0)
        assert np.all(np.abs(w1 - 3.0) <= 3.0 * (np.abs(k) + 2) * ulp / c[m])

    @pytest.mark.parametrize("m", [0, 20, 47])
    def test_lump_just_outside_the_tie_splits_as_before(self, m):
        c = bc.make_grid(1.0, 2.0 ** 12, 48).centers
        for k in (-solver._TIE_ULPS - 1, solver._TIE_ULPS + 1):
            zbar = c[m] + k * np.spacing(c[m])
            got = [float(x) for x in _remap_points(c, zbar, 3.0)]
            assert got == [float(x) for x in _bracket_split(c, zbar, 3.0)]


class TestFragPartial:
    @pytest.mark.parametrize("nu", [0.0, -0.5, 1.5])
    @pytest.mark.parametrize("t", [1, 20, 47])
    def test_size_just_above_an_edge_keeps_the_cell_below(self, t, nu):
        g = bc.make_grid(1.0, 2.0 ** 12, 48)
        e, c = g.edges, g.centers
        k = np.arange(solver._TIE_ULPS + 2)
        s = e[t] + k * np.spacing(e[t])
        top, l1, l2, w1, w2 = _frag_partial(bc.DaughterSpec.power_total(nu),
                                            g, s)
        assert np.all(top[:-1] == t - 1) and top[-1] == t
        # the partial cell [e_top, s] is never empty; its deposit holds
        # its mass, (nu + 2) int z^(nu+1) dz per unit scale
        mass = s ** (nu + 2.0) - e[top] ** (nu + 2.0)
        assert np.all(mass > 0)
        assert_allclose(w1 * c[l1] + w2 * c[l2], mass, rtol=1e-13, atol=0.0)


class TestBuildTables:
    def test_constant_kernel_table_values(self, small_grid):
        t = _tables(small_grid, kernel=bc.KernelSpec.constant(2.0))
        g = small_grid
        s = np.add.outer(g.centers, g.centers)
        inside = s < g.x_max
        K_death = dense_panels(t)[0]
        assert np.all(K_death[inside] == 2.0)
        assert np.all(K_death[~inside] == 0.0)

    def test_tables_built_with_pure_coagulation(self, small_grid):
        t = _tables(small_grid, prob=bc.ProbSpec.constant(1.0))
        assert t.lump_w.any()              # tables exist, weights kill them

    def test_fragment_cell_oracle(self, small_grid):
        spec = bc.DaughterSpec.uniform()
        g = small_grid
        x, y = g.centers[10], g.centers[40]
        s = x + y
        for k in (0, 5, 20):
            lo, hi = min(g.edges[k], s), min(g.edges[k + 1], s)
            num = (bc.partial_moment_integral(spec, 0.0, hi, x, y)
                   - bc.partial_moment_integral(spec, 0.0, lo, x, y))
            oracle = quad(lambda z: 2.0 / s, lo, hi)[0] if hi > lo else 0.0
            assert_allclose(num, oracle, rtol=1e-12)

    def test_no_dense_table_beside_the_operator(self):
        N = 200
        g = bc.make_grid(1e-3, 1e3, N)
        axis = np.geomspace(1e-3, 1e3, 5)
        table = bc.ProbSpec.table(axis, axis, 0.2 + 0.1 * np.add.outer(
            np.arange(5), np.arange(5)))
        # constant, floor and table E, and offgrid_loss; the death
        # triangle and the gain blocks sit in the flat panels, and
        # per-parent breakage reads the death rate when 1 - E folds into
        # its weights, a breakage block of its own otherwise
        for kw in ({}, {"prob": bc.ProbSpec.small_volume_floor(0.6, 0.2)},
                   {"prob": table}, {"offgrid_loss": True}):
            fold = "prob" not in kw and "offgrid_loss" not in kw
            for daughter, own in ((bc.DaughterSpec.power_total(0.0), False),
                                  (bc.DaughterSpec.power_each(0.0),
                                   not fold)):
                t = _tables(g, kernel=bc.KernelSpec.constant(1.0),
                            daughter=daughter, **kw)
                assert t.gain_w.ndim == 1
                dense = {name for name, v in vars(t).items()
                         if isinstance(v, np.ndarray)
                         and sum(n >= N for n in v.shape) >= 2}
                assert dense == ({"stack"} if own else set()), kw
                assert own == (t.stack is not None)

    @pytest.mark.parametrize("kw", [
        {},
        {"daughter": bc.DaughterSpec.power_each(0.0),
         "kernel": bc.KernelSpec.constant(1.0)},
        {"daughter": bc.DaughterSpec.uniform()},
        {"offgrid_loss": True, "kernel": bc.KernelSpec.product()},
        {"kernel": bc.KernelSpec.sum_product(-0.25, 0.5),
         "prob": bc.ProbSpec.small_volume_floor(0.6, 0.2, 0.3905)},
    ], ids=["power_total", "power_each", "uniform", "offgrid_loss",
            "singular"])
    def test_pair_block_size_does_not_matter(self, small_grid, monkeypatch,
                                             kw):
        # 5050 pairs: blocks of 7 end mid-diagonal, and the last holds 3
        one = _tables(small_grid, **kw)
        monkeypatch.setattr(solver, "_PAIR_BLOCK", 7)
        blocked = _tables(small_grid, **kw)
        for name, v in vars(one).items():
            if isinstance(v, np.ndarray):
                w = getattr(blocked, name)
                assert v.dtype == w.dtype and np.array_equal(v, w), name
        if kw.get("offgrid_loss"):
            state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                      small_grid)
            control = bc.StepControl(t_end=0.5, output_times=(0.25,))
            assert np.array_equal(bc.integrate(one, state, control).densities,
                                  bc.integrate(blocked, state,
                                               control).densities)

    @pytest.mark.parametrize("kw", [
        {},
        {"daughter": bc.DaughterSpec.power_each(0.0)},
        {"daughter": bc.DaughterSpec.power_each(0.0),
         "prob": bc.ProbSpec.small_volume_floor(0.6, 0.2, 0.3905)},
        {"daughter": bc.DaughterSpec.power_each(0.0), "offgrid_loss": True},
    ], ids=["power_total", "power_each", "power_each-floor",
            "power_each-offgrid_loss"])
    def test_build_peak_close_to_table_bytes(self, kw):
        # tracemalloc sees numpy's buffers; RSS would add allocator noise
        g = bc.make_grid(1e-4, 1e3, 800)
        tracemalloc.start()
        try:
            t = _tables(g, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * _held_bytes(t)

    def test_build_transient_of_the_linear_workload(self):
        # what one pair block keeps alive beside the 3.07 MB of tables
        # the build returns: about 290 B per pair
        tracemalloc.start()
        try:
            t = _tables(bc.make_grid(1e-4, 1e3, 300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - _held_bytes(t) <= 2.5e6

    def test_gain_panels_hold_the_pair_triangle(self):
        # the linear workload's operator: the death triangle and three
        # fragment blocks of the pairs j - i >= D, and no coalescence
        # block, as Ê is E times the death triangle
        N = 300
        t = _tables(bc.make_grid(1e-4, 1e3, N))
        D, B = t.band_w.shape[2], solver._PANEL_ROWS
        rows = np.append(np.arange(0, N, B), N)
        # each panel's rows from its first row's diagonal on, zero corner
        # included
        cells = np.diff(rows) * (N - rows[:-1]
                                 + 3 * np.maximum(N - D - rows[:-1], 0))
        assert t.gain_w.size == cells.sum()
        assert np.array_equal(t.panel_off, [rows, np.append(0, np.cumsum(
            cells))])

    def test_fine_grid_operator_holds_the_kernel_once(self):
        # the fine-grid workload's operator: per-parent, constant E, so the
        # death triangle is its only pair table beside the band
        N = 800
        t = _tables(bc.make_grid(1e-4, 1e3, N),
                    daughter=bc.DaughterSpec.power_each(0.0))
        B = solver._PANEL_ROWS
        panels = -(-N // B)
        # the pairs i <= j, plus the zero corner of each panel
        tri = N * (N + 1) // 2 + panels * B * (B - 1) // 2
        assert t.gain_w.size <= tri
        assert _held_bytes(t) <= 8 * (tri + 16 * N) + t.band_w.nbytes

    @pytest.mark.parametrize("grid, daughter, rate", [
        ((1e-3, 1e3, 3), bc.DaughterSpec.power_total(-0.39), 1.0),
        ((1.0, 2.0 ** 12, 48), bc.DaughterSpec.power_total(0.0), 1e-2),
        ((1.0, 2.0 ** 12, 48), bc.DaughterSpec.power_each(0.0), 1e-2),
    ], ids=["coarse", "doubling-power_total", "doubling-power_each"])
    def test_boundary_pairs_ride_the_band(self, grid, daughter, rate):
        # coarse: the partial cell of the pair (0, 0) lies below c_0, so
        # both its brackets clamp onto cell 0, one cell below the shift
        # that (1, 1) and (2, 2) keep.  Doubling: on edges at ratio
        # 2^(1/4), 2 c_i falls on a cell centre up to rounding, and the
        # tie rule puts every pair (i, i) on that centre
        g = bc.make_grid(*grid)
        t = _tables(g, daughter=daughter)
        density = bc.sample_initial(bc.InitialCondition.exponential(rate),
                                    g).density
        ref = _reference_rhs(t, density)
        death = density * (dense_panels(t)[0] @ (density * g.widths))
        assert np.all(np.abs(_rhs(t, density) - ref)
                      <= 1e-12 * (np.abs(ref + death) + death))
        if grid[2] == 3:
            # column m of the partial-cell bracket pair holds the pair
            # (0, 0) at m = shift, (1, 1) at m = shift + 1
            assert t.band_w.shape[2] >= 1
            m = t.band_shift[1, 0]
            assert t.band_w[1, 0, 0, m] > 0
            assert np.all(t.band_dest[1, :, m] == 0)
            assert t.band_dest[1, 0, m + 1] == 0

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("grid, daughter, rate", [
        ((1e-3, 8e-3, 5), bc.DaughterSpec.power_total(0.0), 1.0),
        ((1e-3, 1e3, 3), bc.DaughterSpec.power_total(-0.39), 1.0),
        ((1.0, 2.0 ** 12, 48), bc.DaughterSpec.power_total(0.0), 1e-2),
        ((1.0, 2.0 ** 12, 48), bc.DaughterSpec.power_each(0.0), 1e-2),
    ], ids=["band-only", "coarse", "doubling-power_total",
            "doubling-power_each"])
    def test_panel_rows_do_not_matter(self, monkeypatch, grid, daughter,
                                      rate, rows):
        # rows=None: one panel of N rows.  band-only: every pair lies on
        # the band's D = N diagonals, so the panels hold the death
        # triangle alone.  The band is gathered as many diagonals at once
        g = bc.make_grid(*grid)
        N = g.cell_count
        monkeypatch.setattr(solver, "_PANEL_ROWS", rows or N)
        monkeypatch.setattr(solver, "_BAND_DIAGONALS", rows or N)
        t = _tables(g, daughter=daughter)
        D = t.band_w.shape[2]
        first = t.panel_off[0]
        assert first.size - 1 == -(-N // (rows or N))
        if grid[1] == 8e-3:
            assert D == N
            assert t.gain_w.size == np.diff(first) @ (N - first[:-1])
        density = bc.sample_initial(bc.InitialCondition.exponential(rate),
                                    g).density
        ref = _reference_rhs(t, density)
        death = density * (dense_panels(t)[0] @ (density * g.widths))
        assert np.all(np.abs(_rhs(t, density) - ref)
                      <= 1e-12 * (np.abs(ref + death) + death))

    def test_band_carries_every_pair_of_the_grid_families(self):
        # doubling grids, whose diagonal pairs tie, and coarse grids, whose
        # pair (0, 0) clamps at cell 0 under nu < 0: the build raises if a
        # live stream lands off both the band and the GEMV blocks.  On the
        # last three doubling grids 2 c_i is up to 39 ulps off its centre
        doubling = [(1e-3, 1e-3 * 2.0 ** (n / q), n)
                    for q in range(1, 5) for n in range(2, 41)] + [
            (x, x * 2.0 ** (n / q), n) for x, n, q in (
                (4.927562987105478, 56, 4), (0.25551993632134934, 60, 1),
                (9.892635442357246, 36, 1))]
        coarse = [(1e-3, 1e3, n) for n in range(2, 13)]
        families = [
            (doubling, [bc.DaughterSpec.power_total(0.0),
                        bc.DaughterSpec.power_total(-0.5),
                        bc.DaughterSpec.power_each(0.0)]),
            (coarse, [bc.DaughterSpec.power_total(nu)
                      for nu in (-0.9, -0.5, -0.39)])]
        clamps = 0
        for grids, daughters in families:
            for grid in grids:
                g = bc.make_grid(*grid)
                for daughter in daughters:
                    for n_trunc in (g.x_max, 0.6 * g.x_max):
                        t = bc.build_tables(
                            g, bc.KernelSpec.sum_product(0.0, 1.0), n_trunc,
                            daughter, bc.ProbSpec.constant(0.5))
                        # a padded band sends its first two columns to cell 0
                        clamps += (t.band_w.shape[2] > 0
                                   and t.band_dest[0, 0, 1] == 0)
        assert clamps > 0

    @pytest.mark.parametrize("daughter", [
        bc.DaughterSpec.power_total(0.0), bc.DaughterSpec.power_total(-0.5),
        bc.DaughterSpec.power_total(1.5), bc.DaughterSpec.uniform()],
        ids=["nu=0", "nu=-0.5", "nu=1.5", "uniform"])
    def test_grids_of_cell_ratio_4_to_the_one_over_k(self, daughter):
        # r^k = 4 for odd k: 2 c_i falls on a cell edge up to rounding, and
        # the pair's top cell stays the cell below whichever side it lands
        rng = np.random.default_rng(4)
        for x0, k, n in itertools.product((1e-3, 0.2555, 7.0), (1, 3),
                                          (2, 5, 13, 40)):
            g = bc.make_grid(x0, x0 * 4.0 ** (n / k), n)
            t = _tables(g, daughter=daughter)
            density = rng.random(n)
            rate = _rhs(t, density)
            ref = _reference_rhs(t, density)
            death = density * (dense_panels(t)[0] @ (density * g.widths))
            terms = np.abs(ref + death) + death
            assert np.all(np.abs(rate - ref) <= 1e-12 * terms)
            # gains and losses nearly cancel in some cells, so the mass
            # rate is measured against the sum of both
            mass = g.centers * g.widths
            assert abs(mass @ rate) <= 1e-14 * (mass @ terms)

    @pytest.mark.parametrize("N, kernel, daughter, prob", [
        (120, bc.KernelSpec.sum_product(-0.25, 0.5),
         bc.DaughterSpec.power_total(0.0),
         bc.ProbSpec.small_volume_floor(0.6, 0.2)),
        (300, bc.KernelSpec.sum_product(0.0, 1.0),
         bc.DaughterSpec.power_total(0.0), bc.ProbSpec.constant(0.5)),
        (800, bc.KernelSpec.sum_product(0.0, 1.0),
         bc.DaughterSpec.power_each(0.0), bc.ProbSpec.constant(0.5)),
    ], ids=["singular-suite", "linear", "fine-grid"])
    def test_no_boundary_pairs_on_the_workload_grids(self, N, kernel,
                                                     daughter, prob):
        t = _tables(bc.make_grid(1e-4, 1e3, N), kernel=kernel,
                    daughter=daughter, prob=prob)
        assert t.band_w.any()

    @pytest.mark.parametrize("grid, daughter", [
        ((1e-3, 1e3, 3), bc.DaughterSpec.power_total(-0.39)),
        ((1e-4, 1e3, 300), bc.DaughterSpec.power_total(0.0)),
        ((1e-4, 1e3, 300), bc.DaughterSpec.power_each(0.0)),
    ], ids=["boundary", "power_total", "power_each"])
    def test_band_layout_does_not_depend_on_E(self, grid, daughter):
        g = bc.make_grid(*grid)
        layouts = []
        for E in (0.0, 0.5, 1.0):
            t = _tables(g, daughter=daughter, prob=bc.ProbSpec.constant(E))
            layouts.append((t.band_w.shape, t.band_shift, t.band_dest))
        for layout in layouts[1:]:
            for a, b in zip(layouts[0], layout):
                assert np.array_equal(a, b)

    def test_uniform_half_cell_integral(self):
        # destination cell (1, 2) for a pair with x + y = 4
        spec = bc.DaughterSpec.uniform()
        val = (bc.partial_moment_integral(spec, 0.0, 2.0, 2.0, 2.0)
               - bc.partial_moment_integral(spec, 0.0, 1.0, 2.0, 2.0))
        assert_allclose(val, 0.5)

    def test_per_parent_requires_alpha_zero(self, small_grid):
        with pytest.raises(ConfigError):
            bc.build_tables(small_grid, bc.KernelSpec.sum_product(-0.25, 0.5),
                            small_grid.x_max, bc.DaughterSpec.power_each(0.0),
                            bc.ProbSpec.constant(0.5))

    def test_n_trunc_beyond_grid_rejected(self, small_grid):
        with pytest.raises(ConfigError):
            bc.build_tables(small_grid, bc.KernelSpec.additive(),
                            small_grid.x_max * 2.0,
                            bc.DaughterSpec.uniform(),
                            bc.ProbSpec.constant(0.5))

    @pytest.mark.parametrize("block", [7, 2 ** 14])
    def test_asymmetric_kernel_rejected(self, monkeypatch, block):
        # K(x_a, y_b) = a + 1 grows in x only; its axes differ in the last
        # point, so the table itself passes the shared-axis symmetry check
        x = np.geomspace(1e-3, 1e2, 5)
        y = np.geomspace(1e-3, 1.0001e2, 5)
        K = np.repeat(np.arange(1.0, 6.0)[:, None], 5, axis=1)
        kernel = bc.KernelSpec.table(x, y, K)
        monkeypatch.setattr(solver, "_PAIR_BLOCK", block)
        g = bc.make_grid(1e-3, 1e2, 60)
        with pytest.raises(ConfigError, match="symmetric"):
            bc.build_tables(g, kernel, g.x_max,
                            bc.DaughterSpec.power_total(0.0),
                            bc.ProbSpec.constant(0.5))


class TestApplyRhs:
    def test_zero_state_zero_rate(self, small_grid):
        t = _tables(small_grid)
        state = bc.State(grid=small_grid,
                         density=np.zeros(small_grid.cell_count))
        assert_allclose(bc.apply_rhs(t, state), 0.0)

    def test_packed_path_matches_dense_reference(self, small_grid):
        rng = np.random.default_rng(11)
        f = rng.random(small_grid.cell_count)
        for kw in ({},
                   {"kernel": bc.KernelSpec.smoluchowski()},
                   {"daughter": bc.DaughterSpec.power_total(-0.5)},
                   {"daughter": bc.DaughterSpec.power_each(0.0),
                    "kernel": bc.KernelSpec.constant(1.0)},
                   {"daughter": bc.DaughterSpec.power_each(0.5),
                    "prob": bc.ProbSpec.small_volume_floor(0.6, 0.2, 0.3905)},
                   {"daughter": bc.DaughterSpec.power_each(0.0),
                    "kernel": bc.KernelSpec.product(), "offgrid_loss": True},
                   {"prob": bc.ProbSpec.constant(1.0)}):
            t = _tables(small_grid, **kw)
            assert_allclose(_rhs(t, f), _reference_rhs(t, f),
                            rtol=1e-12, atol=1e-12)

    def test_breakage_gain_dead_when_E_is_one(self, small_grid):
        rng = np.random.default_rng(3)
        f = rng.random(small_grid.cell_count)
        a = _tables(small_grid, daughter=bc.DaughterSpec.uniform(),
                    prob=bc.ProbSpec.constant(1.0))
        b = _tables(small_grid, daughter=bc.DaughterSpec.power_total(1.5),
                    prob=bc.ProbSpec.constant(1.0))
        assert_allclose(_rhs(a, f), _rhs(b, f), rtol=1e-12, atol=1e-14)

    def test_two_cell_hand_value(self):
        g = bc.make_grid(1.0, 4.0, 2)   # centers sqrt(2), 2*sqrt(2)
        t = bc.build_tables(g, bc.KernelSpec.constant(1.0), g.x_max,
                            bc.DaughterSpec.uniform(), bc.ProbSpec.constant(1.0))
        a = 0.7
        f = np.array([a, 0.0])
        # pair (0,0): rate 0.5*a^2 lands exactly at 2*sqrt(2) = c_1;
        # losses remove both partners from cell 0.
        rhs = _rhs(t, f)
        assert_allclose(rhs, [-a ** 2, a ** 2 / 2.0 / g.widths[1]],
                        rtol=1e-12)
        # discrete mass balance of the hand value
        assert_allclose(np.sum(g.centers * g.widths * rhs), 0.0, atol=1e-15)

    def test_mass_is_invariant_of_exact_rhs(self, small_grid):
        rng = np.random.default_rng(5)
        f = rng.random(small_grid.cell_count)
        for kw in ({}, {"daughter": bc.DaughterSpec.power_each(0.0),
                        "kernel": bc.KernelSpec.constant(1.0)}):
            t = _tables(small_grid, **kw)
            rate = _rhs(t, f)
            mass_rate = np.sum(small_grid.centers * small_grid.widths * rate)
            scale = np.sum(np.abs(rate) * small_grid.centers
                           * small_grid.widths)
            assert abs(mass_rate) <= 1e-13 * scale


class TestStepAndIntegrate:
    def test_zero_rhs_state_unchanged(self, small_grid):
        t = _tables(small_grid)
        state = bc.State(grid=small_grid,
                         density=np.zeros(small_grid.cell_count))
        traj = bc.integrate(t, state, bc.StepControl(t_end=0.1))
        assert_allclose(traj.densities, 0.0)

    def test_constant_kernel_number_oracle(self):
        g = bc.make_grid(1e-4, 1e3, 150)
        t = bc.build_tables(g, bc.KernelSpec.constant(1.0), g.x_max,
                            bc.DaughterSpec.uniform(), bc.ProbSpec.constant(1.0))
        ctrl = bc.StepControl(t_end=2.0,
                              output_times=(0.0, 1.0, 2.0))
        traj = bc.integrate(t, bc.sample_initial(
            bc.InitialCondition.exponential(1.0), g), ctrl)
        m0 = traj.densities @ g.widths
        assert_allclose(m0, 2.0 / (2.0 + traj.times), rtol=1e-2)

    def test_integrate_matches_dop853(self, small_grid):
        t = _tables(small_grid)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                  small_grid)
        traj = bc.integrate(t, state, bc.StepControl(
            t_end=1.0, output_times=(0.0, 0.5, 1.0)))
        ref = solve_ivp(lambda _, f: _rhs(t, f), (0.0, 1.0), state.density,
                        method="DOP853", rtol=1e-12, atol=1e-14)
        assert ref.success
        assert_allclose(traj.densities[-1], ref.y[:, -1],
                        rtol=1e-4, atol=1e-10)

    def test_tableau_matches_scipy_rk45(self):
        # scipy's E is the 4th- minus the 5th-order weights
        for i in range(1, 6):
            assert np.array_equal(_DP_A[i], RK45.A[i, :i])
        assert np.array_equal(_DP_A[6], RK45.B)
        assert np.array_equal(_DP_E, -RK45.E)
        assert np.array_equal(_DP_P, RK45.P)

    def test_steps_do_not_depend_on_output_times(self, small_grid):
        t = _tables(small_grid)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                  small_grid)
        few, many = (bc.integrate(t, state, bc.StepControl(
            t_end=1.0, output_times=tuple(np.linspace(0.0, 1.0, n))))
            for n in (2, 201))
        assert len(few) == 2 and len(many) == 201
        assert (few.n_steps, few.n_rejected) == (many.n_steps,
                                                 many.n_rejected)
        assert np.array_equal(few.densities[-1], many.densities[-1])

    def test_dense_output_matches_dop853(self, small_grid):
        t = _tables(small_grid)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                  small_grid)
        control = bc.StepControl(t_end=1.0,
                                 output_times=tuple(np.linspace(0, 1, 41)))
        traj = bc.integrate(t, state, control)
        assert traj.n_steps < len(traj) - 1     # most outputs interpolated
        ref = solve_ivp(lambda _, f: _rhs(t, f), (0.0, 1.0), state.density,
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        t_eval=traj.times)
        assert ref.success
        m1 = traj.densities @ (small_grid.centers * small_grid.widths)
        atol = 1e-12 * max(m1[0], 1.0)          # the integrator's default
        assert np.all(np.abs(traj.densities - ref.y.T)
                      <= atol + control.rtol * np.abs(ref.y.T))
        assert np.max(np.abs(m1 / m1[0] - 1.0)) <= 1e-13

    def test_clip_guard_keeps_gelling_run_nonnegative(self):
        # product kernel with off-grid loss, a gelling run: the step size
        # has no positivity cap, so error control and the clip guard alone
        # must keep every density non-negative and clip (almost) no mass
        g = bc.make_grid(1e-3, 1e4, 60)
        t = bc.build_tables(g, bc.KernelSpec.product(), g.x_max,
                            bc.DaughterSpec.uniform(),
                            bc.ProbSpec.constant(1.0), offgrid_loss=True)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0), g)
        traj = bc.integrate(t, state, bc.StepControl(
            t_end=1.0, output_times=tuple(np.linspace(0, 1, 41))))
        m1 = traj.densities @ (g.centers * g.widths)
        assert np.all(traj.densities >= 0.0)
        assert traj.clipped_mass <= 1e-10 * m1[0]
        assert m1[-1] < 0.9 * m1[0]            # the run did gel

    def test_mass_conserved_along_heun_run(self, small_grid):
        t = _tables(small_grid)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                  small_grid)
        traj = bc.integrate(t, state, bc.StepControl(
            t_end=1.0, output_times=(0.0, 0.5, 1.0)))
        m1 = traj.densities @ (small_grid.centers * small_grid.widths)
        assert np.max(np.abs(m1 / m1[0] - 1.0)) <= 1e-10

    def test_underflow_guard_scales_with_the_horizon(self):
        # a mass of 1e10 puts the collision time near 1e-13: a fixed
        # step-size floor of 1e-12 would stop this run at its first steps
        g = bc.make_grid(1e-3, 1e3, 40)
        tables = _tables(g, bc.KernelSpec.product())
        state = bc.sample_initial(
            bc.InitialCondition.exponential(1.0, mass=1e10), g)
        rate = float(np.max(dense_panels(tables)[0]
                               @ (state.density * g.widths)))
        assert rate > 1e12
        traj = bc.integrate(tables, state, bc.StepControl(t_end=0.1 / rate))
        mass = g.centers * g.widths
        assert np.all(traj.densities >= 0.0)
        assert_allclose(traj.densities[-1] @ mass, 1e10, rtol=1e-13)

    def test_output_times_outside_horizon_rejected(self, small_grid):
        t = _tables(small_grid)
        z = bc.State(grid=small_grid, density=np.zeros(small_grid.cell_count),
                     time=0.5)
        for bad in ((0.4, 0.75), (0.75, 1.0 + 1e-9)):
            with pytest.raises(ConfigError, match="outside the horizon"):
                bc.integrate(t, z, bc.StepControl(t_end=1.0,
                                                  output_times=bad))
        traj = bc.integrate(t, z, bc.StepControl(
            t_end=1.0, output_times=(1.0, 0.5, 0.75)))
        assert traj.times.tolist() == [0.5, 0.75, 1.0]

    def test_control_validation(self):
        # NaN passes a "<= 0" check and made every step's error NaN, so
        # the controller rejected steps forever
        for kwargs in ({"rtol": np.nan}, {"rtol": 0.0}, {"rtol": -1.0},
                       {"atol": np.nan}, {"atol": 0.0}, {"atol": -1.0},
                       {"t_end": 0.0}, {"t_end": np.inf}, {"t_end": np.nan}):
            with pytest.raises(ConfigError):
                bc.StepControl(**kwargs)

    def test_infinite_tolerances_rejected(self):
        # an infinite tolerance accepts every step, whatever its error
        for kwargs in ({"rtol": np.inf}, {"atol": np.inf},
                       {"rtol": float("1e999")}):
            with pytest.raises(ConfigError, match="finite"):
                bc.StepControl(**kwargs)
        assert bc.StepControl(rtol=1e300, atol=1e300).rtol == 1e300


class TestTrajectory:
    def test_state_is_one_output(self, small_grid):
        t = _tables(small_grid)
        state = bc.sample_initial(bc.InitialCondition.exponential(1.0),
                                  small_grid)
        traj = bc.integrate(t, state, bc.StepControl(
            t_end=0.5, output_times=(0.25,)))
        out = traj.state(1)
        assert out.grid is small_grid and out.time == 0.25
        assert np.array_equal(out.density, traj.densities[1])
        assert np.array_equal(bc.apply_rhs(t, out), _rhs(t, out.density))


class TestWeakFormResidual:
    def test_mass_test_function_reproduces_drift(self, small_grid):
        t = _tables(small_grid)
        traj = bc.integrate(t, bc.sample_initial(
            bc.InitialCondition.exponential(1.0), small_grid),
            bc.StepControl(t_end=1.0,
                           output_times=tuple(np.linspace(0, 1, 6))))
        res = bc.weak_form_residual(traj, t, ("power", 1.0))
        m1 = traj.densities @ (small_grid.centers * small_grid.widths)
        assert_allclose(res["absolute"], np.abs(np.diff(m1)), atol=1e-14)

    def test_number_functional_matches_moment_ode(self):
        g = bc.make_grid(1e-4, 1e3, 150)
        t = bc.build_tables(g, bc.KernelSpec.constant(1.0), g.x_max,
                            bc.DaughterSpec.uniform(), bc.ProbSpec.constant(1.0))
        traj = bc.integrate(t, bc.sample_initial(
            bc.InitialCondition.exponential(1.0), g),
            bc.StepControl(t_end=1.0,
                           output_times=tuple(np.linspace(0, 1, 41))))
        res = bc.weak_form_residual(traj, t, ("power", 0.0))
        assert np.max(res["relative"]) <= 1e-3

    def test_indicator_on_zero_state(self, small_grid):
        t = _tables(small_grid)
        z = bc.State(grid=small_grid, density=np.zeros(small_grid.cell_count))
        traj = bc.integrate(t, z, bc.StepControl(
            t_end=0.5, output_times=(0.0, 0.25, 0.5)))
        res = bc.weak_form_residual(traj, t, ("indicator", 1.0))
        assert_allclose(res["absolute"], 0.0)
        assert_allclose(res["relative"], 0.0)
