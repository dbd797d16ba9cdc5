"""Property tests of the discrete operator on every table path: random
grid sizes, truncation levels, kernel families, daughter laws,
coalescence probabilities and non-negative states; and of the weak-form
residual that reads it and the integration that steps it.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import breakcoag as bc
from breakcoag import solver
from breakcoag.solver import _phi_values, _rhs
from test_solver import (_reference_rhs, band_cells, dense_deposits,
                         dense_fragments, dense_kernels, dense_panels)

X_MIN = 1e-3


def nonnegative(high):
    """Zero or a value in [1e-6, high]: weights near the underflow range
    lose relative precision under any summation order."""
    return st.just(0.0) | st.floats(1e-6, high)


def _grid(n, x_max):
    if n > 1:
        return bc.make_grid(X_MIN, x_max, n)
    # make_grid asks for two cells; the operator itself works on one
    edges = np.array([X_MIN, x_max])
    return bc.Grid(X_MIN, x_max, 1, edges, np.sqrt(edges[:-1] * edges[1:]),
                   np.diff(edges))


@st.composite
def kernels(draw, x_max):
    family = draw(st.sampled_from(["constant", "additive", "product",
                                   "smoluchowski", "sum_product", "bg_ratio",
                                   "table"]))
    if family == "constant":
        return bc.KernelSpec.constant(draw(st.floats(0.1, 10.0)))
    if family == "sum_product":
        zeta = draw(st.floats(-0.45, 0.5))
        return bc.KernelSpec.sum_product(zeta, draw(st.floats(zeta, 1.0)))
    if family == "bg_ratio":
        sigma = draw(st.floats(0.0, 0.9))
        return bc.KernelSpec.bg_ratio(sigma,
                                      draw(st.floats(0.0, 1.0 + sigma / 2.0)))
    if family == "table":
        axis = np.geomspace(X_MIN, x_max, 5)
        upper = draw(st.lists(nonnegative(10.0), min_size=15, max_size=15))
        K = np.zeros((5, 5))
        K[np.triu_indices(5)] = upper
        return bc.KernelSpec.table(axis, axis, K + np.triu(K, 1).T,
                                  declared_k1=10.0)
    return getattr(bc.KernelSpec, family)()


daughters = st.one_of(
    st.just(bc.DaughterSpec.uniform()),
    st.floats(-0.9, 2.0).map(bc.DaughterSpec.power_total),
    st.floats(-0.9, 2.0).map(bc.DaughterSpec.power_each))

probabilities = nonnegative(1.0) | st.just(1.0)


@st.composite
def probs(draw, x_max, coalescence_only=False):
    value = st.just(1.0) if coalescence_only else probabilities
    form = draw(st.sampled_from(["constant", "small_volume_floor", "table"]))
    if form == "constant":
        return bc.ProbSpec.constant(draw(value))
    if form == "small_volume_floor":
        return bc.ProbSpec.small_volume_floor(
            draw(value), draw(value), 10.0 ** draw(st.floats(-3.0, 2.0)))
    if draw(st.booleans()):
        # a symmetric table on a shared axis
        axis = np.geomspace(X_MIN, x_max, 5)
        upper = draw(st.lists(value, min_size=15, max_size=15))
        E = np.zeros((5, 5))
        E[np.triu_indices(5)] = upper
        return bc.ProbSpec.table(axis, axis, E + np.triu(E, 1).T)
    # distinct axes: E = a + b log(x y), exact under the bilinear lookup
    # in log x and log y, so symmetric to rounding
    x = np.geomspace(X_MIN, x_max, 5)
    y = np.geomspace(X_MIN / 2.0, 2.0 * x_max, 4)
    logs = np.add.outer(np.log(x), np.log(y))
    t = np.clip((logs - logs.min()) / np.ptp(logs), 0.0, 1.0)
    a, b = draw(st.lists(value, min_size=2, max_size=2))
    return bc.ProbSpec.table(x, y, (1 - t) * a + t * b)


@st.composite
def scenarios(draw, coalescence_only=False, offgrid_loss=None):
    """(tables, density) for one random scenario.  Some grids double every
    q cells (q <= 5 or q = 8), others grow by the golden ratio per cell:
    there 2 c_i, or c_i + c_{i+1}, falls on a cell centre up to rounding,
    and the tie rule puts it on that centre."""
    n = draw(st.integers(1, 40))
    x_max = draw(st.sampled_from([10.0, 1e2, 1e3, None, "golden"]))
    if x_max == "golden":
        x_max = X_MIN * ((1.0 + 5.0 ** 0.5) / 2.0) ** n
    elif x_max is None:
        q = draw(st.integers(-(-n // 20), 5) | st.just(8))
        x_max = X_MIN * 2.0 ** (n / q)
    kernel = draw(kernels(x_max))
    daughter = draw(daughters)
    assume(not (daughter.per_parent and kernel.declared_alpha > 0.0))
    n_trunc = x_max * draw(st.just(1.0) | st.floats(0.05, 0.99))
    if offgrid_loss is None:
        offgrid_loss = draw(st.booleans())
    tables = bc.build_tables(_grid(n, x_max), kernel, n_trunc, daughter,
                             draw(probs(x_max, coalescence_only)),
                             offgrid_loss=offgrid_loss)
    density = draw(st.lists(nonnegative(1e2),
                            min_size=n, max_size=n))
    return tables, np.array(density)


def _terms(tables, density):
    """Dense reference rate and the size of its gain and loss terms."""
    ref = _reference_rhs(tables, density)
    death = density * (dense_panels(tables)[0]
                       @ (density * tables.grid.widths))
    return ref, np.abs(ref + death) + death


def _deposits(tables):
    """(N, N, N) deposits of each pair i <= j into each cell, from the dense
    per-pair and fragment tables."""
    g = tables.grid
    N = g.cell_count
    d = dense_deposits(tables)
    prefix, parent = dense_fragments(tables)
    K, _, E = dense_kernels(tables)
    i, j = np.triu_indices(N)
    rate = np.where(i == j, 0.5, 1.0) * K[i, j]
    # the pair breaks with E(c_i, c_j), both parents under a per-parent law
    coag = rate * E[i, j]
    frag = rate * (1.0 - E[i, j])
    out = np.zeros((N, N, N))
    np.add.at(out, (i, j, d["coag_l1"][i, j]), coag * d["coag_w1"][i, j])
    np.add.at(out, (i, j, d["coag_l2"][i, j]), coag * d["coag_w2"][i, j])
    if parent is not None:
        out[i, j] += frag[:, None] * (parent[i] + parent[j])
    else:
        frag = frag * d["frag_w"][i, j]
        np.add.at(out, (i, j, d["frag_pl1"][i, j]),
                  frag * d["frag_pw1"][i, j])
        np.add.at(out, (i, j, d["frag_pl2"][i, j]),
                  frag * d["frag_pw2"][i, j])
        out[i, j] += frag[:, None] * prefix[d["frag_top"][i, j]]
    return out


@given(scenarios())
def test_rhs_matches_dense_reference(case):
    tables, density = case
    ref, scale = _terms(tables, density)
    assert np.all(np.abs(_rhs(tables, density) - ref) <= 1e-12 * scale)


@given(scenarios())
def test_blocks_and_band_carry_each_pair_once(case):
    tables, _ = case
    g = tables.grid
    c = g.centers
    N = g.cell_count
    D = tables.band_rate.shape[1]
    death, hat, blocks, F = dense_panels(tables)
    # the fragment streams of a pair law: the partial cell's brackets and
    # the top cell, none per parent
    assert len(blocks) == (3 if tables.parent_w is None else 0)
    i, j = np.indices((N, N))
    band = j - i < D
    # (weights, offset): column j of the weights deposits at j + offset.
    # Off the band, Ê by the bracket rule: c_i / (c_{j+1} - c_j) of a
    # pair's number moves up to j + 1, and the top cell keeps s / c_{N-1}
    # of it.  The share left at j is formed as the reference forms it,
    # 1 - up: where up is near 1, hat - hat up differs from it by far
    # more than an ulp
    up = c[:, None] / np.append(np.diff(c), -c[-1])
    rest = np.where(band, 0.0, hat)
    placed = [(rest * (1.0 - up), 0), (np.where(j < N - 1, rest * up, 0.0), 1)]
    if tables.parent_w is None:
        assert F is None
        placed += zip(np.where(band, 0.0, blocks), (-1, 0, N))
    else:
        # parent j breaks at rate n_j (n @ brk)_j and spreads it by its
        # weights: partial cell at j - 1 and j, top cell j
        fold = tables.prob.form == "constant" and not tables.offgrid_loss
        assert (F is None) == fold
        brk = death if fold else F
        placed += [(brk * w, offset)
                   for w, offset in zip(tables.parent_w, (-1, 0, N))]
    got = np.zeros((N, N, 2 * N + 1))      # N + t is the top cell t
    for weights, offset in placed:
        lo, hi = (N, 2 * N) if offset == N else (0, N - 1)
        for j in range(N):
            if lo <= j + offset <= hi:
                got[:, j, j + offset] += weights[:, j]
            else:
                assert not weights[:, j].any()
    # on the band, the pair (i, j) coalesces by its class's row of
    # band_class: at the cell l there, and U = (c_j - c_l + c_i) /
    # (c_{l+1} - c_l) of it at l + 1, or at l alone with s / c_l where
    # the row says N + l
    i, j = np.nonzero(np.triu(band))
    cls, coal, fcls, frag = band_cells(tables)
    cell = coal[cls[j - i], j]
    one = cell >= N
    low = cell % N
    high = np.minimum(low + 1, N - 1)
    w2 = np.where(one, 0.0, ((c[j] - c[low]) + c[i])
                  / np.where(one, 1.0, c[high] - c[low]))
    w1 = np.where(one, (c[j] + c[i]) / c[low], 1.0 - w2)
    np.add.at(got, (i, j, low), hat[i, j] * w1)
    np.add.at(got, (i, j, high), hat[i, j] * w2)
    # and a pair law's fragments of the pair (i, j) land on the cells of
    # its fragment class's rows at j
    if frag is not None:
        for weights, cells in zip(blocks, frag):
            np.add.at(got, (i, j, cells[fcls[j - i], j]), weights[i, j])
    # entries (i, j) and (j, i) carry the same pair
    lower = np.tril_indices(N, -1)
    got[lower[1], lower[0]] += got[lower]
    got[lower] = 0.0
    prefix, _ = dense_fragments(tables)
    cells = got[..., :N] + got[..., N:] @ prefix
    assert_allclose(cells, _deposits(tables), rtol=1e-14, atol=0.0)
    # the death triangle is the kernel capped and cut, or raw with
    # offgrid_loss; F is the gain kernel times 1 - E(c_i, c_j), i <= j
    K_gain, K_death, E = dense_kernels(tables)
    assert_array_equal(np.triu(death), np.triu(K_death))
    if F is not None:
        assert_array_equal(np.triu(F), np.triu((1.0 - E) * K_gain))


@given(scenarios(), st.integers(1, 2000))
def test_pair_block_size_changes_no_bit(case, block):
    # the default build holds every pair of up to 40 cells in one block
    tables, _ = case
    with patch.object(solver, "_PAIR_BLOCK", block):
        blocked = bc.build_tables(tables.grid, tables.kernel, tables.n_trunc,
                                  tables.daughter, tables.prob,
                                  offgrid_loss=tables.offgrid_loss)
    for name, v in vars(tables).items():
        if isinstance(v, np.ndarray):
            w = getattr(blocked, name)
            assert v.dtype == w.dtype and np.array_equal(v, w), name


@given(scenarios(offgrid_loss=False))
def test_mass_rate_vanishes(case):
    tables, density = case
    g = tables.grid
    mass = g.centers * g.widths
    _, scale = _terms(tables, density)
    assert abs(mass @ _rhs(tables, density)) <= 1e-12 * (mass @ scale)


@given(scenarios(coalescence_only=True))
def test_no_fragment_gain_when_E_is_one(case):
    tables, density = case
    coag_only = bc.build_tables(tables.grid, tables.kernel, tables.n_trunc,
                                bc.DaughterSpec.uniform(), tables.prob,
                                offgrid_loss=tables.offgrid_loss)
    _, scale = _terms(tables, density)
    assert np.all(np.abs(_rhs(tables, density) - _rhs(coag_only, density))
                  <= 1e-12 * scale)
    N = tables.grid.cell_count
    _, _, blocks, F = dense_panels(tables)
    if tables.parent_w is None:
        # the partial cell's brackets and the top cell, on the band too
        assert not blocks.any()
    elif F is None:
        assert not tables.parent_w.any()       # the weights carry 1 - E
    else:
        assert not F.any()                     # the breakage rate F


phis = (st.sampled_from([("power", 0.0), ("power", 1.0)])
        | st.tuples(st.sampled_from(["capped", "indicator"]),
                    st.floats(X_MIN, 1e3)))


def _dense_zeta(tables, phi_c):
    """Gain and loss parts of ``zeta_phi`` per pair, from the dense per-pair
    tables: ``zeta_phi = gain - loss``."""
    d = dense_deposits(tables)
    E = dense_kernels(tables)[2]
    phi_at_sum = (d["coag_w1"] * phi_c[d["coag_l1"]]
                  + d["coag_w2"] * phi_c[d["coag_l2"]])
    prefix, parent = dense_fragments(tables)
    if parent is not None:
        per = parent @ phi_c
        phi_frag = per[:, None] + per[None, :]
    else:
        pref = prefix @ phi_c
        phi_frag = d["frag_w"] * (pref[d["frag_top"]]
                                  + d["frag_pw1"] * phi_c[d["frag_pl1"]]
                                  + d["frag_pw2"] * phi_c[d["frag_pl2"]])
    return (E * phi_at_sum + (1.0 - E) * phi_frag,
            phi_c[:, None] + phi_c[None, :])


@given(scenarios(), phis, st.data())
def test_weak_form_rate_matches_dense_zeta(case, phi_kind, data):
    tables, density = case
    g = tables.grid
    more = data.draw(st.lists(
        st.lists(nonnegative(1e2), min_size=g.cell_count,
                 max_size=g.cell_count), min_size=2, max_size=4))
    densities = np.array([density, *more])
    dts = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(more),
                             max_size=len(more)))
    traj = bc.Trajectory(g, np.cumsum([0.0, *dts]), densities,
                         clipped_mass=0.0, n_steps=0, n_rejected=0)
    gain, loss = _dense_zeta(tables, _phi_values(phi_kind, g.centers))
    K_gain, K_death, _ = dense_kernels(tables)
    # the dense formula 1/2 n^T (zeta_phi o K_gain) n, and the size of
    # its gain and loss terms
    rate, size = np.array([
        (0.5 * n @ ((gain - loss) * K_gain) @ n,
         0.5 * n @ (gain * K_gain + loss * K_death) @ n)
        for n in densities * g.widths]).T
    half_dt = 0.5 * np.diff(traj.times)
    got = bc.weak_form_residual(traj, tables, phi_kind)["rhs"]
    assert np.all(np.abs(got - (rate[:-1] + rate[1:]) * half_dt)
                  <= 1e-12 * (size[:-1] + size[1:]) * half_dt)


@given(scenarios())
def test_integrate_keeps_positivity_and_mass(case):
    tables, density = case
    g = tables.grid
    mass = g.centers * g.widths
    # half the scenario's collision time (collision rates reach 1e11)
    rate = np.max(dense_panels(tables)[0] @ (density * g.widths),
                  initial=0.0)
    t_end = 0.5 / max(rate, 1.0)
    traj = bc.integrate(tables, bc.State(g, density), bc.StepControl(
        t_end=t_end, output_times=tuple(np.linspace(0.0, t_end, 6))))
    m1 = traj.densities @ mass
    assert np.all(traj.densities >= 0.0)
    assert traj.clipped_mass <= 1e-15 * m1[0] * traj.n_steps
    if not tables.offgrid_loss and m1[0] > 0:
        assert np.max(np.abs(m1 / m1[0] - 1.0)) <= 2e-15 * (traj.n_steps + 1)
