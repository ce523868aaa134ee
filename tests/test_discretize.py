"""Tests for the finite-volume system builder."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import dataclass
from itertools import pairwise
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import dblquad, quad as scipy_quad
from scipy.special import i0

from nlw import discretize, kernels
from nlw.discretize import (
    MIN_CELL_MASS,
    DiscreteSystem,
    QuadratureError,
    ZeroCellError,
    _cutoff_fractions,
    _far_field,
    _masked_lattice,
    _pair_integrals,
    _panel_gauss,
    _pair_min_distance_sq,
    _pair_representatives,
    _wrapped_signed,
    build_system,
    discretize_kernel,
    load_system,
    pushforward_measure,
    save_system,
    verify_moment_bound,
)
from nlw.kernels import (
    ConstantKernel,
    FractionalKernel,
    GibbsMeasure,
    MeasureSpec,
    MixedMeasure,
    PotentialSpec,
    TabulatedKernel,
    TabulatedMeasure,
    UniformMeasure,
    WeightedKernel,
    eval_kernel,
    extend_kernel,
    second_moment,
)
from nlw.torus import build_grid


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def test_pushforward_uniform_is_flat():
    for d, n in [(1, 8), (2, 4)]:
        grid = build_grid(d, n)
        w = pushforward_measure(UniformMeasure(), grid)
        assert np.allclose(w, 1.0 / grid.n_points, rtol=1e-14)
        assert abs(w.sum() - 1.0) <= 1e-14


def test_pushforward_gibbs_against_refined_quadrature():
    grid = build_grid(1, 8)
    meas = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    w = pushforward_measure(meas, grid)
    cv = float(i0(1.0))
    for j, xj in enumerate(grid.points[:, 0]):
        ref = scipy_quad(lambda t: np.exp(-np.cos(2 * np.pi * t)) / cv, xj - 1 / 16, xj + 1 / 16)[0]
        assert w[j] == pytest.approx(ref, rel=1e-9)


def test_pushforward_records_renormalization_factor():
    grid = build_grid(1, 8)
    meas = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    w, factor = pushforward_measure(meas, grid, return_factor=True)
    assert abs(factor - 1.0) <= 1e-8
    assert abs(w.sum() - 1.0) <= 1e-14


def test_pushforward_rejects_empty_cells():
    grid = build_grid(1, 4)
    meas = TabulatedMeasure(weights=np.array([1.0, 1.0, 0.0, 1.0]), dim=1)
    with pytest.raises(ZeroCellError):
        pushforward_measure(meas, grid)


def test_pushforward_that_does_not_converge_raises():
    # the jumps at 1/6 and 5/6 of the level-3 table [0, 1, 2.5] sit inside cells
    # of level 16, away from every Gauss node, so each doubling of the order still
    # moves those cells' masses; the table's c_V is its exact mean
    meas = GibbsMeasure(potential=PotentialSpec(table_values=np.array([0.0, 1.0, 2.5])))
    with pytest.raises(QuadratureError, match="^pushforward quadrature did not converge"):
        pushforward_measure(meas, build_grid(1, 16))


# ---------------------------------------------------------------------------
# kernel discretization
# ---------------------------------------------------------------------------


def test_constant_kernel_inactive_pairs_exact():
    grid = build_grid(1, 8)
    eta = discretize_kernel(ConstantKernel(c=2.0), UniformMeasure(), grid)
    n = 8
    for j in range(n):
        for k in range(n):
            if j == k:
                assert eta[j, k] == 0.0
            elif min(abs(j - k), n - abs(j - k)) == 1:
                assert 0.0 < eta[j, k] < 2.0  # cutoff removes part of the mass
            else:
                assert eta[j, k] == pytest.approx(2.0, rel=1e-12)


def test_constant_adjacent_pair_oracle():
    # displacement form: I/c = int_{w/2}^{2w} (w - |t - w|) dt = 7 w^2 / 8,
    # so the adjacent entry is exactly 7c/8 for n >= 4
    for n in (4, 8, 16):
        grid = build_grid(1, n)
        eta = discretize_kernel(ConstantKernel(c=3.0), UniformMeasure(), grid)
        assert eta[0, 1] == pytest.approx(3.0 * 7.0 / 8.0, rel=1e-10)
        assert eta[0, n - 1] == pytest.approx(3.0 * 7.0 / 8.0, rel=1e-10)  # wrap pair


def test_constant_adjacent_pair_n2():
    # n = 2: window [0,1] wraps; surviving mass 3/16 of the cell product
    grid = build_grid(1, 2)
    eta = discretize_kernel(ConstantKernel(c=1.0), UniformMeasure(), grid)
    assert eta[0, 1] == pytest.approx(0.75, rel=1e-10)


def nested_quad_pair_1d(spec, meas, n, j, k):
    """Oracle: iint_{cell_j x cell_k} 1{r >= delta/2} eta rho rho by nested adaptive quadrature.

    The inner integral over y splits at every kink of the integrand
    (y - x = m + 1/2 and m +- delta/2), the outer one wherever those kinks
    cross the edges of cell k.
    """
    w, dhalf = 1.0 / n, 0.5 / n
    cj = j * w
    ck = cj + float(_wrapped_signed(np.array(k * w - cj)))  # cell k lifted next to cell j
    kinks = [m + o for m in (-1, 0, 1) for o in (0.5, dhalf, -dhalf)]

    def rho(x):
        return float(meas.density(np.array([[x % 1.0]]))[0])

    def integrand(y, x):
        a = abs(y - x) % 1.0
        r = min(a, 1.0 - a)
        return 0.0 if r < dhalf else eval_kernel(spec, x % 1.0, y % 1.0) * rho(x) * rho(y)

    def inner(x):
        pts = [x + o for o in kinks if ck - w / 2 < x + o < ck + w / 2]
        return scipy_quad(integrand, ck - w / 2, ck + w / 2, args=(x,), points=pts or None, epsabs=0, epsrel=1e-13)[0]

    pts = [e - o for e in (ck - w / 2, ck + w / 2) for o in kinks if cj - w / 2 < e - o < cj + w / 2]
    return scipy_quad(inner, cj - w / 2, cj + w / 2, points=pts or None, epsabs=0, epsrel=1e-12)[0]


def tent_dblquad_2d(s_frac, w, s):
    """Oracle for an inactive pair on the uniform measure in d = 2.

    int r(t)^(-2-s_frac) (w - |t_1 - s_1|) (w - |t_2 - s_2|) over s + [-w, w]^2,
    split at the tent kinks t_i = s_i and the wrap kinks t_i = +-1/2.
    """

    def cuts(c):
        return sorted({c - w, c, c + w} | {b for b in (-0.5, 0.5) if c - w < b < c + w})

    def integrand(t2, t1):
        r1, r2 = (min(abs(t), 1.0 - abs(t)) for t in (t1, t2))
        return (r1 * r1 + r2 * r2) ** (-1.0 - 0.5 * s_frac) * (w - abs(t1 - s[0])) * (w - abs(t2 - s[1]))

    return sum(
        dblquad(integrand, a1, b1, a2, b2, epsabs=0, epsrel=1e-13)[0]
        for a1, b1 in pairwise(cuts(s[0]))
        for a2, b2 in pairwise(cuts(s[1]))
    )


def test_fractional_far_pair_against_dblquad():
    # independent adaptive quadrature of each cell-pair integral, split at its kinks
    spec = FractionalKernel(s=1.0)
    gibbs = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    cases = [
        (8, 0, 4, UniformMeasure()),  # wrap kink t = -1/2 on the tent kink
        (7, 0, 3, UniformMeasure()),  # wrap kink t = 1/2 on the breakpoint s + w/2
        (8, 0, 1, UniformMeasure()),  # cutoff t = delta/2
        (2, 0, 1, UniformMeasure()),  # both wrapped cutoffs
        (8, 1, 3, gibbs),  # far pair on a non-uniform measure
    ]
    for n, j, k, meas in cases:
        grid = build_grid(1, n)
        weights = pushforward_measure(meas, grid)
        eta = discretize_kernel(spec, meas, grid, weights=weights)
        oracle = nested_quad_pair_1d(spec, meas, n, j, k) / (weights[j] * weights[k])
        assert eta[j, k] == pytest.approx(oracle, rel=1e-9), (n, j, k)
    # 2D level 4, cells at (0, 0) and (0, 0.5): cutoff inactive, wrap kink on the tent kink of axis 2
    grid = build_grid(2, 4)
    eta = discretize_kernel(spec, UniformMeasure(), grid)
    s = _wrapped_signed(grid.points[2] - grid.points[0])
    assert s.tolist() == [0.0, -0.5]
    oracle = tent_dblquad_2d(1.0, grid.cell_width, s) * grid.n_points**2
    assert eta[0, 2] == pytest.approx(oracle, rel=1e-9)


def test_eta_symmetric_zero_diagonal():
    grid = build_grid(1, 16)
    eta = discretize_kernel(FractionalKernel(s=0.5), UniformMeasure(), grid)
    assert np.array_equal(eta, eta.T)
    assert np.all(np.diagonal(eta) == 0.0)
    assert np.all(eta >= 0.0)
    assert np.all(np.isfinite(eta))


def test_discretize_requires_positive_weights():
    grid = build_grid(1, 4)
    with pytest.raises(ZeroCellError):
        discretize_kernel(
            ConstantKernel(c=1.0), UniformMeasure(), grid, weights=np.array([0.5, 0.5, 0.0, 0.0])
        )


# ---------------------------------------------------------------------------
# build_system
# ---------------------------------------------------------------------------


def test_pushforward_refuses_cell_nodes_above_the_byte_limit(monkeypatch):
    # room for the 16 x 64 nodes of order 64: the jumps of the table inside cells keep
    # the masses moving, and the doubling to order 128 raises before it allocates
    monkeypatch.setattr(kernels, "_ARRAY_BYTES_LIMIT", 16 * 64 * 8)
    meas = GibbsMeasure(potential=PotentialSpec(table_values=np.array([0.0, 1.0, 2.5])))
    with pytest.raises(QuadratureError, match=r"^pushforward quadrature \(unconverged\) needs about 0 MiB per array at order 128 "):
        pushforward_measure(meas, build_grid(1, 16))
    assert np.array_equal(pushforward_measure(UniformMeasure(), build_grid(1, 16)), np.full(16, 1 / 16))


def test_cell_pair_quadrature_that_does_not_converge_raises():
    # the level-2 table potential jumps at x = 1/4 and 3/4, inside cells of
    # level 5, which no panel boundary of the pair rule holds
    kernel = WeightedKernel(potential=PotentialSpec(table_values=np.array([0.0, 1.0])), base=FractionalKernel(s=1.0))
    with pytest.raises(QuadratureError, match=r"^cell-pair quadrature did not converge for 1 pairs; first offender \(1, 4\)"):
        build_system(kernel, UniformMeasure(), build_grid(1, 5))


def test_build_system_constant_uniform():
    grid = build_grid(1, 4)
    sys = build_system(ConstantKernel(c=1.5), UniformMeasure(), grid)
    assert np.allclose(sys.pi, 0.25, rtol=1e-14)
    off = sys.eta[~np.eye(4, dtype=bool)]
    assert np.all((off > 0.0) & (off <= 1.5 + 1e-12))
    assert sys.delta == grid.cell_diameter
    assert sys.provenance["kernel"] == {"type": "constant", "c": 1.5}


def test_build_is_deterministic():
    grid = build_grid(1, 8)
    meas = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    a = build_system(FractionalKernel(s=1.0), meas, grid)
    b = build_system(FractionalKernel(s=1.0), meas, grid)
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.eta, b.eta)


def test_build_2d_smoke():
    grid = build_grid(2, 4)
    sys = build_system(ConstantKernel(c=1.0), UniformMeasure(), grid)
    assert sys.eta.shape == (16, 16)
    assert np.array_equal(sys.eta, sys.eta.T)
    # pairs with per-axis center offsets >= 2 cells have inactive cutoff
    assert sys.eta[0, 10] == pytest.approx(1.0, rel=1e-10)  # offset (2,2)
    sup = second_moment(ConstantKernel(c=1.0), UniformMeasure(), np.array([0.0, 0.0]))
    rep = verify_moment_bound(sys, sup)
    assert rep.passes
    # the singular kernel takes the Gauss pair rule for its inactive pairs
    frac = FractionalKernel(s=1.0)
    sys = build_system(frac, UniformMeasure(), grid)
    assert verify_moment_bound(sys, second_moment(frac, UniformMeasure(), np.array([0.0, 0.0]))).passes


def test_system_arrays_are_immutable():
    grid = build_grid(1, 4)
    sys = build_system(ConstantKernel(c=1.0), UniformMeasure(), grid)
    with pytest.raises(ValueError):
        sys.eta[0, 1] = 99.0
    with pytest.raises(ValueError):
        sys.pi[0] = 0.5


def test_discrete_system_validation():
    grid = build_grid(1, 4)
    good_pi = np.full(4, 0.25)
    good_eta = np.ones((4, 4)) - np.eye(4)
    DiscreteSystem.from_arrays(grid, good_pi, good_eta)
    with pytest.raises(ValueError):
        DiscreteSystem.from_arrays(grid, np.full(4, 0.3), good_eta)  # mass 1.2
    bad = good_eta.copy()
    bad[0, 1] = 2.0
    with pytest.raises(ValueError):
        DiscreteSystem.from_arrays(grid, good_pi, bad)  # asymmetric
    bad2 = good_eta.copy()
    bad2[2, 2] = 1.0
    with pytest.raises(ValueError):
        DiscreteSystem.from_arrays(grid, good_pi, bad2)  # diagonal


@pytest.mark.parametrize("mass", [0.0, 0.5 * MIN_CELL_MASS, -1e-3])
def test_a_cell_without_mass_is_rejected_by_index(tmp_path, mass):
    # the rule pushforward_measure applies holds for every system, however it is made
    grid = build_grid(1, 4)
    eta = np.ones((4, 4)) - np.eye(4)
    DiscreteSystem.from_arrays(grid, [0.25, 0.5 - MIN_CELL_MASS, MIN_CELL_MASS, 0.25], eta)
    pi = [0.25, 0.5 - mass, mass, 0.25]
    with pytest.raises(ZeroCellError, match=r"^cells \[2\] carry mass below 1e-14"):
        DiscreteSystem.from_arrays(grid, pi, eta)
    path = tmp_path / "sys.json"
    save_system(build_system(ConstantKernel(c=1.0), UniformMeasure(), grid), path)
    doc = json.loads(path.read_text())
    doc["pi"] = pi
    path.write_text(json.dumps(doc))
    with pytest.raises(ZeroCellError, match=r"^cells \[2\] carry mass below 1e-14"):
        load_system(path)


@pytest.mark.parametrize("value", [0.0, -0.5])
def test_a_pair_without_a_positive_kernel_is_rejected_by_name(tmp_path, value):
    # every pair i != j is an edge: eta > 0 off the diagonal (condition (5) of kernels)
    grid = build_grid(1, 4)
    eta = np.ones((4, 4)) - np.eye(4)
    eta[1, 3] = eta[3, 1] = value
    message = rf"^eta must be positive off the diagonal, but eta\[1, 3\] = {value:g}$"
    with pytest.raises(ValueError, match=message):
        DiscreteSystem.from_arrays(grid, np.full(4, 0.25), eta)
    path = tmp_path / "sys.json"
    save_system(build_system(ConstantKernel(c=1.0), UniformMeasure(), grid), path)
    doc = json.loads(path.read_text())
    doc["eta"] = eta.tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_system(path)


# ---------------------------------------------------------------------------
# cutoff masks: band-only sub-lattice fractions against the full sub-lattice
# ---------------------------------------------------------------------------


def full_sub_lattice_fractions(t, cell, sub, dhalf):
    """Oracle: mask fractions from the sub-lattice of every box, in the band or not."""
    d = t.shape[-1]
    sub1 = ((np.arange(sub) + 0.5) / sub - 0.5) * cell
    offs = np.stack(np.meshgrid(*([sub1] * d), indexing="ij"), axis=-1).reshape(-1, d)
    TS = t[..., None, :] + offs
    TSw = np.abs(_wrapped_signed(TS))
    rr = np.sqrt(np.sum(TSw * TSw, axis=-1))
    return np.mean(rr >= dhalf, axis=-1)


def active_offsets(grid):
    """Distinct wrapped centre offsets of the cutoff-active pairs j < k."""
    dhalf = 0.5 * grid.cell_diameter
    jj, kk = np.triu_indices(grid.n_points, k=1)
    active = _pair_min_distance_sq(grid)[jj, kk] < dhalf * dhalf
    offs = _wrapped_signed(grid.points[kk[active]] - grid.points[jj[active]])
    return np.unique(offs, axis=0), dhalf


@pytest.mark.parametrize(
    "d, level, ms",
    [(2, 2, (8, 16, 32, 64, 128)), (2, 3, (8, 16, 32, 64, 128)), (3, 2, (8, 16))],
)
def test_cutoff_geometry_matches_full_sub_lattice(d, level, ms):
    grid = build_grid(d, level)
    offsets, dhalf = active_offsets(grid)
    # the windows s +- w reach past |t_i| = 1/2, so the wrap is exercised
    assert np.max(np.abs(offsets)) + grid.cell_width > 0.5
    for m in ms:
        rule = _masked_lattice(m, grid)
        assert rule.sub == (8 if d == 2 else 4)
        tau = np.stack(np.meshgrid(*([rule.probe] * d), indexing="ij"), axis=-1).reshape(-1, d)
        t = offsets[:, None, :] + tau  # (offsets, m^d, d): every offset at once, as in a block
        frac = _cutoff_fractions(t, rule.cell, rule.sub, dhalf)
        frac_ref = full_sub_lattice_fractions(t, rule.cell, rule.sub, dhalf)
        assert np.array_equal(frac, frac_ref)
        for row in frac:
            assert 0.0 < np.mean((row > 0.0) & (row < 1.0)) < 1.0


def assert_build_matches_full_sub_lattice(monkeypatch, meas):
    grid = build_grid(2, 2)
    spec = FractionalKernel(s=0.5)
    eta = discretize_kernel(spec, meas, grid)
    monkeypatch.setattr(discretize, "_cutoff_fractions", full_sub_lattice_fractions)
    eta_ref = discretize_kernel(spec, meas, grid)
    assert np.array_equal(eta, eta_ref)


def test_discretize_2d_matches_full_sub_lattice_build(monkeypatch):
    assert_build_matches_full_sub_lattice(monkeypatch, UniformMeasure())


def test_discretize_2d_gibbs_matches_full_sub_lattice_build(monkeypatch):
    # a Gibbs measure evaluates every pair, so each d >= 2 pair meets the oracle
    meas = GibbsMeasure(potential=PotentialSpec(expr="0.25*sin(2*pi*x)*cos(2*pi*y)"))
    assert_build_matches_full_sub_lattice(monkeypatch, meas)


def test_oversized_displacement_lattice_fails_early():
    # one 3D pair on the m = 256 lattice needs a ((4 * 256)^3, 3) node array: 24 GiB
    grid = build_grid(3, 2)
    pair = (ConstantKernel(c=1.0), UniformMeasure(), grid, np.array([0]), np.array([1]))
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=r"lattice for cells 0 and 1 needs about 24576 MiB per array at m=256"):
            _pair_integrals(*pair, _masked_lattice(256, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _pair_integrals(*pair, _masked_lattice(8, grid))[0] > 0.0


def test_oversized_gauss_pair_rule_fails_early():
    # one 2D pair at order 64 needs a ((4 * 64^2)^2, 2) node array: 4 GiB
    grid = build_grid(2, 4)
    pair = (FractionalKernel(s=1.0), UniformMeasure(), grid, np.array([0]), np.array([2]))
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=r"cells 0 and 2 needs about 4096 MiB per array at order 64"):
            _pair_integrals(*pair, _panel_gauss(64, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _pair_integrals(*pair, _panel_gauss(8, grid))[0] > 0.0


@pytest.mark.parametrize("d, level, budget", [(1, 16, 16), (2, 2, 1024)])
def test_node_budget_does_not_change_a_build(monkeypatch, d, level, budget):
    # the budget holds one pair at the first rule size and splits the tau nodes of larger ones
    grid = build_grid(d, level)
    spec = FractionalKernel(s=1.0 if d == 1 else 0.5)
    meas = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    eta = discretize_kernel(spec, meas, grid)
    pairs, blocks = [], []

    def pair_spy(spec, meas, grid, j, k, rule):
        pairs.append(j.size)
        return _pair_integrals(spec, meas, grid, j, k, rule)

    def block_spy(t, *rest):
        blocks.append(t.shape[0])
        return _cutoff_fractions(t, *rest)

    monkeypatch.setattr(discretize, "_NODE_BUDGET", budget)
    monkeypatch.setattr(discretize, "_pair_integrals", pair_spy)
    monkeypatch.setattr(discretize, "_cutoff_fractions", block_spy)
    assert np.array_equal(discretize_kernel(spec, meas, grid), eta)
    assert set(blocks) == {1}
    assert len(blocks) > sum(pairs)


# ---------------------------------------------------------------------------
# uniform measure: one pair integral per offset class {o, -o}
# ---------------------------------------------------------------------------


def offset_classes(grid):
    """min(flat(k - j), flat(j - k)) for every cell pair, offsets taken mod n per axis."""
    n, d = grid.level, grid.dim
    idx = np.array([grid.index_tuple(j) for j in range(grid.n_points)])
    fwd = ((idx[None, :, :] - idx[:, None, :]) % n) @ (n ** np.arange(d - 1, -1, -1))
    return np.minimum(fwd, fwd.T), fwd == fwd.T


@pytest.mark.parametrize(
    "d, level, spec",
    [
        (1, 16, ConstantKernel(c=2.0)),
        (1, 16, FractionalKernel(s=1.0)),
        (2, 2, FractionalKernel(s=0.5)),
        (2, 3, ConstantKernel(c=1.0)),
        (2, 3, FractionalKernel(s=1.0)),
        (2, 4, ConstantKernel(c=1.0)),
        (2, 4, FractionalKernel(s=1.0)),
    ],
)
def test_uniform_eta_is_exactly_circulant(d, level, spec):
    grid = build_grid(d, level)
    weights = pushforward_measure(UniformMeasure(), grid)
    assert np.all(weights == weights[0])
    eta = discretize_kernel(spec, UniformMeasure(), grid, weights=weights)
    cls, self_inverse = offset_classes(grid)
    off = ~np.eye(grid.n_points, dtype=bool)
    assert np.array_equal(eta[off], eta[0, cls][off])
    # even levels hold offsets o = -o, with components in {0, n/2}
    assert np.any(self_inverse & off) == (level % 2 == 0)


@pytest.mark.parametrize(
    "d, level, spec",
    [
        (1, 16, ConstantKernel(c=2.0)),
        (1, 16, FractionalKernel(s=1.0)),
        (2, 2, FractionalKernel(s=0.5)),
        (2, 3, FractionalKernel(s=1.0)),
    ],
)
def test_uniform_build_agrees_with_per_pair_build(d, level, spec):
    # the mixture has density exactly 1 but is not UniformMeasure, so every pair is evaluated
    grid = build_grid(d, level)
    per_pair = MixedMeasure(UniformMeasure(), 0.5)
    assert np.all(per_pair.density(grid.points) == 1.0)
    eta = discretize_kernel(spec, UniformMeasure(), grid)
    eta_ref = discretize_kernel(spec, per_pair, grid)
    assert np.allclose(eta, eta_ref, rtol=1e-12, atol=0.0)


def test_uniform_build_evaluates_pair_zero_c_per_class(monkeypatch):
    grid = build_grid(2, 3)
    seen = []

    def spy(spec, meas, grid, j, k, rule):
        seen.extend(zip(j.tolist(), k.tolist()))
        return _pair_integrals(spec, meas, grid, j, k, rule)

    monkeypatch.setattr(discretize, "_pair_integrals", spy)
    discretize_kernel(FractionalKernel(s=1.0), UniformMeasure(), grid)
    # offsets (0,1), (1,0), (1,1), (1,2); their negatives are (0,2), (2,0), (2,2), (2,1)
    assert sorted(set(seen)) == [(0, 1), (0, 3), (0, 4), (0, 5)]


def test_offset_classes_only_for_uniform_translation_invariant_inputs():
    grid = build_grid(2, 3)
    jj, kk = np.triu_indices(grid.n_points, k=1)
    cls, _ = offset_classes(grid)
    for spec in (ConstantKernel(c=1.0), FractionalKernel(s=1.0)):
        rep = _pair_representatives(spec, UniformMeasure(), grid, jj, kk)
        assert np.array_equal(rep, cls[jj, kk] - 1)
        assert np.array_equal(np.unique(rep), [0, 2, 3, 4])
    tab_eta = np.ones((grid.n_points, grid.n_points)) - np.eye(grid.n_points)
    tabulated = TabulatedKernel(evaluator=extend_kernel(SimpleNamespace(grid=grid, eta=tab_eta), 0.5, 3.0))
    flat = PotentialSpec(expr="0*x")
    for spec, meas in [
        (FractionalKernel(s=1.0), GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))),
        (FractionalKernel(s=1.0), MixedMeasure(UniformMeasure(), 0.5)),
        (ConstantKernel(c=1.0), TabulatedMeasure(weights=np.ones(9), dim=2)),
        (WeightedKernel(potential=flat, base=FractionalKernel(s=1.0)), UniformMeasure()),
        (tabulated, UniformMeasure()),
    ]:
        rep = _pair_representatives(spec, meas, grid, jj, kk)
        assert np.array_equal(rep, np.arange(jj.size))


# ---------------------------------------------------------------------------
# far field in d = 1: a Gauss rule per cell and a kernel matrix per offset
# ---------------------------------------------------------------------------


def far_pairs(spec, meas, grid):
    """Every pair the far rule settles, as (flat indices, integrals)."""
    todo = np.ones(grid.n_points * (grid.n_points - 1) // 2, dtype=bool)
    settled = list(_far_field(spec, meas, grid, todo))
    if not settled:
        return np.arange(0), np.zeros(0)
    return tuple(np.concatenate(parts) for parts in zip(*settled))


def test_far_pairs_are_two_cells_apart_and_inside_the_wrap():
    # offset 1 holds the cutoff, offset floor(n/2) the wrap kink
    gibbs = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    for n, offsets in [(5, set()), (6, {2}), (7, {2}), (8, {2, 3}), (17, set(range(2, 8)))]:
        grid = build_grid(1, n)
        jj, kk = np.triu_indices(n, k=1)
        flat, _ = far_pairs(FractionalKernel(s=1.0), gibbs, grid)
        offset = np.minimum(kk - jj, n - (kk - jj))
        assert np.array_equal(np.sort(flat), np.flatnonzero(np.isin(offset, list(offsets))))
    zero = PotentialSpec(expr="0*x")
    for spec, grid in [
        (WeightedKernel(potential=zero, base=FractionalKernel(s=1.0)), build_grid(1, 16)),
        (FractionalKernel(s=1.0), build_grid(2, 8)),
    ]:
        assert far_pairs(spec, UniformMeasure(), grid)[0].size == 0


@pytest.mark.parametrize("level", [16, 17, 64, 512])
def test_far_field_matches_the_pair_rule(level):
    gibbs = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    grid = build_grid(1, level)
    jj, kk = np.triu_indices(level, k=1)
    for spec in (FractionalKernel(s=0.5), FractionalKernel(s=1.0), FractionalKernel(s=1.5), ConstantKernel(c=2.0)):
        flat, fast = far_pairs(spec, gibbs, grid)
        assert flat.size == level * (level // 2 - 2)
        sample = slice(None, None, max(1, flat.size // 500))
        flat, fast = flat[sample], fast[sample]
        slow = _pair_integrals(spec, gibbs, grid, jj[flat], kk[flat], _panel_gauss(12, grid))
        assert np.allclose(fast, slow, rtol=1e-8, atol=0.0), (level, spec)


@dataclass
class TentMeasure(MeasureSpec):
    """Density 1 + |((x - 0.3) mod 1) - 1/2| - 1/4: kinks at 0.3 and 0.8, inside cells 5 and 13 of level 16."""

    def density(self, pts):
        x = np.atleast_2d(pts)[:, 0]
        return 1.0 + np.abs(np.mod(x - 0.3, 1.0) - 0.5) - 0.25


def test_far_pairs_failing_the_coarse_check_fall_back_to_the_pair_rule(monkeypatch):
    spec, meas, grid = FractionalKernel(s=1.0), TentMeasure(), build_grid(1, 16)
    lows = grid.points[:, 0] - 1 / 32
    weights = np.array([scipy_quad(lambda x: meas.density(x)[0], a, a + 1 / 16, points=[0.3, 0.8])[0] for a in lows])
    evaluated = []

    def spy(spec, meas, grid, j, k, rule):
        evaluated.extend(zip(j.tolist(), k.tolist()))
        return _pair_integrals(spec, meas, grid, j, k, rule)

    monkeypatch.setattr(discretize, "_pair_integrals", spy)
    eta = discretize_kernel(spec, meas, grid, weights=weights)
    # the far pairs on the pair rule are those of the kink cells
    far = {(j, k) for j, k in evaluated if 2 <= min(k - j, 16 - (k - j)) <= 7}
    offsets = [sign * o for o in range(2, 8) for sign in (1, -1)]
    assert far == {tuple(sorted((a, (a + o) % 16))) for a in (5, 13) for o in offsets}
    monkeypatch.setattr(discretize, "_far_offsets", lambda spec, grid: np.arange(0))
    assert np.allclose(eta, discretize_kernel(spec, meas, grid, weights=weights), rtol=1e-8, atol=0.0)


# ---------------------------------------------------------------------------
# moment bound
# ---------------------------------------------------------------------------


def test_moment_bound_constant_large_margin():
    grid = build_grid(1, 8)
    sys = build_system(ConstantKernel(c=1.0), UniformMeasure(), grid)
    sup = second_moment(ConstantKernel(c=1.0), UniformMeasure(), 0.0)
    rep = verify_moment_bound(sys, sup)
    assert rep.passes
    assert rep.ratio < 1.0  # holds with room to spare, not just within slack


def test_moment_bound_fractional_stable_under_refinement():
    spec = FractionalKernel(s=1.0)
    sup = second_moment(spec, UniformMeasure(), 0.0)
    ms = []
    for n in (8, 16):
        sys = build_system(spec, UniformMeasure(), build_grid(1, n))
        rep = verify_moment_bound(sys, sup)
        assert rep.passes
        ms.append(rep.m_n)
    # uniform-in-n: refinement must not blow the discrete moment up
    assert ms[1] <= 4.0 * sup * 1.01


def test_refinement_consistency_at_fixed_far_pair():
    # eta_n at the pair (0, 1/2) approaches the pointwise kernel value
    spec = FractionalKernel(s=1.0)
    target = eval_kernel(spec, 0.0, 0.5)
    gaps = []
    for n in (4, 8, 16):
        grid = build_grid(1, n)
        eta = discretize_kernel(spec, UniformMeasure(), grid)
        j = 0
        k = n // 2
        gaps.append(abs(eta[j, k] - target))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    grid = build_grid(1, 8)
    meas = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    sys = build_system(FractionalKernel(s=1.5), meas, grid)
    path = tmp_path / "sys.json"
    save_system(sys, path)
    back = load_system(path)
    assert np.array_equal(back.pi, sys.pi)
    assert np.array_equal(back.eta, sys.eta)
    assert back.delta == sys.delta
    assert back.provenance == sys.provenance
    assert back.grid.level == 8 and back.grid.dim == 1


def test_load_rejects_a_delta_that_is_not_the_cell_diameter(tmp_path):
    sys = build_system(ConstantKernel(c=1.0), UniformMeasure(), build_grid(1, 4))
    path = tmp_path / "sys.json"
    save_system(sys, path)
    doc = json.loads(path.read_text())
    assert doc["delta"] == 0.25
    doc["delta"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="delta does not match the grid cell diameter"):
        load_system(path)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "nlw-system/v0", "dim": 1, "level": 2}')
    with pytest.raises(ValueError, match="schema"):
        load_system(path)
