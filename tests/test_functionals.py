"""Tests for means, entropy, Fisher information, action and the NCE residual."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import pair_order
from nlw.discretize import DiscreteSystem
from nlw.flow import tangent_flux
from nlw.functionals import (
    DensityState,
    action,
    fisher_information,
    log_mean,
    relative_entropy,
    theta_connectedness_constant,
)
from nlw.torus import build_grid


def arithmetic_mean(r, s):
    """(r + s)/2: the trivial admissible mean, a negative control.

    It satisfies the structural mean axioms but not the chain-rule
    identity theta * (log r - log s) = r - s, so the action computed
    with it does NOT reproduce the Fisher information.
    """
    r_arr = np.asarray(r, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(r_arr < 0.0) or np.any(s_arr < 0.0):
        raise ValueError("arithmetic mean requires nonnegative arguments")
    out = 0.5 * (r_arr + s_arr)
    return float(out) if np.isscalar(r) and np.isscalar(s) else out


def make_system(n=4, eta_value=1.0, pi=None, eta=None):
    grid = build_grid(1, n)
    if pi is None:
        pi = np.full(n, 1.0 / n)
    if eta is None:
        eta = np.full((n, n), eta_value)
        np.fill_diagonal(eta, 0.0)
    return DiscreteSystem.from_arrays(grid, pi, eta)


def two_state(pi=(0.5, 0.5), eta12=1.0):
    return make_system(2, pi=np.array(pi), eta=np.array([[0.0, eta12], [eta12, 0.0]]))


def on_pairs(sys, v):
    """The pair values v_ij, i < j in pair order, of an N x N matrix."""
    i, j, _ = pair_order(sys)
    return v[i, j]


def dense_flux(sys, v):
    """The antisymmetric N x N matrix of a flux ``v`` in pair order."""
    i, j, _ = pair_order(sys)
    dense = np.zeros((sys.n_points, sys.n_points))
    dense[i, j] = v
    dense[j, i] = -v
    return dense


# ---------------------------------------------------------------------------
# logarithmic mean
# ---------------------------------------------------------------------------


def test_log_mean_basic_values():
    assert log_mean(1.0, 1.0) == 1.0
    assert log_mean(4.0, 1.0) == pytest.approx(3.0 / np.log(4.0), rel=1e-14)
    assert log_mean(7.3, 0.0) == 0.0
    assert log_mean(0.0, 7.3) == 0.0
    assert log_mean(0.0, 0.0) == 0.0
    assert log_mean(2.5, 2.5) == 2.5


def test_log_mean_rejects_negative():
    with pytest.raises(ValueError):
        log_mean(-1.0, 2.0)
    with pytest.raises(ValueError):
        log_mean(np.array([1.0, -0.5]), np.array([1.0, 1.0]))


def test_log_mean_stable_branch_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    # both sides of the 1e-8 branch boundary against 50-digit arithmetic
    for d in (1e-9, 1e-10, 1e-12, 1e-15, 2e-8, 5e-9, 1e-6):
        r, s = 1.0, 1.0 + d
        exact = float((mp.mpf(r) - mp.mpf(s)) / (mp.log(mp.mpf(r)) - mp.log(mp.mpf(s))))
        assert log_mean(r, s) == pytest.approx(exact, rel=1e-13)


def test_log_mean_at_extreme_ratios():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    # (r - s)/s overflows, or rounds to -1 so that log1p gives -inf
    for r, s in ((1.0, 3e-320), (1e-17, 1.0), (1e-300, 1e10), (5e-324, 1e308), (2.0, 1e-310)):
        exact = float((mp.mpf(r) - mp.mpf(s)) / (mp.log(mp.mpf(r)) - mp.log(mp.mpf(s))))
        assert log_mean(r, s) == pytest.approx(exact, rel=1e-14)
        assert log_mean(s, r) == pytest.approx(exact, rel=1e-14)


def test_log_mean_properties_random():
    rng = np.random.default_rng(42)
    r = rng.random(100_000) * 10.0
    s = rng.random(100_000) * 10.0
    th = log_mean(r, s)
    # symmetry
    assert np.allclose(th, log_mean(s, r), rtol=1e-14)
    # upper bound by the arithmetic mean
    assert np.all(th <= 0.5 * (r + s) + 1e-12)
    # between min and max
    assert np.all(th >= np.minimum(r, s) - 1e-12)
    # 1-homogeneity
    lam = 2.75
    assert np.allclose(log_mean(lam * r, lam * s), lam * th, rtol=1e-12)
    # monotone in each argument
    th_up = log_mean(r + 0.5, s)
    assert np.all(th_up >= th - 1e-12)


def test_log_mean_midpoint_concavity():
    rng = np.random.default_rng(7)
    a = rng.random((5000, 2)) * 5.0
    b = rng.random((5000, 2)) * 5.0
    mid = log_mean(0.5 * (a[:, 0] + b[:, 0]), 0.5 * (a[:, 1] + b[:, 1]))
    avg = 0.5 * (log_mean(a[:, 0], a[:, 1]) + log_mean(b[:, 0], b[:, 1]))
    assert np.all(mid >= avg - 1e-12)


def test_log_mean_matrix_shape():
    u = np.array([1.0, 2.0, 0.0])
    th = log_mean(u[:, None], u[None, :])
    assert th.shape == (3, 3)
    assert th[0, 1] == pytest.approx(1.0 / np.log(2.0), rel=1e-14)
    assert th[2, 2] == 0.0
    assert th[0, 2] == 0.0


def test_arithmetic_mean_control():
    assert arithmetic_mean(4.0, 1.0) == 2.5
    # strictly above the log mean off the diagonal
    assert arithmetic_mean(4.0, 1.0) > log_mean(4.0, 1.0)


def test_theta_connectedness_constant_series_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    series = float(mp.nsum(lambda k: (2 * k + 1) ** -2, [0, mp.inf]))
    val = theta_connectedness_constant()
    assert val == pytest.approx(series, rel=1e-9)
    assert val == pytest.approx(np.pi**2 / 8.0, rel=1e-9)
    # integrand at r = 0 is 1/theta(1,1) = 1
    assert log_mean(1.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# states and fluxes
# ---------------------------------------------------------------------------


def test_density_state_validation():
    sys = make_system(4)
    DensityState(sys, np.array([2.0, 1.0, 0.5, 0.5]))  # mass 1
    with pytest.raises(ValueError):
        DensityState(sys, np.array([2.0, 1.0, 0.5, 0.4]))  # mass 0.975
    with pytest.raises(ValueError):
        DensityState(sys, np.array([2.0, 1.0, 1.5, -0.5]))
    with pytest.raises(ValueError):
        DensityState(sys, np.array([1.0, 1.0, 1.0]))


def test_density_state_constructors():
    sys = make_system(4)
    assert np.array_equal(DensityState.uniform(sys).u, np.ones(4))
    pm = DensityState.point_mass(sys, 2)
    assert pm.u[2] == 4.0 and pm.u[0] == 0.0
    assert np.allclose(pm.masses, [0, 0, 1, 0])
    fm = DensityState.from_masses(sys, [0.25, 0.25, 0.25, 0.25])
    assert np.allclose(fm.u, 1.0)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_at_equilibrium_is_zero():
    sys = make_system(4)
    assert relative_entropy(DensityState.uniform(sys)) == 0.0


def test_entropy_point_mass_uniform():
    sys = make_system(4)
    rho = DensityState(sys, np.array([4.0, 0.0, 0.0, 0.0]))
    assert relative_entropy(rho) == pytest.approx(np.log(4.0), rel=1e-14)


def test_entropy_nonnegative_and_alt_form():
    rng = np.random.default_rng(3)
    sys = make_system(8)
    for _ in range(50):
        u = rng.random(8) + 0.01
        u /= u @ sys.pi
        rho = DensityState(sys, u)
        h = relative_entropy(rho)
        assert h >= 0.0
        alt = float(np.sum((u * np.log(u) - u + 1.0) * sys.pi))
        assert h == pytest.approx(alt, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_zero_at_equilibrium():
    sys = make_system(4)
    assert fisher_information(DensityState.uniform(sys)) == 0.0


def test_fisher_two_state_frozen_value():
    sys = two_state()
    rho = DensityState(sys, np.array([1.5, 0.5]))
    # (u1-u2)(log u1 - log u2) eta pi1 pi2 = ln(3)/4
    assert fisher_information(rho) == pytest.approx(np.log(3.0) / 4.0, rel=1e-14)


def test_fisher_infinite_next_to_hole():
    sys = two_state()
    rho = DensityState(sys, np.array([2.0, 0.0]))
    assert fisher_information(rho) == np.inf


def test_fisher_nonnegative_random():
    rng = np.random.default_rng(11)
    sys = make_system(8)
    for _ in range(100):
        u = rng.random(8)
        u /= u @ sys.pi
        assert fisher_information(DensityState(sys, u)) >= 0.0


# ---------------------------------------------------------------------------
# nonlocal gradient
# ---------------------------------------------------------------------------


def nonlocal_gradient(phi):
    """Discrete nonlocal gradient G_ij = phi_j - phi_i (antisymmetric)."""
    phi = np.asarray(phi, dtype=float)
    return phi[None, :] - phi[:, None]


def test_nonlocal_gradient():
    g = nonlocal_gradient([0.0, 1.0])
    assert np.array_equal(g, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.all(nonlocal_gradient([3.0, 3.0, 3.0]) == 0.0)
    # gauge invariance (up to roundoff in the shifted differences)
    phi = np.array([0.3, -1.0, 2.0])
    assert np.allclose(nonlocal_gradient(phi), nonlocal_gradient(phi + 17.0), atol=1e-13)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def test_action_zero_flux():
    sys = make_system(4)
    rho = DensityState.uniform(sys)
    assert action(rho, np.zeros(6)) == 0.0


def test_action_two_state_frozen_value():
    sys = two_state()
    rho = DensityState(sys, np.array([1.0, 1.0]))
    v = np.array([0.25])
    # ordered-pair sum: 2 * (1/16) / (2 * 1 * 1 * 1/4) = 1/4
    assert action(rho, v) == pytest.approx(0.25, rel=1e-14)


def test_action_ordered_equals_twice_upper():
    rng = np.random.default_rng(5)
    sys = make_system(6)
    u = rng.random(6) + 0.1
    u /= u @ sys.pi
    rho = DensityState(sys, u)
    upper = rng.standard_normal((6, 6))
    full = action(rho, on_pairs(sys, upper))
    # hand-rolled i < j sum, doubled
    half = 0.0
    from nlw.functionals import log_mean as th

    for i in range(6):
        for j in range(i + 1, 6):
            den = 2.0 * th(u[i], u[j]) * sys.eta[i, j] * sys.pi[i] * sys.pi[j]
            half += upper[i, j] ** 2 / den
    assert full == pytest.approx(2.0 * half, rel=1e-12)


def test_action_zero_over_zero_convention():
    # no flux across a degenerate edge costs nothing
    sys = two_state()
    rho = DensityState(sys, np.array([2.0, 0.0]))  # theta(u1, u2) = 0
    assert action(rho, np.zeros(1)) == 0.0


def test_action_with_arithmetic_mean_differs():
    sys = two_state()
    rho = DensityState(sys, np.array([1.5, 0.5]))
    v = np.array([0.3])
    a_log = action(rho, v)
    a_ari = action(rho, v, theta_fn=arithmetic_mean)
    assert a_ari < a_log  # arithmetic mean is strictly larger off-diagonal


def test_action_jointly_convex_random():
    rng = np.random.default_rng(17)
    sys = make_system(5)
    for _ in range(50):
        u1 = rng.random(5) + 0.05
        u1 /= u1 @ sys.pi
        u2 = rng.random(5) + 0.05
        u2 /= u2 @ sys.pi
        v1 = on_pairs(sys, rng.standard_normal((5, 5)))
        v2 = on_pairs(sys, rng.standard_normal((5, 5)))
        rho1, rho2 = DensityState(sys, u1), DensityState(sys, u2)
        mid_rho = DensityState(sys, 0.5 * (u1 + u2))
        mid_v = 0.5 * (v1 + v2)
        lhs = action(mid_rho, mid_v)
        rhs = 0.5 * action(rho1, v1) + 0.5 * action(rho2, v2)
        assert lhs <= rhs + 1e-10


# ---------------------------------------------------------------------------
# continuity residual
# ---------------------------------------------------------------------------


def continuity_residual(mu_dot, v):
    """max_i |mu_dot_i + sum_j v_ij| for an N x N flux ``v``: zero exactly when
    (mu_dot, v) solves d/dt mu_i + sum_j v_ij = 0."""
    mu_dot = np.asarray(mu_dot, dtype=float)
    if v.shape != (mu_dot.shape[0],) * 2:
        raise ValueError("shape mismatch between mu_dot and flux")
    return float(np.max(np.abs(mu_dot + v.sum(axis=1))))


def test_continuity_residual_zero_case():
    assert continuity_residual(np.zeros(3), np.zeros((3, 3))) == 0.0


def test_continuity_residual_exact_solution_and_perturbation():
    rng = np.random.default_rng(23)
    sys = make_system(5)
    v = dense_flux(sys, on_pairs(sys, rng.standard_normal((5, 5))))
    mu_dot = -v.sum(axis=1)
    assert continuity_residual(mu_dot, v) == 0.0
    eps = 1e-4
    pert = v.copy()
    pert[0, 1] += eps
    pert[1, 0] -= eps
    res = continuity_residual(mu_dot, pert)
    assert res == pytest.approx(eps, rel=1e-10)


# ---------------------------------------------------------------------------
# dense oracles: the N x N bodies the pair-list functionals replaced
# ---------------------------------------------------------------------------


def masked_log_mean(r, s):
    """The boolean-masked logarithmic mean, branch by branch."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(r_arr < 0.0) or np.any(s_arr < 0.0):
        raise ValueError("log mean requires nonnegative arguments")
    rb, sb = np.broadcast_arrays(r_arr, s_arr)
    out = np.zeros(rb.shape)
    pos = (rb > 0.0) & (sb > 0.0)
    near = pos & (np.abs(rb - sb) <= 1e-8 * np.maximum(rb, sb))
    far = pos & ~near
    if np.any(near):
        m = 0.5 * (rb[near] + sb[near])
        d = rb[near] - sb[near]
        out[near] = m - d * d / (12.0 * m)
    if np.any(far):
        rr, ss = rb[far], sb[far]
        d = rr - ss
        with np.errstate(over="ignore", divide="ignore"):
            ell = np.copysign(np.log1p(np.abs(d) / np.minimum(rr, ss)), d)  # log(r/s), ratio oriented >= 1
        wide = ~np.isfinite(ell)  # r/s beyond the float range
        ell[wide] = np.log(rr[wide]) - np.log(ss[wide])
        out[far] = d / ell
    if np.isscalar(r) and np.isscalar(s):
        return float(out[0])
    return out.reshape(np.broadcast_shapes(np.shape(r), np.shape(s)))


def dense_fisher(rho):
    u = rho.u
    sys = rho.system
    pos = u > 0.0
    if not np.all(pos):
        zero = ~pos
        if np.any(sys.eta[np.ix_(pos, zero)] > 0.0):
            return float("inf")
    safe_log = np.where(pos, np.log(np.where(pos, u, 1.0)), 0.0)
    du = u[:, None] - u[None, :]
    dlog = safe_log[:, None] - safe_log[None, :]
    pipj = sys.pi[:, None] * sys.pi[None, :]
    return 0.5 * float(np.sum(du * dlog * sys.eta * pipj))


def dense_tangent_flux(rho):
    sys = rho.system
    u = rho.u
    du_eta = (u[:, None] - u[None, :]) * sys.eta
    return du_eta * (sys.pi[:, None] * sys.pi[None, :])


def dense_action(rho, v, theta_fn=masked_log_mean):
    u = rho.u
    sys = rho.system
    theta = theta_fn(u[:, None], u[None, :])
    den = 2.0 * theta * sys.eta * (sys.pi[:, None] * sys.pi[None, :])
    num = v * v
    zero_den = den == 0.0
    if np.any(zero_den & (num > 0.0)):
        return float("inf")
    terms = np.divide(num, den, out=np.zeros_like(num), where=~zero_den)
    return float(np.sum(terms))


def assert_matches_oracle(got, want):
    """inf and 0.0 exactly where the oracle has them, rtol 1e-13 elsewhere."""
    if want == np.inf or want == 0.0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_log_mean_equals_the_masked_oracle_bit_for_bit():
    tiny = np.finfo(float).tiny
    # (r, s): far, near, just outside the series cut, zeros, subnormals, extremes
    cases = [
        (1.0, 1.0), (4.0, 1.0), (0.3, 2.7), (1.0, 1.0 + 5e-9), (1.0, 1.0 - 1e-8),
        (1.0 + 1e-8, 1.0), (1.0, 1.0 + 1.0000001e-8), (1.0, 1.0 + 2e-8), (2.0, 2.0 * (1 + 1e-12)),
        (0.0, 0.0), (0.0, 3.0), (5.0, 0.0), (1e-310, 1.1e-310), (3e-320, 3e-320),
        (tiny, 2 * tiny), (7.0, 7.0 * (1 + 1e-15)), (1e300, 2e300),
    ]
    r, s = np.array(cases).T
    rng = np.random.default_rng(31)
    far = rng.random(200) * 10.0
    near = far * (1.0 + rng.uniform(-2e-8, 2e-8, 200))  # both sides of the series cut
    r = np.concatenate([r, far, near, far])
    s = np.concatenate([s, near, far, np.where(rng.random(200) < 0.2, 0.0, far[::-1])])
    assert np.array_equal(log_mean(r, s), masked_log_mean(r, s))
    assert np.array_equal(log_mean(s, r), masked_log_mean(s, r))
    u = r[:40]  # ratios beyond the float range among them
    assert np.array_equal(log_mean(u[:, None], u[None, :]), masked_log_mean(u[:, None], u[None, :]))
    for a, b in [(4.0, 1.0), (1.0, 1.0 + 5e-9), (0.0, 2.0), (0.0, 0.0), (3.0, 3.0)]:
        got = log_mean(a, b)
        assert type(got) is float and got == masked_log_mean(a, b)


def random_pair_system(rng, n):
    """Random pi and random positive eta."""
    mat = rng.uniform(0.1, 2.0, size=(n, n))
    eta = np.triu(mat, k=1)
    eta = eta + eta.T
    pi = rng.uniform(0.2, 1.0, size=n)
    return make_system(n, pi=pi / pi.sum(), eta=eta)


def oracle_states(rng, sys):
    """Positive, near-diagonal, uniform and holed states of ``sys``."""
    n = sys.n_points
    raw = [
        rng.uniform(0.05, 2.0, size=n),
        1.0 + 1e-10 * rng.standard_normal(n),
        1.0 + 3e-9 * rng.standard_normal(n),  # straddles the log-mean series cut
        np.ones(n),
    ]
    holed = rng.uniform(0.05, 2.0, size=n)
    holed[rng.choice(n, size=n // 3, replace=False)] = 0.0
    raw.append(holed)
    return [DensityState(sys, u / (u @ sys.pi)) for u in raw]


def oracle_fluxes(rng, rho):
    """Tangent, zero, random and support-restricted fluxes."""
    n = rho.system.n_points
    upper = np.triu(rng.standard_normal((n, n)), k=1)
    supported = upper * ((rho.u[:, None] > 0.0) & (rho.u[None, :] > 0.0))
    return [dense_tangent_flux(rho), np.zeros((n, n)), upper - upper.T, supported - supported.T]


@pytest.mark.parametrize("n", [5, 13, 40])
def test_pair_functionals_match_the_dense_oracles(n):
    rng = np.random.default_rng(100 + n)
    seen_inf = seen_zero = 0
    for _ in range(3):
        sys = random_pair_system(rng, n)
        for rho in oracle_states(rng, sys):
            want = dense_fisher(rho)
            assert_matches_oracle(fisher_information(rho), want)
            seen_inf += want == np.inf
            got = dense_flux(sys, tangent_flux(rho))
            np.testing.assert_allclose(got, dense_tangent_flux(rho), rtol=1e-13, atol=0.0)
            for v in oracle_fluxes(rng, rho):
                want = dense_action(rho, v)
                assert_matches_oracle(action(rho, on_pairs(sys, v)), want)
                assert_matches_oracle(
                    action(rho, on_pairs(sys, v), theta_fn=arithmetic_mean), dense_action(rho, v, arithmetic_mean)
                )
                seen_inf += want == np.inf
                seen_zero += want == 0.0
    assert seen_inf and seen_zero


@pytest.mark.parametrize(
    "n, v",
    [
        (6, np.zeros(14)),
        (4, np.zeros(10)),
        (4, np.zeros((1, 6))),
        (2, np.array([np.nan])),
        (3, np.array([0.0, np.inf, 1.0])),
    ],
    ids=["one_short", "too_many", "two_dimensional", "nan", "inf"],
)
def test_action_rejects_a_flux_of_the_wrong_shape_or_with_non_finite_entries(n, v):
    with pytest.raises(ValueError, match="flux"):
        action(DensityState.uniform(make_system(n)), v)


def test_pair_list_audit_peak_memory_at_1024_points():
    n = 1024
    x = np.arange(n) / n
    pi = np.exp(-np.cos(2.0 * np.pi * x))
    dist = np.abs(x[:, None] - x[None, :])
    dist = np.minimum(dist, 1.0 - dist)
    eta = 1.0 / np.maximum(dist, 0.5 / n) ** 2
    np.fill_diagonal(eta, 0.0)
    sys = make_system(n, pi=pi / pi.sum(), eta=eta)
    u = 1.0 + 0.5 * np.sin(2.0 * np.pi * x)
    rho = DensityState(sys, u / (u @ sys.pi))
    pair_bytes = 8 * (n * (n - 1) // 2)  # one float per pair i < j
    tracemalloc.start()
    try:
        fisher = fisher_information(rho)
        act = action(rho, tangent_flux(rho))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one pair-value array (the flux) plus row temporaries; the dense
    # N x N bodies peaked at about 59 MiB here, 15 pair-value arrays
    assert peak < 2 * pair_bytes, f"peak {peak / 2**20:.2f} MiB"
    assert act == pytest.approx(fisher, rel=1e-12)
