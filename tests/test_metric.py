"""Tests for the path-based transport distance.

The two-point system doubles as the exact oracle: there the distance
is a one-dimensional integral in the mass coordinate, which we evaluate
both with scipy quadrature (the oracle in ``conftest``) and with mpmath at high
precision, and then require the path optimizer to reproduce it under
time refinement.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import nlw.metric

from conftest import AxiomCheck, check_metric_axioms, pair_order, two_point_distance_oracle
from nlw.discretize import DiscreteSystem, build_system
from nlw.experiments import density_from_spec
from nlw.flow import IntegratorConfig, solve
from nlw.functionals import DensityState, _log_mean_derivatives, fisher_information, log_mean
from nlw.kernels import FractionalKernel, GibbsMeasure, PotentialSpec, UniformMeasure
from nlw.metric import (
    BARRIER_SCHEDULE,
    EPS_POLISH,
    DiscretePath,
    PathProblem,
    _block_tridiagonal_solve,
    _PathWorkspace,
    _spd_inverse,
    action_of_path,
    nlw_distance,
)
from nlw.torus import build_grid


def make_system(n, pi=None, eta=None):
    grid = build_grid(1, n)
    if pi is None:
        pi = np.full(n, 1.0 / n)
    if eta is None:
        eta = np.ones((n, n))
        np.fill_diagonal(eta, 0.0)
    return DiscreteSystem.from_arrays(grid, pi, eta)


def two_state(pi=(0.5, 0.5), eta12=1.0):
    return make_system(2, pi=np.array(pi), eta=np.array([[0.0, eta12], [eta12, 0.0]]))


def state(sys, u):
    return DensityState(sys, np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# the logarithmic mean and its partial derivatives
# ---------------------------------------------------------------------------


def log_mean_partial_oracle(r, s):
    """d theta / d r, elementwise: the masked two-pass formula the solver
    used before the mean and both partials came from one helper, with
    log(r/s) taken through the ratio oriented to be >= 1."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    out = np.zeros(np.broadcast_shapes(r.shape, s.shape))
    rb = np.broadcast_to(r, out.shape)
    sb = np.broadcast_to(s, out.shape)
    pos = (rb > 0.0) & (sb > 0.0)
    d = rb - sb
    m = 0.5 * (rb + sb)
    near = pos & (np.abs(d) <= 1e-8 * np.maximum(rb, sb))
    far = pos & ~near
    with np.errstate(divide="ignore", invalid="ignore"):
        mn = np.where(m > 0, m, 1.0)
        out[near] = (0.5 - d / (6.0 * mn))[near]
        ell = np.copysign(np.log1p(np.where(far, np.abs(d), 0.0) / np.where(far, np.minimum(rb, sb), 1.0)), d)
        theta = np.where(ell != 0.0, d / np.where(ell != 0.0, ell, 1.0), m)
        out[far] = ((1.0 - theta / np.where(rb > 0, rb, 1.0)) / np.where(ell != 0, ell, 1.0))[far]
    return out


def test_log_mean_partial_matches_finite_differences():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 3.0, size=200)
    s = rng.uniform(0.1, 3.0, size=200)
    # include near-equal pairs that exercise the series branch
    s[:50] = r[:50] * (1.0 + rng.uniform(-1e-9, 1e-9, size=50))

    h = 1e-7
    _, got_r, got_s = _log_mean_derivatives(r, s)[:3]
    fd_r = (np.asarray(log_mean(r + h, s)) - np.asarray(log_mean(r - h, s))) / (2 * h)
    fd_s = (np.asarray(log_mean(r, s + h)) - np.asarray(log_mean(r, s - h))) / (2 * h)
    assert np.max(np.abs(got_r - fd_r)) < 1e-6
    assert np.max(np.abs(got_s - fd_s)) < 1e-6


def test_log_mean_partial_special_values():
    assert _log_mean_derivatives(2.0, 2.0)[1] == pytest.approx(0.5, abs=1e-12)
    assert _log_mean_derivatives(2.0, 2.0)[2] == pytest.approx(0.5, abs=1e-12)
    for r, s in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        assert all(v == 0.0 for v in _log_mean_derivatives(r, s))


def _log_mean_cases():
    rng = np.random.default_rng(17)
    r = rng.uniform(0.0, 3.0, size=(6, 40))
    s = rng.uniform(0.0, 3.0, size=(6, 40))
    s[0] = r[0] * (1.0 + rng.uniform(-1e-8, 1e-8, size=40))  # near the diagonal
    s[1, :20] = r[1, :20]  # exactly on it
    r[2, ::3] = 0.0  # boundary entries
    s[2, 1::3] = 0.0
    s[3, :5] = r[3, :5] * (1.0 + 2e-8)  # just outside the series branch
    return {
        "mixed": (r, s),
        "all far": (r[4:] + 0.5, np.flip(r[4:], axis=1) + 0.01),
        "scalar near": (1.5, 1.5 * (1.0 + 1e-9)),
    }


@pytest.mark.parametrize("name", ["mixed", "all far", "scalar near"])
def test_log_mean_and_partials_equal_the_separate_formulas(name):
    r, s = _log_mean_cases()[name]
    theta, dr, ds = _log_mean_derivatives(r, s)[:3]
    shape = np.atleast_1d(np.asarray(r)).shape
    assert np.array_equal(theta, np.asarray(log_mean(r, s), dtype=float).reshape(shape))
    assert np.array_equal(dr, log_mean_partial_oracle(r, s).reshape(shape))
    assert np.array_equal(ds, log_mean_partial_oracle(s, r).reshape(shape))


def test_log_mean_and_partials_at_extreme_ratios():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for r, s in ((1.0, 1e-17), (1e-17, 1.0), (3.0, 1e-300)):
        R, S = mp.mpf(r), mp.mpf(s)
        ell = mp.log(R) - mp.log(S)
        theta = (R - S) / ell
        got = _log_mean_derivatives(r, s)
        assert got[0][0] == log_mean(r, s) == pytest.approx(float(theta), rel=1e-14)
        assert got[1][0] == pytest.approx(float((1 - theta / R) / ell), rel=1e-12)
        assert got[2][0] == pytest.approx(float((theta / S - 1) / ell), rel=1e-12)
    theta, dr, ds = _log_mean_derivatives(1.0, 3e-320)[:3]
    assert theta[0] == log_mean(1.0, 3e-320) > 1e-3 and dr[0] > 1e-3 and ds[0] == np.inf


def _mp_log_mean(r, s):
    mp = pytest.importorskip("mpmath")
    R, S = mp.mpf(r), mp.mpf(s)
    ell = mp.log(R) - mp.log(S)
    theta = (R - S) / ell
    # theta_rs = (r + s - 2 theta) / (r s ell^2), from differentiating (1 - theta/r)/ell in s
    cross = (R + S - 2 * theta) / (R * S * ell**2)
    return theta, (1 - theta / R) / ell, (theta / S - 1) / ell, -(S / R) * cross, cross, -(R / S) * cross


def test_log_mean_keeps_its_digits_when_the_first_argument_is_much_smaller():
    # log1p((r - s)/s) sits next to log1p(-1) here: 2.7e-10 off at r = 1e-8, 2.5e-5 at 1e-14
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for r in (1e-4, 1e-8, 1e-12, 1e-14, 1e-17):
        for a, b in ((r, 1.0), (1.0, r), (3.0 * r, 2.5)):
            want = _mp_log_mean(a, b)
            got = _log_mean_derivatives(a, b)
            assert log_mean(a, b) == got[0][0]
            for value, ref in zip(got[:3], want[:3]):
                assert value[0] == pytest.approx(float(ref), rel=4e-16)


@pytest.mark.parametrize(
    "pairs",
    [
        [(1.0, 1.0), (2.0, 2.0 * (1 + 1e-12)), (1.0, 1.0 + 1e-6), (3.0, 3.03), (1.0, 1.1)],  # near
        [(1.0, 1.2), (2.0, 0.5), (0.3, 7.0), (5.0, 1.0)],  # far
        [(1.0, 1e-8), (1e-14, 1.0), (1.0, 1e-300), (4e-200, 3.0)],  # extreme ratios
    ],
    ids=["near", "far", "extreme"],
)
def test_log_mean_second_partials_against_mpmath(pairs):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    r, s = (np.array(v) for v in zip(*pairs))
    rr, rs, ss = _log_mean_derivatives(r, s)[3:]
    for k, (a, b) in enumerate(pairs):
        if a == b:
            want = (-1 / (6 * a), 1 / (6 * a), -1 / (6 * a))
        else:
            want = [float(v) for v in _mp_log_mean(a, b)[3:]]
        for got, ref in zip((rr[k], rs[k], ss[k]), want):
            assert got == pytest.approx(ref, rel=2e-13)
    # boundary entries are zero, like the first partials
    assert all(v[0] == 0.0 for v in _log_mean_derivatives(np.array([0.0]), np.array([1.0]))[3:])


def test_log_mean_derivatives_overflow_quietly_at_subnormal_arguments():
    # theta_rs = 1/(6m) is above the float range for a subnormal midpoint m; the
    # cross series used to overflow outside the function's errstate and warn
    rr, rs, ss = _log_mean_derivatives(np.array([1e-310]), np.array([1.1e-310]))[3:]
    assert rs[0] == np.inf and rr[0] == ss[0] == -np.inf


def test_log_mean_and_partials_reject_negative_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        _log_mean_derivatives(np.array([1.0, -1e-300]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        _log_mean_derivatives(1.0, -2.0)


# ---------------------------------------------------------------------------
# two-point oracle
# ---------------------------------------------------------------------------


def test_oracle_against_high_precision_quadrature():
    mp = pytest.importorskip("mpmath")
    sys = two_state(pi=(0.3, 0.7), eta12=1.7)
    rho_a = state(sys, [8.0 / 3.0, 0.0 / 0.7 + 2.0 / 7.0])  # masses 0.8, 0.2
    rho_b = state(sys, [1.0, 1.0])  # masses 0.3, 0.7

    got = two_point_distance_oracle(sys, rho_a, rho_b)

    mp.mp.dps = 40
    p1, p2, eta = mp.mpf("0.3"), mp.mpf("0.7"), mp.mpf("1.7")

    def integrand(m):
        r, s = m / p1, (1 - m) / p2
        theta = (r - s) / (mp.log(r) - mp.log(s)) if r != s else r
        return 1 / mp.sqrt(theta * eta * p1 * p2)

    ref = mp.quad(integrand, [mp.mpf("0.3"), mp.mpf("0.8")])
    assert got == pytest.approx(float(ref), rel=1e-10)


def test_oracle_symmetry_and_identity():
    sys = two_state()
    a = state(sys, [1.6, 0.4])
    b = state(sys, [0.2, 1.8])
    assert two_point_distance_oracle(sys, a, b) == pytest.approx(
        two_point_distance_oracle(sys, b, a), rel=1e-12
    )
    assert two_point_distance_oracle(sys, a, a) == 0.0


def test_oracle_input_validation():
    with pytest.raises(ValueError, match="two-point"):
        two_point_distance_oracle(make_system(3), None, None)


# ---------------------------------------------------------------------------
# barrier objective: gradient, Hessian and Newton step
# ---------------------------------------------------------------------------


def random_system(n, seed):
    """n points, random pi and random positive eta."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 1.5, size=n)
    pi /= pi.sum()
    eta = rng.uniform(0.2, 2.0, size=(n, n))
    eta = eta + eta.T
    np.fill_diagonal(eta, 0.0)
    return make_system(n, pi=pi, eta=eta)


def random_interior_point(n, n_steps, seed):
    """A workspace and a point (x, mu) off the feasible set, with every interior level at the right mass."""
    rng = np.random.default_rng(seed)
    sys = random_system(n, seed)
    raw = rng.uniform(0.2, 2.0, size=(2, n))
    a, b = (state(sys, v / (v @ sys.pi)) for v in raw)
    ws = _PathWorkspace(PathProblem(sys, a, b, n_steps=n_steps))
    x = ws.initial_point()
    mu = ws.masses(x)
    mu[-1] = ws.muT
    mu[1:-1] *= rng.uniform(0.8, 1.2, size=mu[1:-1].shape)
    mu[1:-1] *= (ws.mu0.sum() / mu[1:-1].sum(axis=1))[:, None]
    x = x + rng.normal(scale=0.05 * np.abs(x).max(), size=x.shape)
    return ws, x, mu


def _split(ws, z):
    E = pair_order(ws.sys)[2].size
    x = z[: ws.M * E].reshape(ws.M, E)
    mu = np.vstack([ws.mu0, z[ws.M * E :].reshape(ws.M - 1, -1), ws.muT])
    return x, mu


def _gradient(ws, z, beta, eps):
    x, mu = _split(ws, z)
    g_x, g_mu, _, _ = ws.newton_step(x, mu, beta, eps)
    return np.concatenate([g_x.ravel(), g_mu.ravel()])


def test_objective_gradient_matches_finite_differences():
    h = 1e-6
    for n, n_steps in ((3, 4), (8, 3)):
        ws, x, mu = random_interior_point(n, n_steps, seed=n)
        z = np.concatenate([x.ravel(), mu[1:-1].ravel()])
        for beta, eps in ((1e-2, 1e-2), (0.0, 1e-12)):
            fd = np.empty_like(z)
            for k in range(z.size):
                step = np.zeros_like(z)
                step[k] = h
                plus = ws.objective(*_split(ws, z + step), beta, eps)
                fd[k] = (plus - ws.objective(*_split(ws, z - step), beta, eps)) / (2 * h)
            g = _gradient(ws, z, beta, eps)
            assert np.max(np.abs(g - fd)) < 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize("n, n_steps", [(3, 4), (8, 3)])
@pytest.mark.parametrize("beta, eps", [(1e-2, 1e-2), (0.0, 1e-12)])
def test_newton_step_solves_the_kkt_system_of_the_finite_difference_hessian(n, n_steps, beta, eps):
    ws, x, mu = random_interior_point(n, n_steps, seed=n)
    M, E, dt = ws.M, pair_order(ws.sys)[2].size, ws.dt
    z = np.concatenate([x.ravel(), mu[1:-1].ravel()])
    h = 1e-6
    H = np.empty((z.size, z.size))
    for k in range(z.size):
        step = np.zeros_like(z)
        step[k] = h
        H[:, k] = (_gradient(ws, z + step, beta, eps) - _gradient(ws, z - step, beta, eps)) / (2 * h)
    H = 0.5 * (H + H.T)
    # continuity rows mu^{m+1} - mu^m + dt D x^m = 0, m = 0 .. M-1, and their residual
    D = dense_incidence(ws.sys)
    A = np.zeros((M * n, z.size))
    for m in range(M):
        A[m * n : (m + 1) * n, m * E : (m + 1) * E] = dt * D
        if m + 1 < M:
            A[m * n : (m + 1) * n, M * E + m * n : M * E + (m + 1) * n] += np.eye(n)
        if m > 0:
            A[m * n : (m + 1) * n, M * E + (m - 1) * n : M * E + m * n] -= np.eye(n)
    residual = np.diff(mu, axis=0) + dt * x @ D.T
    kkt = np.block([[H, A.T], [A, np.zeros((M * n, M * n))]])
    rhs = -np.concatenate([_gradient(ws, z, beta, eps), residual.ravel()])
    want = np.linalg.lstsq(kkt, rhs, rcond=None)[0][: z.size]
    _, _, dx, dmu = ws.newton_step(x, mu, beta, eps)
    got = np.concatenate([dx.ravel(), dmu.ravel()])
    assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(want))


def test_objective_infinite_outside_positive_cone():
    sys = two_state()
    a = state(sys, [1.6, 0.4])
    ws = _PathWorkspace(PathProblem(sys, a, a, n_steps=4))
    x = ws.initial_point()
    assert np.isfinite(ws.objective(x, ws.masses(x), 1e-2, 1e-2))
    x[0, 0] = 50.0  # huge first-step flux drains node 0 negative
    for beta, eps in ((1e-2, 1e-2), (0.0, 1e-12)):
        assert ws.objective(x, ws.masses(x), beta, eps) == np.inf


def dense_incidence(sys):
    """N x E incidence matrix D: +1 at node i and -1 at node j of pair (i, j)."""
    i, j, _ = pair_order(sys)
    cols = np.arange(i.size)
    D = np.zeros((sys.n_points, i.size))
    D[i, cols] = 1.0
    D[j, cols] = -1.0
    return D


def gradient_oracle(ws, x, mu, beta, eps):
    """The objective and its gradient as computed before the one-pass mean and the
    bincount scatter: ``log_mean`` plus two partial calls and ``np.add.at``."""
    dt = ws.dt
    interior = mu[1:-1]
    u = mu / ws.sys.pi[None, :]
    ut = 0.5 * (u[:-1] + u[1:])
    ei, ej, w = pair_order(ws.sys)
    r, s = ut[:, ei], ut[:, ej]
    theta = np.asarray(log_mean(r, s)) + eps
    cond = theta * w[None, :]
    f = dt * float(np.sum(x * x / cond))
    bar = np.zeros_like(interior)
    if beta > 0.0:
        f -= beta * float(np.sum(np.log(np.asfortranarray(u[1:-1]))))
        bar = beta / interior
    coef = -dt * x * x / (cond * theta)
    G = np.zeros((ws.M, ws.sys.n_points))
    np.add.at(G, (slice(None), ei), coef * log_mean_partial_oracle(r, s))
    np.add.at(G, (slice(None), ej), coef * log_mean_partial_oracle(s, r))
    return f, 2.0 * dt * x / cond, (G[:-1] + G[1:]) / (2.0 * ws.sys.pi[None, :]) - bar


@pytest.mark.parametrize("same_ends", [False, True])
def test_objective_is_bit_equal_to_the_two_pass_oracle(same_ends):
    rng = np.random.default_rng(23)
    n = 5
    pi = rng.uniform(0.5, 1.5, size=n)
    pi /= pi.sum()
    eta = rng.uniform(0.2, 2.0, size=(n, n))
    eta = eta + eta.T
    np.fill_diagonal(eta, 0.0)
    sys = make_system(n, pi=pi, eta=eta)
    a = state(sys, np.ones(n))
    raw = rng.uniform(0.2, 2.0, size=n)
    b = a if same_ends else state(sys, raw / (raw @ pi))
    ws = _PathWorkspace(PathProblem(sys, a, b, n_steps=6))
    x0 = ws.initial_point()
    # tiny fluxes keep same-end midpoints within the series branch of the mean
    for scale in (0.0, 1e-10, 1e-3):
        x = ws.close_total(x0 + rng.normal(scale=scale, size=x0.shape))
        mu = ws.masses(x)
        for beta, eps in ((1e-2, 1e-2), (1e-6, 1e-6), (0.0, 1e-12)):
            f = ws.objective(x, mu, beta, eps)
            g_x, g_mu, _, _ = ws.newton_step(x, mu, beta, eps)
            f_ref, gx_ref, gmu_ref = gradient_oracle(ws, x, mu, beta, eps)
            assert np.isfinite(f)
            assert f == f_ref
            assert np.array_equal(g_x, gx_ref)
            assert np.array_equal(g_mu, gmu_ref)


def test_laplacian_projection_matches_the_dense_null_space_and_lstsq():
    sys = random_system(6, seed=11)
    a = DensityState.uniform(sys)
    ws = _PathWorkspace(PathProblem(sys, a, a, n_steps=4))
    D = dense_incidence(ws.sys)
    basis = scipy.linalg.null_space(D)
    assert basis.shape == (15, 10)  # E - N + 1 independent cycles of the complete graph
    rng = np.random.default_rng(5)
    for _ in range(5):
        z = rng.normal(size=D.shape[1])
        assert np.max(np.abs(ws.project(z) - basis @ (basis.T @ z))) < 1e-12
    g = rng.normal(size=(3, 6))
    g -= g.mean(axis=1, keepdims=True)
    rows = ws.least_norm(g)
    for k in range(3):
        ref = np.linalg.lstsq(D, g[k], rcond=None)[0]
        assert np.max(np.abs(ws.least_norm(g[k]) - ref)) < 1e-12
        assert np.max(np.abs(rows[k] - ref)) < 1e-12


def benchmark_transport(n):
    """The transport benchmark problem on n points: the fractional (s = 1) Gibbs system
    of cos(2 pi x), uniform -> Gibbs state of sin(2 pi x), M = 16, max_iter = 1000."""
    measure = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    sys = build_system(FractionalKernel(s=1.0), measure, build_grid(1, n))
    a = density_from_spec({"type": "uniform"}, sys)
    b = density_from_spec({"type": "gibbs", "potential": {"expr": "sin(2*pi*x)"}}, sys)
    return PathProblem(sys, a, b, n_steps=16, max_iter=1000)


def test_newton_steps_stay_flat_as_the_grid_refines():
    # the quasi-Newton descent this solver replaced took 1,146 or more iterations from N = 8 on
    for n in (8, 16, 32, 64):
        res = nlw_distance(benchmark_transport(n))
        assert res.converged and res.constraint_residual < 1e-12
        assert res.iterations <= 40, (n, res.stage_iterations)


def test_the_32_point_benchmark_problem_keeps_its_distance():
    # a change to how the Newton step factors its blocks may move w in its last bits only
    res = nlw_distance(benchmark_transport(32))
    assert res.converged
    assert res.iterations <= 20, res.stage_iterations
    assert res.w == pytest.approx(0.17897633195467047, rel=1e-10, abs=0.0)


def test_workspace_memory_at_128_points_stays_on_the_edge_list():
    # the workspace and one Newton step stay O(M E + M N^2); an E x (E - N + 1)
    # null-space basis alone is ~0.5 GiB here
    sys = build_system(FractionalKernel(s=1.0), UniformMeasure(), build_grid(1, 128))
    x = sys.grid.points[:, 0]
    a = DensityState.uniform(sys)
    b = state(sys, 1.0 + 0.5 * np.cos(2 * np.pi * x))
    tracemalloc.start()
    try:
        ws = _PathWorkspace(PathProblem(sys, a, b, n_steps=16))
        x = ws.initial_point()
        mu = ws.masses(x)
        f = ws.objective(x, mu, 1e-2, 1e-2)
        _, _, dx, dmu = ws.newton_step(x, mu, 1e-2, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair_order(ws.sys)[2].size == 128 * 127 // 2
    assert np.isfinite(f) and dx.shape == x.shape and dmu.shape == (15, 128)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# block solvers of the Newton step: Cholesky inverses, block tridiagonal elimination
# ---------------------------------------------------------------------------


def random_spd_blocks(rng, count, n):
    """``count`` random symmetric positive definite n x n blocks."""
    g = rng.normal(size=(count, n, n))
    return g @ np.swapaxes(g, 1, 2) + n * np.eye(n)


def random_block_tridiagonal(rng, K, n):
    """Diagonal and upper blocks of a random SPD block tridiagonal system, and its dense matrix."""
    diag = random_spd_blocks(rng, K, n) + 2.0 * n * np.eye(n)  # dominant enough to stay positive definite
    upper = rng.normal(size=(K - 1, n, n))
    dense = scipy.linalg.block_diag(*diag)
    for k in range(K - 1):
        dense[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = upper[k]
        dense[(k + 1) * n : (k + 2) * n, k * n : (k + 1) * n] = upper[k].T
    assert np.linalg.eigvalsh(dense).min() > 0.0
    return diag, upper, dense


@pytest.mark.parametrize("n", [1, 5, 32])
@pytest.mark.parametrize("K", [1, 2, 15])
def test_block_tridiagonal_solve_matches_a_dense_solve(K, n):
    rng = np.random.default_rng(100 * K + n)
    diag, upper, dense = random_block_tridiagonal(rng, K, n)
    rhs = rng.normal(size=(K, n))
    z = _block_tridiagonal_solve(diag, upper, rhs)
    ref = np.linalg.solve(dense, rhs.ravel()).reshape(K, n)
    assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_block_tridiagonal_solve_raises_on_an_indefinite_pivot(bad):
    # the first pivot, a middle one and the last, which solves against y alone
    rng = np.random.default_rng(7)
    diag, upper, _ = random_block_tridiagonal(rng, 3, 5)
    diag[bad, 2, 2] = -1.0  # the Schur complements only lower a pivot further
    with pytest.raises(np.linalg.LinAlgError):
        _block_tridiagonal_solve(diag, upper, rng.normal(size=(3, 5)))


@pytest.mark.parametrize("n", [1, 5, 32])
def test_spd_inverse_matches_the_dense_inverse(n):
    blocks = random_spd_blocks(np.random.default_rng(n), 4, n)
    inv = _spd_inverse(blocks)
    ref = np.linalg.inv(blocks)
    assert np.max(np.abs(inv - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_spd_inverse_raises_on_a_block_that_is_not_positive_definite():
    blocks = random_spd_blocks(np.random.default_rng(3), 3, 5)
    blocks[1] -= (np.linalg.eigvalsh(blocks[1]).min() + 1.0) * np.eye(5)  # one eigenvalue -1
    with pytest.raises(np.linalg.LinAlgError):
        _spd_inverse(blocks)


# ---------------------------------------------------------------------------
# distance solver against the oracle
# ---------------------------------------------------------------------------


def test_two_point_distance_converges_to_oracle():
    sys = two_state()
    a = state(sys, [1.6, 0.4])
    b = state(sys, [0.6, 1.4])
    ref = two_point_distance_oracle(sys, a, b)
    errors = []
    for m in (8, 32, 128):
        res = nlw_distance(PathProblem(sys, a, b, n_steps=m))
        assert res.converged
        assert res.constraint_residual < 1e-12
        errors.append(abs(res.w - ref) / ref)
    assert errors[1] < 1e-3  # already far inside the coarse tolerance
    assert errors[2] < 1e-4
    assert errors[0] > errors[1] > errors[2]  # refinement improves the value


def test_two_point_distance_asymmetric_weights():
    sys = two_state(pi=(0.2, 0.8), eta12=0.7)
    a = state(sys, [3.5, 0.375])  # masses (0.7, 0.3)
    b = state(sys, [0.5, 1.125])  # masses (0.1, 0.9)
    ref = two_point_distance_oracle(sys, a, b)
    res = nlw_distance(PathProblem(sys, a, b, n_steps=48))
    assert res.w == pytest.approx(ref, rel=5e-4)


def test_identity_distance_is_zero():
    sys = two_state()
    a = state(sys, [1.6, 0.4])
    res = nlw_distance(PathProblem(sys, a, a, n_steps=16))
    assert res.w <= 1e-8
    sys5 = make_system(5)
    rng = np.random.default_rng(7)
    raw = rng.uniform(0.3, 1.8, size=5)
    r = state(sys5, raw / (raw @ sys5.pi))
    assert nlw_distance(PathProblem(sys5, r, r, n_steps=8)).w <= 1e-8


def _cell_block(sys, cells):
    mu = np.zeros(sys.n_points)
    mu[cells] = sys.pi[cells]
    return DensityState.from_masses(sys, mu / mu.sum())


def _gibbs_16():
    measure = GibbsMeasure(potential=PotentialSpec(expr="cos(2*pi*x)"))
    return build_system(FractionalKernel(s=1.0), measure, build_grid(1, 16))


@pytest.mark.parametrize(
    "make, n_steps",
    [
        # the barrier stages used to chase the empty cells toward zero: the first
        # raised "path contains negative densities", the others ended unconverged
        (lambda: (lambda sys: DensityState.point_mass(sys, 3))(_gibbs_16()), 8),
        (lambda: (lambda sys: _cell_block(sys, [3, 4, 5]))(_gibbs_16()), 8),
        (lambda: DensityState.point_mass(make_system(8), 2), 16),
    ],
    ids=["gibbs_point_mass", "gibbs_block", "constant_point_mass"],
)
def test_equal_endpoints_with_empty_cells_are_at_distance_zero(make, n_steps):
    a = make()
    res = nlw_distance(PathProblem(a.system, a, DensityState(a.system, a.u.copy()), n_steps=n_steps))
    assert res.w == 0.0 and res.converged and res.iterations == 0
    assert np.array_equal(res.path.u, np.tile(a.u, (n_steps + 1, 1)))
    assert not res.path.fluxes.any() and res.path.fluxes.shape == (n_steps, pair_order(a.system)[2].size)
    assert res.path.continuity_residual() == 0.0


@pytest.mark.parametrize("first", [4, 7])
def test_w_is_the_action_of_the_returned_path(first):
    # closing the total flux leaves rounding-level negative masses inside these
    # paths, which DiscretePath clamps to 0; w used to be read from the unclamped ones
    sys = _gibbs_16()
    start = np.zeros(16)
    start[first : first + 3] = [1.0 + 1e-3, 1.0, 1.0 - 1e-3]
    end = np.zeros(16)
    end[first : first + 3] = 1.0
    a, b = (density_from_spec({"type": "table", "values": v.tolist()}, sys) for v in (start, end))
    res = nlw_distance(PathProblem(sys, a, b, n_steps=32))
    assert res.w == np.sqrt(action_of_path(res.path))


def test_distance_is_symmetric():
    sys = make_system(3)
    a = state(sys, [1.8, 0.9, 0.3])
    b = state(sys, [0.4, 1.0, 1.6])
    wab = nlw_distance(PathProblem(sys, a, b, n_steps=24)).w
    wba = nlw_distance(PathProblem(sys, b, a, n_steps=24)).w
    assert wab == pytest.approx(wba, rel=1e-6)


def test_point_mass_endpoints():
    sys = two_state()
    res = nlw_distance(
        PathProblem(sys, DensityState.point_mass(sys, 0), DensityState.point_mass(sys, 1), n_steps=32)
    )
    assert res.converged
    assert np.isfinite(res.w) and res.w > 0
    # every intermediate level is a genuine density (validates mass and sign)
    for m in range(res.path.n_steps + 1):
        res.path.state(m)
    ref = two_point_distance_oracle(
        sys, DensityState.point_mass(sys, 0), DensityState.point_mass(sys, 1)
    )
    assert res.w == pytest.approx(ref, rel=2e-2)  # degenerate endpoints converge slower


def point_masses_on_eight_points():
    sys = build_system(FractionalKernel(s=1.0), UniformMeasure(), build_grid(1, 8))
    return sys, DensityState.point_mass(sys, 0), DensityState.point_mass(sys, 4)


def test_point_mass_to_point_mass_starts_on_the_bowed_path():
    # the straight path between two point masses leaves six nodes empty at every
    # interior step, so the start is bowed toward the uniform state
    sys, a, b = point_masses_on_eight_points()
    ws = _PathWorkspace(PathProblem(sys, a, b, n_steps=8))
    assert ws.masses(ws.initial_point())[1:-1].min() > 0.0
    res = nlw_distance(PathProblem(sys, a, b, n_steps=8))
    back = nlw_distance(PathProblem(sys, b, a, n_steps=8))
    assert res.converged and back.converged
    assert res.constraint_residual < 1e-8
    assert res.w == pytest.approx(back.w, rel=1e-6)


def smooth_ends_on_eight_points():
    # every mass stays far from 0, so no Newton step of this problem nears a singular system
    sys = build_system(FractionalKernel(s=1.0), UniformMeasure(), build_grid(1, 8))
    bump = np.exp(2.0 * np.cos(2.0 * np.pi * sys.grid.points[:, 0]))
    return sys, DensityState.uniform(sys), state(sys, bump / (bump @ sys.pi))


STAGES = [(beta, beta) for beta in BARRIER_SCHEDULE] + [(0.0, EPS_POLISH)]  # (beta, eps) of each stage


def test_exhausted_newton_stages_report_no_convergence(monkeypatch):
    # with both stopping tests switched off, no stage can converge, so every
    # stage runs to its cap and the solve reports no convergence
    monkeypatch.setattr(nlw.metric, "NEWTON_TOL", -np.inf)
    monkeypatch.setattr(nlw.metric, "ACTION_FLOOR", -np.inf)
    sys, a, b = smooth_ends_on_eight_points()
    res = nlw_distance(PathProblem(sys, a, b, n_steps=8, max_iter=1))
    assert not res.converged
    assert res.stage_iterations == [1] * len(STAGES)


@pytest.mark.parametrize("stage, call", [(0, 2), (len(STAGES) - 1, 1)], ids=["barrier", "polish"])
def test_unfactorable_newton_step_ends_the_stage_unconverged(monkeypatch, stage, call):
    # newton_step raises LinAlgError on the call-th step of one stage: that stage
    # stops at the iterate it reached, which stays feasible, and the later
    # stages go on from there instead of the solve raising
    sys, a, b = smooth_ends_on_eight_points()
    step = _PathWorkspace.newton_step
    calls = []

    def failing(ws, x, mu, beta, eps):
        calls.append(((beta, eps), x.copy(), mu.copy()))
        if sum(key == STAGES[stage] for key, _, _ in calls) == call:
            raise np.linalg.LinAlgError("not positive definite")
        return step(ws, x, mu, beta, eps)

    monkeypatch.setattr(_PathWorkspace, "newton_step", failing)
    res = nlw_distance(PathProblem(sys, a, b, n_steps=8))
    assert res.stage_iterations[stage] == call - 1
    last = max(k for k, (key, _, _) in enumerate(calls) if key == STAGES[stage])
    _, x, mu = calls[last]
    ws = _PathWorkspace(PathProblem(sys, a, b, n_steps=8))
    assert mu[1:-1].min() > 0.0 and np.isfinite(ws.objective(x, mu, *STAGES[stage]))
    later = calls[last + 1 :]
    assert list(dict.fromkeys(key for key, _, _ in later)) == STAGES[stage + 1 :]
    if later:  # the next stage starts where the failed one stopped
        assert np.array_equal(later[0][1], x) and np.array_equal(later[0][2], mu)
    else:  # a failed polish stage ends the solve unconverged
        assert not res.converged
    assert np.isfinite(res.w) and res.w > 0.0
    assert res.constraint_residual < 1e-8


def test_result_document_fields():
    sys = two_state()
    a = state(sys, [1.4, 0.6])
    b = state(sys, [0.8, 1.2])
    res = nlw_distance(PathProblem(sys, a, b, n_steps=8))
    assert res.n_steps == 8
    assert res.iterations > 0
    assert len(res.stage_iterations) == len(BARRIER_SCHEDULE) + 1  # the barrier stages and the polish
    assert all(isinstance(k, int) and k >= 0 for k in res.stage_iterations)
    assert sum(res.stage_iterations) == res.iterations
    assert len(res.objective_history) > 0
    assert np.all(np.isfinite(res.objective_history))
    # the history ends on the polish stage, whose objective is the
    # (lightly smoothed) action of the returned path
    assert res.objective_history[-1] == pytest.approx(res.w**2, rel=1e-9)
    assert res.path is not None
    assert res.path.u.shape == (9, 2)
    assert res.path.fluxes.shape == (8, 1)


# ---------------------------------------------------------------------------
# path container and action
# ---------------------------------------------------------------------------


def test_action_of_path_matches_reported_distance():
    sys = two_state()
    a = state(sys, [1.6, 0.4])
    b = state(sys, [0.6, 1.4])
    res = nlw_distance(PathProblem(sys, a, b, n_steps=16))
    assert action_of_path(res.path) == pytest.approx(res.w**2, rel=1e-12)


def test_path_continuity_residual_is_tiny():
    sys = make_system(3)
    a = state(sys, [1.8, 0.9, 0.3])
    b = state(sys, [0.4, 1.0, 1.6])
    res = nlw_distance(PathProblem(sys, a, b, n_steps=12))
    assert res.path.continuity_residual() < 1e-14
    assert np.max(np.abs(res.path.u[0] - a.u)) < 1e-14
    assert np.max(np.abs(res.path.u[-1] - b.u)) < 1e-12


def test_discrete_path_validation():
    sys = two_state()
    with pytest.raises(ValueError, match="shape"):
        DiscretePath(sys, np.ones((3, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="shape"):
        DiscretePath(sys, np.ones((2, 2)), np.zeros((1, 2)))  # two fluxes for one pair
    with pytest.raises(ValueError, match="negative"):
        DiscretePath(sys, np.array([[1.0, 1.0], [2.0, -1.0]]), np.zeros((1, 1)))


def test_path_problem_validation():
    sys = two_state()
    a = state(sys, [1.0, 1.0])
    with pytest.raises(ValueError, match="two time steps"):
        PathProblem(sys, a, a, n_steps=1)
    other = make_system(3)
    with pytest.raises(ValueError, match="does not match"):
        PathProblem(sys, DensityState.uniform(other), a, n_steps=4)


def test_solver_config_schedule():
    sched = BARRIER_SCHEDULE
    assert sched[0] == pytest.approx(1e-2)
    assert sched[-1] == pytest.approx(1e-10)
    assert len(sched) == 9
    assert all(b2 < b1 for b1, b2 in zip(sched, sched[1:]))
    # bit for bit the weights of a loop that multiplies by 0.1 from 1e-2
    # down to 1e-10, not the decimal literals 1e-3, ..., 1e-10
    betas, b = [], 1e-2
    while b >= 1e-10 * (1.0 - 1e-12):
        betas.append(b)
        b *= 0.1
    assert sched == tuple(betas)
    assert sched[4] == 1.0000000000000002e-06 != 1e-6


# ---------------------------------------------------------------------------
# metric structure
# ---------------------------------------------------------------------------


def test_axiom_check_passes_on_complete_graph():
    rep = check_metric_axioms(make_system(3), seed=4, n_samples=3, n_steps=16)
    assert isinstance(rep, AxiomCheck)
    assert rep.passes
    assert rep.identity_max <= 1e-8
    assert rep.min_offdiagonal > 0
    assert rep.triangle_slack <= 0.0  # strict inequality for generic samples


def test_axiom_check_requires_three_samples():
    with pytest.raises(ValueError, match="three"):
        check_metric_axioms(make_system(3), n_samples=2)


def test_metric_speed_bounded_by_fisher_information():
    # along the heat flow, W(rho_t, rho_{t+h}) <= h * sqrt(I(rho_t)) up to
    # discretization: the metric derivative of the gradient flow is sqrt(I)
    sys = two_state()
    u0 = state(sys, [1.5, 0.5])
    t0, h = 0.2, 0.05
    traj = solve(sys, u0, IntegratorConfig(horizon=t0 + h), np.array([0.0, t0, t0 + h]))
    rho_t = traj.state(1)
    rho_th = traj.state(2)
    w = nlw_distance(PathProblem(sys, rho_t, rho_th, n_steps=64)).w
    bound = h * np.sqrt(fisher_information(rho_t))
    assert w <= (1.0 + 1e-2) * bound
    assert w > 0.5 * bound  # sanity: the bound is tight for small h
