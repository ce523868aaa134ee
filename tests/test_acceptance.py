"""Acceptance gate: the binding numerical contract of the package.

Each test is one criterion, checked at its stated tolerance and time
budget, and registers exactly one [criterion NN] PASS/FAIL line that the
conftest terminal-summary hook prints after the run, so a scan of the
output shows the verdict per criterion.  Tolerances here are the
contract — do not loosen them to make a failure go away.
"""

from __future__ import annotations

import contextlib
import glob
import math
import os
import time

import numpy as np
import pytest

import conftest

from nlw.config import load_config
from nlw.discretize import DiscreteSystem, build_system, verify_moment_bound
from nlw.experiments import (
    build_system_from_config,
    lsi_certify,
    refinement_study,
    run_flow_stage,
)
from nlw.flow import IntegratorConfig, edi_report, solve, tangent_flux
from nlw.functionals import (
    DensityState,
    action,
    fisher_information,
    log_mean,
    relative_entropy,
    theta_connectedness_constant,
)
from nlw.kernels import (
    ConstantKernel,
    FractionalKernel,
    UniformMeasure,
    c_eta,
    extend_kernel,
)
from nlw.metric import (
    MetricResult,
    PathProblem,
    check_metric_axioms,
    nlw_distance,
    two_point_distance_oracle,
)
from nlw.sampler import SamplerConfig, compare_marginals, simulate
from nlw.torus import build_grid

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@contextlib.contextmanager
def criterion(num: int, budget_s: float, desc: str):
    """Run one criterion, record its verdict line, enforce the time budget."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        conftest.acceptance_lines.append(f"[criterion {num:2d}] FAIL ({elapsed:6.2f}s): {desc}")
        raise
    elapsed = time.perf_counter() - t0
    line = f"[criterion {num:2d}] PASS ({elapsed:6.2f}s): {desc}"
    if elapsed >= budget_s:
        conftest.acceptance_lines.append(
            f"[criterion {num:2d}] FAIL ({elapsed:6.2f}s): over {budget_s:g}s budget — {desc}"
        )
        raise AssertionError(f"criterion {num} exceeded its {budget_s:g}s budget ({elapsed:.1f}s)")
    conftest.acceptance_lines.append(line)


def two_state(pi=(0.5, 0.5), eta12=1.0):
    eta = np.array([[0.0, eta12], [eta12, 0.0]])
    return DiscreteSystem.from_arrays(build_grid(1, 2), np.asarray(pi, dtype=float), eta)


def test_criterion_01_theta_conventions():
    with criterion(1, 1.0, "logarithmic-mean conventions, mean bound, connectedness constant"):
        assert log_mean(1.0, 1.0) == 1.0
        assert log_mean(0.0, 0.0) == 0.0
        rng = np.random.default_rng(1)
        for r in rng.uniform(1e-6, 1e6, size=50):
            assert log_mean(r, 0.0) == 0.0
            assert log_mean(0.0, r) == 0.0
        r, s = rng.uniform(0.0, 10.0, size=(2, 100_000))
        theta = log_mean(r, s)
        assert np.all(theta <= 0.5 * (r + s) + 1e-15)
        # independent series oracle: sum over odd squares plus integral tail
        k = np.arange(2_000_000)
        series = float(np.sum(1.0 / (2.0 * k + 1.0) ** 2)) + 1.0 / (4.0 * 2_000_000)
        assert abs(theta_connectedness_constant() - series) <= 1e-6
        assert abs(theta_connectedness_constant() - 1.2337) <= 1e-4


def test_criterion_02_two_state_closed_form():
    with criterion(2, 1.0, "two-state closed form: gap, Fisher value, dissipation identity"):
        sys2 = two_state()
        u0 = DensityState(sys2, np.array([1.5, 0.5]))
        cfg = IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=1e-3)
        traj = solve(sys2, u0, cfg)
        gap = traj.u[:, 0] - traj.u[:, 1]
        assert np.max(np.abs(gap - np.exp(-traj.times))) <= 1e-8

        # brute-force double-sum oracle, plain python arithmetic
        u, pi, eta = [1.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]
        brute = 0.0
        for i in range(2):
            for j in range(2):
                if i != j:
                    brute += 0.5 * (u[i] - u[j]) * (math.log(u[i]) - math.log(u[j])) * eta[i][j] * pi[i] * pi[j]
        assert abs(brute - math.log(3.0) / 4.0) <= 1e-12
        assert abs(fisher_information(u0) - brute) <= 1e-12 * brute

        rep = edi_report(traj)
        assert rep.valid
        assert rep.defect_production <= 1e-6 * abs(rep.delta_h)


def test_criterion_03_action_equals_fisher():
    with criterion(3, 10.0, "action of the tangent flux equals Fisher information (N=2,8,64)"):
        rng = np.random.default_rng(3)
        for n in (2, 8, 64):
            grid = build_grid(1, n)
            for _ in range(100):
                mat = rng.uniform(0.1, 1.1, size=(n, n))
                eta = 0.5 * (mat + mat.T)
                np.fill_diagonal(eta, 0.0)
                sys_n = DiscreteSystem.from_arrays(grid, np.full(n, 1.0 / n), eta)
                u = rng.uniform(0.05, 2.0, size=n)
                state = DensityState(sys_n, u / (u @ sys_n.pi))
                a = action(state, tangent_flux(state))
                i = fisher_information(state)
                assert abs(a - i) <= 1e-12 * max(i, 1e-300)


def test_criterion_04_shipped_config_invariants():
    configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
    assert configs, "no shipped configs found"
    for path in configs:
        name = os.path.basename(path)
        with criterion(4, 30.0, f"conservation and monotonicity on shipped config {name}"):
            cfg = load_config(path)
            if cfg.flow is None:
                continue
            traj, _ = run_flow_stage(cfg, build_system_from_config(cfg))
            assert np.max(np.abs(traj.mass - 1.0)) <= 1e-10
            assert np.all(np.diff(traj.entropy) <= 1e-10)
            assert np.all(np.diff(traj.min_u) >= -1e-10)


def test_criterion_05_discrete_moment_bound():
    with criterion(5, 60.0, "discrete second moment within 4x the continuum bound"):
        kernels = [ConstantKernel(c=1.0)] + [FractionalKernel(s=s) for s in (0.5, 1.0, 1.5)]
        meas = UniformMeasure()
        for spec in kernels:
            for n in (8, 16, 32):
                sys_n = build_system(spec, meas, build_grid(1, n))
                continuum_sup = 0.5 * c_eta(spec, meas, dim=1, working_level=n) ** 2
                report = verify_moment_bound(sys_n, continuum_sup, slack=0.01)
                assert report.passes, (
                    f"{spec} n={n}: M_n={report.m_n:.6g} > bound {report.bound:.6g}"
                )


def test_criterion_06_kernel_interpolator_envelope():
    with criterion(6, 5.0, "interpolated kernel reproduces grid pairs and respects envelopes"):
        sys_n = build_system(FractionalKernel(s=1.0), UniformMeasure(), build_grid(1, 16))
        ext = extend_kernel(sys_n, bandwidth=0.2, exponent=3.0)
        pts = sys_n.grid.points
        n = sys_n.n_points
        for j in range(n):
            for k in range(n):
                if j != k:
                    got = ext(pts[j], pts[k])
                    assert abs(got - sys_n.eta[j, k]) <= 1e-12 * sys_n.eta[j, k]

        rng = np.random.default_rng(6)
        qx, qy = rng.uniform(0.0, 1.0, size=(2, 10_000))
        # independent envelope: stored pairs within the bandwidth of each query
        flat = pts[:, 0]
        dx = np.abs(qx[:, None] - flat[None, :])
        dx = np.minimum(dx, 1.0 - dx)
        dy = np.abs(qy[:, None] - flat[None, :])
        dy = np.minimum(dy, 1.0 - dy)
        z = dx[:, :, None] + dy[:, None, :]
        inside = z < 0.2
        inside &= ~np.eye(n, dtype=bool)[None, :, :]
        eta_b = np.broadcast_to(sys_n.eta, z.shape)
        lo = np.where(inside, eta_b, np.inf).min(axis=(1, 2))
        hi = np.where(inside, eta_b, -np.inf).max(axis=(1, 2))
        for i in range(10_000):
            val = ext(qx[i], qy[i])
            assert lo[i] - 1e-9 * hi[i] <= val <= hi[i] * (1.0 + 1e-9)


def test_criterion_07_metric_against_oracle_and_axioms():
    with criterion(7, 300.0, "transport distance: oracle match, identity, symmetry, triangle"):
        sys2 = two_state()
        a = DensityState.from_masses(sys2, np.array([0.8, 0.2]))
        b = DensityState.from_masses(sys2, np.array([0.3, 0.7]))
        exact = two_point_distance_oracle(sys2, a, b)
        w32 = nlw_distance(PathProblem(sys2, a, b, n_steps=32)).w
        assert abs(w32 - exact) <= 0.02 * exact
        w128 = nlw_distance(PathProblem(sys2, a, b, n_steps=128)).w
        assert abs(w128 - exact) <= 0.005 * exact

        same = nlw_distance(PathProblem(sys2, a, a, n_steps=16))
        assert same.w <= 1e-8

        grid3 = build_grid(1, 3)
        eta3 = np.array([[0.0, 1.0, 0.6], [1.0, 0.0, 1.4], [0.6, 1.4, 0.0]])
        sys3 = DiscreteSystem.from_arrays(grid3, np.array([0.3, 0.45, 0.25]), eta3)
        chk = check_metric_axioms(sys3, seed=0, n_samples=6, n_steps=16)  # C(6,3) = 20 triples
        assert chk.identity_max <= 1e-8
        assert chk.symmetry_max <= 1e-6
        assert chk.triangle_slack <= 1e-6
        assert chk.passes


def test_criterion_08_log_sobolev_certificate():
    with criterion(8, 30.0, "log-Sobolev certificate with C = min kernel entry (7/8)"):
        sys16 = build_system(ConstantKernel(c=1.0), UniformMeasure(), build_grid(1, 16))
        u0 = DensityState.point_mass(sys16, 3)
        traj = solve(sys16, u0, IntegratorConfig(method="matrix_exponential", horizon=2.0, dt=0.02))
        cert = lsi_certify(sys16, traj)
        # adjacent cells lose 1/8 of their pair volume to the jump cutoff
        assert abs(cert.c - 0.875) <= 1e-9
        assert cert.certified and cert.pointwise_ok and cert.envelope_ok

        # the same inequalities, checked directly at the stated tolerances
        H, I = traj.entropy, traj.fisher
        finite = np.isfinite(I)  # I(0) = inf from the point mass: bound trivially true there
        assert np.all(H[finite] <= I[finite] / cert.c + 1e-12)
        assert np.all(H <= H[0] * np.exp(-cert.c * traj.times) * (1.0 + 1e-8))


def test_criterion_09_stochastic_cross_validation():
    with criterion(9, 120.0, "jump-process marginals match the solver; wrong convention fails"):
        # two-state system
        sys2 = two_state()
        u0 = DensityState.from_masses(sys2, np.array([0.75, 0.25]))
        traj = solve(sys2, u0, IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=0.5))
        res = simulate(sys2, u0, SamplerConfig(n_paths=100_000, horizon=1.0, seed=902))
        rep = compare_marginals(res, traj.u[-1] * sys2.pi)
        assert rep.passes, f"two-state max|z| = {rep.max_abs_z:.2f}"

        # N=16 fractional system
        sys16 = build_system(FractionalKernel(s=1.0), UniformMeasure(), build_grid(1, 16))
        u16 = DensityState.point_mass(sys16, 0)
        traj16 = solve(sys16, u16, IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=0.5))
        res16 = simulate(sys16, u16, SamplerConfig(n_paths=100_000, horizon=1.0, seed=916))
        rep16 = compare_marginals(res16, traj16.u[-1] * sys16.pi)
        assert rep16.passes, f"fractional max|z| = {rep16.max_abs_z:.2f}"

        # the deliberately wrong, source-weighted rates must be detected on
        # asymmetric weights (on uniform pi the two conventions coincide)
        sysw = two_state(pi=(0.8, 0.2))
        uw = DensityState.from_masses(sysw, np.array([0.3, 0.7]))
        trajw = solve(sysw, uw, IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=0.5))
        wrong = conftest.simulate_source_rates(sysw, uw, SamplerConfig(n_paths=100_000, horizon=1.0, seed=903))
        repw = compare_marginals(wrong, trajw.u[-1] * sysw.pi)
        assert not repw.passes, "wrong rate convention went undetected"


def test_criterion_10_refinement_ladder():
    with criterion(10, 600.0, "entropy gaps strictly decreasing over levels 8-16-32-64"):
        cfg = load_config(os.path.join(CONFIG_DIR, "fractional_gibbs.json"))
        assert cfg.refinement.levels == (8, 16, 32, 64)
        rep = refinement_study(cfg)
        assert np.all(np.diff(rep.entropy_gaps) < 0.0)
        assert rep.gaps_decreasing
