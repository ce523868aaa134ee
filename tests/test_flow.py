"""Tests for the heat-flow propagator and dissipation bookkeeping.

The two-state system is the workhorse: with weights (pi_1, pi_2) and a
single edge of strength eta, the density gap d = u_1 - u_2 obeys
d' = -eta (pi_1 + pi_2) d, so

    u_1(t) = 1 + pi_2 d_0 exp(-lambda t),
    u_2(t) = 1 - pi_1 d_0 exp(-lambda t),   lambda = eta (pi_1 + pi_2),

which gives closed forms for every diagnostic we assert against.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest
import scipy.linalg

from nlw.config import load_config
from nlw.discretize import DiscreteSystem, build_system
from nlw.experiments import build_system_from_config, run_flow_stage
from nlw.flow import (
    IntegratorConfig,
    IntegratorError,
    Trajectory,
    edi_report,
    generator_matrix,
    solve,
    tangent_flux,
)
from nlw.functionals import (
    DensityState,
    action,
    fisher_information,
    relative_entropy,
)
from nlw.kernels import ConstantKernel, FractionalKernel, UniformMeasure, measure_from_dict
from nlw.torus import build_grid
from test_functionals import continuity_residual, dense_action, dense_flux, dense_tangent_flux

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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


def random_system(rng, n=8, scale=1.0):
    mat = rng.uniform(0.1, scale, size=(n, n))
    eta = 0.5 * (mat + mat.T)
    np.fill_diagonal(eta, 0.0)
    return make_system(n, eta=eta)


def random_state(rng, sys, floor=0.05):
    u = rng.uniform(floor, 2.0, size=sys.n_points)
    u /= u @ sys.pi
    return DensityState(sys, u)


def generator_apply(rho):
    """(du/dt)_i = sum_j (u_j - u_i) eta_ij pi_j, without forming K: the oracle for K."""
    sys = rho.system
    rates = sys.eta @ sys.pi
    return sys.eta @ (rho.u * sys.pi) - rho.u * rates


def expm_oracle(sys, u0, times):
    """expm(K t_k) @ u0 at each output time, one dense matrix exponential per time."""
    K = generator_matrix(sys)
    return np.array([scipy.linalg.expm(K * t) @ u0 for t in times])


def two_state_exact(pi, eta12, d0, t):
    lam = eta12 * (pi[0] + pi[1])
    gap = d0 * np.exp(-lam * np.asarray(t))
    return np.stack([1.0 + pi[1] * gap, 1.0 - pi[0] * gap], axis=-1)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_matrix_structure():
    rng = np.random.default_rng(7)
    sys = random_system(rng, n=6)
    K = generator_matrix(sys)
    assert np.max(np.abs(K.sum(axis=1))) < 1e-14
    assert np.max(np.abs(sys.pi @ K)) < 1e-14  # mass conservation
    off = K[~np.eye(6, dtype=bool)]
    assert np.all(off >= 0.0)
    assert np.all(np.diag(K) <= 0.0)


def test_generator_apply_matches_matrix():
    rng = np.random.default_rng(8)
    sys = random_system(rng, n=9)
    K = generator_matrix(sys)
    for _ in range(5):
        rho = random_state(rng, sys)
        assert np.allclose(generator_apply(rho), K @ rho.u, rtol=1e-13, atol=1e-14)
    eq = DensityState.uniform(sys)
    assert np.max(np.abs(generator_apply(eq))) < 1e-14


def test_generator_two_state_hand_value():
    sys = two_state()
    rho = DensityState(sys, np.array([1.5, 0.5]))
    rate = generator_apply(rho)
    # du1/dt = (u2 - u1) eta pi2 = (-1)(1)(1/2)
    assert rate == pytest.approx([-0.5, 0.5], rel=1e-15)


# ---------------------------------------------------------------------------
# tangent flux
# ---------------------------------------------------------------------------


def test_tangent_flux_zero_at_equilibrium():
    sys = make_system(5)
    v = tangent_flux(DensityState.uniform(sys))
    assert v.shape == (10,) and np.all(v == 0.0)


def test_tangent_flux_solves_continuity_equation():
    rng = np.random.default_rng(21)
    for n in (2, 8, 17):
        sys = random_system(rng, n=n)
        rho = random_state(rng, sys)
        mu_dot = sys.pi * generator_apply(rho)
        res = continuity_residual(mu_dot, dense_flux(sys, tangent_flux(rho)))
        assert res < 1e-12


def test_tangent_flux_action_equals_fisher():
    rng = np.random.default_rng(22)
    for n in (2, 8, 64):
        sys = random_system(rng, n=n)
        for _ in range(3):
            rho = random_state(rng, sys)
            a = action(rho, tangent_flux(rho))
            i = fisher_information(rho)
            assert a == pytest.approx(i, rel=1e-12)


def test_tangent_flux_action_and_fisher_agree_when_infinite():
    sys = two_state()
    rho = DensityState.point_mass(sys, 0)
    assert fisher_information(rho) == np.inf
    assert action(rho, tangent_flux(rho)) == np.inf


# ---------------------------------------------------------------------------
# solve: correctness against closed forms
# ---------------------------------------------------------------------------


def test_expm_matches_two_state_closed_form():
    pi = (0.3, 0.7)
    sys = two_state(pi=pi, eta12=2.0)
    u0 = DensityState(sys, two_state_exact(pi, 2.0, 1.0, 0.0))
    cfg = IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=0.01)
    traj = solve(sys, u0, cfg)
    exact = two_state_exact(pi, 2.0, 1.0, traj.times)
    assert np.max(np.abs(traj.u - exact)) < 1e-13


def test_expm_symmetric_gap_decays_like_exp_minus_t():
    sys = two_state()
    u0 = DensityState(sys, np.array([1.5, 0.5]))
    traj = solve(sys, u0, IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=1e-3))
    gap = traj.u[:, 0] - traj.u[:, 1]
    assert np.max(np.abs(gap - np.exp(-traj.times))) < 1e-8


def test_equilibrium_is_fixed_point_for_all_methods():
    sys = make_system(6)
    u0 = DensityState.uniform(sys)
    for cfg in (
        IntegratorConfig(method="matrix_exponential", horizon=0.5, dt=0.1),
        IntegratorConfig(horizon=0.5),
    ):
        traj = solve(sys, u0, cfg)
        assert np.max(np.abs(traj.u - 1.0)) < 1e-12


def test_semigroup_property():
    rng = np.random.default_rng(31)
    sys = random_system(rng, n=7)
    u0 = random_state(rng, sys)
    first = solve(sys, u0, IntegratorConfig(horizon=0.7), np.array([0.0, 0.7]))
    second = solve(sys, first.state(-1), IntegratorConfig(horizon=0.5), np.array([0.0, 0.5]))
    direct = solve(sys, u0, IntegratorConfig(horizon=1.2), np.array([0.0, 1.2]))
    assert np.max(np.abs(second.u[-1] - direct.u[-1])) < 1e-12


def test_long_time_convergence_to_equilibrium():
    rng = np.random.default_rng(32)
    sys = random_system(rng, n=10)
    u0 = random_state(rng, sys)
    traj = solve(sys, u0, IntegratorConfig(horizon=60.0), np.array([0.0, 60.0]))
    assert np.max(np.abs(traj.u[-1] - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# solve: structural invariants
# ---------------------------------------------------------------------------


def test_invariants_on_random_system():
    rng = np.random.default_rng(40)
    sys = random_system(rng, n=16, scale=3.0)
    u0 = random_state(rng, sys, floor=0.01)
    traj = solve(sys, u0, IntegratorConfig(method="matrix_exponential", horizon=2.0, dt=0.05))
    assert np.max(np.abs(traj.mass - 1.0)) <= 1e-10
    assert np.all(np.diff(traj.entropy) <= 1e-10)
    # maximum principle: minima rise, maxima fall
    assert np.all(np.diff(traj.min_u) >= -1e-12)
    assert np.all(np.diff(traj.u.max(axis=1)) <= 1e-12)


def test_positivity_from_point_mass():
    sys = make_system(8)
    u0 = DensityState.point_mass(sys, 3)
    ex = solve(sys, u0, IntegratorConfig(method="matrix_exponential", horizon=4.0, dt=0.5))
    assert np.all(ex.u >= 0.0)
    # strict positivity after the first step: the kernel is irreducible
    assert np.all(ex.u[1:] > 0.0)


def test_solve_rejects_mismatched_state():
    sys_a = make_system(4)
    sys_b = make_system(4, eta_value=2.0)
    u0 = DensityState.uniform(sys_b)
    with pytest.raises(ValueError, match="different system"):
        solve(sys_a, u0, IntegratorConfig(horizon=1.0))


def test_solve_validates_output_times():
    sys = make_system(4)
    u0 = DensityState.uniform(sys)
    cfg = IntegratorConfig(horizon=1.0)
    with pytest.raises(ValueError):
        solve(sys, u0, cfg, np.array([0.1, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        solve(sys, u0, cfg, np.array([0.0, 0.5]))  # must end at the horizon
    with pytest.raises(ValueError):
        solve(sys, u0, cfg, np.array([0.0, 0.6, 0.4, 1.0]))


@pytest.mark.parametrize(
    "method, output_times",
    [
        ("matrix_exponential", None),  # default output times on the dt grid
    ],
)
def test_horizon_must_be_whole_number_of_steps(method, output_times):
    sys = make_system(4)
    u0 = DensityState.uniform(sys)
    cfg = IntegratorConfig(method=method, horizon=1.0, dt=0.3)
    with pytest.raises(ValueError, match="horizon must be an integer multiple of dt"):
        solve(sys, u0, cfg, output_times)


SHIPPED_FLOWS = sorted(os.path.basename(p)[: -len(".json")] for p in glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def _flow_case(name):
    if name == "gibbs_point_mass_1024":
        gibbs = measure_from_dict({"type": "gibbs", "potential": {"expr": "cos(2*pi*x)"}})
        sys = build_system(FractionalKernel(s=1.0), gibbs, build_grid(1, 1024))
        times = np.array([0.0, 1e-3, 0.01, 0.1, 0.5])
        return sys, solve(sys, DensityState.point_mass(sys, 300), IntegratorConfig(horizon=0.5), times)
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
    sys = build_system_from_config(cfg)
    return sys, run_flow_stage(cfg, sys)[0]


@pytest.mark.parametrize("name", [*SHIPPED_FLOWS, "gibbs_point_mass_1024"])
def test_trajectory_matches_the_matrix_exponential_at_every_output_time(name):
    sys, traj = _flow_case(name)
    u0 = traj.u[0]
    assert np.max(np.abs(traj.u - expm_oracle(sys, u0, traj.times))) <= 1e-12 * np.max(np.abs(u0))


def test_integrator_config_validation():
    with pytest.raises(ValueError, match="unknown integrator"):
        IntegratorConfig(method="leapfrog")
    with pytest.raises(ValueError, match="horizon"):
        IntegratorConfig(horizon=-1.0)
    with pytest.raises(ValueError, match="dt"):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError, match="unknown integrator"):
        IntegratorConfig(method="backward_euler")
    with pytest.raises(ValueError, match="unknown integrator"):  # as a config document names it
        IntegratorConfig.from_dict({"method": "backward_euler", "T": 1.0, "dt": 0.1})
    cfg = IntegratorConfig.from_dict({"method": "matrix_exponential", "T": 2.0, "dt": 0.1})
    assert cfg.horizon == 2.0 and cfg.dt == 0.1
    assert IntegratorConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="'horizon'"):  # the horizon is spelled "T" only
        IntegratorConfig.from_dict({"T": 1.0, "horizon": 2.0})
    with pytest.raises(ValueError, match="'rtol'"):
        IntegratorConfig.from_dict({"method": "matrix_exponential", "rtol": 1e-8})


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------


def test_trajectory_rejects_entropy_increase():
    sys = two_state()
    u = np.array([[1.0, 1.0], [1.5, 0.5]])  # equilibrium, then excited
    with pytest.raises(IntegratorError, match="entropy increased"):
        Trajectory(system=sys, times=np.array([0.0, 1.0]), u=u, spectral_gap=1.0)


def test_trajectory_rejects_bad_times():
    sys = two_state()
    u = np.ones((2, 2))
    with pytest.raises(ValueError):
        Trajectory(system=sys, times=np.array([0.5, 1.0]), u=u, spectral_gap=1.0)
    with pytest.raises(ValueError):
        Trajectory(system=sys, times=np.array([0.0, 0.0]), u=u, spectral_gap=1.0)


def test_trajectory_csv_format():
    sys = two_state()
    u0 = DensityState(sys, np.array([1.5, 0.5]))
    traj = solve(sys, u0, IntegratorConfig(horizon=1.0, dt=0.25))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,H,I,mass,min_u"
    assert len(lines) == traj.n_times + 1
    parsed = np.genfromtxt(text.splitlines(), delimiter=",", names=True)
    assert np.array_equal(parsed["t"], traj.times)
    assert np.array_equal(parsed["H"], traj.entropy)
    assert np.array_equal(parsed["I"], traj.fisher)
    assert np.array_equal(parsed["min_u"], traj.min_u)


def test_trajectory_csv_file_roundtrip(tmp_path):
    sys = two_state()
    u0 = DensityState(sys, np.array([1.25, 0.75]))
    traj = solve(sys, u0, IntegratorConfig(horizon=0.5, dt=0.25))
    path = tmp_path / "flow.csv"
    traj.to_csv(path)
    assert path.read_text() == traj.to_csv()


# ---------------------------------------------------------------------------
# entropy-dissipation identity
# ---------------------------------------------------------------------------


def test_edi_zero_at_equilibrium():
    sys = make_system(5)
    traj = solve(sys, DensityState.uniform(sys), IntegratorConfig(horizon=1.0, dt=0.25))
    rep = edi_report(traj)
    assert rep.valid and not rep.infinite_start
    assert abs(rep.delta_h) < 1e-15
    assert rep.int_fisher < 1e-15
    assert rep.defect < 1e-15


def test_edi_identity_two_state_fine_grid():
    sys = two_state()
    u0 = DensityState(sys, np.array([1.5, 0.5]))
    traj = solve(sys, u0, IntegratorConfig(horizon=1.0, dt=1e-3))
    rep = edi_report(traj)
    assert rep.valid
    assert rep.delta_h > 0
    assert rep.defect_production <= 1e-6 * rep.delta_h
    assert rep.defect <= 1e-6 * rep.delta_h
    # the action route and the Fisher route integrate the same signal
    assert rep.int_action == pytest.approx(rep.int_fisher, rel=1e-12)


def test_edi_defect_shrinks_under_grid_refinement():
    sys = two_state()
    u0 = DensityState(sys, np.array([1.5, 0.5]))

    def defect(dt):
        traj = solve(sys, u0, IntegratorConfig(horizon=1.0, dt=dt))
        return edi_report(traj).defect_production

    assert defect(1e-3) < defect(1e-2) / 50.0  # trapezoid quadrature is O(dt^2)


def test_edi_infinite_start_convention():
    sys = two_state()
    u0 = DensityState.point_mass(sys, 0)
    traj = solve(sys, u0, IntegratorConfig(horizon=1.0, dt=1e-3))
    assert traj.fisher[0] == np.inf
    rep = edi_report(traj)
    assert rep.infinite_start and rep.valid
    assert rep.start_index == 1
    assert rep.start_time == pytest.approx(1e-3)
    assert np.isfinite(rep.defect)
    # I(t) ~ -(1/2) log t near the point-mass start, so the trapezoid rule
    # is only first order on the leading panels: expect ~dt-sized defect
    assert rep.defect_production <= 2e-4 * rep.delta_h
    assert "first output time" in rep.note


def test_edi_makes_no_claim_on_a_single_finite_point():
    sys = build_system(FractionalKernel(s=1.0), UniformMeasure(), build_grid(1, 8))
    u0 = DensityState.point_mass(sys, 3)
    traj = solve(sys, u0, IntegratorConfig(horizon=0.5), output_times=np.array([0.0, 0.5]))
    assert traj.fisher[0] == np.inf and np.isfinite(traj.fisher[1])
    rep = edi_report(traj)
    assert not rep.valid
    assert rep.infinite_start and rep.start_index == 1
    assert np.isnan(rep.int_fisher) and np.isnan(rep.int_action) and np.isnan(rep.defect)
    assert "single output time" in rep.note


def _gibbs_64():
    gibbs = measure_from_dict({"type": "gibbs", "potential": {"expr": "cos(2*pi*x)"}})
    return build_system(FractionalKernel(s=1.0), gibbs, build_grid(1, 64))


def test_edi_int_action_is_the_trapezoid_of_the_dense_oracle_action():
    sys = _gibbs_64()
    traj = solve(sys, DensityState.point_mass(sys, 5), IntegratorConfig(horizon=0.5, dt=0.01))
    rep = edi_report(traj)
    assert rep.valid and rep.start_index == 1
    states = [traj.state(k) for k in range(rep.start_index, traj.n_times)]
    oracle = [dense_action(s, dense_tangent_flux(s)) for s in states]
    assert rep.int_action == pytest.approx(np.trapezoid(oracle, traj.times[1:]), rel=1e-13, abs=0.0)
    # the audit's pass over the pair blocks is the per-state action, operation for operation
    per_state = [action(s, tangent_flux(s)) for s in states]
    assert rep.int_action == float(np.trapezoid(per_state, traj.times[1:]))


@pytest.mark.parametrize(
    "make, start, horizon",
    [
        (_gibbs_64, lambda sys: DensityState.point_mass(sys, 5), 1.0),  # inf at t = 0
        (lambda: build_system(ConstantKernel(c=1.0), UniformMeasure(), build_grid(1, 16)),
         lambda sys: DensityState.point_mass(sys, 3), 20.0),  # I falls to 3e-17 of its peak
        (lambda: random_system(np.random.default_rng(4), n=12, scale=3.0),
         lambda sys: random_state(np.random.default_rng(5), sys), 8.0),
    ],
    ids=["gibbs_point_mass", "constant_long_horizon", "random_system"],
)
def test_trajectory_fisher_is_the_pair_sum_of_every_state(make, start, horizon):
    sys = make()
    traj = solve(sys, start(sys), IntegratorConfig(horizon=horizon, dt=horizon / 200))
    pairwise = np.array([fisher_information(traj.state(k)) for k in range(traj.n_times)])
    assert np.array_equal(np.isinf(traj.fisher), np.isinf(pairwise))
    finite = np.isfinite(pairwise)
    I, ref = traj.fisher[finite], pairwise[finite]
    tiny = ref < 1e-12 * ref.max()
    err = np.abs(I - ref)
    assert np.all(np.where(tiny, err <= 1e-24, err <= 1e-12 * ref)), float(np.max(err / ref))
    assert np.all(I >= 0.0)


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------


def test_spectral_gap_two_state():
    sys = two_state()
    u0 = DensityState(sys, np.array([1.5, 0.5]))
    traj = solve(sys, u0, IntegratorConfig(horizon=8.0))
    # lambda = eta (pi_1 + pi_2) = 1
    assert traj.spectral_gap == 1.0
    # H ~ d^2/8 with d = e^{-t}: the entropy decays at twice the gap
    h = traj.entropy
    late = traj.times[-1] - traj.times[-2]
    assert np.log(h[-2] / h[-1]) / late == pytest.approx(2.0 * traj.spectral_gap, rel=1e-3)


def test_spectral_gap_doubles_with_kernel():
    pi = (0.3, 0.7)

    def gap(eta12):
        sys = two_state(pi=pi, eta12=eta12)
        u0 = DensityState(sys, two_state_exact(pi, eta12, 1.0, 0.0))
        return solve(sys, u0, IntegratorConfig(horizon=1.0)).spectral_gap

    assert gap(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gap(2.0) == pytest.approx(2.0 * gap(1.0), rel=1e-15)
