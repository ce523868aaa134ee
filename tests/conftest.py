"""Shared pytest plumbing.

The acceptance tests register one verdict line per criterion here; the
terminal-summary hook prints them after capture ends, so the per-criterion
PASS/FAIL lines are visible in every run (no -s needed).

``source_rate_system`` builds the negative control of the sampler tests:
the chain with the wrong, source-weighted jump rates.  ``pair_order``
numbers the pairs i < j of a system on the test side, in the order of
fluxes and of ``system.json``'s eta.  ``spectrum_of`` gives a trajectory
built by hand the spectrum of its system, from a solve.

The oracles of the transport tests live here too, since the unit and
acceptance tests share them: ``theta_connectedness_constant`` (the
integral pi^2/8 by quadrature), ``two_point_distance_oracle`` (the
closed form of the distance on two points) and ``check_metric_axioms``
(identity, symmetry and the triangle inequality on sampled states).
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from nlw.discretize import DiscreteSystem
from nlw.flow import IntegratorConfig, Spectrum, solve
from nlw.functionals import DensityState, log_mean
from nlw.metric import PathProblem, nlw_distance
from nlw.sampler import simulate

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def pair_order(sys: DiscreteSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, w): every pair i < j, row-major, and w = eta_ij pi_i pi_j evaluated left to right."""
    i, j = np.triu_indices(sys.n_points, 1)
    return i, j, sys.eta[i, j] * sys.pi[i] * sys.pi[j]


def spectrum_of(sys: DiscreteSystem) -> Spectrum:
    """The spectrum of ``sys``, from a solve that starts at the uniform state."""
    return solve(sys, DensityState.uniform(sys), IntegratorConfig(horizon=1.0), np.array([0.0, 1.0])).spectrum


def source_rate_system(sys: DiscreteSystem) -> DiscreteSystem:
    """The system whose jump rates eta'_ij pi'_j are the source rates eta_ij pi_i of ``sys``.

    With Z = sum_k 1/pi_k, pi'_i = (1/pi_i) / Z and eta'_ij = eta_ij pi_i pi_j Z;
    eta' is exactly symmetric, since eta and the outer product of pi are.
    The source-rate chain satisfies detailed balance for pi', not pi.
    """
    inv = 1.0 / sys.pi
    z = float(inv.sum())
    return DiscreteSystem.from_arrays(sys.grid, inv / z, sys.eta * np.outer(sys.pi, sys.pi) * z)


def simulate_source_rates(sys: DiscreteSystem, rho0: DensityState, config):
    """``simulate`` with the source rates of ``sys``, from the cell masses of ``rho0``."""
    wrong = source_rate_system(sys)
    return simulate(wrong, DensityState.from_masses(wrong, rho0.masses), config)


def theta_connectedness_constant() -> float:
    """C = int_0^1 dr / theta(1 - r, 1 + r) for the logarithmic mean.

    Finiteness of this integral is what lets finite-action paths move
    mass onto/off a point.  The integrand equals 1 at r = 0 and grows
    only logarithmically as r -> 1, so adaptive quadrature on the open
    interval converges comfortably.  (Analytically the value is
    sum_{k>=0} (2k+1)^{-2} = pi^2/8; the tests use the series as an
    independent oracle.)
    """
    val, _err = quad(lambda r: 1.0 / log_mean(1.0 - r, 1.0 + r), 0.0, 1.0, limit=200)
    return float(val)


def two_point_distance_oracle(sys: DiscreteSystem, rho_a: DensityState, rho_b: DensityState) -> float:
    """Closed-form distance on a two-point system, by 1-d quadrature.

    With mass m on the first node, the optimal path is monotone in m and

        W = | integral_{m_a}^{m_b} dm / sqrt(theta(m/pi_1, (1-m)/pi_2) eta pi_1 pi_2) |.
    """
    if sys.n_points != 2:
        raise ValueError("oracle only applies to two-point systems")
    eta = float(sys.eta[0, 1])
    p1, p2 = float(sys.pi[0]), float(sys.pi[1])
    m_a = float(rho_a.masses[0])
    m_b = float(rho_b.masses[0])
    if m_a == m_b:
        return 0.0

    def speed(m):
        th = log_mean(m / p1, (1.0 - m) / p2)
        return 1.0 / np.sqrt(th * eta * p1 * p2)

    lo, hi = min(m_a, m_b), max(m_a, m_b)
    val, _ = quad(speed, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-12)
    return float(val)


@dataclass(frozen=True)
class AxiomCheck:
    """Summary of sampled metric-axiom violations."""

    identity_max: float
    symmetry_max: float
    triangle_slack: float
    min_offdiagonal: float
    n_samples: int
    passes: bool


def check_metric_axioms(
    sys: DiscreteSystem,
    seed: int = 0,
    n_samples: int = 3,
    n_steps: int = 16,
) -> AxiomCheck:
    """Check identity, symmetry, and the triangle inequality on samples.

    Distances come from the default solver.  They are numerical minima, so
    the identity holds up to 1e-6 and the other axioms up to 1e-3 times
    the distance scale; genuine violations show up far above that.
    """
    if n_samples < 3:
        raise ValueError("need at least three sample states")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_samples):
        raw = rng.uniform(0.2, 2.0, size=sys.n_points)
        states.append(DensityState(sys, raw / (raw @ sys.pi)))

    def dist(a, b):
        return nlw_distance(PathProblem(sys, a, b, n_steps=n_steps)).w

    identity_max = max(dist(s, s) for s in states)
    dmat = np.zeros((n_samples, n_samples))
    for i in range(n_samples):
        for j in range(n_samples):
            if i != j:
                dmat[i, j] = dist(states[i], states[j])
    off = dmat[~np.eye(n_samples, dtype=bool)]
    scale = float(off.max()) if off.size else 1.0
    symmetry_max = float(np.max(np.abs(dmat - dmat.T)))
    triangle = -np.inf
    for i in range(n_samples):
        for j in range(n_samples):
            for k in range(n_samples):
                if len({i, j, k}) == 3:
                    triangle = max(triangle, dmat[i, k] - dmat[i, j] - dmat[j, k])
    passes = (
        identity_max <= 1e-6
        and symmetry_max <= 1e-3 * scale
        and triangle <= 1e-3 * scale
        and float(off.min()) > 0.0
    )
    return AxiomCheck(
        identity_max=float(identity_max),
        symmetry_max=symmetry_max,
        triangle_slack=float(triangle),
        min_offdiagonal=float(off.min()) if off.size else 0.0,
        n_samples=n_samples,
        passes=passes,
    )
