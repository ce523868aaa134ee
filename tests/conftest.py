"""Shared pytest plumbing.

The acceptance tests register one verdict line per criterion here; the
terminal-summary hook prints them after capture ends, so the per-criterion
PASS/FAIL lines are visible in every run (no -s needed).

``source_rate_system`` builds the negative control of the sampler tests:
the chain with the wrong, source-weighted jump rates.  ``pair_order``
numbers the pairs i < j of a system on the test side, in the order of
fluxes and of ``system.json``'s eta.  ``spectrum_of`` gives a trajectory
built by hand the spectrum of its system, from a solve.
"""

import numpy as np

from nlw.discretize import DiscreteSystem
from nlw.flow import IntegratorConfig, Spectrum, solve
from nlw.functionals import DensityState
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
