"""Entropy, Fisher information, and the Benamou-Brenier action on systems.

Everything here acts on a DiscreteSystem (grid, pi, eta) together with a
relative density u = drho/dpi.  The central objects:

  H(rho|pi)   = sum_i u_i log u_i pi_i                     relative entropy
  I(rho|pi)   = sum_{i < j} (u_i - u_j)(log u_i - log u_j) w_ij
  A(rho, v)   = sum_{i < j} v_ij^2 / (theta(u_i, u_j) w_ij)

with w_ij = eta_ij pi_i pi_j the conductance of the pair and theta the
logarithmic mean.  The identity theta(a,b) * (log a - log b) = a - b
turns the action of the tangent flux v_ij = (u_i - u_j) w_ij into the
Fisher information exactly: each pair term becomes
(u_i - u_j)^2 / theta * w = (u_i - u_j)(log u_i - log u_j) * w.  That
exact cancellation is what makes the heat flow the gradient flow of the
entropy in this geometry, and the test suite pins it at relative 1e-12.
The two sides are computed independently (theta from ``log_mean``, the
Fisher side from log u), so the audit tests that identity.

Pair sums run over the system's cached pair list ``DiscreteSystem.pairs``
(every i < j in ``np.triu_indices`` order, with w), block by block, so
no N x N temporary is formed.  A sum over i < j equals the ordered-pair
sum 1/2 sum_{i != j} of the same symmetric term.

Conventions for degenerate values follow the variational definitions:
0 log 0 = 0 in the entropy; r (log r - log 0) = +infinity in the Fisher
information (an absolutely-continuous state with mass next to a hole has
infinite slope); in the action 0^2/0 = 0 and v^2/0 = +infinity for
v != 0.  Infinities are ordinary IEEE inf values propagated through
sums, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .discretize import DiscreteSystem

__all__ = [
    "log_mean",
    "theta_connectedness_constant",
    "DensityState",
    "FluxField",
    "relative_entropy",
    "fisher_information",
    "action",
]


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------


def _log_mean_parts(r, s):
    """The branch rules of the logarithmic mean, for ``log_mean`` and ``_log_mean_derivatives``.

    Returns the broadcast arguments (at least 1-d), theta, ell =
    |log r - log s| (the sign of log(r/s) is that of r - s), and the masks
    of the ``near`` and ``edge`` entries.  Away from the diagonal ell is
    log1p of |r - s| / min(r, s), the ratio oriented to be >= 0 (log1p of
    (r-s)/s for r < s would sit next to -1 and lose 2.7e-10 relative at
    r/s = 1e-8), or the plain difference of logs where that ratio
    overflows; theta = |r - s|/ell.  Near the diagonal, |r - s| <= 1e-8
    max(r, s), the quotient cancels, so theta is the series
    m - (r-s)^2/(12 m) around the midpoint m (the next term is far below
    double precision).  On the boundary, ``edge`` (either argument zero),
    theta = 0 and ell is not finite; ``edge`` overrides ``near``.
    """
    r, s = np.broadcast_arrays(
        np.atleast_1d(np.asarray(r, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    if np.any(r < 0.0) or np.any(s < 0.0):
        raise ValueError("log mean requires nonnegative arguments")
    d = r - s
    gap = np.abs(d)
    low = np.minimum(r, s)
    # far branch everywhere, then the series, then the boundary: the inf/nan
    # of a branch on an entry it does not own are overwritten
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ell = np.divide(gap, low)
        np.log1p(ell, out=ell)
        if not np.isfinite(ell).all():
            wide = ~np.isfinite(ell)
            ell[wide] = np.abs(np.log(r[wide]) - np.log(s[wide]))
        theta = gap / ell
        near = gap <= 1e-8 * np.maximum(r, s)
        if near.any():
            m = 0.5 * (r[near] + s[near])
            dn = d[near]
            theta[near] = m - dn * dn / (12.0 * m)
    edge = low == 0.0
    if edge.any():
        theta[edge] = 0.0
    return r, s, theta, ell, near, edge


def log_mean(r, s):
    """Logarithmic mean theta(r, s) = (r - s)/(log r - log s), elementwise.

    Extended by continuity: theta(r, r) = r, theta(r, 0) = theta(0, s) =
    theta(0, 0) = 0.  ``_log_mean_parts`` holds the branch rules.
    """
    theta = _log_mean_parts(r, s)[2]
    if np.isscalar(r) and np.isscalar(s):
        return float(theta[0])
    return theta.reshape(np.broadcast_shapes(np.shape(r), np.shape(s)))


# 6 m theta_rs as a series in t = (r - s)/(r + s), m the midpoint; the
# next term, 0.38 t^10, is below 4e-14 where it is used (|t| <= 0.05)
_CROSS_SERIES = (21116.0 / 51975.0, 2084.0 / 4725.0, 52.0 / 105.0, 3.0 / 5.0, 1.0)


def _log_mean_derivatives(r, s):
    """(theta, theta_r, theta_s, theta_rr, theta_rs, theta_ss) at (r, s), elementwise, each at least 1-d.

    theta_r = (1 - theta/r)/ell and theta_s = (theta/s - 1)/ell with
    ell = log(r/s), or 0.5 -/+ (r - s)/(6m) on the series entries of
    ``_log_mean_parts``.  theta is 1-homogeneous, so r theta_rr +
    s theta_rs = 0 = r theta_rs + s theta_ss, and differentiating theta_r
    in s gives theta_rs = (r + s - 2 theta) / (r s log(r/s)^2); its
    numerator cancels for |r - s| <= 0.05 (r + s), where ``_CROSS_SERIES``
    serves instead.  On the boundary the mean vanishes along the ray, so
    all six are 0 there; the barrier keeps paths away from it anyway.
    """
    r, s, theta, ell, near, edge = _log_mean_parts(r, s)
    pos = ~edge
    d = r - s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.copysign(ell, d, out=ell)
        dr = (1.0 - theta / r) / ell
        ds = (theta / s - 1.0) / ell
        if near.any():
            m = 0.5 * (r[near] + s[near])
            h = d[near] / (6.0 * m)
            dr[near] = 0.5 - h
            ds[near] = 0.5 + h
        t = d / (r + s)
        ratio = d / theta  # log(r/s) as theta gives it
        rs = (r + s - 2.0 * theta) / (r * s * ratio * ratio)
        cross = pos & (np.abs(t) <= 0.05)
        if cross.any():
            # 1/(6m) overflows to inf for subnormal m
            rs[cross] = np.polyval(_CROSS_SERIES, t[cross] ** 2) / (3.0 * (r[cross] + s[cross]))
        rr = np.where(pos, -(s / r) * rs, 0.0)
        ss = np.where(pos, -(r / s) * rs, 0.0)
    if edge.any():
        dr[edge] = ds[edge] = rs[edge] = 0.0
    return theta, dr, ds, rr, rs, ss


def theta_connectedness_constant() -> float:
    """C = int_0^1 dr / theta(1 - r, 1 + r) for the logarithmic mean.

    Finiteness of this integral is what lets finite-action paths move
    mass onto/off a point.  The integrand equals 1 at r = 0 and grows
    only logarithmically as r -> 1, so adaptive quadrature on the open
    interval converges comfortably.  (Analytically the value is
    sum_{k>=0} (2k+1)^{-2} = pi^2/8; the test suite uses the series as
    an independent oracle.)
    """
    val, _err = _scipy_quad(lambda r: 1.0 / log_mean(1.0 - r, 1.0 + r), 0.0, 1.0, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# States and fluxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityState:
    """A probability density u = drho/dpi relative to the system's measure."""

    system: DiscreteSystem
    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        n = self.system.n_points
        if u.shape != (n,):
            raise ValueError(f"u has shape {u.shape}, expected ({n},)")
        if not np.all(np.isfinite(u)):
            raise ValueError("u must be finite")
        if np.any(u < 0.0):
            raise ValueError(f"u has negative entries (min {u.min():.3e})")
        mass = float(u @ self.system.pi)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"u integrates to {mass!r} against pi, not 1")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def masses(self) -> np.ndarray:
        """Measure coordinates mu_i = u_i pi_i."""
        return self.u * self.system.pi

    @classmethod
    def uniform(cls, system: DiscreteSystem) -> "DensityState":
        """The reference measure itself: u identically 1."""
        return cls(system, np.ones(system.n_points))

    @classmethod
    def point_mass(cls, system: DiscreteSystem, index: int) -> "DensityState":
        u = np.zeros(system.n_points)
        u[index] = 1.0 / system.pi[index]
        return cls(system, u)

    @classmethod
    def from_masses(cls, system: DiscreteSystem, mu) -> "DensityState":
        mu = np.asarray(mu, dtype=float)
        return cls(system, mu / system.pi)


class FluxField:
    """An antisymmetric edge flux v_ij = -v_ji, stored once per cell pair.

    ``values`` holds v_ij for the pairs i < j in ``np.triu_indices``
    order, the order of ``DiscreteSystem.pairs``, so antisymmetry holds
    by construction; ``v`` builds the dense matrix on demand.
    ``FluxField(matrix)`` accepts a square, finite, exactly antisymmetric
    matrix; ``on_pairs`` takes the pair values directly.
    """

    def __init__(self, v):
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("flux must be a square matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("flux entries must be finite")
        if not np.array_equal(v, -v.T):
            raise ValueError("flux must be exactly antisymmetric")
        self._set(v.shape[0], v[np.triu_indices(v.shape[0], k=1)])

    def _set(self, n: int, values: np.ndarray) -> None:
        values.setflags(write=False)
        self.n_points = n
        self.values = values

    @classmethod
    def on_pairs(cls, n: int, values) -> "FluxField":
        """The flux with v_ij = values[k] on the k-th pair i < j of ``np.triu_indices(n, 1)``.

        ``values`` is not copied; the flux holds a read-only view of it.
        """
        values = np.asarray(values, dtype=float).view()
        if values.shape != (n * (n - 1) // 2,):
            raise ValueError(f"{values.shape} pair values for {n} points")
        if not np.all(np.isfinite(values)):
            raise ValueError("flux entries must be finite")
        flux = cls.__new__(cls)
        flux._set(n, values)
        return flux

    @property
    def v(self) -> np.ndarray:
        """The dense antisymmetric matrix, built on each access."""
        n = self.n_points
        i, j = np.triu_indices(n, k=1)
        v = np.zeros((n, n))
        v[i, j] = self.values
        v[j, i] = -self.values
        return v

    @classmethod
    def zero(cls, n: int) -> "FluxField":
        return cls.on_pairs(n, np.zeros(n * (n - 1) // 2))

    @classmethod
    def from_upper_triangle(cls, upper: np.ndarray) -> "FluxField":
        """Build from i < j data; entries on/below the diagonal are ignored.

        v_ij = upper_ij and v_ji = -upper_ij for i < j: the "physicist"
        convention where each undirected edge is stated once.
        """
        upper = np.asarray(upper, dtype=float)
        if upper.ndim != 2 or upper.shape[0] != upper.shape[1]:
            raise ValueError("flux must be a square matrix")
        n = upper.shape[0]
        return cls.on_pairs(n, upper[np.triu_indices(n, k=1)])


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def relative_entropy(rho: DensityState) -> float:
    """H(rho|pi) = sum_i u_i log u_i pi_i, with 0 log 0 = 0."""
    u = rho.u
    pi = rho.system.pi
    pos = u > 0.0
    val = float(np.sum(u[pos] * np.log(u[pos]) * pi[pos]))
    # clamp the roundoff shadow: H >= 0 by Jensen for probability densities
    return max(val, 0.0)


def fisher_information(rho: DensityState) -> float:
    """Nonlocal Fisher information; +inf when mass sits next to a hole.

    sum_{i < j} (u_i - u_j)(log u_i - log u_j) w_ij over the system's
    pair list, with r (log r - log 0) = +inf for r > 0 across a pair with
    eta > 0 and 0 (log 0 - log 0) = 0.
    """
    u = rho.u
    sys = rho.system
    pairs = sys.pairs
    pos = u > 0.0
    if not np.all(pos):
        mixed = pos[pairs.i] != pos[pairs.j]
        if np.any(sys.eta[pairs.i[mixed], pairs.j[mixed]] > 0.0):
            return float("inf")
    # u and log u side by side, so one gather per pair end fetches both;
    # log 0 is set to 0: a pair still touching a hole is empty at both
    # ends or has eta = 0, so its term is 0
    ul = np.column_stack([u, np.log(np.where(pos, u, 1.0))])
    total = 0.0
    for b in pairs.blocks():
        diff = np.take(ul, pairs.i[b], axis=0) - np.take(ul, pairs.j[b], axis=0)
        total += float(np.sum(diff[:, 0] * diff[:, 1] * pairs.w[b]))
    return total


def action(rho: DensityState, flux: FluxField, theta_fn=log_mean) -> float:
    """Kinetic action of a density/flux pair.

    sum over the pairs i < j of v_ij^2 / (theta(u_i,u_j) w_ij), which
    equals the ordered-pair sum of v_ij^2 / (2 theta eta_ij pi_i pi_j).
    Degenerate pairs follow 0/0 = 0 and c/0 = +inf for c > 0: flux
    across a closed or empty pair costs infinitely much.  ``theta_fn``
    defaults to the logarithmic mean; another mean gives another
    geometry (the tests use the arithmetic mean as a negative control).
    """
    u = rho.u
    sys = rho.system
    if flux.n_points != sys.n_points:
        raise ValueError("flux shape does not match the system")
    pairs = sys.pairs
    total = 0.0
    for b in pairs.blocks():
        total += _flux_cost(flux.values[b], theta_fn(u[pairs.i[b]], u[pairs.j[b]]), pairs.w[b])
    return total


def _flux_cost(v, theta, w) -> float:
    """sum v^2 / (theta w), with 0/0 = 0 and c/0 = +inf for c > 0: the sum of
    ``action`` and of the transport solver's objective."""
    den = theta * w
    num = v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = num / den
    zero_den = den == 0.0
    if zero_den.any():
        if np.any(num[zero_den] > 0.0):
            return float("inf")
        terms[zero_den] = 0.0
    return float(np.sum(terms))
