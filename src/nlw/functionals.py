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
    "arithmetic_mean",
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


def log_mean(r, s):
    """Logarithmic mean theta(r, s) = (r - s)/(log r - log s), elementwise.

    Extended by continuity: theta(r, r) = r, theta(r, 0) = theta(0, s) =
    theta(0, 0) = 0.  Near the diagonal the raw quotient loses every
    digit to cancellation, so for |r - s| <= 1e-8 max(r, s) the series
    expansion theta = m - (r-s)^2/(12 m) around the midpoint m is used
    (the next term is O((r-s)^4/m^3), far below double precision there).
    Away from it |log r - log s| is log1p of |r - s| / min(r, s), the
    ratio oriented to be >= 0, and theta = |r - s| / |log r - log s|:
    log1p((r-s)/s) for r < s would evaluate log1p next to -1 and lose
    digits as r/s falls (2.7e-10 relative at r/s = 1e-8).  Where
    |r - s| / min(r, s) overflows (the ratio above the float range) the
    plain difference of logs is used on those entries.
    """
    rb, sb = np.broadcast_arrays(
        np.atleast_1d(np.asarray(r, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    if np.any(rb < 0.0) or np.any(sb < 0.0):
        raise ValueError("log mean requires nonnegative arguments")
    d = rb - sb
    gap = np.abs(d)
    low = np.minimum(rb, sb)
    # the far branch on every entry, then the series on the near ones
    # (theta(0, 0) among them); zero-argument entries are overwritten
    # last, so the inf/nan either branch leaves there never escape.
    # log r - log s through log1p keeps full relative precision for
    # moderately close arguments, where the raw difference of logs would
    # amplify roundoff by max(r,s)/|r-s|.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ell = np.log1p(gap / low)
        if not np.isfinite(ell).all():
            wide = ~np.isfinite(ell)
            ell[wide] = np.abs(np.log(rb[wide]) - np.log(sb[wide]))
        out = np.divide(gap, ell, out=ell)
        near = gap <= 1e-8 * np.maximum(rb, sb)
        if near.any():
            m = 0.5 * (rb[near] + sb[near])
            dn = d[near]
            out[near] = m - dn * dn / (12.0 * m)
    zero = low == 0.0
    if zero.any():
        out[zero] = 0.0
    if np.isscalar(r) and np.isscalar(s):
        return float(out[0])
    return out.reshape(np.broadcast_shapes(np.shape(r), np.shape(s)))


def arithmetic_mean(r, s):
    """(r + s)/2 — the trivial admissible mean, kept as a negative control.

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
    defaults to the logarithmic mean; passing ``arithmetic_mean`` gives
    the negative-control geometry.
    """
    u = rho.u
    sys = rho.system
    if flux.n_points != sys.n_points:
        raise ValueError("flux shape does not match the system")
    pairs = sys.pairs
    total = 0.0
    for b in pairs.blocks():
        den = theta_fn(u[pairs.i[b]], u[pairs.j[b]]) * pairs.w[b]
        num = flux.values[b] * flux.values[b]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = num / den
        zero_den = den == 0.0
        if zero_den.any():
            if np.any(num[zero_den] > 0.0):
                return float("inf")
            terms[zero_den] = 0.0
        total += float(np.sum(terms))
    return total
