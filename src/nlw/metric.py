"""Discrete transport distance induced by the kinetic action.

The squared distance between two densities is the least action of a
path connecting them through the continuity equation:

    W(rho_a, rho_b)^2 = inf { integral_0^1 A(rho_t, v_t) dt :
                              mu_dot + div v = 0, rho_0 = rho_a, rho_1 = rho_b }

with A the flux action built on the logarithmic mean (see
``functionals``).  Time is cut into M uniform steps.  The unknowns are
one flux per pair per step and the masses of the M - 1 interior time
levels, tied by the linear continuity rows
mu^{m+1} - mu^m + dt div x^m = 0; the action weight uses the
logarithmic mean of the two adjacent time levels (a midpoint rule).  The
result is a smooth convex program with linear constraints, solved by a
feasible-start Newton barrier method (Boyd & Vandenberghe, *Convex
Optimization*, sections 10.2 and 11.3): nine stages with a decreasing
log-barrier on the interior masses, then a polish stage without it.

Each Newton step solves the KKT system of the stage objective.  The flux
block of the Hessian is diagonal, so the fluxes are eliminated pair by
pair; what a pair leaves in its two midpoint densities is
-(x^2/theta^2) times the Hessian of the logarithmic mean, positive
semidefinite because the mean is concave (Erbar, Rumpf, Schmitzer &
Simon, Numer. Math. 2020, use this action on graphs).  The continuity
multipliers are eliminated next through the inverse of each step's graph
Laplacian with conductances theta * eta_ij pi_i pi_j, formed from its
Cholesky factor R as R^-1 R^-T (``_spd_inverse``).  What is left is a
system in the mass increments, restricted to those that keep the total
mass: symmetric positive definite and block tridiagonal in time with
dense N x N blocks, solved by block Cholesky elimination with one LAPACK
``dposv`` call per pivot (``_block_tridiagonal_solve``), so a step costs
O(M N^3) plus O(M E).  Both helpers call LAPACK directly: on small
blocks scipy's checking wrappers cost more per call than the
factorization.  A block that is not positive definite raises
``np.linalg.LinAlgError``, which ends the Newton stage.  The step is
cut to stay inside the positive masses (fraction to the boundary) and
halved until the Armijo test holds.  The barrier schedule, stopping
test and line-search constants are module constants;
``PathProblem.max_iter``, the Newton steps per stage, is the one
setting.

The returned path is rebuilt from the final fluxes alone: their total
over all steps is replaced by the least-norm total between the endpoints
(in closed form: the complete graph's Laplacian is n I - 1 1^T, so the
least-norm flux of a divergence g is (g_i - g_j) / n) plus the
divergence-free part of the computed total, so the endpoint constraint
holds to rounding and ``w`` is the pure action of exactly that path.

Every system has eta > 0 on every pair (a ``DiscreteSystem``
invariant), so the graph is complete and its edges are all pairs i < j.
This module is the one that lists them, as the vectorized edge arrays
of ``_edges``, in pair order: row-major i < j, the order of
``system.json``'s eta.  A flux is one float per pair in that order, (E,)
for one state as ``functionals.action`` takes it and (M, E) along a
path.  Every two endpoints with the same total mass are joined by a
finite-action path, so the distance, Maas's discrete transport metric
on this graph (J. Funct. Anal. 2011), is finite.  Equal endpoints are
answered without a solve: w = 0 along the constant path.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSystem
from .functionals import DensityState, _flux_cost, _log_mean_derivatives, log_mean

__all__ = [
    "TransportError",
    "PathProblem",
    "DiscretePath",
    "MetricResult",
    "nlw_distance",
    "action_of_path",
    "two_point_distance_oracle",
    "check_metric_axioms",
    "AxiomCheck",
]


# Barrier weights 1e-2, 1e-3, ..., 1e-10 of the Newton stages, each the
# previous one times 0.1 in floating point (so 1.0000000000000002e-06,
# not 1e-6); the smoothing of the logarithmic mean follows the same
# schedule.  A polish stage then runs with the barrier off and the
# smoothing at EPS_POLISH.
BARRIER_SCHEDULE = tuple(itertools.accumulate([1e-2] + [0.1] * 8, operator.mul))
EPS_POLISH = 1e-12
NEWTON_TOL = 1e-12  # a stage stops when half the squared Newton decrement falls below this times |objective|
ACTION_FLOOR = 1e-24  # ... or when the objective falls below this (a path between equal ends)
TO_BOUNDARY = 0.99  # largest share of the step to the first vanishing interior mass that a step may take
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking search
MAX_BACKTRACKS = 60  # step halvings before a stage gives up
MIX = 1e-2  # bow of the initial path toward the uniform state when the straight one touches zero


class TransportError(RuntimeError):
    """The transport solve failed numerically: its path is not a valid path."""


@dataclass(frozen=True)
class PathProblem:
    """Endpoint pair plus discretization and the solver's one setting,
    ``max_iter``: Newton steps per barrier stage."""

    system: DiscreteSystem
    start: DensityState
    end: DensityState
    n_steps: int = 32
    max_iter: int = 300

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("need at least two time steps")
        for state in (self.start, self.end):
            if state.u.shape != (self.system.n_points,):
                raise ValueError("endpoint state does not match the system")


@dataclass(frozen=True)
class DiscretePath:
    """A feasible discrete path: densities per time level, flux per pair/step.

    ``u`` has shape (M+1, N) on the uniform grid t_m = m/M; ``fluxes``
    has shape (M, E), row m one flux on the E = N(N-1)/2 pairs i < j in
    pair order (row-major, the order of ``system.json``'s eta), as
    ``functionals.action`` takes it.
    """

    system: DiscreteSystem
    u: np.ndarray
    fluxes: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        x = np.asarray(self.fluxes, dtype=float)
        n = self.system.n_points
        if u.ndim != 2 or u.shape[1] != n:
            raise ValueError("density array shape mismatch")
        if x.shape != (u.shape[0] - 1, n * (n - 1) // 2):
            raise ValueError("flux array shape mismatch")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(x))):
            raise ValueError("path contains non-finite entries")
        if u.min() < -1e-12:
            raise ValueError(f"path contains negative densities (min {u.min():.3e})")
        u = np.where(u < 0.0, 0.0, u)
        for arr in (u, x):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "fluxes", x)

    @property
    def n_steps(self) -> int:
        return self.fluxes.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_steps + 1)

    def state(self, m: int) -> DensityState:
        return DensityState(self.system, self.u[m])

    def continuity_residual(self) -> float:
        """Max violation of mu^{m} - mu^{m-1} + dt * div(x^{m}) = 0."""
        dt = 1.0 / self.n_steps
        mu = self.u * self.system.pi[None, :]
        ei, ej, _ = _edges(self.system)
        index = _scatter_index(ei, ej, self.system.n_points, self.n_steps)
        div = _node_sums(index, mu[:-1].shape, self.fluxes, -self.fluxes)
        return float(np.max(np.abs(np.diff(mu, axis=0) + dt * div)))


@dataclass(frozen=True)
class MetricResult:
    """Outcome of a distance computation.

    ``w`` is the square root of the pure (unsmoothed) action of the
    returned path.
    ``stage_iterations`` counts the Newton steps of each barrier stage and
    of the polish stage; ``iterations`` is their sum.
    """

    w: float
    n_steps: int
    iterations: int
    stage_iterations: list
    converged: bool
    constraint_residual: float
    objective_history: list
    path: DiscretePath | None = None


# ---------------------------------------------------------------------------
# graph plumbing: the edges are the pairs i < j
# ---------------------------------------------------------------------------


def _edges(sys: DiscreteSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge list (i, j, w): every pair i < j in pair order and its
    conductance w = eta_ij pi_i pi_j, evaluated left to right."""
    i, j = np.triu_indices(sys.n_points, 1)
    return i, j, sys.eta[i, j] * sys.pi[i] * sys.pi[j]


def _scatter_index(ei: np.ndarray, ej: np.ndarray, n: int, n_steps: int) -> np.ndarray:
    """Flat bins m*n + i for every (step, edge), then m*n + j.

    With this order ``np.bincount`` adds each bin's terms exactly as
    ``np.add.at`` over the i ends and then over the j ends would.
    """
    rows = np.arange(n_steps)[:, None] * n
    return np.concatenate([(rows + ei).ravel(), (rows + ej).ravel()])


def _node_sums(index: np.ndarray, shape, at_i: np.ndarray, at_j: np.ndarray) -> np.ndarray:
    """Per-step node sums of pair values: ``at_i`` lands on each pair's node i, ``at_j`` on node j."""
    weights = np.concatenate([at_i.ravel(), at_j.ravel()])
    return np.bincount(index, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)


def _spd_inverse(blocks: np.ndarray) -> np.ndarray:
    """Inverses of symmetric positive definite blocks (K, n, n) from their Cholesky factors.

    LAPACK's ``dpotrf`` factors each block as R^T R with R upper
    triangular, ``dtrtri`` inverts R, and one batched product forms
    R^-1 R^-T.  A block that is not positive definite raises
    ``np.linalg.LinAlgError``.
    """
    from scipy.linalg.lapack import dpotrf, dtrtri

    factor_inv = np.empty_like(blocks)
    for k, block in enumerate(blocks):
        factor, info = dpotrf(block)
        if info == 0:
            factor_inv[k], info = dtrtri(factor)
        if info:
            raise np.linalg.LinAlgError(f"block {k} is not positive definite (LAPACK info {info})")
    return factor_inv @ np.swapaxes(factor_inv, 1, 2)


def _block_tridiagonal_solve(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite block tridiagonal system by block Cholesky elimination.

    ``diag`` (K, n, n) holds the diagonal blocks, ``upper[k]`` the block at
    (k, k+1) (its transpose sits at (k+1, k)) and ``rhs`` (K, n) the right
    side.  Each pivot is factored and solved against [upper[k], y] by one
    call of LAPACK's ``dposv``, which reads the pivot's upper triangle; a
    pivot that is not positive definite raises ``np.linalg.LinAlgError``.
    """
    from scipy.linalg.lapack import dposv

    K, n = rhs.shape
    gain = np.empty_like(upper)  # pivot^-1 upper[k]
    z = np.empty_like(rhs)
    for k in range(K):
        pivot, y = diag[k], rhs[k]
        if k:
            pivot = pivot - upper[k - 1].T @ gain[k - 1]
            y = y - upper[k - 1].T @ z[k - 1]
        last = k == K - 1
        _, sol, info = dposv(pivot, y[:, None] if last else np.column_stack([upper[k], y]))
        if info:
            raise np.linalg.LinAlgError(f"pivot {k} is not positive definite (LAPACK info {info})")
        z[k] = sol[:, -1]
        if not last:
            gain[k] = sol[:, :n]
    for k in range(K - 2, -1, -1):
        z[k] -= gain[k] @ z[k + 1]
    return z


def _restrict(blocks: np.ndarray) -> np.ndarray:
    """P B P for each block B, with P = I - 1 1^T / n the projection onto the
    mass increments a step may take: B less its row means, then less the
    column means of that."""
    centred = blocks - blocks.mean(axis=2, keepdims=True)
    return centred - centred.mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# the discrete problem: fluxes and masses, barrier objective, Newton step
# ---------------------------------------------------------------------------


class _PathWorkspace:
    """Everything fixed across Newton steps for one problem."""

    def __init__(self, prob: PathProblem):
        sys = prob.system
        self.sys = sys
        self.M = prob.n_steps
        self.dt = 1.0 / self.M
        n = sys.n_points
        self.ei, self.ej, self.w = _edges(sys)
        self.scatter = _scatter_index(self.ei, self.ej, n, self.M)
        self.mu0 = prob.start.masses
        self.muT = prob.end.masses
        self.s0 = self.least_norm((self.mu0 - self.muT) / self.dt)
        # flat bins of the per-step (M, N, N) node matrices: the (i, i),
        # (j, j), (i, j) and (j, i) entries of every edge
        ei, ej = self.ei, self.ej
        rows = np.arange(self.M)[:, None] * (n * n)
        self.pattern = np.concatenate(
            [(rows + k * n + l).ravel() for k, l in ((ei, ei), (ej, ej), (ei, ej), (ej, ei))]
        )

    def least_norm(self, rhs: np.ndarray) -> np.ndarray:
        """Least-norm x with D x = rhs, row by row; exact when rhs sums to zero.

        D is the incidence of the complete graph (+1 at i, -1 at j of pair
        (i, j)), so D D^T = n I - 1 1^T acts as n I on vectors that sum to
        zero, and x = D^T rhs / n.
        """
        return (rhs[..., self.ei] - rhs[..., self.ej]) / self.sys.n_points

    def project(self, z: np.ndarray) -> np.ndarray:
        """Orthogonal projection of pair values onto the divergence-free ones."""
        ei, ej, n = self.ei, self.ej, self.sys.n_points
        return z - self.least_norm(np.bincount(ei, z, minlength=n) - np.bincount(ej, z, minlength=n))

    def close_total(self, x: np.ndarray) -> np.ndarray:
        """``x`` with its last step replaced so that the total flux over all
        steps is s0 plus the divergence-free part of x's total: the masses
        built from it then end at the end state to rounding."""
        closed = x.copy()
        closed[-1] = self.s0 + self.project(x.sum(axis=0) - self.s0) - x[:-1].sum(axis=0)
        return closed

    def masses(self, x: np.ndarray) -> np.ndarray:
        div = _node_sums(self.scatter, (self.M, self.sys.n_points), x, -x)
        mu = np.empty((self.M + 1, self.sys.n_points))
        mu[0] = self.mu0
        mu[1:] = self.mu0[None, :] - self.dt * np.cumsum(div, axis=0)
        return mu

    def initial_point(self) -> np.ndarray:
        """Fluxes (M, E) of the linear interpolation of the masses, bowed slightly
        toward the uniform state when the straight path touches zero."""
        M = self.M
        t = np.arange(1, M)[:, None] / M
        mu_lin = (1.0 - t) * self.mu0[None, :] + t * self.muT[None, :]
        x = np.tile(self.s0 / M, (M, 1))
        if M > 1 and np.any(mu_lin <= 1e-9 * mu_lin.max()):
            pi = self.sys.pi
            mu_unif = mu_lin.sum(axis=1, keepdims=True) * (pi / pi.sum())
            bump = MIX * 4.0 * (t * (1.0 - t))
            mu_target = np.vstack([self.mu0, (1.0 - bump) * mu_lin + bump * mu_unif, self.muT])
            # recover step fluxes for the bowed path, least-norm per step
            x = self.least_norm((mu_target[:-1] - mu_target[1:]) / self.dt)
        x[-1] = self.s0 - x[:-1].sum(axis=0)
        return x

    # -- barrier objective and Newton step --------------------------------

    def objective(self, x: np.ndarray, mu: np.ndarray, beta: float, eps: float) -> float:
        """Action of fluxes ``x`` with all M + 1 mass levels ``mu``, smoothed by ``eps``, minus
        ``beta`` times the log-barrier of the interior masses; inf once an interior mass
        is not positive."""
        u = mu / self.sys.pi[None, :]
        inner = u[1:-1]
        if inner.min() <= 0.0:
            return np.inf
        f = _action_from_arrays(u, x, (self.ei, self.ej, self.w), eps)
        if beta > 0.0:
            # summed in column-major order, node by node: the order fixes the rounding
            f -= beta * float(np.sum(np.log(np.asfortranarray(inner))))
        return f if np.isfinite(f) else np.inf

    def _node_matrices(self, at_ii, at_jj, at_ij, at_ji) -> np.ndarray:
        """Per-step N x N matrices from pair values (M, E) at the (i, i), (j, j), (i, j) and (j, i) entries."""
        n = self.sys.n_points
        weights = np.concatenate([w.ravel() for w in (at_ii, at_jj, at_ij, at_ji)])
        return np.bincount(self.pattern, weights, minlength=self.M * n * n).reshape(self.M, n, n)

    def newton_step(self, x: np.ndarray, mu: np.ndarray, beta: float, eps: float):
        """Gradient (g_x, g_mu) and Newton direction (dx, dmu) of the stage objective at (x, mu).

        ``mu`` holds all M + 1 mass levels; ``g_mu`` and ``dmu`` refer to the
        M - 1 interior ones.  The direction solves the KKT system of the
        continuity rows mu^{m+1} - mu^m + dt D x^m = 0, with their residual
        on the right side so that rounding drift is pulled back.

        The action dt x^2/(theta q) of a pair has flux curvature
        2 dt/(theta q), so each flux is eliminated on its own:
        dx = y - x - (theta q / 2)(lam_i - lam_j), with y = alpha da + gamma db
        the flux response to the increments of the midpoint densities
        (alpha = x theta_a/theta, gamma = x theta_b/theta), and what the pair
        leaves in (a, b) is ``coef`` times the Hessian of theta (``R``).
        The multipliers of step m then solve L_m lam^m = B_m dmu - rho_m, with
        L_m = dt/2 D diag(theta q) D^T plus 1 1^T / n (which D^T
        annihilates), B_m dmu = (I + Kp_m) dmu^{m+1} - (I - Kp_m) dmu^m,
        Kp_m dmu = dt D y for the midpoint increment (dmu^m + dmu^{m+1})/2,
        and rho_m = mu^m - mu^{m+1}.  Eliminating them leaves

            (R + barrier Hessian + B^T L^-1 B) dmu = act + bar + B^T L^-1 rho

        on the increments that keep the total mass: block
        tridiagonal in time with N x N blocks.
        """
        M, n, dt = self.M, self.sys.n_points, self.dt
        pi, ei, ej, q = self.sys.pi, self.ei, self.ej, self.w
        u = mu / pi[None, :]
        ut = 0.5 * (u[:-1] + u[1:])
        a, b = ut[:, ei], ut[:, ej]
        theta, th_a, th_b, th_aa, th_ab, th_bb = _log_mean_derivatives(a, b)
        theta += eps
        cond = theta * q[None, :]
        inner = mu[1:-1]
        bar = beta / inner  # minus the barrier gradient

        # gradient; an interior mass enters the two midpoints next to it
        coef = -dt * x * x / (cond * theta)  # d(action)/d theta
        G = _node_sums(self.scatter, (M, n), coef * th_a, coef * th_b)
        act = (G[:-1] + G[1:]) / (2.0 * pi[None, :])
        g_x = 2.0 * dt * x / cond
        g_mu = act - bar

        # flux eliminated: Hessian in the masses, and flux response
        pii, pjj = pi[ei][None, :], pi[ej][None, :]
        cross = coef * th_ab / (pii * pjj)
        R = 0.25 * self._node_matrices(coef * th_aa / pii**2, coef * th_bb / pjj**2, cross, cross)
        alpha, gamma = x * th_a / theta, x * th_b / theta
        Kp = (0.5 * dt) * self._node_matrices(alpha, -gamma, gamma, -alpha) / pi[None, None, :]
        lap = (0.5 * dt) * self._node_matrices(cond, cond, -cond, -cond) + 1.0 / n
        Linv = _spd_inverse(lap)
        LK = Linv @ Kp
        LKt = np.swapaxes(LK, 1, 2)
        KLK = np.swapaxes(Kp, 1, 2) @ LK
        rho = mu[:-1] - mu[1:]
        lr = np.einsum("mij,mj->mi", Linv, rho)
        klr = np.einsum("mji,mj->mi", Kp, lr)

        # (I + Kp)^T L^-1 (I + Kp), (I - Kp)^T L^-1 (I - Kp) and (I - Kp)^T L^-1 (I + Kp)
        UU = Linv + LK + LKt + KLK
        VV = Linv - LK - LKt + KLK
        VU = Linv + LK - LKt - KLK
        diag = R[:-1] + R[1:] + UU[:-1] + VV[1:]
        diag[:, np.arange(n), np.arange(n)] += bar / inner
        # the increments that keep the total mass: the excluded direction 1 gets a unit pivot
        rhs = act + bar + (lr + klr)[:-1] - (lr - klr)[1:]
        dmu = _block_tridiagonal_solve(
            _restrict(diag) + 1.0 / n,
            _restrict(R[1:-1] - VU[1:-1]),
            rhs - rhs.mean(axis=1, keepdims=True),
        )

        full = np.zeros_like(mu)
        full[1:-1] = dmu
        dbar = (full[:-1] + full[1:]) / (2.0 * pi[None, :])
        y = alpha * dbar[:, ei] + gamma * dbar[:, ej]
        B_dmu = np.diff(full, axis=0) + dt * _node_sums(self.scatter, (M, n), y, -y)
        lam = np.einsum("mij,mj->mi", Linv, B_dmu - rho)
        dx = y - x - 0.5 * cond * (lam[:, ei] - lam[:, ej])
        return g_x, g_mu, dx, dmu


def _action_from_arrays(u, x, edges, eps) -> float:
    ei, ej, w = edges
    ut = 0.5 * (u[:-1] + u[1:])
    theta = log_mean(ut[:, ei], ut[:, ej]) + eps
    return (1.0 / x.shape[0]) * _flux_cost(x, theta, w)


def action_of_path(path: DiscretePath) -> float:
    """Kinetic action of a discrete path (midpoint logarithmic-mean rule)."""
    return _action_from_arrays(path.u, path.fluxes, _edges(path.system), 0.0)


# ---------------------------------------------------------------------------
# damped Newton stages
# ---------------------------------------------------------------------------


def _newton(ws: _PathWorkspace, x, mu, beta: float, eps: float, max_iter: int):
    """Damped Newton steps on one stage of the barrier objective, from a strictly feasible (x, mu).

    Each step is cut to TO_BOUNDARY of the way to the first vanishing
    interior mass and then halved until the Armijo test holds.
    A step whose reduced system is numerically not positive definite ends
    the stage unconverged at the current iterate, which stays feasible.
    Returns (x, mu, objective history, converged, steps).
    """
    f = ws.objective(x, mu, beta, eps)
    if not np.isfinite(f):
        raise TransportError("Newton stage started outside the feasible domain")
    history = [f]
    for steps in range(max_iter + 1):
        try:
            g_x, g_mu, dx, dmu = ws.newton_step(x, mu, beta, eps)
        except np.linalg.LinAlgError:
            break
        slope = float(np.sum(g_x * dx) + np.sum(g_mu * dmu))  # minus the squared Newton decrement
        if -0.5 * slope <= NEWTON_TOL * abs(f) or abs(f) <= ACTION_FLOOR:
            return x, mu, history, True, steps
        if steps == max_iter:
            break
        shrink = dmu < 0.0
        t = min(1.0, TO_BOUNDARY * float(np.min(mu[1:-1][shrink] / -dmu[shrink], initial=np.inf)))
        for _ in range(MAX_BACKTRACKS):
            x_new = x + t * dx
            mu_new = mu.copy()
            mu_new[1:-1] += t * dmu
            f_new = ws.objective(x_new, mu_new, beta, eps)
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        x, mu, f = x_new, mu_new, f_new
        history.append(f)
    return x, mu, history, False, steps


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def nlw_distance(prob: PathProblem) -> MetricResult:
    """Distance between the endpoints of ``prob`` with an optimal path.

    The reported ``w`` is the square root of the pure action of the
    final path (no barrier, no smoothing), so it is an honest value of
    the discrete functional being minimized.
    """
    ws = _PathWorkspace(prob)
    if np.array_equal(prob.start.u, prob.end.u):
        # the constant path has zero action; the barrier stages would chase
        # empty cells of it toward zero instead
        u = np.tile(prob.start.u, (prob.n_steps + 1, 1))
        path = DiscretePath(ws.sys, u, np.zeros((prob.n_steps, ws.w.size)))
        return MetricResult(
            w=0.0,
            n_steps=prob.n_steps,
            iterations=0,
            stage_iterations=[],
            converged=True,
            constraint_residual=0.0,
            objective_history=[],
            path=path,
        )
    x = ws.initial_point()
    mu = ws.masses(x)
    mu[-1] = ws.muT
    history: list[float] = []
    stage_iterations: list[int] = []
    stages = [(beta, beta) for beta in BARRIER_SCHEDULE] + [(0.0, EPS_POLISH)]
    for beta, eps in stages:
        x, mu, hist, converged, steps = _newton(ws, x, mu, beta, eps, prob.max_iter)
        history.extend(hist)
        stage_iterations.append(steps)
    # the path's masses are rebuilt from the fluxes alone, with the total
    # flux fixed exactly
    x = ws.close_total(x)
    u = ws.masses(x) / ws.sys.pi[None, :]
    try:
        path = DiscretePath(ws.sys, u, x)
    except ValueError as exc:
        # interior masses the stages drove to rounding level can end below
        # zero once the total flux is closed
        raise TransportError(f"the solved path is invalid: {exc}") from exc
    # w is read from the returned path, whose rounding-level negatives are clamped
    w = float(np.sqrt(max(action_of_path(path), 0.0)))
    residual = float(np.max(np.abs(path.u[-1] * ws.sys.pi - ws.muT)))
    return MetricResult(
        w=w,
        n_steps=prob.n_steps,
        iterations=sum(stage_iterations),
        stage_iterations=stage_iterations,
        converged=bool(converged and residual < 1e-8),
        constraint_residual=residual,
        objective_history=history,
        path=path,
    )


# ---------------------------------------------------------------------------
# two-point oracle and axiom checks
# ---------------------------------------------------------------------------


def two_point_distance_oracle(sys: DiscreteSystem, rho_a: DensityState, rho_b: DensityState) -> float:
    """Closed-form distance on a two-point system, by 1-d quadrature.

    With mass m on the first node, the optimal path is monotone in m and

        W = | integral_{m_a}^{m_b} dm / sqrt(theta(m/pi_1, (1-m)/pi_2) eta pi_1 pi_2) |.
    """
    from scipy.integrate import quad

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
