"""Discrete transport distance induced by the kinetic action.

The squared distance between two densities is the least action of a
path connecting them through the continuity equation:

    W(rho_a, rho_b)^2 = inf { integral_0^1 A(rho_t, v_t) dt :
                              mu_dot + div v = 0, rho_0 = rho_a, rho_1 = rho_b }

with A the flux action built on the logarithmic mean (see
``functionals``).  Time is cut into M uniform steps; the unknowns are
one flux value per support edge per step, densities are recovered by
summing divergences, and the action weight uses the logarithmic mean of
the two adjacent time levels (a midpoint rule).  Each objective
evaluation computes the logarithmic mean and both of its partial
derivatives in one pass over the edges, and scatters the action's
sensitivity to the nodes with one ``np.bincount`` on the edge list.
The endpoint constraint is linear, so it is eliminated exactly with one
Cholesky factor of the graph Laplacian: least-norm total flux plus the
orthogonal projection of a free edge vector onto the divergence-free fluxes.
What remains is a smooth convex program, solved by a limited-memory
quasi-Newton descent with an Armijo backtracking search and a
decreasing interior barrier that keeps intermediate densities positive.
The barrier schedule, stopping tests and line-search constants are
module constants; ``MetricSolverConfig.max_iter``, the accepted steps
per stage, is the one setting.  A hand-rolled descent loop
is used instead of a library optimizer because the barrier makes the
objective +inf outside the feasible cone and the line search must treat
that as "reject the trial point", a convention library line searches do
not reliably follow.

Infeasible endpoints (mass distributed differently across disconnected
components of the support graph) are recognized up front and reported
as an infinite distance rather than a solver failure.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from .discretize import DiscreteSystem
from .functionals import DensityState, log_mean

__all__ = [
    "MetricSolverConfig",
    "PathProblem",
    "DiscretePath",
    "MetricResult",
    "nlw_distance",
    "action_of_path",
    "two_point_distance_oracle",
    "check_metric_axioms",
    "AxiomCheck",
]


# Barrier weights 1e-2, 1e-3, ..., 1e-10 of the descent stages, each the
# previous one times 0.1 in floating point (so 1.0000000000000002e-06,
# not 1e-6); the smoothing of the logarithmic mean follows the same
# schedule.  A polish stage then runs with the barrier off and the
# smoothing at EPS_POLISH.
BARRIER_SCHEDULE = tuple(itertools.accumulate([1e-2] + [0.1] * 8, operator.mul))
EPS_POLISH = 1e-12
OBJ_TOL = 1e-9  # a stage stops when one step changes the objective by less, relatively
ACTION_FLOOR = 1e-24  # ... or when the objective falls below this
MEMORY = 10  # L-BFGS curvature pairs kept
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking search
MAX_BACKTRACKS = 60  # step halvings before a stage gives up
MIX = 1e-2  # bow of the initial path toward the uniform state when the straight one touches zero


@dataclass(frozen=True)
class MetricSolverConfig:
    """The path optimizer's one setting: accepted steps per descent stage."""

    max_iter: int = 300


@dataclass(frozen=True)
class PathProblem:
    """Endpoint pair plus discretization and solver settings."""

    system: DiscreteSystem
    start: DensityState
    end: DensityState
    n_steps: int = 32
    solver: MetricSolverConfig = field(default_factory=MetricSolverConfig)

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("need at least two time steps")
        for state in (self.start, self.end):
            if state.u.shape != (self.system.n_points,):
                raise ValueError("endpoint state does not match the system")


@dataclass(frozen=True)
class DiscretePath:
    """A feasible discrete path: densities per time level, flux per edge/step.

    ``u`` has shape (M+1, N) on the uniform grid t_m = m/M; ``fluxes``
    has shape (M, E) with one signed value per support edge (i < j),
    the ordered-pair flux being antisymmetric.
    """

    system: DiscreteSystem
    u: np.ndarray
    fluxes: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        x = np.asarray(self.fluxes, dtype=float)
        edges = np.asarray(self.edges, dtype=int)
        if u.ndim != 2 or u.shape[1] != self.system.n_points:
            raise ValueError("density array shape mismatch")
        if x.shape != (u.shape[0] - 1, edges.shape[0]):
            raise ValueError("flux array shape mismatch")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(x))):
            raise ValueError("path contains non-finite entries")
        if u.min() < -1e-12:
            raise ValueError("path contains negative densities")
        u = np.where(u < 0.0, 0.0, u)
        for arr in (u, x, edges):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "fluxes", x)
        object.__setattr__(self, "edges", edges)

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
        index = _scatter_index(self.edges, self.n_steps, self.system.n_points)
        div = _node_sums(index, mu[:-1].shape, self.fluxes, -self.fluxes)
        return float(np.max(np.abs(np.diff(mu, axis=0) + dt * div)))


@dataclass(frozen=True)
class MetricResult:
    """Outcome of a distance computation.

    ``w`` is the square root of the pure (unsmoothed) action of the
    returned path; infeasible endpoint pairs get w = inf and no path.
    """

    w: float
    n_steps: int
    iterations: int
    converged: bool
    constraint_residual: float
    objective_history: list
    path: DiscretePath | None = None
    infeasible: bool = False
    reason: str = ""


# ---------------------------------------------------------------------------
# support-graph plumbing
# ---------------------------------------------------------------------------


def _support_edges(sys: DiscreteSystem):
    """Edge list (i < j with eta > 0) and conductances eta_ij pi_i pi_j: the eta > 0 part of ``sys.pairs``."""
    pairs = sys.pairs
    keep = sys.eta[pairs.i, pairs.j] > 0.0
    return np.column_stack([pairs.i[keep], pairs.j[keep]]), pairs.w[keep]


def _graph_laplacian(edges: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """D D^T for the incidence D (+1 at i, -1 at j of edge (i, j)) plus 1_c 1_c^T / n_c per component
    c: positive definite even with isolated nodes, and D^T maps the added term to zero."""
    n, ei, ej = labels.size, edges[:, 0], edges[:, 1]
    lap = (labels[:, None] == labels[None, :]) / np.bincount(labels)[labels][None, :]
    lap[np.diag_indices(n)] += np.bincount(edges.ravel(), minlength=n)
    lap[ei, ej] -= 1.0
    lap[ej, ei] -= 1.0
    return lap


def _scatter_index(edges: np.ndarray, n_steps: int, n_points: int) -> np.ndarray:
    """Flat bins m*N + i for every (step, edge) pair, then m*N + j.

    With this order ``np.bincount`` adds each bin's terms exactly as
    ``np.add.at`` over the i ends and then over the j ends would.
    """
    rows = np.arange(n_steps)[:, None] * n_points
    return np.concatenate([(rows + edges[:, 0]).ravel(), (rows + edges[:, 1]).ravel()])


def _node_sums(index: np.ndarray, shape, at_i: np.ndarray, at_j: np.ndarray) -> np.ndarray:
    """Per-step node sums of edge values: ``at_i`` lands on each edge's node i, ``at_j`` on node j."""
    weights = np.concatenate([at_i.ravel(), at_j.ravel()])
    return np.bincount(index, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)


def _component_labels(sys: DiscreteSystem) -> np.ndarray:
    adj = (sys.eta > 0.0).astype(np.int8)
    return connected_components(adj, directed=False)[1]


def _log_mean_and_partials(r, s):
    """theta(r, s), d theta / d r and d theta / d s, elementwise, in one pass.

    Each value is computed with the same arithmetic as ``log_mean`` and
    the mirrored derivative formulas: away from the diagonal
    theta = d / log1p(d/s) with d = r - s, d theta/d r = (1 - theta/r)/ell
    with ell = log1p(d/s), and d theta/d s the same with r and s swapped
    (ell = log1p(-d/r)); near it the series 0.5 -/+ d/(6m) around the
    midpoint m.  On the boundary (either argument zero) the mean is
    identically zero along the ray, so all three are reported as 0; the
    interior barrier keeps optimization paths away from that edge anyway.
    Scalars come back as arrays of shape (1,).
    """
    r, s = np.broadcast_arrays(
        np.atleast_1d(np.asarray(r, dtype=float)), np.atleast_1d(np.asarray(s, dtype=float))
    )
    if np.any(r < 0.0) or np.any(s < 0.0):
        raise ValueError("log mean requires nonnegative arguments")
    d = r - s
    pos = (r > 0.0) & (s > 0.0)
    near = pos & (np.abs(d) <= 1e-8 * np.maximum(r, s))
    # the far-branch formulas on every entry; near and boundary entries
    # are overwritten below, so their inf/nan here never escape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ell_r = np.log1p(d / s)
        ell_s = np.log1p(-d / r)
        if not np.isfinite(ell_r + ell_s).all():
            # where the log1p argument overflows or rounds to -1: the plain
            # difference of logs, as in log_mean
            for ell, a, b in ((ell_r, r, s), (ell_s, s, r)):
                wide = pos & ~np.isfinite(ell)
                ell[wide] = np.log(a[wide]) - np.log(b[wide])
        theta = d / ell_r
        dr = (1.0 - theta / r) / ell_r
        ds = (1.0 - (-d / ell_s) / s) / ell_s
    if not pos.all():
        off = ~pos
        theta[off] = 0.0
        dr[off] = 0.0
        ds[off] = 0.0
    if near.any():
        m = 0.5 * (r[near] + s[near])
        dn = d[near]
        theta[near] = m - dn * dn / (12.0 * m)
        t = dn / (6.0 * m)
        dr[near] = 0.5 - t
        ds[near] = 0.5 + t
    return theta, dr, ds


# ---------------------------------------------------------------------------
# objective and gradient in the reduced variables
# ---------------------------------------------------------------------------


class _PathWorkspace:
    """Everything fixed across optimizer iterations for one problem."""

    def __init__(self, prob: PathProblem):
        sys = prob.system
        self.sys = sys
        self.M = prob.n_steps
        self.dt = 1.0 / self.M
        self.edges, self.q = _support_edges(sys)
        self.n_edges = self.edges.shape[0]
        self.scatter = _scatter_index(self.edges, self.M, sys.n_points)
        self.mu0 = prob.start.masses
        self.muT = prob.end.masses
        self.g = (self.mu0 - self.muT) / self.dt
        self.labels = labels = _component_labels(sys)
        self.component_mismatch = max(
            (abs(float(np.sum(self.g[labels == c]))) for c in range(labels.max() + 1)),
            default=0.0,
        ) * self.dt
        self.laplacian = scipy.linalg.cho_factor(_graph_laplacian(self.edges, labels))
        self.s0 = self.least_norm(self.g)
        # barrier acts on nodes whose component carries mass
        self.barrier_nodes = np.bincount(labels, 0.5 * (self.mu0 + self.muT))[labels] > 0.0

    def least_norm(self, rhs: np.ndarray) -> np.ndarray:
        """Least-norm x with D x = rhs, row by row; exact when rhs sums to zero on each component."""
        phi = scipy.linalg.cho_solve(self.laplacian, rhs.T, check_finite=False).T
        return phi[..., self.edges[:, 0]] - phi[..., self.edges[:, 1]]

    def project(self, z: np.ndarray) -> np.ndarray:
        """Orthogonal projection of edge values onto the divergence-free ones."""
        ei, ej, n = self.edges[:, 0], self.edges[:, 1], self.sys.n_points
        return z - self.least_norm(np.bincount(ei, z, minlength=n) - np.bincount(ej, z, minlength=n))

    # -- packing ----------------------------------------------------------

    def unpack(self, p: np.ndarray) -> np.ndarray:
        M, E = self.M, self.n_edges
        y = p[: (M - 1) * E].reshape(M - 1, E)
        s = self.s0 + self.project(p[(M - 1) * E :])
        x = np.empty((M, E))
        x[: M - 1] = y
        x[M - 1] = s - y.sum(axis=0)
        return x

    def masses(self, x: np.ndarray) -> np.ndarray:
        div = _node_sums(self.scatter, (self.M, self.sys.n_points), x, -x)
        mu = np.empty((self.M + 1, self.sys.n_points))
        mu[0] = self.mu0
        mu[1:] = self.mu0[None, :] - self.dt * np.cumsum(div, axis=0)
        return mu

    def initial_point(self) -> np.ndarray:
        """Linear interpolation of the masses, bowed slightly toward the
        componentwise uniform state when the straight path touches zero."""
        M, E = self.M, self.n_edges
        t = np.arange(1, M)[:, None] / M
        mu_lin = (1.0 - t) * self.mu0[None, :] + t * self.muT[None, :]
        x = np.tile(self.s0 / M, (M, 1))
        active = self.barrier_nodes
        if M > 1 and np.any(mu_lin[:, active] <= 1e-9 * mu_lin.max()):
            labels = self.labels
            pi = self.sys.pi
            mu_unif = np.empty_like(mu_lin)
            for c in range(labels.max() + 1):
                sel = labels == c
                pc = pi[sel].sum()
                mu_unif[:, sel] = mu_lin[:, sel].sum(axis=1, keepdims=True) * (pi[sel] / pc)
            bump = MIX * 4.0 * (t * (1.0 - t))
            mu_target = np.vstack([self.mu0, (1.0 - bump) * mu_lin + bump * mu_unif, self.muT])
            # recover step fluxes for the bowed path, least-norm per step
            x = self.least_norm((mu_target[:-1] - mu_target[1:]) / self.dt)
        y = x[: M - 1].ravel()
        return np.concatenate([y, np.zeros(E)])

    # -- objective --------------------------------------------------------

    def value_and_grad(self, p: np.ndarray, beta: float, eps: float):
        M, E, dt = self.M, self.n_edges, self.dt
        x = self.unpack(p)
        mu = self.masses(x)
        interior = mu[1:-1]
        active = self.barrier_nodes
        if beta > 0.0:
            if interior.size and interior[:, active].min() <= 0.0:
                return np.inf, None
        elif interior.size and interior[:, active].min() < 0.0:
            return np.inf, None
        u = mu / self.sys.pi[None, :]
        ut = 0.5 * (u[:-1] + u[1:])
        ei, ej = self.edges[:, 0], self.edges[:, 1]
        theta, dtheta_dr, dtheta_ds = _log_mean_and_partials(ut[:, ei], ut[:, ej])
        theta += eps
        w = 1.0 / (theta * self.q[None, :])
        f = dt * float(np.sum(x * x * w))
        if beta > 0.0:
            f -= beta * float(np.sum(np.log(u[1:-1][:, active])))
        if not np.isfinite(f):
            return np.inf, None

        grad_x = 2.0 * dt * x * w
        # action sensitivity to the midpoint densities, scattered to nodes
        coef = -dt * x * x * w / theta  # dF/dtheta_e, shape (M, E)
        G = _node_sums(self.scatter, (M, self.sys.n_points), coef * dtheta_dr, coef * dtheta_ds)
        if M > 1:
            P = (G[:-1] + G[1:]) / (2.0 * self.sys.pi[None, :])
            if beta > 0.0:
                bar = np.zeros_like(interior)
                bar[:, active] = -beta / interior[:, active]
                P = P + bar
            suffix = np.flip(np.cumsum(np.flip(P, axis=0), axis=0), axis=0)
            grad_x[:-1] -= dt * (suffix[:, ei] - suffix[:, ej])
        grad_y = (grad_x[: M - 1] - grad_x[M - 1][None, :]).ravel()
        return f, np.concatenate([grad_y, self.project(grad_x[M - 1])])

    def pure_action(self, p: np.ndarray) -> float:
        x = self.unpack(p)
        mu = self.masses(x)
        return _action_from_arrays(self.sys, mu / self.sys.pi[None, :], x, self.edges, self.q, 0.0)

    def build_path(self, p: np.ndarray) -> DiscretePath:
        x = self.unpack(p)
        mu = self.masses(x)
        return DiscretePath(self.sys, mu / self.sys.pi[None, :], x, self.edges)


def _action_from_arrays(sys, u, x, edges, q, eps) -> float:
    dt = 1.0 / x.shape[0]
    ut = 0.5 * (u[:-1] + u[1:])
    theta = np.asarray(log_mean(ut[:, edges[:, 0]], ut[:, edges[:, 1]])) + eps
    den = theta * q[None, :]
    num = x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(num > 0.0, num / den, 0.0)
    if np.any((num > 0.0) & (den == 0.0)):
        return float("inf")
    return dt * float(np.sum(terms))


def action_of_path(path: DiscretePath, eps: float = 0.0) -> float:
    """Kinetic action of a discrete path (midpoint logarithmic-mean rule)."""
    _, q = _support_edges(path.system)
    return _action_from_arrays(path.system, path.u, path.fluxes, path.edges, q, eps)


# ---------------------------------------------------------------------------
# quasi-Newton descent
# ---------------------------------------------------------------------------


def _descend(fun, p, max_iter: int):
    """L-BFGS two-loop recursion with Armijo backtracking.

    Non-finite trial values are treated as out-of-domain and rejected by
    shrinking the step.  Returns (p, f, history, converged, n_iters).
    """
    f, g = fun(p)
    if not np.isfinite(f):
        raise RuntimeError("optimizer started outside the feasible domain")
    hist = [f]
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        d = -g.copy()
        alphas = []
        for s_vec, y_vec, rho in reversed(pairs):
            a = rho * (s_vec @ d)
            d -= a * y_vec
            alphas.append(a)
        if pairs:
            s_vec, y_vec, _ = pairs[-1]
            d *= (s_vec @ y_vec) / (y_vec @ y_vec)
        for (s_vec, y_vec, rho), a in zip(pairs, reversed(alphas)):
            b = rho * (y_vec @ d)
            d += (a - b) * s_vec
        gd = g @ d
        if gd >= 0.0:  # stale curvature; fall back to steepest descent
            d = -g
            gd = g @ d
        if gd == 0.0:
            converged = True
            break
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            f_new, g_new = fun(p + t * d)
            if np.isfinite(f_new) and f_new <= f + ARMIJO * t * gd:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        step = t * d
        y_vec = g_new - g
        sy = step @ y_vec
        if sy > 1e-10 * np.linalg.norm(step) * np.linalg.norm(y_vec):
            pairs.append((step, y_vec, 1.0 / sy))
            if len(pairs) > MEMORY:
                pairs.pop(0)
        p = p + step
        f_prev, f, g = f, f_new, g_new
        hist.append(f)
        if abs(f_prev - f) <= OBJ_TOL * max(abs(f), 1e-30) or abs(f) <= ACTION_FLOOR:
            converged = True
            break
    return p, f, hist, converged, it


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
    if ws.component_mismatch > 1e-9:
        return MetricResult(
            w=float("inf"),
            n_steps=prob.n_steps,
            iterations=0,
            converged=True,
            constraint_residual=ws.component_mismatch,
            objective_history=[],
            path=None,
            infeasible=True,
            reason="endpoints put different mass on a connected component of the support graph",
        )
    if ws.n_edges == 0:
        # no edges at all: only identical endpoints are reachable
        u = np.tile(prob.start.u, (prob.n_steps + 1, 1))
        path = DiscretePath(ws.sys, u, np.zeros((prob.n_steps, 0)), ws.edges)
        return MetricResult(
            w=0.0,
            n_steps=prob.n_steps,
            iterations=0,
            converged=True,
            constraint_residual=float(np.max(np.abs(ws.mu0 - ws.muT))),
            objective_history=[],
            path=path,
        )
    max_iter = prob.solver.max_iter
    p = ws.initial_point()
    history: list[float] = []
    total_iters = 0
    converged = False
    for beta in BARRIER_SCHEDULE:
        p, _, hist, _, its = _descend(lambda q_: ws.value_and_grad(q_, beta, beta), p, max_iter)
        history.extend(hist)
        total_iters += its
    p, _, hist, converged, its = _descend(
        lambda q_: ws.value_and_grad(q_, 0.0, EPS_POLISH), p, max_iter
    )
    history.extend(hist)
    total_iters += its
    path = ws.build_path(p)
    residual = float(np.max(np.abs(path.u[-1] * ws.sys.pi - ws.muT)))
    w = float(np.sqrt(max(ws.pure_action(p), 0.0)))
    return MetricResult(
        w=w,
        n_steps=prob.n_steps,
        iterations=total_iters,
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
    if sys.n_points != 2:
        raise ValueError("oracle only applies to two-point systems")
    eta = float(sys.eta[0, 1])
    if eta <= 0.0:
        raise ValueError("the two nodes are not connected")
    p1, p2 = float(sys.pi[0]), float(sys.pi[1])
    m_a = float(rho_a.masses[0])
    m_b = float(rho_b.masses[0])
    if m_a == m_b:
        return 0.0

    def speed(m):
        th = log_mean(m / p1, (1.0 - m) / p2)
        return 1.0 / np.sqrt(th * eta * p1 * p2)

    lo, hi = min(m_a, m_b), max(m_a, m_b)
    val, _ = scipy.integrate.quad(speed, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-12)
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
    solver: MetricSolverConfig | None = None,
    identity_tol: float = 1e-6,
    rel_tol: float = 1e-3,
) -> AxiomCheck:
    """Check identity, symmetry, and the triangle inequality on samples.

    The distances are numerical minima, so the axioms are verified up to
    ``rel_tol`` times the distance scale; genuine violations show up far
    above that.
    """
    if n_samples < 3:
        raise ValueError("need at least three sample states")
    rng = np.random.default_rng(seed)
    cfg = solver or MetricSolverConfig()
    states = []
    for _ in range(n_samples):
        raw = rng.uniform(0.2, 2.0, size=sys.n_points)
        states.append(DensityState(sys, raw / (raw @ sys.pi)))

    def dist(a, b):
        return nlw_distance(PathProblem(sys, a, b, n_steps=n_steps, solver=cfg)).w

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
        identity_max <= identity_tol
        and symmetry_max <= rel_tol * scale
        and triangle <= rel_tol * scale
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
