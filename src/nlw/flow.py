"""Heat flow on a discrete system: the entropy gradient flow of (pi, eta).

The evolution is linear in the density coordinates u_i = drho/dpi:

    du_i/dt = sum_j (u_j - u_i) eta_ij pi_j        (du/dt = K u)

which is the forward equation of the jump process with rates eta_ij pi_j.
The generator matrix K (off-diagonal eta_ij pi_j, diagonal minus the row
rate) has zero column action on pi (pi^T K = 0, by symmetry of eta), so
mass is conserved; it is Metzler with zero row sums, so exp(t K) is a
stochastic-like averaging operator: positivity is preserved, minima
rise, maxima fall, and the relative entropy decreases with dissipation
rate equal to the Fisher information.  The companion flux

    v_ij = (u_i - u_j) eta_ij pi_i pi_j            (tangent_flux)

(one value per pair i < j in pair order, row-major i < j as in
``system.json``'s eta, the flux form of ``functionals.action``) solves
the nonlocal continuity equation exactly and its kinetic action equals
the Fisher information identically — the discrete form of the
entropy-dissipation identity dH/dt = -I = -A.

One propagator, exact at every time: every cell carries mass and K is
self-adjoint in L^2(pi), so S = Pi^{1/2} K Pi^{-1/2} is symmetric, and one
eigendecomposition S = V Lambda V^T gives
u(t) = Pi^{-1/2} V exp(t Lambda) V^T Pi^{1/2} u0 for all t at once (the
eigenvector method of Moler & Van Loan, SIAM Rev. 2003).  ``solve`` keeps
that decomposition as a ``Spectrum`` on the trajectory, and
``Spectrum.states`` is the one place the formula is evaluated: the output
states and the audit's quadrature nodes both come from it.  The same
spectrum gives the spectral gap lambda_1, minus the second-largest
eigenvalue (the largest is the constant mode's 0): near equilibrium the
relative entropy decays like exp(-2 lambda_1 t), and 2 lambda_1 also
bounds the modified log-Sobolev constant from above (Bobkov & Tetali,
J. Theor. Probab. 2006).

The audit (``edi_report``) checks H(t0) - H(T) = int_t0^T I dt (Maas,
J. Funct. Anal. 2011) with a fixed time rule: 8-point Gauss-Legendre on
[0, t1] when I(0) is finite, then on panels that double in length from
the first positive output time t1 to the horizon T.  The node states are
one ``Spectrum.states`` product; their I comes from the generator, in one
product of the states with ``sys.eta`` (``_fisher_rows``).  ``int_action``
integrates the tangent flux's action at the same nodes, the pair sum of
w_ij (u_i - u_j)(log u_i - log u_j), from the degrees and one more
product with eta, with no N x N temporary.  It equals I by algebra and is
kept for the readers of ``edi.json`` until the audit gains a metric-side
check (ROADMAP items 1 and 3(b)).

An integrator is set by its method (``matrix_exponential``, the only
one), its horizon (``T`` in configs) and its step ``dt``, which only sets
the default output grid; nothing else.  Ill-conditioned results surface
as IntegratorError rather than being silently renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import DiscreteSystem
from .functionals import DensityState, _pair_rows, relative_entropy

__all__ = [
    "IntegratorError",
    "IntegratorConfig",
    "Spectrum",
    "Trajectory",
    "generator_matrix",
    "tangent_flux",
    "solve",
    "edi_report",
    "EDIReport",
]

_METHODS = ("matrix_exponential",)
_GAUSS_ORDER = 8  # nodes per panel of the audit's time rule


class IntegratorError(RuntimeError):
    """Time integration failed or broke a structural invariant."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Method, horizon and step.

    ``dt`` is optional: it only sets the default output grid, every dt up
    to the horizon.  In config documents the horizon is spelled ``T``.
    """

    method: str = "matrix_exponential"
    horizon: float = 1.0
    dt: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown integrator {self.method!r}; pick one of {_METHODS}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive when given")

    def to_dict(self) -> dict:
        doc = {"method": self.method, "T": self.horizon}
        if self.dt is not None:
            doc["dt"] = self.dt
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "IntegratorConfig":
        unknown = sorted(set(doc) - {"method", "T", "dt"})
        if unknown:
            names = ", ".join(map(repr, unknown))
            raise ValueError(f"unknown integrator key(s) {names}; the horizon is spelled 'T'")
        return cls(method=doc.get("method", cls.method), horizon=float(doc.get("T", cls.horizon)), dt=doc.get("dt"))


# ---------------------------------------------------------------------------
# Generator and tangent flux
# ---------------------------------------------------------------------------


def generator_matrix(sys: DiscreteSystem) -> np.ndarray:
    """K with K_ij = eta_ij pi_j (i != j) and zero row sums; du/dt = K u."""
    K = sys.eta * sys.pi[None, :]
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, -K.sum(axis=1))
    return K


def tangent_flux(rho: DensityState) -> np.ndarray:
    """The flux v_ij = (u_i - u_j) eta_ij pi_i pi_j carried by the flow.

    One value per pair i < j in pair order (row-major i < j, the order of
    ``system.json``'s eta), v = (u_i - u_j) * w, the form
    ``functionals.action`` takes; filled row by row into one array.
    """
    u = rho.u
    v = np.empty(u.size * (u.size - 1) // 2)
    for i, row, w in _pair_rows(rho.system):
        v[row] = (u[i] - u[i + 1 :]) * w
    return v


def _fisher_rows(sys: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """The Fisher information of every row u_k of ``u``, from the generator.

    I_k = -sum_i pi_i (K u~_k)_i log u_k,i with u~_k = u_k - (u_k . pi),
    the generator form of ``fisher_information``'s pair sum.  K 1 = 0,
    so centring changes nothing in exact arithmetic; in floating point it
    keeps the two terms of (K u~)_i = sum_j eta_ij pi_j u~_j - r_i u~_i,
    with the row rates r = eta pi, from cancelling near equilibrium.  All
    rows meet ``sys.eta`` in one product, and K itself is never formed.  A
    row with a zero is +inf, as in ``fisher_information``; roundoff below
    0 is clamped, as the entropy is.
    """
    pi = sys.pi
    centred = u - (u @ pi)[:, None]
    Ku = (centred * pi) @ sys.eta - centred * (sys.eta @ pi)
    positive = np.all(u > 0.0, axis=1)
    I = -(Ku * np.log(np.where(u > 0.0, u, 1.0))) @ pi
    return np.where(positive, np.maximum(I, 0.0), np.inf)


# ---------------------------------------------------------------------------
# Spectrum and trajectory containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """The eigendecomposition behind a solve, and the one propagator formula.

    ``lam`` ascends and ``V`` holds the eigenvectors of
    S = Pi^{1/2} K Pi^{-1/2} in its columns; ``sqrt_pi`` is Pi^{1/2}, ``m``
    the mean u0 . pi and ``c = V^T Pi^{1/2} (u0 - m)`` the coefficients of
    the centred initial state.  K 1 = 0, so only u0 - m runs through the
    eigenbasis and mass holds to roundoff however far the computed zero
    eigenvalue sits from 0.  ``u0`` is the initial state itself, the state
    at t = 0.
    """

    lam: np.ndarray
    V: np.ndarray
    sqrt_pi: np.ndarray
    m: float
    c: np.ndarray
    u0: np.ndarray

    def states(self, times) -> np.ndarray:
        """u(t) for each t >= 0 in ``times``, one row each.

        u(t) = m + Pi^{-1/2} V (exp(t lam) * c) for t > 0 and u0 at t = 0;
        entries below 0 are roundoff and set to 0, unless one lies below
        the positivity floor -1e-13, which raises IntegratorError.
        """
        t = np.asarray(times, dtype=float)
        later = t > 0.0
        out = np.empty((t.shape[0], self.u0.shape[0]))
        out[~later] = self.u0
        out[later] = self.m + ((np.exp(np.outer(t[later], self.lam)) * self.c) @ self.V.T) * (1.0 / self.sqrt_pi)
        worst = float(out.min())
        if worst < -1e-13:
            raise IntegratorError(
                f"the spectral propagator produced density {worst:.3e} below the positivity floor -1.0e-13"
            )
        out[out < 0.0] = 0.0
        return out


@dataclass(frozen=True)
class Trajectory:
    """Flow output: densities u(t_k) with per-time diagnostics.

    Diagnostics: H (relative entropy), I (Fisher information from the
    generator, `_fisher_rows`; inf at t = 0 for states with holes), mass,
    min_u.  ``spectrum`` is the eigendecomposition the states came from;
    ``spectral_gap`` is its lambda_1, so H decays at the asymptotic rate
    2 lambda_1.  Construction re-validates every state and the entropy
    monotonicity invariant (non-increasing up to 1e-10).
    """

    system: DiscreteSystem
    times: np.ndarray
    u: np.ndarray
    spectrum: Spectrum
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if times.ndim != 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing and start at 0")
        if u.shape != (times.shape[0], self.system.n_points):
            raise ValueError("density array shape does not match times/system")
        if self.spectrum.lam.shape != (self.system.n_points,):
            raise ValueError("spectrum does not match the system")
        states = [DensityState(self.system, row) for row in u]  # validates mass and sign
        H = np.array([relative_entropy(s) for s in states])
        I = _fisher_rows(self.system, u)
        rises = np.diff(H) > 1e-10
        if np.any(rises):
            k = int(np.nonzero(rises)[0][0])
            raise IntegratorError(
                f"entropy increased by {H[k + 1] - H[k]:.3e} between t={times[k]:g} "
                f"and t={times[k + 1]:g}"
            )
        times.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_H", H)
        object.__setattr__(self, "_I", I)

    @property
    def spectral_gap(self) -> float:
        # the largest eigenvalue is the constant mode's 0
        return -float(self.spectrum.lam[-2])

    @property
    def entropy(self) -> np.ndarray:
        return self._H

    @property
    def fisher(self) -> np.ndarray:
        return self._I

    @property
    def mass(self) -> np.ndarray:
        return self.u @ self.system.pi

    @property
    def min_u(self) -> np.ndarray:
        return self.u.min(axis=1)

    def state(self, k: int) -> DensityState:
        return DensityState(self.system, self.u[k])

    @property
    def n_times(self) -> int:
        return self.times.shape[0]

    def to_csv(self) -> str:
        """`t,H,I,mass,min_u` rows, one per output time."""
        cols = zip(*(a.tolist() for a in (self.times, self._H, self._I, self.mass, self.min_u)))
        return "t,H,I,mass,min_u\n" + "".join(",".join(map(repr, row)) + "\n" for row in cols)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _output_grid(cfg: IntegratorConfig, output_times) -> np.ndarray:
    """The times a solve emits: ``output_times`` when given, finite and strictly
    increasing from 0 to the horizon; else every dt up to the horizon, which
    must be a whole number of steps; else 129 points."""
    if output_times is not None:
        times = np.asarray(output_times, dtype=float)
        if not np.all(np.isfinite(times)) or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("output times must be finite, strictly increasing and start at 0")
        if abs(times[-1] - cfg.horizon) > 1e-12 * max(1.0, cfg.horizon):
            raise ValueError("last output time must equal the horizon")
        return times
    if cfg.dt is None:
        return np.linspace(0.0, cfg.horizon, 129)
    n_steps = int(round(cfg.horizon / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.horizon) > 1e-9 * cfg.horizon:
        raise ValueError("horizon must be an integer multiple of dt")
    return np.arange(n_steps + 1) * cfg.dt


def solve(
    sys: DiscreteSystem,
    u0: DensityState,
    cfg: IntegratorConfig,
    output_times: np.ndarray | None = None,
) -> Trajectory:
    """Evolve u0 to cfg.horizon, sampling the requested output times.

    Guarantees on the emitted trajectory: mass drift <= 1e-10,
    positivity, entropy non-increasing within 1e-10.  Violations raise
    IntegratorError instead of being repaired.  The trajectory carries
    the eigendecomposition behind it, whose ``states`` gave its output.
    """
    from scipy.linalg.lapack import dsyevd

    if u0.system is not sys and not (
        np.array_equal(u0.system.pi, sys.pi) and np.array_equal(u0.system.eta, sys.eta)
    ):
        raise ValueError("initial state belongs to a different system")
    times = _output_grid(cfg, output_times)

    m = float(u0.u @ sys.pi)
    K = generator_matrix(sys)
    sqrt_pi = np.sqrt(sys.pi)
    inv_sqrt_pi = 1.0 / sqrt_pi
    # S = Pi^{1/2} K Pi^{-1/2} in place, S_ij = eta_ij sqrt(pi_i pi_j) off the diagonal
    K *= sqrt_pi[:, None]
    K *= inv_sqrt_pi[None, :]
    # divide and conquer (dsyevd) rather than eigh's default dsyevr: 2x
    # faster on the 512-point Gibbs system, 1.7x on a 4096-point uniform
    # one, whose circulant eigenvalues come in pairs; V reuses K's memory
    lam, V, info = dsyevd(K.T, overwrite_a=1)
    if info != 0:
        raise IntegratorError(f"symmetric eigensolver dsyevd failed (info {info})")
    spectrum = Spectrum(lam=lam, V=V, sqrt_pi=sqrt_pi, m=m, c=V.T @ (sqrt_pi * (u0.u - m)), u0=u0.u)
    out = spectrum.states(times)
    mass = out @ sys.pi
    drift = float(np.max(np.abs(mass - 1.0)))
    if drift > 1e-10:
        raise IntegratorError(f"mass drifted by {drift:.3e} (tolerance 1e-10)")
    return Trajectory(
        system=sys,
        times=times,
        u=out,
        spectrum=spectrum,
        meta={"config": cfg.to_dict(), "mass_drift": drift},
    )


# ---------------------------------------------------------------------------
# Entropy-dissipation bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EDIReport:
    """Entropy-dissipation identity audit over a trajectory.

    delta_h is the entropy at the quadrature start minus the final
    entropy; int_fisher and int_action integrate, with one time rule, I
    (``_fisher_rows``, from the generator) and the tangent flux's action
    (the pair sum of w_ij (u_i - u_j)(log u_i - log u_j)) at states the
    trajectory's spectrum gives at the rule's nodes; the stored output
    states are not read.  The rule is ``order``-point Gauss-Legendre on
    ``panels`` panels, ``nodes`` states in all: [0, t1] when I(0) is
    finite, then panels that double in length from the first positive
    output time t1 to the horizon.  When the Fisher information is
    infinite at t = 0 (mass next to a hole in the initial state), the
    quadrature starts at t1 and ``infinite_start`` records the convention;
    the flow is strictly positive for t > 0, so every later value is
    finite.  A defect claim is only made when ``valid`` is true: it is
    false when I is infinite at a node (integrals inf) and when t1 is the
    horizon, which leaves nothing to integrate over after an infinite
    start (integrals nan).  ``int_action`` equals ``int_fisher`` by
    algebra; it is kept for the readers of ``edi.json``.
    """

    delta_h: float
    int_fisher: float
    int_action: float
    defect: float
    defect_production: float
    start_index: int
    start_time: float
    infinite_start: bool
    valid: bool
    order: int
    panels: int
    nodes: int
    note: str = ""


def _time_rule(times: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the audit's rule from ``times[start]`` to the horizon.

    ``_GAUSS_ORDER``-point Gauss-Legendre on [0, t1] when ``start`` is 0,
    then on P = ceil(log2(T / t1)) panels from t1 = times[1] to T, each
    twice as long as the one before but the last, which ends at T.
    """
    x, w = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    t1, horizon = float(times[1]), float(times[-1])
    n_doubling = int(np.ceil(np.log2(horizon / t1)))
    edges = np.concatenate(([0.0] if start == 0 else [], t1 * 2.0 ** np.arange(n_doubling), [horizon]))
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def edi_report(traj: Trajectory) -> EDIReport:
    """Audit H(start) - H(end) against the dissipation integrals."""
    if traj.n_times < 2:
        raise ValueError("need at least two output times")
    sys = traj.system
    start = 0 if np.isfinite(traj.fisher[0]) else 1
    infinite_start = start == 1
    nodes, weights = _time_rule(traj.times, start)
    panels = nodes.size // _GAUSS_ORDER
    no_claim = ""
    if nodes.size == 0:
        integral, no_claim = float("nan"), "I infinite at t=0 leaves a single output time to integrate over"
    else:
        u = traj.spectrum.states(nodes)
        I = _fisher_rows(sys, u)
        if not np.all(np.isfinite(I)):
            integral, no_claim = float("inf"), "Fisher information infinite beyond the initial time"
    if no_claim:
        return EDIReport(
            delta_h=float("nan"),
            int_fisher=integral,
            int_action=integral,
            defect=float("nan"),
            defect_production=float("nan"),
            start_index=start,
            start_time=float(traj.times[start]),
            infinite_start=infinite_start,
            valid=False,
            order=_GAUSS_ORDER,
            panels=panels,
            nodes=nodes.size,
            note=no_claim + "; no defect claim",
        )
    # every node state has u > 0.  The pair sum over i < j of w_ij (u_i - u_j)(log u_i - log u_j),
    # w_ij = eta_ij pi_i pi_j, is sum_i d_i u_i log u_i - sum_ij (u_i pi_i) eta_ij (pi_j log u_j)
    # with the degrees d = (eta pi) pi: one product of the states with eta, no N x N temporary
    log_u = np.log(u)
    degrees = (sys.eta @ sys.pi) * sys.pi
    A = (u * log_u) @ degrees - (((u * sys.pi) @ sys.eta) * log_u) @ sys.pi
    int_I = float(weights @ I)
    int_A = float(weights @ A)
    dh = float(traj.entropy[start] - traj.entropy[-1])
    note = "quadrature starts at the first output time (I infinite at t=0)" if infinite_start else ""
    return EDIReport(
        delta_h=dh,
        int_fisher=int_I,
        int_action=int_A,
        defect=abs(dh - 0.5 * int_I - 0.5 * int_A),
        defect_production=abs(dh - int_I),
        start_index=start,
        start_time=float(traj.times[start]),
        infinite_start=infinite_start,
        valid=True,
        order=_GAUSS_ORDER,
        panels=panels,
        nodes=nodes.size,
        note=note,
    )
