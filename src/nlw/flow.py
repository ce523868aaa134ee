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

(one value per pair i < j of ``DiscreteSystem.pairs``, the flux form of
``functionals.action``) solves the nonlocal continuity equation exactly
and its kinetic action equals the Fisher information identically — the
discrete form of the entropy-dissipation identity dH/dt = -I = -A.  The
audit computes the two sides by independent routes: I of every output
state from the generator, -sum_i pi_i (K u)_i log u_i, in one product of
the states with ``sys.eta`` (Maas, J. Funct. Anal. 2011); A per state
from the pair list and the logarithmic mean.

One propagator, exact at every output time: every cell carries mass and
K is self-adjoint in L^2(pi), so S = Pi^{1/2} K Pi^{-1/2} is symmetric,
and one eigendecomposition S = V Lambda V^T gives
u(t) = Pi^{-1/2} V exp(t Lambda) V^T Pi^{1/2} u0 for all t at once (the
eigenvector method of Moler & Van Loan, SIAM Rev. 2003).  The same
spectrum gives the spectral gap lambda_1, minus the second-largest
eigenvalue (the largest is the constant mode's 0): near equilibrium the
relative entropy decays like exp(-2 lambda_1 t), and 2 lambda_1 also
bounds the modified log-Sobolev constant from above (Bobkov & Tetali,
J. Theor. Probab. 2006).  An integrator is set by its method
(``matrix_exponential``, the only one), its horizon (``T`` in configs)
and its step ``dt``, which only sets the default output grid; nothing
else.  Ill-conditioned results surface as IntegratorError rather than
being silently renormalized.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .discretize import DiscreteSystem
from .functionals import DensityState, _flux_cost, log_mean, relative_entropy

__all__ = [
    "IntegratorError",
    "IntegratorConfig",
    "Trajectory",
    "generator_matrix",
    "tangent_flux",
    "solve",
    "edi_report",
    "EDIReport",
]

_METHODS = ("matrix_exponential",)


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

    One value per pair i < j of ``DiscreteSystem.pairs``,
    v = (u_i - u_j) * w, the form ``functionals.action`` takes.
    """
    pairs = rho.system.pairs
    u = rho.u
    v = np.empty(pairs.w.shape)
    for b in pairs.blocks():
        v[b] = (u[pairs.i[b]] - u[pairs.j[b]]) * pairs.w[b]
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
# Trajectory container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Flow output: densities u(t_k) with per-time diagnostics.

    Diagnostics: H (relative entropy), I (Fisher information from the
    generator, `_fisher_rows`; inf at t = 0 for states with holes), mass,
    min_u.  ``spectral_gap`` is lambda_1, minus the generator's
    second-largest eigenvalue, so H decays at the asymptotic rate
    2 lambda_1.  Construction re-validates every state and the entropy
    monotonicity invariant (non-increasing up to 1e-10).
    """

    system: DiscreteSystem
    times: np.ndarray
    u: np.ndarray
    spectral_gap: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if times.ndim != 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing and start at 0")
        if u.shape != (times.shape[0], self.system.n_points):
            raise ValueError("density array shape does not match times/system")
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

    def to_csv(self, path=None) -> str | None:
        """Write `t,H,I,mass,min_u` rows; returns the text when path is None."""
        buf = io.StringIO()
        buf.write("t,H,I,mass,min_u\n")
        mass = self.mass
        mn = self.min_u
        for k in range(self.n_times):
            row = (self.times[k], self._H[k], self._I[k], mass[k], mn[k])
            buf.write(",".join(repr(float(x)) for x in row) + "\n")
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return None


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
    the spectral gap of the eigendecomposition behind it.
    """
    from scipy.linalg.lapack import dsyevd

    if u0.system is not sys and not (
        np.array_equal(u0.system.pi, sys.pi) and np.array_equal(u0.system.eta, sys.eta)
    ):
        raise ValueError("initial state belongs to a different system")
    times = _output_grid(cfg, output_times)

    # K 1 = 0, so the mean m of u0 stays put and only u0 - m runs through
    # the eigenbasis: mass then holds to roundoff however far the computed
    # zero eigenvalue sits from 0
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
    # lam ascends and is <= 0 up to roundoff; its top is the constant mode's 0
    spectral_gap = -float(lam[-2])
    c = V.T @ (sqrt_pi * (u0.u - m))
    out = np.empty((times.shape[0], sys.n_points))
    out[0] = u0.u
    out[1:] = m + ((np.exp(np.outer(times[1:], lam)) * c) @ V.T) * inv_sqrt_pi
    worst = float(out.min())
    if worst < -1e-13:
        raise IntegratorError(
            f"the spectral propagator produced density {worst:.3e} below the positivity floor -1.0e-13"
        )
    out[1:] = np.where(out[1:] < 0.0, 0.0, out[1:])

    mass = out @ sys.pi
    drift = float(np.max(np.abs(mass - 1.0)))
    if drift > 1e-10:
        raise IntegratorError(f"mass drifted by {drift:.3e} (tolerance 1e-10)")
    return Trajectory(
        system=sys,
        times=times,
        u=out,
        spectral_gap=spectral_gap,
        meta={"config": cfg.to_dict(), "mass_drift": drift},
    )


# ---------------------------------------------------------------------------
# Entropy-dissipation bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EDIReport:
    """Entropy-dissipation identity audit over a trajectory.

    delta_h compares the entropy at the quadrature start to the final
    entropy; int_fisher and int_action are trapezoid integrals over the
    output grid of I (``Trajectory.fisher``, from the generator) and of
    the tangent-flux action (from the pair list and the logarithmic
    mean).  When the Fisher information is infinite at t = 0 (mass next
    to a hole in the initial state), the quadrature starts at the first
    positive output time and ``infinite_start`` records the convention;
    the flow is strictly positive for t > 0, so every later value is
    finite.  A defect claim is only made when ``valid`` is true: it is
    false when a later I is infinite (integrals inf) and when fewer than
    two output times remain to integrate over (integrals nan).
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
    note: str = ""


def edi_report(traj: Trajectory) -> EDIReport:
    """Audit H(start) - H(end) against the dissipation integrals."""
    if traj.n_times < 2:
        raise ValueError("need at least two output times")
    I = traj.fisher
    start = 0
    infinite_start = False
    if not np.isfinite(I[0]):
        start = 1
        infinite_start = True
    if not np.all(np.isfinite(I[start:])):
        integral, no_claim = float("inf"), "Fisher information infinite beyond the initial time"
    elif traj.n_times - start < 2:
        integral, no_claim = float("nan"), "I infinite at t=0 leaves a single output time to integrate over"
    else:
        no_claim = ""
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
            note=no_claim + "; no defect claim",
        )
    # action(state, tangent_flux(state)) for every state, in the same operations
    # but without a DensityState or a flux array per state
    pairs = traj.system.pairs
    blocks = pairs.blocks()
    A = np.zeros(traj.n_times - start)
    for k, u in enumerate(traj.u[start:]):
        for b in blocks:
            ui, uj = u[pairs.i[b]], u[pairs.j[b]]
            A[k] += _flux_cost((ui - uj) * pairs.w[b], log_mean(ui, uj), pairs.w[b])
    t = traj.times[start:]
    H = traj.entropy[start:]
    int_I = float(np.trapezoid(I[start:], t))
    int_A = float(np.trapezoid(A, t))
    dh = float(H[0] - H[-1])
    note = "quadrature starts at the first output time (I infinite at t=0)" if infinite_start else ""
    return EDIReport(
        delta_h=dh,
        int_fisher=int_I,
        int_action=int_A,
        defect=abs(dh - 0.5 * int_I - 0.5 * int_A),
        defect_production=abs(dh - int_I),
        start_index=start,
        start_time=float(t[0]),
        infinite_start=infinite_start,
        valid=True,
        note=note,
    )

