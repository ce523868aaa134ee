"""Continuous-time jump process whose law solves the discrete heat flow.

Which jump rates match the flow?  Write the master equation for the
occupation probabilities mu_i(t) with rates q_ij (i -> j) and compare:

    mu_dot_i = sum_j (mu_j q_ji - mu_i q_ij)   must equal   pi_i * sum_j (u_j - u_i) eta_ij pi_j
             = sum_j (mu_j eta_ji pi_i - mu_i eta_ij pi_j),

so q_ij = eta_ij pi_j: the rate of jumping is proportional to the
weight of the *target* cell.  The tempting source-weighted variant
q_ij = eta_ij pi_i satisfies detailed balance for the wrong measure and
is kept available behind ``rate_convention="source"`` purely so tests
can demonstrate that it fails marginal comparisons on non-uniform pi.

Paths are simulated by Gillespie's algorithm.  Randomness comes from a
counter-based Philox generator keyed by the seed and jumped once per
path index, so path p's draws are a fixed function of (seed, p): results
are bit-reproducible and independent of batching.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .discretize import DiscreteSystem
from .functionals import DensityState

__all__ = [
    "SamplerConfig",
    "SampleResult",
    "simulate",
    "compare_marginals",
    "MarginalReport",
]

_CONVENTIONS = ("target", "source")


@dataclass(frozen=True)
class SamplerConfig:
    """How many paths to run, for how long, and with which rates."""

    n_paths: int = 10_000
    horizon: float = 1.0
    seed: int = 0
    rate_convention: str = "target"

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if not (np.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError("horizon must be nonnegative")
        if self.rate_convention not in _CONVENTIONS:
            raise ValueError(f"rate_convention must be one of {_CONVENTIONS}")


@dataclass(frozen=True)
class SampleResult:
    """Endpoint histogram of the simulated paths."""

    counts: np.ndarray
    config: SamplerConfig
    n_jumps: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_paths(self) -> int:
        return int(self.counts.sum())

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_paths

    @property
    def stderr(self) -> np.ndarray:
        """Binomial standard error of each frequency."""
        f = self.frequencies
        return np.sqrt(f * (1.0 - f) / self.n_paths)

    def to_csv(self, path=None) -> str | None:
        buf = io.StringIO()
        buf.write("node_index,count,frequency,stderr\n")
        freq, err = self.frequencies, self.stderr
        for i in range(self.counts.shape[0]):
            buf.write(f"{i},{int(self.counts[i])},{float(freq[i])!r},{float(err[i])!r}\n")
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return None


def _jump_rates(sys: DiscreteSystem, convention: str) -> np.ndarray:
    if convention == "target":
        q = sys.eta * sys.pi[None, :]
    else:
        q = sys.eta * sys.pi[:, None]
    np.fill_diagonal(q, 0.0)
    return q


def simulate(sys: DiscreteSystem, rho0: DensityState, config: SamplerConfig) -> SampleResult:
    """Run independent Gillespie paths and histogram their endpoints.

    The initial node of path p and all its jump decisions are drawn
    from a dedicated Philox stream (seed jumped p times), so the result
    is a pure function of (system, rho0, config).
    """
    n = sys.n_points
    q = _jump_rates(sys, config.rate_convention)
    total = q.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cum = np.cumsum(q, axis=1)
        cum /= np.where(total > 0.0, total, 1.0)[:, None]
    mu0 = rho0.masses
    cum0 = np.cumsum(mu0)
    cum0 /= cum0[-1]
    counts = np.zeros(n, dtype=np.int64)
    n_jumps = 0
    base = np.random.Philox(key=config.seed)
    horizon = config.horizon
    for p in range(config.n_paths):
        rng = np.random.Generator(base.jumped(p))
        node = int(np.searchsorted(cum0, rng.random(), side="right"))
        t = 0.0
        while True:
            rate = total[node]
            if rate <= 0.0:
                break
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            node = int(np.searchsorted(cum[node], rng.random(), side="right"))
            n_jumps += 1
        counts[node] += 1
    return SampleResult(counts=counts, config=config, n_jumps=n_jumps)


@dataclass(frozen=True)
class MarginalReport:
    """Z-scores of empirical endpoint frequencies against a reference law."""

    z_scores: np.ndarray
    max_abs_z: float
    threshold: float
    tv_distance: float
    passes: bool

    def __post_init__(self):
        z = np.asarray(self.z_scores, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "z_scores", z)


def compare_marginals(result: SampleResult, expected: np.ndarray) -> MarginalReport:
    """Test the endpoint histogram against expected probabilities.

    Each node gets a binomial z-score under the null that the expected
    law is exact.  The acceptance threshold is the two-sided normal
    quantile for a familywise "3 sigma" level split across the nodes
    (Bonferroni), so the test neither tightens nor loosens as the grid
    grows.  Nodes with expected probability 0 or 1 carry no binomial
    noise: any deviation there fails outright.
    """
    expected = np.asarray(expected, dtype=float)
    if expected.shape != result.counts.shape:
        raise ValueError("expected probabilities have the wrong shape")
    if abs(float(expected.sum()) - 1.0) > 1e-8 or np.any(expected < 0):
        raise ValueError("expected probabilities must form a distribution")
    n = result.n_paths
    emp = result.frequencies
    z = np.zeros_like(expected)
    degenerate = (expected <= 0.0) | (expected >= 1.0)
    ok = ~degenerate
    sigma = np.sqrt(expected[ok] * (1.0 - expected[ok]) / n)
    z[ok] = (emp[ok] - expected[ok]) / sigma
    z[degenerate] = np.where(emp[degenerate] == expected[degenerate], 0.0, np.inf)
    alpha3 = 2.0 * (1.0 - ndtr(3.0))
    threshold = float(ndtri(1.0 - alpha3 / (2.0 * expected.size)))
    max_abs = float(np.max(np.abs(z)))
    return MarginalReport(
        z_scores=z,
        max_abs_z=max_abs,
        threshold=threshold,
        tv_distance=0.5 * float(np.sum(np.abs(emp - expected))),
        passes=bool(max_abs <= threshold),
    )
