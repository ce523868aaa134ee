"""Continuous-time jump process whose law solves the discrete heat flow.

Which jump rates match the flow?  Write the master equation for the
occupation probabilities mu_i(t) with rates q_ij (i -> j) and compare:

    mu_dot_i = sum_j (mu_j q_ji - mu_i q_ij)   must equal   pi_i * sum_j (u_j - u_i) eta_ij pi_j
             = sum_j (mu_j eta_ji pi_i - mu_i eta_ij pi_j),

so q_ij = eta_ij pi_j: the rate of jumping is proportional to the
weight of the *target* cell: the off-diagonal of
``flow.generator_matrix``, which is where ``simulate`` reads them.  The
tempting source-weighted variant q_ij = eta_ij pi_i satisfies detailed
balance for the wrong measure.  It is the target-rate chain of the
system pi'_i ~ 1/pi_i, eta'_ij = eta_ij pi_i pi_j sum_k 1/pi_k, which is
how the tests build it to show that it fails on non-uniform pi.

Paths are simulated by Gillespie's algorithm, all paths of a chunk in
lockstep.  Randomness comes from Philox4x32-10 (Salmon, Moraes, Dror and
Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011), a
counter-based generator: block k of path p is the Philox image of the
counter (k, 0, p mod 2**32, p div 2**32) under the 64-bit seed as key.
Each block gives two 53-bit uniforms.  Block 0 picks the start cell
(first uniform); block k >= 1 gives the k-th holding time (first
uniform, -log1p(-u) / rate) and, if the path is still inside the
horizon, the k-th target (second uniform).  Path p's endpoint and jump
count are therefore a fixed function of (seed, p), whatever the number
of paths or the chunking: results are bit-reproducible and independent
of batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import DiscreteSystem
from .flow import generator_matrix
from .functionals import DensityState

__all__ = [
    "SamplerConfig",
    "SampleResult",
    "simulate",
    "compare_marginals",
    "MarginalReport",
]


@dataclass(frozen=True)
class SamplerConfig:
    """How many paths to run, for how long, and from which seed."""

    n_paths: int = 10_000
    horizon: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64): it is the 64-bit Philox key")
        if not (np.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError("horizon must be nonnegative")


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

    def to_csv(self) -> str:
        cols = zip(self.counts.tolist(), self.frequencies.tolist(), self.stderr.tolist())
        rows = [f"{i},{c},{f!r},{e!r}\n" for i, (c, f, e) in enumerate(cols)]
        return "node_index,count,frequency,stderr\n" + "".join(rows)


_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_MASK32 = 0xFFFFFFFF

# Bound on the bytes of one chunk's (paths, N) temporaries in ``simulate``.
_CHUNK_BYTES = 2**23


def philox4x32(counter, key) -> tuple:
    """Philox4x32-10: the four output words for a four-word counter and a two-word key.

    Counter words are integers or uint64 arrays of values below 2**32
    (broadcast together); key words are ints below 2**32.  Each round's
    32x32 -> 64-bit products are exact in uint64, and their high and low
    halves become the next words.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = key
    for _ in range(10):
        p0 = c0 * _PHILOX_M[0]
        p1 = c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
        k0 = (k0 + _PHILOX_W[0]) & _MASK32
        k1 = (k1 + _PHILOX_W[1]) & _MASK32
    return c0, c1, c2, c3


def _uniforms(seed: int, k: int, paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two 53-bit uniforms in [0, 1) of block k of each path (a uint64 array)."""
    w0, w1, w2, w3 = philox4x32((k, 0, paths & _MASK32, paths >> 32), (seed & _MASK32, seed >> 32))
    first = ((w0 >> 5) << 26 | w1 >> 6) * 2.0**-53
    second = ((w2 >> 5) << 26 | w3 >> 6) * 2.0**-53
    return first, second


def _last_positive(weights: np.ndarray) -> np.ndarray:
    """Per row, the last column with a positive weight."""
    n = weights.shape[1]
    return n - 1 - np.argmax(weights[:, ::-1] > 0.0, axis=1)


def _pick_targets(cum, total, last, rows, u) -> np.ndarray:
    """For each path, the first column j of cum[row] with cum[row, j] > u * total[row].

    ``cum`` holds cumulative rates, ``total`` the total rate of each
    row and ``last`` its last column with a positive rate.  When a
    row's cumulative sum ends below its total (the two are summed in a
    different order), a u near 1 finds no column; the pick is clamped
    to ``last`` so it stays a cell the row can jump to.
    """
    below = cum[rows] <= (u * total[rows])[:, None]
    return np.minimum(np.count_nonzero(below, axis=1), last[rows])


def simulate(sys: DiscreteSystem, rho0: DensityState, config: SamplerConfig) -> SampleResult:
    """Run independent Gillespie paths and histogram their endpoints.

    Every live path of a chunk takes its k-th step at once, from its own
    Philox block (seed, p, k), so the result is a pure function of
    (system, rho0, config) and does not depend on ``_CHUNK_BYTES``.
    """
    n = sys.n_points
    q = generator_matrix(sys)
    total = -np.diagonal(q)
    np.fill_diagonal(q, 0.0)
    cum = np.cumsum(q, axis=1)
    last = _last_positive(q)
    mu0 = rho0.masses[None, :]
    cum0 = np.cumsum(mu0, axis=1)
    last0 = _last_positive(mu0)
    counts = np.zeros(n, dtype=np.int64)
    n_jumps = 0
    chunk = max(1, _CHUNK_BYTES // (8 * n))
    for first in range(0, config.n_paths, chunk):
        paths = np.arange(first, min(first + chunk, config.n_paths), dtype=np.uint64)
        u, _ = _uniforms(config.seed, 0, paths)
        node = _pick_targets(cum0, cum0[:, -1], last0, np.zeros(paths.size, dtype=np.intp), u)
        t = np.zeros(paths.size)
        k = 0
        # every cell has a positive total rate (pi > 0 and eta > 0 off the
        # diagonal), so a path stops only at the horizon
        while paths.size:
            k += 1
            u_hold, u_pick = _uniforms(config.seed, k, paths)
            t += -np.log1p(-u_hold) / total[node]
            jumps = t <= config.horizon
            node[jumps] = _pick_targets(cum, total, last, node[jumps], u_pick[jumps])
            n_jumps += int(np.count_nonzero(jumps))
            counts += np.bincount(node[~jumps], minlength=n)
            paths, node, t = paths[jumps], node[jumps], t[jumps]
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
    from scipy.special import ndtr, ndtri

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
