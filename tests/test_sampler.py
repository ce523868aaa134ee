"""Tests for the endpoint sampler and its marginal comparison."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import nlw
import nlw.sampler
from conftest import simulate_source_rates, source_rate_system
from nlw.discretize import DiscreteSystem, build_system
from nlw.flow import IntegratorConfig, solve
from nlw.functionals import DensityState
from nlw.kernels import FractionalKernel, GibbsMeasure, PotentialSpec
from nlw.sampler import (
    MarginalReport,
    SampleResult,
    SamplerConfig,
    _pick_targets,
    compare_marginals,
    philox4x32,
    simulate,
)
from nlw.torus import build_grid


def make_system(n, pi=None, eta=None):
    grid = build_grid(1, n)
    if pi is None:
        pi = np.full(n, 1.0 / n)
    if eta is None:
        eta = np.ones((n, n))
        np.fill_diagonal(eta, 0.0)
    return DiscreteSystem.from_arrays(grid, pi, eta)


def skewed_two_state():
    pi = np.array([0.8, 0.2])
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    return make_system(2, pi=pi, eta=eta)


def solver_marginal(sys, u0, horizon):
    traj = solve(sys, u0, IntegratorConfig(horizon=horizon), np.array([0.0, horizon]))
    return traj.u[-1] * sys.pi


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_counts_exactly():
    sys = skewed_two_state()
    u0 = DensityState.uniform(sys)
    cfg = SamplerConfig(n_paths=4000, horizon=1.0, seed=42)
    a = simulate(sys, u0, cfg)
    b = simulate(sys, u0, cfg)
    assert np.array_equal(a.counts, b.counts)
    assert a.n_jumps == b.n_jumps


def test_different_seeds_differ():
    sys = skewed_two_state()
    u0 = DensityState.uniform(sys)
    a = simulate(sys, u0, SamplerConfig(n_paths=4000, horizon=1.0, seed=1))
    b = simulate(sys, u0, SamplerConfig(n_paths=4000, horizon=1.0, seed=2))
    assert not np.array_equal(a.counts, b.counts)


# ---------------------------------------------------------------------------
# the counter-based stream and the lockstep loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counter, key, expected",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ],
    ids=["zeros", "ones", "pi_digits"],
)
def test_philox4x32_10_known_answers(counter, key, expected):
    # Random123's known-answer vectors for philox4x32 with 10 rounds
    assert tuple(int(w) for w in philox4x32(counter, key)) == expected


def oracle_block(seed, p, k):
    """The two uniforms of Philox block (seed, p, k), for one path."""
    w = [int(x) for x in philox4x32((k, 0, p & 0xFFFFFFFF, p >> 32), (seed & 0xFFFFFFFF, seed >> 32))]
    return ((w[0] >> 5) * 2**26 + (w[1] >> 6)) * 2.0**-53, ((w[2] >> 5) * 2**26 + (w[3] >> 6)) * 2.0**-53


def oracle_pick(weights, total, u):
    """First index whose running sum of weights exceeds u * total, else the last positive weight."""
    x, running = u * total, 0.0
    for j, w in enumerate(weights):
        running += w
        if running > x:
            return j
    return max(j for j, w in enumerate(weights) if w > 0.0)


def oracle_paths(sys, rho0, cfg):
    """Endpoint and jump count of each path, one path and one jump at a time."""
    q = sys.eta * sys.pi[None, :]
    np.fill_diagonal(q, 0.0)
    total = q.sum(axis=1)
    mu0 = rho0.masses
    out = []
    for p in range(cfg.n_paths):
        node = oracle_pick(mu0, np.cumsum(mu0)[-1], oracle_block(cfg.seed, p, 0)[0])
        t, jumps = 0.0, 0
        while total[node] > 0.0:
            u_hold, u_pick = oracle_block(cfg.seed, p, jumps + 1)
            t += -np.log1p(-np.float64(u_hold)) / total[node]
            if not t <= cfg.horizon:
                break
            node = oracle_pick(q[node], total[node], u_pick)
            jumps += 1
        out.append((node, jumps))
    return out


def gibbs_system():
    measure = GibbsMeasure(potential=PotentialSpec(expr="1.5*cos(2*pi*x)"))
    return build_system(FractionalKernel(s=1.0), measure, build_grid(1, 8))


def gibbs_start():
    sys = gibbs_system()
    return sys, DensityState.uniform(sys)


def slow_cell_system():
    # cell 2's kernel is 1e-3 of the others': a path that starts there
    # almost surely stays, and other paths almost never reach it
    rng = np.random.default_rng(4)
    mat = rng.uniform(0.5, 2.0, size=(6, 6))
    eta = mat + mat.T
    np.fill_diagonal(eta, 0.0)
    eta[2, :] *= 1e-3
    eta[:, 2] *= 1e-3
    return make_system(6, pi=np.array([0.3, 0.2, 0.2, 0.15, 0.1, 0.05]), eta=eta)


def slow_cell_source_rate_start():
    # the source-rate chain of the slow-cell system, started from that system's pi
    slow = slow_cell_system()
    sys = source_rate_system(slow)
    return sys, DensityState.from_masses(sys, slow.pi)


@pytest.mark.parametrize(
    "start, seed",
    [(gibbs_start, 11), (gibbs_start, 2**40 + 3), (slow_cell_source_rate_start, 6)],
    ids=["gibbs", "gibbs_high_key", "slow_cell"],
)
def test_lockstep_paths_equal_the_scalar_oracle(start, seed):
    sys, u0 = start()
    cfg = SamplerConfig(n_paths=40, horizon=1.0, seed=seed)
    expected = oracle_paths(sys, u0, cfg)
    assert sum(j for _, j in expected) > 0
    counts, n_jumps = np.zeros(sys.n_points, dtype=np.int64), 0
    for p, (node, jumps) in enumerate(expected):
        # path p is the only difference between the first p and the first p + 1 paths
        res = simulate(sys, u0, SamplerConfig(n_paths=p + 1, horizon=1.0, seed=seed))
        counts[node] += 1
        n_jumps += jumps
        assert np.array_equal(res.counts, counts), p
        assert res.n_jumps == n_jumps, p
    if start is slow_cell_source_rate_start:
        # at this seed the slow cell 2 holds only paths that start there and never jump
        assert counts[2] > 0 and all(jumps == 0 for node, jumps in expected if node == 2)


def test_chunking_does_not_change_the_result(monkeypatch):
    sys = gibbs_system()
    u0 = DensityState.point_mass(sys, 3)
    cfg = SamplerConfig(n_paths=300, horizon=1.0, seed=21)
    whole = simulate(sys, u0, cfg)
    monkeypatch.setattr(nlw.sampler, "_CHUNK_BYTES", 8 * sys.n_points * 7)  # 7 paths per chunk
    chunked = simulate(sys, u0, cfg)
    assert np.array_equal(whole.counts, chunked.counts)
    assert whole.n_jumps == chunked.n_jumps > 0


def test_pick_stays_in_range_when_the_cumulative_sum_ends_below_the_total():
    # find a rate row whose sequential cumsum ends below its pairwise sum, the
    # last entry being the row's own zero diagonal
    rng = np.random.default_rng(0)
    while True:
        row = rng.uniform(0.0, 3.0, size=40)
        row[-1] = 0.0
        cum, total = np.cumsum(row)[None, :], row.sum(keepdims=True)
        if cum[0, -1] < total[0]:
            break
    u = np.array([np.nextafter(1.0, 0.0)])
    assert np.searchsorted(cum[0] / total[0], u[0], side="right") == row.size  # the unclamped pick
    (j,) = _pick_targets(cum, total, np.array([row.size - 2]), np.array([0]), u)
    assert 0 <= j < row.size and row[j] > 0.0


# ---------------------------------------------------------------------------
# agreement with the flow
# ---------------------------------------------------------------------------


def test_stationary_start_stays_stationary():
    sys = make_system(3)
    u0 = DensityState.uniform(sys)
    res = simulate(sys, u0, SamplerConfig(n_paths=20_000, horizon=1.0, seed=5))
    rep = compare_marginals(res, sys.pi)
    assert rep.passes
    assert rep.tv_distance < 0.02


def test_marginals_match_solver_two_state():
    sys = skewed_two_state()
    u0 = DensityState(sys, np.array([0.25, 4.0]))  # masses (0.2, 0.8)
    expected = solver_marginal(sys, u0, 1.0)
    res = simulate(sys, u0, SamplerConfig(n_paths=20_000, horizon=1.0, seed=9))
    rep = compare_marginals(res, expected)
    assert rep.passes
    assert rep.max_abs_z <= rep.threshold


def test_marginals_match_solver_three_state():
    rng = np.random.default_rng(17)
    mat = rng.uniform(0.2, 1.5, size=(3, 3))
    eta = 0.5 * (mat + mat.T)
    np.fill_diagonal(eta, 0.0)
    sys = make_system(3, eta=eta)
    u0 = DensityState.point_mass(sys, 1)
    expected = solver_marginal(sys, u0, 0.7)
    res = simulate(sys, u0, SamplerConfig(n_paths=20_000, horizon=0.7, seed=13))
    rep = compare_marginals(res, expected)
    assert rep.passes


def test_source_rate_convention_detectably_fails():
    # with pi = (0.8, 0.2) the source-weighted rates drive the chain to the
    # wrong stationary law, and 20k paths are ample power to see it
    sys = skewed_two_state()
    u0 = DensityState(sys, np.array([0.25, 4.0]))
    expected = solver_marginal(sys, u0, 1.0)
    res = simulate_source_rates(sys, u0, SamplerConfig(n_paths=20_000, horizon=1.0, seed=9))
    rep = compare_marginals(res, expected)
    assert not rep.passes
    assert rep.max_abs_z > 10 * rep.threshold


# ---------------------------------------------------------------------------
# degenerate dynamics
# ---------------------------------------------------------------------------


def test_zero_horizon_returns_initial_law():
    sys = skewed_two_state()
    u0 = DensityState.point_mass(sys, 1)
    res = simulate(sys, u0, SamplerConfig(n_paths=300, horizon=0.0, seed=3))
    assert res.n_jumps == 0
    assert res.counts[1] == 300


def test_jumps_do_happen_on_connected_systems():
    sys = make_system(4)
    res = simulate(sys, DensityState.uniform(sys), SamplerConfig(n_paths=1000, horizon=2.0, seed=0))
    assert res.n_jumps > 0


# ---------------------------------------------------------------------------
# histogram output
# ---------------------------------------------------------------------------


def test_histogram_csv_format():
    sys = make_system(3)
    res = simulate(sys, DensityState.uniform(sys), SamplerConfig(n_paths=1000, horizon=0.5, seed=8))
    text = res.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "node_index,count,frequency,stderr"
    assert len(lines) == 4
    parsed = np.genfromtxt(text.splitlines(), delimiter=",", names=True)
    assert np.array_equal(parsed["node_index"], np.arange(3))
    assert np.array_equal(parsed["count"], res.counts)
    assert np.allclose(parsed["frequency"], res.frequencies, rtol=0, atol=0)


def test_sample_result_accessors():
    cfg = SamplerConfig(n_paths=10, horizon=1.0, seed=0)
    res = SampleResult(counts=np.array([6, 4]), config=cfg, n_jumps=7)
    assert res.n_paths == 10
    assert res.frequencies == pytest.approx([0.6, 0.4])
    assert res.stderr == pytest.approx(np.sqrt(np.array([0.24, 0.24]) / 10))


# ---------------------------------------------------------------------------
# marginal comparison statistics
# ---------------------------------------------------------------------------


def test_threshold_is_bonferroni_widened_three_sigma():
    cfg = SamplerConfig(n_paths=100, horizon=1.0, seed=0)
    res = SampleResult(counts=np.array([50, 50]), config=cfg, n_jumps=0)
    rep = compare_marginals(res, np.array([0.5, 0.5]))
    alpha3 = 2 * (1 - norm.cdf(3.0))
    assert rep.threshold == pytest.approx(norm.ppf(1 - alpha3 / 4), rel=1e-12)
    # more nodes -> wider threshold
    res50 = SampleResult(counts=np.full(50, 2), config=cfg, n_jumps=0)
    rep50 = compare_marginals(res50, np.full(50, 0.02))
    assert rep50.threshold > rep.threshold


@pytest.mark.parametrize("n_nodes", [2, 8, 64, 512])
def test_threshold_equals_normal_quantile_exactly(n_nodes):
    cfg = SamplerConfig(n_paths=100, horizon=1.0, seed=0)
    res = SampleResult(counts=np.full(n_nodes, 2), config=cfg, n_jumps=0)
    rep = compare_marginals(res, np.full(n_nodes, 1.0 / n_nodes))
    alpha3 = 2.0 * (1.0 - norm.cdf(3.0))
    assert rep.threshold == float(norm.ppf(1.0 - alpha3 / (2.0 * n_nodes)))


# in a fresh interpreter: the scipy modules loaded after import, after validating
# each shipped config, and after building constant_torus
_COLD_START = """
import json, pathlib, sys

import nlw

configs, out_dir = map(pathlib.Path, sys.argv[1:3])
scipy_modules = lambda: [m for m in sys.modules if m.split(".")[0] == "scipy"]
loaded = {"import": scipy_modules()}
for path in sorted(configs.glob("*.json")):
    nlw.validate_config(json.loads(path.read_text()))
    loaded[f"validate {path.name}"] = scipy_modules()
nlw.run_config(nlw.load_config(configs / "constant_torus.json"), out_dir=str(out_dir), stages=("build",))
loaded["build"] = scipy_modules()
print(json.dumps({"scipy.stats": "scipy.stats" in sys.modules, "loaded": loaded}))
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs about a third of the package import time, and no scipy
    # subpackage loads before a call needs it: import, validation and a build need none
    root = Path(nlw.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", _COLD_START, str(root / "configs"), str(tmp_path / "out")]
    report = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert report["scipy.stats"] is False
    assert len(report["loaded"]) == 2 + len(list((root / "configs").glob("*.json")))
    assert report["loaded"] == {step: [] for step in report["loaded"]}
    assert (tmp_path / "out" / "system.json").exists()


def test_degenerate_expected_probabilities():
    cfg = SamplerConfig(n_paths=100, horizon=1.0, seed=0)
    exact = SampleResult(counts=np.array([100, 0]), config=cfg, n_jumps=0)
    rep = compare_marginals(exact, np.array([1.0, 0.0]))
    assert rep.passes and rep.max_abs_z == 0.0
    off = SampleResult(counts=np.array([99, 1]), config=cfg, n_jumps=0)
    rep = compare_marginals(off, np.array([1.0, 0.0]))
    assert not rep.passes and rep.max_abs_z == np.inf


def test_compare_marginals_validation():
    cfg = SamplerConfig(n_paths=10, horizon=1.0, seed=0)
    res = SampleResult(counts=np.array([5, 5]), config=cfg, n_jumps=0)
    with pytest.raises(ValueError, match="shape"):
        compare_marginals(res, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="distribution"):
        compare_marginals(res, np.array([0.9, 0.3]))


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="one path"):
        SamplerConfig(n_paths=0)
    with pytest.raises(ValueError, match="horizon"):
        SamplerConfig(horizon=-1.0)
    with pytest.raises(ValueError, match="seed"):
        SamplerConfig(seed=2**64)
    assert SamplerConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_marginal_report_is_frozen():
    cfg = SamplerConfig(n_paths=100, horizon=1.0, seed=0)
    res = SampleResult(counts=np.array([50, 50]), config=cfg, n_jumps=0)
    rep = compare_marginals(res, np.array([0.5, 0.5]))
    assert isinstance(rep, MarginalReport)
    with pytest.raises(ValueError):
        rep.z_scores[0] = 9.0
