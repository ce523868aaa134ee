"""Tests for the experiment engine: stage running, certification, refinement."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.linalg

from nlw.config import load_config, validate_config
from nlw.discretize import (
    DiscreteSystem,
    ZeroCellError,
    build_system,
    canonical_json,
    load_system,
    pushforward_measure,
)
from nlw.experiments import (
    build_system_from_config,
    density_from_spec,
    lsi_certify,
    RunResult,
    refinement_study,
    run_config,
    run_flow_stage,
)
from conftest import simulate_source_rates, spectrum_of
from nlw.flow import IntegratorConfig, Trajectory, generator_matrix, solve
from nlw.functionals import DensityState, relative_entropy
from nlw.kernels import (
    ConstantKernel,
    GibbsMeasure,
    UniformMeasure,
    kernel_from_dict,
    measure_from_dict,
    potential_from_dict,
)
from nlw.metric import MetricResult
from nlw.sampler import SamplerConfig, simulate
from nlw.torus import build_grid

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

def make_system(n=4, eta_value=1.0, pi=None, eta=None):
    grid = build_grid(1, n)
    if pi is None:
        pi = np.full(n, 1.0 / n)
    if eta is None:
        eta = np.full((n, n), eta_value)
        np.fill_diagonal(eta, 0.0)
    return DiscreteSystem.from_arrays(grid, pi, eta)


def base_doc(**extra):
    doc = {
        "system": {"dim": 1, "level": 8, "kernel": {"type": "constant", "c": 1.0}},
        "outputs": {"directory": "unused", "formats": ["csv", "json"]},
    }
    doc.update(extra)
    return doc


def flow_doc(initial=None, T=1.0, dt=0.05):
    return {
        "initial": initial or {"type": "uniform"},
        "integrator": {"method": "matrix_exponential", "T": T, "dt": dt},
    }


# ---------------------------------------------------------------------------
# density specs
# ---------------------------------------------------------------------------


def test_uniform_density_is_lebesgue_pushforward():
    # equal cell masses, not equal densities, when pi is nonuniform
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    sys = make_system(4, pi=pi)
    state = density_from_spec({"type": "uniform"}, sys)
    assert np.allclose(state.masses, 0.25)
    assert not np.allclose(state.u, state.u[0])


def test_point_mass_density():
    sys = make_system(8)
    state = density_from_spec({"type": "point_mass", "index": 5}, sys)
    assert state.masses[5] == pytest.approx(1.0)
    assert np.count_nonzero(state.u) == 1


def test_point_mass_remap_across_levels():
    # base cell 3 of 8 sits at x = 3/8; on the 3x finer grid that is
    # exactly lattice point 9/24
    base = build_grid(1, 8)
    sys = make_system(24)
    state = density_from_spec({"type": "point_mass", "index": 3}, sys, base_grid=base)
    assert state.masses[9] == pytest.approx(1.0)


def test_point_mass_same_level_passes_through():
    sys = make_system(8)
    state = density_from_spec({"type": "point_mass", "index": 3}, sys, base_grid=sys.grid)
    assert state.masses[3] == pytest.approx(1.0)


def test_point_mass_out_of_range():
    sys = make_system(4)
    with pytest.raises(ValueError, match="out of range"):
        density_from_spec({"type": "point_mass", "index": 4}, sys)


def test_gibbs_density_matches_direct_pushforward():
    sys = make_system(16)
    spec = {"type": "gibbs", "potential": {"expr": "cos(2*pi*x)"}}
    state = density_from_spec(spec, sys)
    measure = GibbsMeasure(potential=potential_from_dict(spec["potential"]))
    masses = pushforward_measure(measure, sys.grid)
    assert np.allclose(state.masses, masses, atol=1e-14)
    assert state.masses.sum() == pytest.approx(1.0)


def test_table_density_normalizes():
    sys = make_system(4)
    state = density_from_spec({"type": "table", "values": [2.0, 2.0, 4.0, 8.0]}, sys)
    assert np.allclose(state.masses, [0.125, 0.125, 0.25, 0.5])


def test_table_density_wrong_length():
    sys = make_system(4)
    with pytest.raises(ValueError, match="entries for 4 cells"):
        density_from_spec({"type": "table", "values": [1.0, 1.0]}, sys)


def test_table_density_negative_rejected():
    sys = make_system(2)
    with pytest.raises(ValueError, match="nonnegative"):
        density_from_spec({"type": "table", "values": [1.0, -0.5]}, sys)


def test_unknown_density_type():
    sys = make_system(2)
    with pytest.raises(ValueError, match="unknown density type"):
        density_from_spec({"type": "blob"}, sys)


def test_build_system_from_config_matches_direct_build():
    cfg = validate_config(base_doc())
    sys = build_system_from_config(cfg)
    direct = build_system(ConstantKernel(c=1.0), UniformMeasure(), build_grid(1, 8))
    assert np.allclose(sys.eta, direct.eta)
    assert np.allclose(sys.pi, direct.pi)


# ---------------------------------------------------------------------------
# log-Sobolev certification
# ---------------------------------------------------------------------------


def certify_setup(n=8, eta_value=1.0, index=0, T=2.0):
    sys = make_system(n, eta_value=eta_value)
    u0 = DensityState.point_mass(sys, index)
    traj = solve(sys, u0, IntegratorConfig(method="matrix_exponential", horizon=T, dt=0.05))
    return sys, traj


def test_certificate_holds_on_complete_graph():
    sys, traj = certify_setup()
    cert = lsi_certify(sys, traj)
    assert cert.certified
    assert cert.c == pytest.approx(1.0)
    assert cert.pointwise_ok and cert.envelope_ok
    assert cert.envelope_slack <= 0.0
    assert cert.decay_rate > cert.c


def test_certificate_c_is_min_offdiagonal():
    eta = np.full((4, 4), 2.0)
    np.fill_diagonal(eta, 0.0)
    eta[1, 3] = eta[3, 1] = 0.25
    sys = make_system(4, eta=eta)
    u0 = DensityState.from_masses(sys, np.array([0.7, 0.1, 0.1, 0.1]))
    traj = solve(sys, u0, IntegratorConfig(method="matrix_exponential", horizon=1.0, dt=0.1))
    cert = lsi_certify(sys, traj)
    assert cert.c == pytest.approx(0.25)
    assert cert.certified


def test_certificate_rejects_inflated_rate():
    # certifying against a system whose kernel floor exceeds the true
    # decay rate must fail the envelope check
    sys, traj = certify_setup(n=2, eta_value=1.0, T=2.0)
    inflated = make_system(2, eta_value=5.0)
    cert = lsi_certify(inflated, traj)
    assert not cert.envelope_ok
    assert not cert.certified
    assert cert.envelope_slack > 0.0


def test_certificate_tolerates_infinite_initial_fisher():
    # point-mass start has I(0) = inf; the pointwise check must skip it
    sys, traj = certify_setup(index=2)
    assert not np.isfinite(traj.fisher[0])
    cert = lsi_certify(sys, traj)
    assert cert.certified


@pytest.mark.parametrize("name", ["constant_torus", "fractional_gibbs", "two_state"])
def test_certificate_decay_rate_is_twice_the_gap_and_bounds_c(name):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    sys = build_system_from_config(cfg)
    cert = lsi_certify(sys, run_flow_stage(cfg, sys)[0])
    sqrt_pi = np.sqrt(sys.pi)
    lam = scipy.linalg.eigvalsh(sqrt_pi[:, None] * generator_matrix(sys) / sqrt_pi[None, :])
    expected = {"constant_torus": 1.9375, "two_state": 1.5, "fractional_gibbs": 25.3659}[name]
    assert cert.decay_rate == pytest.approx(-2.0 * lam[-2], rel=1e-9)
    assert cert.decay_rate == pytest.approx(expected, rel=1e-5)
    # eta >= c entrywise makes the Dirichlet form at least c times the
    # variance; two_state (one pair) is the equality case
    assert cert.c <= 0.5 * cert.decay_rate * (1.0 + 1e-12)


def test_certificate_reads_eta_without_copying_it():
    # c is the minimum over eta's upper-triangle rows; a masked copy of the
    # off-diagonal took the peak to 1.12 x the bytes of eta here
    n = 1024
    eta = np.full((n, n), 2.0)
    np.fill_diagonal(eta, 0.0)
    eta[5, 700] = eta[700, 5] = 0.5
    sys = make_system(n, eta=eta)
    traj = Trajectory(system=sys, times=np.array([0.0, 1.0]), u=np.ones((2, n)), spectrum=spectrum_of(sys))
    tracemalloc.start()
    try:
        cert = lsi_certify(sys, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.c == 0.5 and cert.certified
    assert peak < 0.1 * sys.eta.nbytes, f"peak {peak / sys.eta.nbytes:.2f} x eta"


def test_certificate_serializes():
    sys, traj = certify_setup()
    doc = json.loads(canonical_json(asdict(lsi_certify(sys, traj))))
    assert doc["certified"] is True
    assert doc["decay_rate"] > 0


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gibbs_refinement_report():
    doc = base_doc(flow=flow_doc(dt=0.05), refinement={"levels": [8, 16, 32]})
    doc["system"]["measure"] = {"type": "gibbs", "potential": {"expr": "cos(2*pi*x)"}}
    doc["flow"]["initial"] = {"type": "point_mass", "index": 2}
    return refinement_study(validate_config(doc))


def test_refinement_gaps_decrease(gibbs_refinement_report):
    rep = gibbs_refinement_report
    assert rep.levels == (8, 16, 32)
    assert rep.entropy_gaps.shape == (2,)
    assert rep.gaps_decreasing
    assert rep.entropy_gaps[1] < rep.entropy_gaps[0]


def test_refinement_density_gaps_via_aggregation(gibbs_refinement_report):
    rep = gibbs_refinement_report
    assert np.all(np.isfinite(rep.density_gaps))
    assert rep.density_gaps[1] < rep.density_gaps[0]


def test_refinement_decay_rates_stabilize(gibbs_refinement_report):
    rates = gibbs_refinement_report.decay_rates
    assert np.all(np.isfinite(rates))
    assert abs(rates[2] - rates[1]) < abs(rates[1] - rates[0])


def test_refinement_decay_rates_follow_the_gap_below_the_roundoff_floor():
    # at s = 1.5 the entropy of the longer flows reaches its roundoff floor
    # (3e-14 at level 256) before the second half of the horizon
    cfg = load_config(CONFIG_DIR / "fractional_gibbs.json")
    doc = cfg.resolved()
    doc["system"]["kernel"]["s"] = 1.5
    doc["refinement"]["levels"] = [64, 128, 256, 512]
    rates = refinement_study(validate_config(doc)).decay_rates
    assert rates == pytest.approx([68.45, 70.61, 72.14, 73.21], rel=1e-3)
    steps = np.diff(rates)
    assert np.all(steps > 0.0) and np.all(np.diff(steps) < 0.0)


def test_refinement_non_divisible_levels_get_nan_density_gap():
    doc = base_doc(flow=flow_doc(), refinement={"levels": [8, 12]})
    rep = refinement_study(validate_config(doc))
    assert np.isnan(rep.density_gaps[0])
    assert np.isfinite(rep.entropy_gaps[0])


def test_refinement_rejects_table_initial():
    # validate_config rejects this document; a config built in code meets the study's own check
    cfg = validate_config(base_doc(flow=flow_doc(), refinement={"levels": [8, 16]}))
    table = replace(cfg.flow, initial={"type": "table", "values": [1.0] * 8})
    with pytest.raises(ValueError, match="tied to one grid"):
        refinement_study(replace(cfg, flow=table))


def test_refinement_requires_flow():
    # validate_config rejects this document; a config built in code meets the study's own check
    cfg = validate_config(base_doc(flow=flow_doc(), refinement={"levels": [4, 8]}))
    with pytest.raises(ValueError, match="flow section"):
        refinement_study(replace(cfg, flow=None))


def test_refinement_point_mass_tracks_base_cell():
    # the moving initial condition must follow the base cell's center,
    # not reuse the raw index: entropy at t=0 is log N on every level
    doc = base_doc(flow=flow_doc(initial={"type": "point_mass", "index": 5}), refinement={"levels": [8, 16]})
    rep = refinement_study(validate_config(doc))
    assert rep.entropies[0][0] == pytest.approx(np.log(8))
    assert rep.entropies[1][0] == pytest.approx(np.log(16))


# ---------------------------------------------------------------------------
# run_config and the manifest
# ---------------------------------------------------------------------------


def full_doc(out_dir):
    return {
        "system": {"dim": 1, "level": 2, "kernel": {"type": "constant", "c": 1.0}},
        "flow": {
            "initial": {"type": "table", "values": [0.75, 0.25]},
            "integrator": {"method": "matrix_exponential", "T": 1.0, "dt": 0.01},
        },
        "metric": {
            "endpoints": [
                {"type": "table", "values": [0.8, 0.2]},
                {"type": "table", "values": [0.3, 0.7]},
            ],
            "M": 16,
            "save_path": True,
        },
        "sampler": {"n_paths": 2000, "seed": 11},
        "outputs": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }


def test_run_config_produces_complete_manifest(tmp_path):
    cfg = validate_config(full_doc(tmp_path / "run"))
    result = run_config(cfg)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["schema"] == "nlw-manifest/v1"
    assert manifest["failure"] is None
    assert manifest["config"] == cfg.resolved()
    assert manifest["stages"] == ["build", "flow", "metric", "sample", "compare"]
    names = {a["name"] for a in manifest["artifacts"]}
    assert names == {
        "system",
        "trajectory",
        "edi",
        "metric",
        "metric_path",
        "histogram",
        "comparison",
    }
    for art in manifest["artifacts"]:
        blob = (tmp_path / "run" / art["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == art["sha256"]
        assert art["schema"].endswith("/v2" if art["name"] in ("system", "edi") else "/v1")
    assert np.array_equal(load_system(tmp_path / "run" / "system.json").eta, result.system.eta)
    edi = json.loads((tmp_path / "run" / "edi.json").read_text())
    assert edi["order"] == 8 and edi["nodes"] == 8 * edi["panels"] > 0
    assert result.all_checks_passed


def test_system_json_stores_eta_once_in_base64(tmp_path):
    # the base64 of the 8 n(n - 1)/2 bytes of eta's upper triangle, plus 16 KiB for pi and the metadata
    n = 128
    doc = base_doc()
    doc["system"].update(
        level=n,
        kernel={"type": "fractional", "s": 1.0},
        measure={"type": "gibbs", "potential": {"expr": "cos(2*pi*x)"}},
    )
    doc["outputs"]["directory"] = str(tmp_path)
    run_config(validate_config(doc), stages=("build",))
    assert (tmp_path / "system.json").stat().st_size <= 4 * ((4 * n * (n - 1) + 2) // 3) + 16 * 1024


def test_run_config_is_bit_reproducible(tmp_path):
    doc_a = full_doc(tmp_path / "a")
    doc_b = full_doc(tmp_path / "b")
    run_config(validate_config(doc_a))
    run_config(validate_config(doc_b))
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        if name == "manifest.json":
            # embedded config contains the differing output directory
            a = json.loads((tmp_path / "a" / name).read_text())
            b = json.loads((tmp_path / "b" / name).read_text())
            assert a["artifacts"] == b["artifacts"]
        else:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# every call site of a deferred scipy import: the flow (dsyevd), the metric
# (Cholesky), the sampler comparison (ndtr, ndtri) and both quadratures; the
# same code runs in a fresh interpreter and in this one
_EVERY_DEFERRED_IMPORT = """
DEFERRED = ("scipy.integrate", "scipy.linalg", "scipy.special")


def every_deferred_import(config_path, out_dir):
    import hashlib
    import sys

    import nlw

    cfg = nlw.load_config(config_path)
    result = nlw.run_config(cfg, out_dir=out_dir, stages=("build", "flow", "certify", "metric", "sample"))
    # before the quadratures below: scipy.integrate itself imports scipy.sparse
    sparse = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
    a, b = (nlw.density_from_spec(spec, result.system) for spec in cfg.metric.endpoints)
    with open(result.manifest_path, "rb") as fh:
        manifest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "manifest": manifest,
        "artifacts": {art["path"]: art["sha256"] for art in result.artifacts},
        "theta_constant": repr(nlw.theta_connectedness_constant()),
        "oracle": repr(nlw.two_point_distance_oracle(result.system, a, b)),
        "w": repr(result.metric.w),
        "threshold": repr(result.comparison.threshold),
        "loaded": sorted(m for m in DEFERRED if m in sys.modules),
        "sparse": sparse,
    }
"""


def test_a_fresh_interpreter_runs_every_deferred_import(tmp_path):
    config = str(CONFIG_DIR / "two_state.json")
    code = _EVERY_DEFERRED_IMPORT + "import json, sys\nprint(json.dumps(every_deferred_import(*sys.argv[1:])))\n"
    root = CONFIG_DIR.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, config, str(tmp_path / "fresh")]
    fresh = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    namespace = {}
    exec(_EVERY_DEFERRED_IMPORT, namespace)
    here = namespace["every_deferred_import"](config, str(tmp_path / "here"))
    assert fresh["loaded"] == list(namespace["DEFERRED"])
    assert fresh.pop("sparse") == []  # the full run loads no scipy.sparse module
    here.pop("sparse")  # other tests may have loaded it into this interpreter
    assert set(fresh["artifacts"]) == {
        "system.json", "trajectory.csv", "edi.json", "certificate.json",
        "metric.json", "path.csv", "histogram.csv", "comparison.json",
    }
    assert fresh == here


def test_comparison_json_records_the_jump_count(tmp_path):
    cfg = validate_config(full_doc(tmp_path / "n"))
    result = run_config(cfg, stages=("build", "flow", "sample"))
    doc = json.loads((tmp_path / "n" / "comparison.json").read_text())
    u0 = density_from_spec(cfg.flow.initial, result.system)
    sample = simulate(result.system, u0, SamplerConfig(n_paths=2000, horizon=1.0, seed=11))
    assert doc["n_jumps"] == sample.n_jumps > 0


def test_run_config_tabulated_kernel_end_to_end(tmp_path):
    # the source is the system.json of an earlier run, and reads back bit-equal
    doc = base_doc()
    doc["system"]["kernel"] = {"type": "fractional", "s": 0.5}
    doc["outputs"]["directory"] = str(tmp_path / "source")
    built = run_config(validate_config(doc), stages=("build",)).system
    source = tmp_path / "source" / "system.json"
    assert np.array_equal(load_system(source).eta, built.eta)
    kernel = {"type": "tabulated", "path": str(source), "bandwidth": 0.3, "exponent": 3.0}
    hashes = []
    for name in ("a", "b"):
        doc = base_doc(flow=flow_doc({"type": "point_mass", "index": 2}, T=0.5, dt=0.1))
        doc["system"]["kernel"] = dict(kernel)
        doc["outputs"]["directory"] = str(tmp_path / name)
        result = run_config(validate_config(doc), stages=("build", "flow", "certify"))
        assert result.failure is None
        assert result.system.provenance["kernel"]["sha256"] == hashlib.sha256(source.read_bytes()).hexdigest()
        back = load_system(tmp_path / name / "system.json")
        assert np.array_equal(back.pi, result.system.pi) and np.array_equal(back.eta, result.system.eta)
        assert back.provenance == result.system.provenance and back.delta == result.system.delta
        hashes.append([(a["name"], a["sha256"]) for a in result.artifacts])
    assert [name for name, _ in hashes[0]] == ["system", "trajectory", "edi", "certificate"]
    assert hashes[0] == hashes[1]


def test_run_config_stage_subset(tmp_path):
    cfg = validate_config(full_doc(tmp_path / "sub"))
    result = run_config(cfg, stages=("build", "flow"))
    manifest = json.loads(json.dumps({"stages": ["build", "flow"]}))  # expected shape
    got = json.loads((tmp_path / "sub" / "manifest.json").read_text())
    assert got["stages"] == manifest["stages"]
    assert result.metric is None and result.comparison is None
    assert {a["name"] for a in got["artifacts"]} == {"system", "trajectory", "edi"}


def test_run_config_format_filter(tmp_path):
    doc = full_doc(tmp_path / "csvonly")
    doc["outputs"]["formats"] = ["csv"]
    run_config(validate_config(doc))
    names = sorted(p.name for p in (tmp_path / "csvonly").iterdir())
    assert "trajectory.csv" in names and "histogram.csv" in names
    assert "edi.json" not in names and "comparison.json" not in names
    assert "manifest.json" in names  # the index is always written


def test_run_config_out_dir_override(tmp_path):
    cfg = validate_config(full_doc(tmp_path / "ignored"))
    result = run_config(cfg, out_dir=str(tmp_path / "actual"), stages=("build",))
    assert (tmp_path / "actual" / "system.json").exists()
    assert not (tmp_path / "ignored").exists()
    assert result.out_dir == str(tmp_path / "actual")


def test_run_config_seed_override_changes_histogram(tmp_path):
    doc = full_doc(tmp_path / "s1")
    cfg = validate_config(doc)
    r1 = run_config(cfg, stages=("build", "flow", "sample"))
    doc2 = full_doc(tmp_path / "s2")
    r2 = run_config(validate_config(doc2), seed=999, stages=("build", "flow", "sample"))
    h1 = (tmp_path / "s1" / "histogram.csv").read_text()
    h2 = (tmp_path / "s2" / "histogram.csv").read_text()
    assert h1 != h2
    assert r1.comparison.passes and r2.comparison.passes


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_config_rejects_a_seed_outside_the_64_bit_key_before_writing(tmp_path, seed):
    cfg = validate_config(full_doc(tmp_path / "out"))
    with pytest.raises(ValueError, match=r"^seed: expected an integer"):
        run_config(cfg, seed=seed, stages=("build", "flow", "sample"))
    assert not (tmp_path / "out").exists()


def test_run_config_partial_manifest_on_failure(tmp_path):
    doc = base_doc(flow=flow_doc())
    doc["system"]["measure"] = {
        "type": "gibbs",
        "potential": {"expr": "800*(x>0.5)"},  # kills half the cells
    }
    doc["outputs"]["directory"] = str(tmp_path / "fail")
    cfg = validate_config(doc)
    result = run_config(cfg)
    assert result.failure is not None
    assert result.failure["kind"] == "ZeroCellError"
    assert not result.all_checks_passed
    manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "build"
    assert manifest["artifacts"] == []


def test_run_config_sampler_failure_reported_not_raised(tmp_path, monkeypatch):
    # the sampler runs the source-weighted rates, which miss the flow's marginal on pi = (0.8, 0.2)
    monkeypatch.setattr("nlw.experiments.simulate", simulate_source_rates)
    doc = full_doc(tmp_path / "conv")
    doc["system"]["measure"] = {"type": "tabulated", "dim": 1, "weights": [0.8, 0.2]}
    doc["sampler"] = {"n_paths": 30000, "seed": 3}
    del doc["metric"]
    result = run_config(validate_config(doc))
    assert result.failure is None
    assert result.comparison is not None and not result.comparison.passes
    assert not result.all_checks_passed
    doc_json = json.loads((tmp_path / "conv" / "comparison.json").read_text())
    assert doc_json["passes"] is False
    assert "rate_convention" not in doc_json


def test_an_unconverged_transport_solve_fails_the_checks():
    def result(converged, w):
        metric = MetricResult(
            w=w,
            n_steps=8,
            iterations=10,
            stage_iterations=[1] * 10,
            converged=converged,
            constraint_residual=0.0,
            objective_history=[],
        )
        return RunResult(out_dir="unused", artifacts=[], manifest_path="unused", metric=metric)

    assert not result(False, 35.3).all_checks_passed
    assert result(True, 0.511).all_checks_passed


def test_run_config_refine_stage(tmp_path):
    doc = base_doc(flow=flow_doc(), refinement={"levels": [4, 8]})
    doc["outputs"]["directory"] = str(tmp_path / "ref")
    result = run_config(validate_config(doc), stages=("refine",))
    assert result.refinement is not None
    got = json.loads((tmp_path / "ref" / "refinement.json").read_text())
    assert got["levels"] == [4, 8]
    assert (tmp_path / "ref" / "entropy_level_4.csv").exists()
    assert (tmp_path / "ref" / "entropy_level_8.csv").exists()


@pytest.mark.parametrize("stage", ["flow", "metric"])
def test_run_config_flow_and_metric_need_the_build(tmp_path, stage):
    cfg = validate_config(full_doc(tmp_path / "nb"))
    with pytest.raises(ValueError, match=f"^the {stage} stage needs the build stage$"):
        run_config(cfg, stages=(stage,))
    assert not (tmp_path / "nb" / "manifest.json").exists()


def test_run_config_certify_needs_flow(tmp_path):
    doc = base_doc()
    doc["outputs"]["directory"] = str(tmp_path / "nf")
    with pytest.raises(ValueError, match="needs a flow"):
        run_config(validate_config(doc), stages=("build", "flow", "certify"))
    assert not (tmp_path / "nf").exists()


@pytest.mark.parametrize(
    "stages, message",
    [
        (("build", "certify"), "certification needs a flow stage"),
        (("build", "sample"), "sampling needs a flow stage for the reference marginal"),
        (("build", "flow", "refine"), "config has no refinement section"),
    ],
)
def test_run_config_checks_every_prerequisite_before_writing(tmp_path, stages, message):
    cfg = validate_config(full_doc(tmp_path / "out"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_config(cfg, stages=stages)
    assert not (tmp_path / "out").exists()


def test_trajectory_csv_parses_back(tmp_path):
    cfg = validate_config(full_doc(tmp_path / "csv"))
    result = run_config(cfg, stages=("build", "flow"))
    data = np.genfromtxt(tmp_path / "csv" / "trajectory.csv", delimiter=",", names=True)
    assert data["t"][0] == 0.0
    assert data["t"][-1] == pytest.approx(1.0)
    h0 = relative_entropy(result.trajectory.state(0))
    assert data["H"][0] == pytest.approx(h0, rel=1e-15)


def test_table_potentials_from_a_config_build_and_round_trip_their_provenance(tmp_path):
    measure = {"type": "gibbs", "potential": {"table": {"dim": 1, "values": [0.0, 0.5, 1.0, 0.5]}}}
    kernel = {
        "type": "weighted",
        "potential": {"table": {"dim": 1, "values": [0.0, 0.5]}},
        "base": {"type": "constant", "c": 1.0},
    }
    doc = base_doc()
    doc["system"].update(level=8, kernel=kernel, measure=measure)
    doc["outputs"]["directory"] = str(tmp_path / "tab")
    result = run_config(validate_config(doc), stages=("build",))
    assert result.all_checks_passed
    provenance = json.loads((tmp_path / "tab" / "system.json").read_text())["provenance"]
    assert provenance["measure"] == measure
    assert provenance["kernel"] == kernel
    assert measure_from_dict(provenance["measure"]).to_dict() == measure
    assert kernel_from_dict(provenance["kernel"]).to_dict() == kernel
    # the table's jumps sit at the centres of the odd cells: an even cell sees
    # one value of e^-V, an odd cell the mean of two neighbouring ones
    w = np.exp(-np.array([0.0, 0.5, 1.0, 0.5]))
    cells = np.ravel(np.column_stack([w, 0.5 * (w + np.roll(w, -1))]))
    assert np.allclose(result.system.pi, cells / cells.sum(), rtol=1e-12, atol=0.0)
