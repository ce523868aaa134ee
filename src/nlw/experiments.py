"""Experiment engine: configs in, artifact bundles out.

Each stage turns one config section into objects and files:

    build   system section      -> DiscreteSystem       system.json
    flow    flow section        -> Trajectory           trajectory.csv, edi.json
    metric  metric section      -> MetricResult         metric.json (+ path.csv)
    sample  sampler section     -> SampleResult         histogram.csv, comparison.json
    certify (flow required)     -> LSICertificate       certificate.json
    refine  refinement section  -> RefinementReport     refinement.json (+ per-level CSV)

Every file lands under the output directory and is recorded in
manifest.json together with its sha256 and schema tag; the manifest
also embeds the fully resolved config.  Nothing written contains a
timestamp and all JSON is dumped with sorted keys, so identical configs
produce bit-identical artifact trees.  A stage failure stops the run
and the manifest still lists whatever was completed, plus the failure.
A stage whose input stage was not requested is an error, not a
rebuild: flow and metric need the build, certify and sample the flow.
``run_config`` checks that before it writes anything.

The sampler stage reuses the flow stage's initial state and horizon:
the comparison is only meaningful when the paths and the trajectory
integrate the same initial-value problem.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import ExperimentConfig, _seed
from .discretize import (
    SYSTEM_SCHEMA,
    DiscreteSystem,
    QuadratureError,
    ZeroCellError,
    build_system,
    canonical_json,
    pushforward_measure,
    system_document,
)
from .flow import IntegratorConfig, IntegratorError, Trajectory, edi_report, solve
from .functionals import DensityState
from .kernels import (
    CoverageError,
    GibbsMeasure,
    KernelError,
    kernel_from_dict,
    measure_from_dict,
    potential_from_dict,
)
from .metric import MetricResult, PathProblem, TransportError, nlw_distance
from .sampler import MarginalReport, SamplerConfig, compare_marginals, simulate
from .torus import GridSpec, build_grid, nearest_cell

__all__ = [
    "NumericalFailure",
    "build_system_from_config",
    "density_from_spec",
    "run_flow_stage",
    "LSICertificate",
    "lsi_certify",
    "RefinementReport",
    "refinement_study",
    "RunResult",
    "run_config",
    "MANIFEST_SCHEMA",
]

MANIFEST_SCHEMA = "nlw-manifest/v1"

_log = logging.getLogger(__name__)

# exception types that mean "the math failed", as opposed to bad input
NumericalFailure = (KernelError, CoverageError, QuadratureError, ZeroCellError, IntegratorError, TransportError)


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def build_system_from_config(cfg: ExperimentConfig) -> DiscreteSystem:
    sec = cfg.system
    grid = build_grid(sec.dim, sec.level)
    kernel = kernel_from_dict(sec.kernel)
    measure = measure_from_dict(sec.measure)
    return build_system(kernel, measure, grid)


def density_from_spec(spec: dict, sys: DiscreteSystem, base_grid: GridSpec | None = None) -> DensityState:
    """Realize a density spec on a concrete system.

    ``uniform`` is the pushforward of Lebesgue measure (u_j = (1/N)/pi_j,
    the equilibrium state only when pi itself is uniform).  ``gibbs``
    projects exp(-V)/Z by cell masses.  ``point_mass`` concentrates in
    one cell; when ``base_grid`` is given (refinement studies), the
    index refers to the base grid and is transported to the cell of
    ``sys`` containing that base cell's center.  ``table`` gives cell
    masses directly and is tied to the system's own grid size.
    """
    kind = spec["type"]
    n = sys.n_points
    if kind == "uniform":
        masses = np.full(n, 1.0 / n)
    elif kind == "point_mass":
        index = int(spec["index"])
        if base_grid is not None and base_grid.level != sys.grid.level:
            if index >= base_grid.points.shape[0]:
                raise ValueError(f"point_mass index {index} out of range for the base grid")
            index = nearest_cell(base_grid.points[index], sys.grid)
        if index >= n:
            raise ValueError(f"point_mass index {index} out of range (system has {n} cells)")
        return DensityState.point_mass(sys, index)
    elif kind == "gibbs":
        measure = GibbsMeasure(potential=potential_from_dict(spec["potential"]))
        masses = pushforward_measure(measure, sys.grid)
    elif kind == "table":
        values = np.asarray(spec["values"], dtype=float)
        if values.shape != (n,):
            raise ValueError(f"table density has {values.size} entries for {n} cells")
        if np.any(values < 0) or values.sum() <= 0:
            raise ValueError("table density values must be nonnegative with positive total")
        masses = values / values.sum()
    else:
        raise ValueError(f"unknown density type {kind!r}")
    return DensityState(sys, masses / sys.pi)


def run_flow_stage(cfg: ExperimentConfig, sys: DiscreteSystem):
    """Solve the configured initial-value problem; returns (trajectory, integrator)."""
    icfg = IntegratorConfig.from_dict(dict(cfg.flow.integrator))
    u0 = density_from_spec(cfg.flow.initial, sys)
    times = np.asarray(cfg.flow.output_times, dtype=float) if cfg.flow.output_times else None
    return solve(sys, u0, icfg, times), icfg


# ---------------------------------------------------------------------------
# log-Sobolev certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LSICertificate:
    """Entropy-decay certificate from a uniform kernel lower bound.

    Every system has eta > 0 off the diagonal, so c, the smallest
    off-diagonal entry, is positive, the entropy satisfies H <= I / c
    state-by-state, and by integration H(t) <= H(0) exp(-c t).  Both
    facts are checked on the actual trajectory data; ``certified`` is
    their conjunction.
    ``decay_rate`` is 2 lambda_1, twice the trajectory's spectral gap:
    the asymptotic decay rate of the entropy and an upper bound on the
    modified log-Sobolev constant, so c <= lambda_1 <= decay_rate.
    """

    c: float
    pointwise_ok: bool
    pointwise_slack: float
    envelope_ok: bool
    envelope_slack: float
    certified: bool
    decay_rate: float


def lsi_certify(sys: DiscreteSystem, traj: Trajectory) -> LSICertificate:
    """Certify exponential entropy decay at rate c = min off-diagonal eta.

    c is read from eta's upper-triangle rows as views (eta is symmetric).
    The envelope allows H a relative 1e-8 above H(0) exp(-c t).
    """
    c = float(min(sys.eta[i, i + 1 :].min() for i in range(sys.n_points - 1)))
    decay_rate = 2.0 * traj.spectral_gap
    H, I = traj.entropy, traj.fisher
    finite = np.isfinite(I)
    pointwise_slack = float(np.max(H[finite] - I[finite] / c)) if finite.any() else 0.0
    pointwise_ok = pointwise_slack <= 1e-12 * max(1.0, float(H.max()))
    bound = H[0] * np.exp(-c * traj.times) * (1.0 + 1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0.0, H / np.where(bound > 0.0, bound, 1.0), np.where(H > 0, np.inf, 0.0))
    envelope_slack = float(ratio.max() - 1.0)
    envelope_ok = bool(np.all(H <= bound))
    return LSICertificate(
        c=c,
        pointwise_ok=bool(pointwise_ok),
        pointwise_slack=pointwise_slack,
        envelope_ok=envelope_ok,
        envelope_slack=envelope_slack,
        certified=bool(pointwise_ok and envelope_ok),
        decay_rate=decay_rate,
    )


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementReport:
    """Grid-refinement ladder: does the flow stabilize as cells shrink?

    ``entropy_gaps[k]`` is sup_t |H over level k - H over level k+1|,
    with the coarser entropy curve interpolated (piecewise-linearly)
    onto the finer output grid.  ``density_gaps[k]`` compares cell
    masses after aggregating the finer solution onto the coarser grid;
    it is NaN when the finer level is not a multiple of the coarser.
    ``decay_rates[k]`` is 2 lambda_1 at level k, the asymptotic entropy
    decay rate from the spectral gap of that level's flow.
    """

    levels: tuple
    horizon: float
    entropy_gaps: np.ndarray
    density_gaps: np.ndarray
    decay_rates: np.ndarray
    gaps_decreasing: bool
    entropies: list
    times: list

    def to_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "horizon": self.horizon,
            "entropy_gaps": [float(g) for g in self.entropy_gaps],
            "density_gaps": [float(g) for g in self.density_gaps],
            "decay_rates": [float(r) for r in self.decay_rates],
            "gaps_decreasing": self.gaps_decreasing,
        }


def _aggregate_to_coarse(mu_fine: np.ndarray, fine: GridSpec, coarse: GridSpec) -> np.ndarray:
    """Sum fine-cell masses over the coarse cells containing them."""
    ratio = fine.level // coarse.level
    shape_f = (fine.level,) * fine.dim
    multi = np.unravel_index(np.arange(mu_fine.shape[-1]), shape_f)
    coarse_multi = tuple(m // ratio for m in multi)
    flat = np.ravel_multi_index(coarse_multi, (coarse.level,) * coarse.dim)
    out = np.zeros(mu_fine.shape[:-1] + (coarse.level**coarse.dim,))
    np.add.at(out, (..., flat), mu_fine)
    return out


def refinement_study(cfg: ExperimentConfig) -> RefinementReport:
    """Run the configured flow on the ladder of grids of the refinement section.

    Every level shares the continuum kernel, measure, and initial
    density; only the grid changes.  Failures carry the offending level
    in their message.
    """
    if cfg.flow is None:
        raise ValueError("refinement study needs a flow section")
    levels = cfg.refinement.levels
    if cfg.flow.initial["type"] == "table":
        raise ValueError("table initial data is tied to one grid level; use uniform/gibbs/point_mass")
    sec = cfg.system
    kernel = kernel_from_dict(sec.kernel)
    measure = measure_from_dict(sec.measure)
    icfg = IntegratorConfig.from_dict(dict(cfg.flow.integrator))
    out_times = np.asarray(cfg.flow.output_times, dtype=float) if cfg.flow.output_times else None
    base_grid = build_grid(sec.dim, sec.level)

    trajectories: list[Trajectory] = []
    systems: list[DiscreteSystem] = []
    for level in levels:
        try:
            grid = build_grid(sec.dim, level)
            sys = build_system(kernel, measure, grid)
            u0 = density_from_spec(cfg.flow.initial, sys, base_grid=base_grid)
            trajectories.append(solve(sys, u0, icfg, out_times))
            systems.append(sys)
        except NumericalFailure as exc:
            raise type(exc)(f"level {level}: {exc}") from exc

    entropy_gaps = np.empty(len(levels) - 1)
    density_gaps = np.empty(len(levels) - 1)
    for k in range(len(levels) - 1):
        coarse, fine = trajectories[k], trajectories[k + 1]
        h_interp = np.interp(fine.times, coarse.times, coarse.entropy)
        entropy_gaps[k] = float(np.max(np.abs(h_interp - fine.entropy)))
        if levels[k + 1] % levels[k] == 0 and np.array_equal(coarse.times, fine.times):
            mu_f = fine.u * systems[k + 1].pi[None, :]
            mu_c = coarse.u * systems[k].pi[None, :]
            density_gaps[k] = float(np.max(np.abs(
                _aggregate_to_coarse(mu_f, systems[k + 1].grid, systems[k].grid) - mu_c
            )))
        else:
            density_gaps[k] = float("nan")

    return RefinementReport(
        levels=levels,
        horizon=icfg.horizon,
        entropy_gaps=entropy_gaps,
        density_gaps=density_gaps,
        decay_rates=np.array([2.0 * t.spectral_gap for t in trajectories]),
        gaps_decreasing=bool(np.all(np.diff(entropy_gaps) < 0.0)),
        entropies=[t.entropy for t in trajectories],
        times=[t.times for t in trajectories],
    )


# ---------------------------------------------------------------------------
# artifact bundle
# ---------------------------------------------------------------------------


def _result_document(result, omit: str) -> dict:
    """The fields of a result dataclass but one, as the body of its JSON artifact."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name != omit}


@dataclass
class RunResult:
    """Objects and files produced by one config run."""

    out_dir: str
    artifacts: list
    manifest_path: str
    system: DiscreteSystem | None = None
    trajectory: Trajectory | None = None
    metric: MetricResult | None = None
    comparison: MarginalReport | None = None
    certificate: LSICertificate | None = None
    refinement: RefinementReport | None = None
    failure: dict | None = None

    @property
    def all_checks_passed(self) -> bool:
        """False when any produced pass/fail artifact reports failure, or the
        transport solve did not converge."""
        if self.failure is not None:
            return False
        if self.metric is not None and not self.metric.converged:
            return False
        if self.comparison is not None and not self.comparison.passes:
            return False
        if self.certificate is not None and not self.certificate.certified:
            return False
        if self.refinement is not None and not self.refinement.gaps_decreasing:
            return False
        return True


class _Bundle:
    """Accumulates artifacts and writes the manifest exactly once."""

    def __init__(self, out_dir: str, resolved_config: dict):
        self.out_dir = out_dir
        self.resolved = resolved_config
        self.artifacts: list[dict] = []
        os.makedirs(out_dir, exist_ok=True)

    def add_text(self, name: str, filename: str, schema: str, text: str) -> None:
        path = os.path.join(self.out_dir, filename)
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        self.artifacts.append(
            {
                "name": name,
                "path": filename,
                "schema": schema,
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        _log.info("wrote %s", path)

    def add_json(self, name: str, filename: str, schema: str, doc: dict) -> None:
        self.add_text(name, filename, schema, canonical_json({"schema": schema, **doc}))

    def write_manifest(self, stages: list, failure: dict | None) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "config": self.resolved,
            "stages": stages,
            "artifacts": self.artifacts,
            "failure": failure,
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            fh.write(canonical_json(doc))
        _log.info("wrote %s", path)
        return path


def run_config(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    seed: int | None = None,
    stages: tuple = ("build", "flow", "metric", "sample"),
) -> RunResult:
    """Execute the requested stages of a validated config.

    Stages not backed by a config section are skipped silently, except
    that "flow", "metric", "certify", "sample", and "refine" require what
    they build on ("flow"/"metric" need the build, "certify"/"sample" the
    flow, "refine" a refinement section): a missing one raises ValueError
    before anything is written.
    On a numerical failure the run stops, the partial manifest is
    written, and the failure is recorded on the result.
    """
    if seed is not None:
        _seed(seed, "seed")
    runs_flow = "flow" in stages and cfg.flow is not None
    runs_metric = "metric" in stages and cfg.metric is not None
    runs_sample = "sample" in stages and cfg.sampler is not None
    for missing, message in (
        ("refine" in stages and cfg.refinement is None, "config has no refinement section"),
        (runs_flow and "build" not in stages, "the flow stage needs the build stage"),
        (runs_metric and "build" not in stages, "the metric stage needs the build stage"),
        ("certify" in stages and not runs_flow, "certification needs a flow stage"),
        (runs_sample and not runs_flow, "sampling needs a flow stage for the reference marginal"),
    ):
        if missing:
            raise ValueError(message)
    out = out_dir or cfg.outputs.directory
    fmts = cfg.outputs.formats
    bundle = _Bundle(out, cfg.resolved())
    result = RunResult(out_dir=out, artifacts=bundle.artifacts, manifest_path="")
    ran: list[str] = []
    failure = None
    try:
        if "refine" in stages:
            ran.append("refine")
            report = refinement_study(cfg)
            result.refinement = report
            if "json" in fmts:
                bundle.add_json("refinement", "refinement.json", "nlw-refinement/v1", report.to_dict())
            if "csv" in fmts:
                for level, times, entropy in zip(report.levels, report.times, report.entropies):
                    lines = ["t,H"] + [f"{float(t)!r},{float(h)!r}" for t, h in zip(times, entropy)]
                    bundle.add_text(
                        f"entropy_level_{level}",
                        f"entropy_level_{level}.csv",
                        "nlw-entropy-csv/v1",
                        "\n".join(lines) + "\n",
                    )

        sys = traj = icfg = None
        if "build" in stages:
            ran.append("build")
            sys = build_system_from_config(cfg)
            result.system = sys
            bundle.add_json("system", "system.json", SYSTEM_SCHEMA, system_document(sys))

        if runs_flow:
            ran.append("flow")
            traj, icfg = run_flow_stage(cfg, sys)
            result.trajectory = traj
            if "csv" in fmts:
                bundle.add_text("trajectory", "trajectory.csv", "nlw-trajectory-csv/v1", traj.to_csv())
            if "json" in fmts:
                doc = _result_document(edi_report(traj), omit="start_index")
                bundle.add_json("edi", "edi.json", "nlw-edi/v2", doc)

        if "certify" in stages:
            ran.append("certify")
            cert = lsi_certify(sys, traj)
            result.certificate = cert
            if "json" in fmts:
                bundle.add_json("certificate", "certificate.json", "nlw-certificate/v1", asdict(cert))

        if runs_metric:
            ran.append("metric")
            a = density_from_spec(cfg.metric.endpoints[0], sys)
            b = density_from_spec(cfg.metric.endpoints[1], sys)
            mres = nlw_distance(PathProblem(sys, a, b, n_steps=cfg.metric.n_steps, **cfg.metric.solver))
            result.metric = mres
            if "json" in fmts:
                bundle.add_json("metric", "metric.json", "nlw-metric/v1", _result_document(mres, omit="path"))
            if "csv" in fmts and cfg.metric.save_path and mres.path is not None:
                header = "t," + ",".join(f"u{i}" for i in range(sys.n_points))
                rows = [header]
                for t, row in zip(mres.path.times, mres.path.u):
                    rows.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
                bundle.add_text("metric_path", "path.csv", "nlw-path-csv/v1", "\n".join(rows) + "\n")

        if runs_sample:
            ran.append("sample")
            scfg = SamplerConfig(
                n_paths=cfg.sampler.n_paths,
                horizon=icfg.horizon,
                seed=cfg.sampler.seed if seed is None else seed,
            )
            u0 = density_from_spec(cfg.flow.initial, sys)
            sample = simulate(sys, u0, scfg)
            expected = traj.u[-1] * sys.pi
            comparison = compare_marginals(sample, expected)
            result.comparison = comparison
            ran.append("compare")
            if "csv" in fmts:
                bundle.add_text("histogram", "histogram.csv", "nlw-histogram-csv/v1", sample.to_csv())
            if "json" in fmts:
                doc = {
                    **asdict(comparison),
                    "z_scores": comparison.z_scores.tolist(),
                    "n_paths": sample.n_paths,
                    "n_jumps": sample.n_jumps,
                    "horizon": scfg.horizon,
                    "seed": scfg.seed,
                }
                bundle.add_json("comparison", "comparison.json", "nlw-comparison/v1", doc)
    except NumericalFailure as exc:
        failure = {"stage": ran[-1] if ran else "build", "error": str(exc), "kind": type(exc).__name__}
        result.failure = failure
    result.manifest_path = bundle.write_manifest(ran, failure)
    return result
