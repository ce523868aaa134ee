"""Experiment configuration: parsing, strict validation, defaults.

Configs are JSON documents with up to six sections::

    {
      "system":  {"dim": 1, "level": 16, "kernel": {...}, "measure": {...}},
      "flow":    {"initial": {...},
                  "integrator": {"method": "matrix_exponential", "T": 1.0, "dt": 0.01},
                  "output_times": [...]},
      "metric":  {"endpoints": [{...}, {...}], "M": 32, "solver": {"max_iter": 300},
                  "save_path": false},
      "sampler": {"n_paths": 100000, "seed": 0, "rate_convention": "target"},
      "refinement": {"levels": [8, 16, 32]},
      "outputs": {"directory": "out", "formats": ["csv", "json"]}
    }

Unknown keys anywhere in the tree are hard errors reported with their
full field path — a silently ignored typo ("integator") costs far more
debugging time than a strict parser costs up front.  The numerical
settings a config may carry are the integrator's ``method`` (only
``matrix_exponential``: the exact spectral propagator), ``T`` and ``dt``
(which sets only the default output grid) and the transport solver's
``max_iter``, the cap on Newton steps per barrier stage; quadrature and the rest
of the solver run at fixed module constants (``discretize``,
``kernels``, ``metric``), so a config that names one of them is
rejected like any other unknown key.  Validation here is
structural, plus the whitelist that every potential expression must
pass (the one `PotentialSpec` applies); numerical legality (positive
step sizes and the like) is enforced by the objects each section
ultimately constructs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .flow import IntegratorConfig
from .kernels import _checked_expr, _lattice_level

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "validate_config",
]


class ConfigError(ValueError):
    """A config document failed validation; the message carries the field path."""


def _check_keys(doc: dict, allowed: set, path: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return doc[key]


def _int_at_least(value, minimum: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _validate_potential(doc, path) -> dict:
    _check_keys(doc, {"expr", "table"}, path)
    if ("expr" in doc) == ("table" in doc):
        raise ConfigError(f"{path}: give exactly one of 'expr' or 'table'")
    if "expr" in doc:
        if not isinstance(doc["expr"], str):
            raise ConfigError(f"{path}.expr: expected a string")
        try:
            _checked_expr(doc["expr"])
        except ValueError as exc:
            raise ConfigError(f"{path}.expr: {exc}") from None
    if "table" in doc:
        _check_keys(doc["table"], {"dim", "values"}, f"{path}.table")
        _require(doc["table"], "values", f"{path}.table")
    return doc


def _validate_kernel(doc, path) -> dict:
    kind = _require(doc, "type", path)
    if kind == "constant":
        _check_keys(doc, {"type", "c"}, path)
        _require(doc, "c", path)
    elif kind == "fractional":
        _check_keys(doc, {"type", "s", "scale"}, path)
        _require(doc, "s", path)
    elif kind == "weighted":
        _check_keys(doc, {"type", "potential", "base"}, path)
        _validate_potential(_require(doc, "potential", path), f"{path}.potential")
        _validate_kernel(_require(doc, "base", path), f"{path}.base")
    elif kind == "tabulated":
        _check_keys(doc, {"type", "path", "sha256", "bandwidth", "exponent"}, path)
        for key in ("path", "bandwidth", "exponent"):
            _require(doc, key, path)
    else:
        raise ConfigError(f"{path}.type: unknown kernel type {kind!r}")
    return doc


def _validate_measure(doc, path) -> dict:
    kind = _require(doc, "type", path)
    if kind == "uniform":
        _check_keys(doc, {"type"}, path)
    elif kind == "gibbs":
        _check_keys(doc, {"type", "potential"}, path)
        _validate_potential(_require(doc, "potential", path), f"{path}.potential")
    elif kind == "tabulated":
        _check_keys(doc, {"type", "dim", "weights"}, path)
        _require(doc, "weights", path)
    elif kind == "mixed":
        _check_keys(doc, {"type", "base", "epsilon"}, path)
        _validate_measure(_require(doc, "base", path), f"{path}.base")
        _require(doc, "epsilon", path)
    else:
        raise ConfigError(f"{path}.type: unknown measure type {kind!r}")
    return doc


def _tables(doc: dict, path: str):
    """(path, table, values key) of each lattice table in a measure, density or kernel document."""
    if "weights" in doc:  # a tabulated measure
        yield path, doc, "weights"
    if "table" in doc.get("potential", {}):
        yield f"{path}.potential.table", doc["potential"]["table"], "values"
    if isinstance(doc.get("base"), dict):  # mixed measures, weighted kernels
        yield from _tables(doc["base"], f"{path}.base")


def _check_table(path: str, table: dict, key: str, dim: int, levels: tuple) -> None:
    """A table of ``dim`` (default 1) dimensions must match the system's, and the
    level of its lattice must divide each of ``levels``: otherwise a jump of the
    table falls inside a cell, away from its centre, where the cell quadrature
    cannot resolve it."""
    table_dim = _int_at_least(table.get("dim", 1), 1, f"{path}.dim")
    if table_dim != dim:
        raise ConfigError(f"{path}.dim: a {table_dim}-dimensional table on a {dim}-dimensional system")
    if not isinstance(table[key], list) or not table[key]:
        raise ConfigError(f"{path}.{key}: expected a non-empty list")
    try:
        n = _lattice_level(len(table[key]), dim)
    except ValueError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None
    for level in levels:
        if level % n:
            raise ConfigError(
                f"{path}: its level-{n} lattice does not divide grid level {level}, "
                "so the table would jump inside a cell"
            )


# configs spell the horizon "T"
_INTEGRATOR_KEYS = {f.name for f in dataclasses.fields(IntegratorConfig)} - {"horizon"} | {"T"}


def _validate_density(doc, path) -> dict:
    kind = _require(doc, "type", path)
    if kind == "uniform":
        _check_keys(doc, {"type"}, path)
    elif kind == "point_mass":
        _check_keys(doc, {"type", "index"}, path)
        _int_at_least(_require(doc, "index", path), 0, f"{path}.index")
    elif kind == "gibbs":
        _check_keys(doc, {"type", "potential"}, path)
        _validate_potential(_require(doc, "potential", path), f"{path}.potential")
    elif kind == "table":
        _check_keys(doc, {"type", "values"}, path)
        values = _require(doc, "values", path)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.values: expected a non-empty list")
    else:
        raise ConfigError(f"{path}.type: unknown density type {kind!r}")
    return doc


@dataclass(frozen=True)
class SystemSection:
    dim: int
    level: int
    kernel: dict
    measure: dict = field(default_factory=lambda: {"type": "uniform"})


@dataclass(frozen=True)
class FlowSection:
    initial: dict
    integrator: dict
    output_times: tuple | None = None


@dataclass(frozen=True)
class MetricSection:
    endpoints: tuple
    n_steps: int = 32
    solver: dict = field(default_factory=dict)
    save_path: bool = False


@dataclass(frozen=True)
class SamplerSection:
    n_paths: int = 10_000
    seed: int = 0
    rate_convention: str = "target"


@dataclass(frozen=True)
class RefinementSection:
    levels: tuple


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description with defaults resolved."""

    system: SystemSection
    outputs: OutputSection
    flow: FlowSection | None = None
    metric: MetricSection | None = None
    sampler: SamplerSection | None = None
    refinement: RefinementSection | None = None

    def resolved(self) -> dict:
        """The full config as a plain JSON-ready tree (for the manifest)."""

        def strip(obj):
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                return {k: strip(v) for k, v in dataclasses.asdict(obj).items()}
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [strip(v) for v in obj]
            return obj

        doc = {"system": strip(self.system), "outputs": strip(self.outputs)}
        for name in ("flow", "metric", "sampler", "refinement"):
            section = getattr(self, name)
            if section is not None:
                doc[name] = strip(section)
        return doc


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed document and resolve defaults.

    Raises ConfigError with a field path on the first structural problem.
    """
    _check_keys(doc, {"system", "flow", "metric", "sampler", "refinement", "outputs"}, "config")

    sys_doc = _require(doc, "system", "config")
    _check_keys(sys_doc, {"dim", "level", "kernel", "measure"}, "system")
    dim = _int_at_least(_require(sys_doc, "dim", "system"), 1, "system.dim")
    if dim > 3:
        raise ConfigError("system.dim: only dimensions 1..3 are supported")
    level = _int_at_least(_require(sys_doc, "level", "system"), 2, "system.level")
    kernel = _validate_kernel(_require(sys_doc, "kernel", "system"), "system.kernel")
    measure = _validate_measure(sys_doc.get("measure", {"type": "uniform"}), "system.measure")
    system = SystemSection(dim=dim, level=level, kernel=kernel, measure=measure)

    flow = None
    if "flow" in doc:
        flow_doc = doc["flow"]
        _check_keys(flow_doc, {"initial", "integrator", "output_times"}, "flow")
        initial = _validate_density(_require(flow_doc, "initial", "flow"), "flow.initial")
        integ = _require(flow_doc, "integrator", "flow")
        _check_keys(integ, _INTEGRATOR_KEYS, "flow.integrator")
        times = flow_doc.get("output_times")
        if times is not None:
            if not isinstance(times, list) or len(times) < 2:
                raise ConfigError("flow.output_times: expected a list of at least two times")
            times = tuple(float(t) for t in times)
        flow = FlowSection(initial=initial, integrator=integ, output_times=times)

    metric = None
    if "metric" in doc:
        m_doc = doc["metric"]
        _check_keys(m_doc, {"endpoints", "M", "solver", "save_path"}, "metric")
        endpoints = _require(m_doc, "endpoints", "metric")
        if not isinstance(endpoints, list) or len(endpoints) != 2:
            raise ConfigError("metric.endpoints: expected a list of exactly two densities")
        endpoints = tuple(
            _validate_density(e, f"metric.endpoints[{i}]") for i, e in enumerate(endpoints)
        )
        n_steps = _int_at_least(m_doc.get("M", 32), 2, "metric.M")
        solver = m_doc.get("solver", {})
        _check_keys(solver, {"max_iter"}, "metric.solver")
        if "max_iter" in solver:
            _int_at_least(solver["max_iter"], 1, "metric.solver.max_iter")
        save_path = m_doc.get("save_path", False)
        if not isinstance(save_path, bool):
            raise ConfigError("metric.save_path: expected true or false")
        metric = MetricSection(endpoints=endpoints, n_steps=n_steps, solver=solver, save_path=save_path)

    sampler = None
    if "sampler" in doc:
        s_doc = doc["sampler"]
        _check_keys(s_doc, {"n_paths", "seed", "rate_convention"}, "sampler")
        sampler = SamplerSection(
            n_paths=_int_at_least(s_doc.get("n_paths", 10_000), 1, "sampler.n_paths"),
            seed=_int_at_least(s_doc.get("seed", 0), 0, "sampler.seed"),
            rate_convention=s_doc.get("rate_convention", "target"),
        )
        if sampler.seed >= 2**64:
            raise ConfigError(f"sampler.seed: expected an integer below 2**64, got {sampler.seed!r}")
        if sampler.rate_convention not in ("target", "source"):
            raise ConfigError("sampler.rate_convention: must be 'target' or 'source'")

    refinement = None
    if "refinement" in doc:
        r_doc = doc["refinement"]
        _check_keys(r_doc, {"levels"}, "refinement")
        levels = _require(r_doc, "levels", "refinement")
        if not isinstance(levels, list) or len(levels) < 2:
            raise ConfigError("refinement.levels: expected a list of at least two levels")
        levels = tuple(_int_at_least(lv, 2, f"refinement.levels[{i}]") for i, lv in enumerate(levels))
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("refinement.levels: levels must be strictly increasing")
        refinement = RefinementSection(levels=levels)

    out_doc = doc.get("outputs", {})
    _check_keys(out_doc, {"directory", "formats"}, "outputs")
    formats = out_doc.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError("outputs.formats: expected a non-empty list")
    bad = [f for f in formats if f not in ("csv", "json")]
    if bad:
        raise ConfigError(f"outputs.formats: unsupported format(s) {bad}")
    outputs = OutputSection(directory=out_doc.get("directory", "out"), formats=tuple(formats))

    # kernel tables need only the dimension: a jump inside a cell pair can still converge
    levels = (level,) + (refinement.levels if refinement is not None else ())
    specs = [(kernel, "system.kernel", ()), (measure, "system.measure", levels)]
    if flow is not None:
        specs.append((flow.initial, "flow.initial", levels))
    if metric is not None:
        specs += [(e, f"metric.endpoints[{i}]", levels) for i, e in enumerate(metric.endpoints)]
    for spec, path, grid_levels in specs:
        for table in _tables(spec, path):
            _check_table(*table, dim, grid_levels)

    if flow is None and "sampler" in doc:
        raise ConfigError("sampler: requires a flow section (the horizon and reference marginal come from it)")

    return ExperimentConfig(
        system=system,
        outputs=outputs,
        flow=flow,
        metric=metric,
        sampler=sampler,
        refinement=refinement,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return validate_config(doc)
