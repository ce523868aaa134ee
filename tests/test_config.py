import json
import re

import pytest

from nlw.config import ConfigError, load_config, validate_config
from nlw.flow import IntegratorConfig


def minimal_doc(**extra):
    doc = {
        "system": {"dim": 1, "level": 8, "kernel": {"type": "constant", "c": 1.0}},
        "outputs": {"directory": "out", "formats": ["json"]},
    }
    doc.update(extra)
    return doc


def flow_doc():
    return {
        "initial": {"type": "uniform"},
        "integrator": {"method": "matrix_exponential", "T": 1.0},
    }


def test_minimal_config_resolves_defaults():
    cfg = validate_config(minimal_doc())
    assert cfg.system.measure == {"type": "uniform"}
    assert set(cfg.resolved()["system"]) == {"dim", "level", "kernel", "measure"}
    assert cfg.flow is None and cfg.metric is None and cfg.sampler is None
    assert cfg.outputs.formats == ("json",)


def test_unknown_top_level_key_reports_path():
    with pytest.raises(ConfigError, match="config: unknown key"):
        validate_config(minimal_doc(extra_section={}))


def test_unknown_nested_key_reports_path():
    doc = minimal_doc()
    doc["system"]["kernel"]["sharpness"] = 2
    with pytest.raises(ConfigError, match="system.kernel"):
        validate_config(doc)


def test_typo_in_integrator_is_an_error():
    doc = minimal_doc(flow=flow_doc())
    doc["flow"]["integrator"]["dte"] = 0.1
    with pytest.raises(ConfigError, match="flow.integrator"):
        validate_config(doc)


def metric_doc(**solver):
    return {"endpoints": [{"type": "uniform"}, {"type": "uniform"}], "solver": solver}


# settings that are module constants now: (section path, key, the document that sets it)
REMOVED_SETTINGS = [
    ("system", "quadrature", lambda doc: doc["system"].update(quadrature={"pair_tol": 1e-6})),
    *[
        ("metric.solver", key, lambda doc, key=key, value=value: doc.update(metric=metric_doc(**{key: value})))
        for key, value in [
            ("barrier_init", 1e-2),
            ("barrier_min", 1e-10),
            ("barrier_factor", 0.1),
            ("eps_polish", 1e-12),
            ("obj_tol", 1e-9),
            ("action_floor", 1e-24),
            ("memory", 10),
            ("armijo", 1e-4),
            ("max_backtracks", 60),
            ("mix", 1e-2),
        ]
    ],
    # "horizon" next to "T" used to validate, and the run went to T without a word
    *[
        ("flow.integrator", key, lambda doc, key=key, value=value: doc["flow"]["integrator"].update({key: value}))
        for key, value in [("rtol", 1e-8), ("atol", 1e-11), ("horizon", 2.0)]
    ],
]


@pytest.mark.parametrize(
    "path, key, setter", REMOVED_SETTINGS, ids=[f"{path}.{key}" for path, key, _ in REMOVED_SETTINGS]
)
def test_removed_quadrature_knob_is_an_error(path, key, setter):
    doc = minimal_doc(flow=flow_doc())
    setter(doc)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: unknown key\(s\) '{key}'$"):
        validate_config(doc)


def test_adaptive_rk_is_an_unknown_integrator():
    with pytest.raises(ValueError, match="unknown integrator"):
        IntegratorConfig(method="adaptive_rk")


def test_solver_max_iter_still_validates():
    cfg = validate_config(minimal_doc(metric=metric_doc(max_iter=1000)))
    assert cfg.metric.solver == {"max_iter": 1000}
    with pytest.raises(ConfigError, match=r"metric\.solver\.max_iter"):
        validate_config(minimal_doc(metric=metric_doc(max_iter=0)))


def test_missing_required_key():
    doc = minimal_doc()
    del doc["system"]["kernel"]
    with pytest.raises(ConfigError, match="missing required key 'kernel'"):
        validate_config(doc)


def test_dim_bounds():
    doc = minimal_doc()
    doc["system"]["dim"] = 4
    with pytest.raises(ConfigError, match="dimensions 1..3"):
        validate_config(doc)
    doc["system"]["dim"] = 0
    with pytest.raises(ConfigError, match="system.dim"):
        validate_config(doc)


def test_level_must_be_integer():
    doc = minimal_doc()
    doc["system"]["level"] = 8.0
    with pytest.raises(ConfigError, match="system.level"):
        validate_config(doc)
    doc["system"]["level"] = True
    with pytest.raises(ConfigError, match="system.level"):
        validate_config(doc)


@pytest.mark.parametrize(
    "kernel",
    [
        {"type": "laplace"},
        {"type": "fractional"},
        {"type": "constant"},
        {"type": "weighted", "potential": {"expr": "x"}, "base": {"type": "mystery"}},
        {"type": "weighted", "potential": {"expr": "x", "table": {"values": [1]}}, "base": {"type": "constant", "c": 1}},
    ],
)
def test_bad_kernels_rejected(kernel):
    doc = minimal_doc()
    doc["system"]["kernel"] = kernel
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_nested_kernel_and_measure_accepted():
    doc = minimal_doc()
    doc["system"]["kernel"] = {
        "type": "weighted",
        "potential": {"expr": "cos(2*pi*x)"},
        "base": {"type": "fractional", "s": 0.5, "scale": 2.0},
    }
    doc["system"]["measure"] = {
        "type": "mixed",
        "base": {"type": "gibbs", "potential": {"expr": "sin(2*pi*x)"}},
        "epsilon": 0.1,
    }
    cfg = validate_config(doc)
    assert cfg.system.kernel["base"]["s"] == 0.5


ESCAPE = "().__class__.__mro__[1].__subclasses__().__len__() + 0*x"


def _with_potential(where, potential):
    doc = minimal_doc(flow=flow_doc())
    if where == "kernel":
        doc["system"]["kernel"] = {"type": "weighted", "potential": potential, "base": {"type": "constant", "c": 1.0}}
        return doc, "system.kernel.potential.expr"
    if where == "measure":
        doc["system"]["measure"] = {"type": "mixed", "base": {"type": "gibbs", "potential": potential}, "epsilon": 0.1}
        return doc, "system.measure.base.potential.expr"
    doc["flow"]["initial"] = {"type": "gibbs", "potential": potential}
    return doc, "flow.initial.potential.expr"


@pytest.mark.parametrize("where", ["kernel", "measure", "density"])
@pytest.mark.parametrize("expr", [ESCAPE, "__import__('os').getcwd()", "cos(2*pi*t)", "cos(2*pi*x"])
def test_potential_expression_outside_whitelist_is_a_config_error(where, expr):
    doc, path = _with_potential(where, {"expr": expr})
    with pytest.raises(ConfigError, match=re.escape(path)):
        validate_config(doc)


@pytest.mark.parametrize("where", ["kernel", "measure", "density"])
def test_whitelisted_potential_expression_passes_validation(where):
    doc, _ = _with_potential(where, {"expr": "800*(x>0.5) + sin(2*pi*x)"})
    validate_config(doc)


def test_tabulated_kernel_may_name_its_source_sha256():
    doc = minimal_doc()
    doc["system"]["kernel"] = {"type": "tabulated", "path": "sys.json", "sha256": "0" * 64, "bandwidth": 0.3, "exponent": 3.0}
    assert validate_config(doc).system.kernel["sha256"] == "0" * 64


# (section, value, field path): values the kernel and measure objects reject
BAD_SPEC_VALUES = [
    ("kernel", {"type": "constant", "c": None}, "system.kernel"),
    ("kernel", {"type": "constant", "c": "one"}, "system.kernel"),
    ("kernel", {"type": "constant", "c": 0}, "system.kernel"),
    ("kernel", {"type": "fractional", "s": -1}, "system.kernel"),
    ("kernel", {"type": "fractional", "s": 1.0, "scale": None}, "system.kernel"),
    ("kernel", {"type": "weighted", "potential": {"expr": "x"}, "base": {"type": "fractional", "s": 0}}, "system.kernel"),
    ("kernel", {"type": "tabulated", "path": "sys.json", "bandwidth": None, "exponent": 3.0}, "system.kernel.bandwidth"),
    ("kernel", {"type": "tabulated", "path": "sys.json", "bandwidth": 0.3, "exponent": "three"}, "system.kernel.exponent"),
    ("kernel", {"type": "tabulated", "path": "sys.json", "bandwidth": 0.3, "exponent": 2.0}, "system.kernel.exponent"),
    ("measure", {"type": "mixed", "base": {"type": "uniform"}, "epsilon": None}, "system.measure"),
    ("measure", {"type": "mixed", "base": {"type": "uniform"}, "epsilon": 2.0}, "system.measure"),
    ("measure", {"type": "tabulated", "weights": [0.0, 0.0]}, "system.measure"),
    ("measure", {"type": "tabulated", "weights": [1.0, -1.0]}, "system.measure"),
]


@pytest.mark.parametrize("section, value, path", BAD_SPEC_VALUES, ids=[str(v) for _, v, _ in BAD_SPEC_VALUES])
def test_kernel_and_measure_values_are_checked_at_validation(section, value, path):
    doc = minimal_doc()
    doc["system"][section] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
        validate_config(doc)


@pytest.mark.parametrize(
    "density",
    [
        {"type": "delta"},
        {"type": "point_mass"},
        {"type": "point_mass", "index": -1},
        {"type": "table", "values": []},
        {"type": "table", "values": 3},
        {"type": "table", "values": [1.0, -0.5] + [1.0] * 6},
        {"type": "uniform", "width": 1},
    ],
)
def test_bad_densities_rejected(density):
    doc = minimal_doc(flow=flow_doc())
    doc["flow"]["initial"] = density
    with pytest.raises(ConfigError):
        validate_config(doc)


BAD_TABLE_VALUES = [[1.0, -0.5] + [1.0] * 6, [0.0] * 8, [1.0, float("nan")] + [1.0] * 6, [float("inf")] + [1.0] * 7]


@pytest.mark.parametrize("values", BAD_TABLE_VALUES, ids=["negative", "all_zero", "nan", "inf"])
@pytest.mark.parametrize("section", ["flow", "metric"])
def test_a_table_density_without_a_positive_finite_total_is_rejected_by_path(section, values):
    # such a table used to pass validation and fail in density_from_spec,
    # after the build had written system.json
    bad = {"type": "table", "values": values}
    if section == "flow":
        doc, path = minimal_doc(flow={**flow_doc(), "initial": bad}), "flow.initial.values"
    else:
        doc, path = minimal_doc(metric={"endpoints": [{"type": "uniform"}, bad]}), "metric.endpoints[1].values"
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected finite nonnegative numbers"):
        validate_config(doc)


def test_metric_needs_exactly_two_endpoints():
    doc = minimal_doc(metric={"endpoints": [{"type": "uniform"}]})
    with pytest.raises(ConfigError, match="exactly two"):
        validate_config(doc)


def test_metric_m_key_maps_to_n_steps():
    doc = minimal_doc(metric={"endpoints": [{"type": "uniform"}, {"type": "uniform"}], "M": 8})
    assert validate_config(doc).metric.n_steps == 8


def test_sampler_requires_flow():
    doc = minimal_doc(sampler={"n_paths": 10})
    with pytest.raises(ConfigError, match="requires a flow section"):
        validate_config(doc)


def test_refinement_requires_flow():
    doc = minimal_doc(refinement={"levels": [8, 16]})
    with pytest.raises(ConfigError, match=r"^refinement: requires a flow section"):
        validate_config(doc)
    validate_config(minimal_doc(flow=flow_doc(), refinement={"levels": [8, 16]}))


def test_sampler_rate_convention_checked():
    # the sampler runs the flow's own rates; naming a convention is an unknown key
    doc = minimal_doc(flow=flow_doc(), sampler={"rate_convention": "target"})
    with pytest.raises(ConfigError, match=r"^sampler: unknown key\(s\) 'rate_convention'$"):
        validate_config(doc)


def test_sampler_seed_must_fit_the_64_bit_key():
    assert validate_config(minimal_doc(flow=flow_doc(), sampler={"seed": 2**64 - 1})).sampler.seed == 2**64 - 1
    with pytest.raises(ConfigError, match=r"sampler\.seed"):
        validate_config(minimal_doc(flow=flow_doc(), sampler={"seed": 2**64}))


def test_refinement_levels_strictly_increasing():
    doc = minimal_doc(refinement={"levels": [8, 8]})
    with pytest.raises(ConfigError, match="strictly increasing"):
        validate_config(doc)
    doc = minimal_doc(refinement={"levels": [8]})
    with pytest.raises(ConfigError, match="at least two"):
        validate_config(doc)


def test_output_times_need_two_entries():
    doc = minimal_doc(flow=flow_doc())
    doc["flow"]["output_times"] = [0.0]
    with pytest.raises(ConfigError, match="output_times"):
        validate_config(doc)


# each passed validation and failed only after the build: (field path, flow section change)
BAD_FLOWS = [
    ("flow.integrator", {"integrator": {"T": [1.0]}}),
    ("flow.integrator", {"integrator": {"T": -1}}),
    ("flow.integrator", {"integrator": {"method": "rk4"}}),
    ("flow.integrator", {"integrator": {"dt": 0}}),
    ("flow.integrator", {"integrator": {"T": 1.0, "dt": 0.3}}),
    ("flow.output_times", {"output_times": [0, 0.5]}),
    ("flow.output_times", {"output_times": [0, 0.7, 0.5, 1]}),
    ("flow.output_times", {"output_times": [0.1, 1]}),
    ("flow.output_times", {"output_times": [0, float("nan"), 1]}),
    ("flow.output_times", {"output_times": [0, "one"]}),
]


@pytest.mark.parametrize("path, change", BAD_FLOWS, ids=[str(change) for _, change in BAD_FLOWS])
def test_integrator_and_output_times_are_checked_at_validation(path, change):
    flow = flow_doc()
    flow["integrator"].update(change.get("integrator", {}))
    if "output_times" in change:
        flow["output_times"] = change["output_times"]
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
        validate_config(minimal_doc(flow=flow))


def _system_doc(kernel, measure=None):
    doc = minimal_doc()
    doc["system"]["kernel"] = kernel
    if measure is not None:
        doc["system"]["measure"] = measure
    return doc


TABULATED = {"type": "tabulated", "path": "sys.json", "bandwidth": 0.3, "exponent": 3.0}

# (field path, document with a JSON boolean there): float() read each as 1.0,
# so each validated and its manifest recorded true
BOOLEAN_NUMBERS = [
    ("flow.integrator.T", minimal_doc(flow={**flow_doc(), "integrator": {"method": "matrix_exponential", "T": True}})),
    ("flow.integrator.dt", minimal_doc(flow={**flow_doc(), "integrator": {"T": 1.0, "dt": True}})),
    ("flow.output_times", minimal_doc(flow={**flow_doc(), "output_times": [0.0, True]})),
    ("system.kernel.c", _system_doc({"type": "constant", "c": True})),
    ("system.kernel.s", _system_doc({"type": "fractional", "s": True})),
    ("system.kernel.scale", _system_doc({"type": "fractional", "s": 1.0, "scale": True})),
    ("system.kernel.bandwidth", _system_doc({**TABULATED, "bandwidth": True})),
    ("system.kernel.exponent", _system_doc({**TABULATED, "exponent": True})),
    (
        "system.kernel.base.s",
        _system_doc({"type": "weighted", "potential": {"expr": "x"}, "base": {"type": "fractional", "s": True}}),
    ),
    (
        "system.measure.epsilon",
        _system_doc({"type": "constant", "c": 1.0}, {"type": "mixed", "base": {"type": "uniform"}, "epsilon": True}),
    ),
]


@pytest.mark.parametrize("path, doc", BOOLEAN_NUMBERS, ids=[path for path, _ in BOOLEAN_NUMBERS])
def test_a_boolean_where_a_number_belongs_is_rejected_by_path(path, doc):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected (a number|numbers), got .*true"):
        validate_config(doc)


def test_valid_output_times_pass():
    flow = flow_doc()
    flow["integrator"]["dt"] = 0.25
    flow["output_times"] = [0, 0.5, 1]
    assert validate_config(minimal_doc(flow=flow)).flow.output_times == (0.0, 0.5, 1.0)


def _with_state(where, spec, dim=1, level=8, **extra):
    doc = minimal_doc(flow=flow_doc(), metric=metric_doc(), **extra)
    doc["system"].update(dim=dim, level=level)
    if where == "flow.initial":
        doc["flow"]["initial"] = spec
    else:
        doc["metric"]["endpoints"][1] = spec
    return doc


@pytest.mark.parametrize("where", ["flow.initial", "metric.endpoints[1]"])
@pytest.mark.parametrize("dim, level", [(1, 8), (2, 4)])
def test_state_specs_must_fit_the_grid(where, dim, level):
    n = level**dim
    validate_config(_with_state(where, {"type": "point_mass", "index": n - 1}, dim, level))
    validate_config(_with_state(where, {"type": "table", "values": [1.0] * n}, dim, level))
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}\.index: cell {n} is out of range"):
        validate_config(_with_state(where, {"type": "point_mass", "index": n}, dim, level))
    for size in (n - 1, 3):
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}\.values: {size} values for a grid of {n}"):
            validate_config(_with_state(where, {"type": "table", "values": [1.0] * size}, dim, level))


def test_table_initial_is_rejected_with_a_refinement_section():
    doc = _with_state("flow.initial", {"type": "table", "values": [1.0] * 8}, refinement={"levels": [8, 16]})
    with pytest.raises(ConfigError, match=r"^flow\.initial: table initial data is tied to one grid level"):
        validate_config(doc)
    # a point mass names a cell of the base grid, which the study carries to each level
    validate_config(_with_state("flow.initial", {"type": "point_mass", "index": 7}, refinement={"levels": [8, 16]}))


def test_unsupported_format_rejected():
    doc = minimal_doc()
    doc["outputs"]["formats"] = ["csv", "parquet"]
    with pytest.raises(ConfigError, match="parquet"):
        validate_config(doc)


def test_resolved_tree_is_json_ready_and_complete():
    doc = minimal_doc(
        flow=flow_doc(),
        sampler={"n_paths": 50, "seed": 2},
        metric={"endpoints": [{"type": "uniform"}, {"type": "point_mass", "index": 0}]},
    )
    cfg = validate_config(doc)
    tree = cfg.resolved()
    json.dumps(tree)  # must not raise
    assert tree["sampler"] == {"n_paths": 50, "seed": 2}
    assert tree["metric"]["n_steps"] == 32
    assert tree["system"]["measure"] == {"type": "uniform"}


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(minimal_doc(flow=flow_doc())))
    cfg = load_config(path)
    assert cfg.flow.integrator["T"] == 1.0


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)


GIBBS_TABLE = {"type": "gibbs", "potential": {"table": {"values": [0, 0.5, 1, 0.5]}}}  # 1-d, lattice level 4
WEIGHT_TABLE = {"type": "tabulated", "weights": [0.8, 0.2]}  # 1-d, lattice level 2


def test_table_of_another_dimension_is_rejected_with_its_path():
    # before the check, a 2D build failed inside numpy: "parameter multi_index must be a sequence of length 1"
    doc = minimal_doc()
    doc["system"].update(dim=2, level=4, measure=GIBBS_TABLE)
    with pytest.raises(ConfigError, match=r"^system\.measure\.potential\.table\.dim: a 1-dimensional table"):
        validate_config(doc)
    doc["system"]["measure"] = {"type": "uniform"}
    doc["system"]["kernel"] = {
        "type": "weighted",
        "potential": {"table": {"dim": 1, "values": [0.0, 1.0]}},
        "base": {"type": "constant", "c": 1.0},
    }
    with pytest.raises(ConfigError, match=r"^system\.kernel\.potential\.table\.dim"):
        validate_config(doc)


@pytest.mark.parametrize(
    "place, path",
    [
        ("measure", r"system\.measure"),
        ("mixed", r"system\.measure\.base"),
        ("initial", r"flow\.initial\.potential\.table"),
        ("endpoint", r"metric\.endpoints\[1\]\.potential\.table"),
    ],
)
def test_table_lattice_must_divide_the_grid_level(place, path):
    # before the check, weights [0.8, 0.2] at level 5 stopped in the pushforward with QuadratureError
    doc = minimal_doc(flow=flow_doc())
    doc["system"]["level"] = 5
    if place == "measure":
        doc["system"]["measure"] = WEIGHT_TABLE
    elif place == "mixed":
        doc["system"]["measure"] = {"type": "mixed", "base": WEIGHT_TABLE, "epsilon": 0.1}
    elif place == "initial":
        doc["flow"]["initial"] = GIBBS_TABLE
    else:
        doc["metric"] = {"endpoints": [{"type": "uniform"}, GIBBS_TABLE]}
    with pytest.raises(ConfigError, match=rf"^{path}: its level-(2|4) lattice does not divide grid level 5"):
        validate_config(doc)
    doc["system"]["level"] = 8
    validate_config(doc)


def test_table_lattice_must_divide_every_refinement_level():
    # a 1D Gibbs table potential of level 4 stopped at level 6 with QuadratureError
    doc = minimal_doc(flow=flow_doc(), refinement={"levels": [4, 6, 8]})
    doc["system"]["measure"] = GIBBS_TABLE
    with pytest.raises(ConfigError, match=r"^system\.measure\.potential\.table: .* grid level 6"):
        validate_config(doc)
    doc["refinement"]["levels"] = [4, 8, 16]
    validate_config(doc)


def test_kernel_table_needs_only_the_dimension_to_match():
    doc = minimal_doc()
    doc["system"]["level"] = 5
    doc["system"]["kernel"] = {
        "type": "weighted",
        "potential": {"table": {"values": [0.0, 0.5]}},
        "base": {"type": "fractional", "s": 1.0},
    }
    validate_config(doc)


def test_table_values_must_fill_a_lattice():
    doc = minimal_doc()
    doc["system"].update(dim=2, measure={"type": "tabulated", "dim": 2, "weights": [1.0, 2.0, 3.0]})
    with pytest.raises(ConfigError, match=r"^system\.measure\.weights: 3 values do not fill a lattice of T\^2"):
        validate_config(doc)
