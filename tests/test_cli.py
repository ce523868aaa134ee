"""End-to-end tests of the command-line front end (via main(argv))."""

from __future__ import annotations

import json
import pathlib

import pytest

from conftest import simulate_source_rates
from nlw.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def smoke_doc(out_dir, **extra):
    doc = {
        "system": {"dim": 1, "level": 2, "kernel": {"type": "constant", "c": 1.0}},
        "flow": {
            "initial": {"type": "table", "values": [0.75, 0.25]},
            "integrator": {"method": "matrix_exponential", "T": 1.0, "dt": 0.01},
        },
        "outputs": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }
    doc.update(extra)
    return doc


def test_build_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, smoke_doc(tmp_path / "out"))
    assert main(["build", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "out" / "system.json").exists()
    assert "manifest" in capsys.readouterr().out


def test_solve_subcommand_quiet(tmp_path, capsys):
    cfg = write_config(tmp_path, smoke_doc(tmp_path / "out"))
    assert main(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "edi.json").exists()


def test_run_subcommand_full_pipeline(tmp_path):
    doc = smoke_doc(
        tmp_path / "out",
        metric={
            "endpoints": [
                {"type": "table", "values": [0.8, 0.2]},
                {"type": "table", "values": [0.3, 0.7]},
            ],
            "M": 16,
        },
        sampler={"n_paths": 2000, "seed": 5},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"] == ["build", "flow", "metric", "sample", "compare"]


def test_certify_subcommand(tmp_path):
    doc = smoke_doc(tmp_path / "out")
    doc["system"]["level"] = 8
    doc["flow"]["initial"] = {"type": "point_mass", "index": 1}
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg, "--quiet"]) == EXIT_OK
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["certified"] is True


def test_refine_subcommand(tmp_path):
    doc = smoke_doc(tmp_path / "out", refinement={"levels": [4, 8]})
    cfg = write_config(tmp_path, doc)
    doc["flow"]["initial"] = {"type": "uniform"}
    cfg = write_config(tmp_path, doc)
    assert main(["refine", "--config", cfg, "--quiet"]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "refinement.json").read_text())
    assert rep["levels"] == [4, 8]


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_invalid_config_is_exit_2(tmp_path, capsys):
    doc = smoke_doc(tmp_path / "out")
    doc["system"]["kernell"] = {}
    cfg = write_config(tmp_path, doc)
    assert main(["build", "--config", cfg]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


def shipped_doc(name, out_dir):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc["outputs"]["directory"] = str(out_dir)
    return doc


# (subcommand, shipped config, flow section change, field path): each used to
# build the system and write system.json before failing
FLOWS_THAT_FAIL_AFTER_THE_BUILD = [
    ("solve", "constant_torus", {"integrator": {"method": "matrix_exponential", "T": [1.0]}}, "flow.integrator"),
    ("solve", "constant_torus", {"output_times": [0.0, 0.5]}, "flow.output_times"),
    ("run", "fractional_gibbs", {"initial": {"type": "point_mass", "index": 16}}, "flow.initial.index"),
    ("refine", "fractional_gibbs", {"initial": {"type": "table", "values": [1.0] * 16}}, "flow.initial"),
    ("solve", "constant_torus", {"initial": {"type": "table", "values": [1.0, -0.5] + [1.0] * 14}}, "flow.initial.values"),
]


@pytest.mark.parametrize(
    "command, name, change, path", FLOWS_THAT_FAIL_AFTER_THE_BUILD, ids=[f"{c[0]}-{c[3]}" for c in FLOWS_THAT_FAIL_AFTER_THE_BUILD]
)
def test_a_config_that_fails_after_the_build_is_exit_2_before_it(tmp_path, capsys, command, name, change, path):
    doc = shipped_doc(name, tmp_path / "out")
    doc["flow"].update(change)
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, message",
    [("certify", "certification needs a flow stage"), ("refine", "config has no refinement section")],
)
def test_a_stage_without_its_prerequisite_is_exit_2_before_anything_is_written(tmp_path, capsys, command, message):
    # a build-only config: certify used to write system.json first, refine the empty directory
    doc = {
        "system": {"dim": 1, "level": 8, "kernel": {"type": "constant", "c": 1.0}},
        "outputs": {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_numerical_failure_is_exit_3_with_partial_manifest(tmp_path, capsys):
    doc = smoke_doc(tmp_path / "out")
    doc["system"]["level"] = 8
    doc["system"]["measure"] = {"type": "gibbs", "potential": {"expr": "800*(x>0.5)"}}
    doc["flow"]["initial"] = {"type": "uniform"}
    cfg = write_config(tmp_path, doc)
    assert main(["build", "--config", cfg, "--quiet"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "ZeroCellError" in err and "partial manifest" in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "build"


def test_unconverged_cell_pair_quadrature_is_exit_3_with_partial_manifest(tmp_path, capsys):
    # a kernel table of level 2 jumps inside cells of level 5, where the pair rule cannot resolve it
    doc = smoke_doc(tmp_path / "out")
    doc["system"]["level"] = 5
    doc["system"]["kernel"] = {
        "type": "weighted",
        "potential": {"table": {"values": [0.0, 1.0]}},
        "base": {"type": "fractional", "s": 1.0},
    }
    doc["flow"]["initial"] = {"type": "uniform"}
    cfg = write_config(tmp_path, doc)
    assert main(["build", "--config", cfg, "--quiet"]) == EXIT_NUMERICAL
    assert "QuadratureError in stage build: cell-pair quadrature did not converge" in capsys.readouterr().err
    failure = json.loads((tmp_path / "out" / "manifest.json").read_text())["failure"]
    assert failure["stage"] == "build" and failure["kind"] == "QuadratureError"


# (section, value, field path): each used to fail after the output directory was made,
# with a TypeError traceback (exit 1) or a message without its path
BAD_SPEC_VALUES = [
    ("kernel", {"type": "constant", "c": None}, "system.kernel"),
    ("kernel", {"type": "fractional", "s": -1}, "system.kernel"),
    ("measure", {"type": "mixed", "base": {"type": "uniform"}, "epsilon": None}, "system.measure"),
    ("kernel", {"type": "tabulated", "path": "sys.json", "bandwidth": 0.3, "exponent": 1.5}, "system.kernel.exponent"),
]


@pytest.mark.parametrize("section, value, path", BAD_SPEC_VALUES, ids=[str(v) for _, v, _ in BAD_SPEC_VALUES])
def test_a_bad_kernel_or_measure_value_is_exit_2_before_the_build(tmp_path, capsys, section, value, path):
    doc = shipped_doc("constant_torus", tmp_path / "out")
    doc["system"][section] = value
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


def test_failed_comparison_is_exit_4(tmp_path, monkeypatch):
    # the sampler runs the source-weighted rates, which miss the flow's marginal on pi = (0.8, 0.2)
    monkeypatch.setattr("nlw.experiments.simulate", simulate_source_rates)
    doc = smoke_doc(tmp_path / "out", sampler={"n_paths": 30000, "seed": 3})
    doc["system"]["measure"] = {"type": "tabulated", "dim": 1, "weights": [0.8, 0.2]}
    doc["flow"]["initial"] = {"type": "table", "values": [0.3, 0.7]}
    cfg = write_config(tmp_path, doc)
    assert main(["sample", "--config", cfg, "--quiet"]) == EXIT_CHECK_FAILED


def test_unconverged_transport_solve_is_exit_4(tmp_path, capsys):
    # one Newton step per stage stops at W = 35.34; the converged distance is about 0.511
    doc = smoke_doc(
        tmp_path / "out",
        metric={
            "endpoints": [{"type": "point_mass", "index": 0}, {"type": "point_mass", "index": 1}],
            "M": 8,
            "solver": {"max_iter": 1},
        },
    )
    doc["system"].update(level=8, kernel={"type": "fractional", "s": 1.0})
    doc["flow"]["initial"] = {"type": "uniform"}  # the two-cell table does not fit eight cells
    cfg = write_config(tmp_path, doc)
    assert main(["metric", "--config", cfg]) == EXIT_CHECK_FAILED
    assert "converged=False" in capsys.readouterr().out
    metric = json.loads((tmp_path / "out" / "metric.json").read_text())
    assert metric["converged"] is False and metric["w"] > 30.0


def test_a_transport_path_that_dips_below_zero_is_exit_3_with_partial_manifest(tmp_path, capsys):
    # the polish stage drives the cells empty at both ends to 4.9e-324, and closing
    # the total flux rounds one of them below zero: this used to raise "path contains
    # negative densities" (exit 2, as for a bad config) with no manifest.  Which block
    # dips below -1e-12 rides on the last bits of eta; on cells 2-4 it dips to -6.8e-11
    doc = shipped_doc("fractional_gibbs", tmp_path / "out")
    start = [0.0] * 2 + [1.0 + 1e-9, 1.0, 1.0 - 1e-9] + [0.0] * 11
    end = [0.0] * 2 + [1.0] * 3 + [0.0] * 11
    doc["metric"] = {"endpoints": [{"type": "table", "values": start}, {"type": "table", "values": end}], "M": 8}
    cfg = write_config(tmp_path, doc)
    assert main(["metric", "--config", cfg, "--quiet"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "TransportError in stage metric: the solved path is invalid: path contains negative densities" in err
    failure = json.loads((tmp_path / "out" / "manifest.json").read_text())["failure"]
    assert failure["stage"] == "metric" and failure["kind"] == "TransportError"


def test_a_transport_distance_between_equal_endpoints_is_exit_0(tmp_path):
    # point mass 3 to itself used to raise "path contains negative densities"
    # (exit 2) after system.json was written, with no manifest
    doc = shipped_doc("fractional_gibbs", tmp_path / "out")
    doc["metric"] = {"endpoints": [{"type": "point_mass", "index": 3}] * 2, "M": 8}
    cfg = write_config(tmp_path, doc)
    assert main(["metric", "--config", cfg, "--quiet"]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "metric.json" in [a["path"] for a in manifest["artifacts"]]
    metric = json.loads((tmp_path / "out" / "metric.json").read_text())
    assert metric["w"] == 0.0 and metric["converged"] is True


def test_artifact_lines_are_logged_and_the_report_stays_on_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, smoke_doc(tmp_path / "out"))
    assert main(["solve", "--config", cfg]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("flow: ") and "wrote" not in captured.out
    assert f"wrote {tmp_path / 'out' / 'trajectory.csv'}" in captured.err.splitlines()
    assert main(["solve", "--config", cfg, "--quiet"]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_out_flag_overrides_directory(tmp_path):
    cfg = write_config(tmp_path, smoke_doc(tmp_path / "ignored"))
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "real"), "--quiet"]) == EXIT_OK
    assert (tmp_path / "real" / "system.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_overrides_sampler_seed(tmp_path):
    doc = smoke_doc(tmp_path / "a", sampler={"n_paths": 500, "seed": 1})
    cfg = write_config(tmp_path, doc, "a.json")
    assert main(["sample", "--config", cfg, "--quiet"]) == EXIT_OK
    doc["outputs"]["directory"] = str(tmp_path / "b")
    cfg = write_config(tmp_path, doc, "b.json")
    assert main(["sample", "--config", cfg, "--seed", "1", "--quiet"]) == EXIT_OK
    doc["outputs"]["directory"] = str(tmp_path / "c")
    cfg = write_config(tmp_path, doc, "c.json")
    assert main(["sample", "--config", cfg, "--seed", "42", "--quiet"]) == EXIT_OK
    h = lambda d: (tmp_path / d / "histogram.csv").read_text()  # noqa: E731
    assert h("a") == h("b")  # explicit seed equal to the config seed
    assert h("a") != h("c")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_outside_the_64_bit_key_is_exit_2_before_anything_is_written(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, smoke_doc(tmp_path / "out", sampler={"n_paths": 500, "seed": 1}))
    assert main(["sample", "--config", cfg, "--seed", seed, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: seed: expected an integer")
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_shipped_configs_validate():
    from nlw.config import load_config

    shipped = sorted(CONFIG_DIR.glob("*.json"))
    assert shipped, "expected packaged example configs"
    for path in shipped:
        cfg = load_config(path)
        assert cfg.system.level >= 2
