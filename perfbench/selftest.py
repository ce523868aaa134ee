"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Checks that every workload generator, at its tiny size, gives a config
that ``validate_config`` accepts and whose run passes the workload's own
checks; that self-time arithmetic is right on a synthetic span tree; and
that the tracer records nested spans and restores the program afterwards.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import child  # puts the checkout's src/ on sys.path
import tracing
import workloads

import nlw
import ops


def span(name, start, end, parent=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": counts}


def test_self_times_on_synthetic_tree():
    spans = [
        span("experiments.run_config", 0.0, 10.0),  # 0
        span("discretize.build_system", 1.0, 4.0, 0),  # 1
        span("discretize.discretize_kernel", 1.5, 3.5, 1, pairs=4),  # 2
        span("flow.solve", 5.0, 9.0, 0, states=3),  # 3
        span("functionals.fisher_information", 6.0, 7.0, 3),  # 4
        span("functionals.fisher_information", 6.5, 8.0, 3),  # 5: overlaps 4
        span("kernels.c_eta", 10.0, 12.0),  # 6: top level
    ]
    assert tracing.self_times(spans) == [3.0, 1.0, 2.0, 2.0, 1.0, 1.5, 2.0]
    assert tracing.top_level_seconds(spans) == 12.0
    m = tracing.layer_metrics(spans)
    assert m["discretize.kernel_s"] == 2.0
    assert m["discretize.us_per_pair"] == 0.5e6
    assert m["flow.solve_self_s"] == 2.0
    assert m["flow.states"] == 3
    assert m["functionals.fisher_calls"] == 2
    assert m["experiments.run_config_self_s"] == 3.0
    assert m["kernels.c_eta_s"] == 2.0
    assert m["metric.ms_per_iter"] == 0.0  # no metric span: reported as 0


def test_nested_same_name_spans_count_once():
    spans = [
        span("kernels.density", 0.0, 4.0, points=10),
        span("kernels.density", 1.0, 2.0, 0, points=10),  # e.g. a mixed measure's base
    ]
    m = tracing.layer_metrics(spans)
    assert m["kernels.density_points"] == 10


def test_tracer_records_and_restores():
    original = nlw.torus.build_grid
    cfg = nlw.validate_config(workloads.flow_1d(0, "unused", tiny=True))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nlw.build_grid is not original and nlw.torus.build_grid is nlw.build_grid
        nlw.experiments.build_system_from_config(cfg)
    finally:
        spans = tracer.uninstall()
    assert nlw.torus.build_grid is original and nlw.build_grid is original
    assert nlw.experiments.build_grid is original
    names = [s["name"] for s in spans]
    assert names[0] == "experiments.build_system_from_config"
    kernel = names.index("discretize.discretize_kernel")
    assert spans[spans[kernel]["parent"]]["name"] == "discretize.build_system"
    assert spans[kernel]["counts"]["pairs"] == 16 * 15 // 2
    assert any(s["name"] == "kernels.density" and s["counts"]["points"] > 0 for s in spans)


def test_tiny_workloads_validate_and_pass_checks():
    out = tempfile.mkdtemp(prefix="selftest-", dir=child.WORK)
    try:
        for name, (make, stages) in workloads.WORKLOADS.items():
            for seed in (0, 1):
                doc = make(seed, os.path.join(out, name), tiny=True)
                assert make(seed, os.path.join(out, name), tiny=True) == doc, "generator is not deterministic"
                cfg = nlw.validate_config(doc)
                result, audit = ops.run_op(name, cfg, stages)
                problems, hashes = ops.check_op(name, cfg, result, audit, {})
                assert problems == [] and hashes, name
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    os.makedirs(child.WORK, exist_ok=True)
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
