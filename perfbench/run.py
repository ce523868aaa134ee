"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload flow_1d --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout.  Five fresh interpreters time set-up
(``import nlw`` until the generated config validates); then one workload
process, with BLAS pinned to one thread and its address space capped,
calls the workload's operation in a closed loop for ``--seconds``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
describe the run for a human reader.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads
from child import BLAS_VARS, ROOT, WORK

CHILD = os.path.join(ROOT, "perfbench", "child.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PROBES = 5
CHILD_TIMEOUT_S = 150


def start_child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, **{v: "1" for v in BLAS_VARS})
    return subprocess.run(
        [sys.executable, CHILD, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if there is one."""
    n = len(values)
    if n < 11:
        return f"n/a (needs >= 11 samples, have {n})"
    return f"p{100 * (n - 10) / n:.1f} = {sorted(values)[n - 11]!r} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "nlw", "__init__.py")):
        print(f"no nlw sources under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    result_path = os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        probes = [json.loads(start_child(["probe", *common]).stdout.splitlines()[-1]) for _ in range(PROBES)]
        start_child(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path])
    except subprocess.CalledProcessError as exc:
        print(f"benchmark process failed with code {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"benchmark process did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        res = json.load(fh)
    os.remove(result_path)

    samples = res["samples"]
    plain = [s["seconds"] for s in samples if not s["traced"]]
    traced = [s["seconds"] for s in samples if s["traced"]]
    failed = sum(s["failed"] for s in samples)
    # the mean rather than the median: on a shared host, interference comes
    # and goes in phases of a few seconds; the median of a run jumps between
    # the fast and the slow phase, while the mean follows the share of each
    run_s = statistics.fmean(plain)
    setup = [p["setup_s"] for p in probes]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {json.dumps(res['env'], sort_keys=True)}")
    print(f"run_s: mean {run_s!r} s over {len(plain)} untraced ops; median {statistics.median(plain)!r} s; tail {tail(plain)}")
    print(f"op times: {', '.join(f'{s:.4f}' for s in plain)}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"peak RSS {res['peak_rss_mb']:.1f} MB, peak address space {res['vm_peak_mb']:.1f} MB")
    print(f"ops attempted {len(samples)}, failed {failed}")
    for err in res["errors"]:
        print(f"FAILED: {err.strip()}")

    with open(SPEC) as fh:
        spec = json.load(fh)
    correct = failed == 0
    if args.trace:
        layers = {k: statistics.median(op[k] for op in res["layers"]) for k in res["layers"][0]}
        layers["discretize.rss_growth_mb"] = max(op["discretize.rss_growth_mb"] for op in res["layers"])
        layers["init.import_s"] = statistics.median(p["import_s"] for p in probes)
        layers["config.validate_s"] = statistics.median(p["validate_s"] for p in probes)
        layers["trace.run_s"] = statistics.fmean(traced)
        layers["trace.overhead_s"] = layers["trace.run_s"] - run_s
        layers["trace.uncovered_s"] = max(res["uncovered_s"])
        # the top-level spans must account for each traced op's time
        allowed = max(abs(layers["trace.overhead_s"]), 1e-3 * run_s)
        if layers["trace.uncovered_s"] > allowed:
            print(f"FAILED: top-level spans leave {layers['trace.uncovered_s']!r} s uncovered (allowed {allowed!r})")
            correct = False
        values, listed = layers, spec["per_layer"]
    else:
        values = {"run_s": run_s, "setup_s": statistics.median(setup), "peak_rss_mb": res["peak_rss_mb"]}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
