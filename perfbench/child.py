"""One benchmark process: a set-up probe or a workload run.

``run.py`` starts this file in a fresh interpreter with the BLAS thread
variables already in its environment, so they hold before numpy loads.

    child.py probe --workload W --seed N
        Time ``import nlw`` plus generating and validating the config;
        print one JSON line.

    child.py run --workload W --seed N --seconds S --trace T --result FILE
        Cap this process's address space, import nlw, then call the
        workload's operation in a closed loop for S seconds and write the
        timings, check failures and (with T = 1) per-layer numbers to FILE.

Both modes import nlw from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

# A regression that allocates gigabytes becomes a counted MemoryError in
# this process instead of an out-of-memory kill of the whole machine.
ADDRESS_SPACE_LIMIT = 3 * 2**30
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, SRC)

import workloads  # noqa: E402  (stdlib only: numpy is not loaded yet)


def import_nlw():
    """Import nlw from this checkout; returns (module, seconds)."""
    t0 = time.perf_counter()
    import nlw

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(nlw.__file__))) != SRC:
        raise ImportError(f"nlw was imported from {nlw.__file__}, not from {SRC}")
    return nlw, elapsed


def probe(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    nlw, import_s = import_nlw()
    t1 = time.perf_counter()
    make, _ = workloads.WORKLOADS[workload]
    nlw.validate_config(make(seed, os.path.join(WORK, "probe")))
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_s": import_s, "validate_s": t2 - t1}


def vm_peak_mb() -> float:
    """Peak address space of this process, to compare with ADDRESS_SPACE_LIMIT."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmPeak:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    nlw, _ = import_nlw()
    import ops
    import tracing

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    make, stages = workloads.WORKLOADS[workload]
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    cfg = nlw.validate_config(make(seed, os.path.join(work, "op")))

    if not trace:
        # fill lazy imports and caches on the tiny size of the same workload; a
        # traced run skips this so that its first op, which is traced, shows
        # the memory discretize_kernel adds to the peak
        warm = nlw.validate_config(make(seed, os.path.join(work, "warmup"), tiny=True))
        try:
            ops.run_op(workload, warm, stages)
        except Exception:  # the timed ops below meet the same failure and record it
            pass

    tracer = tracing.Tracer()
    samples, errors, layers, coverage, traces = [], [], [], [], []
    first_hashes = None
    min_ops = 2 if trace else 1  # a traced run alternates untraced and traced ops
    start = time.perf_counter()
    last = 0.0
    # start another op only if it is expected to end less than half an op past
    # the deadline, so that a run measures about `seconds` on average
    while time.perf_counter() - start + 0.5 * last < seconds or len(samples) < min_ops:
        traced = trace and len(samples) % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result, audit = ops.run_op(workload, cfg, stages)
        except Exception:  # any failure of the program counts against this op
            result = None
            problems = [traceback.format_exc(limit=3)]
        elapsed = last = time.perf_counter() - t0
        spans = tracer.uninstall() if traced else None
        if result is not None:
            try:
                problems, hashes = ops.check_op(workload, cfg, result, audit, reference)
            except Exception:  # an output the checks need is missing or malformed
                problems, hashes = [traceback.format_exc(limit=3)], None
            first_hashes = first_hashes or hashes
            if hashes is not None and hashes != first_hashes:
                problems.append("artifact hashes differ from the first op at this seed")
        samples.append({"seconds": elapsed, "traced": traced, "failed": bool(problems)})
        errors += problems
        if traced:
            layers.append(tracing.layer_metrics(spans))
            coverage.append(elapsed - tracing.top_level_seconds(spans))
            traces.append({"op": len(samples) - 1, "op_seconds": elapsed, "spans": spans})

    shutil.rmtree(work, ignore_errors=True)
    if traces:
        with open(os.path.join(WORK, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": workload, "seed": seed, "ops": traces}, fh)
    return {
        "samples": samples,
        "errors": errors[:20],
        "layers": layers,
        "uncovered_s": coverage,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vm_peak_mb": vm_peak_mb(),
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        print(json.dumps(probe(args.workload, args.seed)))
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
