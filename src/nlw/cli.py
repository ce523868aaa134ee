"""Command-line front end.

    nlw <subcommand> --config experiment.json [--out DIR] [--seed N] [--quiet]

Subcommands select which stages of the config run:

    build    discretize the system and save it
    solve    build + integrate the flow (trajectory + dissipation audit)
    metric   build + transport distance between the configured endpoints
    certify  build + flow + entropy-decay certificate
    sample   build + flow + jump-process histogram and marginal comparison
    refine   refinement ladder over the configured levels
    run      every stage the config has a section for

Exit codes: 0 success, 2 bad config or I/O, 3 numerical failure,
4 a produced check (certificate, marginal comparison, refinement
monotonicity, convergence of the transport solve) failed.  The report
goes to stdout, "wrote <path>" lines to stderr through the ``nlw``
logger; ``--quiet`` drops both.

Linear-algebra thread counts come from the environment
(``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``, ``OMP_NUM_THREADS``,
``NUMEXPR_NUM_THREADS``) and must be set before ``nlw`` is imported:
the BLAS library reads them once, when numpy loads it.  Importing
``nlw`` first pins each unset one to 1.
"""

from __future__ import annotations

import argparse
import logging
import sys as _sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

_STAGES = {
    "build": ("build",),
    "solve": ("build", "flow"),
    "metric": ("build", "metric"),
    "certify": ("build", "flow", "certify"),
    "sample": ("build", "flow", "sample"),
    "refine": ("refine",),
    "run": ("build", "flow", "metric", "sample"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nlw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("build", "discretize the configured system and save it"),
        ("solve", "integrate the configured flow"),
        ("metric", "transport distance between the configured endpoints"),
        ("certify", "entropy-decay certificate along the flow"),
        ("sample", "jump-process histogram against the flow marginal"),
        ("refine", "grid-refinement ladder"),
        ("run", "all stages present in the config"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="sampler seed (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress the report and the per-artifact log lines")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = logging.StreamHandler()  # to the current stderr, message text only
    log = logging.getLogger("nlw")
    log.addHandler(handler)
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)


def _run(args) -> int:
    from .config import ConfigError, load_config
    from .experiments import run_config

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_config(
            cfg,
            out_dir=args.out,
            seed=args.seed,
            stages=_STAGES[args.command],
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG

    if result.failure is not None:
        print(
            f"error: {result.failure['kind']} in stage {result.failure['stage']}: "
            f"{result.failure['error']}",
            file=_sys.stderr,
        )
        print(f"partial manifest: {result.manifest_path}", file=_sys.stderr)
        return EXIT_NUMERICAL

    if not args.quiet:
        _report(result)
    if not result.all_checks_passed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _report(result) -> None:
    if result.trajectory is not None:
        traj = result.trajectory
        print(
            f"flow: {traj.n_times} states, H {traj.entropy[0]:.6g} -> {traj.entropy[-1]:.6g}"
        )
    if result.metric is not None:
        print(f"metric: W = {result.metric.w:.10g} (converged={result.metric.converged})")
    if result.certificate is not None:
        cert = result.certificate
        print(f"certificate: c = {cert.c:.6g}, certified={cert.certified}")
    if result.comparison is not None:
        cmp_ = result.comparison
        print(
            f"comparison: max|z| = {cmp_.max_abs_z:.3f} "
            f"(threshold {cmp_.threshold:.3f}), passes={cmp_.passes}"
        )
    if result.refinement is not None:
        rep = result.refinement
        gaps = ", ".join(f"{g:.3g}" for g in rep.entropy_gaps)
        print(f"refinement: entropy gaps [{gaps}], decreasing={rep.gaps_decreasing}")
    print(f"manifest: {result.manifest_path}")


if __name__ == "__main__":
    raise SystemExit(main())
