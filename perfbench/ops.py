"""The timed operation of each workload and the checks on its outputs.

``run_op`` is what the benchmark times: one ``run_config`` call on the
generated config, plus the criterion-5 moment audit on ``assembly_2d``.
``check_op`` runs after the clock stops and returns a list of failure
messages; an operation with any message counts as failed.  Every call
into the program goes through a module attribute (``nlw.kernels.c_eta``,
not a local import), so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import nlw

PAIR_TOL = 1e-4  # QuadratureConfig.pair_tol: the accuracy eta is computed to
EDI_RTOL = 1e-9
MASS_DRIFT_MAX = 1e-10
RESIDUAL_MAX = 1e-8
W_RTOL = 1e-3


def moment_audit(cfg, result):
    """Criterion 5: M_n <= 4 * (c_eta^2 / 2), with the acceptance test's 1% slack."""
    sec = cfg.system
    kernel = nlw.kernels.kernel_from_dict(sec.kernel)
    measure = nlw.kernels.measure_from_dict(sec.measure)
    c = nlw.kernels.c_eta(kernel, measure, dim=sec.dim, working_level=sec.level)
    return nlw.discretize.verify_moment_bound(result.system, 0.5 * c * c, slack=0.01)


def run_op(workload: str, cfg, stages: tuple):
    result = nlw.run_config(cfg, stages=stages)
    audit = moment_audit(cfg, result) if workload == "assembly_2d" else None
    return result, audit


def artifact_hashes(result) -> tuple[list, list[str]]:
    """(name, sha256) of each manifest entry, and the entries whose bytes on disk differ."""
    with open(result.manifest_path) as fh:
        manifest = json.load(fh)
    hashes, bad = [], []
    for entry in manifest["artifacts"]:
        with open(os.path.join(result.out_dir, entry["path"]), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                bad.append(entry["path"])
        hashes.append((entry["name"], entry["sha256"]))
    return hashes, bad


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_op(workload: str, cfg, result, audit, reference: dict) -> tuple[list[str], list]:
    """Failure messages for one operation (empty when every check passes) and its artifact hashes.

    The caller compares the hashes across operations at one seed.
    """
    hashes, bad = artifact_hashes(result)
    problems = [f"sha256 of {p} does not match the manifest" for p in bad]
    if result.failure is not None:
        problems.append(f"run failed in stage {result.failure['stage']}: {result.failure['error']}")
        return problems, hashes
    ref = reference.get(workload, {})
    if workload == "assembly_2d":
        if not audit.passes:
            problems.append(f"moment bound fails: M_n={audit.m_n!r} > {audit.bound!r}")
        if ref.get("level") == cfg.system.level:
            want = np.asarray(ref["eta"])
            dev = np.abs(result.system.eta - want)
            if np.any(dev > PAIR_TOL * np.abs(want)):
                problems.append(f"eta differs from the reference by up to {float(dev.max())!r}")
    elif workload == "flow_1d":
        with open(os.path.join(result.out_dir, "edi.json")) as fh:
            edi = json.load(fh)
        if not _rel(edi["int_action"], edi["int_fisher"]) <= EDI_RTOL:
            problems.append(f"int_action {edi['int_action']!r} != int_fisher {edi['int_fisher']!r}")
        if not result.certificate.certified:
            problems.append("entropy-decay certificate not certified")
        drift = result.trajectory.meta["mass_drift"]
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"mass drift {drift!r} above {MASS_DRIFT_MAX}")
    elif workload == "transport_1d":
        m = result.metric
        if not (m.converged and m.constraint_residual < RESIDUAL_MAX):
            problems.append(f"metric not converged (residual {m.constraint_residual!r})")
        if ref.get("level") == cfg.system.level and not _rel(m.w, ref["w"]) <= W_RTOL:
            problems.append(f"w = {m.w!r}, reference {ref['w']!r}")
    elif workload == "sampling_1d":
        if not result.comparison.passes:
            problems.append(f"marginal comparison fails: max |z| {result.comparison.max_abs_z!r}")
    return problems, hashes
