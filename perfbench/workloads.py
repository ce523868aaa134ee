"""Workload definitions: one config generator per workload.

Every input the program sees is a config document made here from the
benchmark seed.  This module imports only the standard library, so the
set-up probe can time ``import nlw`` (and with it numpy and scipy) from
a clean interpreter.

Each workload puts most of its time in one layer and little in the
others, so a change to one layer shows up on one workload and leaves the
rest unchanged:

* ``assembly_2d``: d = 2 cell-pair quadrature (all 36 pairs of the
  level-3 grid are cutoff-active) plus the criterion-5 moment audit.
* ``flow_1d``: the 512-point flow, its dissipation audit, certificate
  and artifact I/O; a Gibbs measure, so uniform-only shortcuts miss it.
* ``transport_1d``: the transport-distance solver on a 32-point system.
* ``sampling_1d``: the Gillespie sampler on the same 32-point system.

The seed moves inputs without moving the amount of work: the initial
table (``assembly_2d``), the start cell (``flow_1d``), a turn of the torus
(``transport_1d``, ``sampling_1d``) and the sampler's stream.

A ``tiny`` flag shrinks every workload so the self-test runs in seconds.
"""

from __future__ import annotations

import random

FRACTIONAL = {"type": "fractional", "s": 1.0, "scale": 1.0}
GIBBS_COS = {"type": "gibbs", "potential": {"expr": "cos(2*pi*x)"}}
BOTH_FORMATS = ["csv", "json"]


def _outputs(out_dir: str) -> dict:
    return {"directory": out_dir, "formats": list(BOTH_FORMATS)}


def assembly_2d(seed: int, out_dir: str, tiny: bool = False) -> dict:
    """2D fractional kernel on the uniform measure; seeded initial table.

    The seed moves only the initial density, so eta is the same for every
    seed and can be checked against one stored reference.
    """
    rng = random.Random(seed)
    level = 2 if tiny else 3
    values = [round(rng.uniform(0.5, 1.5), 6) for _ in range(level * level)]
    # at level 2 the s = 1 quadrature takes longer than at level 3; s = 0.5 does not
    kernel = dict(FRACTIONAL, s=0.5) if tiny else dict(FRACTIONAL)
    return {
        "system": {"dim": 2, "level": level, "kernel": kernel, "measure": {"type": "uniform"}},
        "flow": {
            "initial": {"type": "table", "values": values},
            "integrator": {"method": "matrix_exponential", "T": 1.0},
        },
        "outputs": _outputs(out_dir),
    }


def flow_1d(seed: int, out_dir: str, tiny: bool = False) -> dict:
    """512-point Gibbs system, point-mass start at a seeded cell, 201 states."""
    rng = random.Random(seed)
    level = 16 if tiny else 512
    return {
        "system": {"dim": 1, "level": level, "kernel": dict(FRACTIONAL), "measure": dict(GIBBS_COS)},
        "flow": {
            "initial": {"type": "point_mass", "index": rng.randrange(level)},
            "integrator": {"method": "matrix_exponential", "T": 1.0, "dt": 0.005},
        },
        "outputs": _outputs(out_dir),
    }


def rotated_system(seed: int, level: int) -> tuple[dict, float]:
    """The 1D Gibbs system with cos(2 pi x) turned by a seeded whole number of cells.

    A turn by k/level maps cells onto cells, so every seed poses the same
    problem up to a permutation and rounding: the work per operation stays
    put across seeds while the arrays the program sees differ.
    """
    shift = random.Random(seed).randrange(level) / level
    system = {
        "dim": 1,
        "level": level,
        "kernel": dict(FRACTIONAL),
        "measure": {"type": "gibbs", "potential": {"expr": f"cos(2*pi*(x+{shift!r}))"}},
    }
    return system, shift


def transport_1d(seed: int, out_dir: str, tiny: bool = False) -> dict:
    """Distance from the uniform state to the Gibbs state of sin(2 pi x), turned with the system.

    The solver runs with max_iter = 1000 instead of the default 300.  At
    300 the first barrier stages stop at the cap and whether the polish
    stage meets its tolerance depends on rounding: one in twelve turns of
    this same problem ends with ``converged`` false.  At 1000 the later
    stages finish in a few hundred steps and the polish stage in one or two.
    """
    system, shift = rotated_system(seed, 8 if tiny else 32)
    return {
        "system": system,
        "metric": {
            "endpoints": [
                {"type": "uniform"},
                {"type": "gibbs", "potential": {"expr": f"sin(2*pi*(x+{shift!r}))"}},
            ],
            "M": 8 if tiny else 16,
            "solver": {"max_iter": 1000},
        },
        "outputs": _outputs(out_dir),
    }


def sampling_1d(seed: int, out_dir: str, tiny: bool = False) -> dict:
    """The transport_1d system, uniform start, 2,000 paths seeded from the benchmark seed."""
    system, _ = rotated_system(seed, 8 if tiny else 32)
    return {
        "system": system,
        "flow": {
            "initial": {"type": "uniform"},
            "integrator": {"method": "matrix_exponential", "T": 1.0},
        },
        "sampler": {"n_paths": 200 if tiny else 2_000, "seed": seed},
        "outputs": _outputs(out_dir),
    }


# workload name -> (config generator, run_config stages)
WORKLOADS = {
    "assembly_2d": (assembly_2d, ("build", "flow")),
    "flow_1d": (flow_1d, ("build", "flow", "certify")),
    "transport_1d": (transport_1d, ("build", "metric")),
    "sampling_1d": (sampling_1d, ("build", "flow", "sample")),
}
