"""Nonlocal diffusion equations of gradient-flow type on the flat torus.

The package discretizes symmetric jump kernels by a finite-volume scheme,
evolves the entropy gradient flow of the resulting jump process, evaluates
the entropy / Fisher-information / kinetic-action functionals, computes
nonlocal Wasserstein distances by convex minimization, certifies
log-Sobolev decay rates, and cross-validates the deterministic solver
against a Monte Carlo jump-process oracle.
"""

from __future__ import annotations

import os


def _pin_thread_env() -> None:
    """Pin BLAS/OpenMP thread pools so results do not depend on core count.

    Multi-threaded reductions change summation order, which would make
    artifact bytes depend on the machine.  Called at import time with
    ``setdefault`` semantics so an explicit environment wins.  It only
    takes effect when ``nlw`` is imported before numpy: the BLAS library
    reads these variables once, when numpy loads it.
    """
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, "1")


_pin_thread_env()

from .config import ConfigError, ExperimentConfig, load_config, validate_config
from .discretize import (
    DiscreteSystem,
    build_system,
    discretize_kernel,
    load_system,
    pushforward_measure,
    save_system,
)
from .experiments import (
    LSICertificate,
    RefinementReport,
    RunResult,
    density_from_spec,
    lsi_certify,
    refinement_study,
    run_config,
)
from .flow import (
    IntegratorConfig,
    IntegratorError,
    Trajectory,
    edi_report,
    generator_matrix,
    solve,
    tangent_flux,
)
from .functionals import (
    DensityState,
    FluxField,
    action,
    fisher_information,
    log_mean,
    relative_entropy,
    theta_connectedness_constant,
)
from .kernels import (
    ConstantKernel,
    FractionalKernel,
    GibbsMeasure,
    UniformMeasure,
    WeightedKernel,
    extend_kernel,
    kernel_from_dict,
    measure_from_dict,
)
from .metric import (
    MetricResult,
    PathProblem,
    check_metric_axioms,
    nlw_distance,
    two_point_distance_oracle,
)
from .sampler import MarginalReport, SamplerConfig, SampleResult, compare_marginals, simulate
from .torus import GridSpec, build_grid, nearest_cell

__version__ = "0.1.0"
