"""Spectral simulator for field-matter systems on a periodic box.

Two 3-vector fields evolve under a weighted curl pairing; matter living
on a voxel subdomain feeds back through a divergence-type constraint
that the dynamics transport for free. Shipped matter laws: classical
magnetization torque dynamics and N-level density-matrix dynamics.
"""

from .grid import (
    Coefficients,
    DomainMask,
    Grid3,
    ball_mask,
    box_mask,
    extend_by_zero,
    load_fields,
    matter_l2_norm,
    restrict_to_domain,
    save_fields,
    weighted_inner,
    weighted_norm,
)
from .spectral import (
    FourierWorkspace,
    FreePropagator,
    MollifierSpec,
    apply_B,
    curl,
    mollify,
)
from .helmholtz import (
    ProjectionSolveError,
    constraint_residual,
    project_P,
    project_complement,
    project_complement_state,
)
from .models import (
    BlochModel,
    LandauLifschitzModel,
    MatterModel,
    pack_rho,
    unpack_rho,
)
from .evolution import (
    ContractionError,
    FixedPointConfig,
    FixedPointError,
    FixedPointResult,
    IntegratorConfig,
    NumericalAbort,
    SimState,
    SimSystem,
    integrate_matter,
    make_initial,
    mollified_fixed_point,
    run,
    step,
)
from .quasistatic import (
    EtaStudyConfig,
    EtaStudyResult,
    ReducedResult,
    eta_convergence_study,
    reduced_rhs,
    run_reduced,
    slaved_field,
    with_eta,
)
from .diagnostics import (
    MonitorRecord,
    bound_monitor,
    dissipation_integral,
    fit_loglog,
    ll_energy,
    standard_monitors,
    to_monitor_records,
    write_csv,
)
from .scenario import (
    ConfigError,
    Scenario,
    band_limited_field,
    load_scenario,
    modulated_magnetization,
    parse_scenario,
)

__version__ = "0.1.0"
