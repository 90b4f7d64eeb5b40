"""Numerical laboratory for coagulation kinetics with two-gender bonding arms.

Subsystems:

* :mod:`coaglab.core` - particle-type algebra and concentration states.
* :mod:`coaglab.measures` - integer-measure arithmetic and truncated series.
* :mod:`coaglab.kinetics` - truncated deterministic kinetic solver.
* :mod:`coaglab.genfun` - generating functions, critical time, inversion.
* :mod:`coaglab.exact` - closed-form solution oracles for three families.
* :mod:`coaglab.limits` - limiting state and two-type branching analysis.
* :mod:`coaglab.particles` - stochastic particle-system simulator.
* :mod:`coaglab.tables` - the one CSV table writer.
* :mod:`coaglab.cli` - batch front end.
"""

from .core import (
    ConcentrationState,
    ParticleType,
    coagulation_rate,
    decompositions,
    merge,
    moment,
    validate_and_normalize,
)
from .exact import (
    OneFemaleArm,
    RandomGender,
    TwoGender,
    concentration,
    initial_state,
    limiting_mass_concentration,
    live_types,
    size_biased,
)
from .genfun import ConvergenceError, CriticalData, InitialGF
from .kinetics import (
    IntegrationError,
    Observables,
    SolverSettings,
    Trajectory,
    TruncatedSystem,
    TruncationPolicy,
    integrate,
    rate_map,
    reachable_types,
    truncation_error_estimate,
)
from .limits import (
    GWConfig,
    GWSample,
    LimitState,
    degeneracy_reasons,
    gw_progeny_pmf_series,
    gw_sample_total_progeny,
    h_infinity,
    initial_arm_measure,
    limiting_concentrations,
)
from .measures import (
    Measure1D,
    Measure2D,
    TruncatedSeries,
    convolution_power,
    convolve,
    diamond,
    size_biased_laws,
)
from .particles import (
    ParticleSystemState,
    SimulationRun,
    empirical_error,
    first_event_distribution,
    run_simulation,
)

__version__ = "0.1.0"
