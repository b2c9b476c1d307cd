"""Detuned two-level emitter coupled to electronic reservoirs and a light mode.

Classical-field, quantized-field, and mean-field treatments of the same
scenario, with steady states, energy/particle fluxes, effective transition
energies, entropy audits, frequency pulling, and dispersive inter-subband
gain.
"""

from .classical import (
    BlochState,
    ClassicalSteadyState,
    PositivityWarning,
    bloch_rhs,
    entropy_production_classical,
    evolve,
    fluxes_classical,
    steady_state_closed_form,
)
from .config import (
    ConfigError,
    build_system_spec,
    config_from_system_spec,
    parse_config,
)
from .gain import (
    AverageEnergyCheck,
    FermiOccupation,
    GainSpectrum,
    LinearOccupation,
    TabulatedOccupation,
    average_energy_equivalence,
    bloch_rate,
    gain_spectrum,
)
from .laser import (
    LaserSolution,
    MeanFieldState,
    MeanFieldTrajectory,
    evolve_meanfield,
    pulled_frequency,
    solve_lasing,
)
from .model import (
    BosonicBath,
    CavitySpec,
    ClassicalDrive,
    EffectiveEnergies,
    EnergyLevels,
    FermionicReservoir,
    FluxReport,
    Occupations,
    OccupationSpec,
    SystemSpec,
    bose,
    detuning,
    effective_energies_classical,
    effective_energies_quantum,
    fermi,
    resolve_occupations,
    with_parameter,
    with_parameters,
)
from .quantum import (
    EvolutionError,
    FockCutoffError,
    HilbertLayout,
    Liouvillian,
    QuantumObservables,
    QuantumSolution,
    QuantumState,
    SignCondition,
    SteadyStateError,
    build_sector_liouvillian,
    evolve_quantum,
    fluxes_quantum,
    quantum_steady_state,
    sector_observables,
    sign_condition,
    steady_state,
    thermal_state,
    trajectory,
)
from .thermo import (
    EntropyReport,
    RegimeReport,
    SweepColumns,
    SweepResult,
    audit_point,
    classify_regime,
    entropy_report,
    find_violation_with_bare_energies,
    recheck_with_effective_energies,
    sample_table,
    sweep,
)

__version__ = "0.1.0"
