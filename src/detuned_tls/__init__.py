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
    LinearOccupation,
    TabulatedOccupation,
    average_energy_equivalence,
    bloch_rate,
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
    EvolutionError,
    FermionicReservoir,
    FluxReport,
    Occupations,
    OccupationSpec,
    SteadyStateError,
    SystemSpec,
    bose,
    detuning,
    effective_energies,
    fermi,
    photon_mode,
    resolve_occupations,
    with_parameter,
    with_parameters,
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

# The quantum treatment's names load ``quantum`` on first use, so that the
# classical commands never pay for importing it (PEP 562).
_QUANTUM = (
    "FlowMismatchError",
    "FockCutoffError",
    "HilbertLayout",
    "Liouvillian",
    "QuantumObservables",
    "QuantumSolution",
    "QuantumState",
    "SignCondition",
    "build_sector_liouvillian",
    "evolve_quantum",
    "fluxes_quantum",
    "quantum_steady_state",
    "sign_condition",
    "steady_state",
    "thermal_state",
    "trajectory",
)


def __getattr__(name: str):
    if name in _QUANTUM:
        from . import quantum

        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
