"""Two two-level atoms crossing a single-mode cavity, one after the other.

Exact propagation (unitary and with cavity decay), adiabatic block spectra
with crossing tracking, transit phase integrals, asymptotic input-output
maps, and the entangling / teleportation protocols built on them.
"""

from .model import (
    BasisMismatchError,
    CavityPairError,
    DensityMatrix,
    FullBasis,
    ManifoldBasis,
    PureState,
    SubsystemBasis,
    SystemParams,
    TruncationError,
    embed,
    manifold_basis,
    restrict,
)
from .hamiltonian import (
    CouplingPair,
    coupling_pair,
    full_hamiltonian,
    manifold_hamiltonian,
)
from .spectrum import (
    CrossingEvent,
    DegenerateCouplingWarning,
    MixingAngles,
    NoCrossingError,
    SpectrumCurve,
    TrackingError,
    UnsupportedRegimeError,
    closed_form_energies,
    crossing_time,
    dark_state,
    diagonalize,
    mixing_angles,
    phi_angle,
    phi_asymptote,
    theta_angle,
    theta_big,
    track_spectrum,
    wrap_angle,
)
from .dynamics import (
    PropagationError,
    TruncationWarning,
    WrongPropagatorError,
    apply_phase_gate,
    oracle_propagate,
    propagate_lindblad,
    propagate_schrodinger,
)
from .analysis import (
    NonAdiabaticError,
    RegimeReport,
    ScatterMatrix,
    check_crossing_phase,
    check_input_output,
    entanglement_entropy,
    fidelity,
    populations,
    predicted_scatter,
    reduced_state,
    scatter_matrix,
)
from .protocols import (
    CalibrationError,
    CalibrationWarning,
    CavityStage,
    ProtocolError,
    TeleportResult,
    calibrate_coupling,
    default_stages,
    detuned_target,
    entangle_atoms,
    initial_product_state,
    maximal_target,
    teleport,
)

__version__ = "0.1.0"
