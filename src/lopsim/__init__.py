"""Simulation and compilation toolkit for linear optical passive circuits.

Photon-number-preserving mode transformations act on each fixed-photon-number
sector; this package builds that action, compiles target two-photon states
into post-selected circuits with one vacuum ancilla, and models the
probability/fidelity trade-off of imperfect on/off photodetection.
"""

from .circuits import (
    BeamSplitter,
    Circuit,
    PhaseShifter,
    Swap,
    bunching_circuit,
    decompose,
    element_matrix,
    recompose,
)
from .detectors import (
    TradeoffPoint,
    ancilla_branches,
    bunching_tradeoff_report,
    conditional_click,
    conditional_no_click,
    fidelity_to_branch,
    povm_click,
    povm_no_click,
    tradeoff_sweep,
    write_sweep_csv,
)
from .engineering import (
    DEFAULT_SEED,
    EngineeringSolution,
    ExtensionParams,
    InfeasibleExtensionError,
    KrausBranch,
    build_extension_matrix,
    kraus_branches,
    multi_ancilla_bound_check,
    postselect,
    solve_target,
    solve_target_json,
    success_probability,
)
from .fock import (
    ATOL,
    FockBasis,
    MixedState,
    MultiSectorBasis,
    PureState,
    dimension,
    enumerate_basis,
    overlap,
    tensor_with_ancilla,
)
from .lifting import (
    AlgebraElement,
    LiftedUnitary,
    ModeUnitary,
    apply,
    js_operator_matrix,
    ladder_product_matrix,
    lift_unitary,
    lift_via_js_exponential,
    permanent,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "DEFAULT_SEED",
    "AlgebraElement",
    "BeamSplitter",
    "Circuit",
    "EngineeringSolution",
    "ExtensionParams",
    "FockBasis",
    "InfeasibleExtensionError",
    "KrausBranch",
    "LiftedUnitary",
    "MixedState",
    "ModeUnitary",
    "MultiSectorBasis",
    "PhaseShifter",
    "PureState",
    "Swap",
    "TradeoffPoint",
    "ancilla_branches",
    "apply",
    "build_extension_matrix",
    "bunching_circuit",
    "bunching_tradeoff_report",
    "conditional_click",
    "conditional_no_click",
    "decompose",
    "dimension",
    "element_matrix",
    "enumerate_basis",
    "fidelity_to_branch",
    "js_operator_matrix",
    "kraus_branches",
    "ladder_product_matrix",
    "lift_unitary",
    "lift_via_js_exponential",
    "multi_ancilla_bound_check",
    "overlap",
    "permanent",
    "postselect",
    "povm_click",
    "povm_no_click",
    "recompose",
    "solve_target",
    "solve_target_json",
    "success_probability",
    "tensor_with_ancilla",
    "tradeoff_sweep",
    "write_sweep_csv",
]
