"""Imperfect on/off photodetection on the ancilla mode.

A detector with quantum efficiency eta misses each photon independently, so
the no-click weight on k photons is w_k = (1-eta)^k and the click weight is
its complement. The evolved state splits into orthogonal ideal branches phi_k
(k photons on the ancilla) of weights n_k = <phi_k|phi_k>, and conditioning
on an outcome mixes them with weights w_k. The success probability and the
fidelity to the intended branch j therefore follow in closed form:

    P = sum_k w_k n_k,    F = w_j n_j / P,    so  F * P = w_j n_j.

`tradeoff_sweep` evaluates this formula; the conditional density matrices of
`conditional_no_click` / `conditional_click` with `fidelity_to_branch` are an
independent route to the same numbers, kept for checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, bunching_circuit, recompose
from .fock import (
    MixedState,
    MultiSectorBasis,
    PureState,
    enumerate_basis,
    tensor_with_ancilla,
)
from .lifting import ModeUnitary, evolve


def povm_no_click(eta: float, max_photons: int) -> np.ndarray:
    """Diagonal weights (1-eta)^k of the no-click POVM element, k = 0..max_photons."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"quantum efficiency must be in [0, 1], got {eta}")
    if max_photons < 0:
        raise ValueError("max_photons must be non-negative")
    return (1.0 - eta) ** np.arange(max_photons + 1)


def povm_click(eta: float, max_photons: int) -> np.ndarray:
    """Diagonal weights of the click POVM element, 1 - (1-eta)^k."""
    return 1.0 - povm_no_click(eta, max_photons)


_POVM = {"no-click": povm_no_click, "click": povm_click}


def ancilla_branches(state: PureState):
    """Split a state with one trailing ancilla mode by ancilla photon number.

    Returns the list of unnormalized computational-mode states phi_k for
    k = 0..n; branch k lives on the sector with n - k photons. Branches with
    different k are orthogonal by construction.
    """
    if state.basis.modes < 2:
        raise ValueError("need computational modes plus one ancilla mode")
    n = state.basis.photons
    comp_modes = state.basis.modes - 1
    branches = []
    for k in range(n + 1):
        comp_basis = enumerate_basis(comp_modes, n - k)
        amps = np.array([state.amplitude(occ + (k,)) for occ in comp_basis.states])
        branches.append(PureState(comp_basis, amps))
    return branches


def _condition(state: PureState, weights: np.ndarray):
    """Conditional state and probability of the outcome with POVM diagonal `weights`.

    rho mixes the ideal branches phi_k with weights w_k / P as a block-diagonal
    density matrix, where P = sum_k w_k <phi_k|phi_k>. Returns (None, 0.0) when
    the outcome cannot occur.
    """
    branches = ancilla_branches(state)
    p = float(weights @ [b.squared_norm for b in branches])
    if p < 1e-24:
        return None, 0.0
    n = len(branches) - 1
    basis = MultiSectorBasis(branches[0].basis.modes, tuple(range(n, -1, -1)))
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for k, (w, b) in enumerate(zip(weights, branches)):
        if w == 0.0 or b.squared_norm == 0.0:
            continue
        sl = basis.sector_slice(n - k)
        rho[sl, sl] = (w / p) * np.outer(b.amplitudes, b.amplitudes.conj())
    return MixedState(basis, rho), p


def conditional_no_click(state: PureState, eta: float):
    """Conditional mixed state and probability of no click; (None, 0.0) if impossible."""
    return _condition(state, povm_no_click(eta, state.basis.photons))


def conditional_click(state: PureState, eta: float):
    """Conditional mixed state and probability of a click; (None, 0.0) if impossible."""
    return _condition(state, povm_click(eta, state.basis.photons))


def fidelity_to_branch(rho: MixedState, branch: PureState) -> float:
    """Overlap <phi|rho|phi> / <phi|phi> of a conditional state with an ideal branch."""
    n2 = branch.squared_norm
    if n2 < 1e-24:
        raise ValueError("cannot take fidelity to a zero-norm branch")
    if isinstance(rho.basis, MultiSectorBasis):
        v = np.zeros(rho.basis.size, dtype=complex)
        sl = rho.basis.sector_slice(branch.basis.photons)
        v[sl] = branch.amplitudes
    else:
        if branch.basis != rho.basis:
            raise ValueError("branch and conditional state bases are incompatible")
        v = branch.amplitudes
    return float(np.vdot(v, rho.matrix @ v).real) / n2


@dataclass(frozen=True)
class TradeoffPoint:
    eta: float
    probability: float
    fidelity: float


def _as_mode_unitary(circuit) -> ModeUnitary:
    if isinstance(circuit, Circuit):
        return recompose(circuit)
    if isinstance(circuit, ModeUnitary):
        return circuit
    raise TypeError(f"expected a Circuit or ModeUnitary, got {type(circuit)!r}")


def tradeoff_sweep(circuit, input_state: PureState, protocol: str, eta_grid,
                   target_branch: int | None = None):
    """Probability and fidelity of a post-selection protocol across efficiencies.

    The input state (ancilla mode included) is evolved and split into its
    ideal branches once. Each point is then P = sum_k w_k n_k and
    F = w_j n_j / P, with w the protocol's POVM diagonal at that eta, n the
    branch weights and j the ideal branch: k = 0 for `no-click` and k = 1 for
    `click` unless `target_branch` overrides it. Points where the outcome
    cannot occur report probability 0 and NaN fidelity. An ideal branch of
    weight below 1e-24 has no fidelity at any eta and raises ValueError; this
    includes a click sweep in which no photon can reach the ancilla.
    """
    if protocol not in _POVM:
        raise ValueError(f"protocol must be 'no-click' or 'click', got {protocol!r}")
    unitary = _as_mode_unitary(circuit)
    if unitary.size != input_state.basis.modes:
        raise ValueError("circuit and input state must cover the same modes")
    evolved = evolve(unitary, input_state)
    n = np.array([b.squared_norm for b in ancilla_branches(evolved)])
    j = target_branch if target_branch is not None else (
        0 if protocol == "no-click" else 1
    )
    if not (0 <= j < len(n)):
        raise ValueError(f"target branch {j} outside 0..{len(n) - 1}")
    if n[j] < 1e-24:
        raise ValueError(
            f"ideal branch {j} has weight {n[j]:.3e}; its fidelity is undefined"
        )
    povm = _POVM[protocol]
    points = []
    for eta in eta_grid:
        w = povm(float(eta), len(n) - 1)
        p = float(w @ n)
        if p < 1e-24:
            points.append(TradeoffPoint(float(eta), 0.0, math.nan))
        else:
            points.append(TradeoffPoint(float(eta), p, float(w[j] * n[j] / p)))
    return points


def write_sweep_csv(points, stream) -> None:
    """Serialize sweep points: header + one row per point, 12 significant digits."""
    stream.write("eta,probability,fidelity\n")
    for p in points:
        stream.write(f"{p.eta:.12g},{p.probability:.12g},{p.fidelity:.12g}\n")


def bunching_tradeoff_report(eta_grid=None) -> dict:
    """Compare detection quality of the two canonical runs of the bunching circuit.

    The pair-bunching preparation (|110>, no-click) and its reversal
    (|201>, click) share the same circuit and ideal success probability 1/2;
    this reports their fidelity curves over the efficiency grid and whether
    the no-click preparation dominates. The comparison is recorded, not
    asserted: it is an observed fact about this circuit.
    """
    if eta_grid is None:
        eta_grid = np.linspace(0.0, 1.0, 21)
    circuit = bunching_circuit()
    basis = enumerate_basis(2, 2)
    forward = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
    reverse = tensor_with_ancilla(PureState.from_occupation(basis, (2, 0)), 1)
    no_click = tradeoff_sweep(circuit, forward, "no-click", eta_grid)
    click = tradeoff_sweep(circuit, reverse, "click", eta_grid)
    deltas = [
        p0.fidelity - p1.fidelity
        for p0, p1 in zip(no_click, click)
        if not (math.isnan(p0.fidelity) or math.isnan(p1.fidelity))
    ]
    return {
        "eta": [float(e) for e in eta_grid],
        "no_click_fidelity": [p.fidelity for p in no_click],
        "click_fidelity": [p.fidelity for p in click],
        "no_click_dominates": bool(deltas) and min(deltas) >= -1e-12,
    }
