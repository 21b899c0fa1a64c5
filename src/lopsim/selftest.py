"""Built-in verification suite: one named check per release criterion.

Each check re-derives its expected values through an independent route where
one exists (creation recursion vs exponential lift vs permanents, formulas vs
full simulation) and compares at a pinned tolerance. The CLI exposes the
suite as `selftest`; the pytest acceptance module runs the same functions.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .circuits import bunching_circuit, decompose, recompose
from .detectors import (
    ancilla_branches,
    conditional_click,
    conditional_no_click,
    fidelity_to_branch,
    tradeoff_sweep,
)
from .engineering import (
    DEFAULT_SEED,
    kraus_branches,
    multi_ancilla_bound_check,
    postselect,
    solve_target,
)
from .fock import PureState, dimension, enumerate_basis, overlap, tensor_with_ancilla
from .lifting import (
    ModeUnitary,
    apply,
    lift_unitary,
    lift_via_js_exponential,
    lift_via_permanents,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _two_photon_closed_form(alpha, beta):
    r2 = math.sqrt(2.0)
    return np.array(
        [
            [alpha**2, r2 * alpha * beta, beta**2],
            [-r2 * alpha * np.conj(beta), abs(alpha) ** 2 - abs(beta) ** 2,
             r2 * np.conj(alpha) * beta],
            [np.conj(beta) ** 2, -r2 * np.conj(alpha) * np.conj(beta),
             np.conj(alpha) ** 2],
        ]
    )


def _su2(theta, chi, phi):
    alpha = np.exp(1j * chi) * math.cos(theta)
    beta = np.exp(1j * phi) * math.sin(theta)
    return ModeUnitary([[alpha, beta], [-np.conj(beta), np.conj(alpha)]]), alpha, beta


def check_optimal_bunching_probability(rng, tol):
    """|11> -> |20> compiles at success probability 1/2, in under 10 s."""
    tol = 1e-6 if tol is None else tol
    t0 = time.perf_counter()
    solution = solve_target((1.0, 0.0, 0.0), seed=int(rng.integers(2**63)))
    dt = time.perf_counter() - t0
    err = abs(solution.success_probability - 0.5)
    ok = err <= tol and dt < 10.0
    return ok, f"P={solution.success_probability:.9f} err={err:.2e} time={dt:.2f}s"


def check_bunching_forward(rng, tol):
    """The bunching circuit turns |110> into |20> on the empty-ancilla outcome."""
    tol = 1e-10 if tol is None else tol
    unitary = recompose(bunching_circuit())
    basis = enumerate_basis(2, 2)
    state, prob = postselect(
        unitary, PureState.from_occupation(basis, (1, 1)), 0, 0
    )
    fid = abs(overlap(PureState.from_occupation(basis, (2, 0)), state))
    ok = fid >= 1 - tol and abs(prob - 0.5) <= tol
    return ok, f"P={prob:.12f} |overlap|={fid:.12f}"


def check_bunching_reverse(rng, tol):
    """The same circuit splits |201> into |11> on the one-photon outcome."""
    tol = 1e-10 if tol is None else tol
    unitary = recompose(bunching_circuit())
    basis = enumerate_basis(2, 2)
    state, prob = postselect(
        unitary, PureState.from_occupation(basis, (2, 0)), 1, 1
    )
    fid = abs(overlap(PureState.from_occupation(basis, (1, 1)), state))
    ok = fid >= 1 - tol and abs(prob - 0.5) <= tol
    return ok, f"P={prob:.12f} |overlap|={fid:.12f}"


def check_representation_homomorphism(rng, tol):
    """Lifting respects products on every sector up to three photons."""
    tol = 1e-10 if tol is None else tol
    worst = 0.0
    for _ in range(100):
        m1 = ModeUnitary.random(3, rng)
        m2 = ModeUnitary.random(3, rng)
        prod = m1 @ m2
        for n in range(4):
            lhs = lift_unitary(prod, n).matrix
            rhs = lift_unitary(m1, n).matrix @ lift_unitary(m2, n).matrix
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= tol, f"max deviation {worst:.2e}"


def check_oracle_equivalence(rng, tol):
    """The creation recursion, the exponential route and the permanents agree."""
    tol = 1e-8 if tol is None else tol
    worst = 0.0
    cases = [(2 + i % 3, i % 5) for i in range(100)]  # N in 2..4, n in 0..4
    for size, photons in cases:
        m = ModeUnitary.random(size, rng)
        recursion = lift_unitary(m, photons).matrix
        via_exp = lift_via_js_exponential(m, photons).matrix
        via_perm = lift_via_permanents(m, photons).matrix
        worst = max(
            worst,
            float(np.max(np.abs(recursion - via_exp))),
            float(np.max(np.abs(recursion - via_perm))),
        )
    return worst <= tol, f"max deviation {worst:.2e}"


def check_two_photon_closed_form(rng, tol):
    """The lifted 3x3 matches its closed form for special 2x2 unitaries."""
    tol = 1e-12 if tol is None else tol
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0, math.pi / 2)
        chi, phi = rng.uniform(0, 2 * math.pi, size=2)
        m, alpha, beta = _su2(theta, chi, phi)
        lifted = lift_unitary(m, 2).matrix
        worst = max(
            worst, float(np.max(np.abs(lifted - _two_photon_closed_form(alpha, beta))))
        )
    return worst <= tol, f"max deviation {worst:.2e}"


def check_dimension_law(rng, tol):
    """Basis enumeration counts match the factorial formula exactly."""
    for modes in range(1, 6):
        for photons in range(7):
            expected = math.factorial(photons + modes - 1) // (
                math.factorial(photons) * math.factorial(modes - 1)
            )
            basis = enumerate_basis(modes, photons)
            if basis.size != expected or dimension(modes, photons) != expected:
                return False, f"mismatch at modes={modes}, photons={photons}"
            if any(sum(occ) != photons for occ in basis.states):
                return False, f"bad occupation at modes={modes}, photons={photons}"
            if len(set(basis.states)) != basis.size:
                return False, f"duplicates at modes={modes}, photons={photons}"
    return True, "all sectors up to 5 modes, 6 photons"


def check_kraus_completeness(rng, tol):
    """Kraus operators of random extended maps sum to the identity."""
    tol = 1e-10 if tol is None else tol
    worst = 0.0
    for _ in range(100):
        m = ModeUnitary.random(3, rng)
        for anc in (0, 1):
            total = 2 + anc
            branches = kraus_branches(m, anc, total)
            d_in = branches[0].operator.shape[1]
            acc = np.zeros((d_in, d_in), dtype=complex)
            for br in branches:
                acc += br.operator.conj().T @ br.operator
            worst = max(worst, float(np.max(np.abs(acc - np.eye(d_in)))))
    return worst <= tol, f"max completeness defect {worst:.2e}"


def check_detector_identities(rng, tol):
    """Fidelity times outcome probability reduces to the ideal branch weights."""
    tol = 1e-10 if tol is None else tol
    basis = enumerate_basis(2, 2)
    inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
    worst = 0.0
    for _ in range(20):
        unitary = ModeUnitary.random(3, rng)
        evolved = apply(lift_unitary(unitary, 2), inp)
        branches = ancilla_branches(evolved)
        ideal0 = branches[0].squared_norm
        ideal1 = branches[1].squared_norm
        for eta in np.arange(0.1, 0.95, 0.1):
            rho0, p0 = conditional_no_click(evolved, eta)
            f0 = fidelity_to_branch(rho0, branches[0])
            worst = max(worst, abs(f0 * p0 - ideal0))
            rho1, p1 = conditional_click(evolved, eta)
            f1 = fidelity_to_branch(rho1, branches[1])
            worst = max(worst, abs(f1 * p1 - eta * ideal1))
    return worst <= tol, f"max identity defect {worst:.2e}"


def check_bunching_tradeoff_values(rng, tol):
    """No-click sweep of the bunching run hits its derived probability/fidelity triple."""
    tol = 1e-9 if tol is None else tol
    basis = enumerate_basis(2, 2)
    inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
    points = tradeoff_sweep(bunching_circuit(), inp, "no-click", [0.0, 0.5, 1.0])
    expected = [(1.0, 0.5), (0.625, 0.8), (0.5, 1.0)]
    worst = max(
        max(abs(p.probability - ep), abs(p.fidelity - ef))
        for p, (ep, ef) in zip(points, expected)
    )
    return worst <= tol, f"max deviation {worst:.2e}"


def check_extra_ancillas_bound(rng, tol):
    """Two vacuum ancillas cannot beat the single-ancilla bunching optimum."""
    tol = 1e-6 if tol is None else tol
    t0 = time.perf_counter()
    best = multi_ancilla_bound_check((1.0, 0.0, 0.0), 2)
    dt = time.perf_counter() - t0
    ok = best <= 0.5 + tol and dt < 60.0
    return ok, f"best={best:.9f} time={dt:.1f}s"


def check_orbit_ceiling(rng, tol):
    """Transition weight from |11> to |20> peaks at 1/2, strictly below 1."""
    tol = 1e-3 if tol is None else tol
    best = 0.0
    thetas = np.linspace(0.0, math.pi / 2, 121)
    angles = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    for theta in thetas:
        for chi in angles:
            for phi in angles:
                m, _, _ = _su2(theta, chi, phi)
                amp = lift_unitary(m, 2).matrix[0, 1]
                best = max(best, abs(amp) ** 2)
    ok = abs(best - 0.5) <= tol and best < 1.0
    return ok, f"grid max {best:.6f}"


def check_decomposition_roundtrip(rng, tol):
    """Decomposing and recomposing random unitaries returns them exactly."""
    tol = 1e-10 if tol is None else tol
    worst = 0.0
    for i in range(100):
        size = 2 + i % 3
        m = ModeUnitary.random(size, rng)
        rebuilt = recompose(decompose(m))
        worst = max(worst, float(np.max(np.abs(rebuilt.matrix - m.matrix))))
    return worst <= tol, f"max round-trip error {worst:.2e}"


CHECKS = [
    ("optimal-bunching-probability", check_optimal_bunching_probability),
    ("bunching-forward", check_bunching_forward),
    ("bunching-reverse", check_bunching_reverse),
    ("representation-homomorphism", check_representation_homomorphism),
    ("oracle-equivalence", check_oracle_equivalence),
    ("two-photon-closed-form", check_two_photon_closed_form),
    ("dimension-law", check_dimension_law),
    ("kraus-completeness", check_kraus_completeness),
    ("detector-identities", check_detector_identities),
    ("bunching-tradeoff-values", check_bunching_tradeoff_values),
    ("extra-ancillas-bound", check_extra_ancillas_bound),
    ("orbit-ceiling", check_orbit_ceiling),
    ("decomposition-roundtrip", check_decomposition_roundtrip),
]


def run_check(name: str, *, seed: int = DEFAULT_SEED,
              tolerance: float | None = None) -> CheckResult:
    func = dict(CHECKS)[name]
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    passed, detail = func(rng, tolerance)
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def run_all(*, seed: int = DEFAULT_SEED, tolerance: float | None = None):
    """Run every check with a fresh generator per check; returns the results."""
    return [run_check(name, seed=seed, tolerance=tolerance) for name, _ in CHECKS]
