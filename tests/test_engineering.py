import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lopsim.engineering import (
    ExtensionParams,
    InfeasibleExtensionError,
    _unit_factors,
    build_extension_matrix,
    kraus_branches,
    multi_ancilla_bound_check,
    postselect,
    solve_target,
    solve_target_json,
    success_probability,
)
from lopsim.fock import PureState, enumerate_basis, overlap, tensor_with_ancilla
from lopsim.lifting import ModeUnitary, apply, lift_unitary

RT2 = math.sqrt(2.0)

GOOD = np.array(
    [
        [1 / RT2, 1j / RT2, 0],
        [0, 0, 1],
        [1j / RT2, 1 / RT2, 0],
    ]
)


def fiducial():
    return PureState.from_occupation(enumerate_basis(2, 2), (1, 1))


def random_feasible_params(rng, boundary=False):
    """Sub-block entries scaled so the output branch is normalized."""
    while True:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if boundary:
            v = v / np.linalg.norm(v)
        else:
            v = v * rng.uniform(0.2, 0.9) / np.linalg.norm(v)
        alpha, beta = v
        gamma, delta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if boundary:
            # project out the forbidden component along (alpha, beta)
            cross = np.conj(alpha) * gamma + np.conj(beta) * delta
            gamma, delta = gamma - cross * alpha, delta - cross * beta
        scale = math.sqrt(
            2 * abs(alpha * gamma) ** 2
            + abs(alpha * delta + beta * gamma) ** 2
            + 2 * abs(beta * delta) ** 2
        )
        if scale > 1e-6:
            return ExtensionParams(alpha, beta, gamma / scale, delta / scale)


def simulated_success(params: ExtensionParams) -> float:
    matrix, _ = build_extension_matrix(*params.as_tuple())
    _, prob = postselect(matrix, fiducial(), 0, 0)
    return prob


class TestBuildExtensionMatrix:
    def test_bunching_subblock(self):
        matrix, k = build_extension_matrix(1 / RT2, 0.0, 1j, 0.0)
        assert abs(k**2 - 2.0) < 1e-12
        # agrees with the reference bunching unitary up to phases on the
        # ancilla row; moduli and the induced protocol must match exactly
        assert np.max(np.abs(np.abs(matrix.matrix) - np.abs(GOOD))) < 1e-12
        state, prob = postselect(matrix, fiducial(), 0, 0)
        target = PureState.from_occupation(enumerate_basis(2, 2), (2, 0))
        assert abs(prob - 0.5) < 1e-12
        assert abs(abs(overlap(target, state)) - 1.0) < 1e-12

    def test_boundary_phase_block(self):
        theta = 0.77
        matrix, k = build_extension_matrix(1.0, 0.0, 0.0, np.exp(1j * theta))
        assert abs(k - 1.0) < 1e-14
        expected = np.diag([1.0, np.exp(1j * theta), 1.0])
        assert np.max(np.abs(matrix.matrix - expected)) < 1e-14

    def test_random_params_give_unitary(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = random_feasible_params(rng)
            matrix, k = build_extension_matrix(*p.as_tuple())
            m = matrix.matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(3))) <= 1e-12
            assert abs(m[0, 0] - p.alpha) < 1e-14
            assert abs(m[1, 0] - p.beta) < 1e-14
            assert abs(m[0, 1] - p.gamma / k) < 1e-14
            assert abs(m[1, 1] - p.delta / k) < 1e-14

    def test_boundary_without_orthogonality_is_infeasible(self):
        with pytest.raises(InfeasibleExtensionError, match="boundary"):
            build_extension_matrix(1.0, 0.0, 1.0, 0.0)

    def test_overweight_first_column_rejected(self):
        with pytest.raises(InfeasibleExtensionError):
            build_extension_matrix(1.0, 0.5, 0.0, 1.0)

    def test_zero_second_column_rejected(self):
        with pytest.raises(InfeasibleExtensionError):
            build_extension_matrix(0.5, 0.5, 0.0, 0.0)


class TestSuccessProbability:
    def test_bunching_optimum_is_half(self):
        assert abs(success_probability(ExtensionParams(1 / RT2, 0, 1j, 0)) - 0.5) < 1e-12

    def test_identity_boundary_params(self):
        assert abs(success_probability(ExtensionParams(1, 0, 0, 1)) - 1.0) < 1e-14

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            success_probability(ExtensionParams(0.5, 0, 0.5, 0))

    def test_params_reject_overweight_block(self):
        with pytest.raises(InfeasibleExtensionError):
            ExtensionParams(1.0, 0.5, 0.0, 0.0)

    def test_matches_full_simulation(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            p = random_feasible_params(rng)
            assert abs(success_probability(p) - simulated_success(p)) <= 1e-10

    def test_matches_simulation_on_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_feasible_params(rng, boundary=True)
            assert abs(success_probability(p) - simulated_success(p)) <= 1e-10


class TestPostselect:
    def test_bunching_forward(self):
        state, prob = postselect(ModeUnitary(GOOD), fiducial(), 0, 0)
        assert abs(prob - 0.5) <= 1e-12
        assert abs(state.amplitude((2, 0))) == pytest.approx(1.0, abs=1e-12)

    def test_bunching_reverse(self):
        start = PureState.from_occupation(enumerate_basis(2, 2), (2, 0))
        state, prob = postselect(ModeUnitary(GOOD), start, 1, 1)
        assert abs(prob - 0.5) <= 1e-12
        assert abs(state.amplitude((1, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_identity_circuit(self):
        state, prob = postselect(ModeUnitary.identity(3), fiducial(), 0, 0)
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert state.amplitude((1, 1)) == pytest.approx(1.0)

    def test_zero_weight_branch_flagged(self):
        # identity never moves photons onto the empty ancilla
        state, prob = postselect(ModeUnitary.identity(3), fiducial(), 0, 2)
        assert state is None
        assert prob <= 1e-24

    def test_outcome_exceeding_photons_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            postselect(ModeUnitary.identity(3), fiducial(), 0, 3)

    def test_multiple_ancillas(self):
        rng = np.random.default_rng(24)
        u = ModeUnitary.random(4, rng)
        state, prob = postselect(u, fiducial(), (0, 0), (0, 0))
        assert 0 <= prob <= 1
        if state is not None:
            assert state.basis.photons == 2


class TestKrausBranches:
    def test_bunching_branch_probabilities(self):
        # derived by full simulation: the two-photon branch weights of the
        # bunching run are (1/2, 0, 1/2) over outcomes 0, 1, 2
        unitary = ModeUnitary(GOOD)
        branches = kraus_branches(unitary, 0, 2, input_state=fiducial())
        probs = [b.probability for b in branches]
        for mp, expected in [(0, 0.5), (1, 0.0), (2, 0.5)]:
            # independent route: postselect directly
            _, p = postselect(unitary, fiducial(), 0, mp)
            assert abs(p - expected) <= 1e-12
            assert abs(probs[mp] - expected) <= 1e-12

    def test_identity_has_single_branch(self):
        branches = kraus_branches(ModeUnitary.identity(3), 1, 3,
                                  input_state=fiducial())
        probs = [b.probability for b in branches]
        assert probs[1] == pytest.approx(1.0, abs=1e-14)
        assert sum(probs) == pytest.approx(1.0, abs=1e-14)

    def test_completeness_random(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            u = ModeUnitary.random(3, rng)
            for anc in (0, 1):
                branches = kraus_branches(u, anc, 2 + anc)
                d = branches[0].operator.shape[1]
                acc = sum(b.operator.conj().T @ b.operator for b in branches)
                assert np.max(np.abs(acc - np.eye(d))) <= 1e-10

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(26)
        u = ModeUnitary.random(3, rng)
        branches = kraus_branches(u, 0, 2, input_state=fiducial())
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_multi_ancilla_unitary(self):
        with pytest.raises(ValueError, match="one ancilla"):
            kraus_branches(ModeUnitary.identity(4), 0, 2)


def oracle_best_probability(target, grid=10, starts=4):
    """Independent optimum search: dense grid over (|alpha|, |beta|, phase)
    with eliminated gamma/delta and a penalized descent polish; the winner is
    scored by full simulation."""
    A, B, C = target

    def params_of(x):
        a, b, phi = x
        alpha = complex(a)
        beta = b * np.exp(1j * phi)
        gamma = A / (RT2 * alpha)
        delta = C / (RT2 * beta)
        return alpha, beta, gamma, delta

    def objective(x):
        a, b, phi = x
        if not (1e-3 < a < 1 and 1e-3 < b < 1 and a * a + b * b < 1 - 1e-12):
            return 1e9
        alpha, beta, gamma, delta = params_of(x)
        cross = np.conj(alpha) * gamma + np.conj(beta) * delta
        k2 = (abs(gamma) ** 2 + abs(delta) ** 2
              + abs(cross) ** 2 / (1 - a * a - b * b))
        resid = abs(alpha * delta + beta * gamma - B) ** 2
        return k2 + 1e7 * resid

    xs = []
    for a in np.linspace(0.08, 0.95, grid):
        for b in np.linspace(0.08, 0.95, grid):
            if a * a + b * b >= 1:
                continue
            for phi in np.linspace(0, 2 * math.pi, grid, endpoint=False):
                xs.append((objective((a, b, phi)), (a, b, phi)))
    xs.sort(key=lambda t: t[0])
    best = 0.0
    for _, x0 in xs[:starts]:
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-13},
        )
        try:
            matrix, _ = build_extension_matrix(*params_of(res.x))
        except InfeasibleExtensionError:
            continue
        state, prob = postselect(matrix, fiducial(), 0, 0)
        if state is None:
            continue
        fid = abs(overlap(PureState(enumerate_basis(2, 2), list(target)), state))
        if fid >= 1 - 1e-6:
            best = max(best, prob)
    return best


class TestSolveTarget:
    def test_pure_20_target(self):
        solution = solve_target((1.0, 0.0, 0.0))
        assert abs(solution.success_probability - 0.5) <= 1e-6
        assert np.max(np.abs(np.abs(solution.mode_unitary.matrix) - np.abs(GOOD))) < 1e-6

    def test_pure_11_target_is_identity(self):
        solution = solve_target((0.0, 1.0, 0.0))
        assert abs(solution.success_probability - 1.0) <= 1e-9
        assert np.max(np.abs(solution.mode_unitary.matrix - np.eye(3))) < 1e-9

    def test_balanced_edges_golden_probability(self):
        # golden value p* = 1: the balanced |20>+|02> target is reachable
        # deterministically (two-photon interference on a balanced splitter);
        # frozen from the grid + descent oracle below
        solution = solve_target((1 / RT2, 0.0, 1 / RT2))
        assert abs(solution.success_probability - 1.0) <= 1e-6

    def test_oracle_confirms_golden_value(self):
        best = oracle_best_probability((1 / RT2, 0.0, 1 / RT2))
        assert best == pytest.approx(1.0, abs=1e-3)

    def test_oracle_never_beats_solver(self):
        rng = np.random.default_rng(27)
        for _ in range(3):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            target = tuple(v)
            solution = solve_target(target)
            best = oracle_best_probability(target)
            assert best <= solution.success_probability + 1e-6

    def test_end_to_end_verification(self):
        rng = np.random.default_rng(28)
        for _ in range(8):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            solution = solve_target(tuple(v))
            lifted = lift_unitary(solution.mode_unitary, 2)
            evolved = apply(lifted, tensor_with_ancilla(fiducial(), 0))
            branch = np.array(
                [evolved.amplitude(occ + (0,))
                 for occ in enumerate_basis(2, 2).states]
            )
            prob = float(np.vdot(branch, branch).real)
            fid = abs(np.vdot(v, branch)) / math.sqrt(prob)
            assert fid >= 1 - 1e-9
            assert abs(prob - solution.success_probability) <= 1e-9

    def test_degenerate_edge_targets(self):
        for target in [(0.0, 0.0, 1.0), (0.6, 0.8, 0.0), (0.0, 0.8, 0.6j)]:
            solution = solve_target(target)
            state = solution.achieved_state
            fid = abs(overlap(PureState(enumerate_basis(2, 2), list(target)), state))
            assert fid >= 1 - 1e-9
            assert 0 < solution.success_probability <= 1

    def test_nearly_degenerate_targets(self):
        # tiny edge amplitudes make one constraint root huge; the per-root
        # search interval shrinks with it and must not collapse
        for eps in (1e-3, 1e-6, 1e-9):
            mid = math.sqrt(1 - 2 * eps**2)
            for target in [(mid, eps, eps), (eps, mid, eps), (eps, eps, mid)]:
                solution = solve_target(target)
                fid = abs(
                    overlap(PureState(enumerate_basis(2, 2), list(target)),
                            solution.achieved_state)
                )
                assert fid >= 1 - 1e-9
                assert 0 < solution.success_probability <= 1
        # B-dominant limit approaches the deterministic |11> preparation
        assert solve_target((1e-6, math.sqrt(1 - 2e-12), 1e-6)
                            ).success_probability >= 0.99

    @pytest.mark.parametrize("target", [(1e-10, 1.0, 1e-10), (1e-10, 1.0, 0.0)])
    def test_tiny_edges_above_degeneracy_threshold(self, target):
        # edges just above degenerate_tol leave ~1e-10 of rounding in the
        # completed matrix; the replay must still reproduce the target
        solution = solve_target(target)
        state, prob = postselect(solution.mode_unitary, fiducial(), 0, 0)
        fid = abs(overlap(PureState(enumerate_basis(2, 2), list(target)), state))
        assert fid >= 1 - 1e-9
        assert abs(prob - solution.success_probability) <= 1e-9

    def test_double_root_constraint_system(self):
        # B^2 = 2AC degenerates the elimination quadratic to a double root
        rng = np.random.default_rng(33)
        for _ in range(5):
            a = rng.uniform(0.3, 0.7)
            c = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            v = np.array([a, np.sqrt(2 * a * c), c])
            v /= np.linalg.norm(v)
            solution = solve_target(tuple(v))
            fid = abs(
                overlap(PureState(enumerate_basis(2, 2), list(v)),
                        solution.achieved_state)
            )
            assert fid >= 1 - 1e-9

    def test_pure_02_target_mirrors_pure_20(self):
        assert abs(
            solve_target((0.0, 0.0, 1.0)).success_probability - 0.5
        ) <= 1e-6

    def test_normalization_condition_at_solutions(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            p = solve_target(tuple(v)).params
            defect = abs(
                2 * abs(p.alpha * p.gamma) ** 2
                + abs(p.alpha * p.delta + p.beta * p.gamma) ** 2
                + 2 * abs(p.beta * p.delta) ** 2
                - 1.0
            )
            assert defect <= 1e-9

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError, match="not normalized"):
            solve_target((0.5, 0.0, 0.0))

    def test_accepts_pure_state_input(self):
        target = PureState(enumerate_basis(2, 2), [0.0, 1.0, 0.0])
        assert solve_target(target).success_probability == pytest.approx(1.0)

    def test_json_payload_shape(self):
        payload = solve_target((1.0, 0.0, 0.0)).to_json()
        assert set(payload) >= {"matrix", "ancilla_in", "outcome", "probability"}
        assert payload["ancilla_in"] == 0 and payload["outcome"] == 0

    def test_json_target_interface(self):
        payload = solve_target_json(
            {"A": [1.0, 0.0], "B": [0.0, 0.0], "C": [0.0, 0.0]}
        )
        assert payload["probability"] == pytest.approx(0.5, abs=1e-6)


class TestMultiAncillaBound:
    def test_two_ancillas_cannot_beat_bunching(self):
        best = multi_ancilla_bound_check((1.0, 0.0, 0.0), 2)
        assert best <= 0.5 + 1e-6

    def test_single_ancilla_reproduces_solver(self):
        rng = np.random.default_rng(30)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        target = tuple(v)
        single = solve_target(target).success_probability
        found = multi_ancilla_bound_check(target, 1)
        assert abs(found - single) <= 1e-4

    def test_identity_target_reaches_one(self):
        for count in (1, 2):
            best = multi_ancilla_bound_check((0.0, 1.0, 0.0), count)
            assert best == pytest.approx(1.0, abs=1e-7)

    def test_rejects_zero_ancillas(self):
        with pytest.raises(ValueError):
            multi_ancilla_bound_check((1.0, 0.0, 0.0), 0)

    def test_former_search_settings_are_accepted_and_ignored(self):
        target = (0.6, 0.48j, 0.64)
        assert multi_ancilla_bound_check(target, 2, 300, refine_starts=2) == (
            multi_ancilla_bound_check(target, 2)
        )


@st.composite
def normalized_targets(draw):
    """Targets whose amplitudes include exact zeros and a wide range of moduli."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    v = np.array(parts[:3]) + 1j * np.array(parts[3:])
    norm = np.linalg.norm(v)
    assume(norm > 1e-6)
    return tuple(v / norm)


@settings(max_examples=200, deadline=None)
@given(normalized_targets(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_no_contraction_beats_closed_form(target, x, y):
    # every block [sqrt(x) u, sqrt(y) v] reaches the target ray; among the
    # contractions none beats P* = (1 + c^2)/(1 + c)^2
    u, v = _unit_factors(*target)
    branch = np.array([RT2 * u[0] * v[0], u[0] * v[1] + u[1] * v[0], RT2 * u[1] * v[1]])
    c = abs(np.vdot(u, v))
    assert abs(np.vdot(target, branch)) ** 2 == pytest.approx(1 + c * c, abs=1e-12)
    p_star = (1 + c * c) / (1 + c) ** 2
    assert multi_ancilla_bound_check(target, 1) == pytest.approx(p_star, abs=1e-12)
    block = np.column_stack([math.sqrt(x) * u, math.sqrt(y) * v])
    assume(np.linalg.norm(block, 2) <= 1)
    assert x * y * (1 + c * c) <= p_star + 1e-12


def test_extra_ancillas_never_dominate():
    # sampled targets on the state sphere plus edge, double-root and
    # near-degenerate ones: two vacuum ancillas must not beat the
    # single-ancilla optimum, and the solver must reach the exact optimum
    rng = np.random.default_rng(31)
    targets = []
    for _ in range(20):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        targets.append(tuple(v))
    targets += [
        (0.6, 0.8j, 0.0),  # C = 0
        (0.0, 0.8, -0.6j),  # A = 0
        (0.5, 1 / RT2, 0.5),  # double root: B^2 = 2AC
        (1e-10, math.sqrt(1 - 2e-20), 1e-10),  # edges above degenerate_tol
        (1e-13, 1.0, 1e-13),  # edges below degenerate_tol
        (1.0, 1e-200, 0.0),  # a factor whose entries underflow when squared
    ]
    for target in targets:
        single = solve_target(target).success_probability
        multi = multi_ancilla_bound_check(target, 2)
        assert multi <= single + 1e-6
        assert single >= multi - 1e-9
        assert single <= multi + 1e-9
