import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lopsim.fock import PureState, dimension, enumerate_basis
from lopsim.lifting import (
    MAX_LIFT_DIM,
    AlgebraElement,
    BranchCutError,
    LiftedUnitary,
    ModeUnitary,
    NormDriftError,
    apply,
    evolve,
    js_operator_matrix,
    ladder_product_matrix,
    lift_unitary,
    lift_via_js_exponential,
    lift_via_permanents,
    permanent,
    transition_amplitude,
)


def brute_force_permanent(matrix):
    """Independent oracle: explicit sum over all permutations."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    total = 0j
    for sigma in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(sigma):
            prod *= a[i, j]
        total += prod
    return total


def su2(theta, chi, phi):
    alpha = np.exp(1j * chi) * math.cos(theta)
    beta = np.exp(1j * phi) * math.sin(theta)
    return ModeUnitary([[alpha, beta], [-np.conj(beta), np.conj(alpha)]]), alpha, beta


class TestPermanent:
    def test_scalar(self):
        assert permanent([[3.5 - 1j]]) == 3.5 - 1j

    def test_two_by_two_definition(self):
        a, b, c, d = 1 + 2j, -0.5, 3j, 2.0
        assert abs(permanent([[a, b], [c, d]]) - (a * d + b * c)) < 1e-14

    def test_all_ones_three_by_three(self):
        # frozen from the brute-force permutation-sum oracle: 3! = 6
        ones = np.ones((3, 3))
        assert brute_force_permanent(ones) == 6
        assert abs(permanent(ones) - 6) < 1e-12

    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))

    def test_matches_brute_force_on_randoms(self):
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            for _ in range(5):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                assert abs(permanent(a) - brute_force_permanent(a)) < 1e-10


class TestModeUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            ModeUnitary([[1.0, 0.1], [0.0, 1.0]])

    def test_random_is_unitary(self):
        rng = np.random.default_rng(5)
        for size in (2, 3, 4):
            m = ModeUnitary.random(size, rng).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(size))) < 1e-12

    def test_json_round_trip(self):
        rng = np.random.default_rng(6)
        m = ModeUnitary.random(3, rng)
        again = ModeUnitary.from_json(m.to_json())
        assert np.allclose(again.matrix, m.matrix)

    def test_json_size_mismatch(self):
        data = ModeUnitary.identity(2).to_json()
        data["size"] = 3
        with pytest.raises(ValueError):
            ModeUnitary.from_json(data)


class TestLiftUnitary:
    def test_identity_lifts_to_identity(self):
        for n in range(4):
            lifted = lift_unitary(ModeUnitary.identity(3), n)
            assert np.allclose(lifted.matrix, np.eye(dimension(3, n)))

    def test_vacuum_sector_is_trivial(self):
        rng = np.random.default_rng(8)
        lifted = lift_unitary(ModeUnitary.random(4, rng), 0)
        assert lifted.matrix.shape == (1, 1)
        assert abs(lifted.matrix[0, 0] - 1.0) < 1e-14

    def test_one_photon_sector_is_the_matrix(self):
        rng = np.random.default_rng(9)
        m = ModeUnitary.random(4, rng)
        assert np.max(np.abs(lift_unitary(m, 1).matrix - m.matrix)) <= 1e-14

    def test_two_photon_two_mode_closed_form(self):
        m, alpha, beta = su2(0.7, 0.3, -1.2)
        r2 = math.sqrt(2)
        expected = np.array(
            [
                [alpha**2, r2 * alpha * beta, beta**2],
                [-r2 * alpha * np.conj(beta), abs(alpha) ** 2 - abs(beta) ** 2,
                 r2 * np.conj(alpha) * beta],
                [np.conj(beta) ** 2, -r2 * np.conj(alpha) * np.conj(beta),
                 np.conj(alpha) ** 2],
            ]
        )
        assert np.max(np.abs(lift_unitary(m, 2).matrix - expected)) < 1e-14

    def test_action_on_11(self):
        m, alpha, beta = su2(0.9, 2.0, 0.4)
        basis = enumerate_basis(2, 2)
        out = apply(lift_unitary(m, 2), PureState.from_occupation(basis, (1, 1)))
        r2 = math.sqrt(2)
        assert abs(out.amplitude((2, 0)) - r2 * alpha * beta) < 1e-14
        assert abs(out.amplitude((1, 1)) - (abs(alpha) ** 2 - abs(beta) ** 2)) < 1e-14
        assert abs(out.amplitude((0, 2)) + r2 * np.conj(alpha) * np.conj(beta)) < 1e-14

    def test_homomorphism_on_random_pairs(self):
        rng = np.random.default_rng(10)
        for size in (2, 3, 4):
            for n in range(4):
                m1 = ModeUnitary.random(size, rng)
                m2 = ModeUnitary.random(size, rng)
                lhs = lift_unitary(m1 @ m2, n).matrix
                rhs = lift_unitary(m1, n).matrix @ lift_unitary(m2, n).matrix
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_result_is_unitary(self):
        rng = np.random.default_rng(12)
        lifted = lift_unitary(ModeUnitary.random(3, rng), 3).matrix
        assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(10))) < 1e-12


class TestLadderAndJs:
    def test_number_operator_diagonal(self):
        basis = enumerate_basis(3, 2)
        num0 = ladder_product_matrix(3, 2, 0, 0)
        expected = np.diag([occ[0] for occ in basis.states])
        assert np.allclose(num0, expected)

    def test_commutation_relations(self):
        # [d_ij, d_hk] = d_ik delta_hj - d_hj delta_ik, checked entrywise
        modes, photons = 3, 2
        d = {
            (i, j): ladder_product_matrix(modes, photons, i, j)
            for i in range(modes)
            for j in range(modes)
        }
        for (i, j), (h, k) in itertools.product(d.keys(), repeat=2):
            comm = d[i, j] @ d[h, k] - d[h, k] @ d[i, j]
            expected = np.zeros_like(comm)
            if h == j:
                expected = expected + d[i, k]
            if i == k:
                expected = expected - d[h, j]
            assert np.max(np.abs(comm - expected)) < 1e-12, (i, j, h, k)

    def test_zero_element_maps_to_zero(self):
        zero = AlgebraElement(np.zeros((3, 3)))
        assert np.count_nonzero(js_operator_matrix(zero, 2)) == 0

    def test_number_phase_generator(self):
        # i * diag(1, 0, ...) acts as i * (photons on mode 1)
        a = AlgebraElement(np.diag([1j, 0, 0]))
        basis = enumerate_basis(3, 2)
        expected = np.diag([1j * occ[0] for occ in basis.states])
        assert np.allclose(js_operator_matrix(a, 2), expected)

    def test_result_is_anti_hermitian(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = AlgebraElement(z - z.conj().T)
        j = js_operator_matrix(a, 3)
        assert np.max(np.abs(j + j.conj().T)) < 1e-12

    def test_rejects_non_anti_hermitian(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            AlgebraElement(np.eye(2))


class TestJsExponentialRoute:
    def test_identity(self):
        lifted = lift_via_js_exponential(ModeUnitary.identity(3), 2)
        assert np.allclose(lifted.matrix, np.eye(6))

    def test_diagonal_phases_count_photons(self):
        thetas = np.array([0.3, -1.1, 2.2])
        m = ModeUnitary(np.diag(np.exp(1j * thetas)))
        basis = enumerate_basis(3, 2)
        lifted = lift_via_js_exponential(m, 2).matrix
        expected = np.diag(
            [np.exp(1j * np.dot(occ, thetas)) for occ in basis.states]
        )
        assert np.max(np.abs(lifted - expected)) < 1e-12

    def test_agrees_with_permanent_route(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            m = ModeUnitary.random(3, rng)
            direct = lift_via_permanents(m, 2).matrix
            via_exp = lift_via_js_exponential(m, 2).matrix
            assert np.max(np.abs(direct - via_exp)) <= 1e-8

    def test_eigenvalue_on_branch_cut(self):
        swap = ModeUnitary([[0.0, 1.0], [1.0, 0.0]])
        for n in (1, 2, 3):
            direct = lift_unitary(swap, n).matrix
            via_exp = lift_via_js_exponential(swap, n).matrix
            assert np.max(np.abs(direct - via_exp)) <= 1e-10

    def test_negative_identity(self):
        m = ModeUnitary(-np.eye(3))
        direct = lift_unitary(m, 2).matrix
        via_exp = lift_via_js_exponential(m, 2).matrix
        assert np.max(np.abs(direct - via_exp)) <= 1e-10


class TestApply:
    def test_identity_leaves_state_alone(self):
        basis = enumerate_basis(2, 2)
        state = PureState(basis, [0.6, 0.0, 0.8j])
        out = apply(lift_unitary(ModeUnitary.identity(2), 2), state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(15)
        basis = enumerate_basis(3, 2)
        lifted = lift_unitary(ModeUnitary.random(3, rng), 2)
        for _ in range(10):
            amps = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            amps /= np.linalg.norm(amps)
            state = PureState(basis, amps)
            out = apply(lifted, state)
            assert abs(out.squared_norm - state.squared_norm) <= 1e-12

    def test_basis_mismatch(self):
        lifted = lift_unitary(ModeUnitary.identity(2), 2)
        state = PureState.from_occupation(enumerate_basis(2, 1), (1, 0))
        with pytest.raises(ValueError, match="mismatch"):
            apply(lifted, state)


class TestLiftedUnitaryValidation:
    def test_rejects_non_unitary_matrix(self):
        basis = enumerate_basis(2, 1)
        with pytest.raises(ValueError, match="not unitary"):
            LiftedUnitary(basis, np.array([[1.0, 0.0], [0.0, 1.1]]))


@st.composite
def superpositions(draw):
    """(unitary, state): a Haar unitary on 1-6 modes and 0-5 photons spread
    over up to three basis states with random complex amplitudes."""
    modes = draw(st.integers(1, 6))
    photons = draw(st.integers(0, 5))
    basis = enumerate_basis(modes, photons)
    support = draw(st.lists(st.integers(0, basis.size - 1), min_size=1,
                            max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(basis.size, dtype=complex)
    amps[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return ModeUnitary.random(modes, rng), PureState(basis, amps / np.linalg.norm(amps))


def _case(modes, occupation, seed=0):
    basis = enumerate_basis(modes, sum(occupation))
    rng = np.random.default_rng(seed)
    return ModeUnitary.random(modes, rng), PureState.from_occupation(basis, occupation)


class TestEvolveOracles:
    @settings(max_examples=80, deadline=None)
    @given(superpositions())
    @example(_case(4, (0, 0, 0, 0)))  # vacuum sector
    @example(_case(5, (0, 0, 1, 0, 0)))  # one photon
    @example(_case(3, (0, 5, 0)))  # every photon in one mode
    @example(_case(6, (0, 0, 0, 0, 0, 5)))
    @example(_case(1, (4,)))
    def test_recursion_matches_lift_and_permanents(self, case):
        unitary, state = case
        basis = state.basis
        out = evolve(unitary, state).amplitudes
        lifted = apply(lift_unitary(unitary, basis.photons), state).amplitudes
        support = np.flatnonzero(state.amplitudes)
        by_permanents = np.array([
            sum(transition_amplitude(unitary, occ, basis.states[c]) * state.amplitudes[c]
                for c in support)
            for occ in basis.states
        ])
        assert np.max(np.abs(out - lifted)) <= 1e-12
        assert np.max(np.abs(out - by_permanents)) <= 1e-12
        if basis.photons == 0:
            assert np.array_equal(out, state.amplitudes)
        if basis.photons == 1:  # basis state i is one photon in mode i
            assert np.max(np.abs(out - unitary.matrix @ state.amplitudes)) <= 1e-12

    def test_zero_state_stays_zero(self):
        basis = enumerate_basis(3, 2)
        out = evolve(ModeUnitary.random(3, np.random.default_rng(17)),
                     PureState(basis, np.zeros(basis.size)))
        assert np.count_nonzero(out.amplitudes) == 0

    def test_rejects_mode_mismatch(self):
        state = PureState.from_occupation(enumerate_basis(2, 1), (1, 0))
        with pytest.raises(ValueError, match="modes"):
            evolve(ModeUnitary.identity(3), state)


class TestEvolveNormCheck:
    @pytest.mark.parametrize("scale", [1.1, 0.9, math.nan])
    def test_non_unitary_matrix_raises(self, scale):
        m = ModeUnitary(scale * np.eye(2), atol=1.0)
        state = PureState.from_occupation(enumerate_basis(2, 2), (1, 1))
        with pytest.raises(NormDriftError, match="squared norm") as info:
            evolve(m, state)
        assert isinstance(info.value, ArithmeticError)


class TestFullLiftLimit:
    def test_rejects_sector_above_limit_naming_dimension(self):
        d = dimension(8, 7)
        assert d > MAX_LIFT_DIM
        with pytest.raises(ValueError, match=f"sector dimension {d}"):
            lift_unitary(ModeUnitary.identity(8), 7)


def _with_eigenphase_near_cut(modes, offsets, seed):
    """Haar-rotated unitary whose first eigenphases sit at pi - offset."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, modes)
    phases[: len(offsets)] = np.pi - np.asarray(offsets)
    v = ModeUnitary.random(modes, rng).matrix
    return ModeUnitary((v * np.exp(1j * phases)) @ v.conj().T)


class TestJsBranchCutThreshold:
    """An eigenvalue at distance ~|offset| from -1, on both sides of the 1e-12
    cut at which the JS route rotates the spectrum: the route either agrees
    with the recursion or raises BranchCutError."""

    @settings(max_examples=60, deadline=None)
    @given(
        modes=st.integers(1, 4),
        photons=st.integers(0, 3),
        offsets=st.lists(
            st.sampled_from([0.0, 1e-15, 3e-13, 9.9e-13, 1.01e-12, 3e-12, 1e-10, 1e-7])
            .flatmap(lambda x: st.sampled_from([x, -x])),
            min_size=1, max_size=2,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_or_raises_named_error(self, modes, photons, offsets, seed):
        m = _with_eigenphase_near_cut(modes, offsets[:modes], seed)
        try:
            via_exp = lift_via_js_exponential(m, photons).matrix
        except BranchCutError:
            return
        assert np.max(np.abs(via_exp - lift_unitary(m, photons).matrix)) <= 1e-8
