import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopsim.circuits import BeamSplitter, Circuit, bunching_circuit, recompose
from lopsim.detectors import (
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
from lopsim.fock import (
    MultiSectorBasis,
    PureState,
    enumerate_basis,
    overlap,
    tensor_with_ancilla,
)
from lopsim.lifting import ModeUnitary, apply, lift_unitary


def bunching_run():
    """Evolved state of the |110> bunching run."""
    basis = enumerate_basis(2, 2)
    inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
    unitary = recompose(bunching_circuit())
    return apply(lift_unitary(unitary, 2), inp)


def reverse_run():
    """Evolved state of the |201> splitting run."""
    basis = enumerate_basis(2, 2)
    inp = tensor_with_ancilla(PureState.from_occupation(basis, (2, 0)), 1)
    unitary = recompose(bunching_circuit())
    return apply(lift_unitary(unitary, 3), inp)


def tiny_leak():
    """|1,0> into a 1e-10 rad beam splitter: the ancilla branch has weight 1e-20."""
    circuit = Circuit(2, (BeamSplitter((1, 2), 1e-10),))
    return circuit, PureState.from_occupation(enumerate_basis(2, 1), (1, 0))


def random_run(rng):
    basis = enumerate_basis(2, 2)
    inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
    return apply(lift_unitary(ModeUnitary.random(3, rng), 2), inp)


class TestPovmWeights:
    def test_perfect_detector_projects_on_vacuum(self):
        assert np.allclose(povm_no_click(1.0, 4), [1, 0, 0, 0, 0])

    def test_blind_detector_never_clicks(self):
        assert np.allclose(povm_no_click(0.0, 4), np.ones(5))
        assert np.allclose(povm_click(0.0, 4), np.zeros(5))

    def test_half_efficiency_two_photons(self):
        assert povm_no_click(0.5, 2)[2] == pytest.approx(0.25)

    def test_weights_are_complementary(self):
        assert np.allclose(povm_no_click(0.3, 5) + povm_click(0.3, 5), 1.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            povm_no_click(1.2, 3)
        with pytest.raises(ValueError):
            povm_no_click(-0.1, 3)


class TestAncillaBranches:
    def test_bunching_branch_norms(self):
        # phi_1 vanishes because the middle row of the circuit has no overlap
        # with the computational columns
        branches = ancilla_branches(bunching_run())
        norms = [b.squared_norm for b in branches]
        assert norms == pytest.approx([0.5, 0.0, 0.5], abs=1e-14)

    def test_reverse_branch_norms(self):
        branches = ancilla_branches(reverse_run())
        norms = [b.squared_norm for b in branches]
        assert norms == pytest.approx([0.25, 0.5, 0.25, 0.0], abs=1e-14)

    def test_branches_conserve_norm(self):
        rng = np.random.default_rng(41)
        state = random_run(rng)
        total = sum(b.squared_norm for b in ancilla_branches(state))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_is_structural(self):
        # branches live on distinct sectors: different photon numbers
        branches = ancilla_branches(reverse_run())
        sectors = [b.basis.photons for b in branches]
        assert sectors == [3, 2, 1, 0]

    def test_vacuum_branch_self_overlap(self):
        # the unnormalized vacuum branch of the bunching run carries half
        # the weight
        phi0 = ancilla_branches(bunching_run())[0]
        assert overlap(phi0, phi0) == pytest.approx(0.5, abs=1e-14)


class TestConditionalNoClick:
    def test_perfect_detector_gives_pure_branch(self):
        state = bunching_run()
        rho, p0 = conditional_no_click(state, 1.0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        phi0 = ancilla_branches(state)[0]
        assert fidelity_to_branch(rho, phi0) == pytest.approx(1.0, abs=1e-12)

    def test_bunching_probability_formula(self):
        # derived by full simulation: P0 = 1/2 + (1 - eta)^2 / 2
        state = bunching_run()
        for eta in (0.0, 0.25, 0.5, 0.8, 1.0):
            _, p0 = conditional_no_click(state, eta)
            assert p0 == pytest.approx(0.5 + 0.5 * (1 - eta) ** 2, abs=1e-12)

    def test_blind_detector_always_silent(self):
        _, p0 = conditional_no_click(bunching_run(), 0.0)
        assert p0 == pytest.approx(1.0, abs=1e-12)

    def test_impossible_no_click_flagged(self):
        # identity circuit keeps the ancilla photon, so a perfect detector
        # always clicks
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 1)
        evolved = apply(lift_unitary(ModeUnitary.identity(3), 3), inp)
        rho, p0 = conditional_no_click(evolved, 1.0)
        assert rho is None and p0 == 0.0

    def test_density_matrix_is_normalized(self):
        rng = np.random.default_rng(42)
        rho, _ = conditional_no_click(random_run(rng), 0.35)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals.min() >= -1e-10


class TestConditionalClick:
    def test_perfect_detector_weights_all_clicking_branches_equally(self):
        state = reverse_run()
        rho, p1 = conditional_click(state, 1.0)
        norms = [b.squared_norm for b in ancilla_branches(state)]
        assert p1 == pytest.approx(norms[1] + norms[2] + norms[3], abs=1e-12)
        # the k = 0 block must be absent
        sl = rho.basis.sector_slice(3)
        assert np.count_nonzero(rho.matrix[sl, sl]) == 0

    def test_blind_detector_never_clicks_flagged(self):
        rho, p1 = conditional_click(reverse_run(), 0.0)
        assert rho is None and p1 == 0.0

    def test_outcome_below_cut_flagged(self):
        # a click at eta = 1e-10 has probability 1e-30, nonzero but below 1e-24
        circuit, inp = tiny_leak()
        evolved = apply(lift_unitary(recompose(circuit), 1), inp)
        assert conditional_click(evolved, 1e-10) == (None, 0.0)

    def test_reverse_run_ideal_branch_weight(self):
        # the splitting run reaches |11> through the one-photon branch with
        # ideal weight 1/2
        state = reverse_run()
        phi1 = ancilla_branches(state)[1]
        assert phi1.squared_norm == pytest.approx(0.5, abs=1e-12)
        target = PureState.from_occupation(enumerate_basis(2, 2), (1, 1))
        assert abs(overlap(target, phi1.normalized())) == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_no_click_identity(self):
        # F * P0 = ideal vacuum-branch weight, any efficiency, any circuit
        rng = np.random.default_rng(43)
        for _ in range(10):
            state = random_run(rng)
            phi0 = ancilla_branches(state)[0]
            for eta in np.arange(0.1, 0.95, 0.1):
                rho, p0 = conditional_no_click(state, eta)
                f = fidelity_to_branch(rho, phi0)
                assert abs(f * p0 - phi0.squared_norm) <= 1e-10

    def test_click_identity(self):
        # F * P1 = eta * ideal one-photon-branch weight
        rng = np.random.default_rng(44)
        for _ in range(10):
            state = random_run(rng)
            phi1 = ancilla_branches(state)[1]
            for eta in np.arange(0.1, 0.95, 0.1):
                rho, p1 = conditional_click(state, eta)
                f = fidelity_to_branch(rho, phi1)
                assert abs(f * p1 - eta * phi1.squared_norm) <= 1e-10

    def test_bunching_half_efficiency_value(self):
        # derived: F = 1 / (1 + (1-eta)^2) = 0.8 at eta = 0.5
        state = bunching_run()
        rho, _ = conditional_no_click(state, 0.5)
        f = fidelity_to_branch(rho, ancilla_branches(state)[0])
        assert f == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_branch_rejected(self):
        state = bunching_run()
        rho, _ = conditional_no_click(state, 0.5)
        phi1 = ancilla_branches(state)[1]  # structurally zero
        with pytest.raises(ValueError, match="zero-norm"):
            fidelity_to_branch(rho, phi1)

    def test_probability_bookkeeping(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            state = random_run(rng)
            eta = rng.uniform(0.05, 0.95)
            _, p0 = conditional_no_click(state, eta)
            _, p1 = conditional_click(state, eta)
            assert abs(p0 + p1 - 1.0) <= 1e-12


class TestTradeoffSweep:
    def test_single_point_ideal(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
        points = tradeoff_sweep(bunching_circuit(), inp, "no-click", [1.0])
        assert len(points) == 1
        assert points[0].probability == pytest.approx(0.5, abs=1e-12)
        assert points[0].fidelity == pytest.approx(1.0, abs=1e-12)

    def test_bunching_grid_values(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
        points = tradeoff_sweep(bunching_circuit(), inp, "no-click", [0.0, 0.5, 1.0])
        assert [p.probability for p in points] == pytest.approx([1.0, 0.625, 0.5],
                                                                abs=1e-12)
        assert [p.fidelity for p in points] == pytest.approx([0.5, 0.8, 1.0],
                                                             abs=1e-12)

    def test_accepts_mode_unitary_input(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
        unitary = recompose(bunching_circuit())
        points = tradeoff_sweep(unitary, inp, "no-click", [1.0])
        assert points[0].probability == pytest.approx(0.5, abs=1e-12)

    def test_click_protocol_impossible_point(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (2, 0)), 1)
        points = tradeoff_sweep(bunching_circuit(), inp, "click", [0.0, 1.0])
        assert points[0].probability == 0.0 and math.isnan(points[0].fidelity)
        assert points[1].probability == pytest.approx(0.75, abs=1e-12)
        assert points[1].fidelity == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_impossible_point_cut_is_not_exact_zero(self):
        # p = 1e-30 at eta = 1e-10 falls below the 1e-24 cut; at eta = 0.5 the
        # click probability 5e-21 stays above it
        circuit, inp = tiny_leak()
        low, half = tradeoff_sweep(circuit, inp, "click", [1e-10, 0.5])
        assert low.probability == 0.0 and math.isnan(low.fidelity)
        assert half.probability == pytest.approx(5e-21, rel=1e-9)
        assert half.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_protocol(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
        with pytest.raises(ValueError, match="protocol"):
            tradeoff_sweep(bunching_circuit(), inp, "sometimes", [0.5])

    @pytest.mark.parametrize("circuit, occupation, branch", [
        (bunching_circuit(), (1, 1, 0), 1),  # phi_1 of the bunching run vanishes
        (Circuit(3, ()), (0, 0, 2), 1),  # the ancilla keeps both photons
        (Circuit(3, ()), (1, 1, 0), 1),  # no photon ever reaches the ancilla
    ])
    def test_rejects_zero_weight_ideal_branch(self, circuit, occupation, branch):
        inp = PureState.from_occupation(enumerate_basis(3, 2), occupation)
        with pytest.raises(ValueError, match=f"ideal branch {branch} has weight"):
            tradeoff_sweep(circuit, inp, "click", [0.5])

    def test_rejects_out_of_range_branch(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
        with pytest.raises(ValueError, match="branch"):
            tradeoff_sweep(bunching_circuit(), inp, "click", [0.5],
                           target_branch=5)


@st.composite
def sweep_cases(draw):
    """A Haar circuit on 2-4 modes, any input of 1-4 photons, a protocol, an eta grid."""
    modes = draw(st.integers(2, 4))
    photons = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, photons),
                                min_size=modes - 1, max_size=modes - 1)))
    occupation = tuple(b - a for a, b in zip([0, *cuts], [*cuts, photons]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitary = ModeUnitary.random(modes, rng)
    protocol = draw(st.sampled_from(["no-click", "click"]))
    etas = draw(st.lists(st.floats(0.0, 1.0), max_size=5))
    return unitary, occupation, protocol, [0.0, 1.0, *etas]


class TestSweepMatchesDensityMatrixRoute:
    @settings(max_examples=100, deadline=None)
    @given(sweep_cases())
    def test_points_match_conditional_states(self, case):
        unitary, occupation, protocol, grid = case
        inp = PureState.from_occupation(
            enumerate_basis(unitary.size, sum(occupation)), occupation
        )
        evolved = apply(lift_unitary(unitary, sum(occupation)), inp)
        branches = ancilla_branches(evolved)
        condition = conditional_no_click if protocol == "no-click" else conditional_click
        for j, phi in enumerate(branches):
            if phi.squared_norm < 1e-24:
                with pytest.raises(ValueError, match="ideal branch"):
                    tradeoff_sweep(unitary, inp, protocol, grid, target_branch=j)
                continue
            points = tradeoff_sweep(unitary, inp, protocol, grid, target_branch=j)
            for point, eta in zip(points, grid):
                rho, p = condition(evolved, eta)
                if rho is None:
                    assert point.probability == 0.0 and math.isnan(point.fidelity)
                else:
                    assert abs(point.probability - p) <= 1e-12
                    assert abs(point.fidelity - fidelity_to_branch(rho, phi)) <= 1e-12


class TestSweepCsv:
    def test_header_rows_and_line_endings(self):
        basis = enumerate_basis(2, 2)
        inp = tensor_with_ancilla(PureState.from_occupation(basis, (1, 1)), 0)
        points = tradeoff_sweep(bunching_circuit(), inp, "no-click",
                                np.linspace(0, 1, 5))
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        text = buf.getvalue()
        lines = text.split("\n")
        assert lines[0] == "eta,probability,fidelity"
        assert len(lines) == 1 + 5 + 1  # header + rows + trailing newline
        assert "\r" not in text
        # 12 significant digits survive a parse round trip
        eta, prob, fid = lines[2].split(",")
        assert float(prob) == pytest.approx(points[1].probability, rel=1e-11)


class TestQualityComparisonReport:
    def test_report_structure_and_recorded_outcome(self):
        report = bunching_tradeoff_report(np.linspace(0.0, 1.0, 11))
        assert len(report["eta"]) == 11
        assert len(report["no_click_fidelity"]) == 11
        assert report["no_click_fidelity"][-1] == pytest.approx(1.0, abs=1e-12)
        # recorded observation, kept as data rather than a hard invariant
        assert isinstance(report["no_click_dominates"], bool)
