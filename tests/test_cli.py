import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from lopsim.circuits import Circuit, bunching_circuit, decompose, recompose
from lopsim.cli import main, parse_complex
from lopsim.engineering import postselect, solve_target
from lopsim.fock import PureState, enumerate_basis, overlap
from lopsim.lifting import ModeUnitary, transition_amplitude

RT2 = math.sqrt(2.0)


def assert_numeric_failure(result, fragment):
    """Exit 3 with a one-line `error:` message, never an uncaught exception."""
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    last = result.stderr.strip().splitlines()[-1]
    assert last.startswith("error:") and fragment in last


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def bunching_file(tmp_path):
    path = tmp_path / "bunching.json"
    path.write_text(json.dumps(bunching_circuit().to_json()))
    return str(path)


@pytest.fixture
def haar8_file(tmp_path):
    path = tmp_path / "haar8.json"
    unitary = ModeUnitary.random(8, np.random.default_rng(8))
    path.write_text(json.dumps(decompose(unitary).to_json()))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(Circuit(3, ()).to_json()))
    return str(path)


class TestComplexGrammar:
    def test_plain_real(self):
        assert parse_complex("0.75") == 0.75

    def test_real_plus_imaginary(self):
        assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j

    def test_comma_pair(self):
        assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
        assert parse_complex("1, 0") == 1.0

    def test_rejects_garbage(self):
        for bad in ("", "one", "1+2", "nan", "1,2,3"):
            with pytest.raises(ValueError):
                parse_complex(bad)


class TestPrepare:
    def test_pure_20_probability(self, runner):
        result = runner.invoke(main, ["--format", "json", "prepare", "1", "0", "0"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["probability"] == pytest.approx(0.5, abs=1e-6)
        assert payload["ancilla_in"] == 0 and payload["outcome"] == 0
        # matrix is readable by the package's own parser
        unitary = ModeUnitary.from_json(
            {"size": payload["size"], "matrix": payload["matrix"]}
        )
        assert unitary.size == 3

    def test_pure_11_probability(self, runner):
        result = runner.invoke(main, ["--format", "json", "prepare", "0", "1", "0"])
        payload = json.loads(result.stdout)
        assert payload["probability"] == pytest.approx(1.0, abs=1e-9)

    def test_balanced_target_normalization_warning_and_golden(self, runner):
        result = runner.invoke(
            main, ["--format", "json", "prepare", "0.7071", "0", "0.7071"]
        )
        assert result.exit_code == 0
        assert "normalizing" in result.stderr
        payload = json.loads(result.stdout)
        assert payload["probability"] == pytest.approx(1.0, abs=1e-6)

    def test_seed_echoed_to_stderr(self, runner):
        result = runner.invoke(main, ["--seed", "77", "prepare", "1", "0", "0"])
        assert "seed: 77" in result.stderr

    def test_deterministic_given_seed(self, runner):
        args = ["--seed", "5", "--format", "json", "prepare", "0.6", "0.48i", "0.64"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout == second.stdout

    def test_text_format_mentions_circuit(self, runner):
        result = runner.invoke(main, ["prepare", "1", "0", "0"])
        assert result.exit_code == 0
        assert "success probability" in result.stdout
        assert "circuit" in result.stdout

    def test_nonzero_ancilla_rejected(self, runner):
        result = runner.invoke(main, ["prepare", "1", "0", "0", "--ancilla-in", "1"])
        assert result.exit_code == 2

    def test_zero_target_rejected(self, runner):
        result = runner.invoke(main, ["prepare", "0", "0", "0"])
        assert result.exit_code == 2

    def test_huge_amplitudes_normalize_without_overflow(self, runner):
        result = runner.invoke(
            main, ["--format", "json", "prepare", "--", "1e300", "1e300", "1e300"]
        )
        assert result.exit_code == 0, result.output
        expected = solve_target(tuple(np.ones(3) / math.sqrt(3))).success_probability
        assert json.loads(result.stdout)["probability"] == pytest.approx(
            expected, abs=1e-12
        )

    def test_library_error_exits_numeric(self, runner, monkeypatch):
        def no_circuit(*args, **kwargs):
            raise RuntimeError("no feasible circuit found")

        monkeypatch.setattr("lopsim.cli.solve_target", no_circuit)
        result = runner.invoke(main, ["prepare", "1", "0", "0"])
        assert_numeric_failure(result, "no feasible circuit")

    def test_near_degenerate_target_replays(self, runner):
        target = [1e-10, 1.0, 1e-10]
        result = runner.invoke(
            main, ["--format", "json", "prepare", "--", *map(str, target)]
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        unitary = recompose(Circuit.from_json(payload["circuit"]))
        fiducial = PureState.from_occupation(enumerate_basis(2, 2), (1, 1))
        state, prob = postselect(unitary, fiducial, 0, 0)
        assert abs(overlap(PureState(enumerate_basis(2, 2), target), state)) >= 1 - 1e-9
        assert prob == pytest.approx(payload["probability"], abs=1e-9)


class TestSimulate:
    def test_bunching_forward(self, runner, bunching_file):
        result = runner.invoke(
            main,
            ["--format", "json", "simulate", bunching_file,
             "--input", "1 1 0", "--outcome", "0"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["probability"] == pytest.approx(0.5, abs=1e-12)
        amps = payload["state"]["amplitudes"]
        assert abs(complex(*amps[0])) == pytest.approx(1.0, abs=1e-12)  # |20>

    def test_bunching_reverse(self, runner, bunching_file):
        result = runner.invoke(
            main,
            ["--format", "json", "simulate", bunching_file,
             "--input", "2 0 1", "--outcome", "1"],
        )
        payload = json.loads(result.stdout)
        assert payload["probability"] == pytest.approx(0.5, abs=1e-12)
        assert abs(complex(*payload["state"]["amplitudes"][1])) == pytest.approx(
            1.0, abs=1e-12
        )  # |11>

    def test_identity_circuit_keeps_ancilla(self, runner, identity_file):
        result = runner.invoke(
            main,
            ["--format", "json", "simulate", identity_file,
             "--input", "1 1 2", "--outcome", "2"],
        )
        payload = json.loads(result.stdout)
        assert payload["probability"] == pytest.approx(1.0, abs=1e-12)

    def test_eight_modes_six_photons_matches_permanents(self, runner, haar8_file):
        occupation = (2, 0, 1, 1, 0, 1, 0, 1)
        t0 = time.perf_counter()
        result = runner.invoke(
            main,
            ["--format", "json", "simulate", haar8_file,
             "--input", " ".join(map(str, occupation)), "--outcome", "1"],
        )
        elapsed = time.perf_counter() - t0
        assert result.exit_code == 0, result.output
        assert elapsed < 2.0
        payload = json.loads(result.stdout)
        with open(haar8_file) as fh:
            unitary = recompose(Circuit.from_json(json.load(fh)))
        comp = enumerate_basis(7, 5)
        branch = np.array([transition_amplitude(unitary, occ + (1,), occupation)
                           for occ in comp.states])
        prob = float(np.vdot(branch, branch).real)
        assert payload["probability"] == pytest.approx(prob, abs=1e-12)
        amps = np.array([complex(*z) for z in payload["state"]["amplitudes"]])
        assert np.max(np.abs(amps - branch / math.sqrt(prob))) <= 1e-10

    def test_eight_modes_eight_photons(self, runner, haar8_file):
        result = runner.invoke(
            main,
            ["--format", "json", "simulate", haar8_file,
             "--input", "1 1 1 1 1 1 1 1", "--outcome", "0"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert 0.0 < payload["probability"] < 1.0
        amps = np.array([complex(*z) for z in payload["state"]["amplitudes"]])
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-10)

    def test_missing_file_fails_usage(self, runner):
        result = runner.invoke(
            main, ["simulate", "nope.json", "--input", "1 1 0", "--outcome", "0"]
        )
        assert result.exit_code == 2

    def test_corrupt_file_fails_with_message(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main, ["simulate", str(bad), "--input", "1 1 0", "--outcome", "0"]
        )
        assert result.exit_code == 2
        assert "cannot read" in result.stderr

    def test_library_error_exits_numeric(self, runner, bunching_file):
        result = runner.invoke(
            main, ["simulate", bunching_file, "--input", "100 100 0", "--outcome", "0"]
        )
        assert_numeric_failure(result, "sector dimension")

    def test_nan_circuit_exits_numeric(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"modes": 3, "elements": '
                        '[{"kind": "bs", "modes": [1, 2], "theta": NaN}]}')
        result = runner.invoke(
            main, ["simulate", str(path), "--input", "1 1 0", "--outcome", "0"]
        )
        assert_numeric_failure(result, "not unitary")

    def test_wrong_occupation_length(self, runner, bunching_file):
        result = runner.invoke(
            main, ["simulate", bunching_file, "--input", "1 1", "--outcome", "0"]
        )
        assert result.exit_code == 2


class TestSweep:
    def test_three_step_values(self, runner, bunching_file):
        result = runner.invoke(
            main,
            ["sweep", bunching_file, "--input", "1 1 0",
             "--eta-min", "0", "--eta-max", "1", "--steps", "3"],
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "eta,probability,fidelity"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        assert [float(r[2]) for r in rows] == pytest.approx([0.5, 0.8, 1.0],
                                                            abs=1e-9)
        assert [float(r[1]) for r in rows] == pytest.approx([1.0, 0.625, 0.5],
                                                            abs=1e-9)

    def test_single_step_ideal(self, runner, bunching_file):
        result = runner.invoke(
            main,
            ["sweep", bunching_file, "--input", "1 1 0",
             "--eta-min", "1", "--eta-max", "1", "--steps", "1"],
        )
        lines = result.stdout.strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_row_count_matches_steps(self, runner, bunching_file):
        result = runner.invoke(
            main, ["sweep", bunching_file, "--input", "1 1 0", "--steps", "7"]
        )
        assert len(result.stdout.strip().split("\n")) == 8

    def test_bad_range_rejected(self, runner, bunching_file):
        result = runner.invoke(
            main,
            ["sweep", bunching_file, "--input", "1 1 0",
             "--eta-min", "0.9", "--eta-max", "0.1"],
        )
        assert result.exit_code == 2

    def test_zero_weight_ideal_branch_exits_numeric(self, runner, bunching_file):
        # no photon of |110> reaches the ancilla with exactly one photon
        result = runner.invoke(
            main, ["sweep", bunching_file, "--input", "1 1 0", "--protocol", "click"]
        )
        assert_numeric_failure(result, "ideal branch 1")

    def test_library_error_exits_numeric(self, runner, bunching_file):
        result = runner.invoke(main, ["sweep", bunching_file, "--input", "100 100 0"])
        assert_numeric_failure(result, "sector dimension")

    def test_output_file(self, runner, bunching_file, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["--output", str(out), "sweep", bunching_file, "--input", "1 1 0",
             "--steps", "3"],
        )
        assert result.exit_code == 0
        text = out.read_text()
        assert text.startswith("eta,probability,fidelity\n")
        assert text.count("\n") == 4 and "\r" not in text


class TestDecompose:
    def test_identity_empty(self, runner, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(json.dumps(ModeUnitary.identity(3).to_json()))
        result = runner.invoke(main, ["--format", "json", "decompose", str(path)])
        payload = json.loads(result.stdout)
        assert payload["elements"] == []

    def test_bunching_matrix_round_trips(self, runner, tmp_path):
        good = ModeUnitary(recompose(bunching_circuit()).matrix)
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good.to_json()))
        result = runner.invoke(main, ["--format", "json", "decompose", str(path)])
        assert result.exit_code == 0
        circuit = Circuit.from_json(json.loads(result.stdout))
        err = np.max(np.abs(recompose(circuit).matrix - good.matrix))
        assert err <= 1e-10

    def test_random_round_trips(self, runner, tmp_path):
        rng = np.random.default_rng(61)
        m = ModeUnitary.random(3, rng)
        path = tmp_path / "u3.json"
        path.write_text(json.dumps(m.to_json()))
        result = runner.invoke(main, ["--format", "json", "decompose", str(path)])
        circuit = Circuit.from_json(json.loads(result.stdout))
        assert np.max(np.abs(recompose(circuit).matrix - m.matrix)) <= 1e-10

    def test_non_unitary_rejected_with_deviation(self, runner, tmp_path):
        data = ModeUnitary.identity(2).to_json()
        data["matrix"][0][0] = [1.1, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["decompose", str(path)])
        assert result.exit_code == 3
        assert "deviation" in result.stderr


class TestSelftest:
    def test_full_suite_passes(self, runner):
        result = runner.invoke(main, ["selftest"])
        assert result.exit_code == 0
        assert result.stdout.count("PASS") == 13
        assert "13/13 checks passed" in result.stdout

    def test_corrupted_tolerance_reports_failures_by_name(self, runner):
        result = runner.invoke(main, ["--tol", "1e-30", "selftest"])
        assert result.exit_code == 3
        assert "FAIL" in result.stdout
        assert "failed:" in result.stderr
        assert "representation-homomorphism" in result.stderr

    def test_rejects_non_positive_tolerance(self, runner):
        result = runner.invoke(main, ["--tol", "-1", "selftest"])
        assert result.exit_code == 2
