"""Checks of every op's output against references computed after the timed run.

Each check returns None when the output is right and a one-line reason when
it is not. References come from routes other than the one under test where
lopsim has one: the JS-exponential lift for `simulate` and `sweep`, and a
grid-plus-descent search for `compile`.
"""

import csv
import io
import json
import math

import numpy as np
import scipy.optimize

from workloads import SWEEP_STEPS

SQRT2 = math.sqrt(2.0)


def _complex_array(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def oracle_best_probability(lopsim, target, grid=10, starts=4):
    """Best success probability found by an independent search.

    A dense grid over (|alpha|, |beta|, relative phase), with gamma and delta
    eliminated through the edge constraints, seeds a penalized Nelder-Mead
    polish; each polished point is scored by full simulation. It only ever
    finds a lower bound of the true optimum, up to its own slack.
    """
    A, B, C = (complex(z) for z in target)
    target_state = lopsim.PureState(lopsim.enumerate_basis(2, 2), [A, B, C])
    fiducial = lopsim.PureState.from_occupation(lopsim.enumerate_basis(2, 2), (1, 1))

    def params_of(x):
        a, b, phi = x
        alpha, beta = complex(a), b * np.exp(1j * phi)
        return alpha, beta, A / (SQRT2 * alpha), C / (SQRT2 * beta)

    def objective(x):
        a, b, _ = x
        if not (1e-3 < a < 1 and 1e-3 < b < 1 and a * a + b * b < 1 - 1e-12):
            return 1e9
        alpha, beta, gamma, delta = params_of(x)
        cross = np.conj(alpha) * gamma + np.conj(beta) * delta
        k2 = abs(gamma) ** 2 + abs(delta) ** 2 + abs(cross) ** 2 / (1 - a * a - b * b)
        return k2 + 1e7 * abs(alpha * delta + beta * gamma - B) ** 2

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
            matrix, _ = lopsim.build_extension_matrix(*params_of(res.x))
        except ValueError:  # no completion, or rounding broke unitarity
            continue
        state, prob = lopsim.postselect(matrix, fiducial, 0, 0)
        if state is not None and abs(lopsim.overlap(target_state, state)) >= 1 - 1e-6:
            best = max(best, prob)
    return best


def check_compile(lopsim, op, output: str):
    """Replay the returned matrix; the oracle must not beat its probability.

    Comparisons are written so that a NaN anywhere fails them.
    """
    payload = json.loads(output)
    if payload["ancilla_in"] != 0 or payload["outcome"] != 0:
        return "not the vacuum-ancilla protocol"
    matrix = np.array([_complex_array(row) for row in payload["matrix"]])
    reported = float(payload["probability"])
    basis = lopsim.enumerate_basis(2, 2)
    state, prob = lopsim.postselect(
        lopsim.ModeUnitary(matrix), lopsim.PureState.from_occupation(basis, (1, 1)),
        0, 0,
    )
    if state is None:
        return "replayed branch has zero weight"
    fid = abs(lopsim.overlap(lopsim.PureState(basis, op.data["target"]), state))
    if not fid >= 1 - 1e-9:
        return f"replayed overlap {fid:.12f} < 1 - 1e-9"
    if not abs(prob - reported) <= 1e-9:
        return f"replayed probability {prob:.12f} != reported {reported:.12f}"
    best = oracle_best_probability(lopsim, op.data["target"])
    if best > reported + 1e-6:
        return f"oracle reaches {best:.9f} > reported {reported:.9f}"
    return None


def _js_evolved(lopsim, unitary, occupation):
    """Evolved amplitudes of a number state, lifted by the JS-exponential route."""
    modes, photons = len(occupation), sum(occupation)
    basis = lopsim.enumerate_basis(modes, photons)
    lifted = lopsim.lift_via_js_exponential(lopsim.ModeUnitary(unitary), photons)
    return basis, lifted.matrix[:, basis.index(occupation)]


def check_simulate(lopsim, op, output: str):
    """State and probability must match the JS-exponential route to 1e-8."""
    payload = json.loads(output)
    occ, outcome = op.data["occupation"], op.data["outcome"]
    basis, evolved = _js_evolved(lopsim, op.data["unitary"], occ)
    comp = lopsim.enumerate_basis(len(occ) - 1, sum(occ) - outcome)
    branch = np.array([evolved[basis.index(s + (outcome,))] for s in comp.states])
    prob = float(np.vdot(branch, branch).real)
    if not abs(payload["probability"] - prob) <= 1e-8:
        return f"probability {payload['probability']:.12f} != reference {prob:.12f}"
    state = payload["state"]
    if state is None:
        return "no state returned"
    if (state["modes"], state["photons"]) != (comp.modes, comp.photons):
        return "state on the wrong sector"
    err = float(np.max(np.abs(_complex_array(state["amplitudes"])
                              - branch / math.sqrt(prob))))
    if not err <= 1e-8:
        return f"state differs from reference by {err:.3e}"
    return None


def check_sweep(lopsim, op, output: str):
    """F*P must equal the ideal branch weight (times eta for `click`) to 1e-10."""
    occ, protocol = op.data["occupation"], op.data["protocol"]
    basis, evolved = _js_evolved(lopsim, op.data["unitary"], occ)
    weights = np.zeros(sum(occ) + 1)
    for s, amp in zip(basis.states, evolved):
        weights[s[-1]] += abs(amp) ** 2
    k = np.arange(len(weights))
    rows = list(csv.DictReader(io.StringIO(output)))
    grid = np.linspace(0.0, 1.0, SWEEP_STEPS)
    if len(rows) != SWEEP_STEPS:
        return f"{len(rows)} rows, expected {SWEEP_STEPS}"
    for row, eta in zip(rows, grid):
        eta_out, p, f = (float(row[key]) for key in ("eta", "probability", "fidelity"))
        if not abs(eta_out - eta) <= 1e-11:
            return f"eta {eta_out} != {eta}"
        miss = (1.0 - eta) ** k
        if protocol == "no-click":
            p_ref, fp_ref = float(miss @ weights), weights[0]
        else:
            p_ref, fp_ref = float((1.0 - miss) @ weights), eta * weights[1]
        fp = 0.0 if p == 0.0 else f * p
        if not (abs(p - p_ref) <= 1e-10 and abs(fp - fp_ref) <= 1e-10):
            return (f"eta {eta:.2f}: P={p:.12g}, F*P={fp:.12g}; "
                    f"reference {p_ref:.12g}, {fp_ref:.12g}")
    return None


def check_certify(lopsim, op, result: float):
    """Extra ancillas neither fall below nor beat the single-ancilla optimum."""
    single = lopsim.solve_target(tuple(op.data["target"])).success_probability
    if not (single - 1e-9 <= result <= single + 1e-6):
        return f"bound {result:.12f} outside [{single:.12f} - 1e-9, + 1e-6]"
    return None


CHECKS = {
    "compile": check_compile,
    "simulate": check_simulate,
    "sweep": check_sweep,
    "certify": check_certify,
}


def check(lopsim, op, output):
    """None if the op's output is right, else the reason; unreadable output is wrong."""
    try:
        return CHECKS[op.workload](lopsim, op, output)
    except Exception as exc:  # malformed output, or a matrix lopsim rejects
        return f"output rejected: {type(exc).__name__}: {exc}"
