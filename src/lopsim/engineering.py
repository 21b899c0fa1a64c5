"""Post-selected engineering of two-photon two-mode states with one vacuum ancilla.

Implements the unitary completion of a 2x2 sub-block with its scale factor k,
the Kraus decomposition of the ancilla-extended map, the compiler that finds a
maximal-success-probability circuit for an arbitrary normalized target, and
the exact optimum over any number of vacuum ancillas.

That optimum follows from the target's factorization (u.z)(v.z) into unit
linear factors: the top-left 2x2 block X of the mode unitary must be
[lambda*u, mu*v], the reachable blocks are the contractions ||X|| <= 1, and
the best of them has |lambda|^2 = |mu|^2 = 1/(1 + c) with c = |<u|v>|, so

    P* = (1 + c^2) / (1 + c)^2.

At that block det(I - X^dag X) = 0, so a single ancilla mode already reaches
P*: extra ancilla modes cannot beat the single-ancilla optimum.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .fock import ATOL, PureState, enumerate_basis, overlap, tensor_with_ancilla
from .lifting import ModeUnitary, evolve

DEFAULT_SEED = 123456789

_SQRT2 = math.sqrt(2.0)


class InfeasibleExtensionError(ValueError):
    """No unitary completion exists for the requested sub-block."""


def _scale_and_ancilla_row(alpha, beta, gamma, delta, *, atol=ATOL):
    """Branch-aware (k, e1, e2) for the extension columns, or raise."""
    s = abs(alpha) ** 2 + abs(beta) ** 2
    if s > 1 + atol:
        raise InfeasibleExtensionError(
            f"|alpha|^2 + |beta|^2 = {s} exceeds 1"
        )
    cross = np.conj(alpha) * gamma + np.conj(beta) * delta
    slack = 1.0 - s
    if slack <= atol:
        # First column already has unit norm, so the ancilla row of the first
        # two columns vanishes and orthogonality must hold on its own.
        if abs(cross) > math.sqrt(atol):
            raise InfeasibleExtensionError(
                "boundary case needs conj(alpha)*gamma + conj(beta)*delta = 0, "
                f"got modulus {abs(cross):.3e}"
            )
        k = math.sqrt(abs(gamma) ** 2 + abs(delta) ** 2)
        if k <= atol:
            raise InfeasibleExtensionError("second column would be zero")
        return k, 0.0 + 0j, 0.0 + 0j
    k2 = abs(gamma) ** 2 + abs(delta) ** 2 + abs(cross) ** 2 / slack
    if k2 <= atol**2:
        raise InfeasibleExtensionError("second column would be zero")
    e1 = math.sqrt(slack)
    return math.sqrt(k2), e1, cross / -e1


@dataclass(frozen=True)
class ExtensionParams:
    """The four sub-block entries of the three-mode extension, with derived scale."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        s = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if s > 1 + ATOL:
            raise InfeasibleExtensionError(
                f"|alpha|^2 + |beta|^2 = {s} exceeds 1"
            )

    @property
    def k(self) -> float:
        return _scale_and_ancilla_row(self.alpha, self.beta, self.gamma, self.delta)[0]

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma, self.delta)


def build_extension_matrix(alpha, beta, gamma, delta, *, atol=ATOL):
    """Unitary 3x3 with first column (alpha, beta, e1) and second (gamma, delta, e2)/k.

    Returns (ModeUnitary, k). The scale k makes the second column unit norm;
    the third column is completed by orthonormalization. Requires
    |alpha|^2 + |beta|^2 <= 1; on the boundary the first two columns must
    already be orthogonal, otherwise no completion exists. The completed
    matrix is replaced by its nearest unitary (its polar factor), which
    removes the rounding that near-degenerate sub-blocks leave in it.
    """
    k, e1, e2 = _scale_and_ancilla_row(alpha, beta, gamma, delta, atol=atol)
    c1 = np.array([alpha, beta, e1], dtype=complex)
    c2 = np.array([gamma / k, delta / k, e2 / k], dtype=complex)
    # Orthonormal completion: project the best-conditioned coordinate axis.
    probes = np.eye(3, dtype=complex)
    residuals = [
        p - c1 * np.vdot(c1, p) - c2 * np.vdot(c2, p) for p in probes
    ]
    norms = [np.linalg.norm(r) for r in residuals]
    best = int(np.argmax(norms))
    c3 = residuals[best] / norms[best]
    u, _, vh = np.linalg.svd(np.column_stack([c1, c2, c3]))
    return ModeUnitary(u @ vh, atol=max(atol, 1e-12)), float(k)


def _normalization_defect(alpha, beta, gamma, delta) -> float:
    value = (
        2 * abs(alpha * gamma) ** 2
        + abs(alpha * delta + beta * gamma) ** 2
        + 2 * abs(beta * delta) ** 2
    )
    return abs(value - 1.0)


def success_probability(params: ExtensionParams, *, atol: float = 1e-8) -> float:
    """Success probability 1/k^2 of the vacuum post-selection.

    The sub-block entries must produce a normalized output branch, i.e.
    2|alpha*gamma|^2 + |alpha*delta + beta*gamma|^2 + 2|beta*delta|^2 = 1.
    """
    defect = _normalization_defect(*params.as_tuple())
    if defect > atol:
        raise ValueError(
            f"sub-block entries are not normalized (defect {defect:.3e})"
        )
    return 1.0 / params.k**2


def _ancilla_pattern(value, count):
    if isinstance(value, (int, np.integer)):
        if count != 1:
            raise ValueError(
                f"got a single photon count for {count} ancilla modes; pass a tuple"
            )
        pattern = (int(value),)
    else:
        pattern = tuple(int(v) for v in value)
        if len(pattern) != count:
            raise ValueError(f"expected {count} ancilla counts, got {len(pattern)}")
    if any(v < 0 for v in pattern):
        raise ValueError("ancilla photon counts must be non-negative")
    return pattern


def postselect(mode_unitary: ModeUnitary, input_state: PureState, ancilla_in,
               ancilla_out):
    """Evolve input (x) ancilla number state, then condition on an ancilla outcome.

    Returns (state, probability): the normalized conditional state on the
    computational modes and the squared norm of the selected branch. A branch
    of (numerically) zero weight returns (None, probability).
    """
    n_comp = input_state.basis.modes
    n_anc = mode_unitary.size - n_comp
    if n_anc < 1:
        raise ValueError("the unitary must cover at least one ancilla mode")
    pattern_in = _ancilla_pattern(ancilla_in, n_anc)
    pattern_out = _ancilla_pattern(ancilla_out, n_anc)
    total = input_state.basis.photons + sum(pattern_in)
    if sum(pattern_out) > total:
        raise ValueError(
            f"outcome {pattern_out} exceeds the total of {total} photons"
        )
    extended = tensor_with_ancilla(input_state, pattern_in)
    evolved = evolve(mode_unitary, extended)
    comp_basis = enumerate_basis(n_comp, total - sum(pattern_out))
    amps = np.array(
        [evolved.amplitude(occ + pattern_out) for occ in comp_basis.states]
    )
    prob = float(np.vdot(amps, amps).real)
    if prob < 1e-24:
        return None, prob
    return PureState(comp_basis, amps / math.sqrt(prob)), prob


@dataclass
class KrausBranch:
    """One post-selection outcome of the ancilla-extended map."""

    outcome: int
    operator: np.ndarray
    probability: float | None = None


def kraus_branches(mode_unitary: ModeUnitary, ancilla_in: int, total_photons: int,
                   input_state: PureState | None = None):
    """All Kraus operators <m'|U|m> of the single-ancilla extended map.

    One branch per detected photon number m' in 0..total_photons; the branch
    operator maps the computational sector with total_photons - m photons to
    the one with total_photons - m'. Together the branches are complete:
    sum of A^dag A is the identity. Column c of every operator is read from
    the evolved input occupation c with the ancilla prepared. If an input
    state is supplied, each branch records its outcome probability for that
    input.
    """
    if mode_unitary.size != 3:
        raise ValueError("Kraus extraction is defined for one ancilla mode (3x3)")
    if not (0 <= ancilla_in <= total_photons):
        raise ValueError(
            f"ancilla preparation {ancilla_in} outside 0..{total_photons}"
        )
    in_basis = enumerate_basis(2, total_photons - ancilla_in)
    if input_state is not None and input_state.basis != in_basis:
        raise ValueError("input state lives on the wrong computational sector")
    columns = [
        evolve(mode_unitary, tensor_with_ancilla(
            PureState.from_occupation(in_basis, occ), ancilla_in))
        for occ in in_basis.states
    ]
    branches = []
    for mp in range(total_photons + 1):
        out_basis = enumerate_basis(2, total_photons - mp)
        op = np.array([
            [col.amplitude(occ_out + (mp,)) for col in columns]
            for occ_out in out_basis.states
        ])
        prob = None
        if input_state is not None:
            v = op @ input_state.amplitudes
            prob = float(np.vdot(v, v).real)
        branches.append(KrausBranch(mp, op, prob))
    return branches


@dataclass
class EngineeringSolution:
    """A compiled preparation circuit with its post-selection rule."""

    mode_unitary: ModeUnitary
    ancilla_in: int
    postselect_outcome: int
    success_probability: float
    achieved_state: PureState
    params: ExtensionParams

    def to_json(self) -> dict:
        return {
            "size": self.mode_unitary.size,
            "matrix": self.mode_unitary.to_json()["matrix"],
            "ancilla_in": self.ancilla_in,
            "outcome": self.postselect_outcome,
            "probability": self.success_probability,
        }


def _kappa_sq(alpha, beta, gamma, delta):
    """k^2 for a parameter set, +inf where no completion exists."""
    try:
        return _scale_and_ancilla_row(alpha, beta, gamma, delta)[0] ** 2
    except InfeasibleExtensionError:
        return math.inf


def _constraint_residual(params, A, B, C) -> float:
    al, be, ga, de = params
    return max(
        abs(_SQRT2 * al * ga - A),
        abs(al * de + be * ga - B),
        abs(_SQRT2 * be * de - C),
    )


def _minimize_t(f, hi):
    """Bounded scalar descent on (0, hi]; bounds scale with hi, which can be
    extreme when a constraint root is huge."""
    res = scipy.optimize.minimize_scalar(
        f, bounds=(hi * 1e-8, hi * (1.0 - 1e-12)), method="bounded",
        options={"xatol": hi * 1e-10},
    )
    return float(res.x)


def _root_family_candidates(A, B, C):
    """Exact-feasible parameter families when both edge amplitudes are nonzero.

    Eliminating gamma and delta, the middle constraint forces beta/alpha to be
    a root of A z^2 - sqrt(2) B z + C = 0; for each root the only freedom left
    is |alpha|, optimized on its interval (boundary included when reachable).
    """
    roots = sorted(np.roots([A, -_SQRT2 * B, C]), key=lambda z: (z.real, z.imag))
    candidates = []
    for z in roots:
        if abs(z) < 1e-14:
            continue
        S = 1.0 + abs(z) ** 2
        Q = abs(A) ** 2 + abs(C) ** 2 / abs(z) ** 2
        R = abs(A + C * np.conj(z) / z)

        def params_at(t, z=z):
            a = math.sqrt(t)
            al, be = a, a * z
            return (al, be, A / (_SQRT2 * al), C / (_SQRT2 * be))

        def k2(t, S=S, Q=Q, R=R):
            slack = 1.0 - S * t
            if slack <= 0:
                return math.inf
            return Q / (2 * t) + R**2 / (2 * slack)

        candidates.append(params_at(_minimize_t(k2, 1.0 / S)))
        if R > 0:
            # closed stationary point of Q/(2t) + R^2/(2(1 - S t))
            t_star = 1.0 / (S + R * math.sqrt(S / Q))
            if 0 < t_star < 1.0 / S:
                candidates.append(params_at(t_star))
        if R < 1e-9:
            candidates.append(params_at(1.0 / S))  # boundary optimum
    return candidates


def _edge_family_candidates(A, B, C):
    """Exact-feasible families when the |02> amplitude vanishes (C == 0).

    The bottom constraint splits into beta = 0 or delta = 0; each leaves a
    single modulus free, minimized numerically on its interval.
    """
    candidates = []
    # beta = 0: delta carries B directly, k^2 = P/t + W/(1-t)
    def beta0(t):
        a = math.sqrt(t)
        return (a, 0.0 + 0j, A / (_SQRT2 * a), B / a)

    candidates.append(beta0(_minimize_t(lambda t: _kappa_sq(*beta0(t)), 1.0)))
    P = abs(A) ** 2 / 2 + abs(B) ** 2
    W = abs(A) ** 2 / 2
    candidates.append(beta0(math.sqrt(P) / (math.sqrt(P) + math.sqrt(W))))
    if abs(B) > 1e-12:
        # delta = 0: beta carries B through gamma.
        S = 1.0 + 2 * abs(B) ** 2 / abs(A) ** 2

        def delta0(t):
            a = math.sqrt(t)
            return (a, _SQRT2 * a * B / A, A / (_SQRT2 * a), 0.0 + 0j)

        candidates.append(
            delta0(_minimize_t(lambda t: _kappa_sq(*delta0(t)), 1.0 / S))
        )
        t_star = 1.0 / (S + math.sqrt(S))  # closed stationary point, Q = R^2
        candidates.append(delta0(t_star))
    return candidates


def _swap_params(params):
    al, be, ga, de = params
    return (be, al, de, ga)


def _penalized_search_candidates(A, B, C, rng, starts):
    """Multistart local descent on k^2 with the middle constraint penalized.

    gamma and delta are eliminated through the edge constraints; the search
    runs over (|alpha|, |beta|, relative phase). Kept alongside the exact
    families as the general-purpose route.
    """

    def objective(x):
        a, b, phi = x
        if not (1e-6 < a < 1 and 1e-6 < b < 1):
            return 1e9
        s = a * a + b * b
        if s >= 1 - 1e-12:
            return 1e9 * (1 + s)
        al = complex(a)
        be = b * np.exp(1j * phi)
        ga = A / (_SQRT2 * al)
        de = C / (_SQRT2 * be)
        resid = abs(al * de + be * ga - B) ** 2
        return _kappa_sq(al, be, ga, de) + 1e5 * resid

    candidates = []
    for _ in range(starts):
        r = rng.uniform(0.15, 0.98)
        psi = rng.uniform(0.05, math.pi / 2 - 0.05)
        x0 = [r * math.cos(psi), r * math.sin(psi), rng.uniform(0, 2 * math.pi)]
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-12, "fatol": 1e-13},
        )
        a, b, phi = res.x
        if not (0 < a < 1 and 0 < b < 1 and a * a + b * b < 1):
            continue
        al = complex(a)
        be = b * np.exp(1j * phi)
        candidates.append((al, be, A / (_SQRT2 * al), C / (_SQRT2 * be)))
    return candidates


def _target_triple(target):
    if isinstance(target, PureState):
        basis = enumerate_basis(2, 2)
        if target.basis != basis:
            raise ValueError("target must live on the two-photon two-mode sector")
        amps = target.amplitudes
    else:
        amps = np.asarray(target, dtype=complex)
        if amps.shape != (3,):
            raise ValueError("target must be three amplitudes (|20>, |11>, |02>)")
    norm2 = float(np.vdot(amps, amps).real)
    if abs(norm2 - 1.0) > 1e-8:
        raise ValueError(f"target is not normalized (squared norm {norm2})")
    return complex(amps[0]), complex(amps[1]), complex(amps[2])


def solve_target(target, *, seed: int = DEFAULT_SEED, starts: int = 48
                 ) -> EngineeringSolution:
    """Compile a normalized target into a maximal-probability vacuum-ancilla circuit.

    Gathers candidate sub-blocks from the exact constraint-eliminated families
    and a multistart penalized descent, keeps the feasible ones, and returns
    the best verified end to end: lifting the matrix, feeding |110>, and
    post-selecting the empty ancilla must reproduce the target (overlap
    modulus within 1e-9 of 1) at success probability 1/k^2.
    """
    A, B, C = _target_triple(target)
    rng = np.random.default_rng(seed)
    degenerate_tol = 1e-12
    raw = []
    if abs(A) > degenerate_tol and abs(C) > degenerate_tol:
        raw.extend(_root_family_candidates(A, B, C))
        raw.extend(_penalized_search_candidates(A, B, C, rng, starts))
    elif abs(A) > degenerate_tol:  # C == 0
        raw.extend(_edge_family_candidates(A, B, C))
    elif abs(C) > degenerate_tol:  # A == 0, mirrored through a mode swap
        raw.extend(
            _swap_params(p) for p in _edge_family_candidates(C, B, A)
        )
    else:  # pure |11> target: reachable on the boundary with certainty
        raw.append((1.0 + 0j, 0.0 + 0j, 0.0 + 0j, B))
        raw.append((0.0 + 0j, 1.0 + 0j, B, 0.0 + 0j))

    target_basis = enumerate_basis(2, 2)
    target_state = PureState(target_basis, [A, B, C])
    fiducial = PureState.from_occupation(target_basis, (1, 1))
    verified = []
    for params in raw:
        if _constraint_residual(params, A, B, C) > 1e-9:
            continue
        try:
            matrix, k = build_extension_matrix(*params)
        except InfeasibleExtensionError:
            continue
        state, prob = postselect(matrix, fiducial, 0, 0)
        if state is None:
            continue
        fid = abs(overlap(target_state, state))
        if fid < 1 - 1e-9 or abs(prob - 1.0 / k**2) > 1e-9:
            continue
        verified.append((prob, matrix, params, state))
    if not verified:
        raise RuntimeError("no feasible circuit found; this should not happen "
                           "for a normalized target")
    best_prob = max(v[0] for v in verified)
    ties = [v for v in verified if v[0] >= best_prob - 1e-9]
    ties.sort(key=lambda v: np.linalg.norm(v[1].matrix - np.eye(3)))
    prob, matrix, params, state = ties[0]
    return EngineeringSolution(
        mode_unitary=matrix,
        ancilla_in=0,
        postselect_outcome=0,
        success_probability=prob,
        achieved_state=state,
        params=ExtensionParams(*params),
    )


def solve_target_json(data: dict, *, seed: int = DEFAULT_SEED) -> dict:
    """JSON wrapper: target {"A": [re, im], "B": ..., "C": ...} to solution dict."""
    triple = tuple(complex(*data[key]) for key in ("A", "B", "C"))
    return solve_target(triple, seed=seed).to_json()


def _unit(w):
    w = w / np.max(np.abs(w))  # rescale first so tiny entries do not underflow
    return w / np.linalg.norm(w)


def _unit_factors(A, B, C):
    """Unit vectors u, v with (u.z)(v.z) proportional to the target polynomial.

    The target A|20> + B|11> + C|02> is a*z0^2 + b*z0*z1 + c*z1^2 with
    a = A/sqrt(2), b = B, c = C/sqrt(2). With the larger of |a|, |c| leading
    and q = -(b + sqrt(b^2 - 4ac))/2 (sign chosen against cancellation), it
    equals (a*z0 - q*z1)(q*z0 - c*z1)/q; q = 0 leaves a*z0^2 alone.
    """
    a, b, c = A / _SQRT2, B, C / _SQRT2
    swap = abs(c) > abs(a)
    if swap:
        a, c = c, a
    root = np.sqrt(complex(b * b - 4 * a * c))
    if abs(b - root) > abs(b + root):
        root = -root
    q = -(b + root) / 2
    if q == 0:
        u = v = np.array([1.0, 0.0], dtype=complex)
    else:
        u, v = _unit(np.array([a, -q])), _unit(np.array([q, -c]))
    if swap:
        u, v = u[::-1], v[::-1]
    return u, v


def multi_ancilla_bound_check(target, ancilla_count: int, budget: int | None = None,
                              *, refine_starts: int | None = None) -> float:
    """Highest probability of exactly reaching the target with vacuum ancillas.

    With every ancilla in vacuum and post-selected on vacuum, |11> maps to
    (x0.z)(x1.z) for the columns x0, x1 of the top-left 2x2 block X of U.
    That branch is on the target ray exactly when X = [lambda*u, mu*v] for
    the target's unit factors u, v, with probability |lambda*mu|^2 (1 + c^2),
    c = |<u|v>|. The blocks of unitaries on two or more extra modes are
    exactly the contractions ||X|| <= 1 (Halmos dilation). For a fixed
    |lambda*mu| the largest eigenvalue of X^dag X is smallest at
    |lambda| = |mu|, where it is |lambda|^2 (1 + c); setting it to 1 gives

        P* = (1 + c^2) / (1 + c)^2

    for any number of ancillas. There det(I - X^dag X) = 0, so one ancilla
    already completes X; the completion is padded with the identity on the
    remaining ancillas and replayed through the full lifted `postselect`,
    returning probability times squared fidelity. `budget` and
    `refine_starts` tuned a former sampling search and are ignored; they stay
    so that existing callers keep working.
    """
    if ancilla_count < 1:
        raise ValueError("at least one ancilla mode is required")
    A, B, C = _target_triple(target)
    u, v = _unit_factors(A, B, C)
    scale = 1.0 / math.sqrt(1.0 + abs(np.vdot(u, v)))
    # At the default ATOL a slack 1 - scale^2 = c/(1 + c) below 1e-10 would be
    # taken as the boundary and the block rounded off the target ray.
    completion, _ = build_extension_matrix(*(scale * u), *(scale * v), atol=1e-15)
    unitary = np.eye(2 + ancilla_count, dtype=complex)
    unitary[:3, :3] = completion.matrix
    basis = enumerate_basis(2, 2)
    state, prob = postselect(
        ModeUnitary(unitary),
        PureState.from_occupation(basis, (1, 1)),
        (0,) * ancilla_count,
        (0,) * ancilla_count,
    )
    fid = abs(overlap(PureState(basis, [A, B, C]), state))
    return float(prob * fid**2)
