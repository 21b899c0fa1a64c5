"""Lifting a mode unitary to its action on a fixed-photon-number sector.

The production route is the creation-operator recursion: a passive unitary
maps creation operators linearly, U a_j^dag U^dag = sum_i M_ij a_i^dag, so
the n-photon action follows from the one-photon action, one photon at a time
(the SLOS scheme of Heurtel et al., arXiv:2206.10549). `evolve` lifts only
the columns a state's support needs; `lift_unitary` lifts all of them.

Two independent routes serve as oracles in tests and the self-test suite:
multiphoton transition amplitudes via Ryser permanents (`transition_amplitude`,
`lift_via_permanents`), and exponentiation of the number-conserving quadratic
operator built from the matrix logarithm (`lift_via_js_exponential`).
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg

from .fock import ATOL, PureState, dimension, enumerate_basis

# Largest sector whose full d x d action `lift_unitary` builds. On a 2-vCPU
# host, d = 1716 (8 modes, 6 photons) takes 0.8-1.4 s, about half of it in the
# O(d^3) unitarity check, and a 47 MB matrix; d = 3003 takes 5-7.6 s, 144 MB.
MAX_LIFT_DIM = 2000


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix (Ryser's formula, Gray-code order).

    Exact-formula equivalent to the permutation sum, at cost O(2^k k). The
    empty 0x0 matrix has permanent 1.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if k == 0:
        return 1.0 + 0j
    cols = [a[:, j].tolist() for j in range(k)]
    row_sums = [0j] * k
    total = 0j
    gray_prev = 0
    sign = 1  # (-1)^{|S|} tracked incrementally
    for g in range(1, 1 << k):
        gray = g ^ (g >> 1)
        j = (gray ^ gray_prev).bit_length() - 1
        col = cols[j]
        if gray > gray_prev:
            for i in range(k):
                row_sums[i] += col[i]
        else:
            for i in range(k):
                row_sums[i] -= col[i]
        sign = -sign
        gray_prev = gray
        prod = 1.0 + 0j
        for s in row_sums:
            prod *= s
        total += sign * prod
    return ((-1) ** k) * total


class ModeUnitary:
    """An NxN unitary acting on the mode operators; unitarity checked on construction."""

    def __init__(self, matrix, *, atol: float = ATOL):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"mode unitary must be square, got shape {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > atol:
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
        self.matrix = m

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, size: int) -> "ModeUnitary":
        return cls(np.eye(size))

    @classmethod
    def random(cls, size: int, rng: np.random.Generator) -> "ModeUnitary":
        """Haar-distributed unitary (QR of a complex Ginibre matrix, phase-fixed)."""
        z = (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        q, r = np.linalg.qr(z / math.sqrt(2))
        d = np.diag(r)
        return cls(q * (d / np.abs(d)))

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data: dict, *, atol: float = ATOL) -> "ModeUnitary":
        m = [[complex(re, im) for re, im in row] for row in data["matrix"]]
        if len(m) != int(data["size"]):
            raise ValueError("size field does not match the matrix")
        return cls(m, atol=atol)

    def __matmul__(self, other):
        return ModeUnitary(self.matrix @ other.matrix)

    def __repr__(self):
        return f"ModeUnitary(size={self.size})"


class AlgebraElement:
    """An anti-Hermitian NxN matrix, i.e. a tangent direction of the unitary group."""

    def __init__(self, matrix, *, atol: float = ATOL):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"algebra element must be square, got shape {m.shape}")
        dev = np.max(np.abs(m + m.conj().T))
        if dev > atol:
            raise ValueError(f"matrix is not anti-Hermitian (max deviation {dev:.3e})")
        self.matrix = m

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class LiftedUnitary:
    """The action of a mode unitary on one photon-number sector."""

    def __init__(self, basis, matrix, *, atol: float = ATOL):
        self.basis = basis
        self.matrix = np.array(matrix, dtype=complex)
        d = basis.size
        if self.matrix.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {self.matrix.shape}")
        dev = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(d)))
        if dev > atol:
            raise ValueError(f"lifted matrix is not unitary (max deviation {dev:.3e})")

    def __repr__(self):
        return f"LiftedUnitary(modes={self.basis.modes}, photons={self.basis.photons})"


@lru_cache(maxsize=None)
def _creation_tables(modes: int, photons: int):
    """Where each a_i^dag sends the basis of the (photons - 1)-photon sector.

    Row i of `targets` holds the index in the photons-photon sector of
    occ + e_i for every occupation occ one photon below, and row i of
    `weights` its coefficient sqrt(occ_i + 1). Within a row the targets are
    distinct. The tables are read-only, as every caller shares them.
    """
    below = enumerate_basis(modes, photons - 1).states
    index = enumerate_basis(modes, photons).index
    targets = np.empty((modes, len(below)), dtype=np.intp)
    weights = np.empty((modes, len(below)))
    for r, occ in enumerate(below):
        for i in range(modes):
            targets[i, r] = index(occ[:i] + (occ[i] + 1,) + occ[i + 1:])
            weights[i, r] = math.sqrt(occ[i] + 1)
    targets.flags.writeable = False
    weights.flags.writeable = False
    return targets, weights


def _lift_columns(matrix: np.ndarray, photons: int, occupations) -> np.ndarray:
    """Columns U|occ> of the sector action, one per requested occupation.

    A passive unitary maps creation operators linearly,
    U a_j^dag U^dag = sum_i M_ij a_i^dag. With j the last occupied mode of
    occ and p = occ - e_j, this gives

        U|occ> = (1/sqrt(occ_j)) sum_i M_ij a_i^dag U|p>,

    so the columns are built level by level from the vacuum, photon by
    photon, each level evolving only the prefixes the requested columns
    need (a single chain for one number state). The result has one column
    per occupation, in the order given, over the photons-photon basis.
    """
    modes = matrix.shape[0]
    levels = []  # top level first: (parent position, mode j, occ_j) per column
    wanted = list(occupations)
    for _ in range(photons):
        parents = {}
        level = []
        for occ in wanted:
            j = max(i for i, count in enumerate(occ) if count)
            parent = occ[:j] + (occ[j] - 1,) + occ[j + 1:]
            level.append((parents.setdefault(parent, len(parents)), j, occ[j]))
        levels.append(level)
        wanted = list(parents)
    columns = np.ones((1, len(wanted)), dtype=complex)
    for k, level in enumerate(reversed(levels), start=1):
        targets, weights = _creation_tables(modes, k)
        parent, mode, count = (np.array(v) for v in zip(*level))
        prev = columns[:, parent] / np.sqrt(count)
        coupling = matrix[:, mode]
        columns = np.zeros((dimension(modes, k), len(level)), dtype=complex)
        for i in range(modes):
            columns[targets[i]] += weights[i][:, None] * prev * coupling[i]
    return columns


class NormDriftError(ArithmeticError):
    """Evolution changed a state's norm: the mode matrix is not unitary."""


def evolve(mode_unitary: ModeUnitary, state: PureState) -> PureState:
    """U|psi> for one state, lifting only the columns of its support.

    This is the production route for evolving states: a number state costs
    one chain of creation-operator steps, never the d x d sector matrix. In
    place of the O(d^3) unitarity check of `LiftedUnitary` it checks that
    the squared norm is kept within ATOL and raises NormDriftError if not.
    """
    basis = state.basis
    if basis.modes != mode_unitary.size:
        raise ValueError(
            f"state on {basis.modes} modes, unitary on {mode_unitary.size}"
        )
    support = np.flatnonzero(state.amplitudes)
    if support.size == 0:
        return PureState(basis, state.amplitudes)
    columns = _lift_columns(
        mode_unitary.matrix, basis.photons, [basis.states[i] for i in support]
    )
    amplitudes = columns @ state.amplitudes[support]
    drift = abs(float(np.vdot(amplitudes, amplitudes).real) - state.squared_norm)
    if not drift <= ATOL:  # a NaN drift fails too
        raise NormDriftError(
            f"evolution changed the squared norm by {drift:.3e}; "
            "the mode matrix is not unitary"
        )
    return PureState(basis, amplitudes)


def lift_unitary(mode_unitary: ModeUnitary, photons: int) -> LiftedUnitary:
    """Sector action of a mode unitary, every column by the creation recursion.

    Rows index output occupations, columns input occupations, so amplitude
    vectors transform by plain matrix-vector multiplication. The vacuum
    sector is the 1x1 identity and the one-photon sector is the matrix
    itself. Sectors above MAX_LIFT_DIM raise ValueError; `evolve` serves
    single states up to the basis limit.
    """
    d = dimension(mode_unitary.size, photons)
    if d > MAX_LIFT_DIM:
        raise ValueError(
            f"sector dimension {d} exceeds the full-lift limit {MAX_LIFT_DIM}; "
            "use evolve for a single state"
        )
    basis = enumerate_basis(mode_unitary.size, photons)
    return LiftedUnitary(
        basis, _lift_columns(mode_unitary.matrix, photons, basis.states)
    )


def transition_amplitude(mode_unitary: ModeUnitary, out_occ, in_occ) -> complex:
    """<out|U|in> from the permanent formula, as an oracle for the recursion.

    Equals perm(M[out|in]) / sqrt(prod out_i! prod in_j!), where M[out|in]
    repeats row i out_i times and column j in_j times.
    """
    rows = np.repeat(np.arange(mode_unitary.size), out_occ)
    cols = np.repeat(np.arange(mode_unitary.size), in_occ)
    norm = math.sqrt(
        math.prod(math.factorial(k) for k in out_occ)
        * math.prod(math.factorial(k) for k in in_occ)
    )
    return permanent(mode_unitary.matrix[np.ix_(rows, cols)]) / norm


def lift_via_permanents(mode_unitary: ModeUnitary, photons: int) -> LiftedUnitary:
    """Sector action with every entry from `transition_amplitude` (d^2 permanents)."""
    basis = enumerate_basis(mode_unitary.size, photons)
    return LiftedUnitary(basis, [
        [transition_amplitude(mode_unitary, out, inp) for inp in basis.states]
        for out in basis.states
    ])


def ladder_product_matrix(modes: int, photons: int, i: int, j: int) -> np.ndarray:
    """Matrix of the normal-ordered hop operator a_i^dag a_j on one sector.

    Acting on an occupation vector it moves one photon from mode j to mode i
    with amplitude sqrt(occ_j (occ_i + 1)) (occ_i read after the removal);
    for i == j this is the mode-i number operator.
    """
    basis = enumerate_basis(modes, photons)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for c, occ in enumerate(basis.states):
        if occ[j] == 0:
            continue
        tgt = list(occ)
        tgt[j] -= 1
        coeff = math.sqrt(occ[j] * (tgt[i] + 1))
        tgt[i] += 1
        out[basis.index(tgt), c] += coeff
    return out


def js_operator_matrix(element: AlgebraElement, photons: int) -> np.ndarray:
    """Sector matrix of sum_ij A_ij a_i^dag a_j for an anti-Hermitian A.

    The result is anti-Hermitian and exponentiates to the lifted unitary of
    exp(A) on the same sector.
    """
    A = element.matrix
    N = element.size
    d = enumerate_basis(N, photons).size
    out = np.zeros((d, d), dtype=complex)
    for i in range(N):
        for j in range(N):
            if A[i, j] != 0:
                out += A[i, j] * ladder_product_matrix(N, photons, i, j)
    return out


def _principal_log(M: np.ndarray) -> np.ndarray:
    """Anti-Hermitian logarithm of a unitary via its (diagonal) Schur form."""
    T, Z = scipy.linalg.schur(M, output="complex")
    thetas = np.angle(np.diag(T))
    return (Z * (1j * thetas)) @ Z.conj().T


def _cut_avoiding_phase(eigenphases: np.ndarray) -> float:
    """Global phase delta rotating all eigenvalues away from the -1 branch cut.

    Picks the midpoint of the largest circular gap of the spectrum and rotates
    it onto the cut. The largest gap of N phases is at least 2*pi/N wide, so
    the rotated spectrum stays clear of -1.
    """
    phases = np.sort(np.mod(eigenphases, 2 * np.pi))
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2 * np.pi]]))
    g = int(np.argmax(gaps))
    midpoint = phases[g] + gaps[g] / 2
    return float(np.pi - midpoint)


class BranchCutError(ArithmeticError):
    """No global phase moves the spectrum clear of the logarithm's branch cut."""


def lift_via_js_exponential(mode_unitary: ModeUnitary, photons: int) -> LiftedUnitary:
    """Sector action computed as exp of the lifted logarithm.

    Takes the principal matrix logarithm of M; if an eigenvalue sits within
    1e-12 of -1 the branch cut is moved by a global phase rotation, which on
    the n-photon sector is undone by the known phase law exp(i n delta).
    """
    M = mode_unitary.matrix
    eigs = np.linalg.eigvals(M)
    phase = 0.0
    if np.min(np.abs(eigs + 1)) < 1e-12:
        phase = _cut_avoiding_phase(np.angle(eigs))
        M = np.exp(1j * phase) * M
        eigs = eigs * np.exp(1j * phase)
        if np.min(np.abs(eigs + 1)) < 1e-12:
            raise BranchCutError(
                "could not move the logarithm branch cut away from the spectrum"
            )
    A = AlgebraElement(_principal_log(M), atol=1e-8)
    lifted = scipy.linalg.expm(js_operator_matrix(A, photons))
    if phase != 0.0:
        lifted = np.exp(-1j * photons * phase) * lifted
    basis = enumerate_basis(mode_unitary.size, photons)
    return LiftedUnitary(basis, lifted, atol=1e-8)


def apply(lifted: LiftedUnitary, state: PureState) -> PureState:
    """Apply a lifted unitary to a state on the same sector."""
    if state.basis != lifted.basis:
        raise ValueError(
            f"basis mismatch: state on {state.basis!r}, operator on {lifted.basis!r}"
        )
    return PureState(lifted.basis, lifted.matrix @ state.amplitudes)
