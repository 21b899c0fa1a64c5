"""Seeded inputs for the four workloads, generated block by block.

Every workload draws its inputs in fixed-composition blocks: each block holds
the same number of inputs of each kind, in a seeded order, with seeded values.
A run then sees the same mix whatever the seed, which keeps throughput steady
across seeds, while the values themselves differ from seed to seed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("compile", "simulate", "sweep", "certify")

SWEEP_STEPS = 101

# Settings of the slow multi-ancilla test in the package's test suite.
CERTIFY_ANCILLAS = 2
CERTIFY_BUDGET = 300
CERTIFY_REFINE_STARTS = 2

# compile: kinds per block of 18 targets (72% generic). Every op of a workload
# must succeed, so near-degenerate targets with an edge above the compiler's
# degeneracy threshold, which fail today (ROADMAP item 4), are not in the mix;
# KNOWN_DEFECT_TARGETS keep the defect in every run's record.
COMPILE_MIX = (
    ("generic", 13),
    ("edge_c0", 1),
    ("edge_a0", 1),
    ("pure11", 1),
    ("double_root", 1),
    ("near_degenerate_below", 1),
)
# Edge amplitudes of near-degenerate targets lie between these two, below the
# compiler's degeneracy threshold.
NEAR_DEGENERATE_MIN = 1e-13
DEGENERATE_TOL = 1e-12

# Valid targets on which `prepare` raises "not unitary" today (ROADMAP item 4).
# They are run after the timed ops, outside `attempted` and `failed`.
KNOWN_DEFECT_TARGETS = ((1e-10, 1.0, 1e-10), (1e-10, 1.0, 0.0))

# simulate: ((modes, photons), count) per block of 10 runs; modes and photons
# include the ancilla mode. Sector dimension runs from 20 to 126; the shapes
# repeat at different rates.
SIMULATE_MIX = (
    ((4, 3), 2),
    ((5, 3), 2),
    ((3, 6), 1),
    ((4, 4), 2),
    ((6, 3), 1),
    ((5, 4), 1),
    ((6, 4), 1),
)

# sweep: every shape with both protocols, one block of 10 sweeps.
SWEEP_SHAPES = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3))
SWEEP_PROTOCOLS = ("no-click", "click")


@dataclass
class Op:
    """One request: CLI arguments (or certify's target) and what the check needs."""

    workload: str
    category: str
    args: list | None  # argv for lopsim.cli.main; None for certify
    data: dict
    items: int = 1  # units counted by items_per_s
    block: int = 0  # index of the fixed-composition block the op came from


def complex_literal(z: complex) -> str:
    """'re,im' with every digit, as the CLI's complex parser reads it."""
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _complex_normal(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def _phase(rng):
    return np.exp(2j * math.pi * rng.random())


def haar_unitary(rng, size: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(_complex_normal(rng, (size, size)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def compile_target(rng, kind: str) -> np.ndarray:
    """A normalized target (A, B, C) of the given kind."""
    if kind == "generic":
        return _unit(_complex_normal(rng, 3))
    if kind == "edge_c0":
        a, b = _complex_normal(rng, 2)
        return _unit([a, b, 0.0])
    if kind == "edge_a0":
        b, c = _complex_normal(rng, 2)
        return _unit([0.0, b, c])
    if kind == "pure11":
        return np.array([0.0, _phase(rng), 0.0])
    if kind == "double_root":  # B^2 = 2AC: one repeated constraint root
        a, c = _complex_normal(rng, 2)
        b = np.sqrt(2 * a * c) * (1 if rng.random() < 0.5 else -1)
        return _unit([a, b, c])
    if kind == "near_degenerate_below":
        ea = _log_uniform(rng, NEAR_DEGENERATE_MIN, DEGENERATE_TOL) * _phase(rng)
        ec = _log_uniform(rng, NEAR_DEGENERATE_MIN, DEGENERATE_TOL) * _phase(rng)
        mid = math.sqrt(1.0 - abs(ea) ** 2 - abs(ec) ** 2) * _phase(rng)
        return np.array([ea, mid, ec])
    raise ValueError(f"unknown target kind {kind!r}")


def prepare_args(target) -> list:
    """argv of `prepare` for a target; `--` keeps click from reading -0.3,0.1 as an option."""
    return ["--format", "json", "prepare", "--"] + [complex_literal(z) for z in target]


def known_defect_ops() -> list:
    """`prepare` ops on KNOWN_DEFECT_TARGETS, which fail until ROADMAP item 4 is fixed."""
    return [Op("compile", "known_defect", prepare_args(t),
               {"target": np.array(t, dtype=complex)})
            for t in KNOWN_DEFECT_TARGETS]


def certify(lopsim, target) -> float:
    """The certify op: the multi-ancilla search at the slow test's settings."""
    return lopsim.multi_ancilla_bound_check(
        tuple(target), CERTIFY_ANCILLAS, CERTIFY_BUDGET,
        refine_starts=CERTIFY_REFINE_STARTS,
    )


def _occupation(rng, modes: int, photons: int, ancilla: int) -> tuple:
    """Seeded occupation on `modes` modes: `ancilla` photons on the last one."""
    comp = rng.multinomial(photons - ancilla, [1.0 / (modes - 1)] * (modes - 1))
    return tuple(int(k) for k in comp) + (ancilla,)


def _occupation_text(occ) -> str:
    return " ".join(str(k) for k in occ)


class Inputs:
    """Endless seeded stream of ops for one workload.

    Circuits are Haar unitaries factored by lopsim's `decompose` and written
    to files under `work_dir`, which the CLI then reads.
    """

    def __init__(self, workload: str, seed: int, work_dir: Path, lopsim):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.work_dir = Path(work_dir)
        self.lopsim = lopsim
        self.ops = []
        self._files = 0
        self._blocks = 0

    def op(self, index: int) -> Op:
        """The index-th op of the stream; blocks are generated on demand."""
        while index >= len(self.ops):
            block = getattr(self, f"_{self.workload}_block")()
            for op in block:
                op.block = self._blocks
            self._blocks += 1
            self.ops.extend(block)
        return self.ops[index]

    def _shuffled(self, ops):
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def _circuit_file(self, unitary: np.ndarray) -> str:
        circuit = self.lopsim.decompose(self.lopsim.ModeUnitary(unitary))
        path = self.work_dir / f"circuit{self._files}.json"
        self._files += 1
        path.write_text(json.dumps(circuit.to_json()))
        return str(path)

    def _compile_block(self):
        ops = []
        for kind, count in COMPILE_MIX:
            for _ in range(count):
                t = compile_target(self.rng, kind)
                ops.append(Op("compile", kind, prepare_args(t), {"target": t}))
        return self._shuffled(ops)

    def _simulate_block(self):
        ops = []
        for (modes, photons), count in SIMULATE_MIX:
            for _ in range(count):
                u = haar_unitary(self.rng, modes)
                occ = _occupation(self.rng, modes, photons, int(self.rng.integers(2)))
                outcome = int(self.rng.integers(2))
                args = ["--format", "json", "simulate", self._circuit_file(u),
                        "--input", _occupation_text(occ), "--outcome", str(outcome)]
                data = {"unitary": u, "occupation": occ, "outcome": outcome}
                ops.append(Op("simulate", f"{modes}x{photons}", args, data))
        return self._shuffled(ops)

    def _sweep_block(self):
        ops = []
        for modes, photons in SWEEP_SHAPES:
            for protocol in SWEEP_PROTOCOLS:
                u = haar_unitary(self.rng, modes)
                occ = _occupation(self.rng, modes, photons, int(self.rng.integers(2)))
                args = ["--format", "csv", "sweep", self._circuit_file(u),
                        "--input", _occupation_text(occ), "--protocol", protocol,
                        "--steps", str(SWEEP_STEPS)]
                data = {"unitary": u, "occupation": occ, "protocol": protocol}
                ops.append(Op("sweep", f"{modes}x{photons}-{protocol}", args, data,
                              items=SWEEP_STEPS))
        return self._shuffled(ops)

    def _certify_block(self):
        t = compile_target(self.rng, "generic")
        return [Op("certify", "generic", None, {"target": t})]
