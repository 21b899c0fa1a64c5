"""Command-line front end: compile targets, run circuits, sweep detectors, self-test.

Exit codes: 0 on success, 2 on usage errors, 3 on numerical failures, which
include any error the library raises while `prepare`, `simulate` or `sweep`
runs.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from .circuits import Circuit, decompose, recompose
from .detectors import tradeoff_sweep, write_sweep_csv
from .engineering import DEFAULT_SEED, postselect, solve_target
from .fock import PureState, enumerate_basis
from .lifting import ModeUnitary
from .selftest import run_all


@dataclass
class RunConfig:
    seed: int
    tolerance: float | None  # None: per-operation defaults
    output_format: str
    output: str | None

    def __post_init__(self):
        if self.tolerance is not None and self.tolerance <= 0:
            raise click.BadParameter("tolerance must be positive", param_hint="--tol")


def parse_complex(text: str) -> complex:
    """Accepts 're', 're+imi' (or '-imi'), and 're,im'."""
    t = text.strip().lower().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    try:
        if "," in t:
            re_s, im_s = t.split(",", 1)
            z = complex(float(re_s), float(im_s))
        elif "i" in t:
            z = complex(t.replace("i", "j"))
        else:
            z = complex(float(t), 0.0)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as a complex number") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value {text!r}")
    return z


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return parse_complex(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


COMPLEX = ComplexParam()


def _fail_numeric(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(3)


@contextlib.contextmanager
def _library_errors():
    """Report a library error as a one-line numerical failure, not a traceback."""
    try:
        yield
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        _fail_numeric(str(exc))


def _emit(cfg: RunConfig, text: str):
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _parse_occupation(text: str, modes: int) -> tuple:
    try:
        occ = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise click.UsageError(f"occupation {text!r} must be integers")
    if len(occ) != modes or any(k < 0 for k in occ):
        raise click.UsageError(
            f"occupation {text!r} must list {modes} non-negative photon counts"
        )
    return occ


def _format_matrix(matrix: np.ndarray) -> str:
    rows = []
    for row in matrix:
        rows.append("  [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in row) + "]")
    return "\n".join(rows)


def _describe_element(item: dict) -> str:
    if item["kind"] == "bs":
        return (f"beam splitter on modes {item['modes'][0]},{item['modes'][1]} "
                f"(theta={item['theta']:.6f}, phi={item['phi']:.6f})")
    if item["kind"] == "ps":
        return f"phase shifter on mode {item['mode']} (phase={item['phase']:.6f})"
    return f"swap of modes {item['modes'][0]},{item['modes'][1]}"


@click.group()
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Seed for all randomized searches.")
@click.option("--tol", "tolerance", type=float, default=None,
              help="Override the default numeric tolerances.")
@click.option("--format", "output_format",
              type=click.Choice(["json", "csv", "text"]), default="text",
              show_default=True, help="Output format where applicable.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the result to a file instead of stdout.")
@click.pass_context
def main(ctx, seed, tolerance, output_format, output):
    """Linear-optical multiphoton simulation and state-engineering toolkit."""
    ctx.obj = RunConfig(seed, tolerance, output_format, output)


@main.command()
@click.argument("a", type=COMPLEX)
@click.argument("b", type=COMPLEX)
@click.argument("c", type=COMPLEX)
@click.option("--ancilla-in", type=int, default=0, show_default=True,
              help="Photons prepared on the ancilla mode.")
@click.pass_obj
def prepare(cfg: RunConfig, a, b, c, ancilla_in):
    """Compile a target two-photon state A|20> + B|11> + C|02> into a circuit."""
    if ancilla_in != 0:
        raise click.UsageError(
            "only the vacuum-ancilla protocol is compiled; use --ancilla-in 0"
        )
    t = np.array([a, b, c], dtype=complex)
    # scaled by the largest modulus so that large finite amplitudes do not overflow
    largest = float(np.max(np.abs(t)))
    norm = largest * float(np.linalg.norm(t / largest)) if largest > 0 else 0.0
    if norm < 1e-12:
        raise click.UsageError("target amplitudes are all zero")
    if abs(norm - 1.0) > 1e-9:
        click.echo(
            f"warning: target norm {norm:.10g} != 1, normalizing", err=True
        )
        t = t / norm
    click.echo(f"seed: {cfg.seed}", err=True)
    with _library_errors():
        solution = solve_target(tuple(t), seed=cfg.seed)
        circuit = decompose(solution.mode_unitary)
    payload = solution.to_json()
    payload["circuit"] = circuit.to_json()
    payload["achieved_state"] = solution.achieved_state.to_json()
    if cfg.output_format == "text":
        lines = [
            "mode unitary:",
            _format_matrix(solution.mode_unitary.matrix),
            "circuit:",
        ]
        elements = circuit.to_json()["elements"]
        if elements:
            lines.extend(f"  {_describe_element(e)}" for e in elements)
        else:
            lines.append("  (identity)")
        lines.append(f"ancilla in: {solution.ancilla_in} photon(s), "
                     f"post-select outcome: {solution.postselect_outcome}")
        lines.append(f"success probability: {solution.success_probability:.9f}")
        _emit(cfg, "\n".join(lines))
    else:
        _emit(cfg, json.dumps(payload, indent=2))


@main.command()
@click.argument("circuit_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "occupation", required=True,
              help="Input photon counts per mode, last mode is the ancilla.")
@click.option("--outcome", type=int, required=True,
              help="Post-selected photon count on the ancilla mode.")
@click.pass_obj
def simulate(cfg: RunConfig, circuit_file, occupation, outcome):
    """Run a circuit on a number state and post-select the ancilla outcome."""
    circuit_data = _load_json(circuit_file)
    try:
        circuit = Circuit.from_json(circuit_data)
        unitary = recompose(circuit)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad circuit file: {exc}")
    if circuit.modes < 2:
        raise click.UsageError("the circuit needs computational and ancilla modes")
    occ = _parse_occupation(occupation, circuit.modes)
    comp = occ[:-1]
    if outcome < 0 or outcome > sum(occ):
        raise click.UsageError(f"outcome {outcome} exceeds the photon total")
    with _library_errors():
        basis = enumerate_basis(len(comp), sum(comp))
        state_in = PureState.from_occupation(basis, comp)
        state, prob = postselect(unitary, state_in, occ[-1], outcome)
    payload = {
        "probability": prob,
        "outcome": outcome,
        "state": None if state is None else state.to_json(),
    }
    if cfg.output_format == "text":
        lines = [f"outcome probability: {prob:.12f}"]
        lines.append(f"post-selected state: {state!r}" if state is not None
                     else "post-selected state: (branch has zero weight)")
        _emit(cfg, "\n".join(lines))
    else:
        _emit(cfg, json.dumps(payload, indent=2))


@main.command()
@click.argument("circuit_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "occupation", required=True,
              help="Input photon counts per mode, last mode is the ancilla.")
@click.option("--protocol", type=click.Choice(["no-click", "click"]),
              default="no-click", show_default=True)
@click.option("--eta-min", type=float, default=0.0, show_default=True)
@click.option("--eta-max", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=11, show_default=True)
@click.pass_obj
def sweep(cfg: RunConfig, circuit_file, occupation, protocol, eta_min, eta_max,
          steps):
    """Sweep detector efficiency and report probability/fidelity as CSV."""
    if not (0.0 <= eta_min <= eta_max <= 1.0):
        raise click.UsageError("need 0 <= eta-min <= eta-max <= 1")
    if steps < 1:
        raise click.UsageError("steps must be at least 1")
    circuit_data = _load_json(circuit_file)
    try:
        circuit = Circuit.from_json(circuit_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad circuit file: {exc}")
    if circuit.modes < 2:
        raise click.UsageError("the circuit needs computational and ancilla modes")
    occ = _parse_occupation(occupation, circuit.modes)
    grid = np.linspace(eta_min, eta_max, steps)
    with _library_errors():
        state = PureState.from_occupation(
            enumerate_basis(circuit.modes, sum(occ)), occ
        )
        points = tradeoff_sweep(circuit, state, protocol, grid)
    buf = io.StringIO()
    write_sweep_csv(points, buf)
    _emit(cfg, buf.getvalue())


@main.command("decompose")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def cmd_decompose(cfg: RunConfig, matrix_file):
    """Factor a unitary (JSON) into beam splitters and phase shifters."""
    data = _load_json(matrix_file)
    atol = cfg.tolerance if cfg.tolerance is not None else 1e-10
    try:
        unitary = ModeUnitary.from_json(data, atol=atol)
    except (KeyError, TypeError) as exc:
        raise click.UsageError(f"bad matrix file: {exc}")
    except ValueError as exc:
        if "not unitary" in str(exc):
            _fail_numeric(str(exc))
        raise click.UsageError(f"bad matrix file: {exc}")
    circuit = decompose(unitary)
    err = float(np.max(np.abs(recompose(circuit).matrix - unitary.matrix)))
    if err > 1e-10:
        _fail_numeric(f"decomposition round-trip error {err:.3e} exceeds 1e-10")
    if cfg.output_format == "text":
        elements = circuit.to_json()["elements"]
        lines = [f"{len(elements)} element(s):"] if elements else ["identity circuit"]
        lines.extend(f"  {_describe_element(e)}" for e in elements)
        lines.append(f"round-trip error: {err:.3e}")
        _emit(cfg, "\n".join(lines))
    else:
        _emit(cfg, json.dumps(circuit.to_json(), indent=2))


@main.command()
@click.pass_obj
def selftest(cfg: RunConfig):
    """Run the built-in verification suite; exit 0 only if everything passes."""
    click.echo(f"seed: {cfg.seed}", err=True)
    results = run_all(seed=cfg.seed, tolerance=cfg.tolerance)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status}  {r.name:<{width}}  ({r.elapsed:7.2f}s)  {r.detail}")
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        click.echo("failed: " + ", ".join(r.name for r in failed), err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
