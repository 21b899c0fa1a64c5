"""Set-up of a lopsim session: the imports, then one smallest-input call per entry point.

Run as a script, it sets up in a fresh interpreter and prints the seconds that
took, with a reference timing (reference.py) taken right after it; run.py
starts it several times and reports the median as setup_s:

    python3 perfbench/warmup.py SRC_DIR CIRCUIT_FILE

CIRCUIT_FILE is the smallest circuit, as `write_smallest_circuit` writes it.
"""

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

SMALLEST_CIRCUIT = {
    "modes": 2,
    "elements": [{"kind": "bs", "modes": [1, 2], "theta": 0.5, "phi": 0.25}],
}


def write_smallest_circuit(work_dir: Path) -> Path:
    path = Path(work_dir) / "smallest_circuit.json"
    path.write_text(json.dumps(SMALLEST_CIRCUIT))
    return path


def call_cli(cli, args) -> str:
    """Run one CLI command in this process and return what it printed.

    Errors propagate: click's usage errors as exceptions, numerical failures
    as SystemExit with the CLI's exit code.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(args=args, standalone_mode=False)
    return out.getvalue()


def warm_up(lopsim, cli, circuit_file):
    """One call per entry point on its smallest input: prepare, simulate, sweep, certify."""
    circuit_file = str(circuit_file)
    call_cli(cli, ["--format", "json", "prepare", "--", "0.6", "0.8", "0"])
    call_cli(cli, ["--format", "json", "simulate", circuit_file,
                   "--input", "1 0", "--outcome", "0"])
    call_cli(cli, ["--format", "csv", "sweep", circuit_file, "--input", "1 0",
                   "--protocol", "no-click", "--steps", "2"])
    lopsim.multi_ancilla_bound_check((0.6, 0.8, 0.0), 1, 1, refine_starts=1)


def main(src_dir, circuit_file):
    start = time.perf_counter()
    sys.path.insert(0, src_dir)
    import lopsim
    import lopsim.cli

    warm_up(lopsim, lopsim.cli, circuit_file)
    setup_s = time.perf_counter() - start
    import reference  # imports numpy, so only after the timed imports

    ref = statistics.median(reference.seconds() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "reference_s": ref}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
