"""lopsim benchmark: one closed-loop client driving lopsim in-process.

    python3 perfbench/run.py --workload {compile,simulate,sweep,certify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a lopsim checkout; lopsim is imported from that
checkout's src/ and nowhere else. The client sends `prepare`, `simulate` and
`sweep` through `lopsim.cli.main` and `certify` through
`lopsim.multi_ancilla_bound_check`, each op right after the previous one
returned, until the ops have taken S seconds and the current input block is
complete. Timings are scaled to nominal host speed with a reference
computation timed between the ops (reference.py). Every output is then
checked against a reference result (verify.py). A compile run then runs the
targets of a known defect (ROADMAP item 4) outside the counts and records how
they fare. The last line of stdout is
one JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. A record of the run, with the environment and the unscaled
figures, goes to .perfbench_out/.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# BLAS/OpenMP pools are capped at one thread (at most nproc): the client is a
# single closed loop and the matrices are small, and one thread per process
# keeps runs steady on a shared machine.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 3

# Op time between two reference timings (reference.py) in an untraced run.
REFERENCE_EVERY_S = 0.2

# Least ops in a group of blocks whose tail is taken (see end_to_end).
TAIL_GROUP_OPS = 150

# Ops per second of each workload on a 2-vCPU 2.0 GHz Xeon VM when this
# benchmark was written. A traced run runs round(rate * seconds / 2) ops, each
# once untraced and once traced, so its counts repeat exactly for a seed.
TRACE_RATE = {"compile": 2.2, "simulate": 10.0, "sweep": 50.0, "certify": 0.25}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}


@dataclass
class Result:
    op: object
    latency: float
    output: object  # CLI stdout, or certify's float; None when the op raised
    error: str | None
    problem: str | None = None  # set by verification


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("compile", "simulate", "sweep", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(seed):
    import importlib.metadata

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_cap": THREAD_CAP,
        "seed": seed,
    }


def measure_setup(circuit_file, nominal_s):
    """Median of SETUP_REPEATS fresh-interpreter set-ups at nominal host speed.

    Each set-up is scaled by the reference timing taken in the same process
    right after it. Returns the median and the raw samples.
    """
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "warmup.py"), str(SRC), str(circuit_file)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(sample)
        scaled.append(sample["setup_s"] * nominal_s / sample["reference_s"])
    return statistics.median(scaled), samples


def make_executor(lopsim, cli, call_cli, certify):
    """execute(op): run one op and time it; an error becomes a failed Result."""
    def execute(op, tracer=None, op_id=None):
        if op.args is None:
            def call():
                return certify(lopsim, op.data["target"])
        else:
            def call():
                return call_cli(cli, op.args)
        start = time.perf_counter()
        try:
            output = call() if tracer is None else tracer.run_op(op_id, call)
            error = None
        except SystemExit as exc:
            output, error = None, f"exit code {exc.code}"
        except Exception as exc:  # an op that raises counts as failed
            output, error = None, f"{type(exc).__name__}: {exc}"
        return Result(op, time.perf_counter() - start, output, error)

    return execute


def check_all(lopsim, check, results):
    for r in results:
        if r.error is None:
            r.problem = check(lopsim, r.op, r.output)


def tally(results):
    """attempted, failed, correct, and per op category: ops, failures, median latency."""
    by_category = {}
    correct = True
    for r in results:
        entry = by_category.setdefault(r.op.category,
                                       {"attempted": 0, "failed": 0, "latencies": []})
        entry["attempted"] += 1
        entry["latencies"].append(r.latency)
        if r.error is not None or r.problem is not None:
            entry["failed"] += 1
            correct = False
    for entry in by_category.values():
        entry["p50_s"] = statistics.median(entry.pop("latencies"))
    failed = sum(e["failed"] for e in by_category.values())
    return len(results), failed, correct, by_category


def tail_groups(blocks):
    """Consecutive blocks in groups of at least TAIL_GROUP_OPS ops each.

    A remainder of fewer ops joins the last group, so a run of fewer than
    2 * TAIL_GROUP_OPS ops is one group.
    """
    groups = [[]]
    for block in blocks:
        if len(groups[-1]) >= TAIL_GROUP_OPS:
            groups.append([])
        groups[-1].extend(block)
    if len(groups) > 1 and len(groups[-1]) < TAIL_GROUP_OPS:
        groups[-2].extend(groups.pop())
    return groups


def latency_summary(groups):
    """Median latency, and the median over groups of each group's tail.

    A group's tail is its highest percentile with at least ten samples beyond
    it. With 20 samples or fewer that percentile is not above the median, so
    the tail is the group's median and the record says so (tail_percentile 50).
    """
    tails, pcts = [], []
    for group in groups:
        xs = sorted(group)
        n = len(xs)
        if n > 20:
            tails.append(xs[n - 11])
            pcts.append(100.0 * (n - 10) / n)
        else:
            tails.append(statistics.median(xs))
            pcts.append(50.0)
    every = [x for group in groups for x in group]
    return {"samples": len(every), "p50_s": statistics.median(every),
            "tail_s": statistics.median(tails),
            "tail_percentile": statistics.median(pcts), "tail_groups": len(groups)}


def run_untraced(inputs, execute, seconds, reference):
    """Ops until they have taken `seconds`, then to the end of the current block.

    A reference timing is taken before the first op, after every
    REFERENCE_EVERY_S of op time and after the last op. Returns the results
    and the reference timings as (index of the next op, seconds).
    """
    results, refs = [], []
    busy = since = 0.0
    while True:
        op = inputs.op(len(results))
        if results and busy >= seconds and op.block != results[-1].op.block:
            refs.append((len(results), reference()))
            return results, refs
        if not refs or since >= REFERENCE_EVERY_S:
            refs.append((len(results), reference()))
            since = 0.0
        results.append(execute(op))
        busy += results[-1].latency
        since += results[-1].latency


def host_factors(refs, count, nominal_s):
    """Per op: nominal_s over the mean of the reference timings around it."""
    factors, k = [], 0
    for i in range(count):
        while refs[k + 1][0] <= i:
            k += 1
        factors.append(nominal_s / ((refs[k][1] + refs[k + 1][1]) / 2))
    return factors


def end_to_end(results, factors):
    """Throughput and latency at nominal host speed, from complete blocks.

    Each latency is scaled by its op's host factor. Every block holds the same
    mix, so block-to-block differences come from the host; the medians over
    blocks keep a slow spell that covers a minority of the blocks from moving
    the result. The tail is the median of the tails of groups of blocks
    (tail_groups): with about 1000 short ops a run's 99th percentile would
    catch every short slow spell that the reference timings miss, while a
    group's tail lies among its slowest kind of op. The summary also gives
    the unscaled whole-run figures.
    """
    blocks = {}
    for r, f in zip(results, factors):
        blocks.setdefault(r.op.block, []).append((r, r.latency * f))
    rates, medians = [], []
    for block in blocks.values():
        ok = sum(r.op.items for r, _ in block if r.error is None and r.problem is None)
        rates.append(ok / sum(t for _, t in block))
        medians.append(statistics.median(t for _, t in block))
    groups = tail_groups(blocks.values())
    lat = latency_summary([[t for _, t in group] for group in groups])
    raw = latency_summary([[r.latency for r, _ in group] for group in groups])
    ok = sum(r.op.items for r in results if r.error is None and r.problem is None)
    summary = {
        "blocks": len(blocks), **lat,
        "unscaled": {"items_per_s": ok / sum(r.latency for r in results), **raw},
        "host_factor_median": statistics.median(factors),
    }
    values = {"items_per_s": statistics.median(rates),
              "latency_p50_s": statistics.median(medians),
              "latency_tail_s": lat["tail_s"]}
    return values, summary


def run_traced(ops, execute, tracer, warm_up):
    """Each op once untraced and once traced, back to back in alternating order.

    Adjacent timings see the same machine speed, so their ratio measures the
    tracing overhead even when the host's speed drifts. The wrappers are only
    installed around the traced call, after one traced set-up call.
    """
    def installed(call):
        tracer.install()
        try:
            return call()
        finally:
            tracer.uninstall()

    installed(lambda: tracer.run_op("warm-up", warm_up))
    untraced, traced = [], []
    for i, op in enumerate(ops):
        for is_traced in ((True, False) if i % 2 else (False, True)):
            if is_traced:
                traced.append(installed(lambda: execute(op, tracer, i)))
            else:
                untraced.append(execute(op))
    return untraced, traced


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lopsim" / "__init__.py").is_file():
        print(f"error: no lopsim sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))

    import lopsim
    import lopsim.cli
    import reference
    import tracing
    import verify
    import warmup
    import workloads

    if not Path(lopsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: lopsim was imported from {lopsim.__file__}", file=sys.stderr)
        return 2

    execute = make_executor(lopsim, lopsim.cli, warmup.call_cli, workloads.certify)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        circuit = warmup.write_smallest_circuit(work)
        if args.trace == 0:
            setup_s, record["setup_samples"] = measure_setup(
                circuit, reference.NOMINAL_S)
        warmup.warm_up(lopsim, lopsim.cli, circuit)
        inputs = workloads.Inputs(args.workload, args.seed, work, lopsim)
        if args.trace == 0:
            results, refs = run_untraced(inputs, execute, args.seconds,
                                         reference.seconds)
            busy = sum(r.latency for r in results)
        else:
            count = max(1, round(TRACE_RATE[args.workload] * args.seconds / 2))
            tracer = tracing.Tracer()
            untraced, traced = run_traced(
                [inputs.op(i) for i in range(count)], execute, tracer,
                lambda: warmup.warm_up(lopsim, lopsim.cli, circuit))
            results = untraced + traced
            busy_untraced = sum(r.latency for r in untraced)
            busy = sum(r.latency for r in traced)
        check_all(lopsim, verify.check, results)
        if args.workload == "compile":
            probe = [execute(op) for op in workloads.known_defect_ops()]
            check_all(lopsim, verify.check, probe)
            record["known_defect"] = [
                {"target": r.op.args[-3:], "error": r.error, "problem": r.problem}
                for r in probe]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_DIR.rmdir()

    attempted, failed, correct, by_category = tally(results)
    record.update(attempted=attempted, failed=failed, correct=correct,
                  by_category=by_category, busy_s=busy)
    record["problems"] = [
        {"category": r.op.category, "args": r.op.args, "error": r.error,
         "problem": r.problem}
        for r in results if r.error is not None or r.problem is not None
    ][:20]
    if args.trace == 0:
        factors = host_factors(refs, len(results), reference.NOMINAL_S)
        values, record["latency"] = end_to_end(results, factors)
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS
    else:
        values = tracer.per_layer(overhead_ratio=busy_untraced / busy)
        units = tracing.PER_LAYER_UNITS
        record["untraced_busy_s"] = busy_untraced
        record["design_shares"] = tracer.shares()
        tracer.dump(f"{stem}-spans.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record["metrics"] = metrics
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    summary = {k: record[k] for k in ("attempted", "failed", "by_category")}
    summary.update(record.get("latency", {}), design_shares=record.get("design_shares"),
                   known_defect=record.get("known_defect"))
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
