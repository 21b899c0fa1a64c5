"""Tests of the benchmark itself: seeded generators, verifiers, tallies, tracing.

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lopsim  # noqa: E402
import lopsim.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from warmup import call_cli  # noqa: E402
from workloads import (  # noqa: E402
    COMPILE_MIX,
    SIMULATE_MIX,
    WORKLOADS,
    Inputs,
    Op,
    complex_literal,
    haar_unitary,
    known_defect_ops,
)

BLOCK = {"compile": 18, "simulate": 10, "sweep": 10, "certify": 1}


def _block(workload, seed, tmp_path):
    work = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    inputs = Inputs(workload, seed, work, lopsim)
    return [inputs.op(i) for i in range(BLOCK[workload])]


def _fingerprint(ops):
    """Everything an op sends or checks, except the circuit file's path."""
    out = []
    for op in ops:
        args = [a for a in (op.args or []) if not a.endswith(".json")]
        data = {k: np.asarray(v).tolist() for k, v in op.data.items()}
        out.append((op.category, args, json.dumps(data, default=str)))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_seeded(workload, tmp_path):
    a = _fingerprint(_block(workload, 11, tmp_path))
    b = _fingerprint(_block(workload, 11, tmp_path))
    c = _fingerprint(_block(workload, 12, tmp_path))
    assert a == b
    assert a != c


def test_blocks_keep_their_mix(tmp_path):
    for seed in (1, 2):
        cats = [op.category for op in _block("compile", seed, tmp_path)]
        assert {k: cats.count(k) for k in set(cats)} == dict(COMPILE_MIX)
        cats = [op.category for op in _block("simulate", seed, tmp_path)]
        assert {k: cats.count(k) for k in set(cats)} == {
            f"{m}x{n}": c for (m, n), c in SIMULATE_MIX}


def _run_cli(op):
    return call_cli(lopsim.cli, op.args)


def _compile_op(target):
    t = np.asarray(target, dtype=complex)
    args = ["--format", "json", "prepare", "--"] + [complex_literal(z) for z in t]
    return Op("compile", "generic", args, {"target": t})


def test_compile_check_rejects_corruption():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    op = _compile_op(v / np.linalg.norm(v))
    out = _run_cli(op)
    assert verify.check(lopsim, op, out) is None
    payload = json.loads(out)
    payload["probability"] += 1e-6
    assert verify.check(lopsim, op, json.dumps(payload)) is not None
    payload = json.loads(out)
    m = payload["matrix"]  # swapping output modes keeps it unitary
    m[0], m[1] = m[1], m[0]
    assert verify.check(lopsim, op, json.dumps(payload)) is not None
    payload["matrix"][0][0] = [2.0, 0.0]  # not unitary: lopsim rejects it
    assert verify.check(lopsim, op, json.dumps(payload)).startswith("output rejected")


def _circuit_op(tmp_path, workload, modes, occ, **extra):
    u = haar_unitary(np.random.default_rng(9), modes)
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(lopsim.decompose(lopsim.ModeUnitary(u)).to_json()))
    occ_text = " ".join(map(str, occ))
    if workload == "simulate":
        args = ["--format", "json", "simulate", str(path), "--input", occ_text,
                "--outcome", str(extra["outcome"])]
    else:
        args = ["--format", "csv", "sweep", str(path), "--input", occ_text,
                "--protocol", extra["protocol"], "--steps", "101"]
    return Op(workload, "test", args, {"unitary": u, "occupation": occ, **extra})


def test_simulate_check_rejects_corruption(tmp_path):
    op = _circuit_op(tmp_path, "simulate", 4, (1, 1, 0, 1), outcome=1)
    out = _run_cli(op)
    assert verify.check(lopsim, op, out) is None
    payload = json.loads(out)
    amps = payload["state"]["amplitudes"]
    amps[0], amps[1] = amps[1], amps[0]
    assert verify.check(lopsim, op, json.dumps(payload)) is not None
    payload = json.loads(out)
    payload["probability"] += 1e-6
    assert verify.check(lopsim, op, json.dumps(payload)) is not None


@pytest.mark.parametrize("protocol", ["no-click", "click"])
def test_sweep_check_rejects_corruption(tmp_path, protocol):
    op = _circuit_op(tmp_path, "sweep", 3, (2, 0, 1), protocol=protocol)
    out = _run_cli(op)
    assert verify.check(lopsim, op, out) is None
    lines = out.splitlines()
    eta, p, f = lines[50].split(",")
    lines[50] = f"{eta},{float(p) + 1e-6!r},{f}"
    assert verify.check(lopsim, op, "\n".join(lines) + "\n") is not None
    lines = out.splitlines()
    lines[40], lines[60] = lines[60], lines[40]
    assert verify.check(lopsim, op, "\n".join(lines) + "\n") is not None


def test_certify_check_bounds():
    t = np.array([0.6, 0.0, 0.8j])
    op = Op("certify", "generic", None, {"target": t})
    single = lopsim.solve_target(tuple(t)).success_probability
    assert verify.check(lopsim, op, single) is None
    assert verify.check(lopsim, op, single + 1e-5) is not None
    assert verify.check(lopsim, op, single - 1e-8) is not None
    assert verify.check(lopsim, op, float("nan")) is not None


def test_tally_fails_the_run_on_any_failed_op():
    near = Op("compile", "near_degenerate_below", [], {})
    generic = Op("compile", "generic", [], {})
    ok = run.Result(generic, 0.1, "{}", None)
    assert run.tally([ok, ok])[:3] == (2, 0, True)
    raised = run.Result(near, 0.1, None, "ValueError: matrix is not unitary")
    assert run.tally([ok, raised])[:3] == (2, 1, False)
    wrong = run.Result(near, 0.1, "{}", None, problem="replayed overlap too low")
    assert run.tally([ok, wrong])[:3] == (2, 1, False)
    crashed = run.Result(generic, 0.1, None, "exit code 3")
    assert run.tally([ok, crashed])[:3] == (2, 1, False)


def test_compile_mix_succeeds_and_known_defect_still_fails(tmp_path):
    execute = run.make_executor(lopsim, lopsim.cli, call_cli, None)
    kinds = set(dict(COMPILE_MIX))
    fast = [op for op in _block("compile", 3, tmp_path) if op.category != "generic"]
    assert {op.category for op in fast} == kinds - {"generic"}
    results = [execute(op) for op in fast]
    run.check_all(lopsim, verify.check, results)
    assert [(r.error, r.problem) for r in results] == [(None, None)] * len(fast)
    # Once ROADMAP item 4 is fixed, remove this assertion and put
    # near-degenerate targets with edges above the threshold back in COMPILE_MIX.
    probe = [execute(op) for op in known_defect_ops()]
    assert all("not unitary" in r.error for r in probe)


def test_latency_tail_leaves_ten_samples_beyond():
    lat = run.latency_summary([list(range(1, 41))])
    assert lat["tail_s"] == 30 and lat["tail_percentile"] == 75.0
    assert sum(x > lat["tail_s"] for x in range(1, 41)) == 10
    few = run.latency_summary([[3.0, 1.0, 2.0] + [0.5] * 17])
    assert few["tail_s"] == few["p50_s"] == 0.5 and few["tail_percentile"] == 50.0


def test_latency_tail_is_the_median_over_groups():
    # a slow spell in one of three groups does not move the tail
    groups = [list(range(1, 41)), [x * 3 for x in range(1, 41)], list(range(2, 42))]
    lat = run.latency_summary(groups)
    assert lat["tail_s"] == 31 and lat["tail_groups"] == 3 and lat["samples"] == 120
    assert lat["p50_s"] == statistics.median(x for g in groups for x in g)


def test_tail_groups_keep_whole_blocks_in_order():
    size = run.TAIL_GROUP_OPS
    blocks = [[b] * (size // 3 + 1) for b in range(10)]  # three blocks fill a group
    groups = run.tail_groups(blocks)
    assert [sorted(set(g)) for g in groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert run.tail_groups(blocks[:5]) == [[x for b in blocks[:5] for x in b]]


def test_tracer_records_nested_spans_and_restores(tmp_path):
    original = lopsim.lifting.lift_unitary
    op = _circuit_op(tmp_path, "simulate", 3, (1, 1, 0), outcome=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lopsim.engineering.lift_unitary is not original
        assert lopsim.engineering.lift_unitary is lopsim.detectors.lift_unitary
        tracer.run_op(0, lambda: _run_cli(op))
    finally:
        tracer.uninstall()
    for mod in (lopsim, lopsim.lifting, lopsim.engineering, lopsim.detectors):
        assert mod.lift_unitary is original
    assert lopsim.engineering.scipy is sys.modules["scipy"]
    names = {s[0] for s in tracer.spans}
    assert {"op", "cli.command", "circuits.recompose", "engineering.postselect",
            "lifting.lift_unitary", "lifting.apply"} <= names
    lift = next(s for s in tracer.spans if s[0] == "lifting.lift_unitary")
    assert tracer.spans[lift[3]][0] == "engineering.postselect"
    values = tracer.per_layer(overhead_ratio=1.0)
    assert set(values) == set(tracing.PER_LAYER_UNITS)
    assert values["lifting.lift_unitary.calls"] == 1
    assert values["lifting.lift_unitary.amplitudes"] == 6 ** 2  # d = C(4, 2)
    assert values["lifting.permanent.calls"] == 6 ** 2


def test_end_to_end_uses_block_medians():
    def result(block, latency, failed=False):
        op = Op("simulate", "x", [], {}, block=block)
        return run.Result(op, latency, None if failed else "", "boom" if failed else None)

    # three blocks of two ops; the middle one ran in a slow spell
    results = [result(0, 1.0), result(0, 1.0), result(1, 4.0), result(1, 4.0),
               result(2, 1.0), result(2, 1.0, failed=True)]
    values, summary = run.end_to_end(results, [1.0] * 6)
    assert values["items_per_s"] == 0.5  # median of 1.0, 0.25 and 0.5
    assert values["latency_p50_s"] == 1.0
    assert summary["blocks"] == 3 and summary["unscaled"]["items_per_s"] == 5 / 12
    # a host twice as slow, seen by the reference, gives the same figures
    assert run.end_to_end([result(r.op.block, 2 * r.latency, r.error is not None)
                           for r in results], [0.5] * 6)[0] == values


def test_host_factors_use_the_reference_timings_around_each_op():
    refs = [(0, 0.01), (2, 0.03), (3, 0.02)]
    assert run.host_factors(refs, 3, 0.02) == pytest.approx([1.0, 1.0, 0.8])


def test_untraced_run_ends_on_a_block_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_EVERY_S", 0.5)
    inputs = Inputs("sweep", 3, tmp_path, lopsim)

    def execute(op):
        return run.Result(op, 0.3, "", None)

    results, refs = run.run_untraced(inputs, execute, 1.0, reference=lambda: 0.01)
    assert len(results) == 10  # one block of 10, though 4 ops pass 1 s
    assert [i for i, _ in refs] == [0, 2, 4, 6, 8, 10]  # every 0.5 s, and at the end
