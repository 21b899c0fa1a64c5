"""Spans and counters around lopsim's layers, installed from outside the package.

`Tracer.install` replaces each traced function at every module attribute of
the `lopsim` package that holds it, so calls between modules (for example
`lopsim.engineering.lift_unitary`) are caught as well as calls from outside.
`uninstall` puts the originals back. Untraced runs never call `install`.

Spans are kept in memory as (name, start, end, parent, op id) and written out
at the end of the run. Functions called thousands of times per op
(`permanent`, and scipy's minimizers as the compiler calls them) are timed in
aggregate instead: a count, a busy time and, for the minimizers, the number of
objective evaluations.
"""

import functools
import json
import sys
import time

# span name -> (module, attribute) of each function it covers
SPANS = {
    "engineering.solve_target": [("lopsim.engineering", "solve_target")],
    "engineering.postselect": [("lopsim.engineering", "postselect")],
    "engineering.build_extension_matrix": [("lopsim.engineering", "build_extension_matrix")],
    "engineering.multi_ancilla_bound_check": [("lopsim.engineering", "multi_ancilla_bound_check")],
    "lifting.lift_unitary": [("lopsim.lifting", "lift_unitary")],
    "lifting.apply": [("lopsim.lifting", "apply")],
    "circuits.recompose": [("lopsim.circuits", "recompose")],
    "circuits.decompose": [("lopsim.circuits", "decompose")],
    "detectors.tradeoff_sweep": [("lopsim.detectors", "tradeoff_sweep")],
    "detectors.conditional": [("lopsim.detectors", "conditional_no_click"),
                              ("lopsim.detectors", "conditional_click")],
    "detectors.ancilla_branches": [("lopsim.detectors", "ancilla_branches")],
    "detectors.fidelity_to_branch": [("lopsim.detectors", "fidelity_to_branch")],
    "fock.tensor_with_ancilla": [("lopsim.fock", "tensor_with_ancilla")],
}
OP_SPAN = "op"
COMMAND_SPAN = "cli.command"
MIXED_STATE_SPAN = "fock.mixed_state"

# Per-layer metrics: name -> unit. Every traced run reports all of them.
PER_LAYER_UNITS = {
    "engineering.solve_target.calls": "count",
    "engineering.solve_target.busy_s": "s",
    "engineering.solve_target.self_s": "s",
    "engineering.postselect.calls": "count",
    "engineering.postselect.self_s": "s",
    "engineering.build_extension_matrix.calls": "count",
    "engineering.verify_yield": "ratio",
    "engineering.minimize.nfev": "count",
    "engineering.minimize.busy_s": "s",
    "engineering.multi_ancilla_bound_check.busy_s": "s",
    "engineering.multi_ancilla_bound_check.self_s": "s",
    "lifting.lift_unitary.calls": "count",
    "lifting.lift_unitary.busy_s": "s",
    "lifting.lift_unitary.amplitudes": "count",
    "lifting.permanent.calls": "count",
    "lifting.permanent.busy_s": "s",
    "lifting.apply.busy_s": "s",
    "detectors.tradeoff_sweep.self_s": "s",
    "detectors.conditional.calls": "count",
    "detectors.conditional.busy_s": "s",
    "detectors.branch_splits_per_sweep": "ratio",
    "detectors.fidelity_to_branch.busy_s": "s",
    "fock.mixed_state.calls": "count",
    "fock.mixed_state.busy_s": "s",
    "fock.tensor_with_ancilla.busy_s": "s",
    "cli.command.calls": "count",
    "cli.command.self_s": "s",
    "circuits.recompose.busy_s": "s",
    "circuits.decompose.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self._stack = []
        self.op_id = -1
        self.aggregates = {}  # name -> [calls, busy_s, nfev]
        self.lifted_amplitudes = 0
        self._restore = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def aggregate(self, name, fn):
        totals = self.aggregates.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += time.perf_counter() - start
            totals[2] += getattr(result, "nfev", 0)
            return result

        return wrapper

    def _count_amplitudes(self, lifted):
        self.lifted_amplitudes += lifted.matrix.shape[0] ** 2

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Point every lopsim module attribute that holds `original` at `wrapper`."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "lopsim" and not mod_name.startswith("lopsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"{original!r} is not reachable from any lopsim module")

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import lopsim.cli
        import scipy.optimize

        lifting = sys.modules["lopsim.lifting"]
        engineering = sys.modules["lopsim.engineering"]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                hook = self._count_amplitudes if name == "lifting.lift_unitary" else None
                self._replace_everywhere(original, self.span(name, original, hook))
        self._replace_everywhere(lifting.permanent,
                                 self.aggregate("lifting.permanent", lifting.permanent))
        mixed = sys.modules["lopsim.fock"].MixedState
        self._set(mixed, "__init__", self.span(MIXED_STATE_SPAN, mixed.__init__))
        for command in lopsim.cli.main.commands.values():
            self._set(command, "callback", self.span(COMMAND_SPAN, command.callback))
        # The compiler reaches scipy's minimizers through its `scipy` name.
        minimizers = {
            name: self.aggregate("engineering.minimize", getattr(scipy.optimize, name))
            for name in ("minimize", "minimize_scalar")
        }
        self._set(engineering, "scipy", _Proxy(
            scipy, {"optimize": _Proxy(scipy.optimize, minimizers)}))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def run_op(self, op_id, fn):
        """Call fn() as op `op_id`, inside a root span."""
        self.op_id = op_id
        try:
            return self.span(OP_SPAN, fn)()
        finally:
            self.op_id = -1

    def summary(self):
        """Calls, busy time (outermost spans) and self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += end - start - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["busy_s"] += end - start
        return out

    def per_layer(self, overhead_ratio):
        """Every per-layer metric from the recorded spans and aggregates.

        A name `<span>.<calls|busy_s|self_s>` reads that span's summary; the
        others are computed here.
        """
        s = self.summary()

        def get(name, key):
            return s.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        from_solve = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "engineering.postselect" and parent >= 0
            and self.spans[parent][0] == "engineering.solve_target"
        )
        perm = self.aggregates.get("lifting.permanent", [0, 0.0, 0])
        mini = self.aggregates.get("engineering.minimize", [0, 0.0, 0])
        computed = {
            "engineering.verify_yield":
                ratio(get("engineering.solve_target", "calls"), from_solve),
            "engineering.minimize.nfev": mini[2],
            "engineering.minimize.busy_s": mini[1],
            "lifting.lift_unitary.amplitudes": self.lifted_amplitudes,
            "lifting.permanent.calls": perm[0],
            "lifting.permanent.busy_s": perm[1],
            "detectors.branch_splits_per_sweep": ratio(
                get("detectors.ancilla_branches", "calls"),
                get("detectors.tradeoff_sweep", "calls")),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {
            name: computed[name] if name in computed else get(*name.rsplit(".", 1))
            for name in PER_LAYER_UNITS
        }

    def shares(self):
        """Share of traced op time in the layer each workload is built to stress."""
        s = self.summary()
        total = s.get(OP_SPAN, {}).get("busy_s", 0.0)

        def part(*keys):
            return sum(s.get(n, {}).get(k, 0.0) for n, k in keys) / total if total else 0.0

        return {
            "engineering.solve_target.self_s": part(("engineering.solve_target", "self_s")),
            "lifting.lift_unitary.busy_s": part(("lifting.lift_unitary", "busy_s")),
            # self times of the detectors spans and the busy time of the
            # MixedState checks nested in them are disjoint
            "detectors.*+fock.mixed_state.busy_s": part(
                *((n, "self_s") for n in SPANS if n.startswith("detectors.")),
                (MIXED_STATE_SPAN, "busy_s")),
            "engineering.multi_ancilla_bound_check.self_s":
                part(("engineering.multi_ancilla_bound_check", "self_s")),
        }

    def dump(self, path):
        names = sorted({sp[0] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans],
                "aggregates": {k: dict(zip(("calls", "busy_s", "nfev"), v))
                               for k, v in self.aggregates.items()},
            }, fh, separators=(",", ":"))
