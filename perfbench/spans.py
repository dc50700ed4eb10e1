"""Span tracing for the benchmark's traced run.

The tracer wraps qcsp's public functions from outside, at every name binding
the code calls through, so the program itself carries no tracing code.  Each
call records a span (name, start, end, parent span, instance id) in flat
in-memory arrays; the spans are aggregated into per-layer metrics and written
out once the run ends.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

KINDS = ("equality", "point_algebra", "temporal", "henson")
DECIDE = tuple(f"decide.{kind}" for kind in KINDS)
SPAN_NAMES = (
    "instance",
    "formulas.parse",
    "formulas.split",
    "formulas.collapse",
    "formulas.make_instance",
    *DECIDE,
    "theories.entails",
    "kernels.temporal_search",
    "kernels.embedding",
    "combine.solve",
    "combine.propagate_step",
    "henson.build_s_star",
    "henson.component_label",
    "checking.replay",
)
_CODE = {name: code for code, name in enumerate(SPAN_NAMES)}

# Per-layer metric -> unit; the values are means per traced instance.
LAYER_METRICS = {
    "formulas.parse_ms": "ms",
    "formulas.split_ms": "ms",
    "formulas.collapse_calls": "count",
    "formulas.collapse_ms": "ms",
    "formulas.make_instance_calls": "count",
    "formulas.make_instance_ms": "ms",
    **{f"theories.decide_calls.{kind}": "count" for kind in KINDS},
    **{f"theories.decide_self_ms.{kind}": "ms" for kind in KINDS},
    "theories.entails_calls": "count",
    "theories.entails_ms": "ms",
    "theories.entails_useful_share": "share",
    "kernels.temporal_search_calls": "count",
    "kernels.temporal_search_ms": "ms",
    "kernels.embedding_calls": "count",
    "kernels.embedding_ms": "ms",
    "combine.solve_self_ms": "ms",
    "combine.propagate_rounds": "count",
    "combine.node_decides": "count",
    "henson.build_s_star_ms": "ms",
    "henson.component_label_calls": "count",
    "henson.component_label_ms": "ms",
    "checking.replay_calls": "count",
    "checking.replay_ms": "ms",
    "trace.solve_ms": "ms",
    "trace.overhead_share": "share",
}


class Tracer:
    def __init__(self):
        self.codes = array("B")
        self.parents = array("l")
        self.instances = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.truthy = array("b")  # the call returned True (entailment found)
        self.instance = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.starts)
        self.codes.append(_CODE[name])
        self.parents.append(self._stack[-1])
        self.instances.append(self.instance)
        self.ends.append(0)
        self.truthy.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def end(self, index: int, result=None) -> None:
        self.ends[index] = perf_counter_ns()
        self.truthy[index] = result is True
        self._stack.pop()

    def wrap(self, name, fn):
        """Wrap fn in a span; name may be a callable of the call's arguments."""
        begin, end = self.begin, self.end
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            index = begin(fixed or name(args))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(index, result)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, qcsp_modules):
        """Patch every binding through which the benchmark or qcsp reaches a
        traced function; restore the originals on exit."""
        m = qcsp_modules
        f = m.formulas
        plan = {
            "formulas.parse": [(f, "parse_problem")],
            "formulas.split": [(f, "split_by_signature"), (m.combine, "split_by_signature")],
            "formulas.collapse": [
                (f, "collapse_equalities"),
                (m.combine, "collapse_equalities"),
                (m.theories, "collapse_equalities"),
                (m.henson, "collapse_equalities"),
            ],
            "formulas.make_instance": [
                (f, "make_instance"),
                (m.combine, "make_instance"),
                (m.henson, "make_instance"),
            ],
            "theories.entails": [(m.theories.TheorySolver, "entails_eq")],
            "decide.henson": [(m.henson, "henson_decide")],
            "kernels.temporal_search": [(m.kernels, "temporal_search")],
            "kernels.embedding": [(m.kernels, "find_induced_embedding")],
            "combine.solve": [(m.combine, "solve_auto")],
            "combine.propagate_step": [(m.combine, "propagate_step")],
            "henson.build_s_star": [(m.henson, "build_s_star")],
            "henson.component_label": [(m.henson, "component_label_solve")],
            "checking.replay": [
                (m.checking, "check_combined_witness"),
                (m.checking, "check_henson_witness"),
            ],
        }
        solver = m.theories.TheorySolver
        try:
            self._patch(solver, "decide", self.wrap(
                lambda args: f"decide.{args[0].kind}", solver.decide
            ))
            for name, bindings in plan.items():
                wrappers = {}
                for owner, attr in bindings:
                    original = getattr(owner, attr)
                    if original not in wrappers:
                        wrappers[original] = self.wrap(name, original)
                    self._patch(owner, attr, wrappers[original])
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer means per traced instance, from the recorded spans, and
        each span name's self time as a share of the traced instance time.

        ``*_ms`` is the inclusive time of a layer's spans, ``*_self_ms`` the
        time not covered by child spans.  Replay spans count only toward
        ``checking.*``; every other layer counts spans under an instance.
        """
        n = len(self.starts)
        codes, parents = self.codes, self.parents
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        root = list(range(n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += duration[i]
                root[i] = root[p]
        instance_code = _CODE["instance"]
        replay_code = _CODE["checking.replay"]
        calls = [0] * len(SPAN_NAMES)
        total = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        node_decides = 0
        useful = 0
        replay_calls = 0
        replay_ns = 0
        decide_codes = {_CODE[name] for name in DECIDE}
        solve_code = _CODE["combine.solve"]
        entails_code = _CODE["theories.entails"]
        for i in range(n):
            code = codes[i]
            if codes[root[i]] == replay_code:
                if root[i] == i:
                    replay_calls += 1
                    replay_ns += duration[i]
                continue
            if codes[root[i]] != instance_code:
                continue
            calls[code] += 1
            total[code] += duration[i]
            self_ns[code] += duration[i] - child[i]
            # a decide span under an instance always has a parent
            if code in decide_codes and codes[parents[i]] == solve_code:
                node_decides += 1
            if code == entails_code and self.truthy[i]:
                useful += 1
        instances = max(1, calls[instance_code])

        def per(value, scale=1.0):
            return value * scale / instances

        ms = 1e-6
        c = _CODE
        out = {
            "formulas.parse_ms": per(total[c["formulas.parse"]], ms),
            "formulas.split_ms": per(total[c["formulas.split"]], ms),
            "formulas.collapse_calls": per(calls[c["formulas.collapse"]]),
            "formulas.collapse_ms": per(total[c["formulas.collapse"]], ms),
            "formulas.make_instance_calls": per(calls[c["formulas.make_instance"]]),
            "formulas.make_instance_ms": per(total[c["formulas.make_instance"]], ms),
        }
        for kind in KINDS:
            code = c[f"decide.{kind}"]
            out[f"theories.decide_calls.{kind}"] = per(calls[code])
            out[f"theories.decide_self_ms.{kind}"] = per(self_ns[code], ms)
        entails = calls[entails_code]
        out.update({
            "theories.entails_calls": per(entails),
            "theories.entails_ms": per(total[entails_code], ms),
            "theories.entails_useful_share": useful / entails if entails else 0.0,
            "kernels.temporal_search_calls": per(calls[c["kernels.temporal_search"]]),
            "kernels.temporal_search_ms": per(total[c["kernels.temporal_search"]], ms),
            "kernels.embedding_calls": per(calls[c["kernels.embedding"]]),
            "kernels.embedding_ms": per(total[c["kernels.embedding"]], ms),
            "combine.solve_self_ms": per(
                self_ns[solve_code] + self_ns[c["combine.propagate_step"]], ms
            ),
            "combine.propagate_rounds": per(calls[c["combine.propagate_step"]]),
            "combine.node_decides": per(node_decides),
            "henson.build_s_star_ms": per(total[c["henson.build_s_star"]], ms),
            "henson.component_label_calls": per(calls[c["henson.component_label"]]),
            "henson.component_label_ms": per(total[c["henson.component_label"]], ms),
            "checking.replay_calls": per(replay_calls),
            "checking.replay_ms": per(replay_ns, ms),
            "trace.solve_ms": per(total[instance_code], ms),
        })
        self_share = {
            SPAN_NAMES[code]: self_ns[code] / total[instance_code]
            for code in range(len(SPAN_NAMES))
            if total[instance_code] and calls[code]
        }
        return out, self_share

    def write(self, path) -> None:
        """Write every span as a tab-separated line: index, name, parent,
        instance, start_ns, end_ns, returned_true."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tparent\tinstance\tstart_ns\tend_ns\ttrue\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i}\t{SPAN_NAMES[self.codes[i]]}\t{self.parents[i]}\t"
                    f"{self.instances[i]}\t{self.starts[i]}\t{self.ends[i]}\t"
                    f"{self.truthy[i]}\n"
                )
