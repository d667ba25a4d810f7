"""Span recording around the package's layer boundaries, from the outside.

A Tracer replaces a function with a wrapper in every symilp module that
holds it, so a name imported with ``from .oracle import solve_bb`` is
wrapped where it is called, not only where it is defined. Each call records
a span (name, start, end, parent span, optional attributes). Spans stay in
memory until the run ends; per-layer figures and self times are computed
from them afterwards.
"""

from __future__ import annotations

import json
import sys
import time

# (defining module, attribute, span name). Every symilp module that holds
# the same function object under the same attribute is patched as well.
TARGETS = (
    ("symilp.bench", "build_dataset", "bench.build_dataset"),
    ("symilp.bench", "generate_instances", "bench.generate_instances"),
    ("symilp.oracle", "solve_bb", "oracle.solve_bb"),
    ("symilp.oracle", "linprog", "oracle.linprog"),
    ("symilp.oracle", "check_feasible", "oracle.check_feasible"),
    ("symilp.instance", "write_json", "instance.write_json"),
    ("symilp.instance", "read_json", "instance.read_json"),
    ("symilp.graph", "encode", "graph.encode"),
    ("symilp.train", "load_dataset", "train.load_dataset"),
    ("symilp.train", "fit", "train.fit"),
    ("symilp.train", "update_permutations", "train.update_permutations"),
    ("symilp.train", "risk_classic", "train.risk_classic"),
    ("symilp.train", "aligned_risk", "train.aligned_risk"),
    ("symilp.net", "forward", "net.forward"),
    ("symilp.net", "loss_and_grad", "net.loss_and_grad"),
    ("symilp.net", "adam_step", "net.adam_step"),
    ("symilp.tape", "backward", "tape.backward"),
    ("symilp.tape", "scatter_add_rows", "tape.scatter_add_rows"),
    ("symilp.align", "best_perm", "align.best_perm"),
    ("symilp.align", "hungarian", "align.hungarian"),
    ("symilp.evalx", "evaluate_predictions", "evalx.evaluate_predictions"),
    ("symilp.evalx", "top_m_error", "evalx.top_m_error"),
    ("symilp.evalx", "fix_and_optimize", "evalx.fix_and_optimize"),
    ("symilp.evalx", "local_branching", "evalx.local_branching"),
)

REPAIRS = ("evalx.fix_and_optimize", "evalx.local_branching")


def _solve_attrs(state, out):
    return {"nodes": int(out.nodes), "limit": out.status == "limit_reached"}


def _repair_attrs(state, out):
    return {"no_solution": out.solution is None}


def _pi_key(sample):
    return None if sample.pi is None or sample.pi.is_identity() else sample.pi.mapping


def _pi_before(args, kwargs):
    samples = list(args[1] if len(args) > 1 else kwargs["samples"])
    return [(s, _pi_key(s)) for s in samples]


def _pi_after(state, out):
    return {"pi_changed": sum(_pi_key(s) != before for s, before in state)}


# span name -> (hook run before the call, hook turning the result into attributes)
HOOKS = {
    "oracle.solve_bb": (None, _solve_attrs),
    "evalx.fix_and_optimize": (None, _repair_attrs),
    "evalx.local_branching": (None, _repair_attrs),
    "train.update_permutations": (_pi_before, _pi_after),
}


def patch_everywhere(module_name: str, attr: str, make_wrapper):
    """Replace module.attr in every symilp module that holds the same object.

    Returns the list of (module, attr, original) needed to undo the patch.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "symilp" or name.startswith("symilp.")):
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)
            undo.append((mod, attr, original))
    return undo


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # [name id, start s, end s, parent span index or -1, attributes or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        before, after = HOOKS.get(span_name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                state = before(args, kwargs) if before else None
                idx = len(spans)
                span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
                spans.append(span)
                stack.append(idx)
                span[1] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if after:
                    span[4] = after(state, out)
                return out

            return traced

        return make

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            undo = patch_everywhere(module_name, attr, self._wrap(span_name))
            if not undo:
                raise RuntimeError(f"{module_name}.{attr} is not referenced by any symilp module")
            self._undo.extend(undo)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo = []

    # ------------------------------------------------------------------
    # Summaries

    def summary(self) -> dict:
        """Per-name calls, total ms and self ms, plus the named counters."""
        n = len(self.spans)
        child_s = [0.0] * n
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        names = self.names
        calls = {name: 0 for name in names}
        total_ms = {name: 0.0 for name in names}
        self_ms = {name: 0.0 for name in names}
        for i, span in enumerate(self.spans):
            name = names[span[0]]
            dur = span[2] - span[1]
            calls[name] += 1
            total_ms[name] += dur * 1e3
            self_ms[name] += (dur - child_s[i]) * 1e3

        def ancestor_in(idx, wanted):
            parent = self.spans[idx][3]
            while parent >= 0:
                if names[self.spans[parent][0]] in wanted:
                    return True
                parent = self.spans[parent][3]
            return False

        nodes = limit_hits = repair_nodes = no_solution = pi_changed = 0
        linprog_in_bb_ms = 0.0
        for i, span in enumerate(self.spans):
            name = names[span[0]]
            attrs = span[4]
            if name == "oracle.solve_bb":
                nodes += attrs["nodes"]
                limit_hits += attrs["limit"]
                if ancestor_in(i, REPAIRS):
                    repair_nodes += attrs["nodes"]
            elif name in REPAIRS:
                no_solution += attrs["no_solution"]
            elif name == "train.update_permutations":
                pi_changed += attrs["pi_changed"]
            elif name == "oracle.linprog" and ancestor_in(i, ("oracle.solve_bb",)):
                linprog_in_bb_ms += (span[2] - span[1]) * 1e3
        return {
            "calls": calls,
            "ms": total_ms,
            "self_ms": self_ms,
            "counters": {
                "oracle.solve_bb.nodes": nodes,
                "oracle.limit_hits": limit_hits,
                "evalx.solve_bb.nodes": repair_nodes,
                "evalx.no_solution": no_solution,
                "train.pi_changed": pi_changed,
                "oracle.linprog_in_solve_bb_ms": linprog_in_bb_ms,
            },
        }

    def write(self, path: str, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "span_fields": ["name_id", "start_us", "end_us", "parent", "attrs"],
            "spans": [
                [s[0], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), s[3], s[4]]
                for s in self.spans
            ],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
