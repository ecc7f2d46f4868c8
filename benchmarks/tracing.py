"""Spans around the public functions of grail's layers, recorded from outside.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever a loaded `grail` module binds it, so calls made through
`from .kg import khop_nodes` style imports are caught as well.  Modules are
found through `sys.modules`, because the `grail` package rebinds the names
`grail.train` and `grail.evaluate` to functions.  Spans are aggregated in
memory by name (calls, inclusive time, self time) and by caller, and written
out once the run ends.  Self time is a span's duration minus the time its
traced child spans took.  Tape tensors are counted without a wrapper, from
the serial number the autodiff module gives each new tensor, so that
counting them costs nothing per tensor.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); an attribute "Class.method" patches the class.
SPANS = [
    ("grail.kg", "khop_nodes", "kg.khop_nodes"),
    ("grail.kg", "build_indices", "kg.build_indices"),
    ("grail.subgraph", "extract_enclosing", "subgraph.extract_enclosing"),
    ("grail.subgraph", "label_nodes", "subgraph.label_nodes"),
    ("grail.model", "score_triplet", "model.score_triplet"),
    ("grail.model", "layer_forward", "model.layer_forward"),
    ("grail.autodiff", "Tensor.backward", "autodiff.backward"),
    ("grail.train", "train", "train.train"),
    ("grail.train", "adam_step", "train.adam_step"),
    ("grail.train", "clip_gradients", "train.clip_gradients"),
    ("grail.evaluate", "evaluate", "evaluate.evaluate"),
    ("grail.evaluate", "GrailScorer.__call__", "evaluate.scorer"),
    ("grail.evaluate", "sample_negative", "evaluate.sample_negative"),
]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.callers: dict[tuple[str, str], int] = {}
        self.subgraph_sizes: list[tuple[int, int]] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total_s, self_s, callers = self.calls, self.total_s, self.self_s, self.callers
        for table in (calls, total_s, self_s):
            table.setdefault(name, 0)
        sizes = self.subgraph_sizes if name == "subgraph.extract_enclosing" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += took
                self_s[name] += took - frame[0]
                key = (parent[1] if parent else "", name)
                callers[key] = callers.get(key, 0) + 1
                if parent:
                    parent[0] += took
            if sizes is not None:
                sizes.append((len(out.nodes), len(out.edges)))
            return out

        return traced

    @property
    def tensors(self) -> int:
        """Tensors created so far in the process (this probe included)."""
        return sys.modules["grail.autodiff"].constant(0.0)._serial

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "grail" or n.startswith("grail.")]
        for module_name, attr, name in SPANS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "sizes": len(self.subgraph_sizes),
            "tensors": self.tensors,
        }

    def report(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in self.calls
            },
            "callers": [{"caller": c or None, "callee": n, "calls": k}
                        for (c, n), k in sorted(self.callers.items())],
            "tensors": self.tensors,
        }
