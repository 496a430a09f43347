"""Span recorder for the traced run.

`SpanRecorder.traced()` replaces every public function of the measured
modules with a wrapper that records one span per call: name, start, end,
parent span and op id.  It also replaces the names other modules bound on
import (`model` imports `layers` functions by name, `harness` imports `pga`
and `batch` names), so every call path into a function is seen.  Spans stay
in flat arrays in memory until `write()`.

Two exact counters ride on the same wrappers: the tape nodes handed to
`autodiff.backward` and the analytic FLOPs of each `model.forward`, taken
from `model.flop_count` for the forward's shape.
"""

import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from eqtraffic import autodiff, batch, harness, layers, model, pga, scene

MODULES = {
    "pga": pga,
    "batch": batch,
    "autodiff": autodiff,
    "layers": layers,
    "scene": scene,
    "model": model,
    "harness": harness,
}

# `data_of` is a one-line accessor called on nearly every value; a span
# around it would cost more than the work it measures.
UNTRACED = frozenset({"autodiff.data_of"})

ROOT_SPAN = "op"

_flop_count = model.flop_count


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with `_`."""
    return {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def primitive_names() -> frozenset:
    """The tape primitives: public `autodiff` functions from `add` to `embedding` in source order."""
    fns = public_functions(autodiff)
    first = fns["add"].__code__.co_firstlineno
    last = fns["embedding"].__code__.co_firstlineno
    return frozenset(
        f"autodiff.{name}" for name, fn in fns.items()
        if first <= fn.__code__.co_firstlineno <= last
    )


class SpanRecorder:
    """Spans in flat arrays; span i has parent index `parent[i]` (-1 at the top)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._current_op = [-1]   # a cell the wrappers read without an attribute lookup
        self.tape_nodes: dict[int, int] = {}
        self._forwards: list = []   # (op id, cfg, A, M, T) per forward; FLOPs counted afterwards

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count_tape(self, args, kwargs) -> None:
        tape = args[0] if args else kwargs["tape"]
        op = self._current_op[0]
        self.tape_nodes[op] = self.tape_nodes.get(op, 0) + len(tape.nodes)

    def _note_forward(self, args, kwargs) -> None:
        tb = args[0] if args else kwargs["batch"]
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        self._forwards.append((self._current_op[0], cfg, tb.num_agents, tb.num_map, tb.num_steps))

    def forward_flops(self) -> dict:
        """op id -> analytic FLOPs summed over that op's forwards."""
        flops: dict[int, float] = {}
        for op, cfg, agents, map_tokens, steps in self._forwards:
            total = _flop_count(cfg, agents, map_tokens, steps, "geometric")["total"]
            flops[op] = flops.get(op, 0.0) + total
        return flops

    def _wrap(self, qual: str, fn):
        nid = self._intern(qual)
        hook = {"autodiff.backward": self._count_tape,
                "model.forward": self._note_forward}.get(qual)
        # bound methods hoisted out of the call path: the wrapper runs tens of
        # thousands of times per op
        stack, end = self._stack, self.end
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_op = self.name_id.append, self.parent.append, self.op_id.append
        add_start, add_end = self.start.append, self.end.append
        current_op = self._current_op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_op(current_op[0])
            push(idx)
            add_end(0.0)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()

        return wrapper

    @contextmanager
    def traced(self):
        """Patch the modules for the duration of the block, then restore them."""
        wrappers = {}
        for mod_name, module in MODULES.items():
            for name, fn in public_functions(module).items():
                qual = f"{mod_name}.{name}"
                if qual not in UNTRACED:
                    wrappers[id(fn)] = self._wrap(qual, fn)
        patches = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("eqtraffic"):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one traced op; every span opened inside carries `op_id`."""
        self._current_op[0] = op_id
        idx = len(self.end)
        self.name_id.append(self._intern(ROOT_SPAN))
        self.parent.append(-1)
        self.op_id.append(op_id)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._current_op[0] = -1

    def op_seconds(self) -> list:
        """Durations of the root spans, in op order."""
        root = self._name_ids.get(ROOT_SPAN)
        return [e - s for n, s, e in zip(self.name_id, self.start, self.end) if n == root]

    def totals(self, in_ops: bool) -> dict:
        """name -> (calls, self seconds, inclusive seconds), over traced ops or over set-up.

        Self time is a span's duration minus the durations of its direct
        children; spans nest, so that is the part no child covers.
        """
        if not self.start:
            return {}
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        ops = np.asarray(self.op_id)
        keep = ops >= 0 if in_ops else ops < 0
        ids = np.asarray(self.name_id)[keep]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=self_time[keep], minlength=n)
        incl_s = np.bincount(ids, weights=dur[keep], minlength=n)
        return {
            name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
            for i, name in enumerate(self.names) if calls[i]
        }

    def write(self, path) -> None:
        """All spans as arrays: names[name_id], parent index, op id, start and end seconds."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            op_id=np.asarray(self.op_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
