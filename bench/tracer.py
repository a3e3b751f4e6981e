"""Spans recorded around calls into qgeo's public functions and methods.

The benchmark measures end-to-end numbers with no wrappers in place.  For
the traced run, :meth:`Tracer.install` replaces every public function and
method of the measured modules, under every name a qgeo module imported it
by, with a wrapper that records a span: name, start, end, parent span and op
id.  Spans are kept in flat in-memory arrays and written out once, at the
end.  A layer's self time is the duration of its spans minus the time their
child spans cover.

Properties are not wrapped; their cost is charged to the caller's layer.
``si`` is not measured (its functions are O(1) arithmetic).
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "propagation", "states", "hamiltonian", "quadrature", "geometry", "speedlimit")

ROOT_SPAN = "bench.op"
#: Calibration samples taken inside an op: charged to no layer and not to the op.
CAL_SPAN = "bench.cal"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self._op = -1
        self.active = False
        #: per-op counters recorded at constructors: op id -> Counter
        self.counts: dict[int, Counter] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._cal: list[tuple[int, int, float, float]] = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin(self, op_id: int) -> None:
        """Open the root span of one timed segment of op ``op_id``."""
        self._op = op_id
        self.active = True
        self._root = self._open(self._name_id(ROOT_SPAN))

    def finish(self) -> None:
        self._close(self._root)
        self.active = False

    def calibration(self, start: float, end: float) -> None:
        """Note a calibration sample taken by a signal handler inside an op.

        The handler may run between any two bytecodes, even inside
        ``_open``, so it only appends here; :meth:`arrays` turns the samples
        into ``bench.cal`` spans under the innermost span around them.
        """
        self._cal.append((self._op, self._stack[-1], start, end))

    def count(self, key: str, amount: int = 1) -> None:
        if self.active:
            self.counts.setdefault(self._op, Counter())[key] += amount

    def _wrap(self, func, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every measured module."""
        import qgeo

        modules = {layer: sys.modules[f"qgeo.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        # rebind every name a qgeo module (or the package) holds for a wrapped function
        for mod in [qgeo, *[m for n, m in sys.modules.items() if n.startswith("qgeo.")]]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        self._install_counters()

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(obj.__func__, name)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name))

    def _install_counters(self) -> None:
        """Count QuantumState instances and the nodes of every trace built."""
        from qgeo.propagation import EvolutionTrace
        from qgeo.states import QuantumState

        tracer = self
        state_init = QuantumState.__post_init__
        trace_init = EvolutionTrace.__post_init__

        def counted_state(self_):
            state_init(self_)
            tracer.count("states.constructed")

        def counted_trace(self_):
            trace_init(self_)
            nodes, dim = self_.n_nodes, self_.dim
            tracer.count("propagation.amplitude_bytes", nodes * dim * 16)
            if tracer.active:
                tracer.counts[tracer._op]["propagation.last_steps"] = nodes - 1

        self._set(QuantumState, "__post_init__", counted_state)
        self._set(EvolutionTrace, "__post_init__", counted_trace)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays, calibration samples included."""
        a = {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }
        if not self._cal:
            return a
        op, parent, start, end = (np.array(col) for col in zip(*self._cal))
        # a sample taken while a span was half opened or closed belongs to its parent
        outside = (a["start"][parent] > start) | (a["end"][parent] < end)
        parent = np.where(outside, a["parent"][parent], parent)
        extra = {"name": np.full(op.size, self._name_id(CAL_SPAN)), "start": start, "end": end, "parent": parent, "op": op}
        return {k: np.concatenate([a[k], extra[k]]) for k in a}

    def save(self, path) -> None:
        """Write every span, and the name table, to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, scale) -> dict:
        """Per-op means of layer self time and of inclusive time per span name.

        ``scale[op]`` converts op ``op``'s seconds to reference seconds.  Also
        returns the calls per span name and the constructor counts of the
        first op, which repeat exactly for the same inputs.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        scale = np.asarray(scale, dtype=float)
        n_ops = scale.size
        groups = (*LAYERS, "bench", "cal")
        layer_of = np.array(
            [groups.index("cal" if n == CAL_SPAN else n.split(".", 1)[0]) for n in self.names], dtype=np.int64
        )

        def per_op_mean(keys, n_keys, weights):
            table = np.bincount(a["op"] * n_keys + keys, weights=weights, minlength=n_ops * n_keys)
            return (table.reshape(n_ops, n_keys) * scale[:, None]).mean(axis=0)

        by_layer = per_op_mean(layer_of[a["name"]], len(groups), dur - child)
        by_name = per_op_mean(a["name"], len(self.names), dur)
        calls = np.bincount(a["name"][a["op"] == 0], minlength=len(self.names))
        root = a["name"] == self._ids[ROOT_SPAN]
        cal = a["name"] == self._ids.get(CAL_SPAN, -1)
        op_s = np.bincount(a["op"][root], weights=dur[root], minlength=n_ops)
        op_s -= np.bincount(a["op"][cal], weights=dur[cal], minlength=n_ops)
        return {
            "self_s": dict(zip(groups, by_layer.tolist())),
            "inclusive_s": dict(zip(self.names, by_name.tolist())),
            "first_op_calls": {n: int(c) for n, c in zip(self.names, calls)},
            "first_op_counts": dict(self.counts.get(0, Counter())),
            "op_s": (op_s * scale).tolist(),
        }
