"""Outside-in span tracer for the fpbprobe layers.

`Tracer.install` wraps every public function of each layer module, and
the construction (``__post_init__``) and public methods of its public
classes, then rebinds every name in the package that refers to an
original, so names imported by ``cli`` and the other layers are traced
too.  The simulator's private ``_run_chunk`` is the one private function
traced: it separates per-round kernel time from per-session setup.

Spans carry (name, parent, op id, start, end) in flat arrays and are
only recorded while a benchmark op is open.  A span's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("probe", "discrimination", "entropy", "uncertainty", "linalg", "simulator", "cli")
BENCH = "bench"
PRIVATE_SPANS = {"simulator": ("_run_chunk",)}
CLOSED_FORMS = tuple(
    "uncertainty." + name
    for name in (
        "mu_factor", "mu_bound", "coles_piani_bound", "zeta2_closed_form", "zeta_closed_form",
        "majorization_data", "majorization_bound_tensor", "majorization_bound_direct_sum",
        "majorization_entropy_bound", "mutual_info_upper_bound",
    )
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []  # layer index per name id; len(LAYERS) is the benchmark
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.errors = [0] * len(LAYERS)
        self._undo: list[tuple[object, str, object]] = []
        self._root = self._name_id(BENCH + ".op", len(LAYERS))

    def _name_id(self, name: str, layer: int) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, layer: int):
        nid = self._name_id(name, layer)
        span_name, parent, op_of, start, end = self.span_name, self.parent, self.op_of, self.start, self.end
        stack, errors, clock, tracer = self.stack, self.errors, time.perf_counter_ns, self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            op = tracer.op_id
            if op < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            op_of.append(op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_class(self, cls, layer: int) -> None:
        prefix = f"{LAYERS[layer]}.{cls.__name__}"
        for attr, raw in list(vars(cls).items()):
            if attr == "__post_init__":
                name = prefix
            elif attr.startswith("_"):
                continue
            else:
                name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, layer))

    def install(self) -> None:
        wrappers = {}
        for layer, short in enumerate(LAYERS):
            mod = importlib.import_module(f"fpbprobe.{short}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not attr.startswith("_")
                if inspect.isfunction(obj) and (public or attr in PRIVATE_SPANS.get(short, ())):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", layer))
                elif inspect.isclass(obj) and public:
                    self._patch_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fpbprobe" and not mod_name.startswith("fpbprobe."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    @contextlib.contextmanager
    def op(self, k: int):
        """Open the root span of benchmark op `k`; layer spans nest under it."""
        idx = len(self.start)
        self.span_name.append(self._root)
        self.parent.append(-1)
        self.op_of.append(k)
        self.end.append(0)
        self.stack.append(idx)
        self.op_id = k
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()
            self.op_id = -1

    def summary(self) -> "Spans":
        return Spans(self)


class Spans:
    """Recorded spans as numpy arrays, with self time per span."""

    def __init__(self, tr: Tracer):
        self.names = tr.names
        self.name = np.frombuffer(tr.span_name, dtype=np.int32).astype(np.int64)
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).astype(np.int64)
        self.op = np.frombuffer(tr.op_of, dtype=np.int32).astype(np.int64)
        self.start = np.frombuffer(tr.start, dtype=np.int64).copy()
        self.dur = np.frombuffer(tr.end, dtype=np.int64) - self.start
        self.layer = np.asarray(tr.layer_of, dtype=np.int64)[self.name]
        has_parent = self.parent >= 0
        cover = np.zeros(self.dur.size, dtype=np.int64)
        np.add.at(cover, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - cover
        self.errors = list(tr.errors)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def under(self, ancestors: tuple[str, ...]) -> np.ndarray:
        """True for spans with an ancestor named in `ancestors`.

        Spans are stored in start order, so every parent precedes its
        children and one forward pass suffices.
        """
        ids = {self.names.index(a) for a in ancestors if a in self.names}
        names, parents = self.name.tolist(), self.parent.tolist()
        out = [False] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                out[i] = out[p] or names[p] in ids
        return np.array(out, dtype=bool)

    def layer_self_ns(self, op_mask: np.ndarray) -> dict[str, int]:
        """Self time per layer (and the benchmark's own) over the selected spans."""
        totals = np.bincount(self.layer[op_mask], weights=self.self_ns[op_mask], minlength=len(LAYERS) + 1)
        return {name: int(totals[i]) for i, name in enumerate(LAYERS + (BENCH,))}

    def unaccounted_ns(self) -> int:
        """Largest per-op gap between root duration and the sum of self times."""
        roots = self.parent < 0
        n_ops = int(self.op.max()) + 1 if self.op.size else 0
        self_sum = np.zeros(n_ops, dtype=np.int64)
        np.add.at(self_sum, self.op, self.self_ns)
        root_dur = np.zeros(n_ops, dtype=np.int64)
        root_dur[self.op[roots]] = self.dur[roots]
        return int(np.abs(self_sum - root_dur).max()) if n_ops else 0

    def write(self, path) -> None:
        """Write every span as numpy arrays (.npz), one entry per span."""
        np.savez(path, names=np.array(self.names), layers=np.array(LAYERS + (BENCH,)),
                 name=self.name, layer=self.layer, parent=self.parent, op=self.op,
                 start_ns=self.start, dur_ns=self.dur, self_ns=self.self_ns)
