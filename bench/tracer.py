"""Run one fieldtopo CLI command with every layer boundary traced.

Usage: python3 bench/tracer.py TRACE_FILE RUN_ID -- CLI_ARGS...

Nothing under src/ is changed.  Before the command starts, the public
functions of each fieldtopo module, ``KernelProjector.apply``/``apply_dual``
and the scipy.sparse.linalg entry points the solver calls are replaced by
wrappers that record a span (name, start, end, parent) and counters.  Spans
stay in memory; at exit they are written, with the per-layer metrics derived
from them, to TRACE_FILE, which lies outside the command's --out directory.
The thread environment variables must be set by the caller, because numpy
is loaded here before the CLI could set them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

LAYERS = (
    "generators", "mesh", "snf", "homology", "surface", "fem",
    "cuts", "beltrami", "analysis", "writers", "cli",
)

# Topology functions whose repeated calls on the same input are wasted work.
TOPOLOGY = (
    "snf.integer_kernel_basis", "homology.betti_numbers", "homology.h1_cocycles_auto",
    "homology.h1_basis", "homology.tree_gauge_cocycles", "homology.pairing_loop",
    "surface.boundary_surface",
)
CALLS_AND_TIME = TOPOLOGY + ("snf.smith_normal_form",)
TIME_ONLY = (
    "beltrami.smallest_beltrami", "beltrami.reduce_system", "beltrami.kernel_projector",
    "homology.relative_betti", "mesh.validate_complex", "fem.build_fem",
    "cuts.harmonic_representative", "cuts.extract_cut", "cuts.verify_cut",
    "cuts.critical_scan", "analysis.analyze_field",
    "writers.write_json", "writers.write_mesh_vtk", "writers.write_cut_vtk",
)
SPLU_SPANS = ("scipy.splu.factor", "scipy.splu.solve")


def _fingerprint(obj, h) -> None:
    """Feed the content of a call argument into the hash ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif sp.issparse(obj):
        m = obj.tocsr()
        h.update(f"sp{m.shape}".encode())
        for part in (m.indptr, m.indices, m.data):
            h.update(np.ascontiguousarray(part).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _fingerprint(item, h)
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        for name in obj.__dataclass_fields__:
            value = getattr(obj, name)
            if not isinstance(value, dict):
                _fingerprint(value, h)
    else:
        h.update(repr(obj).encode())


class _TracedLU:
    """SuperLU stand-in whose solves are traced."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        self._tracer.counters["scipy.splu.solves"] += 1
        return self._tracer.call("scipy.splu.solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.nnz_max = 0
        self.topology_inputs: set[tuple[str, str]] = set()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), None])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter: str | None = None):
        tracer = self
        is_topology = name in TOPOLOGY
        is_writer = name.startswith("writers.write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counters[counter] += 1
            if is_topology:
                h = hashlib.sha256()
                _fingerprint(args, h)
                tracer.topology_inputs.add((name, h.hexdigest()))
            result = tracer.call(name, fn, args, kwargs)
            if is_writer:
                tracer.counters["writers.bytes"] += os.path.getsize(args[0])
            return result

        return traced

    # scipy entry points ------------------------------------------------

    def splu(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            lu = tracer.call("scipy.splu.factor", fn, args, kwargs)
            tracer.nnz_max = max(tracer.nnz_max, lu.L.nnz + lu.U.nnz)
            return _TracedLU(tracer, lu)

        return traced

    def cg(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, callback=None, **kwargs):
            def count(xk):
                tracer.counters["scipy.cg.iterations"] += 1
                if callback is not None:
                    callback(xk)

            tracer.counters["scipy.cg.calls"] += 1
            return tracer.call("scipy.cg", fn, args, dict(kwargs, callback=count))

        return traced

    # installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"fieldtopo.{name}") for name in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        replace[id(spla.splu)] = self.splu(spla.splu)
        replace[id(spla.cg)] = self.cg(spla.cg)
        replace[id(spla.eigsh)] = self.wrap("scipy.eigsh", spla.eigsh)
        # a function bound by ``from .x import y`` lives in several namespaces:
        # replace every binding of the same object
        namespaces = [vars(mod) for mod in modules.values()] + [vars(spla)]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in replace:
                    ns[attr] = replace[id(obj)]
        kp = modules["beltrami"].KernelProjector
        apply, apply_dual = kp.apply, kp.apply_dual
        kp.apply = self.wrap("beltrami.KernelProjector.apply", apply, "beltrami.projector_applies")
        kp.apply_dual = self.wrap("beltrami.KernelProjector.apply_dual", apply_dual,
                                  "beltrami.projector_applies")
        if kp.__call__ is apply:
            kp.__call__ = kp.apply

    # metrics -----------------------------------------------------------

    def _outermost(self, match) -> tuple[int, float]:
        """Call count and inclusive time of spans whose name satisfies ``match``,
        counting time once where such spans nest."""
        calls, total = 0, 0.0
        for name, parent, start, end in self.spans:
            if not match(name):
                continue
            calls += 1
            while parent >= 0 and not match(self.spans[parent][0]):
                parent = self.spans[parent][1]
            if parent < 0:
                total += end - start
        return calls, total

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in CALLS_AND_TIME:
            out[f"{name}.calls"], out[f"{name}.time_s"] = self._outermost(name.__eq__)
        for name in TIME_ONLY:
            out[f"{name}.time_s"] = self._outermost(name.__eq__)[1]
        out["generators.time_s"] = self._outermost(lambda s: s.startswith("generators."))[1]
        out["scipy.splu.time_s"] = self._outermost(lambda s: s in SPLU_SPANS)[1]
        for name in ("scipy.splu.solves", "scipy.cg.calls", "scipy.cg.iterations",
                     "beltrami.projector_applies", "writers.bytes"):
            out[name] = self.counters[name]
        out["scipy.splu.factor_nnz_max"] = self.nnz_max
        topo_calls = sum(1 for s in self.spans if s[0] in TOPOLOGY)
        out["homology.useful_call_ratio"] = (
            len(self.topology_inputs) / topo_calls if topo_calls else 1.0
        )
        child_time = Counter()
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out["cli.run.self_s"] = sum(
            s[3] - s[2] - child_time[i] for i, s in enumerate(self.spans) if s[0] == "cli.run"
        )
        return out

    def dump(self, path: str, status: int) -> None:
        doc = {
            "run_id": self.run_id,
            "status": status,
            "metrics": self.metrics(),
            "spans": [
                {"id": i, "name": name, "parent": parent, "start": start, "end": end,
                 "run_id": self.run_id}
                for i, (name, parent, start, end) in enumerate(self.spans)
            ],
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_file, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    cli = importlib.import_module("fieldtopo.cli")
    status = 1
    try:
        status = cli.main(cli_args)
    finally:
        tracer.dump(trace_file, status)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
