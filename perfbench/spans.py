"""Span recording around photonflow's public functions, installed from outside.

`install(tracer)` replaces every public function of the layer modules, the
`psi_grad` method of each field family, `GridSpec.mesh`, and cli's JSON and
CSV writers with thin timing wrappers.  A replaced function is also replaced
wherever another photonflow module imported it by name (`tracing.evaluate`,
`cli.detect_vortices`, the package namespace), so calls made inside the
library are seen too.  `install` returns a function that puts every original
back.

Span names:

* `fields.point.<family>`: one point evaluation, either `evaluate` (its inner
  0-d `psi_grad` gets no span of its own) or a bare 0-d `psi_grad` call;
* `fields.grid.<family>`: `psi_grad` on arrays, with the number of points;
* `grids.mesh`, `cli.<command>` (`cli.run`), `cli.encode` (the writers);
* `<module>.<function>` for every other public function.

Spans live in memory as flat arrays (name, start, end, parent, job) and are
written out by `Tracer.save`.  Self time is a span's duration minus the time
its direct children cover; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array

import numpy as np

LAYER_MODULES = ("fields", "grids", "observables", "weakmeasure", "forces",
                 "anomaly", "tracing", "cli")
WRITER_NAMES = ("_write_json", "_write_trace_csv")


class Tracer:
    """In-memory span store with running per-name totals."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.job = -1
        self._stack = []          # open spans: [span index, name id, child time]
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.points = {}          # grid points per fields.grid.* name
        self.bytes = 0            # bytes written by the cli writers
        self.child_calls = {}     # (parent name, child name) -> calls
        self.by_root = {}         # (outermost open span name, nested name) -> calls
        self.unmeasured = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        nid = self._id(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job_id.append(self.job)
        self.end.append(0.0)
        self._stack.append([index, nid, 0.0])
        self.start.append(time.perf_counter())
        return index

    def close(self, index):
        t_end = time.perf_counter()
        entry = self._stack.pop()
        assert entry[0] == index, "spans must close in the order they opened"
        self.end[index] = t_end
        duration = t_end - self.start[index]
        name = self.names[entry[1]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - entry[2]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            key = (self.names[parent[1]], name)
            self.child_calls[key] = self.child_calls.get(key, 0) + 1
            key = (self.names[self._stack[0][1]], name)
            self.by_root[key] = self.by_root.get(key, 0) + 1

    def current(self):
        return self.names[self._stack[-1][1]] if self._stack else None

    def save(self, path):
        """Write every span to an .npz file (names plus parallel arrays)."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job_id, dtype=np.int32))

    def __len__(self):
        return len(self.start)


def _wrap(tracer, fn, name_of, after=None):
    """`fn` inside a span named `name_of(args)`; `after(args)` runs once it ends."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
            if after is not None:
                after(args)
    return wrapper


def _psi_grad_wrapper(tracer, family, fn):
    point_name = "fields.point." + family
    grid_name = "fields.grid." + family

    @functools.wraps(fn)
    def wrapper(self, *coords):
        is_point = all(np.ndim(c) == 0 for c in coords)
        if is_point and tracer.current() == point_name:
            return fn(self, *coords)      # inside evaluate: already timed
        index = tracer.open(point_name if is_point else grid_name)
        try:
            return fn(self, *coords)
        finally:
            tracer.close(index)
            if not is_point:
                size = int(np.broadcast(*coords).size)
                tracer.points[grid_name] = tracer.points.get(grid_name, 0) + size
    return wrapper


def _count_bytes(tracer):
    def after(args):
        if os.path.exists(args[0]):
            tracer.bytes += os.path.getsize(args[0])
    return after


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def install(tracer):
    """Wrap photonflow's public functions; returns a callable that undoes it."""
    import photonflow
    from photonflow import fields, grids

    modules = {name: getattr(photonflow, name) for name in LAYER_MODULES}
    namespaces = [photonflow] + list(modules.values())
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod_name, module in modules.items():
        for fname, fn in list(_public_functions(module)):
            if fn is fields.evaluate:
                wrapped = _wrap(tracer, fn, lambda a: "fields.point." + a[0].family)
            elif mod_name == "cli" and fname == "run":
                wrapped = _wrap(tracer, fn, lambda a: "cli." + (a[0][0] if a[0] else "none"))
            else:
                wrapped = _wrap(tracer, fn, lambda a, name=f"{mod_name}.{fname}": name)
            for ns in namespaces:        # every module that imported it by name
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        patch(ns, attr, wrapped)

    cli = modules["cli"]
    for wname in WRITER_NAMES:
        fn = getattr(cli, wname, None)
        if fn is None:
            tracer.unmeasured.append("cli." + wname)
            continue
        patch(cli, wname, _wrap(tracer, fn, lambda a: "cli.encode", _count_bytes(tracer)))

    for cls in (fields.PlaneWaveSpec, fields.GaussianPairSpec, fields.BesselSpec,
                fields.EvanescentSpec, fields.TirTwoWaveSpec):
        patch(cls, "psi_grad", _psi_grad_wrapper(tracer, cls.family, cls.psi_grad))
    patch(grids.GridSpec, "mesh", _wrap(tracer, grids.GridSpec.mesh, lambda a: "grids.mesh"))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall
