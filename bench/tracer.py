"""In-process tracer for the gmstruct pipeline.

Wraps, from outside the package, every public function of the gmstruct
modules (under each name it is bound to, including names imported with
``from ... import``), the stage table of the CLI and the kernel methods of
``ModelSystem``.  Each call opens a span; a span's self time is its
duration minus the time covered by its child spans.  Spans stay in memory
and are written once, after the run.

Run as a script it executes one traced ``gmstruct`` command in this process
and writes the trace as JSON::

    PYTHONPATH=src python3 bench/tracer.py --trace-out trace.json -- \
        all --config run.cfg --out outdir
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("config", "dynamics", "pliss", "inducing", "regularity", "stats", "cli")
MODEL_METHODS = ("base_map", "base_deriv", "base_inverse", "step_arrays", "push_tangent")
# private helpers traced for their counters only
PRIVATE_PROBES = {"inducing": ("_newton_edges",)}
# spans kept per name; the per-name aggregates still count every call
SPAN_CAP = 2000
NEWTON_TOL = 1e-12


def _newton_counts(result):
    err = np.asarray(result[1])
    return {"inducing.newton.solves": int(err.size),
            "inducing.newton.unconverged": int(np.count_nonzero(~(err <= NEWTON_TOL)))}


def _markov_counts(result):
    return {"inducing.verify.checked": int(result["checked"]),
            "inducing.verify.duplicates": int(result.get("duplicates", 0))}


def _scan_counts(result):
    return {"pliss.scanned_points": int(result.censored.size),
            "pliss.censored_points": int(np.count_nonzero(result.censored))}


def _construction_counts(result):
    return {"inducing.active_point_steps": int(sum(r["delta_prev"] for r in result.trace))}


#: counters read from the return value of a traced function
RESULT_COUNTERS = {
    "inducing._newton_edges": _newton_counts,
    "inducing.verify_markov": _markov_counts,
    "pliss.disk_scan": _scan_counts,
    "inducing.run_construction": _construction_counts,
}


class Tracer:
    """Spans and counters for one traced run; ``install`` / ``uninstall`` patch."""

    def __init__(self):
        self.stack = []          # open frames: [span id, owner, child seconds]
        self.spans = []          # (id, parent id, name, start, end)
        self.calls = {}          # name -> [calls, total seconds, self seconds, points]
        self.owner_points = {}   # (owning function, kernel method) -> points
        self.counters = {}
        self._next_id = 0
        self._wrappers = {}      # id(original) -> wrapper
        self._patches = []       # (setter, key, original value)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, kernel: bool = False):
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        tracer = self
        stack = self.stack
        calls = self.calls.setdefault(name, [0, 0.0, 0.0, 0])
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        # kernel work is credited to the nearest caller outside dynamics
        inherits_owner = name.startswith("dynamics.")

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            if stack:
                parent = stack[-1]
                owner = parent[1] if inherits_owner else name
            else:
                parent, owner = None, name
            frame = [span_id, owner, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                calls[0] += 1
                calls[1] += dur
                calls[2] += dur - frame[2]
                if calls[0] <= SPAN_CAP:
                    tracer.spans.append((span_id, None if parent is None else parent[0],
                                         name, start, end))
            if kernel:
                t = args[1] if len(args) > 1 else kwargs["t"]
                try:
                    pts = t.size
                except AttributeError:
                    pts = np.size(t)
                calls[3] += pts
                key = (owner, name)
                tracer.owner_points[key] = tracer.owner_points.get(key, 0) + pts
            if counter is not None:
                for key, val in counter(result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + val
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper._bench_traced = True
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, namespace, key, value):
        """Bind ``value`` to ``key`` of a module, class or dict until uninstall."""
        if isinstance(namespace, dict):
            self._patches.append((namespace.__setitem__, key, namespace[key]))
            namespace[key] = value
        else:
            self._patches.append((functools.partial(setattr, namespace), key,
                                  getattr(namespace, key)))
            setattr(namespace, key, value)

    def install(self):
        """Patch every traced name; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"gmstruct.{m}") for m in MODULES}
        for mname, mod in mods.items():
            probes = PRIVATE_PROBES.get(mname, ())
            for attr, val in list(vars(mod).items()):
                if not inspect.isfunction(val) or not val.__module__.startswith("gmstruct."):
                    continue
                if attr.startswith("_") and attr not in probes:
                    continue
                home = val.__module__.rsplit(".", 1)[1]
                self._patch(mod, attr, self._wrap(f"{home}.{val.__name__}", val))
        stages = mods["cli"].STAGES
        for key, fn in list(stages.items()):
            self._patch(stages, key, self._wrap(f"cli.{fn.__name__}", fn))
        model = mods["dynamics"].ModelSystem
        for meth in MODEL_METHODS:
            self._patch(model, meth, self._wrap(f"dynamics.{meth}", vars(model)[meth],
                                                kernel=True))
        return self

    def uninstall(self):
        """Restore every patched name, newest first."""
        while self._patches:
            restore, key, original = self._patches.pop()
            restore(key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name aggregates, per-owner kernel points, counters and spans."""
        return {
            "calls": {name: {"calls": c, "total_s": t, "self_s": s, "points": p}
                      for name, (c, t, s, p) in sorted(self.calls.items()) if c},
            "owner_points": [{"owner": o, "kernel": k, "points": p}
                             for (o, k), p in sorted(self.owner_points.items())],
            "counters": dict(sorted(self.counters.items())),
            "spans_recorded": len(self.spans),
            "spans_total": self._next_id,
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
        }


def leftover_wrappers() -> list:
    """Names in the gmstruct modules, stage table or ModelSystem still wrapped."""
    left = []
    mods = {m: importlib.import_module(f"gmstruct.{m}") for m in MODULES}
    for mname, mod in mods.items():
        left += [f"{mname}.{k}" for k, v in vars(mod).items()
                 if getattr(v, "_bench_traced", False)]
    left += [f"cli.STAGES[{k}]" for k, v in mods["cli"].STAGES.items()
             if getattr(v, "_bench_traced", False)]
    model = mods["dynamics"].ModelSystem
    left += [f"ModelSystem.{k}" for k, v in vars(model).items()
             if getattr(v, "_bench_traced", False)]
    return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, help="trace JSON to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for gmstruct, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    from gmstruct import cli

    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        code = cli.main(cli_args)
    wall = time.perf_counter() - start
    doc = {"exit_code": code, "wall_s": wall, "leftover_wrappers": leftover_wrappers()}
    doc.update(tracer.summary())
    with open(args.trace_out, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
