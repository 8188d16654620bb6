"""Spans for the traced benchmark run, and the per-layer metrics they give.

The traced run swaps, for its duration, the module attributes through
which one ptb layer calls another for wrappers that record one span per
call.  Nothing under src/ changes and the untraced run calls the original
functions.  Models built through ``builtin`` are wrapped in a
CountingPotential, so each potential evaluation is a span as well.

A span is a list ``[name, parent, start, end, attrs]``; parent is the index
of the enclosing span (-1 at the root).  Spans stay in memory until
``write`` saves them at the end of a run.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import ptb.binding
import ptb.circular
import ptb.cli
import ptb.output
import ptb.potentials
import ptb.reduced
import ptb.worldline
from ptb.potentials import PotentialSpec


def _trajectory_attrs(args, traj):
    return {"steps_accepted": traj.n_accepted, "steps_rejected": traj.n_rejected,
            "samples": len(traj.samples)}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _constancy_attrs(args, report):
    return {"constancy_false": int(not report.ok())}


def _periodicity_attrs(args, report):
    return {"periodic_false": int(not report.ok())}


_INTEGRATE = ("reduced.integrate", _trajectory_attrs)

# Every alias through which a layer is reached: (module, attribute, span
# name, attrs).  attrs(args, result) returns counters stored on the span.
INTEGRATE_ALIASES = (
    (ptb.cli, "integrate", *_INTEGRATE),
    (ptb.reduced, "integrate", *_INTEGRATE),
    (ptb.circular, "integrate", *_INTEGRATE),
)

LAYERS = INTEGRATE_ALIASES + (
    (ptb.cli, "build_scenario", "cli.build_scenario", None),
    (ptb.cli, "run_scenario", "cli.run_scenario", None),
    (ptb.cli, "self_consistent_shell", "binding.self_consistent", None),
    (ptb.cli, "synchronize", "reduced.synchronize", None),
    (ptb.cli, "worldlines", "worldline.worldlines", None),
    (ptb.cli, "export_lab_frame", "worldline.export_lab_frame", None),
    (ptb.cli, "diagnostics", "output.diagnostics", None),
    (ptb.cli, "trajectory_rows", "output.rows", None),
    (ptb.cli, "json_payload", "output.json_payload", None),
    (ptb.cli, "write_csv", "output.write", _written_bytes),
    (ptb.cli, "write_json", "output.write", _written_bytes),
    (ptb.reduced, "rhs", "reduced.rhs", None),
    (ptb.reduced, "synchronize", "reduced.synchronize", None),
    (ptb.circular, "synchronize", "reduced.synchronize", None),
    (ptb.circular, "verify_constancy", "circular.verify", _constancy_attrs),
    (ptb.circular, "verify_periodicity", "circular.verify", _periodicity_attrs),
    (ptb.binding, "self_consistent_shell", "binding.self_consistent", None),
    (ptb.binding, "self_consistent_circular", "binding.self_consistent", None),
    (ptb.binding, "find_circular", "circular.find", None),
    (ptb.binding, "mass_shell_from_lambda", "binding.shell_solve", None),
    (ptb.binding, "binding_energy", "binding.energy", None),
    (ptb.worldline, "worldlines", "worldline.worldlines", None),
    (ptb.worldline, "export_lab_frame", "worldline.export_lab_frame", None),
    (ptb.worldline, "resample_uniform_T", "worldline.resample", None),
    (ptb.worldline, "lambda_from_T", "worldline.lambda_from_T", None),
    (ptb.output, "trajectory_rows", "output.rows", None),
    (ptb.output, "diagnostics", "output.diagnostics", None),
    (ptb.output, "json_payload", "output.json_payload", None),
    (ptb.output, "write_csv", "output.write", _written_bytes),
    (ptb.output, "write_json", "output.write", _written_bytes),
)

BUILTIN_ALIASES = ((ptb.cli, "builtin"), (ptb.potentials, "builtin"))


class CountingPotential(PotentialSpec):
    """Forwards a model's structure flags and records each evaluation."""

    def __init__(self, inner: PotentialSpec, tracer: "Tracer"):
        self._inner = inner
        self._evaluate = tracer.wrap(inner.evaluate, "potentials.evaluate")

    @property
    def name(self):
        return self._inner.name

    @property
    def central(self):
        return self._inner.central

    @property
    def p2_independent(self):
        return self._inner.p2_independent

    @property
    def w_independent(self):
        return self._inner.w_independent

    def evaluate(self, q):
        return self._evaluate(q)

    def describe(self) -> dict:
        return self._inner.describe()


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, layers=LAYERS, proxy_models: bool = True):
        self.layers = layers
        self.proxy_models = proxy_models
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1], perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return traced

    def run(self, name, fn, *args):
        """Call fn as a root span (one benchmark pass) with the layers patched."""
        with self._patched():
            return self.wrap(fn, name)(*args)

    @contextmanager
    def _patched(self):
        saved = []
        try:
            for module, attr, name, attrs in self.layers:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), name, attrs))
            if self.proxy_models:
                for module, attr in BUILTIN_ALIASES:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._proxied(original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _proxied(self, builtin):
        def make(*args, **kwargs):
            return CountingPotential(builtin(*args, **kwargs), self)
        return make

    def roots(self) -> list[int]:
        return [i for i, rec in enumerate(self.spans) if rec[1] == -1]

    def totals(self, root: int) -> dict:
        """Inclusive time, self time, calls and summed attrs per span name
        over the tree under one root span."""
        stop = next((i for i in self.roots() if i > root), len(self.spans))
        incl = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        attrs = defaultdict(int)
        for i in range(root, stop):
            name, parent, start, end, extra = self.spans[i]
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            if extra:
                for key, val in extra.items():
                    attrs[key] += val
        self_time = defaultdict(float)
        for i in range(root, stop):
            name, _, start, end, _ = self.spans[i]
            self_time[name] += (end - start) - child[i]
        return {"incl": incl, "self": self_time, "calls": calls, "attrs": attrs}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s,attrs\n")
            for i, (name, parent, start, end, extra) in enumerate(self.spans):
                kv = ";".join(f"{k}={v}" for k, v in (extra or {}).items())
                fh.write(f"{i},{name},{parent},{start!r},{end!r},{kv}\n")


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    incl, self_time = totals["incl"], totals["self"]
    calls, attrs = totals["calls"], totals["attrs"]
    steps = attrs["steps_accepted"]
    integrate_s = incl["reduced.integrate"]
    return {
        "reduced.integrate_s": integrate_s,
        "dopri.loop_s": self_time["reduced.integrate"],
        "dopri.steps_accepted": steps,
        "dopri.steps_rejected": attrs["steps_rejected"],
        "dopri.us_per_step": 1e6 * integrate_s / steps if steps else 0.0,
        "reduced.rhs_s": incl["reduced.rhs"],
        "reduced.rhs_calls": calls["reduced.rhs"],
        "reduced.rhs_per_step": calls["reduced.rhs"] / steps if steps else 0.0,
        "potentials.evaluate_s": incl["potentials.evaluate"],
        "potentials.evaluate_calls": calls["potentials.evaluate"],
        "reduced.synchronize_s": incl["reduced.synchronize"],
        "worldline.worldlines_s": incl["worldline.worldlines"],
        "worldline.export_lab_frame_s": incl["worldline.export_lab_frame"],
        "output.rows_s": incl["output.rows"],
        "output.diagnostics_s": incl["output.diagnostics"],
        "output.write_s": incl["output.write"],
        "output.bytes": attrs["bytes"],
        "worldline.resample_s": incl["worldline.resample"],
        "worldline.lambda_from_T_calls": calls["worldline.lambda_from_T"],
        "binding.self_consistent_s": incl["binding.self_consistent"],
        "binding.shell_solves": calls["binding.shell_solve"],
        "circular.find_s": incl["circular.find"],
        "circular.find_calls": calls["circular.find"],
        "circular.verify_s": incl["circular.verify"],
        "circular.periodic_false": attrs["periodic_false"],
        "circular.constancy_false": attrs["constancy_false"],
        "cli.build_scenario_s": incl["cli.build_scenario"],
    }

