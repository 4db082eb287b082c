"""Span recorder for the traced run.

Spans are recorded from outside the program: public ``fracwell`` functions
are replaced, at the module attribute each caller looks them up through, by
wrappers that record one span per call (name, start, end, parent span,
operation id).  Spans stay in memory as typed columns and are written out
once, when the run ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

# M^2-sized float64 arrays one dense numpy pass of each kernel reads or
# writes at the parent commit (temporaries included); ``bytes_computed`` is
# this model times 8 bytes times the pair count, not a measurement.
DENSE_ARRAYS_PER_PASS = {
    "fracops.apply_operator": 14,
    "fracops.bracket": 9,
    "fracops.gagliardo_sum": 9,
}

FRACOPS_SPANS = tuple(DENSE_ARRAYS_PER_PASS)
CLI_SPAN = "cli.op"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op_pass = array("i")     # pass index of each operation id
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, pass_index: int) -> int:
        self.op_pass.append(pass_index)
        return len(self.op_pass) - 1

    def count(self, key: str, value: float) -> None:
        self.counts[(len(self.op_pass) - 1, key)] += value

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` wrapped so each call records a span named ``name``;
        ``on_call(recorder, args, result)`` adds work counts."""
        nid = self.name_id(name)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(len(self.op_pass) - 1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            op_pass=np.frombuffer(self.op_pass, dtype=np.int32),
                            **self.columns())

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per pass: ``<span>.calls``, ``<span>.s`` (inclusive), ``<span>.self_s``
        and every work count, summed over the pass's operations."""
        col = self.columns()
        dur = col["end"] - col["start"]
        child = col["parent"] >= 0
        self_s = dur - np.bincount(col["parent"][child], weights=dur[child],
                                   minlength=len(dur))
        op_pass = np.frombuffer(self.op_pass, dtype=np.int32)
        span_pass = op_pass[col["op"]]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for p in np.unique(op_pass):
            sel = span_pass == p
            names, d, sd = col["name"][sel], dur[sel], self_s[sel]
            row = out[int(p)]
            for nid, name in enumerate(self.names):
                hit = names == nid
                row[f"{name}.calls"] = float(np.count_nonzero(hit))
                row[f"{name}.s"] = float(np.sum(d[hit]))
                row[f"{name}.self_s"] = float(np.sum(sd[hit]))
        for (op, key), value in self.counts.items():
            out[int(op_pass[op])][key] += value
        return out


def _kernel_work(name: str):
    arrays = DENSE_ARRAYS_PER_PASS[name]

    def on_call(rec: Recorder, args, result) -> None:
        pairs = float(args[0].domain.node_count) ** 2
        rec.count("fracops.pair_terms", pairs)
        rec.count("fracops.bytes_computed", 8.0 * arrays * pairs)

    return on_call


def _well_yield(rec: Recorder, args, result) -> None:
    found = sum(1 for s in result.samples if s.label != "refined")
    rec.count("variational.nehari_found", found)
    rec.count("variational.directions_attempted", result.attempted)


def _bytes_written(rec: Recorder, args, result) -> None:
    rec.count("artifacts.bytes", os.path.getsize(args[0]))


def targets(fracwell_modules) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, work hook) for every wrapped call site."""
    cli, dynamics, variational, artifacts = fracwell_modules
    out = [
        (dynamics, "apply_operator", "fracops.apply_operator"),
        (dynamics, "bracket", "fracops.bracket"),
        (variational, "bracket", "fracops.bracket"),
        (variational, "gagliardo_sum", "fracops.gagliardo_sum"),
        (dynamics, "rhs", "dynamics.rhs"),
        (dynamics, "integrate", "dynamics.integrate"),
        (dynamics, "energy_report", "variational.energy_report"),
        (variational, "energy_report", "variational.energy_report"),
        (variational, "estimate_well_depth", "variational.estimate_well_depth"),
        (variational, "fibering_scan", "variational.fibering_scan"),
        (variational, "find_epsilon_star", "variational.find_epsilon_star"),
        (variational.FiberingRay, "psi", "variational.FiberingRay.psi"),
        (cli, "plot_svg", "svgplot.plot_svg"),
    ]
    out += [(artifacts, attr, "artifacts.write")
            for attr in sorted(vars(artifacts)) if attr.startswith("write_")]
    hooks = {name: _kernel_work(name) for name in FRACOPS_SPANS}
    hooks["variational.estimate_well_depth"] = _well_yield
    hooks["artifacts.write"] = _bytes_written
    return [(owner, attr, name, hooks.get(name)) for owner, attr, name in out
            if hasattr(owner, attr)]


@contextmanager
def installed(rec: Recorder, fracwell_modules):
    """Replace every call site by its traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, hook in targets(fracwell_modules):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, hook))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
