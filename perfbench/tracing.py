"""Span tracing of one `noncollapse` invocation, installed from outside.

Tracer.install() replaces module-level names with timing wrappers at the
places where callers look them up (a name imported with `from .x import y`
is wrapped in the importing module too), so `src/` stays untouched.  Spans
(name, tag, start, end, parent) are kept in flat arrays in memory and
written out once the invocation has finished.
"""
from __future__ import annotations

import functools
import json
import os
import time
from array import array

# span name -> metric group; a group's calls and time count only its
# outermost spans, so re-entrant layers (a dual speed calling its base,
# _write_json calling _atomic_write) are not counted twice
GROUPS = {
    "cli.main": "cli.main",
    "flow.run": "flow.run",
    "flow._rk4": "flow.rk4",
    "flow._dt_of": "flow.dt",
    "flow._Workspace.radii": "flow.radii",
    "speeds._v": "speeds.eval",
    "speeds._g": "speeds.eval",
    "speeds.hess": "speeds.hess",
    "speeds.certify": "speeds.certify",
    "geometry.ball_curvature_field": "geometry.ball_field",
    "geometry.curve_derivs": "geometry.spectral_derivs",
    "geometry.axi_derivs": "geometry.spectral_derivs",
    "geometry.radii": "geometry.radii",
    "geometry.recenter": "geometry.recenter",
    "monitor.monitor_rows": "monitor.rows",
    "monitor.tangent_plane_diagnostic": "monitor.diag",
    "monitor.hausdorff_to_unit_sphere": "monitor.diag",
    "cli.refinement_deltas": "cli.refinement",
    "cli._write_json": "cli.io",
    "cli._atomic_write": "cli.io",
    "cli.write_monitor_csv": "cli.io",
    "oracle.interior_suite": "oracle.interior_suite",
    "oracle.boundary_suite": "oracle.boundary_suite",
    "oracle._interior_draw": "oracle.interior_draw",
    "oracle.interior_gaps_batched": "oracle.interior_batch",
    "oracle._boundary_terms": "oracle.boundary_terms",
}


def _mode_tag(body) -> str:
    return "axi" if body.mode == "axisymmetric" else "curve"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self._group_of: list[int] = []
        self._groups: list[str] = []
        self._depth: list[int] = []
        self.name = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.outer = array("b")     # 1 if no ancestor span is in the same group
        self.stack: list[int] = []
        self.counters = {"steps": 0, "snapshots": 0, "interior_trials": 0,
                         "boundary_trials": 0, "certify_samples": 0, "bytes_written": 0}

    # -- recording --------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        group = GROUPS[name]
        if group not in self._groups:
            self._groups.append(group)
            self._depth.append(0)
        self.names.append(name)
        self._group_of.append(self._groups.index(group))
        return len(self.names) - 1

    def _tag_id(self, tag: str) -> int:
        if tag not in self.tags:
            self.tags.append(tag)
        return self.tags.index(tag)

    def wrap(self, name: str, fn, tag=None, after=None):
        """Timing wrapper around fn.  tag(args) labels the span (mode, N);
        after(args, kwargs, result) updates the counters once the span ends."""
        nid = self._name_id(name)
        gid = self._group_of[nid]
        depth = self._depth
        clock = time.perf_counter_ns
        # bound once: the wrapper runs up to ~10^5 times per invocation
        stack, ends = self.stack, self.end
        add_name, add_tag, add_parent = self.name.append, self.tag.append, self.parent.append
        add_outer, add_start, add_end = self.outer.append, self.start.append, ends.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_tag(self._tag_id(tag(args)) if tag else 0)
            add_parent(stack[-1] if stack else -1)
            add_outer(depth[gid] == 0)
            add_end(0)
            stack.append(idx)
            depth[gid] += 1
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[gid] -= 1
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        from noncollapse import cli, flow, geometry, monitor, oracle, speeds

        c = self.counters

        def flow_done(args, kwargs, fr):
            c["steps"] += fr.steps
            c["snapshots"] += len(fr.snapshots)

        def trials(key):
            def done(args, kwargs, result):
                c[key] += kwargs["trials"] if "trials" in kwargs else args[1]
            return done

        def text_bytes(args, kwargs, result):
            c["bytes_written"] += len(args[1].encode())

        def csv_bytes(args, kwargs, result):
            c["bytes_written"] += os.path.getsize(args[1])

        def field_tag(args):
            return f"{_mode_tag(args[0])}{args[0].N}"

        def mode_tag(args):
            return _mode_tag(args[0])

        cli.main = self.wrap("cli.main", cli.main)
        cli.run_flow = self.wrap("flow.run", cli.run_flow, after=flow_done)
        flow._rk4 = self.wrap("flow._rk4", flow._rk4)
        flow._dt_of = self.wrap("flow._dt_of", flow._dt_of)
        flow._Workspace.radii = self.wrap("flow._Workspace.radii", flow._Workspace.radii)

        radii = self.wrap("geometry.radii", geometry.radii, tag=mode_tag)
        geometry.radii = flow.radii = radii
        recenter = self.wrap("geometry.recenter", geometry.recenter, tag=mode_tag)
        geometry.recenter = flow.recenter = recenter
        field = self.wrap("geometry.ball_curvature_field", geometry.ball_curvature_field,
                          tag=field_tag)
        geometry.ball_curvature_field = monitor.ball_curvature_field = field
        geometry.curve_derivs = self.wrap("geometry.curve_derivs", geometry.curve_derivs)
        geometry.axi_derivs = self.wrap("geometry.axi_derivs", geometry.axi_derivs)

        cli.monitor_rows = self.wrap("monitor.monitor_rows", cli.monitor_rows)
        monitor.tangent_plane_diagnostic = self.wrap(
            "monitor.tangent_plane_diagnostic", monitor.tangent_plane_diagnostic)
        monitor.hausdorff_to_unit_sphere = self.wrap(
            "monitor.hausdorff_to_unit_sphere", monitor.hausdorff_to_unit_sphere)

        cli.refinement_deltas = self.wrap("cli.refinement_deltas", cli.refinement_deltas)
        cli._write_json = self.wrap("cli._write_json", cli._write_json)
        cli._atomic_write = self.wrap("cli._atomic_write", cli._atomic_write, after=text_bytes)
        cli.write_monitor_csv = self.wrap("cli.write_monitor_csv", cli.write_monitor_csv,
                                          after=csv_bytes)

        cli.interior_suite = self.wrap("oracle.interior_suite", cli.interior_suite,
                                       after=trials("interior_trials"))
        cli.boundary_suite = self.wrap("oracle.boundary_suite", cli.boundary_suite,
                                       after=trials("boundary_trials"))
        oracle._interior_draw = self.wrap("oracle._interior_draw", oracle._interior_draw)
        oracle.interior_gaps_batched = self.wrap("oracle.interior_gaps_batched",
                                                 oracle.interior_gaps_batched)
        oracle._boundary_terms = self.wrap("oracle._boundary_terms", oracle._boundary_terms)
        cli.certify = self.wrap("speeds.certify", cli.certify,
                                after=trials("certify_samples"))

        pending = [speeds.SpeedFunction]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr, name in (("_v", "speeds._v"), ("_g", "speeds._g"), ("hess", "speeds.hess")):
                if attr in vars(cls) and cls is not speeds.SpeedFunction:
                    setattr(cls, attr, self.wrap(name, vars(cls)[attr]))

    # -- output ---------------------------------------------------------------------
    def summary(self) -> dict:
        """Per (span name, tag): calls, self time, and the calls and inclusive
        time of its outermost spans; plus the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans: dict = {}
        for i in range(n):
            key = f"{self.names[self.name[i]]}|{self.tags[self.tag[i]]}"
            s = spans.setdefault(key, {"calls": 0, "self_ns": 0, "outer_calls": 0,
                                       "outer_ns": 0})
            s["calls"] += 1
            s["self_ns"] += dur[i] - child[i]
            if self.outer[i]:
                s["outer_calls"] += 1
                s["outer_ns"] += dur[i]
        return {"spans": spans, "counters": dict(self.counters), "span_count": n}

    def write_spans(self, path: str) -> None:
        """All spans as JSON columns: name and tag index, start/end in ns
        (CLOCK_MONOTONIC), parent index (-1 at the root)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "tags": self.tags,
                       "name": self.name.tolist(), "tag": self.tag.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist()}, fh)
