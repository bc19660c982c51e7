"""Benchmark of the `noncollapse` CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ellipsoid-step --seed 1 --seconds 42 --trace 0

Runs whole rounds of a workload's invocations (perfbench/workloads.py),
one at a time, each in a fresh interpreter (perfbench/child.py) with
BLAS/OpenMP pinned to one thread and NONCOLLAPSE_THREADS=1, for as many
rounds as fit in --seconds (at least one).  Every output is checked
(perfbench/checks.py).

After its work, every child runs the workload's fixed reference loop
(perfbench/reference.py) for REF_SHARE of its work time, so the run's
reference passes sample the host's speed in step with its work.  The parent,
and so every child, is bound to one CPU.

--trace 0 reports the end-to-end metrics: wall_rel (median over rounds of
the round's summed CLI work time, divided by the mean reference pass time
over the run), setup_s (median over invocations of spawn to the call of
cli.main) and peak_rss_mb (largest peak RSS of any invocation).  The raw
work time, wall_s, is printed beside them.
--trace 1 alternates traced and untraced rounds and reports the per-layer
metrics of the traced rounds, plus the tracing overhead.

Prints one line per metric and, last, one JSON object with the keys
correct, attempted, failed and metrics.  Run outputs go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from tracing import GROUPS
from workloads import REFERENCE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
INVOCATION_TIMEOUT_S = 150
REF_SHARE = 0.25        # reference-loop time after an invocation, as a share of its work time

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "NONCOLLAPSE_THREADS": "1"}

# ball-curvature fields are timed per mode and grid: N and the nested refinement
# grid (2N-1 points in axisymmetric mode, 2N for curves)
FIELD_TAGS = ("axi256", "axi511", "curve256", "curve512")

PER_LAYER_UNITS = {
    "flow.run_s": "s", "flow.steps": "count", "flow.snapshots": "count",
    "flow.rk4_calls": "count", "flow.rk4_per_step": "ratio", "flow.rk4_us": "us",
    "flow.radii_calls": "count", "flow.radii_us": "us", "flow.dt_refreshes": "count",
    "speeds.eval_calls": "count", "speeds.eval_us": "us", "speeds.hess_calls": "count",
    "speeds.hess_us": "us", "speeds.certify_sample_us": "us",
    "geometry.ball_field_calls": "count",
    **{f"geometry.ball_field_ms.{t}": "ms" for t in FIELD_TAGS},
    "geometry.spectral_derivs_calls": "count", "geometry.radii_calls": "count",
    "geometry.radii_ms.axi": "ms", "geometry.radii_ms.curve": "ms",
    "geometry.recenter_ms": "ms", "geometry.import_ms": "ms",
    "monitor.rows_s": "s", "monitor.diag_ms": "ms",
    "cli.refinement_s": "s", "cli.io_ms": "ms", "cli.bytes_written": "B",
    "oracle.trials": "count", "oracle.interior_draw_us": "us",
    "oracle.interior_batch_ms": "ms", "oracle.boundary_terms_calls": "count",
    "oracle.boundary_trial_us": "us",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


class Outcome:
    """What one invocation did: timings, exit code, and a failure or check message."""

    def __init__(self, inv):
        self.inv = inv
        self.setup_s = self.work_s = None
        self.ref_s = self.ref_passes = None   # reference loop window after the work
        self.maxrss_kb = 0
        self.exit = None
        self.failed = None      # the program crashed or hung: a failed operation
        self.wrong = None       # it finished, but an output check rejected it
        self.trace = None
        self.import_geometry_us = None
        self.digest = None


# ---------------------------------------------------------------------------
# Running one invocation
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("PYTHONPATH", None)
    return env


def argv_of(inv, d: str, seed: int) -> list:
    if inv.command == "flow":
        return ["flow", "--config", os.path.join(d, "config.json"),
                "--out", os.path.join(d, "run"), "--seed", str(seed)]
    return [inv.command, *inv.args, "--seed", str(seed), "--out", os.path.join(d, "out")]


def spawn(spec: dict, spec_path: str, importtime: bool = False):
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), CHILD, spec_path]
    t_spawn = time.monotonic_ns()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=INVOCATION_TIMEOUT_S)
    return t_spawn, proc


def run_invocation(inv, workdir: str, seed: int, traced: bool, ref_kind: str) -> Outcome:
    d = os.path.join(workdir, inv.label)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    record_path = os.path.join(d, "record.json")
    spec = {"argv": argv_of(inv, d, seed), "dir": d, "record": record_path,
            "trace": traced, "reference": {"kind": ref_kind, "share": REF_SHARE},
            "inputs": {"config.json": json.dumps(inv.config, indent=2)} if inv.config else {}}
    out = Outcome(inv)
    try:
        t_spawn, proc = spawn(spec, os.path.join(d, "spec.json"), importtime=traced)
    except subprocess.TimeoutExpired:
        out.failed = f"timed out after {INVOCATION_TIMEOUT_S} s"
        return out
    try:
        with open(record_path) as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        out.failed = f"no timing record (exit {proc.returncode}): {proc.stderr[-400:]}"
        return out
    out.setup_s = (rec["t_main"] - t_spawn) / 1e9
    out.work_s = (rec["t_end"] - rec["t_main"]) / 1e9
    out.maxrss_kb = rec["maxrss_kb"]
    out.ref_s, out.ref_passes = rec["ref_s"], rec["ref_passes"]
    out.exit = rec["exit"]
    out.trace = rec.get("trace")
    if traced:
        out.import_geometry_us = geometry_import_us(proc.stderr)
    if "error" in rec:
        out.failed = rec["error"][-400:]
        return out
    try:
        checks.check_exit(out.exit, inv.expect_exit, inv.label)
        out.digest = check_outputs(inv, d, proc.stdout)
    except (checks.CheckFailed, OSError, ValueError, KeyError) as e:
        out.wrong = f"{type(e).__name__}: {e}"
    return out


def geometry_import_us(stderr: str):
    """Cumulative import time of noncollapse.geometry from -X importtime."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.split("|")[-1].strip() == "noncollapse.geometry":
            return int(line.split("|")[1])
    return None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digest_files(d: str, skip=("manifest.json",)) -> str:
    """Hash of a run's result artifacts; reruns of the same input must match."""
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(d)):
        for name in sorted(files):
            if name not in skip:
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def check_outputs(inv, d: str, stdout: str) -> str:
    if inv.command == "flow":
        return check_flow(inv, os.path.join(d, "run"))
    out_dir = os.path.join(d, "out")
    printed = json.loads(stdout)
    if inv.command == "oracle":
        check_oracle(inv, printed, out_dir)
    else:
        check_certify(inv, printed, out_dir)
    return digest_files(out_dir)


def check_flow(inv, run_dir: str) -> str:
    cfg = inv.config
    cols = checks.read_monitor_csv(os.path.join(run_dir, "monitor.csv"))
    with open(os.path.join(run_dir, "verdicts.json")) as fh:
        verdicts = json.load(fh)
    checks.require(verdicts["termination"] == "ReachedMaxF",
                   f"termination {verdicts['termination']!r}, expected ReachedMaxF")
    checks.check_growth(cols["maxF"], cfg["stop_max_f_factor"])
    delta = verdicts["refinement_deltas"].get("radii_ratio", 0.0)
    checks.check_radii_series(cols, delta)

    snap_dir = os.path.join(run_dir, "snapshots")
    snaps = []
    for name in sorted(os.listdir(snap_dir)):
        with open(os.path.join(snap_dir, name)) as fh:
            snaps.append(json.load(fh))
    checks.require([s["t"] for s in snaps] == cols["t"].tolist(),
                    "snapshot times differ from the monitor.csv times")
    checks.require(all(len(s["h"]) == cfg["body"]["N"] for s in snaps),
                   "a snapshot has the wrong grid size")

    if cfg["monitor"] == "full":
        checks.check_ratio_bounds(cols["min_ratio_lower"], cols["max_ratio_upper"])
    else:
        checks.require(all(math.isnan(x) for x in cols["min_ratio_lower"]),
                       "radii monitor wrote ratio columns")
    if inv.sphere_radius is not None:
        checks.check_sphere(snaps, inv.sphere_radius, cols["T_hat_lo"][-1], cols["T_hat_hi"][-1])
    if inv.ellipse is not None:
        checks.check_ellipse_row(cols["min_ratio_lower"][0], cols["max_ratio_upper"][0],
                                 ellipse_reference(*inv.ellipse), cfg["body"]["N"])
    return digest_files(run_dir)


@functools.lru_cache(maxsize=None)
def ellipse_reference(a: float, b: float) -> tuple:
    """The brute force depends only on the input, which every round repeats."""
    return checks.ellipse_ball_ratio_extrema(a, b)


def check_oracle(inv, printed: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "oracle.json")) as fh:
        stored = json.load(fh)
    checks.require(stored == {k: v for k, v in printed.items() if k != "runtime_ms"},
                   "oracle.json differs from the printed report")
    prop, speed = (inv.args[inv.args.index(flag) + 1] for flag in ("--prop", "--speed"))
    checks.require((printed["proposition"], printed["speed"], printed["n"]) == (prop, speed, 3),
                   f"report is for {printed['proposition']} {printed['speed']} n={printed['n']}")
    checks.check_trials(printed["trials"], inv.trials, inv.label)
    if inv.negative_power is not None:
        checks.require(printed["min_scaled"] < -1.0, "negative control was not refuted")
        checks.check_interior_witness(printed, inv.negative_power)
    else:
        checks.require(printed["min_scaled"] >= -1.0 and "witness" not in printed,
                       f"{speed}: min_scaled {printed['min_scaled']!r} below -1")


def check_certify(inv, printed: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "certify.json")) as fh:
        stored = json.load(fh)
    checks.require(stored == printed, "certify.json differs from the printed report")
    props = [inv.args[inv.args.index("--property") + 1]] if "--property" in inv.args \
        else ["concave", "inverse-concave"]
    checks.require([r["property"] for r in printed["reports"]] == props,
                   f"certify reported {[r['property'] for r in printed['reports']]}")
    for rep in printed["reports"]:
        checks.check_trials(rep["samples_tested"], inv.trials, inv.label)
        if inv.negative_power is not None:
            checks.check_certify_witness(rep, inv.negative_power)
        else:
            checks.require(rep["verdict"] == "certified-on-samples",
                           f"{rep['property']}: verdict {rep['verdict']!r}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: list) -> dict:
    outs = [o for r in rounds for o in r if o.work_s is not None]
    return {
        "wall_rel": (wall_rel(rounds), "ratio"),
        "setup_s": (statistics.median(o.setup_s for o in outs), "s"),
        "peak_rss_mb": (max(o.maxrss_kb for o in outs) / 1024.0, "MB"),
    }


def round_wall(outcomes: list) -> float:
    return sum(o.work_s for o in outcomes if o.work_s is not None)


def wall_rel(rounds: list) -> float:
    """Median round work time in units of the rounds' mean reference pass time.

    The mean is pooled over every window of the rounds: one window is short
    and the host's speed wanders within seconds, while the whole run's windows
    follow the slower drift that moves a whole run.
    """
    timed = [o for r in rounds for o in r if o.work_s is not None]
    ref_pass_s = sum(o.ref_s for o in timed) / sum(o.ref_passes for o in timed)
    return statistics.median(round_wall(r) for r in rounds) / ref_pass_s


class SpanTotals:
    """Span statistics of the traced rounds, summed over their invocations."""

    def __init__(self, rounds: list):
        self.spans: dict = {}
        self.counters: dict = {}
        self.span_count = 0
        for o in (o for r in rounds for o in r if o.trace):
            self.span_count += o.trace["span_count"]
            for k, v in o.trace["counters"].items():
                self.counters[k] = self.counters.get(k, 0) + v
            for key, st in o.trace["spans"].items():
                acc = self.spans.setdefault(key, dict.fromkeys(st, 0))
                for k, v in st.items():
                    acc[k] += v

    def outer(self, group: str, tag: str = None):
        """(calls, seconds) of the group's outermost spans, optionally for one tag."""
        calls = ns = 0
        for key, st in self.spans.items():
            name, t = key.split("|")
            if GROUPS[name] == group and (tag is None or t == tag):
                calls += st["outer_calls"]
                ns += st["outer_ns"]
        return calls, ns / 1e9


def per_call(calls: int, seconds: float, scale: float) -> float:
    return seconds * scale / calls if calls else 0.0


def per_layer(traced: list, untraced: list) -> dict:
    nr = len(traced)
    tot = SpanTotals(traced)
    c = tot.counters
    m = {}

    def count(name, group):
        m[name] = tot.outer(group)[0] / nr

    def time_per_call(name, group, scale, tag=None):
        m[name] = per_call(*tot.outer(group, tag), scale)

    def time_per_round(name, group, scale):
        m[name] = tot.outer(group)[1] * scale / nr

    time_per_round("flow.run_s", "flow.run", 1.0)
    m["flow.steps"] = c.get("steps", 0) / nr
    m["flow.snapshots"] = c.get("snapshots", 0) / nr
    count("flow.rk4_calls", "flow.rk4")
    m["flow.rk4_per_step"] = m["flow.rk4_calls"] / m["flow.steps"] if m["flow.steps"] else 0.0
    time_per_call("flow.rk4_us", "flow.rk4", 1e6)
    count("flow.radii_calls", "flow.radii")
    time_per_call("flow.radii_us", "flow.radii", 1e6)
    count("flow.dt_refreshes", "flow.dt")

    count("speeds.eval_calls", "speeds.eval")
    time_per_call("speeds.eval_us", "speeds.eval", 1e6)
    count("speeds.hess_calls", "speeds.hess")
    time_per_call("speeds.hess_us", "speeds.hess", 1e6)
    m["speeds.certify_sample_us"] = per_call(c.get("certify_samples", 0),
                                             tot.outer("speeds.certify")[1], 1e6)

    count("geometry.ball_field_calls", "geometry.ball_field")
    for tag in FIELD_TAGS:
        time_per_call(f"geometry.ball_field_ms.{tag}", "geometry.ball_field", 1e3, tag)
    count("geometry.spectral_derivs_calls", "geometry.spectral_derivs")
    count("geometry.radii_calls", "geometry.radii")
    time_per_call("geometry.radii_ms.axi", "geometry.radii", 1e3, "axi")
    time_per_call("geometry.radii_ms.curve", "geometry.radii", 1e3, "curve")
    time_per_call("geometry.recenter_ms", "geometry.recenter", 1e3)
    imports = [o.import_geometry_us for r in traced for o in r if o.import_geometry_us]
    m["geometry.import_ms"] = statistics.median(imports) / 1e3 if imports else 0.0

    time_per_round("monitor.rows_s", "monitor.rows", 1.0)
    time_per_round("monitor.diag_ms", "monitor.diag", 1e3)
    time_per_round("cli.refinement_s", "cli.refinement", 1.0)
    time_per_round("cli.io_ms", "cli.io", 1e3)
    m["cli.bytes_written"] = c.get("bytes_written", 0) / nr

    m["oracle.trials"] = (c.get("interior_trials", 0) + c.get("boundary_trials", 0)) / nr
    time_per_call("oracle.interior_draw_us", "oracle.interior_draw", 1e6)
    time_per_call("oracle.interior_batch_ms", "oracle.interior_batch", 1e3)
    count("oracle.boundary_terms_calls", "oracle.boundary_terms")
    m["oracle.boundary_trial_us"] = per_call(c.get("boundary_trials", 0),
                                             tot.outer("oracle.boundary_suite")[1], 1e6)

    m["trace.spans"] = tot.span_count / nr
    # the share is taken on the host-speed-corrected times, then applied to the raw ones
    share = wall_rel(traced) / wall_rel(untraced) - 1.0
    m["trace.overhead_s"] = share * statistics.median(round_wall(r) for r in untraced)
    m["trace.overhead_pct"] = 100.0 * share
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in m.items()}


def self_time_table(traced: list) -> list:
    """(self seconds per round, calls per round, span name|tag), largest first."""
    tot = SpanTotals(traced)
    nr = len(traced)
    rows = [(st["self_ns"] / 1e9 / nr, st["calls"] / nr, key) for key, st in tot.spans.items()]
    return sorted(rows, reverse=True)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "noncollapse", "cli.py")):
        print(f"error: no noncollapse sources under {ROOT}/src", file=sys.stderr)
        return 2
    # every child, its work and its reference loop run on one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    invocations = WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # fill __pycache__ and the page cache before anything is timed
    warm = os.path.join(workdir, "warmup.json")
    _, proc = spawn({"warmup": True}, warm)
    if proc.returncode != 0:
        print(f"error: warm-up import failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 2

    # whole rounds, while the next one is expected to end within --seconds;
    # a traced run needs at least one traced and one untraced round
    traced, untraced = [], []
    start = time.monotonic()
    while True:
        trace_this = bool(args.trace) and len(traced) <= len(untraced)
        t_round = time.monotonic()
        outcomes = [run_invocation(inv, workdir, args.seed, trace_this, REFERENCE[args.workload])
                    for inv in invocations]
        (traced if trace_this else untraced).append(outcomes)
        now = time.monotonic()
        if now - start + (now - t_round) > args.seconds and (not args.trace or (traced and untraced)):
            break

    rounds = traced + untraced
    outs = [o for r in rounds for o in r]
    failed = [o for o in outs if o.failed]
    wrong = [o for o in outs if o.wrong]
    first = {}
    for o in outs:
        if o.digest and first.setdefault(o.inv.label, o.digest) != o.digest:
            o.wrong = o.wrong or "result artifacts differ from the first round's"
            wrong.append(o)
    for o in failed:
        print(f"FAILED {o.inv.label}: {o.failed}", file=sys.stderr)
    for o in wrong:
        print(f"WRONG {o.inv.label}: {o.wrong}", file=sys.stderr)
    if all(o.work_s is None for r in untraced for o in r):
        print("error: no invocation completed", file=sys.stderr)
        return 1

    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} rounds"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f", {len(invocations)} invocations per round")
    ref_ms = [1e3 * o.ref_s / o.ref_passes for o in outs if o.ref_passes]
    print(f"wall_s {statistics.median(round_wall(r) for r in untraced):.6g} s (raw work time);"
          f" reference pass {statistics.median(ref_ms):.6g} ms, median of {len(ref_ms)} windows")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        print("self time per round (s), calls per round, span|tag:")
        for self_s, calls, key in self_time_table(traced)[:20]:
            print(f"  {self_s:10.4f} {calls:10.0f}  {key}")
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"rounds": [[{"label": o.inv.label, "setup_s": o.setup_s,
                                "work_s": o.work_s, "ref_s": o.ref_s,
                                "ref_passes": o.ref_passes, "maxrss_kb": o.maxrss_kb,
                                "traced": o.trace is not None, "trace": o.trace} for o in r]
                              for r in rounds]}, fh)
    result = {"correct": not wrong, "attempted": len(outs), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
