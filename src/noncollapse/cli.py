"""Batch entry point: certify / oracle / flow / report subcommands.

Outputs are machine readable (JSON reports, CSV time series) and
byte-identical across reruns: for fixed (arguments, seed, version) from
certify and oracle, for fixed (config, version) from flow, which draws no
random numbers.  manifest.json is the one exception since it records wall
time.  A flow config with a key that is not a FlowConfig field (such as
seed or recenter, which older configs carried) is refused as a bad config.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from typing import Optional

from . import __version__
from .flow import (CONVEXITY_LOST, FlowConfig, build_body, build_speed, run as run_flow,
                   stop_threshold)
from .monitor import monitor_rows, ratios, run_verdicts, write_monitor_csv
from .oracle import boundary_suite, interior_suite
from .speeds import PROPERTIES, certify, parse_speed
from . import geometry

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_CONVEXITY = 3
EXIT_VERDICT_FAIL = 4


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# report keys that vary between reruns: printed, but left out of the written
# file so that it is byte-identical for fixed arguments and seed
_VOLATILE = ("runtime_ms",)


def _emit(obj: dict, out: Optional[str], filename: str) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))
    if out:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, filename),
                    {k: v for k, v in obj.items() if k not in _VOLATILE})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    try:
        f = parse_speed(args.speed, args.n)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    props = [args.property] if args.property else ["concave", "inverse-concave"]
    reports = certify(f, props, trials=args.trials, seed=args.seed)
    payload = {"speed": f.name, "n": f.n, "seed": args.seed,
               "reports": [dataclasses.asdict(r) for r in reports]}
    _emit(payload, args.out, "certify.json")
    return EXIT_OK if all(r.certified for r in reports) else EXIT_REFUTED


def cmd_oracle(args) -> int:
    try:
        f = parse_speed(args.speed, args.n)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    suite = interior_suite if args.prop == "2.2" else boundary_suite
    try:
        report = suite(f, trials=args.trials, seed=args.seed)
    except ValueError as e:  # a trial the speed cannot evaluate
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report["seed"] = args.seed
    _emit(report, args.out, "oracle.json")
    return EXIT_OK if report["min_scaled"] >= -1.0 else EXIT_REFUTED


def cmd_flow(args) -> int:
    try:
        cfg = FlowConfig.from_json(args.config)
        flags = {"cfl": args.cfl, "stop_max_f": args.stop_max_f}
        if args.grid is not None:
            flags["body"] = dict(cfg.body, N=args.grid)
        # replace() runs the config validation again on the overridden values
        cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
        body = build_body(cfg.body)
        speed = build_speed(cfg.speed, body.mode)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        print(f"error: bad config: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        stop_threshold(cfg, body, speed)
    except geometry.ConvexityLost as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONVEXITY
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    if args.seed is not None:
        print("note: flow ignores --seed: the flow draws no random numbers", file=sys.stderr)
    out = args.out or "run-out"
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "snapshots"), exist_ok=True)
    t0 = time.perf_counter()
    manifest_path = os.path.join(out, "manifest.json")
    manifest = {"command": "flow", "config": args.config, "output_directory": out,
                "tool_version": __version__, "wall_time_s": None}
    _write_json(manifest_path, manifest)

    fr = run_flow(cfg, speed=speed, body=body)
    rows = monitor_rows(fr, speed, fields=(cfg.monitor == "full"))
    write_monitor_csv(rows, os.path.join(out, "monitor.csv"))
    for i, snap in enumerate(fr.snapshots):
        _write_json(os.path.join(out, "snapshots", f"{i:05d}.json"), snap.body.to_dict())

    deltas = {}
    if cfg.monitor == "full":
        deltas = refinement_deltas(cfg, speed)
    verdicts = run_verdicts(fr, rows, deltas)
    verdicts["config"] = dataclasses.asdict(cfg)
    verdicts["refinement_deltas"] = deltas
    verdicts["counters"] = fr.counters
    _write_json(os.path.join(out, "verdicts.json"), verdicts)

    manifest["wall_time_s"] = round(time.perf_counter() - t0, 3)
    _write_json(manifest_path, manifest)

    if fr.termination == CONVEXITY_LOST:
        return EXIT_CONVEXITY
    return EXIT_OK if verdicts["passed"] else EXIT_VERDICT_FAIL


def refinement_deltas(cfg: FlowConfig, speed) -> dict:
    """Measured t=0 discretisation deltas of min_ratio_lower, max_ratio_upper
    and r+/r- between N and the nested 2N grid (2N-1 points in axisymmetric
    mode so the theta grids nest)."""
    body_n = build_body(cfg.body)
    n2 = 2 * body_n.N if body_n.mode == geometry.CURVE else 2 * body_n.N - 1
    body_2n = build_body(dict(cfg.body, N=n2))

    def measure(b):
        fld = geometry.ball_curvature_field(b)
        ext = ratios(fld, speed)
        rep = geometry.radii(b)
        return ext.min_ratio_lower, ext.max_ratio_upper, rep.r_plus / rep.r_minus

    lo, up, rr = (abs(a - b) for a, b in zip(measure(body_n), measure(body_2n)))
    return {"ratio_lower": lo, "ratio_upper": up, "radii_ratio": rr,
            "grids": [body_n.N, n2]}


def cmd_report(args) -> int:
    rows = []
    for d in args.run_dirs:
        mpath = os.path.join(d, "manifest.json")
        vpath = os.path.join(d, "verdicts.json")
        if not os.path.exists(mpath):
            print(f"warning: {d}: no manifest, skipping", file=sys.stderr)
            continue
        try:
            manifest = _read_object(mpath)
            verdicts = _read_object(vpath) if os.path.exists(vpath) else {}
            cfg = _verdicts_field(verdicts, "config")
            body = _verdicts_field(verdicts, "config.body")
            gates = _verdicts_field(verdicts, "gates")
        except ValueError as e:
            print(f"warning: {d}: {e}, skipping", file=sys.stderr)
            continue
        rows.append({
            "dir": d,
            "speed": cfg.get("speed"),
            "mode": body.get("mode"),
            "grid": body.get("N"),
            "maxF_growth": gates.get("maxF_growth"),
            "eps_radii_ratio_final": gates.get("eps_radii_ratio_final"),
            "eps_upper_final": gates.get("eps_upper_final"),
            "delta_lower_final": gates.get("delta_lower_final"),
            "hausdorff_rescaled_final": gates.get("hausdorff_rescaled_final"),
            "termination": verdicts.get("termination"),
            "passed": verdicts.get("passed"),
            "version": manifest.get("tool_version"),
        })
    if not rows:
        print("error: no readable run directories", file=sys.stderr)
        return EXIT_USAGE

    cols = ["dir", "speed", "mode", "grid", "maxF_growth",
            "eps_radii_ratio_final", "hausdorff_rescaled_final", "termination", "passed"]
    widths = {c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in cols))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "report.json"), {"runs": rows})
    return EXIT_OK


def _read_object(path: str) -> dict:
    """The JSON object in path, or a ValueError naming the file."""
    name = os.path.basename(path)
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as e:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{name} is not valid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{name} is not a JSON object")
    return obj


def _verdicts_field(verdicts: dict, path: str) -> dict:
    """The object at the dotted path in verdicts, {} where a key is absent,
    or a ValueError naming the field."""
    obj = verdicts
    for key in path.split("."):
        obj = obj.get(key, {})
        if not isinstance(obj, dict):
            raise ValueError(f"verdicts.json field {path} is not a JSON object")
    return obj


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noncollapse",
        description="Curvature-flow laboratory: speed certification, matrix-"
                    "inequality oracles, flow runs, and run reports.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify concavity / inverse-concavity of a speed")
    c.add_argument("--speed", required=True)
    c.add_argument("--n", type=positive_int, required=True)
    c.add_argument("--property", choices=PROPERTIES)
    c.add_argument("--trials", type=positive_int, default=2000)
    c.add_argument("--seed", type=non_negative_int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_certify)

    o = sub.add_parser("oracle", help="randomized inequality suite")
    o.add_argument("--prop", choices=["2.2", "2.5"], required=True,
                   help="2.2 = interior (shifted-inverse) estimate, "
                        "2.5 = boundary (smallest-eigenvalue) estimate")
    o.add_argument("--speed", required=True)
    o.add_argument("--n", type=positive_int, required=True)
    o.add_argument("--trials", type=positive_int, default=10000)
    o.add_argument("--seed", type=non_negative_int, default=0)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_oracle)

    fl = sub.add_parser("flow", help="run a flow from a JSON config")
    fl.add_argument("--config", required=True)
    fl.add_argument("--out")
    fl.add_argument("--grid", type=int, help="override body N")
    fl.add_argument("--cfl", type=float)
    fl.add_argument("--stop-max-f", type=float, dest="stop_max_f")
    # kept so that callers passing one seed to every subcommand keep working
    fl.add_argument("--seed", type=int, help="ignored, with a note on stderr")
    fl.set_defaults(fn=cmd_flow)

    r = sub.add_parser("report", help="summarise one or more run directories")
    r.add_argument("run_dirs", nargs="*")
    r.add_argument("--out")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
