#!/usr/bin/env python3
"""Cost of the per-trial random streams of the oracles and the certifier.

Every trial t of `oracle` and `certify` draws from its own Generator,
exactly numpy's default_rng((seed, t)).  speeds.trial_rngs builds them from
one vectorised SeedSequence hash; this script times that against building
each with default_rng, two ways:

- microseconds per trial to build the Generators alone, at --trials trials;
- the in-process wall of each invocation of the benchmark's oracle-suites
  workload (perfbench/workloads.py), run through noncollapse.cli.main with
  trial_rngs as it is and with trial_rngs swapped for per-trial default_rng
  calls (the streams, and so the reports, are the same either way).

numpy.random is imported before any timing, so neither path pays its import.
Writes the machine, the counts and the medians over --repeats runs as JSON.

Example:
    python scripts/trial_streams_bench.py --out BENCH_trial_streams.json
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np
import numpy.random  # noqa: F401  (loaded up front: see the docstring)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

from noncollapse import cli, oracle, speeds  # noqa: E402
from workloads import oracle_suites  # noqa: E402


def per_trial_default_rng(seed, trials):
    """The streams of trial_rngs, one default_rng call per trial."""
    return (np.random.default_rng((seed, t)) for t in trials)


@contextlib.contextmanager
def streams(kind):
    """Run the oracles and the certifier on the given stream builder."""
    fn = {"trial_rngs": speeds.trial_rngs, "default_rng": per_trial_default_rng}[kind]
    saved = speeds.trial_rngs, oracle.trial_rngs
    speeds.trial_rngs = oracle.trial_rngs = fn
    try:
        yield
    finally:
        speeds.trial_rngs, oracle.trial_rngs = saved


def build_us(kind, seed, m):
    """Microseconds per trial to build (and drop) m Generators."""
    fn = {"trial_rngs": speeds.trial_rngs, "default_rng": per_trial_default_rng}[kind]
    t0 = time.perf_counter()
    for _ in fn(seed, range(m)):
        pass
    return 1e6 * (time.perf_counter() - t0) / m


def invocation_ms(inv, seed, out_dir):
    """(wall ms, exit code) of one CLI invocation in this process."""
    argv = [inv.command, *inv.args, "--seed", str(seed), "--out", out_dir]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return 1000.0 * (time.perf_counter() - t0), code


def cpu_model():
    """The CPU's model name on Linux, else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--trials", type=int, default=12000,
                    help="Generators per build timing")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_trial_streams.json")
    args = ap.parse_args()
    kinds = ("default_rng", "trial_rngs")

    build = {k: [] for k in kinds}
    for _ in range(args.repeats):
        for k in kinds:
            build[k].append(build_us(k, args.seed, args.trials))
    build = {k: round(statistics.median(v), 3) for k, v in build.items()}
    print(f"build, us per trial at m = {args.trials}: {build}")

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for inv in oracle_suites(args.seed):
            walls = {k: [] for k in kinds}
            codes = set()
            for _ in range(args.repeats):
                for k in kinds:
                    with streams(k):
                        ms, code = invocation_ms(inv, args.seed, os.path.join(tmp, k))
                    walls[k].append(ms)
                    codes.add(code)
            with open(os.path.join(tmp, "default_rng", f"{inv.command}.json")) as a, \
                    open(os.path.join(tmp, "trial_rngs", f"{inv.command}.json")) as b:
                same = a.read() == b.read()
            row = {"label": inv.label, "argv": [inv.command, *inv.args],
                   "trials": inv.trials, "exit": sorted(codes), "identical_artifact": same,
                   **{f"{k}_ms": round(statistics.median(v), 1) for k, v in walls.items()}}
            rows.append(row)
            print(f"{inv.label:24s} default_rng {row['default_rng_ms']:7.1f} ms, "
                  f"trial_rngs {row['trial_rngs_ms']:7.1f} ms, identical {same}")
    total = {f"{k}_ms": round(sum(r[f"{k}_ms"] for r in rows), 1) for k in kinds}
    print(f"total: {total}")

    out = {
        "machine": {"platform": platform.platform(), "processor": cpu_model(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "seed": args.seed,
        "repeats": args.repeats,
        "statistic": "median over repeats, the two paths alternating",
        "build_us_per_trial": {"trials": args.trials, **build},
        "invocations": rows,
        "total": total,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
