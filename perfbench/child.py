"""One `noncollapse` invocation in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py <spec.json>

The spec names the CLI arguments, the generated input files to write and
where to put the timing record.  Set-up ends and work starts at the call to
`noncollapse.cli.main`; both instants are CLOCK_MONOTONIC readings, which
the parent compares with the instant it spawned this process.  With
"trace" set, perfbench/tracing.py wraps the layers before the call.
With "reference" set, the process then runs a reference loop of
perfbench/reference.py for a share of its work time, after the peak RSS is
read, so the loop times the host in the same process and right after the work.
A spec with "warmup" set only imports the package (filling __pycache__).
"""
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from noncollapse import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"noncollapse imported from {cli.__file__}, not from {SRC}")
    if spec.get("warmup"):
        return 0

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for name, content in spec["inputs"].items():
        with open(os.path.join(spec["dir"], name), "w") as fh:
            fh.write(content)

    record = {"t_main": time.monotonic_ns()}
    try:
        record["exit"] = cli.main(spec["argv"])
    except Exception:  # a fault of the program: report it as a failed operation
        record["exit"] = None
        record["error"] = traceback.format_exc()
    record["t_end"] = time.monotonic_ns()
    sys.stdout.flush()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref = spec.get("reference")
    if ref:
        import reference

        work_s = (record["t_end"] - record["t_main"]) / 1e9
        record["ref_s"], record["ref_passes"] = reference.measure(ref["kind"],
                                                                  ref["share"] * work_s)
    if tracer:
        record["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(spec["dir"], "spans.json"))
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
