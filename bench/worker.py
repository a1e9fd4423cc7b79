"""One pass of a workload, in a fresh process.

Builds the pass's inputs, prints ``ready``, then runs one op per input,
closed loop, until the inputs run out, ``--limit`` ops are done or
``--budget`` seconds have passed (at least one op always runs).  The
last line of stdout is a JSON object with the latencies, the peak RSS
of the ops, each op's output record as a JSON string and, with
``--trace 1``, the per-layer aggregates.

    python3 bench/worker.py --workload point-queries --seed 1 --pass 0 --budget 5
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_qcurv():
    """Put the checkout's src/ first on sys.path and import qcurv from it."""
    if not (SRC / "qcurv" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcurv package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qcurv

    if Path(qcurv.__file__).resolve().parent != SRC / "qcurv":
        raise SystemExit(f"error: imported qcurv from {qcurv.__file__}, not {SRC}")


def peak_rss_kib() -> int:
    """High-water RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss would carry over the peak of
    the parent that forked this worker.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--budget", type=float, default=float("inf"), help="seconds of ops")
    parser.add_argument("--limit", type=int, default=None, help="at most this many ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the raw spans when tracing")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_qcurv()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index)
    op = workloads.op_for(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    limit = len(inputs) if args.limit is None else min(args.limit, len(inputs))
    record = workloads.record_for(args.workload)
    # Each output is turned into a JSON string right after its op: holding
    # the raw objects would grow the heap that every collection scans.
    records: list[str] = []
    latencies: list[float] = []
    gc.collect()
    gc.freeze()  # keep the inputs out of the collections the ops trigger
    clock = time.perf_counter
    start = clock()
    deadline = start + args.budget
    for index in range(limit):
        if index and clock() >= deadline:
            break
        item = inputs[index]
        t0 = clock()
        try:
            out = tracer.run_op(index, op, item) if tracer else op(item)
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(clock() - t0)
            records.append(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            continue
        latencies.append(clock() - t0)
        records.append(json.dumps(record(item, out)))
        del out
    loop_s = clock() - start
    peak_rss = peak_rss_kib()
    gc.unfreeze()

    result: dict[str, object] = {
        "loop_s": loop_s,
        "latencies": latencies,
        "peak_rss_kib": peak_rss,
        "records": records,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
