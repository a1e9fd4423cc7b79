"""qcurv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload spectrum-scan --seed 1 --seconds 10 --trace 0

Load is a closed loop with one client.  The run is a sequence of passes.
Each pass is a fresh worker process (``worker.py``) that times ops until
the run's ``--seconds`` of op time are used up, and is then replayed,
untraced, by a second fresh worker over the same ops, so a run takes
about twice ``--seconds``.  spectrum-scan instead times its fixed set of
31 members in one pass, whatever ``--seconds`` says, so that which
members are measured does not depend on the speed of the code.  With
``--trace 0`` an op's latency is the smaller of its two times, and the
run reports the end-to-end metrics.  With ``--trace 1`` the first copy
is traced, and the run reports the per-layer metrics and the tracing
overhead (traced over untraced time of the same ops).  The two copies
must print the same outputs; every output is checked after the passes
end.  The report goes to stdout and to ``bench/results/``; the last
stdout line is the JSON result.  See ``bench/README.md`` for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import import_qcurv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 4
TAIL_BEYOND = 10
# op_tail_ms is taken per block of BLOCK consecutive ops of a pass (p98
# of a full block) and reported as the median over blocks, so that the
# few ops a burst of stolen CPU time happens to hit in both copies cannot
# set it alone.  The whole-run tail is reported beside it.
BLOCK = 500


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, pass_index: int, *extra: str) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to ready, its result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--pass",
        str(pass_index),
        *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


def run_passes(
    workload: str, seed: int, seconds: float, trace: bool, fixed: bool
) -> tuple[list[dict], list[float]]:
    """Timed passes, each followed by an untraced replay of the same ops.

    With ``fixed``, one pass that times every one of its inputs.
    """
    passes: list[dict] = []
    ready: list[float] = []
    used = 0.0
    while not passes or (not fixed and used < seconds):
        index = len(passes)
        extra = ["--trace", str(int(trace))]
        if not fixed:
            extra += ["--budget", repr(seconds - used)]
        if trace:
            extra += ["--spans", str(RESULTS / f"{workload}-pass{index}.spans.csv")]
        ready_first, result = spawn(workload, seed, index, *extra)
        count = str(len(result["latencies"]))
        ready_replay, result["replay"] = spawn(workload, seed, index, "--limit", count)
        passes.append(result)
        ready += [ready_first, ready_replay]
        used += result["loop_s"]
    return passes, ready


def check_passes(workload: str, seed: int, passes: list[dict]) -> list[list[str]]:
    """Problems per op, in run order."""
    import check
    import workloads

    digests = check.load_digests()
    problems = []
    for index, result in enumerate(passes):
        inputs = workloads.make_inputs(workload, seed, index)
        for item, record, again in zip(inputs, result["records"], result["replay"]["records"]):
            found = check.check_op(workload, item, json.loads(record), digests)
            if again != record:
                found.append("replay: the second copy of the op printed another output")
            problems.append(found)
    return problems


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine() -> dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def tail(block: list[float]) -> dict:
    """The latency with TAIL_BEYOND ops above it: the highest percentile of
    the ops that still has that many ops beyond it (the slowest op when
    there are too few)."""
    lat = sorted(block)
    beyond = TAIL_BEYOND if len(lat) > TAIL_BEYOND else 0
    return {
        "ops": len(lat),
        "percentile": 100.0 * (len(lat) - beyond) / len(lat),
        "ms": 1e3 * lat[-beyond - 1],
    }


def blocks(latencies: list[float]) -> list[list[float]]:
    """BLOCK consecutive ops each; a short last block joins the one before it."""
    out = [latencies[i : i + BLOCK] for i in range(0, len(latencies), BLOCK)]
    if len(out) > 1 and len(out[-1]) < BLOCK:
        last = out.pop()
        out[-1] = out[-1] + last
    return out


def end_to_end(passes: list[dict], ready: list[float], failed: int) -> tuple[dict, dict]:
    # The smaller of an op's two times: on a shared machine the CPU time
    # the host steals comes in bursts that rarely hit both copies of an op,
    # while the program's own costs, collections included, recur in both.
    per_pass = [[min(pair) for pair in zip(r["latencies"], r["replay"]["latencies"])] for r in passes]
    latencies = [lat for lats in per_pass for lat in lats]
    n = len(latencies)
    tails = [tail(block) for lats in per_pass for block in blocks(lats)]
    peak_kib = max(max(r["peak_rss_kib"], r["replay"]["peak_rss_kib"]) for r in passes)
    metrics = {
        "setup_s": (statistics.median(ready), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (statistics.median(t["ms"] for t in tails), "ms"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "ok_frac": (1 - failed / n, "frac"),
    }
    shapes = sorted({(t["ops"], round(t["percentile"], 2)) for t in tails})
    detail = {
        "setup_samples": len(ready),
        "tail_blocks": len(tails),
        "tail_shapes": [{"ops": ops, "percentile": pct} for ops, pct in shapes],
        "run_tail": tail(latencies),
        "failed_frac": failed / n,
        "latencies_ms": [[round(1e3 * lat, 4) for lat in lats] for lats in per_pass],
    }
    return metrics, detail


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics, and each timed layer's share of the traced op time."""
    import tracing

    n = sum(len(result["latencies"]) for result in passes)
    metrics = tracing.layer_metrics(tracing.merge([result["layers"] for result in passes]), n)
    traced = sum(sum(result["latencies"]) for result in passes)
    untraced = sum(sum(result["replay"]["latencies"]) for result in passes)
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "frac")
    op_ms = metrics["op.ms"][0]
    shares = {
        name: value / op_ms
        for name, (value, unit) in metrics.items()
        if unit == "ms/op" and name != "op.ms" and op_ms
    }
    return metrics, dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="qcurv benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_qcurv()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    RESULTS.mkdir(exist_ok=True)
    for stale in RESULTS.glob(f"{args.workload}-pass*.spans.csv"):
        stale.unlink()

    ready = []
    if not args.trace:
        ready = [spawn(args.workload, args.seed, 0, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    fixed = args.workload in workloads.FIXED_OP_SET
    passes, pass_ready = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), fixed)
    ready += pass_ready
    import check  # only now: this process stays small while the passes run

    problems = check_passes(args.workload, args.seed, passes)

    attempted = len(problems)
    failed = sum(1 for found in problems if found)
    report: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "sympy": check.sympy_version(),
        "passes": len(passes),
        "ops_per_pass": [len(result["latencies"]) for result in passes],
        "attempted": attempted,
        "failed": failed,
        "problems": [found for found in problems if found][:20],
    }
    if args.trace:
        metrics, report["layer_shares"] = per_layer(passes)
    else:
        metrics, detail = end_to_end(passes, ready, failed)
        report.update(detail)
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print_report(report)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=2) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": report["metrics"]}))
    return 0


def print_report(report: dict) -> None:
    m = report["machine"]
    print(
        f"qcurv benchmark  workload={report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']:g} trace={report['trace']}"
    )
    print(f"machine          nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} git={m['git_sha']}")
    print(f"oracle           sympy {report['sympy'] or 'absent: oracle skipped'}")
    print(
        f"ops              {report['attempted']} in {report['passes']} pass(es) "
        f"{report['ops_per_pass']}, each timed twice; failed {report['failed']}"
    )
    for found in report["problems"][:5]:
        print(f"  failed op: {'; '.join(found[:3])}")
    if not report["trace"]:
        print(f"failed_frac      {report['failed_frac']:.6g} (failed / attempted)")
        pct = ", ".join(f"p{t['percentile']:.2f} of {t['ops']}" for t in report["tail_shapes"])
        print(f"op_tail_ms       median over {report['tail_blocks']} block(s) of the tail at: {pct}")
        whole = report["run_tail"]
        print(
            f"whole-run tail   {whole['ms']:.6g} ms at p{whole['percentile']:.2f} of {whole['ops']} ops "
            "(not bounded: on a shared VM it follows stolen CPU time)"
        )
        print(f"setup_s          median of {report['setup_samples']} fresh interpreters")
    for name, metric in report["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if report["trace"]:
        print("largest layer shares (of op.ms):")
        for name, share in list(report["layer_shares"].items())[:6]:
            print(f"  {name:<44} {share:>8.1%}")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
