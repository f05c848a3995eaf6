"""Benchmark of sierpack: the solve, lift and search workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Set-up (import, input generation from the seed, warm-up) is done
several times and its median reported.  Then the workload's fixed job list
runs in whole passes, one process and one thread, as long as another pass
fits in `--seconds` (at least one); a few jobs run more than once per pass
and count with their median.  Every answer is checked after the timed
passes, and the exact counts the API returns must repeat from run to run.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass, and prints the per-layer metrics from the traced one plus
the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The full record (machine, per-job times and counts,
spans) is written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # pin BLAS pools before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOADS = ("solve", "lift", "search")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "seed": seed}


def set_up(workload: str, seed: int):
    """Import the package afresh, make the inputs and warm up.  The first
    call also pays numpy's import, which the median over calls leaves out."""
    for name in [m for m in sys.modules
                 if m in ("sierpack", "bench_jobs") or m.startswith("sierpack.")]:
        del sys.modules[name]
    import bench_jobs
    jobs = bench_jobs.build(workload, seed)
    bench_jobs.warm_up()
    return jobs


def run_pass(jobs, order) -> tuple[float, list[dict]]:
    """Run the jobs in `order` (indices, repeats included).  A job that
    raises is recorded, not fatal, and not run again in this pass."""
    gc.collect()
    rows = [{"name": job.name, "seconds": [], "outs": [], "error": None}
            for job in jobs]
    start = time.perf_counter()
    for i in order:
        row = rows[i]
        if row["error"] is not None:
            continue
        t0 = time.perf_counter()
        try:
            row["outs"].append(jobs[i].run())
        except Exception:  # noqa: BLE001 - the job fails, the pass goes on
            row["error"] = traceback.format_exc(limit=3)
        row["seconds"].append(time.perf_counter() - t0)
    return time.perf_counter() - start, rows


def judge(jobs, passes: list[list[dict]]) -> None:
    """Check each answer and read its counts (outside the timed region), then
    require every run of a job, in every pass, to give the first run's counts."""
    for rows in passes:
        for job, row in zip(jobs, rows):
            outs = row.pop("outs")
            row["counts"] = None
            if row["error"] is not None:
                continue
            try:
                row["error"] = job.check(outs[0])
                counts = [job.counts(out) for out in outs]
            except Exception:  # noqa: BLE001 - a crashing check fails the job
                row["error"] = traceback.format_exc(limit=3)
                continue
            row["counts"] = counts[0]
            if row["error"] is None and any(c != counts[0] for c in counts):
                row["error"] = f"counts differ between runs: {counts}"
    for rows in passes[1:]:
        for first, row in zip(passes[0], rows):
            if row["error"] is None and row["counts"] != first["counts"]:
                row["error"] = f"counts differ from the first pass: {first['counts']}"


def latencies(rows) -> list[float]:
    """Each job's latency in a pass: the median of its runs."""
    return [statistics.median(r["seconds"]) for r in rows if r["seconds"]]


def end_to_end(jobs, passes, setup_s) -> dict:
    per_pass = [latencies(rows) for rows in passes]
    times = [t for lat in per_pass for t in lat]
    iters = secs = 0.0
    for rows in passes:
        for job, row in zip(jobs, rows):
            if job.rate and row["counts"] is not None:
                iters += row["counts"]["iterations"]
                secs += statistics.median(row["seconds"])
    return {
        "wall_s": (statistics.median(sum(lat) for lat in per_pass), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "iters_per_s": (iters / secs, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sierpack" / "__init__.py").is_file():
        print(f"perfbench: no sierpack package under {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    import bench_jobs
    order = bench_jobs.schedule(jobs, args.seed)

    walls, passes = [], []
    start = time.perf_counter()
    while True:
        wall, rows = run_pass(jobs, order)
        walls.append(wall)
        passes.append(rows)
        if args.trace or time.perf_counter() - start + max(walls) > args.seconds:
            break
    tracer = None
    if args.trace:
        # one run of each job, so that the layer counts are those of the list
        import bench_trace
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            wall, rows = run_pass(jobs, range(len(jobs)))
        finally:
            tracer.remove()
        walls.append(wall)
        passes.append(rows)
    judge(jobs, passes)

    attempted = sum(len(rows) for rows in passes)
    failed = sum(r["error"] is not None for rows in passes for r in rows)
    digest = hashlib.sha256(json.dumps(
        [[r["name"], r["counts"]] for r in passes[0]], sort_keys=True)
        .encode()).hexdigest()[:16]
    if tracer is not None:
        metrics = tracer.layer_metrics()
        untraced, traced = (sum(latencies(rows)) for rows in passes)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
    else:
        metrics = end_to_end(jobs, passes, setup_s)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"machine": _machine(args.seed), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "setup_runs_s": setup_times, "pass_walls_s": walls,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "counts_digest": digest,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "passes": passes}
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.json")

    print(f"machine {json.dumps(record['machine'])}")
    print(f"{args.workload}: {len(passes)} pass(es), wall {['%.3f' % w for w in walls]}, "
          f"fail_ratio {failed}/{attempted}, counts digest {digest}")
    for rows in passes:
        for r in rows:
            if r["error"] is not None:
                print(f"FAILED {r['name']}: {r['error'].strip().splitlines()[-1]}")
    if tracer is not None:
        print("self time " + ", ".join(
            f"{layer} {metrics[layer + '.self_s'][0]:.3f} s" for layer in bench_trace.LAYERS)
            + f"; tracing overhead {metrics['trace.overhead_s'][0]:.3f} s")
    print(f"record {OUT / (tag + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
