"""Instrumented parallel sweep: span trees, event counters and the cache.

Runs four Table II testcases through flows (1), (2) and (5) on two worker
processes, then prints each job's stage span tree, the event counters
summed over the rows, and the artifact-cache statistics (run it twice —
the second run reports a cache hit for every testcase).

Run:  python examples/sweep_metrics.py [scale_denominator] [workers]
e.g.  python examples/sweep_metrics.py 96 2
"""

import sys
import tempfile

from repro import RunConfig, run_sweep

TESTCASES = ("aes_300", "jpeg_400", "des3_210", "vga_290")


def main() -> None:
    denom = float(sys.argv[1]) if len(sys.argv) > 1 else 96.0
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    cache_dir = sys.argv[3] if len(sys.argv) > 3 else tempfile.mkdtemp(
        prefix="repro_sweep_"
    )

    config = RunConfig(scale=1.0 / denom, workers=workers)
    result = run_sweep(
        testcase_ids=TESTCASES,
        flows=(1, 2, 5),
        config=config,
        cache_dir=cache_dir,
        progress=print,
    )

    print(f"\n{len(result.jobs)} jobs in {result.wall_s:.2f}s "
          f"on {result.workers} workers")
    for job in result.jobs:
        print(f"\n=== {job.testcase_id} flow({job.flow}) [{job.status}] "
              f"hpwl {job.hpwl / 1e6:.3f} mm, "
              f"cache {'hit' if job.cache_hit else 'miss'}, "
              f"pid {job.worker_pid}")
        print(job.format_span_tree())

    print("\nevent counters (summed over the rows):")
    for name, count in sorted(result.metrics["counters"].items()):
        print(f"  {name:>24s}: {count:g}")
    print(f"\ncache: {result.cache['hits']} hits, "
          f"{result.cache['misses']} misses ({cache_dir})")
    print(f"rerun with the same cache dir for all-hit: "
          f"python examples/sweep_metrics.py {denom:g} {workers} {cache_dir}")


if __name__ == "__main__":
    main()
