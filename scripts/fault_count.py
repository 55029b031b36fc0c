#!/usr/bin/env python3
"""Page faults and kernel time per timed benchmark call.

    python3 scripts/fault_count.py --workload wavenet_paired --seed 21 --calls 4

Sets up one ``perfbench`` workload in this process, as the benchmark's
child does (one BLAS thread, no numpy huge-page hint), then makes
``--calls`` timed calls. Before and after each call it reads the
process's own ``getrusage(RUSAGE_SELF)``, and prints one JSON line per
call with its wall time, minor and major faults, user and system time,
then a line of medians and the peak RSS. Allocator churn shows up here as
minor faults and system time even when host noise hides it in wall time.
Run it as a script: the environment is set before numpy is imported.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ddsp_info_trim", "wavenet_paired")


def usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": time.perf_counter(), "minflt": ru.ru_minflt,
            "majflt": ru.ru_majflt, "utime_s": ru.ru_utime,
            "stime_s": ru.ru_stime}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--calls", type=int, default=4)
    args = ap.parse_args(argv)
    # read when numpy and its BLAS load, so set before importing workloads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    workloads.import_program()
    workdir = Path(tempfile.mkdtemp(prefix="fault_count-"))
    rows = []
    try:
        wl = workloads.ImpWorkload(args.workload, workloads.SIZES[args.workload],
                                   args.seed, workdir)
        wl.setup()
        for k in range(args.calls):
            gc.collect()
            before = usage()
            rec = wl.call(k)
            after = usage()
            row = {key: after[key] - before[key] for key in before}
            row.update(call=k, failed=rec["failed"])
            rows.append(row)
            print(json.dumps(row), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = {key: statistics.median(r[key] for r in rows) for key in usage()}
    summary.update(workload=args.workload, seed=args.seed, calls=args.calls,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps({"median": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
