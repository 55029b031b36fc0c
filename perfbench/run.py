"""audiotrim benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a child process of its own, with one BLAS thread
and without numpy's transparent-huge-page hint. With ``--trace 0`` the
result carries the end-to-end metrics; set-up time is the median over
several fresh processes, each timed from its start to the moment it would
make its first timed call. With ``--trace 1`` a single child alternates
untraced and traced calls and the result carries the per-layer metrics.

The last line of standard output is the result object; the lines before
it are a human-readable summary. The full record (stamp, every sample,
every check) goes to ``.bench_out/`` in the checkout, with the spans of a
traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 7  # set-up samples per untraced run, the main child included
DEADLINE_S = 170.0   # the whole run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "step_ms": "ms",
                     "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread, well under the CPU count. The matrices here are tiny
    # (at most 256 x 16 x a few thousand), so a second thread only adds
    # wake-ups: on a shared 2-CPU host two threads made generation 20%
    # slower and its run-to-run spread four times wider.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Whether numpy's large arrays get transparent huge pages depends on the
    # machine's memory fragmentation, not on the code; with them, the paired
    # workload's per-call spread within a run doubled.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run workloads.py in a fresh process; returns its result and the
    monotonic clock reading taken just before it started."""
    cmd = [sys.executable, str(HERE / "workloads.py")] + args
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left to start another process")
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _describe(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_samples(n: int) -> list[float]:
        out = []
        for _ in range(n):
            res, started = _child(base + ["--setup-only"], deadline)
            out.append(res["setup_end"] - started)
        return out

    # Half the extra set-up samples go before the timed window and half
    # after it, so their median spans the run instead of the few seconds
    # of host speed a back-to-back batch would see.
    extra_setups = 0 if trace else SETUP_PROCESSES - 1
    setups = setup_samples(extra_setups // 2)
    extra = ["--spans", str(OUT / f"spans-{tag}.jsonl")] if trace else []
    res, started = _child(base + ["--seconds", str(seconds),
                                  "--trace", str(int(trace))] + extra, deadline)
    setups.append(res["setup_end"] - started)
    setups += setup_samples(extra_setups - extra_setups // 2)

    plain = [c for c in res["calls"] if not c["traced"] and "wall_s" in c]
    if not plain:
        raise RuntimeError(f"every timed call failed: {res['problems']}")
    walls = [c["wall_s"] for c in plain]
    # one sample per call: a call's iterations differ in size (the net
    # shrinks), so a median over single iterations would jump between them
    steps_ms = [1000.0 * statistics.mean(c["steps_s"]) for c in plain]
    res["setup_s_samples"] = setups

    mults = [c["error_mult_final"] for c in plain]
    rates = [c["gen_samples_per_s"] for c in plain if "gen_samples_per_s" in c]
    # the seven end-to-end names of the benchmark's design, for people
    # reading the log; the result line carries the gated metrics
    lines = [f"workload {workload}, stamp {json.dumps(res['stamp'])}",
             f"  setup_s            {_describe(setups)} s",
             f"  imp_wall_s         {_describe(walls)} s",
             f"  prune_iter_s       {_describe([x / 1000 for x in steps_ms])} s",
             "  gen_samples_per_s  "
             + (_describe(rates) + " samples/s (not gated)" if rates
                else "n/a in this workload"),
             f"  peak_rss_mb        {res['peak_rss_mb']:.1f} MB",
             f"  error_mult_final   {_describe(mults)} ratio (not gated)",
             f"  failed_frac        {res['failed']}/{res['attempted']} = "
             f"{res['failed'] / res['attempted']:.3g} failed/attempted"
             + (f"  problems: {res['problems']}" if res["problems"] else "")]

    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        lines += [f"  {k:42s} {v['value']:.6g} {v['unit']}"
                  for k, v in metrics.items()]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "step_ms": statistics.median(steps_ms),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
    print("\n".join(lines))
    return {"correct": res["failed"] == 0 and not res["problems"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="audiotrim benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "audiotrim" / "__init__.py").is_file():
        print(f"error: no audiotrim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
