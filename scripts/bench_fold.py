#!/usr/bin/env python3
"""Fold alternating parent/change benchmark runs into one JSON file.

A run is one ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` in a checkout, N being BENCHMARK.json's ``run_seconds``, and
its last stdout line is the result. With ``--parent`` and ``--change``
this script first runs the pairs itself: ``--pairs`` pairs per seed, the
side that goes first alternating from one pair to the next. Each run's result line is appended to the log as soon
as the run ends, with its side, seed, pair number and the stamp of the
record the run left in that checkout's ``.bench_out/``.

Then every line of the log is folded into ``--out``: per seed, side and
end-to-end metric the values, median and quartiles; per seed and metric
the number of pairs the change won (ties count for neither side); the
same over all pairs, with the parent's interquartile range, whether a
gain may be claimed (at least 9 in 10 pairs won, and a median gap wider
than that range) and whether the change is worse than the benchmark's
bound allows; and the stamps of both sides. A log may hold several
workloads; each is folded apart. Metric directions and bounds come from
BENCHMARK.json.

    python3 scripts/bench_fold.py runs.jsonl --out BENCH_6.json \\
        --parent ../parent --change . --workload ddsp_info_trim \\
        --seeds 11 12 13 14 15 --pairs 2

Without ``--parent``/``--change`` it folds an existing log.

``setup_s`` depends on where a checkout sits, not only on its code (on a
2-CPU host, medians of 0.341 against 0.304 s for checkouts in two
directories, and no consistent gap once both sat in one), so the script
warns on stderr when the two checkouts sit in different parent
directories.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; returns its result line and stamp."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    record = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "stamp": json.loads(record.read_text())["stamp"]}


def run_pairs(log: Path, checkouts: dict, workload: str, seeds, pairs: int,
              seconds: int):
    k = 0
    for seed in seeds:
        for _ in range(pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                rec = run_once(checkouts[side], workload, seed, seconds)
                rec.update(side=side, seed=seed, pair=k, first=order[0],
                           workload=workload, seconds=seconds)
                with log.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"pair {k} seed {seed} {side}: "
                      + ", ".join(f"{m} {v['value']:.4g}"
                                  for m, v in rec["result"]["metrics"].items()),
                      flush=True)
            k += 1


def describe(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def fold_group(recs: list[dict], better: dict) -> dict:
    """Per-side summaries and the change's wins over the pairs in recs."""
    by_pair = defaultdict(dict)
    for r in recs:
        by_pair[r["pair"]][r["side"]] = r["result"]
    out = {"pairs": 0, "wins": {m: 0 for m in better}}
    values = {side: defaultdict(list) for side in SIDES}
    for pair in sorted(by_pair):
        for side, res in by_pair[pair].items():
            for m in better:
                values[side][m].append(res["metrics"][m]["value"])
        if len(by_pair[pair]) < 2:
            continue
        out["pairs"] += 1
        for m, direction in better.items():
            p = by_pair[pair]["parent"]["metrics"][m]["value"]
            c = by_pair[pair]["change"]["metrics"][m]["value"]
            out["wins"][m] += c < p if direction == "lower" else c > p
    for side in SIDES:
        out[side] = {m: describe(v) for m, v in values[side].items()}
        out[f"{side}_failed"] = sum(r["result"]["failed"] for r in recs
                                    if r["side"] == side)
        out[f"{side}_attempted"] = sum(r["result"]["attempted"] for r in recs
                                       if r["side"] == side)
    return out


def fold_workload(recs: list[dict], better: dict, bounds: dict) -> dict:
    total = fold_group(recs, better)
    total["claim"] = {}
    for m, direction in better.items():
        p, c = total["parent"].get(m), total["change"].get(m)
        if not (p and c):
            continue
        gap = c["median"] - p["median"]
        improved = gap < 0 if direction == "lower" else gap > 0
        iqr = p["q3"] - p["q1"]
        total["claim"][m] = {
            "median_rel_change": gap / p["median"],
            "parent_iqr": iqr,
            "gain_claimable": bool(improved and abs(gap) > iqr
                                   and total["wins"][m] >= 0.9 * total["pairs"]),
            "worse_beyond_bound": bool(not improved
                                       and abs(gap) > bounds[m] * p["median"]),
        }
    seeds = sorted({r["seed"] for r in recs})
    return {"seconds": sorted({r["seconds"] for r in recs}),
            "seeds": {str(s): fold_group([r for r in recs if r["seed"] == s],
                                         better) for s in seeds},
            "all": total}


def fold(recs: list[dict]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    stamps = {side: [] for side in SIDES}
    for r in recs:
        stamp = {k: v for k, v in r["stamp"].items() if k != "seed"}
        if stamp not in stamps[r["side"]]:
            stamps[r["side"]].append(stamp)
    workloads = sorted({r["workload"] for r in recs})
    return {"better": better, "bound": bounds, "stamps": stamps,
            "workloads": {w: fold_workload([r for r in recs if r["workload"] == w],
                                           better, bounds) for w in workloads}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("log", type=Path, help="JSON lines, one per run")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--pairs", type=int, default=1, help="pairs per seed")
    args = ap.parse_args(argv)
    if args.parent or args.change:
        if not (args.parent and args.change and args.workload and args.seeds):
            ap.error("running pairs needs --parent, --change, --workload and --seeds")
        if args.parent.resolve().parent != args.change.resolve().parent:
            print(f"warning: the parent checkout ({args.parent}) and the change "
                  f"checkout ({args.change}) sit in different directories; "
                  "setup_s depends on where a checkout sits, so it can move "
                  "with no code change", file=sys.stderr)
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        run_pairs(args.log, {"parent": args.parent.resolve(),
                             "change": args.change.resolve()},
                  args.workload, args.seeds, args.pairs, seconds)
    recs = [json.loads(line) for line in args.log.read_text().splitlines() if line]
    folded = fold(recs)
    args.out.write_text(json.dumps(folded, indent=1) + "\n")
    for w, res in folded["workloads"].items():
        for m, c in res["all"]["claim"].items():
            print(f"{w} {m}: median {100 * c['median_rel_change']:+.1f}% over "
                  f"{res['all']['pairs']} pairs, {res['all']['wins'][m]} won, "
                  f"gain claimable {c['gain_claimable']}, "
                  f"worse beyond bound {c['worse_beyond_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
