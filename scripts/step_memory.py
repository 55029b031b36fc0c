#!/usr/bin/env python3
"""Memory of one benchmark-sized train step.

    python3 scripts/step_memory.py --workload wavenet_paired --seed 21

Sets up one ``perfbench`` workload at its benchmark sizes (the corpus goes
to a temporary directory), builds its network and training batches as
``harness.setup`` does, and takes one warm-up step, so that per-batch
constants and caches exist before the measured step. Then it runs the
forward pass of the first batch's loss and its backward pass. All of it
runs under ``tracemalloc``, and it prints one JSON line: the peak during
set-up and the bytes held at the measured step's start (the net, the
batches and their constants), both above what was held before set-up;
the bytes the autograd graph holds after the forward pass, its node
count, the peaks of the forward and the backward pass, each above the
step's start; and the process's peak resident set in MB (``ru_maxrss``),
which includes set-up. So set-up sets the process's peak when
``setup_peak_bytes`` is above ``step_start_bytes`` plus the larger step
peak. Tracing set-up itself adds about 0.7 MB to ``ru_maxrss``
(``ddsp_info_trim``, seed 7).
numpy reports its array buffers to ``tracemalloc``; BLAS work buffers are
not counted. ``tensor`` pins malloc's trim threshold, so freed arrays stay
resident, and the ``ru_maxrss`` reading follows what a benchmark run reports
as ``peak_rss_mb`` without a full benchmark window.
"""

import argparse
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def graph_nodes(root) -> int:
    """Nodes of the graph that ends at root, root included."""
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def measure(name: str, seed: int, sizes: dict) -> dict:
    """One train step of workload ``name`` at ``sizes``; sizes in bytes."""
    workloads.import_program()
    from audiotrim import harness, models
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory(prefix="step_memory-") as tmp:
            wl = workloads.ImpWorkload(name, sizes, seed, Path(tmp))
            wl.setup()
            splits, net, _ = harness.setup(wl.cfg)
        setup_peak = tracemalloc.get_traced_memory()[1]
        batch = splits.train[0]
        models.compute_loss(net, batch).backward()
        net.zero_grad()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loss = models.compute_loss(net, batch)
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"workload": name, "seed": seed, "batch": list(batch["wave"].shape),
            "setup_peak_bytes": setup_peak, "step_start_bytes": start,
            "graph_bytes": held - start, "graph_nodes": graph_nodes(loss),
            "forward_peak_bytes": forward_peak - start,
            "backward_peak_bytes": backward_peak - start,
            "peak_rss_mb_with_setup":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=21)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, workloads.SIZES[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
