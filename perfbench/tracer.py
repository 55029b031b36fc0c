"""Span tracer that times calls into audiotrim's modules from outside.

While installed, it rebinds selected module and class attributes to
timing wrappers and puts the originals back on exit, also when the traced
code raises. This intercepts every caller that looks the name up through
its module (``fourier.fft``, ``T.matmul``, ``nn.apply_trim``, the bare
``rewind``/``select_*`` calls inside ``pruning``) or through the class
(``Tensor.backward``, ``WeightMask.enforce``). Names bound as default
arguments, such as ``models.compute_loss``, cannot be intercepted this
way; the loss is timed through ``multiscale_spectral_loss``,
``nll_from_logits`` and ``Tensor.backward`` instead.

Spans (name, start, end, parent, run id) stay in memory until ``dump``.
Counts are kept per run id; a count made while a span named in
``scopes`` is open is also kept under ``<scope>.<metric>``.
A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter

NAME, START, END, PARENT, RUN = range(5)


def fft_counts(args, kwargs):
    x = np.asarray(args[0])
    n = x.shape[-1]
    rows = x.size // n if n else 0
    return {"points": x.size,
            "flops_est": 5.0 * n * math.log2(n) * rows if n > 1 else 0.0}


def matmul_counts(args, kwargs):
    a, b = args[0].data, args[1].data
    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    batch = np.broadcast_shapes(a2.shape[:-2], b2.shape[:-2])
    m, k = a2.shape[-2:]
    return {"macs": int(np.prod(batch, dtype=np.int64)) * m * k * b2.shape[-1]}


def conv_counts(args, kwargs):
    x, w = args[0].data, args[1].data
    n_out, cin, k = w.shape
    batch = x.shape[0] if x.ndim == 3 else 1
    return {"macs": batch * n_out * cin * k * x.shape[-1]}


def graph_size(root) -> int:
    """Number of tensors reachable from ``root`` through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Collects spans and per-span counters for one process."""

    def __init__(self, scopes=()):
        self.scopes = frozenset(scopes)
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.results: dict[int, object] = {}
        self.run_id = "setup"
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][END] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, run_id: str | None = None):
        """A span opened by the benchmark itself, e.g. one timed call."""
        if run_id is not None:
            self.run_id = run_id
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def add(self, metric: str, value: float):
        counts = self.counts[self.run_id]
        counts[metric] += value
        for scope in self.scopes.intersection(self.spans[i][NAME]
                                              for i in self._stack):
            counts[f"{scope}.{metric}"] += value

    def wrap_callable(self, fn, name: str, counter=None, after=None, keep=None,
                      count_graph=False):
        """Time ``fn`` as span ``name``.

        ``counter(args, kwargs)`` and ``after(args, kwargs, result)`` return
        counts added under ``name.<key>``; ``keep(args, result)`` stores a
        value in ``results`` under the span's index.
        """
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                if count_graph:
                    # the graph walk is tracing cost: its own child span keeps
                    # it out of the wrapped call's self time
                    with tracer.span("trace.graph_count"):
                        tracer.add(f"{name}.graph_nodes", graph_size(args[0]))
                if counter is not None:
                    for key, val in counter(args, kwargs).items():
                        tracer.add(f"{name}.{key}", val)
                result = fn(*args, **kwargs)
                if after is not None:
                    for key, val in after(args, kwargs, result).items():
                        tracer.add(f"{name}.{key}", val)
                if keep is not None:
                    tracer.results[idx] = keep(args, result)
                return result
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- rebinding -------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, targets):
        """Rebind each (owner, attr, name, options) target while active and
        put every original back on exit, also when the body raises."""
        saved = []
        try:
            for owner, attr, name, opts in targets:
                original = owner.__dict__[attr]
                if opts.get("factory"):
                    wrapper = self._factory_wrapper(original, name)
                else:
                    wrapper = self.wrap_callable(original, name, **opts)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _factory_wrapper(self, factory, name):
        """Wrap the callable a factory returns (e.g. adam_trainer's closure)."""
        tracer = self

        def make(*args, **kwargs):
            return tracer.wrap_callable(factory(*args, **kwargs), name)

        make.__wrapped__ = factory
        return make

    # -- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                kids[s[PARENT]].append(i)
        return kids

    def dump(self, path):
        """Write one JSON line per span: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "run": s[RUN]}) + "\n")
