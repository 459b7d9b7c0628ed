"""Per-layer spans recorded from outside the program.

The tracer replaces each traced function under the name its caller looks it
up by (``pageseq.cli.crf_fit``, ``pageseq.training.loss_and_grad``,
``pageseq.encoder.forward_batch``, ...) with a wrapper that records a span:
layer name, start, end, parent span and whether it raised.  The layer is
the defining module plus the function name (``crf.crf_fit``), so a function
reached through several callers adds up in one layer.  Spans stay in memory
until the run ends.  ``install``/``uninstall`` restore every name exactly;
nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from collections import Counter
from contextlib import contextmanager

# (caller module, name it calls) for every traced function.
SPAN_SITES = (
    ("pageseq.cli", "generate_synthetic"),
    ("pageseq.cli", "write_corpus"),
    ("pageseq.cli", "load_corpus"),
    ("pageseq.cli", "fit_vocabulary"),
    ("pageseq.features", "fit_vocabulary"),
    ("pageseq.cli", "train_encoder"),
    ("pageseq.recurrence", "page_examples"),
    ("pageseq.training", "loss_and_grad"),
    ("pageseq.training", "optimizer_step"),
    ("pageseq.encoder", "forward_batch"),
    ("pageseq.cli", "infer_document"),
    ("pageseq.training", "infer_document"),
    ("pageseq.cli", "infer_context_oblivious"),
    ("pageseq.training", "infer_context_oblivious"),
    ("pageseq.cli", "save_checkpoint"),
    ("pageseq.cli", "load_checkpoint"),
    ("pageseq.cli", "restore_encoder"),
    ("pageseq.cli", "write_traces"),
    ("pageseq.cli", "read_traces"),
    ("pageseq.cli", "crf_fit"),
    ("pageseq.crf", "crf_log_likelihood_and_grad"),
    ("pageseq.cli", "crf_viterbi"),
    ("pageseq.cli", "score"),
    ("pageseq.evaluation", "score"),
    ("pageseq.training", "score"),
    ("pageseq.cli", "compare_traces"),
)

# Called tens of thousands of times per pass; only counted, because a span
# per call would cost more than the call itself.
COUNT_SITES = (
    ("pageseq.recurrence", "augment_input"),
    ("pageseq.recurrence", "tokenize"),
    ("pageseq.features", "tokenize"),
)


def layer_of(fn) -> str:
    return f"{fn.__module__.removeprefix('pageseq.')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent index, raised]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # sites the program no longer has
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for sites, wrap in ((SPAN_SITES, self._span_wrapper),
                            (COUNT_SITES, self._count_wrapper)):
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrap(layer_of(fn), fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def span(self, layer: str):
        index = len(self.spans)
        record = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None, False]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, layer, fn):
        if layer == "crf.crf_fit":
            return self._crf_fit_wrapper(layer, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "encoder.forward_batch":
                sequences = args[1] if len(args) > 1 else kwargs["sequences"]
                self.counts["encoder.forward_batch.rows"] += len(sequences)
            with self.span(layer):
                return fn(*args, **kwargs)
        return traced

    def _crf_fit_wrapper(self, layer, fn):
        """crf_fit reports non-convergence only as a warning; count them."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            self.counts["crf.crf_fit.unconverged"] += len(caught)
            return result
        return traced

    def _count_wrapper(self, layer, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[layer] += 1
            return fn(*args, **kwargs)
        return counted

    def layer_totals(self):
        """Self time and call count per layer.  Self time is a span's
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
        return self_s, calls + self.counts

    def metric(self, name: str, totals) -> float:
        """Value of a per-layer metric named ``<layer>.<what>``."""
        self_s, calls = totals
        layer, _, what = name.rpartition(".")
        if what in ("s", "self_s"):
            return self_s[layer]
        if what == "calls":
            return calls[layer]
        if what == "rows_per_call":
            return calls[f"{layer}.rows"] / calls[layer] if calls[layer] else 0.0
        if what == "unconverged":
            return calls[name]
        raise KeyError(f"no per-layer rule for metric {name!r}")

    def spans_payload(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": layer, "start": start - t0, "end": end - t0,
                 "parent": parent, "raised": failed}
                for layer, start, end, parent, failed in self.spans]
