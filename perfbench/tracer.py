"""Spans recorded from outside the program, for the traced run.

:func:`install` replaces natkit's public functions with timing wrappers at
the names their callers look them up by (``natkit.training.forward`` is the
name ``train_step`` calls, ``natkit.model.ctc_loss_logits`` the one the CTC
loss head calls, and so on), so nothing inside natkit changes. A span is
(name, start, end, parent); spans stay in memory and are written out when
the run ends. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# (module, attribute, span name): each function wrapped at its lookup site
WRAPPED = (
    ("natkit.training", "train_step", "training.train_step"),
    ("natkit.training", "forward", "training.forward"),
    ("natkit.training", "backward", "training.backward"),
    ("natkit.training", "adam_update", "training.adam_update"),
    ("natkit.training", "validation_loss", "training.validation_loss"),
    ("natkit.training", "glance_inputs_ctc", "training.glance_inputs_ctc"),
    ("natkit.model", "ctc_loss_logits", "model.ctc_loss_logits"),
    ("natkit.glancing", "viterbi_align", "glancing.viterbi_align"),
    ("natkit.metrics", "tokenize_13a", "metrics.tokenize_13a"),
    ("natkit.metrics", "levenshtein", "metrics.levenshtein"),
    ("natkit.metrics", "bleu_sentence_stats", "metrics.bleu_sentence_stats"),
    ("natkit.metrics", "chrf_sentence_stats", "metrics.chrf_sentence_stats"),
    ("natkit.metrics", "ter_sentence_stats", "metrics.ter_sentence_stats"),
    ("natkit.significance", "paired_bootstrap", "significance.paired_bootstrap"),
)
# the entries of natkit.metrics.METRICS, which `score`, `signif` and the
# bootstrap all reach through the one shared dict
METRIC_SPAN = "METRICS."
HOOK_SPAN = "bench.hook"

Hook = Callable[[tuple, dict, object], None]


class Recorder:
    """Spans in parallel arrays; ``enabled`` False makes every call a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                # a child span of the caller, so checks stay out of its self time
                with self.span(HOOK_SPAN):
                    hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """TSV: span id, name, start and end in microseconds from the
        recorder's creation, parent span id (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - self.t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - self.t0) * 1e6:.1f}\t{self.parent[i]}\n")


def install(rec: Recorder, hooks: dict[str, Hook]) -> None:
    """Wrap every function in WRAPPED and every METRICS entry."""
    for module_name, attr, name in WRAPPED:
        module = importlib.import_module(module_name)
        setattr(module, attr, rec.wrap(getattr(module, attr), name, hooks.get(name)))
    from natkit.metrics import METRICS

    for key in list(METRICS):
        METRICS[key] = rec.wrap(METRICS[key], METRIC_SPAN + key)


class Spans:
    """Read-only analysis of a recorder's spans."""

    def __init__(self, rec: Recorder):
        self.names = list(rec.names)
        self.name = np.frombuffer(rec.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(rec.parent, dtype=np.int32).copy()
        self.dur = np.frombuffer(rec.end, dtype=np.float64) - np.frombuffer(rec.start, dtype=np.float64)
        if np.isnan(self.dur).any():
            raise RuntimeError("a span was never closed")
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name == self.names.index(name))[0]

    def ids_prefixed(self, prefix: str) -> np.ndarray:
        nids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.nonzero(np.isin(self.name, nids))[0]

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def with_parent(self, ids: np.ndarray, parent_name: str) -> np.ndarray:
        return np.array([i for i in ids if self.parent[i] >= 0
                         and self.name_of(self.parent[i]) == parent_name], dtype=np.int64)

    def with_ancestor(self, ids: np.ndarray, prefix: str) -> np.ndarray:
        keep = []
        for i in ids:
            p = self.parent[i]
            while p >= 0 and not self.name_of(p).startswith(prefix):
                p = self.parent[p]
            if p >= 0:
                keep.append(i)
        return np.array(keep, dtype=np.int64)
