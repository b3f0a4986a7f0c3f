"""Per-layer metrics of the traced run, computed from its spans.

Each entry: the metric's name (its unit is in BENCHMARK.json) and the
end-to-end metrics it should move. Times are means per call (or per step,
sentence, command); counts are per round of their stage, or per sentence
or table, so they repeat exactly whatever the run length.
"""

from __future__ import annotations

import numpy as np

from tracer import METRIC_SPAN, Spans

PER_LAYER = (
    ("ctc.loss_ms", "train_ctc_pairs_per_s, train_glat_pairs_per_s"),
    ("ctc.loss_calls", "train_ctc_pairs_per_s, train_glat_pairs_per_s"),
    ("ctc.viterbi_ms", "train_glat_pairs_per_s"),
    ("ctc.viterbi_calls", "train_glat_pairs_per_s"),
    ("glancing.glance_self_ms", "train_glat_pairs_per_s"),
    ("glancing.revealed", "nothing: a guard on glancing semantics"),
    ("model.forward_ms", "all three train_*"),
    ("model.forward_calls", "all three train_*"),
    ("model.backward_ms", "all three train_*"),
    ("training.step_self_ms.vanilla", "train_vanilla_pairs_per_s"),
    ("training.step_self_ms.ctc", "train_ctc_pairs_per_s"),
    ("training.step_self_ms.glat", "train_glat_pairs_per_s"),
    ("training.adam_ms", "all three train_*"),
    ("training.validation_ms", "all three train_*"),
    ("model.at_passes", "nothing: equal under a key/value cache"),
    ("model.at_ms_per_pass", "at_decode_ms_p50, at_decode_ms_p95"),
    ("checkpoint.load_ms", "setup_s"),
    ("corpus.tokenize_13a_us", "bleu_sent_per_s, signif_table_s"),
    ("metrics.bleu_stats_us", "bleu_sent_per_s, signif_table_s"),
    ("metrics.chrf_stats_us", "chrf_sent_per_s"),
    ("metrics.ter_stats_ms", "ter_sent_per_s"),
    ("metrics.levenshtein_calls", "ter_sent_per_s"),
    ("metrics.levenshtein_us", "ter_sent_per_s"),
    ("significance.bootstrap_self_ms", "signif_table_s"),
    ("significance.rescore_calls", "signif_table_s"),
    ("cli.command_self_ms", "all four score metrics"),
)


def _mean(values: np.ndarray, scale: float) -> float:
    if len(values) == 0:
        raise RuntimeError("a per-layer metric has no spans to measure")
    return float(np.mean(values)) * scale


def compute(spans: Spans, train, translate) -> dict[str, float]:
    """Every PER_LAYER value; ``train`` and ``translate`` are the run's
    stages, for their round counts and the counters they kept."""
    ms, us = 1e3, 1e6
    d, s, ids = spans.dur, spans.self_time, spans.ids
    steps = ids("training.train_step")
    signif = ids("cli.signif")
    rescore = spans.with_ancestor(spans.ids_prefixed(METRIC_SPAN), "cli.signif")
    ter = ids("metrics.ter_sentence_stats")
    at = ids("translate.at")
    out = {
        "ctc.loss_ms": _mean(d[ids("model.ctc_loss_logits")], ms),
        "ctc.loss_calls": len(ids("model.ctc_loss_logits")) / train.rounds,
        "ctc.viterbi_ms": _mean(d[ids("glancing.viterbi_align")], ms),
        "ctc.viterbi_calls": len(ids("glancing.viterbi_align")) / train.rounds,
        "glancing.glance_self_ms": _mean(s[ids("training.glance_inputs_ctc")], ms),
        "glancing.revealed": train.revealed / train.rounds,
        "model.forward_ms": _mean(d[ids("training.forward")], ms),
        "model.forward_calls": len(ids("training.forward")) / train.rounds,
        "model.backward_ms": _mean(d[ids("training.backward")], ms),
        "training.adam_ms": _mean(d[ids("training.adam_update")], ms),
        "training.validation_ms": _mean(d[ids("training.validation_loss")], ms),
        "model.at_passes": translate.passes_per_round,
        "model.at_ms_per_pass": float(np.sum(d[at])) * ms / (translate.passes_per_round * translate.rounds),
        "checkpoint.load_ms": _mean(d[ids("checkpoint.load")], ms),
        "corpus.tokenize_13a_us": _mean(d[ids("metrics.tokenize_13a")], us),
        "metrics.bleu_stats_us": _mean(d[ids("metrics.bleu_sentence_stats")], us),
        "metrics.chrf_stats_us": _mean(d[ids("metrics.chrf_sentence_stats")], us),
        "metrics.ter_stats_ms": _mean(d[ter], ms),
        "metrics.levenshtein_calls": len(ids("metrics.levenshtein")) / len(ter),
        "metrics.levenshtein_us": _mean(d[ids("metrics.levenshtein")], us),
        "significance.bootstrap_self_ms": _mean(s[ids("significance.paired_bootstrap")], ms),
        "significance.rescore_calls": len(rescore) / len(signif),
        "cli.command_self_ms": _mean(s[spans.ids_prefixed("cli.")], ms),
    }
    for mode in train.MODES:
        out[f"training.step_self_ms.{mode}"] = _mean(s[spans.with_parent(steps, f"train.{mode}")], ms)
    return {name: out[name] for name, _ in PER_LAYER}


def table(metrics: dict, units: dict, spans: Spans, ter_refs) -> str:
    """The per-layer TSV, then TER's cost and Levenshtein calls by
    reference length, from the TER file's sentences in file order."""
    lines = ["metric\tvalue\tunit\tshould move"]
    lines += [f"{name}\t{metrics[name]:.6g}\t{units[name]}\t{moves}" for name, moves in PER_LAYER]
    ter = spans.ids("metrics.ter_sentence_stats")
    lev_parent = spans.parent[spans.ids("metrics.levenshtein")]
    lines += ["", "# TER by reference length (mean over rounds)",
              "words\tms/sentence\tlevenshtein calls"]
    n = len(ter_refs)
    for k, ref in enumerate(ter_refs):
        mine = ter[k::n]
        calls = np.count_nonzero(np.isin(lev_parent, mine)) / len(mine)
        lines.append(f"{len(ref.words_ter)}\t{np.mean(spans.dur[mine]) * 1e3:.1f}\t{calls:g}")
    return "\n".join(lines) + "\n"
