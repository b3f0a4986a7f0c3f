"""Hypothesis-level analyses: edit-distance histograms and token repetition.

Distances are token-level (whitespace tokens for strings), matching how
hypothesis/reference divergence is usually binned for plotting.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .metrics import _check_corpus, levenshtein


def _tokens(sentence) -> list:
    if isinstance(sentence, str):
        return sentence.split()
    return list(sentence)


def levenshtein_histogram(hyps: Sequence, refs: Sequence) -> np.ndarray:
    """Counts of sentence pairs per token-level edit distance.

    Entry ``d`` of the result is the number of pairs at distance exactly
    ``d``; the array spans 0..max distance observed.
    """
    _check_corpus(hyps, refs)
    dists = [levenshtein(_tokens(h), _tokens(r)) for h, r in zip(hyps, refs)]
    return np.bincount(dists)


def adjacent_repetition_rate(sentences: Iterable) -> float:
    """Fraction of adjacent token pairs whose two tokens are identical.

    Degenerate parallel decodes repeat tokens; this measures how often.
    Sentences shorter than two tokens contribute no pairs; a corpus with
    no pairs at all has rate 0.
    """
    repeats = 0
    pairs = 0
    for sentence in sentences:
        toks = _tokens(sentence)
        pairs += max(len(toks) - 1, 0)
        repeats += sum(a == b for a, b in zip(toks, toks[1:]))
    return repeats / pairs if pairs else 0.0
