"""Independent references the benchmark checks natkit's outputs against.

Written from the metric and lattice definitions, not from natkit's code:
corpus BLEU (orders 1-4, exponential smoothing, brevity penalty) and chrF++
(character orders 1-6 without whitespace, word orders 1-2, beta 2, averaged
over the orders present) from plain n-gram counts over the generator's own
token lists; word-level Levenshtein distance; and the CTC collapse.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

BLEU_ORDER = 4
CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2
CHRF_BETA = 2.0


def ngram_counts(items: Sequence, n: int) -> Counter:
    return Counter(zip(*(items[k:] for k in range(n))))


def _matches(hyp: Counter, ref: Counter) -> int:
    return sum((hyp & ref).values())


def bleu_profile(tokens: Sequence[str]) -> tuple[int, list[Counter]]:
    """A sentence's length and its n-gram counts, orders 1-4."""
    return len(tokens), [ngram_counts(tokens, n) for n in range(1, BLEU_ORDER + 1)]


def corpus_bleu(hyps: Sequence[tuple[int, list[Counter]]],
                refs: Sequence[tuple[int, list[Counter]]]) -> float:
    """BLEU of sentence profiles, one reference each."""
    correct = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    hyp_len = ref_len = 0
    for (h_len, h), (r_len, r) in zip(hyps, refs, strict=True):
        hyp_len += h_len
        ref_len += r_len
        for n in range(BLEU_ORDER):
            correct[n] += _matches(h[n], r[n])
            total[n] += max(h_len - n, 0)
    log_sum = 0.0
    smooth = 1.0
    for c, t in zip(correct, total):
        if c == 0:
            smooth *= 2.0
            log_sum += math.log(100.0 / (smooth * t))
        else:
            log_sum += math.log(100.0 * c / t)
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return penalty * math.exp(log_sum / BLEU_ORDER)


def corpus_chrfpp(
    hyps: Sequence[tuple[str, Sequence[str]]],
    refs: Sequence[tuple[str, Sequence[str]]],
) -> float:
    """chrF++ of (characters without whitespace, chrF++ words) pairs."""
    orders = [("chars", n) for n in range(1, CHRF_CHAR_ORDER + 1)]
    orders += [("words", n) for n in range(1, CHRF_WORD_ORDER + 1)]
    stats = [[0, 0, 0] for _ in orders]  # hyp n-grams, ref n-grams, matches
    for (h_chars, h_words), (r_chars, r_words) in zip(hyps, refs, strict=True):
        for row, (kind, n) in zip(stats, orders):
            h = ngram_counts(h_chars if kind == "chars" else h_words, n)
            r = ngram_counts(r_chars if kind == "chars" else r_words, n)
            row[0] += max(len(h_chars if kind == "chars" else h_words) - n + 1, 0)
            row[1] += max(len(r_chars if kind == "chars" else r_words) - n + 1, 0)
            row[2] += _matches(h, r)
    b2 = CHRF_BETA * CHRF_BETA
    f_sum, present = 0.0, 0
    for n_hyp, n_ref, match in stats:
        if n_hyp == 0 or n_ref == 0:
            continue
        present += 1
        prec, rec = match / n_hyp, match / n_ref
        if b2 * prec + rec > 0:
            f_sum += (1 + b2) * prec * rec / (b2 * prec + rec)
    return 100.0 * f_sum / present if present else 0.0


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost insertions, deletions and substitutions."""
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        diag, row[0] = row[0], i
        for j, y in enumerate(b, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (x != y))
    return row[-1]


def ctc_collapse(path: Sequence[int], blank: int) -> tuple[int, ...]:
    """Merge runs of one symbol, then delete blanks."""
    out = []
    for i, sym in enumerate(path):
        if sym != blank and (i == 0 or path[i - 1] != sym):
            out.append(int(sym))
    return tuple(out)
